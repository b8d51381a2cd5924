#include "server/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <chrono>

#include "db/database.h"
#include "obs/trace.h"

namespace gistcr {

Server::Server(Database* db, ServerOptions opts)
    : db_(db), opts_(std::move(opts)) {
  if (opts_.num_workers == 0) opts_.num_workers = 1;
}

Server::~Server() {
  (void)Shutdown();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Status Server::EpollAdd(int fd, uint64_t tag, bool readable) {
  epoll_event ev;
  ev.events = readable ? static_cast<uint32_t>(EPOLLIN) : 0u;
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError("epoll_ctl(ADD)");
  }
  return Status::OK();
}

void Server::EpollDel(int fd) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

Status Server::Start() {
  {
    MutexLock l(mu_);
    GISTCR_CHECK(!running_);
  }
  m_.Attach(db_->metrics());
  GISTCR_RETURN_IF_ERROR(
      net::TcpListen(opts_.host, opts_.port, &listener_, &port_));
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Status::IOError("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return Status::IOError("eventfd");
  GISTCR_RETURN_IF_ERROR(EpollAdd(listener_.fd(), kListenTag, true));
  GISTCR_RETURN_IF_ERROR(EpollAdd(wake_fd_, kWakeTag, true));
  {
    MutexLock l(mu_);
    running_ = true;
  }
  loop_thread_ = std::thread([this] { EventLoop(); });
  for (uint32_t i = 0; i < opts_.num_workers; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::Wake() {
  uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

size_t Server::active_sessions() {
  MutexLock l(mu_);
  return sessions_.size();
}

Status Server::Shutdown() {
  {
    MutexLock l(mu_);
    if (!running_ || shutdown_done_) return Status::OK();
    shutdown_done_ = true;
    draining_ = true;
  }
  // No maintenance checkpoint may start while sessions drain; the final
  // checkpoint below is the explicit one.
  db_->PrepareShutdown();
  Wake();  // event loop closes the listener and starts reaping idle conns
  {
    MutexLock l(mu_);
    const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
    while (!sessions_.empty()) {
      if (!sessions_cv_.WaitUntil(mu_, deadline)) break;  // drain timed out
    }
    force_close_ = true;
  }
  Wake();
  {
    // Force-abort converges: every surviving transaction is rolled back as
    // soon as its session is idle, which also unblocks any request waiting
    // on one of its locks.
    MutexLock l(mu_);
    while (!sessions_.empty()) sessions_cv_.Wait(mu_);
    stop_workers_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
  workers_.clear();
  {
    MutexLock l(mu_);
    stop_loop_ = true;
  }
  Wake();
  loop_thread_.join();
  {
    MutexLock l(mu_);
    running_ = false;
  }
  // All sessions are gone; leave a clean recovery point behind.
  return db_->Checkpoint();
}

void Server::AcceptAll() {
  while (true) {
    net::Socket sock;
    Status st = net::TcpAccept(listener_.fd(), &sock);
    if (st.IsBusy()) return;  // accept queue drained
    if (!st.ok()) return;     // transient; epoll will re-report
    MutexLock l(mu_);
    if (draining_) continue;  // Socket destructor closes the connection
    const uint64_t id = next_session_id_++;
    auto session = std::make_unique<Session>(id, std::move(sock));
    Session* s = session.get();
    sessions_[id] = std::move(session);
    if (!EpollAdd(s->fd(), id, true).ok()) {
      sessions_.erase(id);
      continue;
    }
    s->in_epoll = true;
    m_.accepts->Add(1);
    m_.active_connections->Set(static_cast<double>(sessions_.size()));
  }
}

void Server::ScheduleLocked(Session* s) {
  if (!s->scheduled && !s->pending.empty()) {
    s->scheduled = true;
    runq_.push_back(s);
    work_cv_.NotifyOne();
  }
}

void Server::HandleReadable(Session* s) {
  char buf[64 * 1024];
  bool eof = false;
  bool fatal_frame = false;
  std::vector<ServerRequest> parsed;
  while (true) {
    size_t n = 0;
    Status st = net::ReadSome(s->fd(), buf, sizeof(buf), &n);
    if (st.IsBusy()) break;  // drained the socket buffer
    if (!st.ok() || n == 0) {
      eof = true;
      break;
    }
    m_.bytes_in->Add(n);
    s->reader.Feed(buf, n);
    while (true) {
      net::Frame f;
      const net::FrameReader::Result r = s->reader.Next(&f);
      if (r == net::FrameReader::Result::kFrame) {
        ServerRequest req;
        req.kind = ServerRequest::Kind::kFrame;
        req.frame = std::move(f);
        req.enqueue_ns = obs::NowNanos();
        parsed.push_back(std::move(req));
        continue;
      }
      if (r == net::FrameReader::Result::kNeedMore) break;
      // Framing poisoned: the length field cannot be trusted, so the
      // stream cannot be resynchronized — reply a typed error and close.
      ServerRequest req;
      req.kind = ServerRequest::Kind::kProtocolError;
      req.fatal = true;
      req.enqueue_ns = obs::NowNanos();
      switch (r) {
        case net::FrameReader::Result::kBadVersion:
          req.error = net::ErrorCode::kBadVersion;
          req.error_msg = "unsupported protocol version";
          break;
        case net::FrameReader::Result::kTooLarge:
          req.error = net::ErrorCode::kFrameTooLarge;
          req.error_msg = "frame exceeds request size cap";
          break;
        default:
          req.error = net::ErrorCode::kMalformedFrame;
          req.error_msg = "bad magic or undersized frame";
          break;
      }
      parsed.push_back(std::move(req));
      fatal_frame = true;
      break;
    }
    if (fatal_frame) break;
  }

  MutexLock l(mu_);
  for (auto& req : parsed) {
    s->pending.push_back(std::move(req));
    total_pending_++;
  }
  m_.queue_depth->Set(static_cast<double>(total_pending_));
  if (eof) s->closed = true;
  if (fatal_frame && s->in_epoll) {
    // Stop reading a poisoned stream; the worker still sends the typed
    // error before the session is reaped.
    EpollDel(s->fd());
    s->in_epoll = false;
  }
  if (!s->closed &&
      s->pending.size() >= kMaxInflightPerSession && !s->paused &&
      s->in_epoll) {
    epoll_event ev;
    ev.events = 0;  // stay registered, report nothing: backpressure
    ev.data.u64 = s->id();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, s->fd(), &ev) == 0) {
      s->paused = true;
      m_.backpressure_pauses->Add(1);
    }
  }
  ScheduleLocked(s);
  if (s->closed && !s->scheduled) ScanSessionsLocked();
}

void Server::FinalizeLocked(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session* s = it->second.get();
  total_pending_ -= static_cast<int64_t>(s->pending.size());
  s->pending.clear();
  m_.queue_depth->Set(static_cast<double>(total_pending_));
  if (s->in_epoll) {
    EpollDel(s->fd());
    s->in_epoll = false;
  }
  s->AbortOpenTxn(db_, m_);  // abort-on-disconnect / forced drain
  sessions_.erase(it);       // closes the socket
  m_.active_connections->Set(static_cast<double>(sessions_.size()));
  if (sessions_.empty()) sessions_cv_.NotifyAll();
}

void Server::ScanSessionsLocked() {
  if (draining_ && !listener_closed_) {
    EpollDel(listener_.fd());
    listener_.Close();
    listener_closed_ = true;
  }
  std::vector<uint64_t> reap;
  for (auto& [id, sp] : sessions_) {
    Session* s = sp.get();
    if (s->scheduled) continue;  // a worker owns it; re-scanned on wake
    if (s->closed && s->pending.empty()) {
      reap.push_back(id);
      continue;
    }
    if (s->closed) {
      // EOF with queued requests: the client cannot read the responses
      // any more, drop the queue and reap.
      reap.push_back(id);
      continue;
    }
    if (force_close_ && s->pending.empty()) {
      reap.push_back(id);
      continue;
    }
    if (draining_ && s->pending.empty() && !s->has_txn()) {
      // Idle and transaction-less: nothing to drain.
      reap.push_back(id);
      continue;
    }
    if (force_close_ && s->in_epoll) {
      // Stop reading; let the queued requests finish, then reap.
      EpollDel(s->fd());
      s->in_epoll = false;
    }
  }
  for (uint64_t id : reap) FinalizeLocked(id);
}

void Server::EventLoop() {
  epoll_event evs[64];
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, evs, 64, -1);
    if (n < 0) continue;  // EINTR
    for (int i = 0; i < n; i++) {
      const uint64_t tag = evs[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t junk;
        while (::read(wake_fd_, &junk, sizeof(junk)) > 0) {
        }
        continue;
      }
      if (tag == kListenTag) {
        AcceptAll();
        continue;
      }
      Session* s;
      {
        MutexLock l(mu_);
        auto it = sessions_.find(tag);
        if (it == sessions_.end()) continue;  // reaped already
        s = it->second.get();
        if (s->closed || !s->in_epoll) continue;
      }
      if ((evs[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
          (evs[i].events & EPOLLIN) == 0) {
        MutexLock l(mu_);
        s->closed = true;
        if (!s->scheduled) ScanSessionsLocked();
        continue;
      }
      // Reads happen outside mu_ (the event loop is the only reader of
      // this fd); queue mutation re-acquires it.
      HandleReadable(s);
    }
    MutexLock l(mu_);
    if (stop_loop_) return;
    // Workers Wake() the loop after closing a session; reap here so a
    // fatal protocol error or mid-work EOF aborts the orphaned
    // transaction promptly (not just during drain).
    ScanSessionsLocked();
  }
}

void Server::WorkerLoop() {
  MutexLock l(mu_);
  while (true) {
    while (!stop_workers_ && runq_.empty()) work_cv_.Wait(mu_);
    if (stop_workers_) return;
    Session* s = runq_.front();
    runq_.pop_front();
    while (!s->pending.empty() && !s->closed) {
      ServerRequest req = std::move(s->pending.front());
      s->pending.pop_front();
      total_pending_--;
      m_.queue_depth->Set(static_cast<double>(total_pending_));
      if (s->paused && s->in_epoll && !s->closed &&
          s->pending.size() <= kMaxInflightPerSession / 2) {
        epoll_event ev;
        ev.events = EPOLLIN;
        ev.data.u64 = s->id();
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, s->fd(), &ev) == 0) {
          s->paused = false;
        }
      }
      const bool drain_now = draining_;
      l.Unlock();
      const bool keep = s->Process(req, db_, drain_now, m_);
      l.Lock();
      if (!keep) {
        s->closed = true;
      }
    }
    s->scheduled = false;
    if (s->closed || draining_) {
      // The event loop owns teardown; hand the session back to it.
      Wake();
    }
  }
}

}  // namespace gistcr
