#include "wal/log_manager.h"

#include <fcntl.h>
#include <linux/falloc.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "obs/op_context.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"
#include "util/coding.h"

namespace gistcr {

namespace {

constexpr char kMagic[8] = {'G', 'I', 'S', 'T', 'W', 'A', 'L', '1'};

/// Longest plausible record; a longer length field is garbage.
constexpr uint32_t kMaxRecordBytes = 64u << 20;

/// pread that retries interrupted and short reads: returns the bytes read,
/// fewer than \p n only at the end of the file, or -1 on an I/O error.
ssize_t PreadFull(int fd, char* buf, size_t n, Lsn offset) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, buf + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return -1;
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

LogManager::LogManager() { AttachMetrics(nullptr); }

LogManager::~LogManager() { Close(); }

void LogManager::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_appends_ = reg->GetCounter("wal.appends");
  m_append_bytes_ = reg->GetCounter("wal.append_bytes");
  m_flushes_ = reg->GetCounter("wal.flushes");
  m_flusher_wakeups_ = reg->GetCounter("wal.flusher.wakeups");
  m_flusher_errors_ = reg->GetCounter("wal.flusher.errors");
  m_fsync_ns_ = reg->GetHistogram("wal.fsync_ns");
  m_batch_records_ = reg->GetHistogram("wal.group_commit_records");
  m_batch_commits_ = reg->GetHistogram("wal.group_commit_commits");
  m_batch_bytes_ = reg->GetHistogram("wal.flusher.batch_bytes");
  m_flush_wait_ns_ = reg->GetHistogram("wal.flusher.wait_ns");
}

Status LogManager::Open(const std::string& path) {
  // File setup happens before any lock: Open precedes concurrent use, and
  // the latch discipline bans disk syncs under a Mutex even on cold paths.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size == 0) {
    if (::write(fd, kMagic, sizeof(kMagic)) != sizeof(kMagic)) {
      ::close(fd);
      return Status::IOError("write log magic");
    }
    if (::fdatasync(fd) != 0) {
      ::close(fd);
      return Status::IOError("fdatasync");
    }
    size = sizeof(kMagic);
  } else {
    char magic[8];
    if (::pread(fd, magic, 8, 0) != 8 ||
        std::memcmp(magic, kMagic, 8) != 0) {
      ::close(fd);
      return Status::Corruption("bad log magic in " + path);
    }
  }

  MutexLock l(mu_);
  GISTCR_CHECK(fd_.load(std::memory_order_relaxed) < 0);
  GISTCR_CHECK(!flusher_thread_.joinable());
  fd_.store(fd, std::memory_order_release);
  path_ = path;
  requested_lsn_ = kInvalidLsn;
  stop_status_ = Status::OK();
  SetEndLocked(static_cast<Lsn>(size));
  flusher_stop_ = false;
  flusher_thread_ = std::thread([this] { FlusherLoop(); });
  return Status::OK();
}

void LogManager::Close() {
  {
    MutexLock l(mu_);
    flusher_stop_ = true;
    work_cv_.NotifyAll();
    durable_cv_.NotifyAll();
  }
  if (flusher_thread_.joinable()) flusher_thread_.join();
  MutexLock l(mu_);
  const int fd = fd_.load(std::memory_order_relaxed);
  if (fd < 0) return;
  // Best-effort drain: shutdown cannot do anything with a flush failure,
  // and recovery tolerates a truncated tail. A stopped log writes nothing:
  // its tail is what a crash loses. The flusher has exited, so no batch is
  // in flight.
  GISTCR_DCHECK(!flush_in_flight_);
  if (stop_status_.ok() && !buffer_.empty()) {
    const BatchIo io = CutBatchLocked();
    l.Unlock();
    uint64_t io_ns = 0;
    const Status st = WriteBatch(io, /*flusher=*/false, &io_ns);
    l.Lock();
    FinishBatchLocked(io, st);
  }
  buffer_.clear();
  flushing_.clear();
  pending_records_ = 0;
  pending_commits_ = 0;
  ::close(fd);
  fd_.store(-1, std::memory_order_release);
}

Status LogManager::Append(LogRecord* rec,
                          const std::function<void(Lsn)>& on_lsn) {
  // Serialize outside the mutex (DESIGN.md section 11): the wire form is
  // LSN-independent (the LSN is the record's file offset, never a field),
  // so the CRC-stamped image can be built into a per-thread scratch buffer
  // while other appenders hold mu_, leaving only the byte copy and the
  // bookkeeping under the lock. The scratch keeps its capacity across
  // appends, so steady state allocates nothing.
  static thread_local std::string scratch;
  scratch.clear();
  if (scratch.capacity() < rec->SerializedSize()) {
    scratch.reserve(rec->SerializedSize());
  }
  rec->EncodeTo(&scratch);
  GISTCR_DCHECK(scratch.size() == rec->SerializedSize());

  MutexLock l(mu_);
  GISTCR_CHECK(fd_.load(std::memory_order_relaxed) >= 0);
  if (!stop_status_.ok()) return stop_status_;
  rec->lsn = next_lsn_.load(std::memory_order_relaxed);
  buffer_.append(scratch);
  next_lsn_.store(rec->lsn + scratch.size(), std::memory_order_release);
  last_lsn_.store(rec->lsn, std::memory_order_release);
  m_appends_->Add(1);
  m_append_bytes_->Add(scratch.size());
  pending_records_++;
  if (rec->type == LogRecordType::kCommit) pending_commits_++;
  // Before the mutex goes: the flusher cuts batches under it, so a batch
  // holding this record, and the durable LSN it publishes, come after.
  if (on_lsn) on_lsn(rec->lsn);
  // Appends never wait for I/O; past the flush-ahead cap they nudge the
  // flusher so the unflushed tail stays bounded.
  if (buffer_.size() >= kFlushAheadBytes && !flush_in_flight_) {
    work_cv_.NotifyOne();
  }
  return Status::OK();
}

bool LogManager::WantsFlushLocked() const {
  if (!stop_status_.ok() || buffer_.empty()) return false;
  if (buffer_.size() >= kFlushAheadBytes) return true;
  if (requested_lsn_ == kInvalidLsn) return false;
  const Lsn durable = durable_lsn_.load(std::memory_order_acquire);
  return durable == kInvalidLsn || requested_lsn_ > durable;
}

void LogManager::FlusherLoop() {
  MutexLock l(mu_);
  for (;;) {
    while (!flusher_stop_ && !WantsFlushLocked()) work_cv_.Wait(mu_);
    if (flusher_stop_) return;
    m_flusher_wakeups_->Add(1);
    const BatchIo io = CutBatchLocked();
    l.Unlock();
    // One pwrite + fdatasync retires every record in the batch — this is
    // the group commit.
    uint64_t io_ns = 0;
    const Status st = WriteBatch(io, /*flusher=*/true, &io_ns);
    l.Lock();
    if (st.ok()) {
      m_fsync_ns_->Record(io_ns);
      m_flushes_->Add(1);
      m_batch_records_->Record(inflight_records_);
      if (inflight_commits_ > 0) m_batch_commits_->Record(inflight_commits_);
      m_batch_bytes_->Record(io.size);
      last_flush_ns_ = io_ns;
    } else {
      m_flusher_errors_->Add(1);
    }
    FinishBatchLocked(io, st);
  }
}

LogManager::BatchIo LogManager::CutBatchLocked() {
  // Everything appended so far moves to flushing_; later appends extend
  // the (now empty) tail buffer and are covered by the next batch.
  // Batches cut at record boundaries by construction.
  GISTCR_DCHECK(flushing_.empty());
  flushing_ = std::move(buffer_);
  buffer_.clear();
  inflight_records_ = pending_records_;
  inflight_commits_ = pending_commits_;
  pending_records_ = 0;
  pending_commits_ = 0;
  flush_in_flight_ = true;
  BatchIo io;
  io.fd = fd_.load(std::memory_order_relaxed);
  io.data = flushing_.data();
  io.size = flushing_.size();
  io.base = durable_end_.load(std::memory_order_relaxed);
  io.last = last_lsn_.load(std::memory_order_acquire);
  return io;
}

Status LogManager::WriteBatch(const BatchIo& io, bool flusher,
                              uint64_t* io_ns) {
  // No mutex held. io.data points into flushing_, which only this thread
  // touches until flush_in_flight_ drops (readers may *read* it under
  // mu_; that is race-free).
  GISTCR_TRACE_SCOPE("wal.flush");
  const uint64_t t0 = obs::NowNanos();
  Status st;
  const char* p = io.data;
  size_t remaining = io.size;
  off_t offset = static_cast<off_t>(io.base);
  while (remaining > 0) {
    ssize_t n = ::pwrite(io.fd, p, remaining, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      st = Status::IOError("pwrite log: " + std::string(std::strerror(errno)));
      break;
    }
    p += n;
    offset += n;
    remaining -= static_cast<size_t>(n);
  }
  if (st.ok() && flusher) {
    st = FaultInjector::Global().CheckCrashPoint("wal.before_fsync");
  }
  if (st.ok() && sync_on_flush_.load(std::memory_order_relaxed)) {
    if constexpr (kFaultInjectionCompiled) {
      if (flusher && FaultInjector::Global().io_faults_active() &&
          FaultInjector::Global().TakeSyncFailure()) {
        st = Status::IOError("injected log sync failure");
      }
    }
    if (st.ok() && ::fdatasync(io.fd) != 0) {
      st = Status::IOError("fdatasync log");
    }
  }
  if (st.ok() && flusher) {
    st = FaultInjector::Global().CheckCrashPoint("wal.after_fsync");
  }
  *io_ns = obs::NowNanos() - t0;
  return st;
}

void LogManager::FinishBatchLocked(const BatchIo& io, const Status& st) {
  flush_in_flight_ = false;
  if (st.ok()) {
    durable_end_.store(io.base + io.size, std::memory_order_release);
    flushing_.clear();
    durable_lsn_.store(io.last, std::memory_order_release);
  } else if (stop_status_.ok()) {
    stop_status_ = st;
  }
  inflight_records_ = 0;
  inflight_commits_ = 0;
  durable_cv_.NotifyAll();
}

Status LogManager::Flush(Lsn lsn) {
  const Lsn target = lsn == kInvalidLsn ? last_lsn() : lsn;
  if (target == kInvalidLsn) return Status::OK();  // nothing ever appended
  if (durable_lsn_.load(std::memory_order_acquire) >= target) {
    return Status::OK();
  }
  GISTCR_TRACE_SCOPE("wal.flush.wait");
  const uint64_t t0 = obs::NowNanos();
  MutexLock l(mu_);
  GISTCR_CHECK(fd_.load(std::memory_order_relaxed) >= 0);
  // No record lies past the log end, so no batch would ever cover it.
  if (target > last_lsn()) return Status::InvalidArgument("wal: past end");
  if (requested_lsn_ == kInvalidLsn || target > requested_lsn_) {
    requested_lsn_ = target;
  }
  work_cv_.NotifyOne();
  while (durable_lsn_.load(std::memory_order_acquire) < target) {
    if (!stop_status_.ok()) return stop_status_;
    if (flusher_stop_) return Status::IOError("wal: log closing");
    durable_cv_.Wait(mu_);
  }
  const uint64_t waited = obs::NowNanos() - t0;
  m_flush_wait_ns_->Record(waited);
  // Stage attribution: the covering batch's write+fsync duration is the
  // part of the wait that was genuinely disk sync; the rest is group-commit
  // queueing. last_flush_ns_ was just set by the flush that released us.
  const uint64_t fsync_share = std::min(last_flush_ns_, waited);
  obs::AddStage(obs::Stage::kFsync, fsync_share);
  obs::AddStage(obs::Stage::kWalWait, waited - fsync_share);
  return Status::OK();
}

Status LogManager::ReadBufferedLocked(Lsn lsn, LogRecord* rec) {
  // [durable_end_, durable_end_ + flushing_.size()) lives in flushing_
  // (the in-flight batch); everything beyond lives in buffer_. Batches are
  // cut at record boundaries, so a record never spans the two.
  const Lsn base = durable_end_.load(std::memory_order_relaxed);
  const Lsn flushing_end = base + flushing_.size();
  const std::string* src;
  Lsn off;
  if (lsn < flushing_end) {
    src = &flushing_;
    off = lsn - base;
  } else {
    src = &buffer_;
    off = lsn - flushing_end;
  }
  if (off >= src->size()) {
    return Status::NotFound("lsn beyond log end");
  }
  uint32_t consumed;
  GISTCR_RETURN_IF_ERROR(rec->DecodeFrom(
      Slice(src->data() + off, src->size() - off), &consumed));
  rec->lsn = lsn;
  return Status::OK();
}

Status LogManager::ReadRecord(Lsn lsn, LogRecord* rec) {
  if (lsn >= durable_end_.load(std::memory_order_acquire)) {
    MutexLock l(mu_);
    GISTCR_CHECK(fd_.load(std::memory_order_relaxed) >= 0);
    if (lsn >= durable_end_.load(std::memory_order_relaxed)) {
      return ReadBufferedLocked(lsn, rec);
    }
    // The batch holding lsn landed meanwhile: it is durable now.
  }
  // No mutex: bytes below the durable end never change (header comment).
  const int fd = fd_.load(std::memory_order_acquire);
  const Lsn end = durable_end_.load(std::memory_order_acquire);
  GISTCR_CHECK(fd >= 0);
  GISTCR_DCHECK(lsn < end);
  // Grows to the longest record this thread has read, then stays.
  static thread_local std::vector<char> buf(kReadPrefix);
  const uint64_t avail = end - lsn;
  const ssize_t n =
      PreadFull(fd, buf.data(), std::min<uint64_t>(kReadPrefix, avail), lsn);
  if (n < 0) {
    return Status::IOError("pread log: " + std::string(std::strerror(errno)));
  }
  const size_t got = static_cast<size_t>(n);
  if (got < LogRecord::kHeaderSize) {
    return Status::Corruption("log record: short header");
  }
  const uint32_t total = DecodeFixed32(buf.data());
  if (total < LogRecord::kHeaderSize || total > kMaxRecordBytes) {
    return Status::Corruption("log record: implausible length");
  }
  if (total > avail) return Status::Corruption("log record: torn");
  if (total > got) {
    if (buf.size() < total) buf.resize(total);
    if (PreadFull(fd, buf.data() + got, total - got, lsn + got) !=
        static_cast<ssize_t>(total - got)) {
      return Status::Corruption("log record: torn");
    }
  }
  uint32_t consumed;
  GISTCR_RETURN_IF_ERROR(rec->DecodeFrom(Slice(buf.data(), total), &consumed));
  rec->lsn = lsn;
  return Status::OK();
}

Status LogManager::Scan(Lsn from, Lsn upto,
                        const std::function<bool(const LogRecord&)>& fn) {
  Lsn lsn = from == kInvalidLsn ? kFirstLsn : from;
  const Lsn last = upto == kInvalidLsn ? ~Lsn{0} : upto;
  LogRecord rec;  // reused: every record decodes into it
  // The durable part, in chunks and without the mutex (see ReadRecord).
  const int fd = fd_.load(std::memory_order_acquire);
  const Lsn end = durable_end_.load(std::memory_order_acquire);
  GISTCR_CHECK(fd >= 0);
  std::vector<char> chunk;  // sized to the bytes read, not to kScanChunk
  Lsn chunk_lsn = lsn;
  size_t chunk_len = 0;
  // Refills the chunk from lsn, the start of the record being decoded.
  auto refill = [&](uint64_t want) -> Status {
    if (chunk.size() < want) chunk.resize(want);
    const ssize_t n = PreadFull(fd, chunk.data(), want, lsn);
    if (n < 0) {
      return Status::IOError("pread log: " +
                             std::string(std::strerror(errno)));
    }
    chunk_lsn = lsn;
    chunk_len = static_cast<size_t>(n);
    return Status::OK();
  };
  while (lsn < end && lsn <= last) {
    if (lsn + LogRecord::kHeaderSize > chunk_lsn + chunk_len) {
      GISTCR_RETURN_IF_ERROR(refill(std::min<uint64_t>(kScanChunk, end - lsn)));
      if (chunk_len < LogRecord::kHeaderSize) return Status::OK();
    }
    const uint32_t total = DecodeFixed32(chunk.data() + (lsn - chunk_lsn));
    if (total < LogRecord::kHeaderSize || total > kMaxRecordBytes ||
        total > end - lsn) {
      return Status::OK();  // implausible length, or a body past the end
    }
    if (lsn + total > chunk_lsn + chunk_len) {
      // Straddles the chunk's end, or is longer than a chunk: read it whole.
      GISTCR_RETURN_IF_ERROR(refill(
          std::max<uint64_t>(total, std::min<uint64_t>(kScanChunk, end - lsn))));
      if (chunk_len < total) return Status::OK();
    }
    uint32_t consumed;
    if (!rec.DecodeFrom(Slice(chunk.data() + (lsn - chunk_lsn), total),
                        &consumed)
             .ok()) {
      return Status::OK();  // CRC failure
    }
    rec.lsn = lsn;
    if (!fn(rec)) return Status::OK();
    lsn += total;
  }
  // Past the durable end seen above: the in-memory tail, and any batch
  // that landed since.
  while (lsn <= last) {
    const Status st = ReadRecord(lsn, &rec);
    if (st.IsNotFound() || st.IsCorruption()) break;  // log end, torn tail
    GISTCR_RETURN_IF_ERROR(st);
    if (!fn(rec)) break;
    lsn += rec.SerializedSize();
  }
  return Status::OK();
}

Status LogManager::CutTail(Lsn end) {
  int fd = -1;
  {
    MutexLock l(mu_);
    fd = fd_.load(std::memory_order_relaxed);
    GISTCR_CHECK(fd >= 0);
    GISTCR_CHECK(buffer_.empty() && !flush_in_flight_);
    const Lsn size = durable_end_.load(std::memory_order_relaxed);
    GISTCR_CHECK(end >= kFirstLsn && end <= size);
    if (end == size) return Status::OK();
  }
  // The file operations run without mu_ (sync-under-mutex). Nothing is
  // appended meanwhile, so nothing reads or writes the cut bytes.
  if (::ftruncate(fd, static_cast<off_t>(end)) != 0) {
    return Status::IOError("ftruncate log: " +
                           std::string(std::strerror(errno)));
  }
  if (::fdatasync(fd) != 0) return Status::IOError("fdatasync log");
  MutexLock l(mu_);
  GISTCR_CHECK(buffer_.empty() && !flush_in_flight_);
  SetEndLocked(end);
  return Status::OK();
}

void LogManager::SetEndLocked(Lsn end) {
  durable_end_.store(end, std::memory_order_release);
  next_lsn_.store(end, std::memory_order_release);
  // durable_lsn_ and last_lsn_ start at the byte below the end, at or
  // above every record in the file: for NSN purposes last_lsn_ only has to
  // be >= every NSN already assigned, and every Append raises it from here.
  const Lsn below = end > kFirstLsn ? end - 1 : kInvalidLsn;
  durable_lsn_.store(below, std::memory_order_release);
  last_lsn_.store(below, std::memory_order_release);
}

uint64_t LogManager::TotalBytes() const {
  MutexLock l(mu_);
  return durable_end_.load(std::memory_order_relaxed) + flushing_.size() +
         buffer_.size() - kFirstLsn;
}

LogManager::FlusherStats LogManager::GetFlusherStats() const {
  MutexLock l(mu_);
  FlusherStats s;
  s.tail_bytes = buffer_.size();
  s.inflight_bytes = flushing_.size();
  s.pending_records = pending_records_;
  s.pending_commits = pending_commits_;
  s.flush_in_flight = flush_in_flight_;
  s.last_flush_ns = last_flush_ns_;
  s.durable_lsn = durable_lsn_.load(std::memory_order_acquire);
  s.last_lsn = last_lsn_.load(std::memory_order_acquire);
  return s;
}

StatusOr<uint64_t> LogManager::ReclaimBefore(Lsn lsn) {
  // Never touch the magic header, the unflushed tail, or already-reclaimed
  // space; punch only whole 4 KiB blocks so the filesystem can free them.
  constexpr uint64_t kBlock = 4096;
  int fd = -1;
  uint64_t start = 0, end = 0;
  {
    MutexLock l(mu_);
    fd = fd_.load(std::memory_order_relaxed);
    GISTCR_CHECK(fd >= 0);
    const Lsn already = reclaimed_before_.load(std::memory_order_acquire);
    start = ((already + kBlock - 1) / kBlock) * kBlock;
    end = (std::min<Lsn>(lsn, durable_end_.load(std::memory_order_relaxed)) /
           kBlock) * kBlock;
  }
  if (end <= start) return static_cast<uint64_t>(0);
#ifdef FALLOC_FL_PUNCH_HOLE
  // The punch runs without mu_, so appends and flushes never wait behind
  // the filesystem. The range is durable (below durable_end_, which only
  // grows once appends start) and no longer needed, so nothing reads or
  // writes it meanwhile; reclaimed_before_ moves only here, and reclaims
  // never overlap.
  if (::fallocate(fd, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                  static_cast<off_t>(start),
                  static_cast<off_t>(end - start)) != 0) {
    return static_cast<uint64_t>(0);  // unsupported filesystem: best effort
  }
  reclaimed_before_.store(end, std::memory_order_release);
  return end - start;
#else
  (void)fd;
  return static_cast<uint64_t>(0);
#endif
}

void LogManager::DiscardTail() {
  MutexLock l(mu_);
  // Stop first: the flusher then cuts no new batch, so the wait below ends.
  // A batch it already handed to the kernel may still land — a power cut
  // can persist a write that was in flight — and settles the durable
  // prefix; everything after it is dropped.
  if (stop_status_.ok()) stop_status_ = Status::Aborted("wal: tail discarded");
  while (flush_in_flight_) durable_cv_.Wait(mu_);
  buffer_.clear();
  flushing_.clear();
  pending_records_ = 0;
  pending_commits_ = 0;
  durable_cv_.NotifyAll();
}

}  // namespace gistcr
