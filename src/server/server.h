#ifndef GISTCR_SERVER_SERVER_H_
#define GISTCR_SERVER_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "net/socket.h"
#include "server/session.h"

namespace gistcr {

class Database;

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0: pick an ephemeral port (read it via port())
  uint32_t num_workers = 4;
};

/// Multi-client network front end over a Database: one epoll event-loop
/// thread does all socket reads and framing; a worker pool executes
/// requests. Each connection maps to a Session owning (at most) one open
/// transaction, and a session is run by one worker at a time, preserving
/// the engine's one-thread-per-transaction discipline while different
/// sessions execute fully in parallel.
///
/// Lifecycle: Start() binds and spawns threads; Shutdown() drains
/// gracefully — stop accepting, let in-flight transactions finish for
/// kDrainTimeout, force-abort the rest, then take a final checkpoint so
/// the database reopens cleanly. The destructor calls Shutdown().
class Server {
 public:
  Server(Database* db, ServerOptions opts);
  ~Server();
  GISTCR_DISALLOW_COPY_AND_ASSIGN(Server);

  Status Start();
  Status Shutdown();

  uint16_t port() const { return port_; }
  /// Open connections right now (tests poll this around disconnects).
  size_t active_sessions();

 private:
  /// Parsed-but-unprocessed requests a connection may queue before the
  /// server stops reading from it (pipelining backpressure). Reading
  /// resumes when the queue drains to half the cap.
  static constexpr size_t kMaxInflightPerSession = 64;
  /// Grace period for open transactions on Shutdown(); afterwards the
  /// survivors are force-aborted.
  static constexpr std::chrono::milliseconds kDrainTimeout{2000};

  // epoll_event.data.u64 tags.
  static constexpr uint64_t kListenTag = 1;
  static constexpr uint64_t kWakeTag = 2;
  static constexpr uint64_t kFirstSessionId = 100;

  void EventLoop();
  void WorkerLoop();
  void AcceptAll();
  /// Reads and frames everything available on \p s, queueing requests.
  void HandleReadable(Session* s);
  /// Reaps closed sessions; during drain also closes idle transaction-less
  /// sessions and (under force) aborts surviving transactions.
  void ScanSessionsLocked() GISTCR_REQUIRES(mu_);
  void FinalizeLocked(uint64_t id) GISTCR_REQUIRES(mu_);
  void ScheduleLocked(Session* s) GISTCR_REQUIRES(mu_);
  void Wake();

  Status EpollAdd(int fd, uint64_t tag, bool readable);
  void EpollDel(int fd);

  Database* db_;
  ServerOptions opts_;
  ServerMetrics m_;

  net::Socket listener_;
  uint16_t port_ = 0;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  Mutex mu_{GISTCR_LOCK_RANK(kServer, "server.mu")};
  CondVar work_cv_;      ///< workers wait for runq_
  CondVar sessions_cv_;  ///< Shutdown waits for drain
  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions_
      GISTCR_GUARDED_BY(mu_);
  std::deque<Session*> runq_ GISTCR_GUARDED_BY(mu_);
  uint64_t next_session_id_ GISTCR_GUARDED_BY(mu_) = kFirstSessionId;
  /// Sum of session queue lengths.
  int64_t total_pending_ GISTCR_GUARDED_BY(mu_) = 0;

  bool running_ GISTCR_GUARDED_BY(mu_) = false;
  bool draining_ GISTCR_GUARDED_BY(mu_) = false;
  bool force_close_ GISTCR_GUARDED_BY(mu_) = false;
  bool listener_closed_ GISTCR_GUARDED_BY(mu_) = false;
  bool stop_workers_ GISTCR_GUARDED_BY(mu_) = false;
  bool stop_loop_ GISTCR_GUARDED_BY(mu_) = false;
  bool shutdown_done_ GISTCR_GUARDED_BY(mu_) = false;
};

}  // namespace gistcr

#endif  // GISTCR_SERVER_SERVER_H_
