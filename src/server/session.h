#ifndef GISTCR_SERVER_SESSION_H_
#define GISTCR_SERVER_SESSION_H_

#include <cstdint>
#include <deque>
#include <string>

#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/op_context.h"
#include "txn/transaction.h"

namespace gistcr {

class Database;

/// One unit of work parsed off a connection, waiting in the session queue.
struct ServerRequest {
  enum class Kind : uint8_t {
    kFrame,          ///< a well-framed request; payload not yet decoded
    kProtocolError,  ///< framing-layer failure; reply typed error
  };
  Kind kind = Kind::kFrame;
  net::Frame frame;
  net::ErrorCode error = net::ErrorCode::kInternal;  ///< kProtocolError
  std::string error_msg;
  bool fatal = false;       ///< close the connection after replying
  uint64_t enqueue_ns = 0;  ///< for the per-request queue-wait timeout
};

/// Resolved "server.*" metric pointers (registration once at startup; hot
/// path updates are lock-free). README has the catalogue.
struct ServerMetrics {
  void Attach(obs::MetricsRegistry* reg);

  obs::Counter* requests = nullptr;
  obs::Counter* protocol_errors = nullptr;
  obs::Counter* request_errors = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* disconnect_aborts = nullptr;
  obs::Counter* accepts = nullptr;
  obs::Counter* backpressure_pauses = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  obs::Gauge* active_connections = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Histogram* request_latency = nullptr;
  /// Indexed by request opcode value (net::Opcode::kPing..kInspect).
  obs::Counter* op_count[10] = {};
  obs::Histogram* op_latency[10] = {};
  /// Per-stage latency decomposition ("rpc.stage.<stage>"): how much of
  /// each request went to queue wait, lock waits, latch waits, tree work,
  /// group-commit wait and fsync. Stage sums equal rpc.request_total.
  obs::Histogram* stage[obs::kNumStages] = {};
  obs::Histogram* request_total = nullptr;
};

/// Per-connection state. Queueing fields (pending/scheduled/closed/...)
/// are guarded by the owning Server's mutex; the execution fields (txn,
/// write path) are touched only by the single worker that has the session
/// scheduled, which is what keeps the one-thread-per-transaction
/// discipline the engine requires.
class Session {
 public:
  Session(uint64_t id, net::Socket sock) : id_(id), sock_(std::move(sock)) {}
  GISTCR_DISALLOW_COPY_AND_ASSIGN(Session);

  uint64_t id() const { return id_; }
  int fd() const { return sock_.fd(); }

  /// Executes one request, writing response frame(s) to the socket.
  /// Returns false when the connection must be closed (fatal protocol
  /// error). Called from a worker thread with the session scheduled.
  bool Process(const ServerRequest& req, Database* db, bool draining,
               const ServerMetrics& metrics);

  /// Rolls back the open transaction, if any (disconnect, forced drain).
  /// Safe from any thread as long as no request is concurrently executing.
  void AbortOpenTxn(Database* db, const ServerMetrics& metrics);

  bool has_txn() const { return txn_ != nullptr; }

  // --- queueing state, guarded by Server::mu_ ---------------------------
  std::string inbuf;                  ///< unparsed stream bytes (loop only)
  net::FrameReader reader{net::kMaxRequestPayload};
  std::deque<ServerRequest> pending;
  bool scheduled = false;   ///< a worker owns the session right now
  bool closed = false;      ///< fd saw EOF/error or a fatal reply was sent
  bool paused = false;      ///< EPOLLIN disarmed for backpressure
  bool in_epoll = false;

 private:
  Status HandleBegin(const net::Frame& req, bool draining, Database* db);
  Status HandleCommit(const net::Frame& req, Database* db);
  Status HandleAbort(const net::Frame& req, Database* db);
  Status HandleInsert(const net::Frame& req, bool draining, Database* db);
  Status HandleDelete(const net::Frame& req, bool draining, Database* db);
  Status HandleSearch(const net::Frame& req, bool draining, Database* db);
  Status HandleStats(const net::Frame& req, Database* db);
  Status HandleInspect(const net::Frame& req, Database* db);

  /// Runs \p body inside the session transaction, or an auto-commit
  /// transaction when none is open. Clears the session transaction (after
  /// rolling it back) when the operation loses a deadlock, so the client
  /// sees txn_aborted on the error frame.
  template <typename Fn>
  Status InTxn(bool draining, Database* db, Fn body);

  Status SendFrame(net::Opcode op, uint64_t request_id, Slice payload,
                   uint8_t flags = 0);
  Status SendError(uint64_t request_id, net::ErrorCode code, Slice msg);

  uint64_t id_;
  net::Socket sock_;
  Transaction* txn_ = nullptr;
  Database* db_ = nullptr;             ///< set on first Process call
  const ServerMetrics* metrics_ = nullptr;
  bool txn_aborted_flag_ = false;  ///< set when an error reply must carry
                                   ///  "your transaction was rolled back"
};

}  // namespace gistcr

#endif  // GISTCR_SERVER_SESSION_H_
