#ifndef GISTCR_CLIENT_CLIENT_H_
#define GISTCR_CLIENT_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/socket.h"
#include "net/wire.h"
#include "txn/transaction.h"

namespace gistcr {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Transparently re-dial and retry a call once after a transport failure
  /// — only when no transaction is open (an open transaction died with the
  /// connection and must surface as an error).
  bool auto_reconnect = true;
};

/// One qualifying entry streamed back by a remote search.
struct RemoteResult {
  std::string key;  ///< extension-encoded leaf predicate
  uint64_t rid = 0;
  std::string record;  ///< only filled when with_records was requested
};

/// Blocking client for the gistcr wire protocol (DESIGN.md section 9).
/// Not thread-safe: one Client per thread, mirroring the engine's
/// one-thread-per-transaction discipline. Every call sends one request
/// frame and reads frames until its reply is complete; ExecuteBatch
/// pipelines many requests before reading any reply.
class Client {
 public:
  explicit Client(ClientOptions opts);
  ~Client() = default;
  GISTCR_DISALLOW_COPY_AND_ASSIGN(Client);

  /// Dials: up to kConnectAttempts tries, backing off exponentially from
  /// kBackoffBase and doubling up to kBackoffMax. A default-constructed
  /// client may also skip this and let the first call connect lazily.
  Status Connect();
  void Close() { sock_.Close(); }
  bool connected() const { return sock_.valid(); }
  bool txn_open() const { return txn_open_; }

  Status Ping();
  StatusOr<TxnId> Begin(
      IsolationLevel iso = IsolationLevel::kRepeatableRead);
  Status Commit();
  Status Abort();
  /// Returns the packed Rid of the inserted record.
  StatusOr<uint64_t> Insert(uint32_t index_id, Slice key, Slice record,
                            bool unique = false);
  Status Delete(uint32_t index_id, Slice key, uint64_t packed_rid);
  StatusOr<std::vector<RemoteResult>> Search(uint32_t index_id, Slice query,
                                             bool with_records = false,
                                             uint32_t batch_size = 0);
  /// Server metrics dump: JSON (Database::DumpMetrics) by default, or
  /// Prometheus text exposition format when \p prometheus is set.
  StatusOr<std::string> Stats(bool prometheus = false);

  /// Live introspection view (kInspect): slow-op ring, lock wait-for
  /// edges, buffer-pool shard occupancy or WAL flusher depth, as JSON.
  StatusOr<std::string> Inspect(net::InspectKind kind);

  /// One pipelined operation. Exactly the subset of the protocol where
  /// responses are cheap to buffer.
  struct BatchOp {
    enum class Kind : uint8_t { kInsert, kDelete, kSearch, kPing };
    Kind kind = Kind::kPing;
    uint32_t index_id = 0;
    std::string key;     ///< insert/delete key, or search query
    std::string record;  ///< insert payload
    uint64_t rid = 0;    ///< delete target
    bool unique = false;
    bool with_records = false;
    uint32_t batch_size = 0;
  };
  struct BatchResult {
    Status status = Status::OK();
    uint64_t rid = 0;                   ///< insert
    std::vector<RemoteResult> results;  ///< search
  };

  /// Writes every request frame back-to-back, then reads all replies —
  /// one round trip of latency for the whole batch instead of one per op.
  /// Returns non-OK only on transport failure; per-op errors land in the
  /// corresponding BatchResult.
  Status ExecuteBatch(const std::vector<BatchOp>& ops,
                      std::vector<BatchResult>* results);

 private:
  static constexpr uint32_t kConnectAttempts = 5;
  static constexpr std::chrono::milliseconds kBackoffBase{20};
  static constexpr std::chrono::milliseconds kBackoffMax{1000};

  Status EnsureConnected();
  Status Dial();
  Status SendFrame(net::Opcode op, uint8_t flags, uint64_t request_id,
                   Slice payload);
  Status ReadFrame(net::Frame* out);
  /// Reads frames until the reply for \p request_id with a terminal opcode
  /// arrives; search batches accumulate into \p results.
  Status ReadReply(uint64_t request_id, net::Frame* terminal,
                   std::vector<RemoteResult>* results, bool with_records);
  /// Send + ReadReply with one transparent reconnect-and-retry (see
  /// ClientOptions::auto_reconnect).
  Status Call(net::Opcode op, uint8_t flags, Slice payload,
              net::Frame* terminal, std::vector<RemoteResult>* results,
              bool with_records);
  Status StatusFromErrorFrame(const net::Frame& f);
  void OnTransportError();

  ClientOptions opts_;
  net::Socket sock_;
  net::FrameReader reader_{net::kMaxResponsePayload};
  uint64_t next_request_id_ = 1;
  bool txn_open_ = false;
};

}  // namespace gistcr

#endif  // GISTCR_CLIENT_CLIENT_H_
