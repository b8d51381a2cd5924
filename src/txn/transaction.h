#ifndef GISTCR_TXN_TRANSACTION_H_
#define GISTCR_TXN_TRANSACTION_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/types.h"
#include "util/macros.h"

namespace gistcr {

/// Degrees of isolation offered to index operations.
///  - kRepeatableRead: Degree 3 (paper section 4) — the full hybrid
///    mechanism: 2PL on data records plus node-attached predicate locks.
///  - kReadCommitted: Degree 2 — a search S-locks each qualifying data
///    record (so uncommitted inserts/deletes block readers) and releases
///    it once the record is checked; no search predicates are attached,
///    admitting phantoms. Write locks are still held to commit.
///  - kSnapshot: read-only snapshot isolation (DESIGN.md section 14) —
///    the transaction sees exactly the versions committed before its
///    begin stamp and takes **zero** lock-manager calls: no txn-id lock,
///    no record locks, no signaling locks, no predicate attach. Write
///    operations are rejected.
enum class IsolationLevel : uint8_t {
  kReadCommitted,
  kRepeatableRead,
  kSnapshot
};

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// A transaction descriptor. Owned by TransactionManager; one thread drives
/// a transaction at a time. Carries the ARIES backchain head (last_lsn) and
/// savepoint bookkeeping for partial rollback (paper section 10.2).
class Transaction {
 public:
  struct SavepointInfo {
    std::string name;
    Lsn lsn;  ///< last_lsn at the time the savepoint was established.
  };

  Transaction(TxnId id, IsolationLevel iso) : id_(id), iso_(iso) {}
  GISTCR_DISALLOW_COPY_AND_ASSIGN(Transaction);

  TxnId id() const { return id_; }
  IsolationLevel isolation() const { return iso_; }
  bool is_snapshot() const { return iso_ == IsolationLevel::kSnapshot; }

  /// Snapshot stamp (the log's durable LSN at begin) for kSnapshot
  /// transactions; kInvalidLsn otherwise. Set once by
  /// TransactionManager::Begin, before the transaction enters the table.
  Lsn snapshot_lsn() const { return snapshot_lsn_; }
  void set_snapshot_lsn(Lsn s) { snapshot_lsn_ = s; }

  TxnState state() const { return state_.load(std::memory_order_acquire); }
  void set_state(TxnState s) { state_.store(s, std::memory_order_release); }

  // The backchain head and first LSN are written only by the transaction's
  // own thread but read cross-thread (ActiveTxns reads last_lsn; the
  // Commit_LSN refresh and the checkpoint's redo floor read first_lsn),
  // hence atomics. first_lsn stays kInvalidLsn until the transaction
  // logs; its first record publishes it (the log's next LSN) before
  // appending, so it is at or below that record.
  Lsn last_lsn() const { return last_lsn_.load(std::memory_order_acquire); }
  void set_last_lsn(Lsn l) { last_lsn_.store(l, std::memory_order_release); }
  Lsn first_lsn() const {
    return first_lsn_.load(std::memory_order_acquire);
  }
  void set_first_lsn(Lsn l) {
    first_lsn_.store(l, std::memory_order_release);
  }

  /// Operation ids scope insert predicates and unique-probe predicates to
  /// one index operation (released when the operation completes, not at end
  /// of transaction).
  uint64_t NextOpId() { return next_op_id_++; }

  std::vector<SavepointInfo>& savepoints() { return savepoints_; }

  /// Packed rids of the leaf entries this transaction inserted or
  /// delete-marked, in order: the version-store records its commit stamps
  /// (DESIGN.md section 14.2). Touched only by the transaction's own
  /// thread.
  std::vector<uint64_t>& versions() { return versions_; }

 private:
  const TxnId id_;
  const IsolationLevel iso_;
  std::atomic<TxnState> state_{TxnState::kActive};
  Lsn snapshot_lsn_ = kInvalidLsn;
  std::atomic<Lsn> first_lsn_{kInvalidLsn};
  std::atomic<Lsn> last_lsn_{kInvalidLsn};
  uint64_t next_op_id_ = 1;
  std::vector<SavepointInfo> savepoints_;
  std::vector<uint64_t> versions_;
};

}  // namespace gistcr

#endif  // GISTCR_TXN_TRANSACTION_H_
