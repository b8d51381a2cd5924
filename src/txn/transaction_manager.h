#ifndef GISTCR_TXN_TRANSACTION_MANAGER_H_
#define GISTCR_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "mvcc/mvcc_manager.h"
#include "txn/lock_manager.h"
#include "txn/predicate_manager.h"
#include "txn/transaction.h"
#include "util/status.h"
#include "wal/log_manager.h"

namespace gistcr {

/// Applies the *undo* action of a log record (Table 1 right column) on
/// behalf of rollback, writing the corresponding CLR through the
/// transaction's backchain. Implemented by RecoveryManager, which routes
/// to the GiST, heap and bitmap undo appliers.
class UndoApplier {
 public:
  virtual ~UndoApplier() = default;
  virtual Status UndoRecord(Transaction* txn, const LogRecord& rec) = 0;
};

/// Transaction lifecycle: begin / commit (log force) / abort (backchain
/// rollback with CLRs) / savepoints with partial rollback. Owns the
/// transaction table; coordinates the lock and predicate managers at end
/// of transaction.
class TransactionManager {
 public:
  /// \p mvcc is the version store snapshot reads filter through: Commit
  /// stamps the transaction's versions inside its Commit record's append
  /// and drops them once no snapshot can see them.
  TransactionManager(LogManager* log, LockManager* locks,
                     PredicateManager* preds, MvccManager* mvcc);
  GISTCR_DISALLOW_COPY_AND_ASSIGN(TransactionManager);

  void SetUndoApplier(UndoApplier* applier) { applier_ = applier; }

  /// Instant restart: while loser undo is still running concurrently with
  /// new work, the MVCC version store has not finished retracting the
  /// losers' version records, so Begin(kSnapshot) degrades to
  /// kRepeatableRead (which sees only the locked, page-level truth).
  /// Cleared by the recovery thread once undo completes.
  void SetRecoveryUndoActive(bool active) {
    recovery_undo_active_.store(active, std::memory_order_release);
  }
  bool recovery_undo_active() const {
    return recovery_undo_active_.load(std::memory_order_acquire);
  }

  /// Re-points lifecycle metrics at \p reg (null: process fallback). Call
  /// before concurrent use; the Database facade does so at init.
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Starts a transaction: assigns an id and X-locks the txn's own id (the
  /// handle other operations block on when they "block on a predicate",
  /// paper section 10.3). It logs nothing: the first AppendTxnLog starts
  /// the backchain.
  ///
  /// kSnapshot transactions take no txn-id lock (nothing ever blocks on
  /// a reader that holds nothing), just a snapshot stamp: the log's
  /// durable LSN, read in the critical section that enters the table.
  Transaction* Begin(IsolationLevel iso = IsolationLevel::kRepeatableRead);

  /// Commit: log Commit, force the log, release predicates and locks, log
  /// End. A transaction that logged nothing only releases its locks and
  /// predicates: no record, no force. From the Commit append on, nothing
  /// rolls the transaction back: a failed force leaves it in doubt, in the
  /// table with its locks, until the next Open decides it from the log.
  Status Commit(Transaction* txn);

  /// Abort: log Abort, undo the backchain writing CLRs (logical undo for
  /// leaf-entry records; NTAs are skipped via their NTA-End undo_next),
  /// log End, release predicates and locks. A transaction that logged
  /// nothing only releases. Only an active transaction may abort: one
  /// whose Commit returned an error is in doubt, not active.
  Status Abort(Transaction* txn);

  /// Establishes / rolls back to a savepoint (partial rollback; the txn
  /// stays active and keeps its locks, paper section 10.2).
  Status Savepoint(Transaction* txn, const std::string& name);
  Status RollbackToSavepoint(Transaction* txn, const std::string& name);

  /// Appends \p rec on behalf of \p txn: fills txn_id/prev_lsn and
  /// advances the backchain head. The transaction's first record publishes
  /// first_lsn before it is appended, and has prev_lsn kInvalidLsn.
  /// \p on_lsn goes to LogManager::Append, which runs it under wal.mu.
  Status AppendTxnLog(Transaction* txn, LogRecord* rec,
                      const std::function<void(Lsn)>& on_lsn = nullptr);

  /// Nested top action bracket (paper section 9.1): remember the backchain
  /// head, run the structure modification, then close with an NTA-End
  /// whose undo_next jumps over the action.
  Lsn NtaBegin(Transaction* txn) const { return txn->last_lsn(); }
  Status NtaEnd(Transaction* txn, Lsn begin_lsn);

  /// True while \p txn_id is in the table and active: its Commit record
  /// not appended, its rollback not finished. Unknown ids are treated as
  /// terminated (their effects were resolved by recovery).
  bool IsActive(TxnId txn_id);

  /// first_lsn of the oldest transaction in the table that has logged,
  /// in-doubt and ending ones included, or kInvalidLsn if none: one bound
  /// of a checkpoint's redo floor and of log reclaim. Transactions that
  /// logged nothing do not hold it down.
  Lsn OldestActiveFirstLsn();

  /// Mohan's Commit_LSN (paper section 7.1, footnote 11): every update
  /// logged below it belongs to a transaction that has ended, having
  /// forced its Commit or undone its updates. A page whose LSN is below
  /// it holds only committed data, so garbage collection skips its
  /// per-entry checks and a read-committed search its record locks
  /// (DESIGN.md section 6). A cached value that only moves up, refreshed
  /// as each logged transaction leaves the table; kInvalidLsn (no page
  /// qualifies) until the first one does after Create or Open.
  Lsn CommitLsn() const {
    return commit_lsn_.load(std::memory_order_acquire);
  }

  /// Active transaction table snapshot: (id, last_lsn) of each,
  /// kInvalidLsn for one that logged nothing.
  std::vector<std::pair<TxnId, Lsn>> ActiveTxns();

  /// True while a kSnapshot transaction is in the table. Node retirement
  /// defers while one is (DESIGN.md section 14.4).
  bool HasActiveSnapshots();

  /// The version-store GC horizon: the oldest open snapshot stamp, or the
  /// durable LSN + 1 when none is open. Read under the mutex Begin stamps
  /// and registers a snapshot under, so a snapshot begun later gets a
  /// stamp at or above every stamp this horizon lets GC drop.
  Lsn SnapshotHorizon();

  /// Restart support: recovery re-creates loser transactions to drive
  /// their undo through the normal rollback machinery. The loser enters
  /// the table with its first LSN, so it holds down the Commit_LSN and the
  /// redo floor from the moment any refresh or checkpoint can see it.
  Transaction* ResurrectForUndo(TxnId id, Lsn first_lsn, Lsn last_lsn);

  /// Restart support: analysis pass hands back the next fresh txn id.
  void SetNextTxnId(TxnId next);
  TxnId NextTxnIdForCheckpoint();

  LockManager* locks() { return locks_; }
  PredicateManager* preds() { return preds_; }
  LogManager* log() { return log_; }

 private:
  /// Undoes txn's updates with LSN > stop_lsn (kInvalidLsn: all of them).
  Status UndoTo(Transaction* txn, Lsn stop_lsn);
  void ReleaseAllFor(Transaction* txn);

  /// Ends a transaction that logged nothing: releases its locks and
  /// predicates (a snapshot holds none), frees the descriptor.
  /// Shared by Commit and Abort — the only difference for a transaction
  /// that wrote nothing is the reported final state and which lifecycle
  /// counter ticks, which \p committed selects.
  Status EndUnlogged(Transaction* txn, bool committed);

  /// Erases a logged transaction that has ended (its Commit forced, or
  /// its updates undone) and, in the same critical section, refreshes the
  /// Commit_LSN: the log end, read first, lowered to the first LSN of
  /// every transaction still in the table. Any value computed so stays
  /// valid: later records land at or above that log end, and a listed
  /// transaction's updates at or above its first LSN.
  void EraseLogged(Transaction* txn);

  Lsn OldestActiveFirstLsnLocked() GISTCR_REQUIRES(mu_);

  LogManager* log_;
  LockManager* locks_;
  PredicateManager* preds_;
  UndoApplier* applier_ = nullptr;
  MvccManager* mvcc_;
  std::atomic<bool> recovery_undo_active_{false};
  /// Written only under mu_ (EraseLogged), read lock-free by CommitLsn.
  std::atomic<Lsn> commit_lsn_{kInvalidLsn};

  obs::Counter* m_begins_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_aborts_ = nullptr;
  obs::Histogram* m_commit_ns_ = nullptr;  ///< includes the log force

  Mutex mu_{GISTCR_LOCK_RANK(kTxnManager, "txn.mu")};
  /// Every active transaction, snapshot readers included: the one
  /// snapshot registry. Those that logged nothing have no first LSN, so
  /// OldestActiveFirstLsn (and with it the checkpoint's redo floor) and
  /// the Commit_LSN skip them.
  std::unordered_map<TxnId, std::unique_ptr<Transaction>> table_
      GISTCR_GUARDED_BY(mu_);
  TxnId next_txn_id_ GISTCR_GUARDED_BY(mu_) = 1;
};

}  // namespace gistcr

#endif  // GISTCR_TXN_TRANSACTION_MANAGER_H_
