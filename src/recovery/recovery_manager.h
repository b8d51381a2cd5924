#ifndef GISTCR_RECOVERY_RECOVERY_MANAGER_H_
#define GISTCR_RECOVERY_RECOVERY_MANAGER_H_

#include <atomic>
#include <map>
#include <vector>

#include "db/page_allocator.h"
#include "gist/nsn.h"
#include "recovery/recovery_gate.h"
#include "storage/buffer_pool.h"
#include "txn/transaction_manager.h"
#include "util/status.h"
#include "wal/log_manager.h"
#include "wal/log_payloads.h"

namespace gistcr {

/// ARIES-style restart recovery (paper section 9): analysis over the log
/// tail, page-oriented redo with the page-LSN test, and undo of loser
/// transactions. Structure modifications were logged as nested top actions,
/// so completed ones survive loser rollback (their NTA-End records jump the
/// undo backchain over them) while half-done ones are rolled back
/// physically via the Table 1 undo actions.
///
/// Content changes (Add-Leaf-Entry / Mark-Leaf-Entry) are undone
/// *logically*: the leaf is relocated by rightlink traversal guided by the
/// logged NSN, because the tree may have been restructured since (section
/// 9.2). The undo machinery is shared with live transaction rollback: this
/// class is the TransactionManager's UndoApplier.
///
/// Restart is instant (DESIGN.md section 16): StartInstant's one analysis
/// scan builds a per-page redo *plan* and re-acquires the losers' locks,
/// rolls back any nested top action a loser left open, then the database
/// opens. Redo happens per page — inline on first touch
/// via the buffer-pool recovery hook, or from RunInstantBackground's
/// drainer in recLSN order — and loser undo runs as ordinary aborting
/// transactions through the normal lock/latch protocol, concurrent with
/// new work.
class RecoveryManager : public UndoApplier {
 public:
  /// \p mvcc is kept consistent with undo: a rolled-back insert or
  /// delete-mark must not leave its version record behind, pending (partial
  /// rollback keeps the transaction alive, so commit would stamp it) or
  /// stamped (the rollback of a commit whose force failed).
  RecoveryManager(BufferPool* pool, LogManager* log, TransactionManager* txns,
                  GlobalNsn* nsn, MvccManager* mvcc)
      : pool_(pool), log_(log), txns_(txns), nsn_(nsn), mvcc_(mvcc) {
    AttachMetrics(nullptr);
  }
  GISTCR_DISALLOW_COPY_AND_ASSIGN(RecoveryManager);

  /// Re-points restart/checkpoint metrics at \p reg (null: process
  /// fallback). Call before StartInstant; the Database facade does so at
  /// init.
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Instant restart, phase one: one analysis scan from the redo floor
  /// logged by \p checkpoint_lsn (kInvalidLsn: from the log start) builds
  /// the per-page redo plans, re-acquires the losers' locks and arms the
  /// buffer-pool recovery hook; then each loser's unfinished nested top
  /// action is undone (its pages replay inline). On return the database
  /// may open for business. Corruption if the log cannot be read from the
  /// floor up to the checkpoint.
  Status StartInstant(Lsn checkpoint_lsn);

  /// Instant restart, phase two (background thread): undoes the losers as
  /// ordinary aborting transactions, drains the remaining pending pages in
  /// recLSN order, then disarms the hook and the gate. \p stop is polled
  /// between steps (shutdown / simulated crash).
  Status RunInstantBackground(const std::atomic<bool>& stop);

  /// True while the gate is armed (pages may still need redo).
  bool InstantActive() const { return gate_.armed(); }

  size_t PendingPageCount() { return gate_.pending_count(); }

  /// What a checkpoint logged: its own LSN, for the master pointer, and
  /// its redo floor — the lowest of the log end before it took its
  /// snapshots, every active transaction's first LSN, and every dirty or
  /// replay-pending page's rec_lsn. A restart from the checkpoint scans up
  /// from the floor, and nothing at or above it may be reclaimed while
  /// the checkpoint is the master.
  struct CheckpointLsns {
    Lsn checkpoint = kInvalidLsn;
    Lsn redo_floor = kInvalidLsn;
  };

  /// Writes a fuzzy checkpoint record (redo floor, next txn id, NSN
  /// counter) and forces it.
  StatusOr<CheckpointLsns> Checkpoint();

  /// Page-oriented redo of one record, once for each page it mutates:
  /// fetch the page X-latched, test its page LSN, apply (public for
  /// targeted tests).
  Status RedoRecord(const LogRecord& rec);

  /// UndoApplier: undoes one record on behalf of a rollback: X-latches
  /// the page the undo changes, appends the CLR under that latch, applies
  /// it. Used both by live aborts and restart undo.
  Status UndoRecord(Transaction* txn, const LogRecord& rec) override;

 private:
  /// Decodes \p rec and calls its page applier on \p g.
  Status ApplyRedo(const LogRecord& rec, PageGuard* g);

  /// Decodes the record \p clr compensates and calls its undo applier on
  /// \p g, the page ClrTargetPage names: live rollback, restart undo and
  /// CLR redo all come here.
  Status ApplyUndo(const ClrPayload& clr, Lsn lsn, PageGuard* g);

  /// One step of undoing loser \p txn's unfinished nested top action
  /// (DESIGN.md section 16.4): reads the record at *\p next, undoes it if
  /// it is a structure modification, and moves *\p next down the
  /// backchain — to kInvalidLsn once no action is open.
  Status UndoUnfinishedNtaStep(Transaction* txn, Lsn* next);

  /// RecoveryGate replay callback: fetches and X-latches \p pid once,
  /// then reads each planned record above its page LSN and applies it.
  /// The page-LSN test skips whatever already reached disk.
  Status ReplayPagePlan(PageId pid, const std::vector<Lsn>& plan);

  Status Corrupt(const char* what) {
    return Status::Corruption(std::string("recovery: ") + what);
  }

  BufferPool* pool_;
  LogManager* log_;
  TransactionManager* txns_;
  GlobalNsn* nsn_;
  MvccManager* mvcc_;

  RecoveryGate gate_;
  /// Losers resurrected by StartInstant, awaiting their background abort.
  std::vector<Transaction*> losers_;

  /// Restart counters (recovery.*): they settle only once
  /// RunInstantBackground has finished, since inline redo on user threads
  /// races the background drainer.
  obs::Counter* m_analyzed_ = nullptr;
  obs::Counter* m_redone_ = nullptr;
  obs::Counter* m_losers_ = nullptr;
  obs::Counter* m_undone_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Histogram* m_analysis_ns_ = nullptr;
  obs::Histogram* m_redo_ns_ = nullptr;
  obs::Histogram* m_undo_ns_ = nullptr;
  obs::Histogram* m_checkpoint_ns_ = nullptr;
};

}  // namespace gistcr

#endif  // GISTCR_RECOVERY_RECOVERY_MANAGER_H_
