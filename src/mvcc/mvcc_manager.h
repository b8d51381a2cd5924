#ifndef GISTCR_MVCC_MVCC_MANAGER_H_
#define GISTCR_MVCC_MVCC_MANAGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "util/macros.h"

namespace gistcr {

/// Multi-version bookkeeping for snapshot reads (DESIGN.md section 14).
///
/// The paper's hybrid protocol makes every Degree-3 search attach predicate
/// locks top-down, so *reads* mutate shared lock-manager state. This
/// subsystem gives read-only transactions a way out: they take a snapshot
/// stamp and filter leaf entries by commit-time visibility, touching zero
/// lock-manager state. Update transactions keep the full 2PL + predicate
/// protocol unchanged.
///
/// **Timestamps are LSNs.** A transaction's commit stamp is the LSN of its
/// Commit log record; a snapshot stamp is the durable LSN the WAL flusher
/// had fanned out when the read-only transaction began. The commit path
/// stamps its versions between appending the Commit record and forcing the
/// log (TransactionManager::Commit) — but the flusher can race ahead of
/// that window: another waiter's force (or flush-ahead pressure) may cut a
/// batch containing the freshly appended Commit record and fan out a
/// durable LSN covering it before StampCommit has run. To keep the
/// invariant "snapshot stamp S >= commit C implies C's versions are
/// stamped", the commit path brackets append+stamp in a *stamping epoch*
/// (BeginStamping before the append, released by StampCommit), and
/// AdvanceDurable drains every epoch that began before the fan-out before
/// it publishes the new snapshot stamp. Epochs are held only across memory
/// operations, so the drain is bounded and cannot deadlock the flusher.
/// With that, "stamped and <= S" is exactly "committed before my
/// snapshot", with no synchronization on the read side.
///
/// **Versions are physical leaf entries.** An update is a logical delete
/// plus an insert, so each physical entry is one version of its logical
/// key and the newest-first chain for a rid is the sequence of records
/// registered here. The store is a side table keyed by packed rid; page
/// entries themselves carry only the del_txn mark they always had. A
/// missing record means "ancient": the entry's fate was decided before any
/// active snapshot began (or before the last restart — recovery resolves
/// every pre-crash transaction), so a live entry is visible and a marked
/// entry is invisible. That convention is what lets the store live purely
/// in memory and still give correct answers across crash-restart, and
/// what lets pruning drop records instead of keeping history forever.
class MvccManager {
 public:
  /// Stamp for versions whose insert committed before the store started
  /// tracking them (below any real LSN, so visible to every snapshot).
  static constexpr Lsn kAncientStamp = 1;

  MvccManager();
  GISTCR_DISALLOW_COPY_AND_ASSIGN(MvccManager);

  /// Re-points mvcc.* metrics at \p reg (null: process fallback).
  void AttachMetrics(obs::MetricsRegistry* reg);

  // --- timestamp oracle -------------------------------------------------

  /// Fan-out from the WAL flusher: the log is durable through \p lsn.
  /// Monotone max; called via LogManager::SetDurableCallback. Blocks until
  /// every stamping epoch that began before this call has been released
  /// (see the class comment), so the snapshot stamp never advances over a
  /// commit whose versions are still unstamped.
  void AdvanceDurable(Lsn lsn);

  /// The stamp a snapshot beginning now would get.
  Lsn SnapshotStamp() const {
    return durable_stamp_.load(std::memory_order_acquire);
  }

  // --- snapshot registry ------------------------------------------------

  /// Registers a read-only transaction and returns its snapshot stamp.
  Lsn BeginSnapshot(TxnId txn_id);
  void EndSnapshot(TxnId txn_id);

  /// Oldest active snapshot stamp, or kInvalidLsn when none are active —
  /// the horizon below which committed history is unobservable.
  Lsn MinActiveSnapshot() const;
  bool HasActiveSnapshots() const;

  // --- version store (update-transaction write sites) -------------------

  /// A leaf entry with \p rid was inserted by \p txn (stamp pending).
  void NoteInsert(uint64_t rid, TxnId txn);

  /// The live entry with \p rid was delete-marked by \p txn (stamp
  /// pending). Creates an "ancient insert" record if the entry predates
  /// the store.
  void NoteDelete(uint64_t rid, TxnId txn);

  /// Opens a stamping epoch for \p txn. The commit path calls this
  /// *before* appending the Commit record, so any flusher batch that can
  /// contain the record was cut after the epoch opened; AdvanceDurable
  /// then refuses to publish a covering snapshot stamp until StampCommit
  /// (or CancelStamping on append failure) closes the epoch.
  void BeginStamping(TxnId txn);

  /// Closes \p txn's stamping epoch without stamping (the Commit-record
  /// append failed, so no durable fan-out will ever cover it).
  void CancelStamping(TxnId txn);

  /// Commit-time stamping: every pending record of \p txn gets
  /// \p commit_lsn, then the stamping epoch closes. Must run before the
  /// commit record is forced (see the class comment for why the epoch +
  /// pre-force ordering closes the visibility race). Returns the rids it
  /// stamped, for PruneRids once the commit is durable.
  std::vector<uint64_t> StampCommit(TxnId txn, Lsn commit_lsn);

  /// Abort epilogue: forgets \p txn's pending-stamp bookkeeping and clears
  /// any leftover pending records. Call only *after* rollback has undone
  /// the transaction's page changes — the per-op UndoInsert/UndoDelete
  /// hooks retract each version in step with its page undo, so lock-free
  /// snapshot scans never see a page state whose version records are
  /// already gone. (Erasing records while the aborted entries are still on
  /// the leaves would make them "ancient" — i.e. visible — to concurrent
  /// readers.)
  void DropAborted(TxnId txn);

  /// Undo-site hooks (partial rollback to a savepoint undoes individual
  /// operations while the transaction stays active — those versions must
  /// not be stamped at commit). Idempotent with DropAborted; no-ops when
  /// the record is absent (restart undo: the store is empty).
  void UndoInsert(uint64_t rid, TxnId txn);
  void UndoDelete(uint64_t rid, TxnId txn);

  // --- snapshot visibility ----------------------------------------------

  /// Is the physical entry (\p rid, del_txn mark \p entry_del_txn) visible
  /// to snapshot \p snapshot? See DESIGN.md section 14.3 for the rules.
  bool Visible(uint64_t rid, TxnId entry_del_txn, Lsn snapshot) const;

  // --- garbage collection -----------------------------------------------

  /// May GC physically remove the marked entry (\p rid, deleter
  /// \p del_txn)? True when its delete stamp is below every active
  /// snapshot (a missing record means it was already prunable). The caller
  /// has separately established that the deleter terminated.
  bool SafeToReclaim(uint64_t rid, TxnId del_txn) const;

  /// May GC retire (delete + free) tree nodes right now? Snapshot readers
  /// hold no signaling locks, so node retirement defers while any
  /// snapshot is active rather than drain per-node.
  bool CanRetireNodes();

  /// Drops records no active snapshot can observe: committed deletes below
  /// the horizon, and undeleted records whose insert committed below it
  /// (those become "ancient"). Returns the number of records pruned.
  size_t Prune();

  /// Prune's test applied to the chains of \p rids alone: the commit
  /// path hands in what StampCommit stamped once its Commit is durable,
  /// so a commit drops its own records when no snapshot can see them.
  void PruneRids(const std::vector<uint64_t>& rids);

  /// Records currently in the store (tests, introspection).
  size_t StoreSize() const;

  /// Number of version records for \p rid (tests: chains shrink once no
  /// snapshot pins them).
  size_t ChainLength(uint64_t rid) const;

 private:
  /// One version: a physical leaf entry's insert/delete stamps.
  /// insert_ts/delete_ts are kInvalidLsn while the writer is uncommitted.
  struct VersionRecord {
    TxnId insert_txn = kInvalidTxnId;
    Lsn insert_ts = kInvalidLsn;
    TxnId delete_txn = kInvalidTxnId;
    Lsn delete_ts = kInvalidLsn;
  };

  /// Oldest-first; the live version (no delete mark) is scanned for from
  /// the back. Chains stay short: GC prunes below the snapshot horizon.
  using Chain = std::vector<VersionRecord>;

  static constexpr size_t kNumShards = 16;

  struct Shard {
    mutable Mutex mu{GISTCR_LOCK_RANK(kMvccShard, "mvcc.shard.mu")};
    std::unordered_map<uint64_t, Chain> chains GISTCR_GUARDED_BY(mu);
  };

  static bool StampedVisible(Lsn ts, Lsn snapshot) {
    return ts != kInvalidLsn && ts <= snapshot;
  }

  Lsn MinActiveSnapshotLocked() const GISTCR_REQUIRES(snap_mu_);

  /// The pruning horizon: the oldest active snapshot stamp, or past the
  /// current stamp when none is active. Read under snap_mu_, the mutex
  /// BeginSnapshot stamps and registers under (see Prune).
  Lsn PruneHorizon() const;

  /// Drops the records of \p chain no snapshot at or above \p horizon
  /// can observe; returns how many. The one pruning test, shared by
  /// Prune and PruneRids.
  static size_t PruneChain(Chain* chain, Lsn horizon);

  Shard& ShardOf(uint64_t rid) const {
    const uint64_t h = rid * 0x9E3779B97F4A7C15ull;
    return *shards_[(h >> 32) % kNumShards];
  }

  std::atomic<Lsn> durable_stamp_{kInvalidLsn};

  std::unique_ptr<Shard> shards_[kNumShards];

  // Snapshot registry: one entry per in-flight read-only transaction.
  // MinActiveSnapshot scans it; registries are small, and it is called
  // from GC cadences, not hot paths.
  mutable Mutex snap_mu_{GISTCR_LOCK_RANK(kMvccSnap, "mvcc.snap.mu")};
  std::unordered_map<TxnId, Lsn> active_snaps_ GISTCR_GUARDED_BY(snap_mu_);

  // txn -> rids with pending stamps, so commit stamping touches only the
  // transaction's own versions.
  mutable Mutex pending_mu_{GISTCR_LOCK_RANK(kMvccPending, "mvcc.pending.mu")};
  std::unordered_map<TxnId, std::vector<uint64_t>> pending_
      GISTCR_GUARDED_BY(pending_mu_);

  // Open stamping epochs (txn -> registration order). AdvanceDurable
  // drains epochs registered before it publishes a stamp; the sequence
  // number bounds the drain so a continuous commit stream cannot livelock
  // the flusher (epochs opened after the fan-out began belong to records
  // appended after the batch was cut, hence with LSNs past it).
  mutable Mutex stamping_mu_{GISTCR_LOCK_RANK(kMvccStamping, "mvcc.stamping.mu")};
  CondVar stamping_cv_;
  uint64_t stamping_seq_ GISTCR_GUARDED_BY(stamping_mu_) = 1;
  std::unordered_map<TxnId, uint64_t> stamping_
      GISTCR_GUARDED_BY(stamping_mu_);

  obs::Counter* m_snapshot_begins_ = nullptr;
  obs::Counter* m_snapshot_reads_ = nullptr;
  obs::Counter* m_stamped_ = nullptr;
  obs::Counter* m_pruned_ = nullptr;
  obs::Counter* m_retire_deferred_ = nullptr;
  obs::Histogram* m_chain_length_ = nullptr;

 public:
  /// Counted by the snapshot search path in gist.cc (one per leaf-entry
  /// visibility decision batch is too fine; one per Search call).
  void CountSnapshotRead() { m_snapshot_reads_->Add(1); }
};

}  // namespace gistcr

#endif  // GISTCR_MVCC_MVCC_MANAGER_H_
