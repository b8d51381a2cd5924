#ifndef GISTCR_MVCC_MVCC_MANAGER_H_
#define GISTCR_MVCC_MVCC_MANAGER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "txn/transaction.h"
#include "util/macros.h"

namespace gistcr {

/// The version store for snapshot reads (DESIGN.md section 14).
///
/// The paper's hybrid protocol makes every Degree-3 search attach predicate
/// locks top-down, so *reads* mutate shared lock-manager state. This
/// subsystem gives read-only transactions a way out: they take a snapshot
/// stamp and filter leaf entries by commit-time visibility, touching zero
/// lock-manager state. Update transactions keep the full 2PL + predicate
/// protocol unchanged.
///
/// **Timestamps are LSNs, and the store keeps none of its own.** A
/// transaction's commit stamp is the LSN of its Commit log record, and
/// StampCommit writes it into the transaction's versions inside that
/// record's append, before the log mutex is released. The flusher cuts
/// its batches under the same mutex, so no durable LSN ever covers an
/// unstamped commit. A snapshot stamp is the log's durable LSN, read by
/// TransactionManager::Begin in the critical section that enters the
/// transaction in its table, and the GC horizon is read from that table
/// too (TransactionManager::SnapshotHorizon). With that, "stamped and
/// <= S" is exactly "committed before my snapshot", with no
/// synchronization on the read side.
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

  // --- version store (update-transaction write sites) -------------------

  /// A leaf entry with \p rid was inserted by \p txn (stamp pending).
  /// Called by the transaction's own thread, which alone touches
  /// txn->versions().
  void NoteInsert(uint64_t rid, Transaction* txn);

  /// The live entry with \p rid was delete-marked by \p txn (stamp
  /// pending). Creates an "ancient insert" record if the entry predates
  /// the store.
  void NoteDelete(uint64_t rid, Transaction* txn);

  /// Commit-time stamping: every pending record of \p txn gets
  /// \p commit_lsn. The commit path runs it inside the append of the
  /// Commit record (LogManager::Append's hook), under the log mutex, so it
  /// touches memory only (see the class comment).
  void StampCommit(Transaction* txn, Lsn commit_lsn);

  /// Undo-site hooks: retract \p txn's version record for \p rid in step
  /// with the page undo. The record is unstamped: only the owner stamps
  /// its records, inside its Commit record's append, and nothing rolls a
  /// transaction back after that append. Abort and partial rollback to a
  /// savepoint both run through them; no-ops when the record is absent
  /// (restart undo: the losers have no records).
  void UndoInsert(uint64_t rid, TxnId txn);
  void UndoDelete(uint64_t rid, TxnId txn);

  // --- snapshot visibility ----------------------------------------------

  /// Is the physical entry (\p rid, del_txn mark \p entry_del_txn) visible
  /// to snapshot \p snapshot? See DESIGN.md section 14.3 for the rules.
  bool Visible(uint64_t rid, TxnId entry_del_txn, Lsn snapshot) const;

  // --- garbage collection -----------------------------------------------
  //
  // \p horizon is TransactionManager::SnapshotHorizon(): the oldest open
  // snapshot stamp, or past the durable LSN when none is open. No snapshot
  // open now or begun later can observe a stamp below it.

  /// May GC physically remove the marked entry (\p rid, deleter
  /// \p del_txn)? True when its delete stamp is below \p horizon (a
  /// missing record means it was already prunable). The caller has
  /// separately established that the deleter terminated.
  bool SafeToReclaim(uint64_t rid, TxnId del_txn, Lsn horizon) const;

  /// Drops records no snapshot can observe: committed deletes below
  /// \p horizon, and undeleted records whose insert committed below it
  /// (those become "ancient"). Returns the number of records pruned.
  size_t Prune(Lsn horizon);

  /// Prune's test applied to the chains of \p rids alone: the commit
  /// path hands in its transaction's versions once its Commit is durable,
  /// so a commit drops its own records when no snapshot can see them.
  void PruneRids(const std::vector<uint64_t>& rids, Lsn horizon);

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

  /// Drops the records of \p chain no snapshot at or above \p horizon
  /// can observe; returns how many. The one pruning test, shared by
  /// Prune and PruneRids.
  static size_t PruneChain(Chain* chain, Lsn horizon);

  Shard& ShardOf(uint64_t rid) const {
    const uint64_t h = rid * 0x9E3779B97F4A7C15ull;
    return *shards_[(h >> 32) % kNumShards];
  }

  std::unique_ptr<Shard> shards_[kNumShards];

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
  /// Counted by TransactionManager::Begin for each kSnapshot begin.
  void CountSnapshotBegin() { m_snapshot_begins_->Add(1); }
  /// Counted by node deletion each time an open snapshot defers it.
  void CountRetireDeferred() { m_retire_deferred_->Add(1); }
};

}  // namespace gistcr

#endif  // GISTCR_MVCC_MVCC_MANAGER_H_
