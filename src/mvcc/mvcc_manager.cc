#include "mvcc/mvcc_manager.h"

#include <algorithm>

namespace gistcr {

MvccManager::MvccManager() {
  for (size_t i = 0; i < kNumShards; i++) {
    shards_[i] = std::make_unique<Shard>();
  }
  AttachMetrics(nullptr);
}

void MvccManager::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_snapshot_begins_ = reg->GetCounter("mvcc.snapshot_begins");
  m_snapshot_reads_ = reg->GetCounter("mvcc.snapshot_reads");
  m_stamped_ = reg->GetCounter("mvcc.versions_stamped");
  m_pruned_ = reg->GetCounter("mvcc.versions_pruned");
  m_retire_deferred_ = reg->GetCounter("mvcc.node_retire_deferred");
  m_chain_length_ = reg->GetHistogram("mvcc.chain_length");
}

void MvccManager::BeginStamping(TxnId txn) {
  MutexLock l(stamping_mu_);
  stamping_[txn] = stamping_seq_++;
}

void MvccManager::CancelStamping(TxnId txn) {
  MutexLock l(stamping_mu_);
  if (stamping_.erase(txn) > 0) stamping_cv_.NotifyAll();
}

void MvccManager::AdvanceDurable(Lsn lsn) {
  {
    // Drain stamping epochs opened before this fan-out: the batch that
    // just landed may contain their Commit records, and the snapshot
    // stamp must not cover a commit whose versions are unstamped. Epochs
    // opened later (seq >= cutoff) belong to records appended after the
    // batch was cut — their commit LSNs exceed \p lsn — so the cutoff
    // both excludes them and bounds the wait.
    MutexLock l(stamping_mu_);
    const uint64_t cutoff = stamping_seq_;
    for (;;) {
      bool older = false;
      for (const auto& [id, seq] : stamping_) {
        (void)id;
        if (seq < cutoff) {
          older = true;
          break;
        }
      }
      if (!older) break;
      stamping_cv_.Wait(stamping_mu_);
    }
  }
  Lsn cur = durable_stamp_.load(std::memory_order_relaxed);
  while (lsn > cur && !durable_stamp_.compare_exchange_weak(
                          cur, lsn, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
}

Lsn MvccManager::BeginSnapshot(TxnId txn_id) {
  Lsn stamp;
  {
    // Stamp and register in one critical section against the GC horizon
    // reads (Prune holds snap_mu_ across min-active + SnapshotStamp): a
    // snapshot either registers before the horizon scan and pins its
    // history, or reads its stamp after the scan's SnapshotStamp() — in
    // which case everything pruned was already at-or-below its stamp
    // (ancient == visible, pruned delete == invisible: same answers).
    MutexLock l(snap_mu_);
    stamp = SnapshotStamp();
    active_snaps_[txn_id] = stamp;
  }
  m_snapshot_begins_->Add(1);
  return stamp;
}

void MvccManager::EndSnapshot(TxnId txn_id) {
  MutexLock l(snap_mu_);
  active_snaps_.erase(txn_id);
}

Lsn MvccManager::MinActiveSnapshotLocked() const {
  Lsn min = kInvalidLsn;
  for (const auto& [id, stamp] : active_snaps_) {
    (void)id;
    if (min == kInvalidLsn || stamp < min) min = stamp;
  }
  return min;
}

Lsn MvccManager::MinActiveSnapshot() const {
  MutexLock l(snap_mu_);
  return MinActiveSnapshotLocked();
}

bool MvccManager::HasActiveSnapshots() const {
  MutexLock l(snap_mu_);
  return !active_snaps_.empty();
}

void MvccManager::NoteInsert(uint64_t rid, TxnId txn) {
  {
    MutexLock l(pending_mu_);
    pending_[txn].push_back(rid);
  }
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  VersionRecord rec;
  rec.insert_txn = txn;
  s.chains[rid].push_back(rec);
}

void MvccManager::NoteDelete(uint64_t rid, TxnId txn) {
  {
    MutexLock l(pending_mu_);
    pending_[txn].push_back(rid);
  }
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  Chain& chain = s.chains[rid];
  // The live version is the newest record without a delete mark.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->delete_txn == kInvalidTxnId) {
      it->delete_txn = txn;
      it->delete_ts = kInvalidLsn;
      return;
    }
  }
  // Entry predates the store (or its live record was pruned as ancient):
  // materialize it with an always-visible insert stamp.
  VersionRecord rec;
  rec.insert_ts = kAncientStamp;
  rec.delete_txn = txn;
  chain.push_back(rec);
}

std::vector<uint64_t> MvccManager::StampCommit(TxnId txn, Lsn commit_lsn) {
  std::vector<uint64_t> rids;
  {
    MutexLock l(pending_mu_);
    auto it = pending_.find(txn);
    if (it != pending_.end()) {
      rids = std::move(it->second);
      pending_.erase(it);
    }
  }
  uint64_t stamped = 0;
  for (uint64_t rid : rids) {
    Shard& s = ShardOf(rid);
    MutexLock l(s.mu);
    auto it = s.chains.find(rid);
    if (it == s.chains.end()) continue;
    for (VersionRecord& rec : it->second) {
      if (rec.insert_txn == txn && rec.insert_ts == kInvalidLsn) {
        rec.insert_ts = commit_lsn;
        stamped++;
      }
      if (rec.delete_txn == txn && rec.delete_ts == kInvalidLsn) {
        rec.delete_ts = commit_lsn;
        stamped++;
      }
    }
    m_chain_length_->Record(it->second.size());
  }
  m_stamped_->Add(stamped);
  // Stamps in place: close the epoch so the durable fan-out may publish a
  // snapshot stamp covering this commit. Runs even when the transaction
  // had no pending versions — the epoch was opened unconditionally.
  CancelStamping(txn);
  return rids;
}

void MvccManager::DropAborted(TxnId txn) {
  std::vector<uint64_t> rids;
  {
    MutexLock l(pending_mu_);
    auto it = pending_.find(txn);
    if (it == pending_.end()) return;
    rids = std::move(it->second);
    pending_.erase(it);
  }
  for (uint64_t rid : rids) {
    Shard& s = ShardOf(rid);
    MutexLock l(s.mu);
    auto it = s.chains.find(rid);
    if (it == s.chains.end()) continue;
    Chain& chain = it->second;
    for (VersionRecord& rec : chain) {
      // Rollback re-exposes the entry on the page; clear the mark here too.
      if (rec.delete_txn == txn && rec.delete_ts == kInvalidLsn) {
        rec.delete_txn = kInvalidTxnId;
      }
    }
    chain.erase(std::remove_if(chain.begin(), chain.end(),
                               [txn](const VersionRecord& rec) {
                                 return rec.insert_txn == txn &&
                                        rec.insert_ts == kInvalidLsn;
                               }),
                chain.end());
    if (chain.empty()) s.chains.erase(it);
  }
}

void MvccManager::UndoInsert(uint64_t rid, TxnId txn) {
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  auto it = s.chains.find(rid);
  if (it == s.chains.end()) return;
  Chain& chain = it->second;
  chain.erase(std::remove_if(chain.begin(), chain.end(),
                             [txn](const VersionRecord& rec) {
                               return rec.insert_txn == txn &&
                                      rec.insert_ts == kInvalidLsn;
                             }),
              chain.end());
  if (chain.empty()) s.chains.erase(it);
}

void MvccManager::UndoDelete(uint64_t rid, TxnId txn) {
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  auto it = s.chains.find(rid);
  if (it == s.chains.end()) return;
  for (VersionRecord& rec : it->second) {
    if (rec.delete_txn == txn && rec.delete_ts == kInvalidLsn) {
      rec.delete_txn = kInvalidTxnId;
    }
  }
}

bool MvccManager::Visible(uint64_t rid, TxnId entry_del_txn,
                          Lsn snapshot) const {
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  auto it = s.chains.find(rid);
  if (it == s.chains.end()) {
    // Ancient: the entry's fate was settled before tracking began (or the
    // record was pruned below every snapshot). A live entry is visible; a
    // marked one was deleted long before this snapshot.
    return entry_del_txn == kInvalidTxnId;
  }
  const Chain& chain = it->second;
  if (entry_del_txn == kInvalidTxnId) {
    // Live entry = newest undeleted version.
    for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
      if (rit->delete_txn == kInvalidTxnId) {
        return StampedVisible(rit->insert_ts, snapshot);
      }
    }
    // No undeleted record: a concurrent writer delete-marked the live
    // version after our caller read the leaf entry. Judge by the
    // newest record's stamps — the pending (or post-snapshot) delete does
    // not hide it, but its *insert* must still have committed before this
    // snapshot. Returning true unconditionally would expose an insert
    // whose commit raced past our stamp.
    const VersionRecord& newest = chain.back();
    return StampedVisible(newest.insert_ts, snapshot) &&
           !StampedVisible(newest.delete_ts, snapshot);
  }
  // Marked entry: its record carries the matching deleter.
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    if (rit->delete_txn == entry_del_txn) {
      return StampedVisible(rit->insert_ts, snapshot) &&
             !StampedVisible(rit->delete_ts, snapshot);
    }
  }
  return false;  // record pruned => delete committed below every snapshot
}

bool MvccManager::SafeToReclaim(uint64_t rid, TxnId del_txn) const {
  const Lsn min_snap = MinActiveSnapshot();
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  auto it = s.chains.find(rid);
  if (it == s.chains.end()) return true;  // ancient / already pruned
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (rit->delete_txn != del_txn) continue;
    if (rit->delete_ts == kInvalidLsn) return false;  // stamp still pending
    // A future snapshot's stamp is >= the current durable LSN >= this
    // committed stamp, so only currently active snapshots can pin it.
    return min_snap == kInvalidLsn || rit->delete_ts < min_snap;
  }
  return true;
}

bool MvccManager::CanRetireNodes() {
  if (!HasActiveSnapshots()) return true;
  m_retire_deferred_->Add(1);
  return false;
}

Lsn MvccManager::PruneHorizon() const {
  // Min-active and the no-snapshot fallback stamp are read under
  // snap_mu_, the same mutex BeginSnapshot holds while it stamps and
  // registers — so a concurrent BeginSnapshot either lands in the scan
  // (horizon <= its stamp) or gets a stamp >= the fallback read, and
  // everything pruned answers identically for it (see BeginSnapshot).
  MutexLock l(snap_mu_);
  const Lsn min_snap = MinActiveSnapshotLocked();
  // With no active snapshot, everything committed (hence durable, hence
  // below any future snapshot stamp) is prunable.
  return min_snap != kInvalidLsn ? min_snap : SnapshotStamp() + 1;
}

size_t MvccManager::PruneChain(Chain* chain, Lsn horizon) {
  const auto end = std::remove_if(
      chain->begin(), chain->end(), [&](const VersionRecord& rec) {
        // Superseded version: gone for everyone once the delete commits
        // below the horizon. Live version: becomes "ancient" (missing =>
        // visible) once its insert is below the horizon.
        const Lsn ts =
            rec.delete_txn != kInvalidTxnId ? rec.delete_ts : rec.insert_ts;
        return ts != kInvalidLsn && ts < horizon;
      });
  const size_t pruned = static_cast<size_t>(chain->end() - end);
  chain->erase(end, chain->end());
  return pruned;
}

size_t MvccManager::Prune() {
  const Lsn horizon = PruneHorizon();
  size_t pruned = 0;
  for (size_t i = 0; i < kNumShards; i++) {
    Shard& s = *shards_[i];
    MutexLock l(s.mu);
    for (auto it = s.chains.begin(); it != s.chains.end();) {
      pruned += PruneChain(&it->second, horizon);
      if (it->second.empty()) {
        it = s.chains.erase(it);
      } else {
        ++it;
      }
    }
  }
  m_pruned_->Add(pruned);
  return pruned;
}

void MvccManager::PruneRids(const std::vector<uint64_t>& rids) {
  if (rids.empty()) return;
  const Lsn horizon = PruneHorizon();
  size_t pruned = 0;
  for (uint64_t rid : rids) {
    Shard& s = ShardOf(rid);
    MutexLock l(s.mu);
    auto it = s.chains.find(rid);
    if (it == s.chains.end()) continue;
    pruned += PruneChain(&it->second, horizon);
    if (it->second.empty()) s.chains.erase(it);
  }
  m_pruned_->Add(pruned);
}

size_t MvccManager::StoreSize() const {
  size_t total = 0;
  for (size_t i = 0; i < kNumShards; i++) {
    Shard& s = *shards_[i];
    MutexLock l(s.mu);
    for (const auto& [rid, chain] : s.chains) {
      (void)rid;
      total += chain.size();
    }
  }
  return total;
}

size_t MvccManager::ChainLength(uint64_t rid) const {
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  auto it = s.chains.find(rid);
  return it == s.chains.end() ? 0 : it->second.size();
}

}  // namespace gistcr
