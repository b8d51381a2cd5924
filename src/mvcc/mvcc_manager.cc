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

void MvccManager::NoteInsert(uint64_t rid, Transaction* txn) {
  txn->versions().push_back(rid);
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  VersionRecord rec;
  rec.insert_txn = txn->id();
  s.chains[rid].push_back(rec);
}

void MvccManager::NoteDelete(uint64_t rid, Transaction* txn) {
  txn->versions().push_back(rid);
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  Chain& chain = s.chains[rid];
  // The live version is the newest record without a delete mark.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->delete_txn == kInvalidTxnId) {
      it->delete_txn = txn->id();
      it->delete_ts = kInvalidLsn;
      return;
    }
  }
  // Entry predates the store (or its live record was pruned as ancient):
  // materialize it with an always-visible insert stamp.
  VersionRecord rec;
  rec.insert_ts = kAncientStamp;
  rec.delete_txn = txn->id();
  chain.push_back(rec);
}

void MvccManager::StampCommit(Transaction* txn, Lsn commit_lsn) {
  const TxnId id = txn->id();
  uint64_t stamped = 0;
  for (uint64_t rid : txn->versions()) {
    Shard& s = ShardOf(rid);
    MutexLock l(s.mu);
    auto it = s.chains.find(rid);
    if (it == s.chains.end()) continue;
    for (VersionRecord& rec : it->second) {
      if (rec.insert_txn == id && rec.insert_ts == kInvalidLsn) {
        rec.insert_ts = commit_lsn;
        stamped++;
      }
      if (rec.delete_txn == id && rec.delete_ts == kInvalidLsn) {
        rec.delete_ts = commit_lsn;
        stamped++;
      }
    }
    m_chain_length_->Record(it->second.size());
  }
  m_stamped_->Add(stamped);
}

void MvccManager::UndoInsert(uint64_t rid, TxnId txn) {
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  auto it = s.chains.find(rid);
  if (it == s.chains.end()) return;
  Chain& chain = it->second;
  chain.erase(std::remove_if(chain.begin(), chain.end(),
                             [txn](const VersionRecord& rec) {
                               return rec.insert_txn == txn;
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
    if (rec.delete_txn == txn) {
      rec.delete_txn = kInvalidTxnId;
      rec.delete_ts = kInvalidLsn;
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

bool MvccManager::SafeToReclaim(uint64_t rid, TxnId del_txn,
                                Lsn horizon) const {
  Shard& s = ShardOf(rid);
  MutexLock l(s.mu);
  auto it = s.chains.find(rid);
  if (it == s.chains.end()) return true;  // ancient / already pruned
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (rit->delete_txn != del_txn) continue;
    if (rit->delete_ts == kInvalidLsn) return false;  // stamp still pending
    return rit->delete_ts < horizon;
  }
  return true;
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

size_t MvccManager::Prune(Lsn horizon) {
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

void MvccManager::PruneRids(const std::vector<uint64_t>& rids,
                            Lsn horizon) {
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
