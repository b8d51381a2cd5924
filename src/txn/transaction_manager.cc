#include "txn/transaction_manager.h"

#include <algorithm>

#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

TransactionManager::TransactionManager(LogManager* log, LockManager* locks,
                                       PredicateManager* preds,
                                       MvccManager* mvcc)
    : log_(log), locks_(locks), preds_(preds), mvcc_(mvcc) {
  AttachMetrics(nullptr);
}

void TransactionManager::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_begins_ = reg->GetCounter("txn.begins");
  m_commits_ = reg->GetCounter("txn.commits");
  m_aborts_ = reg->GetCounter("txn.aborts");
  m_commit_ns_ = reg->GetHistogram("txn.commit_ns");
}

Transaction* TransactionManager::Begin(IsolationLevel iso) {
  if (iso == IsolationLevel::kSnapshot && recovery_undo_active()) {
    // Instant-restart undo is still retracting loser version records:
    // degrade to the full hybrid protocol, whose locks are consistent with
    // the losers' held locks.
    iso = IsolationLevel::kRepeatableRead;
  }
  TxnId id;
  Transaction* txn;
  {
    MutexLock l(mu_);
    id = next_txn_id_++;
    auto t = std::make_unique<Transaction>(id, iso);
    txn = t.get();
    // Stamp and register in one critical section against SnapshotHorizon
    // (DESIGN.md section 14.4): a snapshot either is in the table when the
    // horizon is read and bounds it, or reads its stamp after the
    // horizon's durable LSN, at or above everything that horizon prunes.
    if (iso == IsolationLevel::kSnapshot) {
      txn->set_snapshot_lsn(log_->durable_lsn());
    }
    table_[id] = std::move(t);
  }
  if (iso == IsolationLevel::kSnapshot) {
    // Read-only snapshot path: no txn-id lock (nothing can need to block
    // on a reader that holds nothing). The acceptance bar is literal:
    // zero lock-manager calls.
    mvcc_->CountSnapshotBegin();
    m_begins_->Add(1);
    return txn;
  }
  // Every transaction X-locks its own id at startup so that others can
  // block on its termination (paper section 10.3). Nothing is logged: the
  // first update opens the backchain (AppendTxnLog), as in ARIES.
  Status st = locks_->Lock(id, LockName{LockSpace::kTxn, id},
                           LockMode::kExclusive);
  GISTCR_CHECK(st.ok());
  m_begins_->Add(1);
  return txn;
}

Status TransactionManager::EndUnlogged(Transaction* txn, bool committed) {
  txn->set_state(committed ? TxnState::kCommitted : TxnState::kAborted);
  if (!txn->is_snapshot()) ReleaseAllFor(txn);
  (committed ? m_commits_ : m_aborts_)->Add(1);
  MutexLock l(mu_);
  table_.erase(txn->id());
  return Status::OK();
}

Status TransactionManager::AppendTxnLog(
    Transaction* txn, LogRecord* rec,
    const std::function<void(Lsn)>& on_lsn) {
  rec->txn_id = txn->id();
  rec->prev_lsn = txn->last_lsn();
  if (txn->first_lsn() == kInvalidLsn) {
    // The first record publishes a first LSN before it exists: the log's
    // next LSN, at or below wherever the record lands. A checkpoint that
    // reads the log end before our append must find us in
    // OldestActiveFirstLsn, or it logs a redo floor above our first
    // record (DESIGN.md section 16.2).
    txn->set_first_lsn(log_->next_lsn());
  }
  GISTCR_RETURN_IF_ERROR(log_->Append(rec, on_lsn));
  GISTCR_CRASHPOINT("txn.after_log_append");
  txn->set_last_lsn(rec->lsn);
  return Status::OK();
}

Status TransactionManager::NtaEnd(Transaction* txn, Lsn begin_lsn) {
  LogRecord rec;
  rec.type = LogRecordType::kNtaEnd;
  rec.undo_next = begin_lsn;
  return AppendTxnLog(txn, &rec);
}

void TransactionManager::ReleaseAllFor(Transaction* txn) {
  preds_->ReleaseTxn(txn->id());
  locks_->ReleaseAll(txn->id());
}

Status TransactionManager::Commit(Transaction* txn) {
  GISTCR_CHECK(txn->state() == TxnState::kActive);
  // A transaction that logged nothing has nothing to make durable: what
  // it read was committed and forced before its writer released the
  // locks it waited on (DESIGN.md section 6, no early lock release).
  if (txn->last_lsn() == kInvalidLsn) return EndUnlogged(txn, true);
  GISTCR_TRACE_SCOPE("txn.commit");
  const uint64_t t0 = obs::NowNanos();
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  // Stamp this transaction's versions with the commit LSN inside the
  // Commit record's append, under wal.mu: the flusher cuts its batches
  // under that mutex, so no durable LSN, and with it no snapshot stamp,
  // covers the record before its versions are stamped (DESIGN.md section
  // 14.2).
  GISTCR_RETURN_IF_ERROR(AppendTxnLog(
      txn, &commit, [this, txn](Lsn lsn) { mvcc_->StampCommit(txn, lsn); }));
  // Commit appended but not forced: recovery must treat the txn as a loser
  // unless the record happens to be durable already.
  GISTCR_CRASHPOINT("txn.commit.before_log_force");
  GISTCR_RETURN_IF_ERROR(log_->Flush(commit.lsn));  // force at commit
  // Commit durable; End record and lock release still pending.
  GISTCR_CRASHPOINT("txn.commit.after_log_force");
  txn->set_state(TxnState::kCommitted);
  ReleaseAllFor(txn);
  // The durable LSN covers this commit now: its version records go unless
  // an open snapshot can still see them (DESIGN.md section 14.4).
  if (!txn->versions().empty()) {
    mvcc_->PruneRids(txn->versions(), SnapshotHorizon());
  }
  LogRecord end;
  end.type = LogRecordType::kEnd;
  GISTCR_RETURN_IF_ERROR(AppendTxnLog(txn, &end));
  m_commit_ns_->Record(obs::NowNanos() - t0);
  m_commits_->Add(1);
  EraseLogged(txn);
  return Status::OK();
}

void TransactionManager::EraseLogged(Transaction* txn) {
  MutexLock l(mu_);
  table_.erase(txn->id());
  const Lsn end = log_->next_lsn();
  const Lsn oldest = OldestActiveFirstLsnLocked();
  const Lsn c = oldest == kInvalidLsn ? end : std::min(end, oldest);
  if (c > commit_lsn_.load(std::memory_order_relaxed)) {
    commit_lsn_.store(c, std::memory_order_release);
  }
}

Status TransactionManager::UndoTo(Transaction* txn, Lsn stop_lsn) {
  Lsn cur = txn->last_lsn();
  LogRecord rec;  // reused: the log reads allocate nothing per record
  while (cur != kInvalidLsn && cur > stop_lsn) {
    GISTCR_RETURN_IF_ERROR(log_->ReadRecord(cur, &rec));
    switch (rec.type) {
      case LogRecordType::kClr:
      case LogRecordType::kNtaEnd:
        // Already-compensated work / committed nested top action: jump the
        // backchain over it.
        cur = rec.undo_next;
        break;
      case LogRecordType::kBegin:  // written only by older builds
        cur = kInvalidLsn;
        break;
      case LogRecordType::kAbort:
      case LogRecordType::kCommit:
      case LogRecordType::kEnd:
        cur = rec.prev_lsn;
        break;
      default:
        GISTCR_CHECK(applier_ != nullptr);
        GISTCR_RETURN_IF_ERROR(applier_->UndoRecord(txn, rec));
        cur = rec.prev_lsn;
        break;
    }
  }
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  GISTCR_CHECK(txn->state() == TxnState::kActive);
  if (txn->last_lsn() == kInvalidLsn) return EndUnlogged(txn, false);
  LogRecord abort_rec;
  abort_rec.type = LogRecordType::kAbort;
  GISTCR_RETURN_IF_ERROR(AppendTxnLog(txn, &abort_rec));
  // The UndoInsert/UndoDelete hooks inside UndoRecord retract each
  // version record in step with its page undo, so a concurrent lock-free
  // snapshot scan always finds version records matching the page state it
  // validated. Erasing the records up front would let the scan see this
  // txn's still-present inserts as "ancient" (dirty read) and its
  // still-marked deletes as committed (lost row).
  GISTCR_RETURN_IF_ERROR(UndoTo(txn, kInvalidLsn));
  txn->set_state(TxnState::kAborted);
  ReleaseAllFor(txn);
  LogRecord end;
  end.type = LogRecordType::kEnd;
  GISTCR_RETURN_IF_ERROR(AppendTxnLog(txn, &end));
  m_aborts_->Add(1);
  EraseLogged(txn);
  return Status::OK();
}

Status TransactionManager::Savepoint(Transaction* txn,
                                     const std::string& name) {
  GISTCR_CHECK(txn->state() == TxnState::kActive);
  txn->savepoints().push_back({name, txn->last_lsn()});
  return Status::OK();
}

Status TransactionManager::RollbackToSavepoint(Transaction* txn,
                                               const std::string& name) {
  GISTCR_CHECK(txn->state() == TxnState::kActive);
  auto& sps = txn->savepoints();
  auto it = std::find_if(sps.rbegin(), sps.rend(),
                         [&](const Transaction::SavepointInfo& s) {
                           return s.name == name;
                         });
  if (it == sps.rend()) {
    return Status::NotFound("savepoint " + name);
  }
  const Lsn target = it->lsn;
  GISTCR_RETURN_IF_ERROR(UndoTo(txn, target));
  // Later savepoints are invalidated; the target savepoint survives so the
  // rollback can be repeated.
  sps.erase(it.base(), sps.end());
  return Status::OK();
}

bool TransactionManager::IsActive(TxnId txn_id) {
  if (txn_id == kInvalidTxnId) return false;
  MutexLock l(mu_);
  auto it = table_.find(txn_id);
  return it != table_.end() && it->second->state() == TxnState::kActive;
}

Lsn TransactionManager::OldestActiveFirstLsn() {
  MutexLock l(mu_);
  return OldestActiveFirstLsnLocked();
}

Lsn TransactionManager::OldestActiveFirstLsnLocked() {
  Lsn oldest = kInvalidLsn;
  for (auto& [id, txn] : table_) {
    (void)id;
    if (txn->state() != TxnState::kActive) continue;
    const Lsn f = txn->first_lsn();
    if (f == kInvalidLsn) continue;
    if (oldest == kInvalidLsn || f < oldest) oldest = f;
  }
  return oldest;
}

bool TransactionManager::HasActiveSnapshots() {
  MutexLock l(mu_);
  for (const auto& [id, txn] : table_) {
    (void)id;
    if (txn->is_snapshot()) return true;
  }
  return false;
}

Lsn TransactionManager::SnapshotHorizon() {
  MutexLock l(mu_);
  Lsn oldest = kInvalidLsn;
  for (const auto& [id, txn] : table_) {
    (void)id;
    if (!txn->is_snapshot()) continue;
    const Lsn s = txn->snapshot_lsn();
    if (oldest == kInvalidLsn || s < oldest) oldest = s;
  }
  // With no snapshot open, everything committed (hence durable, hence at
  // or below any future snapshot stamp) is below the horizon.
  return oldest != kInvalidLsn ? oldest : log_->durable_lsn() + 1;
}

std::vector<std::pair<TxnId, Lsn>> TransactionManager::ActiveTxns() {
  MutexLock l(mu_);
  std::vector<std::pair<TxnId, Lsn>> out;
  for (auto& [id, txn] : table_) {
    if (txn->state() == TxnState::kActive) {
      out.emplace_back(id, txn->last_lsn());
    }
  }
  return out;
}

Transaction* TransactionManager::ResurrectForUndo(TxnId id, Lsn first_lsn,
                                                  Lsn last_lsn) {
  MutexLock l(mu_);
  auto t = std::make_unique<Transaction>(id, IsolationLevel::kRepeatableRead);
  t->set_first_lsn(first_lsn);
  t->set_last_lsn(last_lsn);
  Transaction* txn = t.get();
  table_[id] = std::move(t);
  if (id >= next_txn_id_) next_txn_id_ = id + 1;
  return txn;
}

void TransactionManager::SetNextTxnId(TxnId next) {
  MutexLock l(mu_);
  if (next > next_txn_id_) next_txn_id_ = next;
}

TxnId TransactionManager::NextTxnIdForCheckpoint() {
  MutexLock l(mu_);
  return next_txn_id_;
}

}  // namespace gistcr
