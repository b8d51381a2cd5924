#include "txn/predicate_manager.h"

#include <algorithm>

namespace gistcr {

PredicateManager::PredicateManager() { AttachMetrics(nullptr); }

void PredicateManager::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_attaches_ = reg->GetCounter("pred.attaches");
  m_conflict_checks_ = reg->GetCounter("pred.conflict_checks");
  m_predicates_scanned_ = reg->GetCounter("pred.predicates_scanned");
  m_replications_ = reg->GetCounter("pred.replications");
  m_percolations_ = reg->GetCounter("pred.percolations");
}

void PredicateManager::AttachLocked(PageId node, TxnId txn, uint64_t op_id,
                                    PredKind kind, Slice pred) {
  auto& lst = by_node_[node];
  for (const auto& a : lst) {
    if (a.txn == txn && a.op_id == op_id && a.kind == kind &&
        Slice(a.pred) == pred) {
      return;  // already attached (e.g. a scan revisiting after a split)
    }
  }
  lst.push_back(PredAttachment{next_id_++, txn, op_id, kind, pred.ToString()});
  auto& nodes = by_txn_[txn];
  if (nodes.empty() || nodes.back() != node) nodes.push_back(node);
  m_attaches_->Add(1);
}

void PredicateManager::Attach(PageId node, TxnId txn, uint64_t op_id,
                              PredKind kind, Slice pred) {
  MutexLock l(mu_);
  AttachLocked(node, txn, op_id, kind, pred);
}

std::vector<TxnId> PredicateManager::AttachAndFindConflicts(
    PageId node, TxnId txn, uint64_t op_id, PredKind kind, Slice pred,
    const ConflictFn& conflicts) {
  MutexLock l(mu_);
  std::vector<TxnId> owners;
  auto& lst = by_node_[node];
  m_conflict_checks_->Add(1);
  for (const auto& a : lst) {
    m_predicates_scanned_->Add(1);
    if (a.txn == txn) continue;
    if (conflicts(a)) {
      if (std::find(owners.begin(), owners.end(), a.txn) == owners.end()) {
        owners.push_back(a.txn);
      }
    }
  }
  AttachLocked(node, txn, op_id, kind, pred);
  return owners;
}

std::vector<TxnId> PredicateManager::FindConflicts(PageId node, TxnId self,
                                                   const ConflictFn& conflicts) {
  MutexLock l(mu_);
  std::vector<TxnId> owners;
  auto it = by_node_.find(node);
  m_conflict_checks_->Add(1);
  if (it == by_node_.end()) return owners;
  for (const auto& a : it->second) {
    m_predicates_scanned_->Add(1);
    if (a.txn == self) continue;
    if (conflicts(a)) {
      if (std::find(owners.begin(), owners.end(), a.txn) == owners.end()) {
        owners.push_back(a.txn);
      }
    }
  }
  return owners;
}

void PredicateManager::DetachOp(TxnId txn, uint64_t op_id) {
  MutexLock l(mu_);
  auto bt = by_txn_.find(txn);
  if (bt == by_txn_.end()) return;
  for (PageId node : bt->second) {
    auto it = by_node_.find(node);
    if (it == by_node_.end()) continue;
    it->second.remove_if([&](const PredAttachment& a) {
      return a.txn == txn && a.op_id == op_id &&
             (a.kind == PredKind::kInsert || a.kind == PredKind::kUniqueProbe);
    });
    if (it->second.empty()) by_node_.erase(it);
  }
}

void PredicateManager::ReleaseTxn(TxnId txn) {
  MutexLock l(mu_);
  auto bt = by_txn_.find(txn);
  if (bt == by_txn_.end()) return;
  for (PageId node : bt->second) {
    auto it = by_node_.find(node);
    if (it == by_node_.end()) continue;
    it->second.remove_if(
        [&](const PredAttachment& a) { return a.txn == txn; });
    if (it->second.empty()) by_node_.erase(it);
  }
  by_txn_.erase(bt);
}

void PredicateManager::ReplicateOnSplit(
    PageId orig, PageId new_node,
    const std::function<bool(const PredAttachment&)>& consistent_with_new_bp) {
  MutexLock l(mu_);
  auto it = by_node_.find(orig);
  if (it == by_node_.end()) return;
  // Collect first: AttachLocked mutates by_node_ and could invalidate `it`.
  std::vector<const PredAttachment*> to_copy;
  for (const auto& a : it->second) {
    if (consistent_with_new_bp(a)) to_copy.push_back(&a);
  }
  std::vector<PredAttachment> copies;
  copies.reserve(to_copy.size());
  for (const auto* a : to_copy) copies.push_back(*a);
  for (const auto& a : copies) {
    AttachLocked(new_node, a.txn, a.op_id, a.kind, a.pred);
    m_replications_->Add(1);
  }
}

void PredicateManager::Percolate(
    PageId parent, PageId child,
    const std::function<bool(const PredAttachment&)>& should_percolate) {
  MutexLock l(mu_);
  auto it = by_node_.find(parent);
  if (it == by_node_.end()) return;
  std::vector<PredAttachment> copies;
  for (const auto& a : it->second) {
    if (should_percolate(a)) copies.push_back(a);
  }
  for (const auto& a : copies) {
    AttachLocked(child, a.txn, a.op_id, a.kind, a.pred);
    m_percolations_->Add(1);
  }
}

std::vector<PredAttachment> PredicateManager::GetAttached(PageId node) {
  MutexLock l(mu_);
  auto it = by_node_.find(node);
  if (it == by_node_.end()) return {};
  return std::vector<PredAttachment>(it->second.begin(), it->second.end());
}

size_t PredicateManager::TotalAttachments() {
  MutexLock l(mu_);
  size_t n = 0;
  for (auto& [pid, lst] : by_node_) {
    (void)pid;
    n += lst.size();
  }
  return n;
}

}  // namespace gistcr
