#include "gist/gist.h"
#include "gist/gist_apply.h"
#include "gist/tree_latch.h"
#include "obs/op_context.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

using internal::TreeLatch;

// DELETE (paper section 7): locate the (key, rid) leaf entry — a search
// with an equality predicate — and mark it logically deleted. The entry
// stays physically present (and the parent BPs untouched) so concurrent
// Degree-3 searches still reach it and block on the record's X lock;
// garbage collection removes it after this transaction terminates.
Status Gist::Delete(Transaction* txn, Slice key, Rid rid) {
  GISTCR_TRACE_SCOPE("gist.delete");
  obs::TreeScope tree_scope;
  stats_.deletes.Add(1);
  const uint64_t op_id = txn->NextOpId();

  // Two-phase X lock on the data record before touching the tree.
  GISTCR_RETURN_IF_ERROR(
      ctx_.locks->Lock(txn->id(), LockName{LockSpace::kRecord, rid.Pack()},
                       LockMode::kExclusive, /*wait=*/true));

  // Pure predicate locking ablation: deletes register their key too
  // (section 4.2) and wait out conflicting scans up front.
  GISTCR_RETURN_IF_ERROR(
      RegisterGlobalPredicate(txn, op_id, PredKind::kInsert, key));

  TreeLatch tree(&tree_latch_, /*exclusive=*/true,
                 opts_.protocol == ConcurrencyProtocol::kCoarse);

  const std::string eq = ext_->EqQuery(key);
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  const PageId root = root_or.value();
  if (root == kInvalidPageId) return Status::NotFound("index has no root");

  std::vector<StackEntry> stack;
  GISTCR_RETURN_IF_ERROR(SignalLock(txn, root));
  stack.push_back({root, ctx_.nsn->Current()});

  auto release_stack = [&]() {
    for (const StackEntry& s : stack) SignalUnlock(txn, s.page);
    stack.clear();
  };

  while (!stack.empty()) {
    const StackEntry e = stack.back();
    stack.pop_back();

    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchLatched(e.page, /*exclusive=*/false, &g));
    {
      NodeView probe(g.view().data());
      if (probe.is_leaf()) {
        // Need the X latch to mark; re-latch (split compensation below).
        g.Unlatch();
        g.WLatch();
      }
    }
    NodeView node(g.view().data());
    if (LinkProtocol() && node.nsn() > e.nsn &&
        node.rightlink() != kInvalidPageId) {
      GISTCR_RETURN_IF_ERROR(SignalLock(txn, node.rightlink()));
      stack.push_back({node.rightlink(), e.nsn});
      stats_.rightlink_follows.Add(1);
      obs::BumpRestarts();
    }

    if (!node.is_leaf()) {
      const Nsn cur = ctx_.nsn->Current();
      for (uint16_t i = 0; i < node.count(); i++) {
        if (!ext_->Consistent(node.entry_key(i), eq)) continue;
        const PageId child = static_cast<PageId>(node.entry_value(i));
        GISTCR_RETURN_IF_ERROR(SignalLock(txn, child));
        stack.push_back({child, cur});
      }
      g.Drop();
      SignalUnlock(txn, e.page);
      continue;
    }

    const int idx = node.FindByKeyValue(key, rid.Pack());
    if (idx >= 0 && node.entry_del_txn(static_cast<uint16_t>(idx)) ==
                        kInvalidTxnId) {
      // Found live: mark it (Mark-Leaf-Entry, logged in the transaction;
      // undo unmarks, logically if the entry migrated right meanwhile).
      LogRecord rec;
      rec.type = LogRecordType::kMarkLeafEntry;
      EntryOpPayload pl;
      pl.page = e.page;
      pl.nsn = node.nsn();
      pl.entry = node.GetEntry(static_cast<uint16_t>(idx));
      pl.EncodeTo(&rec.payload);
      GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &rec));
      GISTCR_RETURN_IF_ERROR(ApplyMarkLeafEntry(pl, txn->id(), rec.lsn, &g));
      // Version-store shadow of the mark (DESIGN.md section 14): snapshots
      // begun before this delete's commit stamp keep seeing the entry.
      ctx_.mvcc->NoteDelete(rid.Pack(), txn->id());
      // Mark applied and logged inside a still-running transaction.
      GISTCR_CRASHPOINT("delete.after_mark");
      g.Drop();
      SignalUnlock(txn, e.page);
      release_stack();
      return Status::OK();
    }
    g.Drop();
    SignalUnlock(txn, e.page);
  }
  return Status::NotFound("key/rid not in index");
}

}  // namespace gistcr
