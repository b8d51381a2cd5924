#include "gist/gist.h"
#include "gist/gist_apply.h"
#include "gist/tree_latch.h"
#include "storage/fault_injector.h"

namespace gistcr {

using internal::TreeLatch;

// DELETE (paper section 7), run by Write after the shared prologue: locate
// the (key, rid) leaf entry — a search with an equality predicate, run
// through the one Figure 3 traversal — and mark it logically deleted. The
// entry stays physically present (and the parent BPs untouched) so
// concurrent Degree-3 searches still reach it and block on the record's X
// lock; garbage collection removes it after this transaction terminates.
Status Gist::DeleteCore(Transaction* txn, Slice key, Rid rid, uint64_t op_id,
                        TreeLatch* tree) {
  const std::string eq = ext_->EqQuery(key);
  EntryTarget target{key, rid.Pack()};
  const ReadSpec spec{eq, PredKind::kSearch, /*hybrid_attach=*/false, op_id,
                      &target};
  GISTCR_RETURN_IF_ERROR(Traverse(txn, spec, tree, /*out=*/nullptr));
  if (target.found.page == kInvalidPageId) {
    return Status::NotFound("key/rid not in index");
  }

  // X-latch the leaf that holds the entry now: a split since the visit
  // may have moved it right (section 9.2).
  PageGuard leaf;
  GISTCR_RETURN_IF_ERROR(LatchEntry(target.found.page, target.found.nsn, key,
                                    rid.Pack(), &leaf));
  // Mark-Leaf-Entry, logged in the transaction; undo unmarks, logically if
  // the entry migrated right meanwhile. The entry is still live: marking
  // it takes the record's X lock, which this transaction holds.
  LogRecord rec;
  rec.type = LogRecordType::kMarkLeafEntry;
  EntryOpPayload pl;
  pl.page = leaf.page_id();
  pl.nsn = NodeView(leaf.view().data()).nsn();
  pl.entry.key = key.ToString();
  pl.entry.value = rid.Pack();
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &rec));
  GISTCR_RETURN_IF_ERROR(ApplyMarkLeafEntry(pl, txn->id(), rec.lsn, &leaf));
  // Version-store shadow of the mark (DESIGN.md section 14): snapshots
  // begun before this delete's commit stamp keep seeing the entry.
  ctx_.mvcc->NoteDelete(rid.Pack(), txn);
  // Mark applied and logged inside a still-running transaction.
  GISTCR_CRASHPOINT("delete.after_mark");
  leaf.Drop();
  SignalUnlock(txn, target.found.page);
  return Status::OK();
}

}  // namespace gistcr
