// Negative fixture for gistcr_lint rule `page-lsn-outside-apply`: a
// forward path that stamps the page LSN itself instead of calling the
// record's applier. Its copy of the page effect can drift from the one
// redo repeats (the applier), and nothing but a crash would show it.
//
// Not compiled; consumed by `gistcr_lint.py --self-test tests/lint`.

#include "gist/gist_apply.h"
#include "gist/node.h"

namespace gistcr {

Status ApplyAddLeafEntry(const EntryOpPayload& pl, Lsn lsn, PageGuard* g) {
  GISTCR_RETURN_IF_ERROR(NodeView(g->view().data()).InsertEntry(pl.entry));
  g->view().set_page_lsn(lsn);  // fine: inside the record's applier
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status InsertLeafEntry(TransactionManager* txns, Transaction* txn,
                       PageGuard* leaf, const EntryOpPayload& pl) {
  LogRecord rec;
  rec.type = LogRecordType::kAddLeafEntry;
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(txns->AppendTxnLog(txn, &rec));
  GISTCR_RETURN_IF_ERROR(NodeView(leaf->view().data()).InsertEntry(pl.entry));
  // VIOLATION: the forward path's own copy of Add-Leaf-Entry's effect.
  leaf->view().set_page_lsn(rec.lsn);
  leaf->frame()->MarkDirty(rec.lsn);
  return Status::OK();
}

}  // namespace gistcr
