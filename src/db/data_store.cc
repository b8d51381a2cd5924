#include "db/data_store.h"

// Every PageGuard in this file latches one heap page at a time
// (kHeapLatch).
// gistcr-lint: page-latch-class(heap)

namespace gistcr {

Status DataStore::NewInsertPage(Transaction* txn) {
  const Lsn nta_begin = txns_->NtaBegin(txn);
  auto pid_or = alloc_->Allocate(txn);
  GISTCR_RETURN_IF_ERROR(pid_or.status());
  const PageId pid = pid_or.value();
  auto frame_or = pool_->NewPage(pid);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.WLatch();
  HeapPageView(guard.view().data()).Init(pid);
  guard.frame()->MarkDirty(txn->last_lsn());
  guard.Drop();
  GISTCR_RETURN_IF_ERROR(txns_->NtaEnd(txn, nta_begin));
  insert_page_ = pid;
  return Status::OK();
}

StatusOr<Rid> DataStore::Insert(Transaction* txn, Slice record) {
  if (record.size() > kPageSize / 4) {
    return Status::InvalidArgument("record too large");
  }
  MutexLock l(mu_);
  for (;;) {
    if (insert_page_ == kInvalidPageId) {
      GISTCR_RETURN_IF_ERROR(NewInsertPage(txn));
    }
    auto frame_or = pool_->Fetch(insert_page_);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(pool_, frame_or.value());
    guard.WLatch();
    HeapPageView hv(guard.view().data());
    if (!hv.HasSpaceFor(record.size())) {
      insert_page_ = kInvalidPageId;
      continue;
    }
    const uint16_t slot = hv.count();
    LogRecord rec;
    rec.type = LogRecordType::kHeapInsert;
    HeapOpPayload pl;
    pl.page = insert_page_;
    pl.slot = slot;
    pl.record = record.ToString();
    pl.EncodeTo(&rec.payload);
    GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
    GISTCR_RETURN_IF_ERROR(ApplyInsert(pl, rec.lsn, &guard));
    Rid rid;
    rid.page_id = insert_page_;
    rid.slot = slot;
    return rid;
  }
}

Status DataStore::Delete(Transaction* txn, Rid rid) {
  auto frame_or = pool_->Fetch(rid.page_id);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.WLatch();
  HeapPageView hv(guard.view().data());
  if (!hv.IsFormatted() || !hv.SlotExists(rid.slot)) {
    return Status::NotFound("heap record");
  }
  if (hv.IsDeleted(rid.slot)) {
    return Status::NotFound("heap record already deleted");
  }
  LogRecord rec;
  rec.type = LogRecordType::kHeapDelete;
  HeapOpPayload pl;
  pl.page = rid.page_id;
  pl.slot = rid.slot;
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
  return ApplyDeleteMark(pl, true, rec.lsn, &guard);
}

StatusOr<std::string> DataStore::Read(Rid rid) {
  auto frame_or = pool_->Fetch(rid.page_id);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.RLatch();
  HeapPageView hv(guard.view().data());
  if (!hv.IsFormatted() || !hv.SlotExists(rid.slot) ||
      hv.IsDeleted(rid.slot)) {
    return Status::NotFound("heap record");
  }
  return hv.Record(rid.slot).ToString();
}

Status DataStore::ApplyInsert(const HeapOpPayload& pl, Lsn lsn,
                              PageGuard* g) {
  HeapPageView hv(g->view().data());
  // An insert page is formatted unlogged; redo formats it on first use.
  if (!hv.IsFormatted()) hv.Init(pl.page);
  hv.AppendAt(pl.slot, pl.record);
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status DataStore::ApplyDeleteMark(const HeapOpPayload& pl, bool deleted,
                                  Lsn lsn, PageGuard* g) {
  HeapPageView hv(g->view().data());
  if (!hv.IsFormatted() || !hv.SlotExists(pl.slot)) {
    return Status::Corruption("heap delete mark: missing slot");
  }
  hv.SetDeleted(pl.slot, deleted);
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

}  // namespace gistcr
