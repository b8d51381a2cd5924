#include "db/data_store.h"

#include "gist/gist_apply.h"

// Every PageGuard in this file latches a heap-chain page (kHeapLatch,
// coupling-allowed for the tail hand-over during chain growth).
// gistcr-lint: page-latch-class(heap)

namespace gistcr {

StatusOr<PageId> DataStore::CreateFresh(PageId first_page) {
  auto frame_or = pool_->NewPage(first_page);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.WLatch();
  HeapPageView(guard.view().data()).Init(first_page);
  guard.frame()->MarkDirty(kInvalidLsn + 1);
  head_ = tail_ = first_page;
  return first_page;
}

Status DataStore::Open(PageId head, PageId tail_hint) {
  head_ = head;
  if (tail_hint != kInvalidPageId) {
    // Instant restart: analysis already followed the chain's
    // Rightlink-Update records, so trust its tail and touch no pages. A
    // stale-but-on-chain hint would self-heal (Insert grows past a full
    // page), but the analysis accounts for every link in the recovered
    // window, so the hint is exact.
    tail_ = tail_hint;
    return Status::OK();
  }
  PageId cur = head;
  PageId last = head;
  while (cur != kInvalidPageId) {
    auto frame_or = pool_->Fetch(cur);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(pool_, frame_or.value());
    guard.RLatch();
    HeapPageView hv(guard.view().data());
    last = cur;
    cur = hv.IsFormatted() ? hv.next() : kInvalidPageId;
  }
  tail_ = last;
  return Status::OK();
}

Status DataStore::GrowChain(Transaction* txn) {
  // Nested top action: allocate + link are committed atomically and survive
  // a later abort of the surrounding transaction.
  const Lsn nta_begin = txns_->NtaBegin(txn);
  auto pid_or = alloc_->Allocate(txn);
  GISTCR_RETURN_IF_ERROR(pid_or.status());
  const PageId new_pid = pid_or.value();

  auto old_tail_or = pool_->Fetch(tail_);
  GISTCR_RETURN_IF_ERROR(old_tail_or.status());
  PageGuard old_guard(pool_, old_tail_or.value());
  old_guard.WLatch();

  LogRecord rec;
  rec.type = LogRecordType::kRightlinkUpdate;
  RightlinkUpdatePayload pl;
  pl.page = tail_;
  pl.old_rightlink = kInvalidPageId;
  pl.new_rightlink = new_pid;
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
  GISTCR_RETURN_IF_ERROR(ApplyRightlinkUpdate(pl, rec.lsn, &old_guard));
  old_guard.Drop();

  // Format the new tail in memory; redo reformats lazily if needed.
  auto frame_or = pool_->NewPage(new_pid);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.WLatch();
  HeapPageView(guard.view().data()).Init(new_pid);
  guard.frame()->MarkDirty(rec.lsn);
  guard.Drop();

  GISTCR_RETURN_IF_ERROR(txns_->NtaEnd(txn, nta_begin));
  tail_ = new_pid;
  return Status::OK();
}

StatusOr<Rid> DataStore::Insert(Transaction* txn, Slice record) {
  if (record.size() > kPageSize / 4) {
    return Status::InvalidArgument("record too large");
  }
  MutexLock l(mu_);
  for (;;) {
    auto frame_or = pool_->Fetch(tail_);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(pool_, frame_or.value());
    guard.WLatch();
    HeapPageView hv(guard.view().data());
    if (!hv.IsFormatted()) {
      // Chain was grown but the fresh tail never reached disk formatted
      // (crash between link and first use); format it now.
      hv.Init(tail_);
    }
    if (!hv.HasSpaceFor(record.size())) {
      guard.Drop();
      GISTCR_RETURN_IF_ERROR(GrowChain(txn));
      continue;
    }
    const uint16_t slot = hv.count();
    LogRecord rec;
    rec.type = LogRecordType::kHeapInsert;
    HeapOpPayload pl;
    pl.page = tail_;
    pl.slot = slot;
    pl.record = record.ToString();
    pl.EncodeTo(&rec.payload);
    GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
    GISTCR_RETURN_IF_ERROR(ApplyInsert(pl, rec.lsn, &guard));
    Rid rid;
    rid.page_id = tail_;
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
  // A grown tail is formatted unlogged; redo formats it on first use.
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
