#include "db/page_allocator.h"

#include <algorithm>

// Every PageGuard in this file latches an allocation-bitmap page, which
// ranks above alloc.mu (kAllocator < kBitmapLatch) in the lock hierarchy.
// gistcr-lint: page-latch-class(bitmap)

namespace gistcr {

namespace {

inline bool GetBit(const char* payload, uint32_t bit) {
  return (payload[bit / 8] >> (bit % 8)) & 1;
}
inline void SetBit(char* payload, uint32_t bit, bool v) {
  if (v) {
    payload[bit / 8] = static_cast<char>(payload[bit / 8] | (1 << (bit % 8)));
  } else {
    payload[bit / 8] =
        static_cast<char>(payload[bit / 8] & ~(1 << (bit % 8)));
  }
}

}  // namespace

Status PageAllocator::FormatFresh() {
  for (uint32_t i = 0; i < kNumBitmapPages; i++) {
    const PageId pid = kFirstBitmapPage + i;
    auto frame_or = pool_->NewPage(pid);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(pool_, frame_or.value());
    guard.WLatch();
    guard.view().Format(pid, PageType::kAllocMap);
    if (i == 0) {
      // Meta page + bitmap pages themselves are permanently allocated.
      char* payload = guard.view().payload();
      for (PageId p = 0; p < kFirstAllocatablePage; p++) {
        SetBit(payload, p, true);
      }
    }
    guard.frame()->MarkDirty(kInvalidLsn + 1);  // force checkpoint flush
  }
  return Status::OK();
}

StatusOr<PageId> PageAllocator::Allocate(Transaction* txn) {
  MutexLock l(mu_);
  if (hint_ < kFirstAllocatablePage || hint_ >= kMaxPages) {
    hint_ = kFirstAllocatablePage;
  }
  // Two passes: [hint_, kMaxPages) then [kFirstAllocatablePage, hint_).
  for (int pass = 0; pass < 2; pass++) {
    PageId target = pass == 0 ? hint_ : kFirstAllocatablePage;
    const PageId limit = pass == 0 ? kMaxPages : hint_;
    while (target < limit) {
      const PageId bitmap_pid = BitmapPageFor(target);
      auto frame_or = pool_->Fetch(bitmap_pid);
      GISTCR_RETURN_IF_ERROR(frame_or.status());
      PageGuard guard(pool_, frame_or.value());
      guard.WLatch();
      char* payload = guard.view().payload();
      const uint32_t bit_start = target % kBitsPerPage;
      const uint32_t span =
          static_cast<uint32_t>(std::min<uint64_t>(kBitsPerPage - bit_start,
                                                   limit - target));
      for (uint32_t i = 0; i < span; i++) {
        const uint32_t bit = bit_start + i;
        if (GetBit(payload, bit)) continue;
        const PageId found =
            (bitmap_pid - kFirstBitmapPage) * kBitsPerPage + bit;
        // Log Get-Page, then apply under the X latch we hold.
        LogRecord rec;
        rec.type = LogRecordType::kGetPage;
        PageAllocPayload pl;
        pl.target_page = found;
        pl.bitmap_page = bitmap_pid;
        pl.EncodeTo(&rec.payload);
        GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
        GISTCR_RETURN_IF_ERROR(ApplyBit(found, true, rec.lsn, &guard));
        hint_ = found + 1;
        return found;
      }
      target += span;
    }
  }
  return Status::NoSpace("page allocator exhausted");
}

Status PageAllocator::Free(Transaction* txn, PageId page_id) {
  GISTCR_CHECK(page_id >= kFirstAllocatablePage);
  const PageId bitmap_pid = BitmapPageFor(page_id);
  {
    auto frame_or = pool_->Fetch(bitmap_pid);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(pool_, frame_or.value());
    guard.WLatch();
    LogRecord rec;
    rec.type = LogRecordType::kFreePage;
    PageAllocPayload pl;
    pl.target_page = page_id;
    pl.bitmap_page = bitmap_pid;
    pl.EncodeTo(&rec.payload);
    GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &rec));
    GISTCR_RETURN_IF_ERROR(ApplyBit(page_id, false, rec.lsn, &guard));
  }
  // Take mu_ only after the bitmap latch is released: Allocate holds mu_
  // while it WLatches bitmap pages, so latch-then-mu_ here would invert the
  // order and deadlock against a concurrent allocation.
  MutexLock l(mu_);
  if (page_id < hint_) hint_ = page_id;
  return Status::OK();
}

Status PageAllocator::ApplyBit(PageId target, bool set_allocated, Lsn lsn,
                               PageGuard* g) {
  SetBit(g->view().payload(), target % kBitsPerPage, set_allocated);
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

StatusOr<bool> PageAllocator::IsAllocated(PageId page_id) {
  const PageId bitmap_pid = BitmapPageFor(page_id);
  auto frame_or = pool_->Fetch(bitmap_pid);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(pool_, frame_or.value());
  guard.RLatch();
  return static_cast<bool>(
      GetBit(guard.view().payload(), page_id % kBitsPerPage));
}

}  // namespace gistcr
