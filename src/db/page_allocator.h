#ifndef GISTCR_DB_PAGE_ALLOCATOR_H_
#define GISTCR_DB_PAGE_ALLOCATOR_H_


#include "common/mutex.h"
#include "storage/buffer_pool.h"
#include "txn/transaction_manager.h"
#include "util/status.h"
#include "wal/log_payloads.h"

namespace gistcr {

/// Recoverable page allocation. Allocation state is a bitmap spread over
/// kNumBitmapPages fixed pages (ids 1..kNumBitmapPages); every allocate /
/// free writes a Get-Page / Free-Page record (paper Table 1 rows 9-10)
/// against the owning bitmap page, so page-oriented redo and undo
/// reconstruct the allocation state exactly.
///
/// Allocate/Free are always called from inside a nested top action of the
/// surrounding structure modification (node split, root growth, node
/// deletion), matching the paper's recovery protocol.
class PageAllocator {
 public:
  static constexpr PageId kFirstBitmapPage = 1;
  static constexpr uint32_t kNumBitmapPages = 4;
  static constexpr uint32_t kBitsPerPage =
      (kPageSize - PageView::kHeaderSize) * 8;
  static constexpr PageId kFirstAllocatablePage =
      kFirstBitmapPage + kNumBitmapPages;  // 5
  static constexpr PageId kMaxPages = kNumBitmapPages * kBitsPerPage;

  PageAllocator(BufferPool* pool, TransactionManager* txns)
      : pool_(pool), txns_(txns) {}
  GISTCR_DISALLOW_COPY_AND_ASSIGN(PageAllocator);

  /// Formats the bitmap pages for a fresh database and marks the meta and
  /// bitmap pages allocated. Unlogged (database creation precedes the
  /// first log record; the formatted pages are flushed before use).
  Status FormatFresh();

  /// Allocates a page on behalf of \p txn, logging Get-Page.
  StatusOr<PageId> Allocate(Transaction* txn);

  /// Frees \p page_id on behalf of \p txn, logging Free-Page.
  Status Free(Transaction* txn, PageId page_id);

  /// The page effect of Get-Page (\p set_allocated) and Free-Page, and of
  /// each one's undo: sets \p target's bit on the bitmap page \p g holds
  /// X-latched and stamps \p lsn. Allocate and Free call it after their
  /// append, redo after the page-LSN test.
  static Status ApplyBit(PageId target, bool set_allocated, Lsn lsn,
                         PageGuard* g);

  /// True if the bit for \p page_id is set (tests).
  StatusOr<bool> IsAllocated(PageId page_id);

  static PageId BitmapPageFor(PageId target) {
    return kFirstBitmapPage + target / kBitsPerPage;
  }

 private:
  BufferPool* pool_;
  TransactionManager* txns_;
  Mutex mu_{GISTCR_LOCK_RANK(kAllocator, "alloc.mu")};  ///< Serializes the free-bit search.
  PageId hint_ GISTCR_GUARDED_BY(mu_) = kFirstAllocatablePage;
};

}  // namespace gistcr

#endif  // GISTCR_DB_PAGE_ALLOCATOR_H_
