#ifndef GISTCR_DB_DATA_STORE_H_
#define GISTCR_DB_DATA_STORE_H_

#include <string>

#include "common/mutex.h"
#include "db/heap_page.h"
#include "db/page_allocator.h"
#include "storage/buffer_pool.h"
#include "txn/transaction_manager.h"
#include "util/status.h"
#include "wal/log_payloads.h"

namespace gistcr {

/// Heap file of data records. The GiST is a secondary index: leaf entries
/// carry Rids pointing here, and the hybrid locking protocol two-phase
/// locks these Rids (paper section 4.3). Inserts append; deletes set a
/// tombstone (undo clears it; undo of an insert sets it) — both logged as
/// Heap-Insert / Heap-Delete records with page-oriented redo/undo.
class DataStore {
 public:
  DataStore(BufferPool* pool, TransactionManager* txns, PageAllocator* alloc)
      : pool_(pool), txns_(txns), alloc_(alloc) {}
  GISTCR_DISALLOW_COPY_AND_ASSIGN(DataStore);

  /// mkfs: allocates and formats the first heap page. Returns its id for
  /// the meta page (unlogged; runs before the first log record).
  StatusOr<PageId> CreateFresh(PageId first_page);

  /// Opens an existing store: walks the chain from \p head to find the
  /// tail. Instant restart passes \p tail_hint (the tail computed by log
  /// analysis) to skip the walk entirely — fetching every chain page here
  /// would force their inline redo and defeat the instant open.
  Status Open(PageId head, PageId tail_hint = kInvalidPageId);

  /// Appends a record on behalf of \p txn. Does not lock the Rid (the
  /// Database facade X-locks it *before* initiating the index insertion,
  /// paper section 6 step 1).
  StatusOr<Rid> Insert(Transaction* txn, Slice record);

  /// Tombstones the record.
  Status Delete(Transaction* txn, Rid rid);

  /// Reads a record; NotFound for tombstoned or never-written slots.
  StatusOr<std::string> Read(Rid rid);

  /// The page effect of Heap-Insert, on the heap page \p g holds
  /// X-latched; stamps \p lsn. Insert calls it after its append, redo
  /// after the page-LSN test.
  static Status ApplyInsert(const HeapOpPayload& pl, Lsn lsn, PageGuard* g);
  /// The page effect of Heap-Delete (\p deleted) and of each heap
  /// record's undo: sets or clears the slot's tombstone.
  static Status ApplyDeleteMark(const HeapOpPayload& pl, bool deleted,
                                Lsn lsn, PageGuard* g);

  PageId head() const { return head_; }
  /// Current chain tail (checkpoints persist it as the instant-restart
  /// tail hint).
  PageId tail() {
    MutexLock l(mu_);
    return tail_;
  }

 private:
  /// Extends the chain with a freshly allocated page (runs as a nested top
  /// action: Get-Page + Rightlink-Update + NTA-End).
  Status GrowChain(Transaction* txn) GISTCR_REQUIRES(mu_);

  BufferPool* pool_;
  TransactionManager* txns_;
  PageAllocator* alloc_;

  Mutex mu_{GISTCR_LOCK_RANK(kDataStore, "data.mu")};  ///< Serializes tail maintenance.
  /// Set once by CreateFresh/Open before concurrent use; read-only after.
  PageId head_ = kInvalidPageId;
  PageId tail_ GISTCR_GUARDED_BY(mu_) = kInvalidPageId;
};

}  // namespace gistcr

#endif  // GISTCR_DB_DATA_STORE_H_
