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
///
/// A record is reached only through its Rid, so heap pages are not linked
/// to each other. The store appends to one insert page, kept in memory;
/// when it has none (after Create or Open) or the page is full, it
/// allocates a fresh one.
class DataStore {
 public:
  DataStore(BufferPool* pool, TransactionManager* txns, PageAllocator* alloc)
      : pool_(pool), txns_(txns), alloc_(alloc) {}
  GISTCR_DISALLOW_COPY_AND_ASSIGN(DataStore);

  /// Appends a record on behalf of \p txn. Does not lock the Rid: the
  /// index operation's write prologue (Gist::Write) X-locks it before it
  /// touches the tree (paper section 6 step 1).
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

 private:
  /// Allocates and formats a fresh insert page. The allocation is a
  /// nested top action (Get-Page + NTA-End): other transactions' records
  /// land on the page too, so it stays allocated if \p txn aborts. The
  /// format is unlogged; redo formats the page on its first Heap-Insert.
  Status NewInsertPage(Transaction* txn) GISTCR_REQUIRES(mu_);

  BufferPool* pool_;
  TransactionManager* txns_;
  PageAllocator* alloc_;

  Mutex mu_{GISTCR_LOCK_RANK(kDataStore, "data.mu")};  ///< Serializes inserts.
  PageId insert_page_ GISTCR_GUARDED_BY(mu_) = kInvalidPageId;
};

}  // namespace gistcr

#endif  // GISTCR_DB_DATA_STORE_H_
