#ifndef GISTCR_GIST_GIST_APPLY_H_
#define GISTCR_GIST_GIST_APPLY_H_

#include "storage/buffer_pool.h"
#include "util/status.h"
#include "wal/log_payloads.h"

namespace gistcr {

/// The page effect of each GiST and meta-page log record (paper Table 1),
/// written once. The forward path appends its record, then calls the
/// applier under the X latch it already holds; redo calls the same applier
/// after the page-LSN test (RecoveryManager::ReplayPagePlan); live
/// rollback, restart undo and CLR redo call the ApplyUndo* ones. An
/// applier changes only the page \p g holds — for a two-page record,
/// whichever of its pages that is — and stamps \p lsn as the page LSN and
/// the frame's dirty mark. Heap and bitmap pages have theirs beside their
/// owners (DataStore::ApplyInsert / ApplyDeleteMark, PageAllocator::
/// ApplyBit).

/// Split: the original node drops the moved entries, shrinks its BP and
/// takes the split's NSN and a rightlink to the new node, which is built
/// from the moved entries with the original's old NSN and rightlink
/// (Figure 2).
Status ApplySplit(const SplitPayload& pl, Lsn lsn, PageGuard* g);
/// Root-Change: builds the new root, or points the meta page at it.
Status ApplyRootChange(const RootChangePayload& pl, Lsn lsn, PageGuard* g);
/// Parent-Entry-Update: the child's BP, or its entry in the parent.
Status ApplyParentEntryUpdate(const ParentEntryUpdatePayload& pl, Lsn lsn,
                              PageGuard* g);
/// Internal-Entry-Add / -Update / -Delete, by \p type.
Status ApplyInternalEntry(LogRecordType type, const EntryOpPayload& pl,
                          Lsn lsn, PageGuard* g);
Status ApplyAddLeafEntry(const EntryOpPayload& pl, Lsn lsn, PageGuard* g);
/// Mark-Leaf-Entry: sets the entry's delete mark to \p del_txn (its undo
/// clears it with kInvalidTxnId).
Status ApplyMarkLeafEntry(const EntryOpPayload& pl, TxnId del_txn, Lsn lsn,
                          PageGuard* g);
Status ApplyGarbageCollection(const GarbageCollectionPayload& pl, Lsn lsn,
                              PageGuard* g);
/// Rightlink-Update, on a GiST node (node deletion); Corruption on any
/// other page.
Status ApplyRightlinkUpdate(const RightlinkUpdatePayload& pl, Lsn lsn,
                            PageGuard* g);

/// Undo of a split, on the original node: the moved entries, the old BP
/// and the old NSN and rightlink come back. The new node needs nothing
/// (Table 1): the undo of its Get-Page frees it.
Status ApplyUndoSplit(const SplitPayload& pl, Lsn lsn, PageGuard* g);
/// Undo of a Root-Change, on the meta page: the old root comes back.
Status ApplyUndoRootChange(const RootChangePayload& pl, Lsn lsn,
                           PageGuard* g);
Status ApplyUndoInternalEntry(LogRecordType type, EntryOpPayload pl, Lsn lsn,
                              PageGuard* g);
Status ApplyUndoAddLeafEntry(const EntryOpPayload& pl, Lsn lsn, PageGuard* g);
/// Retracts only the link the record installed: a later update of the
/// same link stays. Corruption on any page but a GiST node.
Status ApplyUndoRightlinkUpdate(const RightlinkUpdatePayload& pl, Lsn lsn,
                                PageGuard* g);

/// The one leaf-entry chase (paper section 9.2), for every operation that
/// re-finds a leaf entry it saw or logged earlier: insert re-positioning
/// after a predicate wait, Delete's mark, and logical undo. X-latches
/// into \p out the leaf holding (\p key, \p value), starting at \p start
/// and following rightlinks only while a node's NSN exceeds \p nsn — the
/// splits since the entry was seen there, which are the only way it can
/// have moved. Adds the rightlinks followed to *\p hops. Corruption if
/// the chain ends without the entry.
Status LatchEntryLeaf(BufferPool* pool, PageId start, Nsn nsn, Slice key,
                      uint64_t value, PageGuard* out, uint32_t* hops);

}  // namespace gistcr

#endif  // GISTCR_GIST_GIST_APPLY_H_
