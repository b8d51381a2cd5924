#ifndef GISTCR_WAL_LOG_PAYLOADS_H_
#define GISTCR_WAL_LOG_PAYLOADS_H_

#include <string>
#include <vector>

#include "common/entry.h"
#include "common/types.h"
#include "util/coding.h"
#include "wal/log_record.h"

namespace gistcr {

/// Typed payloads for every log record in Table 1 plus the substrate
/// records. Each struct encodes to / decodes from the opaque
/// LogRecord::payload blob. Decode returns false on malformed input.

/// Redo-only (paper Table 1 row 1): new BP installed in the child node and
/// in the child's slot on the parent.
struct ParentEntryUpdatePayload {
  PageId child_page = kInvalidPageId;
  PageId parent_page = kInvalidPageId;
  uint64_t child_value = 0;  ///< Parent entry identified by child pointer.
  std::string new_bp;

  void EncodeTo(std::string* dst) const {
    PutFixed32(dst, child_page);
    PutFixed32(dst, parent_page);
    PutFixed64(dst, child_value);
    PutLengthPrefixed(dst, new_bp);
  }
  bool DecodeFrom(Slice s) {
    Decoder d(s);
    return d.GetFixed32(&child_page) && d.GetFixed32(&parent_page) &&
           d.GetFixed64(&child_value) && d.GetLengthPrefixed(&new_bp);
  }
};

/// Paper Table 1 row 2. Carries everything needed to redo both pages and to
/// undo the original page (the new page is reclaimed by Get-Page undo).
struct SplitPayload {
  PageId orig_page = kInvalidPageId;
  PageId new_page = kInvalidPageId;
  uint16_t level = 0;
  Nsn old_nsn = 0;  ///< NSN of orig before the split (inherited by new page).
  Nsn new_nsn = 0;  ///< NSN assigned to orig by the split.
  PageId old_rightlink = kInvalidPageId;  ///< Inherited by the new page.
  std::vector<IndexEntry> moved;          ///< Entries moved to the new page.
  std::string orig_bp_before;
  std::string orig_bp_after;
  std::string new_bp;

  void EncodeTo(std::string* dst) const {
    PutFixed32(dst, orig_page);
    PutFixed32(dst, new_page);
    PutFixed16(dst, level);
    PutFixed64(dst, old_nsn);
    PutFixed64(dst, new_nsn);
    PutFixed32(dst, old_rightlink);
    EncodeEntryList(dst, moved);
    PutLengthPrefixed(dst, orig_bp_before);
    PutLengthPrefixed(dst, orig_bp_after);
    PutLengthPrefixed(dst, new_bp);
  }
  bool DecodeFrom(Slice s) {
    Decoder d(s);
    return d.GetFixed32(&orig_page) && d.GetFixed32(&new_page) &&
           d.GetFixed16(&level) && d.GetFixed64(&old_nsn) &&
           d.GetFixed64(&new_nsn) && d.GetFixed32(&old_rightlink) &&
           DecodeEntryList(&d, &moved) &&
           d.GetLengthPrefixed(&orig_bp_before) &&
           d.GetLengthPrefixed(&orig_bp_after) && d.GetLengthPrefixed(&new_bp);
  }
};

/// Paper Table 1 row 3 (redo-only). Entries removed from a leaf because
/// their deleting transactions committed.
struct GarbageCollectionPayload {
  PageId page = kInvalidPageId;
  std::vector<IndexEntry> removed;

  void EncodeTo(std::string* dst) const {
    PutFixed32(dst, page);
    EncodeEntryList(dst, removed);
  }
  bool DecodeFrom(Slice s) {
    Decoder d(s);
    return d.GetFixed32(&page) && DecodeEntryList(&d, &removed);
  }
};

/// Rows 4-6 and 7-8 share one shape: a page and an entry. For internal
/// entries the entry's value (child pointer) identifies the slot; for leaf
/// entries (key, value=rid) identifies it. `nsn` is the node's NSN at the
/// time of a leaf operation — logical undo starts its rightlink traversal
/// from it (paper section 9.2).
struct EntryOpPayload {
  PageId page = kInvalidPageId;
  Nsn nsn = 0;
  IndexEntry entry;
  std::string old_bp;  ///< kInternalEntryUpdate only: previous predicate.

  void EncodeTo(std::string* dst) const {
    PutFixed32(dst, page);
    PutFixed64(dst, nsn);
    entry.EncodeTo(dst);
    PutLengthPrefixed(dst, old_bp);
  }
  bool DecodeFrom(Slice s) {
    Decoder d(s);
    return d.GetFixed32(&page) && d.GetFixed64(&nsn) &&
           entry.DecodeFrom(&d) && d.GetLengthPrefixed(&old_bp);
  }
};

/// Rows 9-10: page allocation state. The bit lives on an allocation bitmap
/// page; the page-LSN test applies to that bitmap page.
struct PageAllocPayload {
  PageId target_page = kInvalidPageId;
  PageId bitmap_page = kInvalidPageId;

  void EncodeTo(std::string* dst) const {
    PutFixed32(dst, target_page);
    PutFixed32(dst, bitmap_page);
  }
  bool DecodeFrom(Slice s) {
    Decoder d(s);
    return d.GetFixed32(&target_page) && d.GetFixed32(&bitmap_page);
  }
};

/// Node deletion: the left sibling's rightlink is redirected around the
/// victim node.
struct RightlinkUpdatePayload {
  PageId page = kInvalidPageId;
  PageId old_rightlink = kInvalidPageId;
  PageId new_rightlink = kInvalidPageId;

  void EncodeTo(std::string* dst) const {
    PutFixed32(dst, page);
    PutFixed32(dst, old_rightlink);
    PutFixed32(dst, new_rightlink);
  }
  bool DecodeFrom(Slice s) {
    Decoder d(s);
    return d.GetFixed32(&page) && d.GetFixed32(&old_rightlink) &&
           d.GetFixed32(&new_rightlink);
  }
};

/// Root growth (B-link style upward root split): a new root is created
/// holding entries for the old root and its fresh sibling, and the meta
/// page's root pointer moves up. One record covers both pages:
///   redo on meta page:  set root pointer to new_root;
///   redo on new_root:   format a node at new_root_level, insert
///                       root_entries, set root_bp;
///   undo on meta page:  restore old_root (the new root page itself is
///                       reclaimed by the preceding Get-Page's undo).
struct RootChangePayload {
  PageId meta_page = 0;
  uint32_t index_id = 0;
  PageId old_root = kInvalidPageId;
  PageId new_root = kInvalidPageId;
  uint16_t new_root_level = 0;
  std::vector<IndexEntry> root_entries;
  std::string root_bp;

  void EncodeTo(std::string* dst) const {
    PutFixed32(dst, meta_page);
    PutFixed32(dst, index_id);
    PutFixed32(dst, old_root);
    PutFixed32(dst, new_root);
    PutFixed16(dst, new_root_level);
    EncodeEntryList(dst, root_entries);
    PutLengthPrefixed(dst, root_bp);
  }
  bool DecodeFrom(Slice s) {
    Decoder d(s);
    return d.GetFixed32(&meta_page) && d.GetFixed32(&index_id) &&
           d.GetFixed32(&old_root) && d.GetFixed32(&new_root) &&
           d.GetFixed16(&new_root_level) &&
           DecodeEntryList(&d, &root_entries) &&
           d.GetLengthPrefixed(&root_bp);
  }
};

/// Heap data-store operations. Deletes are tombstone marks (undo unmarks).
struct HeapOpPayload {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;
  std::string record;  ///< kHeapInsert only.

  void EncodeTo(std::string* dst) const {
    PutFixed32(dst, page);
    PutFixed16(dst, slot);
    PutLengthPrefixed(dst, record);
  }
  bool DecodeFrom(Slice s) {
    Decoder d(s);
    return d.GetFixed32(&page) && d.GetFixed16(&slot) &&
           d.GetLengthPrefixed(&record);
  }
};

/// Compensation record: redoing the CLR re-applies the *undo* action of the
/// compensated record type. `override_page` carries the page where a
/// logical undo actually found the leaf entry (it may have migrated right
/// since the original operation).
struct ClrPayload {
  LogRecordType compensated_type = LogRecordType::kInvalid;
  PageId override_page = kInvalidPageId;
  std::string original;  ///< The compensated record's payload blob.

  void EncodeTo(std::string* dst) const {
    dst->push_back(static_cast<char>(compensated_type));
    PutFixed32(dst, override_page);
    PutLengthPrefixed(dst, original);
  }
  bool DecodeFrom(Slice s) {
    if (s.size() < 1) return false;
    compensated_type = static_cast<LogRecordType>(static_cast<uint8_t>(s[0]));
    Decoder d(Slice(s.data() + 1, s.size() - 1));
    return d.GetFixed32(&override_page) && d.GetLengthPrefixed(&original);
  }
};

/// Fuzzy checkpoint: what a restart from it needs. The active
/// transactions and dirty pages the checkpoint looks at decide only the
/// redo floor; the analysis scan up from the floor rebuilds the ATT.
struct CheckpointPayload {
  /// Where a restart from this checkpoint starts its one analysis scan,
  /// and the lowest log reclamation may keep (RecoveryManager::Checkpoint
  /// has the rule).
  Lsn redo_floor = kInvalidLsn;
  TxnId next_txn_id = 1;
  /// Dedicated-counter NSN mode: counter value at checkpoint time, so the
  /// counter is recoverable (the LSN mode needs nothing, section 10.1).
  Nsn nsn_counter = 0;

  void EncodeTo(std::string* dst) const {
    PutFixed64(dst, redo_floor);
    PutFixed64(dst, next_txn_id);
    PutFixed64(dst, nsn_counter);
  }
  bool DecodeFrom(Slice s) {
    Decoder d(s);
    return d.GetFixed64(&redo_floor) && d.GetFixed64(&next_txn_id) &&
           d.GetFixed64(&nsn_counter);
  }
};

}  // namespace gistcr

#endif  // GISTCR_WAL_LOG_PAYLOADS_H_
