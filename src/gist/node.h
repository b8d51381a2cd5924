#ifndef GISTCR_GIST_NODE_H_
#define GISTCR_GIST_NODE_H_

#include <string>
#include <vector>

#include "common/entry.h"
#include "common/types.h"
#include "storage/page.h"
#include "util/slice.h"
#include "util/status.h"

namespace gistcr {

/// On-page layout of a GiST node (paper sections 2-3). After the common
/// page header:
///
///   node header (24 bytes):
///     [0..7]   nsn        - node sequence number (split detection)
///     [8..11]  rightlink  - right sibling from splits (kInvalidPageId: none)
///     [12..13] level      - 0 = leaf
///     [14..15] slot_count
///     [16..17] heap_begin - page offset of the low end of the entry heap
///     [18..19] bp_off     - page offset of this node's own bounding pred
///     [20..21] bp_len
///     [22..23] reserved
///   slot array (4 bytes/slot, grows up):  off u16 | len u16
///   free space
///   entry heap (grows down from page end):
///     entry = key_len u16 | key bytes | value u64 | del_txn u64
///
/// `value` is the child PageId on internal nodes and a packed Rid on
/// leaves. `del_txn` is the logical-delete mark (paper section 7):
/// kInvalidTxnId when live. Entries are unordered (the GiST imposes no key
/// order); specialized intra-node layouts are an extension-level
/// optimization we forgo (linear scans over <=few hundred entries).
///
/// NodeView is a non-owning accessor; all mutation requires the caller to
/// hold the frame's X latch.
class NodeView {
 public:
  static constexpr uint32_t kNodeHeaderOffset = PageView::kHeaderSize;  // 24
  static constexpr uint32_t kNodeHeaderSize = 24;
  static constexpr uint32_t kSlotArrayOffset =
      kNodeHeaderOffset + kNodeHeaderSize;  // 48
  static constexpr uint32_t kSlotSize = 4;
  static constexpr uint32_t kEntryOverhead = 2 + 8 + 8;

  explicit NodeView(char* page_data) : d_(page_data) {}

  /// Formats a fresh GiST node on the page.
  void Init(PageId self, uint16_t level);

  Nsn nsn() const { return DecodeFixed64(d_ + kNodeHeaderOffset); }
  void set_nsn(Nsn n) { EncodeFixed64(d_ + kNodeHeaderOffset, n); }

  PageId rightlink() const { return DecodeFixed32(d_ + kNodeHeaderOffset + 8); }
  void set_rightlink(PageId p) { EncodeFixed32(d_ + kNodeHeaderOffset + 8, p); }

  /// Writes the split-detection pair together, as a split installs it
  /// (paper section 10.1) and its undo restores it.
  void SetLinks(Nsn nsn, PageId rightlink) {
    set_nsn(nsn);
    set_rightlink(rightlink);
  }
  /// Points the rightlink at \p next if it points at \p expected; false
  /// (and no change) otherwise.
  bool SwapRightlink(PageId expected, PageId next) {
    if (rightlink() != expected) return false;
    set_rightlink(next);
    return true;
  }

  uint16_t level() const { return DecodeFixed16(d_ + kNodeHeaderOffset + 12); }
  bool is_leaf() const { return level() == 0; }

  uint16_t count() const { return DecodeFixed16(d_ + kNodeHeaderOffset + 14); }

  /// This node's own bounding predicate (empty for a brand-new node).
  Slice bp() const;
  /// Replaces the node's BP, relocating it in the heap if it grew.
  Status SetBp(Slice bp);

  Slice entry_key(uint16_t i) const;
  uint64_t entry_value(uint16_t i) const;
  TxnId entry_del_txn(uint16_t i) const;
  void set_entry_del_txn(uint16_t i, TxnId txn);
  IndexEntry GetEntry(uint16_t i) const;

  /// All entries in slot order. \p include_deleted keeps logically deleted
  /// ones (needed everywhere BPs are recomputed: deleted entries must stay
  /// reachable until garbage collected, paper section 7).
  std::vector<IndexEntry> GetAllEntries(bool include_deleted = true) const;

  /// Appends an entry. Fails with kNoSpace when it does not fit even after
  /// compaction.
  Status InsertEntry(const IndexEntry& e);

  /// Removes slot \p i (heap space reclaimed on next compaction).
  void RemoveEntry(uint16_t i);

  /// Replaces the key/predicate of entry \p i (internal BP update).
  Status SetEntryKey(uint16_t i, Slice new_key);

  /// Index of the first entry with this value (child pointer / rid), or -1.
  int FindByValue(uint64_t value) const;
  /// Index of the first entry matching key bytes and value, or -1.
  int FindByKeyValue(Slice key, uint64_t value) const;

  /// Bytes available for a new entry without compaction.
  uint32_t ContiguousFree() const;
  /// Bytes available after compaction (live bytes accounting).
  uint32_t TotalFree() const;
  bool HasSpaceFor(const IndexEntry& e) const {
    return TotalFree() >= EntrySize(e) + kSlotSize;
  }

  /// Rewrites the heap tightly (called internally when needed).
  void Compact();

  static uint32_t EntrySize(const IndexEntry& e) {
    return kEntryOverhead + static_cast<uint32_t>(e.key.size());
  }

  /// Largest key that is guaranteed to fit on an empty node.
  static constexpr uint32_t kMaxKeySize = 1024;

 private:
  uint16_t heap_begin() const {
    return DecodeFixed16(d_ + kNodeHeaderOffset + 16);
  }
  void set_heap_begin(uint16_t v) {
    EncodeFixed16(d_ + kNodeHeaderOffset + 16, v);
  }
  uint16_t bp_off() const { return DecodeFixed16(d_ + kNodeHeaderOffset + 18); }
  uint16_t bp_len() const { return DecodeFixed16(d_ + kNodeHeaderOffset + 20); }
  void set_bp(uint16_t off, uint16_t len) {
    EncodeFixed16(d_ + kNodeHeaderOffset + 18, off);
    EncodeFixed16(d_ + kNodeHeaderOffset + 20, len);
  }
  void set_count(uint16_t c) { EncodeFixed16(d_ + kNodeHeaderOffset + 14, c); }

  uint16_t slot_off(uint16_t i) const {
    return DecodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize);
  }
  uint16_t slot_len(uint16_t i) const {
    return DecodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize + 2);
  }
  void set_slot(uint16_t i, uint16_t off, uint16_t len) {
    EncodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize, off);
    EncodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize + 2, len);
  }

  /// Allocates \p len bytes in the heap, compacting if necessary.
  /// Returns the page offset, or 0 if it cannot fit.
  uint16_t AllocHeap(uint16_t len);

  char* d_;
};

}  // namespace gistcr

#endif  // GISTCR_GIST_NODE_H_
