#ifndef GISTCR_DB_HEAP_PAGE_H_
#define GISTCR_DB_HEAP_PAGE_H_

#include "common/types.h"
#include "storage/page.h"
#include "util/coding.h"
#include "util/macros.h"
#include "util/slice.h"

namespace gistcr {

/// Heap data-store page layout (after the common page header):
///   [0..1] slot_count
///   [2..3] heap_begin (page offset of the low end of the record heap)
///   [4..7] unused
///   slot array (6 bytes/slot): off u16 | len u16 | flags u16
///   record heap grows down from the page end.
/// Records are immutable; deletes set the kDeletedFlag tombstone (undo of a
/// delete simply clears it, undo of an insert sets it).
class HeapPageView {
 public:
  static constexpr uint32_t kHeapHeaderOffset = PageView::kHeaderSize;
  static constexpr uint32_t kHeapHeaderSize = 8;
  static constexpr uint32_t kSlotArrayOffset =
      kHeapHeaderOffset + kHeapHeaderSize;  // 24
  static constexpr uint32_t kSlotSize = 6;
  static constexpr uint16_t kDeletedFlag = 1;

  explicit HeapPageView(char* page_data) : d_(page_data) {}

  void Init(PageId self) {
    PageView pv(d_);
    pv.Format(self, PageType::kHeap);
    set_count(0);
    set_heap_begin(static_cast<uint16_t>(kPageSize));
  }

  bool IsFormatted() const {
    return PageView(d_).page_type() == PageType::kHeap;
  }

  uint16_t count() const { return DecodeFixed16(d_ + kHeapHeaderOffset); }

  bool HasSpaceFor(size_t len) const {
    const uint32_t slots_end = kSlotArrayOffset + count() * kSlotSize;
    return heap_begin() >= slots_end + kSlotSize + len;
  }

  /// Appends a record; returns its slot. Caller checked HasSpaceFor.
  uint16_t Append(Slice record) {
    GISTCR_CHECK(HasSpaceFor(record.size()));
    const uint16_t slot = count();
    const uint16_t off =
        static_cast<uint16_t>(heap_begin() - record.size());
    std::memcpy(d_ + off, record.data(), record.size());
    set_heap_begin(off);
    set_slot(slot, off, static_cast<uint16_t>(record.size()), 0);
    set_count(slot + 1);
    return slot;
  }

  /// Places a record at a specific slot (redo path; slots appear in LSN
  /// order, so slot == count() when the record is replayed).
  void AppendAt(uint16_t slot, Slice record) {
    GISTCR_CHECK(slot == count());
    Append(record);
  }

  bool SlotExists(uint16_t slot) const { return slot < count(); }
  bool IsDeleted(uint16_t slot) const {
    return (slot_flags(slot) & kDeletedFlag) != 0;
  }
  void SetDeleted(uint16_t slot, bool deleted) {
    uint16_t f = slot_flags(slot);
    f = deleted ? static_cast<uint16_t>(f | kDeletedFlag)
                : static_cast<uint16_t>(f & ~kDeletedFlag);
    EncodeFixed16(d_ + kSlotArrayOffset + slot * kSlotSize + 4, f);
  }
  Slice Record(uint16_t slot) const {
    return Slice(d_ + slot_off(slot), slot_len(slot));
  }

 private:
  uint16_t heap_begin() const {
    return DecodeFixed16(d_ + kHeapHeaderOffset + 2);
  }
  void set_heap_begin(uint16_t v) {
    EncodeFixed16(d_ + kHeapHeaderOffset + 2, v);
  }
  void set_count(uint16_t c) { EncodeFixed16(d_ + kHeapHeaderOffset, c); }
  uint16_t slot_off(uint16_t i) const {
    return DecodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize);
  }
  uint16_t slot_len(uint16_t i) const {
    return DecodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize + 2);
  }
  uint16_t slot_flags(uint16_t i) const {
    return DecodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize + 4);
  }
  void set_slot(uint16_t i, uint16_t off, uint16_t len, uint16_t flags) {
    EncodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize, off);
    EncodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize + 2, len);
    EncodeFixed16(d_ + kSlotArrayOffset + i * kSlotSize + 4, flags);
  }

  char* d_;
};

}  // namespace gistcr

#endif  // GISTCR_DB_HEAP_PAGE_H_
