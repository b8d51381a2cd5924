#include "gist/node.h"

#include <cstring>

#include "util/macros.h"

namespace gistcr {

void NodeView::Init(PageId self, uint16_t level) {
  PageView pv(d_);
  pv.Format(self, PageType::kGistNode);
  set_nsn(0);
  set_rightlink(kInvalidPageId);
  EncodeFixed16(d_ + kNodeHeaderOffset + 12, level);
  set_count(0);
  set_heap_begin(static_cast<uint16_t>(kPageSize));
  set_bp(0, 0);
}

Slice NodeView::bp() const {
  if (bp_len() == 0 && bp_off() == 0) return Slice();
  return Slice(d_ + bp_off(), bp_len());
}

Status NodeView::SetBp(Slice new_bp) {
  GISTCR_CHECK(new_bp.size() <= kMaxKeySize);
  if (new_bp.size() <= bp_len()) {
    std::memcpy(d_ + bp_off(), new_bp.data(), new_bp.size());
    set_bp(bp_off(), static_cast<uint16_t>(new_bp.size()));
    return Status::OK();
  }
  // Grow: mark the old BP area dead, allocate anew.
  set_bp(0, 0);
  const uint16_t off = AllocHeap(static_cast<uint16_t>(new_bp.size()));
  if (off == 0) return Status::NoSpace("node: no room for BP");
  std::memcpy(d_ + off, new_bp.data(), new_bp.size());
  set_bp(off, static_cast<uint16_t>(new_bp.size()));
  return Status::OK();
}

Slice NodeView::entry_key(uint16_t i) const {
  GISTCR_DCHECK(i < count());
  const char* e = d_ + slot_off(i);
  const uint16_t klen = DecodeFixed16(e);
  return Slice(e + 2, klen);
}

uint64_t NodeView::entry_value(uint16_t i) const {
  GISTCR_DCHECK(i < count());
  const char* e = d_ + slot_off(i);
  const uint16_t klen = DecodeFixed16(e);
  return DecodeFixed64(e + 2 + klen);
}

TxnId NodeView::entry_del_txn(uint16_t i) const {
  GISTCR_DCHECK(i < count());
  const char* e = d_ + slot_off(i);
  const uint16_t klen = DecodeFixed16(e);
  return DecodeFixed64(e + 2 + klen + 8);
}

void NodeView::set_entry_del_txn(uint16_t i, TxnId txn) {
  GISTCR_DCHECK(i < count());
  char* e = d_ + slot_off(i);
  const uint16_t klen = DecodeFixed16(e);
  EncodeFixed64(e + 2 + klen + 8, txn);
}

IndexEntry NodeView::GetEntry(uint16_t i) const {
  IndexEntry e;
  e.key = entry_key(i).ToString();
  e.value = entry_value(i);
  e.del_txn = entry_del_txn(i);
  return e;
}

std::vector<IndexEntry> NodeView::GetAllEntries(bool include_deleted) const {
  std::vector<IndexEntry> out;
  const uint16_t n = count();
  out.reserve(n);
  for (uint16_t i = 0; i < n; i++) {
    if (!include_deleted && entry_del_txn(i) != kInvalidTxnId) continue;
    out.push_back(GetEntry(i));
  }
  return out;
}

uint32_t NodeView::ContiguousFree() const {
  const uint32_t slots_end = kSlotArrayOffset + count() * kSlotSize;
  const uint32_t hb = heap_begin();
  return hb > slots_end ? hb - slots_end : 0;
}

uint32_t NodeView::TotalFree() const {
  // Page size minus header, slot array, live entry bytes and the BP.
  uint32_t live = kSlotArrayOffset + count() * kSlotSize + bp_len();
  for (uint16_t i = 0; i < count(); i++) live += slot_len(i);
  return kPageSize > live ? kPageSize - live : 0;
}

void NodeView::Compact() {
  // Copy live payloads out, rebuild the heap tightly from the page end.
  struct Blob {
    uint16_t idx;  // slot index, or 0xFFFF for the BP
    std::string bytes;
  };
  std::vector<Blob> blobs;
  blobs.reserve(count() + 1);
  for (uint16_t i = 0; i < count(); i++) {
    blobs.push_back({i, std::string(d_ + slot_off(i), slot_len(i))});
  }
  std::string bp_copy(d_ + bp_off(), bp_len());
  uint16_t hb = static_cast<uint16_t>(kPageSize);
  for (auto& b : blobs) {
    hb = static_cast<uint16_t>(hb - b.bytes.size());
    std::memcpy(d_ + hb, b.bytes.data(), b.bytes.size());
    set_slot(b.idx, hb, static_cast<uint16_t>(b.bytes.size()));
  }
  if (!bp_copy.empty()) {
    hb = static_cast<uint16_t>(hb - bp_copy.size());
    std::memcpy(d_ + hb, bp_copy.data(), bp_copy.size());
    set_bp(hb, static_cast<uint16_t>(bp_copy.size()));
  } else {
    set_bp(0, 0);
  }
  set_heap_begin(hb);
}

uint16_t NodeView::AllocHeap(uint16_t len) {
  const uint32_t slots_end = kSlotArrayOffset + count() * kSlotSize;
  uint32_t hb = heap_begin();
  if (hb < slots_end + len) {
    // Fragmented; compact and retry.
    Compact();
    hb = heap_begin();
    if (hb < slots_end + len) return 0;
  }
  const uint16_t off = static_cast<uint16_t>(hb - len);
  set_heap_begin(off);
  return off;
}

Status NodeView::InsertEntry(const IndexEntry& e) {
  GISTCR_CHECK(e.key.size() <= kMaxKeySize);
  const uint16_t esz = static_cast<uint16_t>(EntrySize(e));
  if (TotalFree() < esz + kSlotSize) {
    return Status::NoSpace("node full");
  }
  // Growing the slot directory writes 4 bytes at the current slots_end;
  // a blob allocated flush against the directory (heap_begin close to
  // slots_end) would be clobbered. Compact FIRST — with the old count —
  // whenever the gap cannot absorb both the new slot and the new blob.
  if (ContiguousFree() < esz + kSlotSize) {
    Compact();
  }
  const uint16_t i = count();
  set_count(i + 1);
  const uint16_t off = AllocHeap(esz);
  // Post-compaction the contiguous gap equals TotalFree >= esz + slot, so
  // the allocation cannot fail or re-compact (which would read the fresh,
  // still-uninitialized slot).
  GISTCR_CHECK(off != 0);
  char* p = d_ + off;
  EncodeFixed16(p, static_cast<uint16_t>(e.key.size()));
  std::memcpy(p + 2, e.key.data(), e.key.size());
  EncodeFixed64(p + 2 + e.key.size(), e.value);
  EncodeFixed64(p + 2 + e.key.size() + 8, e.del_txn);
  set_slot(i, off, esz);
  return Status::OK();
}

void NodeView::RemoveEntry(uint16_t i) {
  GISTCR_CHECK(i < count());
  const uint16_t n = count();
  // Shift the slot array down; heap space is reclaimed lazily by Compact.
  std::memmove(d_ + kSlotArrayOffset + i * kSlotSize,
               d_ + kSlotArrayOffset + (i + 1) * kSlotSize,
               (n - i - 1) * kSlotSize);
  set_count(n - 1);
}

Status NodeView::SetEntryKey(uint16_t i, Slice new_key) {
  GISTCR_CHECK(i < count());
  GISTCR_CHECK(new_key.size() <= kMaxKeySize);
  const uint64_t value = entry_value(i);
  const TxnId del_txn = entry_del_txn(i);
  const uint16_t esz = static_cast<uint16_t>(kEntryOverhead + new_key.size());
  if (new_key.size() <= entry_key(i).size()) {
    // Rewrite in place.
    char* p = d_ + slot_off(i);
    EncodeFixed16(p, static_cast<uint16_t>(new_key.size()));
    std::memcpy(p + 2, new_key.data(), new_key.size());
    EncodeFixed64(p + 2 + new_key.size(), value);
    EncodeFixed64(p + 2 + new_key.size() + 8, del_txn);
    set_slot(i, slot_off(i), esz);
    return Status::OK();
  }
  // Grows: free the old blob (mark slot dead so Compact drops it), alloc.
  set_slot(i, 0, 0);
  const uint16_t off = AllocHeap(esz);
  if (off == 0) return Status::NoSpace("node: no room for entry update");
  char* p = d_ + off;
  EncodeFixed16(p, static_cast<uint16_t>(new_key.size()));
  std::memcpy(p + 2, new_key.data(), new_key.size());
  EncodeFixed64(p + 2 + new_key.size(), value);
  EncodeFixed64(p + 2 + new_key.size() + 8, del_txn);
  set_slot(i, off, esz);
  return Status::OK();
}

int NodeView::FindByValue(uint64_t value) const {
  const uint16_t n = count();
  for (uint16_t i = 0; i < n; i++) {
    if (entry_value(i) == value) return i;
  }
  return -1;
}

int NodeView::FindByKeyValue(Slice key, uint64_t value) const {
  const uint16_t n = count();
  for (uint16_t i = 0; i < n; i++) {
    if (entry_value(i) == value && entry_key(i) == key) return i;
  }
  return -1;
}

}  // namespace gistcr
