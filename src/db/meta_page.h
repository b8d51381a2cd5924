#ifndef GISTCR_DB_META_PAGE_H_
#define GISTCR_DB_META_PAGE_H_

#include "common/types.h"
#include "storage/page.h"
#include "util/coding.h"
#include "util/macros.h"

namespace gistcr {

/// Accessor for the database meta page (page 0). Layout after the common
/// page header:
///   [0..3]   magic
///   [4..7]   num_bitmap_pages
///   [8..11]  unused
///   [12..]   index root table: kMaxIndexes x {index_id u32, root u32}
///
/// Root pointers move when a root grows (paper: root split); those updates
/// are logged as Root-Change records, so the meta page participates in
/// page-oriented redo like any other page.
class MetaView {
 public:
  static constexpr uint32_t kMagic = 0x47495354;  // "GIST"
  static constexpr PageId kMetaPageId = 0;
  static constexpr uint32_t kMaxIndexes = 64;

  explicit MetaView(char* page_data) : d_(page_data) {}

  void Format(uint32_t num_bitmap_pages) {
    PageView pv(d_);
    pv.Format(kMetaPageId, PageType::kMeta);
    EncodeFixed32(p(), kMagic);
    EncodeFixed32(p() + 4, num_bitmap_pages);
    for (uint32_t i = 0; i < kMaxIndexes; i++) {
      EncodeFixed32(p() + 12 + i * 8, 0);
      EncodeFixed32(p() + 12 + i * 8 + 4, kInvalidPageId);
    }
  }

  bool valid() const { return DecodeFixed32(p()) == kMagic; }
  uint32_t num_bitmap_pages() const { return DecodeFixed32(p() + 4); }

  /// Root page of \p index_id, or kInvalidPageId if the index is absent.
  PageId GetRoot(uint32_t index_id) const {
    for (uint32_t i = 0; i < kMaxIndexes; i++) {
      if (DecodeFixed32(p() + 12 + i * 8) == index_id) {
        return DecodeFixed32(p() + 12 + i * 8 + 4);
      }
    }
    return kInvalidPageId;
  }

  /// True while the root table has a slot for one more index.
  bool HasFreeSlot() const {
    for (uint32_t i = 0; i < kMaxIndexes; i++) {
      if (DecodeFixed32(p() + 12 + i * 8) == 0) return true;
    }
    return false;
  }

  /// Sets (or installs) the root pointer of \p index_id.
  void SetRoot(uint32_t index_id, PageId root) {
    GISTCR_CHECK(index_id != 0);
    int free_slot = -1;
    for (uint32_t i = 0; i < kMaxIndexes; i++) {
      const uint32_t id = DecodeFixed32(p() + 12 + i * 8);
      if (id == index_id) {
        EncodeFixed32(p() + 12 + i * 8 + 4, root);
        return;
      }
      if (id == 0 && free_slot < 0) free_slot = static_cast<int>(i);
    }
    GISTCR_CHECK(free_slot >= 0);
    EncodeFixed32(p() + 12 + free_slot * 8, index_id);
    EncodeFixed32(p() + 12 + free_slot * 8 + 4, root);
  }

 private:
  char* p() const { return d_ + PageView::kHeaderSize; }
  char* d_;
};

}  // namespace gistcr

#endif  // GISTCR_DB_META_PAGE_H_
