#ifndef GISTCR_STORAGE_PAGE_H_
#define GISTCR_STORAGE_PAGE_H_

#include <cstdint>

#include "common/types.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace gistcr {

/// Page type tags stored in the common page header.
enum class PageType : uint16_t {
  kFree = 0,
  kMeta = 1,      ///< Page 0: database metadata (root pointers, HWM).
  kAllocMap = 2,  ///< Page allocation bitmap pages.
  kGistNode = 3,  ///< GiST index node (internal or leaf).
  kHeap = 4,      ///< Heap data-store page.
};

/// Instant-restart state of a page (DESIGN.md section 16). Not stored in
/// the page image: the RecoveryGate keeps the state machine in memory,
/// seeded from log analysis. A page is kNeedsRedo while its planned redo
/// records have not been replayed, kRedoing while one thread replays them
/// (others wait), and kClean — the implicit state of every page the gate
/// does not track — once the plan has been applied (or the page was never
/// touched by the recovered log suffix).
enum class PageRecoveryState : uint8_t {
  kClean = 0,
  kNeedsRedo = 1,
  kRedoing = 2,
};

/// Every page starts with this 24-byte header:
///   [0..7]   page_lsn  - LSN of the last log record applied to the page;
///                        drives idempotent page-oriented redo.
///   [8..11]  page_id   - self identifier (corruption check).
///   [12..13] page_type
///   [14..15] reserved
///   [16..19] checksum  - CRC32 of the page excluding this field, stamped
///                        by DiskManager::WritePage and verified by
///                        ReadPage (torn-write / bit-rot detection).
///   [20..23] reserved
/// PageView is a non-owning accessor over a kPageSize byte buffer.
class PageView {
 public:
  static constexpr uint32_t kHeaderSize = 24;
  static constexpr uint32_t kChecksumOffset = 16;

  explicit PageView(char* data) : data_(data) {}

  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Payload area after the common header.
  char* payload() { return data_ + kHeaderSize; }
  const char* payload() const { return data_ + kHeaderSize; }
  static constexpr uint32_t payload_size() { return kPageSize - kHeaderSize; }

  Lsn page_lsn() const { return DecodeFixed64(data_); }
  void set_page_lsn(Lsn lsn) { EncodeFixed64(data_, lsn); }

  PageId page_id() const { return DecodeFixed32(data_ + 8); }
  void set_page_id(PageId id) { EncodeFixed32(data_ + 8, id); }

  PageType page_type() const {
    return static_cast<PageType>(DecodeFixed16(data_ + 12));
  }
  void set_page_type(PageType t) {
    EncodeFixed16(data_ + 12, static_cast<uint16_t>(t));
  }

  uint32_t checksum() const { return DecodeFixed32(data_ + kChecksumOffset); }
  void set_checksum(uint32_t c) { EncodeFixed32(data_ + kChecksumOffset, c); }

  /// Initializes a fresh page: zero body, header fields set.
  void Format(PageId id, PageType type) {
    for (uint32_t i = 0; i < kPageSize; i++) data_[i] = 0;
    set_page_id(id);
    set_page_type(type);
    // A formatted page holds no logged effect yet: its LSN is the null
    // one, below every record. gistcr-lint: allow(page-lsn-outside-apply)
    set_page_lsn(kInvalidLsn);
  }

 private:
  char* data_;
};

/// CRC32 over a full page image, skipping the 4-byte checksum field itself
/// so the stored value can be compared against a fresh computation.
inline uint32_t ComputePageChecksum(const char* page) {
  uint32_t c = Crc32(page, PageView::kChecksumOffset);
  return Crc32(page + PageView::kChecksumOffset + 4,
               kPageSize - PageView::kChecksumOffset - 4, c);
}

}  // namespace gistcr

#endif  // GISTCR_STORAGE_PAGE_H_
