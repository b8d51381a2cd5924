#ifndef GISTCR_STORAGE_BUFFER_POOL_H_
#define GISTCR_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/status.h"

namespace gistcr {

class BufferPool;

/// A buffer-pool frame: one in-memory page plus its latch. Latches are the
/// paper's physical synchronization primitive (section 5 footnote 8): they
/// protect the frame contents, are deadlock-unchecked, and are independent
/// of logical locks on the node. Callers may only hold the latch while the
/// frame is pinned.
class Frame {
 public:
  char* data() { return data_; }
  const char* data() const { return data_; }
  PageView view() { return PageView(data_); }

  /// Stable while the caller holds a pin (only eviction reassigns it, and
  /// eviction never selects a pinned frame).
  PageId page_id() const { return page_id_; }

  SharedMutex& latch() GISTCR_RETURN_CAPABILITY(latch_) { return latch_; }

  /// Records that the caller (holding the X latch) applied the log record
  /// with LSN \p lsn to this page. Sets the dirty flag and maintains
  /// rec_lsn = LSN of the first update since the page was last clean, which
  /// feeds the fuzzy-checkpoint dirty page table.
  void MarkDirty(Lsn lsn) {
    Lsn expected = rec_lsn_.load(std::memory_order_relaxed);
    while (expected == kInvalidLsn || lsn < expected) {
      if (rec_lsn_.compare_exchange_weak(expected, lsn,
                                         std::memory_order_relaxed)) {
        break;
      }
    }
    dirty_.store(true, std::memory_order_release);
  }

  bool dirty() const { return dirty_.load(std::memory_order_acquire); }
  Lsn rec_lsn() const { return rec_lsn_.load(std::memory_order_relaxed); }

 private:
  friend class BufferPool;

  enum class State { kReady, kBusy };

  /// Tells the thread-safety analysis that the caller holds this frame's
  /// shard mutex. Sound because shard_mu_ is fixed at pool construction
  /// and every caller reached the frame through its shard's table or frame
  /// list, whose mutex it already holds — the analysis just cannot prove
  /// the aliasing (`&shard.mu == frame->shard_mu_`) statically.
  void AssertShardMutexHeld() const GISTCR_ASSERT_CAPABILITY(*shard_mu_) {}

  void ClearDirty() {
    dirty_.store(false, std::memory_order_release);
    rec_lsn_.store(kInvalidLsn, std::memory_order_relaxed);
  }

  PageId page_id_ = kInvalidPageId;  ///< see page_id() for stability rule
  uint32_t pin_count_ GISTCR_GUARDED_BY(*shard_mu_) = 0;
  bool ref_ GISTCR_GUARDED_BY(*shard_mu_) = false;  ///< clock reference bit
  /// kBusy while this frame's I/O (eviction write / fill read) is in
  /// flight; waiters park on the shard cv.
  State state_ GISTCR_GUARDED_BY(*shard_mu_) = State::kReady;
  std::atomic<bool> dirty_{false};
  std::atomic<Lsn> rec_lsn_{kInvalidLsn};
  char* data_ = nullptr;
  Mutex* shard_mu_ = nullptr;  ///< owning shard's mutex; set once in ctor
  SharedMutex latch_;
};

/// Fixed-size buffer pool with CLOCK replacement and the write-ahead-log
/// flush rule: before a dirty page is written out (eviction, checkpoint
/// flush, or background writer), the log is forced up to the page's
/// page_lsn via the wal_flush callback.
///
/// The pool is sharded: frames, the page table, the clock hand, and the
/// mutex are statically partitioned into N shards, with pages assigned by
/// a hash of their PageId. Fetch/Unpin on pages in different shards never
/// contend, and every invariant (Busy protocol, WAL-before-data, the
/// dirty-victim table-entry rule) is per-shard — a page lives in exactly
/// one shard for its whole life.
///
/// I/O never happens while the caller holds a node latch *or any shard
/// mutex*: a Fetch performs disk read/write with the shard mutex released
/// (the frame marked Busy instead), and tree operations latch only
/// resident, pinned frames (the paper's "no latches during I/O" property
/// falls out of this split).
class BufferPool {
 public:
  using WalFlushFn = std::function<Status(Lsn)>;

  /// \p wal_flush may be empty (no WAL rule) for log-less unit tests.
  /// \p num_shards = 0 picks automatically: enough shards to cut
  /// contention on big pools, but never fewer than 128 frames per shard
  /// (so small test pools keep their single-shard eviction margins).
  BufferPool(DiskManager* disk, size_t num_frames, WalFlushFn wal_flush,
             size_t num_shards = 0);
  ~BufferPool();
  GISTCR_DISALLOW_COPY_AND_ASSIGN(BufferPool);

  /// Re-points the pool's metrics at \p reg (null: process fallback).
  /// Call before concurrent use; the Database facade does so at init.
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Pins the page, reading it from disk on a miss. The returned frame stays
  /// valid until Unpin.
  StatusOr<Frame*> Fetch(PageId page_id);

  /// Pins a frame for a freshly allocated page without reading disk. The
  /// buffer is zeroed; the caller formats it.
  StatusOr<Frame*> NewPage(PageId page_id);

  /// Releases a pin.
  void Unpin(Frame* frame);

  /// Instant-restart integration (DESIGN.md section 16). While the hook
  /// is armed, every successful Fetch invokes \p on_fetch(page_id) with
  /// the frame pinned but not latched and no shard mutex held — the hook
  /// may replay the page's redo plan (latching it, fetching other pages
  /// re-entrantly) before the caller ever sees the frame. A non-OK return
  /// unpins the frame and fails the Fetch. NewPage invokes \p on_new
  /// instead: the page is being re-created from scratch, so any pending
  /// redo for its previous life is cancelled rather than replayed.
  /// Install before arming; disarm before tearing the consumer down.
  void SetRecoveryHook(std::function<Status(PageId)> on_fetch,
                       std::function<void(PageId)> on_new) {
    recovery_on_fetch_ = std::move(on_fetch);
    recovery_on_new_ = std::move(on_new);
  }
  void ArmRecoveryHook() {
    recovery_hook_armed_.store(true, std::memory_order_release);
  }
  void DisarmRecoveryHook() {
    recovery_hook_armed_.store(false, std::memory_order_release);
  }
  bool recovery_hook_armed() const {
    return recovery_hook_armed_.load(std::memory_order_acquire);
  }

  /// Forces the page to disk if resident and dirty (WAL rule applied).
  /// Returns OK (as a no-op) when the page is not resident or not dirty —
  /// including when a concurrent eviction removed it after the caller
  /// decided to flush it: the eviction path already wrote the page, so
  /// there is nothing left to do.
  Status FlushPage(PageId page_id);

  /// Flushes every dirty page and syncs (clean shutdown / checkpoint).
  /// Tolerates concurrent evictions: a page that disappears between the
  /// dirty-scan and its FlushPage call was written by the evicting thread
  /// (under the same WAL rule), so FlushPage's no-op return is correct.
  Status FlushAll();

  /// One background-writer pass: writes out up to \p per_shard_budget
  /// dirty pages per shard, scanning just ahead of each shard's clock hand
  /// so the next eviction victims are already clean when the hand reaches
  /// them. All I/O runs with no shard mutex held; pages that get evicted
  /// or cleaned concurrently are skipped. Returns the number of pages
  /// actually written.
  StatusOr<size_t> WriteBackSome(size_t per_shard_budget);

  /// Drops all cached pages *without* writing them — simulates losing
  /// volatile memory in a crash. All pins must have been released.
  void DiscardAll();

  /// Dirty page table snapshot for fuzzy checkpoints: page id -> rec_lsn
  /// (LSN of the earliest update not yet on disk).
  std::vector<std::pair<PageId, Lsn>> DirtyPageTable();

  size_t num_frames() const { return frames_.size(); }
  size_t num_shards() const { return shards_.size(); }

  /// Number of pages currently resident (for tests).
  size_t ResidentCount();

  /// Per-shard occupancy snapshot for the introspection surface (kInspect
  /// "bp"): frame counts, resident/dirty pages, and pinned frames.
  struct ShardStats {
    size_t frames = 0;
    size_t resident = 0;
    size_t dirty = 0;
    size_t pinned = 0;
    /// Lifetime evictions from this shard (bp.shard.<i>.evictions) — the
    /// per-shard split of bp.evictions, for spotting skewed hash spread.
    uint64_t evictions = 0;
  };
  std::vector<ShardStats> ShardOccupancy();

 private:
  /// One partition: its frames, page table, clock hand, and the mutex/cv
  /// that guard them. Frames never migrate between shards.
  struct Shard {
    Mutex mu{GISTCR_LOCK_RANK(kBpShard, "bp.shard.mu")};
    CondVar cv;  ///< signalled when a Busy frame becomes Ready
    std::unordered_map<PageId, Frame*> table GISTCR_GUARDED_BY(mu);
    std::vector<Frame*> frames;  ///< static partition, set once in ctor
    size_t clock_hand GISTCR_GUARDED_BY(mu) = 0;
    /// Per-shard eviction counter (bp.shard.<i>.evictions); re-pointed by
    /// AttachMetrics like the pool-level counters.
    obs::Counter* m_evictions = nullptr;
  };

  Shard& ShardOf(PageId page_id);
  StatusOr<Frame*> FetchInternal(PageId page_id, bool fresh);
  Frame* FindVictimLocked(Shard& s) GISTCR_REQUIRES(s.mu);
  /// FlushPage body; *wrote reports whether a write actually happened
  /// (false for the not-resident / not-dirty no-op returns).
  Status FlushPageInternal(PageId page_id, bool* wrote);

  DiskManager* disk_;
  WalFlushFn wal_flush_;

  // Instant-restart hook (see SetRecoveryHook). The callbacks are written
  // before arming and cleared only after disarming, so the armed check
  // suffices on the hot path.
  std::function<Status(PageId)> recovery_on_fetch_;
  std::function<void(PageId)> recovery_on_new_;
  std::atomic<bool> recovery_hook_armed_{false};

  // Registry-owned; stable pointers, updated lock-free on the hot path.
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_dirty_evictions_ = nullptr;
  obs::Counter* m_flushes_ = nullptr;
  obs::Histogram* m_pin_wait_ns_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Frame>> frames_;  ///< set once in ctor
  std::unique_ptr<char[]> arena_;
};

/// RAII pin + latch management for one page. Move-only. On destruction,
/// releases any held latch and then the pin (in that order; a latch may only
/// be held while pinned).
///
/// Deliberately outside Clang's thread-safety analysis (DESIGN.md section
/// 10): whether a latch is held is runtime state (latch_), guards move
/// across functions during latch coupling, and Unlatch/Drop release
/// conditionally — none of which the static analysis can express without
/// blanket false positives. The latch protocol on this type is enforced by
/// the GISTCR_DCHECK state machine below, by TSan, and by gistcr_lint
/// instead.
class PageGuard {
 public:
  PageGuard() : pool_(nullptr), frame_(nullptr) {}
  PageGuard(BufferPool* pool, Frame* frame) : pool_(pool), frame_(frame) {}
  ~PageGuard() { Drop(); }

  PageGuard(PageGuard&& o) noexcept
      : pool_(o.pool_), frame_(o.frame_), latch_(o.latch_) {
#if GISTCR_DEADLOCK_DETECTOR
    dl_cls_ = o.dl_cls_;
#endif
    o.pool_ = nullptr;
    o.frame_ = nullptr;
    o.latch_ = LatchState::kNone;
  }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Drop();
      pool_ = o.pool_;
      frame_ = o.frame_;
      latch_ = o.latch_;
#if GISTCR_DEADLOCK_DETECTOR
      dl_cls_ = o.dl_cls_;
#endif
      o.pool_ = nullptr;
      o.frame_ = nullptr;
      o.latch_ = LatchState::kNone;
    }
    return *this;
  }
  GISTCR_DISALLOW_COPY_AND_ASSIGN(PageGuard);

  bool valid() const { return frame_ != nullptr; }
  Frame* frame() { return frame_; }
  PageView view() { return frame_->view(); }
  PageId page_id() const { return frame_->page_id(); }

  void RLatch() GISTCR_NO_THREAD_SAFETY_ANALYSIS {
    GISTCR_DCHECK(latch_ == LatchState::kNone);
    frame_->latch().lock_shared();
    latch_ = LatchState::kShared;
    NoteLatched(/*try_acquire=*/false);
  }
  void WLatch() GISTCR_NO_THREAD_SAFETY_ANALYSIS {
    GISTCR_DCHECK(latch_ == LatchState::kNone);
    frame_->latch().lock();
    latch_ = LatchState::kExclusive;
    NoteLatched(/*try_acquire=*/false);
  }
  /// Non-blocking X latch (used where blocking would invert the latch
  /// order, e.g. garbage collection latching downward).
  bool TryWLatch() GISTCR_NO_THREAD_SAFETY_ANALYSIS {
    GISTCR_DCHECK(latch_ == LatchState::kNone);
    if (!frame_->latch().try_lock()) return false;
    latch_ = LatchState::kExclusive;
    NoteLatched(/*try_acquire=*/true);
    return true;
  }
  void Unlatch() GISTCR_NO_THREAD_SAFETY_ANALYSIS {
    if (latch_ == LatchState::kShared) {
      frame_->latch().unlock_shared();
    } else if (latch_ == LatchState::kExclusive) {
      frame_->latch().unlock();
    }
#if GISTCR_DEADLOCK_DETECTOR
    if (latch_ != LatchState::kNone) deadlock::OnPageUnlatch(dl_cls_);
#endif
    latch_ = LatchState::kNone;
  }
  bool IsLatched() const { return latch_ != LatchState::kNone; }
  bool IsWriteLatched() const { return latch_ == LatchState::kExclusive; }

  /// Unlatches (if latched) and unpins.
  void Drop() {
    if (frame_ != nullptr) {
      Unlatch();
      pool_->Unpin(frame_);
      frame_ = nullptr;
      pool_ = nullptr;
    }
  }

 private:
  enum class LatchState { kNone, kShared, kExclusive };

  // Deadlock-detector bookkeeping: page latches participate in the lock
  // hierarchy as one class per page type (common/lock_rank.h) — frames
  // are recycled across pages, so instance identity would alias. The
  // class is derived *under* the just-taken latch (the page-type byte is
  // only stable while latched) and remembered for the matching release:
  // a Format under this latch may change the page's type.
  void NoteLatched(bool try_acquire) {
#if GISTCR_DEADLOCK_DETECTOR
    dl_cls_ = deadlock::PageRankFor(
        static_cast<uint8_t>(frame_->view().page_type()));
    if (try_acquire) {
      deadlock::OnPageTryLatch(dl_cls_);
    } else {
      deadlock::OnPageLatch(dl_cls_);
    }
#else
    (void)try_acquire;
#endif
  }

  BufferPool* pool_;
  Frame* frame_;
  LatchState latch_ = LatchState::kNone;
#if GISTCR_DEADLOCK_DETECTOR
  LockRank dl_cls_ = LockRank::kUnranked;
#endif
};

}  // namespace gistcr

#endif  // GISTCR_STORAGE_BUFFER_POOL_H_
