#include "storage/buffer_pool.h"

#include <cstring>

#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

namespace {

/// Auto shard count: shard only pools big enough that each shard keeps at
/// least 128 frames, capped at 16. Small test pools (64-128 pages) stay
/// single-sharded, preserving their eviction-pressure margins; production
/// pools (thousands of pages) get the full fan-out.
size_t AutoShards(size_t num_frames) {
  size_t s = 1;
  while (s < 16 && num_frames / (s * 2) >= 128) s *= 2;
  return s;
}

}  // namespace

BufferPool::BufferPool(DiskManager* disk, size_t num_frames,
                       WalFlushFn wal_flush, size_t num_shards)
    : disk_(disk), wal_flush_(std::move(wal_flush)) {
  GISTCR_CHECK(num_frames > 0);
  if (num_shards == 0) num_shards = AutoShards(num_frames);
  GISTCR_CHECK(num_shards <= num_frames);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; i++) {
    shards_.push_back(std::make_unique<Shard>());
  }
  arena_.reset(new char[num_frames * kPageSize]);
  frames_.reserve(num_frames);
  for (size_t i = 0; i < num_frames; i++) {
    auto f = std::make_unique<Frame>();
    f->data_ = arena_.get() + i * kPageSize;
    Shard& s = *shards_[i % num_shards];
    f->shard_mu_ = &s.mu;
    s.frames.push_back(f.get());
    frames_.push_back(std::move(f));
  }
  AttachMetrics(nullptr);
}

void BufferPool::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_hits_ = reg->GetCounter("bp.hits");
  m_misses_ = reg->GetCounter("bp.misses");
  m_evictions_ = reg->GetCounter("bp.evictions");
  m_dirty_evictions_ = reg->GetCounter("bp.dirty_evictions");
  m_flushes_ = reg->GetCounter("bp.flushes");
  m_pin_wait_ns_ = reg->GetHistogram("bp.pin_wait_ns");
  reg->GetGauge("bp.shards")->Set(static_cast<int64_t>(shards_.size()));
  for (size_t i = 0; i < shards_.size(); i++) {
    shards_[i]->m_evictions =
        reg->GetCounter("bp.shard." + std::to_string(i) + ".evictions");
  }
}

BufferPool::~BufferPool() = default;

BufferPool::Shard& BufferPool::ShardOf(PageId page_id) {
  // Fibonacci hashing: sequential page ids (the common allocation pattern)
  // spread evenly across shards instead of striding.
  const uint64_t h =
      static_cast<uint64_t>(page_id) * 0x9E3779B97F4A7C15ull;
  return *shards_[(h >> 32) % shards_.size()];
}

Frame* BufferPool::FindVictimLocked(Shard& s) {
  // CLOCK: up to two sweeps; the first sweep clears reference bits.
  const size_t n = s.frames.size();
  for (size_t step = 0; step < 2 * n; step++) {
    Frame* f = s.frames[s.clock_hand];
    s.clock_hand = (s.clock_hand + 1) % n;
    f->AssertShardMutexHeld();
    if (f->pin_count_ != 0 || f->state_ != Frame::State::kReady) continue;
    if (f->ref_) {
      f->ref_ = false;
      continue;
    }
    return f;
  }
  return nullptr;
}

StatusOr<Frame*> BufferPool::FetchInternal(PageId page_id, bool fresh) {
  Shard& s = ShardOf(page_id);
  MutexLock l(s.mu);
  uint64_t busy_wait_ns = 0;  // time spent parked on in-flight I/O
  for (;;) {
    auto it = s.table.find(page_id);
    if (it != s.table.end()) {
      Frame* f = it->second;
      f->AssertShardMutexHeld();
      if (f->state_ == Frame::State::kBusy) {
        const uint64_t t0 = obs::NowNanos();
        s.cv.Wait(s.mu);
        busy_wait_ns += obs::NowNanos() - t0;
        continue;
      }
      f->pin_count_++;
      f->ref_ = true;
      if (fresh) {
        // Stale cached copy of a previously freed page: caller reformats.
        std::memset(f->data_, 0, kPageSize);
      } else {
        m_hits_->Add(1);
      }
      if (busy_wait_ns != 0) m_pin_wait_ns_->Record(busy_wait_ns);
      return f;
    }
    Frame* victim = FindVictimLocked(s);
    if (victim == nullptr) {
      return Status::NoSpace("buffer pool: all frames in shard pinned");
    }
    victim->AssertShardMutexHeld();
    const PageId old_pid = victim->page_id_;
    const bool was_dirty = victim->dirty();
    if (old_pid != kInvalidPageId) {
      // A dirty victim keeps its table entry (pointing at the now-Busy
      // frame) until the eviction write lands: a concurrent Fetch of
      // old_pid must park on the cv rather than miss and re-read the
      // page from disk while the write is still in flight — that read
      // returns the stale pre-write image, which would then shadow the
      // real page for the rest of the run. (old_pid hashes to this same
      // shard: it entered the table through it.)
      if (!was_dirty) s.table.erase(old_pid);
      m_evictions_->Add(1);
      s.m_evictions->Add(1);
      if (was_dirty) m_dirty_evictions_->Add(1);
    }
    if (!fresh) m_misses_->Add(1);
    victim->state_ = Frame::State::kBusy;
    victim->page_id_ = page_id;
    victim->ref_ = true;
    victim->pin_count_ = 1;
    s.table[page_id] = victim;
    l.Unlock();

    // No pins and no table entry: we have exclusive use of the frame. No
    // shard mutex is held across the I/O.
    Status st;
    {
      GISTCR_TRACE_SCOPE("bp.io");
      if (was_dirty) {
        // WAL rule: force the log up to the victim's page_lsn before the
        // data page reaches disk.
        const Lsn page_lsn = PageView(victim->data_).page_lsn();
        if (wal_flush_) st = wal_flush_(page_lsn);
        // The frame is Busy and table-entered, so this must feed the error
        // cleanup below rather than early-return.
        if constexpr (kFaultInjectionCompiled) {
          if (st.ok()) {
            st = FaultInjector::Global().CheckCrashPoint(
                "bp.before_evict_write");
          }
        }
        if (st.ok()) st = disk_->WritePage(old_pid, victim->data_);
        if (st.ok()) victim->ClearDirty();
      }
      if (st.ok()) {
        if (fresh) {
          std::memset(victim->data_, 0, kPageSize);
        } else {
          st = disk_->ReadPage(page_id, victim->data_);
        }
      }
    }

    l.Lock();
    victim->state_ = Frame::State::kReady;
    // A failed WAL force or write (a stopped log refuses every force past
    // its durable end) leaves the victim dirty: it goes back to old_pid,
    // table entry and all, so no fetch reads the older disk image instead.
    const bool kept = victim->dirty();
    if (was_dirty && !kept) s.table.erase(old_pid);
    if (!st.ok()) {
      s.table.erase(page_id);
      victim->page_id_ = kept ? old_pid : kInvalidPageId;
      victim->pin_count_ = 0;
      s.cv.NotifyAll();
      return st;
    }
    s.cv.NotifyAll();
    if (busy_wait_ns != 0) m_pin_wait_ns_->Record(busy_wait_ns);
    return victim;
  }
}

StatusOr<Frame*> BufferPool::Fetch(PageId page_id) {
  auto frame_or = FetchInternal(page_id, /*fresh=*/false);
  if (frame_or.ok() &&
      recovery_hook_armed_.load(std::memory_order_acquire)) {
    // Instant restart: the frame is pinned but unlatched and no shard
    // mutex is held, so the hook may replay this page's redo plan
    // (including re-entrant fetches) before the caller sees the frame.
    Status st = recovery_on_fetch_(page_id);
    if (!st.ok()) {
      Unpin(frame_or.value());
      return st;
    }
  }
  return frame_or;
}

StatusOr<Frame*> BufferPool::NewPage(PageId page_id) {
  auto frame_or = FetchInternal(page_id, /*fresh=*/true);
  if (frame_or.ok() &&
      recovery_hook_armed_.load(std::memory_order_acquire)) {
    recovery_on_new_(page_id);
  }
  return frame_or;
}

void BufferPool::Unpin(Frame* frame) {
  MutexLock l(*frame->shard_mu_);
  GISTCR_CHECK(frame->pin_count_ > 0);
  frame->pin_count_--;
}

Status BufferPool::FlushPage(PageId page_id) {
  bool wrote = false;
  return FlushPageInternal(page_id, &wrote);
}

Status BufferPool::FlushPageInternal(PageId page_id, bool* wrote) {
  *wrote = false;
  Shard& s = ShardOf(page_id);
  Frame* frame = nullptr;
  {
    MutexLock l(s.mu);
    for (;;) {
      auto it = s.table.find(page_id);
      // Not resident: nothing to do. This is also the concurrent-eviction
      // case — the evicting thread wrote the page (same WAL rule) before
      // removing the entry, so the flush goal is already met.
      if (it == s.table.end()) return Status::OK();
      frame = it->second;
      frame->AssertShardMutexHeld();
      if (frame->state_ == Frame::State::kBusy) {
        s.cv.Wait(s.mu);
        continue;
      }
      if (!frame->dirty()) return Status::OK();
      frame->pin_count_++;  // keep it resident while we write
      break;
    }
  }
  Status st;
  {
    // Shared latch yields a consistent page image (no concurrent modifier)
    // and makes clearing the dirty flag race-free w.r.t. MarkDirty, which
    // requires the X latch.
    SharedLock sl(frame->latch_);
    GISTCR_TRACE_SCOPE("bp.flush");
    const Lsn page_lsn = frame->view().page_lsn();
    if (wal_flush_) st = wal_flush_(page_lsn);
    if (st.ok()) st = disk_->WritePage(page_id, frame->data_);
    if (st.ok()) {
      frame->ClearDirty();
      m_flushes_->Add(1);
      *wrote = true;
    }
  }
  {
    MutexLock l(s.mu);
    frame->AssertShardMutexHeld();
    frame->pin_count_--;
  }
  return st;
}

Status BufferPool::FlushAll() {
  std::vector<PageId> dirty;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock l(s.mu);
    for (auto& [pid, f] : s.table) {
      if (f->dirty()) dirty.push_back(pid);
    }
  }
  for (PageId pid : dirty) {
    // FlushPage no-ops on pages another thread evicted (and therefore
    // wrote) since the scan above — see the header contract.
    GISTCR_RETURN_IF_ERROR(FlushPage(pid));
  }
  return disk_->Sync();
}

StatusOr<size_t> BufferPool::WriteBackSome(size_t per_shard_budget) {
  size_t written = 0;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    std::vector<PageId> targets;
    {
      MutexLock l(s.mu);
      const size_t n = s.frames.size();
      for (size_t i = 0; i < n && targets.size() < per_shard_budget; i++) {
        Frame* f = s.frames[(s.clock_hand + i) % n];
        f->AssertShardMutexHeld();
        if (f->state_ != Frame::State::kReady) continue;
        if (f->page_id_ == kInvalidPageId || !f->dirty()) continue;
        targets.push_back(f->page_id_);
      }
    }
    for (PageId pid : targets) {
      bool wrote = false;
      GISTCR_RETURN_IF_ERROR(FlushPageInternal(pid, &wrote));
      if (wrote) written++;
    }
  }
  return written;
}

void BufferPool::DiscardAll() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock l(s.mu);
    for (Frame* f : s.frames) {
      f->AssertShardMutexHeld();
      GISTCR_CHECK(f->pin_count_ == 0);
      f->page_id_ = kInvalidPageId;
      f->ClearDirty();
      f->ref_ = false;
      f->state_ = Frame::State::kReady;
    }
    s.table.clear();
    s.clock_hand = 0;
  }
}

std::vector<std::pair<PageId, Lsn>> BufferPool::DirtyPageTable() {
  std::vector<std::pair<PageId, Lsn>> out;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock l(s.mu);
    for (auto& [pid, f] : s.table) {
      if (f->dirty()) {
        const Lsn rec = f->rec_lsn();
        out.emplace_back(pid, rec == kInvalidLsn ? 0 : rec);
      }
    }
  }
  return out;
}

size_t BufferPool::ResidentCount() {
  size_t total = 0;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock l(s.mu);
    total += s.table.size();
  }
  return total;
}

std::vector<BufferPool::ShardStats> BufferPool::ShardOccupancy() {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock l(s.mu);
    ShardStats st;
    st.frames = s.frames.size();
    st.resident = s.table.size();
    st.evictions = s.m_evictions->value();
    for (const auto& [page_id, frame] : s.table) {
      frame->AssertShardMutexHeld();
      if (frame->dirty()) st.dirty++;
      if (frame->pin_count_ > 0) st.pinned++;
    }
    out.push_back(st);
  }
  return out;
}

}  // namespace gistcr
