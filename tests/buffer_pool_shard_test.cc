// The sharded buffer pool and the background page writer: partitioning
// invariants, cross-shard stress, FlushAll vs. concurrent eviction
// (previously correct-but-untested), and WriteBackSome/writer-daemon
// behavior (DESIGN.md section 11).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "access/btree_extension.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace gistcr {
namespace {

class BufferPoolShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("shard") + ".db";
    std::remove(path_.c_str());
    ASSERT_OK(disk_.Open(path_));
  }
  void TearDown() override {
    pool_.reset();
    disk_.Close();
    std::remove(path_.c_str());
  }

  void MakePool(size_t frames, size_t shards,
                BufferPool::WalFlushFn fn = nullptr) {
    pool_ = std::make_unique<BufferPool>(&disk_, frames, std::move(fn),
                                         shards);
  }

  /// Seeds page \p pid on disk with a recognizable stamp.
  void SeedPage(PageId pid) {
    char buf[kPageSize];
    std::memset(buf, 0, sizeof(buf));
    std::memcpy(buf + kPageSize / 2, &pid, sizeof(pid));
    ASSERT_OK(disk_.WritePage(pid, buf));
  }

  static PageId StampOf(const Frame* f) {
    PageId pid;
    std::memcpy(&pid, f->data() + kPageSize / 2, sizeof(pid));
    return pid;
  }

  std::string path_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolShardTest, AutoShardCountScalesWithPoolSize) {
  MakePool(64, 0);
  EXPECT_EQ(pool_->num_shards(), 1u);  // tiny test pools stay unsharded
  pool_.reset();
  MakePool(4096, 0);
  EXPECT_EQ(pool_->num_shards(), 16u);
  pool_.reset();
  MakePool(300, 5);  // explicit counts pass through
  EXPECT_EQ(pool_->num_shards(), 5u);
}

// Pages must stay correct while many threads fetch/dirty/unpin across all
// shards with constant eviction (4x more pages than frames).
TEST_F(BufferPoolShardTest, CrossShardFetchStress) {
  constexpr PageId kPages = 512;
  constexpr size_t kFrames = 128;
  for (PageId p = 1; p <= kPages; p++) SeedPage(p);
  MakePool(kFrames, 4);
  ASSERT_EQ(pool_->num_shards(), 4u);

  constexpr int kThreads = 8;
  std::atomic<uint64_t> fetches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) * 7919 + 17);
      for (int i = 0; i < 2000; i++) {
        const PageId pid =
            static_cast<PageId>(rng.UniformRange(1, kPages));
        auto f = pool_->Fetch(pid);
        ASSERT_OK(f.status());
        EXPECT_EQ(f.value()->page_id(), pid);
        EXPECT_EQ(StampOf(f.value()), pid);
        pool_->Unpin(f.value());
        fetches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fetches.load(), static_cast<uint64_t>(kThreads) * 2000);
  EXPECT_LE(pool_->ResidentCount(), kFrames);
}

// Satellite: FlushAll must tolerate a page being evicted between its
// dirty-scan and the per-page FlushPage call. The eviction already wrote
// the page under the same WAL rule, so FlushPage's no-op is correct —
// this pins that contract under a racing eviction workload.
TEST_F(BufferPoolShardTest, FlushAllToleratesConcurrentEviction) {
  constexpr PageId kPages = 256;
  constexpr size_t kFrames = 64;
  for (PageId p = 1; p <= kPages; p++) SeedPage(p);
  MakePool(kFrames, 2);

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    Random rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      const PageId pid = static_cast<PageId>(rng.UniformRange(1, kPages));
      auto f = pool_->Fetch(pid);
      ASSERT_OK(f.status());
      {
        PageGuard g(pool_.get(), f.value());
        g.WLatch();
        g.frame()->MarkDirty(1);
      }
    }
  });
  for (int i = 0; i < 30; i++) {
    ASSERT_OK(pool_->FlushAll());
  }
  stop.store(true, std::memory_order_release);
  churner.join();
  ASSERT_OK(pool_->FlushAll());
}

// Evictions whose WAL force fails every other time, against fetchers that
// update the pages they pin: a failed eviction keeps its victim resident
// and dirty, so every update survives, in the pool or on disk, and the
// fetch that tried it returns the log's error (or NoSpace, when every
// frame is pinned or busy).
TEST_F(BufferPoolShardTest, FailedEvictionsLoseNoUpdates) {
  constexpr PageId kPages = 16;
  constexpr int kThreads = 4;
  std::atomic<bool> log_ok{false};
  std::atomic<uint64_t> forces{0};
  MakePool(8, 1, [&](Lsn) {
    return log_ok || forces.fetch_add(1) % 2 == 1
               ? Status::OK()
               : Status::IOError("log stopped");
  });
  std::atomic<uint64_t> applied{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 2000; i++) {
        const PageId pid = static_cast<PageId>(rng.UniformRange(1, kPages));
        auto f = pool_->Fetch(pid);
        if (!f.ok()) {
          EXPECT_TRUE(f.status().IsIOError() || f.status().IsNoSpace())
              << f.status().ToString();
          continue;
        }
        PageGuard g(pool_.get(), f.value());
        g.WLatch();
        uint64_t n;
        std::memcpy(&n, g.frame()->data() + kPageSize / 2, sizeof(n));
        n++;
        std::memcpy(g.frame()->data() + kPageSize / 2, &n, sizeof(n));
        g.frame()->MarkDirty(1);
        applied.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(forces.load(), 1u);
  log_ok = true;
  uint64_t total = 0;
  for (PageId p = 1; p <= kPages; p++) {
    auto f = pool_->Fetch(p);
    ASSERT_OK(f.status());
    uint64_t n;
    std::memcpy(&n, f.value()->data() + kPageSize / 2, sizeof(n));
    total += n;
    pool_->Unpin(f.value());
  }
  EXPECT_EQ(total, applied.load());
}

// The deterministic core of the same contract: flushing a page that is
// not resident (e.g. already evicted) is an OK no-op.
TEST_F(BufferPoolShardTest, FlushPageOnEvictedPageIsOkNoop) {
  MakePool(64, 1);
  SeedPage(7);
  ASSERT_OK(pool_->FlushPage(7));         // never resident
  ASSERT_OK(pool_->FlushPage(999999));    // never existed
}

// WriteBackSome cleans dirty pages ahead of the clock hand without
// evicting them; the dirty page table drains to empty.
TEST_F(BufferPoolShardTest, WriteBackSomeCleansDirtyPages) {
  constexpr PageId kPages = 48;
  MakePool(64, 2);
  for (PageId p = 1; p <= kPages; p++) {
    auto f = pool_->NewPage(p);
    ASSERT_OK(f.status());
    PageGuard g(pool_.get(), f.value());
    g.WLatch();
    std::memcpy(g.frame()->data() + kPageSize / 2, &p, sizeof(p));
    g.frame()->MarkDirty(1);
  }
  ASSERT_EQ(pool_->DirtyPageTable().size(), static_cast<size_t>(kPages));

  size_t total = 0;
  for (int pass = 0; pass < 100 && !pool_->DirtyPageTable().empty();
       pass++) {
    auto n = pool_->WriteBackSome(8);
    ASSERT_OK(n.status());
    total += n.value();
  }
  EXPECT_TRUE(pool_->DirtyPageTable().empty());
  EXPECT_EQ(total, static_cast<size_t>(kPages));
  // All resident and clean — and the writes actually landed on disk.
  EXPECT_EQ(pool_->ResidentCount(), static_cast<size_t>(kPages));
  char buf[kPageSize];
  ASSERT_OK(disk_.ReadPage(17, buf));
  PageId stamp;
  std::memcpy(&stamp, buf + kPageSize / 2, sizeof(stamp));
  EXPECT_EQ(stamp, static_cast<PageId>(17));
}

// The writer daemon end to end: with writer_interval_ms set, dirty pages
// from committed transactions get cleaned in the background, and shutdown
// joins the thread cleanly.
TEST(BackgroundWriterTest, DaemonCleansDirtyPagesAndShutsDown) {
  const std::string path = TestPath("writer");
  RemoveDbFiles(path);
  DatabaseOptions opts;
  opts.path = path;
  opts.buffer_pool_pages = 256;
  opts.writer_interval_ms = 2;
  BtreeExtension ext;
  {
    auto db_or = Database::Create(opts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    Transaction* txn = db->Begin();
    for (int64_t k = 0; k < 500; k++) {
      ASSERT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v")
                    .status());
    }
    ASSERT_OK(db->Commit(txn));

    // The writer drains the dirty set without any checkpoint/FlushAll.
    size_t dirty = db->pool()->DirtyPageTable().size();
    for (int i = 0; i < 500 && dirty > 0; i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      dirty = db->pool()->DirtyPageTable().size();
    }
    EXPECT_EQ(dirty, 0u);
    EXPECT_GT(db->metrics()->GetCounter("writer.passes")->value(), 0u);
    EXPECT_GT(db->metrics()->GetCounter("writer.pages_written")->value(),
              0u);
  }
  // Reopen: everything the writer flushed must be consistent on disk.
  {
    auto db_or = Database::Open(opts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->OpenIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    Transaction* txn = db->Begin();
    std::vector<SearchResult> results;
    ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 500), &results));
    EXPECT_EQ(results.size(), 500u);
    ASSERT_OK(db->Commit(txn));
  }
  RemoveDbFiles(path);
}

}  // namespace
}  // namespace gistcr
