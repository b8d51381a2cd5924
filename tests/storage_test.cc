#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

class DiskManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("disk") + ".db";
    std::remove(path_.c_str());
    ASSERT_OK(disk_.Open(path_));
  }
  void TearDown() override {
    disk_.Close();
    std::remove(path_.c_str());
  }
  std::string path_;
  DiskManager disk_;
};

TEST_F(DiskManagerTest, WriteThenReadBack) {
  char out[kPageSize], in[kPageSize];
  std::memset(out, 0xAB, sizeof(out));
  ASSERT_OK(disk_.WritePage(3, out));
  ASSERT_OK(disk_.ReadPage(3, in));
  // WritePage stamps the CRC into the header's checksum field; everything
  // around it must round-trip byte-identically.
  EXPECT_EQ(std::memcmp(out, in, PageView::kChecksumOffset), 0);
  EXPECT_EQ(std::memcmp(out + PageView::kChecksumOffset + 4,
                        in + PageView::kChecksumOffset + 4,
                        kPageSize - PageView::kChecksumOffset - 4),
            0);
  EXPECT_EQ(PageView(in).checksum(), ComputePageChecksum(in));
}

TEST_F(DiskManagerTest, ReadPastEofIsZeroed) {
  char in[kPageSize];
  std::memset(in, 0xFF, sizeof(in));
  ASSERT_OK(disk_.ReadPage(99, in));
  for (size_t i = 0; i < kPageSize; i++) ASSERT_EQ(in[i], 0);
}

TEST_F(DiskManagerTest, PageCountTracksWrites) {
  EXPECT_EQ(disk_.PageCountOnDisk(), 0u);
  char buf[kPageSize] = {0};
  ASSERT_OK(disk_.WritePage(4, buf));
  EXPECT_EQ(disk_.PageCountOnDisk(), 5u);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("pool") + ".db";
    std::remove(path_.c_str());
    ASSERT_OK(disk_.Open(path_));
  }
  void TearDown() override {
    pool_.reset();
    disk_.Close();
    std::remove(path_.c_str());
  }

  void MakePool(size_t frames, BufferPool::WalFlushFn fn = nullptr) {
    pool_ = std::make_unique<BufferPool>(&disk_, frames, std::move(fn));
  }

  std::string path_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, FetchMissReadsFromDisk) {
  char buf[kPageSize];
  std::memset(buf, 0x5A, sizeof(buf));
  ASSERT_OK(disk_.WritePage(7, buf));
  MakePool(4);
  auto f = pool_->Fetch(7);
  ASSERT_OK(f.status());
  EXPECT_EQ(f.value()->data()[100], 0x5A);
  pool_->Unpin(f.value());
}

TEST_F(BufferPoolTest, DirtyPageSurvivesEviction) {
  MakePool(2);
  {
    auto f = pool_->NewPage(1);
    ASSERT_OK(f.status());
    f.value()->data()[100] = 'x';
    PageView(f.value()->data()).set_page_lsn(5);
    f.value()->MarkDirty(5);
    pool_->Unpin(f.value());
  }
  // Evict by touching two other pages.
  for (PageId p = 2; p <= 3; p++) {
    auto f = pool_->Fetch(p);
    ASSERT_OK(f.status());
    pool_->Unpin(f.value());
  }
  auto f = pool_->Fetch(1);
  ASSERT_OK(f.status());
  EXPECT_EQ(f.value()->data()[100], 'x');
  pool_->Unpin(f.value());
}

TEST_F(BufferPoolTest, WalRuleInvokedBeforeDirtyWriteback) {
  std::atomic<Lsn> flushed{0};
  MakePool(1, [&](Lsn lsn) {
    flushed = lsn;
    return Status::OK();
  });
  {
    auto f = pool_->NewPage(1);
    ASSERT_OK(f.status());
    PageView(f.value()->data()).set_page_lsn(42);
    f.value()->MarkDirty(42);
    pool_->Unpin(f.value());
  }
  auto f = pool_->Fetch(2);  // forces eviction of page 1
  ASSERT_OK(f.status());
  pool_->Unpin(f.value());
  EXPECT_EQ(flushed.load(), 42u);
}

// An eviction whose WAL force fails writes nothing and drops nothing: the
// victim stays resident, dirty and under its own page id, so the next
// fetch sees its changes rather than the older disk image, and a later
// eviction (once the log takes the force) writes them out.
TEST_F(BufferPoolTest, FailedEvictionKeepsTheDirtyPage) {
  std::atomic<bool> log_ok{false};
  MakePool(1, [&](Lsn) {
    return log_ok ? Status::OK() : Status::IOError("log stopped");
  });
  {
    auto f = pool_->NewPage(1);
    ASSERT_OK(f.status());
    f.value()->data()[100] = 'x';
    PageView(f.value()->data()).set_page_lsn(42);
    f.value()->MarkDirty(42);
    pool_->Unpin(f.value());
  }
  for (int i = 0; i < 2; i++) {
    EXPECT_TRUE(pool_->Fetch(2).status().IsIOError());
    EXPECT_TRUE(pool_->NewPage(3).status().IsIOError());
  }
  const auto dpt = pool_->DirtyPageTable();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0], (std::pair<PageId, Lsn>{1, 42}));
  {
    auto f = pool_->Fetch(1);
    ASSERT_OK(f.status());
    EXPECT_EQ(f.value()->data()[100], 'x');
    pool_->Unpin(f.value());
  }
  log_ok = true;
  auto f = pool_->Fetch(2);
  ASSERT_OK(f.status());
  pool_->Unpin(f.value());
  EXPECT_TRUE(pool_->DirtyPageTable().empty());
  char buf[kPageSize];
  ASSERT_OK(disk_.ReadPage(1, buf));
  EXPECT_EQ(buf[100], 'x');
}

TEST_F(BufferPoolTest, AllFramesPinnedYieldsNoSpace) {
  MakePool(2);
  auto a = pool_->Fetch(1);
  auto b = pool_->Fetch(2);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  auto c = pool_->Fetch(3);
  EXPECT_TRUE(c.status().IsNoSpace());
  pool_->Unpin(a.value());
  pool_->Unpin(b.value());
  auto d = pool_->Fetch(3);
  EXPECT_OK(d.status());
  pool_->Unpin(d.value());
}

TEST_F(BufferPoolTest, DirtyPageTableTracksRecLsn) {
  MakePool(4);
  auto f = pool_->NewPage(1);
  ASSERT_OK(f.status());
  f.value()->MarkDirty(100);
  f.value()->MarkDirty(90);   // earlier update wins as rec_lsn
  f.value()->MarkDirty(120);  // later does not raise it
  auto dpt = pool_->DirtyPageTable();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0].first, 1u);
  EXPECT_EQ(dpt[0].second, 90u);
  pool_->Unpin(f.value());
}

TEST_F(BufferPoolTest, FlushPageClearsDirty) {
  MakePool(4);
  {
    auto f = pool_->NewPage(1);
    ASSERT_OK(f.status());
    f.value()->data()[10] = 'q';
    f.value()->MarkDirty(7);
    pool_->Unpin(f.value());
  }
  ASSERT_OK(pool_->FlushPage(1));
  EXPECT_TRUE(pool_->DirtyPageTable().empty());
  char buf[kPageSize];
  ASSERT_OK(disk_.ReadPage(1, buf));
  EXPECT_EQ(buf[10], 'q');
}

TEST_F(BufferPoolTest, DiscardAllLosesUnflushedChanges) {
  MakePool(4);
  {
    auto f = pool_->NewPage(1);
    ASSERT_OK(f.status());
    f.value()->data()[10] = 'q';
    f.value()->MarkDirty(7);
    pool_->Unpin(f.value());
  }
  pool_->DiscardAll();
  EXPECT_EQ(pool_->ResidentCount(), 0u);
  auto f = pool_->Fetch(1);
  ASSERT_OK(f.status());
  EXPECT_EQ(f.value()->data()[10], 0);  // never reached disk
  pool_->Unpin(f.value());
}

TEST_F(BufferPoolTest, ConcurrentFetchersShareFrame) {
  MakePool(8);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; i++) {
        auto f = pool_->Fetch(static_cast<PageId>(i % 4));
        if (!f.ok()) {
          failures++;
          continue;
        }
        {
          SharedLock l(f.value()->latch());
        }
        pool_->Unpin(f.value());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(pool_->ResidentCount(), 8u);
}

}  // namespace
}  // namespace gistcr
