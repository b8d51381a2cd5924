#include <gtest/gtest.h>

#include <set>

#include "db/data_store.h"
#include "db/heap_page.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

TEST(HeapPageTest, InitAndAppend) {
  char buf[kPageSize] = {};
  HeapPageView hv(buf);
  hv.Init(7);
  EXPECT_TRUE(hv.IsFormatted());
  EXPECT_EQ(hv.count(), 0);
  const uint16_t s0 = hv.Append("hello");
  const uint16_t s1 = hv.Append("world!");
  EXPECT_EQ(s0, 0);
  EXPECT_EQ(s1, 1);
  EXPECT_EQ(hv.Record(0), Slice("hello"));
  EXPECT_EQ(hv.Record(1), Slice("world!"));
}

TEST(HeapPageTest, TombstoneFlag) {
  char buf[kPageSize] = {};
  HeapPageView hv(buf);
  hv.Init(7);
  hv.Append("rec");
  EXPECT_FALSE(hv.IsDeleted(0));
  hv.SetDeleted(0, true);
  EXPECT_TRUE(hv.IsDeleted(0));
  EXPECT_EQ(hv.Record(0), Slice("rec"));  // bytes remain for undo
  hv.SetDeleted(0, false);
  EXPECT_FALSE(hv.IsDeleted(0));
}

TEST(HeapPageTest, SpaceAccounting) {
  char buf[kPageSize] = {};
  HeapPageView hv(buf);
  hv.Init(7);
  const std::string rec(100, 'x');
  int n = 0;
  while (hv.HasSpaceFor(rec.size())) {
    hv.Append(rec);
    n++;
  }
  EXPECT_GT(n, 70);  // ~8K / (100+6)
  EXPECT_FALSE(hv.HasSpaceFor(rec.size()));
}

class DataStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("ds");
    RemoveDbFiles(path_);
    opts_.path = path_;
    opts_.buffer_pool_pages = 256;
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }
  std::string path_;
  DatabaseOptions opts_;
  std::unique_ptr<Database> db_;
};

TEST_F(DataStoreTest, InsertReadRoundTrip) {
  Transaction* txn = db_->Begin();
  auto rid = db_->data()->Insert(txn, "record-body");
  ASSERT_OK(rid.status());
  ASSERT_OK(db_->Commit(txn));
  auto rec = db_->data()->Read(rid.value());
  ASSERT_OK(rec.status());
  EXPECT_EQ(rec.value(), "record-body");
}

TEST_F(DataStoreTest, ReadOfNeverWrittenSlotIsNotFound) {
  Transaction* txn = db_->Begin();
  auto rid = db_->data()->Insert(txn, "r");
  ASSERT_OK(rid.status());
  ASSERT_OK(db_->Commit(txn));
  Rid bogus = rid.value();
  bogus.slot = 999;
  EXPECT_TRUE(db_->data()->Read(bogus).status().IsNotFound());
}

TEST_F(DataStoreTest, DeleteTombstonesAndUndoRestores) {
  Transaction* t1 = db_->Begin();
  auto rid = db_->data()->Insert(t1, "r");
  ASSERT_OK(rid.status());
  ASSERT_OK(db_->Commit(t1));

  Transaction* t2 = db_->Begin();
  ASSERT_OK(db_->data()->Delete(t2, rid.value()));
  EXPECT_TRUE(db_->data()->Read(rid.value()).status().IsNotFound());
  ASSERT_OK(db_->Abort(t2));  // Heap-Delete undo: unmark
  EXPECT_OK(db_->data()->Read(rid.value()).status());
}

TEST_F(DataStoreTest, InsertUndoTombstones) {
  Transaction* txn = db_->Begin();
  auto rid = db_->data()->Insert(txn, "r");
  ASSERT_OK(rid.status());
  ASSERT_OK(db_->Abort(txn));  // Heap-Insert undo: mark slot free
  EXPECT_TRUE(db_->data()->Read(rid.value()).status().IsNotFound());
}

TEST_F(DataStoreTest, DoubleDeleteIsNotFound) {
  Transaction* t1 = db_->Begin();
  auto rid = db_->data()->Insert(t1, "r");
  ASSERT_OK(rid.status());
  ASSERT_OK(db_->data()->Delete(t1, rid.value()));
  EXPECT_TRUE(db_->data()->Delete(t1, rid.value()).IsNotFound());
  ASSERT_OK(db_->Commit(t1));
}

TEST_F(DataStoreTest, OversizedRecordRejected) {
  Transaction* txn = db_->Begin();
  const std::string huge(kPageSize, 'x');
  EXPECT_TRUE(db_->data()->Insert(txn, huge).status().code() == Status::Code::kInvalidArgument);
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(DataStoreTest, ChainGrowsAndRidsStayUnique) {
  Transaction* txn = db_->Begin();
  const std::string rec(1000, 'z');
  std::set<uint64_t> rids;
  for (int i = 0; i < 50; i++) {  // > 6 pages of 1000-byte records
    auto rid = db_->data()->Insert(txn, rec);
    ASSERT_OK(rid.status());
    EXPECT_TRUE(rids.insert(rid.value().Pack()).second);
  }
  ASSERT_OK(db_->Commit(txn));
  std::set<PageId> pages;
  for (uint64_t r : rids) pages.insert(Rid::Unpack(r).page_id);
  EXPECT_GT(pages.size(), 5u);
  for (uint64_t r : rids) {
    EXPECT_OK(db_->data()->Read(Rid::Unpack(r)).status());
  }
}

class PageAllocatorTest : public DataStoreTest {};

TEST_F(PageAllocatorTest, SequentialDistinctAllocations) {
  Transaction* txn = db_->Begin();
  std::set<PageId> pids;
  for (int i = 0; i < 300; i++) {
    auto pid = db_->allocator()->Allocate(txn);
    ASSERT_OK(pid.status());
    EXPECT_TRUE(pids.insert(pid.value()).second) << "dup " << pid.value();
    EXPECT_GE(pid.value(), PageAllocator::kFirstAllocatablePage);
  }
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(PageAllocatorTest, FreeMakesPageReallocatable) {
  Transaction* txn = db_->Begin();
  auto a = db_->allocator()->Allocate(txn);
  ASSERT_OK(a.status());
  auto b = db_->allocator()->Allocate(txn);
  ASSERT_OK(b.status());
  ASSERT_OK(db_->allocator()->Free(txn, a.value()));
  auto c = db_->allocator()->Allocate(txn);
  ASSERT_OK(c.status());
  EXPECT_EQ(c.value(), a.value());  // hint rewinds to freed pages
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(PageAllocatorTest, ApplyBitIdempotentUnderPageLsnTest) {
  Transaction* txn = db_->Begin();
  auto a = db_->allocator()->Allocate(txn);
  ASSERT_OK(a.status());
  ASSERT_OK(db_->Commit(txn));
  // Redo of a Free-Page older than the bitmap page is a no-op; with a
  // newer LSN ApplyBit applies it.
  LogRecord rec;
  rec.type = LogRecordType::kFreePage;
  PageAllocPayload pl;
  pl.target_page = a.value();
  pl.bitmap_page = PageAllocator::BitmapPageFor(a.value());
  pl.EncodeTo(&rec.payload);
  rec.lsn = 1;
  ASSERT_OK(db_->recovery()->RedoRecord(rec));
  EXPECT_TRUE(db_->allocator()->IsAllocated(a.value()).value());
  rec.lsn = db_->log()->last_lsn() + 1000;
  ASSERT_OK(db_->recovery()->RedoRecord(rec));
  EXPECT_FALSE(db_->allocator()->IsAllocated(a.value()).value());
}

TEST_F(PageAllocatorTest, BitmapPageMapping) {
  EXPECT_EQ(PageAllocator::BitmapPageFor(0), PageAllocator::kFirstBitmapPage);
  EXPECT_EQ(PageAllocator::BitmapPageFor(PageAllocator::kBitsPerPage - 1),
            PageAllocator::kFirstBitmapPage);
  EXPECT_EQ(PageAllocator::BitmapPageFor(PageAllocator::kBitsPerPage),
            PageAllocator::kFirstBitmapPage + 1);
}

}  // namespace
}  // namespace gistcr
