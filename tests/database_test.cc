#include <gtest/gtest.h>

#include "access/btree_extension.h"
#include "access/rtree_extension.h"
#include "db/meta_page.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("dbfacade");
    RemoveDbFiles(path_);
    opts_.path = path_;
    opts_.buffer_pool_pages = 512;
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }
  std::string path_;
  DatabaseOptions opts_;
  std::unique_ptr<Database> db_;
  BtreeExtension bt_;
  RtreeExtension rt_;
};

TEST_F(DatabaseTest, CreateOpenLifecycle) {
  {
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    ASSERT_OK(db_->CreateIndex(1, &bt_));
    Transaction* txn = db_->Begin();
    ASSERT_OK(db_->InsertRecord(txn, db_->GetIndex(1).value(),
                                BtreeExtension::MakeKey(5), "hello")
                  .status());
    ASSERT_OK(db_->Commit(txn));
    db_.reset();  // clean shutdown flushes
  }
  auto db_or = Database::Open(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->OpenIndex(1, &bt_));
  Gist* gist = db_->GetIndex(1).value();
  Transaction* txn = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(5, 5), &results));
  ASSERT_EQ(results.size(), 1u);
  auto rec = db_->ReadRecord(results[0].rid);
  ASSERT_OK(rec.status());
  EXPECT_EQ(rec.value(), "hello");
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(DatabaseTest, MultipleIndexesCoexist) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->CreateIndex(1, &bt_));
  ASSERT_OK(db_->CreateIndex(2, &rt_));
  Gist* btree = db_->GetIndex(1).value();
  Gist* rtree = db_->GetIndex(2).value();

  Transaction* txn = db_->Begin();
  for (int i = 0; i < 50; i++) {
    ASSERT_OK(db_->InsertRecord(txn, btree, BtreeExtension::MakeKey(i),
                                std::string("b").append(std::to_string(i)))
                  .status());
    ASSERT_OK(db_->InsertRecord(
                    txn, rtree,
                    RtreeExtension::MakeKey(Rect::Point(i, i)),
                    std::string("r").append(std::to_string(i)))
                  .status());
  }
  ASSERT_OK(db_->Commit(txn));
  ASSERT_OK(btree->CheckInvariants());
  ASSERT_OK(rtree->CheckInvariants());

  Transaction* t2 = db_->Begin();
  std::vector<SearchResult> b_results, r_results;
  ASSERT_OK(btree->Search(t2, BtreeExtension::MakeRange(0, 100), &b_results));
  ASSERT_OK(rtree->Search(
      t2, RtreeExtension::MakeWindowQuery(Rect{-1, -1, 100, 100}),
      &r_results));
  EXPECT_EQ(b_results.size(), 50u);
  EXPECT_EQ(r_results.size(), 50u);
  ASSERT_OK(db_->Commit(t2));
}

TEST_F(DatabaseTest, GetUnknownIndexIsNotFound) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  EXPECT_TRUE(db_->GetIndex(99).status().IsNotFound());
}

TEST_F(DatabaseTest, OpenMissingIndexFails) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  EXPECT_TRUE(db_->OpenIndex(7, &bt_).IsNotFound());
}

TEST_F(DatabaseTest, ManyRecordsAcrossHeapPages) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->CreateIndex(1, &bt_));
  Gist* gist = db_->GetIndex(1).value();
  const std::string big(512, 'x');
  Transaction* txn = db_->Begin();
  std::vector<Rid> rids;
  for (int i = 0; i < 200; i++) {  // > one heap page of 512-byte records
    auto rid =
        db_->InsertRecord(txn, gist, BtreeExtension::MakeKey(i), big);
    ASSERT_OK(rid.status());
    rids.push_back(rid.value());
  }
  ASSERT_OK(db_->Commit(txn));
  std::set<PageId> heap_pages;
  for (const Rid& r : rids) heap_pages.insert(r.page_id);
  EXPECT_GT(heap_pages.size(), 1u);
  for (const Rid& r : rids) {
    auto rec = db_->ReadRecord(r);
    ASSERT_OK(rec.status());
    EXPECT_EQ(rec.value(), big);
  }
}

TEST_F(DatabaseTest, HeapChainSurvivesReopen) {
  {
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    ASSERT_OK(db_->CreateIndex(1, &bt_));
    Gist* gist = db_->GetIndex(1).value();
    const std::string big(1024, 'y');
    Transaction* txn = db_->Begin();
    for (int i = 0; i < 100; i++) {
      ASSERT_OK(db_->InsertRecord(txn, gist, BtreeExtension::MakeKey(i), big)
                    .status());
    }
    ASSERT_OK(db_->Commit(txn));
    db_.reset();
  }
  auto db_or = Database::Open(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->OpenIndex(1, &bt_));
  Gist* gist = db_->GetIndex(1).value();
  Transaction* txn = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 100), &results));
  EXPECT_EQ(results.size(), 100u);
  for (const auto& r : results) {
    EXPECT_OK(db_->ReadRecord(r.rid).status());
  }
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(DatabaseTest, PageAllocatorRoundTrip) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  Transaction* txn = db_->Begin();
  auto a = db_->allocator()->Allocate(txn);
  auto b = db_->allocator()->Allocate(txn);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_NE(a.value(), b.value());
  EXPECT_TRUE(db_->allocator()->IsAllocated(a.value()).value());
  ASSERT_OK(db_->allocator()->Free(txn, a.value()));
  EXPECT_FALSE(db_->allocator()->IsAllocated(a.value()).value());
  // Freed page is handed out again.
  auto c = db_->allocator()->Allocate(txn);
  ASSERT_OK(c.status());
  EXPECT_EQ(c.value(), a.value());
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(DatabaseTest, AllocatorUndoneOnAbort) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  Transaction* txn = db_->Begin();
  auto a = db_->allocator()->Allocate(txn);
  ASSERT_OK(a.status());
  ASSERT_OK(db_->Abort(txn));
  // Get-Page undo (Table 1) returned the page.
  EXPECT_FALSE(db_->allocator()->IsAllocated(a.value()).value());
}

TEST_F(DatabaseTest, PrepareShutdownStopsMaintenance) {
  opts_.maintenance_interval_ms = 10;  // fast daemon to race against
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->CreateIndex(1, &bt_));

  Transaction* txn = db_->Begin();
  ASSERT_OK(db_->InsertRecord(txn, db_->GetIndex(1).value(),
                              BtreeExtension::MakeKey(1), "v")
                .status());
  ASSERT_OK(db_->Commit(txn));

  // The latch joins the daemon and refuses further passes...
  db_->PrepareShutdown();
  EXPECT_TRUE(db_->RunMaintenancePass().IsAborted());
  // ...but an explicit checkpoint (the drain sequence's final act) still
  // works, and the latch is idempotent.
  ASSERT_OK(db_->Checkpoint());
  db_->PrepareShutdown();
  EXPECT_TRUE(db_->RunMaintenancePass().IsAborted());

  // The database remains fully usable for in-flight work.
  txn = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(db_->GetIndex(1).value()->Search(
      txn, BtreeExtension::MakeRange(1, 1), &results));
  EXPECT_EQ(results.size(), 1u);
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(DatabaseTest, CheckpointWritesMasterPointer) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->Checkpoint());
  FILE* f = fopen((path_ + ".ckpt").c_str(), "r");
  ASSERT_NE(f, nullptr);
  unsigned long long v = 0;
  ASSERT_EQ(fscanf(f, "%llu", &v), 1);
  fclose(f);
  EXPECT_GT(v, 0u);
}

// A unique insert pops the savepoint it rolls a duplicate back to, on
// every return: a transaction of many unique inserts holds only the
// savepoints its caller took, and those still roll back.
TEST_F(DatabaseTest, UniqueInsertsLeaveNoSavepointBehind) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->CreateIndex(1, &bt_));
  Gist* gist = db_->GetIndex(1).value();
  Transaction* txn = db_->Begin();
  ASSERT_OK(db_->InsertRecord(txn, gist, BtreeExtension::MakeKey(-1), "kept",
                              /*unique=*/true)
                .status());
  ASSERT_OK(db_->txns()->Savepoint(txn, "caller"));
  int duplicates = 0;
  for (int i = 0; i < 1000; i++) {
    const int64_t k = i < 900 ? i : i - 900;  // the last 100 are duplicates
    auto rid_or = db_->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                    "v", /*unique=*/true);
    if (rid_or.status().IsDuplicateKey()) {
      duplicates++;
    } else {
      ASSERT_OK(rid_or.status());
    }
  }
  EXPECT_EQ(duplicates, 100);
  ASSERT_EQ(txn->savepoints().size(), 1u);
  EXPECT_EQ(txn->savepoints()[0].name, "caller");

  ASSERT_OK(db_->txns()->RollbackToSavepoint(txn, "caller"));
  ASSERT_OK(db_->Commit(txn));
  Transaction* reader = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(reader, BtreeExtension::MakeRange(-1, 1000),
                         &results));
  ASSERT_OK(db_->Commit(reader));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(BtreeExtension::Lo(results[0].key), -1);
}

// Create formats its pages unlogged and appends no log record: the heap
// allocates its first page on its first insert.
TEST_F(DatabaseTest, CreateAppendsNoLogRecord) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  EXPECT_EQ(db_->log()->next_lsn(), LogManager::kFirstLsn);
}

// An index id that cannot be registered is refused before anything is
// allocated or logged: id 0 (the meta page's free-slot marker), an id in
// use, and one past a full root table. No bootstrap transaction is left
// open, the existing index keeps working, and the database reopens.
TEST_F(DatabaseTest, CreateIndexRejectsUnusableIds) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->CreateIndex(1, &bt_));
  EXPECT_EQ(db_->CreateIndex(0, &bt_).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(db_->CreateIndex(1, &bt_).code(), Status::Code::kInvalidArgument);
  for (uint32_t id = 2; id <= MetaView::kMaxIndexes; id++) {
    ASSERT_OK(db_->CreateIndex(id, &bt_));
  }
  EXPECT_EQ(db_->CreateIndex(MetaView::kMaxIndexes + 1, &bt_).code(),
            Status::Code::kNoSpace);
  EXPECT_TRUE(db_->txns()->ActiveTxns().empty());

  Gist* gist = db_->GetIndex(1).value();
  Transaction* txn = db_->Begin();
  ASSERT_OK(db_->InsertRecord(txn, gist, BtreeExtension::MakeKey(7), "v")
                .status());
  ASSERT_OK(db_->Commit(txn));
  db_.reset();

  db_or = Database::Open(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->WaitForRecovery());
  ASSERT_OK(db_->OpenIndex(1, &bt_));
  ASSERT_OK(db_->OpenIndex(MetaView::kMaxIndexes, &bt_));
  gist = db_->GetIndex(1).value();
  txn = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 100), &results));
  EXPECT_EQ(results.size(), 1u);
  ASSERT_OK(db_->Commit(txn));
  ASSERT_OK(gist->CheckInvariants());
}

}  // namespace
}  // namespace gistcr
