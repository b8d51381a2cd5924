#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "access/btree_extension.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

/// The drain technique of paper section 7.2: a node may only be retired
/// when no traversal holds a direct or indirect pointer to it, tracked by
/// S-mode signaling locks and checked with a try-X lock.
class NodeDeletionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("nodedel");
    RemoveDbFiles(path_);
    DatabaseOptions opts;
    opts.path = path_;
    opts.buffer_pool_pages = 512;
    auto db_or = Database::Create(opts);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 8;
    ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }

  /// Insert keys 0..n-1, then delete them all (committed).
  void FillAndDeleteAll(int64_t n) {
    Transaction* t1 = db_->Begin();
    std::vector<Rid> rids;
    for (int64_t k = 0; k < n; k++) {
      auto rid =
          db_->InsertRecord(t1, gist_, BtreeExtension::MakeKey(k), "v");
      ASSERT_OK(rid.status());
      rids.push_back(rid.value());
    }
    ASSERT_OK(db_->Commit(t1));
    Transaction* t2 = db_->Begin();
    for (int64_t k = 0; k < n; k++) {
      ASSERT_OK(db_->DeleteRecord(t2, gist_, BtreeExtension::MakeKey(k),
                                  rids[static_cast<size_t>(k)]));
    }
    ASSERT_OK(db_->Commit(t2));
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

TEST_F(NodeDeletionTest, EmptyNodesRetiredAndPagesReused) {
  FillAndDeleteAll(200);
  Transaction* txn = db_->Begin();
  uint64_t removed = 0, deleted = 0, removed2 = 0, deleted2 = 0;
  ASSERT_OK(gist_->GarbageCollect(txn, &removed, &deleted));
  ASSERT_OK(gist_->GarbageCollect(txn, &removed2, &deleted2));
  ASSERT_OK(db_->Commit(txn));
  EXPECT_EQ(removed, 200u);
  const uint64_t total_deleted = deleted + deleted2;
  EXPECT_GT(total_deleted, 5u);
  ASSERT_OK(gist_->CheckInvariants());

  // Freed pages are reallocated by later splits.
  Transaction* t3 = db_->Begin();
  for (int64_t k = 0; k < 200; k++) {
    ASSERT_OK(db_->InsertRecord(t3, gist_, BtreeExtension::MakeKey(k), "v")
                  .status());
  }
  ASSERT_OK(db_->Commit(t3));
  ASSERT_OK(gist_->CheckInvariants());
}

TEST_F(NodeDeletionTest, SignalingLockDefersDeletion) {
  FillAndDeleteAll(200);

  // A searcher pauses mid-traversal, holding signaling locks on every
  // stacked (yet-to-be-visited) node pointer.
  std::mutex mu;
  std::condition_variable cv;
  bool paused = false, resume = false;
  std::atomic<bool> hook_armed{true};
  std::atomic<int> visits{0};
  // Pause deep into the depth-first traversal: by the fifth visit a
  // leaf-level parent has been processed, so several *leaf* pointers sit
  // on the searcher's stack, each protected by an S-mode signaling lock.
  gist_->test_hooks().before_visit_node = [&](PageId) {
    if (!hook_armed.load()) return;
    if (visits.fetch_add(1) != 4) return;
    std::unique_lock<std::mutex> l(mu);
    paused = true;
    cv.notify_all();
    cv.wait(l, [&] { return resume; });
  };

  std::thread searcher([&] {
    Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
    std::vector<SearchResult> results;
    ASSERT_OK(gist_->Search(txn, BtreeExtension::MakeRange(0, 200),
                            &results));
    EXPECT_TRUE(results.empty());
    ASSERT_OK(db_->Commit(txn));
  });
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return paused; });
  }
  hook_armed = false;

  // GC while the searcher holds its stack: leaf entries can be collected,
  // but nodes the searcher points to must not be retired. The searcher's
  // first pending pointer is the root, whose children are all stack
  // candidates; deletion of at least those is deferred.
  Transaction* t1 = db_->Begin();
  uint64_t removed = 0, deleted_during = 0;
  ASSERT_OK(gist_->GarbageCollect(t1, &removed, &deleted_during));
  ASSERT_OK(db_->Commit(t1));
  EXPECT_EQ(removed, 200u);

  // Resume the searcher; it drains its stack and releases the locks.
  {
    std::lock_guard<std::mutex> l(mu);
    resume = true;
    cv.notify_all();
  }
  searcher.join();
  gist_->test_hooks().before_visit_node = nullptr;

  Transaction* t2 = db_->Begin();
  uint64_t removed2 = 0, deleted_after = 0, r3 = 0, d3 = 0;
  ASSERT_OK(gist_->GarbageCollect(t2, &removed2, &deleted_after));
  ASSERT_OK(gist_->GarbageCollect(t2, &r3, &d3));
  ASSERT_OK(db_->Commit(t2));
  // The nodes whose deletion the signaling locks deferred become
  // retirable only after the searcher drained its stack.
  EXPECT_GT(deleted_after + d3, 0u);
  ASSERT_OK(gist_->CheckInvariants());
}

TEST_F(NodeDeletionTest, RootNeverDeleted) {
  FillAndDeleteAll(8);  // single-leaf tree, root is that leaf
  Transaction* txn = db_->Begin();
  uint64_t removed = 0, deleted = 0;
  ASSERT_OK(gist_->GarbageCollect(txn, &removed, &deleted));
  ASSERT_OK(db_->Commit(txn));
  EXPECT_EQ(removed, 8u);
  EXPECT_EQ(deleted, 0u);
  // Root still present and usable.
  Transaction* t2 = db_->Begin();
  ASSERT_OK(db_->InsertRecord(t2, gist_, BtreeExtension::MakeKey(1), "v")
                .status());
  ASSERT_OK(db_->Commit(t2));
  ASSERT_OK(gist_->CheckInvariants());
}

TEST_F(NodeDeletionTest, ActiveDeleterMarksBlockGc) {
  // Entries marked by a still-active transaction are not collectible.
  Transaction* t1 = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 0; k < 20; k++) {
    auto rid = db_->InsertRecord(t1, gist_, BtreeExtension::MakeKey(k), "v");
    ASSERT_OK(rid.status());
    rids.push_back(rid.value());
  }
  ASSERT_OK(db_->Commit(t1));
  Transaction* deleter = db_->Begin();
  for (int64_t k = 0; k < 20; k++) {
    ASSERT_OK(db_->DeleteRecord(deleter, gist_, BtreeExtension::MakeKey(k),
                                rids[static_cast<size_t>(k)]));
  }
  Transaction* gc_txn = db_->Begin();
  uint64_t removed = 0, deleted = 0;
  ASSERT_OK(gist_->GarbageCollect(gc_txn, &removed, &deleted));
  EXPECT_EQ(removed, 0u);  // deleter still active
  ASSERT_OK(db_->Commit(deleter));
  uint64_t removed2 = 0;
  ASSERT_OK(gist_->GarbageCollect(gc_txn, &removed2, &deleted));
  ASSERT_OK(db_->Commit(gc_txn));
  EXPECT_EQ(removed2, 20u);
}

// Snapshot readers stack node pointers without signaling locks, so an open
// snapshot defers node retirement wholesale (DESIGN.md section 14.4). Its
// entries still go: their deletes committed before the snapshot began.
TEST_F(NodeDeletionTest, OpenSnapshotDefersRetirement) {
  FillAndDeleteAll(200);
  obs::Counter* deferred =
      db_->metrics()->GetCounter("mvcc.node_retire_deferred");
  const uint64_t deferred_before = deferred->value();
  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(snap->is_snapshot());

  Transaction* t1 = db_->Begin();
  uint64_t removed = 0, deleted = 0, removed2 = 0, deleted2 = 0;
  ASSERT_OK(gist_->GarbageCollect(t1, &removed, &deleted));
  ASSERT_OK(gist_->GarbageCollect(t1, &removed2, &deleted2));
  ASSERT_OK(db_->Commit(t1));
  EXPECT_EQ(removed + removed2, 200u);
  EXPECT_EQ(deleted + deleted2, 0u);
  EXPECT_GT(deferred->value(), deferred_before);
  ASSERT_OK(db_->Commit(snap));

  Transaction* t2 = db_->Begin();
  uint64_t r3 = 0, d3 = 0, r4 = 0, d4 = 0;
  ASSERT_OK(gist_->GarbageCollect(t2, &r3, &d3));
  ASSERT_OK(gist_->GarbageCollect(t2, &r4, &d4));
  ASSERT_OK(db_->Commit(t2));
  EXPECT_GT(d3 + d4, 5u);
  ASSERT_OK(gist_->CheckInvariants());
}

}  // namespace
}  // namespace gistcr
