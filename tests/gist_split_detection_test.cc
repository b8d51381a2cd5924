#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "access/btree_extension.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

/// Figure 2 semantics: NSN assignment during splits and how traversals
/// detect missed splits and terminate their rightlink chains.
class SplitDetectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("split");
    RemoveDbFiles(path_);
    DatabaseOptions opts;
    opts.path = path_;
    opts.buffer_pool_pages = 512;
    auto db_or = Database::Create(opts);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 4;
    ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }

  void Insert(Transaction* txn, int64_t k) {
    ASSERT_OK(db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(k), "v")
                  .status());
  }

  struct NodeInfo {
    Nsn nsn;
    PageId rightlink;
    uint16_t level;
    uint16_t count;
  };
  NodeInfo ReadNode(PageId pid) {
    auto fr = db_->pool()->Fetch(pid);
    EXPECT_TRUE(fr.ok());
    PageGuard g(db_->pool(), fr.value());
    g.RLatch();
    NodeView nv(g.view().data());
    return {nv.nsn(), nv.rightlink(), nv.level(), nv.count()};
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

TEST_F(SplitDetectionTest, SplitAssignsNewNsnAndSiblingInheritsOld) {
  // Figure 2: the split increments the global counter, assigns the new
  // value to the ORIGINAL node; the new sibling receives the original's
  // prior NSN and rightlink.
  Transaction* txn = db_->Begin();
  for (int64_t k : {10, 20, 30, 40}) Insert(txn, k);
  const PageId orig = gist_->root_hint();
  const NodeInfo before = ReadNode(orig);
  const Nsn counter_before = db_->nsn()->Current();
  Insert(txn, 50);  // forces the root-leaf to split (root grows)
  ASSERT_OK(db_->Commit(txn));

  const NodeInfo after = ReadNode(orig);
  EXPECT_GT(after.nsn, before.nsn);
  EXPECT_GT(after.nsn, counter_before)
      << "NSN must exceed any counter value memorized before the split";
  ASSERT_NE(after.rightlink, kInvalidPageId);
  const NodeInfo sib = ReadNode(after.rightlink);
  EXPECT_EQ(sib.nsn, before.nsn);              // inherited prior NSN
  EXPECT_EQ(sib.rightlink, before.rightlink);  // inherited rightlink
  EXPECT_EQ(sib.level, before.level);
}

TEST_F(SplitDetectionTest, MultiSplitChainTerminatesAtMemorizedNsn) {
  // Split the same node repeatedly; a traverser holding the ORIGINAL
  // memorized counter value must follow the chain until it reaches a node
  // with NSN <= memorized (the chain end), and that walk must cover every
  // split-off sibling.
  Transaction* txn = db_->Begin();
  for (int64_t k : {10, 20, 30, 40}) Insert(txn, k);
  const PageId orig = gist_->root_hint();
  const Nsn memorized = db_->nsn()->Current();
  for (int64_t k = 100; k < 160; k++) Insert(txn, k);  // many splits
  ASSERT_OK(db_->Commit(txn));

  // Walk the chain from the original node as a traverser would.
  size_t chain_nodes = 0;
  size_t keys_seen = 0;
  PageId cur = orig;
  for (;;) {
    const NodeInfo info = ReadNode(cur);
    chain_nodes++;
    keys_seen += info.count;
    if (info.nsn <= memorized || info.rightlink == kInvalidPageId) break;
    cur = info.rightlink;
  }
  EXPECT_GT(chain_nodes, 2u) << "expected a multi-node split chain";
  // The chain from the original covers everything that ever lived there.
  EXPECT_GE(keys_seen, 4u);
}

TEST_F(SplitDetectionTest, NsnsAreMonotonePerNodeHistory) {
  Transaction* txn = db_->Begin();
  for (int64_t k = 0; k < 200; k++) Insert(txn, k);
  ASSERT_OK(db_->Commit(txn));
  // Every node's NSN is <= the current global counter.
  std::vector<IndexEntry> entries;
  ASSERT_OK(gist_->DumpEntries(&entries));
  const Nsn global = db_->nsn()->Current();
  std::vector<PageId> frontier{gist_->root_hint()};
  std::set<PageId> seen;
  while (!frontier.empty()) {
    const PageId pid = frontier.back();
    frontier.pop_back();
    if (!seen.insert(pid).second) continue;
    auto fr = db_->pool()->Fetch(pid);
    ASSERT_OK(fr.status());
    PageGuard g(db_->pool(), fr.value());
    g.RLatch();
    NodeView nv(g.view().data());
    EXPECT_LE(nv.nsn(), global);
    if (nv.rightlink() != kInvalidPageId) frontier.push_back(nv.rightlink());
    if (!nv.is_leaf()) {
      for (uint16_t i = 0; i < nv.count(); i++) {
        frontier.push_back(static_cast<PageId>(nv.entry_value(i)));
      }
    }
  }
}

TEST_F(SplitDetectionTest, SearcherFollowsChainBuiltDuringPause) {
  // Stronger Figure 2 variant: while the searcher is paused, the target
  // node splits TWICE, so compensation requires following two rightlinks.
  Transaction* setup = db_->Begin();
  for (int64_t k : {900, 910, 920, 1000}) Insert(setup, k);
  ASSERT_OK(db_->Commit(setup));

  std::mutex mu;
  std::condition_variable cv;
  bool paused = false, resume = false;
  gist_->test_hooks().after_root_push = [&] {
    std::unique_lock<std::mutex> l(mu);
    paused = true;
    cv.notify_all();
    cv.wait(l, [&] { return resume; });
  };

  std::vector<SearchResult> results;
  std::thread searcher([&] {
    Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(gist_->Search(txn, BtreeExtension::MakeRange(900, 1000),
                            &results));
    ASSERT_OK(db_->Commit(txn));
  });
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return paused; });
  }
  gist_->test_hooks().after_root_push = nullptr;

  // Two waves of inserts: the original root leaf splits repeatedly.
  Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
  for (int64_t k : {930, 940, 950, 960, 970, 980}) Insert(t2, k);
  ASSERT_OK(db_->Commit(t2));

  {
    std::lock_guard<std::mutex> l(mu);
    resume = true;
    cv.notify_all();
  }
  searcher.join();

  std::set<int64_t> found;
  for (const auto& r : results) found.insert(BtreeExtension::Lo(r.key));
  // All four committed-before-scan keys must be found despite the splits.
  for (int64_t k : {900, 910, 920, 1000}) {
    EXPECT_TRUE(found.count(k)) << "lost key " << k;
  }
  EXPECT_GT(gist_->stats().rightlink_follows.load(), 1u);
}

TEST_F(SplitDetectionTest, DeleteRootStepSeesRootGrow) {
  // A delete runs Figure 3's root step like any read: memorize the global
  // NSN, then read the root pointer. A root grow in between moves the
  // target key to the old root's new sibling; the memorized value lies
  // below the old root's new NSN, so the delete follows the rightlink and
  // marks the key. Read in the other order, the pointer names the old
  // root but the memorized value already covers the grow: the moved key
  // looks absent and the delete returns NotFound.
  Transaction* setup = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 0; k < 4; k++) {
    auto rid_or =
        db_->InsertRecord(setup, gist_, BtreeExtension::MakeKey(k), "v");
    ASSERT_OK(rid_or.status());
    rids.push_back(rid_or.value());
  }
  ASSERT_OK(db_->Commit(setup));
  const PageId old_root = gist_->root_hint();

  std::atomic<bool> fired{false};
  gist_->test_hooks().before_root_read = [&] {
    if (fired.exchange(true)) return;
    // A fifth key overfills the root leaf: the root grows, and the
    // median cut moves keys 2 and 3 to the new sibling.
    std::thread grower([&] {
      Transaction* txn = db_->Begin();
      Insert(txn, 4);
      ASSERT_OK(db_->Commit(txn));
    });
    grower.join();
  };

  Transaction* deleter = db_->Begin();
  ASSERT_OK(
      db_->DeleteRecord(deleter, gist_, BtreeExtension::MakeKey(3), rids[3]));
  gist_->test_hooks().before_root_read = nullptr;
  ASSERT_TRUE(fired.load());

  // The scenario held: the root grew, and key 3 left the old root.
  ASSERT_NE(gist_->root_hint(), old_root);
  const NodeInfo old_info = ReadNode(old_root);
  ASSERT_NE(old_info.rightlink, kInvalidPageId);
  {
    auto fr = db_->pool()->Fetch(old_info.rightlink);
    ASSERT_OK(fr.status());
    PageGuard g(db_->pool(), fr.value());
    g.RLatch();
    NodeView sib(g.view().data());
    const int idx =
        sib.FindByKeyValue(BtreeExtension::MakeKey(3), rids[3].Pack());
    ASSERT_GE(idx, 0) << "key 3 did not move to the new sibling";
    EXPECT_EQ(sib.entry_del_txn(static_cast<uint16_t>(idx)), deleter->id());
  }
  ASSERT_OK(db_->Commit(deleter));

  Transaction* reader = db_->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist_->Search(reader, BtreeExtension::MakeRange(0, 10), &results));
  ASSERT_OK(db_->Commit(reader));
  std::set<int64_t> found;
  for (const auto& r : results) found.insert(BtreeExtension::Lo(r.key));
  EXPECT_EQ(found, (std::set<int64_t>{0, 1, 2, 4}));
  EXPECT_OK(gist_->CheckInvariants());
}

TEST_F(SplitDetectionTest, InsertRootStepSeesRootGrow) {
  // An insert takes the same root step (PushRoot): memorize the global
  // NSN, then read the root pointer. A root grow in between moves keys 2
  // and 3 to the old root's new sibling; the memorized value lies below
  // the old root's new NSN, so the descent chases the rightlink and puts
  // key 10 on the chain's minimum-penalty leaf, the sibling. Read in the
  // other order, the memorized value already covers the grow: the insert
  // stops at the shrunken old root and widens it over the sibling's range.
  Transaction* setup = db_->Begin();
  for (int64_t k = 0; k < 4; k++) Insert(setup, k);
  ASSERT_OK(db_->Commit(setup));
  const PageId old_root = gist_->root_hint();

  std::atomic<bool> fired{false};
  gist_->test_hooks().before_root_read = [&] {
    if (fired.exchange(true)) return;
    // A fifth key overfills the root leaf: the root grows; keys 2-4 end
    // up on the new sibling, 0 and 1 on the old root.
    std::thread grower([&] {
      Transaction* txn = db_->Begin();
      Insert(txn, 4);
      ASSERT_OK(db_->Commit(txn));
    });
    grower.join();
  };

  Transaction* inserter = db_->Begin();
  auto rid_or =
      db_->InsertRecord(inserter, gist_, BtreeExtension::MakeKey(10), "v");
  gist_->test_hooks().before_root_read = nullptr;
  ASSERT_OK(rid_or.status());
  ASSERT_OK(db_->Commit(inserter));
  ASSERT_TRUE(fired.load());

  // The scenario held: the root grew and the old root kept keys 0 and 1.
  ASSERT_NE(gist_->root_hint(), old_root);
  const NodeInfo old_info = ReadNode(old_root);
  ASSERT_NE(old_info.rightlink, kInvalidPageId);
  auto holds_key_10 = [&](PageId pid) {
    auto fr = db_->pool()->Fetch(pid);
    EXPECT_TRUE(fr.ok());
    PageGuard g(db_->pool(), fr.value());
    g.RLatch();
    return NodeView(g.view().data())
               .FindByKeyValue(BtreeExtension::MakeKey(10),
                               rid_or.value().Pack()) >= 0;
  };
  EXPECT_TRUE(holds_key_10(old_info.rightlink))
      << "key 10 is not on the minimum-penalty leaf";
  EXPECT_FALSE(holds_key_10(old_root));

  Transaction* reader = db_->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist_->Search(reader, BtreeExtension::MakeRange(0, 20), &results));
  ASSERT_OK(db_->Commit(reader));
  std::set<int64_t> found;
  for (const auto& r : results) found.insert(BtreeExtension::Lo(r.key));
  EXPECT_EQ(found, (std::set<int64_t>{0, 1, 2, 3, 4, 10}));
  EXPECT_OK(gist_->CheckInvariants());
}

TEST_F(SplitDetectionTest, InsertAfterRootGrowFindsParentsWithoutStack) {
  // Cross-path check of the one parent search (LatchParentForChild). An
  // insert reads the root pointer while the root is a leaf and then waits
  // for the root's signaling lock. Meanwhile the root grows and the leaf
  // the insert will choose fills up. The insert resumes with an empty
  // parent stack and must split a non-root leaf: the split and the BP
  // update after it each find their parent although the stack has none.
  Transaction* setup = db_->Begin();
  for (int64_t k = 0; k < 4; k++) Insert(setup, k);
  ASSERT_OK(db_->Commit(setup));
  const PageId old_root = gist_->root_hint();

  // The grower X-locks the root leaf's signaling lock (its own inserts
  // still pass: they hold it), so the insert stops on its S request, just
  // after its root step and before it latches the root.
  Transaction* grower = db_->Begin();
  ASSERT_OK(db_->locks()->Lock(grower->id(),
                               LockName{LockSpace::kNode, old_root},
                               LockMode::kExclusive));
  Transaction* inserter = db_->Begin();
  Status insert_status;
  std::thread t([&] {
    insert_status =
        db_->InsertRecord(inserter, gist_, BtreeExtension::MakeKey(10), "v")
            .status();
  });
  bool waiting = false;
  for (int i = 0; i < 10000 && !waiting; i++) {
    for (const auto& [waiter, holder] : db_->locks()->WaitEdges()) {
      waiting |= waiter == inserter->id() && holder == grower->id();
    }
    if (!waiting) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(waiting) << "the insert never waited on the root";

  // Key 4 grows the root: 0 and 1 stay on the old root, 2-4 go to the new
  // sibling, which key 5 fills. That sibling has the lower penalty for 10.
  Insert(grower, 4);
  Insert(grower, 5);
  EXPECT_OK(db_->Commit(grower));  // no ASSERT before the join
  t.join();
  ASSERT_OK(insert_status);
  ASSERT_OK(db_->Commit(inserter));

  // One root grow, then the insert's split of the full non-root leaf: a
  // root of height 1 over three leaves.
  EXPECT_EQ(gist_->stats().root_grows.load(), 1u);
  const NodeInfo root = ReadNode(gist_->root_hint());
  EXPECT_EQ(root.level, 1u);
  EXPECT_EQ(root.count, 3u);

  Transaction* reader = db_->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist_->Search(reader, BtreeExtension::MakeRange(0, 20), &results));
  ASSERT_OK(db_->Commit(reader));
  std::set<int64_t> found;
  for (const auto& r : results) found.insert(BtreeExtension::Lo(r.key));
  EXPECT_EQ(found, (std::set<int64_t>{0, 1, 2, 3, 4, 5, 10}));
  EXPECT_OK(gist_->CheckInvariants());
}

}  // namespace
}  // namespace gistcr
