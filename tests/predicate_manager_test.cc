#include <gtest/gtest.h>

#include "access/btree_extension.h"
#include "tests/test_util.h"
#include "txn/predicate_manager.h"

namespace gistcr {
namespace {

class PredicateManagerTest : public ::testing::Test {
 protected:
  PredicateManager pm_;
  BtreeExtension ext_;

  PredicateManager::ConflictFn InsertConflicts(const std::string& key) {
    return [this, key](const PredAttachment& a) {
      return a.kind != PredKind::kInsert &&
             ext_.Consistent(key, a.pred);
    };
  }
};

TEST_F(PredicateManagerTest, AttachIsIdempotent) {
  const std::string q = BtreeExtension::MakeRange(1, 10);
  pm_.Attach(5, 1, 1, PredKind::kSearch, q);
  pm_.Attach(5, 1, 1, PredKind::kSearch, q);  // scan revisits after split
  EXPECT_EQ(pm_.GetAttached(5).size(), 1u);
}

TEST_F(PredicateManagerTest, InsertSeesConflictingSearchPred) {
  const std::string q = BtreeExtension::MakeRange(1, 10);
  pm_.Attach(5, 1, 1, PredKind::kSearch, q);
  auto conflicts = pm_.AttachAndFindConflicts(
      5, 2, 1, PredKind::kInsert, BtreeExtension::MakeKey(7),
      InsertConflicts(BtreeExtension::MakeKey(7)));
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0], 1u);
}

TEST_F(PredicateManagerTest, InsertOutsideRangeDoesNotConflict) {
  pm_.Attach(5, 1, 1, PredKind::kSearch, BtreeExtension::MakeRange(1, 10));
  auto conflicts = pm_.AttachAndFindConflicts(
      5, 2, 1, PredKind::kInsert, BtreeExtension::MakeKey(50),
      InsertConflicts(BtreeExtension::MakeKey(50)));
  EXPECT_TRUE(conflicts.empty());
}

TEST_F(PredicateManagerTest, OwnPredicatesNeverConflict) {
  pm_.Attach(5, 1, 1, PredKind::kSearch, BtreeExtension::MakeRange(1, 10));
  auto conflicts = pm_.AttachAndFindConflicts(
      5, 1, 2, PredKind::kInsert, BtreeExtension::MakeKey(5),
      InsertConflicts(BtreeExtension::MakeKey(5)));
  EXPECT_TRUE(conflicts.empty());
}

TEST_F(PredicateManagerTest, FifoOrderOnlyChecksAhead) {
  // An insert attaches its key first; a later scan conflicts with it.
  pm_.AttachAndFindConflicts(5, 1, 1, PredKind::kInsert,
                             BtreeExtension::MakeKey(7),
                             [](const PredAttachment&) { return false; });
  const std::string q = BtreeExtension::MakeRange(1, 10);
  auto conflicts = pm_.AttachAndFindConflicts(
      5, 2, 1, PredKind::kSearch, q, [&](const PredAttachment& a) {
        return a.kind == PredKind::kInsert &&
               ext_.Consistent(a.pred, q);
      });
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0], 1u);
}

TEST_F(PredicateManagerTest, DetachOpRemovesInsertAndProbeOnly) {
  pm_.Attach(5, 1, 3, PredKind::kSearch, BtreeExtension::MakeRange(1, 2));
  pm_.Attach(5, 1, 3, PredKind::kInsert, BtreeExtension::MakeKey(1));
  pm_.Attach(6, 1, 3, PredKind::kUniqueProbe,
             BtreeExtension::MakeRange(1, 1));
  pm_.DetachOp(1, 3);
  EXPECT_EQ(pm_.GetAttached(5).size(), 1u);  // search pred survives
  EXPECT_EQ(pm_.GetAttached(5)[0].kind, PredKind::kSearch);
  EXPECT_TRUE(pm_.GetAttached(6).empty());
}

TEST_F(PredicateManagerTest, ReleaseTxnClearsEverything) {
  pm_.Attach(5, 1, 1, PredKind::kSearch, BtreeExtension::MakeRange(1, 2));
  pm_.Attach(6, 1, 2, PredKind::kInsert, BtreeExtension::MakeKey(3));
  pm_.Attach(5, 2, 1, PredKind::kSearch, BtreeExtension::MakeRange(4, 9));
  pm_.ReleaseTxn(1);
  EXPECT_EQ(pm_.TotalAttachments(), 1u);
  EXPECT_EQ(pm_.GetAttached(5)[0].txn, 2u);
}

TEST_F(PredicateManagerTest, ReplicateOnSplitCopiesConsistentPreds) {
  // Node 5 holds scans over [1,10] and [90,95]; after a split where the
  // new sibling covers [50,100], only the second must be replicated.
  pm_.Attach(5, 1, 1, PredKind::kSearch, BtreeExtension::MakeRange(1, 10));
  pm_.Attach(5, 2, 1, PredKind::kSearch, BtreeExtension::MakeRange(90, 95));
  const std::string new_bp = BtreeExtension::MakeRange(50, 100);
  pm_.ReplicateOnSplit(5, 9, [&](const PredAttachment& a) {
    return ext_.Consistent(new_bp, a.pred);
  });
  auto on_new = pm_.GetAttached(9);
  ASSERT_EQ(on_new.size(), 1u);
  EXPECT_EQ(on_new[0].txn, 2u);
  // Originals stay on node 5.
  EXPECT_EQ(pm_.GetAttached(5).size(), 2u);
}

TEST_F(PredicateManagerTest, PercolateMovesNewlyConsistentPreds) {
  // Parent has a scan over [40,60]; child BP expands from [1,10] to
  // [1,50]: the scan now overlaps the child and must come down.
  pm_.Attach(3, 1, 1, PredKind::kSearch, BtreeExtension::MakeRange(40, 60));
  pm_.Attach(3, 2, 1, PredKind::kSearch, BtreeExtension::MakeRange(2, 4));
  const std::string old_bp = BtreeExtension::MakeRange(1, 10);
  const std::string new_bp = BtreeExtension::MakeRange(1, 50);
  pm_.Percolate(3, 8, [&](const PredAttachment& a) {
    return ext_.Consistent(new_bp, a.pred) &&
           !ext_.Consistent(old_bp, a.pred);
  });
  auto on_child = pm_.GetAttached(8);
  ASSERT_EQ(on_child.size(), 1u);
  EXPECT_EQ(on_child[0].txn, 1u);
}

TEST_F(PredicateManagerTest, GlobalTableModeAccumulates) {
  pm_.Attach(PredicateManager::kGlobalTable, 1, 1, PredKind::kSearch,
             BtreeExtension::MakeRange(1, 100));
  auto conflicts = pm_.FindConflicts(
      PredicateManager::kGlobalTable, 2,
      InsertConflicts(BtreeExtension::MakeKey(42)));
  ASSERT_EQ(conflicts.size(), 1u);
}

TEST_F(PredicateManagerTest, StatsCountScans) {
  obs::MetricsRegistry reg;
  pm_.AttachMetrics(&reg);
  pm_.Attach(5, 1, 1, PredKind::kSearch, BtreeExtension::MakeRange(1, 10));
  pm_.AttachAndFindConflicts(5, 2, 1, PredKind::kInsert,
                             BtreeExtension::MakeKey(5),
                             InsertConflicts(BtreeExtension::MakeKey(5)));
  EXPECT_EQ(reg.GetCounter("pred.attaches")->load(), 2u);
  EXPECT_EQ(reg.GetCounter("pred.conflict_checks")->load(), 1u);
  EXPECT_EQ(reg.GetCounter("pred.predicates_scanned")->load(), 1u);
}

TEST_F(PredicateManagerTest, DistinctOwnersDeduplicated) {
  pm_.Attach(5, 1, 1, PredKind::kSearch, BtreeExtension::MakeRange(1, 10));
  pm_.Attach(5, 1, 2, PredKind::kSearch, BtreeExtension::MakeRange(5, 20));
  auto conflicts = pm_.AttachAndFindConflicts(
      5, 2, 1, PredKind::kInsert, BtreeExtension::MakeKey(7),
      InsertConflicts(BtreeExtension::MakeKey(7)));
  EXPECT_EQ(conflicts.size(), 1u);  // same owner appears once
}

}  // namespace
}  // namespace gistcr
