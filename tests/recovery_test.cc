#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "access/btree_extension.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace gistcr {
namespace {

/// Crash/restart scenarios for the recovery protocol of paper section 9.
/// A "crash" drops the buffer pool and the unflushed log tail (volatile
/// state), exactly the WAL failure model; the database is then re-Opened,
/// which runs analysis / redo / undo.
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("rec");
    RemoveDbFiles(path_);
    opts_.path = path_;
    opts_.buffer_pool_pages = 512;
    auto db_or = Database::Create(opts_);
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

  /// Crash and reopen; reattaches gist_.
  void CrashAndRecover() {
    db_->SimulateCrash();
    db_.reset();
    auto db_or = Database::Open(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    // These tests assert the settled post-recovery state (and restart
    // stats), so drain instant restart's background phase first.
    ASSERT_OK(db_->WaitForRecovery());
    GistOptions gopts;
    gopts.max_entries = 8;
    ASSERT_OK(db_->OpenIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
  }

  Rid MustInsert(Transaction* txn, int64_t key) {
    auto rid =
        db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(key), "v");
    EXPECT_OK(rid.status());
    return rid.ok() ? rid.value() : Rid{};
  }

  std::vector<int64_t> ScanAll() {
    Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
    std::vector<SearchResult> results;
    EXPECT_OK(gist_->Search(
        txn, BtreeExtension::MakeRange(INT64_MIN / 2, INT64_MAX / 2),
        &results));
    EXPECT_OK(db_->Commit(txn));
    std::vector<int64_t> keys;
    for (const auto& r : results) keys.push_back(BtreeExtension::Lo(r.key));
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  std::string path_;
  DatabaseOptions opts_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

TEST_F(RecoveryTest, CommittedInsertsSurviveCrash) {
  Transaction* txn = db_->Begin();
  for (int64_t k = 0; k < 100; k++) MustInsert(txn, k);
  ASSERT_OK(db_->Commit(txn));  // commit forces the log
  CrashAndRecover();
  ASSERT_OK(gist_->CheckInvariants());
  auto keys = ScanAll();
  ASSERT_EQ(keys.size(), 100u);
  for (int64_t k = 0; k < 100; k++) EXPECT_EQ(keys[static_cast<size_t>(k)], k);
  // Heap records intact too.
  Transaction* t2 = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(gist_->Search(t2, BtreeExtension::MakeRange(7, 7), &results));
  ASSERT_EQ(results.size(), 1u);
  auto rec = db_->ReadRecord(results[0].rid);
  ASSERT_OK(rec.status());
  EXPECT_EQ(rec.value(), "v");
  ASSERT_OK(db_->Commit(t2));
}

TEST_F(RecoveryTest, UncommittedInsertsUndoneOnRestart) {
  Transaction* committed = db_->Begin();
  for (int64_t k = 0; k < 50; k++) MustInsert(committed, k);
  ASSERT_OK(db_->Commit(committed));

  Transaction* loser = db_->Begin();
  for (int64_t k = 100; k < 150; k++) MustInsert(loser, k);
  // Force the loser's records to disk, then crash before it commits.
  ASSERT_OK(db_->log()->FlushAll());
  CrashAndRecover();
  EXPECT_GT(db_->metrics()->GetCounter("recovery.loser_txns")->load(), 0u);
  EXPECT_GT(db_->metrics()->GetCounter("recovery.records_undone")->load(),
            0u);
  ASSERT_OK(gist_->CheckInvariants());
  auto keys = ScanAll();
  ASSERT_EQ(keys.size(), 50u);
  EXPECT_EQ(keys.back(), 49);
}

TEST_F(RecoveryTest, UnflushedUncommittedWorkSimplyVanishes) {
  Transaction* committed = db_->Begin();
  MustInsert(committed, 1);
  ASSERT_OK(db_->Commit(committed));
  Transaction* loser = db_->Begin();
  MustInsert(loser, 2);  // never flushed, never committed
  CrashAndRecover();
  EXPECT_EQ(ScanAll(), (std::vector<int64_t>{1}));
}

TEST_F(RecoveryTest, CommittedDeleteSurvivesCrash) {
  Transaction* t1 = db_->Begin();
  const Rid rid = MustInsert(t1, 7);
  MustInsert(t1, 8);
  ASSERT_OK(db_->Commit(t1));
  Transaction* t2 = db_->Begin();
  ASSERT_OK(db_->DeleteRecord(t2, gist_, BtreeExtension::MakeKey(7), rid));
  ASSERT_OK(db_->Commit(t2));
  CrashAndRecover();
  EXPECT_EQ(ScanAll(), (std::vector<int64_t>{8}));
  EXPECT_TRUE(db_->ReadRecord(rid).status().IsNotFound());
}

TEST_F(RecoveryTest, UncommittedDeleteUnmarkedOnRestart) {
  Transaction* t1 = db_->Begin();
  const Rid rid = MustInsert(t1, 7);
  ASSERT_OK(db_->Commit(t1));
  Transaction* loser = db_->Begin();
  ASSERT_OK(db_->DeleteRecord(loser, gist_, BtreeExtension::MakeKey(7), rid));
  ASSERT_OK(db_->log()->FlushAll());
  CrashAndRecover();
  EXPECT_EQ(ScanAll(), (std::vector<int64_t>{7}));
  EXPECT_OK(db_->ReadRecord(rid).status());
}

TEST_F(RecoveryTest, InterruptedSplitRolledBack) {
  // Fill a leaf, then crash an insert right before its split NTA commits:
  // the half-done structure modification must be reversed by restart undo
  // (paper section 9: "a node split interrupted by a system crash before a
  // parent entry could be installed").
  Transaction* t1 = db_->Begin();
  for (int64_t k = 0; k < 8; k++) MustInsert(t1, k * 10);
  ASSERT_OK(db_->Commit(t1));
  const auto splits_before = gist_->stats().splits.load();

  gist_->test_hooks().before_split_nta_end = [&]() -> Status {
    // Make sure the partial NTA is durable, then "crash" the operation.
    GISTCR_CHECK(db_->log()->FlushAll().ok());
    return Status::IOError("injected crash before NTA end");
  };
  Transaction* loser = db_->Begin();
  auto st = db_->InsertRecord(loser, gist_, BtreeExtension::MakeKey(45), "v")
                .status();
  EXPECT_TRUE(st.IsIOError());
  EXPECT_GT(gist_->stats().splits.load(), splits_before);  // split happened
  gist_->test_hooks().before_split_nta_end = nullptr;
  CrashAndRecover();

  ASSERT_OK(gist_->CheckInvariants());
  auto keys = ScanAll();
  ASSERT_EQ(keys.size(), 8u);  // 45 gone, split reversed
  // The tree still works: the freed sibling page is reusable.
  Transaction* t2 = db_->Begin();
  for (int64_t k = 0; k < 50; k++) MustInsert(t2, 1000 + k);
  ASSERT_OK(db_->Commit(t2));
  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_EQ(ScanAll().size(), 58u);
}

TEST_F(RecoveryTest, CompletedSplitSurvivesSurroundingAbort) {
  // An aborted transaction's completed splits stay (nested top actions are
  // individually committed); only its content changes are undone.
  Transaction* t1 = db_->Begin();
  for (int64_t k = 0; k < 8; k++) MustInsert(t1, k * 10);
  ASSERT_OK(db_->Commit(t1));
  Transaction* loser = db_->Begin();
  for (int64_t k = 0; k < 30; k++) MustInsert(loser, 100 + k);  // splits!
  const auto splits = gist_->stats().splits.load();
  EXPECT_GT(splits, 0u);
  ASSERT_OK(db_->Abort(loser));
  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_EQ(ScanAll().size(), 8u);
  // Same thing across a crash.
  Transaction* loser2 = db_->Begin();
  for (int64_t k = 0; k < 30; k++) MustInsert(loser2, 200 + k);
  ASSERT_OK(db_->log()->FlushAll());
  CrashAndRecover();
  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_EQ(ScanAll().size(), 8u);
}

TEST_F(RecoveryTest, LogicalUndoChasesRightlinks) {
  // Loser inserts a key, then committed traffic splits that leaf so the
  // entry migrates right of its logged page. Restart undo must locate it
  // by rightlink traversal (section 9.2).
  Transaction* loser = db_->Begin();
  MustInsert(loser, 500);
  ASSERT_OK(db_->log()->FlushAll());

  Transaction* t2 = db_->Begin();
  for (int64_t k = 400; k < 499; k += 2) MustInsert(t2, k);
  ASSERT_OK(db_->Commit(t2));
  EXPECT_GT(gist_->stats().splits.load(), 0u);

  CrashAndRecover();
  ASSERT_OK(gist_->CheckInvariants());
  auto keys = ScanAll();
  EXPECT_EQ(keys.size(), 50u);
  EXPECT_TRUE(std::find(keys.begin(), keys.end(), 500) == keys.end());
}

TEST_F(RecoveryTest, AbortedTransactionStaysAbortedAfterCrash) {
  // CLRs are redo-only: replaying them must not resurrect the work.
  Transaction* t1 = db_->Begin();
  MustInsert(t1, 1);
  ASSERT_OK(db_->Commit(t1));
  Transaction* t2 = db_->Begin();
  MustInsert(t2, 2);
  ASSERT_OK(db_->Abort(t2));
  ASSERT_OK(db_->log()->FlushAll());
  CrashAndRecover();
  EXPECT_EQ(ScanAll(), (std::vector<int64_t>{1}));
  // Crash again with no new work: recovery is idempotent.
  CrashAndRecover();
  EXPECT_EQ(ScanAll(), (std::vector<int64_t>{1}));
}

TEST_F(RecoveryTest, CheckpointBoundsRedoAndPreservesState) {
  Transaction* t1 = db_->Begin();
  for (int64_t k = 0; k < 60; k++) MustInsert(t1, k);
  ASSERT_OK(db_->Commit(t1));
  ASSERT_OK(db_->Checkpoint());
  Transaction* t2 = db_->Begin();
  for (int64_t k = 60; k < 120; k++) MustInsert(t2, k);
  ASSERT_OK(db_->Commit(t2));
  CrashAndRecover();
  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_EQ(ScanAll().size(), 120u);
}

TEST_F(RecoveryTest, CheckpointWithActiveLoserStillUndoes) {
  Transaction* loser = db_->Begin();
  for (int64_t k = 0; k < 20; k++) MustInsert(loser, k);
  // Fuzzy checkpoint while the loser is active: its ATT entry carries the
  // undo starting point.
  ASSERT_OK(db_->Checkpoint());
  for (int64_t k = 20; k < 40; k++) MustInsert(loser, k);
  ASSERT_OK(db_->log()->FlushAll());
  CrashAndRecover();
  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_TRUE(ScanAll().empty());
}

TEST_F(RecoveryTest, SavepointRollbackSurvivesCrash) {
  Transaction* txn = db_->Begin();
  MustInsert(txn, 1);
  ASSERT_OK(db_->txns()->Savepoint(txn, "sp"));
  MustInsert(txn, 2);
  ASSERT_OK(db_->txns()->RollbackToSavepoint(txn, "sp"));
  MustInsert(txn, 3);
  ASSERT_OK(db_->Commit(txn));
  CrashAndRecover();
  EXPECT_EQ(ScanAll(), (std::vector<int64_t>{1, 3}));
}

TEST_F(RecoveryTest, GarbageCollectionRedone) {
  Transaction* t1 = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 0; k < 40; k++) rids.push_back(MustInsert(t1, k));
  ASSERT_OK(db_->Commit(t1));
  Transaction* t2 = db_->Begin();
  for (int64_t k = 0; k < 40; k += 2) {
    ASSERT_OK(db_->DeleteRecord(t2, gist_, BtreeExtension::MakeKey(k),
                                rids[static_cast<size_t>(k)]));
  }
  ASSERT_OK(db_->Commit(t2));
  Transaction* t3 = db_->Begin();
  uint64_t removed = 0, deleted = 0;
  ASSERT_OK(gist_->GarbageCollect(t3, &removed, &deleted));
  ASSERT_OK(db_->Commit(t3));
  EXPECT_EQ(removed, 20u);
  CrashAndRecover();
  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_EQ(ScanAll().size(), 20u);
  // Physically gone, not just marked: dump shows 20 entries.
  std::vector<IndexEntry> entries;
  ASSERT_OK(gist_->DumpEntries(&entries));
  EXPECT_EQ(entries.size(), 20u);
}

TEST_F(RecoveryTest, NodeDeletionRedone) {
  Transaction* t1 = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 0; k < 100; k++) rids.push_back(MustInsert(t1, k));
  ASSERT_OK(db_->Commit(t1));
  Transaction* t2 = db_->Begin();
  for (int64_t k = 0; k < 100; k++) {
    ASSERT_OK(db_->DeleteRecord(t2, gist_, BtreeExtension::MakeKey(k),
                                rids[static_cast<size_t>(k)]));
  }
  ASSERT_OK(db_->Commit(t2));
  Transaction* t3 = db_->Begin();
  uint64_t removed = 0, deleted = 0;
  ASSERT_OK(gist_->GarbageCollect(t3, &removed, &deleted));
  ASSERT_OK(db_->Commit(t3));
  CrashAndRecover();
  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_TRUE(ScanAll().empty());
  // The tree remains fully usable after node deletions + crash.
  Transaction* t4 = db_->Begin();
  for (int64_t k = 0; k < 100; k++) MustInsert(t4, k);
  ASSERT_OK(db_->Commit(t4));
  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_EQ(ScanAll().size(), 100u);
}

TEST_F(RecoveryTest, RepeatedCrashRecoverCycles) {
  Random rng(31);
  std::set<int64_t> expect;
  for (int round = 0; round < 5; round++) {
    Transaction* txn = db_->Begin();
    for (int i = 0; i < 30; i++) {
      const int64_t k = rng.UniformRange(0, 10000);
      if (expect.insert(k).second) {
        MustInsert(txn, k);
      } else {
        expect.erase(k);  // don't double-insert; keep the model simple
        expect.insert(k);
      }
    }
    ASSERT_OK(db_->Commit(txn));
    Transaction* loser = db_->Begin();
    for (int i = 0; i < 10; i++) {
      MustInsert(loser, 100000 + rng.UniformRange(0, 1000));
    }
    ASSERT_OK(db_->log()->FlushAll());
    if (round % 2 == 0) ASSERT_OK(db_->Checkpoint());
    CrashAndRecover();
    ASSERT_OK(gist_->CheckInvariants());
  }
  auto keys = ScanAll();
  std::set<int64_t> found(keys.begin(), keys.end());
  EXPECT_EQ(found, expect);
}

TEST_F(RecoveryTest, RestartStatsPopulated) {
  Transaction* t1 = db_->Begin();
  for (int64_t k = 0; k < 30; k++) MustInsert(t1, k);
  ASSERT_OK(db_->Commit(t1));
  CrashAndRecover();
  obs::MetricsRegistry* reg = db_->metrics();
  EXPECT_GT(reg->GetCounter("recovery.records_analyzed")->load(), 0u);
  EXPECT_GT(reg->GetCounter("recovery.records_redone")->load(), 0u);
}

// The dedicated-counter NSN mode must also recover its counter (ablation
// C3 / paper section 10.1).
class CounterNsnRecoveryTest : public RecoveryTest {
 protected:
  void SetUp() override {
    path_ = TestPath("rec_counter");
    RemoveDbFiles(path_);
    opts_.path = path_;
    opts_.buffer_pool_pages = 512;
    opts_.nsn_source = NsnSource::kCounter;
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 8;
    ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
  }
  void CrashAndRecoverCounter() {
    db_->SimulateCrash();
    db_.reset();
    auto db_or = Database::Open(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    ASSERT_OK(db_->WaitForRecovery());
    GistOptions gopts;
    gopts.max_entries = 8;
    ASSERT_OK(db_->OpenIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
  }
};

TEST_F(CounterNsnRecoveryTest, CounterRestoredAboveAllNsns) {
  Transaction* t1 = db_->Begin();
  for (int64_t k = 0; k < 200; k++) MustInsert(t1, k);
  ASSERT_OK(db_->Commit(t1));
  const Nsn counter_before = db_->nsn()->CounterValue();
  EXPECT_GT(counter_before, 0u);
  CrashAndRecoverCounter();
  EXPECT_GE(db_->nsn()->CounterValue(), counter_before);
  ASSERT_OK(gist_->CheckInvariants());
  // Splitting keeps working with monotone NSNs after restart.
  Transaction* t2 = db_->Begin();
  for (int64_t k = 200; k < 400; k++) MustInsert(t2, k);
  ASSERT_OK(db_->Commit(t2));
  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_EQ(ScanAll().size(), 400u);
}

}  // namespace
}  // namespace gistcr
