#include <gtest/gtest.h>

#include <vector>

#include "access/btree_extension.h"
#include "storage/fault_injector.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

/// Version-store garbage collection (DESIGN.md section 14.4): chains are
/// pinned while a snapshot can observe them and shrink once it ends, and
/// the leaf/node GC sweep defers physical removal to active snapshots.
class MvccGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("mvcc_gc");
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

  Rid MustInsert(Transaction* txn, int64_t key) {
    auto rid =
        db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(key), "v");
    EXPECT_OK(rid.status());
    return rid.ok() ? rid.value() : Rid{};
  }

  std::vector<int64_t> Scan(Transaction* txn, int64_t lo, int64_t hi) {
    std::vector<SearchResult> results;
    EXPECT_OK(gist_->Search(txn, BtreeExtension::MakeRange(lo, hi), &results));
    std::vector<int64_t> keys;
    for (const auto& r : results) keys.push_back(BtreeExtension::Lo(r.key));
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Store GC at the horizon the transaction table gives right now.
  size_t Prune() { return db_->mvcc()->Prune(db_->txns()->SnapshotHorizon()); }

  std::string path_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

TEST_F(MvccGcTest, PruneShrinksChainsOnceUnpinned) {
  MvccManager* mvcc = db_->mvcc();
  ASSERT_NE(mvcc, nullptr);

  Transaction* setup = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 1; k <= 4; k++) rids.push_back(MustInsert(setup, k));
  ASSERT_OK(db_->Commit(setup));

  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(Scan(snap, 0, 100), (std::vector<int64_t>{1, 2, 3, 4}));

  // Churn under the snapshot: delete + reinsert every key, twice. Each
  // round adds delete stamps and fresh insert records the snapshot must
  // not see, so history accumulates.
  for (int round = 0; round < 2; round++) {
    Transaction* w = db_->Begin();
    for (size_t i = 0; i < rids.size(); i++) {
      const int64_t key = static_cast<int64_t>(i) + 1;
      ASSERT_OK(db_->DeleteRecord(w, gist_, BtreeExtension::MakeKey(key),
                                  rids[i]));
      rids[i] = MustInsert(w, key);
    }
    ASSERT_OK(db_->Commit(w));
  }
  const size_t populated = mvcc->StoreSize();
  EXPECT_GT(populated, 0u);

  // Pruning with the snapshot still active must keep everything it can
  // observe: the scan stays byte-for-byte stable.
  Prune();
  EXPECT_EQ(Scan(snap, 0, 100), (std::vector<int64_t>{1, 2, 3, 4}));
  ASSERT_OK(db_->Commit(snap));

  // Unpinned: everything is below the horizon, chains collapse entirely
  // (a missing record means "ancient", which answers correctly for all
  // committed history).
  const size_t pruned = Prune();
  EXPECT_GT(pruned, 0u);
  EXPECT_EQ(mvcc->StoreSize(), 0u);
  for (const Rid& rid : rids) EXPECT_EQ(mvcc->ChainLength(rid.Pack()), 0u);
  EXPECT_GE(db_->metrics()->GetCounter("mvcc.versions_pruned")->value(),
            pruned);
}

TEST_F(MvccGcTest, LeafGcDefersToActiveSnapshots) {
  Transaction* setup = db_->Begin();
  const Rid rid = MustInsert(setup, 7);
  ASSERT_OK(db_->Commit(setup));

  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(Scan(snap, 0, 100), (std::vector<int64_t>{7}));

  Transaction* w = db_->Begin();
  ASSERT_OK(db_->DeleteRecord(w, gist_, BtreeExtension::MakeKey(7), rid));
  ASSERT_OK(db_->Commit(w));

  // The deleter terminated, so without MVCC this sweep would physically
  // remove the entry. The active snapshot still needs it.
  ASSERT_OK(db_->RunMaintenancePass());
  EXPECT_EQ(Scan(snap, 0, 100), (std::vector<int64_t>{7}));
  ASSERT_OK(db_->Commit(snap));

  // Snapshot gone: the next sweep reclaims it.
  const uint64_t removed_before = gist_->stats().gc_removed.load();
  ASSERT_OK(db_->RunMaintenancePass());
  EXPECT_GT(gist_->stats().gc_removed.load(), removed_before);
  Transaction* after = db_->Begin();
  EXPECT_TRUE(Scan(after, 0, 100).empty());
  ASSERT_OK(db_->Commit(after));
}

// The transaction table is the one snapshot registry: node retirement
// and version GC read it. An open snapshot pins the horizon at its own
// stamp; with none open the horizon passes the durable LSN. The GC side of
// the deferral is NodeDeletionTest.OpenSnapshotDefersRetirement.
TEST_F(MvccGcTest, NodeRetirementDefersWhileSnapshotsActive) {
  TransactionManager* txns = db_->txns();
  EXPECT_FALSE(txns->HasActiveSnapshots());
  EXPECT_EQ(txns->SnapshotHorizon(), db_->log()->durable_lsn() + 1);

  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_TRUE(txns->HasActiveSnapshots());
  EXPECT_EQ(snap->snapshot_lsn(), db_->log()->durable_lsn());
  Transaction* w = db_->Begin();
  MustInsert(w, 1);
  ASSERT_OK(db_->Commit(w));
  EXPECT_EQ(txns->SnapshotHorizon(), snap->snapshot_lsn());
  ASSERT_OK(db_->Commit(snap));
  EXPECT_FALSE(txns->HasActiveSnapshots());
  EXPECT_EQ(txns->SnapshotHorizon(), db_->log()->durable_lsn() + 1);
}

TEST_F(MvccGcTest, SavepointRollbackUnstampsVersions) {
  MvccManager* mvcc = db_->mvcc();
  ASSERT_NE(mvcc, nullptr);

  // Roll an insert back to a savepoint while the transaction stays alive;
  // its pending version must vanish rather than get stamped at commit.
  // A snapshot open across the commit pins the kept version's record,
  // which the commit would otherwise drop at once.
  Transaction* txn = db_->Begin();
  const Rid keep = MustInsert(txn, 1);
  ASSERT_OK(db_->txns()->Savepoint(txn, "sp"));
  const Rid undone = MustInsert(txn, 2);
  ASSERT_OK(db_->txns()->RollbackToSavepoint(txn, "sp"));
  Transaction* pin = db_->Begin(IsolationLevel::kSnapshot);
  ASSERT_OK(db_->Commit(txn));

  EXPECT_EQ(mvcc->ChainLength(undone.Pack()), 0u);
  EXPECT_EQ(mvcc->ChainLength(keep.Pack()), 1u);
  EXPECT_TRUE(Scan(pin, 0, 100).empty());
  ASSERT_OK(db_->Commit(pin));

  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(Scan(snap, 0, 100), (std::vector<int64_t>{1}));
  ASSERT_OK(db_->Commit(snap));
}

// A commit drops its own version records once its Commit is durable and
// no open snapshot can see them: with no snapshot the store stays empty
// across commits of inserts and of deletes. A snapshot opened before a
// commit pins that commit's records, and still does not see its insert.
TEST_F(MvccGcTest, CommitDropsVersionsNoSnapshotCanSee) {
  MvccManager* mvcc = db_->mvcc();
  obs::Counter* pruned = db_->metrics()->GetCounter("mvcc.versions_pruned");
  Transaction* ins = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 1; k <= 20; k++) rids.push_back(MustInsert(ins, k));
  EXPECT_EQ(mvcc->StoreSize(), 20u);  // pending until the commit
  ASSERT_OK(db_->Commit(ins));
  EXPECT_EQ(mvcc->StoreSize(), 0u);
  EXPECT_EQ(pruned->value(), 20u);

  Transaction* del = db_->Begin();
  for (int64_t k = 1; k <= 10; k++) {
    ASSERT_OK(db_->DeleteRecord(del, gist_, BtreeExtension::MakeKey(k),
                                rids[static_cast<size_t>(k - 1)]));
  }
  ASSERT_OK(db_->Commit(del));
  EXPECT_EQ(mvcc->StoreSize(), 0u);

  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  Transaction* w = db_->Begin();
  MustInsert(w, 50);
  ASSERT_OK(db_->DeleteRecord(w, gist_, BtreeExtension::MakeKey(11),
                              rids[10]));
  ASSERT_OK(db_->Commit(w));
  EXPECT_EQ(mvcc->StoreSize(), 2u);
  std::vector<int64_t> want;
  for (int64_t k = 11; k <= 20; k++) want.push_back(k);
  EXPECT_EQ(Scan(snap, 0, 100), want);
  ASSERT_OK(db_->Commit(snap));
  EXPECT_EQ(Prune(), 2u);
  EXPECT_EQ(mvcc->StoreSize(), 0u);
}

// A commit whose force fails is outcome-ambiguous, and its caller rolls
// it back (as Session::HandleCommit does). Its versions were stamped inside
// the append of its Commit record, and a later flush makes that record
// durable: rollback must retract the stamped records with the pages, or a
// snapshot hides the row the rollback restored. Two faults open the
// window: a failed log sync, and an error right after the Commit record's
// append.
TEST_F(MvccGcTest, RolledBackFailedCommitKeepsSnapshotsRight) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  for (int64_t fault = 0; fault < 2; fault++) {
    const int64_t kept = 10 * fault + 1;
    Transaction* setup = db_->Begin();
    const Rid rid = MustInsert(setup, kept);
    ASSERT_OK(db_->Commit(setup));

    Transaction* w = db_->Begin();
    ASSERT_OK(db_->DeleteRecord(w, gist_, BtreeExtension::MakeKey(kept), rid));
    MustInsert(w, kept + 1);
    FaultInjector::Global().Reset();
    if (fault == 0) {
      FaultInjector::Global().FailNextSyncs(1);
    } else {
      // The writer's next append is its Commit record.
      FaultInjector::Global().ArmCrashPoint("txn.after_log_append");
    }
    EXPECT_FALSE(db_->Commit(w).ok());
    FaultInjector::Global().Reset();
    ASSERT_TRUE(db_->txns()->IsActive(w->id()));
    ASSERT_OK(db_->Abort(w));
    ASSERT_OK(db_->log()->FlushAll());

    std::vector<int64_t> want;
    for (int64_t k = 1; k <= kept; k += 10) want.push_back(k);
    Transaction* rc = db_->Begin(IsolationLevel::kReadCommitted);
    EXPECT_EQ(Scan(rc, 0, 100), want);
    ASSERT_OK(db_->Commit(rc));
    Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
    EXPECT_EQ(Scan(snap, 0, 100), want) << "fault " << fault;
    ASSERT_OK(db_->Commit(snap));
  }
}

// --- MvccManager race regressions (store-level, no database) ---------------

// A reader reads the leaf entry while it is live, then a
// concurrent writer delete-marks the only version record (stamp pending).
// The newest-undeleted scan finds nothing — visibility must still consult
// the newest record's insert stamp instead of defaulting to visible, or a
// snapshot sees an insert that committed after it began.
TEST(MvccVisibilityTest, PendingDeleteDoesNotExposeUncommittedInsert) {
  MvccManager mvcc;
  const Lsn snap = 50;

  // Writer 2 inserts rid 7 and commits at LSN 80 (> snap).
  Transaction w2(/*id=*/2, IsolationLevel::kRepeatableRead);
  mvcc.NoteInsert(7, &w2);
  mvcc.StampCommit(&w2, /*commit_lsn=*/80);
  // Writer 3 delete-marks it; its stamp is still pending.
  Transaction w3(/*id=*/3, IsolationLevel::kRepeatableRead);
  mvcc.NoteDelete(7, &w3);

  EXPECT_FALSE(mvcc.Visible(7, kInvalidTxnId, snap));

  // A snapshot stamped after the insert's commit sees the entry despite
  // the pending delete mark.
  EXPECT_TRUE(mvcc.Visible(7, kInvalidTxnId, /*snapshot=*/90));
}

}  // namespace
}  // namespace gistcr
