#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "access/btree_extension.h"
#include "tests/test_util.h"
#include "wal/log_payloads.h"

namespace gistcr {
namespace {

using namespace std::chrono_literals;

/// Reads the master checkpoint named by <path>.ckpt, then the record at
/// its logged redo floor: the first record a restart from it reads.
Status ReadLoggedRedoFloor(Database* db, const std::string& path) {
  FILE* f = std::fopen((path + ".ckpt").c_str(), "r");
  if (f == nullptr) return Status::NotFound("no master pointer");
  unsigned long long master = 0;
  const int n = std::fscanf(f, "%llu", &master);
  std::fclose(f);
  if (n != 1) return Status::Corruption("unreadable master pointer");
  LogRecord rec;
  GISTCR_RETURN_IF_ERROR(db->log()->ReadRecord(master, &rec));
  CheckpointPayload pl;
  if (!pl.DecodeFrom(rec.payload)) return Status::Corruption("checkpoint");
  return db->log()->ReadRecord(pl.redo_floor, &rec);
}

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("maint");
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
  BtreeExtension ext_;
};

TEST_F(MaintenanceTest, ManualPassCheckpointsAndCollects) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  GistOptions gopts;
  gopts.max_entries = 8;
  ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
  Gist* gist = db_->GetIndex(1).value();

  Transaction* t1 = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 0; k < 100; k++) {
    auto rid = db_->InsertRecord(t1, gist, BtreeExtension::MakeKey(k), "v");
    ASSERT_OK(rid.status());
    rids.push_back(rid.value());
  }
  ASSERT_OK(db_->Commit(t1));
  Transaction* t2 = db_->Begin();
  for (int64_t k = 0; k < 100; k++) {
    ASSERT_OK(db_->DeleteRecord(t2, gist, BtreeExtension::MakeKey(k),
                                rids[static_cast<size_t>(k)]));
  }
  ASSERT_OK(db_->Commit(t2));

  ASSERT_OK(db_->RunMaintenancePass());
  EXPECT_GT(gist->stats().gc_removed.load(), 0u);
  // The checkpoint landed in the master pointer.
  FILE* f = fopen((path_ + ".ckpt").c_str(), "r");
  ASSERT_NE(f, nullptr);
  fclose(f);
  ASSERT_OK(gist->CheckInvariants());
}

// A reader that logged nothing leaves OldestActiveFirstLsn unset, so GC's
// Commit_LSN test takes its fast path; an open deleter has logged, so its
// marks still go through the per-mark IsActive check and survive.
TEST_F(MaintenanceTest, PassBesideOpenReaderKeepsOpenDeletersMarks) {
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  GistOptions gopts;
  gopts.max_entries = 8;
  ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
  Gist* gist = db_->GetIndex(1).value();

  Transaction* t1 = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 0; k < 100; k++) {
    auto rid = db_->InsertRecord(t1, gist, BtreeExtension::MakeKey(k), "v");
    ASSERT_OK(rid.status());
    rids.push_back(rid.value());
  }
  ASSERT_OK(db_->Commit(t1));
  auto delete_range = [&](Transaction* txn, int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; k++) {
      ASSERT_OK(db_->DeleteRecord(txn, gist, BtreeExtension::MakeKey(k),
                                  rids[static_cast<size_t>(k)]));
    }
  };
  Transaction* t2 = db_->Begin();
  delete_range(t2, 0, 40);
  ASSERT_OK(db_->Commit(t2));

  Transaction* reader = db_->Begin(IsolationLevel::kRepeatableRead);
  std::vector<SearchResult> out;
  ASSERT_OK(gist->Search(reader, BtreeExtension::MakeRange(90, 99), &out));
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(db_->txns()->OldestActiveFirstLsn(), kInvalidLsn);
  ASSERT_OK(db_->RunMaintenancePass());
  EXPECT_EQ(gist->stats().gc_removed.load(), 40u);

  Transaction* deleter = db_->Begin(IsolationLevel::kReadCommitted);
  delete_range(deleter, 40, 60);
  ASSERT_OK(db_->RunMaintenancePass());
  EXPECT_EQ(gist->stats().gc_removed.load(), 40u);  // open marks survive
  ASSERT_OK(db_->Abort(deleter));
  ASSERT_OK(db_->Commit(reader));

  Transaction* t3 = db_->Begin(IsolationLevel::kReadCommitted);
  out.clear();
  ASSERT_OK(gist->Search(t3, BtreeExtension::MakeRange(0, 200), &out));
  EXPECT_EQ(out.size(), 60u);
  ASSERT_OK(db_->Commit(t3));
  ASSERT_OK(gist->CheckInvariants());
}

TEST_F(MaintenanceTest, BackgroundDaemonCollectsWhileRunning) {
  opts_.maintenance_interval_ms = 30;
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  GistOptions gopts;
  gopts.max_entries = 8;
  ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
  Gist* gist = db_->GetIndex(1).value();

  // Churn for a while: insert + delete; the daemon collects in parallel.
  for (int round = 0; round < 8; round++) {
    Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
    std::vector<Rid> rids;
    for (int64_t k = 0; k < 50; k++) {
      const int64_t key = round * 1000 + k;
      auto rid =
          db_->InsertRecord(txn, gist, BtreeExtension::MakeKey(key), "v");
      ASSERT_OK(rid.status());
      rids.push_back(rid.value());
    }
    Status st = db_->Commit(txn);
    ASSERT_OK(st);
    Transaction* del = db_->Begin(IsolationLevel::kReadCommitted);
    for (int64_t k = 0; k < 50; k++) {
      const int64_t key = round * 1000 + k;
      ASSERT_OK(db_->DeleteRecord(del, gist, BtreeExtension::MakeKey(key),
                                  rids[static_cast<size_t>(k)]));
    }
    ASSERT_OK(db_->Commit(del));
    std::this_thread::sleep_for(40ms);
  }
  std::this_thread::sleep_for(100ms);
  EXPECT_GT(gist->stats().gc_removed.load(), 0u);
  ASSERT_OK(gist->CheckInvariants());
  // Clean teardown stops the daemon (no hang, no use-after-free).
  db_.reset();
}

TEST_F(MaintenanceTest, WalSpaceReclaimedAfterCheckpoint) {
  opts_.sync_commit = false;
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->CreateIndex(1, &ext_));
  Gist* gist = db_->GetIndex(1).value();

  Transaction* txn = db_->Begin();
  for (int64_t k = 0; k < 5000; k++) {
    ASSERT_OK(db_->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v")
                  .status());
  }
  ASSERT_OK(db_->Commit(txn));
  ASSERT_OK(db_->FlushAll());
  const Lsn before = db_->log()->reclaimed_before();
  ASSERT_OK(db_->Checkpoint());
  const Lsn after = db_->log()->reclaimed_before();
  // Hole punching is best effort; when supported, the horizon advances.
  if (after > before) {
    EXPECT_GT(after, 1u << 20);  // >1 MiB of log reclaimed
  }
  // Recovery still works from the reclaimed log.
  db_->SimulateCrash();
  db_.reset();
  auto re_or = Database::Open(opts_);
  ASSERT_OK(re_or.status());
  db_ = re_or.MoveValue();
  ASSERT_OK(db_->OpenIndex(1, &ext_));
  gist = db_->GetIndex(1).value();
  ASSERT_OK(gist->CheckInvariants());
  Transaction* t2 = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(
      gist->Search(t2, BtreeExtension::MakeRange(0, 5000), &results));
  EXPECT_EQ(results.size(), 5000u);
  ASSERT_OK(db_->Commit(t2));
}

TEST_F(MaintenanceTest, ReclaimKeepsActiveTxnBackchain) {
  opts_.sync_commit = false;
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->CreateIndex(1, &ext_));
  Gist* gist = db_->GetIndex(1).value();

  // A long-running transaction starts early...
  Transaction* old_txn = db_->Begin();
  ASSERT_OK(db_->InsertRecord(old_txn, gist, BtreeExtension::MakeKey(-1),
                              "old")
                .status());
  // ...lots of committed traffic follows, then a checkpoint.
  Transaction* bulk = db_->Begin();
  for (int64_t k = 0; k < 3000; k++) {
    ASSERT_OK(db_->InsertRecord(bulk, gist, BtreeExtension::MakeKey(k), "v")
                  .status());
  }
  ASSERT_OK(db_->Commit(bulk));
  ASSERT_OK(db_->FlushAll());
  ASSERT_OK(db_->Checkpoint());
  // The old transaction can still roll back: its backchain (below the
  // checkpoint) must not have been reclaimed.
  ASSERT_OK(db_->Abort(old_txn));
  Transaction* t2 = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(t2, BtreeExtension::MakeRange(-10, -1), &results));
  EXPECT_TRUE(results.empty());
  ASSERT_OK(db_->Commit(t2));
}

// WAL reclamation keeps the redo floor the master checkpoint logged. On a
// 64-page pool with the background writer on, pages turn clean between
// any two moments — including between a checkpoint's dirty-page scan and
// its reclaim — while inserters race a loop of checkpoints. After each
// checkpoint the record at the logged floor must still be readable, and
// a crash at the end must recover every committed key. (Eviction alone
// cleans pages too, but only sporadically on this workload.)
TEST_F(MaintenanceTest, ReclaimKeepsLoggedRedoFloor) {
  opts_.buffer_pool_pages = 64;
  opts_.writer_interval_ms = 1;
  auto db_or = Database::Create(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->CreateIndex(1, &ext_));
  Gist* gist = db_->GetIndex(1).value();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_key{0};
  std::vector<int64_t> committed[2];
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      while (!stop.load()) {
        Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
        std::vector<int64_t> keys;
        Status st;
        for (int i = 0; i < 4 && st.ok(); i++) {
          keys.push_back(next_key.fetch_add(1));
          st = db_->InsertRecord(txn, gist,
                                 BtreeExtension::MakeKey(keys.back()), "v")
                   .status();
        }
        if (!st.ok()) {
          (void)db_->Abort(txn);
          continue;
        }
        if (db_->Commit(txn).ok()) {
          committed[w].insert(committed[w].end(), keys.begin(), keys.end());
        }
      }
    });
  }
  constexpr int kCheckpoints = 1000;
  Status st;
  int checkpoints = 0;
  while (st.ok() && checkpoints < kCheckpoints) {
    st = db_->Checkpoint();
    if (st.ok()) st = ReadLoggedRedoFloor(db_.get(), path_);
    checkpoints++;
  }
  stop = true;
  for (auto& t : writers) t.join();
  ASSERT_TRUE(st.ok()) << st.ToString() << " after " << checkpoints
                       << " checkpoints";

  db_->SimulateCrash();
  db_.reset();
  auto re_or = Database::Open(opts_);
  ASSERT_OK(re_or.status());
  db_ = re_or.MoveValue();
  ASSERT_OK(db_->WaitForRecovery());
  ASSERT_OK(db_->OpenIndex(1, &ext_));
  gist = db_->GetIndex(1).value();
  ASSERT_OK(gist->CheckInvariants());
  Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, next_key.load()),
                         &results));
  ASSERT_OK(db_->Commit(txn));
  std::set<int64_t> found;
  for (const SearchResult& r : results) found.insert(BtreeExtension::Lo(r.key));
  size_t missing = 0;
  for (const auto& keys : committed) {
    for (int64_t k : keys) missing += found.count(k) == 0 ? 1 : 0;
  }
  EXPECT_EQ(missing, 0u) << "of " << committed[0].size() + committed[1].size()
                         << " committed keys";
}

}  // namespace
}  // namespace gistcr
