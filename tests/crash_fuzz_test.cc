#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <set>

#include "access/btree_extension.h"
#include "storage/fault_injector.h"
#include "tests/crash_harness.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "wal/log_manager.h"

namespace gistcr {
namespace {

// GISTCR_LONG_TESTS (nightly CI) runs the same tests at soak sizes: a
// longer workload, every log-record boundary as a cut point, and more
// crash-point fuzz iterations.
#if GISTCR_LONG_TESTS
constexpr int kFuzzTxns = 120;
constexpr uint64_t kCutStride = 1;
constexpr int kPointFuzzIters = 40;
#else
constexpr int kFuzzTxns = 40;
constexpr uint64_t kCutStride = 7;
constexpr int kPointFuzzIters = 10;
#endif

/// Crash-point fuzzing: run a workload with everything forced to the log,
/// remember each transaction's commit LSN, then truncate the durable log
/// at many different record boundaries and recover. At every cut point:
///   - recovery must succeed and the tree must satisfy its invariants;
///   - a transaction's keys are visible iff its Commit record survived
///     the cut (atomicity + durability at arbitrary crash points).
/// This exercises redo/undo of every record type the workload produced,
/// including splits, root growth, GC and CLRs at partial cut points.
class CrashFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("fuzz");
    RemoveDbFiles(path_);
    opts_.path = path_;
    opts_.buffer_pool_pages = 512;
  }
  void TearDown() override { RemoveDbFiles(path_); }

  struct TxnOutcome {
    Lsn commit_lsn;             // kInvalidLsn: aborted or never committed
    std::vector<int64_t> keys;  // inserted by this txn
    std::vector<std::pair<int64_t, Rid>> deleted;  // deletes by this txn
  };

  std::string path_;
  DatabaseOptions opts_;
  BtreeExtension ext_;
};

TEST_F(CrashFuzzTest, EveryLogPrefixRecoversConsistently) {
  // ---- Phase 1: generate a workload and record per-txn commit LSNs ----
  std::vector<TxnOutcome> outcomes;
  std::vector<Lsn> record_lsns;  // candidate cut points
  {
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 8;  // deep tree: plenty of structure records
    ASSERT_OK(db->CreateIndex(1, &ext_, gopts));
    Gist* gist = db->GetIndex(1).value();

    Random rng(555);
    std::map<int64_t, Rid> live;
    int64_t next_key = 0;
    for (int t = 0; t < kFuzzTxns; t++) {
      TxnOutcome out;
      out.commit_lsn = kInvalidLsn;
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      const int ops = 3 + static_cast<int>(rng.Uniform(10));
      for (int i = 0; i < ops; i++) {
        if (!live.empty() && rng.OneIn(4)) {
          auto it = live.begin();
          std::advance(it, rng.Uniform(live.size()));
          ASSERT_OK(db->DeleteRecord(txn, gist,
                                     BtreeExtension::MakeKey(it->first),
                                     it->second));
          out.deleted.emplace_back(it->first, it->second);
          live.erase(it);
        } else {
          const int64_t k = next_key++;
          auto rid =
              db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v");
          ASSERT_OK(rid.status());
          out.keys.push_back(k);
          live[k] = rid.value();
        }
      }
      if (rng.OneIn(5)) {
        ASSERT_OK(db->Abort(txn));
        // Aborted: its deletes are rolled back, the records come back —
        // except records it inserted itself, which the rollback removes
        // (reinstate first, then erase own inserts).
        for (const auto& [k, rid] : out.deleted) live[k] = rid;
        for (int64_t k : out.keys) live.erase(k);
        out.keys.clear();
        out.deleted.clear();
      } else {
        ASSERT_OK(db->Commit(txn));
        out.commit_lsn = db->log()->durable_lsn();
      }
      outcomes.push_back(out);
      if (t == (kFuzzTxns * 5) / 8) {
        Transaction* gc = db->Begin(IsolationLevel::kReadCommitted);
        uint64_t r = 0, n = 0;
        ASSERT_OK(gist->GarbageCollect(gc, &r, &n));
        ASSERT_OK(db->Commit(gc));
      }
    }
    // Force only the LOG. Data pages must stay unflushed: flushing them
    // and then cutting the log below their page LSNs would fabricate a
    // state the WAL rule makes impossible (a data page on disk ahead of
    // the durable log). The buffer pool is large enough that nothing was
    // evicted, so the .db file holds only the formatted skeleton and every
    // cut is a state a real crash could produce.
    ASSERT_OK(db->log()->FlushAll());
    // Collect record boundaries for cut points.
    ASSERT_OK(db->log()->Scan(
        kInvalidLsn, kInvalidLsn, [&](const LogRecord& rec) {
          record_lsns.push_back(rec.lsn + rec.SerializedSize());
          return true;
        }));
    db->SimulateCrash();  // discard volatile state; files stay
  }

  const std::string wal = path_ + ".wal";
  const std::string wal_backup = path_ + ".walbak";
  const std::string dbf = path_ + ".db";
  const std::string db_backup = path_ + ".dbbak";
  ASSERT_EQ(0, std::rename(wal.c_str(), wal_backup.c_str()));
  ASSERT_EQ(0, std::rename(dbf.c_str(), db_backup.c_str()));

  auto copy_file = [](const std::string& from, const std::string& to) {
    FILE* in = fopen(from.c_str(), "rb");
    FILE* out = fopen(to.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    char buf[1 << 16];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), in)) > 0) fwrite(buf, 1, n, out);
    fclose(in);
    fclose(out);
  };

  // ---- Phase 2: recover from many prefixes of the log ----
  Random rng(99);
  std::vector<Lsn> cuts;
  for (size_t i = 0; i < record_lsns.size();
       i += (kCutStride == 1 ? 1 : 1 + rng.Uniform(kCutStride))) {
    cuts.push_back(record_lsns[i]);
  }
  cuts.push_back(record_lsns.back());

  for (Lsn cut : cuts) {
    copy_file(wal_backup, wal);
    copy_file(db_backup, dbf);
    ASSERT_EQ(0, truncate(wal.c_str(), static_cast<off_t>(cut)));
    std::remove((path_ + ".ckpt").c_str());

    auto db_or = Database::Open(opts_);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->WaitForRecovery());
    GistOptions gopts;
    gopts.max_entries = 8;
    ASSERT_OK(db->OpenIndex(1, &ext_, gopts));
    Gist* gist = db->GetIndex(1).value();
    Status inv = gist->CheckInvariants();
    ASSERT_TRUE(inv.ok()) << inv.ToString() << " (cut at " << cut << ")";

    // Visibility: keys of txns whose commit survived the cut are present;
    // keys of txns whose commit did not are absent (unless re-deleted by a
    // later committed txn that also survived).
    std::set<int64_t> expect;
    for (const auto& out : outcomes) {
      if (out.commit_lsn == kInvalidLsn || out.commit_lsn >= cut) continue;
      for (int64_t k : out.keys) expect.insert(k);
      for (const auto& [k, rid] : out.deleted) {
        (void)rid;
        expect.erase(k);
      }
    }
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    std::vector<SearchResult> results;
    ASSERT_OK(gist->Search(
        txn, BtreeExtension::MakeRange(0, 1 << 20), &results));
    std::set<int64_t> found;
    for (const auto& r : results) found.insert(BtreeExtension::Lo(r.key));
    ASSERT_OK(db->Commit(txn));
    EXPECT_EQ(found, expect) << "cut at " << cut;
  }
  std::remove(wal_backup.c_str());
  std::remove(db_backup.c_str());
}

/// Randomized companion to the deterministic crash matrix: rotate through
/// a set of high-traffic crash points with random skip counts, kill a real
/// process at each, and verify recovery. Unlike the matrix, a skip count
/// past the end of the workload is fine — the child exits 0 and the
/// iteration just shrinks to a no-crash round trip.
TEST(CrashPointFuzzTest, RandomSkipsAcrossHotPoints) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  constexpr const char* kPoints[] = {
      "insert.after_leaf_apply", "split.after_log_append",
      "wal.before_fsync",        "txn.commit.before_log_force",
      "delete.after_mark",
  };
  const std::string path = TestPath("pointfuzz");
  Random rng(2024);
  int crashed = 0;
  for (int iter = 0; iter < kPointFuzzIters; iter++) {
    RemoveDbFiles(path);
    const char* point = kPoints[iter % std::size(kPoints)];
    const int skip = static_cast<int>(rng.Uniform(12));
    crash::TortureOptions opt;
    opt.seed = 1000 + static_cast<uint64_t>(iter);
    opt.txns = 24;
    const int exit_code = crash::ForkTorture(path, point, skip, opt);
    ASSERT_TRUE(exit_code == 0 ||
                exit_code == FaultInjector::kCrashExitCode)
        << point << " skip=" << skip << " exited " << exit_code;
    if (exit_code == FaultInjector::kCrashExitCode) {
      crashed++;
      crash::VerifyFlightArtifact(path);
    }
    crash::RecoverAndVerify(path, opt);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "at " << point << " skip=" << skip;
      break;
    }
  }
  EXPECT_GT(crashed, 0) << "no iteration ever reached its crash point";
  RemoveDbFiles(path);
}

}  // namespace
}  // namespace gistcr
