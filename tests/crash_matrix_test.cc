/// The crash matrix (ISSUE 2 tentpole): for every registered crash point,
/// kill a child process mid-workload at that point, recover, and assert
/// tree integrity plus transaction atomicity against a WAL-derived oracle —
/// Table 1's redo/undo taxonomy as an executable matrix. The recovery-phase
/// points get their crash-during-recovery test in instant_restart_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "access/btree_extension.h"
#include "db/database.h"
#include "storage/fault_injector.h"
#include "tests/crash_harness.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

using crash::ChildDie;  // GISTCR_CHILD_OK expands to an unqualified call
using crash::ForkAndWait;
using crash::ForkTorture;
using crash::RecoverAndVerify;
using crash::TortureOptions;

#if GISTCR_LONG_TESTS
constexpr int kWorkloadTxns = 120;
#else
constexpr int kWorkloadTxns = 48;
#endif

struct PointSpec {
  const char* point;
  int skip;  ///< Fire on the (skip+1)-th execution of the site.
  bool eviction_profile;  ///< Tiny pool + preload: eviction-heavy phase.
  /// Some sites depend on workload shape that cannot be forced cheaply
  /// (e.g. node deletion needs an empty node with a same-parent rightlink
  /// owner). Exit 0 (point never fired) is tolerated for those; exit 42
  /// still verifies recovery when it does fire.
  bool allow_no_fire;
};

class CrashMatrixTest : public ::testing::TestWithParam<PointSpec> {};

TEST_P(CrashMatrixTest, KillRecoverVerify) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const PointSpec& spec = GetParam();
  const std::string path = TestPath("crash");
  RemoveDbFiles(path);

  TortureOptions opt;
  opt.txns = kWorkloadTxns;
  if (spec.eviction_profile) {
    opt.buffer_pool_pages = 64;
    opt.preload_keys = 400;
  }

  const int exit_code = ForkTorture(path, spec.point, spec.skip, opt);
  if (spec.allow_no_fire && exit_code == 0) {
    RemoveDbFiles(path);
    GTEST_SKIP() << spec.point << " did not fire under this workload";
  }
  ASSERT_EQ(exit_code, FaultInjector::kCrashExitCode)
      << "child did not die at crash point " << spec.point;

  // The induced crash must have dumped a readable flight-recorder
  // artifact before dying (checked before recovery touches the files).
  crash::VerifyFlightArtifact(path);
  RecoverAndVerify(path, opt);
  RemoveDbFiles(path);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, CrashMatrixTest,
    ::testing::Values(
        PointSpec{"insert.before_leaf_log", 0, false, false},
        PointSpec{"insert.before_leaf_log", 20, false, false},
        PointSpec{"insert.after_leaf_apply", 5, false, false},
        PointSpec{"delete.after_mark", 2, false, false},
        PointSpec{"split.after_log_append", 1, false, false},
        PointSpec{"split.before_parent_install", 1, false, false},
        PointSpec{"split.before_nta_commit", 2, false, false},
        PointSpec{"root.before_meta_update", 0, false, false},
        PointSpec{"gc.before_nta_end", 0, false, false},
        PointSpec{"gc.node_delete.before_rightlink_rewire", 0, false, true},
        PointSpec{"bp.before_evict_write", 0, true, false},
        PointSpec{"wal.before_fsync", 8, false, false},
        PointSpec{"wal.after_fsync", 8, false, false},
        PointSpec{"txn.commit.before_log_force", 10, false, false},
        PointSpec{"txn.commit.after_log_force", 10, false, false},
        PointSpec{"ckpt.before_master_update", 0, false, false}),
    [](const ::testing::TestParamInfo<PointSpec>& info) {
      std::string name = info.param.point;
      name += "_skip" + std::to_string(info.param.skip);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Error-path matrix, log column: a log write or sync fails in-process
// (kStatus) and the workload handles the error as the engine's callers
// do, runs to its end, and exits without a shutdown. The failed batch
// stops the log: the commit it carried stays in doubt, every later update
// fails, and restart decides each transaction from the durable log. Both
// recoveries must agree with each other and with the WAL oracle.
// ---------------------------------------------------------------------

struct ErrorCell {
  const char* point;
  int skip;  ///< Fail the (skip+1)-th log batch the flusher writes.
};

std::vector<ErrorCell> LogErrorCells() {
#if GISTCR_LONG_TESTS
  const std::vector<int> skips = {0, 1, 3, 8, 20, 40, 80};
#else
  const std::vector<int> skips = {0, 8};
#endif
  std::vector<ErrorCell> cells;
  for (const char* point : {"wal.before_fsync", "wal.after_fsync"}) {
    for (int skip : skips) cells.push_back({point, skip});
  }
  return cells;
}

class ErrorPathMatrixTest : public ::testing::TestWithParam<ErrorCell> {};

TEST_P(ErrorPathMatrixTest, HandleRecoverTwiceVerify) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const ErrorCell& cell = GetParam();
  const std::string path = TestPath("errpath");
  RemoveDbFiles(path);

  TortureOptions opt;
  opt.txns = kWorkloadTxns;
  opt.action = FaultInjector::CrashAction::kStatus;
  ASSERT_EQ(ForkTorture(path, cell.point, cell.skip, opt),
            FaultInjector::kCrashExitCode)
      << cell.point << " did not fire, or the workload failed";

  crash::Oracle oracle;
  ASSERT_OK(crash::ComputeOracle(path, &oracle));
  const std::vector<IndexEntry> first =
      crash::RecoverDump(path, opt.max_entries);
  if (HasFatalFailure()) return;
  const std::vector<IndexEntry> second =
      crash::RecoverDump(path, opt.max_entries);
  if (HasFatalFailure()) return;
  crash::ExpectSameEntries(first, second);
  EXPECT_EQ(crash::LiveKeys(first), oracle.visible);
  RemoveDbFiles(path);
}

INSTANTIATE_TEST_SUITE_P(
    LogFaults, ErrorPathMatrixTest, ::testing::ValuesIn(LogErrorCells()),
    [](const ::testing::TestParamInfo<ErrorCell>& info) {
      std::string name = info.param.point;
      name += "_skip" + std::to_string(info.param.skip);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Crash inside a snapshot read (DESIGN.md section 14): the child dies at
// "search.mvcc_visibility" — a snapshot reader mid leaf visit, beside a
// writer with transactions in flight — and recovery must come back to a
// tree whose snapshot reads, served from a version store rebuilt from
// nothing, see exactly the WAL oracle's committed keys.
// ---------------------------------------------------------------------

/// Child: preload, start a writer, arm the visibility crash point once the
/// writer has committed a few transactions, then run snapshot searches
/// from two reader threads until the point fires and kills the process.
[[noreturn]] void RunSnapshotReaderCrashChild(const std::string& path,
                                              const TortureOptions& opt) {
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  dopts.buffer_pool_pages = opt.buffer_pool_pages;
  auto db_or = Database::Create(dopts);
  if (!db_or.ok()) crash::ChildDie("create", db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = opt.max_entries;
  GISTCR_CHILD_OK("create index", db->CreateIndex(1, &ext, gopts));
  auto gist_or = db->GetIndex(1);
  if (!gist_or.ok()) crash::ChildDie("get index", gist_or.status());
  Gist* gist = gist_or.value();

  for (int64_t k = 0; k < 300; k += 16) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    for (int64_t j = k; j < k + 16; j++) {
      auto rid_or = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(j),
                                     "v" + std::to_string(j));
      if (!rid_or.ok()) crash::ChildDie("preload insert", rid_or.status());
    }
    GISTCR_CHILD_OK("preload commit", db->Commit(txn));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> commits{0};
  // Writer: keeps splitting leaves and stamping versions; some of its
  // transactions will be in flight (durable but uncommitted) at the crash.
  std::thread writer([&] {
    for (int64_t k = 1000; !stop.load(); k += 4) {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      bool ok = true;
      for (int64_t j = k; j < k + 4 && ok; j++) {
        ok = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(j),
                              "v" + std::to_string(j))
                 .ok();
      }
      if (ok && db->Commit(txn).ok()) {
        commits.fetch_add(1);
      } else if (!ok) {
        (void)db->Abort(txn);
      }
    }
  });
  while (commits.load() < 5) std::this_thread::yield();

  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPoint("search.mvcc_visibility", 40,
                                        FaultInjector::CrashAction::kExit);
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&] {
      for (int i = 0; i < 5000 && !stop.load(); i++) {
        Transaction* txn = db->Begin(IsolationLevel::kSnapshot);
        std::vector<SearchResult> results;
        (void)gist->Search(txn, BtreeExtension::MakeRange(0, 1 << 20),
                           &results);
        (void)db->Commit(txn);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop = true;
  writer.join();
  std::_Exit(0);  // the visibility point never fired
}

TEST(CrashMatrixInflightReaders, CrashAtMvccVisibilityRecovers) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("snapcrash");
  RemoveDbFiles(path);
  TortureOptions opt;

  const int exit_code =
      ForkAndWait([&] { RunSnapshotReaderCrashChild(path, opt); });
  ASSERT_EQ(exit_code, FaultInjector::kCrashExitCode)
      << "child did not die at search.mvcc_visibility";
  crash::VerifyFlightArtifact(path);

  // Integrity + atomicity against the WAL oracle (read-committed).
  RecoverAndVerify(path, opt);

  // A snapshot begun after recovery must see exactly the oracle's keys:
  // every recovered entry predates the rebuilt version store, so the
  // "ancient record" rule has to make committed entries visible and the
  // losers' undone ones gone.
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  auto db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  ASSERT_OK(db->WaitForRecovery());
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = opt.max_entries;
  ASSERT_OK(db->OpenIndex(1, &ext, gopts));
  Gist* gist = db->GetIndex(1).value();
  crash::Oracle oracle;
  ASSERT_OK(crash::ComputeOracle(path, &oracle));
  Transaction* txn = db->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(txn->is_snapshot());
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 1 << 20),
                         &results));
  ASSERT_OK(db->Commit(txn));
  std::map<int64_t, uint64_t> found;
  for (const SearchResult& r : results) {
    found[BtreeExtension::Lo(r.key)] = r.rid.Pack();
  }
  EXPECT_EQ(found.size(), results.size()) << "duplicate snapshot results";
  EXPECT_EQ(found, oracle.visible);
  RemoveDbFiles(path);
}

// Every matrix point (and the recovery-phase points) must be a registered
// name — catches typos between call sites, catalogue, and tests.
TEST(CrashPointCatas, MatrixPointsAreCatalogued) {
  for (const char* p :
       {"insert.before_leaf_log", "insert.after_leaf_apply",
        "delete.after_mark", "split.after_log_append",
        "split.before_parent_install", "split.before_nta_commit",
        "root.before_meta_update", "gc.before_nta_end",
        "gc.node_delete.before_rightlink_rewire", "bp.before_evict_write",
        "wal.before_fsync", "wal.after_fsync", "txn.commit.before_log_force",
        "txn.commit.after_log_force", "ckpt.before_master_update",
        "search.mvcc_visibility", "recovery.after_analysis",
        "recovery.mid_undo"}) {
    EXPECT_TRUE(crash::IsCatalogued(p)) << p;
  }
}

}  // namespace
}  // namespace gistcr
