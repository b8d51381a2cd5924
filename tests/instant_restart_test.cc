/// Instant restart (DESIGN.md section 16): the database opens for business
/// right after log analysis, redo happens per page (inline on first touch
/// or from the background drainer), and loser undo runs as ordinary
/// aborting transactions concurrent with new work. These tests pin the
/// load-bearing properties:
///   1. the reopened database serves new transactions while recovery is
///      still draining, and the drained state matches the WAL oracle;
///   2. reading first (inline replay) and draining first (background
///      replay) converge to byte-identical trees from the same crash image;
///   3. a crash *during* recovery (analysis, inline redo, background drain,
///      concurrent undo) recovers idempotently — two further restarts
///      produce identical trees with no loser leakage;
///   4. the checkpoint's redo floor is where restart can read: a log
///      unreadable below the checkpoint fails the open instead of passing
///      for a torn tail, a checkpoint taken before anything is appended
///      logs a floor the next restart starts from, a checkpoint that
///      races a Begin or the drainer still logs a floor below every record
///      the next restart needs, a checkpoint inside another never moves
///      the master back, and a torn tail is cut before new work lands
///      behind it;
///   5. snapshot reads fall back to repeatable read only while loser undo
///      runs;
///   6. a loser's unfinished nested top action is rolled back before the
///      database opens, so no new work lands on a page its undo takes away;
///   7. heap records need no heap tail to recover: a loser's grown pages
///      and a grow cut off before its NTA-End leave committed records
///      readable through their rids and new inserts working;
///   8. one drainer per hardware thread changes nothing a page ends up as:
///      inline replay and the drainers write byte-identical data files,
///      writers and checkpoints racing the drainers lose nothing across a
///      crash, and a replay error on one drainer leaves the rest of the
///      pages pending for an inline fetch or a second drain.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "access/btree_extension.h"
#include "db/database.h"
#include "db/meta_page.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "tests/crash_harness.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "wal/log_payloads.h"

namespace gistcr {
namespace {

using crash::ChildDie;  // GISTCR_CHILD_OK expands to an unqualified call
using crash::ExpectSameEntries;
using crash::ForkAndWait;
using crash::ForkTorture;
using crash::RecoverDump;
using crash::TortureOptions;

void CopyFile(const std::string& from, const std::string& to) {
  FILE* in = std::fopen(from.c_str(), "rb");
  ASSERT_NE(in, nullptr) << from;
  FILE* out = std::fopen(to.c_str(), "wb");
  ASSERT_NE(out, nullptr) << to;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    ASSERT_EQ(std::fwrite(buf, 1, n, out), n);
  }
  std::fclose(in);
  std::fclose(out);
}

// ---------------------------------------------------------------------
// 1. Serve during recovery.
// ---------------------------------------------------------------------

TEST(InstantRestartTest, ServesNewWorkWhileRecoveryDrains) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("instant_serve");
  RemoveDbFiles(path);
  TortureOptions opt;
  ASSERT_EQ(ForkTorture(path, "txn.commit.before_log_force", 10, opt),
            FaultInjector::kCrashExitCode);
  crash::Oracle oracle;
  ASSERT_OK(crash::ComputeOracle(path, &oracle));

  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  auto db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = opt.max_entries;
  ASSERT_OK(db->OpenIndex(1, &ext, gopts));
  Gist* gist = db->GetIndex(1).value();

  // First commit BEFORE waiting for recovery: the whole point of instant
  // restart. The hybrid protocol orders us behind any loser that still
  // X-holds conflicting records; a fresh disjoint key conflicts with none.
  const int64_t fresh = 5'000'000;
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  auto rid_or = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(fresh),
                                 "fresh");
  ASSERT_OK(rid_or.status());
  ASSERT_OK(db->Commit(txn));

  // Drain progress is observable while (and after) recovery runs.
  auto view_or = db->InspectJson("recovery");
  ASSERT_OK(view_or.status());
  EXPECT_NE(view_or.value().find("\"instant_active\":"), std::string::npos);
  EXPECT_NE(view_or.value().find("\"pages_pending\":"), std::string::npos);

  ASSERT_OK(db->WaitForRecovery());
  ASSERT_OK(gist->CheckInvariants());

  // Drained state = WAL oracle + the transaction we ran mid-recovery.
  Transaction* reader = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(reader, BtreeExtension::MakeRange(0, 1 << 24),
                         &results));
  ASSERT_OK(db->Commit(reader));
  std::map<int64_t, uint64_t> found;
  for (const SearchResult& r : results) {
    found[BtreeExtension::Lo(r.key)] = r.rid.Pack();
  }
  crash::Oracle expect = oracle;
  expect.visible[fresh] = rid_or.value().Pack();
  EXPECT_EQ(found, expect.visible);

  // The instant machinery actually ran: something was redone through the
  // gate (inline or background), and the open-time gauge was stamped.
  const uint64_t inline_redos =
      db->metrics()->GetCounter("recovery.inline_redos")->value();
  const uint64_t background_redos =
      db->metrics()->GetCounter("recovery.background_redos")->value();
  EXPECT_GT(inline_redos + background_redos, 0u);
  RemoveDbFiles(path);
}

// ---------------------------------------------------------------------
// 2. Read-first and drain-first recovery converge from the same image.
// ---------------------------------------------------------------------

/// "Offline" is the drained open — WaitForRecovery before the first read,
/// the state an offline restart hands back — against the instant open,
/// whose first read replays the index pages it reaches inline while the
/// drainer and the loser undo run beside it.
class InstantOfflineEquivalenceTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

TEST_P(InstantOfflineEquivalenceTest, SameCrashImageSameTree) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const auto& [point, skip] = GetParam();
  const std::string path = TestPath("instant_equiv");
  RemoveDbFiles(path);
  TortureOptions opt;
  const int exit_code = ForkTorture(path, point, skip, opt);
  if (exit_code == 0) {
    RemoveDbFiles(path);
    GTEST_SKIP() << point << " did not fire under this workload";
  }
  ASSERT_EQ(exit_code, FaultInjector::kCrashExitCode);
  crash::Oracle oracle;
  ASSERT_OK(crash::ComputeOracle(path, &oracle));

  // Preserve the crash image: recovery mutates the files.
  CopyFile(path + ".db", path + ".bak.db");
  CopyFile(path + ".wal", path + ".bak.wal");

  std::map<int64_t, uint64_t> early;
  std::vector<IndexEntry> read_first =
      RecoverDump(path, opt.max_entries, &early);
  ASSERT_FALSE(read_first.empty());
  EXPECT_EQ(early, oracle.visible);

  CopyFile(path + ".bak.db", path + ".db");
  CopyFile(path + ".bak.wal", path + ".wal");

  std::vector<IndexEntry> drain_first = RecoverDump(path, opt.max_entries);
  ExpectSameEntries(read_first, drain_first);
  EXPECT_EQ(crash::LiveKeys(drain_first), oracle.visible);
  std::remove((path + ".bak.db").c_str());
  std::remove((path + ".bak.wal").c_str());
  RemoveDbFiles(path);
}

INSTANTIATE_TEST_SUITE_P(
    CrashShapes, InstantOfflineEquivalenceTest,
    ::testing::Values(std::make_pair("txn.commit.before_log_force", 10),
                      std::make_pair("split.after_log_append", 2),
                      std::make_pair("split.before_nta_commit", 1),
                      std::make_pair("ckpt.before_master_update", 0),
                      std::make_pair("wal.after_fsync", 8)),
    [](const ::testing::TestParamInfo<std::pair<const char*, int>>& info) {
      std::string name = info.param.first;
      name += "_skip" + std::to_string(info.param.second);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// 3. Crash during recovery itself, then recover twice.
// ---------------------------------------------------------------------

/// Builds a database whose WAL ends with a guaranteed durable loser (its
/// updates flushed, its Commit not), with a checkpoint in the middle so
/// instant analysis starts from a redo floor.
[[noreturn]] void RunDurableLoserBuilder(const std::string& path) {
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  auto db_or = Database::Create(dopts);
  if (!db_or.ok()) crash::ChildDie("create", db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = 5;
  GISTCR_CHILD_OK("create index", db->CreateIndex(1, &ext, gopts));
  Gist* gist = db->GetIndex(1).value();

  int64_t key = 0;
  for (int t = 0; t < 24; t++) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    for (int i = 0; i < 4; i++) {
      const int64_t k = key++;
      auto rid_or = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                     "v" + std::to_string(k));
      if (!rid_or.ok()) crash::ChildDie("insert", rid_or.status());
    }
    GISTCR_CHILD_OK("commit", db->Commit(txn));
    if (t == 12) GISTCR_CHILD_OK("checkpoint", db->Checkpoint());
  }

  Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
  for (int i = 0; i < 15; i++) {
    const int64_t k = key++;
    auto rid_or = db->InsertRecord(loser, gist, BtreeExtension::MakeKey(k),
                                   "v" + std::to_string(k));
    if (!rid_or.ok()) crash::ChildDie("loser insert", rid_or.status());
  }
  GISTCR_CHILD_OK("loser flush", db->log()->FlushAll());
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPoint("txn.commit.before_log_force", 0,
                                        FaultInjector::CrashAction::kExit);
  (void)db->Commit(loser);  // dies at the crash point
  std::_Exit(3);            // should be unreachable
}

/// Opens with a recovery crash point armed, then waits for the
/// background phase so the drain/undo points can fire.
[[noreturn]] void RunRecoveryCrashChild(const std::string& path,
                                        const char* point, int skip) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPoint(point, skip,
                                        FaultInjector::CrashAction::kExit);
  DatabaseOptions dopts;
  dopts.path = path;
  auto db_or = Database::Open(dopts);
  if (!db_or.ok()) std::_Exit(3);
  Status st = db_or.value()->WaitForRecovery();
  // Reaching here means the point never fired during recovery.
  std::_Exit(st.ok() ? 0 : 3);
}

class InstantRestartCrashTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

TEST_P(InstantRestartCrashTest, CrashMidInstantRecoveryThenRecoverTwice) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const auto& [point, skip] = GetParam();
  const std::string path = TestPath("instant_idem");
  RemoveDbFiles(path);

  ASSERT_EQ(ForkAndWait([&] { RunDurableLoserBuilder(path); }),
            FaultInjector::kCrashExitCode);

  ASSERT_EQ(
      ForkAndWait([&] { RunRecoveryCrashChild(path, point, skip); }),
      FaultInjector::kCrashExitCode)
      << point << " did not fire during recovery";

  // Page-LSN test + CLR backchain make redo and undo idempotent: both
  // recoveries produce the identical tree.
  std::vector<IndexEntry> first = RecoverDump(path, 5);
  ASSERT_FALSE(first.empty());
  std::vector<IndexEntry> second = RecoverDump(path, 5);
  ExpectSameEntries(first, second);

  // Keys 0..95 belong to the 24 winner txns; 96..110 to the loser. The
  // loser must have been fully undone despite the mid-recovery crash.
  crash::Oracle oracle;
  ASSERT_OK(crash::ComputeOracle(path, &oracle));
  EXPECT_EQ(crash::LiveKeys(first), oracle.visible);
  EXPECT_EQ(oracle.visible.size(), 96u);
  for (const auto& [k, rid] : oracle.visible) {
    (void)rid;
    EXPECT_LT(k, 96);
  }
  RemoveDbFiles(path);
}

INSTANTIATE_TEST_SUITE_P(
    InstantPhases, InstantRestartCrashTest,
    ::testing::Values(std::make_pair("recovery.after_analysis", 0),
                      std::make_pair("recovery.mid_undo", 3),
                      std::make_pair("instant.inline_redo", 0),
                      std::make_pair("instant.bg_drain", 0),
                      std::make_pair("instant.undo", 0)),
    [](const ::testing::TestParamInfo<std::pair<const char*, int>>& info) {
      std::string name = info.param.first;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// Kills while several drainers are mid-replay: RunDurableLoserBuilder's
// image drains about 90 pages in the background, one hit per page claimed.
std::vector<std::pair<const char*, int>> DrainerKillCells() {
#if GISTCR_LONG_TESTS
  const std::vector<int> skips = {1, 3, 7, 15, 25, 40, 60};
#else
  const std::vector<int> skips = {7, 40};
#endif
  std::vector<std::pair<const char*, int>> cells;
  for (int skip : skips) cells.emplace_back("instant.bg_drain", skip);
  return cells;
}

INSTANTIATE_TEST_SUITE_P(
    DrainerKills, InstantRestartCrashTest,
    ::testing::ValuesIn(DrainerKillCells()),
    [](const ::testing::TestParamInfo<std::pair<const char*, int>>& info) {
      std::string name = info.param.first;
      name += "_skip" + std::to_string(info.param.second);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// The instant crash points must be registered catalogue names.
TEST(InstantRestartCatalogue, PointsAreCatalogued) {
  for (const char* p :
       {"instant.inline_redo", "instant.bg_drain", "instant.undo",
        "txn.after_log_append", "ckpt.between_snapshots"}) {
    EXPECT_TRUE(crash::IsCatalogued(p)) << p;
  }
}

// ---------------------------------------------------------------------
// 4. The redo floor.
// ---------------------------------------------------------------------

TEST(InstantRestartTest, HoleBelowCheckpointFailsOpen) {
  const std::string path = TestPath("instant_hole");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    // Committed work left dirty in the pool, so the checkpoint's DPT puts
    // the redo floor below the checkpoint record; then more work above it.
    for (int64_t round = 0; round < 2; round++) {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      for (int64_t k = round * 100; k < round * 100 + 100; k++) {
        ASSERT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v")
                      .status());
      }
      ASSERT_OK(db->Commit(txn));
      if (round == 0) ASSERT_OK(db->Checkpoint());
    }
    db->SimulateCrash();
  }

  // Zero the first record above the checkpoint's logged redo floor: the
  // shape a hole-punch inside the redo span leaves behind.
  Lsn ckpt = kInvalidLsn;
  {
    FILE* f = std::fopen((path + ".ckpt").c_str(), "r");
    ASSERT_NE(f, nullptr);
    unsigned long long v = 0;
    ASSERT_EQ(std::fscanf(f, "%llu", &v), 1);
    std::fclose(f);
    ckpt = static_cast<Lsn>(v);
  }
  Lsn victim = kInvalidLsn;
  size_t victim_size = 0;
  {
    LogManager log;
    ASSERT_OK(log.Open(path + ".wal"));
    LogRecord rec;
    ASSERT_OK(log.ReadRecord(ckpt, &rec));
    CheckpointPayload pl;
    ASSERT_TRUE(pl.DecodeFrom(rec.payload));
    const Lsn floor = pl.redo_floor;
    ASSERT_LT(floor, ckpt);
    ASSERT_OK(log.Scan(floor, kInvalidLsn, [&](const LogRecord& r) {
      if (r.lsn == floor) return true;
      victim = r.lsn;
      victim_size = r.SerializedSize();
      return false;
    }));
    log.Close();
  }
  ASSERT_LT(victim, ckpt);
  {
    const int fd = ::open((path + ".wal").c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const std::string zeros(victim_size, '\0');
    ASSERT_EQ(::pwrite(fd, zeros.data(), zeros.size(),
                       static_cast<off_t>(victim)),
              static_cast<ssize_t>(zeros.size()));
    ::close(fd);
  }

  auto db_or = Database::Open(dopts);
  EXPECT_TRUE(db_or.status().IsCorruption()) << db_or.status().ToString();
  RemoveDbFiles(path);
}

// Keys of index \p gist that a read-committed search finds, sorted.
std::vector<int64_t> CommittedKeys(Database* db, Gist* gist) {
  Transaction* reader = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  EXPECT_OK(gist->Search(reader, BtreeExtension::MakeRange(0, 1000),
                         &results));
  EXPECT_OK(db->Commit(reader));
  std::vector<int64_t> keys;
  for (const SearchResult& r : results) {
    keys.push_back(BtreeExtension::Lo(r.key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// A torn record at the log's end is cut before new work. Left in place,
// new records were appended after it and the next restart's scan stopped
// at it: a key committed after the first restart was lost, or, with a
// checkpoint above the torn bytes, every later Open failed.
TEST(InstantRestartTest, TornTailIsCutBeforeNewWork) {
  static BtreeExtension ext;
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "checkpoint after key 2" : "no checkpoint");
    const std::string path = TestPath("instant_torn_tail");
    RemoveDbFiles(path);
    DatabaseOptions dopts;
    dopts.path = path;
    {
      auto db_or = Database::Create(dopts);
      ASSERT_OK(db_or.status());
      auto db = db_or.MoveValue();
      ASSERT_OK(db->CreateIndex(1, &ext));
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      ASSERT_OK(db->InsertRecord(txn, db->GetIndex(1).value(),
                                 BtreeExtension::MakeKey(1), "v")
                    .status());
      ASSERT_OK(db->Commit(txn));
      db->SimulateCrash();
    }
    // The first 40 bytes of a record whose write the crash cut short.
    Lsn whole_end = kInvalidLsn;
    {
      LogRecord torn;
      torn.type = LogRecordType::kAddLeafEntry;
      torn.txn_id = 99;
      torn.payload = std::string(100, 't');
      std::string bytes;
      torn.EncodeTo(&bytes);
      FILE* f = std::fopen((path + ".wal").c_str(), "ab");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
      whole_end = static_cast<Lsn>(std::ftell(f));
      ASSERT_EQ(std::fwrite(bytes.data(), 1, 40, f), 40u);
      std::fclose(f);
    }
    {
      auto db_or = Database::Open(dopts);
      ASSERT_OK(db_or.status());
      auto db = db_or.MoveValue();
      EXPECT_EQ(db->log()->next_lsn(), whole_end);
      ASSERT_OK(db->WaitForRecovery());
      ASSERT_OK(db->OpenIndex(1, &ext));
      Gist* gist = db->GetIndex(1).value();
      EXPECT_EQ(CommittedKeys(db.get(), gist), (std::vector<int64_t>{1}));
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      ASSERT_OK(
          db->InsertRecord(txn, gist, BtreeExtension::MakeKey(2), "v")
              .status());
      ASSERT_OK(db->Commit(txn));  // forced
      if (checkpoint) ASSERT_OK(db->Checkpoint());
      db->SimulateCrash();
    }
    auto db_or = Database::Open(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->WaitForRecovery());
    ASSERT_OK(db->OpenIndex(1, &ext));
    EXPECT_EQ(CommittedKeys(db.get(), db->GetIndex(1).value()),
              (std::vector<int64_t>{1, 2}));
    db.reset();
    RemoveDbFiles(path);
  }
}

// A master pointer that names no LSN is damage, not "no checkpoint yet":
// read as the latter, analysis starts at the reclaimed log head, stops at
// the hole, and opens a database that silently lost committed keys. Only
// a missing file means no checkpoint.
TEST(InstantRestartTest, CorruptMasterPointerFailsOpen) {
  const std::string path = TestPath("instant_master");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(1), "v")
                  .status());
    ASSERT_OK(db->Commit(txn));
    ASSERT_OK(db->Checkpoint());
    db->SimulateCrash();
  }
  for (const char* master : {"garbage\n", "", "12 34\n", "77x\n"}) {
    FILE* f = std::fopen((path + ".ckpt").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(master, f);
    std::fclose(f);
    auto db_or = Database::Open(dopts);
    EXPECT_TRUE(db_or.status().IsCorruption())
        << "master \"" << master << "\": " << db_or.status().ToString();
  }
  RemoveDbFiles(path);
}

// Open checks the meta page after analysis: without its magic the image
// is not a database, and Open says so instead of serving from it.
TEST(InstantRestartTest, BadMetaPageFailsOpen) {
  const std::string path = TestPath("instant_meta");
  RemoveDbFiles(path);
  DatabaseOptions dopts;
  dopts.path = path;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
  }
  // DiskManager stamps a valid checksum, so only the meta check objects.
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(path + ".db"));
    char page[kPageSize];
    ASSERT_OK(disk.ReadPage(MetaView::kMetaPageId, page));
    ASSERT_TRUE(MetaView(page).valid());
    std::memset(page + PageView::kHeaderSize, 0, 4);
    ASSERT_OK(disk.WritePage(MetaView::kMetaPageId, page));
    ASSERT_OK(disk.Sync());
  }
  auto db_or = Database::Open(dopts);
  EXPECT_TRUE(db_or.status().IsCorruption()) << db_or.status().ToString();
  RemoveDbFiles(path);
}

// A checkpoint taken before anything is appended after a restart logs a
// floor the next restart can start from.
TEST(InstantRestartTest, CheckpointRightAfterOpenRestarts) {
  const std::string path = TestPath("instant_ckpt_open");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    Transaction* txn = db->Begin();
    ASSERT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(1), "v")
                  .status());
    ASSERT_OK(db->Commit(txn));
  }
  for (int round = 0; round < 2; round++) {
    auto db_or = Database::Open(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->WaitForRecovery());
    ASSERT_OK(db->Checkpoint());
    db->SimulateCrash();
  }
  RemoveDbFiles(path);
}

// A checkpoint taken while a transaction's first record sits between its
// append and the backchain update logs a floor at or below that record:
// the first record publishes the first LSN before the append. Published
// after it, the floor would land above the record, and the loser's
// backchain would reach below the next restart's scan (Open fails) or
// into reclaimed log. Begin itself logs nothing.
TEST(InstantRestartTest, CheckpointInsideBeginKeepsLoserChain) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("instant_ckpt_begin");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(1), "v")
                  .status());
    ASSERT_OK(db->Commit(txn));
    // No dirty page and no other active transaction: only the loser's
    // first record can hold the floor below the checkpoint's log end (its
    // heap page is marked dirty only after the hook returns).
    ASSERT_OK(db->FlushAll());
    Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
    FaultInjector::Global().Reset();
    bool checkpointed = false;
    FaultInjector::Global().ArmCrashPointHook("txn.after_log_append", [&] {
      EXPECT_OK(db->Checkpoint());
      checkpointed = true;
    });
    ASSERT_OK(db->InsertRecord(loser, gist, BtreeExtension::MakeKey(100), "l")
                  .status());
    FaultInjector::Global().Reset();
    ASSERT_TRUE(checkpointed);
    for (int64_t k = 101; k < 150; k++) {
      ASSERT_OK(db->InsertRecord(loser, gist, BtreeExtension::MakeKey(k), "l")
                    .status());
    }
    // A later commit forces the loser's records to disk too.
    txn = db->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(2), "v")
                  .status());
    ASSERT_OK(db->Commit(txn));
    db->SimulateCrash();
  }
  std::map<int64_t, uint64_t> live =
      crash::LiveKeys(RecoverDump(path, /*max_entries=*/0));
  std::vector<int64_t> keys;
  for (const auto& [k, rid] : live) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2}));
  RemoveDbFiles(path);
}

// A page whose replay finishes while a checkpoint takes its snapshots is
// counted by one of them: pending pages are read before the dirty-page
// table, and a replay marks its frame dirty before the page leaves the
// gate. Here the drainer replays every page between the two reads; the
// checkpoint reclaims below the floor it logged, and a crash drops the
// replayed frames, so the next restart must redo them from what is left.
TEST(InstantRestartTest, CheckpointDuringDrainKeepsReplayedPages) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("instant_ckpt_drain");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  GistOptions gopts;
  gopts.max_entries = 8;  // many pages, each with its own plan
  constexpr int64_t kKeys = 400;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext, gopts));
    Gist* gist = db->GetIndex(1).value();
    for (int64_t k = 0; k < kKeys; k += 10) {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      for (int64_t i = k; i < k + 10; i++) {
        ASSERT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(i), "v")
                      .status());
      }
      ASSERT_OK(db->Commit(txn));
    }
    db->SimulateCrash();
  }

  // Keep the pages pending: the drainer's first replay fails, and the
  // pages Open replayed inline are written back, so neither the gate's
  // nor the pool's snapshot holds the floor down by accident.
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPoint("instant.bg_drain");
  {
    auto db_or = Database::Open(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    EXPECT_FALSE(db->WaitForRecovery().ok());
    ASSERT_GT(db->recovery()->PendingPageCount(), 10u);
    ASSERT_OK(db->FlushAll());
    const std::atomic<bool> no_stop{false};
    FaultInjector::Global().ArmCrashPointHook("ckpt.between_snapshots", [&] {
      EXPECT_OK(db->recovery()->RunInstantBackground(no_stop));
    });
    const Status ckpt_st = db->Checkpoint();
    FaultInjector::Global().Reset();  // the hook must not outlive this scope
    ASSERT_OK(ckpt_st);
    ASSERT_EQ(db->recovery()->PendingPageCount(), 0u);
    db->SimulateCrash();
  }
  EXPECT_EQ(crash::LiveKeys(RecoverDump(path, gopts.max_entries)).size(),
            static_cast<size_t>(kKeys));
  RemoveDbFiles(path);
}

// Two checkpoints that overlap cannot undo each other. A whole checkpoint
// runs inside another's window between logging its record and writing the
// master; the inner one has a higher floor and reclaims the log below it,
// the outer one's record included. The outer one must then leave the
// master alone: moved back to its own record, the master would name
// punched log, and the next Open would fail on a database that lost
// nothing.
TEST(InstantRestartTest, CheckpointInsideCheckpointKeepsMaster) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("instant_ckpt_ckpt");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  constexpr int64_t kKeys = 600;
  auto commit_keys = [](Database* db, Gist* gist, int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; k += 50) {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      for (int64_t i = k; i < std::min(k + 50, hi); i++) {
        EXPECT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(i), "v")
                      .status());
      }
      EXPECT_OK(db->Commit(txn));
    }
  };
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    // Enough log first that the outer record lands past the log's first
    // block, which reclaim never punches.
    commit_keys(db.get(), gist, 0, 100);
    FaultInjector::Global().Reset();
    bool inner = false;
    FaultInjector::Global().ArmCrashPointHook("ckpt.before_master_update",
                                              [&] {
      commit_keys(db.get(), gist, 100, kKeys);
      EXPECT_OK(db->FlushAll());
      EXPECT_OK(db->Checkpoint());
      inner = true;
    });
    const Status outer = db->Checkpoint();
    FaultInjector::Global().Reset();
    ASSERT_OK(outer);
    ASSERT_TRUE(inner);
    db->SimulateCrash();
  }
  auto db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  ASSERT_OK(db->OpenIndex(1, &ext));
  ASSERT_OK(db->WaitForRecovery());
  Gist* gist = db->GetIndex(1).value();
  Transaction* reader = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(reader, BtreeExtension::MakeRange(0, kKeys),
                         &results));
  ASSERT_OK(db->Commit(reader));
  EXPECT_EQ(results.size(), static_cast<size_t>(kKeys));
  db.reset();
  RemoveDbFiles(path);
}

// Begin(kSnapshot) falls back to repeatable read while instant restart
// still undoes losers: the version store has not retracted their
// versions yet. Once undo is done, snapshot reads come back.
TEST(InstantRestartTest, SnapshotDowngradesWhileLoserUndoRuns) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("instant_snap_undo");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
    for (int64_t k = 0; k < 10; k++) {
      ASSERT_OK(db->InsertRecord(loser, gist, BtreeExtension::MakeKey(k), "l")
                    .status());
    }
    ASSERT_OK(db->log()->FlushAll());
    db->SimulateCrash();
  }

  // Park the drainer at the loser's undo until the probe is done.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPointHook("instant.undo", [&] {
    parked.set_value();
    released.wait();
  });
  auto db_or = Database::Open(dopts);
  if (!db_or.ok()) FaultInjector::Global().Reset();
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  const bool was_parked = parked.get_future().wait_for(
                              std::chrono::seconds(30)) ==
                          std::future_status::ready;
  bool downgraded = false;
  if (was_parked) {
    Transaction* txn = db->Begin(IsolationLevel::kSnapshot);
    downgraded = !txn->is_snapshot();
    EXPECT_OK(db->Commit(txn));
  }
  release.set_value();
  FaultInjector::Global().Reset();
  EXPECT_TRUE(was_parked);
  EXPECT_TRUE(downgraded);

  ASSERT_OK(db->WaitForRecovery());
  Transaction* txn = db->Begin(IsolationLevel::kSnapshot);
  EXPECT_TRUE(txn->is_snapshot());
  ASSERT_OK(db->Commit(txn));
  db.reset();
  RemoveDbFiles(path);
}

// A loser holds the Commit_LSN down at its first LSN until its undo ends,
// so a read-committed search over its uncommitted insert and delete mark
// takes the locked filter even after a new transaction has committed:
// it blocks on the loser's record locks while the background undo runs,
// then sees the committed keys, neither the insert nor the delete.
TEST(InstantRestartTest, ReadCommittedReaderSeesNoLoserEntryDuringUndo) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("instant_rc_loser");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  std::vector<int64_t> committed;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    std::vector<Rid> rids;
    for (int64_t k = 0; k < 10; k++) {
      auto rid = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v");
      ASSERT_OK(rid.status());
      rids.push_back(rid.value());
      committed.push_back(k);
    }
    ASSERT_OK(db->Commit(txn));
    Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(
        db->InsertRecord(loser, gist, BtreeExtension::MakeKey(100), "l")
            .status());
    ASSERT_OK(
        db->DeleteRecord(loser, gist, BtreeExtension::MakeKey(5), rids[5]));
    ASSERT_OK(db->log()->FlushAll());
    db->SimulateCrash();
  }

  // Park the loser's undo until the reader is done.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPointHook("instant.undo", [&] {
    parked.set_value();
    released.wait();
  });
  auto db_or = Database::Open(dopts);
  if (!db_or.ok()) FaultInjector::Global().Reset();
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  const bool was_parked = parked.get_future().wait_for(
                              std::chrono::seconds(30)) ==
                          std::future_status::ready;
  Status st = db->OpenIndex(1, &ext);
  Gist* gist = st.ok() ? db->GetIndex(1).value() : nullptr;
  if (st.ok() && was_parked) {
    // A logged transaction ends on the loser's leaf: the Commit_LSN is
    // refreshed while the loser is still in the table.
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    st = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(200), "n")
             .status();
    if (st.ok()) st = db->Commit(txn);
  }
  std::atomic<bool> read_done{false};
  std::vector<int64_t> seen;
  std::thread reader;
  bool blocked = false;
  if (st.ok() && was_parked) {
    reader = std::thread([&] {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      std::vector<SearchResult> results;
      EXPECT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 150),
                             &results));
      EXPECT_OK(db->Commit(txn));
      for (const SearchResult& r : results) {
        seen.push_back(BtreeExtension::Lo(r.key));
      }
      read_done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    blocked = !read_done.load();
  }
  release.set_value();
  if (reader.joinable()) reader.join();
  FaultInjector::Global().Reset();
  ASSERT_TRUE(was_parked);
  ASSERT_OK(st);
  EXPECT_TRUE(blocked) << "reader read the loser's leaf without a lock";
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, committed);

  ASSERT_OK(db->WaitForRecovery());
  db.reset();
  RemoveDbFiles(path);
}

// ---------------------------------------------------------------------
// 6. A loser's unfinished nested top action is undone before open.
// ---------------------------------------------------------------------

/// Crash image: 8 committed keys fill the root leaf (max_entries 8), then a
/// loser's insert splits it (a root grow) and stops short of the split's
/// NTA-End — the state `split.before_nta_commit` marks.
void BuildUnfinishedSplitImage(const DatabaseOptions& dopts) {
  static BtreeExtension ext;
  auto db_or = Database::Create(dopts);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  GistOptions gopts;
  gopts.max_entries = 8;
  ASSERT_OK(db->CreateIndex(1, &ext, gopts));
  Gist* gist = db->GetIndex(1).value();
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  for (int64_t k = 0; k < 8; k++) {
    ASSERT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v")
                  .status());
  }
  ASSERT_OK(db->Commit(txn));
  Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
  gist->test_hooks().before_split_nta_end = [] {
    return Status::IOError("crash before NTA-End");
  };
  EXPECT_TRUE(db->InsertRecord(loser, gist, BtreeExtension::MakeKey(100),
                               "l")
                  .status()
                  .IsIOError());
  gist->test_hooks().before_split_nta_end = nullptr;
  ASSERT_OK(db->log()->FlushAll());
  db->SimulateCrash();
}

// New work must not land on a page the loser's pending undo will take
// away. Keys committed into the loser's split sibling while its undo waits
// were lost when the undo merged the sibling back and freed it; Open now
// rolls the loser's unfinished split back before it returns.
TEST(InstantRestartTest, UnfinishedSplitUndoneBeforeNewWork) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("instant_unfinished_split");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  BuildUnfinishedSplitImage(dopts);
  if (HasFatalFailure()) return;

  // Park the loser's (content) undo until the new work has committed.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPointHook("instant.undo", [&] {
    parked.set_value();
    released.wait();
  });
  auto db_or = Database::Open(dopts);
  if (!db_or.ok()) FaultInjector::Global().Reset();
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  const bool was_parked = parked.get_future().wait_for(
                              std::chrono::seconds(30)) ==
                          std::future_status::ready;
  GistOptions gopts;
  gopts.max_entries = 8;
  Status st = db->OpenIndex(1, &ext, gopts);
  Gist* gist = st.ok() ? db->GetIndex(1).value() : nullptr;
  for (int64_t k = 20; k < 25 && st.ok() && was_parked; k++) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    st = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "n")
             .status();
    if (st.ok()) st = db->Commit(txn);
  }
  release.set_value();
  FaultInjector::Global().Reset();
  ASSERT_TRUE(was_parked);
  ASSERT_OK(st);

  ASSERT_OK(db->WaitForRecovery());
  ASSERT_OK(gist->CheckInvariants());
  Transaction* reader = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(reader, BtreeExtension::MakeRange(0, 1000),
                         &results));
  ASSERT_OK(db->Commit(reader));
  std::vector<int64_t> keys;
  for (const SearchResult& r : results) {
    keys.push_back(BtreeExtension::Lo(r.key));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 20, 21, 22,
                                        23, 24}));
  db.reset();
  RemoveDbFiles(path);
}

// Two losers' unfinished splits are undone newest record first. Loser 1
// splits a leaf, filling the root; loser 2's split then has to split the
// root, which moves loser 1's leaf entries to the root's new sibling.
// Undoing loser 1 first would look for those entries in the old root.
TEST(InstantRestartTest, UnfinishedSplitsUndoneNewestFirst) {
  const std::string path = TestPath("instant_two_splits");
  RemoveDbFiles(path);
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  GistOptions gopts;
  gopts.max_entries = 4;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext, gopts));
    Gist* gist = db->GetIndex(1).value();
    auto insert = [&](Transaction* txn, int64_t k) {
      return db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v")
          .status();
    };
    // Leaves [0,10] [20,30] [40..70] under a root with room for one more.
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    for (int64_t k = 0; k < 80; k += 10) ASSERT_OK(insert(txn, k));
    ASSERT_OK(db->Commit(txn));
    ASSERT_EQ(gist->Height().value(), 2u);
    gist->test_hooks().before_split_nta_end = [] {
      return Status::IOError("crash before NTA-End");
    };
    Transaction* loser1 = db->Begin(IsolationLevel::kReadCommitted);
    EXPECT_TRUE(insert(loser1, 80).IsIOError());  // splits [40..70]
    Transaction* loser2 = db->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(insert(loser2, 1));
    ASSERT_OK(insert(loser2, 2));
    EXPECT_TRUE(insert(loser2, 3).IsIOError());  // grows the root first
    gist->test_hooks().before_split_nta_end = nullptr;
    ASSERT_EQ(gist->Height().value(), 3u);
    ASSERT_OK(db->log()->FlushAll());
    db->SimulateCrash();
  }
  std::map<int64_t, uint64_t> live =
      crash::LiveKeys(RecoverDump(path, gopts.max_entries));
  std::vector<int64_t> keys;
  for (const auto& [k, rid] : live) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int64_t>{0, 10, 20, 30, 40, 50, 60, 70}));
  RemoveDbFiles(path);
}

// A crash inside that pre-open undo recovers like any other: the CLRs it
// wrote let the next restart resume, and two more restarts agree.
TEST(InstantRestartTest, CrashInPreOpenUndoThenRecoverTwice) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("instant_preopen_undo");
  for (int skip = 0; skip < 3; skip++) {
    RemoveDbFiles(path);
    DatabaseOptions dopts;
    dopts.path = path;
    BuildUnfinishedSplitImage(dopts);
    if (HasFatalFailure()) return;
    // Dies inside Open: the loser's split is undone before Open returns.
    ASSERT_EQ(ForkAndWait([&] {
                FaultInjector::Global().Reset();
                FaultInjector::Global().ArmCrashPoint(
                    "recovery.mid_undo", skip,
                    FaultInjector::CrashAction::kExit);
                auto db_or = Database::Open(dopts);
                std::_Exit(db_or.ok() ? 5 : 3);
              }),
              FaultInjector::kCrashExitCode)
        << "skip " << skip;
    std::vector<IndexEntry> first = RecoverDump(path, 8);
    std::vector<IndexEntry> second = RecoverDump(path, 8);
    ExpectSameEntries(first, second);
    std::map<int64_t, uint64_t> live = crash::LiveKeys(first);
    EXPECT_EQ(live.size(), 8u) << "skip " << skip;
    EXPECT_EQ(live.count(100), 0u);
  }
  RemoveDbFiles(path);
}

// ---------------------------------------------------------------------
// 7. Heap records are reached through their rids alone.
// ---------------------------------------------------------------------

/// A 1000-byte heap record for \p k: eight fill a heap page.
std::string HeapRecord(int64_t k) {
  std::string r = "k" + std::to_string(k) + ":";
  r.resize(1000, static_cast<char>('a' + k % 26));
  return r;
}

/// What a crashed child inserted: each committed key's rid, and the rids
/// of its loser. The child writes it to <path>.rids before it dies.
struct HeapImage {
  std::map<int64_t, uint64_t> committed;
  std::vector<uint64_t> loser;
};

void WriteHeapImage(const std::string& path, const HeapImage& img) {
  FILE* f = std::fopen((path + ".rids").c_str(), "w");
  if (f == nullptr) ChildDie("rids file", Status::IOError(path));
  for (const auto& [k, rid] : img.committed) {
    std::fprintf(f, "c %lld %llu\n", static_cast<long long>(k),
                 static_cast<unsigned long long>(rid));
  }
  for (uint64_t rid : img.loser) {
    std::fprintf(f, "l 0 %llu\n", static_cast<unsigned long long>(rid));
  }
  if (std::fclose(f) != 0) ChildDie("rids file", Status::IOError(path));
}

HeapImage ReadHeapImage(const std::string& path) {
  HeapImage img;
  FILE* f = std::fopen((path + ".rids").c_str(), "r");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return img;
  char kind = 0;
  long long k = 0;
  unsigned long long rid = 0;
  while (std::fscanf(f, " %c %lld %llu", &kind, &k, &rid) == 3) {
    if (kind == 'c') {
      img.committed[k] = rid;
    } else {
      img.loser.push_back(rid);
    }
  }
  std::fclose(f);
  return img;
}

/// Recovers \p path, then checks index 1's invariants, that the index
/// holds exactly the committed keys with their rids, that each of those
/// rids reads its record back and that each loser rid reads NotFound.
/// With \p more > 0 a transaction then commits that many new keys, which
/// join img->committed. Ends with SimulateCrash.
void RecoverAndCheckHeap(const std::string& path, HeapImage* img,
                         int more = 0) {
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  auto db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  ASSERT_OK(db->WaitForRecovery());
  ASSERT_OK(db->OpenIndex(1, &ext));
  Gist* gist = db->GetIndex(1).value();
  ASSERT_OK(gist->CheckInvariants());
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 1 << 20),
                         &results));
  std::map<int64_t, uint64_t> found;
  for (const SearchResult& r : results) {
    found[BtreeExtension::Lo(r.key)] = r.rid.Pack();
  }
  EXPECT_EQ(found, img->committed);
  for (const auto& [k, rid] : img->committed) {
    auto rec_or = db->ReadRecord(Rid::Unpack(rid));
    EXPECT_TRUE(rec_or.ok() && rec_or.value() == HeapRecord(k))
        << "key " << k << ": " << rec_or.status().ToString();
  }
  for (uint64_t rid : img->loser) {
    EXPECT_TRUE(db->ReadRecord(Rid::Unpack(rid)).status().IsNotFound())
        << "loser rid " << rid;
  }
  int64_t next = img->committed.empty() ? 0 : img->committed.rbegin()->first;
  for (int i = 0; i < more; i++) {
    const int64_t k = ++next;
    auto rid_or = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                   HeapRecord(k));
    ASSERT_OK(rid_or.status());
    img->committed[k] = rid_or.value().Pack();
  }
  ASSERT_OK(db->Commit(txn));
  db->SimulateCrash();
}

// Committed transactions fill heap pages around a checkpoint; a loser
// grows the heap by three pages, its records are flushed, and the process
// dies as it commits. Two recoveries agree: the committed records read
// back through their rids, the loser's read NotFound. New records commit
// after that, and survive one more crash.
TEST(InstantRestartHeapTest, LoserGrowsRecoverTwiceThenCommitMore) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("heap_grows");
  RemoveDbFiles(path);
  ASSERT_EQ(ForkAndWait([&] {
              static BtreeExtension ext;
              DatabaseOptions dopts;
              dopts.path = path;
              auto db_or = Database::Create(dopts);
              if (!db_or.ok()) ChildDie("create", db_or.status());
              auto db = db_or.MoveValue();
              GISTCR_CHILD_OK("create index", db->CreateIndex(1, &ext));
              Gist* gist = db->GetIndex(1).value();
              HeapImage img;
              int64_t k = 0;
              std::set<PageId> committed_pages;
              for (int t = 0; t < 10; t++) {  // 80 records: 10 heap pages
                Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
                for (int i = 0; i < 8; i++, k++) {
                  auto rid_or = db->InsertRecord(
                      txn, gist, BtreeExtension::MakeKey(k), HeapRecord(k));
                  if (!rid_or.ok()) ChildDie("insert", rid_or.status());
                  img.committed[k] = rid_or.value().Pack();
                  committed_pages.insert(rid_or.value().page_id);
                }
                GISTCR_CHILD_OK("commit", db->Commit(txn));
                if (t == 4) GISTCR_CHILD_OK("checkpoint", db->Checkpoint());
              }
              Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
              std::set<PageId> grown;
              for (int i = 0; i < 20; i++, k++) {
                auto rid_or = db->InsertRecord(
                    loser, gist, BtreeExtension::MakeKey(k), HeapRecord(k));
                if (!rid_or.ok()) ChildDie("loser insert", rid_or.status());
                img.loser.push_back(rid_or.value().Pack());
                if (committed_pages.count(rid_or.value().page_id) == 0) {
                  grown.insert(rid_or.value().page_id);
                }
              }
              if (grown.size() < 2) {
                ChildDie("loser grew too little", Status::OK());
              }
              GISTCR_CHILD_OK("flush", db->log()->FlushAll());
              WriteHeapImage(path, img);
              FaultInjector::Global().Reset();
              FaultInjector::Global().ArmCrashPoint(
                  "txn.commit.before_log_force", 0,
                  FaultInjector::CrashAction::kExit);
              GISTCR_CHILD_OK("loser commit", db->Commit(loser));
              std::_Exit(0);  // the armed point never fired
            }),
            FaultInjector::kCrashExitCode);
  HeapImage img = ReadHeapImage(path);
  ASSERT_EQ(img.committed.size(), 80u);
  ASSERT_EQ(img.loser.size(), 20u);
  RecoverAndCheckHeap(path, &img);
  if (HasFatalFailure()) return;
  RecoverAndCheckHeap(path, &img, /*more=*/20);
  if (HasFatalFailure()) return;
  RecoverAndCheckHeap(path, &img);
  RemoveDbFiles(path);
  std::remove((path + ".rids").c_str());
}

// A crash after a heap grow's Get-Page is durable and before its NTA-End:
// restart undoes the allocation before it opens, the committed records
// read back, the loser's read NotFound and the next insert succeeds.
TEST(InstantRestartHeapTest, CrashInsideGrowFreesItsPage) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("heap_grow_crash");
  RemoveDbFiles(path);
  DatabaseOptions dopts;
  dopts.path = path;
  std::map<uint64_t, int64_t> committed;  // packed rid -> k
  std::vector<Rid> loser;
  PageId grown = kInvalidPageId;
  {
    auto db_or = Database::Create(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    DataStore* heap = db->data();
    std::map<PageId, int> per_page;
    PageId last = kInvalidPageId;
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    int64_t k = 0;
    for (; k < 20; k++) {  // 20 records: two full heap pages and a third
      auto rid_or = heap->Insert(txn, HeapRecord(k));
      ASSERT_OK(rid_or.status());
      committed[rid_or.value().Pack()] = k;
      last = rid_or.value().page_id;
      per_page[last]++;
    }
    ASSERT_OK(db->Commit(txn));
    int capacity = 0;
    for (const auto& [pid, n] : per_page) capacity = std::max(capacity, n);
    // The loser fills the insert page, so that its next insert grows.
    Transaction* loser_txn = db->Begin(IsolationLevel::kReadCommitted);
    for (; per_page[last] < capacity; k++) {
      auto rid_or = heap->Insert(loser_txn, HeapRecord(k));
      ASSERT_OK(rid_or.status());
      ASSERT_EQ(rid_or.value().page_id, last);
      loser.push_back(rid_or.value());
      per_page[last]++;
    }
    // The grow's first log record is its Get-Page: make it durable there.
    LogRecord flushed;
    FaultInjector::Global().Reset();
    FaultInjector::Global().ArmCrashPointHook("txn.after_log_append", [&] {
      EXPECT_OK(db->log()->FlushAll());
      EXPECT_OK(db->log()->ReadRecord(db->log()->last_lsn(), &flushed));
    });
    auto rid_or = heap->Insert(loser_txn, HeapRecord(k));
    FaultInjector::Global().Reset();
    ASSERT_EQ(flushed.type, LogRecordType::kGetPage);
    ASSERT_OK(rid_or.status());
    grown = rid_or.value().page_id;
    ASSERT_NE(grown, last);
    loser.push_back(rid_or.value());
    db->SimulateCrash();
  }
  auto db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  ASSERT_OK(db->WaitForRecovery());
  auto allocated = db->allocator()->IsAllocated(grown);
  ASSERT_OK(allocated.status());
  EXPECT_FALSE(allocated.value());
  for (const auto& [rid, k] : committed) {
    auto rec_or = db->data()->Read(Rid::Unpack(rid));
    EXPECT_TRUE(rec_or.ok() && rec_or.value() == HeapRecord(k))
        << "k " << k << ": " << rec_or.status().ToString();
  }
  for (const Rid& rid : loser) {
    EXPECT_TRUE(db->data()->Read(rid).status().IsNotFound())
        << "loser rid " << rid.Pack();
  }
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  auto rid_or = db->data()->Insert(txn, HeapRecord(100));
  ASSERT_OK(rid_or.status());
  ASSERT_OK(db->Commit(txn));
  auto rec_or = db->data()->Read(rid_or.value());
  ASSERT_OK(rec_or.status());
  EXPECT_EQ(rec_or.value(), HeapRecord(100));
  db.reset();
  RemoveDbFiles(path);
}

// ---------------------------------------------------------------------
// 8. Many drainers.
// ---------------------------------------------------------------------

constexpr uint16_t kWideMaxEntries = 8;
constexpr int64_t kWideKeys = 2400;  // committed keys 0, 10, ..., 23990

/// A 160-byte heap record for \p k: about fifty fill a heap page.
std::string WideRecord(int64_t k) {
  std::string r = "w" + std::to_string(k) + ":";
  r.resize(160, static_cast<char>('a' + k % 26));
  return r;
}

/// Crash image with several hundred pending pages. 2400 keys commit in
/// shuffled order, so leaves and internal nodes split all over the tree,
/// each with a heap record; a seventh of them are then deleted. Last, a
/// loser's inserts finish one split's nested top action and stop another
/// before its NTA-End. Only what CreateIndex flushed reaches the data file,
/// so every page the log touches is pending at restart.
void BuildWideImage(const std::string& path) {
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  auto db_or = Database::Create(dopts);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  GistOptions gopts;
  gopts.max_entries = kWideMaxEntries;
  ASSERT_OK(db->CreateIndex(1, &ext, gopts));
  Gist* gist = db->GetIndex(1).value();

  std::vector<int64_t> keys;
  for (int64_t i = 0; i < kWideKeys; i++) keys.push_back(i * 10);
  Random rng(28);
  for (size_t i = keys.size() - 1; i > 0; i--) {
    std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  }
  std::map<int64_t, Rid> rids;
  for (size_t i = 0; i < keys.size(); i += 24) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    for (size_t j = i; j < std::min(i + 24, keys.size()); j++) {
      auto rid_or = db->InsertRecord(txn, gist,
                                     BtreeExtension::MakeKey(keys[j]),
                                     WideRecord(keys[j]));
      ASSERT_OK(rid_or.status());
      rids[keys[j]] = rid_or.value();
    }
    ASSERT_OK(db->Commit(txn));
  }
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  for (const auto& [k, rid] : rids) {
    if ((k / 10) % 7 == 3) {
      ASSERT_OK(db->DeleteRecord(txn, gist, BtreeExtension::MakeKey(k), rid));
    }
  }
  ASSERT_OK(db->Commit(txn));

  // The loser inserts between committed keys until one split has finished,
  // then until a split stops short of its NTA-End.
  obs::Counter* splits = db->metrics()->GetCounter("gist.splits");
  Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
  int64_t k = 12005;
  const uint64_t splits_before = splits->value();
  while (splits->value() == splits_before) {
    ASSERT_LT(k, kWideKeys * 10);
    ASSERT_OK(db->InsertRecord(loser, gist, BtreeExtension::MakeKey(k),
                               WideRecord(k))
                  .status());
    k += 10;
  }
  gist->test_hooks().before_split_nta_end = [] {
    return Status::IOError("crash before NTA-End");
  };
  Status st;
  for (; st.ok(); k += 10) {
    ASSERT_LT(k, kWideKeys * 10);
    st = db->InsertRecord(loser, gist, BtreeExtension::MakeKey(k),
                          WideRecord(k))
             .status();
  }
  gist->test_hooks().before_split_nta_end = nullptr;
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  ASSERT_OK(db->log()->FlushAll());
  db->SimulateCrash();
}

std::string ReadWholeFile(const std::string& path) {
  std::string out;
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Index 1's invariants hold and a full read-committed search finds
/// exactly \p expect (key -> packed rid).
void ExpectWideTree(Database* db, const std::map<int64_t, uint64_t>& expect) {
  static BtreeExtension ext;
  GistOptions gopts;
  gopts.max_entries = kWideMaxEntries;
  auto gist_or = db->GetIndex(1);
  if (!gist_or.ok()) {
    ASSERT_OK(db->OpenIndex(1, &ext, gopts));
    gist_or = db->GetIndex(1);
  }
  ASSERT_OK(gist_or.status());
  Gist* gist = gist_or.value();
  ASSERT_OK(gist->CheckInvariants());
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 1 << 24),
                         &results));
  ASSERT_OK(db->Commit(txn));
  std::map<int64_t, uint64_t> found;
  for (const SearchResult& r : results) {
    const int64_t k = BtreeExtension::Lo(r.key);
    EXPECT_EQ(found.count(k), 0u) << "duplicate visible key " << k;
    found[k] = r.rid.Pack();
  }
  EXPECT_EQ(found, expect);
}

uint64_t CounterValue(Database* db, const char* name) {
  return db->metrics()->GetCounter(name)->value();
}

// Inline replay and the drainers are two paths to one page image. The same
// crash image is recovered twice: once with a thread that fetches every
// page id in ascending order while the background thread waits before the
// loser's undo, so each replay is inline and one at a time, and once
// drained, so the drainers replay every page the undo does not touch. Both
// trees equal the WAL oracle, and after FlushAll the data files are
// identical byte for byte.
TEST(InstantRestartTest, InlineAndDrainerReplaysWriteIdenticalFiles) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("wide_parity");
  RemoveDbFiles(path);
  BuildWideImage(path);
  if (HasFatalFailure()) return;
  crash::Oracle oracle;
  ASSERT_OK(crash::ComputeOracle(path, &oracle));
  const std::string inline_copy = path + "_inline";
  const std::string drained_copy = path + "_drained";
  for (const std::string& copy : {inline_copy, drained_copy}) {
    RemoveDbFiles(copy);
    CopyFile(path + ".db", copy + ".db");
    CopyFile(path + ".wal", copy + ".wal");
  }

  {
    std::promise<void> parked;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    FaultInjector::Global().Reset();
    FaultInjector::Global().ArmCrashPointHook("instant.undo", [&] {
      parked.set_value();
      released.wait();
    });
    DatabaseOptions dopts;
    dopts.path = inline_copy;
    auto db_or = Database::Open(dopts);
    if (!db_or.ok()) FaultInjector::Global().Reset();
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    const bool was_parked = parked.get_future().wait_for(
                                std::chrono::seconds(30)) ==
                            std::future_status::ready;
    const size_t pending_at_open = db->recovery()->PendingPageCount();
    Status st;
    for (PageId pid = 0; was_parked && st.ok() &&
                         db->recovery()->PendingPageCount() > 0 &&
                         pid < (1u << 16);
         pid++) {
      auto frame_or = db->pool()->Fetch(pid);
      st = frame_or.status();
      if (st.ok()) db->pool()->Unpin(frame_or.value());
    }
    const size_t pending_after = db->recovery()->PendingPageCount();
    release.set_value();
    FaultInjector::Global().Reset();
    ASSERT_TRUE(was_parked);
    ASSERT_OK(st);
    EXPECT_GE(pending_at_open, 300u);
    EXPECT_EQ(pending_after, 0u);
    ASSERT_OK(db->WaitForRecovery());
    EXPECT_EQ(CounterValue(db.get(), "recovery.background_redos"), 0u);
    EXPECT_GE(CounterValue(db.get(), "recovery.inline_redos"), 300u);
    ExpectWideTree(db.get(), oracle.visible);
    ASSERT_OK(db->FlushAll());
    db->SimulateCrash();
  }
  {
    DatabaseOptions dopts;
    dopts.path = drained_copy;
    auto db_or = Database::Open(dopts);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->WaitForRecovery());
    const uint64_t inline_redos =
        CounterValue(db.get(), "recovery.inline_redos");
    const uint64_t background_redos =
        CounterValue(db.get(), "recovery.background_redos");
    EXPECT_GE(inline_redos + background_redos, 300u);
    EXPECT_GT(background_redos, inline_redos);
    ExpectWideTree(db.get(), oracle.visible);
    ASSERT_OK(db->FlushAll());
    db->SimulateCrash();
  }

  const std::string a = ReadWholeFile(inline_copy + ".db");
  const std::string b = ReadWholeFile(drained_copy + ".db");
  ASSERT_EQ(a.size(), b.size());
  size_t differing = 0;
  size_t first = a.size();
  for (size_t off = 0; off < a.size(); off += kPageSize) {
    if (a.compare(off, kPageSize, b, off, kPageSize) != 0) {
      differing++;
      first = std::min(first, off / kPageSize);
    }
  }
  EXPECT_EQ(differing, 0u) << "first differing page " << first;
  RemoveDbFiles(inline_copy);
  RemoveDbFiles(drained_copy);
  RemoveDbFiles(path);
}

// Inline replays, rightlink chases into pending pages and checkpoints race
// the drainers, on a pool of \p pool_pages frames. From the moment the
// database opens, three threads insert between the committed keys, delete
// committed keys and search windows across the whole key range, and a
// fourth takes checkpoints, whose redo floors must count the pages still
// pending (DESIGN.md section 16.2). The first drainer to claim a page holds
// it until a checkpoint has been taken with pages pending, so the two
// overlap on every run. The drained tree holds the WAL oracle plus what the
// threads acknowledged, and so does a restart from a crash right after.
void RaceTheDrainers(size_t pool_pages) {
  const std::string path = TestPath("wide_race");
  RemoveDbFiles(path);
  BuildWideImage(path);
  if (::testing::Test::HasFatalFailure()) return;
  crash::Oracle oracle;
  ASSERT_OK(crash::ComputeOracle(path, &oracle));
  constexpr int kWriters = 3;
  // Each writer deletes its own third of the committed keys, in an order
  // spread over the key range.
  std::vector<std::vector<std::pair<int64_t, uint64_t>>> victims(kWriters);
  for (const auto& [k, rid] : oracle.visible) {
    victims[(k / 10) % kWriters].emplace_back(k, rid);
  }
  for (auto& v : victims) {
    Random rng(v.size());
    for (size_t i = v.size() - 1; i > 0; i--) {
      std::swap(v[i], v[rng.Uniform(i + 1)]);
    }
  }

  std::promise<void> overlapped;
  std::shared_future<void> overlap = overlapped.get_future().share();
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPointHook("instant.bg_drain", [overlap] {
    overlap.wait_for(std::chrono::seconds(30));
  });
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  dopts.buffer_pool_pages = pool_pages;
  GistOptions gopts;
  gopts.max_entries = kWideMaxEntries;
  auto db_or = Database::Open(dopts);
  if (!db_or.ok()) FaultInjector::Global().Reset();
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  ASSERT_OK(db->OpenIndex(1, &ext, gopts));
  Gist* gist = db->GetIndex(1).value();

  struct Acked {
    std::map<int64_t, uint64_t> inserted;
    std::vector<int64_t> deleted;
  };
  std::vector<Acked> acked(kWriters);
  std::atomic<bool> drained{false};
  auto writer = [&](int w) {
    Random rng(100 + w);
    // Slots i * 7919 mod kWideKeys are distinct for i < kWideKeys, so no
    // writer inserts a key twice.
    for (int64_t i = 0; i < kWideKeys && (!drained.load() || i < 30); i++) {
      Transaction* reader = db->Begin(IsolationLevel::kReadCommitted);
      const int64_t lo = static_cast<int64_t>(rng.Uniform(kWideKeys * 10));
      std::vector<SearchResult> results;
      Status st = gist->Search(reader, BtreeExtension::MakeRange(lo, lo + 400),
                               &results);
      EXPECT_OK(st);
      EXPECT_OK(db->Commit(reader));
      if (!st.ok()) return;

      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      const int64_t k = (i * 7919 % kWideKeys) * 10 + w + 1;
      auto rid_or = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                     WideRecord(k));
      st = rid_or.status();
      const size_t vi = static_cast<size_t>(i);
      const bool del = st.ok() && vi < victims[w].size();
      if (del) {
        const auto& [vk, vrid] = victims[w][vi];
        st = db->DeleteRecord(txn, gist, BtreeExtension::MakeKey(vk),
                              Rid::Unpack(vrid));
      }
      if (st.ok()) st = db->Commit(txn);
      EXPECT_OK(st);
      if (!st.ok()) {
        if (db->txns()->IsActive(txn->id())) (void)db->Abort(txn);
        return;
      }
      acked[w].inserted[k] = rid_or.value().Pack();
      if (del) acked[w].deleted.push_back(victims[w][vi].first);
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) threads.emplace_back(writer, w);
  // Checkpoints taken while some page was still pending.
  int overlapping = 0;
  threads.emplace_back([&] {
    while (!drained.load()) {
      const bool pending = db->recovery()->PendingPageCount() > 0;
      EXPECT_OK(db->Checkpoint());
      if (pending && overlapping++ == 0) overlapped.set_value();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const Status recovered = db->WaitForRecovery();
  drained = true;
  for (std::thread& t : threads) t.join();
  FaultInjector::Global().Reset();
  ASSERT_OK(recovered);
  EXPECT_GE(overlapping, 1);
  EXPECT_GT(CounterValue(db.get(), "recovery.inline_redos"), 0u);
  EXPECT_GT(CounterValue(db.get(), "recovery.background_redos"), 0u);

  std::map<int64_t, uint64_t> expect = oracle.visible;
  for (const Acked& a : acked) {
    for (const auto& [k, rid] : a.inserted) expect[k] = rid;
    for (int64_t k : a.deleted) expect.erase(k);
  }
  ExpectWideTree(db.get(), expect);
  db->SimulateCrash();
  db.reset();

  db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  db = db_or.MoveValue();
  ASSERT_OK(db->WaitForRecovery());
  ExpectWideTree(db.get(), expect);
  db->SimulateCrash();
  db.reset();
  RemoveDbFiles(path);
}

TEST(InstantRestartTest, WritersAndCheckpointsRaceTheDrainers) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  RaceTheDrainers(DatabaseOptions().buffer_pool_pages);
}

// The same race in the smallest pool a database accepts: one shard of 64
// frames, of which the drainers may pin four.
TEST(InstantRestartTest, WritersAndCheckpointsRaceTheDrainersInTheFloorPool) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  RaceTheDrainers(64);
}

// A replay error on one drainer ends the drain for all of them. The point
// fires past the first page of every drainer, so several are mid-replay.
// WaitForRecovery reports that error and never a helper's stop; the pages
// nobody replayed stay pending behind the armed gate; an inline fetch still
// replays one; and a second background pass drains the rest.
TEST(InstantRestartTest, DrainerErrorLeavesTheRestPending) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  const std::string path = TestPath("wide_drain_error");
  RemoveDbFiles(path);
  BuildWideImage(path);
  if (HasFatalFailure()) return;
  crash::Oracle oracle;
  ASSERT_OK(crash::ComputeOracle(path, &oracle));

  const int skip =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())) + 8;
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPoint("instant.bg_drain", skip);
  DatabaseOptions dopts;
  dopts.path = path;
  auto db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  const Status drain_st = db->WaitForRecovery();
  FaultInjector::Global().Reset();
  EXPECT_TRUE(drain_st.IsIOError()) << drain_st.ToString();
  EXPECT_NE(drain_st.ToString().find("instant.bg_drain"), std::string::npos)
      << drain_st.ToString();
  EXPECT_TRUE(db->recovery()->InstantActive());
  EXPECT_GE(CounterValue(db.get(), "recovery.background_redos"),
            static_cast<uint64_t>(skip));
  const size_t pending = db->recovery()->PendingPageCount();
  ASSERT_GT(pending, 0u);

  const uint64_t inline_before = CounterValue(db.get(), "recovery.inline_redos");
  size_t now = pending;
  for (PageId pid = 0; now == pending && pid < (1u << 16); pid++) {
    auto frame_or = db->pool()->Fetch(pid);
    ASSERT_OK(frame_or.status());
    db->pool()->Unpin(frame_or.value());
    now = db->recovery()->PendingPageCount();
  }
  EXPECT_EQ(now, pending - 1);
  EXPECT_EQ(CounterValue(db.get(), "recovery.inline_redos"), inline_before + 1);

  const std::atomic<bool> no_stop{false};
  ASSERT_OK(db->recovery()->RunInstantBackground(no_stop));
  EXPECT_EQ(db->recovery()->PendingPageCount(), 0u);
  EXPECT_FALSE(db->recovery()->InstantActive());
  ExpectWideTree(db.get(), oracle.visible);
  db->SimulateCrash();
  db.reset();
  EXPECT_EQ(crash::LiveKeys(RecoverDump(path, kWideMaxEntries)),
            oracle.visible);
  RemoveDbFiles(path);
}

// ---------------------------------------------------------------------
// Bounded log scans (the analysis substrate for per-page plans).
// ---------------------------------------------------------------------

TEST(InstantRestartScanRange, StopsAtUpperBound) {
  const std::string path = TestPath("instant_scan");
  RemoveDbFiles(path);
  DatabaseOptions opts;
  opts.path = path;
  auto db_or = Database::Create(opts);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  static BtreeExtension ext;
  ASSERT_OK(db->CreateIndex(1, &ext));
  Gist* gist = db->GetIndex(1).value();
  Transaction* txn = db->Begin();
  for (int64_t k = 0; k < 20; k++) {
    ASSERT_OK(
        db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v").status());
  }
  ASSERT_OK(db->Commit(txn));
  ASSERT_OK(db->log()->FlushAll());

  // Collect every record LSN, then re-scan bounded at the midpoint: the
  // bounded scan must yield exactly the prefix.
  std::vector<Lsn> lsns;
  ASSERT_OK(db->log()->Scan(
      kInvalidLsn, kInvalidLsn, [&](const LogRecord& rec) {
        lsns.push_back(rec.lsn);
        return true;
      }));
  ASSERT_GT(lsns.size(), 4u);
  const Lsn upto = lsns[lsns.size() / 2];
  std::vector<Lsn> bounded;
  ASSERT_OK(db->log()->Scan(kInvalidLsn, upto, [&](const LogRecord& rec) {
    bounded.push_back(rec.lsn);
    return true;
  }));
  ASSERT_EQ(bounded.size(), lsns.size() / 2 + 1);
  EXPECT_EQ(bounded.back(), upto);
  EXPECT_TRUE(std::equal(bounded.begin(), bounded.end(), lsns.begin()));
  RemoveDbFiles(path);
}

}  // namespace
}  // namespace gistcr
