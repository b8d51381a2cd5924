#ifndef GISTCR_TESTS_CRASH_HARNESS_H_
#define GISTCR_TESTS_CRASH_HARNESS_H_

/// Fork-based crash-torture harness (ISSUE 2 tentpole).
///
/// Shape of every matrix case:
///   1. Parent forks. The child builds a fresh database, arms one named
///      crash point in kExit mode (AFTER setup, so bootstrap commits do not
///      trip txn/wal points), and runs a deterministic single-threaded
///      mixed insert/delete/GC/checkpoint workload until the point fires
///      and _Exit(42)s the process mid-operation — a simulated power cut.
///   2. The parent computes the ground-truth visible set by scanning the
///      durable WAL tail exactly as recovery will (committed Add-Leaf-Entry
///      records minus committed Mark-Leaf-Entry records; a transaction is
///      committed iff its Commit record is durable).
///   3. The parent re-opens the database (restart recovery runs), then
///      asserts full tree integrity (CheckInvariants: BP containment,
///      level sanity, rightlink acyclicity, RID uniqueness) and exact
///      atomicity (search result set == oracle, and every visible rid's
///      heap record is readable).
///
/// The WAL oracle is sound because the workload keys are unique and never
/// reinserted, and the child never uses savepoint rollback — so a committed
/// transaction's record set is order-insensitive and CLR-free.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "access/btree_extension.h"
#include "db/database.h"
#include "storage/fault_injector.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "wal/log_payloads.h"

namespace gistcr {
namespace crash {

struct TortureOptions {
  uint64_t seed = 7;
  int txns = 48;
  uint16_t max_entries = 5;  ///< Per-node cap: splits with few keys.
  size_t buffer_pool_pages = 512;
  /// Keys inserted (committed) before the crash point is armed. Use with a
  /// small pool to make the armed phase eviction-heavy.
  int preload_keys = 0;
};

[[noreturn]] inline void ChildDie(const char* what, const Status& st) {
  std::fprintf(stderr, "crash-harness child: %s: %s\n", what,
               st.ToString().c_str());
  std::_Exit(3);
}

#define GISTCR_CHILD_OK(what, expr)            \
  do {                                         \
    ::gistcr::Status _st = (expr);             \
    if (!_st.ok()) ChildDie(what, _st);        \
  } while (0)

/// Child body: build, arm, torture. Never returns — exits 42 when the
/// armed point fires, 0 when the workload drains without firing, 3 on an
/// unexpected error.
[[noreturn]] inline void RunTortureChild(const std::string& path,
                                         const std::string& point, int skip,
                                         const TortureOptions& opt) {
  static BtreeExtension ext;  // outlives the Database
  DatabaseOptions dopts;
  dopts.path = path;
  dopts.buffer_pool_pages = opt.buffer_pool_pages;
  auto db_or = Database::Create(dopts);
  if (!db_or.ok()) ChildDie("create", db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = opt.max_entries;
  GISTCR_CHILD_OK("create index", db->CreateIndex(1, &ext, gopts));
  auto gist_or = db->GetIndex(1);
  if (!gist_or.ok()) ChildDie("get index", gist_or.status());
  Gist* gist = gist_or.value();

  Random rng(opt.seed);
  std::map<int64_t, uint64_t> live;  // committed live keys -> packed rid
  int64_t next_key = 0;

  for (int i = 0; i < opt.preload_keys; i += 16) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    for (int j = i; j < i + 16 && j < opt.preload_keys; j++) {
      const int64_t k = next_key++;
      auto rid_or = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                     "v" + std::to_string(k));
      if (!rid_or.ok()) ChildDie("preload insert", rid_or.status());
      live[k] = rid_or.value().Pack();
    }
    GISTCR_CHILD_OK("preload commit", db->Commit(txn));
  }

  // Setup is done: everything after this line can die at the armed point.
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPoint(point, skip,
                                        FaultInjector::CrashAction::kExit);

  for (int t = 0; t < opt.txns; t++) {
    if (t == opt.txns / 3) {
      // Mass delete two thirds of the live keys, then garbage-collect:
      // empties leaves and exercises GC / node-deletion crash points.
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      std::vector<int64_t> doomed;
      int i = 0;
      for (const auto& [k, rid] : live) {
        if (i++ % 3 != 2) doomed.push_back(k);
      }
      for (int64_t k : doomed) {
        GISTCR_CHILD_OK("mass delete",
                        db->DeleteRecord(txn, gist, BtreeExtension::MakeKey(k),
                                         Rid::Unpack(live[k])));
      }
      GISTCR_CHILD_OK("mass delete commit", db->Commit(txn));
      for (int64_t k : doomed) live.erase(k);
    }
    if (t == opt.txns / 3 || t == 2 * opt.txns / 3) {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      uint64_t removed = 0, nodes = 0;
      GISTCR_CHILD_OK("gc", gist->GarbageCollect(txn, &removed, &nodes));
      GISTCR_CHILD_OK("gc commit", db->Commit(txn));
    }
    if (t == opt.txns / 2) {
      GISTCR_CHILD_OK("checkpoint", db->Checkpoint());
    }

    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    std::vector<std::pair<int64_t, uint64_t>> added;
    std::set<int64_t> removed;
    const int ops = 2 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < ops; i++) {
      const bool do_delete =
          !live.empty() && removed.size() < live.size() && rng.Uniform(3) == 0;
      if (do_delete) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.Uniform(live.size())));
        if (removed.count(it->first) != 0) continue;
        GISTCR_CHILD_OK(
            "delete", db->DeleteRecord(txn, gist,
                                       BtreeExtension::MakeKey(it->first),
                                       Rid::Unpack(it->second)));
        removed.insert(it->first);
      } else {
        const int64_t k = next_key++;
        auto rid_or = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                       "v" + std::to_string(k));
        if (!rid_or.ok()) ChildDie("insert", rid_or.status());
        added.emplace_back(k, rid_or.value().Pack());
      }
    }
    if (rng.Uniform(6) == 0) {
      GISTCR_CHILD_OK("abort", db->Abort(txn));
    } else {
      GISTCR_CHILD_OK("commit", db->Commit(txn));
      for (const auto& [k, rid] : added) live[k] = rid;
      for (int64_t k : removed) live.erase(k);
    }
  }
  std::_Exit(0);  // the armed point never fired
}

/// True iff \p point is a registered crash-point name. Tests that arm a
/// point check it here, so a typo between call site, catalogue and test
/// fails loudly instead of arming a point that never fires.
inline bool IsCatalogued(const std::string& point) {
  for (const char* name : kCrashPointCatalogue) {
    if (point == name) return true;
  }
  return false;
}

/// Forks, runs \p child_body in the child (exit 0 if it returns), and
/// returns the child's exit code (-1 if it died on a signal or the fork
/// failed).
inline int ForkAndWait(const std::function<void()>& child_body) {
  std::fflush(nullptr);  // don't duplicate buffered gtest output
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    child_body();
    std::_Exit(0);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs RunTortureChild in a forked child; returns its exit code.
inline int ForkTorture(const std::string& path, const std::string& point,
                       int skip, const TortureOptions& opt) {
  return ForkAndWait([&] { RunTortureChild(path, point, skip, opt); });
}

/// Ground truth computed from the durable WAL — the same prefix restart
/// recovery will see.
struct Oracle {
  std::map<int64_t, uint64_t> visible;  // key -> packed rid
};

inline Status ComputeOracle(const std::string& path, Oracle* out) {
  struct TxnAgg {
    bool committed = false;
    std::vector<std::pair<int64_t, uint64_t>> adds;
    std::vector<int64_t> marks;
  };
  LogManager log;
  GISTCR_RETURN_IF_ERROR(log.Open(path + ".wal"));
  std::unordered_map<TxnId, TxnAgg> txns;
  GISTCR_RETURN_IF_ERROR(log.Scan(
      kInvalidLsn, kInvalidLsn, [&](const LogRecord& rec) {
        if (rec.txn_id == kInvalidTxnId) return true;
        TxnAgg& agg = txns[rec.txn_id];
        EntryOpPayload pl;
        switch (rec.type) {
          case LogRecordType::kCommit:
            agg.committed = true;
            break;
          case LogRecordType::kAddLeafEntry:
            if (pl.DecodeFrom(rec.payload)) {
              agg.adds.emplace_back(BtreeExtension::Lo(pl.entry.key),
                                    pl.entry.value);
            }
            break;
          case LogRecordType::kMarkLeafEntry:
            if (pl.DecodeFrom(rec.payload)) {
              agg.marks.push_back(BtreeExtension::Lo(pl.entry.key));
            }
            break;
          default:
            break;
        }
        return true;
      }));
  out->visible.clear();
  for (const auto& [id, agg] : txns) {
    (void)id;
    if (!agg.committed) continue;
    for (const auto& [k, rid] : agg.adds) out->visible[k] = rid;
  }
  for (const auto& [id, agg] : txns) {
    (void)id;
    if (!agg.committed) continue;
    for (int64_t k : agg.marks) out->visible.erase(k);
  }
  return Status::OK();
}

/// Sanity-checks the flight-recorder sidecar an induced crash must leave
/// behind (ISSUE 6 tentpole): the file exists, is one JSON object, and
/// carries the reason plus the metrics/slow-op/trace sections. Call after
/// ForkTorture returned kCrashExitCode, before re-opening the database.
inline void VerifyFlightArtifact(const std::string& path) {
  const std::string flight = path + ".flight";
  FILE* f = std::fopen(flight.c_str(), "r");
  ASSERT_NE(f, nullptr) << "crash left no flight artifact at " << flight;
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  ASSERT_FALSE(contents.empty()) << flight << " is empty";
  EXPECT_EQ(contents.front(), '{') << flight << " is not a JSON object";
  EXPECT_NE(contents.find("\"reason\":\""), std::string::npos);
  EXPECT_NE(contents.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(contents.find("\"slow_ops\":"), std::string::npos);
  EXPECT_NE(contents.find("\"trace\":"), std::string::npos);
}

/// Recovers the database at \p path to a drained state, checks index 1's
/// invariants and returns its entries sorted. With \p early_read a
/// full-range read-committed search runs right after Open, before the
/// drain, so the pages it reaches replay inline; its key -> rid result
/// lands in *early_read. Without it WaitForRecovery comes first and the
/// background drainer replays every page. Ends with SimulateCrash so no
/// destructor flush leaks volatile state into a later recovery of the
/// same files. Gtest assertions fire inside.
inline std::vector<IndexEntry> RecoverDump(
    const std::string& path, uint16_t max_entries,
    std::map<int64_t, uint64_t>* early_read = nullptr) {
  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  auto db_or = Database::Open(dopts);
  EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
  if (!db_or.ok()) return {};
  std::unique_ptr<Database> db = db_or.MoveValue();
  if (early_read == nullptr) EXPECT_OK(db->WaitForRecovery());
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = max_entries;
  EXPECT_OK(db->OpenIndex(1, &ext, gopts));
  auto gist_or = db->GetIndex(1);
  EXPECT_TRUE(gist_or.ok());
  if (!gist_or.ok()) return {};
  Gist* gist = gist_or.value();
  if (early_read != nullptr) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    std::vector<SearchResult> results;
    EXPECT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 1 << 24),
                           &results));
    EXPECT_OK(db->Commit(txn));
    early_read->clear();
    for (const SearchResult& r : results) {
      (*early_read)[BtreeExtension::Lo(r.key)] = r.rid.Pack();
    }
    EXPECT_OK(db->WaitForRecovery());
  }
  std::vector<IndexEntry> entries;
  EXPECT_OK(gist->CheckInvariants());
  EXPECT_OK(gist->DumpEntries(&entries));
  std::sort(entries.begin(), entries.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return std::tie(a.key, a.value, a.del_txn) <
                     std::tie(b.key, b.value, b.del_txn);
            });
  db->SimulateCrash();
  return entries;
}

/// Entry-by-entry equality of two RecoverDump results.
inline void ExpectSameEntries(const std::vector<IndexEntry>& a,
                              const std::vector<IndexEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].key, b[i].key) << "entry " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "entry " << i;
    EXPECT_EQ(a[i].del_txn, b[i].del_txn) << "entry " << i;
  }
}

/// The live (not delete-marked) entries of a RecoverDump result, as the
/// Oracle's key -> packed rid map.
inline std::map<int64_t, uint64_t> LiveKeys(
    const std::vector<IndexEntry>& entries) {
  std::map<int64_t, uint64_t> live;
  for (const IndexEntry& e : entries) {
    if (!e.deleted()) live[BtreeExtension::Lo(e.key)] = e.value;
  }
  return live;
}

/// Restart recovery + full integrity and atomicity verification. Gtest
/// assertions fire inside, so call from a TEST body.
inline void RecoverAndVerify(const std::string& path,
                             const TortureOptions& opt) {
  Oracle oracle;
  ASSERT_OK(ComputeOracle(path, &oracle));

  static BtreeExtension ext;
  DatabaseOptions dopts;
  dopts.path = path;
  dopts.buffer_pool_pages = opt.buffer_pool_pages;
  auto db_or = Database::Open(dopts);
  ASSERT_OK(db_or.status());
  std::unique_ptr<Database> db = db_or.MoveValue();
  // Under instant restart the open returns mid-recovery; the oracle
  // describes the *final* state, so drain before verifying.
  ASSERT_OK(db->WaitForRecovery());
  GistOptions gopts;
  gopts.index_id = 1;
  gopts.max_entries = opt.max_entries;
  ASSERT_OK(db->OpenIndex(1, &ext, gopts));
  auto gist_or = db->GetIndex(1);
  ASSERT_OK(gist_or.status());
  Gist* gist = gist_or.value();

  // Structural integrity: BP containment, levels, rightlink chain, RID
  // uniqueness.
  ASSERT_OK(gist->CheckInvariants());

  // Atomicity: the live set equals the WAL oracle exactly.
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 1 << 20),
                         &results));
  ASSERT_OK(db->Commit(txn));
  std::map<int64_t, uint64_t> found;
  for (const SearchResult& r : results) {
    const int64_t k = BtreeExtension::Lo(r.key);
    EXPECT_EQ(found.count(k), 0u) << "duplicate visible key " << k;
    found[k] = r.rid.Pack();
  }
  EXPECT_EQ(found, oracle.visible);

  // Durability reaches the heap too: every visible rid must resolve.
  for (const auto& [k, rid] : oracle.visible) {
    auto rec_or = db->ReadRecord(Rid::Unpack(rid));
    EXPECT_TRUE(rec_or.ok()) << "heap record for key " << k << " lost: "
                             << rec_or.status().ToString();
    if (rec_or.ok()) {
      EXPECT_EQ(rec_or.value(), "v" + std::to_string(k));
    }
  }
}

}  // namespace crash
}  // namespace gistcr

#endif  // GISTCR_TESTS_CRASH_HARNESS_H_
