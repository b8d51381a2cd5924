// Instant-restart benchmark (ISSUE PR 10 acceptance gate).
//
// Builds one crashed database image — a long redo span past the last
// checkpoint plus an in-flight loser transaction — then recovers the same
// image twice: once drained (Open, then WaitForRecovery before any work:
// what a restart that redoes and undoes everything up front costs) and
// once instant (first commit right after Open, with the page-granular
// redo and the loser undo running underneath). For each mode it measures
//
//   time_to_open_ms          Database::Open wall clock (drained: plus
//                            WaitForRecovery)
//   time_to_first_commit_ms  Open + one fresh-key insert committed
//   ramp_commits_1s          commits completed in the first second after
//                            the first commit (recovery drains underneath
//                            in instant mode)
//   drain_ms                 Open until WaitForRecovery returns
//
// and writes BENCH_restart.json. Exits non-zero if the instant mode's
// time-to-first-commit is not at least --min-speedup (default 10) times
// lower than the drained mode's, or if the two modes disagree on the
// recovered entry count — the bench doubles as an end-to-end equivalence
// check.
//
//   bench_restart --ops=60000 --loser-ops=3000 --report=BENCH_restart.json

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "access/btree_extension.h"
#include "db/database.h"
#include "gist/gist.h"
#include "util/status.h"

namespace gistcr {
namespace {

#define RESTART_CHECK_OK(expr)                                         \
  do {                                                                 \
    ::gistcr::Status _st = (expr);                                     \
    if (!_st.ok()) {                                                   \
      std::fprintf(stderr, "bench_restart: %s:%d: %s\n", __FILE__,     \
                   __LINE__, _st.ToString().c_str());                  \
      std::exit(1);                                                    \
    }                                                                  \
  } while (0)

struct Config {
  int64_t ops = 200000;        ///< committed inserts before the crash
  int64_t loser_ops = 100000;  ///< uncommitted (loser) inserts: the classic
                               ///< restart nightmare, a bulk load that has
                               ///< to roll back
  int64_t ckpt_at = -1;        ///< checkpoint after this many ops
                               ///< (default: 90% of ops)
  int64_t value_bytes = 64;    ///< heap record payload size
  /// Buffer pool at recovery time, deliberately smaller than the working
  /// set: the restart-bound regime instant restart targets. Draining
  /// replays every page and undoes the whole loser before the first
  /// commit; the instant first commit only waits for its own descent.
  int64_t recover_pool = 512;
  double min_speedup = 10.0;  ///< acceptance: instant ttfc advantage
  std::string path = "/tmp/gistcr_bench_restart";
  std::string report = "BENCH_restart.json";
};

struct ModeResult {
  std::string mode;
  double time_to_open_ms = 0;
  double time_to_first_commit_ms = 0;
  uint64_t ramp_commits_1s = 0;
  double drain_ms = 0;
  uint64_t records_redone = 0;
  uint64_t records_undone = 0;
  uint64_t entries = 0;  ///< final recovered entry count (equivalence)
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void RemoveDbFiles(const std::string& path) {
  std::remove((path + ".db").c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".ckpt").c_str());
}

void CopyFile(const std::string& from, const std::string& to) {
  FILE* in = std::fopen(from.c_str(), "rb");
  if (in == nullptr) {
    std::remove(to.c_str());
    return;  // source absent (e.g. no .ckpt yet): absent on both sides
  }
  FILE* out = std::fopen(to.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_restart: cannot write %s\n", to.c_str());
    std::exit(1);
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    if (std::fwrite(buf, 1, n, out) != n) {
      std::fprintf(stderr, "bench_restart: short write to %s\n", to.c_str());
      std::exit(1);
    }
  }
  std::fclose(in);
  std::fclose(out);
}

void CopyDbFiles(const std::string& from, const std::string& to) {
  CopyFile(from + ".db", to + ".db");
  CopyFile(from + ".wal", to + ".wal");
  CopyFile(from + ".ckpt", to + ".ckpt");
}

/// Builds the crashed image at cfg.path: cfg.ops committed single-row
/// transactions (checkpoint after cfg.ckpt_at of them, so the redo span
/// covers the rest), then one loser with cfg.loser_ops inserts whose log
/// is durable but whose commit never happens.
uint64_t BuildCrashImage(const Config& cfg, BtreeExtension* ext) {
  RemoveDbFiles(cfg.path);
  DatabaseOptions opts;
  opts.path = cfg.path;
  opts.buffer_pool_pages = 16384;
  opts.sync_commit = false;
  auto db_or = Database::Create(opts);
  RESTART_CHECK_OK(db_or.status());
  auto db = db_or.MoveValue();
  RESTART_CHECK_OK(db->CreateIndex(1, ext));
  Gist* gist = db->GetIndex(1).value();

  // Random key order: consecutive log records land on unrelated pages,
  // the access pattern recovery has to cope with.
  std::vector<int64_t> keys(static_cast<size_t>(cfg.ops));
  for (size_t i = 0; i < keys.size(); i++) keys[i] = static_cast<int64_t>(i);
  std::mt19937_64 rng(42);
  std::shuffle(keys.begin(), keys.end(), rng);
  const std::string value(static_cast<size_t>(cfg.value_bytes), 'v');

  for (int64_t k = 0; k < cfg.ops; k++) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    RESTART_CHECK_OK(
        db->InsertRecord(txn, gist,
                         BtreeExtension::MakeKey(keys[static_cast<size_t>(k)]),
                         value)
            .status());
    RESTART_CHECK_OK(db->Commit(txn));
    if (k == (cfg.ckpt_at >= 0 ? cfg.ckpt_at : cfg.ops * 9 / 10)) {
      // Model a steady-state system whose writer keeps up: pages are
      // clean at the checkpoint, so the redo span starts there and the
      // restart cost is dominated by what comes after — the tail of
      // committed work and the loser's long undo.
      RESTART_CHECK_OK(db->FlushAll());
      RESTART_CHECK_OK(db->Checkpoint());
    }
  }

  // The loser: a bulk load over its own key range, random order so its
  // undo (like the winners' redo) walks leaves in no helpful order.
  std::vector<int64_t> loser_keys(static_cast<size_t>(cfg.loser_ops));
  for (size_t i = 0; i < loser_keys.size(); i++) {
    loser_keys[i] = 1000000 + static_cast<int64_t>(i);
  }
  std::shuffle(loser_keys.begin(), loser_keys.end(), rng);
  Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
  for (int64_t k = 0; k < cfg.loser_ops; k++) {
    RESTART_CHECK_OK(
        db->InsertRecord(loser, gist,
                         BtreeExtension::MakeKey(
                             loser_keys[static_cast<size_t>(k)]),
                         value)
            .status());
  }
  RESTART_CHECK_OK(db->log()->FlushAll());
  const uint64_t log_bytes = db->log()->TotalBytes();
  db->SimulateCrash();
  return log_bytes;
}

ModeResult RecoverOnce(const Config& cfg, BtreeExtension* ext,
                       bool drain_first) {
  CopyDbFiles(cfg.path + ".orig", cfg.path);
  DatabaseOptions opts;
  opts.path = cfg.path;
  opts.buffer_pool_pages = static_cast<size_t>(cfg.recover_pool);
  opts.sync_commit = false;

  ModeResult r;
  r.mode = drain_first ? "drained" : "instant";

  const auto t0 = std::chrono::steady_clock::now();
  auto db_or = Database::Open(opts);
  RESTART_CHECK_OK(db_or.status());
  auto db = db_or.MoveValue();
  if (drain_first) RESTART_CHECK_OK(db->WaitForRecovery());
  r.time_to_open_ms = MsSince(t0);

  RESTART_CHECK_OK(db->OpenIndex(1, ext));
  Gist* gist = db->GetIndex(1).value();

  // First fresh commit: a key disjoint from both winners and losers, so
  // under instant restart it only waits for the pages on its own descent.
  int64_t fresh = 9000000;
  {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    RESTART_CHECK_OK(
        db->InsertRecord(txn, gist, BtreeExtension::MakeKey(fresh), "v")
            .status());
    RESTART_CHECK_OK(db->Commit(txn));
  }
  r.time_to_first_commit_ms = MsSince(t0);
  fresh++;

  // Throughput ramp: one second of fresh-key commits while (in instant
  // mode) the background drain and loser undo run underneath.
  const auto ramp_start = std::chrono::steady_clock::now();
  while (MsSince(ramp_start) < 1000.0) {
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    RESTART_CHECK_OK(
        db->InsertRecord(txn, gist, BtreeExtension::MakeKey(fresh++), "v")
            .status());
    RESTART_CHECK_OK(db->Commit(txn));
    r.ramp_commits_1s++;
  }

  RESTART_CHECK_OK(db->WaitForRecovery());
  r.drain_ms = MsSince(t0);
  r.records_redone =
      db->metrics()->GetCounter("recovery.records_redone")->load();
  r.records_undone =
      db->metrics()->GetCounter("recovery.records_undone")->load();

  // Equivalence input: count every surviving entry. The ramp key range is
  // identical across modes, so equal counts mean equal recovered states
  // (winners present, losers gone) plus the same bench traffic.
  {
    std::vector<IndexEntry> entries;
    RESTART_CHECK_OK(gist->DumpEntries(&entries));
    r.entries = entries.size();
  }
  RESTART_CHECK_OK(gist->CheckInvariants());
  db->SimulateCrash();  // drop volatile state; next mode restores files
  return r;
}

void WriteReport(const Config& cfg, uint64_t log_bytes,
                 const std::vector<ModeResult>& modes, double speedup) {
  FILE* f = std::fopen(cfg.report.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_restart: cannot write %s\n",
                 cfg.report.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"instant_restart\",\n"
               "  \"workload\": {\"ops\": %lld, \"loser_ops\": %lld, "
               "\"ckpt_at\": %lld, \"log_mib\": %.1f},\n  \"modes\": [\n",
               static_cast<long long>(cfg.ops),
               static_cast<long long>(cfg.loser_ops),
               static_cast<long long>(cfg.ckpt_at),
               static_cast<double>(log_bytes) / (1024.0 * 1024.0));
  for (size_t i = 0; i < modes.size(); i++) {
    const ModeResult& m = modes[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"time_to_open_ms\": %.2f, "
        "\"time_to_first_commit_ms\": %.2f, \"ramp_commits_1s\": %llu, "
        "\"drain_ms\": %.2f, \"records_redone\": %llu, "
        "\"records_undone\": %llu, \"entries\": %llu}%s\n",
        m.mode.c_str(), m.time_to_open_ms, m.time_to_first_commit_ms,
        static_cast<unsigned long long>(m.ramp_commits_1s), m.drain_ms,
        static_cast<unsigned long long>(m.records_redone),
        static_cast<unsigned long long>(m.records_undone),
        static_cast<unsigned long long>(m.entries),
        i + 1 < modes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"ttfc_speedup\": %.1f\n}\n", speedup);
  std::fclose(f);
  std::printf("bench_restart: wrote %s\n", cfg.report.c_str());
}

int Run(const Config& cfg) {
  BtreeExtension ext;
  std::printf("bench_restart: building crash image (%lld ops, %lld loser)\n",
              static_cast<long long>(cfg.ops),
              static_cast<long long>(cfg.loser_ops));
  const uint64_t log_bytes = BuildCrashImage(cfg, &ext);
  CopyDbFiles(cfg.path, cfg.path + ".orig");

  std::vector<ModeResult> modes;
  modes.push_back(RecoverOnce(cfg, &ext, /*drain_first=*/true));
  modes.push_back(RecoverOnce(cfg, &ext, /*drain_first=*/false));
  RemoveDbFiles(cfg.path);
  RemoveDbFiles(cfg.path + ".orig");

  const ModeResult& drained = modes[0];
  const ModeResult& instant = modes[1];
  const double speedup =
      instant.time_to_first_commit_ms > 0
          ? drained.time_to_first_commit_ms / instant.time_to_first_commit_ms
          : 0.0;
  for (const ModeResult& m : modes) {
    std::printf(
        "  %-8s open %8.2f ms  first-commit %8.2f ms  ramp %6llu/s  "
        "drain %8.2f ms  redone %llu  undone %llu  entries %llu\n",
        m.mode.c_str(), m.time_to_open_ms, m.time_to_first_commit_ms,
        static_cast<unsigned long long>(m.ramp_commits_1s), m.drain_ms,
        static_cast<unsigned long long>(m.records_redone),
        static_cast<unsigned long long>(m.records_undone),
        static_cast<unsigned long long>(m.entries));
  }
  std::printf("bench_restart: time-to-first-commit speedup %.1fx\n", speedup);
  WriteReport(cfg, log_bytes, modes, speedup);

  int rc = 0;
  // Both runs inserted the same ramp-key range only if ramp counts match;
  // compare the pre-ramp recovered population instead: entries minus this
  // run's own traffic (1 first commit + ramp commits).
  const uint64_t drained_base =
      drained.entries - 1 - drained.ramp_commits_1s;
  const uint64_t ins_base = instant.entries - 1 - instant.ramp_commits_1s;
  if (drained_base != ins_base) {
    std::fprintf(stderr,
                 "bench_restart: FAIL recovered-state mismatch "
                 "(drained %llu vs instant %llu entries)\n",
                 static_cast<unsigned long long>(drained_base),
                 static_cast<unsigned long long>(ins_base));
    rc = 1;
  }
  if (speedup < cfg.min_speedup) {
    std::fprintf(stderr,
                 "bench_restart: FAIL speedup %.1fx below the %.1fx gate\n",
                 speedup, cfg.min_speedup);
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace gistcr

int main(int argc, char** argv) {
  gistcr::Config cfg;
  for (int i = 1; i < argc; i++) {
    const char* a = argv[i];
    auto val = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return std::strncmp(a, flag, n) == 0 ? a + n : nullptr;
    };
    if (const char* v = val("--ops=")) {
      cfg.ops = std::atoll(v);
    } else if (const char* v = val("--loser-ops=")) {
      cfg.loser_ops = std::atoll(v);
    } else if (const char* v = val("--ckpt-at=")) {
      cfg.ckpt_at = std::atoll(v);
    } else if (const char* v = val("--value-bytes=")) {
      cfg.value_bytes = std::atoll(v);
    } else if (const char* v = val("--recover-pool=")) {
      cfg.recover_pool = std::atoll(v);
    } else if (const char* v = val("--min-speedup=")) {
      cfg.min_speedup = std::atof(v);
    } else if (const char* v = val("--path=")) {
      cfg.path = v;
    } else if (const char* v = val("--report=")) {
      cfg.report = v;
    } else {
      std::fprintf(stderr, "bench_restart: unknown flag %s\n", a);
      return 2;
    }
  }
  return gistcr::Run(cfg);
}
