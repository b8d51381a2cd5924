#ifndef GISTCR_BENCH_BENCH_UTIL_H_
#define GISTCR_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "access/btree_extension.h"
#include "access/rtree_extension.h"
#include "bench/commit_report.h"
#include "db/database.h"
#include "util/random.h"

namespace gistcr {
namespace bench {

inline void RemoveDbFiles(const std::string& path) {
  std::remove((path + ".db").c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".ckpt").c_str());
}

#define BENCH_CHECK_OK(expr)                                       \
  do {                                                             \
    ::gistcr::Status _st = (expr);                                 \
    if (!_st.ok()) {                                               \
      std::fprintf(stderr, "bench fatal at %s:%d: %s\n", __FILE__, \
                   __LINE__, _st.ToString().c_str());              \
      std::abort();                                                \
    }                                                              \
  } while (0)

/// Shared-environment helper for multithreaded benchmarks: thread 0
/// rebuilds the database before the timing loop (google-benchmark
/// synchronizes all threads on a barrier between that setup block and the
/// first iteration).
struct BenchEnv {
  std::unique_ptr<Database> db;
  Gist* gist = nullptr;
  BtreeExtension btree;
  RtreeExtension rtree;
  std::string path;

  /// Fresh database with one B-tree index preloaded with \p preload keys
  /// 0..preload-1 (payload "v"). With \p sync_commit the WAL fdatasyncs on
  /// commit — the configuration the durable-commit benchmarks measure.
  void BuildBtree(const std::string& p, ConcurrencyProtocol protocol,
                  PredicateMode pred_mode, NsnSource nsn, int64_t preload,
                  uint16_t max_entries = 0, bool sync_commit = false) {
    path = p;
    db.reset();
    RemoveDbFiles(path);
    DatabaseOptions opts;
    opts.path = path;
    opts.buffer_pool_pages = 16384;  // 128 MiB: benchmarks run in memory
    opts.nsn_source = nsn;
    opts.sync_commit = sync_commit;
    auto db_or = Database::Create(opts);
    BENCH_CHECK_OK(db_or.status());
    db = db_or.MoveValue();
    GistOptions gopts;
    gopts.protocol = protocol;
    gopts.pred_mode = pred_mode;
    gopts.max_entries = max_entries;
    BENCH_CHECK_OK(db->CreateIndex(1, &btree, gopts));
    gist = db->GetIndex(1).value();
    if (preload > 0) {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      for (int64_t k = 0; k < preload; k++) {
        BENCH_CHECK_OK(
            db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v")
                .status());
      }
      BENCH_CHECK_OK(db->Commit(txn));
    }
  }

  /// Fresh database with one R-tree index preloaded with \p preload
  /// uniform points on [0,1000)^2.
  void BuildRtree(const std::string& p, ConcurrencyProtocol protocol,
                  int64_t preload) {
    path = p;
    db.reset();
    RemoveDbFiles(path);
    DatabaseOptions opts;
    opts.path = path;
    opts.buffer_pool_pages = 16384;
    opts.sync_commit = false;
    auto db_or = Database::Create(opts);
    BENCH_CHECK_OK(db_or.status());
    db = db_or.MoveValue();
    GistOptions gopts;
    gopts.protocol = protocol;
    BENCH_CHECK_OK(db->CreateIndex(1, &rtree, gopts));
    gist = db->GetIndex(1).value();
    Random rng(42);
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    for (int64_t i = 0; i < preload; i++) {
      const Rect pt =
          Rect::Point(rng.NextDouble() * 1000.0, rng.NextDouble() * 1000.0);
      BENCH_CHECK_OK(
          db->InsertRecord(txn, gist, RtreeExtension::MakeKey(pt), "v")
              .status());
    }
    BENCH_CHECK_OK(db->Commit(txn));
  }

  void Destroy() {
    db.reset();
    RemoveDbFiles(path);
  }
};

/// Publishes the registry metrics most relevant to the paper's protocol
/// claims as google-benchmark counters, so they land in the console table
/// and --benchmark_out JSON next to the throughput numbers. Call from
/// thread 0 after the timing loop, while the database is still alive.
inline void ReportRegistryMetrics(benchmark::State& state, Database* db) {
  obs::MetricsRegistry* reg = db->metrics();
  const auto counter = [&](const char* bench_name, const char* metric) {
    state.counters[bench_name] =
        static_cast<double>(reg->GetCounter(metric)->value());
  };
  counter("rightlink_follows", "gist.rightlink_follows");
  counter("splits", "gist.splits");
  counter("predicate_waits", "gist.predicate_waits");
  counter("deadlocks", "lock.deadlocks");

  const double hits = static_cast<double>(reg->GetCounter("bp.hits")->value());
  const double misses =
      static_cast<double>(reg->GetCounter("bp.misses")->value());
  state.counters["bp_hit_rate"] =
      hits + misses == 0 ? 0.0 : hits / (hits + misses);

  const auto p99_us = [&](const char* bench_name, const char* metric) {
    const auto snap = reg->GetHistogram(metric)->GetSnapshot();
    state.counters[bench_name] = snap.count == 0 ? 0.0
                                                 : snap.Percentile(0.99) / 1e3;
  };
  p99_us("latch_wait_p99_us", "gist.latch_wait_ns");
  p99_us("wal_flush_p99_us", "wal.fsync_ns");
  p99_us("commit_p99_us", "txn.commit_ns");
}

/// Retry wrapper: runs \p fn in fresh transactions until it commits
/// (deadlock victims retry). Returns number of retries.
inline int RunTxnWithRetry(Database* db, IsolationLevel iso,
                           const std::function<Status(Transaction*)>& fn) {
  for (int attempt = 0;; attempt++) {
    Transaction* txn = db->Begin(iso);
    Status st = fn(txn);
    if (st.ok()) {
      st = db->Commit(txn);
      if (st.ok()) return attempt;
      continue;
    }
    (void)db->Abort(txn);
    if (!st.IsDeadlock() && !st.IsBusy()) {
      std::fprintf(stderr, "bench txn failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
}

}  // namespace bench
}  // namespace gistcr

#endif  // GISTCR_BENCH_BENCH_UTIL_H_
