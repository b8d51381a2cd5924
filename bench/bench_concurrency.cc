// Experiment C1 (DESIGN.md): the paper's headline performance claim —
// the link-based protocol with NSNs "results in a degree of concurrency
// that should match that of the best B-tree concurrency protocols"
// (sections 1, 12), against a coarse tree-latch baseline standing in for
// the subtree-locking protocols of [BS77].
//
// Series: search-only / insert-only / 80-20 mixed throughput over a
// 100k-key B-tree GiST, threads x {link, coarse}. Expected shape: both
// protocols comparable at 1 thread; the link protocol scales with
// threads while coarse flattens (reads) or collapses (writes).

#include <atomic>
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "bench/mvcc_report.h"
#include "obs/op_context.h"
#include "obs/slow_op_log.h"
#include "obs/trace.h"

namespace gistcr {
namespace bench {
namespace {

constexpr int64_t kPreload = 100000;
BenchEnv g_env;
std::atomic<int64_t> g_next_key{kPreload};

ConcurrencyProtocol ProtocolArg(const benchmark::State& state) {
  return state.range(0) == 0 ? ConcurrencyProtocol::kLink
                             : ConcurrencyProtocol::kCoarse;
}

void BM_SearchOnly(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_env.BuildBtree("/tmp/gistcr_bench_c1", ProtocolArg(state),
                     PredicateMode::kHybrid, NsnSource::kLsn, kPreload);
  }
  Random rng(static_cast<uint64_t>(state.thread_index()) * 977 + 3);
  int64_t items = 0;
  for (auto _ : state) {
    const int64_t lo = rng.UniformRange(0, kPreload - 100);
    RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                    [&](Transaction* txn) {
                      std::vector<SearchResult> results;
                      return g_env.gist->Search(
                          txn, BtreeExtension::MakeRange(lo, lo + 99),
                          &results);
                    });
    items++;
  }
  state.SetItemsProcessed(items);
  if (state.thread_index() == 0) {
    ReportRegistryMetrics(state, g_env.db.get());
    state.SetLabel(state.range(0) == 0 ? "link" : "coarse");
  }
}

void BM_InsertOnly(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_env.BuildBtree("/tmp/gistcr_bench_c1", ProtocolArg(state),
                     PredicateMode::kHybrid, NsnSource::kLsn, kPreload);
    g_next_key.store(kPreload);
  }
  int64_t items = 0;
  for (auto _ : state) {
    const int64_t k = g_next_key.fetch_add(1);
    RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                    [&](Transaction* txn) {
                      return g_env.db
                          ->InsertRecord(txn, g_env.gist,
                                         BtreeExtension::MakeKey(k), "v")
                          .status();
                    });
    items++;
  }
  state.SetItemsProcessed(items);
  if (state.thread_index() == 0) {
    ReportRegistryMetrics(state, g_env.db.get());
    state.SetLabel(state.range(0) == 0 ? "link" : "coarse");
  }
}

void BM_Mixed80_20(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_env.BuildBtree("/tmp/gistcr_bench_c1", ProtocolArg(state),
                     PredicateMode::kHybrid, NsnSource::kLsn, kPreload);
    g_next_key.store(kPreload);
  }
  Random rng(static_cast<uint64_t>(state.thread_index()) * 31 + 11);
  int64_t items = 0;
  for (auto _ : state) {
    if (rng.Uniform(10) < 8) {
      const int64_t lo = rng.UniformRange(0, kPreload - 100);
      RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                      [&](Transaction* txn) {
                        std::vector<SearchResult> results;
                        return g_env.gist->Search(
                            txn, BtreeExtension::MakeRange(lo, lo + 99),
                            &results);
                      });
    } else {
      const int64_t k = g_next_key.fetch_add(1);
      RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                      [&](Transaction* txn) {
                        return g_env.db
                            ->InsertRecord(txn, g_env.gist,
                                           BtreeExtension::MakeKey(k), "v")
                            .status();
                      });
    }
    items++;
  }
  state.SetItemsProcessed(items);
  if (state.thread_index() == 0) {
    ReportRegistryMetrics(state, g_env.db.get());
    state.SetLabel(state.range(0) == 0 ? "link" : "coarse");
  }
}

// Durable-commit throughput: every transaction fdatasyncs the WAL (the
// real commit path, unlike the other series which measure protocol cost
// with sync off). This is where group commit shows up: with one fsync
// retiring many commits, throughput at 8 threads should far exceed
// threads x single-fsync latency. Thread 0 writes BENCH_commit.json
// (threads, commits/s, p50/p99 commit latency, mean group-commit batch)
// so the perf trajectory is machine-readable; bench/BENCH_commit.seed.json
// holds the checked-in seed baseline.
std::atomic<uint64_t> g_commit_bench_t0{0};
std::atomic<uint64_t> g_commit_bench_commits0{0};

void BM_DurableCommit(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_env.BuildBtree("/tmp/gistcr_bench_commit", ConcurrencyProtocol::kLink,
                     PredicateMode::kHybrid, NsnSource::kLsn,
                     /*preload=*/1000, /*max_entries=*/0,
                     /*sync_commit=*/true);
    g_next_key.store(1000);
    g_commit_bench_commits0.store(
        g_env.db->metrics()->GetCounter("txn.commits")->value());
    g_commit_bench_t0.store(obs::NowNanos());
  }
  int64_t items = 0;
  for (auto _ : state) {
    const int64_t k = g_next_key.fetch_add(1);
    RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                    [&](Transaction* txn) {
                      return g_env.db
                          ->InsertRecord(txn, g_env.gist,
                                         BtreeExtension::MakeKey(k), "v")
                          .status();
                    });
    items++;
  }
  state.SetItemsProcessed(items);
  if (state.thread_index() == 0) {
    const double elapsed_s =
        static_cast<double>(obs::NowNanos() - g_commit_bench_t0.load()) / 1e9;
    const uint64_t commits =
        g_env.db->metrics()->GetCounter("txn.commits")->value() -
        g_commit_bench_commits0.load();
    WriteCommitReport("BENCH_commit.json", state.threads(), elapsed_s,
                      commits, g_env.db.get());
    ReportRegistryMetrics(state, g_env.db.get());
    state.counters["group_commit_mean_records"] =
        g_env.db->metrics()
            ->GetHistogram("wal.group_commit_records")
            ->GetSnapshot()
            .mean();
  }
}

// Read-mostly mixes: 95/5 and 99/1 search/insert. Narrow 10-key range
// scans over a fanout-64 tree keep the Figure 3 traversal the dominant
// per-op cost rather than leaf entry scanning.
void ReadMostlyLoop(benchmark::State& state, int write_pct) {
  if (state.thread_index() == 0) {
    g_env.BuildBtree("/tmp/gistcr_bench_read", ConcurrencyProtocol::kLink,
                     PredicateMode::kHybrid, NsnSource::kLsn, kPreload,
                     /*max_entries=*/64, /*sync_commit=*/false);
    g_next_key.store(kPreload);
  }
  Random rng(static_cast<uint64_t>(state.thread_index()) * 613 + 29);
  int64_t items = 0;
  for (auto _ : state) {
    if (rng.Uniform(100) < static_cast<uint32_t>(write_pct)) {
      const int64_t k = g_next_key.fetch_add(1);
      RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                      [&](Transaction* txn) {
                        return g_env.db
                            ->InsertRecord(txn, g_env.gist,
                                           BtreeExtension::MakeKey(k), "v")
                            .status();
                      });
    } else {
      const int64_t lo = rng.UniformRange(0, kPreload - 10);
      RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                      [&](Transaction* txn) {
                        std::vector<SearchResult> results;
                        return g_env.gist->Search(
                            txn, BtreeExtension::MakeRange(lo, lo + 9),
                            &results);
                      });
    }
    items++;
  }
  state.SetItemsProcessed(items);
  if (state.thread_index() == 0) {
    ReportRegistryMetrics(state, g_env.db.get());
  }
}

void BM_ReadMostly95_5(benchmark::State& state) { ReadMostlyLoop(state, 5); }

void BM_ReadMostly99_1(benchmark::State& state) { ReadMostlyLoop(state, 1); }

// The paper's "no latches during I/Os / no subtree locking" property shows
// up most directly as *interference*: how long can one operation stall
// another? Here a background thread runs full-range scans (which hold the
// coarse baseline's tree latch for their whole duration) while the timed
// loop inserts. Expected shape: with the link protocol insert latency is
// flat; with the coarse baseline worst-case insert latency approaches the
// scan duration. This signal survives even a single-core testbed, where
// throughput scaling cannot manifest.
void BM_InsertLatencyUnderScan(benchmark::State& state) {
  g_env.BuildBtree("/tmp/gistcr_bench_c1", ProtocolArg(state),
                   PredicateMode::kHybrid, NsnSource::kLsn, kPreload);
  g_next_key.store(kPreload);
  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    while (!stop.load()) {
      RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                      [&](Transaction* txn) {
                        std::vector<SearchResult> results;
                        return g_env.gist->Search(
                            txn, BtreeExtension::MakeRange(0, kPreload),
                            &results);
                      });
    }
  });
  double max_us = 0;
  int64_t items = 0;
  for (auto _ : state) {
    const int64_t k = g_next_key.fetch_add(1);
    const auto start = std::chrono::steady_clock::now();
    RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                    [&](Transaction* txn) {
                      return g_env.db
                          ->InsertRecord(txn, g_env.gist,
                                         BtreeExtension::MakeKey(k), "v")
                          .status();
                    });
    const auto end = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(end - start).count();
    if (us > max_us) max_us = us;
    items++;
  }
  stop = true;
  scanner.join();
  state.SetItemsProcessed(items);
  state.counters["max_insert_latency_us"] = max_us;
  ReportRegistryMetrics(state, g_env.db.get());
  state.SetLabel(state.range(0) == 0 ? "link" : "coarse");
}

// Observability overhead at the engine layer (ISSUE 6 satellite): the
// 80/20 mixed workload with the tracer + slow-op capture toggled by
// Arg (0 = off, 1 = on). Both arms run the link protocol; comparing the
// two rows in BENCH_concurrency output bounds the cost of the per-op
// instrumentation (trace ring writes, stage timers) without any server
// in the way. bench_server --obs-report enforces the 5% budget end to
// end; this series localizes a regression to the engine if it trips.
void BM_TraceOverhead(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  if (state.thread_index() == 0) {
    g_env.BuildBtree("/tmp/gistcr_bench_obs", ConcurrencyProtocol::kLink,
                     PredicateMode::kHybrid, NsnSource::kLsn, kPreload);
    g_next_key.store(kPreload);
    obs::Tracer::Global().SetEnabled(obs_on);
    g_env.db->slow_ops()->SetThresholdNs(
        obs_on ? obs::SlowOpLog::kDefaultThresholdNs : 0);
  }
  Random rng(static_cast<uint64_t>(state.thread_index()) * 131 + 7);
  int64_t items = 0;
  for (auto _ : state) {
    GISTCR_TRACE_SCOPE("bench.op");
    obs::OpContext ctx;
    ctx.op_name = "bench.op";
    ctx.start_ns = obs::NowNanos();
    obs::OpScope scope(&ctx);
    if (rng.Uniform(10) < 8) {
      const int64_t lo = rng.UniformRange(0, kPreload - 100);
      RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                      [&](Transaction* txn) {
                        std::vector<SearchResult> results;
                        return g_env.gist->Search(
                            txn, BtreeExtension::MakeRange(lo, lo + 99),
                            &results);
                      });
    } else {
      const int64_t k = g_next_key.fetch_add(1);
      RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                      [&](Transaction* txn) {
                        return g_env.db
                            ->InsertRecord(txn, g_env.gist,
                                           BtreeExtension::MakeKey(k), "v")
                            .status();
                      });
    }
    g_env.db->slow_ops()->MaybeRecord(ctx, obs::NowNanos() - ctx.start_ns,
                                      "ok");
    items++;
  }
  state.SetItemsProcessed(items);
  if (state.thread_index() == 0) {
    obs::Tracer::Global().SetEnabled(true);
    g_env.db->slow_ops()->SetThresholdNs(obs::SlowOpLog::kDefaultThresholdNs);
    ReportRegistryMetrics(state, g_env.db.get());
    state.SetLabel(obs_on ? "obs_on" : "obs_off");
  }
}

// MVCC snapshot reads under write churn (DESIGN.md section 14.6): mixed
// OLTP + long-scan workload, reported to BENCH_mvcc.json. Two series,
// each with a solo and a contended arm:
//
//   BM_MvccLongScan      full-range snapshot scans; Arg 1 adds 4 writer
//                        threads churning insert+delete. Snapshot scans
//                        take no locks and attach no predicates, so the
//                        contended arm should lose only what cache and
//                        version-chain filtering cost — not block.
//   BM_MvccWriterCommit  insert+delete commit loop; Arg 1 adds 2 long
//                        snapshot-scan threads, Arg 2 adds 2 long
//                        repeatable-read (2PL) scan threads over the same
//                        range. The acceptance gate is that snapshot
//                        scans cost writers no more than their fair CPU
//                        share (<= ~10% beyond it on multicore hosts; on
//                        a single-core runner the share itself dominates)
//                        while the 2PL arm shows what MVCC buys: those
//                        scans predicate-lock the writers' key range and
//                        S-lock every record, so writers stall for whole
//                        scan durations and deadlock-retry.
//
// Writers emulate the maintenance daemon's version-GC cadence with a
// periodic Prune, so chains stay short (chain_length_p99 in the report)
// instead of growing for the benchmark's whole lifetime.
constexpr int kMvccWriters = 4;
constexpr int kMvccScanners = 2;

void MvccWriterChurn(std::atomic<bool>* stop) {
  while (!stop->load(std::memory_order_acquire)) {
    const int64_t k = g_next_key.fetch_add(1);
    Rid rid;
    RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                    [&](Transaction* txn) {
                      auto r = g_env.db->InsertRecord(
                          txn, g_env.gist, BtreeExtension::MakeKey(k), "v");
                      if (r.ok()) rid = r.value();
                      return r.status();
                    });
    RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                    [&](Transaction* txn) {
                      return g_env.db->DeleteRecord(
                          txn, g_env.gist, BtreeExtension::MakeKey(k), rid);
                    });
    if ((k & 0x3FF) == 0) {
      g_env.db->mvcc()->Prune(g_env.db->txns()->SnapshotHorizon());
    }
  }
}

// The scan range deliberately covers the churn keys (which start at
// kPreload and rise), so a 2PL scan's predicates conflict with every
// writer insert while a snapshot scan conflicts with nothing.
Status MvccLongScanOnce(Transaction* txn) {
  std::vector<SearchResult> results;
  return g_env.gist->Search(txn, BtreeExtension::MakeRange(0, kPreload * 8),
                            &results);
}

void BM_MvccLongScan(benchmark::State& state) {
  const bool with_writers = state.range(0) != 0;
  g_env.BuildBtree("/tmp/gistcr_bench_mvcc", ConcurrencyProtocol::kLink,
                   PredicateMode::kHybrid, NsnSource::kLsn, kPreload);
  g_next_key.store(kPreload);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  if (with_writers) {
    for (int w = 0; w < kMvccWriters; w++) {
      writers.emplace_back(MvccWriterChurn, &stop);
    }
  }
  const uint64_t t0 = obs::NowNanos();
  int64_t items = 0;
  for (auto _ : state) {
    RunTxnWithRetry(g_env.db.get(), IsolationLevel::kSnapshot,
                    MvccLongScanOnce);
    items++;
  }
  const double elapsed_s = static_cast<double>(obs::NowNanos() - t0) / 1e9;
  stop.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
  state.SetItemsProcessed(items);
  WriteMvccReport("BENCH_mvcc.json", "scan",
                  with_writers ? "with_writers" : "solo", elapsed_s,
                  static_cast<uint64_t>(items), g_env.db.get());
  ReportRegistryMetrics(state, g_env.db.get());
  state.counters["chain_length_p99"] =
      g_env.db->metrics()->GetHistogram("mvcc.chain_length")->GetSnapshot()
          .Percentile(0.99);
  state.SetLabel(with_writers ? "with_writers" : "solo");
}

void BM_MvccWriterCommit(benchmark::State& state) {
  // Arg: 0 = solo, 1 = concurrent snapshot scans, 2 = concurrent 2PL
  // (repeatable-read) scans — the baseline MVCC replaces.
  const int arm = static_cast<int>(state.range(0));
  const char* arm_label =
      arm == 0 ? "solo" : arm == 1 ? "with_scans" : "with_rr_scans";
  g_env.BuildBtree("/tmp/gistcr_bench_mvcc", ConcurrencyProtocol::kLink,
                   PredicateMode::kHybrid, NsnSource::kLsn, kPreload);
  g_next_key.store(kPreload);
  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  if (arm != 0) {
    const IsolationLevel scan_iso = arm == 1 ? IsolationLevel::kSnapshot
                                             : IsolationLevel::kRepeatableRead;
    for (int s = 0; s < kMvccScanners; s++) {
      scanners.emplace_back([&, scan_iso] {
        while (!stop.load(std::memory_order_acquire)) {
          RunTxnWithRetry(g_env.db.get(), scan_iso, MvccLongScanOnce);
        }
      });
    }
  }
  const uint64_t commits0 =
      g_env.db->metrics()->GetCounter("txn.commits")->value();
  const uint64_t t0 = obs::NowNanos();
  int64_t items = 0;
  for (auto _ : state) {
    const int64_t k = g_next_key.fetch_add(1);
    Rid rid;
    RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                    [&](Transaction* txn) {
                      auto r = g_env.db->InsertRecord(
                          txn, g_env.gist, BtreeExtension::MakeKey(k), "v");
                      if (r.ok()) rid = r.value();
                      return r.status();
                    });
    RunTxnWithRetry(g_env.db.get(), IsolationLevel::kReadCommitted,
                    [&](Transaction* txn) {
                      return g_env.db->DeleteRecord(
                          txn, g_env.gist, BtreeExtension::MakeKey(k), rid);
                    });
    if ((k & 0x3FF) == 0) {
      g_env.db->mvcc()->Prune(g_env.db->txns()->SnapshotHorizon());
    }
    items++;
  }
  const double elapsed_s = static_cast<double>(obs::NowNanos() - t0) / 1e9;
  const uint64_t commits =
      g_env.db->metrics()->GetCounter("txn.commits")->value() - commits0;
  stop.store(true, std::memory_order_release);
  for (auto& s : scanners) s.join();
  state.SetItemsProcessed(items);
  WriteMvccReport("BENCH_mvcc.json", "writer", arm_label, elapsed_s, commits,
                  g_env.db.get());
  ReportRegistryMetrics(state, g_env.db.get());
  state.SetLabel(arm_label);
}

// Arg 0 = link protocol, 1 = coarse baseline.
BENCHMARK(BM_SearchOnly)->Arg(0)->Arg(1)->ThreadRange(1, 8)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InsertOnly)->Arg(0)->Arg(1)->ThreadRange(1, 8)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Mixed80_20)->Arg(0)->Arg(1)->ThreadRange(1, 8)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReadMostly95_5)->ThreadRange(1, 8)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReadMostly99_1)->ThreadRange(1, 8)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InsertLatencyUnderScan)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DurableCommit)->ThreadRange(1, 8)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
// Arg 0 = tracing/slow-op capture off, 1 = on.
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1)->ThreadRange(1, 4)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
// Arg 0 = solo, 1 = contended (writers for the scan series, long scans
// for the writer series). Single benchmark thread; the contention is
// supplied by dedicated background threads.
BENCHMARK(BM_MvccLongScan)->Arg(0)->Arg(1)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MvccWriterCommit)->Arg(0)->Arg(1)->Arg(2)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace gistcr

BENCHMARK_MAIN();
