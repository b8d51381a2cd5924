// Closed-loop load driver for the network server (ISSUE: tentpole bench).
//
// Spawns an in-process Server over a fresh Database, then N client threads
// each running a closed loop of auto-commit operations (insert / search mix)
// until the deadline. Reports throughput and p50/p95/p99 latency per op
// class, writes a JSON report for CI artifacts, and exits non-zero if any
// protocol error occurred (lock contention — Deadlock/Busy — is counted
// separately: that is the engine working, not the protocol failing).
//
//   bench_server --clients=8 --seconds=10 --read-pct=50
//                --report=BENCH_server_latency.json
//
// After the run the server is shut down gracefully and the database is
// reopened with a full invariant check, so every bench run also exercises
// the drain-then-recover path end to end.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/btree_extension.h"
#include "bench/commit_report.h"
#include "client/client.h"
#include "db/database.h"
#include "obs/op_context.h"
#include "obs/trace.h"
#include "server/server.h"
#include "util/random.h"

namespace gistcr {
namespace {

struct BenchConfig {
  int clients = 8;
  int seconds = 5;
  int read_pct = 50;
  int64_t keyspace = 100000;
  std::string report = "BENCH_server_latency.json";
  /// When nonempty, the durable-commit pipeline stats (commits/s, commit
  /// latency percentiles, group-commit batch size) are written there in
  /// the same format bench_concurrency uses for BENCH_commit.json.
  std::string commit_report;
  /// fdatasync on every commit — the configuration under which the commit
  /// report measures true group commit. Off by default: the latency bench
  /// measures protocol scaling, not durability.
  bool sync_commit = false;
  std::string db_path = "/tmp/gistcr_bench_server";
  /// When nonempty, a scrape client connects halfway through the run,
  /// issues kStats in Prometheus format, and writes the exposition text
  /// there (CI uploads it as an artifact). The run fails if the dump does
  /// not look like valid exposition text.
  std::string stats_dump;
  /// When nonempty, the bench runs interleaved pairs — tracing + slow-op
  /// capture disabled, then enabled — and writes an observability
  /// overhead report there (median per-pair throughput ratio). Exits
  /// non-zero if the instrumented arm is more than kObsOverheadLimitPct
  /// slower, or if the per-stage latency histograms do not sum to the
  /// end-to-end request histogram within 10%.
  std::string obs_report;
  /// Internal: whether this phase runs with tracing/slow-op capture on.
  bool obs_enabled = true;
};

/// ISSUE 6 acceptance gate: observability overhead budget, percent.
constexpr double kObsOverheadLimitPct = 5.0;

struct OpStats {
  std::vector<uint64_t> latencies_ns;
  uint64_t ops = 0;
  uint64_t contention = 0;  ///< Deadlock/Busy answers (expected under load)
  uint64_t protocol_errors = 0;
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PercentileMs(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return static_cast<double>(v[idx]) / 1e6;
}

void ClientLoop(const BenchConfig& cfg, uint16_t port, int id,
                std::atomic<bool>* stop, OpStats* inserts, OpStats* searches) {
  ClientOptions copts;
  copts.port = port;
  Client c(copts);
  if (!c.Connect().ok()) {
    inserts->protocol_errors++;
    return;
  }
  Random rnd(0x5EED0000u + static_cast<uint64_t>(id));
  while (!stop->load(std::memory_order_relaxed)) {
    const bool is_read =
        static_cast<int>(rnd.Uniform(100)) < cfg.read_pct;
    const int64_t k = static_cast<int64_t>(rnd.Uniform(
        static_cast<uint64_t>(cfg.keyspace)));
    const uint64_t t0 = NowNs();
    Status st;
    if (is_read) {
      st = c.Search(1, BtreeExtension::MakeRange(k, k + 9)).status();
    } else {
      // Appended, not `"v" + std::to_string(k)`: GCC 12 reports a false
      // -Wrestrict on that operator+ once inlined at -O3.
      std::string value = "v";
      value += std::to_string(k);
      st = c.Insert(1, BtreeExtension::MakeKey(k), value).status();
    }
    const uint64_t dt = NowNs() - t0;
    OpStats* s = is_read ? searches : inserts;
    if (st.ok()) {
      s->ops++;
      s->latencies_ns.push_back(dt);
    } else if (st.IsDeadlock() || st.IsBusy()) {
      s->contention++;
    } else {
      s->protocol_errors++;
      std::fprintf(stderr, "[client %d] protocol error: %s\n", id,
                   st.ToString().c_str());
    }
  }
}

/// Aggregates a single phase needs by the observability report: raw
/// throughput plus the server-side stage/total histogram sums captured
/// before shutdown.
struct RunResult {
  double throughput = 0;
  uint64_t requests = 0;
  uint64_t stage_sum_ns = 0;
  uint64_t total_sum_ns = 0;
  std::string stats_text;  ///< mid-run Prometheus scrape, if requested
};

/// Mid-run admin scrape: wait half the bench, then ask the server for its
/// metrics in Prometheus exposition format over the same wire protocol the
/// load clients use.
void ScrapeLoop(const BenchConfig& cfg, uint16_t port, std::string* out) {
  std::this_thread::sleep_for(
      std::chrono::milliseconds(cfg.seconds * 1000 / 2));
  ClientOptions copts;
  copts.port = port;
  Client c(copts);
  if (!c.Connect().ok()) return;
  auto stats = c.Stats(/*prometheus=*/true);
  if (stats.ok()) *out = stats.MoveValue();
}

int Run(const BenchConfig& cfg, RunResult* result = nullptr) {
  for (const char* suffix : {".db", ".wal", ".ckpt", ".flight"}) {
    std::remove((cfg.db_path + suffix).c_str());
  }
  obs::Tracer::Global().SetEnabled(cfg.obs_enabled);
  DatabaseOptions dopts;
  dopts.path = cfg.db_path;
  dopts.buffer_pool_pages = 4096;
  dopts.sync_commit = cfg.sync_commit;
  auto db_or = Database::Create(dopts);
  if (!db_or.ok()) {
    std::fprintf(stderr, "Create: %s\n", db_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Database> db = db_or.MoveValue();
  if (!cfg.obs_enabled) db->slow_ops()->SetThresholdNs(0);
  BtreeExtension bt;
  if (!db->CreateIndex(1, &bt).ok()) return 2;

  ServerOptions sopts;
  sopts.num_workers = 4;
  Server server(db.get(), sopts);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 2;
  }
  std::printf("bench_server: %d clients, %ds, %d%% reads, port %u\n",
              cfg.clients, cfg.seconds, cfg.read_pct, server.port());

  std::atomic<bool> stop{false};
  std::vector<OpStats> ins(static_cast<size_t>(cfg.clients));
  std::vector<OpStats> sea(static_cast<size_t>(cfg.clients));
  std::vector<std::thread> threads;
  const uint64_t bench_start = NowNs();
  for (int i = 0; i < cfg.clients; i++) {
    threads.emplace_back(ClientLoop, std::cref(cfg), server.port(), i, &stop,
                         &ins[static_cast<size_t>(i)],
                         &sea[static_cast<size_t>(i)]);
  }
  std::string stats_text;
  std::thread scraper;
  if (!cfg.stats_dump.empty()) {
    scraper = std::thread(ScrapeLoop, std::cref(cfg), server.port(),
                          &stats_text);
  }
  std::this_thread::sleep_for(std::chrono::seconds(cfg.seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  if (scraper.joinable()) scraper.join();
  const double elapsed_s =
      static_cast<double>(NowNs() - bench_start) / 1e9;

  OpStats insert_all, search_all;
  for (int i = 0; i < cfg.clients; i++) {
    auto& is = ins[static_cast<size_t>(i)];
    auto& ss = sea[static_cast<size_t>(i)];
    insert_all.ops += is.ops;
    insert_all.contention += is.contention;
    insert_all.protocol_errors += is.protocol_errors;
    insert_all.latencies_ns.insert(insert_all.latencies_ns.end(),
                                   is.latencies_ns.begin(),
                                   is.latencies_ns.end());
    search_all.ops += ss.ops;
    search_all.contention += ss.contention;
    search_all.protocol_errors += ss.protocol_errors;
    search_all.latencies_ns.insert(search_all.latencies_ns.end(),
                                   ss.latencies_ns.begin(),
                                   ss.latencies_ns.end());
  }

  const uint64_t total_ops = insert_all.ops + search_all.ops;
  const uint64_t errors =
      insert_all.protocol_errors + search_all.protocol_errors;
  const double tput = static_cast<double>(total_ops) / elapsed_s;

  struct Row {
    const char* name;
    OpStats* s;
  } rows[] = {{"insert", &insert_all}, {"search", &search_all}};
  std::string json = "{\n";
  json += "  \"clients\": " + std::to_string(cfg.clients) + ",\n";
  json += "  \"seconds\": " + std::to_string(elapsed_s) + ",\n";
  json += "  \"throughput_ops_per_s\": " + std::to_string(tput) + ",\n";
  json += "  \"protocol_errors\": " + std::to_string(errors) + ",\n";
  for (auto& row : rows) {
    const double p50 = PercentileMs(row.s->latencies_ns, 0.50);
    const double p95 = PercentileMs(row.s->latencies_ns, 0.95);
    const double p99 = PercentileMs(row.s->latencies_ns, 0.99);
    std::printf(
        "%-7s ops=%-8llu contention=%-6llu p50=%.3fms p95=%.3fms "
        "p99=%.3fms\n",
        row.name, static_cast<unsigned long long>(row.s->ops),
        static_cast<unsigned long long>(row.s->contention), p50, p95, p99);
    json += std::string("  \"") + row.name + "\": {\"ops\": " +
            std::to_string(row.s->ops) + ", \"contention\": " +
            std::to_string(row.s->contention) + ", \"p50_ms\": " +
            std::to_string(p50) + ", \"p95_ms\": " + std::to_string(p95) +
            ", \"p99_ms\": " + std::to_string(p99) + "},\n";
  }
  json += "  \"total_ops\": " + std::to_string(total_ops) + "\n}\n";
  std::printf("total   %llu ops in %.1fs = %.0f ops/s, %llu protocol errors\n",
              static_cast<unsigned long long>(total_ops), elapsed_s, tput,
              static_cast<unsigned long long>(errors));

  FILE* f = std::fopen(cfg.report.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("report: %s\n", cfg.report.c_str());
  }

  if (!cfg.commit_report.empty()) {
    // Every server-side write is an auto-commit transaction, so the
    // registry's txn.commits is the commit count for this run (the preload
    // is zero here, unlike bench_concurrency).
    const uint64_t commits =
        db->metrics()->GetCounter("txn.commits")->value();
    bench::WriteCommitReport(cfg.commit_report, cfg.clients, elapsed_s,
                             commits, db.get());
    std::printf("commit report: %s (%llu commits, sync_commit=%d)\n",
                cfg.commit_report.c_str(),
                static_cast<unsigned long long>(commits),
                cfg.sync_commit ? 1 : 0);
  }

  if (!cfg.stats_dump.empty()) {
    // The scrape ran mid-load; an empty or non-exposition answer means the
    // admin surface broke under concurrency, which is exactly what this
    // flag exists to catch.
    if (stats_text.find("# TYPE ") == std::string::npos ||
        stats_text.find("gistcr_server_requests") == std::string::npos) {
      std::fprintf(stderr, "FAIL: mid-run kStats scrape not valid "
                           "Prometheus text (%zu bytes)\n",
                   stats_text.size());
      return 1;
    }
    FILE* sf = std::fopen(cfg.stats_dump.c_str(), "w");
    if (sf != nullptr) {
      std::fwrite(stats_text.data(), 1, stats_text.size(), sf);
      std::fclose(sf);
      std::printf("stats dump: %s (%zu bytes)\n", cfg.stats_dump.c_str(),
                  stats_text.size());
    }
  }

  if (result != nullptr) {
    result->throughput = tput;
    result->requests = total_ops;
    result->stats_text = stats_text;
    for (size_t s = 0; s < obs::kNumStages; s++) {
      const std::string name = std::string("rpc.stage.") +
                               obs::StageName(static_cast<obs::Stage>(s));
      result->stage_sum_ns +=
          db->metrics()->GetHistogram(name)->GetSnapshot().sum;
    }
    result->total_sum_ns =
        db->metrics()->GetHistogram("rpc.request_total")->GetSnapshot().sum;
  }

  // Drain, checkpoint, reopen, verify: the bench doubles as a soak test of
  // the graceful-shutdown acceptance criterion.
  if (!server.Shutdown().ok()) {
    std::fprintf(stderr, "graceful shutdown failed\n");
    return 2;
  }
  db.reset();
  auto reopen = Database::Open(dopts);
  if (!reopen.ok()) {
    std::fprintf(stderr, "reopen: %s\n", reopen.status().ToString().c_str());
    return 2;
  }
  db = reopen.MoveValue();
  if (!db->OpenIndex(1, &bt).ok()) return 2;
  Status inv = db->GetIndex(1).value()->CheckInvariants();
  if (!inv.ok()) {
    std::fprintf(stderr, "post-shutdown invariants: %s\n",
                 inv.ToString().c_str());
    return 2;
  }
  std::printf("post-shutdown reopen + invariant check: OK\n");

  if (errors != 0) {
    std::fprintf(stderr, "FAIL: %llu protocol errors\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  if (total_ops == 0) {
    std::fprintf(stderr, "FAIL: no operations completed\n");
    return 1;
  }
  return 0;
}

/// Per-arm accounting for the interleaved overhead measurement.
struct ObsArm {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> latency_ns{0};
};

/// Closed-loop client that attributes every completed op to whichever arm
/// (0 = tracing off, 1 = tracing on) was active when the op started.
void ObsClientLoop(const BenchConfig& cfg, uint16_t port, int id,
                   std::atomic<bool>* stop, std::atomic<int>* arm,
                   ObsArm* arms, std::atomic<uint64_t>* errors) {
  ClientOptions copts;
  copts.port = port;
  Client c(copts);
  if (!c.Connect().ok()) {
    errors->fetch_add(1);
    return;
  }
  Random rnd(0x0B5EED00u + static_cast<uint64_t>(id));
  while (!stop->load(std::memory_order_relaxed)) {
    const int a = arm->load(std::memory_order_relaxed);
    const bool is_read =
        static_cast<int>(rnd.Uniform(100)) < cfg.read_pct;
    const int64_t k = static_cast<int64_t>(rnd.Uniform(
        static_cast<uint64_t>(cfg.keyspace)));
    const uint64_t t0 = NowNs();
    Status st;
    if (is_read) {
      st = c.Search(1, BtreeExtension::MakeRange(k, k + 9)).status();
    } else {
      // Appended, not `"v" + std::to_string(k)`: GCC 12 reports a false
      // -Wrestrict on that operator+ once inlined at -O3.
      std::string value = "v";
      value += std::to_string(k);
      st = c.Insert(1, BtreeExtension::MakeKey(k), value).status();
    }
    if (st.ok()) {
      if (a >= 0) {
        arms[a].ops.fetch_add(1, std::memory_order_relaxed);
        arms[a].latency_ns.fetch_add(NowNs() - t0,
                                     std::memory_order_relaxed);
      }
    } else if (!st.IsDeadlock() && !st.IsBusy()) {
      errors->fetch_add(1);
      std::fprintf(stderr, "[obs client %d] protocol error: %s\n", id,
                   st.ToString().c_str());
    }
  }
}

/// Observability overhead report (ISSUE 6 satellite): one continuous
/// server run during which tracing + slow-op capture are toggled every
/// 250 ms, with each completed op attributed to the arm active at its
/// start. Coarse A/B phases cannot resolve a 5% budget on a shared box
/// (identical back-to-back runs swing ~20% with ambient load); the
/// fine-grained interleave exposes both arms to the same noise, so the
/// per-arm op counts — accumulated over equal total time — compare the
/// instrumentation cost itself. Writes BENCH_obs.json; fails if the
/// instrumented arm is more than kObsOverheadLimitPct slower, or if the
/// per-stage histograms do not sum to the end-to-end request histogram
/// within 10%.
int RunObsReport(const BenchConfig& cfg) {
  for (const char* suffix : {".db", ".wal", ".ckpt", ".flight"}) {
    std::remove((cfg.db_path + suffix).c_str());
  }
  obs::Tracer::Global().SetEnabled(true);
  DatabaseOptions dopts;
  dopts.path = cfg.db_path;
  dopts.buffer_pool_pages = 4096;
  dopts.sync_commit = cfg.sync_commit;
  auto db_or = Database::Create(dopts);
  if (!db_or.ok()) {
    std::fprintf(stderr, "Create: %s\n", db_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Database> db = db_or.MoveValue();
  const uint64_t slow_threshold = db->slow_ops()->threshold_ns();
  BtreeExtension bt;
  if (!db->CreateIndex(1, &bt).ok()) return 2;
  ServerOptions sopts;
  sopts.num_workers = 4;
  Server server(db.get(), sopts);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 2;
  }
  std::printf(
      "obs-report: %d clients, %ds per arm, 250ms interleave, port %u\n",
      cfg.clients, cfg.seconds, server.port());

  std::atomic<bool> stop{false};
  std::atomic<int> arm{-1};  // -1 = warmup (uncounted)
  ObsArm arms[2];
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < cfg.clients; i++) {
    threads.emplace_back(ObsClientLoop, std::cref(cfg), server.port(), i,
                         &stop, &arm, arms, &errors);
  }

  std::string stats_text;
  std::thread scraper;
  constexpr int kSliceMs = 250;
  const int slices = std::max(4, cfg.seconds * 2000 / kSliceMs) & ~3;
  // Warmup outside the measurement: the first second decays steeply
  // (page cache, allocator, tree fanout) and ABBA only cancels drift
  // that is linear across a slice quartet.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  for (int i = 0; i < slices; i++) {
    // ABBA ordering (off,on,on,off): throughput drifts monotonically
    // within a run as the tree grows, and strict alternation would hand
    // the leading arm the faster moment of every pair. The mirrored
    // pattern cancels linear drift exactly.
    const int a = (i % 4 == 1 || i % 4 == 2) ? 1 : 0;
    obs::Tracer::Global().SetEnabled(a == 1);
    db->slow_ops()->SetThresholdNs(a == 1 ? slow_threshold : 0);
    arm.store(a, std::memory_order_relaxed);
    if (i == slices / 2 && !cfg.stats_dump.empty()) {
      // Mid-run Prometheus scrape, concurrent with the load.
      BenchConfig scfg = cfg;
      scfg.seconds = 0;
      scraper = std::thread(ScrapeLoop, scfg, server.port(), &stats_text);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kSliceMs));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  if (scraper.joinable()) scraper.join();
  obs::Tracer::Global().SetEnabled(true);  // leave the process sane
  db->slow_ops()->SetThresholdNs(slow_threshold);

  const uint64_t ops_off = arms[0].ops.load();
  const uint64_t ops_on = arms[1].ops.load();
  const double mean_lat_off_us =
      ops_off == 0 ? 0.0
                   : static_cast<double>(arms[0].latency_ns.load()) /
                         static_cast<double>(ops_off) / 1e3;
  const double mean_lat_on_us =
      ops_on == 0 ? 0.0
                  : static_cast<double>(arms[1].latency_ns.load()) /
                        static_cast<double>(ops_on) / 1e3;
  const double overhead_pct =
      ops_off == 0 ? 0.0
                   : (static_cast<double>(ops_off) -
                      static_cast<double>(ops_on)) *
                         100.0 / static_cast<double>(ops_off);

  uint64_t stage_sum_ns = 0;
  for (size_t s = 0; s < obs::kNumStages; s++) {
    const std::string name = std::string("rpc.stage.") +
                             obs::StageName(static_cast<obs::Stage>(s));
    stage_sum_ns += db->metrics()->GetHistogram(name)->GetSnapshot().sum;
  }
  const uint64_t total_sum_ns =
      db->metrics()->GetHistogram("rpc.request_total")->GetSnapshot().sum;
  const double stage_ratio =
      total_sum_ns == 0 ? 0.0
                        : static_cast<double>(stage_sum_ns) /
                              static_cast<double>(total_sum_ns);

  if (!cfg.stats_dump.empty()) {
    if (stats_text.find("# TYPE ") == std::string::npos ||
        stats_text.find("gistcr_server_requests") == std::string::npos) {
      std::fprintf(stderr, "FAIL: mid-run kStats scrape not valid "
                           "Prometheus text (%zu bytes)\n",
                   stats_text.size());
      return 1;
    }
    FILE* sf = std::fopen(cfg.stats_dump.c_str(), "w");
    if (sf != nullptr) {
      std::fwrite(stats_text.data(), 1, stats_text.size(), sf);
      std::fclose(sf);
      std::printf("stats dump: %s (%zu bytes)\n", cfg.stats_dump.c_str(),
                  stats_text.size());
    }
  }

  std::string json = "{\n";
  json += "  \"clients\": " + std::to_string(cfg.clients) + ",\n";
  json += "  \"seconds_per_arm\": " + std::to_string(cfg.seconds) + ",\n";
  json += "  \"read_pct\": " + std::to_string(cfg.read_pct) + ",\n";
  json += "  \"interleave_ms\": " + std::to_string(kSliceMs) + ",\n";
  json += "  \"tracing_off\": {\"ops\": " + std::to_string(ops_off) +
          ", \"mean_latency_us\": " + std::to_string(mean_lat_off_us) +
          "},\n";
  json += "  \"tracing_on\": {\"ops\": " + std::to_string(ops_on) +
          ", \"mean_latency_us\": " + std::to_string(mean_lat_on_us) +
          ", \"stage_sum_ns\": " + std::to_string(stage_sum_ns) +
          ", \"request_total_sum_ns\": " + std::to_string(total_sum_ns) +
          "},\n";
  json += "  \"overhead_pct\": " + std::to_string(overhead_pct) + ",\n";
  json += "  \"overhead_limit_pct\": " +
          std::to_string(kObsOverheadLimitPct) + ",\n";
  json += "  \"stage_to_total_ratio\": " + std::to_string(stage_ratio) +
          "\n}\n";
  FILE* f = std::fopen(cfg.obs_report.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  std::printf(
      "obs report: %s (overhead %.2f%%, off %llu ops / on %llu ops, "
      "stage/total ratio %.4f)\n",
      cfg.obs_report.c_str(), overhead_pct,
      static_cast<unsigned long long>(ops_off),
      static_cast<unsigned long long>(ops_on), stage_ratio);

  // Same graceful epilogue as Run: drain, reopen, verify.
  if (!server.Shutdown().ok()) {
    std::fprintf(stderr, "graceful shutdown failed\n");
    return 2;
  }
  db.reset();
  auto reopen = Database::Open(dopts);
  if (!reopen.ok()) {
    std::fprintf(stderr, "reopen: %s\n", reopen.status().ToString().c_str());
    return 2;
  }
  db = reopen.MoveValue();
  if (!db->OpenIndex(1, &bt).ok()) return 2;
  Status inv = db->GetIndex(1).value()->CheckInvariants();
  if (!inv.ok()) {
    std::fprintf(stderr, "post-shutdown invariants: %s\n",
                 inv.ToString().c_str());
    return 2;
  }

  if (errors.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu protocol errors\n",
                 static_cast<unsigned long long>(errors.load()));
    return 1;
  }
  if (ops_off == 0 || ops_on == 0) {
    std::fprintf(stderr, "FAIL: an arm completed no operations\n");
    return 1;
  }
  if (stage_ratio < 0.9 || stage_ratio > 1.1) {
    std::fprintf(stderr,
                 "FAIL: stage histograms sum to %.1f%% of end-to-end "
                 "latency (must be within 10%%)\n",
                 stage_ratio * 100.0);
    return 1;
  }
  if (overhead_pct > kObsOverheadLimitPct) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% exceeds %.1f%% "
                 "budget\n",
                 overhead_pct, kObsOverheadLimitPct);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gistcr

int main(int argc, char** argv) {
  gistcr::BenchConfig cfg;
  for (int i = 1; i < argc; i++) {
    const char* a = argv[i];
    if (std::strncmp(a, "--clients=", 10) == 0) {
      cfg.clients = std::atoi(a + 10);
    } else if (std::strncmp(a, "--seconds=", 10) == 0) {
      cfg.seconds = std::atoi(a + 10);
    } else if (std::strncmp(a, "--read-pct=", 11) == 0) {
      cfg.read_pct = std::atoi(a + 11);
    } else if (std::strncmp(a, "--keyspace=", 11) == 0) {
      cfg.keyspace = std::atoll(a + 11);
    } else if (std::strncmp(a, "--report=", 9) == 0) {
      cfg.report = a + 9;
    } else if (std::strncmp(a, "--commit-report=", 16) == 0) {
      cfg.commit_report = a + 16;
    } else if (std::strncmp(a, "--sync-commit=", 14) == 0) {
      cfg.sync_commit = std::atoi(a + 14) != 0;
    } else if (std::strncmp(a, "--db=", 5) == 0) {
      cfg.db_path = a + 5;
    } else if (std::strncmp(a, "--stats-dump=", 13) == 0) {
      cfg.stats_dump = a + 13;
    } else if (std::strncmp(a, "--obs-report=", 13) == 0) {
      cfg.obs_report = a + 13;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--clients=N] [--seconds=S] [--read-pct=P]\n"
                   "          [--keyspace=K] [--report=PATH] [--db=PATH]\n"
                   "          [--commit-report=PATH] [--sync-commit=0|1]\n"
                   "          [--stats-dump=PATH] [--obs-report=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.clients < 1 || cfg.seconds < 1) {
    std::fprintf(stderr, "bad --clients/--seconds\n");
    return 2;
  }
  if (!cfg.obs_report.empty()) return gistcr::RunObsReport(cfg);
  return gistcr::Run(cfg);
}
