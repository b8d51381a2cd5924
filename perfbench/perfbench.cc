// gistcr benchmark program: one process runs one workload against the public
// API (Database, Gist::Search, Client/Server), checks every output, crashes
// the database, restarts it and verifies what survived.
//
//   gistcr_perfbench --workload btree_read_mostly --seed 7 --seconds 10
//                    --trace 0 --dir <scratch dir>
//
// Workloads (why each exists: see BENCHMARK.json):
//   btree_read_mostly    embedded, closed loop, 4 threads, B-tree of 200k
//                        keys (fanout 64) resident in the buffer pool;
//                        95% read-committed 10-key range searches, 5%
//                        fresh-key inserts, sync_commit off; FlushAll and
//                        a checkpoint before the crash.
//   btree_churn_durable  embedded, closed loop, sync_commit on, index+heap
//                        about 4x the buffer pool; 3 repeatable-read
//                        writers (search 10 keys, insert one, delete one
//                        the search returned), 1 snapshot scanner (1000
//                        keys), a maintenance pass every kChurnPassEvery
//                        commits, crash kChurnCrashTail commits after the
//                        last pass with writers mid-transaction.
//   rtree_wire_open      in-process Server over an R-tree of 100k points,
//                        4 Client connections driven open-loop by seeded
//                        Poisson arrivals; 80% window queries, 20% inserts,
//                        auto-commit at repeatable read, sync_commit on.
//
// Op classes: read (a short search, a window query, or -- in the churn
// workload, whose only read-only op it is -- the snapshot scan) and write
// (one write transaction including its retries and commit).
//
// Every run: set-up (kSetupReps times; the median is setup_s), a warm-up,
// a measured window of --seconds cut into slices (throughput and latency
// percentiles are medians over slices), a crash, kRestartReps instant
// restarts of the same crash image (medians are the restart_* metrics),
// and verification of the first restart: every acknowledged insert
// readable with its record, every acknowledged delete gone,
// Gist::CheckInvariants. Any wrong output or unexpected error status
// exits 1.
//
// --trace 1 adds the benchmark's own spans around every call into the
// engine (plus an obs::OpContext per embedded op) and reports per-layer
// metrics; tracing alternates on/off in 250 ms slices so the overhead is
// measured against untraced ops of the same run.
//
// The last stdout line is "RESULT <json>" with every metric this workload
// computed; perfbench/run.py selects the ones BENCHMARK.json names.

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "access/btree_extension.h"
#include "access/rtree_extension.h"
#include "client/client.h"
#include "db/database.h"
#include "gist/gist.h"
#include "obs/metrics.h"
#include "obs/op_context.h"
#include "server/server.h"
#include "util/random.h"

namespace gistcr {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload constants (scale 1). --scale multiplies the preload sizes only;
// the self-test runs at a tiny scale.

constexpr int kThreads = 4;  // nproc on the reference box; never more
constexpr int kSetupReps = 3;
constexpr int kRestartReps = 7;
constexpr double kWarmupSeconds = 1.0;
constexpr uint64_t kTraceSliceNs = 250'000'000;
/// The window is cut into slices of about this length; throughput and
/// latency percentiles are computed per slice and the median slice is
/// reported, so a transient stall of the shared host moves one slice, not
/// the result.
constexpr double kStatSliceSeconds = 1.0;

constexpr int64_t kStride = 64;  // preloaded keys are multiples of kStride
/// Fresh keys per preloaded slot and thread (offsets between two slots).
constexpr int64_t kFreshPerSlot = (kStride - 1) / kThreads;

constexpr int64_t kReadMostlyKeys = 200'000;
constexpr uint16_t kReadMostlyFanout = 64;
constexpr size_t kReadMostlyPoolPages = 8192;
constexpr int kReadMostlyReadPct = 95;
constexpr size_t kReadMostlyRecordBytes = 16;

constexpr int64_t kChurnKeys = 80'000;
constexpr size_t kChurnPoolPages = 640;
constexpr size_t kChurnRecordBytes = 200;
constexpr int kChurnWriters = 3;
constexpr int64_t kChurnScanKeys = 1000;
constexpr uint64_t kChurnPassEvery = 1000;  // committed write txns per pass
constexpr uint64_t kChurnCrashTail = 500;   // commits after the last pass
constexpr int kChurnLoserInserts = 8;       // per writer, uncommitted

constexpr int64_t kRtreePoints = 100'000;
constexpr double kRtreeDomain = 1000.0;
constexpr size_t kRtreePoolPages = 4096;
constexpr int kRtreeReadPct = 80;
constexpr double kRtreeMinSide = 5.0, kRtreeMaxSide = 20.0;
constexpr int kRtreeSampleEvery = 8;  // windows checked against the preload
/// Fixed total offered rate, ops/s: about a quarter of the closed-loop
/// capacity of 4 clients (15.2k ops/s with `--rate 0` on a 4-vCPU x86-64
/// VM). Each connection is its own single-server queue; at half capacity
/// every connection is ~55% busy and queueing amplifies host noise into
/// run-to-run latency swings wider than the benchmark's bounds.
constexpr double kRtreeOfferedRate = 4000.0;

constexpr size_t kPreloadBatch = 256;
constexpr size_t kKeptSpans = 20'000;  // spans written to --trace-out

// ---------------------------------------------------------------------------
// Basics

uint64_t Now() { return obs::NowNanos(); }

[[noreturn]] void Fail(const std::string& msg) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: FAIL: %s\n", msg.c_str());
  std::exit(1);
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Fail(what + ": " + st.ToString());
}

/// Deadlock, busy and timeout (the wire maps timeouts to Busy) are the
/// engine refusing an attempt; the op is retried and the attempt counts
/// toward fail_ratio. Any other status fails the run.
bool Retryable(const Status& st) { return st.IsDeadlock() || st.IsBusy(); }

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Independent stream \p stream of the workload seed.
Random Stream(uint64_t seed, uint64_t stream) {
  return Random(SplitMix64(SplitMix64(seed) ^ (stream * 0xD1B54A32D192ED03ull)));
}

double Percentile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0.0;
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(idx),
                   v->end());
  return static_cast<double>((*v)[idx]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Writes back every dirty page of the file system holding \p dir, so the
/// write-back of one phase (and the discards of the files it deleted) does
/// not land in the fsyncs the next phase times.
void SyncFs(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

double PeakRssMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Pad(const std::string& s, size_t n) {
  std::string out = s;
  out.resize(std::max(n, s.size()), '.');
  return out;
}

// ---------------------------------------------------------------------------
// Spans (--trace 1). Each op is one root span ("op.*", layer harness) whose
// children are the engine calls it made. Spans of the op in flight live in
// the worker's TraceAgg; when the root closes they are folded into
// per-layer self time and per-call durations, and the first kKeptSpans are
// kept for the trace file written at exit.

enum SpanId : uint8_t {
  kOpRead,
  kOpWrite,
  kOpScan,
  kDbBegin,
  kDbInsertRecord,
  kDbDeleteRecord,
  kDbCommit,
  kDbAbort,
  kGistSearch,
  kGistSnapshotSearch,
  kServerSearch,
  kServerInsert,
  kNumSpans
};
constexpr const char* kSpanName[kNumSpans] = {
    "op.read",          "op.write",        "op.scan",
    "db.begin",         "db.insert_record", "db.delete_record",
    "db.commit",        "db.abort",        "gist.search",
    "gist.snapshot_search", "server.search", "server.insert"};

enum Layer : uint8_t { kHarness, kDb, kGist, kServer, kNumLayers };
constexpr const char* kLayerName[kNumLayers] = {"harness", "db", "gist",
                                                "server"};
constexpr Layer kSpanLayer[kNumSpans] = {
    kHarness, kHarness, kHarness, kDb,     kDb,     kDb,
    kDb,      kDb,      kGist,    kGist,   kServer, kServer};

/// Latency classes. The churn workload's read-only op is its snapshot scan.
enum OpClass : uint8_t { kRead, kWrite, kNumClasses };

struct SpanRec {
  SpanId id;
  int32_t parent;  // index within the op; -1 for the root
  uint64_t start;
  uint64_t end;
  uint64_t op;
};

std::atomic<bool> g_tracing{false};
std::atomic<size_t> g_kept_spans{0};
std::atomic<uint64_t> g_next_op{1};

struct TraceAgg {
  std::vector<SpanRec> cur;  // spans of the op in flight
  int32_t top = -1;          // innermost open span
  uint64_t op = 0;
  std::vector<uint64_t> dur[kNumSpans];
  uint64_t self_ns[kNumLayers] = {};
  uint64_t stage_ns[obs::kNumStages] = {};  // non-scan embedded ops
  uint64_t traced_ops = 0;
  uint64_t measured_ns = 0;  // harness-measured latency of traced ops
  std::vector<SpanRec> kept;

  int32_t Open(SpanId id, uint64_t start) {
    cur.push_back({id, top, start, 0, op});
    top = static_cast<int32_t>(cur.size() - 1);
    return top;
  }
  void Close(int32_t idx, uint64_t end) {
    cur[static_cast<size_t>(idx)].end = end;
    top = cur[static_cast<size_t>(idx)].parent;
  }
  /// Folds the finished op (root = cur[0]) into the aggregates.
  void FoldOp() {
    std::vector<uint64_t> child_ns(cur.size(), 0);
    for (const SpanRec& s : cur) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    for (size_t i = 0; i < cur.size(); i++) {
      const uint64_t d = cur[i].end - cur[i].start;
      dur[cur[i].id].push_back(d);
      self_ns[kSpanLayer[cur[i].id]] += d - std::min(d, child_ns[i]);
    }
    if (g_kept_spans.fetch_add(cur.size(), std::memory_order_relaxed) <
        kKeptSpans) {
      kept.insert(kept.end(), cur.begin(), cur.end());
    }
    cur.clear();
    top = -1;
  }
};

thread_local TraceAgg* t_trace = nullptr;  // set only while an op is traced

/// Child span around one call into the engine; free when tracing is off.
class Span {
 public:
  explicit Span(SpanId id) : agg_(t_trace) {
    if (agg_ != nullptr) idx_ = agg_->Open(id, Now());
  }
  ~Span() {
    if (agg_ != nullptr) agg_->Close(idx_, Now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceAgg* agg_;
  int32_t idx_ = -1;
};

// ---------------------------------------------------------------------------
// Per-thread worker state: latencies of ops in the measured window, attempt
// accounting, and (traced runs) the span aggregates.

struct Window {
  uint64_t start = 0;  // end of warm-up
  uint64_t end = 0;
  size_t slices = 1;
  bool Contains(uint64_t t) const { return t >= start && t < end; }
  size_t SliceOf(uint64_t t) const {
    return std::min(slices - 1, static_cast<size_t>((t - start) * slices / (end - start)));
  }
  double SliceSeconds() const {
    return static_cast<double>(end - start) / 1e9 / static_cast<double>(slices);
  }
};

struct Worker {
  explicit Worker(Random r) : rng(r) {}
  Random rng;
  std::vector<std::vector<uint64_t>> lat[kNumClasses];  // [class][slice]
  uint64_t attempts = 0;  // window ops: every attempt, including retries
  uint64_t failed = 0;    // window ops: attempts refused (deadlock/busy)
  uint64_t ops = 0;       // window ops completed
  uint64_t write_commits = 0;
  // Tracing-overhead arms: [0] untraced, [1] traced ops, window only.
  uint64_t arm_ops[2] = {};
  uint64_t arm_ns[2] = {};
  TraceAgg trace;
  // Per-op attempt counters, folded into the window totals by Record().
  uint64_t op_attempts = 0;
  uint64_t op_failed = 0;

  void Record(const Window& w, OpClass c, uint64_t start, uint64_t end,
              bool traced) {
    const uint64_t a = op_attempts, f = op_failed;
    op_attempts = op_failed = 0;
    if (!w.Contains(start)) return;
    lat[c].resize(w.slices);
    lat[c][w.SliceOf(start)].push_back(end - start);
    ops++;
    attempts += a;
    failed += f;
    arm_ops[traced ? 1 : 0]++;
    arm_ns[traced ? 1 : 0] += end - start;
    if (traced) {
      trace.traced_ops++;
      trace.measured_ns += end - start;
    }
  }
};

/// Root span of one op. For embedded ops it also installs an
/// obs::OpContext so the engine attributes stage time to this op.
class TracedOp {
 public:
  TracedOp(Worker* w, SpanId id, uint64_t start, bool traced,
           bool embedded)
      : w_(w), traced_(traced), count_stages_(embedded && id != kOpScan) {
    if (!traced_) return;
    t_trace = &w_->trace;
    w_->trace.op = g_next_op.fetch_add(1, std::memory_order_relaxed);
    w_->trace.Open(id, start);
    if (embedded) {
      ctx_.op_name = kSpanName[id];
      ctx_.start_ns = start;
      scope_.emplace(&ctx_);
    }
  }
  TracedOp(const TracedOp&) = delete;
  TracedOp& operator=(const TracedOp&) = delete;

  /// Closes the op at \p end and folds its spans.
  void Finish(uint64_t end) {
    if (!traced_) return;
    scope_.reset();
    if (count_stages_) {
      uint64_t attributed = 0;
      for (size_t s = 0; s < obs::kNumStages; s++) {
        attributed += ctx_.stage_ns[s];
        w_->trace.stage_ns[s] += ctx_.stage_ns[s];
      }
      const uint64_t total = end - ctx_.start_ns;
      if (total > attributed) {
        w_->trace.stage_ns[static_cast<size_t>(obs::Stage::kOther)] +=
            total - attributed;
      }
    }
    w_->trace.Close(0, end);
    w_->trace.FoldOp();
    t_trace = nullptr;
  }

 private:
  Worker* w_;
  bool traced_;
  bool count_stages_;
  obs::OpContext ctx_;
  std::optional<obs::OpScope> scope_;  // after ctx_: must die first
};

/// One transaction with retries: Begin, \p body, Commit; a retryable
/// refusal aborts and starts over. Returns the first non-retryable error.
template <class Body>
Status RunTxn(Database* db, IsolationLevel iso, Worker* w, Body&& body) {
  for (;;) {
    if (w != nullptr) w->op_attempts++;
    Transaction* txn;
    {
      Span s(kDbBegin);
      txn = db->Begin(iso);
    }
    Status st = body(txn);
    if (st.ok()) {
      Span s(kDbCommit);
      return db->Commit(txn);
    }
    {
      Span s(kDbAbort);
      (void)db->Abort(txn);
    }
    if (!Retryable(st)) return st;
    if (w != nullptr) w->op_failed++;
  }
}

// ---------------------------------------------------------------------------
// Registry snapshots: per-layer metrics are deltas over the measured window.

struct RegSnap {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, obs::Histogram::Snapshot> hists;
};

const char* const kCounterNames[] = {
    "gist.searches",        "gist.inserts",          "gist.splits",
    "gist.rightlink_follows", "gist.predicate_waits", "gist.read.restarts",
    "gist.read.fallbacks",  "lock.acquires",         "lock.deadlocks",
    "pred.attaches",        "pred.predicates_scanned", "wal.append_bytes",
    "wal.flushes",          "txn.commits",           "txn.aborts",
    "bp.hits",              "bp.misses",             "bp.dirty_evictions",
    "server.bytes_in",      "server.bytes_out"};

std::vector<std::string> HistNames() {
  std::vector<std::string> v = {
      "gist.latch_wait_ns", "lock.record_wait_ns", "lock.node_wait_ns",
      "lock.txn_wait_ns",   "wal.fsync_ns",        "bp.pin_wait_ns",
      "mvcc.chain_length",  "txn.commit_ns"};
  for (size_t s = 0; s < obs::kNumStages; s++) {
    v.push_back(std::string("rpc.stage.") +
                obs::StageName(static_cast<obs::Stage>(s)));
  }
  return v;
}

RegSnap TakeSnap(Database* db) {
  RegSnap r;
  obs::MetricsRegistry* reg = db->metrics();
  for (const char* n : kCounterNames) r.counters[n] = reg->GetCounter(n)->value();
  for (const std::string& n : HistNames()) {
    r.hists[n] = reg->GetHistogram(n)->GetSnapshot();
  }
  return r;
}

struct RegDelta {
  RegSnap a, b;
  double C(const std::string& n) const {
    return static_cast<double>(b.counters.at(n) - a.counters.at(n));
  }
  /// Histogram of the window (bucket-wise difference); percentiles
  /// interpolate inside power-of-two buckets.
  obs::Histogram::Snapshot H(const std::vector<std::string>& names) const {
    obs::Histogram::Snapshot d;
    for (const std::string& n : names) {
      const auto& x = a.hists.at(n);
      const auto& y = b.hists.at(n);
      for (size_t i = 0; i < obs::Histogram::kNumBuckets; i++) {
        d.buckets[i] += y.buckets[i] - x.buckets[i];
      }
      d.sum += y.sum - x.sum;
      d.max = std::max(d.max, y.max);
    }
    for (size_t i = 0; i < obs::Histogram::kNumBuckets; i++) d.count += d.buckets[i];
    return d;
  }
  double P(const std::string& n, double q) const { return H({n}).Percentile(q); }
};

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Results {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;  // ops started in the measured window
  uint64_t failed = 0;     // a failed op fails the run, so 0 when printed
  void Add(const std::string& n, const std::string& u, double v) {
    metrics.push_back({n, u, v});
  }
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
  double scale = 1.0;
  bool phantom_ack = false;
  double rate = kRtreeOfferedRate;
};

int64_t Scaled(const Config& cfg, int64_t n) {
  return std::max<int64_t>(64, static_cast<int64_t>(
                                   std::llround(static_cast<double>(n) *
                                                cfg.scale)));
}

/// Shared run-level bookkeeping: measured window, restart timings,
/// maintenance passes.
struct RunStats {
  std::vector<double> setup_s;
  Window window;
  std::vector<double> open_ms, first_commit_ms, drain_ms;
  double space_amp = 0;
  std::vector<double> pass_ms;
  double gc_removed = 0, nodes_deleted = 0, versions_pruned = 0;
  // Recovery counters of the first restart.
  double analysis_ms = 0, redo_records = 0, inline_redos = 0,
         background_redos = 0, loser_txns = 0;
  // Open loop only.
  double offered_rate = 0;
  std::vector<uint64_t> gen_lag_ns;
};

// ---------------------------------------------------------------------------
// Crash images and restart

const char* const kDbSuffixes[] = {".db", ".wal", ".ckpt"};

void SaveImage(const std::string& path, const std::string& image) {
  for (const char* s : kDbSuffixes) {
    std::error_code ec;
    fs::remove(image + s, ec);
    if (fs::exists(path + s)) fs::copy_file(path + s, image + s);
  }
}

void RestoreImage(const std::string& image, const std::string& path) {
  for (const char* s : kDbSuffixes) {
    std::error_code ec;
    fs::remove(path + s, ec);
    if (fs::exists(image + s)) fs::copy_file(image + s, path + s);
  }
  std::error_code ec;
  fs::remove(path + ".flight", ec);
}

/// What a restarted database must contain, and how to check it.
struct Verifier {
  /// The restart's first commit: one entry outside every workload key, in
  /// its own transaction; verify() expects to find it.
  std::function<Status(Database*, Gist*)> first_commit;
  /// Full comparison of the index (and records) against the acknowledged
  /// state; returns a description of the first mismatch, or "".
  std::function<std::string(Database*, Gist*)> verify;
  /// Live key + record bytes (space_amp denominator).
  std::function<double()> live_bytes;
};

/// kRestartReps instant restarts of the crash image at \p image. The first
/// one is verified, then garbage-collected and measured for space_amp.
void Restarts(const DatabaseOptions& dopts, const GistExtension* ext,
              const GistOptions& gopts, const std::string& image,
              const Verifier& v, RunStats* rs) {
  for (int rep = 0; rep < kRestartReps; rep++) {
    RestoreImage(image, dopts.path);
    SyncFs(fs::path(dopts.path).parent_path());
    const uint64_t t0 = Now();
    auto db_or = Database::Open(dopts);
    CheckOk(db_or.status(), "restart Open");
    std::unique_ptr<Database> db = db_or.MoveValue();
    CheckOk(db->OpenIndex(1, ext, gopts), "restart OpenIndex");
    Gist* gist = db->GetIndex(1).value();
    const uint64_t t_open = Now();
    CheckOk(v.first_commit(db.get(), gist), "restart first commit");
    const uint64_t t_commit = Now();
    CheckOk(db->WaitForRecovery(), "WaitForRecovery");
    const uint64_t t_drain = Now();
    rs->open_ms.push_back(static_cast<double>(t_open - t0) / 1e6);
    rs->first_commit_ms.push_back(static_cast<double>(t_commit - t0) / 1e6);
    rs->drain_ms.push_back(static_cast<double>(t_drain - t0) / 1e6);
    if (rep != 0) continue;

    obs::MetricsRegistry* reg = db->metrics();
    rs->analysis_ms =
        static_cast<double>(reg->GetHistogram("recovery.analysis_ns")
                                ->GetSnapshot()
                                .sum) /
        1e6;
    rs->redo_records =
        static_cast<double>(reg->GetCounter("recovery.records_redone")->value());
    rs->inline_redos =
        static_cast<double>(reg->GetCounter("recovery.inline_redos")->value());
    rs->background_redos = static_cast<double>(
        reg->GetCounter("recovery.background_redos")->value());
    rs->loser_txns =
        static_cast<double>(reg->GetCounter("recovery.loser_txns")->value());

    const std::string mismatch = v.verify(db.get(), gist);
    if (!mismatch.empty()) Fail("verification after restart: " + mismatch);
    CheckOk(gist->CheckInvariants(), "CheckInvariants after restart");
    CheckOk(db->RunMaintenancePass(), "final maintenance pass");
    CheckOk(db->FlushAll(), "final FlushAll");
    const double db_bytes =
        static_cast<double>(fs::file_size(dopts.path + ".db"));
    rs->space_amp = Ratio(db_bytes, v.live_bytes());
    std::printf("restart: verified, invariants OK, %.0f .db bytes\n",
                db_bytes);
  }
  std::printf("restart (ms): open/first commit/drain");
  for (int i = 0; i < kRestartReps; i++) {
    std::printf("  %.2f/%.2f/%.2f", rs->open_ms[static_cast<size_t>(i)],
                rs->first_commit_ms[static_cast<size_t>(i)],
                rs->drain_ms[static_cast<size_t>(i)]);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// B-tree workloads

std::string BtreeRecord(int64_t key, size_t bytes) {
  std::string r = "k" + std::to_string(key) + ":";
  r.resize(std::max(bytes, r.size()), static_cast<char>('a' + key % 26));
  return r;
}

/// Runs insert(txn, i) for every i in [0, n) on kThreads threads, in
/// read-committed transactions of kPreloadBatch items each.
template <class Insert>
void ParallelLoad(Database* db, size_t n, Insert insert) {
  std::vector<std::thread> threads;
  std::vector<Status> status(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      const size_t lo = n * static_cast<size_t>(t) / kThreads;
      const size_t hi = n * static_cast<size_t>(t + 1) / kThreads;
      for (size_t b = lo; b < hi; b += kPreloadBatch) {
        const size_t e = std::min(hi, b + kPreloadBatch);
        Status st = RunTxn(db, IsolationLevel::kReadCommitted, nullptr,
                           [&](Transaction* txn) {
                             for (size_t i = b; i < e; i++) {
                               GISTCR_RETURN_IF_ERROR(insert(txn, i));
                             }
                             return Status::OK();
                           });
        if (!st.ok()) {
          status[static_cast<size_t>(t)] = st;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& st : status) CheckOk(st, "preload");
}

/// kSetupReps times: create the index, load(db, gist), flush, checkpoint.
/// Keeps the last database.
template <class Load>
std::unique_ptr<Database> SetUp(const Config& cfg, const DatabaseOptions& dopts,
                                const GistExtension* ext,
                                const GistOptions& gopts, Load load,
                                RunStats* rs) {
  std::unique_ptr<Database> db;
  for (int rep = 0; rep < kSetupReps; rep++) {
    db.reset();
    const uint64_t t0 = Now();
    auto db_or = Database::Create(dopts);
    CheckOk(db_or.status(), "Create");
    db = db_or.MoveValue();
    CheckOk(db->CreateIndex(1, ext, gopts), "CreateIndex");
    load(db.get(), db->GetIndex(1).value());
    CheckOk(db->FlushAll(), "FlushAll after preload");
    CheckOk(db->Checkpoint(), "Checkpoint after preload");
    rs->setup_s.push_back(static_cast<double>(Now() - t0) / 1e9);
    SyncFs(cfg.dir);
  }
  return db;
}

/// Fresh keys: slot i * kStride + 1 + thread + kThreads * j
/// (j < kFreshPerSlot), never a preloaded key, never another thread's key,
/// never drawn twice.
struct FreshKeys {
  FreshKeys(int64_t n, int tid) : n_(n), tid_(tid) {}
  int64_t Next(Random* rng) {
    // Rejection sampling slows down as the space fills; stop well before.
    if (static_cast<int64_t>(used_.size()) * 2 > n_ * kFreshPerSlot) {
      Fail("fresh key space exhausted; run fewer seconds or a larger --scale");
    }
    for (;;) {
      const int64_t slot = static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(n_)));
      const int64_t k =
          slot * kStride + 1 + tid_ +
          kThreads * static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(kFreshPerSlot)));
      if (used_.insert(k).second) return k;
    }
  }
  int64_t n_;
  int tid_;
  std::unordered_set<int64_t> used_;
};

/// Verifier over the acknowledged B-tree state: preloaded keys plus
/// acknowledged inserts minus acknowledged deletes, compared exactly.
struct BtreeState {
  int64_t preload = 0;
  size_t record_bytes = 0;
  std::vector<int64_t> inserted;
  std::vector<int64_t> deleted;
  std::vector<int64_t> expected;  // built by Finalize()

  void Finalize() {
    expected.clear();
    for (int64_t i = 0; i < preload; i++) expected.push_back(i * kStride);
    expected.insert(expected.end(), inserted.begin(), inserted.end());
    std::sort(expected.begin(), expected.end());
    std::vector<int64_t> del = deleted;
    std::sort(del.begin(), del.end());
    std::vector<int64_t> live;
    std::set_difference(expected.begin(), expected.end(), del.begin(),
                        del.end(), std::back_inserter(live));
    expected.swap(live);
  }

  Verifier MakeVerifier() {
    Verifier v;
    const int64_t fc_key = preload * kStride + 1;  // outside every workload key
    v.first_commit = [this, fc_key](Database* db, Gist* gist) {
      Status st = RunTxn(db, IsolationLevel::kRepeatableRead, nullptr,
                         [&](Transaction* txn) {
                           return db->InsertRecord(
                                        txn, gist, BtreeExtension::MakeKey(fc_key),
                                        BtreeRecord(fc_key, record_bytes))
                               .status();
                         });
      return st;
    };
    v.verify = [this, fc_key](Database* db, Gist* gist) -> std::string {
      std::vector<int64_t> want = expected;
      want.insert(std::upper_bound(want.begin(), want.end(), fc_key), fc_key);
      std::vector<SearchResult> out;
      Status st = RunTxn(db, IsolationLevel::kReadCommitted, nullptr,
                         [&](Transaction* txn) {
                           out.clear();
                           return gist->Search(
                               txn,
                               BtreeExtension::MakeRange(INT64_MIN, INT64_MAX),
                               &out);
                         });
      if (!st.ok()) return "full scan: " + st.ToString();
      std::vector<std::pair<int64_t, Rid>> got;
      got.reserve(out.size());
      for (const SearchResult& r : out) {
        got.emplace_back(BtreeExtension::Lo(r.key), r.rid);
      }
      std::sort(got.begin(), got.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (size_t i = 0; i < std::max(got.size(), want.size()); i++) {
        if (i >= got.size() || i >= want.size() || got[i].first != want[i]) {
          const std::string g =
              i < got.size() ? std::to_string(got[i].first) : "<end>";
          const std::string w =
              i < want.size() ? std::to_string(want[i]) : "<end>";
          return "index holds " + std::to_string(got.size()) +
                 " keys, acknowledged " + std::to_string(want.size()) +
                 "; first difference at #" + std::to_string(i) + ": got " +
                 g + ", want " + w;
        }
        auto rec = db->ReadRecord(got[i].second);
        if (!rec.ok()) return "record of key " + std::to_string(want[i]) +
                              ": " + rec.status().ToString();
        if (rec.value() != BtreeRecord(want[i], record_bytes)) {
          return "record of key " + std::to_string(want[i]) + " differs";
        }
      }
      return "";
    };
    v.live_bytes = [this] {
      return static_cast<double>(expected.size() + 1) *
             static_cast<double>(16 + record_bytes);
    };
    return v;
  }
};

struct BtreeSetup {
  DatabaseOptions dopts;
  GistOptions gopts;
  int64_t keys = 0;
  size_t record_bytes = 0;
};

/// Preloads keys i * kStride for i in [0, keys), in a seeded random order.
std::unique_ptr<Database> SetUpBtree(const Config& cfg, const BtreeSetup& s,
                                     const BtreeExtension* ext, RunStats* rs) {
  std::vector<int64_t> order(static_cast<size_t>(s.keys));
  for (size_t i = 0; i < order.size(); i++) order[i] = static_cast<int64_t>(i);
  Random rng = Stream(cfg.seed, 1000);
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return SetUp(
      cfg, s.dopts, ext, s.gopts,
      [&](Database* db, Gist* gist) {
        ParallelLoad(db, order.size(), [&](Transaction* txn, size_t i) {
          const int64_t k = order[i] * kStride;
          return db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                  BtreeRecord(k, s.record_bytes))
              .status();
        });
      },
      rs);
}

/// The measured window: --seconds, starting after the warm-up.
Window MakeWindow(const Config& cfg) {
  Window w;
  w.start = Now() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  w.end = w.start + static_cast<uint64_t>(cfg.seconds * 1e9);
  w.slices = static_cast<size_t>(std::max(1.0, std::floor(cfg.seconds / kStatSliceSeconds)));
  return w;
}

/// ABBA slices (off, on, on, off, ...) so linear drift within a run cancels
/// between the traced and untraced arms.
void ToggleTracing(const Config& cfg, const Window& w) {
  g_tracing.store(false);
  if (!cfg.trace) return;
  while (Now() < w.start) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (uint64_t i = 0;; i++) {
    const uint64_t slice_start = w.start + i * kTraceSliceNs;
    if (slice_start >= w.end) break;
    g_tracing.store(i % 4 == 1 || i % 4 == 2);
    const uint64_t now = Now();
    const uint64_t until = std::min(w.end, slice_start + kTraceSliceNs);
    if (until > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - now));
    }
  }
  g_tracing.store(false);
}

void RunReadMostly(const Config& cfg, std::vector<Worker>* workers,
                   RunStats* rs, RegDelta* reg) {
  BtreeExtension ext;
  BtreeSetup s;
  s.dopts.path = cfg.dir + "/db";
  s.dopts.buffer_pool_pages = kReadMostlyPoolPages;
  s.dopts.sync_commit = false;
  s.gopts.max_entries = kReadMostlyFanout;
  s.keys = Scaled(cfg, kReadMostlyKeys);
  s.record_bytes = kReadMostlyRecordBytes;
  std::unique_ptr<Database> db = SetUpBtree(cfg, s, &ext, rs);
  Gist* gist = db->GetIndex(1).value();

  const Window win = MakeWindow(cfg);
  std::vector<std::vector<int64_t>> acked(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Worker& w = (*workers)[static_cast<size_t>(t)];
      FreshKeys fresh(s.keys, t);
      std::vector<SearchResult> out;
      for (uint64_t start = Now(); start < win.end; start = Now()) {
        const bool traced = g_tracing.load(std::memory_order_relaxed);
        if (static_cast<int>(w.rng.Uniform(100)) < kReadMostlyReadPct) {
          const int64_t i = static_cast<int64_t>(
              w.rng.Uniform(static_cast<uint64_t>(s.keys - 9)));
          TracedOp op(&w, kOpRead, start, traced, true);
          Status st = RunTxn(db.get(), IsolationLevel::kReadCommitted, &w,
                             [&](Transaction* txn) {
                               out.clear();
                               Span sp(kGistSearch);
                               return gist->Search(
                                   txn,
                                   BtreeExtension::MakeRange(i * kStride,
                                                             (i + 9) * kStride),
                                   &out);
                             });
          const uint64_t end = Now();
          op.Finish(end);
          CheckOk(st, "read_mostly search");
          // Exactly the 10 preloaded keys of the range; any other result
          // must be a fresh key inside the range.
          int64_t preloaded = 0;
          for (const SearchResult& r : out) {
            const int64_t k = BtreeExtension::Lo(r.key);
            if (k < i * kStride || k > (i + 9) * kStride) {
              Fail("search returned key " + std::to_string(k) +
                   " outside its range");
            }
            if (k % kStride == 0) preloaded++;
          }
          if (preloaded != 10) {
            Fail("search of slots " + std::to_string(i) + "+10 returned " +
                 std::to_string(preloaded) + " preloaded keys, want 10");
          }
          w.Record(win, kRead, start, end, traced);
        } else {
          const int64_t k = fresh.Next(&w.rng);
          TracedOp op(&w, kOpWrite, start, traced, true);
          Status st = RunTxn(db.get(), IsolationLevel::kReadCommitted, &w,
                             [&](Transaction* txn) {
                               Span sp(kDbInsertRecord);
                               return db->InsertRecord(
                                            txn, gist, BtreeExtension::MakeKey(k),
                                            BtreeRecord(k, s.record_bytes))
                                   .status();
                             });
          const uint64_t end = Now();
          op.Finish(end);
          CheckOk(st, "read_mostly insert");
          acked[static_cast<size_t>(t)].push_back(k);
          w.write_commits += win.Contains(start) ? 1 : 0;
          w.Record(win, kWrite, start, end, traced);
        }
      }
    });
  }
  while (Now() < win.start) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  reg->a = TakeSnap(db.get());
  ToggleTracing(cfg, win);
  for (auto& th : threads) th.join();
  reg->b = TakeSnap(db.get());
  rs->window = win;

  // The run ends with FlushAll and a checkpoint, then a crash: the redo
  // span is empty, so recovery stays idle here.
  CheckOk(db->FlushAll(), "FlushAll before crash");
  CheckOk(db->Checkpoint(), "Checkpoint before crash");
  db->SimulateCrash();
  db.reset();
  const std::string image = cfg.dir + "/image";
  SaveImage(s.dopts.path, image);

  BtreeState state;
  state.preload = s.keys;
  state.record_bytes = s.record_bytes;
  for (auto& a : acked) state.inserted.insert(state.inserted.end(), a.begin(), a.end());
  if (cfg.phantom_ack) state.inserted.push_back(s.keys * kStride + 7);
  state.Finalize();
  Restarts(s.dopts, &ext, s.gopts, image, state.MakeVerifier(), rs);
}

void RunChurn(const Config& cfg, std::vector<Worker>* workers, RunStats* rs,
              RegDelta* reg) {
  BtreeExtension ext;
  BtreeSetup s;
  s.dopts.path = cfg.dir + "/db";
  s.dopts.buffer_pool_pages = kChurnPoolPages;
  s.dopts.sync_commit = true;
  s.keys = Scaled(cfg, kChurnKeys);
  s.record_bytes = kChurnRecordBytes;
  std::unique_ptr<Database> db = SetUpBtree(cfg, s, &ext, rs);
  Gist* gist = db->GetIndex(1).value();
  std::printf("churn: %" PRIu64 " .db bytes after set-up, pool %zu bytes\n",
              static_cast<uint64_t>(fs::file_size(s.dopts.path + ".db")),
              kChurnPoolPages * kPageSize);

  // Phases: kRun -> (window over, last pass done, tail committed) kDrain:
  // finish the current transaction and wait -> kPark: open one loser
  // transaction, insert, wait -> crash -> kRelease: exit without touching
  // the database.
  enum Phase : int { kRun, kDrain, kPark, kRelease };
  std::atomic<int> phase{kRun};
  std::atomic<int> idle{0}, parked{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<bool> window_over{false};

  const Window win = MakeWindow(cfg);
  std::vector<std::vector<int64_t>> ins(kThreads), del(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kChurnWriters; t++) {
    threads.emplace_back([&, t] {
      Worker& w = (*workers)[static_cast<size_t>(t)];
      FreshKeys fresh(s.keys, t);
      std::vector<SearchResult> out;
      while (phase.load() == kRun) {
        const uint64_t start = Now();
        const bool traced = g_tracing.load(std::memory_order_relaxed);
        const int64_t i = static_cast<int64_t>(
            w.rng.Uniform(static_cast<uint64_t>(s.keys - 9)));
        const int64_t k = fresh.Next(&w.rng);
        const uint64_t pick = w.rng.Next();
        int64_t victim = -1;  // deleted key; keys are never negative
        TracedOp op(&w, kOpWrite, start, traced, true);
        Status st = RunTxn(
            db.get(), IsolationLevel::kRepeatableRead, &w,
            [&](Transaction* txn) {
              out.clear();
              victim = -1;
              {
                Span sp(kGistSearch);
                GISTCR_RETURN_IF_ERROR(gist->Search(
                    txn,
                    BtreeExtension::MakeRange(i * kStride, (i + 9) * kStride),
                    &out));
              }
              {
                Span sp(kDbInsertRecord);
                GISTCR_RETURN_IF_ERROR(
                    db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                     BtreeRecord(k, s.record_bytes))
                        .status());
              }
              if (out.empty()) return Status::OK();
              const SearchResult& r = out[pick % out.size()];
              Span sp(kDbDeleteRecord);
              GISTCR_RETURN_IF_ERROR(db->DeleteRecord(txn, gist, r.key, r.rid));
              victim = BtreeExtension::Lo(r.key);
              return Status::OK();
            });
        const uint64_t end = Now();
        op.Finish(end);
        CheckOk(st, "churn write transaction");
        ins[static_cast<size_t>(t)].push_back(k);
        if (victim >= 0) del[static_cast<size_t>(t)].push_back(victim);
        commits.fetch_add(1);
        w.write_commits += win.Contains(start) ? 1 : 0;
        w.Record(win, kWrite, start, end, traced);
      }
      idle.fetch_add(1);
      while (phase.load() == kDrain) std::this_thread::sleep_for(std::chrono::microseconds(200));
      // Loser: an open transaction with uncommitted inserts at the crash.
      Transaction* txn = db->Begin(IsolationLevel::kRepeatableRead);
      for (int j = 0; j < kChurnLoserInserts; j++) {
        const int64_t k = fresh.Next(&w.rng);
        Status st = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                     BtreeRecord(k, s.record_bytes))
                        .status();
        if (Retryable(st)) break;  // the loser simply has fewer inserts
        CheckOk(st, "loser insert");
      }
      parked.fetch_add(1);
      while (phase.load() != kRelease) std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  }
  // Snapshot scanner.
  threads.emplace_back([&] {
    Worker& w = (*workers)[kChurnWriters];
    std::vector<SearchResult> out;
    const int64_t span = std::min<int64_t>(kChurnScanKeys, s.keys);
    while (phase.load() == kRun) {
      const uint64_t start = Now();
      const bool traced = g_tracing.load(std::memory_order_relaxed);
      const int64_t j = static_cast<int64_t>(
          w.rng.Uniform(static_cast<uint64_t>(s.keys - span + 1)));
      const int64_t lo = j * kStride, hi = (j + span - 1) * kStride;
      TracedOp op(&w, kOpScan, start, traced, true);
      Status st = RunTxn(db.get(), IsolationLevel::kSnapshot, &w,
                         [&](Transaction* txn) {
                           out.clear();
                           Span sp(kGistSnapshotSearch);
                           return gist->Search(
                               txn, BtreeExtension::MakeRange(lo, hi), &out);
                         });
      const uint64_t end = Now();
      op.Finish(end);
      CheckOk(st, "snapshot scan");
      for (const SearchResult& r : out) {
        const int64_t k = BtreeExtension::Lo(r.key);
        if (k < lo || k > hi) Fail("snapshot scan returned a key outside its range");
      }
      w.Record(win, kRead, start, end, traced);
    }
    idle.fetch_add(1);
    parked.fetch_add(1);
  });
  // Maintenance: a pass every kChurnPassEvery committed writes, counted
  // rather than timed; the last one starts before the window closes.
  uint64_t last_pass_commits = 0;
  std::thread maint([&] {
    obs::MetricsRegistry* m = db->metrics();
    uint64_t next = kChurnPassEvery;
    for (;;) {
      while (commits.load() < next && !window_over.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      if (window_over.load()) break;
      const uint64_t gc0 = m->GetCounter("gist.gc_removed")->value();
      const uint64_t nd0 = m->GetCounter("gist.nodes_deleted")->value();
      const uint64_t vp0 = m->GetCounter("mvcc.versions_pruned")->value();
      const uint64_t t0 = Now();
      CheckOk(db->RunMaintenancePass(), "RunMaintenancePass");
      rs->pass_ms.push_back(static_cast<double>(Now() - t0) / 1e6);
      rs->gc_removed += static_cast<double>(m->GetCounter("gist.gc_removed")->value() - gc0);
      rs->nodes_deleted += static_cast<double>(m->GetCounter("gist.nodes_deleted")->value() - nd0);
      rs->versions_pruned += static_cast<double>(m->GetCounter("mvcc.versions_pruned")->value() - vp0);
      last_pass_commits = commits.load();
      next = last_pass_commits + kChurnPassEvery;
    }
  });

  while (Now() < win.start) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  reg->a = TakeSnap(db.get());
  ToggleTracing(cfg, win);
  while (Now() < win.end) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  reg->b = TakeSnap(db.get());
  rs->window = win;
  window_over.store(true);
  maint.join();
  // Final pass after a FlushAll, so the fuzzy checkpoint's dirty-page table
  // (and with it the redo span) covers only the pass and the crash tail.
  CheckOk(db->FlushAll(), "FlushAll before the final pass");
  CheckOk(db->RunMaintenancePass(), "final RunMaintenancePass");
  last_pass_commits = commits.load();
  const uint64_t crash_at = last_pass_commits + kChurnCrashTail;
  while (commits.load() < crash_at) std::this_thread::sleep_for(std::chrono::microseconds(200));
  phase.store(kDrain);
  while (idle.load() < kChurnWriters + 1) std::this_thread::sleep_for(std::chrono::microseconds(200));
  phase.store(kPark);
  while (parked.load() < kChurnWriters + 1) std::this_thread::sleep_for(std::chrono::microseconds(200));
  // One more transaction commits after the losers wrote, so group commit
  // makes their records durable and restart has losers to undo.
  const int64_t marker = s.keys * kStride + 3;  // outside every workload key
  CheckOk(RunTxn(db.get(), IsolationLevel::kRepeatableRead, nullptr,
                 [&](Transaction* txn) {
                   return db->InsertRecord(txn, gist, BtreeExtension::MakeKey(marker),
                                           BtreeRecord(marker, s.record_bytes))
                       .status();
                 }),
          "commit after the losers");
  db->SimulateCrash();
  phase.store(kRelease);
  for (auto& th : threads) th.join();
  db.reset();
  const std::string image = cfg.dir + "/image";
  SaveImage(s.dopts.path, image);

  BtreeState state;
  state.preload = s.keys;
  state.record_bytes = s.record_bytes;
  for (int t = 0; t < kThreads; t++) {
    const auto& a = ins[static_cast<size_t>(t)];
    const auto& d = del[static_cast<size_t>(t)];
    state.inserted.insert(state.inserted.end(), a.begin(), a.end());
    state.deleted.insert(state.deleted.end(), d.begin(), d.end());
  }
  state.inserted.push_back(marker);
  if (cfg.phantom_ack) state.inserted.push_back(s.keys * kStride + 7);
  state.Finalize();
  Restarts(s.dopts, &ext, s.gopts, image, state.MakeVerifier(), rs);
}

// ---------------------------------------------------------------------------
// R-tree over the wire, open loop

std::string PointRecord(uint64_t id) {
  std::string r = "p" + std::to_string(id) + ":";
  r.resize(24, '.');
  return r;
}

struct RtreeState {
  std::vector<Rect> preload;
  std::vector<std::pair<std::string, std::string>> inserted;  // key, record
  std::vector<std::pair<std::string, std::string>> expected;  // sorted

  void Finalize() {
    expected = inserted;
    for (size_t i = 0; i < preload.size(); i++) {
      expected.emplace_back(RtreeExtension::MakeKey(preload[i]), PointRecord(i));
    }
    std::sort(expected.begin(), expected.end());
  }

  Verifier MakeVerifier() {
    Verifier v;
    // Outside the workload domain, so no window ever sees it.
    const std::string fc_key = RtreeExtension::MakeKey(Rect::Point(1500.5, 1500.5));
    const std::string fc_rec = PointRecord(0xFFFFFFFF);
    v.first_commit = [fc_key, fc_rec](Database* db, Gist* gist) {
      return RunTxn(db, IsolationLevel::kRepeatableRead, nullptr,
                    [&](Transaction* txn) {
                      return db->InsertRecord(txn, gist, fc_key, fc_rec).status();
                    });
    };
    v.verify = [this, fc_key, fc_rec](Database* db, Gist* gist) -> std::string {
      auto want = expected;
      want.emplace_back(fc_key, fc_rec);
      std::sort(want.begin(), want.end());
      std::vector<SearchResult> out;
      Status st = RunTxn(db, IsolationLevel::kReadCommitted, nullptr,
                         [&](Transaction* txn) {
                           out.clear();
                           return gist->Search(
                               txn,
                               RtreeExtension::MakeWindowQuery(
                                   Rect{-1e9, -1e9, 1e9, 1e9}),
                               &out);
                         });
      if (!st.ok()) return "full scan: " + st.ToString();
      std::vector<std::pair<std::string, std::string>> got;
      got.reserve(out.size());
      for (const SearchResult& r : out) {
        auto rec = db->ReadRecord(r.rid);
        if (!rec.ok()) return "record read: " + rec.status().ToString();
        got.emplace_back(r.key, rec.MoveValue());
      }
      std::sort(got.begin(), got.end());
      if (got != want) {
        size_t i = 0;
        while (i < got.size() && i < want.size() && got[i] == want[i]) i++;
        return "index holds " + std::to_string(got.size()) +
               " points, acknowledged " + std::to_string(want.size()) +
               "; first difference at #" + std::to_string(i);
      }
      return "";
    };
    v.live_bytes = [this, fc_key, fc_rec] {
      double b = 0;
      for (const auto& [k, r] : expected) b += static_cast<double>(k.size() + r.size());
      return b + static_cast<double>(fc_key.size() + fc_rec.size());
    };
    return v;
  }
};

/// One sampled window and what the server returned for it.
struct WindowSample {
  Rect window;
  std::vector<std::string> keys;
};

/// Every preloaded point inside a sampled window must be in its result, and
/// every result must lie inside the window.
void CheckWindowSamples(const RtreeState& st,
                        const std::vector<WindowSample>& samples) {
  std::vector<uint32_t> by_x(st.preload.size());
  for (uint32_t i = 0; i < by_x.size(); i++) by_x[i] = i;
  std::sort(by_x.begin(), by_x.end(), [&](uint32_t a, uint32_t b) {
    return st.preload[a].xlo < st.preload[b].xlo;
  });
  for (const WindowSample& s : samples) {
    std::unordered_set<std::string> got(s.keys.begin(), s.keys.end());
    for (const std::string& k : s.keys) {
      if (!s.window.Overlaps(Rect::Decode(k))) Fail("window query returned a point outside the window");
    }
    auto it = std::lower_bound(by_x.begin(), by_x.end(), s.window.xlo,
                               [&](uint32_t i, double x) { return st.preload[i].xlo < x; });
    for (; it != by_x.end() && st.preload[*it].xlo <= s.window.xhi; ++it) {
      const Rect& p = st.preload[*it];
      if (p.ylo < s.window.ylo || p.ylo > s.window.yhi) continue;
      if (got.count(RtreeExtension::MakeKey(p)) == 0) {
        Fail("window query missed preloaded point " + std::to_string(*it));
      }
    }
  }
}

void RunRtree(const Config& cfg, std::vector<Worker>* workers, RunStats* rs,
              RegDelta* reg) {
  RtreeExtension ext;
  GistOptions gopts;
  DatabaseOptions dopts;
  dopts.path = cfg.dir + "/db";
  dopts.buffer_pool_pages = kRtreePoolPages;
  dopts.sync_commit = true;
  const int64_t n = Scaled(cfg, kRtreePoints);

  RtreeState state;
  {
    Random rng = Stream(cfg.seed, 2000);
    for (int64_t i = 0; i < n; i++) {
      const double x = rng.NextDouble() * kRtreeDomain;
      const double y = rng.NextDouble() * kRtreeDomain;
      state.preload.push_back(Rect::Point(x, y));
    }
  }
  std::unique_ptr<Database> db = SetUp(
      cfg, dopts, &ext, gopts,
      [&](Database* d, Gist* gist) {
        ParallelLoad(d, state.preload.size(), [&](Transaction* txn, size_t i) {
          return d->InsertRecord(txn, gist,
                                 RtreeExtension::MakeKey(state.preload[i]),
                                 PointRecord(i))
              .status();
        });
      },
      rs);

  ServerOptions sopts;
  sopts.num_workers = kThreads;
  auto server = std::make_unique<Server>(db.get(), sopts);
  CheckOk(server->Start(), "Server::Start");

  const bool open_loop = cfg.rate > 0;
  rs->offered_rate = cfg.rate;
  const Window win = MakeWindow(cfg);
  const uint64_t t_begin = Now();
  std::vector<std::vector<std::pair<std::string, std::string>>> ins(kThreads);
  std::vector<std::vector<WindowSample>> samples(kThreads);
  std::vector<std::vector<uint64_t>> lag(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Worker& w = (*workers)[static_cast<size_t>(t)];
      // Wake on time: the default 50 us timer slack would count as lag.
      (void)prctl(PR_SET_TIMERSLACK, 1UL);
      Random arrivals = Stream(cfg.seed, 3000 + static_cast<uint64_t>(t));
      ClientOptions copts;
      copts.port = server->port();
      Client c(copts);
      CheckOk(c.Connect(), "Client::Connect");
      const double per_client = cfg.rate / kThreads;
      uint64_t intended = t_begin;
      uint64_t op_no = 0;
      for (;;) {
        if (open_loop) {
          const double gap_s = -std::log(1.0 - arrivals.NextDouble()) / per_client;
          intended += static_cast<uint64_t>(gap_s * 1e9);
          if (intended >= win.end) break;
          const uint64_t now = Now();
          if (intended > now) std::this_thread::sleep_for(std::chrono::nanoseconds(intended - now));
        } else {
          intended = Now();
          if (intended >= win.end) break;
        }
        const uint64_t sent = Now();
        if (win.Contains(intended)) lag[static_cast<size_t>(t)].push_back(sent > intended ? sent - intended : 0);
        const bool traced = g_tracing.load(std::memory_order_relaxed);
        const uint64_t id = (static_cast<uint64_t>(t) << 40) | op_no++;
        if (static_cast<int>(w.rng.Uniform(100)) < kRtreeReadPct) {
          const double side = kRtreeMinSide + w.rng.NextDouble() * (kRtreeMaxSide - kRtreeMinSide);
          const double x = w.rng.NextDouble() * (kRtreeDomain - side);
          const double y = w.rng.NextDouble() * (kRtreeDomain - side);
          const Rect win_rect{x, y, x + side, y + side};
          const std::string q = RtreeExtension::MakeWindowQuery(win_rect);
          TracedOp op(&w, kOpRead, intended, traced, false);
          std::vector<RemoteResult> res;
          for (;;) {
            w.op_attempts++;
            Status st;
            {
              Span sp(kServerSearch);
              auto r = c.Search(1, q);
              st = r.status();
              if (st.ok()) res = r.MoveValue();
            }
            if (st.ok()) break;
            if (!Retryable(st)) Fail("window query: " + st.ToString());
            w.op_failed++;
          }
          const uint64_t end = Now();
          op.Finish(end);
          if (id % kRtreeSampleEvery == 0) {
            WindowSample smp{win_rect, {}};
            for (auto& r : res) smp.keys.push_back(std::move(r.key));
            samples[static_cast<size_t>(t)].push_back(std::move(smp));
          }
          w.Record(win, kRead, intended, end, traced);
        } else {
          const Rect p = Rect::Point(w.rng.NextDouble() * kRtreeDomain,
                                     w.rng.NextDouble() * kRtreeDomain);
          const std::string key = RtreeExtension::MakeKey(p);
          const std::string rec = PointRecord((1ull << 32) + id);
          TracedOp op(&w, kOpWrite, intended, traced, false);
          for (;;) {
            w.op_attempts++;
            Status st;
            {
              Span sp(kServerInsert);
              st = c.Insert(1, key, rec).status();
            }
            if (st.ok()) break;
            if (!Retryable(st)) Fail("insert: " + st.ToString());
            w.op_failed++;
          }
          const uint64_t end = Now();
          op.Finish(end);
          ins[static_cast<size_t>(t)].emplace_back(key, rec);
          w.write_commits += win.Contains(intended) ? 1 : 0;
          w.Record(win, kWrite, intended, end, traced);
        }
      }
      c.Close();
    });
  }
  while (Now() < win.start) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  reg->a = TakeSnap(db.get());
  ToggleTracing(cfg, win);
  for (auto& th : threads) th.join();
  reg->b = TakeSnap(db.get());
  rs->window = win;
  for (auto& l : lag) rs->gen_lag_ns.insert(rs->gen_lag_ns.end(), l.begin(), l.end());
  uint64_t window_ops = 0;
  for (const Worker& w : *workers) window_ops += w.ops;
  std::printf("rtree: offered %.0f ops/s, achieved %.1f ops/s\n", cfg.rate,
              static_cast<double>(window_ops) / (cfg.seconds));

  // Crash: with every reply received and no background thread configured,
  // the files are quiescent; a copy of them is exactly what a power cut at
  // this instant leaves. The server then shuts down on its own copy.
  const std::string image = cfg.dir + "/image";
  SaveImage(dopts.path, image);
  CheckOk(server->Shutdown(), "Server::Shutdown");
  server.reset();
  db.reset();

  std::vector<WindowSample> all_samples;
  for (auto& v : samples) {
    for (auto& smp : v) all_samples.push_back(std::move(smp));
  }
  CheckWindowSamples(state, all_samples);
  std::printf("rtree: %zu sampled windows checked against the preload\n",
              all_samples.size());
  for (auto& v : ins) state.inserted.insert(state.inserted.end(), v.begin(), v.end());
  if (cfg.phantom_ack) {
    state.inserted.emplace_back(RtreeExtension::MakeKey(Rect::Point(5000, 5000)),
                                PointRecord(7));
  }
  state.Finalize();
  Restarts(dopts, &ext, gopts, image, state.MakeVerifier(), rs);
}

// ---------------------------------------------------------------------------
// Metrics

double Us(double ns) { return ns / 1e3; }

void EndToEnd(const Config& cfg, const Window& win,
              std::vector<Worker>& ws, const RunStats& rs, Results* out) {
  std::vector<double> tput, pct[kNumClasses][2];
  size_t samples[kNumClasses] = {};
  for (size_t sl = 0; sl < win.slices; sl++) {
    std::vector<uint64_t> lat[kNumClasses];
    for (Worker& w : ws) {
      for (int c = 0; c < kNumClasses; c++) {
        if (sl < w.lat[c].size()) {
          lat[c].insert(lat[c].end(), w.lat[c][sl].begin(), w.lat[c][sl].end());
        }
      }
    }
    tput.push_back(static_cast<double>(lat[kRead].size() + lat[kWrite].size()) /
                   win.SliceSeconds());
    for (int c = 0; c < kNumClasses; c++) {
      samples[c] += lat[c].size();
      pct[c][0].push_back(Us(Percentile(&lat[c], 0.50)));
      pct[c][1].push_back(Us(Percentile(&lat[c], 0.99)));
    }
  }
  std::printf("slice throughput (ops/s):");
  for (double t : tput) std::printf(" %.0f", t);
  std::printf("\n");
  out->Add("throughput_ops_s", "1/s", Median(tput));
  out->Add("read_p50_us", "us", Median(pct[kRead][0]));
  out->Add("read_p99_us", "us", Median(pct[kRead][1]));
  out->Add("write_p50_us", "us", Median(pct[kWrite][0]));
  out->Add("write_p99_us", "us", Median(pct[kWrite][1]));
  out->Add("restart_open_ms", "ms", Median(rs.open_ms));
  out->Add("restart_first_commit_ms", "ms", Median(rs.first_commit_ms));
  out->Add("restart_drain_ms", "ms", Median(rs.drain_ms));
  out->Add("space_amp", "ratio", rs.space_amp);
  out->Add("peak_rss_mib", "MiB", PeakRssMib());
  out->Add("setup_s", "s", Median(rs.setup_s));
  std::printf("samples: read=%zu write=%zu in %zu slices (seed %" PRIu64 ")\n",
              samples[kRead], samples[kWrite], win.slices, cfg.seed);
}

void PerLayer(const Config& cfg, std::vector<Worker>& ws, const RunStats& rs,
              const RegDelta& reg, Results* out) {
  std::vector<uint64_t> dur[kNumSpans];
  uint64_t self_ns[kNumLayers] = {};
  uint64_t stage_ns[obs::kNumStages] = {};
  uint64_t measured_ns = 0, ops = 0, attempts = 0, failed = 0, writes = 0;
  uint64_t arm_ops[2] = {}, arm_ns[2] = {};
  for (Worker& w : ws) {
    for (int s = 0; s < kNumSpans; s++) {
      dur[s].insert(dur[s].end(), w.trace.dur[s].begin(), w.trace.dur[s].end());
    }
    for (int l = 0; l < kNumLayers; l++) self_ns[l] += w.trace.self_ns[l];
    for (size_t s = 0; s < obs::kNumStages; s++) stage_ns[s] += w.trace.stage_ns[s];
    measured_ns += w.trace.measured_ns;
    ops += w.ops;
    attempts += w.attempts;
    failed += w.failed;
    writes += w.write_commits;
    for (int a = 0; a < 2; a++) {
      arm_ops[a] += w.arm_ops[a];
      arm_ns[a] += w.arm_ns[a];
    }
  }
  const double dops = static_cast<double>(ops);
  const bool wire = cfg.workload == "rtree_wire_open";
  auto P = [&](SpanId id, double q) { return Us(Percentile(&dur[id], q)); };

  out->Add("fail_ratio", "ratio", Ratio(static_cast<double>(failed), static_cast<double>(attempts)));

  // db
  out->Add("db.insert_record_us.p50", "us", P(kDbInsertRecord, 0.50));
  out->Add("db.insert_record_us.p99", "us", P(kDbInsertRecord, 0.99));
  out->Add("db.delete_record_us.p99", "us", P(kDbDeleteRecord, 0.99));
  if (wire) {  // commits run inside the server: read the engine's histogram
    out->Add("db.commit_us.p50", "us", Us(reg.P("txn.commit_ns", 0.50)));
    out->Add("db.commit_us.p99", "us", Us(reg.P("txn.commit_ns", 0.99)));
  } else {
    out->Add("db.commit_us.p50", "us", P(kDbCommit, 0.50));
    out->Add("db.commit_us.p99", "us", P(kDbCommit, 0.99));
  }
  out->Add("db.retries_per_txn", "count", Ratio(static_cast<double>(failed), dops));

  // gist
  const double searches = reg.C("gist.searches");
  const double inserts = reg.C("gist.inserts");
  out->Add("gist.search_us.p50", "us", P(kGistSearch, 0.50));
  out->Add("gist.search_us.p99", "us", P(kGistSearch, 0.99));
  out->Add("gist.snapshot_search_us.p99", "us", P(kGistSnapshotSearch, 0.99));
  out->Add("gist.rightlink_follows_per_1k_search", "count",
           1000 * Ratio(reg.C("gist.rightlink_follows"), searches));
  out->Add("gist.read_restarts_per_1k_search", "count",
           1000 * Ratio(reg.C("gist.read.restarts"), searches));
  out->Add("gist.read_fallbacks_per_1k_search", "count",
           1000 * Ratio(reg.C("gist.read.fallbacks"), searches));
  out->Add("gist.latch_wait_us.p99", "us", Us(reg.P("gist.latch_wait_ns", 0.99)));
  out->Add("gist.splits_per_1k_insert", "count",
           1000 * Ratio(reg.C("gist.splits"), inserts));
  out->Add("gist.predicate_waits_per_1k_write", "count",
           1000 * Ratio(reg.C("gist.predicate_waits"), static_cast<double>(writes)));

  // txn
  const double txns = reg.C("txn.commits") + reg.C("txn.aborts");
  out->Add("txn.lock_acquires_per_op", "count", Ratio(reg.C("lock.acquires"), dops));
  out->Add("txn.lock_wait_us.p99", "us",
           Us(reg.H({"lock.record_wait_ns", "lock.node_wait_ns", "lock.txn_wait_ns"})
                  .Percentile(0.99)));
  out->Add("txn.deadlocks_per_1k_txn", "count", 1000 * Ratio(reg.C("lock.deadlocks"), txns));
  out->Add("txn.preds_scanned_per_insert", "count",
           Ratio(reg.C("pred.predicates_scanned"), inserts));
  out->Add("txn.pred_attaches_per_search", "count", Ratio(reg.C("pred.attaches"), searches));

  // wal
  out->Add("wal.fsync_us.p50", "us", Us(reg.P("wal.fsync_ns", 0.50)));
  out->Add("wal.fsync_us.p99", "us", Us(reg.P("wal.fsync_ns", 0.99)));
  out->Add("wal.commits_per_flush", "count", Ratio(reg.C("txn.commits"), reg.C("wal.flushes")));
  out->Add("wal.bytes_per_write", "B", Ratio(reg.C("wal.append_bytes"), static_cast<double>(writes)));

  // storage
  const double hits = reg.C("bp.hits"), misses = reg.C("bp.misses");
  out->Add("storage.bp_hit_ratio", "ratio", Ratio(hits, hits + misses));
  out->Add("storage.bp_misses_per_op", "count", Ratio(misses, dops));
  out->Add("storage.dirty_evictions_per_op", "count", Ratio(reg.C("bp.dirty_evictions"), dops));
  out->Add("storage.pin_wait_us.p99", "us", Us(reg.P("bp.pin_wait_ns", 0.99)));

  // mvcc
  const double passes = static_cast<double>(rs.pass_ms.size());
  out->Add("mvcc.chain_length.p99", "count", reg.P("mvcc.chain_length", 0.99));
  out->Add("mvcc.versions_pruned_per_pass", "count", Ratio(rs.versions_pruned, passes));

  // maintenance
  std::vector<double> pass = rs.pass_ms;
  out->Add("maint.pass_ms.p50", "ms", Median(pass));
  out->Add("maint.pass_ms.max", "ms", pass.empty() ? 0.0 : *std::max_element(pass.begin(), pass.end()));
  out->Add("maint.gc_removed_per_pass", "count", Ratio(rs.gc_removed, passes));
  out->Add("maint.nodes_deleted_per_pass", "count", Ratio(rs.nodes_deleted, passes));

  // recovery (first restart of the crash image)
  out->Add("recovery.analysis_ms", "ms", rs.analysis_ms);
  out->Add("recovery.redo_records", "count", rs.redo_records);
  out->Add("recovery.inline_redos", "count", rs.inline_redos);
  out->Add("recovery.background_redos", "count", rs.background_redos);
  out->Add("recovery.loser_txns", "count", rs.loser_txns);

  // server
  std::vector<uint64_t> calls = dur[kServerSearch];
  calls.insert(calls.end(), dur[kServerInsert].begin(), dur[kServerInsert].end());
  out->Add("server.call_us.p50", "us", Us(Percentile(&calls, 0.50)));
  out->Add("server.call_us.p99", "us", Us(Percentile(&calls, 0.99)));
  for (const char* st : {"queue", "lock", "tree", "walwait", "fsync"}) {
    out->Add(std::string("server.stage_") + st + "_us.p99", "us",
             Us(reg.P(std::string("rpc.stage.") + st, 0.99)));
  }
  out->Add("server.bytes_per_op", "B",
           Ratio(reg.C("server.bytes_in") + reg.C("server.bytes_out"), dops));

  // harness
  std::vector<uint64_t> lag = rs.gen_lag_ns;
  out->Add("harness.gen_lag_us.p99", "us", Us(Percentile(&lag, 0.99)));
  out->Add("harness.achieved_over_offered", "ratio",
           rs.offered_rate > 0
               ? Ratio(dops / (static_cast<double>(rs.window.end - rs.window.start) / 1e9),
                       rs.offered_rate)
               : 1.0);
  const double mean_off = Ratio(static_cast<double>(arm_ns[0]), static_cast<double>(arm_ops[0]));
  const double mean_on = Ratio(static_cast<double>(arm_ns[1]), static_cast<double>(arm_ops[1]));
  out->Add("harness.tracing_overhead_pct", "%", 100 * Ratio(mean_on - mean_off, mean_off));
  uint64_t self_total = 0;
  for (uint64_t s : self_ns) self_total += s;
  const double coverage = Ratio(static_cast<double>(self_total), static_cast<double>(measured_ns));
  out->Add("harness.span_coverage", "ratio", coverage);
  if (arm_ops[1] > 0 && std::fabs(coverage - 1.0) > 0.05) {
    Fail("span self times cover " + std::to_string(coverage) +
         " of measured op time (must be within 5%)");
  }
  for (int l = 0; l < kNumLayers; l++) {
    out->Add(std::string("self.") + kLayerName[l] + "_share", "ratio",
             Ratio(static_cast<double>(self_ns[l]), static_cast<double>(self_total)));
  }

  // Stage shares of read and write op time: the ops' own OpContext for
  // embedded workloads, the server's per-request stages over the wire.
  double stage[obs::kNumStages];
  double stage_total = 0;
  for (size_t s = 0; s < obs::kNumStages; s++) {
    const std::string name = std::string("rpc.stage.") + obs::StageName(static_cast<obs::Stage>(s));
    stage[s] = wire ? static_cast<double>(reg.H({name}).sum) : static_cast<double>(stage_ns[s]);
    stage_total += stage[s];
  }
  for (size_t s = 0; s < obs::kNumStages; s++) {
    out->Add(std::string("stage.") + obs::StageName(static_cast<obs::Stage>(s)) + "_share",
             "ratio", Ratio(stage[s], stage_total));
  }
}

void WriteSpans(const std::string& path, std::vector<Worker>& ws) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot write " + path);
  for (Worker& w : ws) {
    for (const SpanRec& s : w.trace.kept) {
      std::fprintf(f,
                   "{\"op\":%" PRIu64 ",\"name\":\"%s\",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 ",\"parent\":%d}\n",
                   s.op, kSpanName[s.id], s.start, s.end, s.parent);
    }
  }
  std::fclose(f);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) Fail("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--dir" && has_value) {
      cfg.dir = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      cfg.trace_out = argv[++i];
    } else if (a == "--scale" && has_value) {
      cfg.scale = std::strtod(argv[++i], nullptr);
    } else if (a == "--rate" && has_value) {
      cfg.rate = std::strtod(argv[++i], nullptr);
    } else if (a == "--phantom-ack") {
      cfg.phantom_ack = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload NAME --seed N --seconds S --trace 0|1"
                   " --dir DIR [--trace-out FILE] [--scale X] [--rate OPS]"
                   " [--phantom-ack]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.dir.empty() || cfg.seconds <= 0 || cfg.scale <= 0) {
    std::fprintf(stderr, "perfbench: --dir, --seconds > 0 and --scale > 0 are required\n");
    return 2;
  }
  fs::create_directories(cfg.dir);
  std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d scale=%g\n",
              cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.trace ? 1 : 0,
              cfg.scale);

  std::vector<Worker> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back(Stream(cfg.seed, static_cast<uint64_t>(t)));
  }
  RunStats rs;
  RegDelta reg;
  if (cfg.workload == "btree_read_mostly") {
    RunReadMostly(cfg, &workers, &rs, &reg);
  } else if (cfg.workload == "btree_churn_durable") {
    RunChurn(cfg, &workers, &rs, &reg);
  } else if (cfg.workload == "rtree_wire_open") {
    RunRtree(cfg, &workers, &rs, &reg);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }

  Results res;
  for (const Worker& w : workers) {
    res.attempted += w.ops;
  }
  EndToEnd(cfg, rs.window, workers, rs, &res);
  PerLayer(cfg, workers, rs, reg, &res);
  if (res.attempted == 0) Fail("no operation completed in the measured window");
  if (cfg.trace && !cfg.trace_out.empty()) WriteSpans(cfg.trace_out, workers);
  std::error_code ec;
  fs::remove_all(cfg.dir, ec);

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(res.attempted) + ", \"failed\": " +
                     std::to_string(res.failed) + ", \"seed\": " +
                     std::to_string(cfg.seed) + ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); i++) {
    const Metric& m = res.metrics[i];
    std::printf("  %s %s %s\n", Pad(m.name, 40).c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
    json += (i == 0 ? "" : ", ") + std::string("\"") + m.name +
            "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace gistcr

int main(int argc, char** argv) { return gistcr::perfbench::Main(argc, argv); }
