// Experiment C5 (DESIGN.md): recovery cost (paper section 9 / Table 1).
// Series: (a) log volume per operation for each operation class;
// (b) restart time (analysis + redo + undo) as a function of workload
// size and loser fraction; (c) restart time with a mid-workload fuzzy
// checkpoint. Expected shape: restart time linear in the redo span;
// checkpoints cut it; losers add an undo component proportional to their
// update count.

#include <chrono>

#include "bench/bench_util.h"

namespace gistcr {
namespace bench {
namespace {

void BM_RestartTime(benchmark::State& state) {
  const int64_t ops = state.range(0);
  const int loser_pct = static_cast<int>(state.range(1));
  const bool checkpoint_mid = state.range(2) != 0;
  const std::string path = "/tmp/gistcr_bench_c5";
  BtreeExtension ext;

  uint64_t log_bytes = 0;
  uint64_t undone = 0;
  for (auto _ : state) {
    RemoveDbFiles(path);
    DatabaseOptions opts;
    opts.path = path;
    opts.buffer_pool_pages = 16384;
    opts.sync_commit = false;
    auto db_or = Database::Create(opts);
    BENCH_CHECK_OK(db_or.status());
    auto db = db_or.MoveValue();
    BENCH_CHECK_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();

    const int64_t committed_ops = ops * (100 - loser_pct) / 100;
    Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
    for (int64_t k = 0; k < committed_ops; k++) {
      BENCH_CHECK_OK(
          db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v")
              .status());
      if (checkpoint_mid && k == committed_ops / 2) {
        BENCH_CHECK_OK(db->Commit(txn));
        // Write the dirty pages first: with all of them dirty since the
        // first insert, the checkpoint's redo floor is the log start and
        // it shortens nothing.
        BENCH_CHECK_OK(db->FlushAll());
        BENCH_CHECK_OK(db->Checkpoint());
        txn = db->Begin(IsolationLevel::kReadCommitted);
      }
    }
    BENCH_CHECK_OK(db->Commit(txn));

    Transaction* loser = db->Begin(IsolationLevel::kReadCommitted);
    for (int64_t k = 0; k < ops * loser_pct / 100; k++) {
      BENCH_CHECK_OK(db->InsertRecord(loser, gist,
                                      BtreeExtension::MakeKey(1000000 + k),
                                      "v")
                         .status());
    }
    BENCH_CHECK_OK(db->log()->FlushAll());
    log_bytes = db->log()->TotalBytes();
    db->SimulateCrash();
    db.reset();

    // Timed region: restart recovery only — Open returns after analysis,
    // so the full restart (redo drain + loser undo) ends when
    // WaitForRecovery does.
    const auto start = std::chrono::steady_clock::now();
    auto reopened_or = Database::Open(opts);
    BENCH_CHECK_OK(reopened_or.status());
    auto reopened = reopened_or.MoveValue();
    BENCH_CHECK_OK(reopened->WaitForRecovery());
    const auto end = std::chrono::steady_clock::now();
    undone =
        reopened->metrics()->GetCounter("recovery.records_undone")->load();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
    reopened.reset();
  }
  state.counters["log_MiB"] =
      static_cast<double>(log_bytes) / (1024.0 * 1024.0);
  state.counters["log_bytes_per_op"] =
      static_cast<double>(log_bytes) / static_cast<double>(ops);
  state.counters["records_undone"] = static_cast<double>(undone);
  state.SetLabel(std::to_string(ops) + "ops/" + std::to_string(loser_pct) +
                 "%loser" + (checkpoint_mid ? "/ckpt" : ""));
  RemoveDbFiles(path);
}

// {ops, loser_pct, mid_checkpoint}
BENCHMARK(BM_RestartTime)
    ->Args({2000, 0, 0})
    ->Args({10000, 0, 0})
    ->Args({30000, 0, 0})
    ->Args({10000, 10, 0})
    ->Args({10000, 50, 0})
    ->Args({30000, 0, 1})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Log volume per operation class (paper Table 1 record set in action).
void BM_LogVolumePerOpClass(benchmark::State& state) {
  const std::string path = "/tmp/gistcr_bench_c5v";
  BtreeExtension ext;
  const int op_class = static_cast<int>(state.range(0));
  uint64_t bytes_per_op = 0;
  for (auto _ : state) {
    RemoveDbFiles(path);
    DatabaseOptions opts;
    opts.path = path;
    opts.buffer_pool_pages = 8192;
    opts.sync_commit = false;
    auto db_or = Database::Create(opts);
    BENCH_CHECK_OK(db_or.status());
    auto db = db_or.MoveValue();
    BENCH_CHECK_OK(db->CreateIndex(1, &ext));
    Gist* gist = db->GetIndex(1).value();
    constexpr int64_t kN = 5000;
    std::vector<Rid> rids;
    {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      for (int64_t k = 0; k < kN; k++) {
        auto rid =
            db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v");
        BENCH_CHECK_OK(rid.status());
        rids.push_back(rid.value());
      }
      BENCH_CHECK_OK(db->Commit(txn));
    }
    const uint64_t after_insert = db->log()->TotalBytes();
    if (op_class == 0) {
      bytes_per_op = after_insert / kN;
    } else if (op_class == 1) {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      for (int64_t k = 0; k < kN; k++) {
        BENCH_CHECK_OK(db->DeleteRecord(txn, gist,
                                        BtreeExtension::MakeKey(k),
                                        rids[static_cast<size_t>(k)]));
      }
      BENCH_CHECK_OK(db->Commit(txn));
      bytes_per_op = (db->log()->TotalBytes() - after_insert) / kN;
    } else {
      Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
      for (int64_t k = 0; k < kN; k++) {
        BENCH_CHECK_OK(db->DeleteRecord(txn, gist,
                                        BtreeExtension::MakeKey(k),
                                        rids[static_cast<size_t>(k)]));
      }
      BENCH_CHECK_OK(db->Commit(txn));
      const uint64_t after_delete = db->log()->TotalBytes();
      Transaction* gc = db->Begin(IsolationLevel::kReadCommitted);
      uint64_t r = 0, n = 0;
      BENCH_CHECK_OK(gist->GarbageCollect(gc, &r, &n));
      BENCH_CHECK_OK(db->Commit(gc));
      bytes_per_op = (db->log()->TotalBytes() - after_delete) / kN;
    }
  }
  state.counters["log_bytes_per_op"] = static_cast<double>(bytes_per_op);
  state.SetLabel(op_class == 0 ? "insert"
                               : (op_class == 1 ? "logical-delete" : "gc"));
  RemoveDbFiles(path);
}

BENCHMARK(BM_LogVolumePerOpClass)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace gistcr

BENCHMARK_MAIN();
