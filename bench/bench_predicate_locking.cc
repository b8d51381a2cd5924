// Experiment C2 (DESIGN.md): hybrid locking vs pure predicate locking
// (paper sections 4.2-4.3). With predicates attached to nodes, an insert
// checks only its target leaf's list; with a tree-global table it scans
// every registered predicate. Series: insert cost and predicates examined
// per conflict check as the number of open scanner transactions grows.
// Expected shape: hybrid stays flat; global grows linearly with scanners.

#include "bench/bench_util.h"

namespace gistcr {
namespace bench {
namespace {

constexpr int64_t kPreload = 50000;
BenchEnv g_env;

void BM_InsertWithScanners(benchmark::State& state) {
  const PredicateMode mode = state.range(0) == 0 ? PredicateMode::kHybrid
                                                 : PredicateMode::kGlobal;
  const int num_scanners = static_cast<int>(state.range(1));

  g_env.BuildBtree("/tmp/gistcr_bench_c2", ConcurrencyProtocol::kLink, mode,
                   NsnSource::kLsn, kPreload);
  Database* db = g_env.db.get();
  Gist* gist = g_env.gist;

  // Open repeatable-read scanners over disjoint low ranges; their
  // predicates stay attached (hybrid: on the visited nodes; global: in the
  // tree-global table) until they commit in teardown.
  std::vector<Transaction*> scanners;
  for (int s = 0; s < num_scanners; s++) {
    Transaction* txn = db->Begin(IsolationLevel::kRepeatableRead);
    std::vector<SearchResult> results;
    const int64_t lo = static_cast<int64_t>(s) * 100;
    BENCH_CHECK_OK(
        gist->Search(txn, BtreeExtension::MakeRange(lo, lo + 49), &results));
    scanners.push_back(txn);
  }
  obs::Counter* checks = db->metrics()->GetCounter("pred.conflict_checks");
  obs::Counter* scanned =
      db->metrics()->GetCounter("pred.predicates_scanned");
  const uint64_t checks0 = checks->load();
  const uint64_t scanned0 = scanned->load();

  // Inserts land far above every scanned range: no conflicts, so we
  // measure pure conflict-check overhead.
  int64_t k = kPreload * 10;
  int64_t items = 0;
  for (auto _ : state) {
    RunTxnWithRetry(db, IsolationLevel::kReadCommitted,
                    [&](Transaction* txn) {
                      return db->InsertRecord(txn, gist,
                                              BtreeExtension::MakeKey(k),
                                              "v")
                          .status();
                    });
    k++;
    items++;
  }
  state.SetItemsProcessed(items);

  const uint64_t n_checks = checks->load() - checks0;
  state.counters["preds_scanned_per_check"] =
      n_checks == 0 ? 0.0
                    : static_cast<double>(scanned->load() - scanned0) /
                          static_cast<double>(n_checks);
  state.counters["attached_total"] =
      static_cast<double>(db->preds()->TotalAttachments());
  state.SetLabel(std::string(mode == PredicateMode::kHybrid ? "hybrid"
                                                            : "global") +
                 "/" + std::to_string(num_scanners) + "scanners");

  for (Transaction* txn : scanners) BENCH_CHECK_OK(db->Commit(txn));
}

BENCHMARK(BM_InsertWithScanners)
    ->ArgsProduct({{0, 1}, {0, 4, 16, 64, 256}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace gistcr

BENCHMARK_MAIN();
