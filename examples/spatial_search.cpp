// Spatial indexing with the R-tree GiST specialization: index a synthetic
// city of points of interest, answer window queries transactionally, and
// show that the concurrency protocol is oblivious to key semantics — the
// exact motivation of the paper (R-trees, TV-trees, ... all inherit the
// same concurrency and recovery machinery).
//
//   $ ./spatial_search [/tmp/gistcr_spatial]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "access/rtree_extension.h"
#include "db/database.h"
#include "util/random.h"

using namespace gistcr;

namespace {

const char* kCategories[] = {"cafe", "library", "park", "museum", "station"};

struct Poi {
  double x, y;
  std::string name;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/gistcr_spatial";
  DatabaseOptions opts;
  opts.path = path;
  opts.buffer_pool_pages = 2048;
  auto db_or = Database::Create(opts);
  if (!db_or.ok()) {
    std::fprintf(stderr, "create: %s\n", db_or.status().ToString().c_str());
    return 1;
  }
  auto db = db_or.MoveValue();

  RtreeExtension rtree;
  Status st = db->CreateIndex(1, &rtree);
  if (!st.ok()) {
    std::fprintf(stderr, "index: %s\n", st.ToString().c_str());
    return 1;
  }
  Gist* index = db->GetIndex(1).value();

  // Load 20k points of interest on a 1000x1000 grid, from 4 loader
  // threads running concurrently — node splits, BP expansions and
  // predicate bookkeeping all happen under contention.
  std::printf("loading 20000 points of interest with 4 threads...\n");
  std::vector<std::thread> loaders;
  for (int t = 0; t < 4; t++) {
    loaders.emplace_back([&db, index, t] {
      Random rng(static_cast<uint64_t>(t) * 1337 + 1);
      for (int i = 0; i < 5000; i++) {
        Poi poi;
        poi.x = rng.NextDouble() * 1000.0;
        poi.y = rng.NextDouble() * 1000.0;
        poi.name = std::string(kCategories[rng.Uniform(5)]) + "-" +
                   std::to_string(t) + "-" + std::to_string(i);
        for (;;) {
          Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
          Status ist =
              db->InsertRecord(txn, index,
                               RtreeExtension::MakeKey(
                                   Rect::Point(poi.x, poi.y)),
                               poi.name)
                  .status();
          if (ist.ok()) ist = db->Commit(txn);
          if (ist.ok()) break;
          // A failed Commit leaves the transaction in doubt, not active:
          // only an active one may roll back.
          if (db->txns()->IsActive(txn->id())) (void)db->Abort(txn);
          if (!ist.IsDeadlock() && !ist.IsBusy()) {
            std::fprintf(stderr, "insert: %s\n", ist.ToString().c_str());
            return;
          }
        }
      }
    });
  }
  for (auto& th : loaders) th.join();
  std::printf("loaded. tree height = %u, splits = %lu, root grows = %lu\n",
              index->Height().value(),
              static_cast<unsigned long>(index->stats().splits.load()),
              static_cast<unsigned long>(index->stats().root_grows.load()));

  st = index->CheckInvariants();
  std::printf("structural invariants: %s\n", st.ToString().c_str());

  // Window queries: "what is near me?"
  const Rect windows[] = {
      {100, 100, 150, 150},
      {0, 0, 50, 1000},      // western strip
      {495, 495, 505, 505},  // tight box around the center
  };
  Transaction* reader = db->Begin(IsolationLevel::kRepeatableRead);
  for (const Rect& w : windows) {
    std::vector<SearchResult> results;
    st = index->Search(reader, RtreeExtension::MakeWindowQuery(w), &results);
    if (!st.ok()) {
      std::fprintf(stderr, "search: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("window (%.0f,%.0f)-(%.0f,%.0f): %4zu POIs", w.xlo, w.ylo,
                w.xhi, w.yhi, results.size());
    if (!results.empty()) {
      auto rec = db->ReadRecord(results[0].rid);
      std::printf("   e.g. %s at %s", rec.ok() ? rec.value().c_str() : "?",
                  rtree.Describe(results[0].key).c_str());
    }
    std::printf("\n");
  }
  st = db->Commit(reader);
  if (!st.ok()) {
    std::fprintf(stderr, "commit: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("rightlink follows during load (missed-split compensation): "
              "%lu\n",
              static_cast<unsigned long>(
                  index->stats().rightlink_follows.load()));
  std::printf("spatial_search done.\n");
  return 0;
}
