// Crash recovery walkthrough: commit some transactions, leave one in
// flight, "pull the plug" (drop all volatile state), and let ARIES-style
// restart recovery repair the tree — committed work survives, the loser
// is rolled back with compensation log records, and structural
// modifications that completed as nested top actions persist even though
// the transaction that triggered them aborted (paper section 9).
//
//   $ ./crash_recovery [/tmp/gistcr_crash]

#include <cstdio>
#include <string>

#include "access/btree_extension.h"
#include "db/database.h"

using namespace gistcr;

namespace {

size_t CountKeys(Database* db, Gist* index, int64_t lo, int64_t hi) {
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  Status st = index->Search(txn, BtreeExtension::MakeRange(lo, hi), &results);
  if (!st.ok()) std::fprintf(stderr, "search: %s\n", st.ToString().c_str());
  (void)db->Commit(txn);
  return results.size();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/gistcr_crash";
  DatabaseOptions opts;
  opts.path = path;
  opts.buffer_pool_pages = 1024;

  BtreeExtension btree;
  GistOptions gopts;
  gopts.max_entries = 16;  // small fanout: plenty of structure changes

  {
    auto db_or = Database::Create(opts);
    if (!db_or.ok()) return 1;
    auto db = db_or.MoveValue();
    if (!db->CreateIndex(1, &btree, gopts).ok()) return 1;
    Gist* index = db->GetIndex(1).value();

    // Committed transaction: keys 0..499.
    Transaction* t1 = db->Begin();
    for (int64_t k = 0; k < 500; k++) {
      (void)db->InsertRecord(t1, index, BtreeExtension::MakeKey(k), "ok");
    }
    (void)db->Commit(t1);
    std::printf("[before crash] committed 500 keys\n");

    // A fuzzy checkpoint in the middle, while the next txn is active.
    Transaction* loser = db->Begin();
    for (int64_t k = 1000; k < 1200; k++) {
      (void)db->InsertRecord(loser, index, BtreeExtension::MakeKey(k),
                             "uncommitted");
    }
    (void)db->Checkpoint();
    for (int64_t k = 1200; k < 1400; k++) {
      (void)db->InsertRecord(loser, index, BtreeExtension::MakeKey(k),
                             "uncommitted");
    }
    // The loser's updates hit the log (and some even reach disk through
    // buffer-pool eviction) but it never commits.
    (void)db->log()->FlushAll();
    std::printf("[before crash] loser txn has 400 uncommitted inserts "
                "(forced to the log, splits completed as NTAs)\n");
    std::printf("[before crash] splits so far: %lu\n",
                static_cast<unsigned long>(index->stats().splits.load()));

    // ---- power failure ----
    db->SimulateCrash();
    std::printf("[crash] buffer pool and log tail dropped\n");
  }

  // Restart: Open() runs analysis and returns; redo and loser undo run in
  // the background. Wait for them so the counters below are final.
  auto db_or = Database::Open(opts);
  if (!db_or.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 db_or.status().ToString().c_str());
    return 1;
  }
  auto db = db_or.MoveValue();
  Status recovered = db->WaitForRecovery();
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.ToString().c_str());
    return 1;
  }
  auto restart_count = [&](const char* name) {
    return static_cast<unsigned long>(db->metrics()->GetCounter(name)->load());
  };
  std::printf("[restart] analyzed %lu records, redid %lu, "
              "rolled back %lu loser txn(s) undoing %lu records\n",
              restart_count("recovery.records_analyzed"),
              restart_count("recovery.records_redone"),
              restart_count("recovery.loser_txns"),
              restart_count("recovery.records_undone"));

  if (!db->OpenIndex(1, &btree, gopts).ok()) return 1;
  Gist* index = db->GetIndex(1).value();

  const size_t committed = CountKeys(db.get(), index, 0, 999);
  const size_t uncommitted = CountKeys(db.get(), index, 1000, 1399);
  std::printf("[after recovery] committed keys found: %zu (expect 500)\n",
              committed);
  std::printf("[after recovery] loser keys found: %zu (expect 0)\n",
              uncommitted);
  Status st = index->CheckInvariants();
  std::printf("[after recovery] structural invariants: %s\n",
              st.ToString().c_str());

  // The recovered tree is fully writable.
  Transaction* t2 = db->Begin();
  for (int64_t k = 500; k < 600; k++) {
    (void)db->InsertRecord(t2, index, BtreeExtension::MakeKey(k), "post");
  }
  (void)db->Commit(t2);
  std::printf("[after recovery] inserted 100 more keys; total now %zu\n",
              CountKeys(db.get(), index, 0, 999));
  std::printf("crash_recovery done: %s\n",
              committed == 500 && uncommitted == 0 ? "CORRECT" : "WRONG");
  return committed == 500 && uncommitted == 0 ? 0 : 1;
}
