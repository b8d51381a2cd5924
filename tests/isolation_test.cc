#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "access/btree_extension.h"
#include "gist/cursor.h"
#include "storage/fault_injector.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

using namespace std::chrono_literals;

/// Repeatable-read (Degree 3) isolation per paper section 4: 2PL on data
/// records plus node-attached predicate locks. These tests exercise the
/// blocking semantics directly with short, deterministic waits.
class IsolationTest : public ::testing::Test {
 protected:
  void SetUp() override { SetUpMode(PredicateMode::kHybrid); }

  void SetUpMode(PredicateMode mode) {
    path_ = TestPath("iso");
    RemoveDbFiles(path_);
    DatabaseOptions opts;
    opts.path = path_;
    opts.buffer_pool_pages = 512;
    auto db_or = Database::Create(opts);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 8;
    gopts.pred_mode = mode;
    ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }

  Rid MustInsert(Transaction* txn, int64_t key) {
    auto rid =
        db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(key), "v");
    EXPECT_OK(rid.status());
    return rid.ok() ? rid.value() : Rid{};
  }

  std::vector<int64_t> Scan(Transaction* txn, int64_t lo, int64_t hi,
                            Status* out_st = nullptr) {
    std::vector<SearchResult> results;
    Status st = gist_->Search(txn, BtreeExtension::MakeRange(lo, hi), &results);
    if (out_st != nullptr) {
      *out_st = st;
    } else {
      EXPECT_OK(st);
    }
    std::vector<int64_t> keys;
    for (const auto& r : results) keys.push_back(BtreeExtension::Lo(r.key));
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

TEST_F(IsolationTest, PhantomInsertBlocksUntilScannerEnds) {
  // T1 (RR) scans an empty range; T2's insert into that range must block
  // on T1's predicate until T1 terminates (section 4.3).
  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_TRUE(Scan(t1, 10, 20).empty());

  std::atomic<bool> insert_done{false};
  std::thread inserter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db_->InsertRecord(t2, gist_, BtreeExtension::MakeKey(15), "v")
                  .status());
    insert_done = true;
    ASSERT_OK(db_->Commit(t2));
  });

  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(insert_done.load()) << "insert did not block on the predicate";
  // (Re-scanning here would meet the inserter's X record lock — the
  // paper's designed scan/insert deadlock, tested separately. The scan is
  // repeatable because the insert cannot commit while T1 lives.)
  ASSERT_OK(db_->Commit(t1));
  inserter.join();
  EXPECT_TRUE(insert_done.load());

  Transaction* t3 = db_->Begin();
  EXPECT_EQ(Scan(t3, 10, 20), (std::vector<int64_t>{15}));
  ASSERT_OK(db_->Commit(t3));
}

TEST_F(IsolationTest, InsertOutsideScannedRangeDoesNotBlock) {
  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_TRUE(Scan(t1, 10, 20).empty());
  Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
  // Disjoint key: no predicate conflict, completes immediately.
  ASSERT_OK(db_->InsertRecord(t2, gist_, BtreeExtension::MakeKey(500), "v")
                .status());
  ASSERT_OK(db_->Commit(t2));
  ASSERT_OK(db_->Commit(t1));
}

TEST_F(IsolationTest, ReadCommittedAdmitsPhantoms) {
  Transaction* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  EXPECT_TRUE(Scan(t1, 10, 20).empty());
  Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_OK(db_->InsertRecord(t2, gist_, BtreeExtension::MakeKey(15), "v")
                .status());
  ASSERT_OK(db_->Commit(t2));  // does not block: T1 left no predicates
  EXPECT_EQ(Scan(t1, 10, 20), (std::vector<int64_t>{15}));  // phantom
  ASSERT_OK(db_->Commit(t1));
}

TEST_F(IsolationTest, DeleteOfScannedRecordBlocksOnRecordLock) {
  Transaction* t0 = db_->Begin();
  const Rid rid = MustInsert(t0, 7);
  ASSERT_OK(db_->Commit(t0));

  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_EQ(Scan(t1, 0, 100), (std::vector<int64_t>{7}));  // S lock on rid

  std::atomic<bool> delete_done{false};
  std::thread deleter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db_->DeleteRecord(t2, gist_, BtreeExtension::MakeKey(7), rid));
    delete_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(delete_done.load()) << "delete did not block on the S lock";
  EXPECT_EQ(Scan(t1, 0, 100), (std::vector<int64_t>{7}));  // repeatable
  ASSERT_OK(db_->Commit(t1));
  deleter.join();
}

// Degree 2: a read-committed search holds no record lock once it returns,
// through Search and through a cursor alike.
TEST_F(IsolationTest, ReadCommittedSearchKeepsNoRecordLocks) {
  Transaction* t0 = db_->Begin();
  for (int64_t k = 0; k < 40; k++) MustInsert(t0, k);
  ASSERT_OK(db_->Commit(t0));

  Transaction* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist_->Search(t1, BtreeExtension::MakeRange(0, 100), &results));
  ASSERT_EQ(results.size(), 40u);
  GistCursor cursor(gist_, t1, BtreeExtension::MakeRange(0, 100));
  ASSERT_OK(cursor.Open());
  for (;;) {
    SearchResult r;
    bool done = false;
    ASSERT_OK(cursor.Next(&r, &done));
    if (done) break;
    results.push_back(r);
  }
  ASSERT_EQ(results.size(), 80u);
  for (const SearchResult& r : results) {
    EXPECT_FALSE(db_->locks()->Holds(
        t1->id(), LockName{LockSpace::kRecord, r.rid.Pack()},
        LockMode::kShared))
        << "key " << BtreeExtension::Lo(r.key);
  }
  ASSERT_OK(db_->Commit(t1));
}

TEST_F(IsolationTest, DeleteOfRowScannedAtReadCommittedDoesNotBlock) {
  Transaction* t0 = db_->Begin();
  const Rid rid = MustInsert(t0, 7);
  ASSERT_OK(db_->Commit(t0));

  Transaction* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  EXPECT_EQ(Scan(t1, 0, 100), (std::vector<int64_t>{7}));

  std::atomic<bool> delete_done{false};
  std::thread deleter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db_->DeleteRecord(t2, gist_, BtreeExtension::MakeKey(7), rid));
    ASSERT_OK(db_->Commit(t2));
    delete_done = true;
  });
  for (int i = 0; i < 500 && !delete_done.load(); i++) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(delete_done.load()) << "delete blocked on a finished read";
  EXPECT_TRUE(Scan(t1, 0, 100).empty());  // read committed: the delete shows
  ASSERT_OK(db_->Commit(t1));  // releases the lock if the delete did block
  deleter.join();
}

// Short read locks end one acquisition each: a record the transaction
// holds for its own insert stays X-locked after it searched it.
TEST_F(IsolationTest, ReadCommittedOwnInsertStaysLockedAfterSearch) {
  Transaction* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  const Rid rid = MustInsert(t1, 5);
  EXPECT_EQ(Scan(t1, 0, 10), (std::vector<int64_t>{5}));
  EXPECT_TRUE(db_->locks()->Holds(
      t1->id(), LockName{LockSpace::kRecord, rid.Pack()},
      LockMode::kExclusive));

  std::atomic<bool> read_done{false};
  std::vector<int64_t> seen;
  std::thread reader([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    seen = Scan(t2, 0, 10);
    read_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(read_done.load()) << "reader did not block on the insert";
  ASSERT_OK(db_->Commit(t1));
  reader.join();
  EXPECT_EQ(seen, (std::vector<int64_t>{5}));
}

// Database::ReadRecord with a read-committed transaction holds the rid's
// S lock across the read: it waits out an uncommitted deleter, then reads
// the record if the deleter aborted and NotFound if it committed.
TEST_F(IsolationTest, LockedFetchWaitsForDeleter) {
  Transaction* t0 = db_->Begin();
  const Rid rid = MustInsert(t0, 3);
  ASSERT_OK(db_->Commit(t0));

  for (const bool commit_delete : {false, true}) {
    SCOPED_TRACE(commit_delete ? "deleter commits" : "deleter aborts");
    Transaction* del = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db_->DeleteRecord(del, gist_, BtreeExtension::MakeKey(3), rid));
    std::atomic<bool> read_done{false};
    Status read_st;
    std::string record;
    std::thread reader([&] {
      Transaction* t = db_->Begin(IsolationLevel::kReadCommitted);
      auto rec_or = db_->ReadRecord(rid, t);
      read_st = rec_or.status();
      if (rec_or.ok()) record = rec_or.value();
      read_done = true;
      ASSERT_OK(db_->Commit(t));
    });
    std::this_thread::sleep_for(100ms);
    EXPECT_FALSE(read_done.load()) << "fetch read an uncommitted delete";
    ASSERT_OK(commit_delete ? db_->Commit(del) : db_->Abort(del));
    reader.join();
    if (commit_delete) {
      EXPECT_TRUE(read_st.IsNotFound()) << read_st.ToString();
    } else {
      ASSERT_OK(read_st);
      EXPECT_EQ(record, "v");
    }
  }
}

TEST_F(IsolationTest, ReadOnlyTransactionsLogAndForceNothing) {
  Transaction* t0 = db_->Begin();
  for (int64_t k = 0; k < 20; k++) MustInsert(t0, k);
  ASSERT_OK(db_->Commit(t0));
  obs::Counter* flushes = db_->metrics()->GetCounter("wal.flushes");
  const Lsn end = db_->log()->next_lsn();
  const uint64_t flushed = flushes->load();
  for (const IsolationLevel iso :
       {IsolationLevel::kReadCommitted, IsolationLevel::kRepeatableRead}) {
    for (const bool commit : {true, false}) {
      Transaction* t = db_->Begin(iso);
      EXPECT_EQ(Scan(t, 0, 100).size(), 20u);
      ASSERT_OK(commit ? db_->Commit(t) : db_->Abort(t));
    }
  }
  EXPECT_EQ(db_->log()->next_lsn(), end);
  EXPECT_EQ(flushes->load(), flushed);
}

// No early lock release (DESIGN.md section 6): a writer releases its
// record locks only after its Commit is forced, so a reader that saw its
// key waited for that force, and the key survives a crash after the
// reader commits — which the reader's own commit, forcing nothing, does
// not ensure.
TEST_F(IsolationTest, ReaderSeesOnlyForcedCommits) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  std::atomic<bool> read_done{false};
  std::vector<int64_t> seen;
  std::thread reader;
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmCrashPointHook(
      "txn.commit.before_log_force", [&] {
        reader = std::thread([&] {
          Transaction* t = db_->Begin(IsolationLevel::kReadCommitted);
          seen = Scan(t, 0, 100);
          read_done = true;
          EXPECT_OK(db_->Commit(t));
        });
        std::this_thread::sleep_for(100ms);
        EXPECT_FALSE(read_done.load())
            << "reader returned before the writer's commit was forced";
      });
  Transaction* writer = db_->Begin(IsolationLevel::kReadCommitted);
  MustInsert(writer, 42);
  ASSERT_OK(db_->Commit(writer));
  FaultInjector::Global().Reset();
  ASSERT_TRUE(reader.joinable());
  reader.join();
  EXPECT_EQ(seen, (std::vector<int64_t>{42}));

  db_->SimulateCrash();
  db_.reset();
  DatabaseOptions opts;
  opts.path = path_;
  opts.buffer_pool_pages = 512;
  auto db_or = Database::Open(opts);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  GistOptions gopts;
  gopts.max_entries = 8;
  ASSERT_OK(db_->OpenIndex(1, &ext_, gopts));
  gist_ = db_->GetIndex(1).value();
  ASSERT_OK(db_->WaitForRecovery());
  Transaction* t = db_->Begin(IsolationLevel::kReadCommitted);
  EXPECT_EQ(Scan(t, 0, 100), (std::vector<int64_t>{42}));
  ASSERT_OK(db_->Commit(t));
}

// Commit_LSN (DESIGN.md section 6): once every writer has ended, each leaf
// was last updated below the Commit_LSN, and a read-committed search takes
// no record lock. Its lock-manager calls are its transaction-id lock and
// one signaling lock per node it visits; committed delete marks are
// skipped.
TEST_F(IsolationTest, CommittedLeafSearchTakesNoRecordLocks) {
  Transaction* t0 = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 0; k < 40; k++) rids.push_back(MustInsert(t0, k));
  ASSERT_OK(db_->Commit(t0));
  Transaction* del = db_->Begin();
  std::vector<int64_t> want;
  for (int64_t k = 0; k < 40; k++) {
    if (k % 4 != 0) {
      want.push_back(k);
      continue;
    }
    ASSERT_OK(db_->DeleteRecord(del, gist_, BtreeExtension::MakeKey(k),
                                rids[static_cast<size_t>(k)]));
  }
  ASSERT_OK(db_->Commit(del));

  obs::Counter* acquires = db_->metrics()->GetCounter("lock.acquires");
  obs::Counter* unlocked =
      db_->metrics()->GetCounter("gist.unlocked_leaf_visits");
  uint64_t visits = 0;
  gist_->test_hooks().before_visit_node = [&](PageId) { visits++; };
  const uint64_t acquires_before = acquires->value();
  const uint64_t unlocked_before = unlocked->value();
  Transaction* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  EXPECT_EQ(Scan(t1, 0, 100), want);
  ASSERT_OK(db_->Commit(t1));
  gist_->test_hooks().before_visit_node = nullptr;

  EXPECT_EQ(acquires->value() - acquires_before, 1 + visits);
  EXPECT_GE(unlocked->value() - unlocked_before, 5u);  // 40 keys, 8 a leaf
}

// Parity of the two read-committed leaf filters: the same search over the
// same committed leaves, run while an updater that logged before them
// stays open (no leaf is below the Commit_LSN: the locked filter) and
// after it ended (every leaf is: the unlocked filter), returns the same
// keys. The locked run takes one record lock per entry it checks, that is
// per result and per committed delete mark; the unlocked run none.
TEST_F(IsolationTest, LockedAndUnlockedLeafFiltersAgree) {
  Transaction* open = db_->Begin(IsolationLevel::kReadCommitted);
  MustInsert(open, 1000);  // logs first, outside the scanned range
  Transaction* t0 = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 0; k < 40; k++) rids.push_back(MustInsert(t0, k));
  ASSERT_OK(db_->Commit(t0));
  Transaction* del = db_->Begin();
  for (int64_t k = 0; k < 40; k += 4) {
    ASSERT_OK(db_->DeleteRecord(del, gist_, BtreeExtension::MakeKey(k),
                                rids[static_cast<size_t>(k)]));
  }
  ASSERT_OK(db_->Commit(del));

  obs::Counter* acquires = db_->metrics()->GetCounter("lock.acquires");
  obs::Counter* unlocked =
      db_->metrics()->GetCounter("gist.unlocked_leaf_visits");
  uint64_t visits = 0;
  gist_->test_hooks().before_visit_node = [&](PageId) { visits++; };
  // Lock-manager calls beyond the txn-id lock and the signaling locks.
  auto scan = [&](uint64_t* record_locks) {
    visits = 0;
    const uint64_t before = acquires->value();
    Transaction* t = db_->Begin(IsolationLevel::kReadCommitted);
    std::vector<int64_t> keys = Scan(t, 0, 100);
    EXPECT_OK(db_->Commit(t));
    *record_locks = acquires->value() - before - 1 - visits;
    return keys;
  };
  const uint64_t unlocked_before = unlocked->value();
  uint64_t locked_records = 0;
  const std::vector<int64_t> locked_keys = scan(&locked_records);
  EXPECT_EQ(unlocked->value(), unlocked_before);
  ASSERT_OK(db_->Abort(open));
  uint64_t unlocked_records = 0;
  const std::vector<int64_t> unlocked_keys = scan(&unlocked_records);
  EXPECT_GT(unlocked->value(), unlocked_before);
  gist_->test_hooks().before_visit_node = nullptr;

  EXPECT_EQ(locked_keys.size(), 30u);
  EXPECT_EQ(locked_keys, unlocked_keys);
  EXPECT_EQ(locked_records, locked_keys.size() + 10);
  EXPECT_EQ(unlocked_records, 0u);
}

// Writers that only ever abort: each inserts an odd key and delete-marks
// an even one, holds both a moment and rolls back, while the other
// writer's aborts keep refreshing the Commit_LSN. A read-committed reader
// must never see an odd key (an uncommitted insert) nor miss an even one
// (an uncommitted delete): the Commit_LSN must stay at or below the first
// LSN of every writer still open.
TEST_F(IsolationTest, ReadCommittedNeverSeesUncommittedUnderLoad) {
  constexpr int64_t kEvens = 64;
  Transaction* t0 = db_->Begin();
  std::vector<Rid> rids;
  std::vector<int64_t> evens;
  for (int64_t k = 0; k < 2 * kEvens; k += 2) {
    rids.push_back(MustInsert(t0, k));
    evens.push_back(k);
  }
  ASSERT_OK(db_->Commit(t0));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (uint64_t w = 0; w < 2; w++) {
    threads.emplace_back([&, w] {
      for (uint64_t i = w; !stop.load(); i += 2) {
        Transaction* t = db_->Begin(IsolationLevel::kReadCommitted);
        const size_t even = (i * 7) % kEvens;
        const int64_t odd = 2 * static_cast<int64_t>((i * 13) % kEvens) + 1;
        Status st =
            db_->InsertRecord(t, gist_, BtreeExtension::MakeKey(odd), "w")
                .status();
        if (st.ok()) {
          st = db_->DeleteRecord(
              t, gist_, BtreeExtension::MakeKey(evens[even]), rids[even]);
        }
        if (!st.ok()) failed++;
        std::this_thread::yield();
        if (!db_->Abort(t).ok()) failed++;
      }
    });
  }
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        Transaction* t = db_->Begin(IsolationLevel::kReadCommitted);
        std::vector<SearchResult> results;
        const Status st = gist_->Search(
            t, BtreeExtension::MakeRange(0, 2 * kEvens), &results);
        if (!st.ok() || !db_->Commit(t).ok()) {
          failed++;
          continue;
        }
        std::vector<int64_t> keys;
        for (const SearchResult& sr : results) {
          keys.push_back(BtreeExtension::Lo(sr.key));
        }
        std::sort(keys.begin(), keys.end());
        if (keys != evens) wrong++;
        scans++;
      }
    });
  }
  std::this_thread::sleep_for(1500ms);
  stop = true;
  for (std::thread& t : threads) t.join();
  EXPECT_GT(scans.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u) << "of " << scans.load() << " scans";
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(db_->metrics()->GetCounter("gist.unlocked_leaf_visits")->value(),
            0u);
}

TEST_F(IsolationTest, ScanBlocksOnUncommittedInsert) {
  Transaction* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  MustInsert(t1, 42);  // holds X on the record until commit

  std::atomic<bool> scan_done{false};
  std::vector<int64_t> scanned;
  std::thread scanner([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kRepeatableRead);
    scanned = Scan(t2, 0, 100);
    scan_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(scan_done.load()) << "scan did not block on uncommitted insert";
  ASSERT_OK(db_->Commit(t1));
  scanner.join();
  EXPECT_EQ(scanned, (std::vector<int64_t>{42}));
}

TEST_F(IsolationTest, ScanBlocksOnUncommittedDeleteThenSkips) {
  Transaction* t0 = db_->Begin();
  const Rid rid = MustInsert(t0, 42);
  ASSERT_OK(db_->Commit(t0));

  Transaction* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_OK(db_->DeleteRecord(t1, gist_, BtreeExtension::MakeKey(42), rid));

  std::atomic<bool> scan_done{false};
  std::vector<int64_t> scanned;
  std::thread scanner([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kRepeatableRead);
    scanned = Scan(t2, 0, 100);
    scan_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  // The logically deleted entry is physically present, so the scan blocks
  // on the deleter's X lock (section 7).
  EXPECT_FALSE(scan_done.load());
  ASSERT_OK(db_->Commit(t1));
  scanner.join();
  EXPECT_TRUE(scanned.empty());  // delete committed: entry logically gone
}

TEST_F(IsolationTest, ScanSeesReinsertAfterDeleterAborts) {
  Transaction* t0 = db_->Begin();
  const Rid rid = MustInsert(t0, 42);
  ASSERT_OK(db_->Commit(t0));

  Transaction* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_OK(db_->DeleteRecord(t1, gist_, BtreeExtension::MakeKey(42), rid));

  std::atomic<bool> scan_done{false};
  std::vector<int64_t> scanned;
  std::thread scanner([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kRepeatableRead);
    scanned = Scan(t2, 0, 100);
    scan_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(scan_done.load());
  ASSERT_OK(db_->Abort(t1));  // rollback unmarks the entry
  scanner.join();
  EXPECT_EQ(scanned, (std::vector<int64_t>{42}));
}

TEST_F(IsolationTest, ScanInsertScanDeadlockIsDetected) {
  // T1 scans [10,20]; T2 inserts 15 (blocks on T1's predicate); T1 then
  // rescans and hits T2's inserted entry's X lock -> cycle -> one victim.
  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_TRUE(Scan(t1, 10, 20).empty());

  std::atomic<int> t2_result{0};  // 1 ok, 2 deadlock
  std::thread inserter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kRepeatableRead);
    Status st =
        db_->InsertRecord(t2, gist_, BtreeExtension::MakeKey(15), "v")
            .status();
    if (st.ok()) {
      t2_result = 1;
      ASSERT_OK(db_->Commit(t2));
    } else {
      t2_result = st.IsDeadlock() ? 2 : 3;
      ASSERT_OK(db_->Abort(t2));
    }
  });
  std::this_thread::sleep_for(100ms);

  Status scan_st;
  auto keys = Scan(t1, 10, 20, &scan_st);
  if (scan_st.ok()) {
    ASSERT_OK(db_->Commit(t1));
  } else {
    EXPECT_TRUE(scan_st.IsDeadlock()) << scan_st.ToString();
    ASSERT_OK(db_->Abort(t1));
  }
  inserter.join();
  // Exactly one side must have been the deadlock victim.
  const bool t1_victim = !scan_st.ok();
  const bool t2_victim = t2_result.load() == 2;
  EXPECT_TRUE(t1_victim || t2_victim);
  EXPECT_FALSE(t1_victim && t2_victim);
}

TEST_F(IsolationTest, UniqueInsertRaceYieldsOneWinner) {
  std::atomic<int> winners{0}, losers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      for (int attempt = 0; attempt < 50; attempt++) {
        Transaction* txn = db_->Begin(IsolationLevel::kRepeatableRead);
        auto rid = db_->InsertRecord(txn, gist_,
                                     BtreeExtension::MakeKey(777), "v",
                                     /*unique=*/true);
        if (rid.ok()) {
          winners++;
          ASSERT_OK(db_->Commit(txn));
          return;
        }
        if (rid.status().IsDuplicateKey()) {
          losers++;
          ASSERT_OK(db_->Commit(txn));
          return;
        }
        // Deadlock victim: abort and retry.
        ASSERT_OK(db_->Abort(txn));
      }
      FAIL() << "unique-insert retries exhausted";
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(losers.load(), 3);
  Transaction* txn = db_->Begin();
  EXPECT_EQ(Scan(txn, 777, 777).size(), 1u);
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(IsolationTest, DuplicateErrorIsRepeatable) {
  Transaction* t0 = db_->Begin();
  ASSERT_OK(db_->InsertRecord(t0, gist_, BtreeExtension::MakeKey(5), "a",
                              true)
                .status());
  ASSERT_OK(db_->Commit(t0));

  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_TRUE(db_->InsertRecord(t1, gist_, BtreeExtension::MakeKey(5), "b",
                                true)
                  .status()
                  .IsDuplicateKey());

  // A concurrent deleter of the existing record must block on T1's S lock,
  // keeping the error repeatable.
  std::atomic<bool> delete_done{false};
  std::thread deleter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    std::vector<SearchResult> results;
    ASSERT_OK(gist_->Search(t2, BtreeExtension::MakeRange(5, 5), &results));
    ASSERT_EQ(results.size(), 1u);
    ASSERT_OK(db_->DeleteRecord(t2, gist_, BtreeExtension::MakeKey(5),
                                results[0].rid));
    delete_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(delete_done.load());
  EXPECT_TRUE(db_->InsertRecord(t1, gist_, BtreeExtension::MakeKey(5), "c",
                                true)
                  .status()
                  .IsDuplicateKey());
  ASSERT_OK(db_->Commit(t1));
  deleter.join();
}

TEST_F(IsolationTest, PredicatesReplicatedAcrossSplits) {
  // T1 scans [0, 10000] while the range is small; T2 then inserts many
  // keys in [200,300] (outside nothing — all conflict!). Use a narrower
  // scan instead: T1 scans [10,20]; T2 grows the tree with keys outside
  // the range so the scanned leaf splits; then an insert INTO the range
  // must still block (the predicate followed the split).
  Transaction* t0 = db_->Begin();
  for (int64_t k = 12; k <= 18; k += 2) MustInsert(t0, k);
  ASSERT_OK(db_->Commit(t0));

  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_EQ(Scan(t1, 10, 20).size(), 4u);

  // Outside inserts proceed and split the leaves that hold [10,20].
  Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
  for (int64_t k = 100; k < 160; k++) MustInsert(t2, k);
  for (int64_t k = 0; k < 10; k++) MustInsert(t2, k);
  ASSERT_OK(db_->Commit(t2));
  EXPECT_GT(gist_->stats().splits.load(), 0u);

  // An insert into the scanned range must still block.
  std::atomic<bool> insert_done{false};
  std::thread inserter([&] {
    Transaction* t3 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db_->InsertRecord(t3, gist_, BtreeExtension::MakeKey(15), "v")
                  .status());
    insert_done = true;
    ASSERT_OK(db_->Commit(t3));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(insert_done.load())
      << "predicate was lost across node splits";
  ASSERT_OK(db_->Commit(t1));
  inserter.join();
}

TEST_F(IsolationTest, WaitingInsertRepositionsAcrossSplit) {
  // An insert blocked on a scan predicate has released its leaf latch; a
  // second insert splits that leaf meanwhile and moves the first one's
  // entry to the new sibling. On waking, the first insert must re-find
  // its entry through the rightlink (section 9.2's NSN-guided chase) and
  // re-check the predicates where the entry lives now.
  Transaction* t0 = db_->Begin();
  for (int64_t k = 0; k < 7; k++) MustInsert(t0, k);
  ASSERT_OK(db_->Commit(t0));

  Transaction* scanner = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_EQ(Scan(scanner, 0, 100).size(), 7u);

  auto wait_for_waits = [&](uint64_t n) {
    for (int i = 0; i < 1000 && gist_->stats().predicate_waits.load() < n;
         i++) {
      std::this_thread::sleep_for(10ms);
    }
    return gist_->stats().predicate_waits.load() >= n;
  };
  const uint64_t waits0 = gist_->stats().predicate_waits.load();
  // Key 7 fills the root leaf to its 8 entries, then waits on the scan.
  std::thread first([&] {
    Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
    MustInsert(txn, 7);
    ASSERT_OK(db_->Commit(txn));
  });
  ASSERT_TRUE(wait_for_waits(waits0 + 1));
  // Key 8 splits the full leaf (the root grows; the median cut moves keys
  // 4..7 right), then waits on the scan's replicated predicate.
  const uint64_t grows0 = gist_->stats().root_grows.load();
  std::thread second([&] {
    Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
    MustInsert(txn, 8);
    ASSERT_OK(db_->Commit(txn));
  });
  ASSERT_TRUE(wait_for_waits(waits0 + 2));
  EXPECT_EQ(gist_->stats().root_grows.load(), grows0 + 1);

  const uint64_t follows0 = gist_->stats().rightlink_follows.load();
  ASSERT_OK(db_->Commit(scanner));
  first.join();
  second.join();
  EXPECT_GE(gist_->stats().rightlink_follows.load(), follows0 + 1)
      << "the woken insert did not chase its moved entry";

  Transaction* t3 = db_->Begin(IsolationLevel::kReadCommitted);
  std::vector<int64_t> all = Scan(t3, 0, 100);
  ASSERT_OK(db_->Commit(t3));
  EXPECT_EQ(all, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_OK(gist_->CheckInvariants());
}

TEST_F(IsolationTest, PredicatesPercolateOnBpExpansion) {
  // T1 scans [100, 200] (empty region, predicate attached along the
  // then-existing paths). T2 inserts key 150: the target leaf's BP must
  // expand to cover 150, percolating T1's predicate down — and then T2
  // must block on it.
  Transaction* t0 = db_->Begin();
  for (int64_t k = 0; k < 40; k++) MustInsert(t0, k);
  ASSERT_OK(db_->Commit(t0));

  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_TRUE(Scan(t1, 100, 200).empty());

  std::atomic<bool> insert_done{false};
  std::thread inserter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(
        db_->InsertRecord(t2, gist_, BtreeExtension::MakeKey(150), "v")
            .status());
    insert_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(insert_done.load()) << "phantom slipped past BP expansion";
  ASSERT_OK(db_->Commit(t1));
  inserter.join();
}

// --- snapshot isolation (MVCC, DESIGN.md section 14) ----------------------
//
// Read-only transactions at IsolationLevel::kSnapshot read a commit-stamped
// version store instead of locking. These tests pin down the three promises
// that matter: stability (the snapshot never moves), zero lock-manager
// traffic, and unchanged 2PL semantics for read-write transactions.
using SnapshotIsolationTest = IsolationTest;

TEST_F(SnapshotIsolationTest, ScanIsStableAcrossConcurrentCommits) {
  Transaction* setup = db_->Begin();
  std::vector<Rid> rids;
  for (int64_t k = 1; k <= 5; k++) rids.push_back(MustInsert(setup, k));
  ASSERT_OK(db_->Commit(setup));

  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(snap->is_snapshot());
  EXPECT_EQ(Scan(snap, 0, 100), (std::vector<int64_t>{1, 2, 3, 4, 5}));

  // A writer commits an insert and a delete while the snapshot is open. It
  // must not block on the reader (the reader left no locks or predicates).
  Transaction* w = db_->Begin();
  MustInsert(w, 6);
  ASSERT_OK(db_->DeleteRecord(w, gist_, BtreeExtension::MakeKey(2), rids[1]));
  ASSERT_OK(db_->Commit(w));

  // A fresh transaction sees the new state; the snapshot still sees the old.
  Transaction* after = db_->Begin();
  EXPECT_EQ(Scan(after, 0, 100), (std::vector<int64_t>{1, 3, 4, 5, 6}));
  ASSERT_OK(db_->Commit(after));
  EXPECT_EQ(Scan(snap, 0, 100), (std::vector<int64_t>{1, 2, 3, 4, 5}));
  ASSERT_OK(db_->Commit(snap));
}

TEST_F(SnapshotIsolationTest, UncommittedAndLaterCommitsAreInvisible) {
  Transaction* w = db_->Begin();
  MustInsert(w, 42);

  // The uncommitted insert is invisible — and the scan does not block on
  // the writer's X record lock, because it takes no locks at all.
  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_TRUE(Scan(snap, 0, 100).empty());

  ASSERT_OK(db_->Commit(w));
  // Committed after the snapshot began: still invisible to it.
  EXPECT_TRUE(Scan(snap, 0, 100).empty());
  ASSERT_OK(db_->Commit(snap));

  // A snapshot begun after the commit flushed sees it.
  Transaction* snap2 = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(Scan(snap2, 0, 100), (std::vector<int64_t>{42}));
  ASSERT_OK(db_->Commit(snap2));
}

TEST_F(SnapshotIsolationTest, SnapshotReadsMakeZeroLockManagerCalls) {
  Transaction* setup = db_->Begin();
  for (int64_t k = 1; k <= 20; k++) MustInsert(setup, k);
  ASSERT_OK(db_->Commit(setup));

  obs::Counter* acquires = db_->metrics()->GetCounter("lock.acquires");
  obs::Counter* reads = db_->metrics()->GetCounter("mvcc.snapshot_reads");
  const uint64_t acquires_before = acquires->value();
  const uint64_t reads_before = reads->value();

  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(Scan(snap, 0, 100).size(), 20u);
  ASSERT_OK(db_->Commit(snap));

  // No other transaction ran: any delta is the snapshot path's own.
  EXPECT_EQ(acquires->value(), acquires_before)
      << "snapshot read path called into the lock manager";
  EXPECT_EQ(reads->value(), reads_before + 1);
}

TEST_F(SnapshotIsolationTest, SnapshotTransactionsAreReadOnly) {
  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(db_->InsertRecord(snap, gist_, BtreeExtension::MakeKey(1), "v")
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(db_->DeleteRecord(snap, gist_, BtreeExtension::MakeKey(1), Rid{})
                .code(),
            Status::Code::kInvalidArgument);
  ASSERT_OK(db_->Commit(snap));
}

TEST_F(SnapshotIsolationTest, AbortedSnapshotReaderCountsAsAbort) {
  obs::Counter* commits = db_->metrics()->GetCounter("txn.commits");
  obs::Counter* aborts = db_->metrics()->GetCounter("txn.aborts");
  const uint64_t commits_before = commits->value();
  const uint64_t aborts_before = aborts->value();

  Transaction* snap = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(Scan(snap, 0, 100).size(), 0u);
  ASSERT_OK(db_->Abort(snap));

  // An aborted reader must not masquerade as a commit in the lifecycle
  // metrics.
  EXPECT_EQ(commits->value(), commits_before);
  EXPECT_EQ(aborts->value(), aborts_before + 1);
}

TEST_F(SnapshotIsolationTest, WriteSkewStillPreventedForReadWrite) {
  // The classic write-skew shape: each transaction scans the range the
  // other inserts into. Under 2PL + predicate locking this deadlocks with
  // exactly one victim — MVCC must not have weakened the read-write path.
  std::atomic<int> scanned{0};
  std::atomic<int> committed{0};
  std::atomic<int> deadlocked{0};
  auto run = [&](int64_t scan_lo, int64_t insert_key) {
    Transaction* t = db_->Begin(IsolationLevel::kRepeatableRead);
    EXPECT_TRUE(Scan(t, scan_lo, scan_lo + 10).empty());
    scanned++;
    while (scanned.load() < 2) std::this_thread::yield();
    Status st =
        db_->InsertRecord(t, gist_, BtreeExtension::MakeKey(insert_key), "v")
            .status();
    if (st.ok()) {
      committed++;
      EXPECT_OK(db_->Commit(t));
    } else {
      EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
      deadlocked++;
      EXPECT_OK(db_->Abort(t));
    }
  };
  std::thread a([&] { run(100, 205); });
  std::thread b([&] { run(200, 105); });
  a.join();
  b.join();
  EXPECT_EQ(deadlocked.load(), 1) << "write skew was not prevented";
  EXPECT_EQ(committed.load(), 1);
}

// A snapshot sees each commit whole or not at all, and keeps seeing what
// it saw. Writers commit a key pair {k, k + 1000} in one transaction and
// delete it in a second; readers scan twice per snapshot. A torn pair, or
// a second scan that differs from the first, is a commit whose versions
// were stamped after a snapshot stamp covered its Commit record. A
// writer's snapshot begun after its commit returns must see its own pair.
TEST_F(SnapshotIsolationTest, SnapshotsSeeWholeCommitsUnderLoad) {
  constexpr int64_t kPairOffset = 1000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots{0};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> unstable{0};
  std::atomic<uint64_t> own_missing{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (int64_t w = 0; w < 2; w++) {
    threads.emplace_back([&, w] {
      for (int64_t i = 0; !stop.load(); i++) {
        const int64_t k = 1 + w * 500 + i % 400;
        Transaction* ins = db_->Begin();
        auto lo = db_->InsertRecord(ins, gist_, BtreeExtension::MakeKey(k),
                                    "v");
        auto hi = db_->InsertRecord(
            ins, gist_, BtreeExtension::MakeKey(k + kPairOffset), "v");
        if (!lo.ok() || !hi.ok() || !db_->Commit(ins).ok()) {
          failed++;
          return;
        }
        Transaction* own = db_->Begin(IsolationLevel::kSnapshot);
        if (Scan(own, k, k).size() != 1 ||
            Scan(own, k + kPairOffset, k + kPairOffset).size() != 1) {
          own_missing++;
        }
        if (!db_->Commit(own).ok()) failed++;
        Transaction* del = db_->Begin();
        if (!db_->DeleteRecord(del, gist_, BtreeExtension::MakeKey(k),
                               lo.value())
                 .ok() ||
            !db_->DeleteRecord(del, gist_,
                               BtreeExtension::MakeKey(k + kPairOffset),
                               hi.value())
                 .ok() ||
            !db_->Commit(del).ok()) {
          failed++;
          return;
        }
      }
    });
  }
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        Transaction* t = db_->Begin(IsolationLevel::kSnapshot);
        const std::vector<int64_t> first = Scan(t, 0, 2 * kPairOffset);
        const std::vector<int64_t> second = Scan(t, 0, 2 * kPairOffset);
        if (!db_->Commit(t).ok()) failed++;
        if (first != second) unstable++;
        for (int64_t key : first) {
          const int64_t mate =
              key < kPairOffset ? key + kPairOffset : key - kPairOffset;
          if (!std::binary_search(first.begin(), first.end(), mate)) {
            torn++;
            break;
          }
        }
        snapshots++;
      }
    });
  }
  std::this_thread::sleep_for(1500ms);
  stop = true;
  for (std::thread& t : threads) t.join();
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(torn.load(), 0u) << "of " << snapshots.load() << " snapshots";
  EXPECT_EQ(unstable.load(), 0u) << "of " << snapshots.load() << " snapshots";
  EXPECT_EQ(own_missing.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
}

// The commit window itself: a snapshot begun after the Commit record is
// durable but before Commit returns must see the commit, and see it again
// once Commit returns. A commit stamps its versions inside the append of
// its Commit record, so no durable LSN ever covers an unstamped commit.
TEST_F(SnapshotIsolationTest, SnapshotBegunInsideCommitSeesItStably) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  Transaction* w = db_->Begin();
  MustInsert(w, 42);
  Transaction* snap = nullptr;
  std::vector<int64_t> inside;
  FaultInjector::Global().Reset();
  // The writer's next append is its Commit record.
  FaultInjector::Global().ArmCrashPointHook("txn.after_log_append", [&] {
    EXPECT_OK(db_->log()->FlushAll());
    snap = db_->Begin(IsolationLevel::kSnapshot);
    inside = Scan(snap, 0, 100);
  });
  ASSERT_OK(db_->Commit(w));
  FaultInjector::Global().Reset();
  ASSERT_NE(snap, nullptr);
  ASSERT_TRUE(snap->is_snapshot());
  EXPECT_EQ(inside, (std::vector<int64_t>{42}));
  EXPECT_EQ(Scan(snap, 0, 100), (std::vector<int64_t>{42}));
  ASSERT_OK(db_->Commit(snap));
}

// The pure-predicate-locking mode (section 4.2 / ablation C2) must provide
// the same isolation, checked before traversal.
class GlobalPredicateTest : public IsolationTest {
 protected:
  void SetUp() override { SetUpMode(PredicateMode::kGlobal); }
};

TEST_F(GlobalPredicateTest, PhantomInsertBlocksGlobally) {
  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_TRUE(Scan(t1, 10, 20).empty());
  std::atomic<bool> insert_done{false};
  std::thread inserter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db_->InsertRecord(t2, gist_, BtreeExtension::MakeKey(15), "v")
                  .status());
    insert_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(insert_done.load());
  ASSERT_OK(db_->Commit(t1));
  inserter.join();
}

TEST_F(GlobalPredicateTest, SearchBlocksOnRegisteredInsertKey) {
  // Pure predicate locking: a scan must check registered insert keys
  // before starting (section 4.2).
  Transaction* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  MustInsert(t1, 15);  // key registered globally, X lock held

  std::atomic<bool> scan_done{false};
  std::thread scanner([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kRepeatableRead);
    std::vector<SearchResult> results;
    ASSERT_OK(
        gist_->Search(t2, BtreeExtension::MakeRange(10, 20), &results));
    scan_done = true;
    EXPECT_EQ(results.size(), 1u);
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(scan_done.load());
  ASSERT_OK(db_->Commit(t1));
  scanner.join();
}

TEST_F(GlobalPredicateTest, CursorBlocksPhantomInsert) {
  // A repeatable-read cursor registers its predicate like Search does.
  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  GistCursor cursor(gist_, t1, BtreeExtension::MakeRange(10, 20));
  ASSERT_OK(cursor.Open());
  SearchResult r;
  bool done = false;
  ASSERT_OK(cursor.Next(&r, &done));
  EXPECT_TRUE(done);
  std::atomic<bool> insert_done{false};
  std::thread inserter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db_->InsertRecord(t2, gist_, BtreeExtension::MakeKey(15), "v")
                  .status());
    insert_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(150ms);
  EXPECT_FALSE(insert_done.load());
  ASSERT_OK(db_->Commit(t1));
  inserter.join();
}

TEST_F(GlobalPredicateTest, UniqueInsertBlocksOnScan) {
  // A unique insert checks its key against registered scans exactly as a
  // plain insert does.
  Transaction* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  EXPECT_TRUE(Scan(t1, 10, 20).empty());
  std::atomic<bool> insert_done{false};
  std::thread inserter([&] {
    Transaction* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_OK(db_->InsertRecord(t2, gist_, BtreeExtension::MakeKey(15), "v",
                                /*unique=*/true)
                  .status());
    insert_done = true;
    ASSERT_OK(db_->Commit(t2));
  });
  std::this_thread::sleep_for(150ms);
  EXPECT_FALSE(insert_done.load());
  ASSERT_OK(db_->Commit(t1));
  inserter.join();
}

}  // namespace
}  // namespace gistcr
