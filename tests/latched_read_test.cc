#include <gtest/gtest.h>

#include <dirent.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "access/btree_extension.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace gistcr {
namespace {

/// Torture suite for the Figure 3 read path: S-latched searches that
/// compensate for concurrent splits with memorized NSNs and rightlinks.
///
/// Read-committed searches run against concurrent splits, logical deletes,
/// GC node deletion and buffer-pool eviction, and every result set is
/// checked against watermark invariants that a correct reader satisfies:
///   - a key whose delete committed before the search began must be absent;
///   - a key whose insert committed before the search began and for which
///     no delete had even been *announced* by the time the search finished
///     must be present;
///   - no duplicate keys, no keys outside the committed universe (a
///     missed or doubled split compensation would manifest as lost,
///     repeated or foreign entries).
///
/// The suite name contains "LatchedRead" on purpose: the TSan CI leg
/// selects concurrency suites by regex.
// ---------------------------------------------------------------------
// Stall watchdog: a torture run that stops making progress is a latent
// deadlock; dump every thread's stack and abort instead of letting CI
// time the job out with no forensics.
// ---------------------------------------------------------------------

void DumpThreadStack(int) {
  void* frames[64];
  const int n = backtrace(frames, 64);
  char hdr[64];
  const int len = snprintf(hdr, sizeof(hdr), "\n-- stack of tid %ld --\n",
                           static_cast<long>(syscall(SYS_gettid)));
  (void)!write(2, hdr, static_cast<size_t>(len));
  backtrace_symbols_fd(frames, n, 2);
}

/// Watches \p progress; if it stops advancing for ~30s, SIGUSR1s every
/// thread in the process (each dumps its stack to stderr) and aborts.
class StallWatchdog {
 public:
  explicit StallWatchdog(std::atomic<uint64_t>* progress)
      : progress_(progress) {
    struct sigaction sa = {};
    sa.sa_handler = DumpThreadStack;
    sigaction(SIGUSR1, &sa, nullptr);
    thread_ = std::thread([this] { Run(); });
  }
  ~StallWatchdog() {
    stop_.store(true);
    thread_.join();
  }

 private:
  void Run() {
    uint64_t last = progress_->load();
    int stalled = 0;
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      const uint64_t now = progress_->load();
      stalled = (now == last) ? stalled + 1 : 0;
      last = now;
      if (stalled >= 30) {
        fprintf(stderr, "torture stalled for %ds; dumping stacks\n", stalled);
        DIR* d = opendir("/proc/self/task");
        if (d != nullptr) {
          const pid_t self = getpid();
          while (struct dirent* e = readdir(d)) {
            const long tid = atol(e->d_name);
            if (tid <= 0) continue;
            syscall(SYS_tgkill, self, static_cast<pid_t>(tid), SIGUSR1);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          closedir(d);
        }
        std::this_thread::sleep_for(std::chrono::seconds(2));
        abort();
      }
    }
  }

  std::atomic<uint64_t>* progress_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

class LatchedReadTest : public ::testing::Test {
 protected:
  void SetUpDb(uint32_t pool_pages, uint16_t max_entries) {
    path_ = TestPath("latchread");
    RemoveDbFiles(path_);
    DatabaseOptions opts;
    opts.path = path_;
    opts.buffer_pool_pages = pool_pages;
    auto db_or = Database::Create(opts);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    GistOptions gopts;
    gopts.protocol = ConcurrencyProtocol::kLink;
    gopts.max_entries = max_entries;
    ASSERT_OK(db_->CreateIndex(1, &ext_, gopts));
    gist_ = db_->GetIndex(1).value();
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }

  /// Same retry-loop convention as ConcurrencyTest: deadlock/busy victims
  /// begin a fresh transaction (standard application behaviour).
  void WithTxnRetry(const std::function<Status(Transaction*)>& fn) {
    for (int attempt = 0; attempt < 100; attempt++) {
      Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
      Status st = fn(txn);
      if (st.ok()) {
        st = db_->Commit(txn);
        if (st.ok()) return;
        continue;
      }
      (void)db_->Abort(txn);
      if (st.IsDeadlock() || st.IsBusy()) continue;
      FAIL() << "operation failed: " << st.ToString();
      return;
    }
    FAIL() << "retries exhausted";
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

// ---------------------------------------------------------------------
// The torture test proper: searches vs splits, deletes, GC and eviction,
// validated with per-writer watermarks.
// ---------------------------------------------------------------------

TEST_F(LatchedReadTest, TortureVsSplitsDeletesEviction) {
  // Small pool (the tree outgrows it, so frames recycle under readers) and
  // small nodes (constant splitting).
  SetUpDb(/*pool_pages=*/256, /*max_entries=*/8);
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int64_t kNamespace = 1'000'000;
  constexpr int kPerWriter = 900;
  constexpr int kInsertBatch = 6;
  constexpr int kDeleteBatch = 4;

  // Per-writer watermarks. Keys of writer t are base=t*kNamespace + offset.
  //   ins_done:   offsets [0, ins_done) are insert-committed.
  //   del_intent: a delete transaction covering offsets [0, del_intent) has
  //               been announced (published BEFORE the txn begins).
  //   del_done:   offsets [0, del_done) are delete-committed.
  std::atomic<int64_t> ins_done[kWriters];
  std::atomic<int64_t> del_intent[kWriters];
  std::atomic<int64_t> del_done[kWriters];
  for (int t = 0; t < kWriters; t++) {
    ins_done[t] = 0;
    del_intent[t] = 0;
    del_done[t] = 0;
  }

  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> progress{0};
  StallWatchdog watchdog(&progress);
  std::vector<std::thread> threads;

  for (int t = 0; t < kWriters; t++) {
    threads.emplace_back([&, t] {
      const int64_t base = static_cast<int64_t>(t) * kNamespace;
      std::vector<Rid> rids;  // rids[o] = rid of key base+o (this thread only)
      rids.reserve(kPerWriter);
      int batches = 0;
      while (ins_done[t].load() < kPerWriter) {
        // Insert a batch of fresh keys, then publish the watermark.
        const int64_t lo = ins_done[t].load();
        const int64_t hi = std::min<int64_t>(lo + kInsertBatch, kPerWriter);
        std::vector<Rid> staged;
        WithTxnRetry([&](Transaction* txn) {
          staged.clear();
          for (int64_t o = lo; o < hi; o++) {
            auto rid = db_->InsertRecord(txn, gist_,
                                         BtreeExtension::MakeKey(base + o),
                                         "v");
            if (!rid.ok()) return rid.status();
            staged.push_back(rid.value());
          }
          return Status::OK();
        });
        for (const Rid& r : staged) rids.push_back(r);
        ins_done[t].store(hi);
        progress.fetch_add(1);

        // Every third batch, delete the oldest still-live keys. The intent
        // watermark is published BEFORE the transaction begins so readers
        // can tell "no delete was even underway" from "a delete may have
        // committed but its done-watermark publish is still in flight".
        if (++batches % 3 == 0) {
          const int64_t dlo = del_done[t].load();
          const int64_t dhi =
              std::min<int64_t>(dlo + kDeleteBatch, ins_done[t].load());
          if (dhi > dlo) {
            del_intent[t].store(dhi);
            WithTxnRetry([&](Transaction* txn) {
              for (int64_t o = dlo; o < dhi; o++) {
                Status st = db_->DeleteRecord(
                    txn, gist_, BtreeExtension::MakeKey(base + o),
                    rids[static_cast<size_t>(o)]);
                if (!st.ok() && !st.IsNotFound()) return st;
              }
              return Status::OK();
            });
            del_done[t].store(dhi);
          }
        }
      }
    });
  }

  // A maintenance thread sweeps committed-deleted entries and deletes empty
  // nodes (drain technique) — node reuse racing readers.
  threads.emplace_back([&] {
    while (!writers_done.load()) {
      WithTxnRetry([&](Transaction* txn) {
        uint64_t removed = 0, nodes = 0;
        return gist_->GarbageCollect(txn, &removed, &nodes);
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::atomic<uint64_t> searches_checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      Random rng(static_cast<uint64_t>(r) * 977 + 13);
      // Keep racing while writers run, but always check a minimum number of
      // searches per reader — on a loaded single-core host the writers can
      // finish before a reader gets scheduled at all, and the watermark
      // invariants hold just as well against the final (static) tree.
      for (int i = 0; i < 20 || !writers_done.load(); i++) {
        const int t = static_cast<int>(rng.Uniform(kWriters));
        const int64_t base = static_cast<int64_t>(t) * kNamespace;
        // Sub-range of the namespace (sometimes the whole namespace).
        int64_t a = 0, b = kPerWriter;
        if (!rng.OneIn(4)) {
          a = rng.UniformRange(0, kPerWriter);
          b = std::min<int64_t>(a + 120, kPerWriter);
        }

        // Watermarks before the search...
        const int64_t d_done0 = del_done[t].load();
        const int64_t c0 = ins_done[t].load();

        std::vector<SearchResult> results;
        WithTxnRetry([&](Transaction* txn) {
          results.clear();
          return gist_->Search(
              txn, BtreeExtension::MakeRange(base + a, base + b - 1),
              &results);
        });

        // ...and the delete-intent watermark after it.
        const int64_t d_int1 = del_intent[t].load();

        std::set<int64_t> offsets;
        for (const auto& res : results) {
          const int64_t k = BtreeExtension::Lo(res.key);
          const int64_t o = k - base;
          // No torn garbage: every key is inside the searched range of the
          // committed universe.
          ASSERT_GE(o, a) << "key " << k << " outside searched range";
          ASSERT_LT(o, b) << "key " << k << " outside searched range";
          // No duplicates.
          ASSERT_TRUE(offsets.insert(o).second) << "duplicate key " << k;
          // Deleted-committed-before-start keys must be gone.
          ASSERT_GE(o, d_done0)
              << "key " << k << " visible after its delete committed";
        }
        // Inserted-committed-before-start keys with no delete announced by
        // the end of the search must all be present.
        for (int64_t o = std::max(a, d_int1); o < std::min(b, c0); o++) {
          ASSERT_TRUE(offsets.count(o))
              << "lost key " << base + o << " (ins_done=" << c0
              << " del_intent=" << d_int1 << ")";
        }
        searches_checked.fetch_add(1);
        progress.fetch_add(1);
      }
    });
  }

  // Join writers first, then stop the maintenance + reader loops.
  for (size_t i = 0; i + 1 < threads.size(); i++) threads[i].join();
  writers_done = true;
  threads.back().join();
  for (auto& th : readers) th.join();

  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_GT(searches_checked.load(), 50u);
  EXPECT_GT(gist_->stats().splits.load(), 0u);

  // Final state matches the watermarks exactly: everything in
  // [del_done, ins_done) per writer, nothing else.
  Transaction* txn = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(gist_->Search(
      txn,
      BtreeExtension::MakeRange(0, kWriters * kNamespace + kPerWriter),
      &results));
  ASSERT_OK(db_->Commit(txn));
  std::set<int64_t> found;
  for (const auto& res : results) found.insert(BtreeExtension::Lo(res.key));
  size_t want = 0;
  for (int t = 0; t < kWriters; t++) {
    const int64_t base = static_cast<int64_t>(t) * kNamespace;
    for (int64_t o = del_done[t].load(); o < ins_done[t].load(); o++) {
      EXPECT_TRUE(found.count(base + o)) << "lost key " << base + o;
      want++;
    }
  }
  EXPECT_EQ(found.size(), want);
}

// ---------------------------------------------------------------------
// Root-grow publication: the race the torture test above occasionally
// reproduced under TSan load. GrowRoot appends the NSN-assigning
// Split record and only later repoints the meta page; a reader that memorized
// the global NSN counter AFTER the append but read the root pointer BEFORE
// the repoint would descend into the shrunken old root with memorized >= the
// new NSN — the strict `nsn > memorized` rightlink test then hides the moved
// half and the reader loses committed keys. The fix X-latches the meta page
// across the whole window (append → SetRoot), so any root-pointer read that
// completes after the append also sees the new root. The `during_root_grow`
// hook fires inside that window and makes the interleaving deterministic.
// ---------------------------------------------------------------------

TEST_F(LatchedReadTest, RootGrowPublishesNewRoot) {
  SetUpDb(/*pool_pages=*/512, /*max_entries=*/4);

  std::atomic<bool> fired{false};
  std::atomic<int64_t> committed{0};
  std::thread reader;
  std::atomic<bool> reader_ok{true};
  std::string reader_msg;

  gist_->test_hooks().during_root_grow = [&] {
    // First root grow only: the window exists on every grow, but one
    // deterministic interleaving is all the regression needs.
    if (fired.exchange(true)) return;
    reader = std::thread([&] {
      // Runs strictly inside the window: the Split record (and its NSN) is
      // already logged, the meta page still points at the old root. The
      // search memorizes the counter, then blocks on the meta latch until
      // GrowRoot finishes — and must then see every committed key via the
      // new root. Pre-fix it read the stale root pointer here and lost the
      // moved half.
      const int64_t n = committed.load();
      Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
      std::vector<SearchResult> results;
      Status st = gist_->Search(txn, BtreeExtension::MakeRange(0, n - 1),
                                &results);
      if (st.ok()) st = db_->Commit(txn);
      if (!st.ok()) {
        reader_ok = false;
        reader_msg = st.ToString();
        return;
      }
      std::set<int64_t> got;
      for (const auto& res : results) got.insert(BtreeExtension::Lo(res.key));
      for (int64_t k = 0; k < n; k++) {
        if (!got.count(k)) {
          reader_ok = false;
          reader_msg = "lost key " + std::to_string(k) + " of " +
                       std::to_string(n) + " across root grow";
          return;
        }
      }
    });
    // Give the reader time to memorize the NSN counter and reach the root
    // pointer read while this thread still holds the meta X-latch.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };

  // One committed key per transaction until the first root grow fires
  // (max_entries=4: a handful of inserts suffice).
  for (int64_t k = 0; k < 64 && !fired.load(); k++) {
    WithTxnRetry([&](Transaction* txn) {
      return db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(k), "v")
          .status();
    });
    committed.store(k + 1);
  }
  ASSERT_TRUE(fired.load()) << "root never grew";
  reader.join();
  gist_->test_hooks().during_root_grow = nullptr;
  EXPECT_TRUE(reader_ok.load()) << reader_msg;
  ASSERT_OK(gist_->CheckInvariants());
}

// ---------------------------------------------------------------------
// Root-grow soak: repeated root growth under concurrent readers. Every
// search over the committed prefix must return it in full — the torture
// configuration that reproduced the lost-key race, promoted to a focused
// always-on leg (suite name carries "LatchedRead" for the TSan regex).
// ---------------------------------------------------------------------

TEST_F(LatchedReadTest, RootGrowSoak) {
  // max_entries=4 keeps the fanout tiny so the root grows many times as
  // the key space fills; a modest pool keeps everything resident.
  SetUpDb(/*pool_pages=*/2048, /*max_entries=*/4);
  constexpr int64_t kKeys = 1500;

  std::atomic<int64_t> committed{0};
  std::thread writer([&] {
    for (int64_t k = 0; k < kKeys;) {
      const int64_t hi = std::min<int64_t>(k + 5, kKeys);
      WithTxnRetry([&](Transaction* txn) {
        for (int64_t o = k; o < hi; o++) {
          auto rid = db_->InsertRecord(txn, gist_,
                                       BtreeExtension::MakeKey(o), "v");
          if (!rid.ok()) return rid.status();
        }
        return Status::OK();
      });
      k = hi;
      committed.store(hi);
    }
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  std::atomic<uint64_t> checked{0};
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      Random rng(static_cast<uint64_t>(r) * 31 + 7);
      while (committed.load() < kKeys) {
        const int64_t n = committed.load();
        if (n == 0) continue;
        // Whole prefix or a window of it — both must come back complete.
        int64_t a = 0, b = n;
        if (!rng.OneIn(3) && n > 40) {
          a = rng.UniformRange(0, n - 40);
          b = a + 40;
        }
        std::vector<SearchResult> results;
        WithTxnRetry([&](Transaction* txn) {
          results.clear();
          return gist_->Search(txn, BtreeExtension::MakeRange(a, b - 1),
                               &results);
        });
        std::set<int64_t> got;
        for (const auto& res : results) got.insert(BtreeExtension::Lo(res.key));
        ASSERT_EQ(got.size(), results.size()) << "duplicate entries";
        for (int64_t k = a; k < b; k++) {
          ASSERT_TRUE(got.count(k))
              << "lost key " << k << " (committed=" << n << ")";
        }
        checked.fetch_add(1);
      }
    });
  }

  writer.join();
  for (auto& th : readers) th.join();

  ASSERT_OK(gist_->CheckInvariants());
  EXPECT_GT(checked.load(), 10u);
  // The soak is pointless unless the root actually grew repeatedly.
  EXPECT_GT(gist_->stats().splits.load(), 20u);
}

}  // namespace
}  // namespace gistcr
