// Group-commit semantics of the dedicated WAL flusher (DESIGN.md section
// 11): durable_lsn monotonicity under concurrent committers, a flush error
// reaching every blocked waiter and stopping the log, and DiscardTail
// racing the flusher.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "storage/fault_injector.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace gistcr {
namespace {

class WalFlusherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (kFaultInjectionCompiled) {
      FaultInjector::Global().Reset();
    }
    path_ = TestPath("flusher") + ".wal";
    std::remove(path_.c_str());
    // Attach before Open: Open starts the flusher thread, which reads the
    // cached metric pointers from then on.
    log_.AttachMetrics(&reg_);
    ASSERT_OK(log_.Open(path_));
  }
  void TearDown() override {
    log_.Close();
    std::remove(path_.c_str());
    if constexpr (kFaultInjectionCompiled) {
      FaultInjector::Global().Reset();
    }
  }

  Lsn AppendCommit(TxnId txn) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = txn;
    rec.payload = "c";
    EXPECT_OK(log_.Append(&rec));
    return rec.lsn;
  }

  /// The log stopped with \p first: an append and a flush past the
  /// durable LSN both return it.
  void ExpectStopped(const Status& first) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    EXPECT_EQ(log_.Append(&rec).ToString(), first.ToString());
    EXPECT_EQ(log_.FlushAll().ToString(), first.ToString());
  }

  /// Closes and reopens the log: each of \p lsns reads back as a Commit
  /// record (its pwrite landed before the failed sync), and appends resume
  /// right after the last of them.
  void ReopenAndCheck(const std::vector<Lsn>& lsns) {
    log_.Close();
    ASSERT_OK(log_.Open(path_));
    LogRecord rec;
    for (Lsn lsn : lsns) {
      ASSERT_OK(log_.ReadRecord(lsn, &rec));
      EXPECT_EQ(rec.type, LogRecordType::kCommit);
    }
    const Lsn next = AppendCommit(99);
    EXPECT_EQ(next, lsns.back() + rec.SerializedSize());
    EXPECT_OK(log_.Flush(next));
  }

  std::string path_;
  obs::MetricsRegistry reg_;
  LogManager log_;
};

// The commit contract: after Flush(lsn) returns OK, durable_lsn() covers
// lsn — and durable_lsn never moves backwards, no matter how many
// committers race and how the flusher batches them.
TEST_F(WalFlusherTest, DurableLsnMonotoneUnderConcurrentCommitters) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> regressions{0};
  std::thread monitor([&] {
    Lsn prev = kInvalidLsn;
    while (!stop.load(std::memory_order_acquire)) {
      const Lsn d = log_.durable_lsn();
      if (prev != kInvalidLsn && d != kInvalidLsn && d < prev) {
        regressions.fetch_add(1);
      }
      if (d != kInvalidLsn) prev = d;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> committers;
  for (int t = 0; t < kThreads; t++) {
    committers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        const Lsn lsn =
            AppendCommit(static_cast<TxnId>(t * kPerThread + i + 1));
        EXPECT_OK(log_.Flush(lsn));
        EXPECT_GE(log_.durable_lsn(), lsn);
      }
    });
  }
  for (auto& th : committers) th.join();
  stop.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_EQ(log_.durable_lsn(), log_.last_lsn());
  // 1600 flush requests must not mean 1600 fsyncs; the exact batching is
  // timing-dependent but at least one flush must have retired >1 request
  // on any real machine. Keep the hard bound loose: no more flushes than
  // requests.
  EXPECT_GE(reg_.GetCounter("wal.flushes")->value(), 1u);
  EXPECT_LE(reg_.GetCounter("wal.flushes")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// The deterministic half of the error contract: a lone waiter blocked on
// a failing attempt MUST observe the error, and the log stops with it:
// nothing retries the batch, later appends and flushes return the same
// error, and only a reopen resumes, at the durable end.
TEST_F(WalFlusherTest, FlushErrorReachesTheBlockedWaiter) {
  if constexpr (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "fault injection not compiled in";
  }
  const Lsn lsn = AppendCommit(1);
  FaultInjector::Global().FailNextSyncs(1);
  const Status st = log_.Flush(lsn);
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(reg_.GetCounter("wal.flusher.errors")->value(), 1u);
  ExpectStopped(st);
  ReopenAndCheck({lsn});
}

// The fan-out: every waiter parked on the failing attempt returns. An OK
// is truthful (the waiter's LSN is durable); an error is the one IOError
// that stopped the log, which later appends and flushes return too.
TEST_F(WalFlusherTest, FlushErrorFansOutToBlockedWaiters) {
  if constexpr (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "fault injection not compiled in";
  }
  constexpr int kWaiters = 8;
  std::vector<Lsn> lsns;
  for (int i = 0; i < kWaiters; i++) {
    lsns.push_back(AppendCommit(static_cast<TxnId>(i + 1)));
  }
  FaultInjector::Global().FailNextSyncs(1);
  std::vector<Status> results(kWaiters);
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; i++) {
    waiters.emplace_back([&, i] {
      results[i] = log_.Flush(lsns[i]);
      if (results[i].ok()) {
        EXPECT_GE(log_.durable_lsn(), lsns[i]);
      }
    });
  }
  for (auto& t : waiters) t.join();
  Status first;
  for (const Status& st : results) {
    if (st.ok()) continue;
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    if (first.ok()) first = st;
    EXPECT_EQ(st.ToString(), first.ToString());
  }
  ASSERT_FALSE(first.ok()) << "the failed batch held every waiter's record";
  EXPECT_EQ(reg_.GetCounter("wal.flusher.errors")->value(), 1u);
  ExpectStopped(first);
  ReopenAndCheck(lsns);
}

// DiscardTail (the crash simulation) racing appenders and the flusher,
// one discard per round over many rounds on a reopened log: the discard
// never hangs, each writer runs until the stopped log refuses it
// (Aborted), and every OK from Flush is truthful — after the reopen its
// LSN holds that writer's record, since no LSN is handed out twice.
TEST_F(WalFlusherTest, DiscardTailRacesFlusher) {
  constexpr int kWriters = 4;
  constexpr int kRounds = 20;
  uint64_t committed = 0;
  for (int round = 0; round < kRounds; round++) {
    std::atomic<uint64_t> outcomes{0};
    std::vector<std::vector<Lsn>> oks(kWriters);
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; t++) {
      writers.emplace_back([&, t] {
        for (;;) {
          LogRecord rec;
          rec.type = LogRecordType::kCommit;
          rec.txn_id = static_cast<TxnId>(t + 1);
          rec.payload = "c";
          Status st = log_.Append(&rec);
          if (st.ok()) st = log_.Flush(rec.lsn);
          outcomes.fetch_add(1);
          if (!st.ok()) {
            EXPECT_TRUE(st.IsAborted()) << st.ToString();
            return;
          }
          oks[t].push_back(rec.lsn);
        }
      });
    }
    // Discard once some Flush has resolved (bounded wait), so the discard
    // races live traffic even when a sanitizer stalls the writers.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (outcomes.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    log_.DiscardTail();
    for (auto& t : writers) t.join();

    log_.Close();
    ASSERT_OK(log_.Open(path_));
    std::map<Lsn, TxnId> durable;
    Lsn end = LogManager::kFirstLsn;
    ASSERT_OK(log_.Scan(kInvalidLsn, kInvalidLsn, [&](const LogRecord& rec) {
      EXPECT_EQ(rec.type, LogRecordType::kCommit);
      durable[rec.lsn] = rec.txn_id;
      end = rec.lsn + rec.SerializedSize();
      return true;
    }));
    EXPECT_EQ(log_.next_lsn(), end) << "round " << round;
    for (int t = 0; t < kWriters; t++) {
      for (Lsn lsn : oks[t]) {
        const auto it = durable.find(lsn);
        ASSERT_NE(it, durable.end()) << "round " << round << " lsn " << lsn;
        EXPECT_EQ(it->second, static_cast<TxnId>(t + 1));
      }
      committed += oks[t].size();
    }
  }
  EXPECT_GT(committed, 0u);
}

// Unforced appends stay volatile: the flusher must not eagerly sync
// records nobody asked to make durable (wal_test relies on this for
// crash simulation; here we pin the contract directly).
TEST_F(WalFlusherTest, FlusherDoesNotFlushUnrequestedRecords) {
  const uint64_t flushes_before = reg_.GetCounter("wal.flushes")->value();
  const Lsn a = AppendCommit(1);
  // Give the flusher thread many scheduling quanta to misbehave; an eager
  // flusher would wake and sync within a handful of them. Polling the
  // flush counter (instead of sleeping a fixed 20ms) keeps the check
  // meaningful under sanitizers and makes any violation observable the
  // moment it happens.
  for (int i = 0; i < 200; i++) {
    std::this_thread::yield();
    ASSERT_EQ(reg_.GetCounter("wal.flushes")->value(), flushes_before);
    ASSERT_LT(log_.durable_lsn() == kInvalidLsn ? 0 : log_.durable_lsn(), a);
  }
  ASSERT_OK(log_.Flush(a));
  EXPECT_GE(log_.durable_lsn(), a);
}

}  // namespace
}  // namespace gistcr
