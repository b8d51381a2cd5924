// Unit tests for the runtime lock-order detector (common/deadlock_detector.h).
//
// The cycle tests are death tests: the detector's only reporting channel is
// a CHECK-style abort with both acquisition stacks, so each scenario runs in
// a forked child and the parent matches the report on stderr. All scenarios
// are single-threaded — the detector works off the cumulative acquisition
// graph, so taking A->B and then B->A from one thread is exactly as fatal
// as the interleaved two-thread deadlock it predicts.
//
// Scratch mutexes use LockRank::kScratch, the designated coupling-allowed
// test rank, so same-rank nesting is legal and ordering violations surface
// as graph cycles rather than rank-inversion failures. No test ever frees
// a mutex: node identity in the detector graph is the object address, and
// a recycled slot would alias edges from an earlier test. They stay
// reachable from one process-lifetime list, so leak checkers stay quiet.

#include "common/deadlock_detector.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"

namespace gistcr {
namespace {

#if GISTCR_DEADLOCK_DETECTOR

/// A mutex that lives until the process exits (see the file comment).
Mutex* NewMutex(LockRank rank, const char* name) {
  static auto* all = new std::vector<std::unique_ptr<Mutex>>();
  all->push_back(std::make_unique<Mutex>(rank, name));
  return all->back().get();
}

Mutex* NewScratch(const char* name) {
  return NewMutex(LockRank::kScratch, name);
}

TEST(DeadlockDetectorTest, CorrectOrderIsQuiet) {
  Mutex* a = NewScratch("test.quiet.a");
  Mutex* b = NewScratch("test.quiet.b");
  for (int i = 0; i < 3; ++i) {
    MutexLock la(*a);
    MutexLock lb(*b);  // always a before b: consistent order, no report
  }
  SUCCEED();
}

TEST(DeadlockDetectorTest, HeldCountTracksScope) {
  Mutex* a = NewScratch("test.held.a");
  const size_t base = deadlock::HeldCount();
  {
    MutexLock l(*a);
    EXPECT_EQ(deadlock::HeldCount(), base + 1);
  }
  EXPECT_EQ(deadlock::HeldCount(), base);
}

TEST(DeadlockDetectorTest, NestingRecordsEdges) {
  Mutex* a = NewScratch("test.edge.a");
  Mutex* b = NewScratch("test.edge.b");
  const size_t before = deadlock::EdgeCount();
  MutexLock la(*a);
  MutexLock lb(*b);
  EXPECT_GT(deadlock::EdgeCount(), before);
}

TEST(DeadlockDetectorDeathTest, TwoLockCycleAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex* a = NewScratch("test.cycle2.a");
        Mutex* b = NewScratch("test.cycle2.b");
        {
          MutexLock la(*a);
          MutexLock lb(*b);  // records a -> b
        }
        MutexLock lb(*b);
        MutexLock la(*a);  // b -> a closes the cycle
      },
      "lock-order cycle");
}

TEST(DeadlockDetectorDeathTest, ThreeLockCycleAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex* a = NewScratch("test.cycle3.a");
        Mutex* b = NewScratch("test.cycle3.b");
        Mutex* c = NewScratch("test.cycle3.c");
        {
          MutexLock la(*a);
          MutexLock lb(*b);  // a -> b
        }
        {
          MutexLock lb(*b);
          MutexLock lc(*c);  // b -> c
        }
        MutexLock lc(*c);
        MutexLock la(*a);  // c -> a closes the three-edge cycle
      },
      "lock-order cycle");
}

TEST(DeadlockDetectorDeathTest, CycleReportNamesBothStacks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex* a = NewScratch("test.report.a");
        Mutex* b = NewScratch("test.report.b");
        {
          MutexLock la(*a);
          MutexLock lb(*b);
        }
        MutexLock lb(*b);
        MutexLock la(*a);
      },
      "conflicting hold.*test\\.report\\.a");
}

TEST(DeadlockDetectorDeathTest, RankInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex* hi = NewMutex(LockRank::kWal, "test.inv.wal");
        Mutex* lo = NewMutex(LockRank::kAllocator, "test.inv.alloc");
        MutexLock lh(*hi);
        MutexLock ll(*lo);  // 420 under 700: declared order violated
      },
      "lock rank inversion");
}

TEST(DeadlockDetectorDeathTest, SameRankWithoutCouplingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex* a = NewMutex(LockRank::kWal, "test.same.a");
        Mutex* b = NewMutex(LockRank::kWal, "test.same.b");
        MutexLock la(*a);
        MutexLock lb(*b);  // kWal is not a coupling rank
      },
      "same-rank acquisition");
}

TEST(DeadlockDetectorTest, TryLockIsExemptFromOrderChecks) {
  Mutex* hi = NewMutex(LockRank::kWal, "test.try.wal");
  Mutex* lo = NewMutex(LockRank::kAllocator, "test.try.alloc");
  MutexLock lh(*hi);
  // A try-acquire cannot block, so taking a lower rank this way is legal.
  ASSERT_TRUE(lo->try_lock());
  lo->unlock();
}

TEST(DeadlockDetectorTest, UnrankedMutexesAreInvisible) {
  Mutex plain;  // unranked: never a graph node, so a stack slot is fine
  const size_t base = deadlock::HeldCount();
  MutexLock l(plain);
  EXPECT_EQ(deadlock::HeldCount(), base);
}

#else  // !GISTCR_DEADLOCK_DETECTOR

TEST(DeadlockDetectorTest, CompiledOut) {
  GTEST_SKIP() << "detector disabled in this build "
                  "(-DGISTCR_DEADLOCK_DETECTOR=ON to enable)";
}

#endif  // GISTCR_DEADLOCK_DETECTOR

}  // namespace
}  // namespace gistcr
