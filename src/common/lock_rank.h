#ifndef GISTCR_COMMON_LOCK_RANK_H_
#define GISTCR_COMMON_LOCK_RANK_H_

#include <cstdint>

namespace gistcr {

/// \file
/// The whole-program lock hierarchy (DESIGN.md section 15).
///
/// Every long-lived Mutex/SharedMutex in the tree declares its position in
/// one global partial order via GISTCR_LOCK_RANK; page latches derive a
/// rank dynamically from the latched page's type (PageGuard). The runtime
/// deadlock detector (common/deadlock_detector.h, debug/sanitizer builds)
/// enforces that ranks are acquired in strictly increasing order — equal
/// ranks only where the `coupling` marker below allows it — and the static
/// analyzer (tools/gistcr_lint.py) checks the same table against the
/// acquisition graph it extracts from the sources.
///
/// The numeric gaps are deliberate: new subsystems slot in without
/// renumbering. The `// coupling` trailing comments are machine-read by
/// tools/gistcr_lint.py — keep the format `kName = N,  // coupling`.
enum class LockRank : uint16_t {
  kUnranked = 0,  ///< default-constructed wrapper: invisible to the detector

  // Outermost: connection/session lifecycle and database daemons. The
  // server mutex is held across whole operations (drain-time aborts run
  // under it). The three daemon mutexes guard only a stop flag or a done
  // status; each daemon releases its mutex across the pass it runs.
  kServer = 100,
  kDbMaintenance = 150,
  kDbRecovery = 155,
  kDbWriter = 160,
  kDbIndexes = 170,

  // Tree-level serialization: at most one GC pass per index, then the
  // paper's coarse/hybrid tree latch taken at operation start.
  kGistGc = 200,
  kTreeLatch = 250,

  // Heap insert serializer: DataStore::Insert holds it across the insert
  // page's latch and, to allocate a fresh insert page, the allocator.
  kDataStore = 300,

  // Page latches, ranked by page type. Same-rank re-acquisition is the
  // latch-coupling allowance; the top-down/left-right order *within* the
  // rank is the tree protocol's job (NSN/rightlink), not the hierarchy's.
  // Fresh pages (PageType::kFree, just returned by NewPage) classify as
  // kNodeLatch: they are latched alongside tree pages (splits, root
  // growth) or alone (a fresh heap insert page).
  kNodeLatch = 350,  // coupling
  kMetaLatch = 400,
  kAllocator = 420,
  kBitmapLatch = 450,
  kHeapLatch = 470,

  // Buffer-pool shard mutex: taken by Fetch/NewPage/Unpin while page
  // latches are held (latch-coupling descent pins children), never held
  // across I/O or any other lock.
  kBpShard = 480,

  // Instant-restart recovery gate (DESIGN.md section 16): consulted on
  // the Fetch return path, i.e. potentially under any page latch but
  // never under the shard mutex, and never held across the replay itself
  // (the gate releases its mutex before redoing the claimed page).
  kRecoveryGate = 490,

  // Lock manager: shard mutex first, then the per-txn held-set shard and
  // the pending-wait table (SetPending/ClearPending run under the shard
  // mutex). Node-space lock calls under a page latch are try-only.
  kLockShard = 500,
  kLockTxnShard = 520,
  kLockPending = 540,

  // Predicate table (attached while the node latch is held) and the
  // transaction table.
  kPredicates = 560,
  kTxnManager = 580,

  // Master-pointer update: held across the rename and the log reclaim
  // after it (which takes the WAL mutex), never across an fsync.
  kDbMaster = 690,

  // WAL mutex: innermost of the protocol locks — appends happen under
  // page latches and the allocator/data-store mutexes, and the flusher
  // releases it across every pwrite/fdatasync.
  kWal = 700,

  // MVCC version-store shards: a commit stamps its versions inside its
  // Commit record's append, under wal.mu; Visible() runs under a node
  // latch. Memory only; one shard at a time, acquiring nothing further.
  kMvccShard = 720,

  // Leaves: fault injection hooks and observability. Crash points fire
  // under arbitrary protocol locks; trace/slow-op/metrics mutexes guard
  // memory-only sections and acquire nothing further.
  kFaultInjector = 750,
  kTrace = 800,
  kSlowOps = 810,
  kMetrics = 820,

  // Scratch rank for tests of the detector itself (coupling-allowed so
  // deliberate cycles reach the edge graph rather than the rank check).
  kScratch = 900,  // coupling
};

/// Same-rank re-acquisition allowance (hand-over-hand coupling).
constexpr bool RankAllowsCoupling(LockRank r) {
  return r == LockRank::kNodeLatch || r == LockRank::kScratch;
}

}  // namespace gistcr

// Rank annotation for Mutex/SharedMutex member initializers:
//
//   Mutex mu_{GISTCR_LOCK_RANK(kWal, "wal.mu")};
//
// expands to the ranked constructor arguments when the runtime deadlock
// detector is compiled in and to nothing (default, zero-cost constructor)
// otherwise. tools/gistcr_lint.py reads these annotations from the source
// text either way, so the static hierarchy check does not depend on build
// flags.
#if GISTCR_DEADLOCK_DETECTOR
#define GISTCR_LOCK_RANK(rank, name) ::gistcr::LockRank::rank, name
#else
#define GISTCR_LOCK_RANK(rank, name)
#endif

#endif  // GISTCR_COMMON_LOCK_RANK_H_
