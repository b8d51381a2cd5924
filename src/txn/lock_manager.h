#ifndef GISTCR_TXN_LOCK_MANAGER_H_
#define GISTCR_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace gistcr {

enum class LockMode : uint8_t { kShared, kExclusive };

/// Lock name spaces (paper usage):
///  - kRecord: two-phase locks on data-record RIDs (hybrid mechanism).
///  - kNode:   signaling locks guarding node deletion (section 7.2); S-mode
///             from traversals with stacked pointers, X-mode try-only from
///             node deleters.
///  - kTxn:    every transaction X-locks its own id at begin; "blocking on a
///             predicate" is an S request on the owner's id (section 10.3).
enum class LockSpace : uint8_t { kRecord = 0, kNode = 1, kTxn = 2 };

struct LockName {
  LockSpace space;
  uint64_t key;

  bool operator==(const LockName& o) const {
    return space == o.space && key == o.key;
  }
};

struct LockNameHash {
  size_t operator()(const LockName& n) const {
    uint64_t x = n.key * 3 + static_cast<uint64_t>(n.space);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

/// Queued S/X lock manager with FIFO fairness, reentrant requests, S->X
/// upgrades, and waits-for deadlock detection (the requester whose wait
/// closes a cycle is the victim and receives Status::Deadlock).
///
/// The lock table is sharded (hash of the name) so that concurrent index
/// operations — which take a record lock per qualifying entry plus
/// signaling locks per visited node — do not serialize on one mutex.
/// Deadlock detection walks the waits-for graph shard by shard without any
/// global lock: a blocked transaction re-runs detection on every bounded
/// cv wait, so a genuinely stable cycle is always found even if one scan
/// raced with grants (a stale scan can only victimize spuriously, which a
/// retry absorbs).
///
/// Unlike latches, locks never restrict physical access to buffer frames;
/// they are purely logical (paper section 5, footnote 8). Callers must not
/// hold any latch while blocking here — tree operations release latches
/// and re-position afterwards (sections 5 and 6).
class LockManager {
 public:
  LockManager();
  ~LockManager() = default;
  GISTCR_DISALLOW_COPY_AND_ASSIGN(LockManager);

  /// Re-points the manager's metrics at \p reg (null: process fallback).
  /// Call before concurrent use; the Database facade does so at init.
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Acquires \p name in \p mode for \p txn. Blocks unless \p wait is
  /// false, in which case a conflicting state yields Status::Busy.
  /// Reentrant: repeated acquisition increments a count. A txn holding S
  /// may request X (upgrade); the upgrade waits for other holders to drain.
  Status Lock(TxnId txn, LockName name, LockMode mode, bool wait = true);

  /// Releases one acquisition (decrements the reentrant count; removes the
  /// grant at zero). Used for early release of signaling locks; ordinary
  /// 2PL locks are released via ReleaseAll at end of transaction.
  void Unlock(TxnId txn, LockName name);

  /// Releases everything \p txn holds (end of transaction).
  void ReleaseAll(TxnId txn);

  /// Grants to every S-mode holder of \p from an S grant on \p to.
  /// Used when a node split replicates signaling locks to the new right
  /// sibling (paper sections 7.2 and 10.3). Safe because X on kNode names
  /// is only ever requested try-only.
  void ReplicateSharedHolders(LockName from, LockName to);

  /// Convenience for the predicate protocol: block until \p owner
  /// terminates by acquiring and immediately releasing S on its txn-id
  /// lock. Returns Deadlock if the wait would close a cycle.
  Status WaitForTxn(TxnId waiter, TxnId owner);

  /// True if \p txn holds \p name in at least \p mode (for tests).
  bool Holds(TxnId txn, LockName name, LockMode mode);

  /// Snapshot of the waits-for graph as (waiter, holder) edges, for the
  /// introspection surface. Each shard is read independently, so the edge
  /// set is approximate under concurrent grants — fine for diagnostics.
  std::vector<std::pair<TxnId, TxnId>> WaitEdges();

  /// Number of distinct lock names currently tracked (for tests).
  size_t TableSize();

 private:
  static constexpr size_t kShards = 64;
  static constexpr size_t kTxnShards = 64;

  struct Request {
    TxnId txn;
    LockMode mode;
    bool granted = false;
    bool upgrading = false;  ///< Granted S waiting to convert to X.
    uint32_t count = 1;      ///< Reentrant acquisitions.
  };

  struct LockState {
    // std::list: Request references stay stable across insert/erase of
    // other requests (blocked threads park on their own Request).
    std::list<Request> queue;
  };

  struct Shard {
    Mutex mu{GISTCR_LOCK_RANK(kLockShard, "lock.shard.mu")};
    CondVar cv;  ///< Notified whenever grants may change.
    std::unordered_map<LockName, LockState, LockNameHash> table
        GISTCR_GUARDED_BY(mu);
  };

  struct TxnShard {
    Mutex mu{GISTCR_LOCK_RANK(kLockTxnShard, "lock.txnshard.mu")};
    // txn -> names granted (for ReleaseAll).
    std::unordered_map<TxnId, std::set<std::pair<uint8_t, uint64_t>>> held
        GISTCR_GUARDED_BY(mu);
  };

  Shard& ShardFor(LockName name) {
    return shards_[LockNameHash()(name) % kShards];
  }
  TxnShard& TxnShardFor(TxnId txn) { return txn_shards_[txn % kTxnShards]; }

  void TryGrantLocked(LockState* state);
  void RecordHeld(TxnId txn, LockName name);
  void ForgetHeld(TxnId txn, LockName name);
  void SetPending(TxnId txn, LockName name);
  void ClearPending(TxnId txn);

  /// Direct waits-for edges of \p waiter (reads the shard of its single
  /// pending name). No global lock is held.
  void CollectWaitsFor(TxnId waiter, std::unordered_set<TxnId>* out);
  bool WouldDeadlock(TxnId requester);
  /// Records a blocked acquisition's wait into \p wait_hist and the
  /// current request's kLock stage (no-ops when \p wait_start is 0).
  static void RecordWait(obs::Histogram* wait_hist, uint64_t wait_start);

  Shard shards_[kShards];
  TxnShard txn_shards_[kTxnShards];

  /// Blocked-acquisition wait time, per lock space (kRecord = RID 2PL
  /// waits, kNode = signaling-lock waits, kTxn = predicate waits via
  /// WaitForTxn). Only acquisitions that actually blocked are recorded.
  obs::Histogram* m_wait_ns_[3] = {nullptr, nullptr, nullptr};
  obs::Counter* m_deadlocks_ = nullptr;
  /// Total Lock() entries (lock.acquires), blocked or not — the witness
  /// the zero-lock-manager-calls snapshot-read test asserts against.
  obs::Counter* m_acquires_ = nullptr;

  // The single name each blocked txn is waiting on (a txn runs on one
  // thread, so it waits on at most one name). Drives deadlock DFS.
  Mutex wait_mu_{GISTCR_LOCK_RANK(kLockPending, "lock.pending.mu")};
  std::unordered_map<TxnId, LockName> pending_
      GISTCR_GUARDED_BY(wait_mu_);
};

}  // namespace gistcr

#endif  // GISTCR_TXN_LOCK_MANAGER_H_
