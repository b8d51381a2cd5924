#include "txn/lock_manager.h"

#include <chrono>

#include "obs/op_context.h"

namespace gistcr {

namespace {

bool Compatible(LockMode a, LockMode b) {
  return a == LockMode::kShared && b == LockMode::kShared;
}

/// Bounded cv waits: a blocked transaction re-runs deadlock detection on
/// every wakeup, so even a detection scan that raced with grants cannot
/// cause a permanent hang — a stable cycle is re-found within one period.
constexpr auto kWaitSlice = std::chrono::milliseconds(20);

}  // namespace

LockManager::LockManager() { AttachMetrics(nullptr); }

void LockManager::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_wait_ns_[static_cast<size_t>(LockSpace::kRecord)] =
      reg->GetHistogram("lock.record_wait_ns");
  m_wait_ns_[static_cast<size_t>(LockSpace::kNode)] =
      reg->GetHistogram("lock.node_wait_ns");
  m_wait_ns_[static_cast<size_t>(LockSpace::kTxn)] =
      reg->GetHistogram("lock.txn_wait_ns");
  m_deadlocks_ = reg->GetCounter("lock.deadlocks");
  m_acquires_ = reg->GetCounter("lock.acquires");
}

void LockManager::RecordWait(obs::Histogram* wait_hist,
                             uint64_t wait_start) {
  if (wait_start == 0) return;
  const uint64_t waited = obs::NowNanos() - wait_start;
  wait_hist->Record(waited);
  obs::AddStage(obs::Stage::kLock, waited);
}

void LockManager::TryGrantLocked(LockState* state) {
  auto& q = state->queue;
  // 1. Upgrade conversion: a granted S that wants X converts when it is
  //    the sole granted request.
  Request* upgrader = nullptr;
  size_t granted = 0;
  for (auto& r : q) {
    if (r.granted) {
      granted++;
      if (r.upgrading) upgrader = &r;
    }
  }
  if (upgrader != nullptr) {
    if (granted == 1) {
      upgrader->mode = LockMode::kExclusive;
      upgrader->upgrading = false;
    }
    // While an upgrade is pending, grant nothing new (it acts as X).
    return;
  }
  // 2. FIFO grant: grant waiting requests in order; stop at the first one
  //    that conflicts with the granted set.
  for (auto& r : q) {
    if (r.granted) continue;
    bool ok = true;
    for (auto& g : q) {
      if (!g.granted || g.txn == r.txn) continue;
      if (!Compatible(r.mode, g.mode) || g.upgrading) {
        ok = false;
        break;
      }
    }
    if (!ok) break;
    r.granted = true;
  }
}

void LockManager::RecordHeld(TxnId txn, LockName name) {
  TxnShard& ts = TxnShardFor(txn);
  MutexLock l(ts.mu);
  ts.held[txn].insert({static_cast<uint8_t>(name.space), name.key});
}

void LockManager::ForgetHeld(TxnId txn, LockName name) {
  TxnShard& ts = TxnShardFor(txn);
  MutexLock l(ts.mu);
  auto it = ts.held.find(txn);
  if (it == ts.held.end()) return;
  it->second.erase({static_cast<uint8_t>(name.space), name.key});
  if (it->second.empty()) ts.held.erase(it);
}

void LockManager::SetPending(TxnId txn, LockName name) {
  MutexLock l(wait_mu_);
  pending_[txn] = name;
}

void LockManager::ClearPending(TxnId txn) {
  MutexLock l(wait_mu_);
  pending_.erase(txn);
}

void LockManager::CollectWaitsFor(TxnId waiter,
                                  std::unordered_set<TxnId>* out) {
  LockName name;
  {
    MutexLock l(wait_mu_);
    auto it = pending_.find(waiter);
    if (it == pending_.end()) return;
    name = it->second;
  }
  Shard& sh = ShardFor(name);
  MutexLock l(sh.mu);
  auto tit = sh.table.find(name);
  if (tit == sh.table.end()) return;
  auto& q = tit->second.queue;
  auto me = q.end();
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (it->txn == waiter && (!it->granted || it->upgrading)) {
      me = it;
      break;
    }
  }
  if (me == q.end()) return;
  if (me->upgrading) {
    // Upgrader waits on every other granted holder.
    for (auto& g : q) {
      if (g.granted && g.txn != waiter) out->insert(g.txn);
    }
    return;
  }
  // Plain waiter: waits on incompatible granted holders and on
  // incompatible waiters ahead of it (FIFO grant order).
  for (auto it = q.begin(); it != me; ++it) {
    if (it->txn == waiter) continue;
    if (it->granted) {
      if (!Compatible(me->mode, it->mode) || it->upgrading) {
        out->insert(it->txn);
      }
    } else if (!Compatible(me->mode, it->mode)) {
      out->insert(it->txn);
    }
  }
}

bool LockManager::WouldDeadlock(TxnId requester) {
  // Iterative DFS over the waits-for graph looking for a cycle through the
  // requester. Shards are inspected one at a time; see header note about
  // raced scans.
  std::vector<TxnId> stack{requester};
  std::unordered_set<TxnId> visited;
  bool first = true;
  while (!stack.empty()) {
    TxnId cur = stack.back();
    stack.pop_back();
    if (!first) {
      if (cur == requester) return true;
      if (!visited.insert(cur).second) continue;
    }
    first = false;
    std::unordered_set<TxnId> next;
    CollectWaitsFor(cur, &next);
    for (TxnId t : next) stack.push_back(t);
  }
  return false;
}

Status LockManager::Lock(TxnId txn, LockName name, LockMode mode, bool wait) {
  // Every entry to the lock manager, blocked or not: the snapshot-read
  // acceptance test asserts this stays flat across a read-only scan.
  m_acquires_->Add(1);
  Shard& sh = ShardFor(name);
  obs::Histogram* wait_hist = m_wait_ns_[static_cast<size_t>(name.space)];
  uint64_t wait_start = 0;  // set when the request first fails to grant
  MutexLock l(sh.mu);
  LockState* state = &sh.table[name];

  // Reentrant / upgrade handling.
  Request* mine = nullptr;
  for (auto& r : state->queue) {
    if (r.txn == txn) {
      mine = &r;
      break;
    }
  }
  if (mine != nullptr && mine->granted) {
    if (mode == LockMode::kShared || mine->mode == LockMode::kExclusive) {
      mine->count++;
      return Status::OK();
    }
    // Upgrade S -> X.
    mine->upgrading = true;
    SetPending(txn, name);
    for (;;) {
      TryGrantLocked(state);
      if (!mine->upgrading && mine->mode == LockMode::kExclusive) {
        mine->count++;
        ClearPending(txn);
        sh.cv.NotifyAll();
        RecordWait(wait_hist, wait_start);
        return Status::OK();
      }
      if (!wait) {
        mine->upgrading = false;
        ClearPending(txn);
        TryGrantLocked(state);
        sh.cv.NotifyAll();
        return Status::Busy("lock upgrade unavailable");
      }
      l.Unlock();
      const bool dl = WouldDeadlock(txn);
      l.Lock();
      if (!mine->upgrading && mine->mode == LockMode::kExclusive) {
        continue;  // converted while we were detecting
      }
      if (dl) {
        mine->upgrading = false;
        ClearPending(txn);
        TryGrantLocked(state);
        sh.cv.NotifyAll();
        m_deadlocks_->Add(1);
        RecordWait(wait_hist, wait_start);
        return Status::Deadlock("lock upgrade would deadlock");
      }
      if (wait_start == 0) wait_start = obs::NowNanos();
      (void)sh.cv.WaitFor(sh.mu, kWaitSlice);
    }
  }
  GISTCR_CHECK(mine == nullptr);  // a txn thread never has two pending waits

  state->queue.push_back(Request{txn, mode, false, false, 1});
  Request* me = &state->queue.back();
  bool pending_set = false;
  for (;;) {
    TryGrantLocked(state);
    if (me->granted) {
      if (pending_set) ClearPending(txn);
      l.Unlock();
      RecordHeld(txn, name);
      sh.cv.NotifyAll();
      RecordWait(wait_hist, wait_start);
      return Status::OK();
    }
    if (!wait) {
      for (auto it = state->queue.begin(); it != state->queue.end(); ++it) {
        if (&*it == me) {
          state->queue.erase(it);
          break;
        }
      }
      TryGrantLocked(state);
      sh.cv.NotifyAll();
      return Status::Busy("lock unavailable");
    }
    if (!pending_set) {
      SetPending(txn, name);
      pending_set = true;
      wait_start = obs::NowNanos();
    }
    l.Unlock();
    const bool dl = WouldDeadlock(txn);
    l.Lock();
    if (me->granted) continue;  // granted while we were detecting
    if (dl) {
      ClearPending(txn);
      for (auto it = state->queue.begin(); it != state->queue.end(); ++it) {
        if (&*it == me) {
          state->queue.erase(it);
          break;
        }
      }
      TryGrantLocked(state);
      sh.cv.NotifyAll();
      m_deadlocks_->Add(1);
      RecordWait(wait_hist, wait_start);
      return Status::Deadlock("lock wait would deadlock");
    }
    (void)sh.cv.WaitFor(sh.mu, kWaitSlice);
  }
}

void LockManager::Unlock(TxnId txn, LockName name) {
  Shard& sh = ShardFor(name);
  bool removed = false;
  {
    MutexLock l(sh.mu);
    auto it = sh.table.find(name);
    if (it == sh.table.end()) return;
    LockState* state = &it->second;
    for (auto rit = state->queue.begin(); rit != state->queue.end(); ++rit) {
      if (rit->txn == txn && rit->granted) {
        if (--rit->count == 0) {
          state->queue.erase(rit);
          removed = true;
          TryGrantLocked(state);
          if (state->queue.empty()) sh.table.erase(it);
        }
        break;
      }
    }
    if (removed) sh.cv.NotifyAll();
  }
  if (removed) ForgetHeld(txn, name);
}

void LockManager::ReleaseAll(TxnId txn) {
  std::set<std::pair<uint8_t, uint64_t>> names;
  {
    TxnShard& ts = TxnShardFor(txn);
    MutexLock l(ts.mu);
    auto it = ts.held.find(txn);
    if (it == ts.held.end()) return;
    names.swap(it->second);
    ts.held.erase(it);
  }
  for (const auto& [space, key] : names) {
    const LockName name{static_cast<LockSpace>(space), key};
    Shard& sh = ShardFor(name);
    MutexLock l(sh.mu);
    auto it = sh.table.find(name);
    if (it == sh.table.end()) continue;
    LockState* state = &it->second;
    for (auto rit = state->queue.begin(); rit != state->queue.end(); ++rit) {
      if (rit->txn == txn) {
        state->queue.erase(rit);
        break;
      }
    }
    TryGrantLocked(state);
    if (state->queue.empty()) {
      sh.table.erase(it);
    }
    sh.cv.NotifyAll();
  }
}

void LockManager::ReplicateSharedHolders(LockName from, LockName to) {
  std::vector<TxnId> holders;
  {
    Shard& sh = ShardFor(from);
    MutexLock l(sh.mu);
    auto it = sh.table.find(from);
    if (it == sh.table.end()) return;
    for (auto& r : it->second.queue) {
      if (r.granted && r.mode == LockMode::kShared && !r.upgrading) {
        holders.push_back(r.txn);
      }
    }
  }
  if (holders.empty()) return;
  {
    Shard& sh = ShardFor(to);
    MutexLock l(sh.mu);
    LockState* state = &sh.table[to];
    for (TxnId t : holders) {
      Request* mine = nullptr;
      for (auto& r : state->queue) {
        if (r.txn == t) {
          mine = &r;
          break;
        }
      }
      if (mine != nullptr && mine->granted) {
        mine->count++;
      } else if (mine == nullptr) {
        // kNode X locks are try-only, so an S grant can always be added.
        state->queue.push_back(Request{t, LockMode::kShared, true, false, 1});
      }
    }
  }
  for (TxnId t : holders) RecordHeld(t, to);
}

Status LockManager::WaitForTxn(TxnId waiter, TxnId owner) {
  LockName name{LockSpace::kTxn, owner};
  Status st = Lock(waiter, name, LockMode::kShared, /*wait=*/true);
  if (!st.ok()) return st;
  Unlock(waiter, name);
  return Status::OK();
}

bool LockManager::Holds(TxnId txn, LockName name, LockMode mode) {
  Shard& sh = ShardFor(name);
  MutexLock l(sh.mu);
  auto it = sh.table.find(name);
  if (it == sh.table.end()) return false;
  for (auto& r : it->second.queue) {
    if (r.txn == txn && r.granted) {
      return mode == LockMode::kShared || r.mode == LockMode::kExclusive;
    }
  }
  return false;
}

std::vector<std::pair<TxnId, TxnId>> LockManager::WaitEdges() {
  std::vector<TxnId> waiters;
  {
    MutexLock l(wait_mu_);
    waiters.reserve(pending_.size());
    for (const auto& [txn, name] : pending_) waiters.push_back(txn);
  }
  std::vector<std::pair<TxnId, TxnId>> edges;
  for (TxnId waiter : waiters) {
    std::unordered_set<TxnId> holders;
    CollectWaitsFor(waiter, &holders);
    for (TxnId holder : holders) edges.emplace_back(waiter, holder);
  }
  return edges;
}

size_t LockManager::TableSize() {
  size_t n = 0;
  for (auto& sh : shards_) {
    MutexLock l(sh.mu);
    n += sh.table.size();
  }
  return n;
}

}  // namespace gistcr
