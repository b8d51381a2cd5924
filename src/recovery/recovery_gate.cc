#include "recovery/recovery_gate.h"

#include <algorithm>

#include "storage/fault_injector.h"

namespace gistcr {

void RecoveryGate::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_inline_ = reg->GetCounter("recovery.inline_redos");
  m_background_ = reg->GetCounter("recovery.background_redos");
  m_pending_ = reg->GetGauge("recovery.pages_pending");
}

void RecoveryGate::Arm(
    std::unordered_map<PageId, std::vector<Lsn>> plans, ReplayFn replay) {
  MutexLock l(mu_);
  GISTCR_CHECK(!armed_.load(std::memory_order_relaxed));
  pages_.clear();
  for (auto& [pid, plan] : plans) {
    if (plan.empty()) continue;
    PageEntry e;
    e.plan = std::move(plan);
    pages_.emplace(pid, std::move(e));
  }
  replay_ = std::move(replay);
  m_pending_->Set(static_cast<double>(pages_.size()));
  armed_.store(true, std::memory_order_release);
}

void RecoveryGate::Disarm() {
  MutexLock l(mu_);
  armed_.store(false, std::memory_order_release);
  pages_.clear();
  replay_ = nullptr;
  m_pending_->Set(0);
  cv_.NotifyAll();
}

Status RecoveryGate::EnsureRecovered(PageId pid, bool inline_caller) {
  if (!armed()) return Status::OK();
  std::vector<Lsn> plan;
  {
    MutexLock l(mu_);
    for (;;) {
      if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
      auto it = pages_.find(pid);
      if (it == pages_.end()) return Status::OK();
      if (it->second.state == PageRecoveryState::kRedoing) {
        if (it->second.owner == std::this_thread::get_id()) {
          // Re-entrant fetch from inside this page's own replay (redo
          // appliers fetch the page they are redoing): the plan is being
          // applied right now, proceed.
          return Status::OK();
        }
        cv_.Wait(mu_);
        continue;
      }
      it->second.state = PageRecoveryState::kRedoing;
      it->second.owner = std::this_thread::get_id();
      plan = it->second.plan;
      break;
    }
  }
  // Claimed. Replay without the gate mutex: the plan may fetch other
  // pending pages (rightlink chases, bitmap pages), recursing through the
  // gate for them.
  Status st =
      inline_caller
          ? FaultInjector::Global().CheckCrashPoint("instant.inline_redo")
          : FaultInjector::Global().CheckCrashPoint("instant.bg_drain");
  if (st.ok()) st = replay_(pid, plan);
  {
    MutexLock l(mu_);
    auto it = pages_.find(pid);
    if (it != pages_.end()) {
      if (st.ok()) {
        pages_.erase(it);
      } else {
        // Leave the page pending: the next touch (or the drainer) retries.
        it->second.state = PageRecoveryState::kNeedsRedo;
        it->second.owner = std::thread::id();
      }
    }
    m_pending_->Set(static_cast<double>(pages_.size()));
    cv_.NotifyAll();
  }
  if (st.ok()) {
    (inline_caller ? m_inline_ : m_background_)->Add(1);
  }
  return st;
}

void RecoveryGate::CancelPage(PageId pid) {
  if (!armed()) return;
  MutexLock l(mu_);
  for (;;) {
    if (!armed_.load(std::memory_order_relaxed)) return;
    auto it = pages_.find(pid);
    if (it == pages_.end()) return;
    if (it->second.state == PageRecoveryState::kRedoing &&
        it->second.owner != std::this_thread::get_id()) {
      cv_.Wait(mu_);
      continue;
    }
    pages_.erase(it);
    m_pending_->Set(static_cast<double>(pages_.size()));
    cv_.NotifyAll();
    return;
  }
}

std::vector<PageId> RecoveryGate::PendingInOrder() {
  std::vector<std::pair<Lsn, PageId>> order;
  {
    MutexLock l(mu_);
    order.reserve(pages_.size());
    for (const auto& [pid, e] : pages_) {
      order.emplace_back(e.plan.front(), pid);
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<PageId> out;
  out.reserve(order.size());
  for (const auto& [lsn, pid] : order) out.push_back(pid);
  return out;
}

Lsn RecoveryGate::OldestPendingRecLsn() {
  MutexLock l(mu_);
  Lsn oldest = kInvalidLsn;
  for (const auto& [pid, e] : pages_) {
    if (oldest == kInvalidLsn || e.plan.front() < oldest) {
      oldest = e.plan.front();
    }
  }
  return oldest;
}

size_t RecoveryGate::pending_count() {
  MutexLock l(mu_);
  return pages_.size();
}

}  // namespace gistcr
