#ifndef GISTCR_RECOVERY_RECOVERY_GATE_H_
#define GISTCR_RECOVERY_RECOVERY_GATE_H_

#include <atomic>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "util/status.h"

namespace gistcr {

/// Instant-restart recovery gate (DESIGN.md section 16).
///
/// After log analysis the gate holds one redo *plan* per not-yet-recovered
/// page: the LSNs of every log record in the recovered window whose redo
/// mutates that page, in log order. The buffer pool consults the gate on
/// every Fetch, so the first thread to touch a pending page replays its
/// plan inline — bounded work, one page — before the caller sees the
/// frame; a background drainer walks the remaining pages in recLSN order.
/// Each page moves through PageRecoveryState (storage/page.h):
/// kNeedsRedo -> kRedoing -> kClean (erased from the table).
///
/// Deadlock freedom: the gate mutex is never held across replay, and a
/// thread that *waits* for a page holds latches only on pages that are
/// already clean (every latched page was fetched through the gate), while
/// the replaying thread latches only the page it claimed — so no wait
/// cycle through the gate can close. A replayer re-entering the gate for
/// its own page (redo appliers fetch the page they are redoing) returns
/// immediately via the owner check.
class RecoveryGate {
 public:
  /// Replays one page's plan. Runs without the gate mutex held.
  using ReplayFn =
      std::function<Status(PageId, const std::vector<Lsn>& plan)>;

  RecoveryGate() = default;
  GISTCR_DISALLOW_COPY_AND_ASSIGN(RecoveryGate);

  /// Points the gate's recovery.* metrics at \p reg (null: process
  /// fallback). Must run before Arm; RecoveryManager's constructor does.
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Installs the per-page plans and the replay callback and opens the
  /// gate for business. Plans must be in log order; empty plans are
  /// dropped. Called once per restart, before the database serves.
  void Arm(std::unordered_map<PageId, std::vector<Lsn>> plans,
           ReplayFn replay);

  /// Drops all remaining state. Any still-pending plans are discarded, so
  /// only call once the drain is complete (or the database is crashing).
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Ensures \p pid is recovered: returns immediately for clean pages,
  /// replays the plan if this thread claims the page, waits for the owner
  /// otherwise. \p inline_caller distinguishes fetch-path redo from the
  /// background drainer for metrics and crash-point purposes.
  Status EnsureRecovered(PageId pid, bool inline_caller);

  /// NewPage path: \p pid is being re-created from scratch, so its redo
  /// prehistory is irrelevant — drop the plan (waiting out a concurrent
  /// replayer first) instead of replaying stale records into a page image
  /// the caller is about to overwrite.
  void CancelPage(PageId pid);

  /// Still-pending pages in recLSN (first planned LSN) order, for the
  /// background drainer.
  std::vector<PageId> PendingInOrder();

  /// Smallest recLSN (first planned LSN) over still-pending pages, or
  /// kInvalidLsn when none — a bound on the checkpoint's redo floor: a
  /// pending page's disk image predates its plan even if the buffer pool
  /// holds no dirty frame for it.
  Lsn OldestPendingRecLsn();

  size_t pending_count();

 private:
  struct PageEntry {
    std::vector<Lsn> plan;
    PageRecoveryState state = PageRecoveryState::kNeedsRedo;
    std::thread::id owner;  ///< valid only while state == kRedoing
  };

  Mutex mu_{GISTCR_LOCK_RANK(kRecoveryGate, "recovery.gate.mu")};
  CondVar cv_;
  std::map<PageId, PageEntry> pages_ GISTCR_GUARDED_BY(mu_);
  ReplayFn replay_;
  std::atomic<bool> armed_{false};

  obs::Counter* m_inline_ = nullptr;
  obs::Counter* m_background_ = nullptr;
  obs::Gauge* m_pending_ = nullptr;
};

}  // namespace gistcr

#endif  // GISTCR_RECOVERY_RECOVERY_GATE_H_
