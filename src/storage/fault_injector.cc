#include "storage/fault_injector.h"

#include <cstdlib>

#include "obs/flight_recorder.h"

namespace gistcr {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* instance = new FaultInjector();  // leaked on purpose
  return *instance;
}

void FaultInjector::Reset() {
  MutexLock l(mu_);
  armed_.store(false, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  crash_point_.clear();
  crash_skip_ = 0;
  crash_action_ = CrashAction::kStatus;
  crash_hook_ = nullptr;
  rng_ = Random(1);
  transients_on_ = false;
  read_prob_ = 0.0;
  write_prob_ = 0.0;
  max_burst_ = 0;
  torn_armed_ = false;
  torn_countdown_ = 0;
  sync_failures_ = 0;
  RecomputeIoActiveLocked();
}

void FaultInjector::AttachMetrics(obs::MetricsRegistry* reg) {
  MutexLock l(mu_);
  m_hits_ = obs::MetricsRegistry::OrFallback(reg)->GetCounter(
      "storage.crashpoint_hits");
}

void FaultInjector::ArmCrashPoint(const std::string& name, int skip,
                                  CrashAction action) {
  MutexLock l(mu_);
  crash_point_ = name;
  crash_skip_ = skip;
  crash_action_ = action;
  crash_hook_ = nullptr;
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmCrashPointHook(const std::string& name,
                                      std::function<void()> hook, int skip) {
  MutexLock l(mu_);
  crash_point_ = name;
  crash_skip_ = skip;
  crash_hook_ = std::move(hook);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::DisarmCrashPoints() {
  MutexLock l(mu_);
  armed_.store(false, std::memory_order_relaxed);
  crash_point_.clear();
  crash_hook_ = nullptr;
}

Status FaultInjector::OnCrashPoint(const char* name) {
  MutexLock l(mu_);
  if (!armed_.load(std::memory_order_relaxed) || crash_point_ != name) {
    return Status::OK();
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (m_hits_ != nullptr) m_hits_->Add(1);
  if (crash_skip_ > 0) {
    crash_skip_--;
    return Status::OK();
  }
  if (crash_hook_) {
    // One-shot like kStatus, but the operation goes on once the hook
    // returns. The hook runs without mu_: it drives the database.
    std::function<void()> hook = std::move(crash_hook_);
    crash_hook_ = nullptr;
    armed_.store(false, std::memory_order_relaxed);
    crash_point_.clear();
    l.Unlock();
    hook();
    return Status::OK();
  }
  if (crash_action_ == CrashAction::kExit) {
    // Flight recorder first: a real power cut leaves no artifact, but an
    // induced crash is exactly when the torture harness wants one. Safe
    // here — we run in normal (non-signal) context and Dump only takes
    // leaf obs-layer mutexes, never this injector's mu_ again.
    (void)obs::FlightRecorder::Global().Dump(name);
    // Simulated power cut: no destructors, no buffer flushes — the process
    // disappears exactly as a crashed machine would.
    std::_Exit(kCrashExitCode);
  }
  // kStatus: one-shot, then unwind the operation with an I/O error.
  armed_.store(false, std::memory_order_relaxed);
  crash_point_.clear();
  l.Unlock();
  return Status::IOError(std::string("crash point hit: ") + name);
}

void FaultInjector::ConfigureTransientFaults(uint64_t seed, double read_prob,
                                             double write_prob,
                                             int max_burst) {
  MutexLock l(mu_);
  rng_ = Random(seed);
  read_prob_ = read_prob;
  write_prob_ = write_prob;
  max_burst_ = max_burst < 1 ? 1 : max_burst;
  transients_on_ = read_prob > 0.0 || write_prob > 0.0;
  RecomputeIoActiveLocked();
}

int FaultInjector::DrawTransientFaults(bool is_write) {
  MutexLock l(mu_);
  if (!transients_on_) return 0;
  const double p = is_write ? write_prob_ : read_prob_;
  if (p <= 0.0) return 0;
  if (rng_.NextDouble() >= p) return 0;
  return 1 + static_cast<int>(rng_.Uniform(static_cast<uint64_t>(max_burst_)));
}

void FaultInjector::ArmTornWrite(TornMode mode, int countdown) {
  MutexLock l(mu_);
  torn_armed_ = true;
  torn_mode_ = mode;
  torn_countdown_ = countdown;
  RecomputeIoActiveLocked();
}

bool FaultInjector::TakeTornWrite(TornMode* mode) {
  MutexLock l(mu_);
  if (!torn_armed_) return false;
  if (torn_countdown_ > 0) {
    torn_countdown_--;
    return false;
  }
  torn_armed_ = false;
  *mode = torn_mode_;
  RecomputeIoActiveLocked();
  return true;
}

void FaultInjector::FailNextSyncs(int count) {
  MutexLock l(mu_);
  sync_failures_ = count;
  RecomputeIoActiveLocked();
}

bool FaultInjector::TakeSyncFailure() {
  MutexLock l(mu_);
  if (sync_failures_ <= 0) return false;
  sync_failures_--;
  if (sync_failures_ == 0) RecomputeIoActiveLocked();
  return true;
}

void FaultInjector::RecomputeIoActiveLocked() {
  io_active_.store(transients_on_ || torn_armed_ || sync_failures_ > 0,
                   std::memory_order_relaxed);
}

}  // namespace gistcr
