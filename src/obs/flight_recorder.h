#ifndef GISTCR_OBS_FLIGHT_RECORDER_H_
#define GISTCR_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <string>

#include "obs/metrics.h"
#include "obs/slow_op_log.h"
#include "util/macros.h"
#include "util/status.h"

namespace gistcr {
namespace obs {

/// Crash flight recorder (ISSUE 6 tentpole): when a fatal signal fires, a
/// fault-injection crash point trips, or an invariant fails, the last
/// moments of the process — metrics snapshot, slow-op ring, trace rings —
/// are dumped as one JSON object to a sidecar file next to the database
/// (`<db path>.flight`), so post-mortem analysis starts from evidence
/// instead of guesswork.
///
/// The recorder is a process-global singleton armed by Database
/// initialization and disarmed on clean shutdown. Arm/Disarm use
/// release/acquire publication on plain atomics (no recorder mutex), so
/// Dump can run from a crash point that already holds unrelated engine
/// locks; serialization itself briefly takes the leaf obs-layer mutexes
/// (registry, slow-op ring, trace rings), which are never held across
/// engine calls. The signal path is best-effort, not strictly
/// async-signal-safe (it allocates while serializing) — acceptable for a
/// diagnostics artifact written on the way down.
class FlightRecorder {
 public:
  static FlightRecorder& Global();

  FlightRecorder() = default;
  GISTCR_DISALLOW_COPY_AND_ASSIGN(FlightRecorder);

  /// Arms the recorder: crashes from now on dump to \p path. The metrics
  /// registry and slow-op log must outlive the armed window. Re-arming
  /// replaces the previous target (last Database wins).
  void Arm(const std::string& path, MetricsRegistry* metrics,
           SlowOpLog* slow_ops);
  /// Disarms: subsequent crashes dump nothing. Safe when not armed.
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Writes the flight file now:
  ///   {"reason":"...","t_us":...,"metrics":{...},"slow_ops":[...],
  ///    "trace":[...]}
  /// Returns NotFound when disarmed. Only the first dump per arming wins;
  /// later calls (e.g. SIGABRT raised while handling SIGSEGV) are no-ops
  /// returning OK so crash paths never fight over the file.
  Status Dump(const char* reason);

  /// Installs SIGSEGV/SIGBUS/SIGFPE/SIGABRT/SIGILL handlers that dump the
  /// flight file and then re-raise with default disposition. Opt-in
  /// (gistcr_serverd calls it): unit tests use death tests and sanitizers
  /// that own these signals.
  static void InstallSignalHandlers();

 private:
  // Fixed buffer (not std::string) so a crashing thread never races a
  // concurrent Arm's reallocation; armed_ is the publication point.
  static constexpr size_t kMaxPath = 512;
  char path_[kMaxPath] = {};
  std::atomic<MetricsRegistry*> metrics_{nullptr};
  std::atomic<SlowOpLog*> slow_ops_{nullptr};
  std::atomic<bool> armed_{false};
  std::atomic<bool> dumped_{false};  ///< first crash wins per arming
};

}  // namespace obs
}  // namespace gistcr

#endif  // GISTCR_OBS_FLIGHT_RECORDER_H_
