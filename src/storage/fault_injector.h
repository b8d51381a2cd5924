#ifndef GISTCR_STORAGE_FAULT_INJECTOR_H_
#define GISTCR_STORAGE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/mutex.h"
#include "obs/metrics.h"
#include "util/macros.h"
#include "util/random.h"
#include "util/status.h"

namespace gistcr {

#if GISTCR_FAULT_INJECTION
inline constexpr bool kFaultInjectionCompiled = true;
#else
inline constexpr bool kFaultInjectionCompiled = false;
#endif

/// Deterministic storage-fault injection (process-global singleton).
///
/// Three fault families, all off until armed and all seed-driven so a
/// failing configuration replays exactly:
///
///  - **Crash points**: named sites (`GISTCR_CRASHPOINT("split.before_
///    nta_commit")`) at every structure-modification and WAL boundary.
///    Arming one either kills the process (`CrashAction::kExit`, exit code
///    kCrashExitCode — for fork-based crash harnesses), makes the site
///    return an IOError so the operation unwinds in-process
///    (`CrashAction::kStatus`), or runs a test's hook inside the window
///    the site marks (`ArmCrashPointHook`).
///  - **Transient I/O errors**: each DiskManager read/write draws a burst
///    of 0..max_burst synthetic failures from a seeded RNG; DiskManager's
///    bounded retry-and-backoff absorbs bursts shorter than its attempt
///    budget and surfaces IOError otherwise.
///  - **Torn writes / failed syncs**: the next (or Nth-next) page write
///    persists only its first half, only its last half, or all zeroes —
///    the classic power-cut failure modes page checksums exist to catch;
///    armed sync failures make fdatasync report an error.
///
/// Thread-safe. The hot-path check (`armed()` / `io_faults_active()`) is a
/// relaxed atomic load; everything else takes a mutex, which is fine
/// because faults are a test-only configuration.
class FaultInjector {
 public:
  enum class CrashAction : uint8_t {
    kStatus,  ///< Crash point returns Status::IOError; operation unwinds.
    kExit,    ///< Crash point calls _Exit(kCrashExitCode); for fork tests.
  };
  enum class TornMode : uint8_t {
    kFirstHalfOnly,  ///< Only bytes [0, kPageSize/2) reach disk.
    kLastHalfOnly,   ///< Only bytes [kPageSize/2, kPageSize) reach disk.
    kZeroPage,       ///< The write is replaced by all zeroes (lost write).
  };

  /// Exit code a kExit crash point terminates with; a crash-harness parent
  /// asserts on it to distinguish "died at the point" from other failures.
  static constexpr int kCrashExitCode = 42;

  static FaultInjector& Global();

  /// Disarms everything and reseeds. Call at the start of every test (and
  /// in forked children before arming).
  void Reset();

  /// Re-points the hit counter at \p reg (null: process fallback).
  void AttachMetrics(obs::MetricsRegistry* reg);

  // --- crash points ----------------------------------------------------

  /// Arms crash point \p name: the (skip+1)-th execution of the site fires
  /// \p action. One point armed at a time; re-arming replaces.
  void ArmCrashPoint(const std::string& name, int skip = 0,
                     CrashAction action = CrashAction::kStatus);
  /// Arms crash point \p name to run \p hook instead of crashing: the
  /// (skip+1)-th execution of the site calls it once, without the
  /// injector's mutex, and the operation then carries on. Lets a test act
  /// inside the window a site marks (take a checkpoint there, say); the
  /// hook may take any lock the site's caller does not hold.
  void ArmCrashPointHook(const std::string& name, std::function<void()> hook,
                         int skip = 0);
  void DisarmCrashPoints();

  /// Fast-path gate used by GISTCR_CRASHPOINT.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Site body: no-op unless \p name is the armed point. Counts the hit,
  /// consumes one skip, then fires (kExit never returns).
  Status OnCrashPoint(const char* name);

  /// Like OnCrashPoint but with the armed() fast path folded in; for call
  /// sites that thread the Status manually instead of early-returning.
  Status CheckCrashPoint(const char* name) {
    if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
    return OnCrashPoint(name);
  }

  /// Total armed-point hits (including skipped ones) since Reset.
  uint64_t crashpoint_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }

  // --- transient I/O errors --------------------------------------------

  /// Every subsequent DiskManager read (write) independently fails with
  /// probability \p read_prob (\p write_prob); a failing operation draws a
  /// burst of 1..max_burst consecutive synthetic errors. Deterministic in
  /// \p seed.
  void ConfigureTransientFaults(uint64_t seed, double read_prob,
                                double write_prob, int max_burst);

  /// Fast-path gate for DiskManager.
  bool io_faults_active() const {
    return io_active_.load(std::memory_order_relaxed);
  }

  /// Draws the synthetic-failure burst length for one I/O operation
  /// (0 = the operation is healthy).
  int DrawTransientFaults(bool is_write);

  // --- torn writes / failed syncs --------------------------------------

  /// The (countdown+1)-th subsequent DiskManager::WritePage is torn per
  /// \p mode (one-shot).
  void ArmTornWrite(TornMode mode, int countdown = 0);

  /// Consumed by DiskManager::WritePage. True when this write is the torn
  /// one; \p mode receives the armed mode.
  bool TakeTornWrite(TornMode* mode);

  /// The next \p count fdatasync calls (data file or WAL) report failure.
  void FailNextSyncs(int count = 1);

  /// Consumed by the sync paths. True when this sync must fail.
  bool TakeSyncFailure();

 private:
  FaultInjector() = default;
  GISTCR_DISALLOW_COPY_AND_ASSIGN(FaultInjector);

  void RecomputeIoActiveLocked() GISTCR_REQUIRES(mu_);

  mutable Mutex mu_{GISTCR_LOCK_RANK(kFaultInjector, "fault.mu")};

  // Crash points.
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> hits_{0};
  std::string crash_point_ GISTCR_GUARDED_BY(mu_);
  int crash_skip_ GISTCR_GUARDED_BY(mu_) = 0;
  CrashAction crash_action_ GISTCR_GUARDED_BY(mu_) = CrashAction::kStatus;
  /// Set by ArmCrashPointHook; when set it replaces crash_action_.
  std::function<void()> crash_hook_ GISTCR_GUARDED_BY(mu_);
  obs::Counter* m_hits_ GISTCR_GUARDED_BY(mu_) = nullptr;

  // I/O faults.
  std::atomic<bool> io_active_{false};
  Random rng_ GISTCR_GUARDED_BY(mu_){1};
  bool transients_on_ GISTCR_GUARDED_BY(mu_) = false;
  double read_prob_ GISTCR_GUARDED_BY(mu_) = 0.0;
  double write_prob_ GISTCR_GUARDED_BY(mu_) = 0.0;
  int max_burst_ GISTCR_GUARDED_BY(mu_) = 0;
  bool torn_armed_ GISTCR_GUARDED_BY(mu_) = false;
  TornMode torn_mode_ GISTCR_GUARDED_BY(mu_) = TornMode::kFirstHalfOnly;
  int torn_countdown_ GISTCR_GUARDED_BY(mu_) = 0;
  int sync_failures_ GISTCR_GUARDED_BY(mu_) = 0;
};

/// Central catalogue of every named crash point (DESIGN.md section 8 and
/// the crash-matrix test iterate over it). Names are hierarchical:
/// subsystem.site[.detail].
inline constexpr const char* kCrashPointCatalogue[] = {
    "insert.before_leaf_log",       // leaf chosen, Add-Leaf-Entry not logged
    "insert.after_leaf_apply",      // entry applied + logged, txn unfinished
    "delete.after_mark",            // Mark-Leaf-Entry applied, txn unfinished
    "split.after_log_append",       // Split record logged, pages untouched
    "split.before_parent_install",  // both halves written, parent entry not
    "split.before_nta_commit",      // full split applied, NTA-End not logged
    "root.before_meta_update",      // new root built, meta pointer not moved
    "gc.before_nta_end",            // GC removal applied, NTA-End not logged
    "gc.node_delete.before_rightlink_rewire",  // parent entry gone, chain not
    "bp.before_evict_write",        // WAL forced, dirty victim not written
    "search.mvcc_visibility",       // snapshot leaf visit, Visible() filtering
    "wal.before_fsync",             // log pwritten, not yet durable
    "wal.after_fsync",              // log durable, in-memory state not updated
    "txn.after_log_append",         // txn record appended, chain head not
                                    // advanced (hook: checkpoint inside a
                                    // transaction's first append)
    "txn.commit.before_log_force",  // Commit appended, not flushed
    "txn.commit.after_log_force",   // Commit durable, locks/End pending
    "ckpt.between_snapshots",       // floor has pending pages, not the DPT
    "ckpt.before_master_update",    // checkpoint logged, master pointer stale
    "recovery.after_analysis",      // restart: plans + ATT built, no redo
    "recovery.mid_undo",            // restart: mid loser rollback (per record)
    "instant.inline_redo",          // instant restart: fetch-path page replay
    "instant.bg_drain",             // instant restart: background drainer
    "instant.undo",                 // instant restart: concurrent loser undo
};

}  // namespace gistcr

/// Names a crash site. Valid only inside functions returning Status (or a
/// StatusOr): with the point armed in kStatus mode the site early-returns
/// the injected error. Compiles to nothing when GISTCR_FAULT_INJECTION is
/// off.
#if GISTCR_FAULT_INJECTION
#define GISTCR_CRASHPOINT(point)                                      \
  do {                                                                \
    if (::gistcr::FaultInjector::Global().armed()) {                  \
      ::gistcr::Status _cp_st =                                       \
          ::gistcr::FaultInjector::Global().OnCrashPoint(point);      \
      if (!_cp_st.ok()) return _cp_st;                                \
    }                                                                 \
  } while (0)
#else
#define GISTCR_CRASHPOINT(point) \
  do {                           \
  } while (0)
#endif

#endif  // GISTCR_STORAGE_FAULT_INJECTOR_H_
