#ifndef GISTCR_OBS_TRACE_H_
#define GISTCR_OBS_TRACE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace gistcr {
namespace obs {

/// One exported trace event (Chrome trace-event format:
/// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
struct TraceEvent {
  const char* name;  ///< Static string (never owned).
  char ph;           ///< 'X' complete, 'i' instant.
  uint32_t tid;
  uint64_t ts_us;    ///< Start timestamp, microseconds (steady clock).
  uint64_t dur_us;   ///< Duration ('X' events).
  const char* arg_name = nullptr;  ///< Optional scope argument key.
  uint64_t arg = 0;                ///< Argument value (when arg_name set).
};

/// Process-wide event tracer: one fixed-capacity ring buffer per thread,
/// written lock-free by its owning thread (each slot field is a relaxed
/// atomic, so a concurrent export tears at worst one event, never the
/// process). The ring overwrites its oldest events when full, bounding
/// memory for arbitrarily long runs. Export serializes every ring to the
/// chrome://tracing JSON array format.
class Tracer {
 public:
  static constexpr size_t kRingCapacity = 4096;  ///< events per thread

  static Tracer& Global();

  Tracer() = default;
  GISTCR_DISALLOW_COPY_AND_ASSIGN(Tracer);

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a complete ('X') event. \p name (and \p arg_name) must be
  /// string literals or otherwise outlive the tracer.
  void RecordComplete(const char* name, uint64_t ts_us, uint64_t dur_us,
                      const char* arg_name = nullptr, uint64_t arg = 0);
  /// Records an instant ('i') event at the current time.
  void RecordInstant(const char* name);

  /// Snapshot of all rings, oldest-first per thread.
  std::vector<TraceEvent> Snapshot();
  /// Chrome trace-event JSON: an array of {name, cat, ph, ts, dur, pid,
  /// tid} objects, loadable in chrome://tracing and Perfetto. When the
  /// tracer is runtime-disabled the result is an empty (but valid) array.
  std::string ExportJsonString();
  Status ExportJson(const std::string& path);

  /// Drops all recorded events (rings stay registered).
  void Clear();
  size_t EventCount();

 private:
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> ts_us{0};
    std::atomic<uint64_t> dur_us{0};
    std::atomic<char> ph{'X'};
    std::atomic<const char*> arg_name{nullptr};
    std::atomic<uint64_t> arg{0};
  };
  struct ThreadRing {
    explicit ThreadRing(size_t capacity) : slots(capacity) {}
    uint32_t tid = 0;
    std::atomic<uint64_t> next{0};  ///< total events written (mod = slot)
    std::vector<Slot> slots;        ///< sized once at creation, never grown
  };

  ThreadRing* RingForThisThread();
  void Record(const char* name, char ph, uint64_t ts_us, uint64_t dur_us,
              const char* arg_name = nullptr, uint64_t arg = 0);

  Mutex mu_{GISTCR_LOCK_RANK(kTrace, "obs.trace.mu")};  ///< guards rings_ registration and export iteration
  std::vector<std::unique_ptr<ThreadRing>> rings_ GISTCR_GUARDED_BY(mu_);
  std::atomic<uint32_t> next_tid_{1};
  std::atomic<bool> enabled_{true};
};

/// RAII scope producing one complete ('X') event spanning its lifetime,
/// optionally tagged with a single integer argument (e.g. a request id).
class TraceScope {
 public:
  explicit TraceScope(const char* name)
      : name_(name), start_us_(NowMicros()) {}
  TraceScope(const char* name, const char* arg_name, uint64_t arg)
      : name_(name), arg_name_(arg_name), arg_(arg),
        start_us_(NowMicros()) {}
  ~TraceScope() {
    Tracer::Global().RecordComplete(name_, start_us_,
                                    NowMicros() - start_us_, arg_name_,
                                    arg_);
  }
  GISTCR_DISALLOW_COPY_AND_ASSIGN(TraceScope);

 private:
  const char* name_;
  const char* arg_name_ = nullptr;
  uint64_t arg_ = 0;
  uint64_t start_us_;
};

}  // namespace obs
}  // namespace gistcr

// Tracing macros. A scope costs two steady_clock reads and ~4 relaxed
// stores; Tracer::SetEnabled(false) turns recording off at run time.
#define GISTCR_TRACE_CONCAT2(a, b) a##b
#define GISTCR_TRACE_CONCAT(a, b) GISTCR_TRACE_CONCAT2(a, b)
#define GISTCR_TRACE_SCOPE(name)            \
  ::gistcr::obs::TraceScope GISTCR_TRACE_CONCAT(gistcr_trace_scope_, \
                                                __LINE__)(name)
#define GISTCR_TRACE_SCOPE_ARG(name, key, value)                     \
  ::gistcr::obs::TraceScope GISTCR_TRACE_CONCAT(gistcr_trace_scope_, \
                                                __LINE__)(           \
      name, key, static_cast<uint64_t>(value))
#define GISTCR_TRACE_INSTANT(name) \
  ::gistcr::obs::Tracer::Global().RecordInstant(name)

#endif  // GISTCR_OBS_TRACE_H_
