#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace gistcr {
namespace obs {

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadRing* Tracer::RingForThisThread() {
  // One ring per thread for the global tracer's lifetime; rings of exited
  // threads are kept (their events remain exportable).
  static thread_local ThreadRing* tls_ring = nullptr;
  if (tls_ring == nullptr) {
    auto ring = std::make_unique<ThreadRing>(kRingCapacity);
    ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    tls_ring = ring.get();
    MutexLock l(mu_);
    rings_.push_back(std::move(ring));
  }
  return tls_ring;
}

void Tracer::Record(const char* name, char ph, uint64_t ts_us,
                    uint64_t dur_us, const char* arg_name, uint64_t arg) {
  if (!enabled()) return;
  ThreadRing* r = RingForThisThread();
  const uint64_t i =
      r->next.fetch_add(1, std::memory_order_relaxed) % r->slots.size();
  Slot& s = r->slots[i];
  s.ph.store(ph, std::memory_order_relaxed);
  s.ts_us.store(ts_us, std::memory_order_relaxed);
  s.dur_us.store(dur_us, std::memory_order_relaxed);
  s.arg_name.store(arg_name, std::memory_order_relaxed);
  s.arg.store(arg, std::memory_order_relaxed);
  // Name last: a null name marks an unwritten slot for the exporter.
  s.name.store(name, std::memory_order_release);
}

void Tracer::RecordComplete(const char* name, uint64_t ts_us,
                            uint64_t dur_us, const char* arg_name,
                            uint64_t arg) {
  Record(name, 'X', ts_us, dur_us, arg_name, arg);
}

void Tracer::RecordInstant(const char* name) {
  Record(name, 'i', NowMicros(), 0);
}

std::vector<TraceEvent> Tracer::Snapshot() {
  std::vector<TraceEvent> out;
  MutexLock l(mu_);
  for (const auto& ring : rings_) {
    const uint64_t capacity = ring->slots.size();
    const uint64_t written = ring->next.load(std::memory_order_relaxed);
    const uint64_t n = std::min<uint64_t>(written, capacity);
    // Oldest surviving event first.
    const uint64_t start = written - n;
    for (uint64_t k = 0; k < n; k++) {
      const Slot& s = ring->slots[(start + k) % capacity];
      const char* name = s.name.load(std::memory_order_acquire);
      if (name == nullptr) continue;
      out.push_back(TraceEvent{name, s.ph.load(std::memory_order_relaxed),
                               ring->tid,
                               s.ts_us.load(std::memory_order_relaxed),
                               s.dur_us.load(std::memory_order_relaxed),
                               s.arg_name.load(std::memory_order_relaxed),
                               s.arg.load(std::memory_order_relaxed)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  return out;
}

std::string Tracer::ExportJsonString() {
  // Runtime-disabled tracing exports an empty-but-valid array: rings may
  // still hold events from before SetEnabled(false), but a disabled
  // tracer promises "no output", not "stale output".
  if (!enabled()) return "[\n]\n";
  const std::vector<TraceEvent> events = Snapshot();
  std::string out = "[";
  char buf[320];
  bool first = true;
  for (const TraceEvent& e : events) {
    int n = std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s\",\"cat\":\"gistcr\",\"ph\":\"%c\","
        "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64 ",\"pid\":1,\"tid\":%u",
        first ? "" : ",", e.name, e.ph, e.ts_us, e.dur_us, e.tid);
    if (n > 0) out.append(buf, static_cast<size_t>(n));
    if (e.arg_name != nullptr) {
      n = std::snprintf(buf, sizeof(buf), ",\"args\":{\"%s\":%" PRIu64 "}",
                        e.arg_name, e.arg);
      if (n > 0) out.append(buf, static_cast<size_t>(n));
    }
    out.push_back('}');
    first = false;
  }
  out.append("\n]\n");
  return out;
}

Status Tracer::ExportJson(const std::string& path) {
  const std::string json = ExportJsonString();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("open trace file " + path);
  const size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (n != json.size()) return Status::IOError("short write to " + path);
  return Status::OK();
}

void Tracer::Clear() {
  MutexLock l(mu_);
  for (auto& ring : rings_) {
    for (auto& s : ring->slots) {
      s.name.store(nullptr, std::memory_order_relaxed);
    }
    ring->next.store(0, std::memory_order_relaxed);
  }
}

size_t Tracer::EventCount() { return Snapshot().size(); }

}  // namespace obs
}  // namespace gistcr
