#pragma once

// In-memory span recorder for the benchmark's own tools.  Spans are taken
// around calls into the library's public functions (never inside them), kept
// in memory while the workload runs, and written once as JSONL at the end.
// Timestamps are CLOCK_MONOTONIC nanoseconds (std::chrono::steady_clock on
// Linux), the same clock Python's time.monotonic() reads, so spans from the
// tools and from run.py line up.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;       // static string: the layer and operation
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t id;
  std::int64_t parent;    // 0 = root
  std::int64_t request;   // spans of one request share it; 0 = none
};

// Not thread-safe: each thread that records spans owns its own Tracer.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Records a finished span and returns its id (0 when tracing is off).
  std::int64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent = 0, std::int64_t request = 0) {
    if (!enabled_) return 0;
    std::int64_t id = static_cast<std::int64_t>(spans_.size()) + 1;
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, request});
    return id;
  }

  // Closes a span opened with add(name, start, start) once its children
  // are recorded.
  void set_end(std::int64_t id, std::int64_t end_ns) {
    if (enabled_) spans_[static_cast<std::size_t>(id - 1)].end_ns = end_ns;
  }

  // Appends every span to `path` as one JSON object per line.
  bool write(const std::string& path) const {
    if (!enabled_) return true;
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start\":%lld,\"end\":%lld,\"id\":%lld,"
                   "\"parent\":%lld,\"req\":%lld}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
