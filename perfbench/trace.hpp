// In-memory span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark's own code around each call into a
// library layer's public functions; the layer is the span name's prefix
// before the first '.' ("fleet.run_ensemble" -> "fleet"). Spans of one
// ensemble or job share a request id. Nothing is written until the run
// ends: write_chrome_trace() emits Chrome trace-event JSON
// (chrome://tracing, Perfetto) and self_ms_by_layer() reduces the spans to
// per-layer self time (duration minus the time covered by child spans).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t request_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for a root span
  double start_us = 0.0;        ///< since the tracer's epoch
  double end_us = 0.0;
};

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::size_t span_count() const;
  /// Self time per layer in milliseconds, over every recorded span.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Writes the Chrome trace-event JSON file; false when it cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class Span;
  Tracer();
  [[nodiscard]] double now_us() const;
  [[nodiscard]] std::uint64_t next_id();
  void record(SpanRecord record);

  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op while the tracer is disabled. Spans nest per thread:
/// a span opened while another is open on the same thread is its child.
class Span {
 public:
  Span(const char* name, std::uint64_t request_id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  std::uint64_t saved_parent_ = 0;
};

}  // namespace perfbench
