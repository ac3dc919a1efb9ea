#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "serve/json.hpp"

namespace perfbench {

namespace {
thread_local std::uint64_t current_parent = 0;

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}
}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::now_us() const {
  return 1e6 * seconds_between(epoch_, Clock::now());
}

std::uint64_t Tracer::next_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

void Tracer::record(SpanRecord record) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(record));
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard lock(mutex_);
  // Children of one span run sequentially on the opening thread, so their
  // durations do not overlap and subtract directly.
  std::unordered_map<std::uint64_t, double> child_us;
  for (const SpanRecord& span : spans_) {
    if (span.parent_id != 0) {
      child_us[span.parent_id] += span.end_us - span.start_us;
    }
  }
  std::map<std::string, double> self_ms;
  for (const SpanRecord& span : spans_) {
    const auto it = child_us.find(span.span_id);
    const double covered = it == child_us.end() ? 0.0 : it->second;
    self_ms[layer_of(span.name)] +=
        std::max(0.0, span.end_us - span.start_us - covered) / 1e3;
  }
  return self_ms;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  namespace json = mrsc::serve::json;
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans_) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":" << json::quote(span.name)
        << ",\"cat\":" << json::quote(layer_of(span.name))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << json::number_to_string(span.start_us)
        << ",\"dur\":" << json::number_to_string(span.end_us - span.start_us)
        << ",\"args\":{\"request_id\":" << span.request_id
        << ",\"span_id\":" << span.span_id
        << ",\"parent_id\":" << span.parent_id << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, std::uint64_t request_id) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.request_id = request_id;
  record_.span_id = tracer.next_id();
  record_.parent_id = current_parent;
  saved_parent_ = current_parent;
  current_parent = record_.span_id;
  record_.start_us = tracer.now_us();
}

Span::~Span() {
  if (!active_) return;
  Tracer& tracer = Tracer::global();
  record_.end_us = tracer.now_us();
  current_parent = saved_parent_;
  tracer.record(std::move(record_));
}

}  // namespace perfbench
