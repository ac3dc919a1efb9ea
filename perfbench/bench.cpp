#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "runtime/ensemble.hpp"
#include "sim/engine/compiled_system.hpp"
#include "trace.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return mrsc::runtime::quantile_sorted(values, q);
}

double process_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

double thread_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

double reference_kernel_s() {
  // Thread-local state carried from call to call, so the compiler can
  // neither fold the loop nor keep it all in registers.
  thread_local std::uint64_t lanes[4] = {1, 2, 3, 4};
  thread_local double acc[64] = {};
  const double start = thread_cpu_s();
  for (int rep = 0; rep < 20000; ++rep) {
    for (std::uint64_t& lane : lanes) {
      lane ^= lane << 13;
      lane ^= lane >> 7;
      lane ^= lane << 17;
    }
    if ((lanes[rep & 3] & 1) != 0) {
      lanes[0] += 3;
    } else {
      lanes[1] += 5;
    }
    for (int j = 0; j < 64; ++j) {
      acc[j] = 0.999 * acc[j] + 1e-3 * static_cast<double>(lanes[j & 3] & 255);
    }
  }
  return thread_cpu_s() - start;
}

double reference_probe_s(std::size_t threads, std::size_t calls) {
  std::vector<double> seconds(threads, 0.0);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&seconds, t, calls] {
        for (std::size_t c = 0; c < calls; ++c) {
          seconds[t] += reference_kernel_s();
        }
      });
    }
  }
  double total = 0.0;
  for (const double s : seconds) total += s;
  return total / static_cast<double>(threads * calls);
}

std::string share_text(std::size_t part, std::size_t whole) {
  char share[32];
  std::snprintf(share, sizeof share, " (%.1f %%)",
                whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                       static_cast<double>(whole));
  return std::to_string(part) + " of " + std::to_string(whole) + share;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void DesignSetup::repeat() {
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  mrsc::scenario::ResolvedScenario fresh;
  {
    const Span span("scenario.resolve", setup_cpu_s.size());
    fresh = mrsc::scenario::ScenarioRegistry::global().resolve(spec);
  }
  const Clock::time_point t1 = Clock::now();
  {
    const Span span("engine.build", setup_cpu_s.size());
    const mrsc::sim::CompiledSystem system(*fresh.design.network);
    static_cast<void>(system.reaction_count());
  }
  const Clock::time_point t2 = Clock::now();
  setup_cpu_s.push_back(process_cpu_s() - cpu0);
  reference_s.push_back(reference_kernel_s());
  setup_reference_cpu_s.push_back(setup_cpu_s.back() * kReferenceKernelS /
                                  reference_s.back());
  resolve_ms.push_back(1e3 * seconds_between(t0, t1));
  build_ms.push_back(1e3 * seconds_between(t1, t2));
  if (resolved.design.network == nullptr) resolved = std::move(fresh);
}

}  // namespace perfbench
