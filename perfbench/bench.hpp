// Shared vocabulary of the mrsc benchmark: run configuration, metric rows,
// the per-workload result record, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/registry.hpp"

namespace perfbench {

/// Everything a workload needs from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< nominal run length; sizes the work (see README)
  bool trace = false;     ///< traced run: per-layer metrics instead of e2e
  bool tiny = false;      ///< self-test size: checks names, not performance
  std::size_t workers = 1;  ///< min(nproc, 4) compute threads
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind a median/percentile
};

/// What one workload run reports.
struct WorkloadResult {
  /// End-to-end metrics of the untraced run (names from BENCHMARK.json).
  std::vector<Metric> end_to_end;
  /// Metrics of the traced run (names from BENCHMARK.json).
  std::vector<Metric> per_layer;
  /// The workload's own metric names (replicates_per_s, cycles_per_s_be,
  /// ...), printed on the report line in both modes.
  std::vector<Metric> report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when an output check found a discrepancy that is not one of the
  /// documented seed defects (see README.md, "Known seed defects").
  bool correct = true;
  std::vector<std::string> notes;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation percentile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// CPU time of the whole process (all threads) so far, in seconds. On a
/// paravirtualised guest it excludes steal time, so rates per CPU-second
/// hold steady while the host takes cycles away; wall-clock rates do not.
[[nodiscard]] double process_cpu_s();

/// CPU time of the calling thread so far, in seconds.
[[nodiscard]] double thread_cpu_s();

/// Host-speed reference: a fixed kernel of independent integer and
/// floating-point chains in a few hundred bytes, compiled here and never
/// from ../src, so no change to the library moves it. Its CPU time follows
/// the contention a shared host puts on a core (a busy hyperthread sibling
/// slows it as much as it slows the library), so CPU times divided by it
/// hold steady while the host's speed swings. Returns the calling thread's
/// CPU seconds for one run of the kernel.
[[nodiscard]] double reference_kernel_s();

/// reference_kernel_s() run `calls` times on each of `threads` threads at
/// once; the mean CPU seconds of one call.
[[nodiscard]] double reference_probe_s(std::size_t threads,
                                       std::size_t calls);

/// The reference kernel's CPU time on an uncontended core of the 4-vCPU
/// guest the benchmark was built on. A CPU time t measured while the
/// kernel took r counts as t * kReferenceKernelS / r "reference
/// CPU-seconds"; the *_per_cpu_s rates of ssa_ensemble and clocked_ode are
/// per reference CPU-second.
inline constexpr double kReferenceKernelS = 2.0e-3;

/// "part of whole (share %)", as the known-defect notes print it.
[[nodiscard]] std::string share_text(std::size_t part, std::size_t whole);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Set-ups timed per run; setup_s reports their median. The workloads
/// spread them over the run, so that setup_s samples the same stretch of
/// host time as the measured work.
inline constexpr std::size_t kSetupRepeats = 21;

/// Set-ups to time before each of `units` measured units, after one at
/// the start, to reach kSetupRepeats.
[[nodiscard]] inline std::size_t setups_per_unit(std::size_t units) {
  return (kSetupRepeats - 2 + units) / units;
}

/// Set-up timings of one registry design. Each repeat() resolves/compiles
/// the spec and builds its CompiledSystem (spans scenario.resolve and
/// engine.build), then runs the reference kernel once, untimed. The first
/// resolve is kept; later ones are only timed. setup_cpu_s is in process
/// CPU seconds, setup_reference_cpu_s in reference CPU-seconds (divided by
/// the reference_s that followed), the per-layer times in wall ms.
struct DesignSetup {
  explicit DesignSetup(std::string design_spec)
      : spec(std::move(design_spec)) {}
  void repeat();

  std::string spec;
  mrsc::scenario::ResolvedScenario resolved;
  std::vector<double> setup_cpu_s;
  std::vector<double> reference_s;
  std::vector<double> setup_reference_cpu_s;
  std::vector<double> resolve_ms;
  std::vector<double> build_ms;
};

WorkloadResult run_ssa_ensemble(const RunConfig& config);
WorkloadResult run_clocked_ode(const RunConfig& config);
WorkloadResult run_fleet_campaign(const RunConfig& config);

}  // namespace perfbench
