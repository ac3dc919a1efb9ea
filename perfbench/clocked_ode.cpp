// Workload clocked_ode: the paper's own experiment, the mrsc_sim path.
//
// The registry counter(6) is driven through analysis::run_counter with the
// adaptive dp45 default and again with the implicit backward Euler (`be`,
// dense Newton/LU), 32 increments each. Every decoded value is compared with
// the gate-level netlist. Only the ODE steppers do real work here; the
// workload is deterministic and ignores the seed.
#include <algorithm>
#include <cmath>
#include <string>
#include <variant>

#include "analysis/harness.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "scenario/registry.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/observer.hpp"
#include "trace.hpp"
#include "util/matrix.hpp"

namespace perfbench {

namespace {

using namespace mrsc;

struct Sizes {
  std::size_t bits = 6;
  std::size_t increments = 32;  ///< past increment 24: see README
  std::size_t dp45_runs = 1;
  std::size_t be_runs = 1;
};

Sizes sizes_for(const RunConfig& config) {
  Sizes sizes;
  if (config.tiny) {
    sizes.bits = 3;
    sizes.increments = 8;
    return sizes;
  }
  // On one core a dp45 run takes 2-3 s and a be run 4-6 s; at --seconds 20
  // that is 4 dp45 and 3 be runs.
  sizes.dp45_runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(config.seconds / 5.0)));
  sizes.be_runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(config.seconds / 6.5)));
  return sizes;
}

/// Stamps host time at every rising edge of the red clock phase, the edge
/// on which run_counter decodes; consecutive stamps bound one clock cycle.
class CycleStamper : public sim::Observer {
 public:
  CycleStamper(core::SpeciesId species, double low, double high)
      : index_(species.value()), low_(low), high_(high) {}

  void on_step(double /*t*/, std::span<double> state) override {
    const double value = state[index_];
    if (!initialized_) {
      initialized_ = true;
      high_state_ = value > high_;
      return;
    }
    if (!high_state_ && value > high_) {
      high_state_ = true;
      stamps_.push_back(Clock::now());
      cpu_stamps_.push_back(thread_cpu_s());
      // The host-speed reference, timed at every edge and kept out of the
      // cycles on either side of it.
      reference_s_.push_back(reference_kernel_s());
      cpu_stamps_.back() += reference_s_.back();
    } else if (high_state_ && value < low_) {
      high_state_ = false;
    }
  }

  /// Host milliseconds of each cycle between consecutive edges.
  [[nodiscard]] std::vector<double> cycle_ms() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < stamps_.size(); ++i) {
      out.push_back(1e3 * seconds_between(stamps_[i - 1], stamps_[i]));
    }
    return out;
  }

  /// Reference kernel CPU seconds for each cycle: the mean of the calls at
  /// its two edges.
  [[nodiscard]] std::vector<double> cycle_reference_s() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < reference_s_.size(); ++i) {
      out.push_back(0.5 * (reference_s_[i] + reference_s_[i - 1]));
    }
    return out;
  }

  /// CPU seconds spent in the reference kernel.
  [[nodiscard]] double reference_total_s() const {
    double total = 0.0;
    for (const double s : reference_s_) total += s;
    return total;
  }

  /// Thread CPU seconds of each cycle between consecutive edges.
  [[nodiscard]] std::vector<double> cycle_cpu_s() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < cpu_stamps_.size(); ++i) {
      out.push_back(cpu_stamps_[i] - cpu_stamps_[i - 1]);
    }
    return out;
  }

 private:
  std::size_t index_;
  double low_;
  double high_;
  bool initialized_ = false;
  bool high_state_ = false;
  std::vector<Clock::time_point> stamps_;
  std::vector<double> cpu_stamps_;
  std::vector<double> reference_s_;
};

struct MethodRun {
  std::vector<std::uint64_t> values;
  std::vector<double> read_times;
  std::vector<double> cycle_ms;
  std::vector<double> cycle_cpu_s;
  std::vector<double> cycle_reference_s;
  std::vector<double> final_state;
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

MethodRun run_method(const scenario::ResolvedScenario& resolved,
                     const Sizes& sizes, sim::OdeMethod method,
                     std::uint64_t request_id) {
  const core::ReactionNetwork& network = *resolved.design.network;
  const auto& artifacts =
      std::get<scenario::CounterArtifacts>(resolved.artifacts);
  analysis::ClockedRunOptions options;
  options.ode.method = method;
  if (method == sim::OdeMethod::kBackwardEuler) options.ode.dt = 0.01;
  options.ode.t_end = analysis::suggest_t_end(
      artifacts.spec.clock, network.rate_policy(), sizes.increments);
  const double token = artifacts.handles.clock.token;
  CycleStamper stamper(artifacts.handles.clock.phase_r,
                       options.threshold_low * token,
                       options.threshold_high * token);
  options.extra_observers.push_back(&stamper);

  MethodRun run;
  const double cpu0 = process_cpu_s();
  const Clock::time_point start = Clock::now();
  analysis::CounterRunResult result;
  {
    const Span span(method == sim::OdeMethod::kBackwardEuler
                        ? "analysis.run_counter.be"
                        : "analysis.run_counter.dp45",
                    request_id);
    result = analysis::run_counter(network, artifacts.handles,
                                   sizes.increments, options);
  }
  run.wall_s = seconds_between(start, Clock::now());
  run.cpu_s = process_cpu_s() - cpu0 - stamper.reference_total_s();
  run.values = result.values;
  run.read_times = result.read_times;
  run.cycle_ms = stamper.cycle_ms();
  run.cycle_cpu_s = stamper.cycle_cpu_s();
  run.cycle_reference_s = stamper.cycle_reference_s();
  const std::span<const double> final = result.ode.trajectory.final_state();
  run.final_state.assign(final.begin(), final.end());
  run.steps_accepted = result.ode.steps_accepted;
  run.steps_rejected = result.ode.steps_rejected;
  return run;
}

struct Pass {
  std::vector<MethodRun> dp45;
  std::vector<MethodRun> be;
};

Pass run_pass(const Sizes& sizes, DesignSetup& setup) {
  const scenario::ResolvedScenario& resolved = setup.resolved;
  const std::size_t setups =
      setups_per_unit(sizes.dp45_runs + sizes.be_runs);
  // dp45 and be runs alternate while both last, so both sample the same
  // stretch of host time.
  Pass pass;
  std::uint64_t request_id = 0;
  for (std::size_t r = 0; r < std::max(sizes.dp45_runs, sizes.be_runs); ++r) {
    if (r < sizes.dp45_runs) {
      for (std::size_t i = 0; i < setups; ++i) setup.repeat();
      pass.dp45.push_back(run_method(
          resolved, sizes, sim::OdeMethod::kDormandPrince45, request_id++));
    }
    if (r < sizes.be_runs) {
      for (std::size_t i = 0; i < setups; ++i) setup.repeat();
      pass.be.push_back(run_method(resolved, sizes,
                                   sim::OdeMethod::kBackwardEuler,
                                   request_id++));
    }
  }
  return pass;
}

/// Median over runs of decoded cycles per `MethodRun::*seconds` (wall or
/// CPU).
double cycles_per(const std::vector<MethodRun>& runs,
                  double MethodRun::*seconds) {
  std::vector<double> rates;
  for (const MethodRun& run : runs) {
    rates.push_back(static_cast<double>(run.values.size()) / run.*seconds);
  }
  return median(rates);
}

/// Clock cycles per reference CPU-second (see kReferenceKernelS). Each
/// cycle's thread CPU time is divided by the reference kernel's CPU time
/// at its edges, and the median of that ratio over the runs is taken. The
/// runs are identical, so cycle i does the same steps in each.
double cycles_per_reference_cpu_s(const std::vector<MethodRun>& runs) {
  std::size_t cycles = runs.front().cycle_cpu_s.size();
  for (const MethodRun& run : runs) {
    cycles = std::min(cycles, run.cycle_cpu_s.size());
  }
  double references = 0.0;
  for (std::size_t i = 0; i < cycles; ++i) {
    std::vector<double> ratios;
    for (const MethodRun& run : runs) {
      ratios.push_back(run.cycle_cpu_s[i] / run.cycle_reference_s[i]);
    }
    references += median(std::move(ratios));
  }
  return references > 0.0
             ? static_cast<double>(cycles) / (references * kReferenceKernelS)
             : 0.0;
}

/// Median reference kernel CPU time over all cycles of the runs, in ms.
double reference_ms(const std::vector<MethodRun>& runs) {
  std::vector<double> all;
  for (const MethodRun& run : runs) {
    all.insert(all.end(), run.cycle_reference_s.begin(),
               run.cycle_reference_s.end());
  }
  return 1e3 * median(std::move(all));
}

double cpu_s(const Pass& pass) {
  double total = 0.0;
  for (const MethodRun& run : pass.dp45) total += run.cpu_s;
  for (const MethodRun& run : pass.be) total += run.cpu_s;
  return total;
}

/// Median microseconds per call of `fn` over several timed blocks.
template <class Fn>
double micro_us(const char* span_name, std::size_t calls, Fn&& fn) {
  constexpr std::size_t kBlocks = 7;
  std::vector<double> per_call;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const Span span(span_name, b);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(1e6 * seconds_between(start, Clock::now()) /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

}  // namespace

WorkloadResult run_clocked_ode(const RunConfig& config) {
  const Sizes sizes = sizes_for(config);
  const std::string spec = "counter(" + std::to_string(sizes.bits) + ")";
  DesignSetup setup(spec);
  setup.repeat();
  const scenario::ResolvedScenario& resolved = setup.resolved;

  Tracer& tracer = Tracer::global();
  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  const Pass pass = run_pass(sizes, setup);

  // Output check against the netlist, classified against the known
  // bit-3 defect of the molecular counter.
  const std::vector<std::uint64_t> reference =
      counter_reference(sizes.bits, sizes.increments);
  const std::vector<std::uint64_t> defect =
      counter_defect_model(reference, sizes.bits);
  WorkloadResult out;
  std::size_t unexplained = 0;
  for (const std::vector<MethodRun>* runs : {&pass.dp45, &pass.be}) {
    for (const MethodRun& run : *runs) {
      const DecodeCheck check = check_decoded(run.values, reference, defect);
      out.attempted += check.cycles;
      out.failed += check.mismatches;
      unexplained += check.unexplained;
    }
  }
  out.correct = unexplained == 0;
  if (out.failed != 0) {
    out.notes.push_back(
        "known defect: " + share_text(out.failed, out.attempted) +
        " decoded cycles differ from the netlist (counter bit 3 never sets "
        "after its first carry)");
  }
  if (unexplained != 0) {
    out.notes.push_back(std::to_string(unexplained) +
                        " decoded cycle(s) match neither the netlist nor the "
                        "known-defect model");
  }

  std::vector<double> dp45_cycle_ms;
  for (const MethodRun& run : pass.dp45) {
    dp45_cycle_ms.insert(dp45_cycle_ms.end(), run.cycle_ms.begin(),
                         run.cycle_ms.end());
  }
  const double dp45_cpu_rate = cycles_per(pass.dp45, &MethodRun::cpu_s);
  const double be_cpu_rate = cycles_per(pass.be, &MethodRun::cpu_s);
  out.end_to_end = {
      {"setup_s", median(setup.setup_reference_cpu_s), "s",
       setup.setup_reference_cpu_s.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"primary_per_cpu_s", cycles_per_reference_cpu_s(pass.dp45), "1/cpu_s",
       pass.dp45.size()},
      {"secondary_per_cpu_s", cycles_per_reference_cpu_s(pass.be), "1/cpu_s",
       pass.be.size()},
  };
  const std::vector<Metric> wall = {
      {"cycles_per_s_dp45", cycles_per(pass.dp45, &MethodRun::wall_s), "1/s",
       pass.dp45.size()},
      {"cycles_per_s_be", cycles_per(pass.be, &MethodRun::wall_s), "1/s",
       pass.be.size()},
      {"cycle_ms_p50_dp45", percentile(dp45_cycle_ms, 0.5), "ms",
       dp45_cycle_ms.size()},
      {"cycle_ms_p90_dp45", percentile(dp45_cycle_ms, 0.9), "ms",
       dp45_cycle_ms.size()},
  };
  out.report = wall;
  out.report.insert(
      out.report.end(),
      {{"cycles_per_reference_cpu_s_dp45", out.end_to_end[2].value, "1/cpu_s",
        pass.dp45.size()},
       {"cycles_per_reference_cpu_s_be", out.end_to_end[3].value, "1/cpu_s",
        pass.be.size()},
       {"reference_kernel_ms", reference_ms(pass.dp45), "ms",
        pass.dp45.size()},
       {"cycles_per_cpu_s_dp45", dp45_cpu_rate, "1/cpu_s", pass.dp45.size()},
       {"cycles_per_cpu_s_be", be_cpu_rate, "1/cpu_s", pass.be.size()},
       {"setup_reference_cpu_s", out.end_to_end[0].value, "s",
        out.end_to_end[0].samples},
       {"setup_cpu_s", median(setup.setup_cpu_s), "s",
        setup.setup_cpu_s.size()},
       {"peak_rss_mb", out.end_to_end[1].value, "MB", 1},
       {"decoded_cycles", static_cast<double>(out.attempted), "count", 0},
       {"decode_mismatches", static_cast<double>(out.failed), "count", 0}});
  if (!traced) return out;

  tracer.set_enabled(true);
  const Pass traced_pass = run_pass(sizes, setup);

  // One evaluation each of the pieces a be Newton iteration is made of, at
  // this design's size, through the public engine and matrix calls.
  const sim::CompiledSystem system(*resolved.design.network);
  const std::vector<double>& x = pass.dp45.front().final_state;
  const std::size_t n = system.species_count();
  std::vector<double> f(n);
  util::Matrix jac(n, n);
  double sink = 0.0;
  const double rhs_us = micro_us("sim.rhs", 2000, [&] {
    system.rhs(x, f);
    sink += f[0];
  });
  const double jacobian_us = micro_us("sim.jacobian", 500, [&] {
    system.jacobian(x, jac);
    sink += jac(0, 0);
  });
  util::Matrix newton(n, n);
  newton.set_identity();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) newton(r, c) -= 0.01 * jac(r, c);
  }
  const double lu_us = micro_us("util.lu", 500, [&] {
    const util::LuFactorization lu(newton);
    sink += lu.determinant();
  });
  tracer.set_enabled(false);
  if (!std::isfinite(sink)) out.notes.push_back("non-finite micro result");

  const MethodRun& dp45 = traced_pass.dp45.front();
  const MethodRun& be = traced_pass.be.front();
  std::vector<double> periods;
  for (std::size_t i = 1; i < dp45.read_times.size(); ++i) {
    periods.push_back(dp45.read_times[i] - dp45.read_times[i - 1]);
  }
  out.per_layer = {
      {"wall.primary_per_s", wall[0].value, "1/s", wall[0].samples},
      {"wall.secondary_per_s", wall[1].value, "1/s", wall[1].samples},
      {"wall.op_ms_p50", wall[2].value, "ms", wall[2].samples},
      {"wall.op_ms_p90", wall[3].value, "ms", wall[3].samples},
      {"scenario.resolve_ms", median(setup.resolve_ms), "ms",
       setup.resolve_ms.size()},
      {"engine.build_ms", median(setup.build_ms), "ms", setup.build_ms.size()},
      {"ode.steps_accepted.dp45", static_cast<double>(dp45.steps_accepted),
       "count", 0},
      {"ode.steps_rejected.dp45", static_cast<double>(dp45.steps_rejected),
       "count", 0},
      {"ode.steps_accepted.be", static_cast<double>(be.steps_accepted),
       "count", 0},
      {"ode.step_us.dp45",
       1e6 * dp45.cpu_s / static_cast<double>(dp45.steps_accepted), "us", 0},
      {"ode.step_us.be",
       1e6 * be.cpu_s / static_cast<double>(be.steps_accepted), "us", 0},
      {"analysis.cycle_period", median(periods), "time", periods.size()},
      {"ode.rhs_us", rhs_us, "us", 7},
      {"ode.jacobian_us", jacobian_us, "us", 7},
      {"ode.lu_us", lu_us, "us", 7},
      {"trace.overhead_share", cpu_s(traced_pass) / cpu_s(pass) - 1.0,
       "fraction", 0},
  };
  return out;
}

}  // namespace perfbench
