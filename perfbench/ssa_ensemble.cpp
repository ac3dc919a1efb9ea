// Workload ssa_ensemble: the mrsc_batch path.
//
// runtime::run_ssa_ensemble on delay_chain(16) (103 species, 1019
// reactions) at omega = 2000 with the default next-reaction method and the
// compiled engine, on min(nproc, 4) workers. Ensemble k uses base seed
// seed + k, so ensemble 0 runs exactly the workload seed. The SSA engine and
// the runtime pool do nearly all the work; serve, fleet and the ODE
// steppers do none.
#include <algorithm>
#include <cmath>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "sim/ssa.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace mrsc;

struct Sizes {
  std::string design = "delay_chain(16)";
  double omega = 2000.0;
  double t_end = 100.0;
  std::size_t replicates = 32;
  std::size_t ensembles = 2;
};

Sizes sizes_for(const RunConfig& config) {
  Sizes sizes;
  if (config.tiny) {
    sizes.design = "delay_chain(2)";
    sizes.t_end = 5.0;
    sizes.replicates = 4;
    return sizes;
  }
  // About 2 s per ensemble of 32 replicates on 4 workers.
  sizes.ensembles = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(config.seconds / 2.0)));
  return sizes;
}

struct Pass {
  std::vector<std::uint64_t> base_seeds;
  std::vector<runtime::EnsembleResult> ensembles;
  std::vector<double> replicates_per_s;  ///< per ensemble, wall clock
  std::vector<double> events_per_s;      ///< per ensemble, wall clock
  std::vector<double> replicates_per_cpu_s;  ///< per ensemble
  std::vector<double> events_per_cpu_s;      ///< per ensemble
  /// Per ensemble, per reference CPU-second (see kReferenceKernelS).
  std::vector<double> replicates_per_reference_cpu_s;
  std::vector<double> events_per_reference_cpu_s;
  std::vector<double> reference_ms;  ///< per probe
  std::vector<double> busy_share;        ///< per ensemble
  std::vector<double> reduce_ms;         ///< per ensemble
  std::vector<double> replicate_ms;      ///< per replicate
  std::uint64_t events = 0;
  double busy_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU over all ensembles
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Pass run_pass(const RunConfig& config, const Sizes& sizes,
              DesignSetup& setup) {
  const core::ReactionNetwork& network = *setup.resolved.design.network;
  sim::SsaOptions ssa;
  ssa.t_end = sizes.t_end;
  ssa.omega = sizes.omega;
  ssa.record_interval = sizes.t_end;  // final state is what is reduced

  // The host-speed reference runs on every worker thread at once, before
  // the first ensemble and after each one; an ensemble's CPU time is
  // divided by the mean of the probes on either side of it.
  constexpr std::size_t kProbeCalls = 20;
  Pass pass;
  double reference_s = reference_probe_s(config.workers, kProbeCalls);
  pass.reference_ms.push_back(1e3 * reference_s);
  for (std::size_t k = 0; k < sizes.ensembles; ++k) {
    runtime::EnsembleOptions options;
    options.replicates = sizes.replicates;
    options.base_seed = config.seed + k;
    options.batch.threads = config.workers;

    for (std::size_t r = 0; r < setups_per_unit(sizes.ensembles); ++r) {
      setup.repeat();
    }
    runtime::EnsembleResult result;
    const double cpu0 = process_cpu_s();
    {
      const Span span("runtime.run_ssa_ensemble", k);
      result = runtime::run_ssa_ensemble(network, ssa, options);
    }
    const double cpu_s = process_cpu_s() - cpu0;
    pass.cpu_s += cpu_s;
    // The reduction the ensemble runner applies, timed on its own through
    // the public reduce_species.
    const Clock::time_point reduce_start = Clock::now();
    {
      const Span span("runtime.reduce_species", k);
      for (std::size_t s = 0; s < network.species_count(); ++s) {
        std::vector<double> values;
        values.reserve(result.replicates.size());
        for (const runtime::JobResult& job : result.replicates) {
          if (job.status == runtime::JobStatus::kOk) {
            values.push_back(job.final_state[s]);
          }
        }
        static_cast<void>(runtime::reduce_species("", std::move(values)));
      }
    }
    pass.reduce_ms.push_back(
        1e3 * seconds_between(reduce_start, Clock::now()));

    std::uint64_t events = 0;
    double busy = 0.0;
    for (const runtime::JobResult& job : result.replicates) {
      events += job.ssa_events;
      busy += job.wall_seconds;
      pass.replicate_ms.push_back(1e3 * job.wall_seconds);
    }
    pass.events += events;
    pass.busy_s += busy;
    pass.attempted += result.replicates.size();
    pass.failed += result.replicates.size() - result.ok;
    pass.replicates_per_s.push_back(
        static_cast<double>(result.replicates.size()) / result.wall_seconds);
    pass.events_per_s.push_back(static_cast<double>(events) /
                                result.wall_seconds);
    pass.replicates_per_cpu_s.push_back(
        static_cast<double>(result.replicates.size()) / cpu_s);
    pass.events_per_cpu_s.push_back(static_cast<double>(events) / cpu_s);
    const double next_reference_s =
        reference_probe_s(config.workers, kProbeCalls);
    pass.reference_ms.push_back(1e3 * next_reference_s);
    const double reference_cpu_s =
        cpu_s * kReferenceKernelS / (0.5 * (reference_s + next_reference_s));
    reference_s = next_reference_s;
    pass.replicates_per_reference_cpu_s.push_back(
        static_cast<double>(result.replicates.size()) / reference_cpu_s);
    pass.events_per_reference_cpu_s.push_back(static_cast<double>(events) /
                                              reference_cpu_s);
    pass.busy_share.push_back(busy / (static_cast<double>(config.workers) *
                                      result.wall_seconds));
    pass.base_seeds.push_back(options.base_seed);
    pass.ensembles.push_back(std::move(result));
  }
  return pass;
}

/// Checks every ensemble's stats against an independent reduction, and one
/// replicate per ensemble against a serial re-run of its documented seed
/// (the pool must not change results). Returns the discrepancy count.
std::size_t check_pass(const Pass& pass, const Sizes& sizes,
                       const core::ReactionNetwork& network) {
  const Span span("check.ssa_ensemble", 0);
  std::size_t bad = 0;
  for (std::size_t k = 0; k < pass.ensembles.size(); ++k) {
    const runtime::EnsembleResult& result = pass.ensembles[k];
    bad += check_reduction(result, network.species_count());

    const std::size_t i = k % sizes.replicates;
    sim::SsaOptions ssa;
    ssa.t_end = sizes.t_end;
    ssa.omega = sizes.omega;
    ssa.record_interval = sizes.t_end;
    ssa.seed = util::Rng::stream_seed(pass.base_seeds[k], i);
    const sim::SsaResult serial = sim::simulate_ssa(network, ssa);
    const runtime::JobResult& pooled = result.replicates.at(i);
    bool same = pooled.ssa_events == serial.events &&
                pooled.final_state.size() == serial.final_counts.size();
    for (std::size_t s = 0; same && s < serial.final_counts.size(); ++s) {
      same = pooled.final_state[s] ==
             static_cast<double>(serial.final_counts[s]) / ssa.omega;
    }
    if (!same) ++bad;
  }
  return bad;
}

}  // namespace

WorkloadResult run_ssa_ensemble(const RunConfig& config) {
  const Sizes sizes = sizes_for(config);
  // Set-up: resolve/compile the design and build its CompiledSystem (the
  // ensemble runner builds one per ensemble; timed here on its own).
  DesignSetup setup(sizes.design);
  setup.repeat();
  const core::ReactionNetwork& network = *setup.resolved.design.network;

  Tracer& tracer = Tracer::global();
  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  const Pass pass = run_pass(config, sizes, setup);

  WorkloadResult out;
  out.attempted = pass.attempted;
  out.failed = pass.failed;
  const std::size_t discrepancies = check_pass(pass, sizes, network);
  out.correct = discrepancies == 0;
  if (discrepancies != 0) {
    out.notes.push_back(std::to_string(discrepancies) +
                        " ensemble output check(s) failed");
  }

  out.end_to_end = {
      {"setup_s", median(setup.setup_reference_cpu_s), "s",
       setup.setup_reference_cpu_s.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"primary_per_cpu_s", median(pass.replicates_per_reference_cpu_s),
       "1/cpu_s", pass.replicates_per_reference_cpu_s.size()},
      {"secondary_per_cpu_s", median(pass.events_per_reference_cpu_s),
       "1/cpu_s", pass.events_per_reference_cpu_s.size()},
  };
  const std::vector<Metric> wall = {
      {"replicates_per_s", median(pass.replicates_per_s), "1/s",
       pass.replicates_per_s.size()},
      {"ssa_events_per_s", median(pass.events_per_s), "1/s",
       pass.events_per_s.size()},
      {"replicate_ms_p50", percentile(pass.replicate_ms, 0.5), "ms",
       pass.replicate_ms.size()},
      {"replicate_ms_p90", percentile(pass.replicate_ms, 0.9), "ms",
       pass.replicate_ms.size()},
  };
  out.report = wall;
  out.report.insert(
      out.report.end(),
      {{"replicates_per_reference_cpu_s", out.end_to_end[2].value,
        "1/cpu_s", out.end_to_end[2].samples},
       {"ssa_events_per_reference_cpu_s", out.end_to_end[3].value, "1/cpu_s",
        out.end_to_end[3].samples},
       {"reference_kernel_ms", median(pass.reference_ms), "ms",
        pass.reference_ms.size()},
       {"replicates_per_cpu_s", median(pass.replicates_per_cpu_s), "1/cpu_s",
        pass.replicates_per_cpu_s.size()},
       {"ssa_events_per_cpu_s", median(pass.events_per_cpu_s), "1/cpu_s",
        pass.events_per_cpu_s.size()},
       {"setup_reference_cpu_s", out.end_to_end[0].value, "s",
        out.end_to_end[0].samples},
       {"setup_cpu_s", median(setup.setup_cpu_s), "s",
        setup.setup_cpu_s.size()},
       {"peak_rss_mb", out.end_to_end[1].value, "MB", 1},
       {"replicates", static_cast<double>(pass.replicate_ms.size()), "count",
        0},
       {"failed_replicates", static_cast<double>(pass.failed), "count", 0}});
  if (!traced) return out;

  tracer.set_enabled(true);
  const Pass traced_pass = run_pass(config, sizes, setup);
  tracer.set_enabled(false);
  out.per_layer = {
      {"wall.primary_per_s", wall[0].value, "1/s", wall[0].samples},
      {"wall.secondary_per_s", wall[1].value, "1/s", wall[1].samples},
      {"wall.op_ms_p50", wall[2].value, "ms", wall[2].samples},
      {"wall.op_ms_p90", wall[3].value, "ms", wall[3].samples},
      {"scenario.resolve_ms", median(setup.resolve_ms), "ms",
       setup.resolve_ms.size()},
      {"engine.build_ms", median(setup.build_ms), "ms", setup.build_ms.size()},
      {"ssa.events", static_cast<double>(traced_pass.events), "count", 0},
      {"ssa.events_per_busy_s",
       static_cast<double>(traced_pass.events) / traced_pass.busy_s, "1/s", 0},
      {"ssa.replicate_ms_p50", percentile(traced_pass.replicate_ms, 0.5), "ms",
       traced_pass.replicate_ms.size()},
      {"ssa.replicate_ms_p90", percentile(traced_pass.replicate_ms, 0.9), "ms",
       traced_pass.replicate_ms.size()},
      {"runtime.busy_share", median(traced_pass.busy_share), "fraction",
       traced_pass.busy_share.size()},
      {"runtime.reduce_ms", median(traced_pass.reduce_ms), "ms",
       traced_pass.reduce_ms.size()},
      {"trace.overhead_share", traced_pass.cpu_s / pass.cpu_s - 1.0,
       "fraction", 0},
  };
  return out;
}

}  // namespace perfbench
