// mrsc benchmark binary: one workload per invocation.
//
//   mrsc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--git-sha SHA] [--trace-out FILE] [--tiny]
//   mrsc_perfbench --self-test
//
// Prints a context line (host, build, workload), a report line (the
// workload's own metric names), and as the last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. Exit code 0 on a
// completed run (whatever the checks found), 2 on a usage error, 1 when the
// run itself fails.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>

#include "analysis/harness.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "fleet/fleet.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace json = mrsc::serve::json;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units of BENCHMARK.json. What each end-to-end slot
// means on each workload is tabled in README.md.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"primary_per_cpu_s", "1/cpu_s"},
    {"secondary_per_cpu_s", "1/cpu_s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"wall.primary_per_s", "1/s"},
    {"wall.secondary_per_s", "1/s"},
    {"wall.op_ms_p50", "ms"},
    {"wall.op_ms_p90", "ms"},
    {"scenario.resolve_ms", "ms"},
    {"engine.build_ms", "ms"},
    {"ssa.events", "count"},
    {"ssa.events_per_busy_s", "1/s"},
    {"ssa.replicate_ms_p50", "ms"},
    {"ssa.replicate_ms_p90", "ms"},
    {"runtime.busy_share", "fraction"},
    {"runtime.reduce_ms", "ms"},
    {"ode.steps_accepted.dp45", "count"},
    {"ode.steps_rejected.dp45", "count"},
    {"ode.steps_accepted.be", "count"},
    {"ode.step_us.dp45", "us"},
    {"ode.step_us.be", "us"},
    {"analysis.cycle_period", "time"},
    {"ode.rhs_us", "us"},
    {"ode.jacobian_us", "us"},
    {"ode.lu_us", "us"},
    {"serve.run_job_ms", "ms"},
    {"serve.cache_hit_rate.cold", "fraction"},
    {"serve.cache_hit_rate.warm", "fraction"},
    {"serve.sim_ms_p50", "ms"},
    {"serve.lint_ms_p50", "ms"},
    {"serve.overload_rejected", "count"},
    {"serve.protocol_errors", "count"},
    {"fleet.attempts", "count"},
    {"fleet.retries", "count"},
    {"fleet.failures", "count"},
    {"fleet.timeouts", "count"},
    {"fleet.connect_us", "us"},
    {"fleet.client_overhead_ms", "ms"},
    {"fleet.local_mismatches", "count"},
    {"fleet.rejected_ensembles", "count"},
    {"check.failure_share", "fraction"},
    {"trace.overhead_share", "fraction"},
    {"trace.spans", "count"},
    {"self_ms.scenario", "ms"},
    {"self_ms.engine", "ms"},
    {"self_ms.runtime", "ms"},
    {"self_ms.analysis", "ms"},
    {"self_ms.sim", "ms"},
    {"self_ms.util", "ms"},
    {"self_ms.serve", "ms"},
    {"self_ms.fleet", "ms"},
};

struct Args {
  std::string workload;
  RunConfig config;
  std::string git_sha = "unknown";
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& message) {
  throw std::invalid_argument(message);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage(std::string(flag) + " needs a non-negative integer");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (flag == "--tiny") {
      args.config.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.config.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      args.config.seconds =
          static_cast<double>(parse_u64(value, "--seconds"));
      if (args.config.seconds < 1.0) usage("--seconds must be >= 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  if (!args.self_test && (args.workload.empty() || !have_trace)) {
    usage("need --workload NAME and --trace 0|1");
  }
  return args;
}

json::Value metric_value(double value, const std::string& unit) {
  json::Value entry;
  entry.set("value", json::Value(value));
  entry.set("unit", json::Value(unit));
  return entry;
}

/// Picks the BENCHMARK.json metrics out of `given` in table order; throws
/// when one is missing or carries another unit.
json::Value benchmark_metrics(const std::vector<Metric>& given,
                             const MetricSpec* begin, const MetricSpec* end,
                             bool zero_if_absent) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& metric : given) by_name[metric.name] = &metric;
  json::Value metrics;
  metrics.make_object();
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    const auto it = by_name.find(spec->name);
    if (it == by_name.end()) {
      if (!zero_if_absent) {
        throw std::logic_error(std::string("metric not produced: ") +
                               spec->name);
      }
      metrics.set(spec->name, metric_value(0.0, spec->unit));
      continue;
    }
    if (it->second->unit != spec->unit) {
      throw std::logic_error(std::string("unit mismatch for ") + spec->name);
    }
    metrics.set(spec->name, metric_value(it->second->value, spec->unit));
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    throw std::logic_error("metric not in the table: " +
                           by_name.begin()->first);
  }
  return metrics;
}

WorkloadResult run_workload(const std::string& name, const RunConfig& config) {
  if (name == "ssa_ensemble") return run_ssa_ensemble(config);
  if (name == "clocked_ode") return run_clocked_ode(config);
  if (name == "fleet_campaign") return run_fleet_campaign(config);
  usage("unknown workload '" + name +
        "' (ssa_ensemble, clocked_ode, fleet_campaign)");
}

int run(const Args& args) {
  RunConfig config = args.config;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  config.workers = std::min<std::size_t>(nproc, 4);

  json::Value context;
  context.set("workload", json::Value(args.workload));
  context.set("seed", json::Value(static_cast<double>(config.seed)));
  context.set("seconds", json::Value(config.seconds));
  context.set("trace", json::Value(config.trace));
  context.set("nproc", json::Value(static_cast<double>(nproc)));
  context.set("workers", json::Value(static_cast<double>(config.workers)));
  context.set("compiler", json::Value(std::string(MRSC_BENCH_COMPILER)));
  context.set("build_type", json::Value(std::string(MRSC_BENCH_BUILD_TYPE)));
  context.set("git_sha", json::Value(args.git_sha));
  json::Value context_line;
  context_line.set("context", std::move(context));
  std::printf("%s\n", context_line.dump().c_str());
  std::fflush(stdout);

  Tracer& tracer = Tracer::global();
  tracer.set_enabled(config.trace);
  WorkloadResult result = run_workload(args.workload, config);
  tracer.set_enabled(false);

  json::Value report;
  report.make_object();
  for (const Metric& metric : result.report) {
    json::Value entry = metric_value(metric.value, metric.unit);
    if (metric.samples != 0) {
      entry.set("samples", json::Value(static_cast<double>(metric.samples)));
    }
    report.set(metric.name, std::move(entry));
  }
  json::Value notes;
  notes.make_array();
  for (const std::string& note : result.notes) {
    notes.array().emplace_back(note);
  }
  json::Value report_line;
  report_line.set("report", std::move(report));
  report_line.set("notes", std::move(notes));
  std::printf("%s\n", report_line.dump().c_str());

  json::Value metrics;
  if (config.trace) {
    std::vector<Metric> layers = result.per_layer;
    layers.push_back({"check.failure_share",
                      static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted),
                      "fraction", 0});
    layers.push_back({"trace.spans",
                      static_cast<double>(tracer.span_count()), "count", 0});
    const std::map<std::string, double> self_ms = tracer.self_ms_by_layer();
    for (const auto& [layer, ms] : self_ms) {
      layers.push_back({"self_ms." + layer, ms, "ms", 0});
    }
    metrics = benchmark_metrics(layers, std::begin(kPerLayer),
                               std::end(kPerLayer), true);
    if (!args.trace_out.empty() &&
        !tracer.write_chrome_trace(args.trace_out)) {
      throw std::runtime_error("cannot write trace file " + args.trace_out);
    }
  } else {
    metrics = benchmark_metrics(result.end_to_end, std::begin(kEndToEnd),
                               std::end(kEndToEnd), false);
  }
  json::Value last;
  last.set("correct", json::Value(result.correct));
  last.set("attempted", json::Value(static_cast<double>(result.attempted)));
  last.set("failed", json::Value(static_cast<double>(result.failed)));
  last.set("metrics", std::move(metrics));
  std::printf("%s\n", last.dump().c_str());
  return 0;
}

// ---- self-test: every output check must trip on a wrong reference.

int self_test() {
  using namespace mrsc;
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  // Counter decode check.
  {
    const std::vector<std::uint64_t> reference = counter_reference(6, 32);
    const std::vector<std::uint64_t> defect =
        counter_defect_model(reference, 6);
    const DecodeCheck known = check_decoded(defect, reference, defect);
    expect(known.mismatches == 9 && known.unexplained == 0,
           "counter(6): the bit-3 defect model differs from the netlist on "
           "9 of 32 increments and explains all 9");

    scenario::ResolvedScenario resolved =
        scenario::ScenarioRegistry::global().resolve("counter(3)");
    const auto& artifacts =
        std::get<scenario::CounterArtifacts>(resolved.artifacts);
    analysis::ClockedRunOptions options;
    options.ode.t_end = analysis::suggest_t_end(
        artifacts.spec.clock, resolved.design.network->rate_policy(), 8);
    const analysis::CounterRunResult run = analysis::run_counter(
        *resolved.design.network, artifacts.handles, 8, options);
    const std::vector<std::uint64_t> truth = counter_reference(3, 8);
    const DecodeCheck good =
        check_decoded(run.values, truth, counter_defect_model(truth, 3));
    expect(good.mismatches == 0, "counter(3) decodes the netlist reference");
    std::vector<std::uint64_t> shifted = truth;
    for (std::uint64_t& value : shifted) value = (value + 1) % 8;
    const DecodeCheck bad =
        check_decoded(run.values, shifted, counter_defect_model(shifted, 3));
    expect(bad.unexplained == bad.cycles,
           "a reference shifted by one increment trips the decode check");
  }

  // Ensemble reduction check.
  {
    scenario::ResolvedScenario resolved =
        scenario::ScenarioRegistry::global().resolve("delay_chain(2)");
    const core::ReactionNetwork& network = *resolved.design.network;
    sim::SsaOptions ssa;
    ssa.t_end = 5.0;
    ssa.omega = 2000.0;
    runtime::EnsembleOptions options;
    options.replicates = 6;
    options.batch.threads = 2;
    runtime::EnsembleResult result =
        runtime::run_ssa_ensemble(network, ssa, options);
    expect(check_reduction(result, network.species_count()) == 0,
           "ensemble stats match the independent reduction");
    std::size_t tripped = 0;
    for (std::size_t s = 0; s < result.final_stats.size(); ++s) {
      runtime::EnsembleResult perturbed = result;
      perturbed.final_stats[s].mean *= 1.0 + 1e-6;
      perturbed.final_stats[s].mean += 1e-9;
      tripped += check_reduction(perturbed, network.species_count());
    }
    expect(tripped == result.final_stats.size(),
           "a perturbed mean of any species trips the reduction check");
  }

  // Fleet-vs-local check.
  {
    scenario::ResolvedScenario resolved =
        scenario::ScenarioRegistry::global().resolve("counter");
    serve::ServerOptions server_options;
    server_options.workers = 1;
    serve::Server server(server_options);
    server.start();
    fleet::FleetOptions fleet_options;
    fleet_options.shards.push_back({"127.0.0.1", server.port()});
    fleet_options.concurrency = 2;
    fleet::FleetClient client(fleet_options);
    fleet::EnsembleSpec spec;
    spec.replicates = 4;
    spec.base_seed = 3;
    const std::vector<runtime::SpeciesStats> served =
        parse_merged_stats(fleet::run_ensemble(client, spec));
    server.stop();
    sim::SsaOptions ssa;
    ssa.t_end = spec.t_end;
    ssa.omega = spec.omega;
    ssa.record_interval = spec.t_end / 50.0;
    const EnsembleVerdict verdict = classify_served_ensemble(
        served, *resolved.design.network, ssa, spec.replicates,
        spec.base_seed);
    expect(verdict != EnsembleVerdict::kUnexplained,
           "a served ensemble matches the local run or its rounded seeds");
    std::vector<runtime::SpeciesStats> perturbed = served;
    perturbed.back().mean += 1e-3;
    expect(classify_served_ensemble(perturbed, *resolved.design.network, ssa,
                                    spec.replicates, spec.base_seed) ==
               EnsembleVerdict::kUnexplained,
           "perturbed served stats trip the fleet-vs-local check");
  }

  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.self_test) return perfbench::self_test();
    return perfbench::run(args);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "mrsc_perfbench: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_perfbench: %s\n", error.what());
    return 1;
  }
}
