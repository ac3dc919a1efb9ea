// Workload fleet_campaign: the mrsc_serve + mrsc_fleet path.
//
// The process hosts two serve::Server shards with one worker each and one
// fleet::FleetClient with concurrency 2: a closed loop with 2 in-flight
// slices (a slice is one job request of an ensemble).
//   * Cold pass: a lint job per registry smoke-catalog design through
//     FleetClient::execute, then many small SSA ensembles of `counter` at
//     omega = 200 through fleet::run_ensemble, ensemble k with base seed
//     stream_seed(seed, k). Every key is new, so the shard caches fill and
//     evict.
//   * Warm pass: a subset small enough for the shard caches is sent to
//     both shards (FleetClient::request_all, untimed) once the first tenth
//     of the cold ensembles has run, then replayed through run_ensemble
//     after every cold block: the cache-read path, sampled over the same
//     stretch of host time as the cold pass.
// Per-job overhead (transport, framing, JSON, dispatch, per-job design
// resolve, cache) dominates; the SSA kernel is a small share.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "fleet/fleet.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "serve/dispatcher.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace mrsc;
namespace json = serve::json;

constexpr std::size_t kShards = 2;
constexpr std::size_t kConcurrency = 2;
constexpr const char* kDesign = "counter";
/// Cold ensembles per block: one throughput sample, then one warm replay.
constexpr std::size_t kBlock = 12;
/// Result-cache entries per shard; the cold pass still evicts thousands.
constexpr std::size_t kCacheEntries = 1024;

struct Sizes {
  std::size_t ensembles = 8;  ///< cold ensembles
  std::size_t replicates = 8;
  double t_end = 3.0;
  double omega = 200.0;
  /// 96 keys per shard. A warm replay refreshes each key on only the shard
  /// it lands on, so the other copy ages while cold blocks add about 48
  /// keys per shard each; kCacheEntries leaves room for ~19 blocks.
  std::size_t warm_subset = 12;
  std::size_t connects = 200;
};

Sizes sizes_for(const RunConfig& config) {
  Sizes sizes;
  if (config.tiny) {
    sizes.ensembles = 4;
    sizes.warm_subset = 2;
    sizes.connects = 10;
    return sizes;
  }
  // About 270 cold ensembles per second plus one warm replay per cold
  // block on a 4-core host; the local check costs about as much again.
  // The timed stretches then fill about --seconds.
  sizes.ensembles = std::max<std::size_t>(
      100, static_cast<std::size_t>(std::lround(config.seconds * 160.0)));
  return sizes;
}

/// The design, two shards and the client that spreads slices over them;
/// setup_cpu_s covers all of it but the design's reference kernel run;
/// setup_reference_cpu_s is setup_cpu_s divided by that run.
struct Setup {
  DesignSetup design{kDesign};
  std::vector<std::unique_ptr<serve::Server>> shards;
  std::unique_ptr<fleet::FleetClient> client;
  double setup_cpu_s = 0.0;
  double setup_reference_cpu_s = 0.0;
};

Setup set_up() {
  const double cpu0 = process_cpu_s();
  Setup setup;
  setup.design.repeat();
  fleet::FleetOptions options;
  options.concurrency = kConcurrency;
  {
    const Span span("serve.start", 0);
    for (std::size_t s = 0; s < kShards; ++s) {
      serve::ServerOptions server_options;
      server_options.workers = 1;
      server_options.cache_entries = kCacheEntries;
      server_options.shard_id = "bench-" + std::to_string(s);
      auto server = std::make_unique<serve::Server>(server_options);
      server->start();
      options.shards.push_back({"127.0.0.1", server->port()});
      setup.shards.push_back(std::move(server));
    }
  }
  setup.client = std::make_unique<fleet::FleetClient>(options);
  const double reference_s = setup.design.reference_s.back();
  setup.setup_cpu_s = process_cpu_s() - cpu0 - reference_s;
  setup.setup_reference_cpu_s =
      setup.setup_cpu_s * kReferenceKernelS / reference_s;
  return setup;
}

/// Server-side counters summed over the shards.
struct ShardStats {
  double hits = 0.0;
  double misses = 0.0;
  double overload_rejected = 0.0;
  double protocol_errors = 0.0;
  double sim_count = 0.0;
  double sim_mean_ms_weighted = 0.0;  ///< sum of count * mean
  double sim_p50_weighted = 0.0;      ///< sum of count * p50
  double lint_count = 0.0;
  double lint_p50_weighted = 0.0;
};

ShardStats shard_stats(const Setup& setup) {
  ShardStats total;
  for (const auto& shard : setup.shards) {
    const json::Value doc = json::parse(shard->stats_payload());
    const json::Value* cache = doc.find("cache");
    const json::Value* requests = doc.find("requests");
    const json::Value* latency = doc.find("latency");
    total.hits += cache->get_number("hits", 0.0);
    total.misses += cache->get_number("misses", 0.0);
    total.overload_rejected += requests->get_number("overload_rejected", 0.0);
    total.protocol_errors += requests->get_number("protocol_errors", 0.0);
    if (const json::Value* sim = latency->find("sim")) {
      const double count = sim->get_number("count", 0.0);
      total.sim_count += count;
      total.sim_mean_ms_weighted += count * sim->get_number("mean_ms", 0.0);
      total.sim_p50_weighted += count * sim->get_number("p50_ms", 0.0);
    }
    if (const json::Value* lint = latency->find("lint")) {
      const double count = lint->get_number("count", 0.0);
      total.lint_count += count;
      total.lint_p50_weighted += count * lint->get_number("p50_ms", 0.0);
    }
  }
  return total;
}

/// Server-side totals accumulated over the stretches of one pass (cold or
/// warm), from stats snapshots taken around each stretch.
struct StretchTotals {
  double hits = 0.0;
  double misses = 0.0;
  double sim_count = 0.0;
  double sim_ms = 0.0;  ///< summed server-side sim latency
  void add(const ShardStats& before, const ShardStats& after) {
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    sim_count += after.sim_count - before.sim_count;
    sim_ms += after.sim_mean_ms_weighted - before.sim_mean_ms_weighted;
  }
  [[nodiscard]] double hit_rate() const {
    return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  }
  [[nodiscard]] double sim_mean_ms() const {
    return sim_count > 0.0 ? sim_ms / sim_count : 0.0;
  }
};

fleet::EnsembleSpec ensemble_spec(const Sizes& sizes, std::uint64_t seed,
                                  std::size_t k) {
  fleet::EnsembleSpec spec;
  spec.design = kDesign;
  spec.replicates = sizes.replicates;
  spec.base_seed = util::Rng::stream_seed(seed, k);
  spec.t_end = sizes.t_end;
  spec.omega = sizes.omega;
  return spec;
}

/// The job request of one slice, as a shard parses it.
std::string sim_request(const fleet::EnsembleSpec& spec, std::size_t i) {
  return std::string(R"({"op":"job","kind":"sim","design":)") +
         json::quote(spec.design) + ",\"method\":" + json::quote(spec.method) +
         ",\"seed\":" +
         std::to_string(util::Rng::stream_seed(spec.base_seed, i)) +
         ",\"t_end\":" + json::number_to_string(spec.t_end) +
         ",\"omega\":" + json::number_to_string(spec.omega) + "}";
}

struct Pass {
  // cold
  std::vector<std::string> reports;  ///< per cold ensemble; empty = failed
  std::vector<double> ensemble_ms;  ///< returned cold ensembles
  std::size_t lint_jobs = 0;
  std::size_t lint_failed = 0;
  double cold_wall_s = 0.0;
  double cold_jobs = 0.0;  ///< jobs that returned
  /// Jobs per process CPU-second, per block of cold ensembles.
  std::vector<double> cold_block_rates;
  /// Jobs per reference CPU-second (see kReferenceKernelS), per block.
  std::vector<double> cold_block_reference_rates;
  /// Server stats after the cold lead-in, before any warm traffic: the
  /// server-side latency percentiles are read here.
  ShardStats after_lead_in;
  StretchTotals cold_totals;
  // warm
  std::size_t warm_ensembles = 0;
  std::size_t warm_failed = 0;
  std::size_t warm_changed = 0;  ///< replays not byte-identical to cold
  double warm_wall_s = 0.0;
  double warm_jobs = 0.0;
  /// Jobs per process CPU-second, per warm replay.
  std::vector<double> warm_replay_rates;
  std::vector<double> warm_replay_reference_rates;
  StretchTotals warm_totals;
  double cpu_s = 0.0;  ///< process CPU over the cold and warm stretches
  /// Set-ups timed between blocks (each starts and stops a second fleet).
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_reference_cpu_s;
  /// Host-speed probes between the timed stretches, in ms.
  std::vector<double> reference_ms;
  std::vector<double> resolve_ms;
  std::vector<double> build_ms;
  // layers
  std::vector<double> run_job_ms;
  std::vector<double> connect_us;
  ShardStats final_stats;
  fleet::FleetCounters counters;
  double events = 0.0;
};

Pass run_pass(const RunConfig& config, const Sizes& sizes, Setup& setup) {
  Pass pass;
  fleet::FleetClient& client = *setup.client;
  std::uint64_t request_id = 1;
  // ---- cold lint jobs
  std::vector<std::string> lint_requests;
  for (const std::string& design :
       scenario::ScenarioRegistry::global().smoke_catalog()) {
    lint_requests.push_back(R"({"op":"job","kind":"lint","design":)" +
                            json::quote(design) + "}");
  }
  pass.lint_jobs = lint_requests.size();
  ShardStats before = shard_stats(setup);
  Clock::time_point start = Clock::now();
  try {
    std::vector<std::string> responses;
    {
      const Span span("fleet.execute", request_id++);
      responses = client.execute(lint_requests);
    }
    for (const std::string& response : responses) {
      if (json::parse(response).get_string("status", "") == "ok") {
        pass.cold_jobs += 1.0;
      } else {
        ++pass.lint_failed;
      }
    }
  } catch (const std::exception&) {
    pass.lint_failed = lint_requests.size();
  }
  pass.cold_wall_s += seconds_between(start, Clock::now());
  ShardStats after = shard_stats(setup);
  pass.cold_totals.add(before, after);

  // ---- cold ensembles in blocks, each block followed by one warm replay
  // of the subset, so both passes sample the same stretch of host time.
  pass.reports.resize(sizes.ensembles);
  std::vector<std::size_t> subset;
  bool primed = false;
  const std::size_t blocks = (sizes.ensembles + kBlock - 1) / kBlock;
  const std::size_t setup_stride =
      std::max<std::size_t>(1, blocks / (kSetupRepeats - 1));
  for (std::size_t first = 0; first < sizes.ensembles; first += kBlock) {
    const std::size_t last = std::min(first + kBlock, sizes.ensembles);
    if ((first / kBlock) % setup_stride == 0) {
      const Setup extra = set_up();
      pass.setup_cpu_s.push_back(extra.setup_cpu_s);
      pass.setup_reference_cpu_s.push_back(extra.setup_reference_cpu_s);
      pass.resolve_ms.push_back(extra.design.resolve_ms.front());
      pass.build_ms.push_back(extra.design.build_ms.front());
    }
    // Host-speed probes on one thread per shard worker, before and after
    // each timed stretch; a stretch's CPU time is divided by their mean.
    const double block_reference_s = reference_probe_s(kShards, 1);
    pass.reference_ms.push_back(1e3 * block_reference_s);
    before = after;
    start = Clock::now();
    double cpu0 = process_cpu_s();
    double jobs = 0.0;
    for (std::size_t k = first; k < last; ++k) {
      const fleet::EnsembleSpec spec = ensemble_spec(sizes, config.seed, k);
      const Clock::time_point ensemble_start = Clock::now();
      try {
        const Span span("fleet.run_ensemble", request_id++);
        pass.reports[k] = fleet::run_ensemble(client, spec);
        pass.ensemble_ms.push_back(
            1e3 * seconds_between(ensemble_start, Clock::now()));
        jobs += static_cast<double>(sizes.replicates);
        if (subset.size() < sizes.warm_subset) subset.push_back(k);
      } catch (const std::exception&) {
        // Counted as failed by the output check; reports[k] stays empty.
      }
    }
    const double wall = seconds_between(start, Clock::now());
    pass.cold_wall_s += wall;
    pass.cold_jobs += jobs;
    const double block_cpu = process_cpu_s() - cpu0;
    pass.cpu_s += block_cpu;
    pass.cold_block_rates.push_back(jobs / block_cpu);
    const double cold_reference_s = reference_probe_s(kShards, 1);
    pass.reference_ms.push_back(1e3 * cold_reference_s);
    pass.cold_block_reference_rates.push_back(
        jobs * (0.5 * (block_reference_s + cold_reference_s)) /
        (block_cpu * kReferenceKernelS));
    after = shard_stats(setup);
    pass.cold_totals.add(before, after);

    // The first tenth of the cold ensembles runs alone, so the server-side
    // sim latency histogram holds cold jobs only when it is read.
    if (!primed && last * 10 >= sizes.ensembles &&
        subset.size() == sizes.warm_subset) {
      pass.after_lead_in = after;
      // Untimed: put the subset in both shards' caches.
      for (const std::size_t k : subset) {
        const fleet::EnsembleSpec spec = ensemble_spec(sizes, config.seed, k);
        for (std::size_t i = 0; i < sizes.replicates; ++i) {
          static_cast<void>(client.request_all(sim_request(spec, i)));
        }
      }
      primed = true;
      after = shard_stats(setup);
    }
    if (!primed) continue;
    before = after;
    start = Clock::now();
    cpu0 = process_cpu_s();
    jobs = 0.0;
    for (const std::size_t k : subset) {
      const fleet::EnsembleSpec spec = ensemble_spec(sizes, config.seed, k);
      ++pass.warm_ensembles;
      try {
        const Span span("fleet.run_ensemble", request_id++);
        const std::string report = fleet::run_ensemble(client, spec);
        jobs += static_cast<double>(sizes.replicates);
        if (report != pass.reports[k]) ++pass.warm_changed;
      } catch (const std::exception&) {
        ++pass.warm_failed;
      }
    }
    const double warm_wall = seconds_between(start, Clock::now());
    pass.warm_wall_s += warm_wall;
    pass.warm_jobs += jobs;
    const double replay_cpu = process_cpu_s() - cpu0;
    pass.cpu_s += replay_cpu;
    pass.warm_replay_rates.push_back(jobs / replay_cpu);
    const double warm_reference_s = reference_probe_s(kShards, 1);
    pass.reference_ms.push_back(1e3 * warm_reference_s);
    pass.warm_replay_reference_rates.push_back(
        jobs * (0.5 * (cold_reference_s + warm_reference_s)) /
        (replay_cpu * kReferenceKernelS));
    after = shard_stats(setup);
    pass.warm_totals.add(before, after);
  }
  if (!primed) pass.after_lead_in = after;

  // ---- layer probes (untimed for the end-to-end metrics)
  for (std::size_t k = 0; k < sizes.ensembles; k += 8) {
    if (pass.reports[k].empty()) continue;
    const serve::JobRequest job = serve::parse_job(
        json::parse(sim_request(ensemble_spec(sizes, config.seed, k), 0)));
    const Clock::time_point start = Clock::now();
    const Span span("serve.run_job", request_id++);
    static_cast<void>(serve::run_job(job, serve::DispatchHooks{}));
    pass.run_job_ms.push_back(1e3 * seconds_between(start, Clock::now()));
  }
  const std::uint16_t port = setup.shards.front()->port();
  for (std::size_t c = 0; c < sizes.connects; ++c) {
    const Clock::time_point start = Clock::now();
    {
      const Span span("serve.connect_to", request_id++);
      serve::Socket socket = serve::connect_to("127.0.0.1", port);
      socket.close();
    }
    pass.connect_us.push_back(1e6 * seconds_between(start, Clock::now()));
  }
  for (const std::string& report : pass.reports) {
    if (!report.empty()) {
      pass.events += json::parse(report).get_number("ssa_events_total", 0.0);
    }
  }
  pass.final_stats = shard_stats(setup);
  pass.counters = client.counters();
  return pass;
}

struct CheckResult {
  std::size_t mismatches = 0;  ///< served stats != local run_ssa_ensemble
  std::size_t rejected = 0;    ///< ensembles with a seed the shards reject
  std::size_t unexplained = 0;
};

/// Compares every cold ensemble with runtime::run_ssa_ensemble on the same
/// spec, and classifies each discrepancy against the two seed defects of
/// the serve validator (seeds read through a double; seeds above 1.8e19
/// rejected).
CheckResult check_pass(const Pass& pass, const Sizes& sizes,
                       const RunConfig& config,
                       const core::ReactionNetwork& network) {
  const Span span("check.fleet_local", 0);
  sim::SsaOptions ssa;
  ssa.t_end = sizes.t_end;
  ssa.omega = sizes.omega;
  ssa.record_interval = sizes.t_end / 50.0;
  CheckResult check;
  for (std::size_t k = 0; k < sizes.ensembles; ++k) {
    const fleet::EnsembleSpec spec = ensemble_spec(sizes, config.seed, k);
    bool predicted_reject = false;
    for (std::size_t i = 0; i < sizes.replicates; ++i) {
      predicted_reject |=
          seed_rejected(util::Rng::stream_seed(spec.base_seed, i));
    }
    if (pass.reports[k].empty()) {
      ++check.rejected;
      if (!predicted_reject) ++check.unexplained;
      continue;
    }
    if (predicted_reject) {
      ++check.unexplained;
      continue;
    }
    switch (classify_served_ensemble(parse_merged_stats(pass.reports[k]),
                                     network, ssa, sizes.replicates,
                                     spec.base_seed)) {
      case EnsembleVerdict::kMatch:
        break;
      case EnsembleVerdict::kSeedRounding:
        ++check.mismatches;
        break;
      case EnsembleVerdict::kUnexplained:
        ++check.mismatches;
        ++check.unexplained;
        break;
    }
  }
  return check;
}

}  // namespace

WorkloadResult run_fleet_campaign(const RunConfig& config) {
  const Sizes sizes = sizes_for(config);
  Tracer& tracer = Tracer::global();
  const bool traced = tracer.enabled();

  // One set-up serves the pass; the pass times more between its blocks.
  std::unique_ptr<Setup> setup = std::make_unique<Setup>(set_up());

  tracer.set_enabled(false);
  const Pass pass = run_pass(config, sizes, *setup);
  // Stop the shards before the local checks.
  setup->client.reset();
  setup->shards.clear();
  const CheckResult check =
      check_pass(pass, sizes, config, *setup->design.resolved.design.network);
  std::vector<double> setup_cpu_s = pass.setup_cpu_s;
  setup_cpu_s.push_back(setup->setup_cpu_s);
  std::vector<double> setup_s = pass.setup_reference_cpu_s;
  setup_s.push_back(setup->setup_reference_cpu_s);
  std::vector<double> resolve_ms = pass.resolve_ms;
  resolve_ms.push_back(setup->design.resolve_ms.front());
  std::vector<double> build_ms = pass.build_ms;
  build_ms.push_back(setup->design.build_ms.front());

  WorkloadResult out;
  out.attempted = sizes.ensembles + pass.lint_jobs + pass.warm_ensembles;
  out.failed = check.rejected + pass.lint_failed + pass.warm_failed;
  out.correct = check.unexplained == 0 && pass.warm_changed == 0 &&
                pass.lint_failed == 0;
  if (check.mismatches != 0) {
    out.notes.push_back(
        "known defect: " +
        share_text(check.mismatches, sizes.ensembles - check.rejected) +
        " served ensembles differ from the local run (seeds above 2^53 are "
        "rounded by the serve validator)");
  }
  if (check.rejected != 0) {
    out.notes.push_back(
        "known defect: " + share_text(check.rejected, sizes.ensembles) +
        " ensembles rejected (a slice seed above 1.8e19)");
  }
  if (check.unexplained != 0) {
    out.notes.push_back(std::to_string(check.unexplained) +
                        " ensemble(s) differ from the local run for a reason "
                        "the known seed defects do not explain");
  }
  if (pass.warm_changed != 0) {
    out.notes.push_back(std::to_string(pass.warm_changed) +
                        " warm replay(s) not byte-identical to the cold run");
  }
  if (pass.lint_failed != 0) {
    out.notes.push_back(std::to_string(pass.lint_failed) +
                        " lint job(s) failed");
  }

  // The end-to-end rates are per reference CPU-second (process CPU time,
  // steal excluded, divided by the host-speed probes around it), medians
  // over short samples: blocks of cold ensembles, warm replays.
  out.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"primary_per_cpu_s", median(pass.cold_block_reference_rates),
       "1/cpu_s", pass.cold_block_reference_rates.size()},
      {"secondary_per_cpu_s", median(pass.warm_replay_reference_rates),
       "1/cpu_s", pass.warm_replay_reference_rates.size()},
  };
  const std::vector<Metric> wall = {
      {"campaign_jobs_per_s_cold", pass.cold_jobs / pass.cold_wall_s, "1/s",
       1},
      {"campaign_jobs_per_s_warm", pass.warm_jobs / pass.warm_wall_s, "1/s",
       1},
      {"ensemble_ms_p50", percentile(pass.ensemble_ms, 0.5), "ms",
       pass.ensemble_ms.size()},
      {"ensemble_ms_p90", percentile(pass.ensemble_ms, 0.9), "ms",
       pass.ensemble_ms.size()},
  };
  out.report = wall;
  out.report.insert(
      out.report.end(),
      {{"campaign_jobs_per_reference_cpu_s_cold", out.end_to_end[2].value,
        "1/cpu_s", out.end_to_end[2].samples},
       {"campaign_jobs_per_reference_cpu_s_warm", out.end_to_end[3].value,
        "1/cpu_s", out.end_to_end[3].samples},
       {"reference_kernel_ms", median(pass.reference_ms), "ms",
        pass.reference_ms.size()},
       {"campaign_jobs_per_cpu_s_cold", median(pass.cold_block_rates),
        "1/cpu_s", pass.cold_block_rates.size()},
       {"campaign_jobs_per_cpu_s_warm", median(pass.warm_replay_rates),
        "1/cpu_s", pass.warm_replay_rates.size()},
       {"setup_reference_cpu_s", out.end_to_end[0].value, "s",
        out.end_to_end[0].samples},
       {"setup_cpu_s", median(setup_cpu_s), "s", setup_cpu_s.size()},
       {"peak_rss_mb", out.end_to_end[1].value, "MB", 1},
       {"fleet_local_mismatches", static_cast<double>(check.mismatches),
        "count", 0},
       {"rejected_ensembles", static_cast<double>(check.rejected), "count",
        0},
       {"failed_operations", static_cast<double>(out.failed), "count", 0}});
  if (!traced) return out;

  std::unique_ptr<Setup> traced_setup = std::make_unique<Setup>(set_up());
  tracer.set_enabled(true);
  const Pass traced_pass = run_pass(config, sizes, *traced_setup);
  tracer.set_enabled(false);
  traced_setup.reset();

  const ShardStats& cold = traced_pass.after_lead_in;
  const double slices =
      static_cast<double>(traced_pass.ensemble_ms.size() * sizes.replicates);
  double ensemble_ms_total = 0.0;
  for (const double ms : traced_pass.ensemble_ms) ensemble_ms_total += ms;
  const double client_ms_per_slice =
      slices > 0.0 ? ensemble_ms_total * kConcurrency / slices : 0.0;
  const double server_sim_mean_ms = traced_pass.cold_totals.sim_mean_ms();
  const fleet::FleetCounters& counters = traced_pass.counters;
  out.per_layer = {
      {"wall.primary_per_s", wall[0].value, "1/s", wall[0].samples},
      {"wall.secondary_per_s", wall[1].value, "1/s", wall[1].samples},
      {"wall.op_ms_p50", wall[2].value, "ms", wall[2].samples},
      {"wall.op_ms_p90", wall[3].value, "ms", wall[3].samples},
      {"scenario.resolve_ms", median(resolve_ms), "ms", resolve_ms.size()},
      {"engine.build_ms", median(build_ms), "ms", build_ms.size()},
      {"ssa.events", traced_pass.events, "count", 0},
      {"serve.run_job_ms", median(traced_pass.run_job_ms), "ms",
       traced_pass.run_job_ms.size()},
      {"serve.cache_hit_rate.cold", traced_pass.cold_totals.hit_rate(),
       "fraction", 0},
      {"serve.cache_hit_rate.warm", traced_pass.warm_totals.hit_rate(),
       "fraction", 0},
      {"serve.sim_ms_p50",
       cold.sim_count > 0.0 ? cold.sim_p50_weighted / cold.sim_count : 0.0,
       "ms", 0},
      {"serve.lint_ms_p50",
       cold.lint_count > 0.0 ? cold.lint_p50_weighted / cold.lint_count : 0.0,
       "ms", 0},
      {"serve.overload_rejected", traced_pass.final_stats.overload_rejected,
       "count", 0},
      {"serve.protocol_errors", traced_pass.final_stats.protocol_errors,
       "count", 0},
      {"fleet.attempts", static_cast<double>(counters.attempts), "count", 0},
      {"fleet.retries", static_cast<double>(counters.retries), "count", 0},
      {"fleet.failures", static_cast<double>(counters.failures), "count", 0},
      {"fleet.timeouts", static_cast<double>(counters.timeouts), "count", 0},
      {"fleet.connect_us", median(traced_pass.connect_us), "us",
       traced_pass.connect_us.size()},
      {"fleet.client_overhead_ms", client_ms_per_slice - server_sim_mean_ms,
       "ms", 0},
      {"fleet.local_mismatches", static_cast<double>(check.mismatches),
       "count", 0},
      {"fleet.rejected_ensembles", static_cast<double>(check.rejected),
       "count", 0},
      {"trace.overhead_share", traced_pass.cpu_s / pass.cpu_s - 1.0,
       "fraction", 0},
  };
  return out;
}

}  // namespace perfbench
