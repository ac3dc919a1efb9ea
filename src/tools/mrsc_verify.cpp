// mrsc_verify — differential-testing and property-fuzzing CLI.
//
//   mrsc_verify [options]
//
// Sweeps seeds over the structured random-case generator (raw networks,
// synchronous circuits, dual-rail circuits, FSMs, counters), runs every
// applicable invariant/differential oracle, and shrinks any failing network
// to a minimal repro. A clean run prints per-kind counts and exits 0; any
// violation prints the shrunk repro plus the exact command to reproduce it
// and exits 1.
//
// A second mode targets one design instead of the random generator:
//
//   mrsc_verify --scenario SPEC [options]
//
// resolves the scenario ("counter", "cascade(3)", or a .mrsc file) through
// the registry and sweeps the engine-equivalence oracle over its network:
// for each seed in [start-seed, start-seed + seeds) it compares the
// simulation engine's compiled rate law with the reference rate law, one
// evaluation at a time, on the initial state and random states drawn from
// that seed. The scenario's verify budget supplies default
// --seeds/--start-seed (explicit flags win; bare specs default to seeds=3,
// start-seed=1). Nothing is simulated, so the sim budget (t_end, record,
// omega) is not read.
//
//   --seeds N          number of cases              (default 50)
//   --start-seed S     first seed                   (default 0)
//   --kinds A,B,C      subset of raw,sync,dual,fsm,counter (default all)
//   --cycles N         clock cycles per clocked case (default 3)
//   --replicates R     SSA replicates per ensemble  (default 16)
//   --omega W          molecules per concentration unit (default 300)
//   --threads N        worker threads               (default 1; 0 = hardware)
//   --no-shrink        report failures unshrunk
//   --no-differential  skip the SSA-ensemble oracles on raw cases
//   --no-opt-equivalence  skip the kO1 compile-pipeline equivalence oracle
//   --no-engine-equivalence  skip the compiled-vs-reference rate-law oracle
//   --json PATH        machine-readable failure report
//   --regen-golden DIR recompute the golden traces into DIR and exit
//   --verbose          print every case, not just failures
//
// Exits 0 on a clean sweep, 1 on violations, 2 on usage errors.
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/registry.hpp"
#include "tools/flags.hpp"
#include "verify/engine_equivalence.hpp"
#include "verify/golden.hpp"
#include "verify/verify.hpp"

namespace {

using namespace mrsc;

struct CliOptions {
  verify::VerifyOptions verify;
  std::string kinds_csv;
  std::string scenario;
  std::string json;
  std::string regen_golden;
  bool verbose = false;
  // The flags the user gave; explicit flags beat the scenario's verify
  // budget.
  tools::GivenFlags given;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_verify [--scenario SPEC]\n"
      "       [--seeds N] [--start-seed S] [--kinds A,B,C]\n"
      "       [--cycles N] [--replicates R] [--omega W] [--threads N]\n"
      "       [--no-shrink] [--no-differential] [--no-opt-equivalence]\n"
      "       [--no-engine-equivalence] [--json PATH]\n"
      "       [--regen-golden DIR] [--verbose]\n"
      "       kinds: raw,sync,dual,fsm,counter\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  bool no_shrink = false;
  bool no_differential = false;
  bool no_opt_equivalence = false;
  bool no_engine_equivalence = false;
  std::optional<tools::GivenFlags> given = tools::parse_flags(
      "mrsc_verify", argc, argv,
      {{"--seeds", &options.verify.seeds},
       {"--start-seed", &options.verify.start_seed},
       {"--scenario", &options.scenario},
       {"--kinds", &options.kinds_csv},
       {"--cycles", &options.verify.generator.cycles},
       {"--replicates", &options.verify.ssa_replicates},
       {"--omega", &options.verify.omega},
       {"--threads", &options.verify.threads},
       {"--no-shrink", &no_shrink},
       {"--no-differential", &no_differential},
       {"--no-opt-equivalence", &no_opt_equivalence},
       {"--no-engine-equivalence", &no_engine_equivalence},
       {"--verbose", &options.verbose},
       {"--json", &options.json},
       {"--regen-golden", &options.regen_golden}},
      nullptr);
  if (!given) return false;
  options.given = std::move(*given);
  if (no_shrink) options.verify.shrink = false;
  if (no_differential) options.verify.differential = false;
  if (no_opt_equivalence) options.verify.opt_equivalence = false;
  if (no_engine_equivalence) options.verify.engine_equivalence = false;
  if (options.regen_golden.empty() && options.verify.seeds == 0) {
    std::fprintf(stderr, "mrsc_verify: --seeds must be >= 1\n");
    return false;
  }
  if (options.verify.omega <= 0.0) {
    std::fprintf(stderr, "mrsc_verify: --omega must be > 0\n");
    return false;
  }
  if (options.verify.generator.cycles == 0 ||
      options.verify.ssa_replicates == 0) {
    std::fprintf(stderr,
                 "mrsc_verify: --cycles and --replicates must be >= 1\n");
    return false;
  }
  try {
    options.verify.kinds = verify::parse_kinds(options.kinds_csv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mrsc_verify: %s\n", e.what());
    return false;
  }
  return true;
}

// --scenario mode: sweep the engine-equivalence oracle over one resolved
// design, one pass per seed. The scenario's verify budget sets the seed
// sweep.
int run_scenario_verify(const CliOptions& cli) {
  scenario::ResolvedScenario resolved;
  try {
    resolved = scenario::resolve_scenario_argument(cli.scenario);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "mrsc_verify: %s\n", error.what());
    return 2;
  }
  const scenario::VerifyBudget& budget = resolved.scenario.verify;
  const std::size_t seeds =
      cli.given.contains("--seeds")
          ? cli.verify.seeds
                    : static_cast<std::size_t>(budget.seeds.value_or(3));
  const std::uint64_t start_seed =
      cli.given.contains("--start-seed") ? cli.verify.start_seed
                                          : budget.start_seed.value_or(1);

  verify::EngineEquivalenceOptions oracle;
  const core::ReactionNetwork& network = *resolved.design.network;
  std::printf("scenario %s: %zu species, %zu reactions; engine-equivalence "
              "sweep over seeds [%llu, %llu)\n",
              resolved.scenario.name.c_str(), network.species_count(),
              network.reaction_count(),
              static_cast<unsigned long long>(start_seed),
              static_cast<unsigned long long>(start_seed + seeds));
  std::size_t failed = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    oracle.seed = start_seed + i;
    const std::vector<verify::Violation> violations =
        verify::check_engine_equivalence(network, oracle);
    if (!violations.empty()) {
      ++failed;
      for (const verify::Violation& violation : violations) {
        std::printf("seed %llu: %s: %s\n",
                    static_cast<unsigned long long>(oracle.seed),
                    violation.oracle.c_str(), violation.detail.c_str());
      }
    } else if (cli.verbose) {
      std::printf("seed %llu: ok\n",
                  static_cast<unsigned long long>(oracle.seed));
    }
  }
  std::printf("%zu/%zu seeds clean: %s\n", seeds - failed, seeds,
              failed == 0 ? "rate law matches the reference"
                          : "RATE LAW DIVERGES — see above");
  return failed == 0 ? 0 : 1;
}

int regen_golden(const std::string& dir) {
  const auto traces = verify::compute_reference_traces();
  for (const verify::GoldenTrace& trace : traces) {
    const std::string path = dir + "/" + trace.name + ".golden";
    verify::save_golden(trace, path);
    std::printf("wrote %s (%zu rows, tolerance %g)\n", path.c_str(),
                trace.rows.size(), trace.tolerance);
  }
  return 0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

int write_json(const std::string& path, const verify::FuzzReport& report) {
  std::string json = "{\n";
  json += "  \"checked\": " + std::to_string(report.checked) + ",\n";
  json += "  \"failed\": " + std::to_string(report.failed) + ",\n";
  json +=
      "  \"wall_seconds\": " + std::to_string(report.wall_seconds) + ",\n";
  json += "  \"failures\": [\n";
  bool first = true;
  for (const verify::CaseResult& result : report.cases) {
    if (!result.failed()) continue;
    if (!first) json += ",\n";
    first = false;
    json += "    {\"seed\": " + std::to_string(result.seed) + ", \"kind\": \"";
    json += verify::to_string(result.kind);
    json += "\", \"violations\": [";
    for (std::size_t v = 0; v < result.violations.size(); ++v) {
      json += "{\"oracle\": \"" + json_escape(result.violations[v].oracle) +
              "\", \"detail\": \"" + json_escape(result.violations[v].detail) +
              "\"}";
      if (v + 1 < result.violations.size()) json += ", ";
    }
    json += "], \"shrunk\": ";
    json += result.shrunk ? "true" : "false";
    if (result.shrunk) {
      json += ", \"shrunk_reactions\": " +
              std::to_string(result.shrunk_reactions) +
              ", \"repro\": \"" + json_escape(result.repro) + "\"";
    }
    json += "}";
  }
  json += "\n  ]\n}\n";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "mrsc_verify: cannot write %s\n", path.c_str());
    return 1;
  }
  out << json;
  std::printf("report written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) {
    usage();
    return 2;
  }
  try {
    if (!cli.regen_golden.empty()) return regen_golden(cli.regen_golden);
    if (!cli.scenario.empty()) return run_scenario_verify(cli);

    const verify::FuzzReport report = verify::run_fuzz(cli.verify);

    std::map<std::string, std::size_t> per_kind;
    std::map<std::string, std::size_t> per_kind_failed;
    for (const verify::CaseResult& result : report.cases) {
      ++per_kind[verify::to_string(result.kind)];
      if (result.failed()) ++per_kind_failed[verify::to_string(result.kind)];
      if (cli.verbose || result.failed()) {
        std::printf("%s\n", verify::describe(result).c_str());
      }
    }
    std::printf("checked %zu cases in %.1fs:", report.checked,
                report.wall_seconds);
    for (const auto& [kind, count] : per_kind) {
      std::printf(" %s=%zu", kind.c_str(), count);
      if (per_kind_failed.count(kind) > 0) {
        std::printf("(%zu FAILED)", per_kind_failed[kind]);
      }
    }
    std::printf("\n%s\n",
                report.failed == 0
                    ? "all oracles passed"
                    : "VIOLATIONS FOUND — see repros above");
    if (!cli.json.empty()) {
      const int rc = write_json(cli.json, report);
      if (rc != 0) return rc;
    }
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_verify: %s\n", error.what());
    return 1;
  }
}
