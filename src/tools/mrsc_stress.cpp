// mrsc_stress — fault-intensity sweep campaigns over the built-in designs.
//
//   mrsc_stress [options]
//
// Sweeps one fault kind's intensity over a grid against one design, several
// seeded trials per grid point, and reports the robustness margin: the
// largest intensity at which every trial (at it and below) still matches the
// exact unperturbed reference. Trials whose simulation misbehaves walk the
// solver fallback ladder; trials that fail every rung are classified and
// quarantined — the sweep never crashes on a hard fault.
//
//   --design D         counter | moving_average | sequence_detector |
//                      async_chain                      (default counter)
//   --scenario SPEC    derive the campaign from a registry scenario
//                      ("counter(4)", a .mrsc file): the scenario's stress
//                      binding picks the design and supplies default
//                      --fault/--intensities/--trials (explicit flags win).
//                      Scenarios without a stress binding are rejected.
//   --fault F          rate-jitter | category-jitter | clock-skew | leak |
//                      injection | loss | initial-noise (default rate-jitter)
//   --category C       fast | slow, for category-jitter (default slow)
//   --intensities A,B  ascending grid                   (default: per-kind)
//   --trials N         seeded trials per grid point     (default 3)
//   --seed S           base seed                        (default 42)
//   --threads N        worker threads, 0 = hardware     (default 1)
//   --attempts N       trial ladder attempts            (default 2)
//   --json             print the campaign as JSON instead of a table
//
// Exit codes:
//   0  campaign completed (the margin itself is a measurement, not a verdict)
//   1  runtime failure while running the campaign
//   2  bad CLI usage: unknown flag, design, fault kind, or malformed value
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/registry.hpp"
#include "stress/campaign.hpp"
#include "tools/flags.hpp"

namespace {

using namespace mrsc;

struct CliOptions {
  stress::CampaignConfig config;
  std::string scenario;
  bool json = false;
  // The flags the user gave; explicit flags beat the scenario's stress
  // binding.
  tools::GivenFlags given;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_stress [--design counter|moving_average|"
      "sequence_detector|async_chain]\n"
      "       [--scenario SPEC]\n"
      "       [--fault rate-jitter|category-jitter|clock-skew|leak|"
      "injection|loss|initial-noise]\n"
      "       [--category fast|slow] [--intensities A,B,C] [--trials N]\n"
      "       [--seed S] [--threads N] [--attempts N] [--json]\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  std::string design;
  std::string fault;
  std::string category;
  std::optional<tools::GivenFlags> given = tools::parse_flags(
      "mrsc_stress", argc, argv,
      {{"--json", &options.json},
       {"--design", &design},
       {"--scenario", &options.scenario},
       {"--fault", &fault},
       {"--category", &category},
       {"--intensities", &options.config.intensities},
       {"--trials", &options.config.trials},
       {"--seed", &options.config.base_seed},
       {"--threads", &options.config.threads},
       {"--attempts", &options.config.max_attempts}},
      nullptr);
  if (!given) return false;
  options.given = std::move(*given);
  if (options.given.contains("--design")) {
    const auto parsed = stress::parse_design(design);
    if (!parsed) {
      std::fprintf(stderr, "mrsc_stress: unknown design '%s'\n",
                   design.c_str());
      return false;
    }
    options.config.design = *parsed;
  }
  if (options.given.contains("--fault")) {
    const auto parsed = stress::parse_fault_kind(fault);
    if (!parsed) {
      std::fprintf(stderr, "mrsc_stress: unknown fault kind '%s'\n",
                   fault.c_str());
      return false;
    }
    options.config.fault = *parsed;
  }
  if (options.given.contains("--category")) {
    if (category != "fast" && category != "slow") {
      std::fprintf(stderr, "mrsc_stress: --category must be fast or slow\n");
      return false;
    }
    options.config.category = category == "fast" ? core::RateCategory::kFast
                                                 : core::RateCategory::kSlow;
  }
  for (const double intensity : options.config.intensities) {
    if (intensity <= 0.0) {
      std::fprintf(stderr, "mrsc_stress: --intensities must be > 0\n");
      return false;
    }
  }
  if (options.config.trials == 0) {
    std::fprintf(stderr, "mrsc_stress: --trials must be >= 1\n");
    return false;
  }
  if (options.config.max_attempts == 0) {
    std::fprintf(stderr, "mrsc_stress: --attempts must be >= 1\n");
    return false;
  }
  if (!options.scenario.empty() && options.given.contains("--design")) {
    std::fprintf(stderr,
                 "mrsc_stress: --design and --scenario are mutually "
                 "exclusive\n");
    return false;
  }
  if (options.config.fault == stress::FaultKind::kRateJitterReaction ||
      options.config.fault == stress::FaultKind::kStoichiometry) {
    std::fprintf(stderr,
                 "mrsc_stress: --fault %s has no intensity knob; campaigns "
                 "sweep continuous fault kinds only\n",
                 stress::to_string(options.config.fault));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) {
    usage();
    return 2;
  }
  if (!cli.scenario.empty()) {
    try {
      const scenario::ResolvedScenario resolved =
          scenario::resolve_scenario_argument(cli.scenario);
      const scenario::StressBinding& binding = resolved.scenario.stress;
      if (binding.design.empty()) {
        std::fprintf(stderr,
                     "mrsc_stress: scenario '%s' has no stress binding (no "
                     "campaign family covers this design)\n",
                     resolved.scenario.name.c_str());
        return 2;
      }
      const auto design = stress::parse_design(binding.design);
      if (!design) {
        std::fprintf(stderr,
                     "mrsc_stress: scenario '%s' binds unknown campaign "
                     "design '%s'\n",
                     resolved.scenario.name.c_str(), binding.design.c_str());
        return 2;
      }
      cli.config.design = *design;
      if (!cli.given.contains("--fault") && binding.fault) {
        const auto fault = stress::parse_fault_kind(binding.fault->c_str());
        if (!fault) {
          std::fprintf(stderr,
                       "mrsc_stress: scenario '%s' binds unknown fault kind "
                       "'%s'\n",
                       resolved.scenario.name.c_str(), binding.fault->c_str());
          return 2;
        }
        cli.config.fault = *fault;
      }
      if (!cli.given.contains("--intensities") &&
          !binding.intensities.empty()) {
        cli.config.intensities = binding.intensities;
      }
      if (!cli.given.contains("--trials") && binding.trials) {
        cli.config.trials = *binding.trials;
      }
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "mrsc_stress: %s\n", error.what());
      return 2;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "mrsc_stress: %s\n", error.what());
      return 1;
    }
  }
  try {
    const stress::CampaignResult result = stress::run_campaign(cli.config);
    if (cli.json) {
      std::printf("%s", result.to_json().c_str());
    } else {
      std::printf("%s", result.to_table().c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_stress: %s\n", error.what());
    return 1;
  }
}
