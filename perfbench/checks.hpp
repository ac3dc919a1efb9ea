// Output checks of the benchmark, each against a reference the library did
// not compute the same way:
//   * decoded counter values against the gate-level netlist
//     (logic::make_counter_netlist), as bench/bench_counter.cpp does;
//   * an ensemble's per-species stats against an independent reduction of
//     its replicates' final states;
//   * a fleet-merged ensemble against runtime::run_ssa_ensemble in process.
//
// Each check also classifies a discrepancy against the documented seed
// defects (README.md, "Known seed defects"): a discrepancy one of them
// explains is counted and reported; any other one makes the run incorrect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "runtime/ensemble.hpp"
#include "sim/ssa.hpp"

namespace perfbench {

/// Counter value after each of `increments` increments from 0, from the
/// gate-level netlist.
[[nodiscard]] std::vector<std::uint64_t> counter_reference(
    std::size_t bits, std::size_t increments);

/// The seed defect of the molecular counter as a model: bit 3 sets on its
/// first carry and never again; a later carry into bit 3 is lost. The model
/// is driven by the increments `reference` implies (its successive
/// differences mod 2^bits, from 0), so a wrong reference yields a wrong
/// model and the check still trips.
[[nodiscard]] std::vector<std::uint64_t> counter_defect_model(
    const std::vector<std::uint64_t>& reference, std::size_t bits);

struct DecodeCheck {
  std::size_t cycles = 0;
  std::size_t mismatches = 0;   ///< cycles that differ from the reference
  std::size_t unexplained = 0;  ///< mismatches the defect model does not
                                ///< explain either
};

[[nodiscard]] DecodeCheck check_decoded(
    const std::vector<std::uint64_t>& decoded,
    const std::vector<std::uint64_t>& reference,
    const std::vector<std::uint64_t>& defect_model);

/// Number of species whose stats in `result.final_stats` differ (beyond
/// rounding) from an independent reduction of the ok replicates' final
/// states; a missing or extra species counts once.
[[nodiscard]] std::size_t check_reduction(
    const mrsc::runtime::EnsembleResult& result, std::size_t species_count);

/// Exact equality of two per-species stat lists (names, order, values).
[[nodiscard]] bool same_stats(
    const std::vector<mrsc::runtime::SpeciesStats>& a,
    const std::vector<mrsc::runtime::SpeciesStats>& b);

/// The per-species stats of a fleet::run_ensemble report.
[[nodiscard]] std::vector<mrsc::runtime::SpeciesStats> parse_merged_stats(
    const std::string& report);

/// The seed a shard runs when sent `seed`: the serve validator reads seeds
/// through a double, so seeds above 2^53 are rounded.
[[nodiscard]] std::uint64_t served_seed(std::uint64_t seed);
/// Whether the serve validator rejects `seed` (it caps seeds at 1.8e19).
/// Call served_seed only on seeds this accepts.
[[nodiscard]] bool seed_rejected(std::uint64_t seed);

enum class EnsembleVerdict : std::uint8_t {
  kMatch,         ///< equal to runtime::run_ssa_ensemble on the same spec
  kSeedRounding,  ///< equal to the local run with served_seed() seeds
  kUnexplained,
};

/// Classifies a fleet-merged ensemble of `network` under `ssa` (replicate i
/// seeded with stream_seed(base_seed, i)) against in-process runs.
[[nodiscard]] EnsembleVerdict classify_served_ensemble(
    const std::vector<mrsc::runtime::SpeciesStats>& served,
    const mrsc::core::ReactionNetwork& network,
    const mrsc::sim::SsaOptions& ssa, std::size_t replicates,
    std::uint64_t base_seed);

}  // namespace perfbench
