#include "checks.hpp"

#include <algorithm>
#include <cmath>

#include "logic/netlist.hpp"
#include "runtime/batch.hpp"
#include "serve/json.hpp"

namespace perfbench {

using mrsc::runtime::SpeciesStats;

std::vector<std::uint64_t> counter_reference(std::size_t bits,
                                             std::size_t increments) {
  const mrsc::logic::Netlist netlist =
      mrsc::logic::make_counter_netlist(bits, 0);
  mrsc::logic::Simulation sim(netlist);
  const mrsc::logic::NetId enable = *netlist.find("enable");
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < increments; ++i) {
    sim.set_input(enable, true);
    sim.evaluate();
    sim.clock_edge();
    sim.evaluate();
    values.push_back(sim.output_word());
  }
  return values;
}

std::vector<std::uint64_t> counter_defect_model(
    const std::vector<std::uint64_t>& reference, std::size_t bits) {
  constexpr std::size_t kStuckBit = 3;
  const std::uint64_t modulus = std::uint64_t{1} << bits;
  std::vector<bool> state(bits, false);
  bool stuck_bit_has_set = false;
  auto increment = [&] {
    for (std::size_t b = 0; b < bits; ++b) {
      if (state[b]) {  // 1 + 1: clear and carry on
        state[b] = false;
        continue;
      }
      if (b == kStuckBit && stuck_bit_has_set) return;  // carry lost
      if (b == kStuckBit) stuck_bit_has_set = true;
      state[b] = true;
      return;
    }
  };
  std::vector<std::uint64_t> values;
  std::uint64_t previous = 0;
  for (const std::uint64_t value : reference) {
    const std::uint64_t steps = (value + modulus - previous) % modulus;
    for (std::uint64_t s = 0; s < steps; ++s) increment();
    previous = value;
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (state[b]) word |= std::uint64_t{1} << b;
    }
    values.push_back(word);
  }
  return values;
}

DecodeCheck check_decoded(const std::vector<std::uint64_t>& decoded,
                          const std::vector<std::uint64_t>& reference,
                          const std::vector<std::uint64_t>& defect_model) {
  DecodeCheck check;
  check.cycles = reference.size();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const bool present = i < decoded.size();
    if (present && decoded[i] == reference[i]) continue;
    ++check.mismatches;
    if (!present || i >= defect_model.size() ||
        decoded[i] != defect_model[i]) {
      ++check.unexplained;
    }
  }
  return check;
}

namespace {

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-12 + 1e-9 * std::max(std::abs(a), std::abs(b));
}

// Deliberately not runtime::reduce_species: Welford moments and a
// nth_element quantile, so a fault in the library reduction shows.
SpeciesStats independent_reduction(std::vector<double> values) {
  SpeciesStats stats;
  if (values.empty()) return stats;
  double mean = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double delta = values[i] - mean;
    mean += delta / static_cast<double>(i + 1);
    m2 += delta * (values[i] - mean);
  }
  stats.mean = mean;
  stats.stddev = values.size() > 1
                     ? std::sqrt(m2 / static_cast<double>(values.size() - 1))
                     : 0.0;
  auto quantile = [&values](double q) {
    const double position = q * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(std::floor(position));
    const std::size_t upper = std::min(lower + 1, values.size() - 1);
    std::nth_element(values.begin(), values.begin() + lower, values.end());
    const double low = values[lower];
    std::nth_element(values.begin(), values.begin() + upper, values.end());
    const double high = values[upper];
    return low + (position - static_cast<double>(lower)) * (high - low);
  };
  stats.min = *std::min_element(values.begin(), values.end());
  stats.max = *std::max_element(values.begin(), values.end());
  stats.q05 = quantile(0.05);
  stats.q50 = quantile(0.50);
  stats.q95 = quantile(0.95);
  return stats;
}

}  // namespace

std::size_t check_reduction(const mrsc::runtime::EnsembleResult& result,
                            std::size_t species_count) {
  std::size_t bad = result.final_stats.size() > species_count
                        ? result.final_stats.size() - species_count
                        : species_count - result.final_stats.size();
  const std::size_t shared = std::min(species_count, result.final_stats.size());
  for (std::size_t s = 0; s < shared; ++s) {
    std::vector<double> values;
    for (const mrsc::runtime::JobResult& job : result.replicates) {
      if (job.status == mrsc::runtime::JobStatus::kOk) {
        values.push_back(job.final_state.at(s));
      }
    }
    const SpeciesStats want = independent_reduction(std::move(values));
    const SpeciesStats& got = result.final_stats[s];
    if (!close(got.mean, want.mean) || !close(got.stddev, want.stddev) ||
        got.min != want.min || got.max != want.max ||
        !close(got.q05, want.q05) || !close(got.q50, want.q50) ||
        !close(got.q95, want.q95)) {
      ++bad;
    }
  }
  return bad;
}

bool same_stats(const std::vector<SpeciesStats>& a,
                const std::vector<SpeciesStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].mean != b[i].mean ||
        a[i].stddev != b[i].stddev || a[i].min != b[i].min ||
        a[i].max != b[i].max || a[i].q05 != b[i].q05 ||
        a[i].q50 != b[i].q50 || a[i].q95 != b[i].q95) {
      return false;
    }
  }
  return true;
}

std::vector<SpeciesStats> parse_merged_stats(const std::string& report) {
  const mrsc::serve::json::Value doc = mrsc::serve::json::parse(report);
  std::vector<SpeciesStats> stats;
  const mrsc::serve::json::Value* species = doc.find("species");
  if (species == nullptr) return stats;
  for (const mrsc::serve::json::Value& entry : species->as_array()) {
    SpeciesStats s;
    s.name = entry.get_string("name", "");
    s.mean = entry.get_number("mean", 0.0);
    s.stddev = entry.get_number("stddev", 0.0);
    s.min = entry.get_number("min", 0.0);
    s.max = entry.get_number("max", 0.0);
    s.q05 = entry.get_number("q05", 0.0);
    s.q50 = entry.get_number("q50", 0.0);
    s.q95 = entry.get_number("q95", 0.0);
    stats.push_back(std::move(s));
  }
  return stats;
}

std::uint64_t served_seed(std::uint64_t seed) {
  return static_cast<std::uint64_t>(static_cast<double>(seed));
}

bool seed_rejected(std::uint64_t seed) {
  return static_cast<double>(seed) > 1.8e19;
}

EnsembleVerdict classify_served_ensemble(
    const std::vector<SpeciesStats>& served,
    const mrsc::core::ReactionNetwork& network,
    const mrsc::sim::SsaOptions& ssa, std::size_t replicates,
    std::uint64_t base_seed) {
  mrsc::runtime::EnsembleOptions options;
  options.replicates = replicates;
  options.base_seed = base_seed;
  const mrsc::runtime::EnsembleResult local =
      mrsc::runtime::run_ssa_ensemble(network, ssa, options);
  if (same_stats(served, local.final_stats)) return EnsembleVerdict::kMatch;

  std::vector<mrsc::runtime::SimJob> jobs =
      mrsc::runtime::make_ensemble_jobs(network, ssa, replicates, base_seed);
  for (mrsc::runtime::SimJob& job : jobs) {
    job.ssa.seed = served_seed(job.ssa.seed);
  }
  mrsc::runtime::BatchRunner runner;
  const std::vector<mrsc::runtime::JobResult> results = runner.run(jobs);
  std::vector<SpeciesStats> rounded;
  for (std::size_t s = 0; s < network.species_count(); ++s) {
    std::vector<double> values;
    for (const mrsc::runtime::JobResult& result : results) {
      values.push_back(result.final_state.at(s));
    }
    const mrsc::core::SpeciesId id{
        static_cast<mrsc::core::SpeciesId::underlying_type>(s)};
    rounded.push_back(
        mrsc::runtime::reduce_species(network.species_name(id), values));
  }
  return same_stats(served, rounded) ? EnsembleVerdict::kSeedRounding
                                     : EnsembleVerdict::kUnexplained;
}

}  // namespace perfbench
