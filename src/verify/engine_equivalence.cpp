#include "verify/engine_equivalence.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <span>
#include <string>

#include "sim/engine/compiled_system.hpp"
#include "sim/ssa.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "verify/mass_action.hpp"

namespace mrsc::verify {
namespace {

constexpr const char* kOracle = "engine_equivalence";
constexpr int kRandomStates = 5;
constexpr double kOmegas[] = {1.0, 200.0, 1e4};

std::string format(const char* fmt, auto... args) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer), fmt, args...);
  return buffer;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Keeps the first mismatch of each kind: one broken kernel would otherwise
/// report every reaction on every state.
class Report {
 public:
  void add(const std::string& what, const std::string& detail) {
    if (std::ranges::find(seen_, what) != seen_.end()) return;
    seen_.push_back(what);
    violations_.push_back({kOracle, what + ": " + detail});
  }
  /// Compares one evaluation; `fmt` and `args` say where, and are only
  /// formatted on a mismatch.
  void value(const std::string& what, double got, double want,
             const char* fmt, auto... args) {
    if (same_bits(got, want)) return;
    add(what, format(fmt, args...) +
                  format(": %.17g vs reference %.17g", got, want));
  }
  [[nodiscard]] std::vector<Violation> take() {
    return std::move(violations_);
  }

 private:
  std::vector<std::string> seen_;
  std::vector<Violation> violations_;
};

template <class T>
std::vector<T> to_vector(std::span<const T> values) {
  return {values.begin(), values.end()};
}

void check_structure(const sim::CompiledSystem& compiled,
                     const MassActionSystem& reference, Report& report) {
  for (std::size_t j = 0; j < compiled.reaction_count(); ++j) {
    const CompiledReaction& r = reference.compiled_reaction(j);
    const std::string where = format("reaction %zu", j);
    report.value("rate", compiled.rate(j), r.rate, "%s", where.c_str());
    if (compiled.order(j) != r.order) report.add("order", where);

    std::vector<std::pair<std::uint32_t, std::uint32_t>> reactants;
    const auto species = compiled.reactant_species(j);
    const auto stoich = compiled.reactant_stoich(j);
    for (std::size_t k = 0; k < species.size(); ++k) {
      reactants.emplace_back(species[k], stoich[k]);
    }
    if (reactants != r.reactants) report.add("reactants", where);

    std::vector<std::pair<std::uint32_t, std::int32_t>> net;
    const auto changed = compiled.net_species(j);
    const auto delta = compiled.net_delta(j);
    for (std::size_t k = 0; k < changed.size(); ++k) {
      net.emplace_back(changed[k], delta[k]);
    }
    if (net != r.net_changes) report.add("net changes", where);

    if (to_vector(compiled.affected_reactions(j)) !=
        reference.affected_reactions(j)) {
      report.add("dependency graph", where);
    }
    if (compiled.affects_own_reactants(j) !=
        reference.affects_own_reactants(j)) {
      report.add("affects own reactants", where);
    }
  }

  for (std::size_t i = 0; i < compiled.species_count(); ++i) {
    const std::string where = format("species %zu", i);
    const std::vector<std::uint32_t>& readers =
        reference.dependents_of_species(i);
    if (to_vector(compiled.dependents_of_species(i)) != readers) {
      report.add("reader table", where);
      continue;
    }
    std::vector<std::uint32_t> want;
    for (const std::uint32_t reader : readers) {
      for (const auto& [idx, stoich] :
           reference.compiled_reaction(reader).reactants) {
        if (idx == i) want.push_back(stoich);
      }
    }
    if (to_vector(compiled.reader_stoich(i)) != want) {
      report.add("reader stoichiometry", where);
    }
    const std::uint32_t max_stoich =
        want.empty() ? 0 : *std::ranges::max_element(want);
    if (compiled.max_reactant_stoich(i) != max_stoich) {
      report.add("max reactant stoichiometry",
                 format("%s: %u vs reference %u", where.c_str(),
                        compiled.max_reactant_stoich(i), max_stoich));
    }
  }
}

void check_state(const sim::CompiledSystem& compiled,
                 const MassActionSystem& reference,
                 std::span<const double> x,
                 std::span<const std::int64_t> n, const std::string& state,
                 Report& report) {
  const std::size_t ns = compiled.species_count();
  const std::size_t m = compiled.reaction_count();
  for (std::size_t j = 0; j < m; ++j) {
    report.value("flux", compiled.flux(j, x), reference.flux(j, x),
                 "%s reaction %zu", state.c_str(), j);
  }

  std::vector<double> dxdt(ns), dxdt_ref(ns);
  compiled.rhs(x, dxdt);
  reference.rhs(x, dxdt_ref);
  for (std::size_t i = 0; i < ns; ++i) {
    report.value("rhs", dxdt[i], dxdt_ref[i], "%s species %zu", state.c_str(),
                 i);
  }

  util::Matrix jac, jac_ref;
  compiled.jacobian(x, jac);
  reference.jacobian(x, jac_ref);
  for (std::size_t r = 0; r < ns; ++r) {
    for (std::size_t c = 0; c < ns; ++c) {
      report.value("jacobian", jac(r, c), jac_ref(r, c), "%s (%zu, %zu)",
                   state.c_str(), r, c);
    }
  }

  std::vector<double> scaled(m);
  for (const double omega : kOmegas) {
    compiled.scaled_rates(omega, scaled);
    for (std::size_t j = 0; j < m; ++j) {
      const double want = reference.propensity(j, n, omega);
      report.value("propensity", compiled.propensity(j, n, omega), want,
                   "%s reaction %zu omega %g", state.c_str(), j, omega);
      report.value("propensity_scaled",
                   compiled.propensity_scaled(j, n, scaled[j]), want,
                   "%s reaction %zu omega %g", state.c_str(), j, omega);
    }
  }

  for (std::size_t j = 0; j < m; ++j) {
    std::vector<std::int64_t> got(n.begin(), n.end()), want = got;
    compiled.apply(j, got);
    reference.apply(j, want);
    if (got != want) {
      report.add("apply", format("%s reaction %zu", state.c_str(), j));
    }
  }
}

}  // namespace

std::vector<Violation> check_engine_equivalence(
    const core::ReactionNetwork& network,
    const EngineEquivalenceOptions& options) {
  const sim::CompiledSystem compiled(network);
  const MassActionSystem reference(network);
  Report report;
  if (compiled.species_count() != reference.species_count() ||
      compiled.reaction_count() != reference.reaction_count()) {
    report.add("shape",
               format("%zu species, %zu reactions vs reference %zu, %zu",
                      compiled.species_count(), compiled.reaction_count(),
                      reference.species_count(), reference.reaction_count()));
    return report.take();
  }
  check_structure(compiled, reference, report);

  const std::vector<double> initial = network.initial_state();
  check_state(compiled, reference, initial, sim::to_counts(initial, 200.0),
              "initial state", report);

  util::Rng rng(options.seed);
  const std::size_t ns = compiled.species_count();
  for (int trial = 0; trial < kRandomStates; ++trial) {
    // Random concentrations and counts, with exact zeros and counts of 0
    // and 1 (the early-out paths of the dimer and bimolecular kernels).
    std::vector<double> x(ns);
    for (double& v : x) {
      v = rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.0, 3.0);
    }
    std::vector<std::int64_t> n(ns);
    for (std::int64_t& v : n) {
      v = static_cast<std::int64_t>(rng.uniform_below(50));
      if (rng.uniform() < 0.3) {
        v = static_cast<std::int64_t>(rng.uniform_below(2));
      }
    }
    check_state(compiled, reference, x, n, format("random state %d", trial),
                report);
  }
  return report.take();
}

}  // namespace mrsc::verify
