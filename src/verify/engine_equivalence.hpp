// Engine-equivalence oracle: the compiled rate law against the reference.
//
// The simulators evaluate mass-action kinetics through one engine,
// `sim::CompiledSystem` (CSR tables, per-shape kernels, hoisted propensity
// scale factors). It claims *bitwise* identity with the plain reference rate
// law in mass_action.hpp, not statistical agreement: the same bits. This
// oracle holds it to that claim on arbitrary networks, one evaluation at a
// time, on the network's initial state plus seeded random states (exact
// zeros and counts of 0 and 1 included, to reach the early-out paths):
//
//   1. flux, rhs and the analytic Jacobian at concentrations x;
//   2. propensity and propensity_scaled (through scaled_rates) at counts n
//      for omega 1, 200 and 1e4;
//   3. apply: the counts after one firing of each reaction;
//   4. the structural tables: merged reactants and net changes, the
//      next-reaction dependency graph, affects-own-reactants, the species ->
//      (reader, stoichiometry) table and each species' largest reactant
//      stoichiometry.
//
// What the steppers make of these evaluations is pinned separately, by the
// frozen trajectory digests of tests/test_ssa_digest.cpp. The fuzz driver
// runs this oracle on every generated case, and `mrsc_verify --scenario`
// sweeps it over one design.
#pragma once

#include <cstdint>
#include <vector>

#include "core/network.hpp"
#include "verify/oracles.hpp"

namespace mrsc::verify {

struct EngineEquivalenceOptions {
  /// Seed of the random states the evaluations are compared on.
  std::uint64_t seed = 1;
};

/// Runs every comparison and returns each discrepancy as a violation with
/// oracle "engine_equivalence"; empty means the compiled rate law matched
/// the reference bit for bit.
[[nodiscard]] std::vector<Violation> check_engine_equivalence(
    const core::ReactionNetwork& network,
    const EngineEquivalenceOptions& options = {});

}  // namespace mrsc::verify
