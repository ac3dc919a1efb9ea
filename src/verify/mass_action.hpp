// Reference mass-action rate law.
//
// `MassActionSystem` evaluates the deterministic rate law, its analytic
// Jacobian, stochastic propensities and the next-reaction dependency graph
// in the plainest form: one vector of (species, coefficient) pairs per
// reaction and the propensity scale factor k * omega^(1-order) recomputed on
// every call. The simulators never run it; they run `sim::CompiledSystem`.
// It is the reference the engine-equivalence oracle
// (engine_equivalence.hpp) and the engine tests hold the compiled rate law
// to, evaluation by evaluation and bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/network.hpp"
#include "util/matrix.hpp"

namespace mrsc::verify {

/// One reaction in compiled form.
struct CompiledReaction {
  double rate = 0.0;  ///< resolved numeric rate constant
  /// (species index, stoichiometric coefficient) of each distinct reactant.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reactants;
  /// (species index, net change) for every species the reaction changes.
  std::vector<std::pair<std::uint32_t, std::int32_t>> net_changes;
  std::uint32_t order = 0;  ///< total kinetic order
};

class MassActionSystem {
 public:
  /// Compiles `network` using its current rate policy and multipliers. The
  /// network must outlive this object only for `network()` access; the
  /// compiled arrays are self-contained.
  explicit MassActionSystem(const core::ReactionNetwork& network);

  [[nodiscard]] std::size_t species_count() const { return species_count_; }
  [[nodiscard]] std::size_t reaction_count() const {
    return reactions_.size();
  }
  [[nodiscard]] const CompiledReaction& compiled_reaction(
      std::size_t j) const {
    return reactions_[j];
  }

  /// Deterministic flux of reaction `j` at concentrations `x`:
  /// k_j * prod_i x_i^s_ij.
  [[nodiscard]] double flux(std::size_t j, std::span<const double> x) const;

  /// dx/dt at concentrations `x`; `dxdt.size()` must equal species_count().
  void rhs(std::span<const double> x, std::span<double> dxdt) const;

  /// Analytic Jacobian d(dx/dt)/dx; `jac` is resized/overwritten to NxN.
  void jacobian(std::span<const double> x, util::Matrix& jac) const;

  /// Stochastic propensity of reaction `j` at integer counts `n` in volume
  /// `omega` (molecules per concentration unit). Uses the standard
  /// concentration->count conversion: a_j = k_j * omega * prod_i
  /// C(n_i, s_i) * s_i! / omega^{s_i}.
  [[nodiscard]] double propensity(std::size_t j,
                                  std::span<const std::int64_t> n,
                                  double omega) const;

  /// Applies one firing of reaction `j` to integer counts `n`.
  void apply(std::size_t j, std::span<std::int64_t> n) const;

  /// Indices of reactions whose propensity depends on species `i`.
  [[nodiscard]] const std::vector<std::uint32_t>& dependents_of_species(
      std::size_t i) const {
    return species_dependents_[i];
  }

  /// Reaction dependency graph for the next-reaction method: for reaction j,
  /// the sorted list of reactions (including j) whose propensity can change
  /// when j fires.
  [[nodiscard]] const std::vector<std::uint32_t>& affected_reactions(
      std::size_t j) const {
    return reaction_dependents_[j];
  }

  /// True when firing j changes the count of at least one of j's own
  /// reactants; false means j's propensity is invariant under its own firing
  /// (pure catalysis), so the next-reaction method may reuse the stored value
  /// instead of recomputing it.
  [[nodiscard]] bool affects_own_reactants(std::size_t j) const {
    return affects_own_[j] != 0;
  }

 private:
  std::size_t species_count_ = 0;
  std::vector<CompiledReaction> reactions_;
  std::vector<std::uint8_t> affects_own_;
  std::vector<std::vector<std::uint32_t>> species_dependents_;
  std::vector<std::vector<std::uint32_t>> reaction_dependents_;
};

}  // namespace mrsc::verify
