#include "verify/mass_action.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace mrsc::verify {

MassActionSystem::MassActionSystem(const core::ReactionNetwork& network)
    : species_count_(network.species_count()) {
  reactions_.reserve(network.reaction_count());
  species_dependents_.resize(species_count_);

  for (std::size_t j = 0; j < network.reaction_count(); ++j) {
    const core::Reaction& r = network.reaction(
        core::ReactionId{static_cast<core::ReactionId::underlying_type>(j)});
    CompiledReaction compiled;
    compiled.rate = network.effective_rate(r);
    compiled.order = r.order();

    // Merge duplicate reactant terms (e.g. "G + G" written as two terms).
    std::unordered_map<std::uint32_t, std::uint32_t> reactant_stoich;
    for (const core::Term& t : r.reactants()) {
      reactant_stoich[static_cast<std::uint32_t>(t.species.index())] +=
          t.stoich;
    }
    compiled.reactants.assign(reactant_stoich.begin(), reactant_stoich.end());
    std::ranges::sort(compiled.reactants);

    // Net changes, merged across both sides.
    std::unordered_map<std::uint32_t, std::int32_t> net;
    for (const core::Term& t : r.products()) {
      net[static_cast<std::uint32_t>(t.species.index())] +=
          static_cast<std::int32_t>(t.stoich);
    }
    for (const core::Term& t : r.reactants()) {
      net[static_cast<std::uint32_t>(t.species.index())] -=
          static_cast<std::int32_t>(t.stoich);
    }
    for (const auto& [idx, delta] : net) {
      if (delta != 0) compiled.net_changes.emplace_back(idx, delta);
    }
    std::ranges::sort(compiled.net_changes);

    for (const auto& [idx, stoich] : compiled.reactants) {
      species_dependents_[idx].push_back(static_cast<std::uint32_t>(j));
    }
    bool own = false;
    for (const auto& [idx, delta] : compiled.net_changes) {
      for (const auto& [r_idx, r_stoich] : compiled.reactants) {
        if (r_idx == idx) own = true;
      }
    }
    affects_own_.push_back(own ? 1 : 0);
    reactions_.push_back(std::move(compiled));
  }

  // Next-reaction dependency graph: when j fires it changes some species;
  // any reaction reading one of those species must recompute its propensity.
  reaction_dependents_.resize(reactions_.size());
  for (std::size_t j = 0; j < reactions_.size(); ++j) {
    std::unordered_set<std::uint32_t> affected;
    affected.insert(static_cast<std::uint32_t>(j));  // j itself re-draws
    for (const auto& [idx, delta] : reactions_[j].net_changes) {
      for (std::uint32_t dep : species_dependents_[idx]) {
        affected.insert(dep);
      }
    }
    reaction_dependents_[j].assign(affected.begin(), affected.end());
    std::ranges::sort(reaction_dependents_[j]);
  }
}

double MassActionSystem::flux(std::size_t j, std::span<const double> x) const {
  const CompiledReaction& r = reactions_[j];
  double f = r.rate;
  for (const auto& [idx, stoich] : r.reactants) {
    const double xi = x[idx];
    for (std::uint32_t s = 0; s < stoich; ++s) f *= xi;
  }
  return f;
}

void MassActionSystem::rhs(std::span<const double> x,
                           std::span<double> dxdt) const {
  std::ranges::fill(dxdt, 0.0);
  for (std::size_t j = 0; j < reactions_.size(); ++j) {
    const double f = flux(j, x);
    if (f == 0.0) continue;
    for (const auto& [idx, delta] : reactions_[j].net_changes) {
      dxdt[idx] += static_cast<double>(delta) * f;
    }
  }
}

void MassActionSystem::jacobian(std::span<const double> x,
                                util::Matrix& jac) const {
  if (jac.rows() != species_count_ || jac.cols() != species_count_) {
    jac = util::Matrix(species_count_, species_count_);
  } else {
    jac.fill(0.0);
  }
  for (const CompiledReaction& r : reactions_) {
    // d(flux)/dx_m = k * s_m * x_m^(s_m - 1) * prod_{i != m} x_i^{s_i}
    for (std::size_t m = 0; m < r.reactants.size(); ++m) {
      const auto [m_idx, m_stoich] = r.reactants[m];
      double dflux = r.rate * static_cast<double>(m_stoich);
      for (std::uint32_t s = 0; s + 1 < m_stoich; ++s) dflux *= x[m_idx];
      for (std::size_t i = 0; i < r.reactants.size(); ++i) {
        if (i == m) continue;
        const auto [idx, stoich] = r.reactants[i];
        for (std::uint32_t s = 0; s < stoich; ++s) dflux *= x[idx];
      }
      if (dflux == 0.0) continue;
      for (const auto& [row, delta] : r.net_changes) {
        jac(row, m_idx) += static_cast<double>(delta) * dflux;
      }
    }
  }
}

double MassActionSystem::propensity(std::size_t j,
                                    std::span<const std::int64_t> n,
                                    double omega) const {
  const CompiledReaction& r = reactions_[j];
  // a_j = k_j * omega^(1 - order) * prod_i falling_factorial(n_i, s_i)/s_i! *
  //       s_i!  == k_j * omega^(1-order) * prod_i falling(n_i, s_i).
  // (The s_i! from the combinatorial count C(n,s) cancels against the s_i!
  // in the deterministic<->stochastic rate conversion.)
  double a = r.rate * std::pow(omega, 1.0 - static_cast<double>(r.order));
  for (const auto& [idx, stoich] : r.reactants) {
    std::int64_t count = n[idx];
    for (std::uint32_t s = 0; s < stoich; ++s) {
      if (count <= 0) return 0.0;
      a *= static_cast<double>(count);
      --count;
    }
  }
  return a;
}

void MassActionSystem::apply(std::size_t j, std::span<std::int64_t> n) const {
  for (const auto& [idx, delta] : reactions_[j].net_changes) {
    n[idx] += delta;
  }
}

}  // namespace mrsc::verify
