#include "sim/engine/compiled_system.hpp"

#include <algorithm>
#include <cmath>

namespace mrsc::sim {

namespace {

ReactionKernel classify(std::span<const std::uint32_t> species,
                        std::span<const std::uint32_t> stoich) {
  if (species.size() == 1) {
    if (stoich[0] == 1) return ReactionKernel::kUnimolecular;
    if (stoich[0] == 2) return ReactionKernel::kDimer;
  } else if (species.size() == 2 && stoich[0] == 1 && stoich[1] == 1) {
    return ReactionKernel::kBimolecular;
  }
  return ReactionKernel::kGeneric;
}

/// Sorts (species, coefficient) terms by species and sums the coefficients
/// of a species listed more than once.
void merge_terms(std::vector<std::pair<std::uint32_t, std::int64_t>>& terms) {
  std::ranges::sort(terms);
  std::size_t kept = 0;
  for (const auto& term : terms) {
    if (kept > 0 && terms[kept - 1].first == term.first) {
      terms[kept - 1].second += term.second;
    } else {
      terms[kept++] = term;
    }
  }
  terms.resize(kept);
}

}  // namespace

CompiledSystem::CompiledSystem(const core::ReactionNetwork& network)
    : species_count_(network.species_count()) {
  const std::size_t m = network.reaction_count();
  rates_.reserve(m);
  orders_.reserve(m);
  kernels_.reserve(m);
  affects_own_.reserve(m);
  reactant_offsets_.reserve(m + 1);
  net_offsets_.reserve(m + 1);
  dep_offsets_.reserve(m + 1);
  reactant_offsets_.push_back(0);
  net_offsets_.push_back(0);
  dep_offsets_.push_back(0);
  // Allocate each CSR table once, at its size before merging. Grown by
  // doubling, the tables land scattered over the heap, which measurably
  // slowed the next-reaction loop that reads them on every event.
  std::size_t reactant_terms = 0;
  std::size_t net_terms = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const core::Reaction& r = network.reaction(
        core::ReactionId{static_cast<core::ReactionId::underlying_type>(j)});
    reactant_terms += r.reactants().size();
    net_terms += r.reactants().size() + r.products().size();
  }
  reactant_species_.reserve(reactant_terms);
  reactant_stoich_.reserve(reactant_terms);
  net_species_.reserve(net_terms);
  net_delta_.reserve(net_terms);

  std::vector<std::pair<std::uint32_t, std::int64_t>> terms;
  for (std::size_t j = 0; j < m; ++j) {
    const core::Reaction& r = network.reaction(
        core::ReactionId{static_cast<core::ReactionId::underlying_type>(j)});
    rates_.push_back(network.effective_rate(r));
    orders_.push_back(r.order());

    terms.clear();
    for (const core::Term& t : r.reactants()) {
      terms.emplace_back(static_cast<std::uint32_t>(t.species.index()),
                         t.stoich);
    }
    merge_terms(terms);
    for (const auto& [idx, stoich] : terms) {
      reactant_species_.push_back(idx);
      reactant_stoich_.push_back(static_cast<std::uint32_t>(stoich));
    }
    reactant_offsets_.push_back(
        static_cast<std::uint32_t>(reactant_species_.size()));

    terms.clear();
    for (const core::Term& t : r.products()) {
      terms.emplace_back(static_cast<std::uint32_t>(t.species.index()),
                         t.stoich);
    }
    for (const core::Term& t : r.reactants()) {
      terms.emplace_back(static_cast<std::uint32_t>(t.species.index()),
                         -static_cast<std::int64_t>(t.stoich));
    }
    merge_terms(terms);
    const std::span<const std::uint32_t> reads = reactant_species(j);
    bool own = false;
    for (const auto& [idx, delta] : terms) {
      if (delta == 0) continue;
      net_species_.push_back(idx);
      net_delta_.push_back(static_cast<std::int32_t>(delta));
      own = own || std::ranges::binary_search(reads, idx);
    }
    net_offsets_.push_back(static_cast<std::uint32_t>(net_species_.size()));
    affects_own_.push_back(own ? 1 : 0);

    kernels_.push_back(classify(reads, reactant_stoich(j)));
  }

  // Transpose the reactant CSR into the species -> reader CSR (a counting
  // sort: reactions are visited in ascending order, so each species' reader
  // list comes out sorted).
  species_dep_offsets_.assign(species_count_ + 1, 0);
  max_reactant_stoich_.assign(species_count_, 0);
  for (std::size_t k = 0; k < reactant_species_.size(); ++k) {
    const std::uint32_t i = reactant_species_[k];
    ++species_dep_offsets_[i + 1];
    max_reactant_stoich_[i] =
        std::max(max_reactant_stoich_[i], reactant_stoich_[k]);
  }
  for (std::size_t i = 0; i < species_count_; ++i) {
    species_dep_offsets_[i + 1] += species_dep_offsets_[i];
  }
  species_dep_reactions_.resize(reactant_species_.size());
  species_dep_stoich_.resize(reactant_species_.size());
  std::vector<std::uint32_t> fill(species_dep_offsets_.begin(),
                                  species_dep_offsets_.end() - 1);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::uint32_t k = reactant_offsets_[j]; k < reactant_offsets_[j + 1];
         ++k) {
      const std::uint32_t slot = fill[reactant_species_[k]]++;
      species_dep_reactions_[slot] = static_cast<std::uint32_t>(j);
      species_dep_stoich_[slot] = reactant_stoich_[k];
    }
  }

  // Next-reaction dependency graph: firing j re-draws j itself and every
  // reaction reading a species j changes; each listed once, sorted.
  std::vector<std::size_t> listed_for(m, m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t begin = dep_reactions_.size();
    dep_reactions_.push_back(static_cast<std::uint32_t>(j));
    listed_for[j] = j;
    for (const std::uint32_t changed : net_species(j)) {
      for (const std::uint32_t reader : dependents_of_species(changed)) {
        if (listed_for[reader] == j) continue;
        listed_for[reader] = j;
        dep_reactions_.push_back(reader);
      }
    }
    std::sort(dep_reactions_.begin() + static_cast<std::ptrdiff_t>(begin),
              dep_reactions_.end());
    dep_offsets_.push_back(static_cast<std::uint32_t>(dep_reactions_.size()));
  }
}

double CompiledSystem::flux(std::size_t j, std::span<const double> x) const {
  const std::uint32_t begin = reactant_offsets_[j];
  switch (kernels_[j]) {
    case ReactionKernel::kUnimolecular:
      return rates_[j] * x[reactant_species_[begin]];
    case ReactionKernel::kDimer: {
      const double xi = x[reactant_species_[begin]];
      return rates_[j] * xi * xi;
    }
    case ReactionKernel::kBimolecular:
      return rates_[j] * x[reactant_species_[begin]] *
             x[reactant_species_[begin + 1]];
    case ReactionKernel::kGeneric:
      break;
  }
  double f = rates_[j];
  const std::uint32_t end = reactant_offsets_[j + 1];
  for (std::uint32_t k = begin; k < end; ++k) {
    const double xi = x[reactant_species_[k]];
    const std::uint32_t stoich = reactant_stoich_[k];
    for (std::uint32_t s = 0; s < stoich; ++s) f *= xi;
  }
  return f;
}

void CompiledSystem::rhs(std::span<const double> x,
                         std::span<double> dxdt) const {
  std::ranges::fill(dxdt, 0.0);
  const std::size_t m = rates_.size();
  for (std::size_t j = 0; j < m; ++j) {
    const double f = flux(j, x);
    if (f == 0.0) continue;
    const std::uint32_t begin = net_offsets_[j];
    const std::uint32_t end = net_offsets_[j + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      dxdt[net_species_[k]] += static_cast<double>(net_delta_[k]) * f;
    }
  }
}

void CompiledSystem::jacobian(std::span<const double> x,
                              util::Matrix& jac) const {
  if (jac.rows() != species_count_ || jac.cols() != species_count_) {
    jac = util::Matrix(species_count_, species_count_);
  } else {
    jac.fill(0.0);
  }
  const std::size_t m_total = rates_.size();
  for (std::size_t j = 0; j < m_total; ++j) {
    const std::uint32_t begin = reactant_offsets_[j];
    const std::uint32_t end = reactant_offsets_[j + 1];
    // d(flux)/dx_m = k * s_m * x_m^(s_m - 1) * prod_{i != m} x_i^{s_i}
    for (std::uint32_t mk = begin; mk < end; ++mk) {
      const std::uint32_t m_idx = reactant_species_[mk];
      const std::uint32_t m_stoich = reactant_stoich_[mk];
      double dflux = rates_[j] * static_cast<double>(m_stoich);
      for (std::uint32_t s = 0; s + 1 < m_stoich; ++s) dflux *= x[m_idx];
      for (std::uint32_t ik = begin; ik < end; ++ik) {
        if (ik == mk) continue;
        const double xi = x[reactant_species_[ik]];
        const std::uint32_t stoich = reactant_stoich_[ik];
        for (std::uint32_t s = 0; s < stoich; ++s) dflux *= xi;
      }
      if (dflux == 0.0) continue;
      const std::uint32_t nb = net_offsets_[j];
      const std::uint32_t ne = net_offsets_[j + 1];
      for (std::uint32_t k = nb; k < ne; ++k) {
        jac(net_species_[k], m_idx) +=
            static_cast<double>(net_delta_[k]) * dflux;
      }
    }
  }
}

void CompiledSystem::scaled_rates(double omega, std::span<double> out) const {
  for (std::size_t j = 0; j < rates_.size(); ++j) {
    // Identical operands and operation as the per-call form in
    // `propensity`, so hoisting it out of the event loop cannot change a
    // single bit.
    out[j] =
        rates_[j] * std::pow(omega, 1.0 - static_cast<double>(orders_[j]));
  }
}

double CompiledSystem::propensity_scaled(std::size_t j,
                                         std::span<const std::int64_t> n,
                                         double scaled) const {
  const std::uint32_t begin = reactant_offsets_[j];
  // Each specialization reproduces the generic falling-factorial loop below
  // for its shape: counts multiplied left-to-right in species-sorted order,
  // with its exact early-out (<= 0 check before each multiply) folded in.
  switch (kernels_[j]) {
    case ReactionKernel::kUnimolecular: {
      const std::int64_t c = n[reactant_species_[begin]];
      return c <= 0 ? 0.0 : scaled * static_cast<double>(c);
    }
    case ReactionKernel::kDimer: {
      const std::int64_t c = n[reactant_species_[begin]];
      if (c <= 1) return 0.0;
      return scaled * static_cast<double>(c) * static_cast<double>(c - 1);
    }
    case ReactionKernel::kBimolecular: {
      const std::int64_t c0 = n[reactant_species_[begin]];
      if (c0 <= 0) return 0.0;
      const std::int64_t c1 = n[reactant_species_[begin + 1]];
      if (c1 <= 0) return 0.0;
      return scaled * static_cast<double>(c0) * static_cast<double>(c1);
    }
    case ReactionKernel::kGeneric:
      break;
  }
  double a = scaled;
  const std::uint32_t end = reactant_offsets_[j + 1];
  for (std::uint32_t k = begin; k < end; ++k) {
    std::int64_t count = n[reactant_species_[k]];
    const std::uint32_t stoich = reactant_stoich_[k];
    for (std::uint32_t s = 0; s < stoich; ++s) {
      if (count <= 0) return 0.0;
      a *= static_cast<double>(count);
      --count;
    }
  }
  return a;
}

double CompiledSystem::propensity(std::size_t j,
                                  std::span<const std::int64_t> n,
                                  double omega) const {
  const double scaled =
      rates_[j] * std::pow(omega, 1.0 - static_cast<double>(orders_[j]));
  return propensity_scaled(j, n, scaled);
}

void CompiledSystem::apply(std::size_t j, std::span<std::int64_t> n) const {
  const std::uint32_t begin = net_offsets_[j];
  const std::uint32_t end = net_offsets_[j + 1];
  for (std::uint32_t k = begin; k < end; ++k) {
    n[net_species_[k]] += net_delta_[k];
  }
}

}  // namespace mrsc::sim
