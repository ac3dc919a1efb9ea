// Tests of the simulation engine, `CompiledSystem` (src/sim/engine/).
//
// The engine claims *bitwise* identity with the plain reference rate law in
// verify/mass_action.hpp, not closeness: the same bits. Frozen trajectory
// digests (test_ssa_digest.cpp) pin what the steppers make of it; this file
// holds the engine itself to the reference:
//
//   * the engine_equivalence oracle (every evaluation and structural table
//     against the reference) on every smoke-catalog design, handcrafted
//     shapes, and a 25-seed x 4-kind fuzz sweep, the same oracle mrsc_verify
//     runs on every generated case;
//   * shared-CompiledSystem ensembles at 1 and 8 workers: bitwise equal to
//     per-replicate runs that each compile their own system;
//   * dependency-graph properties: the CSR graph equals the reference graph,
//     contains an edge j->k exactly when j changes a reactant of k (or
//     j == k), and has no spurious edges between independent reactions;
//   * kernel classification;
//   * the next-reaction stale-propensity and blocked-reaction skips,
//     regressed against an in-test reference NRM that always recomputes
//     (identical RNG draw order).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/network.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "sim/engine/arena.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/ssa.hpp"
#include "util/rng.hpp"
#include "verify/engine_equivalence.hpp"
#include "verify/generator.hpp"
#include "verify/mass_action.hpp"

namespace mrsc::sim {
namespace {

using core::NetworkBuilder;
using core::ReactionNetwork;
using core::SpeciesId;
using verify::MassActionSystem;

const std::vector<std::string> kBuiltinDesigns = {
    "counter", "moving_average", "iir",    "first_difference",
    "delay",   "seqdet",         "cascade"};

ReactionNetwork builtin_network(const std::string& name) {
  const scenario::BuiltDesign design =
      scenario::ScenarioRegistry::global().resolve(name).design;
  return *design.network;
}

void expect_trajectories_bitwise(const Trajectory& a, const Trajectory& b,
                                 const std::string& context) {
  ASSERT_EQ(a.sample_count(), b.sample_count()) << context;
  ASSERT_EQ(a.species_count(), b.species_count()) << context;
  for (std::size_t k = 0; k < a.sample_count(); ++k) {
    ASSERT_EQ(a.time(k), b.time(k)) << context << " sample " << k;
    const auto sa = a.state(k);
    const auto sb = b.state(k);
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i])
          << context << " sample " << k << " species " << i;
    }
  }
}

void expect_ssa_results_bitwise(const SsaResult& a, const SsaResult& b,
                                const std::string& context) {
  EXPECT_EQ(a.events, b.events) << context;
  EXPECT_EQ(a.exhausted, b.exhausted) << context;
  EXPECT_EQ(a.hit_event_limit, b.hit_event_limit) << context;
  EXPECT_EQ(a.end_time, b.end_time) << context;
  ASSERT_EQ(a.final_counts, b.final_counts) << context;
  expect_trajectories_bitwise(a.trajectory, b.trajectory, context);
}

// ---------------------------------------------------------------------------
// Shared CompiledSystem across an ensemble: bitwise independent of the worker
// count and equal to runs that compile their own system.

TEST(EngineEquivalence, EnsembleSharedCompiledSystemBitwise) {
  const ReactionNetwork network = builtin_network("counter");
  SsaOptions ssa;
  ssa.t_end = 0.3;
  ssa.omega = 100.0;
  ssa.method = SsaMethod::kNextReaction;
  ssa.record_interval = 0.05;
  ssa.max_events = 40'000;

  auto run = [&](std::size_t threads) {
    runtime::EnsembleOptions ensemble;
    ensemble.replicates = 8;
    ensemble.base_seed = 11;
    ensemble.batch.threads = threads;
    return runtime::run_ssa_ensemble(network, ssa, ensemble);
  };

  const runtime::EnsembleResult serial = run(1);
  const runtime::EnsembleResult parallel = run(8);

  ASSERT_EQ(serial.ok, serial.replicates.size());
  ASSERT_EQ(parallel.replicates.size(), serial.replicates.size());
  for (std::size_t i = 0; i < serial.replicates.size(); ++i) {
    SsaOptions options = ssa;
    options.seed = serial.replicates[i].seed;
    const SsaResult alone = simulate_ssa(network, options);
    for (const runtime::EnsembleResult* ensemble : {&serial, &parallel}) {
      const runtime::JobResult& got = ensemble->replicates[i];
      EXPECT_EQ(got.status, runtime::JobStatus::kOk) << "replicate " << i;
      EXPECT_EQ(got.seed, options.seed) << "replicate " << i;
      EXPECT_EQ(got.ssa_events, alone.events) << "replicate " << i;
      EXPECT_EQ(got.end_time, alone.end_time) << "replicate " << i;
      ASSERT_EQ(got.final_state.size(), alone.final_counts.size());
      for (std::size_t s = 0; s < alone.final_counts.size(); ++s) {
        EXPECT_EQ(got.final_state[s],
                  static_cast<double>(alone.final_counts[s]) / ssa.omega)
            << "replicate " << i << " species " << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The engine-equivalence oracle: every evaluation against the reference.

void expect_matches_reference(const ReactionNetwork& network,
                              std::uint64_t seed, const std::string& context) {
  verify::EngineEquivalenceOptions eq;
  eq.seed = seed;
  for (const verify::Violation& v :
       verify::check_engine_equivalence(network, eq)) {
    ADD_FAILURE() << context << ": [" << v.oracle << "] " << v.detail;
  }
}

TEST(EngineEquivalence, SmokeCatalogMatchesReference) {
  const std::vector<std::string> catalog =
      scenario::ScenarioRegistry::global().smoke_catalog();
  ASSERT_FALSE(catalog.empty());
  for (const std::string& spec : catalog) {
    expect_matches_reference(builtin_network(spec), 1, spec);
  }
}

TEST(EngineEquivalence, HandcraftedShapesMatchReference) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 0.7);
  b.reaction("2 A -> B", 1.3);
  b.reaction("A + B -> C", 2.1);
  b.reaction("0 -> A", 0.4);
  b.reaction("C + A -> C + B", 5.0);
  const SpeciesId a = *net.find_species("A");
  const SpeciesId bb = *net.find_species("B");
  const SpeciesId cc = *net.find_species("C");
  net.add({{a, 1}, {bb, 2}}, {{cc, 1}}, core::RateCategory::kCustom, 0.9);
  // Duplicate reactant terms ("A + A") and a product that cancels a
  // reactant: the merge and the netting, not just the kernels.
  net.add({{a, 1}, {a, 1}, {bb, 1}}, {{bb, 1}, {cc, 2}},
          core::RateCategory::kCustom, 0.6);
  net.set_initial(a, 2.0);
  expect_matches_reference(net, 3, "handcrafted");
}

// The fuzz oracle, swept the way mrsc_verify sweeps it.

TEST(EngineEquivalence, FuzzSweepAllKinds) {
  const std::vector<verify::CaseKind> kinds = {
      verify::CaseKind::kRawNetwork, verify::CaseKind::kSyncCircuit,
      verify::CaseKind::kFsm, verify::CaseKind::kCounter};
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    for (const verify::CaseKind kind : kinds) {
      const verify::GeneratedCase c = verify::generate_case(kind, seed);
      verify::EngineEquivalenceOptions eq;
      eq.seed = util::Rng::stream_seed(seed, 0xE6);
      const std::vector<verify::Violation> violations =
          verify::check_engine_equivalence(c.network(), eq);
      for (const verify::Violation& v : violations) {
        ADD_FAILURE() << "kind " << verify::to_string(kind) << " seed "
                      << seed << ": [" << v.oracle << "] " << v.detail;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dependency-graph properties.

// Naive recomputation of the next-reaction dependency predicate: j -> k iff
// j == k or j changes the count of one of k's reactant species.
bool naive_edge(const CompiledSystem& sys, std::size_t j, std::size_t k) {
  if (j == k) return true;
  for (const std::uint32_t changed : sys.net_species(j)) {
    const auto reactants = sys.reactant_species(k);
    if (std::find(reactants.begin(), reactants.end(), changed) !=
        reactants.end()) {
      return true;
    }
  }
  return false;
}

void expect_dependency_graph_sound(const ReactionNetwork& network,
                                   const std::string& context) {
  const MassActionSystem reference(network);
  const CompiledSystem compiled(network);
  ASSERT_EQ(compiled.reaction_count(), reference.reaction_count()) << context;
  for (std::size_t j = 0; j < compiled.reaction_count(); ++j) {
    // CSR graph == reference graph, element for element.
    const auto span = compiled.affected_reactions(j);
    const std::vector<std::uint32_t>& ref = reference.affected_reactions(j);
    ASSERT_EQ(std::vector<std::uint32_t>(span.begin(), span.end()), ref)
        << context << " reaction " << j;
    // Edge set == the naive predicate: every reaction changing a reactant of
    // k is an edge into k, and nothing else is.
    for (std::size_t k = 0; k < compiled.reaction_count(); ++k) {
      const bool listed =
          std::find(span.begin(), span.end(), static_cast<std::uint32_t>(k)) !=
          span.end();
      EXPECT_EQ(listed, naive_edge(compiled, j, k))
          << context << " edge " << j << " -> " << k;
    }
    // The pure-catalysis flags agree too.
    EXPECT_EQ(compiled.affects_own_reactants(j),
              reference.affects_own_reactants(j))
        << context << " reaction " << j;
  }
}

TEST(DependencyGraph, MatchesReferenceAndNaivePredicateOnBuiltins) {
  for (const std::string& name : kBuiltinDesigns) {
    expect_dependency_graph_sound(builtin_network(name), name);
  }
}

TEST(DependencyGraph, MatchesReferenceAndNaivePredicateOnFuzzedNetworks) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const verify::GeneratedCase c =
        verify::generate_case(verify::CaseKind::kRawNetwork, seed);
    expect_dependency_graph_sound(c.network(),
                                  "raw seed " + std::to_string(seed));
  }
}

TEST(DependencyGraph, NoSpuriousEdgesBetweenIndependentReactions) {
  // A -> B and C -> D share no species at all: each reaction's dependency
  // list must be exactly its self-edge.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 1.0);
  b.reaction("C -> D", 2.0);
  const CompiledSystem sys{net};
  ASSERT_EQ(sys.reaction_count(), 2u);
  const auto dep0 = sys.affected_reactions(0);
  const auto dep1 = sys.affected_reactions(1);
  EXPECT_EQ(std::vector<std::uint32_t>(dep0.begin(), dep0.end()),
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(std::vector<std::uint32_t>(dep1.begin(), dep1.end()),
            (std::vector<std::uint32_t>{1}));
}

TEST(DependencyGraph, CatalysisSetsAffectsOwnReactantsFalse) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("C -> C + A", 1.0);  // pure catalysis: C's count is unchanged
  b.reaction("A -> B", 1.0);      // consumes its own reactant
  const CompiledSystem sys{net};
  EXPECT_FALSE(sys.affects_own_reactants(0));
  EXPECT_TRUE(sys.affects_own_reactants(1));
  // The catalytic reaction still appears in the dependents of the reaction
  // reading A (it produces A), but A -> B does not feed back into C -> C + A.
  const auto dep0 = sys.affected_reactions(0);
  EXPECT_TRUE(std::find(dep0.begin(), dep0.end(), 1u) != dep0.end());
  const auto dep1 = sys.affected_reactions(1);
  EXPECT_TRUE(std::find(dep1.begin(), dep1.end(), 0u) == dep1.end());
}

// ---------------------------------------------------------------------------
// Kernel classification and pointwise bitwise evaluation.

TEST(CompiledSystem, KernelClassification) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 1.0);        // 0: unimolecular
  b.reaction("2 A -> B", 1.0);      // 1: dimer
  b.reaction("A + B -> C", 1.0);    // 2: bimolecular
  b.reaction("0 -> A", 1.0);        // 3: source -> generic
  b.reaction("C + A -> C + B", 1.0);  // 4: two distinct reactants -> bimol
  const SpeciesId a = *net.find_species("A");
  const SpeciesId bb = *net.find_species("B");
  const SpeciesId cc = *net.find_species("C");
  net.add({{a, 1}, {bb, 2}}, {{cc, 1}}, core::RateCategory::kCustom,
          1.0);  // 5: order 3 -> generic
  const CompiledSystem sys{net};
  ASSERT_EQ(sys.reaction_count(), 6u);
  EXPECT_EQ(sys.kernel(0), ReactionKernel::kUnimolecular);
  EXPECT_EQ(sys.kernel(1), ReactionKernel::kDimer);
  EXPECT_EQ(sys.kernel(2), ReactionKernel::kBimolecular);
  EXPECT_EQ(sys.kernel(3), ReactionKernel::kGeneric);
  EXPECT_EQ(sys.kernel(4), ReactionKernel::kBimolecular);
  EXPECT_EQ(sys.kernel(5), ReactionKernel::kGeneric);
  EXPECT_EQ(sys.order(0), 1u);
  EXPECT_EQ(sys.order(1), 2u);
  EXPECT_EQ(sys.order(5), 3u);
}

// ---------------------------------------------------------------------------
// The next-reaction stale-propensity skip, against an always-recompute
// reference with the identical RNG draw order.

/// What a reference run saw of the blocked states the production loop
/// tracks incrementally; here they are recomputed from the counts.
struct BlockedStats {
  /// Dependent updates on a reaction that is blocked and already at 0.0
  /// (the ones the production loop skips).
  std::uint64_t skippable_updates = 0;
  /// Reactant counts falling below / rising back to stoichiometry s, by s.
  std::array<std::uint64_t, 4> fell_below{};
  std::array<std::uint64_t, 4> rose_to{};
  /// Per reaction: enabled -> blocked and blocked -> enabled transitions.
  std::vector<std::uint64_t> disabled;
  std::vector<std::uint64_t> reenabled;
  std::vector<std::uint64_t> firings;
};

bool blocked_at(const MassActionSystem& system, std::size_t j,
                std::span<const std::int64_t> counts) {
  for (const auto& [idx, stoich] : system.compiled_reaction(j).reactants) {
    if (counts[idx] < static_cast<std::int64_t>(stoich)) return true;
  }
  return false;
}

SsaResult reference_nrm_always_recompute(const MassActionSystem& system,
                                         const SsaOptions& options,
                                         std::vector<std::int64_t> counts,
                                         BlockedStats* stats = nullptr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(options.seed);
  const std::size_t m = system.reaction_count();
  SsaResult result;
  Trajectory trajectory(system.species_count());
  std::vector<double> scratch(system.species_count());
  double next_sample = 0.0;
  auto sample = [&](double t) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      scratch[i] = static_cast<double>(counts[i]) / options.omega;
    }
    trajectory.append(t, scratch);
  };
  auto before_event = [&](double t_event) {
    while (next_sample < t_event && next_sample <= options.t_end) {
      sample(next_sample);
      next_sample += options.record_interval;
    }
  };
  sample(0.0);
  next_sample = options.record_interval;

  if (stats != nullptr) {
    *stats = BlockedStats{};
    stats->disabled.assign(m, 0);
    stats->reenabled.assign(m, 0);
    stats->firings.assign(m, 0);
  }
  std::vector<double> propensities(m);
  std::vector<double> firing_times(m);
  for (std::size_t j = 0; j < m; ++j) {
    propensities[j] = system.propensity(j, counts, options.omega);
    firing_times[j] =
        propensities[j] > 0.0 ? rng.exponential(propensities[j]) : kInf;
  }

  double t = 0.0;
  while (result.events < options.max_events) {
    std::size_t fired = 0;
    double t_next = firing_times[0];
    for (std::size_t j = 1; j < m; ++j) {
      if (firing_times[j] < t_next) {
        t_next = firing_times[j];
        fired = j;
      }
    }
    if (t_next == kInf) {
      result.exhausted = true;
      break;
    }
    if (t_next > options.t_end) {
      t = options.t_end;
      break;
    }
    before_event(t_next);
    const std::vector<std::int64_t> before = counts;
    system.apply(fired, counts);
    t = t_next;
    ++result.events;
    if (stats != nullptr) {
      ++stats->firings[fired];
      for (std::size_t j = 0; j < m; ++j) {
        for (const auto& [idx, stoich] : system.compiled_reaction(j).reactants) {
          const std::int64_t need = stoich;
          if (stoich >= stats->fell_below.size()) continue;
          if (before[idx] >= need && counts[idx] < need) {
            ++stats->fell_below[stoich];
          } else if (before[idx] < need && counts[idx] >= need) {
            ++stats->rose_to[stoich];
          }
        }
        const bool was = blocked_at(system, j, before);
        const bool now = blocked_at(system, j, counts);
        if (!was && now) ++stats->disabled[j];
        if (was && !now) ++stats->reenabled[j];
      }
    }
    for (const std::uint32_t dep : system.affected_reactions(fired)) {
      if (stats != nullptr && propensities[dep] == 0.0 &&
          blocked_at(system, dep, counts)) {
        ++stats->skippable_updates;
      }
      // The production loop skips this recompute for pure catalysis; the
      // reference never does. RNG consumption is identical either way.
      const double a_new = system.propensity(dep, counts, options.omega);
      double new_time;
      if (dep == fired) {
        new_time = a_new > 0.0 ? t + rng.exponential(a_new) : kInf;
      } else {
        const double a_old = propensities[dep];
        const double old_time = firing_times[dep];
        if (a_new <= 0.0) {
          new_time = kInf;
        } else if (a_old <= 0.0 || old_time == kInf) {
          new_time = t + rng.exponential(a_new);
        } else {
          new_time = t + (a_old / a_new) * (old_time - t);
        }
      }
      propensities[dep] = a_new;
      firing_times[dep] = new_time;
    }
  }
  result.hit_event_limit =
      result.events >= options.max_events && t < options.t_end;
  result.end_time = std::min(t, options.t_end);
  before_event(result.end_time);
  sample(result.end_time);
  result.trajectory = std::move(trajectory);
  result.final_counts = std::move(counts);
  return result;
}

TEST(NextReactionStaleSkip, MatchesAlwaysRecomputeReference) {
  // Catalysis-heavy fixture: the first two reactions leave their own
  // reactant counts untouched, so the skip path fires on most events.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("C -> C + A", 4.0);
  b.reaction("D -> D + B", 3.0);
  b.reaction("A + B -> C", 1.0);
  b.reaction("A -> B", 0.5);
  b.reaction("2 B -> D", 0.8);
  net.set_initial(*net.find_species("C"), 1.0);
  net.set_initial(*net.find_species("D"), 1.0);
  net.set_initial(*net.find_species("A"), 0.5);

  SsaOptions options;
  options.method = SsaMethod::kNextReaction;
  options.t_end = 2.0;
  options.omega = 400.0;
  options.record_interval = 0.1;
  options.max_events = 200'000;

  const MassActionSystem reference_system(net);
  // The fixture must actually exercise the skip: the catalytic reactions
  // carry affects_own_reactants == false.
  ASSERT_FALSE(reference_system.affects_own_reactants(0));
  ASSERT_FALSE(reference_system.affects_own_reactants(1));
  ASSERT_TRUE(reference_system.affects_own_reactants(2));

  for (const std::uint64_t seed : {1ull, 9ull, 42ull}) {
    options.seed = seed;
    const SsaResult reference = reference_nrm_always_recompute(
        reference_system, options,
        to_counts(net.initial_state(), options.omega));
    ASSERT_GT(reference.events, 100u) << "fixture too quiet to regress";
    expect_ssa_results_bitwise(reference, simulate_ssa(net, options),
                               "seed " + std::to_string(seed));
  }
}

TEST(NextReactionStaleSkip, BlockedSkipMatchesReferenceAcrossThresholds) {
  // Gated fixture at molecule-scale counts (omega = 1): thresholds of
  // stoichiometry 1, 2 and 3 are crossed in both directions, so reactions
  // keep switching between enabled and blocked.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("3 A + B -> C", 0.4);     // 0: generic, thresholds 3 and 1
  b.reaction("C -> 3 A + B", 0.5);     // 1
  b.reaction("2 C -> D", 2.0);         // 2: dimer, threshold 2
  b.reaction("D -> 2 C", 0.3);         // 3
  b.reaction("A -> E", 0.5);           // 4
  b.reaction("E -> A", 0.5);           // 5
  b.reaction("2 E -> 2 E + F", 0.7);   // 6: catalysis gated at 2
  b.reaction("F -> 0", 1.0);           // 7
  net.set_initial(*net.find_species("A"), 9.0);
  net.set_initial(*net.find_species("B"), 3.0);
  net.set_initial(*net.find_species("E"), 3.0);

  SsaOptions options;
  options.method = SsaMethod::kNextReaction;
  options.t_end = 200.0;
  options.omega = 1.0;
  options.record_interval = 0.5;
  options.max_events = 200'000;

  const MassActionSystem reference_system(net);
  const CompiledSystem compiled(net);
  ASSERT_EQ(compiled.kernel(0), ReactionKernel::kGeneric);
  ASSERT_EQ(compiled.kernel(2), ReactionKernel::kDimer);
  ASSERT_FALSE(compiled.affects_own_reactants(6));

  for (const std::uint64_t seed : {1ull, 9ull, 42ull, 77ull}) {
    const std::string context = "seed " + std::to_string(seed);
    options.seed = seed;
    BlockedStats stats;
    const SsaResult reference = reference_nrm_always_recompute(
        reference_system, options,
        to_counts(net.initial_state(), options.omega), &stats);
    ASSERT_GT(reference.events, 500u) << context;

    // The fixture must exercise what it is for: skippable updates, every
    // threshold crossed both ways, and the generic and dimer reactions
    // going enabled -> blocked -> enabled while firing.
    EXPECT_GT(stats.skippable_updates, 0u) << context;
    for (const std::uint32_t s : {1u, 2u, 3u}) {
      EXPECT_GT(stats.fell_below[s], 0u) << context << " stoich " << s;
      EXPECT_GT(stats.rose_to[s], 0u) << context << " stoich " << s;
    }
    for (const std::size_t j : {0u, 2u, 6u}) {
      EXPECT_GT(stats.disabled[j], 0u) << context << " reaction " << j;
      EXPECT_GT(stats.reenabled[j], 0u) << context << " reaction " << j;
      EXPECT_GT(stats.firings[j], 0u) << context << " reaction " << j;
    }

    expect_ssa_results_bitwise(reference, simulate_ssa(net, options),
                               context);
  }
}

TEST(CompiledSystem, ReaderTableTransposesReactants) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("3 A + B -> C", 1.0);
  b.reaction("2 C -> D", 1.0);
  b.reaction("A -> E", 1.0);
  b.reaction("0 -> A", 1.0);
  const MassActionSystem reference(net);
  const CompiledSystem sys(net);
  for (std::size_t i = 0; i < sys.species_count(); ++i) {
    const auto readers = sys.dependents_of_species(i);
    const auto stoich = sys.reader_stoich(i);
    ASSERT_EQ(readers.size(), stoich.size());
    const std::vector<std::uint32_t> expected =
        reference.dependents_of_species(i);
    EXPECT_EQ(std::vector<std::uint32_t>(readers.begin(), readers.end()),
              expected);
    std::uint32_t max_stoich = 0;
    for (std::size_t k = 0; k < readers.size(); ++k) {
      std::uint32_t want = 0;
      for (const auto& [idx, st] :
           reference.compiled_reaction(readers[k]).reactants) {
        if (idx == i) want = st;
      }
      EXPECT_EQ(stoich[k], want) << "species " << i << " reader " << k;
      max_stoich = std::max(max_stoich, want);
    }
    EXPECT_EQ(sys.max_reactant_stoich(i), max_stoich) << "species " << i;
  }
  EXPECT_EQ(sys.max_reactant_stoich(net.find_species("A")->index()), 3u);
}

// ---------------------------------------------------------------------------
// Arena allocator.

TEST(Arena, SpansAreValueInitializedAndAligned) {
  Arena arena;
  const std::span<double> d = arena.alloc<double>(17);
  ASSERT_EQ(d.size(), 17u);
  for (const double v : d) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
  const std::span<std::uint8_t> bytes = arena.alloc<std::uint8_t>(3);
  const std::span<double> d2 = arena.alloc<double>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d2.data()) % alignof(double),
            0u);
  EXPECT_EQ(bytes.size(), 3u);
}

TEST(Arena, EarlierSpansSurviveBlockGrowth) {
  Arena arena(256);
  const std::span<double> first = arena.alloc<double>(8);
  first[0] = 1.5;
  first[7] = -2.5;
  // Force several new blocks; earlier spans must stay intact (blocks are
  // never reallocated).
  for (int i = 0; i < 20; ++i) (void)arena.alloc<double>(100);
  EXPECT_EQ(first[0], 1.5);
  EXPECT_EQ(first[7], -2.5);
  EXPECT_GE(arena.bytes_allocated(), 8 * sizeof(double) +
                                         20 * 100 * sizeof(double));
}

TEST(Arena, ZeroCountAllocIsEmpty) {
  Arena arena;
  EXPECT_TRUE(arena.alloc<double>(0).empty());
  EXPECT_EQ(arena.bytes_allocated(), 0u);
}

}  // namespace
}  // namespace mrsc::sim
