// Differential harness for the compiled simulation engine.
//
// The compiled engine (src/sim/engine/) claims *bitwise* identity with the
// legacy MassActionSystem paths — same trajectories, same event counts, the
// same bits. This file is the proof obligation behind that claim:
//
//   * every built-in design, every SSA method, every sample: legacy ==
//     compiled exactly (times, values, events, final counts);
//   * fixed-step RK4 on every built-in design: exact;
//   * shared-CompiledSystem ensembles at 1 and 8 workers: bitwise equal to a
//     legacy serial ensemble, replicate by replicate;
//   * a 25-seed x 4-kind sweep through the engine_equivalence fuzz oracle
//     (the same oracle mrsc_verify runs on every generated case);
//   * dependency-graph properties: the compiled CSR graph equals the legacy
//     graph, contains an edge j->k exactly when j changes a reactant of k
//     (or j == k), and has no spurious edges between independent reactions;
//   * kernel classification and propensity/flux/rhs/jacobian bitwise checks
//     on handcrafted and fuzz-generated networks;
//   * the next-reaction stale-propensity skip, regressed against an in-test
//     reference NRM that always recomputes (identical RNG draw order).
#include <gtest/gtest.h>

#include <algorithm>
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
#include "sim/engine/engine.hpp"
#include "sim/mass_action.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "verify/engine_equivalence.hpp"
#include "verify/generator.hpp"

namespace mrsc::sim {
namespace {

using core::NetworkBuilder;
using core::ReactionNetwork;
using core::SpeciesId;

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
// Bitwise identity on every built-in design.

TEST(EngineEquivalence, BuiltinDesignsBitwiseSsa) {
  const std::vector<std::pair<SsaMethod, const char*>> methods = {
      {SsaMethod::kDirect, "direct"},
      {SsaMethod::kNextReaction, "nrm"},
      {SsaMethod::kTauLeaping, "tau"}};
  for (const std::string& name : kBuiltinDesigns) {
    const ReactionNetwork network = builtin_network(name);
    for (const auto& [method, method_name] : methods) {
      SsaOptions options;
      options.t_end = 0.5;
      options.omega = 150.0;
      options.seed = 7;
      options.tau = 0.01;
      options.record_interval = 0.05;
      options.max_events = 40'000;  // capped runs still compare exactly
      options.method = method;

      options.engine.kind = EngineKind::kLegacy;
      const SsaResult legacy = simulate_ssa(network, options);
      options.engine.kind = EngineKind::kCompiled;
      const SsaResult compiled = simulate_ssa(network, options);
      expect_ssa_results_bitwise(legacy, compiled,
                                 name + "/" + method_name);
    }
  }
}

TEST(EngineEquivalence, BuiltinDesignsBitwiseRk4) {
  for (const std::string& name : kBuiltinDesigns) {
    const ReactionNetwork network = builtin_network(name);
    OdeOptions options;
    options.method = OdeMethod::kRk4Fixed;
    options.t_end = 0.5;
    options.dt = 1e-3;
    options.record_interval = 0.05;

    options.engine.kind = EngineKind::kLegacy;
    const OdeResult legacy = simulate_ode(network, options);
    options.engine.kind = EngineKind::kCompiled;
    const OdeResult compiled = simulate_ode(network, options);

    EXPECT_EQ(legacy.steps_accepted, compiled.steps_accepted) << name;
    EXPECT_EQ(legacy.end_time, compiled.end_time) << name;
    expect_trajectories_bitwise(legacy.trajectory, compiled.trajectory,
                                name + "/rk4");
  }
}

// ---------------------------------------------------------------------------
// Shared CompiledSystem across an ensemble: bitwise independent of both the
// engine and the worker count.

TEST(EngineEquivalence, EnsembleSharedCompiledSystemBitwise) {
  const ReactionNetwork network = builtin_network("counter");
  SsaOptions ssa;
  ssa.t_end = 0.3;
  ssa.omega = 100.0;
  ssa.method = SsaMethod::kNextReaction;
  ssa.record_interval = 0.05;
  ssa.max_events = 40'000;

  auto run = [&](EngineKind kind, std::size_t threads) {
    SsaOptions options = ssa;
    options.engine.kind = kind;
    runtime::EnsembleOptions ensemble;
    ensemble.replicates = 8;
    ensemble.base_seed = 11;
    ensemble.batch.threads = threads;
    return runtime::run_ssa_ensemble(network, options, ensemble);
  };

  const runtime::EnsembleResult legacy = run(EngineKind::kLegacy, 1);
  const runtime::EnsembleResult serial = run(EngineKind::kCompiled, 1);
  const runtime::EnsembleResult parallel = run(EngineKind::kCompiled, 8);

  ASSERT_EQ(legacy.ok, legacy.replicates.size());
  for (const runtime::EnsembleResult* other : {&serial, &parallel}) {
    ASSERT_EQ(other->replicates.size(), legacy.replicates.size());
    for (std::size_t i = 0; i < legacy.replicates.size(); ++i) {
      const runtime::JobResult& ref = legacy.replicates[i];
      const runtime::JobResult& got = other->replicates[i];
      EXPECT_EQ(got.status, ref.status) << "replicate " << i;
      EXPECT_EQ(got.seed, ref.seed) << "replicate " << i;
      EXPECT_EQ(got.ssa_events, ref.ssa_events) << "replicate " << i;
      EXPECT_EQ(got.end_time, ref.end_time) << "replicate " << i;
      ASSERT_EQ(got.final_state.size(), ref.final_state.size());
      for (std::size_t s = 0; s < ref.final_state.size(); ++s) {
        EXPECT_EQ(got.final_state[s], ref.final_state[s])
            << "replicate " << i << " species " << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The fuzz oracle, swept the way mrsc_verify sweeps it.

TEST(EngineEquivalence, FuzzSweepAllKinds) {
  const std::vector<verify::CaseKind> kinds = {
      verify::CaseKind::kRawNetwork, verify::CaseKind::kSyncCircuit,
      verify::CaseKind::kFsm, verify::CaseKind::kCounter};
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    for (const verify::CaseKind kind : kinds) {
      const verify::GeneratedCase c = verify::generate_case(kind, seed);
      verify::EngineEquivalenceOptions eq;
      eq.t_end = 1.0;
      eq.omega = 150.0;
      eq.max_events = 60'000;
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
  const MassActionSystem legacy(network);
  const CompiledSystem compiled(legacy);
  ASSERT_EQ(compiled.reaction_count(), legacy.reaction_count()) << context;
  for (std::size_t j = 0; j < compiled.reaction_count(); ++j) {
    // CSR graph == legacy graph, element for element.
    const auto span = compiled.affected_reactions(j);
    const std::vector<std::uint32_t>& ref = legacy.affected_reactions(j);
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
    // The legacy and compiled pure-catalysis flags agree too.
    EXPECT_EQ(compiled.affects_own_reactants(j),
              legacy.affects_own_reactants(j))
        << context << " reaction " << j;
  }
}

TEST(DependencyGraph, MatchesLegacyAndNaivePredicateOnBuiltins) {
  for (const std::string& name : kBuiltinDesigns) {
    expect_dependency_graph_sound(builtin_network(name), name);
  }
}

TEST(DependencyGraph, MatchesLegacyAndNaivePredicateOnFuzzedNetworks) {
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

void expect_pointwise_bitwise(const ReactionNetwork& network,
                              std::uint64_t seed,
                              const std::string& context) {
  const MassActionSystem legacy(network);
  const CompiledSystem compiled(legacy);
  const std::size_t ns = legacy.species_count();
  const std::size_t m = legacy.reaction_count();
  util::Rng rng(seed);

  for (int trial = 0; trial < 5; ++trial) {
    // Random concentrations, including exact zeros (the early-out paths).
    std::vector<double> x(ns);
    for (double& v : x) {
      v = rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.0, 3.0);
    }
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(compiled.flux(j, x), legacy.flux(j, x))
          << context << " flux reaction " << j;
    }
    std::vector<double> dxdt_legacy(ns), dxdt_compiled(ns);
    legacy.rhs(x, dxdt_legacy);
    compiled.rhs(x, dxdt_compiled);
    for (std::size_t i = 0; i < ns; ++i) {
      EXPECT_EQ(dxdt_compiled[i], dxdt_legacy[i])
          << context << " rhs species " << i;
    }
    util::Matrix jac_legacy, jac_compiled;
    legacy.jacobian(x, jac_legacy);
    compiled.jacobian(x, jac_compiled);
    ASSERT_EQ(jac_compiled.rows(), jac_legacy.rows());
    ASSERT_EQ(jac_compiled.cols(), jac_legacy.cols());
    for (std::size_t r = 0; r < jac_legacy.rows(); ++r) {
      for (std::size_t c = 0; c < jac_legacy.cols(); ++c) {
        EXPECT_EQ(jac_compiled(r, c), jac_legacy(r, c))
            << context << " jacobian (" << r << ", " << c << ")";
      }
    }

    // Random counts, including 0 and 1 (the dimer/bimolecular early-outs).
    std::vector<std::int64_t> n(ns);
    for (std::int64_t& v : n) {
      v = static_cast<std::int64_t>(rng.uniform_below(50));
      if (rng.uniform() < 0.3) v = static_cast<std::int64_t>(
          rng.uniform_below(2));
    }
    for (const double omega : {1.0, 200.0, 1e4}) {
      std::vector<double> scaled(m);
      compiled.scaled_rates(omega, scaled);
      for (std::size_t j = 0; j < m; ++j) {
        const double ref = legacy.propensity(j, n, omega);
        EXPECT_EQ(compiled.propensity(j, n, omega), ref)
            << context << " propensity reaction " << j << " omega " << omega;
        EXPECT_EQ(compiled.propensity_scaled(j, n, scaled[j]), ref)
            << context << " propensity_scaled reaction " << j << " omega "
            << omega;
      }
    }

    // apply() must produce the same counts through either table.
    for (std::size_t j = 0; j < m; ++j) {
      std::vector<std::int64_t> na = n, nb = n;
      legacy.apply(j, na);
      compiled.apply(j, nb);
      EXPECT_EQ(na, nb) << context << " apply reaction " << j;
    }
  }
}

TEST(CompiledSystem, PointwiseBitwiseOnHandcraftedShapes) {
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
  expect_pointwise_bitwise(net, 3, "handcrafted");
}

TEST(CompiledSystem, PointwiseBitwiseOnFuzzedNetworks) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const verify::GeneratedCase c =
        verify::generate_case(verify::CaseKind::kRawNetwork, seed);
    expect_pointwise_bitwise(c.network(), seed,
                             "raw seed " + std::to_string(seed));
  }
}

TEST(CompiledSystem, BothConstructorsAgree) {
  const ReactionNetwork network = builtin_network("moving_average");
  const MassActionSystem legacy(network);
  const CompiledSystem from_network{network};
  const CompiledSystem from_system{legacy};
  ASSERT_EQ(from_network.reaction_count(), from_system.reaction_count());
  for (std::size_t j = 0; j < from_network.reaction_count(); ++j) {
    EXPECT_EQ(from_network.rate(j), from_system.rate(j));
    EXPECT_EQ(from_network.order(j), from_system.order(j));
    EXPECT_EQ(from_network.kernel(j), from_system.kernel(j));
  }
}

// ---------------------------------------------------------------------------
// The next-reaction stale-propensity skip, against an always-recompute
// reference with the identical RNG draw order.

SsaResult reference_nrm_always_recompute(const MassActionSystem& system,
                                         const SsaOptions& options,
                                         std::vector<std::int64_t> counts) {
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
    system.apply(fired, counts);
    t = t_next;
    ++result.events;
    for (const std::uint32_t dep : system.affected_reactions(fired)) {
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

  const MassActionSystem legacy(net);
  // The fixture must actually exercise the skip: the catalytic reactions
  // carry affects_own_reactants == false.
  ASSERT_FALSE(legacy.affects_own_reactants(0));
  ASSERT_FALSE(legacy.affects_own_reactants(1));
  ASSERT_TRUE(legacy.affects_own_reactants(2));

  for (const std::uint64_t seed : {1ull, 9ull, 42ull}) {
    options.seed = seed;
    const SsaResult reference = reference_nrm_always_recompute(
        legacy, options, to_counts(net.initial_state(), options.omega));
    ASSERT_GT(reference.events, 100u) << "fixture too quiet to regress";

    options.engine.kind = EngineKind::kLegacy;
    const SsaResult legacy_run = simulate_ssa(net, options);
    options.engine.kind = EngineKind::kCompiled;
    const SsaResult compiled_run = simulate_ssa(net, options);

    expect_ssa_results_bitwise(reference, legacy_run,
                               "seed " + std::to_string(seed) + " legacy");
    expect_ssa_results_bitwise(reference, compiled_run,
                               "seed " + std::to_string(seed) + " compiled");
  }
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
