#include "sim/ode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <variant>
#include <vector>

#include "analysis/harness.hpp"
#include "core/builder.hpp"
#include "scenario/registry.hpp"
#include "sim/engine/compiled_system.hpp"
#include "util/matrix.hpp"

namespace mrsc::sim {
namespace {

using core::NetworkBuilder;
using core::RateCategory;
using core::ReactionNetwork;
using core::SpeciesId;

ReactionNetwork decay_network(double k) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", k);
  return net;
}

// All three integrators should reproduce A(t) = e^{-k t}.
class IntegratorTest : public ::testing::TestWithParam<OdeMethod> {};

TEST_P(IntegratorTest, ExponentialDecayMatchesAnalytic) {
  const double k = 0.7;
  const ReactionNetwork net = decay_network(k);
  OdeOptions options;
  options.method = GetParam();
  options.t_end = 4.0;
  options.dt = 1e-3;
  options.record_interval = 0.5;
  const OdeResult result = simulate_ode(net, options);
  const SpeciesId a = *net.find_species("A");
  for (std::size_t s = 0; s < result.trajectory.sample_count(); ++s) {
    const double t = result.trajectory.time(s);
    EXPECT_NEAR(result.trajectory.value(s, a), std::exp(-k * t), 2e-3)
        << "t=" << t;
  }
}

TEST_P(IntegratorTest, MassConservation) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.method = GetParam();
  options.t_end = 3.0;
  options.dt = 1e-3;
  const OdeResult result = simulate_ode(net, options);
  const SpeciesId a = *net.find_species("A");
  const SpeciesId b = *net.find_species("B");
  for (std::size_t s = 0; s < result.trajectory.sample_count(); ++s) {
    EXPECT_NEAR(result.trajectory.value(s, a) + result.trajectory.value(s, b),
                1.0, 1e-4);
  }
}

TEST_P(IntegratorTest, ReversibleReactionReachesEquilibrium) {
  // A <-> B with k+ = 2, k- = 1 : equilibrium B/A = 2.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", 2.0);
  b.reaction("B -> A", 1.0);
  OdeOptions options;
  options.method = GetParam();
  options.t_end = 20.0;
  options.dt = 1e-3;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("A")), 1.0 / 3.0,
              1e-3);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("B")), 2.0 / 3.0,
              1e-3);
}

INSTANTIATE_TEST_SUITE_P(Methods, IntegratorTest,
                         ::testing::Values(OdeMethod::kRk4Fixed,
                                           OdeMethod::kDormandPrince45,
                                           OdeMethod::kBackwardEuler));

TEST(OdeSimulation, ZeroOrderSourceGrowsLinearly) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("0 -> A", 0.5);
  OdeOptions options;
  options.t_end = 4.0;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("A")), 2.0,
              1e-6);
}

TEST(OdeSimulation, BimolecularAnnihilationLeavesExcess) {
  // A + B -> 0 with A0=2, B0=1: final A = 1, B = 0.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 2.0);
  b.species("B", 1.0);
  b.reaction("A + B -> 0", 50.0);
  OdeOptions options;
  options.t_end = 10.0;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("A")), 1.0,
              1e-2);
  EXPECT_NEAR(result.trajectory.final_value(*net.find_species("B")), 0.0,
              1e-2);
}

TEST(OdeSimulation, StiffFastSlowSeparation) {
  // Fast equilibration feeding a slow drain; the adaptive and implicit
  // integrators must agree.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", RateCategory::kFast);
  b.reaction("B -> C", RateCategory::kSlow);
  net.set_rate_policy(core::RatePolicy{1.0, 10000.0});

  OdeOptions adaptive;
  adaptive.t_end = 2.0;
  const double c_adaptive =
      simulate_ode(net, adaptive)
          .trajectory.final_value(*net.find_species("C"));

  OdeOptions implicit;
  implicit.method = OdeMethod::kBackwardEuler;
  implicit.t_end = 2.0;
  implicit.dt = 1e-3;
  const double c_implicit =
      simulate_ode(net, implicit)
          .trajectory.final_value(*net.find_species("C"));

  const double expected = 1.0 - std::exp(-2.0);  // B -> C dominates
  EXPECT_NEAR(c_adaptive, expected, 5e-3);
  EXPECT_NEAR(c_implicit, expected, 5e-3);
}

TEST(OdeSimulation, RecordIntervalControlsSampleCount) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.t_end = 10.0;
  options.record_interval = 1.0;
  const OdeResult result = simulate_ode(net, options);
  // Roughly one sample per unit time plus endpoints.
  EXPECT_GE(result.trajectory.sample_count(), 10u);
  EXPECT_LE(result.trajectory.sample_count(), 14u);
}

TEST(OdeSimulation, RecordEveryStepWhenIntervalZero) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.t_end = 1.0;
  options.record_interval = 0.0;
  options.method = OdeMethod::kRk4Fixed;
  options.dt = 0.1;
  const OdeResult result = simulate_ode(net, options);
  // t=0 plus ~10 steps (floating-point accumulation may add one residual
  // step at the end).
  EXPECT_GE(result.trajectory.sample_count(), 11u);
  EXPECT_LE(result.trajectory.sample_count(), 12u);
}

TEST(OdeSimulation, ObserverInjectionChangesState) {
  const ReactionNetwork net = decay_network(1.0);
  const SpeciesId a = *net.find_species("A");
  ScheduledInjector injector({{1.0, a, 5.0}});
  Observer* observers[] = {&injector};
  OdeOptions options;
  options.t_end = 1.2;
  const OdeResult result = simulate_ode(
      net, options, net.initial_state(),
      std::span<Observer* const>(observers, 1));
  // At t=1 A ~ e^-1 ~ 0.37, injection adds 5.
  EXPECT_GT(result.trajectory.final_value(a), 4.0);
}

TEST(OdeSimulation, AdaptiveStepSeesInjectedState) {
  // dp45 reuses its last stage as the next step's first one. After an
  // observer changes the state it must evaluate f afresh, or the step after
  // the injection integrates with the old slope.
  class AddOnce : public Observer {
   public:
    explicit AddOnce(SpeciesId species) : index_(species.value()) {}
    void on_step(double t, std::span<double> state) override {
      if (t_added < 0.0 && t >= 1.0) {
        state[index_] += 1.0;
        t_added = t;
      }
    }
    double t_added = -1.0;

   private:
    std::size_t index_;
  };
  const ReactionNetwork net = decay_network(1.0);
  const SpeciesId a = *net.find_species("A");
  AddOnce add(a);
  Observer* observers[] = {&add};
  OdeOptions options;
  options.t_end = 3.0;
  const OdeResult result = simulate_ode(
      net, options, net.initial_state(),
      std::span<Observer* const>(observers, 1));
  ASSERT_GE(add.t_added, 1.0);
  const double expected =
      std::exp(-options.t_end) + std::exp(add.t_added - options.t_end);
  EXPECT_NEAR(result.trajectory.final_value(a), expected, 1e-6);
}

TEST(OdeSimulation, ObserverCanStopEarly) {
  const ReactionNetwork net = decay_network(1.0);
  SteadyStateDetector detector(1e-6, 0.5);
  Observer* observers[] = {&detector};
  OdeOptions options;
  options.t_end = 1000.0;
  const OdeResult result = simulate_ode(
      net, options, net.initial_state(),
      std::span<Observer* const>(observers, 1));
  EXPECT_TRUE(result.stopped_by_observer);
  EXPECT_LT(result.end_time, 100.0);
}

TEST(OdeSimulation, NegativeConcentrationsClamped) {
  // Aggressive fixed step on a fast decay would overshoot below zero.
  const ReactionNetwork net = decay_network(100.0);
  OdeOptions options;
  options.method = OdeMethod::kRk4Fixed;
  options.dt = 0.05;
  options.t_end = 2.0;
  const OdeResult result = simulate_ode(net, options);
  for (std::size_t s = 0; s < result.trajectory.sample_count(); ++s) {
    EXPECT_GE(result.trajectory.value(s, *net.find_species("A")), 0.0);
  }
}

TEST(OdeSimulation, InvalidOptionsThrow) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions bad_t;
  bad_t.t_end = 0.0;
  EXPECT_THROW((void)simulate_ode(net, bad_t), std::invalid_argument);
  OdeOptions bad_dt;
  bad_dt.dt = 0.0;
  EXPECT_THROW((void)simulate_ode(net, bad_dt), std::invalid_argument);
}

TEST(OdeSimulation, InitialStateSizeMismatchThrows) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  EXPECT_THROW((void)simulate_ode(net, options, std::vector<double>{1.0, 2.0,
                                                                    3.0}),
               std::invalid_argument);
}

TEST(OdeSimulation, AdaptiveReportsRejectedSteps) {
  // A stiff-ish system with a loose initial step forces rejections.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", 500.0);
  OdeOptions options;
  options.t_end = 1.0;
  options.dt = 0.5;  // far too big initially
  const OdeResult result = simulate_ode(net, options);
  EXPECT_GT(result.steps_accepted, 0u);
  EXPECT_GT(result.steps_rejected, 0u);
}

TEST(OdeSimulation, StepLimitReported) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.method = OdeMethod::kRk4Fixed;
  options.dt = 1e-4;
  options.t_end = 100.0;
  options.max_steps = 50;  // far too few
  const OdeResult result = simulate_ode(net, options);
  EXPECT_TRUE(result.hit_step_limit);
  EXPECT_LT(result.end_time, 1.0);
}

TEST(OdeSimulation, FinalStateRecordedAtTEnd) {
  const ReactionNetwork net = decay_network(1.0);
  OdeOptions options;
  options.t_end = 2.0;
  options.record_interval = 0.75;
  const OdeResult result = simulate_ode(net, options);
  EXPECT_DOUBLE_EQ(result.trajectory.final_time(), result.end_time);
  EXPECT_NEAR(result.end_time, 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Backward Euler against a reference solver.
//
// The stepper runs a chord pass on a cached factorisation before it falls
// back to full Newton, so its steps converge to different points inside
// newton_tol than a pure full-Newton solver would. The reference below is
// that pure solver: a fresh Jacobian and LU on every iteration,
// warm-started at x, with the same explicit Euler fallback. Differences
// must stay within a tolerance; they are never absorbed into regenerated
// goldens.

struct ReferenceRun {
  std::vector<double> state;
  std::size_t steps = 0;
  std::size_t fallbacks = 0;
};

ReferenceRun reference_backward_euler(const CompiledSystem& system,
                                      const OdeOptions& options,
                                      std::vector<double> x) {
  const std::size_t n = system.species_count();
  std::vector<double> z(n), f(n), residual(n);
  util::Matrix jac(n, n), newton_matrix(n, n);
  ReferenceRun run;
  double t = 0.0;
  while (t < options.t_end && run.steps < options.max_steps) {
    const double h = std::min(options.dt, options.t_end - t);
    z = x;
    bool converged = false;
    for (std::uint32_t iter = 0; iter < options.newton_max_iters; ++iter) {
      system.rhs(z, f);
      double residual_norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        residual[i] = z[i] - x[i] - h * f[i];
        residual_norm = std::max(residual_norm, std::abs(residual[i]));
      }
      if (residual_norm < options.newton_tol) {
        converged = true;
        break;
      }
      system.jacobian(z, jac);
      newton_matrix.set_identity();
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          newton_matrix(r, c) -= h * jac(r, c);
        }
      }
      const util::LuFactorization lu(newton_matrix);
      lu.solve_in_place(residual);
      for (std::size_t i = 0; i < n; ++i) {
        z[i] = std::max(z[i] - residual[i], 0.0);
      }
    }
    if (!converged) {
      ++run.fallbacks;
      system.rhs(x, f);
      for (std::size_t i = 0; i < n; ++i) z[i] = x[i] + h * f[i];
    }
    for (std::size_t i = 0; i < n; ++i) x[i] = std::max(z[i], 0.0);
    t += h;
    ++run.steps;
  }
  run.state = std::move(x);
  return run;
}

OdeOptions backward_euler_options(double dt, double t_end) {
  OdeOptions options;
  options.method = OdeMethod::kBackwardEuler;
  options.dt = dt;
  options.t_end = t_end;
  return options;
}

class BackwardEulerOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(BackwardEulerOracle, MatchesFullNewtonReference) {
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(GetParam());
  const ReactionNetwork& net = *resolved.design.network;
  const CompiledSystem system(net);
  const OdeOptions options = backward_euler_options(0.01, 20.0);

  const OdeResult result =
      simulate_ode(system, options, net.initial_state());
  const ReferenceRun reference =
      reference_backward_euler(system, options, net.initial_state());

  EXPECT_EQ(result.steps_accepted, reference.steps);
  EXPECT_LE(result.newton_fallbacks, reference.fallbacks);
  const std::span<const double> state = result.trajectory.final_state();
  ASSERT_EQ(state.size(), reference.state.size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_NEAR(state[i], reference.state[i], 1e-6)
        << net.species_name(SpeciesId{
               static_cast<SpeciesId::underlying_type>(i)});
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, BackwardEulerOracle,
                         ::testing::Values("counter(4)", "cascade(3)",
                                           "delay_chain(4)"));

analysis::CounterRunResult run_registry_counter(const std::string& spec,
                                                OdeMethod method,
                                                std::size_t increments) {
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(spec);
  const ReactionNetwork& net = *resolved.design.network;
  const auto& artifacts =
      std::get<scenario::CounterArtifacts>(resolved.artifacts);
  analysis::ClockedRunOptions options;
  options.ode.method = method;
  if (method == OdeMethod::kBackwardEuler) options.ode.dt = 0.01;
  options.ode.t_end = analysis::suggest_t_end(
      artifacts.spec.clock, net.rate_policy(), increments);
  return analysis::run_counter(net, artifacts.handles, increments, options);
}

TEST(BackwardEuler, DecodesTheSameCounterValuesAsDp45) {
  const auto be =
      run_registry_counter("counter(4)", OdeMethod::kBackwardEuler, 8);
  const auto dp45 =
      run_registry_counter("counter(4)", OdeMethod::kDormandPrince45, 8);
  ASSERT_EQ(be.values.size(), 8u);
  EXPECT_EQ(be.values, dp45.values);
}

TEST(BackwardEuler, CountsExplicitEulerFallbacks) {
  // At dt = 5 Newton fails on two of the 40 steps of the fixed counter
  // design, as the full-Newton reference does.
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve("counter");
  const ReactionNetwork& net = *resolved.design.network;
  const CompiledSystem system(net);
  const OdeOptions options = backward_euler_options(5.0, 200.0);

  const OdeResult result =
      simulate_ode(system, options, net.initial_state());
  const ReferenceRun reference =
      reference_backward_euler(system, options, net.initial_state());

  EXPECT_EQ(result.steps_accepted, 40u);
  EXPECT_EQ(result.newton_fallbacks, 2u);
  EXPECT_LE(result.newton_fallbacks, reference.fallbacks);
  EXPECT_GT(result.newton_iterations, result.steps_accepted);
  EXPECT_GT(result.jacobian_evaluations, 0u);
}

TEST(BackwardEuler, SingularNewtonMatrixFallsBackToExplicitEuler) {
  // X -> 2 X at k = 1 and h = 1: J = 1, so I - hJ = 0 has no LU. Each step
  // is a failed Newton pass and one explicit Euler step, X += h X.
  ReactionNetwork net;
  NetworkBuilder b(net);
  const SpeciesId x = b.species("X", 1.0);
  b.reaction("X -> 2 X", 1.0);
  const OdeResult result =
      simulate_ode(net, backward_euler_options(1.0, 3.0));

  EXPECT_EQ(result.steps_accepted, 3u);
  EXPECT_EQ(result.newton_fallbacks, 3u);
  EXPECT_EQ(result.jacobian_evaluations, 3u);
  ASSERT_EQ(result.trajectory.sample_count(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(result.trajectory.time(k), static_cast<double>(k));
    EXPECT_EQ(result.trajectory.value(k, x),
              std::ldexp(1.0, static_cast<int>(k)));
  }
}

TEST(BackwardEuler, ReusesItsFactorisationAcrossSteps) {
  const auto run =
      run_registry_counter("counter(6)", OdeMethod::kBackwardEuler, 4);
  ASSERT_EQ(run.values.size(), 4u);
  EXPECT_EQ(run.ode.newton_fallbacks, 0u);
  EXPECT_GT(run.ode.jacobian_evaluations, 0u);
  EXPECT_LE(run.ode.jacobian_evaluations, run.ode.steps_accepted / 8);
}

}  // namespace
}  // namespace mrsc::sim
