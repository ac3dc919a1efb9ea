#include "sim/ssa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/builder.hpp"

namespace mrsc::sim {
namespace {

using core::NetworkBuilder;
using core::ReactionNetwork;
using core::SpeciesId;

ReactionNetwork decay_network(double k) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", k);
  return net;
}

TEST(ToCounts, RoundsAndClamps) {
  const std::vector<double> conc = {1.0, 0.24, -0.5};
  const auto counts = to_counts(conc, 10.0);
  EXPECT_EQ(counts, (std::vector<std::int64_t>{10, 2, 0}));
}

class SsaMethodTest : public ::testing::TestWithParam<SsaMethod> {};

TEST_P(SsaMethodTest, ReproducibleGivenSeed) {
  const ReactionNetwork net = decay_network(1.0);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 2.0;
  options.seed = 99;
  options.omega = 500.0;
  const SsaResult a = simulate_ssa(net, options);
  const SsaResult b = simulate_ssa(net, options);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_counts, b.final_counts);
}

TEST_P(SsaMethodTest, DecayMeanMatchesAnalytic) {
  const double k = 1.0;
  const ReactionNetwork net = decay_network(k);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 1.0;
  options.omega = 200.0;
  double total = 0.0;
  constexpr int kRuns = 60;
  for (int run = 0; run < kRuns; ++run) {
    options.seed = 1000 + static_cast<std::uint64_t>(run);
    const SsaResult result = simulate_ssa(net, options);
    total += static_cast<double>(result.final_counts[0]) / options.omega;
  }
  // Mean of A(1) is e^{-1} ~ 0.3679; stderr ~ sqrt(p(1-p)/N/runs) ~ 0.004.
  EXPECT_NEAR(total / kRuns, std::exp(-1.0), 0.02);
}

TEST_P(SsaMethodTest, ConservationOfTotalCount) {
  const ReactionNetwork net = decay_network(2.0);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 5.0;
  options.omega = 300.0;
  const SsaResult result = simulate_ssa(net, options);
  EXPECT_EQ(result.final_counts[0] + result.final_counts[1], 300);
}

TEST_P(SsaMethodTest, ExhaustionDetected) {
  const ReactionNetwork net = decay_network(10.0);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 1e6;
  options.omega = 50.0;
  const SsaResult result = simulate_ssa(net, options);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.final_counts[0], 0);
  EXPECT_EQ(result.events, 50u);
}

TEST_P(SsaMethodTest, EventLimitRespected) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("0 -> A", 100.0);  // endless source
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 1e9;
  options.max_events = 1000;
  const SsaResult result = simulate_ssa(net, options);
  EXPECT_TRUE(result.hit_event_limit);
  EXPECT_EQ(result.events, 1000u);
}

TEST_P(SsaMethodTest, TrajectoryInConcentrationUnits) {
  const ReactionNetwork net = decay_network(1.0);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 0.5;
  options.omega = 100.0;
  const SsaResult result = simulate_ssa(net, options);
  // First sample is the initial state: A = 1.0 concentration units.
  EXPECT_DOUBLE_EQ(result.trajectory.value(0, SpeciesId{0}), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Methods, SsaMethodTest,
                         ::testing::Values(SsaMethod::kDirect,
                                           SsaMethod::kNextReaction));

TEST(Ssa, DirectAndNextReactionAgreeInDistribution) {
  // Same model, same statistics: compare the mean of a bimolecular product.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.species("B", 1.0);
  b.reaction("A + B -> C", 3.0);
  SsaOptions options;
  options.t_end = 0.4;
  options.omega = 150.0;

  auto mean_c = [&](SsaMethod method) {
    options.method = method;
    double total = 0.0;
    constexpr int kRuns = 50;
    for (int run = 0; run < kRuns; ++run) {
      options.seed = 7000 + static_cast<std::uint64_t>(run);
      total += static_cast<double>(
          simulate_ssa(net, options).final_counts[2]);
    }
    return total / kRuns;
  };
  const double direct = mean_c(SsaMethod::kDirect);
  const double next_reaction = mean_c(SsaMethod::kNextReaction);
  EXPECT_NEAR(direct, next_reaction, 0.05 * direct + 3.0);
}

TEST(Ssa, HomodimerizationStopsAtOddLeftover) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 0.0);
  b.reaction("2 A -> B", 5.0);
  SsaOptions options;
  options.t_end = 1e5;
  options.omega = 1.0;
  const SsaResult result = simulate_ssa(
      net, options, std::vector<double>{7.0, 0.0});
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.final_counts[0], 1);  // odd molecule cannot pair
  EXPECT_EQ(result.final_counts[1], 3);
}

TEST(Ssa, ZeroOrderSourceMean) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("0 -> A", 2.0);  // concentration flux 2/unit time
  SsaOptions options;
  options.t_end = 3.0;
  options.omega = 100.0;
  double total = 0.0;
  constexpr int kRuns = 40;
  for (int run = 0; run < kRuns; ++run) {
    options.seed = 31 + static_cast<std::uint64_t>(run);
    total += static_cast<double>(simulate_ssa(net, options).final_counts[0]);
  }
  // Expected count: 2 * 3 * omega = 600; Poisson sd ~ 24.5, stderr ~ 4.
  EXPECT_NEAR(total / kRuns, 600.0, 15.0);
}

TEST(Ssa, InvalidOptionsThrow) {
  const ReactionNetwork net = decay_network(1.0);
  SsaOptions bad;
  bad.t_end = -1.0;
  EXPECT_THROW((void)simulate_ssa(net, bad), std::invalid_argument);
  SsaOptions bad_omega;
  bad_omega.omega = 0.0;
  EXPECT_THROW((void)simulate_ssa(net, bad_omega), std::invalid_argument);
}

TEST(Ssa, CountSizeMismatchThrows) {
  const ReactionNetwork net = decay_network(1.0);
  const MassActionSystem system(net);
  SsaOptions options;
  EXPECT_THROW(
      (void)simulate_ssa(system, options, std::vector<std::int64_t>{1}),
      std::invalid_argument);
}

TEST(Ssa, AbortPollLandsOnExactEventCounts) {
  // A reversible pair never exhausts, so only the hook can stop the run.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", 1.0);
  b.reaction("B -> A", 1.0);
  SsaOptions options;
  options.t_end = 1e9;
  options.omega = 100.0;
  options.seed = 5;
  // The k-th poll happens once (k-1) * stride events have fired, so a hook
  // that answers true on its k-th call stops the run exactly there. A
  // stride of 0 polls like a stride of 1.
  for (const SsaMethod method :
       {SsaMethod::kDirect, SsaMethod::kNextReaction}) {
    for (const EngineKind kind : {EngineKind::kLegacy, EngineKind::kCompiled}) {
      for (const std::uint64_t stride : {0ull, 1ull, 7ull, 1024ull}) {
        for (const std::uint64_t k : {1ull, 2ull, 5ull}) {
          std::uint64_t calls = 0;
          options.method = method;
          options.engine.kind = kind;
          options.abort_check_events = stride;
          options.abort = [&calls, k] { return ++calls == k; };
          const SsaResult result = simulate_ssa(net, options);
          EXPECT_TRUE(result.aborted);
          EXPECT_EQ(calls, k);
          EXPECT_EQ(result.events, (k - 1) * std::max<std::uint64_t>(stride, 1))
              << "stride " << stride << " k " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mrsc::sim
