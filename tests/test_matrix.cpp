#include "util/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/registry.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/ode.hpp"
#include "util/rng.hpp"

namespace mrsc::util {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, FillAndIdentity) {
  Matrix m(3, 3, 9.0);
  m.set_identity();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(m(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, IdentityRequiresSquare) {
  Matrix m(2, 3);
  EXPECT_THROW(m.set_identity(), std::invalid_argument);
}

TEST(Matrix, MultiplyVector) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6] * [1, 0, -1] = [-2, -2]
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  const std::vector<double> v = {1.0, 0.0, -1.0};
  const auto out = m.multiply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], -2.0);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  Matrix m(2, 3);
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_THROW((void)m.multiply(v), std::invalid_argument);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0;
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(LuFactorization, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const LuFactorization lu(a);
  const std::vector<double> b = {5.0, 10.0};
  const auto x = lu.solve(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuFactorization, Determinant) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  EXPECT_NEAR(LuFactorization(a).determinant(), 5.0, 1e-12);
}

TEST(LuFactorization, SingularMatrixThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(LuFactorization{a}, std::runtime_error);
}

TEST(LuFactorization, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(LuFactorization{a}, std::invalid_argument);
}

TEST(LuFactorization, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  const LuFactorization lu(a);
  const auto x = lu.solve(std::vector<double>{3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

// Property: for random well-conditioned systems, A * solve(A, b) == b.
class LuRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomTest, SolveThenMultiplyRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 8;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);  // diagonally dominant
  }
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-10.0, 10.0);

  const LuFactorization lu(a);
  const auto x = lu.solve(b);
  const auto back = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], b[i], 1e-9) << "row " << i << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuRandomTest, ::testing::Range(1, 13));

// LuFactorization as it was before it skipped exact zeros: dense elimination
// and dense triangular solves. It stays here as the reference the sparse
// arithmetic must match bit for bit.
class DenseLu {
 public:
  explicit DenseLu(const Matrix& a) : n_(a.rows()), lu_(a), swaps_(n_) {
    for (std::size_t col = 0; col < n_; ++col) {
      std::size_t best = col;
      double best_mag = std::abs(lu_(col, col));
      for (std::size_t r = col + 1; r < n_; ++r) {
        const double mag = std::abs(lu_(r, col));
        if (mag > best_mag) {
          best = r;
          best_mag = mag;
        }
      }
      if (best_mag == 0.0) throw std::runtime_error("DenseLu: singular");
      swaps_[col] = best;
      if (best != col) {
        for (std::size_t c = 0; c < n_; ++c) {
          std::swap(lu_(best, c), lu_(col, c));
        }
        pivot_sign_ = -pivot_sign_;
        ++row_swaps_;
      }
      const double inv_pivot = 1.0 / lu_(col, col);
      for (std::size_t r = col + 1; r < n_; ++r) {
        const double factor = lu_(r, col) * inv_pivot;
        lu_(r, col) = factor;
        if (factor == 0.0) continue;
        for (std::size_t c = col + 1; c < n_; ++c) {
          lu_(r, c) -= factor * lu_(col, c);
        }
      }
    }
  }

  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const {
    for (std::size_t i = 0; i < n_; ++i) std::swap(b[i], b[swaps_[i]]);
    for (std::size_t i = 0; i < n_; ++i) {
      double acc = b[i];
      for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * b[j];
      b[i] = acc;
    }
    for (std::size_t ii = n_; ii-- > 0;) {
      double acc = b[ii];
      for (std::size_t j = ii + 1; j < n_; ++j) acc -= lu_(ii, j) * b[j];
      b[ii] = acc / lu_(ii, ii);
    }
    return b;
  }

  [[nodiscard]] double determinant() const {
    double det = pivot_sign_;
    for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
    return det;
  }

  [[nodiscard]] std::size_t row_swaps() const { return row_swaps_; }

 private:
  std::size_t n_;
  Matrix lu_;
  std::vector<std::size_t> swaps_;
  int pivot_sign_ = 1;
  std::size_t row_swaps_ = 0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> bits(std::span<const double> v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(bits(x));
  return out;
}

/// Right-hand sides in [-10, 10], about a quarter of their entries +0.
std::vector<double> random_rhs(Rng& rng, std::size_t n) {
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform() < 0.25 ? 0.0 : rng.uniform(-10.0, 10.0);
  return b;
}

/// Factorizes `a` both ways and expects bit-identical determinants and
/// solves of three random right-hand sides. Returns the reference's row
/// swaps, or nullopt when the matrix is singular (both must throw).
std::optional<std::size_t> expect_matches_dense(const Matrix& a, Rng& rng,
                                                const std::string& context) {
  std::optional<DenseLu> dense;
  try {
    dense.emplace(a);
  } catch (const std::runtime_error&) {
    EXPECT_THROW(LuFactorization{a}, std::runtime_error) << context;
    return std::nullopt;
  }
  const LuFactorization lu(a);
  EXPECT_EQ(bits(lu.determinant()), bits(dense->determinant())) << context;
  for (int k = 0; k < 3; ++k) {
    const std::vector<double> b = random_rhs(rng, a.rows());
    EXPECT_EQ(bits(lu.solve(b)), bits(dense->solve(b)))
        << context << " rhs " << k;
  }
  return dense->row_swaps();
}

// Random sparse matrices, n up to 120 at 5-30 % density. Even seeds are
// diagonally dominant with their rows shuffled so that row 0's dominant
// entry is elsewhere: the first pivot must swap rows. Odd seeds have random
// diagonals and pivot wherever partial pivoting takes them.
class LuSparseBitwiseTest : public ::testing::TestWithParam<int> {};

TEST_P(LuSparseBitwiseTest, MatchesDenseReferenceBitForBit) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(1000 + seed));
  constexpr std::size_t kSizes[] = {3, 8, 17, 33, 46, 64, 90, 120};
  const std::size_t n = kSizes[static_cast<std::size_t>(seed) % 8];
  const double density = rng.uniform(0.05, 0.30);
  const bool dominant = seed % 2 == 0;

  Matrix sparse(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.uniform() < density) sparse(r, c) = rng.uniform(-1.0, 1.0);
    }
    sparse(r, r) = dominant ? 1.0 + density * static_cast<double>(n)
                                  + rng.uniform()
                            : rng.uniform(-1.0, 1.0);
  }
  Matrix a = sparse;
  if (dominant) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i-- > 1;) {
      std::swap(order[i], order[rng.uniform_below(i + 1)]);
    }
    if (order[0] == 0) std::swap(order[0], order[1]);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = sparse(order[r], c);
    }
  }
  const std::string context = "seed " + std::to_string(seed) + " n=" +
                              std::to_string(n) + " density " +
                              std::to_string(density);
  const auto swaps = expect_matches_dense(a, rng, context);
  if (dominant) {
    ASSERT_TRUE(swaps.has_value()) << context;
    EXPECT_GT(*swaps, 0u) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuSparseBitwiseTest, ::testing::Range(0, 32));

// The matrices backward Euler factorizes: I - hJ for every smoke-catalog
// design at h = 0.01, 0.1 and 1, with J taken at the recorded states of a
// short be run from the design's initial state.
TEST(LuFactorization, NewtonMatricesOfSmokeCatalogMatchDenseReference) {
  Rng rng(7);
  std::size_t factorized = 0;
  for (const std::string& spec :
       scenario::ScenarioRegistry::global().smoke_catalog()) {
    const scenario::ResolvedScenario resolved =
        scenario::ScenarioRegistry::global().resolve(spec);
    const sim::CompiledSystem system(*resolved.design.network);
    sim::OdeOptions options;
    options.method = sim::OdeMethod::kBackwardEuler;
    options.dt = 0.01;
    options.t_end = 10.0;
    options.record_interval = 2.5;
    const sim::OdeResult run = sim::simulate_ode(
        system, options, resolved.design.network->initial_state());
    const std::size_t n = system.species_count();
    Matrix jac(n, n), newton_matrix(n, n);
    for (std::size_t k = 0; k < run.trajectory.sample_count(); ++k) {
      system.jacobian(run.trajectory.state(k), jac);
      for (const double h : {0.01, 0.1, 1.0}) {
        newton_matrix.set_identity();
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t c = 0; c < n; ++c) {
            newton_matrix(r, c) -= h * jac(r, c);
          }
        }
        const std::string context = spec + " sample " + std::to_string(k) +
                                    " h=" + std::to_string(h);
        if (expect_matches_dense(newton_matrix, rng, context)) ++factorized;
      }
    }
  }
  EXPECT_GT(factorized, 100u);
}

// The one difference from the dense solve: the sign of an exact zero. With
// the identity, the dense forward pass computed row 1 as
// -0 - (+0 * -1) = -0 - (-0) = +0. The sparse pass skips the zero L entry,
// so solving with the identity returns b unchanged, -0 included.
TEST(LuFactorization, NegativeZeroAccumulatorKeepsItsSign) {
  Matrix a(2, 2);
  a.set_identity();
  const std::vector<double> b = {-1.0, -0.0};
  const std::vector<double> x = LuFactorization(a).solve(b);
  EXPECT_EQ(bits(x), bits(b));
  const std::vector<double> dense = DenseLu(a).solve(b);
  EXPECT_EQ(bits(dense[0]), bits(-1.0));
  EXPECT_EQ(bits(dense[1]), bits(+0.0));
}

// 0 * inf is NaN, so zero terms stop being skippable once a value is
// non-finite; the sparse arithmetic then gives the dense NaNs.
TEST(LuFactorization, NonFiniteValuesGiveTheDenseNaNs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Matrix identity(3, 3);
  identity.set_identity();
  const std::vector<double> b = {kInf, 1.0, 2.0};
  const std::vector<double> x = LuFactorization(identity).solve(b);
  EXPECT_EQ(bits(x), bits(DenseLu(identity).solve(b)));
  EXPECT_TRUE(std::isnan(x[1]));

  // An infinite pivot makes the next row's factor inf * 0 = NaN.
  Matrix a(2, 2);
  a(0, 0) = kInf;
  a(1, 0) = kInf;
  a(1, 1) = 1.0;
  const LuFactorization lu(a);
  const DenseLu dense(a);
  EXPECT_EQ(bits(lu.determinant()), bits(dense.determinant()));
  const std::vector<double> rhs = {1.0, 1.0};
  EXPECT_EQ(bits(lu.solve(rhs)), bits(dense.solve(rhs)));
}

}  // namespace
}  // namespace mrsc::util
