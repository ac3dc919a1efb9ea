// Small dense-matrix linear algebra.
//
// The backward Euler integrator solves (I - h*J) dx = F in its Newton
// iterations, where J is the mass-action Jacobian; it factorizes I - h*J
// once and reuses the factorization for many solves across steps, about
// three solves per step against one factorization per 20 steps on
// counter(6). The matrices are stored dense (networks here have tens to a
// few hundred species), but I - h*J of a mass-action network is mostly
// zeros, and so are its LU factors: on counter(6) they hold about 300
// off-diagonal nonzeros of 2,070. `LuFactorization` therefore keeps dense
// partial pivoting and dense storage but does its arithmetic over the
// nonzeros only, in an order that gives the dense algorithm's bits (see
// docs/ENGINE.md, "Backward Euler linear algebra"). No external BLAS/LAPACK
// dependency is needed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mrsc::util {

/// Row-major dense matrix of `double`.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Contiguous row-major storage (size rows()*cols()).
  [[nodiscard]] std::span<double> data() { return data_; }
  [[nodiscard]] std::span<const double> data() const { return data_; }

  /// Sets every entry to `value`.
  void fill(double value);

  /// Sets this matrix to the identity (must be square).
  void set_identity();

  /// Returns `this * v`. `v.size()` must equal `cols()`.
  [[nodiscard]] std::vector<double> multiply(std::span<const double> v) const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a square matrix.
///
/// Factorizes once, then solves any number of right-hand sides. Throws
/// `std::runtime_error` if the matrix is numerically singular.
///
/// Elimination and solves skip only terms whose matrix entry is an exact
/// zero. Each such term is a +-0 product, so the result equals the dense
/// algorithm's bit for bit, except that an exact-zero result may differ in
/// sign: the dense forward pass turned a -0 right-hand side into +0 when a
/// skipped product was -0. Once a value turns non-finite, the rest of that
/// pass runs densely, so 0 * inf still yields the dense algorithm's NaNs.
class LuFactorization {
 public:
  /// Factorizes `a` (copied; `a` itself is not modified).
  explicit LuFactorization(const Matrix& a);

  /// Solves `A x = b`; returns x. `b.size()` must equal the matrix dimension.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solves in place; allocates nothing.
  void solve_in_place(std::span<double> b) const;

  [[nodiscard]] std::size_t dimension() const { return n_; }

  /// Determinant of the factorized matrix (product of pivots, sign-adjusted).
  [[nodiscard]] double determinant() const;

 private:
  /// One off-diagonal nonzero of L or U.
  struct Entry {
    std::size_t index;  ///< row (in L's columns) or column (in U's rows)
    double value;
  };

  std::size_t n_ = 0;
  /// L below the diagonal (unit diagonal implied), U on and above it.
  Matrix lu_;
  /// Row swapped with row i at elimination step i (LAPACK's ipiv).
  std::vector<std::size_t> swaps_;
  int pivot_sign_ = 1;
  /// The nonzeros of `lu_` off the diagonal, recorded during elimination
  /// for the solves: row k of U is entries_[bounds_[2k], bounds_[2k+1]),
  /// ascending by column; column k of L is
  /// entries_[bounds_[2k+1], bounds_[2k+2]).
  std::vector<Entry> entries_;
  std::vector<std::size_t> bounds_;
};

}  // namespace mrsc::util
