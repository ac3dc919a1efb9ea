// Small dense-matrix linear algebra.
//
// The backward Euler integrator solves (I - h*J) dx = F in its Newton
// iterations, where J is the mass-action Jacobian; it factorizes I - h*J
// once and reuses the factorization for many solves across steps. Networks
// in this library are modest (tens to a few hundred species), so a dense LU
// factorization with partial pivoting is the right tool; no external
// BLAS/LAPACK dependency is needed.
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
  std::size_t n_ = 0;
  Matrix lu_;
  /// Row swapped with row i at elimination step i (LAPACK's ipiv).
  std::vector<std::size_t> swaps_;
  int pivot_sign_ = 1;
};

}  // namespace mrsc::util
