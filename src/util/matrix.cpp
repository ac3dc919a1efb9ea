#include "util/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mrsc::util {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(double value) { std::ranges::fill(data_, value); }

void Matrix::set_identity() {
  if (rows_ != cols_) {
    throw std::invalid_argument("Matrix::set_identity: matrix not square");
  }
  fill(0.0);
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) = 1.0;
}

std::vector<double> Matrix::multiply(std::span<const double> v) const {
  if (v.size() != cols_) {
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  }
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * v[c];
    out[r] = acc;
  }
  return out;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

LuFactorization::LuFactorization(const Matrix& a)
    : n_(a.rows()), lu_(a), swaps_(a.rows()) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("LuFactorization: matrix not square");
  }

  for (std::size_t col = 0; col < n_; ++col) {
    // Partial pivoting: pick the row with the largest magnitude in this
    // column at or below the diagonal.
    std::size_t best = col;
    double best_mag = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n_; ++r) {
      const double mag = std::abs(lu_(r, col));
      if (mag > best_mag) {
        best = r;
        best_mag = mag;
      }
    }
    if (best_mag == 0.0) {
      throw std::runtime_error("LuFactorization: singular matrix");
    }
    swaps_[col] = best;
    if (best != col) {
      for (std::size_t c = 0; c < n_; ++c) {
        std::swap(lu_(best, c), lu_(col, c));
      }
      pivot_sign_ = -pivot_sign_;
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

std::vector<double> LuFactorization::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void LuFactorization::solve_in_place(std::span<double> b) const {
  if (b.size() != n_) {
    throw std::invalid_argument("LuFactorization::solve: dimension mismatch");
  }
  // Replay the row swaps of the factorization, in order.
  for (std::size_t i = 0; i < n_; ++i) std::swap(b[i], b[swaps_[i]]);
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = lu_.data().data() + i * n_;
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * b[j];
    b[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n_; ii-- > 0;) {
    const double* row = lu_.data().data() + ii * n_;
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= row[j] * b[j];
    b[ii] = acc / row[ii];
  }
}

double LuFactorization::determinant() const {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

}  // namespace mrsc::util
