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
    : n_(a.rows()), lu_(a), swaps_(a.rows()), bounds_(1, 0) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("LuFactorization: matrix not square");
  }
  bounds_.reserve(2 * n_ + 1);
  // A quarter of the matrix holds the factors of counter(6) and
  // delay_chain(16) without regrowth.
  entries_.reserve(n_ * n_ / 4);

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
    // The pivot row is final from here on: it is row col of U.
    const double* pivot_row = &lu_(col, 0);
    for (std::size_t c = col + 1; c < n_; ++c) {
      if (pivot_row[c] != 0.0) entries_.push_back({c, pivot_row[c]});
    }
    bounds_.push_back(entries_.size());
    const std::size_t u_begin = bounds_[2 * col];
    const std::size_t u_end = bounds_[2 * col + 1];

    const double inv_pivot = 1.0 / pivot_row[col];
    for (std::size_t r = col + 1; r < n_; ++r) {
      double* row = &lu_(r, 0);
      const double factor = row[col] * inv_pivot;
      row[col] = factor;
      if (factor == 0.0) continue;
      if (std::isfinite(factor)) {
        // A skipped column would subtract factor * (+-0) = +-0.
        for (std::size_t e = u_begin; e < u_end; ++e) {
          row[entries_[e].index] -= factor * entries_[e].value;
        }
      } else {
        // Here factor * 0 is NaN, so every column takes part.
        for (std::size_t c = col + 1; c < n_; ++c) {
          row[c] -= factor * pivot_row[c];
        }
      }
      entries_.push_back({r, factor});
    }
    bounds_.push_back(entries_.size());
  }

  // L's columns were recorded with the rows their entries sat in at the
  // time, and every later swap moved them. final_row maps a row at step k
  // to where the swaps of steps k+1, ..., n-1 take it.
  std::vector<std::size_t> final_row(n_);
  for (std::size_t r = 0; r < n_; ++r) final_row[r] = r;
  for (std::size_t k = n_; k-- > 0;) {
    for (std::size_t e = bounds_[2 * k + 1]; e < bounds_[2 * k + 2]; ++e) {
      entries_[e].index = final_row[entries_[e].index];
    }
    std::swap(final_row[k], final_row[swaps_[k]]);
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
  // Each b[i] takes its terms in the dense order, ascending in the column,
  // minus those with an exact-zero matrix entry. While every b[j] read is
  // finite, such a term is a +-0 product; after a non-finite one, 0 * b[j]
  // may be NaN, so the rest of the pass reads the dense rows.
  bool finite = true;
  // Forward substitution (L has unit diagonal), column by column: b[j] is
  // final when column j is reached.
  for (std::size_t j = 0; j < n_; ++j) {
    const double bj = b[j];
    finite = finite && std::isfinite(bj);
    if (finite) {
      for (std::size_t e = bounds_[2 * j + 1]; e < bounds_[2 * j + 2]; ++e) {
        b[entries_[e].index] -= entries_[e].value * bj;
      }
    } else {
      for (std::size_t i = j + 1; i < n_; ++i) b[i] -= lu_(i, j) * bj;
    }
  }
  // Back substitution, row by row.
  finite = true;
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = b[ii];
    if (finite) {
      for (std::size_t e = bounds_[2 * ii]; e < bounds_[2 * ii + 1]; ++e) {
        acc -= entries_[e].value * b[entries_[e].index];
      }
    } else {
      for (std::size_t j = ii + 1; j < n_; ++j) acc -= lu_(ii, j) * b[j];
    }
    b[ii] = acc / lu_(ii, ii);
    finite = finite && std::isfinite(b[ii]);
  }
}

double LuFactorization::determinant() const {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

}  // namespace mrsc::util
