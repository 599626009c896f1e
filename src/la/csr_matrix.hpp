#pragma once

/// \file csr_matrix.hpp
/// Serial compressed-sparse-row matrix: the local block every rank holds.
/// Provides the kernels the solvers are built from (spmv, triangular solves
/// for ILU(0)) plus a COO-triplet builder with duplicate merging.
///
/// SpMV dispatches on la::kernel_mode(): the reference path is the original
/// scalar row loop; the fast path runs four rows in lockstep so the four
/// independent accumulator chains overlap in the pipeline. Each row's
/// products are still added in ascending-slot order, so both paths produce
/// bit-identical results.

#include <cstdint>
#include <span>
#include <vector>

namespace hetero::la {

/// (row, col, value) assembly triplet with *local* indices.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets; duplicates are summed. `rows`/`cols` give the
  /// matrix shape (cols may exceed rows: ghost columns).
  static CsrMatrix from_triplets(int rows, int cols,
                                 std::span<const Triplet> triplets);

  /// Adopts a prebuilt pattern with zero values. `row_ptr` has rows + 1
  /// entries; each row's columns must be strictly ascending and < `cols`.
  static CsrMatrix from_pattern(int rows, int cols,
                                std::vector<std::int64_t> row_ptr,
                                std::vector<int> col_idx);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::int64_t nonzeros() const {
    return static_cast<std::int64_t>(values_.size());
  }

  std::span<const std::int64_t> row_ptr() const { return row_ptr_; }
  std::span<const int> col_idx() const { return col_idx_; }
  std::span<const double> values() const { return values_; }
  std::span<double> values_mut() { return values_; }

  /// y = A x. `x` must have cols() entries, `y` rows() entries.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// y += A x.
  void multiply_add(std::span<const double> x, std::span<double> y) const;

  /// Value at (row, col) or 0 when not stored.
  double at(int row, int col) const;

  /// Pointer to the stored slot (row, col), or -1 when not present.
  std::int64_t slot(int row, int col) const;

  /// The main diagonal (missing entries read as 0).
  std::vector<double> diagonal() const;

  /// max |A(i,j) - A(j,i)| over the square part of the matrix (entries
  /// outside min(rows, cols) are ignored). 0 for symmetric matrices —
  /// a diagnostic the FEM tests use to certify assembled operators.
  double symmetry_error() const;

  /// Frobenius norm of the stored values.
  double frobenius_norm() const;

 private:
  void multiply_impl(std::span<const double> x, std::span<double> y,
                     bool accumulate) const;

  int rows_ = 0;
  int cols_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<double> values_;
};

}  // namespace hetero::la
