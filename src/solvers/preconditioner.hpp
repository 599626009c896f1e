#pragma once

/// \file preconditioner.hpp
/// Preconditioners for the distributed Krylov solvers. All of them act on
/// the rank-local block only (no communication in apply), which makes every
/// choice a one-level domain-decomposition method:
///   * Jacobi           — diagonal scaling;
///   * Ilu0             — ILU(0) of the local owned×owned block, i.e.
///                        block-Jacobi/additive-Schwarz with zero overlap,
///                        the Ifpack default the paper's solver stack uses.
/// The paper times preconditioner construction as its own phase (step iiia);
/// `build()` is that phase.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "la/dist_matrix.hpp"

namespace hetero::solvers {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// (Re)computes the preconditioner from the current matrix values.
  virtual void build(const la::DistCsrMatrix& matrix) = 0;

  /// z = M^{-1} r over owned entries; must not communicate.
  virtual void apply(const la::DistVector& r, la::DistVector& z) const = 0;

  virtual std::string name() const = 0;
};

/// z = r.
class IdentityPreconditioner final : public Preconditioner {
 public:
  void build(const la::DistCsrMatrix& matrix) override;
  void apply(const la::DistVector& r, la::DistVector& z) const override;
  std::string name() const override { return "identity"; }

 private:
  int rows_ = 0;
};

/// Diagonal scaling.
class JacobiPreconditioner final : public Preconditioner {
 public:
  void build(const la::DistCsrMatrix& matrix) override;
  void apply(const la::DistVector& r, la::DistVector& z) const override;
  std::string name() const override { return "jacobi"; }

 private:
  std::vector<double> inv_diag_;
};

/// SSOR (symmetric successive over-relaxation) of the local owned block:
/// M^{-1} = w(2-w) (D + wU)^{-1} D (D + wL)^{-1}. With w = 1 this is
/// symmetric Gauss-Seidel — cheaper to build than ILU(0) (no factorization)
/// at the price of more Krylov iterations; the ablation bench quantifies
/// the trade-off.
class SsorPreconditioner final : public Preconditioner {
 public:
  explicit SsorPreconditioner(double omega = 1.0);
  void build(const la::DistCsrMatrix& matrix) override;
  void apply(const la::DistVector& r, la::DistVector& z) const override;
  std::string name() const override { return "ssor"; }

 private:
  double omega_;
  int n_ = 0;
  // Local square block in CSR plus diagonal slots (like ILU0, unfactored).
  std::vector<std::int64_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<double> values_;
  std::vector<std::int64_t> diag_slot_;
  // Fast-mode rebuilds over the same frozen matrix pattern only copy each
  // row's owned prefix into values_ (see docs/kernels.md).
  const std::int64_t* src_pattern_ = nullptr;
};

/// ILU(0) of the local owned block.
class Ilu0Preconditioner final : public Preconditioner {
 public:
  void build(const la::DistCsrMatrix& matrix) override;
  void apply(const la::DistVector& r, la::DistVector& z) const override;
  std::string name() const override { return "ilu0"; }

  /// The factor in its CSR image of the owned block: L strictly below the
  /// diagonal (unit diagonal implicit), U on and above it.
  std::span<const double> factor_values() const { return values_; }

  /// Bytes retained between builds (capacity of every array): 12 B per
  /// owned nonzero (column, value), 24 B per row (row pointer, diagonal
  /// slot, IKJ scratch), and in fast mode the elimination schedule, 4 B per
  /// update plus 2 B per pivot.
  std::size_t bytes() const;

 private:
  // One recorded row update: values_[row_i + dst] -= l_ik * values_[diag_k
  // + 1 + src], offsets from row i's first slot and from past pivot row
  // k's diagonal.
  struct Update {
    std::uint16_t dst = 0;
    std::uint16_t src = 0;
  };

  void factorize();
  void factorize_ikj(Update* record);
  void record_schedule();

  // Factorization stored in one CSR image of the local square block:
  // strictly-lower entries hold L (unit diagonal implicit), diagonal and
  // upper hold U.
  int n_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<double> values_;
  std::vector<std::int64_t> diag_slot_;
  // Fast-mode rebuilds over the same frozen matrix pattern copy each row's
  // owned prefix into values_ and refactorize in place; where_ is the
  // persistent IKJ scratch.
  const std::int64_t* src_pattern_ = nullptr;
  std::vector<std::int64_t> where_;
  // Recorded IKJ schedule (fast mode): the elimination is a fixed sequence
  // of slot operations for a fixed pattern, so refactorizations replay it
  // with identical arithmetic. The pivots of row i are its slots before
  // the diagonal, in order; pivot p applies the next pivot_updates_[p]
  // entries of updates_. Offsets are 16-bit, so a block with a row of
  // 65536 or more entries records none and keeps the IKJ loop.
  bool schedulable_ = false;
  bool sched_built_ = false;
  std::vector<std::uint16_t> pivot_updates_;
  std::vector<Update> updates_;
};

/// Factory by name: "identity", "jacobi", "ssor", "ilu0".
std::unique_ptr<Preconditioner> make_preconditioner(const std::string& name);

}  // namespace hetero::solvers
