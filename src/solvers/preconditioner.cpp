#include "solvers/preconditioner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/kernels.hpp"
#include "support/error.hpp"

namespace hetero::solvers {

namespace {

/// Longest owned row whose slot offsets fit the schedule's 16 bits.
constexpr std::int64_t kMaxScheduledRow =
    std::numeric_limits<std::uint16_t>::max();

template <class T>
std::size_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Copies the owned block of `a` (columns < rows) into a compact CSR image
/// whose arrays are sized exactly; `diag_slot[i]` is row i's diagonal slot
/// in the image, or -1 when the row stores none. Local ids number owned
/// dofs first and every row is column-sorted, so each row's owned block is
/// a prefix of the matrix row.
void extract_owned_block(const la::CsrMatrix& a,
                         std::vector<std::int64_t>& row_ptr,
                         std::vector<int>& col_idx,
                         std::vector<double>& values,
                         std::vector<std::int64_t>& diag_slot) {
  const int n = a.rows();
  const auto arp = a.row_ptr();
  const auto aci = a.col_idx();
  const auto av = a.values();
  row_ptr = std::vector<std::int64_t>(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    const int* const first = aci.data() + arp[i];
    const int* const last = aci.data() + arp[i + 1];
    row_ptr[i + 1] = row_ptr[i] + (std::lower_bound(first, last, n) - first);
  }
  const auto nnz = static_cast<std::size_t>(row_ptr.back());
  col_idx = std::vector<int>(nnz);
  values = std::vector<double>(nnz);
  diag_slot = std::vector<std::int64_t>(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    const auto src = static_cast<std::size_t>(arp[i]);
    const auto dst = static_cast<std::size_t>(row_ptr[i]);
    const auto len = static_cast<std::size_t>(row_ptr[i + 1]) - dst;
    std::copy_n(aci.data() + src, len, col_idx.data() + dst);
    std::copy_n(av.data() + src, len, values.data() + dst);
    for (std::size_t k = dst; k < dst + len; ++k) {
      if (static_cast<std::size_t>(col_idx[k]) == i) {
        diag_slot[i] = static_cast<std::int64_t>(k);
      }
    }
  }
}

/// Refreshes an image from extract_owned_block() with `a`'s current
/// values: one copy of each row's owned prefix.
void copy_owned_values(const la::CsrMatrix& a,
                       const std::vector<std::int64_t>& row_ptr,
                       std::vector<double>& values) {
  const auto arp = a.row_ptr();
  const double* const av = a.values().data();
  for (std::size_t i = 0; i + 1 < row_ptr.size(); ++i) {
    std::copy(av + arp[i], av + arp[i] + (row_ptr[i + 1] - row_ptr[i]),
              values.data() + row_ptr[i]);
  }
}

}  // namespace

void IdentityPreconditioner::build(const la::DistCsrMatrix& matrix) {
  rows_ = matrix.local().rows();
}

void IdentityPreconditioner::apply(const la::DistVector& r,
                                   la::DistVector& z) const {
  HETERO_REQUIRE(r.owned_count() == rows_ && z.owned_count() == rows_,
                 "identity preconditioner size mismatch");
  std::copy_n(r.values().data(), rows_, z.values().data());
}

void JacobiPreconditioner::build(const la::DistCsrMatrix& matrix) {
  inv_diag_ = matrix.local().diagonal();
  for (double& d : inv_diag_) {
    HETERO_REQUIRE(d != 0.0, "Jacobi preconditioner hit a zero diagonal");
    d = 1.0 / d;
  }
}

void JacobiPreconditioner::apply(const la::DistVector& r,
                                 la::DistVector& z) const {
  HETERO_REQUIRE(static_cast<std::size_t>(r.owned_count()) ==
                     inv_diag_.size(),
                 "Jacobi preconditioner size mismatch");
  for (std::size_t i = 0; i < inv_diag_.size(); ++i) {
    z[static_cast<int>(i)] = inv_diag_[i] * r[static_cast<int>(i)];
  }
}

SsorPreconditioner::SsorPreconditioner(double omega) : omega_(omega) {
  HETERO_REQUIRE(omega > 0.0 && omega < 2.0,
                 "SSOR requires omega in (0, 2)");
}

void SsorPreconditioner::build(const la::DistCsrMatrix& matrix) {
  const la::CsrMatrix& a = matrix.local();
  // Same pattern object as last time -> values-only refresh (fast mode).
  if (la::kernel_mode() == la::KernelMode::kFast &&
      src_pattern_ == a.row_ptr().data() && a.rows() == n_) {
    copy_owned_values(a, row_ptr_, values_);
  } else {
    n_ = a.rows();
    extract_owned_block(a, row_ptr_, col_idx_, values_, diag_slot_);
    src_pattern_ = a.row_ptr().data();
  }
  for (int i = 0; i < n_; ++i) {
    const auto d = diag_slot_[static_cast<std::size_t>(i)];
    HETERO_REQUIRE(d >= 0 && values_[static_cast<std::size_t>(d)] != 0.0,
                   "SSOR hit a zero diagonal");
  }
}

void SsorPreconditioner::apply(const la::DistVector& r,
                               la::DistVector& z) const {
  HETERO_REQUIRE(r.owned_count() == n_ && z.owned_count() == n_,
                 "SSOR preconditioner size mismatch");
  const double w = omega_;
  const auto diag = [&](int i) {
    return values_[static_cast<std::size_t>(
        diag_slot_[static_cast<std::size_t>(i)])];
  };
  // Forward sweep: (D/w + L) y = r.
  for (int i = 0; i < n_; ++i) {
    double acc = r[i];
    for (auto k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      const int c = col_idx_[static_cast<std::size_t>(k)];
      if (c < i) {
        acc -= values_[static_cast<std::size_t>(k)] * z[c];
      }
    }
    z[i] = acc * w / diag(i);
  }
  // Scale by D/w x (2-w)/w  ->  z = ((2-w)/w) D z ... combined below.
  for (int i = 0; i < n_; ++i) {
    z[i] *= (2.0 - w) / w * diag(i);
  }
  // Backward sweep: (D/w + U) z = y~.
  for (int i = n_ - 1; i >= 0; --i) {
    double acc = z[i];
    for (auto k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      const int c = col_idx_[static_cast<std::size_t>(k)];
      if (c > i) {
        acc -= values_[static_cast<std::size_t>(k)] * z[c];
      }
    }
    z[i] = acc * w / diag(i);
  }
}

void Ilu0Preconditioner::build(const la::DistCsrMatrix& matrix) {
  const la::CsrMatrix& a = matrix.local();
  // Same pattern object as last time -> copy fresh values and refactorize;
  // skips the block re-extraction and all per-build allocations (fast mode
  // only).
  if (la::kernel_mode() == la::KernelMode::kFast &&
      src_pattern_ == a.row_ptr().data() && a.rows() == n_) {
    copy_owned_values(a, row_ptr_, values_);
    factorize();
    return;
  }

  n_ = a.rows();
  extract_owned_block(a, row_ptr_, col_idx_, values_, diag_slot_);
  std::int64_t longest = 0;
  for (int i = 0; i < n_; ++i) {
    HETERO_REQUIRE(diag_slot_[static_cast<std::size_t>(i)] >= 0,
                   "ILU(0): local block is missing a diagonal entry");
    longest = std::max(longest, row_ptr_[static_cast<std::size_t>(i) + 1] -
                                    row_ptr_[static_cast<std::size_t>(i)]);
  }
  schedulable_ = longest <= kMaxScheduledRow;
  where_ = std::vector<std::int64_t>(static_cast<std::size_t>(n_), -1);
  src_pattern_ = a.row_ptr().data();
  // A new pattern invalidates any recorded schedule.
  sched_built_ = false;
  pivot_updates_ = std::vector<std::uint16_t>();
  updates_ = std::vector<Update>();
  factorize();
}

void Ilu0Preconditioner::factorize() {
  if (la::kernel_mode() != la::KernelMode::kFast || !schedulable_) {
    factorize_ikj(nullptr);
    return;
  }
  if (!sched_built_) {
    record_schedule();
    return;
  }
  // Replay: the same divisions and updates, in the same order, as the IKJ
  // loop — just without the column scatter/reset and the stored-position
  // branch per candidate update.
  const std::uint16_t* count = pivot_updates_.data();
  const Update* upd = updates_.data();
  double* const vals = values_.data();
  for (int i = 0; i < n_; ++i) {
    const auto begin = row_ptr_[static_cast<std::size_t>(i)];
    const auto dslot = diag_slot_[static_cast<std::size_t>(i)];
    double* const row = vals + begin;
    for (auto k = begin; k < dslot; ++k) {
      const auto kd = diag_slot_[static_cast<std::size_t>(
          col_idx_[static_cast<std::size_t>(k)])];
      const double ukk = vals[kd];
      HETERO_REQUIRE(std::fabs(ukk) > 1e-300, "ILU(0) hit a zero pivot");
      const double lik = vals[k] / ukk;
      vals[k] = lik;
      const double* const urow = vals + kd + 1;
      for (const Update* end = upd + *count++; upd != end; ++upd) {
        row[upd->dst] -= lik * urow[upd->src];
      }
    }
  }
}

void Ilu0Preconditioner::record_schedule() {
  // Counting pass: the pivots are the strictly-lower slots; each one's
  // update count is how many of its pivot row's upper columns row i
  // stores. Both arrays are then allocated at their exact size.
  std::int64_t pivots = 0;
  for (int i = 0; i < n_; ++i) {
    pivots += diag_slot_[static_cast<std::size_t>(i)] -
              row_ptr_[static_cast<std::size_t>(i)];
  }
  pivot_updates_ = std::vector<std::uint16_t>(static_cast<std::size_t>(pivots));
  std::size_t p = 0;
  std::size_t total = 0;
  for (int i = 0; i < n_; ++i) {
    const auto begin = row_ptr_[static_cast<std::size_t>(i)];
    const auto end = row_ptr_[static_cast<std::size_t>(i) + 1];
    const auto dslot = diag_slot_[static_cast<std::size_t>(i)];
    for (auto k = begin; k < end; ++k) {
      where_[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] =
          k;
    }
    for (auto k = begin; k < dslot; ++k) {
      const int kc = col_idx_[static_cast<std::size_t>(k)];
      std::uint16_t hits = 0;
      for (auto kk = diag_slot_[static_cast<std::size_t>(kc)] + 1;
           kk < row_ptr_[static_cast<std::size_t>(kc) + 1]; ++kk) {
        hits += where_[static_cast<std::size_t>(
                    col_idx_[static_cast<std::size_t>(kk)])] >= 0;
      }
      pivot_updates_[p++] = hits;
      total += hits;
    }
    for (auto k = begin; k < end; ++k) {
      where_[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] =
          -1;
    }
  }
  updates_ = std::vector<Update>(total);
  factorize_ikj(updates_.data());
  sched_built_ = true;
}

void Ilu0Preconditioner::factorize_ikj(Update* record) {
  // In-place IKJ ILU(0). `where_[c]` maps a column to its slot in row i;
  // every row resets its entries to -1 before moving on, so the scratch
  // can persist across builds. With `record`, each applied update's
  // offsets are written there in order.
  for (int i = 0; i < n_; ++i) {
    const auto begin = row_ptr_[static_cast<std::size_t>(i)];
    const auto end = row_ptr_[static_cast<std::size_t>(i) + 1];
    for (auto k = begin; k < end; ++k) {
      where_[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] =
          k;
    }
    for (auto k = begin; k < end; ++k) {
      const int kc = col_idx_[static_cast<std::size_t>(k)];
      if (kc >= i) {
        break;  // columns are sorted; lower part done
      }
      const auto kd = diag_slot_[static_cast<std::size_t>(kc)];
      const double ukk = values_[static_cast<std::size_t>(kd)];
      HETERO_REQUIRE(std::fabs(ukk) > 1e-300, "ILU(0) hit a zero pivot");
      const double lik = values_[static_cast<std::size_t>(k)] / ukk;
      values_[static_cast<std::size_t>(k)] = lik;
      // Row update: a_i* -= l_ik * u_k* for stored positions only.
      for (auto kk = kd + 1; kk < row_ptr_[static_cast<std::size_t>(kc) + 1];
           ++kk) {
        const int c = col_idx_[static_cast<std::size_t>(kk)];
        const auto slot = where_[static_cast<std::size_t>(c)];
        if (slot >= 0) {
          values_[static_cast<std::size_t>(slot)] -=
              lik * values_[static_cast<std::size_t>(kk)];
          if (record != nullptr) {
            *record++ = {static_cast<std::uint16_t>(slot - begin),
                         static_cast<std::uint16_t>(kk - kd - 1)};
          }
        }
      }
    }
    for (auto k = begin; k < end; ++k) {
      where_[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] =
          -1;
    }
  }
}

std::size_t Ilu0Preconditioner::bytes() const {
  return capacity_bytes(row_ptr_) + capacity_bytes(col_idx_) +
         capacity_bytes(values_) + capacity_bytes(diag_slot_) +
         capacity_bytes(where_) + capacity_bytes(pivot_updates_) +
         capacity_bytes(updates_);
}

void Ilu0Preconditioner::apply(const la::DistVector& r,
                               la::DistVector& z) const {
  HETERO_REQUIRE(r.owned_count() == n_ && z.owned_count() == n_,
                 "ILU(0) preconditioner size mismatch");
  // Forward solve L y = r (unit diagonal).
  for (int i = 0; i < n_; ++i) {
    double acc = r[i];
    for (auto k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      const int c = col_idx_[static_cast<std::size_t>(k)];
      if (c >= i) {
        break;
      }
      acc -= values_[static_cast<std::size_t>(k)] * z[c];
    }
    z[i] = acc;
  }
  // Backward solve U z = y.
  for (int i = n_ - 1; i >= 0; --i) {
    double acc = z[i];
    const auto dslot = diag_slot_[static_cast<std::size_t>(i)];
    for (auto k = dslot + 1; k < row_ptr_[static_cast<std::size_t>(i) + 1];
         ++k) {
      acc -= values_[static_cast<std::size_t>(k)] *
             z[col_idx_[static_cast<std::size_t>(k)]];
    }
    z[i] = acc / values_[static_cast<std::size_t>(dslot)];
  }
}

std::unique_ptr<Preconditioner> make_preconditioner(const std::string& name) {
  if (name == "identity") {
    return std::make_unique<IdentityPreconditioner>();
  }
  if (name == "jacobi") {
    return std::make_unique<JacobiPreconditioner>();
  }
  if (name == "ssor") {
    return std::make_unique<SsorPreconditioner>();
  }
  if (name == "ilu0") {
    return std::make_unique<Ilu0Preconditioner>();
  }
  throw Error("unknown preconditioner: " + name);
}

}  // namespace hetero::solvers
