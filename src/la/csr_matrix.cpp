#include "la/csr_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/kernels.hpp"
#include "support/error.hpp"

namespace hetero::la {

CsrMatrix CsrMatrix::from_triplets(int rows, int cols,
                                   std::span<const Triplet> triplets) {
  HETERO_REQUIRE(rows >= 0 && cols >= 0, "matrix shape must be non-negative");
  std::vector<Triplet> sorted(triplets.begin(), triplets.end());
  for (const auto& t : sorted) {
    HETERO_REQUIRE(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                   "triplet index out of range");
  }
  std::sort(sorted.begin(), sorted.end(), [](const Triplet& a,
                                             const Triplet& b) {
    return a.row < b.row || (a.row == b.row && a.col < b.col);
  });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.col_idx_.reserve(sorted.size());
  m.values_.reserve(sorted.size());
  std::size_t i = 0;
  for (int r = 0; r < rows; ++r) {
    while (i < sorted.size() && sorted[i].row == r) {
      const int c = sorted[i].col;
      double v = 0.0;
      while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
        v += sorted[i].value;
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
    m.row_ptr_[static_cast<std::size_t>(r) + 1] =
        static_cast<std::int64_t>(m.col_idx_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::from_pattern(int rows, int cols,
                                  std::vector<std::int64_t> row_ptr,
                                  std::vector<int> col_idx) {
  HETERO_REQUIRE(rows >= 0 && cols >= 0, "matrix shape must be non-negative");
  HETERO_REQUIRE(row_ptr.size() == static_cast<std::size_t>(rows) + 1 &&
                     row_ptr.front() == 0 &&
                     row_ptr.back() ==
                         static_cast<std::int64_t>(col_idx.size()),
                 "from_pattern: row_ptr does not match col_idx");
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_.assign(m.col_idx_.size(), 0.0);
  return m;
}

void CsrMatrix::multiply(std::span<const double> x,
                         std::span<double> y) const {
  multiply_impl(x, y, /*accumulate=*/false);
}

void CsrMatrix::multiply_add(std::span<const double> x,
                             std::span<double> y) const {
  multiply_impl(x, y, /*accumulate=*/true);
}

void CsrMatrix::multiply_impl(std::span<const double> x, std::span<double> y,
                              bool accumulate) const {
  HETERO_REQUIRE(static_cast<int>(x.size()) == cols_ &&
                     static_cast<int>(y.size()) == rows_,
                 "spmv: size mismatch");
  const std::int64_t nnz = nonzeros();
  // 2 flops per stored entry; bytes = val+col streams, row_ptr, the y
  // write-back (plus read when accumulating), and one x gather per entry.
  spmv_work().add(2 * nnz,
                  nnz * (8 + 4 + 8) + static_cast<std::int64_t>(rows_) *
                                          (8 + (accumulate ? 16 : 8)));

  if (kernel_mode() == KernelMode::kReference) {
    for (int r = 0; r < rows_; ++r) {
      double acc =
          accumulate ? y[static_cast<std::size_t>(r)] : 0.0;
      const auto begin =
          static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r)]);
      const auto end =
          static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r) + 1]);
      for (std::size_t k = begin; k < end; ++k) {
        acc += values_[k] * x[static_cast<std::size_t>(col_idx_[k])];
      }
      y[static_cast<std::size_t>(r)] = acc;
    }
    return;
  }

#ifdef HETERO_SPMV_SELL
  sell_multiply(x, y, accumulate);
#else
  // Fast path: four rows in lockstep. Each row keeps a private accumulator
  // fed in ascending-slot order — the same chain as the reference loop, so
  // results are bit-identical — while the four chains overlap in the
  // pipeline instead of serializing on one accumulator's latency.
  const std::int64_t* rp = row_ptr_.data();
  const int* ci = col_idx_.data();
  const double* v = values_.data();
  const double* xp = x.data();
  double* yp = y.data();
  int r = 0;
  for (; r + 4 <= rows_; r += 4) {
    std::int64_t k0 = rp[r], k1 = rp[r + 1], k2 = rp[r + 2], k3 = rp[r + 3];
    const std::int64_t e0 = rp[r + 1], e1 = rp[r + 2], e2 = rp[r + 3],
                       e3 = rp[r + 4];
    double a0 = accumulate ? yp[r] : 0.0;
    double a1 = accumulate ? yp[r + 1] : 0.0;
    double a2 = accumulate ? yp[r + 2] : 0.0;
    double a3 = accumulate ? yp[r + 3] : 0.0;
    const std::int64_t m = std::min(std::min(e0 - k0, e1 - k1),
                                    std::min(e2 - k2, e3 - k3));
    for (std::int64_t j = 0; j < m; ++j) {
      a0 += v[k0 + j] * xp[ci[k0 + j]];
      a1 += v[k1 + j] * xp[ci[k1 + j]];
      a2 += v[k2 + j] * xp[ci[k2 + j]];
      a3 += v[k3 + j] * xp[ci[k3 + j]];
    }
    for (std::int64_t k = k0 + m; k < e0; ++k) a0 += v[k] * xp[ci[k]];
    for (std::int64_t k = k1 + m; k < e1; ++k) a1 += v[k] * xp[ci[k]];
    for (std::int64_t k = k2 + m; k < e2; ++k) a2 += v[k] * xp[ci[k]];
    for (std::int64_t k = k3 + m; k < e3; ++k) a3 += v[k] * xp[ci[k]];
    yp[r] = a0;
    yp[r + 1] = a1;
    yp[r + 2] = a2;
    yp[r + 3] = a3;
  }
  for (; r < rows_; ++r) {
    double acc = accumulate ? yp[r] : 0.0;
    const std::int64_t end = rp[r + 1];
    for (std::int64_t k = rp[r]; k < end; ++k) {
      acc += v[k] * xp[ci[k]];
    }
    yp[r] = acc;
  }
#endif
}

#ifdef HETERO_SPMV_SELL
namespace {
constexpr int kSellChunk = 8;    // C: rows per chunk (one lane each)
constexpr int kSellSigma = 128;  // sigma: length-sort window, in rows
}  // namespace

void CsrMatrix::sell_build() const {
  auto& s = sell_;
  // Sort rows by descending length inside each sigma window (stable, so
  // equal-length rows keep mesh order and runs stay deterministic).
  std::vector<int> order(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) {
    order[static_cast<std::size_t>(r)] = r;
  }
  auto row_len = [&](int r) {
    return row_ptr_[static_cast<std::size_t>(r) + 1] -
           row_ptr_[static_cast<std::size_t>(r)];
  };
  for (int w = 0; w < rows_; w += kSellSigma) {
    const auto begin = order.begin() + w;
    const auto end = order.begin() + std::min(rows_, w + kSellSigma);
    std::stable_sort(begin, end,
                     [&](int a, int b) { return row_len(a) > row_len(b); });
  }

  s.chunk_count = (rows_ + kSellChunk - 1) / kSellChunk;
  s.rows.assign(static_cast<std::size_t>(s.chunk_count) * kSellChunk, -1);
  s.lane_len.assign(static_cast<std::size_t>(s.chunk_count) * kSellChunk, 0);
  s.chunk_ptr.assign(static_cast<std::size_t>(s.chunk_count) + 1, 0);
  for (int c = 0; c < s.chunk_count; ++c) {
    std::int64_t width = 0;
    for (int lane = 0; lane < kSellChunk; ++lane) {
      const int pos = c * kSellChunk + lane;
      if (pos >= rows_) {
        break;
      }
      const int row = order[static_cast<std::size_t>(pos)];
      const std::size_t slot = static_cast<std::size_t>(pos);
      s.rows[slot] = row;
      s.lane_len[slot] = static_cast<int>(row_len(row));
      width = std::max(width, row_len(row));
    }
    s.chunk_ptr[static_cast<std::size_t>(c) + 1] =
        s.chunk_ptr[static_cast<std::size_t>(c)] + width * kSellChunk;
  }
  const auto total =
      static_cast<std::size_t>(s.chunk_ptr[static_cast<std::size_t>(s.chunk_count)]);
  s.col.assign(total, 0);
  s.val.assign(total, 0.0);
  for (int c = 0; c < s.chunk_count; ++c) {
    const std::int64_t base = s.chunk_ptr[static_cast<std::size_t>(c)];
    for (int lane = 0; lane < kSellChunk; ++lane) {
      const std::size_t slot =
          static_cast<std::size_t>(c) * kSellChunk +
          static_cast<std::size_t>(lane);
      const int row = s.rows[slot];
      if (row < 0) {
        continue;
      }
      const std::int64_t rbegin = row_ptr_[static_cast<std::size_t>(row)];
      for (int j = 0; j < s.lane_len[slot]; ++j) {
        s.col[static_cast<std::size_t>(base + j * kSellChunk + lane)] =
            col_idx_[static_cast<std::size_t>(rbegin + j)];
      }
    }
  }
  s.built = true;
}

void CsrMatrix::sell_pack_values() const {
  auto& s = sell_;
  for (int c = 0; c < s.chunk_count; ++c) {
    const std::int64_t base = s.chunk_ptr[static_cast<std::size_t>(c)];
    for (int lane = 0; lane < kSellChunk; ++lane) {
      const std::size_t slot =
          static_cast<std::size_t>(c) * kSellChunk +
          static_cast<std::size_t>(lane);
      const int row = s.rows[slot];
      if (row < 0) {
        continue;
      }
      const std::int64_t rbegin = row_ptr_[static_cast<std::size_t>(row)];
      for (int j = 0; j < s.lane_len[slot]; ++j) {
        s.val[static_cast<std::size_t>(base + j * kSellChunk + lane)] =
            values_[static_cast<std::size_t>(rbegin + j)];
      }
    }
  }
  s.packed_version = values_version_;
}

void CsrMatrix::sell_multiply(std::span<const double> x, std::span<double> y,
                              bool accumulate) const {
  auto& s = sell_;
  if (!s.built) {
    sell_build();
    sell_pack_values();
  } else if (s.packed_version != values_version_) {
    sell_pack_values();
  }
  const double* xp = x.data();
  double* yp = y.data();
  for (int c = 0; c < s.chunk_count; ++c) {
    const std::int64_t base = s.chunk_ptr[static_cast<std::size_t>(c)];
    const std::int64_t width =
        (s.chunk_ptr[static_cast<std::size_t>(c) + 1] - base) / kSellChunk;
    const std::size_t lane0 =
        static_cast<std::size_t>(c) * kSellChunk;
    double acc[kSellChunk];
    for (int lane = 0; lane < kSellChunk; ++lane) {
      const int row = s.rows[lane0 + static_cast<std::size_t>(lane)];
      acc[lane] = (accumulate && row >= 0) ? yp[row] : 0.0;
    }
    for (std::int64_t j = 0; j < width; ++j) {
      const std::int64_t off = base + j * kSellChunk;
      for (int lane = 0; lane < kSellChunk; ++lane) {
        // The length guard keeps padding out of the accumulation chain, so
        // lane sums match the CSR row loops bit for bit (even around -0.0).
        if (j < s.lane_len[lane0 + static_cast<std::size_t>(lane)]) {
          acc[lane] +=
              s.val[static_cast<std::size_t>(off + lane)] *
              xp[s.col[static_cast<std::size_t>(off + lane)]];
        }
      }
    }
    for (int lane = 0; lane < kSellChunk; ++lane) {
      const int row = s.rows[lane0 + static_cast<std::size_t>(lane)];
      if (row >= 0) {
        yp[row] = acc[lane];
      }
    }
  }
}
#endif  // HETERO_SPMV_SELL

double CsrMatrix::at(int row, int col) const {
  const std::int64_t s = slot(row, col);
  return s < 0 ? 0.0 : values_[static_cast<std::size_t>(s)];
}

std::int64_t CsrMatrix::slot(int row, int col) const {
  HETERO_REQUIRE(row >= 0 && row < rows_, "slot: row out of range");
  const auto begin = row_ptr_[static_cast<std::size_t>(row)];
  const auto end = row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto* first = col_idx_.data() + begin;
  const auto* last = col_idx_.data() + end;
  const auto* it = std::lower_bound(first, last, col);
  if (it == last || *it != col) {
    return -1;
  }
  return begin + (it - first);
}

double CsrMatrix::symmetry_error() const {
  const int n = std::min(rows_, cols_);
  double err = 0.0;
  for (int r = 0; r < n; ++r) {
    const auto begin = row_ptr_[static_cast<std::size_t>(r)];
    const auto end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (auto k = begin; k < end; ++k) {
      const int c = col_idx_[static_cast<std::size_t>(k)];
      if (c >= n || c < r) {
        continue;  // scan the upper triangle once
      }
      const double upper = values_[static_cast<std::size_t>(k)];
      const double lower = at(c, r);
      err = std::max(err, std::fabs(upper - lower));
    }
  }
  return err;
}

double CsrMatrix::frobenius_norm() const {
  double sum = 0.0;
  for (double v : values_) {
    sum += v * v;
  }
  return std::sqrt(sum);
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(static_cast<std::size_t>(rows_), 0.0);
  for (int r = 0; r < rows_ && r < cols_; ++r) {
    d[static_cast<std::size_t>(r)] = at(r, r);
  }
  return d;
}

}  // namespace hetero::la
