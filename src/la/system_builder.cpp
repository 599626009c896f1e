#include "la/system_builder.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "la/kernels.hpp"
#include "support/error.hpp"

namespace hetero::la {

/// Dense codes for the gids of the first round: a touched gid maps to its
/// index in the sorted touched list, any other gid met by code() (a column
/// outside this rank's touched set, which becomes an extra ghost) to
/// touched.size() + the order it was first seen in. A small direct-mapped
/// cache sits in front of the hash maps, since FEM assembly repeats each
/// element's gids across the element's rows and columns and its
/// neighbours; it cuts a 12^3 Taylor-Hood NS freeze by about a quarter.
class DistSystemBuilder::GidCoder {
 public:
  explicit GidCoder(const std::vector<GlobalId>& touched)
      : n_touched_(static_cast<std::int32_t>(touched.size())),
        cache_(kCacheSize) {
    touched_.reserve(touched.size());
    for (std::size_t t = 0; t < touched.size(); ++t) {
      touched_.emplace(touched[t], static_cast<std::int32_t>(t));
    }
  }

  std::int32_t code(GlobalId gid) {
    Slot& slot = slot_of(gid);
    if (slot.code < 0 || slot.gid != gid) {
      slot.gid = gid;
      slot.code = lookup(gid);
    }
    return slot.code;
  }

  /// The touched index of `gid`, or -1; never assigns an extra code.
  std::int32_t touched_code(GlobalId gid) {
    Slot& slot = slot_of(gid);
    if (slot.code >= 0 && slot.gid == gid) {
      return slot.code < n_touched_ ? slot.code : -1;
    }
    const auto it = touched_.find(gid);
    if (it == touched_.end()) {
      return -1;
    }
    slot.gid = gid;
    slot.code = it->second;
    return slot.code;
  }

  const std::vector<GlobalId>& extras() const { return extras_; }

 private:
  static constexpr int kCacheBits = 10;
  static constexpr std::size_t kCacheSize = std::size_t{1} << kCacheBits;
  struct Slot {
    GlobalId gid = 0;
    std::int32_t code = -1;
  };

  Slot& slot_of(GlobalId gid) {
    return cache_[static_cast<std::size_t>(
        (static_cast<std::uint64_t>(gid) * 0x9E3779B97F4A7C15ULL) >>
        (64 - kCacheBits))];
  }

  std::int32_t lookup(GlobalId gid) {
    if (const auto it = touched_.find(gid); it != touched_.end()) {
      return it->second;
    }
    const auto [it, inserted] = extra_code_.try_emplace(
        gid, static_cast<std::int32_t>(touched_.size() + extras_.size()));
    if (inserted) {
      extras_.push_back(gid);
    }
    return it->second;
  }

  std::int32_t n_touched_;
  std::unordered_map<GlobalId, std::int32_t> touched_;
  std::vector<Slot> cache_;
  std::unordered_map<GlobalId, std::int32_t> extra_code_;
  std::vector<GlobalId> extras_;
};

struct DistSystemBuilder::FirstRound {
  /// One matrix entry: the row's touched index, the column's code (see the
  /// file comment) and the value.
  struct Entry {
    std::int32_t row = 0;
    std::int32_t col = 0;
    double value = 0.0;
  };
  static_assert(sizeof(Entry) == 16);

  explicit FirstRound(const std::vector<GlobalId>& touched) : coder(touched) {}

  GidCoder coder;
  std::vector<Entry> mat;
  std::vector<GlobalId> routed_cols;  // routed columns outside touched_
};

namespace {

/// Frees a container's storage (`c = {}` would keep the capacity).
template <class T>
void release(T& c) {
  T().swap(c);
}

template <class T>
std::size_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Per-rank block offsets of a flat buffer holding `blocks` back to back.
template <class T>
std::vector<std::size_t> block_offsets(
    const std::vector<std::vector<T>>& blocks) {
  std::vector<std::size_t> off(blocks.size() + 1, 0);
  for (std::size_t r = 0; r < blocks.size(); ++r) {
    off[r + 1] = off[r] + blocks[r].size();
  }
  return off;
}

}  // namespace

DistSystemBuilder::DistSystemBuilder(simmpi::Comm& comm,
                                     std::vector<GlobalId> touched)
    : rank_(comm.rank()), touched_(std::move(touched)) {
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  directory_ = GidDirectory::build(comm, touched_);
  touched_owner_ = directory_->lookup(comm, touched_);
}

DistSystemBuilder::~DistSystemBuilder() = default;

void DistSystemBuilder::begin_assembly() {
  if (!frozen_) {
    first_.reset();  // a restarted first round must not keep its extras
  }
  mat_pending_.clear();
  rhs_pending_.clear();
  mat_pos_ = 0;
  rhs_pos_ = 0;
  scatter_on_add_ = frozen_ && kernel_mode() == KernelMode::kFast;
  if (!frozen_) {
    return;
  }
  col_idx_ = matrix_->local().col_idx().data();
  if (scatter_on_add_) {
    // Zero up front (the reference replay zeroes at finalize); kept
    // entries then accumulate in add order, exactly the prefix of the
    // reference accumulation sequence.
    auto values = matrix_->local_mut().values_mut();
    std::fill(values.begin(), values.end(), 0.0);
    values_ = values.data();
    rhs_->set_all(0.0);
  }
}

void DistSystemBuilder::check_matrix_entry(std::int32_t dest, GlobalId row,
                                           GlobalId col) const {
  bool same;
  if (dest >= 0) {
    same = gid_of_[row_of_slot_[static_cast<std::size_t>(dest)]] == row &&
           gid_of_[col_idx_[dest]] == col;
  } else {
    const auto pos = static_cast<std::size_t>(~dest);
    same = gid_of_[mat_routed_row_[pos]] == row && mat_routed_col_[pos] == col;
  }
  HETERO_REQUIRE(same, "refill changed the matrix sparsity sequence");
}

std::size_t DistSystemBuilder::take_matrix_dests(std::size_t n) {
  HETERO_REQUIRE(n <= mat_dest_.size() - mat_pos_,
                 "refill produced a different number of matrix entries");
  const std::size_t first = mat_pos_;
  mat_pos_ += n;
  return first;
}

void DistSystemBuilder::check_rhs_entry(std::int32_t dest,
                                        GlobalId row) const {
  const std::int32_t lid =
      dest >= 0 ? dest : rhs_routed_row_[static_cast<std::size_t>(~dest)];
  HETERO_REQUIRE(gid_of_[lid] == row, "refill changed the rhs sequence");
}

void DistSystemBuilder::add_first_round(GlobalId row, GlobalId col,
                                        double value) {
  if (!first_) {
    first_ = std::make_unique<FirstRound>(touched_);
  }
  GidCoder& coder = first_->coder;
  const std::int32_t t = coder.touched_code(row);
  HETERO_REQUIRE(t >= 0,
                 "contribution to a row this rank never declared as touched");
  std::int32_t c;
  if (touched_owner_[static_cast<std::size_t>(t)] == rank_) {
    c = coder.code(col);
  } else {
    c = coder.touched_code(col);
    if (c < 0) {
      c = ~static_cast<std::int32_t>(first_->routed_cols.size());
      first_->routed_cols.push_back(col);
    }
  }
  first_->mat.push_back({t, c, value});
}

void DistSystemBuilder::add_matrix(GlobalId row, GlobalId col, double value) {
  if (!frozen_) {
    add_first_round(row, col, value);
    return;
  }
  if (!scatter_on_add_) {
    mat_pending_.push_back({row, col, value});
    return;
  }
  const std::int32_t dest = mat_dest_[take_matrix_dests(1)];
  check_matrix_entry(dest, row, col);
  scatter_matrix(dest, value);
}

void DistSystemBuilder::add_rhs(GlobalId row, double value) {
  if (!scatter_on_add_) {
    rhs_pending_.push_back({row, value});
    return;
  }
  HETERO_REQUIRE(rhs_pos_ < rhs_dest_.size(),
                 "refill produced a different number of rhs entries");
  const std::int32_t dest = rhs_dest_[rhs_pos_++];
  check_rhs_entry(dest, row);
  scatter_rhs(dest, value);
}

void DistSystemBuilder::add_dense_block(std::span<const GlobalId> rows,
                                        std::span<const GlobalId> cols,
                                        std::span<const double> block) {
  HETERO_REQUIRE(block.size() == rows.size() * cols.size(),
                 "add_dense_block: block shape mismatch");
  std::size_t k = 0;
  if (!scatter_on_add_) {
    for (const GlobalId row : rows) {
      for (const GlobalId col : cols) {
        add_matrix(row, col, block[k++]);
      }
    }
    return;
  }
  // Fast refill: one bounds check for the whole block.
  const std::int32_t* dest =
      mat_dest_.data() + take_matrix_dests(block.size());
  for (const GlobalId row : rows) {
    for (const GlobalId col : cols) {
      check_matrix_entry(dest[k], row, col);
      scatter_matrix(dest[k], block[k]);
      ++k;
    }
  }
}

void DistSystemBuilder::add_rhs_block(std::span<const GlobalId> rows,
                                      std::span<const double> values) {
  HETERO_REQUIRE(values.size() == rows.size(),
                 "add_rhs_block: size mismatch");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    add_rhs(rows[i], values[i]);
  }
}

void DistSystemBuilder::finalize(simmpi::Comm& comm) {
  if (!frozen_) {
    freeze(comm);
  } else {
    refill(comm);
  }
  mat_pending_.clear();
  rhs_pending_.clear();
  mat_pos_ = 0;
  rhs_pos_ = 0;
  scatter_on_add_ = false;
}

void DistSystemBuilder::freeze(simmpi::Comm& comm) {
  const int p = comm.size();
  const int me = comm.rank();
  const std::size_t n_touched = touched_.size();
  if (!first_) {
    first_ = std::make_unique<FirstRound>(touched_);
  }
  GidCoder& coder = first_->coder;
  const std::vector<FirstRound::Entry>& first = first_->mat;
  const std::size_t n_mat = first.size();
  const std::size_t n_rhs = rhs_pending_.size();

  // The map numbers owned gids first, in gid order, and touched_ is
  // gid-sorted, so owned rows have their final local ids already.
  std::vector<std::int32_t> owned_lid(n_touched, -1);
  std::int32_t owned = 0;
  for (std::size_t t = 0; t < n_touched; ++t) {
    if (touched_owner_[t] == me) {
      owned_lid[t] = owned++;
    }
  }
  auto row_index = [&](GlobalId row) {
    const std::int32_t t = coder.touched_code(row);
    HETERO_REQUIRE(t >= 0,
                   "contribution to a row this rank never declared as "
                   "touched");
    return t;
  };
  auto owned_row = [&](GlobalId row) {
    const std::int32_t lid =
        owned_lid[static_cast<std::size_t>(row_index(row))];
    HETERO_CHECK(lid >= 0);
    return lid;
  };

  // ---- route entries by row owner ---------------------------------------
  // Kept entries park their owned row in `dest` until the slots exist.
  // Routed ones get ~(flat send position): the per-rank send blocks back to
  // back, each in add order. `routed_row` holds each routed entry's touched
  // index until the map gives it a local id. Entry i has touched row
  // `row_of(i)` and ships as `gid_entry(i)`.
  auto route = [&](std::size_t n, const auto& row_of, const auto& gid_entry,
                   std::vector<std::int32_t>& dest,
                   std::vector<std::int32_t>& routed_row,
                   std::vector<std::size_t>& send_off) {
    std::vector<std::vector<std::decay_t<decltype(gid_entry(0))>>> out(
        static_cast<std::size_t>(p));
    dest.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = static_cast<std::size_t>(row_of(i));
      const int owner = touched_owner_[t];
      if (owner == me) {
        dest[i] = owned_lid[t];
      } else {
        dest[i] = ~owner;
        out[static_cast<std::size_t>(owner)].push_back(gid_entry(i));
      }
    }
    send_off = block_offsets(out);
    std::vector<std::size_t> next(send_off.begin(), send_off.end() - 1);
    routed_row.resize(send_off.back());
    for (std::size_t i = 0; i < n; ++i) {
      if (dest[i] < 0) {
        const std::size_t pos = next[static_cast<std::size_t>(~dest[i])]++;
        dest[i] = ~static_cast<std::int32_t>(pos);
        routed_row[pos] = row_of(i);
      }
    }
    return out;
  };
  // Number of entries in a set of received blocks.
  auto count = [](const auto& blocks) {
    std::size_t n = 0;
    for (const auto& block : blocks) {
      n += block.size();
    }
    return n;
  };

  std::vector<std::vector<GlobalTriplet>> mat_in;
  {
    // A routed entry's column code is its touched index or ~(side-table
    // position).
    auto mat_out = route(
        n_mat, [&](std::size_t i) { return first[i].row; },
        [&](std::size_t i) {
          const FirstRound::Entry& e = first[i];
          const GlobalId col =
              e.col >= 0
                  ? touched_[static_cast<std::size_t>(e.col)]
                  : first_->routed_cols[static_cast<std::size_t>(~e.col)];
          return GlobalTriplet{touched_[static_cast<std::size_t>(e.row)], col,
                               e.value};
        },
        mat_dest_, mat_routed_row_, mat_send_off_);
    mat_routed_col_.resize(mat_send_off_.back());
    for (std::size_t r = 0; r < mat_out.size(); ++r) {
      for (std::size_t j = 0; j < mat_out[r].size(); ++j) {
        mat_routed_col_[mat_send_off_[r] + j] = mat_out[r][j].col;
      }
    }
    mat_in = comm.alltoallv(mat_out);
  }
  const std::size_t n_recv = count(mat_in);
  HETERO_REQUIRE(n_mat + n_recv <=
                     static_cast<std::size_t>(
                         std::numeric_limits<std::int32_t>::max()),
                 "assembly round too large for the 32-bit replay plan");

  // row_start counts entries per owned row, then becomes bucket offsets.
  std::vector<std::int64_t> row_start(static_cast<std::size_t>(owned) + 1, 0);
  for (const std::int32_t r : mat_dest_) {
    if (r >= 0) {
      ++row_start[static_cast<std::size_t>(r) + 1];
    }
  }
  mat_recv_slot_.resize(n_recv);
  std::size_t k = 0;
  for (const auto& block : mat_in) {
    for (const auto& e : block) {
      const std::int32_t r = owned_row(e.row);
      mat_recv_slot_[k++] = r;
      ++row_start[static_cast<std::size_t>(r) + 1];
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(owned); ++r) {
    row_start[r + 1] += row_start[r];
  }

  const auto rhs_in = comm.alltoallv(route(
      n_rhs, [&](std::size_t i) { return row_index(rhs_pending_[i].row); },
      [&](std::size_t i) { return rhs_pending_[i]; }, rhs_dest_,
      rhs_routed_row_, rhs_send_off_));
  rhs_recv_lid_.resize(count(rhs_in));
  k = 0;
  for (const auto& block : rhs_in) {
    for (const auto& e : block) {
      rhs_recv_lid_[k++] = owned_row(e.row);
    }
  }

  // ---- bucket column codes per owned row ---------------------------------
  // Key = column code << 32 | entry id (added entries 0..n_mat-1, received
  // entries after them). Columns outside touched_ become extra ghosts;
  // kept entries' columns were coded at add time, received ones are coded
  // after them, so extras are numbered in entry order.
  std::vector<std::uint64_t> bucket(
      static_cast<std::size_t>(row_start.back()));
  {
    std::vector<std::int64_t> next(row_start.begin(), row_start.end() - 1);
    auto put = [&](std::int32_t row, std::int32_t code, std::size_t id) {
      bucket[static_cast<std::size_t>(next[static_cast<std::size_t>(row)]++)] =
          static_cast<std::uint64_t>(code) << 32 | id;
    };
    for (std::size_t i = 0; i < n_mat; ++i) {
      if (mat_dest_[i] >= 0) {
        put(mat_dest_[i], first[i].col, i);
      }
    }
    k = 0;
    for (const auto& block : mat_in) {
      for (const auto& e : block) {
        put(mat_recv_slot_[k], coder.code(e.col), n_mat + k);
        ++k;
      }
    }
  }

  map_ = IndexMap::build(comm, *directory_, touched_, coder.extras());
  halo_ = std::make_unique<HaloExchange>(comm, *map_);
  HETERO_CHECK(map_->owned_count() == owned);

  // Column code -> local id.
  std::vector<std::int32_t> lid_of_code(n_touched + coder.extras().size());
  for (std::size_t t = 0; t < n_touched; ++t) {
    lid_of_code[t] = map_->local(touched_[t]);
    HETERO_CHECK(lid_of_code[t] != kInvalidLocal &&
                 (owned_lid[t] < 0 || owned_lid[t] == lid_of_code[t]));
  }
  for (std::size_t e = 0; e < coder.extras().size(); ++e) {
    lid_of_code[n_touched + e] = map_->local(coder.extras()[e]);
    HETERO_CHECK(lid_of_code[n_touched + e] != kInvalidLocal);
  }

  // ---- CSR pattern: sort and deduplicate each short row -------------------
  // Only a row's distinct columns are translated to local ids and sorted;
  // its entries find their slot through the column code.
  std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(owned) + 1, 0);
  std::vector<int> col_idx;
  std::vector<std::int32_t> slot_of_code(lid_of_code.size(), -1);
  std::vector<std::pair<std::int32_t, std::uint32_t>> cols;  // (lid, code)
  for (std::size_t r = 0; r < static_cast<std::size_t>(owned); ++r) {
    const auto begin = static_cast<std::size_t>(row_start[r]);
    const auto end = static_cast<std::size_t>(row_start[r + 1]);
    cols.clear();
    for (std::size_t b = begin; b < end; ++b) {
      const auto code = static_cast<std::uint32_t>(bucket[b] >> 32);
      if (slot_of_code[code] < 0) {
        slot_of_code[code] = 0;
        cols.emplace_back(lid_of_code[code], code);
      }
    }
    std::sort(cols.begin(), cols.end());
    for (const auto& [lid, code] : cols) {
      slot_of_code[code] = static_cast<std::int32_t>(col_idx.size());
      col_idx.push_back(lid);
      row_of_slot_.push_back(static_cast<std::int32_t>(r));
    }
    for (std::size_t b = begin; b < end; ++b) {
      const std::int32_t slot = slot_of_code[bucket[b] >> 32];
      const std::size_t id = bucket[b] & 0xffffffffu;
      if (id < n_mat) {
        mat_dest_[id] = slot;
      } else {
        mat_recv_slot_[id - n_mat] = slot;
      }
    }
    for (const auto& [lid, code] : cols) {
      slot_of_code[code] = -1;
    }
    row_ptr[r + 1] = static_cast<std::int64_t>(col_idx.size());
  }
  release(bucket);
  col_idx.shrink_to_fit();
  row_of_slot_.shrink_to_fit();
  CsrMatrix csr = CsrMatrix::from_pattern(owned, map_->local_count(),
                                          std::move(row_ptr),
                                          std::move(col_idx));

  // ---- routed entries: final row local ids -------------------------------
  for (std::int32_t& row : mat_routed_row_) {
    row = lid_of_code[static_cast<std::size_t>(row)];
  }
  for (std::int32_t& row : rhs_routed_row_) {
    row = lid_of_code[static_cast<std::size_t>(row)];
  }
  mat_send_.assign(mat_send_off_.back(), 0.0);
  rhs_send_.assign(rhs_send_off_.back(), 0.0);

  // ---- first-round values, in replay order -------------------------------
  // Kept entries in add order, then the per-source-rank blocks: the order
  // every refill sums in, so an identical refill reproduces these bits.
  auto values = csr.values_mut();
  for (std::size_t i = 0; i < n_mat; ++i) {
    if (mat_dest_[i] >= 0) {
      values[static_cast<std::size_t>(mat_dest_[i])] += first[i].value;
    }
  }
  k = 0;
  for (const auto& block : mat_in) {
    for (const auto& e : block) {
      values[static_cast<std::size_t>(mat_recv_slot_[k++])] += e.value;
    }
  }
  matrix_.emplace(*map_, *halo_, std::move(csr));

  rhs_.emplace(*map_);
  for (std::size_t i = 0; i < n_rhs; ++i) {
    if (rhs_dest_[i] >= 0) {
      (*rhs_)[rhs_dest_[i]] += rhs_pending_[i].value;
    }
  }
  k = 0;
  for (const auto& block : rhs_in) {
    for (const auto& e : block) {
      (*rhs_)[rhs_recv_lid_[k++]] += e.value;
    }
  }

  // The first round's buffers and coder are freeze scratch.
  first_.reset();
  release(rhs_pending_);
  gid_of_ = map_->gids().data();
  col_idx_ = matrix_->local().col_idx().data();
  frozen_ = true;
}

void DistSystemBuilder::refill(simmpi::Comm& comm) {
  auto values = matrix_->local_mut().values_mut();
  values_ = values.data();
  if (scatter_on_add_) {
    HETERO_REQUIRE(mat_pos_ == mat_dest_.size(),
                   "refill produced a different number of matrix entries");
    HETERO_REQUIRE(rhs_pos_ == rhs_dest_.size(),
                   "refill produced a different number of rhs entries");
  } else {
    // Reference replay: check and scatter the buffered round now, in add
    // order.
    HETERO_REQUIRE(mat_pending_.size() == mat_dest_.size(),
                   "refill produced a different number of matrix entries");
    HETERO_REQUIRE(rhs_pending_.size() == rhs_dest_.size(),
                   "refill produced a different number of rhs entries");
    std::fill(values.begin(), values.end(), 0.0);
    for (std::size_t i = 0; i < mat_pending_.size(); ++i) {
      const GlobalTriplet& e = mat_pending_[i];
      check_matrix_entry(mat_dest_[i], e.row, e.col);
      scatter_matrix(mat_dest_[i], e.value);
    }
    rhs_->set_all(0.0);
    for (std::size_t i = 0; i < rhs_pending_.size(); ++i) {
      check_rhs_entry(rhs_dest_[i], rhs_pending_[i].row);
      scatter_rhs(rhs_dest_[i], rhs_pending_[i].value);
    }
  }
  // Kept values are in place; ship the routed blocks and accumulate them
  // after, per source rank.
  const auto mat_in = comm.alltoallv(mat_send_, mat_send_off_);
  const auto rhs_in = comm.alltoallv(rhs_send_, rhs_send_off_);

  std::size_t k = 0;
  for (const auto& block : mat_in) {
    for (double v : block) {
      values_[mat_recv_slot_[k++]] += v;
    }
  }
  HETERO_CHECK(k == mat_recv_slot_.size());
  k = 0;
  for (const auto& block : rhs_in) {
    for (double v : block) {
      (*rhs_)[rhs_recv_lid_[k++]] += v;
    }
  }
  HETERO_CHECK(k == rhs_recv_lid_.size());
  values_ = nullptr;
}

std::size_t DistSystemBuilder::plan_bytes() const {
  return capacity_bytes(mat_dest_) + capacity_bytes(mat_routed_col_) +
         capacity_bytes(mat_routed_row_) + capacity_bytes(mat_recv_slot_) +
         capacity_bytes(row_of_slot_) + capacity_bytes(mat_send_off_) +
         capacity_bytes(rhs_dest_) + capacity_bytes(rhs_routed_row_) +
         capacity_bytes(rhs_recv_lid_) + capacity_bytes(rhs_send_off_);
}

std::size_t DistSystemBuilder::send_buffer_bytes() const {
  return capacity_bytes(mat_send_) + capacity_bytes(rhs_send_);
}

const IndexMap& DistSystemBuilder::map() const {
  HETERO_REQUIRE(frozen_, "map() requires a finalized system");
  return *map_;
}

const HaloExchange& DistSystemBuilder::halo() const {
  HETERO_REQUIRE(frozen_, "halo() requires a finalized system");
  return *halo_;
}

DistCsrMatrix& DistSystemBuilder::matrix() {
  HETERO_REQUIRE(frozen_, "matrix() requires a finalized system");
  return *matrix_;
}

const DistCsrMatrix& DistSystemBuilder::matrix() const {
  HETERO_REQUIRE(frozen_, "matrix() requires a finalized system");
  return *matrix_;
}

DistVector& DistSystemBuilder::rhs() {
  HETERO_REQUIRE(frozen_, "rhs() requires a finalized system");
  return *rhs_;
}

}  // namespace hetero::la
