#pragma once

/// \file system_builder.hpp
/// Distributed linear-system assembly with global ids (the Trilinos
/// FECrsMatrix/globalAssemble analogue).
///
/// Ranks add matrix and right-hand-side contributions by *global* id,
/// including rows they do not own (FEM elements on partition boundaries
/// produce those). `finalize()` ships off-process contributions to the row
/// owners, resolves ghost columns, and builds the distributed CSR matrix.
///
/// Time-dependent problems reassemble every step with an identical sparsity
/// pattern, so the first finalize() freezes the structure (index maps, halo
/// plan, CSR pattern, communication routing) and later assemble→finalize
/// rounds replay it shipping *values only* — the same optimization real FEM
/// codes use.
///
/// The first round is buffered coded, 16 B per matrix entry: the row's
/// index in the sorted touched list, a column code and the value. Gids
/// map to dense codes at add time through a small cache in front of one
/// hash (both dropped by the freeze). A column of an owned row codes as
/// its touched index, or past the touched list when it becomes an extra
/// ghost. A column of a routed row codes as its touched index, or as ~i
/// into a side table of gids when this rank does not touch it, so that it
/// never becomes a ghost here. The freeze makes a few linear sweeps over
/// the buffered entries, with no global sort: every owned row's columns
/// are bucketed, and each short row is sorted and deduplicated on its own.
/// The first round's values are then summed in the replay order below, so
/// the first round and any identical refill are bit-identical.
///
/// Frozen plan, per assembled entry one int32 `dest`:
///   * dest >= 0 — the CSR slot of an entry whose row this rank owns;
///   * dest <  0 — the entry's row is another rank's: ~dest is its position
///     in the flat send buffer (the per-rank blocks back to back) and
///     indexes a compact table of routed entries (row local id, column gid).
/// Plus one int32 slot per entry received from another rank, one int32 row
/// per CSR slot (`row_of_slot`), and the same layout for the rhs. That is
/// 4 B per entry, plus 12 B per routed entry and 4 B per received entry
/// and per stored nonzero (`plan_bytes()`): 6–8 B per entry on RD P2,
/// against 56 B for a stored sequence plus per-entry slot, rank and offset
/// arrays. The routed values themselves live in a flat send buffer kept
/// between rounds, 8 B more per routed entry (`send_buffer_bytes()`). The
/// first round's 16 B entry buffer is released once frozen.
///
/// Structure check. A refill entry (r, c) at sequence position i passes
/// only if gid(row_of_slot[dest_i]) == r and gid(col_idx[dest_i]) == c
/// (routed entries: against their table row). A CSR slot stands for exactly
/// one (row, col) pair and dest_i was derived from the first round's i-th
/// pair, so this is exactly as strict as comparing against a stored copy
/// of the first-round sequence.
///
/// Both kernel modes use the one plan. Under la::KernelMode::kFast,
/// begin_assembly() zeroes the CSR values and rhs up front and every add_*
/// call checks its entry and scatters the value straight to its
/// destination (CSR slot, or the routed send buffer), so a refill does no
/// buffering and no second pass; violations throw at the offending add_*
/// call. The reference replay buffers the round's entries as the first
/// round does, then checks and scatters them at finalize(), where its
/// violations throw. Either way each slot accumulates kept contributions
/// in add order, then the per-source-rank blocks, so the modes are
/// bit-identical.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "la/dist_matrix.hpp"
#include "la/dist_vector.hpp"
#include "la/halo.hpp"
#include "la/index_map.hpp"

namespace hetero::la {

class DistSystemBuilder {
 public:
  /// Collective: establishes ownership of the dof gids this rank touches.
  DistSystemBuilder(simmpi::Comm& comm, std::vector<GlobalId> touched);
  ~DistSystemBuilder();

  /// Starts an assembly round; clears pending contributions.
  void begin_assembly();

  /// Adds A(row, col) += value. After the structure is frozen, calls must
  /// repeat the first round's (row, col) sequence exactly.
  void add_matrix(GlobalId row, GlobalId col, double value);

  /// Adds b(row) += value. Rows may repeat freely within a round, but the
  /// sequence must repeat across rounds once frozen.
  void add_rhs(GlobalId row, double value);

  /// Adds a dense element block: A(rows[i], cols[j]) += block[i*cols.size()
  /// + j] in row-major order — the exact add_matrix sequence a nested i/j
  /// loop would produce, so element kernels can hand their matrices over
  /// whole.
  void add_dense_block(std::span<const GlobalId> rows,
                       std::span<const GlobalId> cols,
                       std::span<const double> block);

  /// Adds b(rows[i]) += values[i] for each i, in order.
  void add_rhs_block(std::span<const GlobalId> rows,
                     std::span<const double> values);

  /// Collective: ships contributions, builds (first time) or refills the
  /// distributed system.
  void finalize(simmpi::Comm& comm);

  bool structure_frozen() const { return frozen_; }

  /// Bytes held by the frozen replay plan (capacity of every retained plan
  /// array; 0 before the freeze). The CSR pattern itself, the routed send
  /// buffers and the reference replay's entry buffer are not plan and are
  /// not counted.
  std::size_t plan_bytes() const;

  /// Bytes of the routed-value send buffers, which are also kept from one
  /// refill to the next: 8 B per routed matrix or rhs entry, 0 on one rank.
  std::size_t send_buffer_bytes() const;

  const IndexMap& map() const;
  const HaloExchange& halo() const;
  DistCsrMatrix& matrix();
  const DistCsrMatrix& matrix() const;
  DistVector& rhs();

 private:
  struct GlobalTriplet {
    GlobalId row = 0;
    GlobalId col = 0;
    double value = 0.0;
  };
  struct GlobalPair {
    GlobalId row = 0;
    double value = 0.0;
  };

  class GidCoder;
  struct FirstRound;

  void add_first_round(GlobalId row, GlobalId col, double value);
  void freeze(simmpi::Comm& comm);
  void refill(simmpi::Comm& comm);
  /// Claims the next `n` matrix sequence positions; returns the first.
  std::size_t take_matrix_dests(std::size_t n);
  void check_matrix_entry(std::int32_t dest, GlobalId row,
                          GlobalId col) const;
  void check_rhs_entry(std::int32_t dest, GlobalId row) const;
  void scatter_matrix(std::int32_t dest, double value) {
    if (dest >= 0) {
      values_[dest] += value;
    } else {
      mat_send_[static_cast<std::size_t>(~dest)] = value;
    }
  }
  void scatter_rhs(std::int32_t dest, double value) {
    if (dest >= 0) {
      (*rhs_)[dest] += value;
    } else {
      rhs_send_[static_cast<std::size_t>(~dest)] = value;
    }
  }

  int rank_ = 0;
  std::vector<GlobalId> touched_;          // sorted, unique
  std::vector<int> touched_owner_;         // owner rank per touched_ entry
  std::optional<GidDirectory> directory_;

  // The first round's coder and coded matrix entries, made by its first
  // add and released by the freeze.
  std::unique_ptr<FirstRound> first_;
  // Buffered reference-replay matrix rounds, and every round's rhs (the
  // first round's released by the freeze).
  std::vector<GlobalTriplet> mat_pending_;
  std::vector<GlobalPair> rhs_pending_;

  // Frozen structure.
  bool frozen_ = false;
  std::optional<IndexMap> map_;
  std::unique_ptr<HaloExchange> halo_;
  std::optional<DistCsrMatrix> matrix_;
  std::optional<DistVector> rhs_;

  // Frozen plan (see the file comment).
  // Routed tables are indexed by flat send position (~dest).
  std::vector<std::int32_t> mat_dest_;        // per added matrix entry
  std::vector<GlobalId> mat_routed_col_;      // column gid
  std::vector<std::int32_t> mat_routed_row_;  // row local id (a ghost)
  std::vector<std::int32_t> mat_recv_slot_;   // per received entry
  std::vector<std::int32_t> row_of_slot_;     // owned row per CSR slot
  std::vector<std::size_t> mat_send_off_;     // per-rank send block offsets
  std::vector<std::int32_t> rhs_dest_;        // owned lid, or ~send position
  std::vector<std::int32_t> rhs_routed_row_;
  std::vector<std::int32_t> rhs_recv_lid_;
  std::vector<std::size_t> rhs_send_off_;

  // Refill round state.
  bool scatter_on_add_ = false;  // kFast round: scatter in add_*
  std::size_t mat_pos_ = 0;      // sequence cursors
  std::size_t rhs_pos_ = 0;
  double* values_ = nullptr;     // CSR values of the current round
  const int* col_idx_ = nullptr;
  const GlobalId* gid_of_ = nullptr;      // map gids by local id
  std::vector<double> mat_send_;          // routed values, flat per rank
  std::vector<double> rhs_send_;
};

}  // namespace hetero::la
