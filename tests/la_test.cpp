// Tests for distributed linear algebra: gid directory, index maps, halo
// exchange, vectors, CSR matrices, and the refillable system builder.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "fem/fe_space.hpp"
#include "la/csr_matrix.hpp"
#include "la/dist_matrix.hpp"
#include "la/dist_vector.hpp"
#include "la/halo.hpp"
#include "la/index_map.hpp"
#include "la/kernels.hpp"
#include "la/system_builder.hpp"
#include "mesh/box_mesh.hpp"
#include "netsim/fabric.hpp"
#include "simmpi/runtime.hpp"

namespace hetero::la {
namespace {

simmpi::Runtime make_runtime(int ranks) {
  return simmpi::Runtime(netsim::Topology::uniform(
      ranks, 2, netsim::Fabric::gigabit_ethernet(),
      netsim::Fabric::shared_memory()));
}

/// 1-D overlapping decomposition: rank r touches gids [10r, 10r+10], so
/// adjacent ranks share one gid (10r) — a minimal partition interface.
std::vector<GlobalId> touched_1d(int rank) {
  std::vector<GlobalId> t;
  for (GlobalId g = 10 * rank; g <= 10 * rank + 10; ++g) {
    t.push_back(g);
  }
  return t;
}

TEST(GidDirectory, SharedGidsGoToLowestRank) {
  auto rt = make_runtime(3);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto owners = dir.lookup(comm, touched);
    for (std::size_t i = 0; i < touched.size(); ++i) {
      const GlobalId g = touched[i];
      // gid 10r (r>0) is shared between ranks r-1 and r: min rank wins.
      // The top gid (30) is touched only by the last rank, and the formula
      // g/10 - 1 = 2 happens to be that rank as well.
      if (g % 10 == 0 && g > 0) {
        EXPECT_EQ(owners[i], static_cast<int>(g / 10) - 1) << "gid " << g;
      } else {
        EXPECT_EQ(owners[i], static_cast<int>(g / 10)) << "gid " << g;
      }
    }
  });
}

TEST(GidDirectory, LookupOfUnregisteredGidThrows) {
  auto rt = make_runtime(2);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
                 const auto dir =
                     GidDirectory::build(comm, touched_1d(comm.rank()));
                 const std::vector<GlobalId> bogus{999999};
                 dir.lookup(comm, bogus);
               }),
               Error);
}

TEST(IndexMap, OwnedSetsPartitionTheGlobalIds) {
  auto rt = make_runtime(4);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    // 4 ranks x 11 touched with 3 shared interfaces: 41 global ids.
    EXPECT_EQ(map.global_count(), 41);
    EXPECT_EQ(map.local_count(), 11);
    EXPECT_EQ(map.owned_count() + map.ghost_count(), 11);
    // Every local gid resolves back to its local index.
    for (int l = 0; l < map.local_count(); ++l) {
      EXPECT_EQ(map.local(map.gid(l)), l);
    }
    EXPECT_EQ(map.local(424242), kInvalidLocal);
    // Ghosts know a valid foreign owner.
    for (int l = map.owned_count(); l < map.local_count(); ++l) {
      EXPECT_NE(map.ghost_owner(l), comm.rank());
      EXPECT_GE(map.ghost_owner(l), 0);
      EXPECT_LT(map.ghost_owner(l), comm.size());
    }
  });
}

TEST(IndexMap, ExtraGhostsAreIncluded) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    // Rank 0 additionally needs gid 15 (owned by rank 1).
    std::vector<GlobalId> extra;
    if (comm.rank() == 0) {
      extra.push_back(15);
    }
    const auto map = IndexMap::build(comm, dir, touched, extra);
    if (comm.rank() == 0) {
      const int l = map.local(15);
      ASSERT_NE(l, kInvalidLocal);
      EXPECT_FALSE(map.is_owned_local(l));
      EXPECT_EQ(map.ghost_owner(l), 1);
    }
  });
}

TEST(HaloExchange, ImportMovesOwnerValuesToGhosts) {
  auto rt = make_runtime(3);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    HaloExchange halo(comm, map);
    DistVector v(map);
    // Owner writes gid as the value; ghosts start poisoned.
    for (int l = 0; l < map.owned_count(); ++l) {
      v[l] = static_cast<double>(map.gid(l));
    }
    for (int l = map.owned_count(); l < map.local_count(); ++l) {
      v[l] = -1.0;
    }
    v.update_ghosts(comm, halo);
    for (int l = 0; l < map.local_count(); ++l) {
      EXPECT_DOUBLE_EQ(v[l], static_cast<double>(map.gid(l)));
    }
  });
}

TEST(HaloExchange, ExportAddAccumulatesIntoOwners) {
  auto rt = make_runtime(3);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    HaloExchange halo(comm, map);
    DistVector v(map);
    // Everybody contributes 1 at every local slot; after export-add each
    // owned slot holds the number of ranks touching that gid.
    v.set_all(1.0);
    halo.export_add(comm, v.values());
    for (int l = 0; l < map.owned_count(); ++l) {
      const GlobalId g = map.gid(l);
      const bool shared = (g % 10 == 0) && g > 0 && g < 30;
      EXPECT_DOUBLE_EQ(v[l], shared ? 2.0 : 1.0) << "gid " << g;
    }
    // Ghost slots were zeroed by the export.
    for (int l = map.owned_count(); l < map.local_count(); ++l) {
      EXPECT_DOUBLE_EQ(v[l], 0.0);
    }
  });
}

TEST(DistVector, DotAndNormsMatchSerial) {
  auto rt = make_runtime(4);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    DistVector x(map);
    DistVector y(map);
    // x(g) = g, y(g) = 1 over all 41 global ids.
    for (int l = 0; l < map.owned_count(); ++l) {
      x[l] = static_cast<double>(map.gid(l));
      y[l] = 1.0;
    }
    double expect_dot = 0.0;
    double expect_norm2 = 0.0;
    for (GlobalId g = 0; g <= 40; ++g) {
      expect_dot += static_cast<double>(g);
      expect_norm2 += static_cast<double>(g) * static_cast<double>(g);
    }
    EXPECT_DOUBLE_EQ(x.dot(comm, y), expect_dot);
    EXPECT_NEAR(x.norm2(comm), std::sqrt(expect_norm2), 1e-10);
    EXPECT_DOUBLE_EQ(x.norm_inf(comm), 40.0);
  });
}

TEST(DistVector, AxpyOperations) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    DistVector x(map);
    DistVector y(map);
    x.set_all(2.0);
    y.set_all(3.0);
    y.axpy(10.0, x);  // y = 23
    EXPECT_DOUBLE_EQ(y[0], 23.0);
    y.axpby(1.0, x, -1.0);  // y = 2 - 23 = -21
    EXPECT_DOUBLE_EQ(y[0], -21.0);
    y.scale(-1.0);
    EXPECT_DOUBLE_EQ(y[0], 21.0);
  });
}

TEST(CsrMatrix, FromTripletsMergesDuplicates) {
  const std::vector<Triplet> t{
      {0, 0, 1.0}, {0, 1, 2.0}, {0, 0, 3.0}, {1, 1, 5.0},
  };
  const auto m = CsrMatrix::from_triplets(2, 2, t);
  EXPECT_EQ(m.nonzeros(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_EQ(m.slot(1, 0), -1);
}

TEST(CsrMatrix, MultiplyKnownValues) {
  const std::vector<Triplet> t{
      {0, 0, 2.0}, {0, 2, 1.0}, {1, 1, -1.0}, {2, 0, 3.0}, {2, 2, 4.0},
  };
  const auto m = CsrMatrix::from_triplets(3, 3, t);
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y(3, 0.0);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  EXPECT_DOUBLE_EQ(y[2], 15.0);
  m.multiply_add(x, y);  // doubles
  EXPECT_DOUBLE_EQ(y[2], 30.0);
  const auto d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[1], -1.0);
}

TEST(CsrMatrix, SymmetryErrorDetectsAsymmetry) {
  const std::vector<Triplet> sym{
      {0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 2.0},
  };
  EXPECT_DOUBLE_EQ(CsrMatrix::from_triplets(2, 2, sym).symmetry_error(),
                   0.0);
  const std::vector<Triplet> asym{
      {0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -0.25}, {1, 1, 2.0},
  };
  EXPECT_DOUBLE_EQ(CsrMatrix::from_triplets(2, 2, asym).symmetry_error(),
                   0.75);
  // Entries only on one side count fully.
  const std::vector<Triplet> oneside{{0, 1, 3.0}};
  EXPECT_DOUBLE_EQ(
      CsrMatrix::from_triplets(2, 2, oneside).symmetry_error(), 3.0);
}

TEST(CsrMatrix, FrobeniusNorm) {
  const std::vector<Triplet> t{{0, 0, 3.0}, {1, 1, 4.0}};
  EXPECT_DOUBLE_EQ(CsrMatrix::from_triplets(2, 2, t).frobenius_norm(), 5.0);
}

class HaloRoundTripRanks : public ::testing::TestWithParam<int> {};

TEST_P(HaloRoundTripRanks, ImportThenExportConservesTotals) {
  // Property: setting owned values, importing ghosts, then export-adding
  // multiplies each shared dof's owned value by (1 + #ghost copies); with
  // values = 1 the global sum becomes sum over ranks of local_count.
  auto rt = make_runtime(GetParam());
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    HaloExchange halo(comm, map);
    DistVector v(map);
    for (int l = 0; l < map.owned_count(); ++l) {
      v[l] = 1.0;
    }
    v.update_ghosts(comm, halo);
    halo.export_add(comm, v.values());
    double local = 0.0;
    for (int l = 0; l < map.owned_count(); ++l) {
      local += v[l];
    }
    const double global = comm.allreduce(local, simmpi::ReduceOp::kSum);
    const auto local_counts = comm.allreduce(
        static_cast<std::int64_t>(map.local_count()), simmpi::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(global, static_cast<double>(local_counts));
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, HaloRoundTripRanks,
                         ::testing::Values(1, 2, 4, 6));

TEST(CsrMatrix, RejectsOutOfRangeTriplets) {
  const std::vector<Triplet> t{{0, 5, 1.0}};
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, t), Error);
}

/// Assembles a global 1-D Laplacian over gids 0..n-1 through the system
/// builder, each rank contributing its "elements" (pairs of adjacent gids)
/// like a FEM code, then compares matvec results against the serial stencil.
void check_distributed_laplacian(int ranks) {
  auto rt = make_runtime(ranks);
  const int n_elems = 12;  // elements (i, i+1), i = 0..11; gids 0..12
  rt.run([&](simmpi::Comm& comm) {
    // Block distribution of elements.
    const int per = (n_elems + comm.size() - 1) / comm.size();
    const int e0 = comm.rank() * per;
    const int e1 = std::min(n_elems, e0 + per);
    std::vector<GlobalId> touched;
    for (int e = e0; e < e1; ++e) {
      touched.push_back(e);
      touched.push_back(e + 1);
    }
    DistSystemBuilder builder(comm, touched);
    auto assemble = [&](double scale) {
      builder.begin_assembly();
      for (int e = e0; e < e1; ++e) {
        // Element stiffness [1 -1; -1 1], load [0.5, 0.5].
        builder.add_matrix(e, e, scale);
        builder.add_matrix(e, e + 1, -scale);
        builder.add_matrix(e + 1, e, -scale);
        builder.add_matrix(e + 1, e + 1, scale);
        builder.add_rhs(e, 0.5 * scale);
        builder.add_rhs(e + 1, 0.5 * scale);
      }
      builder.finalize(comm);
    };
    assemble(1.0);

    const IndexMap& map = builder.map();
    EXPECT_EQ(map.global_count(), n_elems + 1);

    // y = A x with x(g) = g^2: interior rows give -((g-1)^2 - 2g^2 + (g+1)^2)
    // = -2; boundary rows g^2 - (g±1)^2.
    DistVector x(map);
    DistVector y(map);
    for (int l = 0; l < map.local_count(); ++l) {
      x[l] = static_cast<double>(map.gid(l) * map.gid(l));
    }
    builder.matrix().multiply(comm, x, y);
    for (int l = 0; l < map.owned_count(); ++l) {
      const GlobalId g = map.gid(l);
      double expect = -2.0;
      if (g == 0) {
        expect = 0.0 - 1.0;
      } else if (g == n_elems) {
        expect = static_cast<double>(g * g - (g - 1) * (g - 1));
      }
      EXPECT_NEAR(y[l], expect, 1e-12) << "row gid " << g;
    }
    // RHS: 0.5 per incident element.
    for (int l = 0; l < map.owned_count(); ++l) {
      const GlobalId g = map.gid(l);
      const double expect = (g == 0 || g == n_elems) ? 0.5 : 1.0;
      EXPECT_NEAR(builder.rhs()[l], expect, 1e-12);
    }

    // Refill with doubled values; everything must exactly double.
    assemble(2.0);
    builder.matrix().multiply(comm, x, y);
    for (int l = 0; l < map.owned_count(); ++l) {
      const GlobalId g = map.gid(l);
      double expect = -4.0;
      if (g == 0) {
        expect = -2.0;
      } else if (g == n_elems) {
        expect = 2.0 * static_cast<double>(g * g - (g - 1) * (g - 1));
      }
      EXPECT_NEAR(y[l], expect, 1e-12);
    }
  });
}

TEST(DistSystemBuilder, LaplacianOn1Rank) { check_distributed_laplacian(1); }
TEST(DistSystemBuilder, LaplacianOn2Ranks) { check_distributed_laplacian(2); }
TEST(DistSystemBuilder, LaplacianOn4Ranks) { check_distributed_laplacian(4); }

TEST(DistSystemBuilder, DeterministicAcrossIdenticalRuns) {
  // The whole assembly pipeline (directory, routing, CSR layout) must be
  // bit-reproducible: two identical runs produce identical matvecs.
  auto run_once = [&]() {
    std::vector<double> result;
    auto rt = make_runtime(3);
    rt.run([&](simmpi::Comm& comm) {
      const int n = 12;
      const int per = (n + comm.size() - 1) / comm.size();
      const int e0 = comm.rank() * per;
      const int e1 = std::min(n, e0 + per);
      std::vector<GlobalId> touched;
      for (int e = e0; e < e1; ++e) {
        touched.push_back(e);
        touched.push_back(e + 1);
      }
      DistSystemBuilder builder(comm, touched);
      builder.begin_assembly();
      for (int e = e0; e < e1; ++e) {
        builder.add_matrix(e, e, 1.5);
        builder.add_matrix(e, e + 1, -0.5);
        builder.add_matrix(e + 1, e, -0.5);
        builder.add_matrix(e + 1, e + 1, 1.5);
      }
      builder.finalize(comm);
      DistVector x(builder.map());
      DistVector y(builder.map());
      for (int l = 0; l < x.local_count(); ++l) {
        x[l] = 0.1 * static_cast<double>(builder.map().gid(l));
      }
      builder.matrix().multiply(comm, x, y);
      const auto gathered = comm.gatherv(
          std::vector<double>(y.owned().begin(), y.owned().end()), 0);
      if (comm.rank() == 0) {
        result = gathered;
      }
    });
    return result;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(DistSystemBuilder, RefillWithChangedStructureThrows) {
  auto rt = make_runtime(2);
  EXPECT_THROW(
      rt.run([&](simmpi::Comm& comm) {
        std::vector<GlobalId> touched{comm.rank(), comm.rank() + 1};
        DistSystemBuilder builder(comm, touched);
        builder.begin_assembly();
        builder.add_matrix(comm.rank(), comm.rank(), 1.0);
        builder.finalize(comm);
        builder.begin_assembly();
        builder.add_matrix(comm.rank(), comm.rank() + 1, 1.0);  // new slot
        builder.finalize(comm);
      }),
      Error);
}

TEST(DistSystemBuilder, ContributionToUndeclaredRowThrows) {
  auto rt = make_runtime(2);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
                 std::vector<GlobalId> touched{0, 1};
                 DistSystemBuilder builder(comm, touched);
                 builder.begin_assembly();
                 builder.add_matrix(50, 50, 1.0);
                 builder.finalize(comm);
               }),
               Error);
}

/// Runs `body` once under each kernel mode, then restores the mode.
void for_each_kernel_mode(const std::function<void()>& body) {
  const KernelMode saved = kernel_mode();
  for (const KernelMode mode : {KernelMode::kReference, KernelMode::kFast}) {
    SCOPED_TRACE(mode == KernelMode::kFast ? "fast kernels"
                                           : "reference kernels");
    set_kernel_mode(mode);
    body();
  }
  set_kernel_mode(saved);
}

/// Elements [e0, e1) of the 12-element 1-D Laplacian, block-distributed.
struct ElementRange {
  int e0 = 0;
  int e1 = 0;
};

ElementRange element_range(const simmpi::Comm& comm) {
  const int n_elems = 12;
  const int per = (n_elems + comm.size() - 1) / comm.size();
  const int e0 = comm.rank() * per;
  return {e0, std::min(n_elems, e0 + per)};
}

std::vector<GlobalId> touched_of(ElementRange r) {
  std::vector<GlobalId> touched;
  for (int e = r.e0; e < r.e1; ++e) {
    touched.push_back(e);
    touched.push_back(e + 1);
  }
  return touched;
}

struct MatrixEntry {
  GlobalId row = 0;
  GlobalId col = 0;
  double value = 0.0;
};

/// Each element adds its stiffness and load in three non-dyadic pieces
/// scaled by (1 + 0.01 e), so an interior diagonal slot sums six
/// contributions. These values make the sum at every rank-boundary slot
/// depend on the summation order at p = 2 and p = 4.
constexpr double kPieces[] = {0.1, 1.0 / 3.0, 2.0 / 7.0};

/// The matrix entries of one round of the 1-D Laplacian, in add order.
std::vector<MatrixEntry> laplacian_round(ElementRange r) {
  std::vector<MatrixEntry> entries;
  for (int e = r.e0; e < r.e1; ++e) {
    for (const double piece : kPieces) {
      const double s = piece * (1.0 + 0.01 * e);
      entries.push_back({e, e, s});
      entries.push_back({e, e + 1, -s});
      entries.push_back({e + 1, e, -s});
      entries.push_back({e + 1, e + 1, s});
    }
  }
  return entries;
}

/// Adds `matrix`, then the round's load (0.5·s per piece at both gids).
void add_round(DistSystemBuilder& builder, ElementRange r,
               const std::vector<MatrixEntry>& matrix) {
  for (const MatrixEntry& e : matrix) {
    builder.add_matrix(e.row, e.col, e.value);
  }
  for (int e = r.e0; e < r.e1; ++e) {
    for (const double piece : kPieces) {
      const double s = piece * (1.0 + 0.01 * e);
      builder.add_rhs(e, 0.5 * s);
      builder.add_rhs(e + 1, 0.5 * s);
    }
  }
}

std::vector<std::uint64_t> bit_patterns(std::span<const double> values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return bits;
}

TEST(DistSystemBuilder, FirstRoundEqualsRefillBitForBit) {
  // The freeze sums the first round in the replay order (kept entries in
  // add order, then per-source-rank blocks), so refilling the identical
  // round reproduces every bit of the matrix and the rhs.
  for (const int ranks : {1, 2, 4}) {
    SCOPED_TRACE("ranks " + std::to_string(ranks));
    for_each_kernel_mode([&] {
      auto rt = make_runtime(ranks);
      rt.run([&](simmpi::Comm& comm) {
        const ElementRange r = element_range(comm);
        DistSystemBuilder builder(comm, touched_of(r));
        builder.begin_assembly();
        add_round(builder, r, laplacian_round(r));
        builder.finalize(comm);
        const auto first_a = bit_patterns(builder.matrix().local().values());
        const auto first_b = bit_patterns(builder.rhs().owned());

        builder.begin_assembly();
        add_round(builder, r, laplacian_round(r));
        builder.finalize(comm);
        EXPECT_EQ(bit_patterns(builder.matrix().local().values()), first_a);
        EXPECT_EQ(bit_patterns(builder.rhs().owned()), first_b);
      });
    });
  }
}

/// Freezes the 1-D Laplacian at p = 2, then refills it with the round's
/// matrix entries after `edit` has changed them on rank `rank`, and expects
/// an Error whose message contains `message`. Rank 0 owns the shared gid 6,
/// so rank 1's entries in row 6 are routed.
void expect_refill_error(
    int rank, const std::function<void(std::vector<MatrixEntry>&)>& edit,
    const std::string& message) {
  for_each_kernel_mode([&] {
    auto rt = make_runtime(2);
    try {
      rt.run([&](simmpi::Comm& comm) {
        const ElementRange r = element_range(comm);
        DistSystemBuilder builder(comm, touched_of(r));
        builder.begin_assembly();
        add_round(builder, r, laplacian_round(r));
        builder.finalize(comm);
        std::vector<MatrixEntry> matrix = laplacian_round(r);
        if (comm.rank() == rank) {
          edit(matrix);
        }
        builder.begin_assembly();
        add_round(builder, r, matrix);
        builder.finalize(comm);
      });
      ADD_FAILURE() << "refill did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  });
}

const char* const kSequenceChanged =
    "refill changed the matrix sparsity sequence";
const char* const kCountChanged =
    "refill produced a different number of matrix entries";

/// Moves the first entry A(row, from) to column `to`.
std::function<void(std::vector<MatrixEntry>&)> move_column(GlobalId row,
                                                           GlobalId from,
                                                           GlobalId to) {
  return [=](std::vector<MatrixEntry>& matrix) {
    const auto it = std::find_if(
        matrix.begin(), matrix.end(),
        [&](const MatrixEntry& e) { return e.row == row && e.col == from; });
    ASSERT_NE(it, matrix.end());
    it->col = to;
  };
}

TEST(DistSystemBuilder, RefillChangingAKeptColumnThrows) {
  // Rank 0 owns row 1: a locally kept entry.
  expect_refill_error(0, move_column(1, 2, 3), kSequenceChanged);
}

TEST(DistSystemBuilder, RefillChangingARoutedColumnThrows) {
  // Rank 0 owns row 6, so rank 1's entries in it are routed.
  expect_refill_error(1, move_column(6, 7, 8), kSequenceChanged);
}

TEST(DistSystemBuilder, RefillWithOneEntryTooManyThrows) {
  expect_refill_error(
      1, [](std::vector<MatrixEntry>& m) { m.push_back(m.back()); },
      kCountChanged);
}

TEST(DistSystemBuilder, RefillWithOneEntryTooFewThrows) {
  expect_refill_error(
      1, [](std::vector<MatrixEntry>& m) { m.pop_back(); }, kCountChanged);
}

TEST(DistSystemBuilder, DenseBlockWithPermutedGidsThrows) {
  // The same element matrices handed over with the element's gids in the
  // opposite order: mathematically the same operator, a different
  // sequence.
  for (const bool permute : {false, true}) {
    SCOPED_TRACE(permute ? "permuted refill" : "identical refill");
    for_each_kernel_mode([&] {
      auto rt = make_runtime(2);
      auto run = [&] {
        rt.run([&](simmpi::Comm& comm) {
          const ElementRange r = element_range(comm);
          DistSystemBuilder builder(comm, touched_of(r));
          auto round = [&](bool swapped) {
            builder.begin_assembly();
            for (int e = r.e0; e < r.e1; ++e) {
              const double s = 0.1 * (1.0 + 0.01 * e);
              std::vector<GlobalId> gids{e, e + 1};
              if (swapped) {
                std::swap(gids[0], gids[1]);
              }
              const std::vector<double> block{s, -s, -s, s};
              builder.add_dense_block(gids, gids, block);
            }
            builder.finalize(comm);
          };
          round(false);
          round(permute);
        });
      };
      if (permute) {
        try {
          run();
          ADD_FAILURE() << "permuted refill did not throw";
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find(kSequenceChanged),
                    std::string::npos)
              << e.what();
        }
      } else {
        EXPECT_NO_THROW(run());
      }
    });
  }
}

TEST(DistSystemBuilder, RoutedColumnOutsideTheSendersTouchedSet) {
  // Rank 0 touches {0, 1, 2} and rank 1 touches {2, 3, 4}, so rank 0 owns
  // the shared gid 2. Rank 1 adds A(2, 0): a routed entry whose column it
  // never touched. Only the owner may learn of gid 0; the sender's map
  // stays its touched set (owned 3, 4; ghost 2). Slot A(2, 0) sums rank 0's
  // two pieces in add order, then rank 1's routed piece.
  const double x1 = 0.1, x2 = 1.0 / 3.0, v = 2.0 / 7.0;
  const double d0 = 1.0 / 11.0, d1 = 3.0 / 13.0;
  for_each_kernel_mode([&] {
    auto rt = make_runtime(2);
    rt.run([&](simmpi::Comm& comm) {
      const bool sender = comm.rank() == 1;
      DistSystemBuilder builder(
          comm, sender ? std::vector<GlobalId>{2, 3, 4}
                       : std::vector<GlobalId>{0, 1, 2});
      for (int round = 0; round < 2; ++round) {
        builder.begin_assembly();
        if (sender) {
          builder.add_matrix(3, 3, 1.0);
          builder.add_matrix(4, 4, 1.0);
          builder.add_matrix(2, 0, v);
          builder.add_matrix(2, 2, d1);
        } else {
          builder.add_matrix(0, 0, 1.0);
          builder.add_matrix(1, 1, 1.0);
          builder.add_matrix(2, 0, x1);
          builder.add_matrix(2, 2, d0);
          builder.add_matrix(2, 0, x2);
        }
        builder.finalize(comm);
        SCOPED_TRACE("round " + std::to_string(round));
        const IndexMap& map = builder.map();
        if (sender) {
          std::vector<GlobalId> gids = map.gids();
          std::sort(gids.begin(), gids.end());
          EXPECT_EQ(gids, (std::vector<GlobalId>{2, 3, 4}));
          EXPECT_EQ(map.ghost_count(), 1);
        } else {
          const CsrMatrix& a = builder.matrix().local();
          const int row = map.local(2);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a.at(row, map.local(0))),
                    std::bit_cast<std::uint64_t>((x1 + x2) + v));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a.at(row, row)),
                    std::bit_cast<std::uint64_t>(d0 + d1));
        }
      }
    });
  });
}

struct BytesPerEntry {
  double plan = 0.0;      // plan_bytes()
  double retained = 0.0;  // plan_bytes() + send_buffer_bytes()
};

/// Plan and retained bytes per assembled matrix entry of an RD P2 system
/// with `cells` cells per rank axis, each the worst rank's ratio.
BytesPerEntry worst_bytes_per_entry(int ranks, int cells) {
  BytesPerEntry worst;
  std::mutex mutex;
  auto rt = make_runtime(ranks);
  rt.run([&](simmpi::Comm& comm) {
    const int per_axis = static_cast<int>(std::lround(std::cbrt(ranks)));
    const int global = cells * per_axis;
    mesh::BoxMeshSpec spec{global, global, global};
    mesh::BlockDecomposition dec(spec, comm.size());
    const auto sub = mesh::build_box_submesh(spec, dec.box(comm.rank()));
    fem::FeSpace space(sub, 2, spec.vertex_count());
    const auto n = static_cast<std::size_t>(space.dofs_per_tet());
    std::vector<GlobalId> gids(n);
    const std::vector<double> block(n * n, 1.0);
    const std::vector<double> load(n, 1.0);

    DistSystemBuilder builder(comm, space.dof_gids());
    EXPECT_EQ(builder.plan_bytes(), 0u);
    EXPECT_EQ(builder.send_buffer_bytes(), 0u);
    builder.begin_assembly();
    for (std::size_t t = 0; t < sub.tet_count(); ++t) {
      space.tet_dof_gids(t, gids);
      builder.add_dense_block(gids, gids, block);
      builder.add_rhs_block(gids, load);
    }
    builder.finalize(comm);
    const double entries = static_cast<double>(sub.tet_count() * n * n);
    const double plan = static_cast<double>(builder.plan_bytes()) / entries;
    const double sends =
        static_cast<double>(builder.send_buffer_bytes()) / entries;
    // At least the one int32 destination per entry is counted.
    EXPECT_GE(plan, 4.0);
    if (comm.size() == 1) {
      EXPECT_EQ(builder.send_buffer_bytes(), 0u);
    }
    std::lock_guard<std::mutex> lock(mutex);
    worst.plan = std::max(worst.plan, plan);
    worst.retained = std::max(worst.retained, plan + sends);
  });
  return worst;
}

TEST(DistSystemBuilder, PlanBytesStayUnderEightPerEntry) {
  // The frozen plan keeps one int32 per assembled entry plus small
  // per-slot and routed-entry tables. A stored (row, col, value) sequence
  // with per-entry slot, rank and offset arrays takes 56 B.
  for (const int ranks : {1, 8}) {
    const BytesPerEntry worst = worst_bytes_per_entry(ranks, 6);
    EXPECT_LE(worst.plan, 8.0) << "ranks " << ranks;
    std::printf("bytes per entry, p=%d: plan %.2f, with send buffers %.2f\n",
                ranks, worst.plan, worst.retained);
  }
}

}  // namespace
}  // namespace hetero::la
