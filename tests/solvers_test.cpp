// Tests for the Krylov solvers and preconditioners on distributed systems
// with known solutions.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

#include "fem/assembler.hpp"
#include "fem/fe_space.hpp"
#include "la/kernels.hpp"
#include "la/system_builder.hpp"
#include "mesh/box_mesh.hpp"
#include "netsim/fabric.hpp"
#include "simmpi/runtime.hpp"
#include "solvers/krylov.hpp"
#include "solvers/preconditioner.hpp"

namespace hetero::solvers {
namespace {

simmpi::Runtime make_runtime(int ranks) {
  return simmpi::Runtime(netsim::Topology::uniform(
      ranks, 2, netsim::Fabric::infiniband_ddr_4x(),
      netsim::Fabric::shared_memory()));
}

/// Builds the 1-D Dirichlet Laplacian (tridiagonal [-1, 2, -1]) of size n
/// over `comm`, block-distributed, with rhs = A * x_exact where
/// x_exact(g) = sin(pi (g+1) / (n+1)).
struct Poisson1d {
  std::unique_ptr<la::DistSystemBuilder> builder;
  la::GlobalId n = 0;

  Poisson1d(simmpi::Comm& comm, la::GlobalId n_rows) : n(n_rows) {
    const la::GlobalId per =
        (n + comm.size() - 1) / comm.size();
    const la::GlobalId r0 = comm.rank() * per;
    const la::GlobalId r1 = std::min<la::GlobalId>(n, r0 + per);
    std::vector<la::GlobalId> touched;
    for (la::GlobalId g = r0; g < r1; ++g) {
      touched.push_back(g);
      if (g > 0) {
        touched.push_back(g - 1);
      }
      if (g + 1 < n) {
        touched.push_back(g + 1);
      }
    }
    builder = std::make_unique<la::DistSystemBuilder>(comm, touched);
    builder->begin_assembly();
    for (la::GlobalId g = r0; g < r1; ++g) {
      builder->add_matrix(g, g, 2.0);
      if (g > 0) {
        builder->add_matrix(g, g - 1, -1.0);
      }
      if (g + 1 < n) {
        builder->add_matrix(g, g + 1, -1.0);
      }
      builder->add_rhs(g, rhs_value(g));
    }
    builder->finalize(comm);
  }

  double exact(la::GlobalId g) const {
    return std::sin(M_PI * static_cast<double>(g + 1) /
                    static_cast<double>(n + 1));
  }
  double rhs_value(la::GlobalId g) const {
    const double left = g > 0 ? exact(g - 1) : 0.0;
    const double right = g + 1 < n ? exact(g + 1) : 0.0;
    return 2.0 * exact(g) - left - right;
  }

  void expect_solution(simmpi::Comm& comm, const la::DistVector& x,
                       double tol) const {
    const auto& map = builder->map();
    for (int l = 0; l < map.owned_count(); ++l) {
      EXPECT_NEAR(x[l], exact(map.gid(l)), tol) << "gid " << map.gid(l);
    }
    (void)comm;
  }
};

class CgRanks : public ::testing::TestWithParam<int> {};

TEST_P(CgRanks, SolvesPoissonExactly) {
  auto rt = make_runtime(GetParam());
  rt.run([&](simmpi::Comm& comm) {
    Poisson1d sys(comm, 64);
    la::DistVector x(sys.builder->map());
    JacobiPreconditioner jacobi;
    jacobi.build(sys.builder->matrix());
    SolverConfig config;
    config.rel_tolerance = 1e-12;
    const auto report = cg_solve(comm, sys.builder->matrix(), jacobi,
                                 sys.builder->rhs(), x, config);
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(report.solver, "cg");
    EXPECT_GT(report.iterations, 0);
    EXPECT_LT(report.final_residual, 1e-10);
    sys.expect_solution(comm, x, 1e-8);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CgRanks, ::testing::Values(1, 2, 3, 4));

TEST(Cg, Ilu0BeatsIdentityOnIterationCount) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    Poisson1d sys(comm, 128);
    SolverConfig config;
    config.rel_tolerance = 1e-10;
    config.max_iterations = 500;

    la::DistVector x_id(sys.builder->map());
    IdentityPreconditioner identity;
    identity.build(sys.builder->matrix());
    const auto rep_id = cg_solve(comm, sys.builder->matrix(), identity,
                                 sys.builder->rhs(), x_id, config);

    la::DistVector x_ilu(sys.builder->map());
    Ilu0Preconditioner ilu;
    ilu.build(sys.builder->matrix());
    const auto rep_ilu = cg_solve(comm, sys.builder->matrix(), ilu,
                                  sys.builder->rhs(), x_ilu, config);

    EXPECT_TRUE(rep_id.converged);
    EXPECT_TRUE(rep_ilu.converged);
    EXPECT_LT(rep_ilu.iterations, rep_id.iterations);
    sys.expect_solution(comm, x_ilu, 1e-7);
  });
}

TEST(Ilu0, ExactForSerialSystem) {
  // On one rank, ILU(0) of a tridiagonal matrix is a complete LU
  // factorization, so preconditioned CG converges in a handful of
  // iterations regardless of size.
  auto rt = make_runtime(1);
  rt.run([&](simmpi::Comm& comm) {
    Poisson1d sys(comm, 200);
    la::DistVector x(sys.builder->map());
    Ilu0Preconditioner ilu;
    ilu.build(sys.builder->matrix());
    SolverConfig config;
    config.rel_tolerance = 1e-12;
    const auto report = cg_solve(comm, sys.builder->matrix(), ilu,
                                 sys.builder->rhs(), x, config);
    EXPECT_TRUE(report.converged);
    EXPECT_LE(report.iterations, 3);
    sys.expect_solution(comm, x, 1e-9);
  });
}

/// Nonsymmetric convection-diffusion system: [-1-c, 2, -1+c] stencil.
struct ConvDiff1d {
  std::unique_ptr<la::DistSystemBuilder> builder;
  la::GlobalId n = 0;
  double c = 0.4;

  ConvDiff1d(simmpi::Comm& comm, la::GlobalId n_rows) : n(n_rows) {
    const la::GlobalId per = (n + comm.size() - 1) / comm.size();
    const la::GlobalId r0 = comm.rank() * per;
    const la::GlobalId r1 = std::min<la::GlobalId>(n, r0 + per);
    std::vector<la::GlobalId> touched;
    for (la::GlobalId g = r0; g < r1; ++g) {
      touched.push_back(g);
      if (g > 0) touched.push_back(g - 1);
      if (g + 1 < n) touched.push_back(g + 1);
    }
    builder = std::make_unique<la::DistSystemBuilder>(comm, touched);
    builder->begin_assembly();
    for (la::GlobalId g = r0; g < r1; ++g) {
      builder->add_matrix(g, g, 2.0);
      if (g > 0) builder->add_matrix(g, g - 1, -1.0 - c);
      if (g + 1 < n) builder->add_matrix(g, g + 1, -1.0 + c);
      // rhs = A * ones.
      double row_sum = 2.0;
      if (g > 0) row_sum += -1.0 - c;
      if (g + 1 < n) row_sum += -1.0 + c;
      builder->add_rhs(g, row_sum);
    }
    builder->finalize(comm);
  }
};

class NonsymSolver : public ::testing::TestWithParam<const char*> {};

TEST_P(NonsymSolver, SolvesConvectionDiffusion) {
  auto rt = make_runtime(3);
  rt.run([&](simmpi::Comm& comm) {
    ConvDiff1d sys(comm, 60);
    la::DistVector x(sys.builder->map());
    Ilu0Preconditioner ilu;
    ilu.build(sys.builder->matrix());
    SolverConfig config;
    config.rel_tolerance = 1e-10;
    config.max_iterations = 400;
    config.restart = 20;
    const std::string which = GetParam();
    const auto report =
        which == "bicgstab"
            ? bicgstab_solve(comm, sys.builder->matrix(), ilu,
                             sys.builder->rhs(), x, config)
            : gmres_solve(comm, sys.builder->matrix(), ilu,
                          sys.builder->rhs(), x, config);
    EXPECT_TRUE(report.converged) << report.solver;
    const auto& map = sys.builder->map();
    for (int l = 0; l < map.owned_count(); ++l) {
      EXPECT_NEAR(x[l], 1.0, 1e-6);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Methods, NonsymSolver,
                         ::testing::Values("bicgstab", "gmres"));

TEST(Gmres, RestartPathStillConverges) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    ConvDiff1d sys(comm, 80);
    la::DistVector x(sys.builder->map());
    IdentityPreconditioner identity;
    identity.build(sys.builder->matrix());
    SolverConfig config;
    config.rel_tolerance = 1e-8;
    config.max_iterations = 2000;
    config.restart = 5;  // force many restarts
    const auto report = gmres_solve(comm, sys.builder->matrix(), identity,
                                    sys.builder->rhs(), x, config);
    EXPECT_TRUE(report.converged);
    EXPECT_GT(report.iterations, 5);
  });
}

TEST(Solvers, ResidualHistoryTracksConvergence) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    Poisson1d sys(comm, 64);
    la::DistVector x(sys.builder->map());
    JacobiPreconditioner jacobi;
    jacobi.build(sys.builder->matrix());
    SolverConfig config;
    config.rel_tolerance = 1e-10;
    config.record_history = true;
    const auto report = cg_solve(comm, sys.builder->matrix(), jacobi,
                                 sys.builder->rhs(), x, config);
    EXPECT_TRUE(report.converged);
    ASSERT_EQ(report.residual_history.size(),
              static_cast<std::size_t>(report.iterations));
    // The last entry is the final residual; the history ends converged.
    EXPECT_DOUBLE_EQ(report.residual_history.back(), report.final_residual);
    EXPECT_LT(report.residual_history.back(),
              report.residual_history.front() + 1e-30);
    // Without the flag nothing is recorded.
    la::DistVector y(sys.builder->map());
    config.record_history = false;
    const auto quiet = cg_solve(comm, sys.builder->matrix(), jacobi,
                                sys.builder->rhs(), y, config);
    EXPECT_TRUE(quiet.residual_history.empty());
  });
}

TEST(Solvers, HistoryWorksForAllMethods) {
  auto rt = make_runtime(1);
  rt.run([&](simmpi::Comm& comm) {
    ConvDiff1d sys(comm, 40);
    Ilu0Preconditioner ilu;
    ilu.build(sys.builder->matrix());
    SolverConfig config;
    config.record_history = true;
    config.restart = 10;
    la::DistVector x1(sys.builder->map());
    const auto bs = bicgstab_solve(comm, sys.builder->matrix(), ilu,
                                   sys.builder->rhs(), x1, config);
    EXPECT_EQ(bs.residual_history.size(),
              static_cast<std::size_t>(bs.iterations));
    la::DistVector x2(sys.builder->map());
    const auto gm = gmres_solve(comm, sys.builder->matrix(), ilu,
                                sys.builder->rhs(), x2, config);
    EXPECT_EQ(gm.residual_history.size(),
              static_cast<std::size_t>(gm.iterations));
  });
}

TEST(Solvers, ZeroRhsConvergesImmediately) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    Poisson1d sys(comm, 32);
    sys.builder->rhs().set_all(0.0);
    la::DistVector x(sys.builder->map());
    JacobiPreconditioner jacobi;
    jacobi.build(sys.builder->matrix());
    SolverConfig config;
    const auto report = cg_solve(comm, sys.builder->matrix(), jacobi,
                                 sys.builder->rhs(), x, config);
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(report.iterations, 0);
    EXPECT_DOUBLE_EQ(x.norm2(comm), 0.0);
  });
}

TEST(Solvers, MaxIterationsIsHonoured) {
  auto rt = make_runtime(1);
  rt.run([&](simmpi::Comm& comm) {
    Poisson1d sys(comm, 256);
    la::DistVector x(sys.builder->map());
    IdentityPreconditioner identity;
    identity.build(sys.builder->matrix());
    SolverConfig config;
    config.rel_tolerance = 1e-14;
    config.max_iterations = 3;
    const auto report = cg_solve(comm, sys.builder->matrix(), identity,
                                 sys.builder->rhs(), x, config);
    EXPECT_FALSE(report.converged);
    EXPECT_EQ(report.iterations, 3);
    EXPECT_GT(report.final_residual, 0.0);
  });
}

TEST(Preconditioner, FactoryNames) {
  EXPECT_EQ(make_preconditioner("identity")->name(), "identity");
  EXPECT_EQ(make_preconditioner("jacobi")->name(), "jacobi");
  EXPECT_EQ(make_preconditioner("ssor")->name(), "ssor");
  EXPECT_EQ(make_preconditioner("ilu0")->name(), "ilu0");
  EXPECT_THROW(make_preconditioner("amg"), Error);
}

TEST(Ssor, AcceleratesCgBetweenJacobiAndIlu0) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    Poisson1d sys(comm, 128);
    // Poisson1d's built-in solution is an eigenvector of the stencil (CG
    // would converge in O(1) iterations for any diagonal preconditioner);
    // use a spectrally rich target instead: rhs = A w.
    const auto& map = sys.builder->map();
    la::DistVector w(map);
    for (int l = 0; l < map.local_count(); ++l) {
      const auto g = static_cast<double>(map.gid(l));
      w[l] = std::sin(0.23 * g) + 0.5 * std::cos(1.7 * g) + 0.01 * g;
    }
    sys.builder->matrix().multiply(comm, w, sys.builder->rhs());
    SolverConfig config;
    config.rel_tolerance = 1e-10;
    config.max_iterations = 600;
    auto iterations_with = [&](Preconditioner& m) {
      m.build(sys.builder->matrix());
      la::DistVector x(sys.builder->map());
      const auto report = cg_solve(comm, sys.builder->matrix(), m,
                                   sys.builder->rhs(), x, config);
      EXPECT_TRUE(report.converged) << m.name();
      for (int l = 0; l < map.owned_count(); ++l) {
        EXPECT_NEAR(x[l], w[l], 1e-6);
      }
      return report.iterations;
    };
    JacobiPreconditioner jacobi;
    SsorPreconditioner ssor;
    Ilu0Preconditioner ilu;
    const int it_jacobi = iterations_with(jacobi);
    const int it_ssor = iterations_with(ssor);
    const int it_ilu = iterations_with(ilu);
    // SSOR must beat diagonal scaling; ILU0 is at least as good as SSOR on
    // this tridiagonal system (it is exact on each local block).
    EXPECT_LT(it_ssor, it_jacobi);
    EXPECT_LE(it_ilu, it_ssor);
  });
}

TEST(Ssor, OmegaIsValidated) {
  EXPECT_THROW(SsorPreconditioner(0.0), Error);
  EXPECT_THROW(SsorPreconditioner(2.0), Error);
  EXPECT_NO_THROW(SsorPreconditioner(1.5));
}

TEST(Ssor, ApplyIsSymmetricOperator) {
  // CG requires a symmetric M^{-1}: check <M^{-1}a, b> == <a, M^{-1}b> on
  // a symmetric matrix.
  auto rt = make_runtime(1);
  rt.run([&](simmpi::Comm& comm) {
    Poisson1d sys(comm, 40);
    SsorPreconditioner ssor(1.3);
    ssor.build(sys.builder->matrix());
    const auto& map = sys.builder->map();
    la::DistVector a(map);
    la::DistVector b(map);
    for (int l = 0; l < map.owned_count(); ++l) {
      a[l] = std::sin(0.7 * l + 0.2);
      b[l] = std::cos(1.3 * l - 0.4);
    }
    la::DistVector ma(map);
    la::DistVector mb(map);
    ssor.apply(a, ma);
    ssor.apply(b, mb);
    EXPECT_NEAR(ma.dot(comm, b), a.dot(comm, mb), 1e-10);
  });
}

TEST(Preconditioner, JacobiRejectsZeroDiagonal) {
  auto rt = make_runtime(1);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
                 std::vector<la::GlobalId> touched{0, 1};
                 la::DistSystemBuilder builder(comm, touched);
                 builder.begin_assembly();
                 builder.add_matrix(0, 1, 1.0);
                 builder.add_matrix(1, 0, 1.0);
                 builder.add_matrix(0, 0, 0.0);
                 builder.add_matrix(1, 1, 1.0);
                 builder.finalize(comm);
                 JacobiPreconditioner jacobi;
                 jacobi.build(builder.matrix());
               }),
               Error);
}

class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(la::KernelMode mode) : saved_(la::kernel_mode()) {
    la::set_kernel_mode(mode);
  }
  ~ScopedKernelMode() { la::set_kernel_mode(saved_); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  la::KernelMode saved_;
};

std::vector<std::uint64_t> bit_patterns(std::span<const double> values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return bits;
}

/// A test matrix: the gids a rank touches, and one assembly round's adds,
/// which repeat the same (row, col) sequence with values that vary by
/// round.
struct TestMatrix {
  std::function<std::vector<la::GlobalId>(const simmpi::Comm&)> touched;
  std::function<void(const simmpi::Comm&, la::DistSystemBuilder&, int round)>
      add;
};

/// Per rank, the bit patterns of the ILU(0) factor values and of one
/// apply() output after each of three builds (the first, then two
/// refactorizations after refills with changed values), and bytes() after
/// the last build.
struct Ilu0Trace {
  std::vector<std::vector<std::vector<std::uint64_t>>> bits;
  std::vector<std::size_t> bytes;
};

Ilu0Trace ilu0_trace(la::KernelMode mode, int ranks, const TestMatrix& m) {
  ScopedKernelMode scoped(mode);
  Ilu0Trace trace;
  trace.bits.resize(static_cast<std::size_t>(ranks));
  trace.bytes.resize(static_cast<std::size_t>(ranks));
  auto rt = make_runtime(ranks);
  rt.run([&](simmpi::Comm& comm) {
    la::DistSystemBuilder builder(comm, m.touched(comm));
    Ilu0Preconditioner ilu;
    auto& out = trace.bits[static_cast<std::size_t>(comm.rank())];
    for (int round = 0; round < 3; ++round) {
      builder.begin_assembly();
      m.add(comm, builder, round);
      builder.finalize(comm);
      ilu.build(builder.matrix());
      const auto& map = builder.map();
      la::DistVector r(map);
      la::DistVector z(map);
      for (int l = 0; l < map.owned_count(); ++l) {
        r[l] = std::sin(0.37 * static_cast<double>(map.gid(l)) + round);
      }
      ilu.apply(r, z);
      out.push_back(bit_patterns(ilu.factor_values()));
      out.push_back(bit_patterns(z.owned()));
    }
    trace.bytes[static_cast<std::size_t>(comm.rank())] = ilu.bytes();
  });
  return trace;
}

/// Nonsymmetric band matrix with couplings at distance 1, 7 and 19, rows
/// block-distributed: every rank of several has ghost columns, and the
/// far couplings make ILU(0) apply many row updates. The diagonal
/// dominates.
constexpr la::GlobalId kBandRows = 90;
constexpr la::GlobalId kBandOffsets[] = {-19, -7, -1, 1, 7, 19};

TestMatrix band_matrix() {
  auto rows = [](const simmpi::Comm& comm) {
    const la::GlobalId per = (kBandRows + comm.size() - 1) / comm.size();
    const la::GlobalId r0 = comm.rank() * per;
    return std::pair{r0, std::min(kBandRows, r0 + per)};
  };
  TestMatrix m;
  m.touched = [rows](const simmpi::Comm& comm) {
    const auto [r0, r1] = rows(comm);
    std::vector<la::GlobalId> touched;
    for (la::GlobalId g = r0; g < r1; ++g) {
      touched.push_back(g);
      for (const la::GlobalId d : kBandOffsets) {
        if (g + d >= 0 && g + d < kBandRows) {
          touched.push_back(g + d);
        }
      }
    }
    return touched;
  };
  m.add = [rows](const simmpi::Comm& comm, la::DistSystemBuilder& builder,
                 int round) {
    const auto [r0, r1] = rows(comm);
    for (la::GlobalId g = r0; g < r1; ++g) {
      double off_sum = 0.0;
      for (const la::GlobalId d : kBandOffsets) {
        if (g + d >= 0 && g + d < kBandRows) {
          const double v =
              -(1.0 + 0.013 * static_cast<double>((g * 31 + d * 17 +
                                                   round * 7) % 23)) /
              3.0;
          builder.add_matrix(g, g + d, v);
          off_sum += std::fabs(v);
        }
      }
      builder.add_matrix(g, g, off_sum + 0.7 + 0.1 * round);
    }
  };
  return m;
}

TEST(Ilu0, FastFactorEqualsReferenceBitForBit) {
  // The fast path refreshes values by row-prefix copies and replays a
  // recorded elimination schedule; the reference path re-extracts the
  // block and runs the IKJ loop every build. Every factor value and every
  // apply() output must agree bit for bit, on every build.
  for (const int ranks : {1, 3}) {
    SCOPED_TRACE("ranks " + std::to_string(ranks));
    const TestMatrix m = band_matrix();
    const Ilu0Trace ref = ilu0_trace(la::KernelMode::kReference, ranks, m);
    const Ilu0Trace fast = ilu0_trace(la::KernelMode::kFast, ranks, m);
    for (int r = 0; r < ranks; ++r) {
      const auto& bits = ref.bits[static_cast<std::size_t>(r)];
      ASSERT_EQ(bits.size(), 6u);
      ASSERT_FALSE(bits[0].empty());
      EXPECT_EQ(fast.bits[static_cast<std::size_t>(r)], bits) << "rank " << r;
      // The refills changed the factor.
      EXPECT_NE(bits[2], bits[0]);
      EXPECT_NE(bits[4], bits[2]);
      // Only the fast path keeps an elimination schedule.
      EXPECT_GT(fast.bytes[static_cast<std::size_t>(r)],
                ref.bytes[static_cast<std::size_t>(r)]);
    }
  }
}

TEST(Ilu0, RowTooLongForTheScheduleFallsBackToIkj) {
  // An arrow matrix whose last row is dense with 65536 entries: its slot
  // offsets do not fit the schedule's 16 bits, so the fast path records
  // nothing and refactorizes with the IKJ loop. Every other row has two
  // entries, so this stays cheap.
  constexpr la::GlobalId n = 65536;
  TestMatrix m;
  m.touched = [](const simmpi::Comm&) {
    std::vector<la::GlobalId> touched(static_cast<std::size_t>(n));
    for (la::GlobalId g = 0; g < n; ++g) {
      touched[static_cast<std::size_t>(g)] = g;
    }
    return touched;
  };
  m.add = [](const simmpi::Comm&, la::DistSystemBuilder& builder, int round) {
    for (la::GlobalId g = 0; g + 1 < n; ++g) {
      const double v = -0.5 - 0.01 * static_cast<double>((g + round) % 13);
      builder.add_matrix(g, g, 4.0 + 0.1 * round);
      builder.add_matrix(g, n - 1, v);
      builder.add_matrix(n - 1, g, v / 3.0);
    }
    builder.add_matrix(n - 1, n - 1, 1e5 + round);
  };
  const Ilu0Trace ref = ilu0_trace(la::KernelMode::kReference, 1, m);
  const Ilu0Trace fast = ilu0_trace(la::KernelMode::kFast, 1, m);
  EXPECT_EQ(fast.bits, ref.bits);
  // No schedule: the factor image and the per-row arrays only.
  const std::size_t nnz = 3 * static_cast<std::size_t>(n) - 2;
  const std::size_t rows = static_cast<std::size_t>(n);
  EXPECT_EQ(fast.bytes[0], 12 * nnz + 8 * (rows + 1) + 16 * rows);
  EXPECT_EQ(ref.bytes[0], fast.bytes[0]);
}

TEST(Ilu0, BytesMatchTheDocumentedLayoutOnP2) {
  // RD's P2 mass+stiffness pattern on one rank. The fast factor keeps
  // 12 B per owned nonzero, 24 B per row (+8), 2 B per pivot and 4 B per
  // update, sized exactly; the pivot and update counts come from a
  // symbolic IKJ pass over the pattern here.
  ScopedKernelMode scoped(la::KernelMode::kFast);
  auto rt = make_runtime(1);
  rt.run([&](simmpi::Comm& comm) {
    mesh::BoxMeshSpec spec{4, 4, 4};
    const auto mesh = mesh::build_box_mesh(spec);
    fem::FeSpace space(mesh, 2, spec.vertex_count());
    fem::ElementKernel kernel(space, 4);
    const auto n = static_cast<std::size_t>(kernel.n());
    std::vector<double> me(n * n), ke(n * n), ae(n * n);
    std::vector<la::GlobalId> gids(n);
    la::DistSystemBuilder builder(comm, space.dof_gids());
    auto assemble = [&](double dt) {
      builder.begin_assembly();
      for (std::size_t t = 0; t < mesh.tet_count(); ++t) {
        kernel.mass(t, me);
        kernel.stiffness(t, ke);
        for (std::size_t j = 0; j < n * n; ++j) {
          ae[j] = me[j] / dt + ke[j];
        }
        space.tet_dof_gids(t, gids);
        builder.add_dense_block(gids, gids, ae);
      }
      builder.finalize(comm);
    };
    assemble(0.05);
    Ilu0Preconditioner ilu;
    ilu.build(builder.matrix());

    const la::CsrMatrix& a = builder.matrix().local();
    const int rows = a.rows();
    const auto row_ptr = a.row_ptr();
    const auto col = a.col_idx();
    std::size_t pivots = 0;
    std::size_t updates = 0;
    std::vector<int> mark(static_cast<std::size_t>(rows), -1);
    for (int i = 0; i < rows; ++i) {
      for (auto s = row_ptr[static_cast<std::size_t>(i)];
           s < row_ptr[static_cast<std::size_t>(i) + 1]; ++s) {
        mark[static_cast<std::size_t>(col[static_cast<std::size_t>(s)])] = i;
      }
      for (auto s = row_ptr[static_cast<std::size_t>(i)];
           col[static_cast<std::size_t>(s)] < i; ++s) {
        const int k = col[static_cast<std::size_t>(s)];
        ++pivots;
        for (auto u = row_ptr[static_cast<std::size_t>(k)];
             u < row_ptr[static_cast<std::size_t>(k) + 1]; ++u) {
          const int c = col[static_cast<std::size_t>(u)];
          updates += c > k && mark[static_cast<std::size_t>(c)] == i;
        }
      }
    }
    ASSERT_EQ(a.cols(), rows);  // one rank: no ghost columns
    const auto nnz = static_cast<std::size_t>(a.nonzeros());
    const auto n_rows = static_cast<std::size_t>(rows);
    const std::size_t expected =
        12 * nnz + 8 * (n_rows + 1) + 16 * n_rows + 2 * pivots + 4 * updates;
    EXPECT_GT(updates, nnz);
    EXPECT_EQ(ilu.bytes(), expected);
    // A refactorization after a refill replays and allocates nothing.
    assemble(0.025);
    ilu.build(builder.matrix());
    EXPECT_EQ(ilu.bytes(), expected);
  });
}

}  // namespace
}  // namespace hetero::solvers
