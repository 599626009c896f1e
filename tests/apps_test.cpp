// Tests for the two paper applications: the RD solver's exact-solution
// oracle and the Navier-Stokes solver against the Ethier-Steinman benchmark.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "apps/ns_solver.hpp"
#include "apps/rd_solver.hpp"
#include "la/kernels.hpp"
#include "netsim/fabric.hpp"
#include "platform/platform_spec.hpp"
#include "simmpi/runtime.hpp"

namespace hetero::apps {
namespace {

simmpi::Runtime make_runtime(int ranks) {
  return simmpi::Runtime(netsim::Topology::uniform(
      ranks, 4, netsim::Fabric::infiniband_ddr_4x(),
      netsim::Fabric::shared_memory()));
}

TEST(RdExact, SatisfiesThePde) {
  // Finite-difference check of du/dt - (1/t^2) lap(u) - (2/t) u = -6.
  const mesh::Vec3 x{0.3, 0.7, 0.2};
  const double t = 1.7;
  const double h = 1e-5;
  auto u = [&](double xx, double yy, double zz, double tt) {
    return rd_exact_solution({xx, yy, zz}, tt);
  };
  const double ut =
      (u(x.x, x.y, x.z, t + h) - u(x.x, x.y, x.z, t - h)) / (2 * h);
  const double lap = (u(x.x + h, x.y, x.z, t) - 2 * u(x.x, x.y, x.z, t) +
                      u(x.x - h, x.y, x.z, t) + u(x.x, x.y + h, x.z, t) -
                      2 * u(x.x, x.y, x.z, t) + u(x.x, x.y - h, x.z, t) +
                      u(x.x, x.y, x.z + h, t) - 2 * u(x.x, x.y, x.z, t) +
                      u(x.x, x.y, x.z - h, t)) /
                     (h * h);
  const double residual =
      ut - lap / (t * t) - 2.0 / t * u(x.x, x.y, x.z, t) - (-6.0);
  EXPECT_NEAR(residual, 0.0, 1e-4);
}

class RdRanks : public ::testing::TestWithParam<int> {};

TEST_P(RdRanks, DiscreteSolutionMatchesExactToSolverTolerance) {
  auto rt = make_runtime(GetParam());
  rt.run([&](simmpi::Comm& comm) {
    RdConfig config;
    config.global_cells = 4;
    config.dt = 0.1;
    const int expected_dofs =
        5 * 5 * 5 +  // vertices of the 4^3 grid
        0;           // edges counted below
    (void)expected_dofs;
    RdSolver solver(comm, config);
    const auto records = solver.run(3);
    for (const auto& r : records) {
      EXPECT_TRUE(r.solver_converged);
      // P2 + BDF2 reproduce t^2 |x|^2 exactly: only solver tolerance left.
      EXPECT_LT(r.nodal_error, 1e-6) << "at t = " << r.time;
      EXPECT_LT(r.l2_error, 1e-6);
      EXPECT_GT(r.solver_iterations, 0);
    }
    // Time marches as configured.
    EXPECT_NEAR(solver.current_time(), 1.0 + 3 * 0.1, 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, RdRanks, ::testing::Values(1, 2, 8));

class RdTimeStep : public ::testing::TestWithParam<double> {};

TEST_P(RdTimeStep, ExactnessHoldsForAnyDt) {
  // The oracle is independent of dt: BDF2 is exact on quadratic-in-time
  // solutions whatever the step size.
  auto rt = make_runtime(8);
  rt.run([&](simmpi::Comm& comm) {
    RdConfig config;
    config.global_cells = 4;
    config.dt = GetParam();
    RdSolver solver(comm, config);
    const auto r = solver.step();
    EXPECT_TRUE(r.solver_converged);
    EXPECT_LT(r.nodal_error, 1e-6) << "dt = " << GetParam();
  });
}

INSTANTIATE_TEST_SUITE_P(DtSweep, RdTimeStep,
                         ::testing::Values(0.01, 0.05, 0.2, 0.5));

TEST(Rd, Bdf1CommitsFirstOrderError) {
  auto error_with = [&](double dt) {
    double err = 0.0;
    auto rt = make_runtime(1);
    rt.run([&](simmpi::Comm& comm) {
      RdConfig config;
      config.global_cells = 3;
      config.time_order = 1;
      config.dt = dt;
      RdSolver solver(comm, config);
      err = solver.run(2).back().nodal_error;
    });
    return err;
  };
  const double coarse = error_with(0.2);
  const double fine = error_with(0.1);
  EXPECT_GT(coarse, 1e-4);             // clearly not exact
  EXPECT_GT(coarse / fine, 1.5);       // ~2 for O(dt)
  EXPECT_LT(coarse / fine, 3.5);
}

TEST(Rd, PhaseTimingsArePositiveAndOrdered) {
  auto rt = make_runtime(4);
  rt.run([&](simmpi::Comm& comm) {
    RdConfig config;
    config.global_cells = 4;
    RdSolver solver(comm, config);
    const auto r = solver.step();
    EXPECT_GT(r.timing.assembly_s, 0.0);
    EXPECT_GT(r.timing.preconditioner_s, 0.0);
    EXPECT_GT(r.timing.solve_s, 0.0);
    // Phases partition the iteration on each rank; after the per-phase max
    // reduction the sum can only exceed the total.
    EXPECT_GE(r.timing.assembly_s + r.timing.preconditioner_s +
                  r.timing.solve_s + 1e-15,
              r.timing.total_s);
    EXPECT_GT(r.timing.total_s, r.timing.solve_s);
  });
}

TEST(Rd, WorkCountsAreConsistent) {
  auto rt = make_runtime(8);
  rt.run([&](simmpi::Comm& comm) {
    RdConfig config;
    config.global_cells = 4;
    RdSolver solver(comm, config);
    const auto r = solver.step();
    // 4^3 cells over 8 ranks: 8 cells -> 48 tets per rank.
    EXPECT_EQ(r.work.local_tets, 48);
    EXPECT_EQ(r.work.matrix_entries_assembled, 48 * 10 * 10);
    EXPECT_GT(r.work.local_nonzeros, 0);
    EXPECT_GT(r.work.halo_doubles, 0);  // every block borders others
    // Global dof count: P2 on a 4^3 cube = vertices + edges.
    EXPECT_EQ(solver.global_dofs(), 125 + 604);
  });
}

TEST(Rd, FasterCpuShortensComputePhases) {
  auto run_with_speed = [&](double speed) {
    double assembly = 0.0;
    auto rt = make_runtime(2);
    rt.run([&](simmpi::Comm& comm) {
      RdConfig config;
      config.global_cells = 4;
      config.compute_errors = false;
      config.cpu.speed_factor = speed;
      RdSolver solver(comm, config);
      assembly = solver.step().timing.assembly_s;
    });
    return assembly;
  };
  const double slow = run_with_speed(1.0);
  const double fast = run_with_speed(4.0);
  EXPECT_LT(fast, slow);
}

TEST(Rd, BicgstabMatchesCgOnTheSpdSystem) {
  auto error_with = [&](const std::string& krylov) {
    double err = 0.0;
    auto rt = make_runtime(2);
    rt.run([&](simmpi::Comm& comm) {
      RdConfig config;
      config.global_cells = 4;
      config.krylov = krylov;
      RdSolver solver(comm, config);
      err = solver.step().nodal_error;
    });
    return err;
  };
  EXPECT_LT(error_with("cg"), 1e-6);
  EXPECT_LT(error_with("bicgstab"), 1e-6);
  auto rt = make_runtime(1);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
                 RdConfig config;
                 config.krylov = "gmres";  // not offered for the SPD system
                 RdSolver solver(comm, config);
                 solver.step();
               }),
               Error);
}

TEST(Ns, BicgstabAlsoSolvesTheSaddlePoint) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    NsConfig config;
    config.global_cells = 3;
    config.krylov = "bicgstab";
    NsSolver solver(comm, config);
    const auto r = solver.step();
    EXPECT_TRUE(r.solver_converged);
    EXPECT_LT(r.nodal_error, 0.2);
  });
}

TEST(Rd, RejectsSingularStartTime) {
  auto rt = make_runtime(1);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
                 RdConfig config;
                 config.t0 = 0.0;
                 RdSolver solver(comm, config);
               }),
               Error);
}

TEST(EthierSteinman, VelocityIsDivergenceFree) {
  const double nu = 1.0;
  const double t = 0.4;
  const double h = 1e-5;
  const mesh::Vec3 pts[] = {{0.2, -0.3, 0.5}, {-0.8, 0.1, 0.9}, {0, 0, 0}};
  for (const auto& p : pts) {
    double div = 0.0;
    for (int c = 0; c < 3; ++c) {
      mesh::Vec3 hi = p;
      mesh::Vec3 lo = p;
      (c == 0 ? hi.x : c == 1 ? hi.y : hi.z) += h;
      (c == 0 ? lo.x : c == 1 ? lo.y : lo.z) -= h;
      div += (es_velocity(hi, t, nu, c) - es_velocity(lo, t, nu, c)) /
             (2 * h);
    }
    EXPECT_NEAR(div, 0.0, 1e-6);
  }
}

TEST(EthierSteinman, SatisfiesMomentumEquation) {
  // Residual of rho u_t + rho (u.grad)u - mu lap(u) + grad p at a point,
  // via central differences (rho = 1, mu = nu).
  const double nu = 1.0;
  const double t = 0.25;
  const double h = 1e-4;
  const mesh::Vec3 p{0.3, -0.2, 0.6};
  auto vel = [&](const mesh::Vec3& x, double tt, int c) {
    return es_velocity(x, tt, nu, c);
  };
  auto shift = [&](const mesh::Vec3& x, int axis, double d) {
    mesh::Vec3 y = x;
    (axis == 0 ? y.x : axis == 1 ? y.y : y.z) += d;
    return y;
  };
  for (int c = 0; c < 3; ++c) {
    const double ut = (vel(p, t + h, c) - vel(p, t - h, c)) / (2 * h);
    double conv = 0.0;
    double lap = 0.0;
    for (int a = 0; a < 3; ++a) {
      const double dua =
          (vel(shift(p, a, h), t, c) - vel(shift(p, a, -h), t, c)) / (2 * h);
      conv += vel(p, t, a) * dua;
      lap += (vel(shift(p, a, h), t, c) - 2 * vel(p, t, c) +
              vel(shift(p, a, -h), t, c)) /
             (h * h);
    }
    const double dp =
        (es_pressure(shift(p, c, h), t, nu) -
         es_pressure(shift(p, c, -h), t, nu)) /
        (2 * h);
    const double residual = ut + conv - nu * lap + dp;
    EXPECT_NEAR(residual, 0.0, 2e-3) << "component " << c;
  }
}

class NsRanks : public ::testing::TestWithParam<int> {};

TEST_P(NsRanks, TracksTheExactSolution) {
  auto rt = make_runtime(GetParam());
  rt.run([&](simmpi::Comm& comm) {
    NsConfig config;
    config.global_cells = 4;
    config.dt = 2e-3;
    NsSolver solver(comm, config);
    const auto records = solver.run(2);
    for (const auto& r : records) {
      EXPECT_TRUE(r.solver_converged);
      // P1 on a 4^3 mesh: discretization error dominates; velocities are
      // O(1), so a few percent nodal error is the expected band.
      EXPECT_LT(r.nodal_error, 0.15) << "at t = " << r.time;
      EXPECT_GT(r.solver_iterations, 0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, NsRanks, ::testing::Values(1, 4));

TEST(Ns, ErrorIsIndependentOfPartitioning) {
  // The global discrete system is identical for any rank count; only the
  // preconditioner differs, so solutions agree to solver tolerance.
  auto run_on = [&](int ranks) {
    double err = 0.0;
    auto rt = make_runtime(ranks);
    rt.run([&](simmpi::Comm& comm) {
      NsConfig config;
      config.global_cells = 3;
      config.solver_tolerance = 1e-10;
      NsSolver solver(comm, config);
      err = solver.step().nodal_error;
    });
    return err;
  };
  const double serial = run_on(1);
  const double parallel = run_on(4);
  EXPECT_NEAR(serial, parallel, 1e-5 + 0.01 * serial);
}

TEST(Ns, TaylorHoodIsFarMoreAccurateThanP1P1) {
  auto run_with_order = [&](int order) {
    double l2 = 0.0;
    auto rt = make_runtime(4);
    rt.run([&](simmpi::Comm& comm) {
      NsConfig config;
      config.global_cells = 4;
      config.velocity_order = order;
      NsSolver solver(comm, config);
      const auto r = solver.step();
      EXPECT_TRUE(r.solver_converged) << "order " << order;
      l2 = r.l2_error;
    });
    return l2;
  };
  const double p1 = run_with_order(1);
  const double th = run_with_order(2);
  // P2 velocity converges one order faster; on this mesh the gap is ~15x.
  EXPECT_GT(p1 / th, 5.0);
}

TEST(Ns, TaylorHoodDofCount) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    NsConfig config;
    config.global_cells = 3;
    config.velocity_order = 2;
    NsSolver solver(comm, config);
    // 3 velocity components on P2 (vertices + edges) + P1 pressure.
    const std::int64_t vertices = 4 * 4 * 4;
    const std::int64_t edges = 3 * 3 * 16 + 3 * 9 * 4 + 27;
    EXPECT_EQ(solver.global_dofs(), 3 * (vertices + edges) + vertices);
    EXPECT_EQ(solver.velocity_space().order(), 2);
    EXPECT_EQ(solver.pressure_space().order(), 1);
  });
}

TEST(Ns, RejectsUnsupportedVelocityOrder) {
  auto rt = make_runtime(1);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
                 NsConfig config;
                 config.velocity_order = 3;
                 NsSolver solver(comm, config);
               }),
               Error);
}

TEST(Ns, DofCountIsFourPerVertex) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    NsConfig config;
    config.global_cells = 3;
    NsSolver solver(comm, config);
    EXPECT_EQ(solver.global_dofs(), 4 * 4 * 4 * 4);
  });
}

TEST(Ns, PressureIsPinnedAtCorner) {
  auto rt = make_runtime(1);
  rt.run([&](simmpi::Comm& comm) {
    NsConfig config;
    config.global_cells = 3;
    NsSolver solver(comm, config);
    solver.step();
    // Find the corner dof and compare pressure against the exact value.
    const auto& space = solver.space();
    for (int d = 0; d < space.local_dof_count(); ++d) {
      const auto& x = space.dof_coord(d);
      if (x.x < -1.0 + 1e-12 && x.y < -1.0 + 1e-12 && x.z < -1.0 + 1e-12) {
        const double exact = es_pressure(x, solver.current_time(), 1.0);
        EXPECT_NEAR(solver.solution_at(d, 3), exact, 1e-6);
      }
    }
  });
}

// ---- virtual-time pins ------------------------------------------------------
//
// Direct runs on the ec2 model at 2^3 cells per rank, three steps each. The
// job's virtual completion time and the per-rank CommStats summed over ranks
// are pinned to the last bit (printed with %.17g): the simmpi rendezvous and
// mailboxes may change how host threads meet, never what the model charges.
// The pins hold for the fast kernels; the reference kernels send a
// different message pattern and so are charged differently.

struct VirtualTimePin {
  std::string elapsed;
  std::uint64_t collectives;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::string comm_seconds;
};

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <class Body>
VirtualTimePin pin_direct_run(int ranks, const Body& body) {
  const la::KernelMode saved = la::kernel_mode();
  la::set_kernel_mode(la::KernelMode::kFast);
  simmpi::Runtime rt(platform::platform_by_name("ec2").topology(ranks));
  rt.run(body);
  la::set_kernel_mode(saved);
  VirtualTimePin pin{exact(rt.elapsed_sim_seconds()), 0, 0, 0, ""};
  double comm_seconds = 0.0;
  for (int r = 0; r < rt.size(); ++r) {
    const simmpi::CommStats& s = rt.stats(r);
    pin.collectives += s.collectives;
    pin.messages += s.messages_sent;
    pin.bytes += s.bytes_sent;
    comm_seconds += s.comm_seconds;
  }
  pin.comm_seconds = exact(comm_seconds);
  return pin;
}

VirtualTimePin pin_rd(int ranks, int global_cells) {
  return pin_direct_run(ranks, [&](simmpi::Comm& comm) {
    RdConfig config;
    config.global_cells = global_cells;
    config.cpu = platform::platform_by_name("ec2").cpu_model();
    RdSolver solver(comm, config);
    solver.run(3);
  });
}

void expect_pin(const VirtualTimePin& got, const VirtualTimePin& want) {
  EXPECT_EQ(got.elapsed, want.elapsed);
  EXPECT_EQ(got.collectives, want.collectives);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.comm_seconds, want.comm_seconds);
}

TEST(VirtualTimePin, DirectRdAt27Ranks) {
  expect_pin(pin_rd(27, 6), {"0.1515117041356685", 8343, 21756, 3138192,
                             "3.741595922377341"});
}

TEST(VirtualTimePin, DirectRdAt64Ranks) {
  expect_pin(pin_rd(64, 8), {"0.57266324674033231", 24576, 75888, 10075968,
                             "35.751929298524068"});
}

TEST(VirtualTimePin, DirectTaylorHoodNsAt8Ranks) {
  const VirtualTimePin got = pin_direct_run(8, [&](simmpi::Comm& comm) {
    NsConfig config;
    config.global_cells = 4;
    config.velocity_order = 2;
    config.cpu = platform::platform_by_name("ec2").cpu_model();
    NsSolver solver(comm, config);
    solver.run(3);
  });
  expect_pin(got, {"0.092351805047621513", 13440, 4408, 2432288,
                   "0.18082227609525553"});
}

}  // namespace
}  // namespace hetero::apps
