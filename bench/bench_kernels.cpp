// Host microbenchmarks of the direct-mode hot-path kernels: CSR SpMV,
// fused DistVector updates, fused element assembly, and the full RD
// per-iteration step. Every case runs in the *same binary* under both the
// reference kernels (the executable specification) and the fast kernels,
// in back-to-back reference/fast pairs, so the reported speedup is a
// like-for-like host-time ratio; the numerics are bit-identical either way
// (see docs/kernels.md).
//
// Unlike the virtual-clock phase timings of the figure benches, everything
// here is host wall time: the platform models charge mode-independent
// compute costs, so only a host-side measurement can see the overhaul.
// FLOP/byte columns come from the obs kernel counters (la.kernel.*,
// fem.kernel.assembly.*).
//
// `--json out.jsonl` emits heterolab-bench-v1 records gated in CI against
// bench/baselines/kernels.json (the rd_direct speedup floor).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/rd_solver.hpp"
#include "bench_main.hpp"
#include "fem/assembler.hpp"
#include "fem/fe_space.hpp"
#include "la/csr_matrix.hpp"
#include "la/kernels.hpp"
#include "la/system_builder.hpp"
#include "mesh/box_mesh.hpp"
#include "netsim/fabric.hpp"
#include "obs/metrics.hpp"
#include "simmpi/runtime.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

using namespace hetero;

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reference and fast host times of one kernel.
struct PairedTimes {
  double ref_min = 0.0;
  double ref_max = 0.0;
  double fast_min = 0.0;
  double fast_max = 0.0;
  double pair_median = 0.0;  // median of the per-pair ref/fast ratios
};

/// Times `seconds()` under each kernel mode in `pairs` back-to-back
/// reference/fast pairs, alternating which mode goes first, so a burst of
/// host load hits both modes rather than one mode's whole block.
template <class F>
PairedTimes paired(int pairs, F&& seconds) {
  std::vector<double> ref, fast, ratio;
  auto once = [&](la::KernelMode mode, std::vector<double>& into) {
    la::set_kernel_mode(mode);
    into.push_back(seconds());
  };
  for (int r = 0; r < pairs; ++r) {
    if (r % 2 == 0) {
      once(la::KernelMode::kReference, ref);
      once(la::KernelMode::kFast, fast);
    } else {
      once(la::KernelMode::kFast, fast);
      once(la::KernelMode::kReference, ref);
    }
    ratio.push_back(ref.back() / fast.back());
  }
  std::sort(ratio.begin(), ratio.end());
  const std::size_t mid = ratio.size() / 2;
  PairedTimes t;
  t.pair_median = ratio.size() % 2 == 1 ? ratio[mid]
                                        : 0.5 * (ratio[mid - 1] + ratio[mid]);
  const auto [ref_min, ref_max] = std::minmax_element(ref.begin(), ref.end());
  const auto [fast_min, fast_max] =
      std::minmax_element(fast.begin(), fast.end());
  t.ref_min = *ref_min;
  t.ref_max = *ref_max;
  t.fast_min = *fast_min;
  t.fast_max = *fast_max;
  return t;
}

/// Wall time of one call of `body`.
template <class F>
double time_once(F&& body) {
  const double t0 = wall_s();
  body();
  return wall_s() - t0;
}

/// Runs `body` once under each kernel mode (caches, lazy setup).
template <class F>
void warm_both_modes(F&& body) {
  for (const auto mode : {la::KernelMode::kReference, la::KernelMode::kFast}) {
    la::set_kernel_mode(mode);
    body();
  }
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt_int(std::int64_t v) { return std::to_string(v); }

/// The timing columns every series prints: each mode's best and worst,
/// the gated `speedup` (best over best) and the median pair ratio.
const std::vector<std::string> kTimingHeader = {
    "ref[s]", "ref_max[s]", "fast[s]", "fast_max[s]", "speedup",
    "pair_median"};

std::vector<std::string> row_of(std::vector<std::string> cells,
                                const PairedTimes& t,
                                std::vector<std::string> tail = {}) {
  for (const double v : {t.ref_min, t.ref_max, t.fast_min, t.fast_max,
                         t.ref_min / t.fast_min, t.pair_median}) {
    cells.push_back(fmt(v));
  }
  cells.insert(cells.end(), tail.begin(), tail.end());
  return cells;
}

std::vector<std::string> header_of(std::vector<std::string> lead,
                                   std::vector<std::string> tail = {}) {
  lead.insert(lead.end(), kTimingHeader.begin(), kTimingHeader.end());
  lead.insert(lead.end(), tail.begin(), tail.end());
  return lead;
}

/// P2 mass+stiffness matrix of an n^3 box, assembled serially — the
/// realistic FEM sparsity the solver iterates on.
la::CsrMatrix make_fem_matrix(int cells, int order) {
  const auto mesh = mesh::build_box_mesh({cells, cells, cells});
  fem::FeSpace space(mesh, order,
                     static_cast<std::int64_t>(mesh.vertex_count()));
  fem::ElementKernel kernel(space, order == 2 ? 4 : 2);
  const int n = kernel.n();
  std::vector<double> me(static_cast<std::size_t>(n * n));
  std::vector<double> ke(static_cast<std::size_t>(n * n));
  std::vector<la::Triplet> triplets;
  triplets.reserve(mesh.tet_count() * static_cast<std::size_t>(n * n));
  for (std::size_t t = 0; t < mesh.tet_count(); ++t) {
    kernel.mass(t, me);
    kernel.stiffness(t, ke);
    const auto dofs = space.tet_dofs(t);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        triplets.push_back({dofs[i], dofs[j],
                            me[static_cast<std::size_t>(i * n + j)] +
                                ke[static_cast<std::size_t>(i * n + j)]});
      }
    }
  }
  const int rows = space.local_dof_count();
  return la::CsrMatrix::from_triplets(rows, rows, triplets);
}

void bench_spmv(bench::BenchOutput& out, const CliArgs& args) {
  const int cells = static_cast<int>(args.get_int("spmv_cells", 10));
  const int iters = static_cast<int>(args.get_int("spmv_iters", 40));
  const int reps = static_cast<int>(args.get_int("reps", 15));
  const auto a = make_fem_matrix(cells, 2);
  const auto rows = static_cast<std::size_t>(a.rows());
  std::vector<double> x(rows), y(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    x[i] = 1.0 + 1e-3 * static_cast<double>(i % 17);
  }

  warm_both_modes([&] { a.multiply(x, y); });
  const PairedTimes t = paired(reps, [&] {
    return time_once([&] {
             for (int i = 0; i < iters; ++i) {
               a.multiply(x, y);
             }
           }) /
           iters;
  });
  // One multiply's modeled work (the counters are per call).
  const double f0 = la::spmv_work().flops();
  const double b0 = la::spmv_work().bytes();
  a.multiply(x, y);
  const double flops = la::spmv_work().flops() - f0;
  const double bytes = la::spmv_work().bytes() - b0;

  Table table(header_of({"layout", "rows", "nnz"},
                        {"flops", "bytes", "intensity"}));
  table.add_row(row_of({"csr", fmt_int(a.rows()),
                        fmt_int(static_cast<std::int64_t>(a.nonzeros()))},
                       t, {fmt(flops), fmt(bytes), fmt(flops / bytes)}));
  std::cout << "## SpMV (P2 mass+stiffness, " << cells << "^3 cells)\n";
  out.emit(table, "spmv");
  std::cout << "\n";
}

void bench_vec(bench::BenchOutput& out, const CliArgs& args) {
  const int n = static_cast<int>(args.get_int("vec_n", 1 << 18));
  const int iters = static_cast<int>(args.get_int("vec_iters", 40));
  const int reps = static_cast<int>(args.get_int("reps", 15));

  Table table(header_of({"op", "n"}));
  auto runtime = std::make_shared<simmpi::Runtime>(netsim::Topology::uniform(
      1, 1, netsim::Fabric::shared_memory(), netsim::Fabric::shared_memory()));
  runtime->run([&](simmpi::Comm& comm) {
    std::vector<la::GlobalId> touched;
    touched.reserve(static_cast<std::size_t>(n));
    for (int g = 0; g < n; ++g) {
      touched.push_back(g);
    }
    la::DistSystemBuilder builder(comm, touched);
    builder.begin_assembly();
    for (int g = 0; g < n; ++g) {
      builder.add_matrix(g, g, 1.0);  // map() requires a finalized system
    }
    builder.finalize(comm);
    la::DistVector u(builder.map()), v(builder.map()), w(builder.map()),
        z(builder.map());
    for (int i = 0; i < n; ++i) {
      u[i] = 1.0 + 1e-6 * i;
      v[i] = 2.0 - 1e-6 * i;
      w[i] = 0.5 + 1e-7 * i;
    }

    auto row = [&](const char* op, auto&& body) {
      warm_both_modes(body);
      const PairedTimes t = paired(reps, [&] {
        return time_once([&] {
                 for (int i = 0; i < iters; ++i) {
                   body();
                 }
               }) /
               iters;
      });
      table.add_row(row_of({op, fmt_int(n)}, t));
    };

    double sink = 0.0;
    row("axpy_norm2", [&] { sink += z.axpy_norm2(comm, 0.5, u); });
    row("copy_axpy_norm2",
        [&] { sink += z.copy_axpy_norm2(comm, u, -0.25, v); });
    row("dot_pair", [&] {
      const auto [a, b] = u.dot_pair(comm, v, w);
      sink += a + b;
    });
    row("update_search_direction",
        [&] { z.update_search_direction(u, v, 0.3, 0.7); });
    row("cg_update_norm2",
        [&] { sink += la::cg_update_norm2(comm, z, 1e-3, u, w, v); });
    if (sink == 42.0) {  // defeat dead-code elimination of the sums
      std::cout << "";
    }
  });
  std::cout << "## Fused vector kernels\n";
  out.emit(table, "vec");
  std::cout << "\n";
}

void bench_assembly(bench::BenchOutput& out, const CliArgs& args) {
  const int cells = static_cast<int>(args.get_int("assembly_cells", 6));
  const int reps = static_cast<int>(args.get_int("reps", 15));
  auto& flops_c = obs::metrics().counter("fem.kernel.assembly.flops");
  auto& bytes_c = obs::metrics().counter("fem.kernel.assembly.bytes");

  Table table(header_of({"order", "tets"}, {"flops", "bytes"}));
  for (const int order : {1, 2}) {
    const auto mesh = mesh::build_box_mesh({cells, cells, cells});
    fem::FeSpace space(mesh, order,
                       static_cast<std::int64_t>(mesh.vertex_count()));
    fem::ElementKernel kernel(space, order == 2 ? 4 : 2);
    const int n = kernel.n();
    std::vector<double> me(static_cast<std::size_t>(n * n));
    std::vector<double> ke(static_cast<std::size_t>(n * n));
    std::vector<double> fe(static_cast<std::size_t>(n));
    const fem::SpatialFn source = [](const mesh::Vec3&) { return -6.0; };
    auto sweep = [&] {
      for (std::size_t t = 0; t < mesh.tet_count(); ++t) {
        kernel.mass_stiffness_load(t, source, me, ke, fe);
      }
    };
    warm_both_modes(sweep);  // builds the geometry cache in fast mode
    const PairedTimes t = paired(reps, [&] { return time_once(sweep); });
    // One fast sweep's modeled work.
    const double f0 = flops_c.value();
    const double b0 = bytes_c.value();
    la::set_kernel_mode(la::KernelMode::kFast);
    sweep();
    const auto tets = static_cast<std::int64_t>(mesh.tet_count());
    table.add_row(
        row_of({fmt_int(order), fmt_int(tets)}, t,
               {fmt(flops_c.value() - f0), fmt(bytes_c.value() - b0)}));
  }
  std::cout << "## Element assembly (fused mass+stiffness+load sweep, "
            << cells << "^3 cells)\n";
  out.emit(table, "assembly");
  std::cout << "\n";
}

/// Full direct-mode RD per-iteration host time: assembly + Dirichlet +
/// ILU0 + CG, the paper's workhorse, at p ranks with `axis` cells per rank
/// axis. The simulated ranks are threads, so host wall time measures the
/// total host work of one step regardless of core count.
double rd_step_host_s(int ranks, int axis, int steps) {
  const int per_axis = static_cast<int>(std::lround(std::cbrt(ranks)));
  apps::RdConfig config;
  config.global_cells = axis * per_axis;
  config.order = 2;
  config.compute_errors = false;
  double elapsed = 0.0;
  auto runtime = std::make_shared<simmpi::Runtime>(netsim::Topology::uniform(
      ranks, 4, netsim::Fabric::infiniband_ddr_4x(),
      netsim::Fabric::shared_memory()));
  runtime->run([&](simmpi::Comm& comm) {
    apps::RdSolver solver(comm, config);
    comm.barrier();
    const double t0 = wall_s();
    solver.run(steps);
    comm.barrier();
    if (comm.rank() == 0) {
      elapsed = wall_s() - t0;
    }
  });
  return elapsed / steps;
}

void bench_rd_direct(bench::BenchOutput& out, const CliArgs& args) {
  const int ranks = static_cast<int>(args.get_int("ranks", 27));
  const int axis = static_cast<int>(args.get_int("axis", 6));
  const int steps = static_cast<int>(args.get_int("steps", 6));
  const int reps = static_cast<int>(args.get_int("rd_reps", 15));

  Table table(header_of({"ranks", "cells", "steps"}));
  for (const int p : {1, ranks}) {
    const PairedTimes t =
        paired(reps, [&] { return rd_step_host_s(p, axis, steps); });
    const int per_axis = static_cast<int>(std::lround(std::cbrt(p)));
    table.add_row(
        row_of({fmt_int(p), fmt_int(axis * per_axis), fmt_int(steps)}, t));
  }
  std::cout << "## RD direct per-iteration host time (P2, CG+ILU0, " << axis
            << " cells/rank-axis; best and worst of " << reps
            << " interleaved repetition pairs)\n";
  out.emit(table, "rd_direct");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetero;
  const CliArgs args(argc, argv);
  bench::BenchOutput out(args, "kernels");

  std::cout << "# Hot-path kernel microbenchmarks (host wall time, "
               "reference vs fast)\n\n";
  bench_spmv(out, args);
  bench_vec(out, args);
  bench_assembly(out, args);
  bench_rd_direct(out, args);

  la::set_kernel_mode(la::KernelMode::kFast);
  return 0;
}
