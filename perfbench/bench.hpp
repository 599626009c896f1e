#pragma once

/// \file bench.hpp
/// Shared declarations of the host-cost benchmark's child program: the
/// direct-run case, the apps-level run that the end-to-end metrics time,
/// and the layer-by-layer replay that the traced run times.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// One direct run, built the way core::ExperimentRunner::run_direct builds
/// it: the platform's topology and CPU model, and a global mesh of
/// cells_per_rank_axis * cbrt(ranks) cells per axis.
struct DirectCase {
  std::string app = "rd";  // "rd" or "ns"
  int velocity_order = 2;  // NS only
  std::string platform = "puma";
  int ranks = 1;
  int cells_per_rank_axis = 20;
  int steps = 3;

  int global_cells() const;
  /// Exact-solution bound every step's nodal error must meet: solver
  /// tolerance for RD (P2 + BDF2 reproduce its solution exactly), the apps
  /// tests' NS bound otherwise.
  double error_bound() const { return app == "rd" ? 1e-6 : 0.15; }
};

struct StepOutcome {
  double seconds = 0.0;  // host seconds, rank 0, step() entry to return
  int iterations = 0;
  bool converged = false;
  double nodal_error = 0.0;
};

/// The apps-level run: solver construction and `steps` calls to step().
struct AppsRun {
  double setup_s = 0.0;  // rank 0: solver construction to ready-to-step
  double wall_s = 0.0;   // runtime construction to the join of every rank
  std::vector<StepOutcome> steps;
  std::uint64_t collectives = 0;  // Runtime::stats, summed over ranks
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::string error;  // what the run threw, if it threw
  bool correct(const DirectCase& c) const;
};

AppsRun run_apps(const DirectCase& c);

/// The traced replay of the same pipeline from public calls. Spans are
/// recorded on rank 0; `layers` holds the per-layer numbers derived from
/// them and from the counts taken alongside.
struct ReplayRun {
  std::vector<StepOutcome> steps;
  std::map<std::string, double> layers;
  std::string error;
};

ReplayRun replay_direct(const DirectCase& c, SpanRecorder& rec);

double median(std::vector<double> v);

}  // namespace perfbench
