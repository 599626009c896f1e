/// \file child.cpp
/// The benchmark's child program. run.py starts one child per measured
/// run, so each run's peak RSS and CPU time can be read from wait4() on
/// that child alone. Every mode prints one JSON object on stdout.
///
///   perfbench_child env
///   perfbench_child direct|runner|replay --app rd|ns --order O --platform P
///       --ranks R --cells C --steps S [--spans PATH]
///   perfbench_child grid|trace-grid --seed S --jobs J --work DIR
///       [--spans PATH]
///   perfbench_child triad --mb M

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "apps/ns_solver.hpp"
#include "apps/rd_solver.hpp"
#include "bench.hpp"
#include "core/campaign_engine.hpp"
#include "core/experiment.hpp"
#include "grid/matrix.hpp"
#include "grid/report.hpp"
#include "la/kernels.hpp"
#include "obs/json.hpp"
#include "platform/platform_spec.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "svc/memo_store.hpp"
#include "svc/result_codec.hpp"

namespace perfbench {

using namespace hetero;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

int DirectCase::global_cells() const {
  const int k = static_cast<int>(std::lround(std::cbrt(ranks)));
  return cells_per_rank_axis * k;
}

bool AppsRun::correct(const DirectCase& c) const {
  if (!error.empty() || static_cast<int>(steps.size()) != c.steps) {
    return false;
  }
  for (const StepOutcome& s : steps) {
    if (!s.converged || !(s.nodal_error < c.error_bound())) return false;
  }
  return true;
}

namespace {

template <class Solver>
void drive(simmpi::Comm& comm, Solver& solver, const DirectCase& c,
           double start, AppsRun& out) {
  if (comm.rank() == 0) out.setup_s = now_s() - start;
  for (int s = 0; s < c.steps; ++s) {
    const double t = now_s();
    const apps::StepRecord r = solver.step();
    if (comm.rank() == 0) {
      out.steps.push_back(
          {now_s() - t, r.solver_iterations, r.solver_converged, r.nodal_error});
    }
  }
}

}  // namespace

AppsRun run_apps(const DirectCase& c) {
  AppsRun out;
  const platform::PlatformSpec& plat = platform::platform_by_name(c.platform);
  const double t0 = now_s();
  try {
    simmpi::Runtime runtime(plat.topology(c.ranks));
    runtime.run([&](simmpi::Comm& comm) {
      const double start = now_s();
      if (c.app == "rd") {
        apps::RdConfig config;
        config.global_cells = c.global_cells();
        config.cpu = plat.cpu_model();
        apps::RdSolver solver(comm, config);
        drive(comm, solver, c, start, out);
      } else {
        apps::NsConfig config;
        config.global_cells = c.global_cells();
        config.velocity_order = c.velocity_order;
        config.cpu = plat.cpu_model();
        apps::NsSolver solver(comm, config);
        drive(comm, solver, c, start, out);
      }
    });
    out.wall_s = now_s() - t0;
    for (int r = 0; r < runtime.size(); ++r) {
      const simmpi::CommStats& s = runtime.stats(r);
      out.collectives += s.collectives;
      out.messages += s.messages_sent;
      out.bytes += s.bytes_sent;
    }
  } catch (const std::exception& e) {
    out.wall_s = now_s() - t0;
    out.error = e.what();
  }
  return out;
}

namespace {

// ---- arguments --------------------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;
  std::string get(const std::string& k, const std::string& def = "") const {
    const auto it = flags.find(k);
    return it == flags.end() ? def : it->second;
  }
  long num(const std::string& k, long def) const {
    const auto it = flags.find(k);
    return it == flags.end() ? def : std::stol(it->second);
  }
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc > 1) a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + k);
    a.flags[k.substr(2)] = argv[i + 1];
  }
  return a;
}

DirectCase direct_case(const Args& a) {
  DirectCase c;
  c.app = a.get("app", "rd");
  c.velocity_order = static_cast<int>(a.num("order", 2));
  c.platform = a.get("platform", "puma");
  c.ranks = static_cast<int>(a.num("ranks", 1));
  c.cells_per_rank_axis = static_cast<int>(a.num("cells", 20));
  c.steps = static_cast<int>(a.num("steps", 3));
  if (c.app != "rd" && c.app != "ns") {
    throw std::runtime_error("--app must be rd or ns");
  }
  return c;
}

obs::Json steps_json(const std::vector<StepOutcome>& steps) {
  obs::Json out = obs::Json::array();
  for (const StepOutcome& s : steps) {
    obs::Json j = obs::Json::object();
    j.set("s", s.seconds);
    j.set("iters", s.iterations);
    j.set("converged", s.converged);
    j.set("nodal_error", s.nodal_error);
    out.push_back(std::move(j));
  }
  return out;
}

// ---- modes --------------------------------------------------------------

obs::Json mode_env() {
  obs::Json j = obs::Json::object();
  j.set("build_type", PERFBENCH_BUILD_TYPE);
  j.set("compiler", PERFBENCH_COMPILER);
#ifdef HETERO_OBS_DISABLED
  j.set("hetero_obs", "OFF");
#else
  j.set("hetero_obs", "ON");
#endif
  j.set("kernel_mode",
        la::kernel_mode() == la::KernelMode::kFast ? "fast" : "reference");
  j.set("spmv_layout", PERFBENCH_SPMV_LAYOUT);
  return j;
}

obs::Json mode_direct(const DirectCase& c) {
  const AppsRun run = run_apps(c);
  obs::Json j = obs::Json::object();
  j.set("ok", run.correct(c));
  j.set("error", run.error);
  j.set("global_cells", c.global_cells());
  j.set("setup_s", run.setup_s);
  j.set("wall_s", run.wall_s);
  j.set("steps", steps_json(run.steps));
  j.set("collectives", static_cast<double>(run.collectives));
  j.set("messages", static_cast<double>(run.messages));
  j.set("bytes", static_cast<double>(run.bytes));
  return j;
}

/// The same direct run through the experiment layer
/// (core::ExperimentRunner::run in direct mode).
obs::Json mode_runner(const DirectCase& c) {
  core::Experiment e;
  e.app = c.app == "rd" ? perf::AppKind::kReactionDiffusion
                        : perf::AppKind::kNavierStokes;
  e.platform = c.platform;
  e.ranks = c.ranks;
  e.cells_per_rank_axis = c.cells_per_rank_axis;
  e.element_order = c.app == "rd" ? 1 : c.velocity_order;
  e.mode = core::Mode::kDirect;
  e.direct_steps = c.steps;
  bool ok = false;
  std::string error;
  const double t = now_s();
  try {
    const core::ExperimentResult r = core::ExperimentRunner(42).run(e);
    ok = r.launched && r.solver_converged && r.nodal_error < c.error_bound();
    error = r.failure_reason;
  } catch (const std::exception& ex) {
    error = ex.what();
  }
  obs::Json j = obs::Json::object();
  j.set("ok", ok);
  j.set("error", error);
  j.set("wall_s", now_s() - t);
  return j;
}

/// The traced replay, then the thread-per-rank cost alone (Runtime::run
/// with an empty body at the same rank count).
obs::Json mode_replay(const DirectCase& c, const std::string& spans) {
  SpanRecorder rec;
  const ReplayRun replay = replay_direct(c, rec);
  if (!spans.empty() && !rec.write_json(spans)) {
    std::cerr << "perfbench: cannot write " << spans << "\n";
  }
  obs::Json layers = obs::Json::object();
  for (const auto& [k, v] : replay.layers) layers.set(k, v);
  {
    simmpi::Runtime runtime(
        platform::platform_by_name(c.platform).topology(c.ranks));
    std::vector<double> v;
    for (int i = 0; i < 5; ++i) {
      const double t = now_s();
      runtime.run([](simmpi::Comm&) {});
      v.push_back(now_s() - t);
    }
    layers.set("simmpi.spawn_join_s", median(v));
  }
  obs::Json j = obs::Json::object();
  j.set("ok", replay.error.empty() &&
                  static_cast<int>(replay.steps.size()) == c.steps);
  j.set("error", replay.error);
  j.set("steps", steps_json(replay.steps));
  j.set("layers", std::move(layers));
  return j;
}

/// Times every call the engine makes into the persistent result store.
/// Calls arrive from every engine thread, so the sums are thread-seconds.
class TimedStore final : public core::ExperimentResultStore {
 public:
  explicit TimedStore(core::ExperimentResultStore& inner) : inner_(inner) {}
  bool load(const std::string& key, core::ExperimentResult& out) override {
    const double t = now_s();
    const bool hit = inner_.load(key, out);
    load_ns += static_cast<std::int64_t>((now_s() - t) * 1e9);
    return hit;
  }
  void save(const std::string& key,
            const core::ExperimentResult& result) override {
    const double t = now_s();
    inner_.save(key, result);
    save_ns += static_cast<std::int64_t>((now_s() - t) * 1e9);
  }
  std::atomic<std::int64_t> load_ns{0};
  std::atomic<std::int64_t> save_ns{0};

 private:
  core::ExperimentResultStore& inner_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                        : 0.0;
}

struct PassOut {
  double seconds = 0.0;       // store open to store closed
  double engine_s = 0.0;      // engine construction (outside `seconds`)
  double open_s = 0.0, evaluate_s = 0.0, report_s = 0.0, close_s = 0.0;
  double store_load_s = 0.0, store_save_s = 0.0;
  std::size_t results = 0;
};

/// One pass over the grid with a fresh engine on the store at `store`:
/// evaluate every cell, write the report to `report`, close the store.
PassOut grid_pass(const grid::MatrixSpec& spec,
                  const std::vector<grid::GridCell>& cells, int jobs,
                  const std::string& store_path, const std::string& report,
                  SpanRecorder* rec) {
  PassOut p;
  double t = now_s();
  std::optional<ScopedSpan> span(std::in_place, rec, "svc.store_open");
  auto store = std::make_unique<svc::MemoStore>(store_path);
  span.reset();
  p.open_s = now_s() - t;
  svc::MemoResultStore memo(*store);
  TimedStore timed(memo);
  core::CampaignEngineOptions options;
  options.jobs = jobs;
  options.result_store = rec != nullptr
                             ? static_cast<core::ExperimentResultStore*>(&timed)
                             : &memo;
  t = now_s();
  span.emplace(rec, "core.engine");
  auto engine =
      std::make_unique<core::CampaignEngine>(grid::kGridRunnerSeed, options);
  span.reset();
  p.engine_s = now_s() - t;

  t = now_s();
  span.emplace(rec, "core.evaluate");
  const std::vector<core::ExperimentResult> results =
      grid::run_cells(*engine, cells);
  span.reset();
  p.evaluate_s = now_s() - t;
  p.results = results.size();

  t = now_s();
  span.emplace(rec, "grid.report");
  grid::write_report(
      grid::build_report(spec, cells, results, grid::kGridRunnerSeed), report);
  span.reset();
  p.report_s = now_s() - t;

  t = now_s();
  span.emplace(rec, "svc.store_close");
  engine.reset();
  store.reset();
  span.reset();
  p.close_s = now_s() - t;
  p.seconds = p.open_s + p.evaluate_s + p.report_s + p.close_s;
  p.store_load_s = static_cast<double>(timed.load_ns.load()) * 1e-9;
  p.store_save_s = static_cast<double>(timed.save_ns.load()) * 1e-9;
  return p;
}

obs::Json mode_grid(std::uint64_t seed, int jobs, const std::string& work,
                    const std::string& spans, bool traced) {
  SpanRecorder recorder;
  SpanRecorder* rec = traced ? &recorder : nullptr;
  const double t0 = now_s();
  grid::MatrixSpec spec = grid::preset("full");
  spec.matrix_seed = seed;
  double t = now_s();
  std::vector<grid::GridCell> cells;
  {
    ScopedSpan s(rec, "grid.expand");
    cells = grid::expand(spec);
  }
  const double expand_s = now_s() - t;

  const std::string store = work + "/store.log";
  const std::string cold_report = work + "/cold.jsonl";
  const std::string warm_report = work + "/warm.jsonl";
  std::remove(store.c_str());
  PassOut cold;
  {
    ScopedSpan s(rec, "pass.cold");
    cold = grid_pass(spec, cells, jobs, store, cold_report, rec);
  }
  const double store_bytes = file_bytes(store);
  PassOut warm;
  {
    ScopedSpan s(rec, "pass.warm");
    warm = grid_pass(spec, cells, jobs, store, warm_report, rec);
  }
  const double wall_s = now_s() - t0;

  const std::string cold_text = slurp(cold_report);
  const bool identical = !cold_text.empty() && cold_text == slurp(warm_report);
  const bool ok = cells.size() == 16200 && cold.results == cells.size() &&
                  warm.results == cells.size() && identical;

  obs::Json j = obs::Json::object();
  j.set("ok", ok);
  j.set("cells", static_cast<std::int64_t>(cells.size()));
  j.set("identical", identical);
  j.set("setup_s", expand_s + cold.engine_s);
  j.set("cold_s", cold.seconds);
  j.set("warm_s", warm.seconds);
  j.set("wall_s", wall_s);
  if (traced) {
    std::map<std::string, double> L;
    L["grid.expand_s"] = expand_s;
    L["core.evaluate_s"] = cold.evaluate_s;
    L["grid.report_s"] = cold.report_s;
    L["grid.report_bytes"] = file_bytes(cold_report);
    L["svc.store_write_s"] = cold.store_save_s;
    L["svc.store_read_s"] = warm.open_s + warm.store_load_s;
    L["svc.store_bytes"] = store_bytes;

    // Unique experiments, and the modeled run each one costs alone.
    std::unordered_set<std::string> keys;
    std::vector<const core::Experiment*> unique;
    for (const grid::GridCell& cell : cells) {
      if (keys.insert(core::experiment_cache_key(cell.experiment,
                                                 grid::kGridRunnerSeed))
              .second) {
        unique.push_back(&cell.experiment);
      }
    }
    L["core.unique_ratio"] =
        static_cast<double>(unique.size()) / static_cast<double>(cells.size());
    core::ExperimentRunner runner(grid::kGridRunnerSeed);
    std::vector<double> us;
    for (const core::Experiment* e : unique) {
      const double te = now_s();
      runner.run(*e);
      us.push_back((now_s() - te) * 1e6);
    }
    L["core.modeled_run_us"] = median(us);

    // Layer spans against the pass they sit in.
    double covered = 0.0;
    double passes = 0.0;
    for (const char* name : {"pass.cold", "pass.warm"}) {
      for (const int id : recorder.find(name)) {
        covered += recorder.child_seconds(id) -
                   recorder.total("core.engine", id);
        passes += recorder.spans()[static_cast<std::size_t>(id)].seconds() -
                  recorder.total("core.engine", id);
      }
    }
    L["grid.pass_covered_s"] = covered;
    L["grid.pass_traced_s"] = passes;
    if (!spans.empty() && !recorder.write_json(spans)) {
      std::cerr << "perfbench: cannot write " << spans << "\n";
    }
    obs::Json layers = obs::Json::object();
    for (const auto& [k, v] : L) layers.set(k, v);
    j.set("layers", std::move(layers));
  }
  std::remove(store.c_str());
  std::remove(cold_report.c_str());
  std::remove(warm_report.c_str());
  return j;
}

/// STREAM triad a = b + s*c on one thread; best of several sweeps, 24
/// bytes per element (STREAM's count: two reads and one write).
obs::Json mode_triad(long mb) {
  const std::size_t n = static_cast<std::size_t>(mb) * (1u << 20) / 8;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    const double t = now_s();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = now_s() - t;
    best = std::max(best, 24.0 * static_cast<double>(n) / dt / 1e9);
    b[rep % n] += a[(rep * 7919) % n];  // keeps every sweep observable
  }
  obs::Json j = obs::Json::object();
  j.set("ok", std::isfinite(best) && best > 0.0);
  j.set("array_bytes", static_cast<double>(n) * 8.0);
  j.set("triad_gbs", best);
  return j;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse(argc, argv);
    if (args.mode == "env") {
      std::cout << mode_env().dump() << "\n";
      return 0;
    }
    // A number must never silently measure another program.
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
                << " build; configure with CMAKE_BUILD_TYPE=Release\n";
      return 3;
    }
    if (hetero::la::kernel_mode() != hetero::la::KernelMode::kFast) {
      std::cerr << "perfbench: refusing to measure the reference kernels "
                   "(unset HETERO_KERNELS)\n";
      return 3;
    }
    obs::Json out;
    if (args.mode == "direct") {
      out = mode_direct(direct_case(args));
    } else if (args.mode == "runner") {
      out = mode_runner(direct_case(args));
    } else if (args.mode == "replay") {
      out = mode_replay(direct_case(args), args.get("spans"));
    } else if (args.mode == "grid" || args.mode == "trace-grid") {
      out = mode_grid(static_cast<std::uint64_t>(args.num("seed", 42)),
                      static_cast<int>(args.num("jobs", 1)),
                      args.get("work", "."), args.get("spans"),
                      args.mode == "trace-grid");
    } else if (args.mode == "triad") {
      out = mode_triad(args.num("mb", 256));
    } else {
      std::cerr << "perfbench: unknown mode '" << args.mode << "'\n";
      return 2;
    }
    std::cout << out.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
