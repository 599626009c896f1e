#include "core/experiment.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>

#include "apps/ns_solver.hpp"
#include "apps/rd_solver.hpp"
#include "cloud/ec2_service.hpp"
#include "io/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "provision/planner.hpp"
#include "rebroker/controller.hpp"
#include "sched/scheduler.hpp"
#include "simmpi/runtime.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/stats.hpp"

namespace hetero::core {

namespace {

perf::ModelConfig model_for(const Experiment& e) {
  perf::ModelConfig m = e.app == perf::AppKind::kReactionDiffusion
                            ? perf::rd_model()
                            : perf::ns_model();
  m.cells_per_rank_axis = e.cells_per_rank_axis;
  if (e.app == perf::AppKind::kNavierStokes) {
    m.ns_velocity_order = e.element_order;
    if (e.element_order >= 2) {
      // Taylor-Hood trades the stabilization terms for a heavier saddle
      // point: the velocity block grows and GMRES needs more iterations
      // per step than the stabilized equal-order pair.
      m.base_solver_iterations *= 1.5;
    }
  }
  return m;
}

/// Installs a trace recorder for the duration of a scope; uninstalls on
/// exit so an exception inside the run cannot leave a dangling recorder.
class ScopedTraceInstall {
 public:
  explicit ScopedTraceInstall(obs::TraceRecorder* recorder) {
    obs::set_current_trace(recorder);
  }
  ScopedTraceInstall(const ScopedTraceInstall&) = delete;
  ScopedTraceInstall& operator=(const ScopedTraceInstall&) = delete;
  ~ScopedTraceInstall() { obs::set_current_trace(nullptr); }
};

struct LbMetrics {
  obs::Counter& checks = obs::metrics().counter("lb.checks");
  obs::Counter& rebalances = obs::metrics().counter("lb.rebalances");
};

LbMetrics& lb_metrics() {
  static LbMetrics metrics;
  return metrics;
}

struct ResilMetrics {
  obs::Counter& faults = obs::metrics().counter("resil.faults_injected");
  obs::Counter& launch_retries =
      obs::metrics().counter("resil.launch_retries");
  obs::Counter& checkpoints =
      obs::metrics().counter("resil.checkpoints_written");
  obs::Counter& steps_wasted = obs::metrics().counter("resil.steps_wasted");
  obs::Counter& steps_recovered =
      obs::metrics().counter("resil.steps_recovered");
  obs::Counter& retry_delay_s = obs::metrics().counter("resil.retry_delay_s");
  obs::Counter& wasted_cost_usd =
      obs::metrics().counter("resil.wasted_cost_usd");
  obs::Counter& recoveries = obs::metrics().counter("resil.recoveries");
  obs::Counter& unrecovered = obs::metrics().counter("resil.unrecovered");
};

ResilMetrics& resil_metrics() {
  static ResilMetrics metrics;
  return metrics;
}

/// Scratch file for checkpoint-restart. Unique per (process, call) so
/// campaign-engine threads running direct experiments in parallel never
/// share a file.
std::string checkpoint_scratch_path() {
  static std::atomic<std::uint64_t> counter{0};
  return "/tmp/heterolab_ckpt_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".h5l";
}

// The two apps expose their BDF history under different names.
const la::DistVector& state_now(const apps::RdSolver& s) {
  return s.solution();
}
const la::DistVector& state_prev(const apps::RdSolver& s) {
  return s.previous_solution();
}
const la::DistVector& state_now(const apps::NsSolver& s) { return s.state(); }
const la::DistVector& state_prev(const apps::NsSolver& s) {
  return s.previous_state();
}

/// The experiment's skew plan for one platform. Salted like the fault
/// stream so skew draws never correlate with crashes or spot prices.
resil::SkewPlan make_skew_plan(const Experiment& e, std::uint64_t runner_seed,
                               const std::string& platform) {
  const std::uint64_t skew_seed =
      hash_combine(hash_combine(0x736b6577ULL /* "skew" */, runner_seed),
                   e.seed);
  return resil::SkewPlan(e.skew, skew_seed, platform);
}

/// Mean per-rank skew factors — the modeled (expected-value) view of the
/// direct-mode plan, hashed from the same stream.
std::vector<double> skew_mean_factors(const resil::SkewPlan& plan, int ranks) {
  std::vector<double> factors(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    factors[static_cast<std::size_t>(r)] = plan.mean_factor(r);
  }
  return factors;
}

/// Why a direct-run attempt ended before the final step.
enum class Restart { kNone, kRecovery, kMigration, kRebalance };

/// Per restart reason, in enum order: the trace category, the instant the
/// checkpoint ahead of it leaves (rank side), and the instant the restart
/// leaves on the job clock (host side). kNone is the periodic checkpoint.
struct RestartTrace {
  const char* category;
  const char* checkpoint;
  const char* restart;
};
constexpr RestartTrace kRestartTrace[] = {
    {"resil", "checkpoint", nullptr},
    {"resil", "checkpoint", "recovery_restart"},
    {"rebroker", "migration_checkpoint", "migration"},
    {"lb", "rebalance_checkpoint", "rebalance"},
};
const RestartTrace& restart_trace(Restart why) {
  return kRestartTrace[static_cast<int>(why)];
}

}  // namespace

ExperimentRunner::ExperimentRunner(std::uint64_t seed) : seed_(seed) {}

resil::FaultPlan ExperimentRunner::make_plan(
    const Experiment& experiment) const {
  // Salted combine: the fault stream is independent of the Rng streams that
  // draw queue waits and spot prices from the same two seeds.
  const std::uint64_t plan_seed = hash_combine(
      hash_combine(0x726573696cULL /* "resil" */, seed_), experiment.seed);
  return resil::FaultPlan(experiment.faults, plan_seed);
}

ExperimentResult ExperimentRunner::run(const Experiment& experiment) {
  HETERO_REQUIRE(experiment.ranks >= 1, "experiment needs ranks >= 1");
  HETERO_REQUIRE(
      experiment.element_order == 1 || experiment.element_order == 2,
      "element_order must be 1 (P1/P1) or 2 (Taylor-Hood P2/P1)");
  HETERO_REQUIRE(experiment.element_order == 1 ||
                     experiment.app == perf::AppKind::kNavierStokes,
                 "the Taylor-Hood pair applies to the Navier-Stokes app only "
                 "(reaction-diffusion is a fixed P2 scalar discretization)");
  if (experiment.skew_assume_balanced) {
    HETERO_REQUIRE(experiment.mode == Mode::kModeled,
                   "assume-balanced is the analytic modeled projection; "
                   "direct runs balance for real via balance.enabled");
    HETERO_REQUIRE(experiment.skew.enabled(),
                   "assume-balanced needs skew enabled (a uniform platform "
                   "has nothing to balance)");
  }
  const platform::PlatformSpec& spec =
      platform::platform_by_name(experiment.platform);
  if (experiment.rebroker.enabled) {
    HETERO_REQUIRE(experiment.mode == Mode::kDirect,
                   "re-brokering needs --mode direct (the control loop "
                   "samples live step times)");
    // Validates the fallback name; throws for unknown platforms.
    platform::platform_by_name(experiment.rebroker.fallback_platform);
    if (experiment.rebroker.target_ranks > 0) {
      const int t = static_cast<int>(
          std::round(std::cbrt(experiment.rebroker.target_ranks)));
      HETERO_REQUIRE(t * t * t == experiment.rebroker.target_ranks,
                     "re-brokering target ranks must be cubic (1, 8, 27, ...)");
    }
  }
  if (experiment.balance.enabled) {
    HETERO_REQUIRE(experiment.mode == Mode::kDirect,
                   "load balancing needs --mode direct (the balancer samples "
                   "live per-rank step times)");
    // Surfaces bad policy values (threshold <= 1, mode typos, ...) as API
    // errors before any solver work starts.
    lb::LoadBalancer probe(experiment.balance, experiment.ranks);
    (void)probe;
  }

  ExperimentResult result;
  result.provisioning_hours =
      provision::plan_provisioning(spec).total_hours();

  const resil::FaultPlan plan = make_plan(experiment);

  // Availability: can the platform even launch this job, and how long does
  // it sit in the queue (or wait for instance boot)? Injected *transient*
  // launch failures are retried under the recovery policy, each retry
  // charging a capped exponential backoff to the wait; capability failures
  // ("puma has only 128 cores") are never retried.
  Rng rng(seed_ ^ experiment.seed);
  std::unique_ptr<sched::Scheduler> scheduler = sched::make_scheduler(spec);
  if (plan.enabled()) {
    scheduler =
        std::make_unique<sched::FaultyScheduler>(std::move(scheduler), plan);
  }
  sched::JobOutcome outcome;
  for (int attempt = 0;; ++attempt) {
    outcome = scheduler->submit(
        {experiment.ranks, /*estimated_runtime_s=*/3600.0}, rng);
    if (outcome.launched || !outcome.transient) break;
    if (experiment.recovery.kind == resil::RecoveryKind::kNone ||
        attempt + 1 >= experiment.recovery.max_attempts) {
      break;
    }
    ++result.resil.launch_retries;
    result.resil.retry_delay_s +=
        resil::backoff_delay_s(experiment.recovery, attempt);
    resil_metrics().launch_retries.increment();
  }
  if (!outcome.launched) {
    result.launched = false;
    result.failure_reason = outcome.failure_reason;
    return result;
  }
  result.launched = true;
  result.queue_wait_s = outcome.wait_s + result.resil.retry_delay_s;
  result.hosts = (experiment.ranks + spec.cores_per_node() - 1) /
                 spec.cores_per_node();

  ExperimentResult run_part =
      experiment.mode == Mode::kModeled ? run_modeled(experiment, spec)
                                        : run_direct(experiment, spec);
  // Merge the run-phase output into the availability/effort scaffold.
  // Direct mode decides `launched` itself: an unrecovered injected fault
  // reports failure even though the scheduler said yes.
  run_part.queue_wait_s = result.queue_wait_s;
  run_part.provisioning_hours = result.provisioning_hours;
  run_part.hosts = result.hosts;
  run_part.resil.launch_retries = result.resil.launch_retries;
  run_part.resil.retry_delay_s += result.resil.retry_delay_s;
  if (run_part.resil.final_ranks == 0) {
    run_part.resil.final_ranks = experiment.ranks;
  }
  if (!experiment.metrics_path.empty()) {
    obs::metrics().write_json(experiment.metrics_path);
  }
  return run_part;
}

ExperimentResult ExperimentRunner::run_modeled(
    const Experiment& experiment, const platform::PlatformSpec& spec) {
  ExperimentResult result;
  result.launched = true;
  const perf::ModelConfig model = model_for(experiment);
  result.work_per_rank = perf::work_per_rank(model, experiment.ranks);

  apps::CpuCostModel cpu = spec.cpu_model();
  if (experiment.skew.enabled()) {
    // Synchronized iterations run at the pace of the slowest core: degrade
    // the platform's uniform speed by the *unbalanced* skew slowdown — or,
    // under skew_assume_balanced, by the harmonic-mean slowdown of a
    // perfectly capacity-balanced partition (the analytic twin of direct
    // mode's dynamic balancer; always <= the unbalanced factor).
    const resil::SkewPlan splan = make_skew_plan(experiment, seed_, spec.name);
    const std::vector<double> factors =
        skew_mean_factors(splan, experiment.ranks);
    cpu.speed_factor /= experiment.skew_assume_balanced
                            ? perf::skew_slowdown_balanced(factors)
                            : perf::skew_slowdown_unbalanced(factors);
  }

  if (spec.name == "ec2") {
    // Build the assembly through the cloud service so placement groups,
    // the spot market, and billing semantics all apply.
    cloud::Ec2Service service(seed_ ^ experiment.seed);
    service.authorize_intranet_tcp();
    const int hosts = (experiment.ranks + spec.cores_per_node() - 1) /
                      spec.cores_per_node();
    std::vector<int> groups;
    for (int g = 0; g < std::max(1, experiment.ec2_placement_groups); ++g) {
      groups.push_back(
          service.create_placement_group("hl-" + std::to_string(g)));
    }
    std::vector<cloud::Instance> instances;
    if (experiment.ec2_spot_mix) {
      auto spot = service.request_spot("cc2.8xlarge", hosts,
                                       experiment.ec2_spot_bid_usd, groups);
      instances = spot.instances;
      result.spot_hosts = static_cast<int>(instances.size());
      const int missing = hosts - result.spot_hosts;
      if (missing > 0) {
        // The paper "never succeeded in establishing a full 63-host spot
        // configuration" and topped up with regularly priced hosts.
        auto fill = service.request_on_demand(
            "cc2.8xlarge", missing,
            groups[static_cast<std::size_t>(result.spot_hosts) %
                   groups.size()]);
        instances.insert(instances.end(), fill.instances.begin(),
                         fill.instances.end());
      }
    } else {
      instances =
          service.request_on_demand("cc2.8xlarge", hosts, groups.front())
              .instances;
    }
    const auto topo = service.assembly_topology(
        instances, experiment.ranks, experiment.cross_group_penalty);
    result.iteration =
        perf::project_iteration(model, topo, cpu, experiment.ranks);
    // Per-iteration cost at the blended hourly rate of the assembly.
    double hourly = 0.0;
    for (const auto& inst : instances) {
      hourly += inst.hourly_usd;
    }
    result.cost_per_iteration_usd = hourly * result.iteration.total_s / 3600.0;
    result.est_cost_per_iteration_usd =
        hosts * cloud::instance_type("cc2.8xlarge").typical_spot_hourly_usd *
        result.iteration.total_s / 3600.0;
    result.hosts = hosts;
    return result;
  }

  const auto topo = spec.topology(experiment.ranks);
  result.iteration =
      perf::project_iteration(model, topo, cpu, experiment.ranks);
  result.cost_per_iteration_usd =
      spec.cost_usd(experiment.ranks, result.iteration.total_s);
  result.est_cost_per_iteration_usd = result.cost_per_iteration_usd;
  return result;
}

ExperimentResult ExperimentRunner::run_direct(
    const Experiment& experiment, const platform::PlatformSpec& spec) {
  ExperimentResult result;
  const resil::FaultPlan plan = make_plan(experiment);
  const resil::RecoveryPolicy& policy = experiment.recovery;
  resil::RecoveryStats& rstats = result.resil;
  const rebroker::Policy& rb = experiment.rebroker;
  const bool rb_on = rb.enabled;

  std::unique_ptr<obs::TraceRecorder> recorder;
  std::optional<ScopedTraceInstall> install;
  if (!experiment.trace_path.empty()) {
    // One row per rank of the widest attempt: recovery only shrinks the
    // job, but a migration may grow it to the fallback's target ranks.
    recorder = std::make_unique<obs::TraceRecorder>(
        std::max(experiment.ranks, rb_on ? rb.target_ranks : 0));
    install.emplace(recorder.get());
  }

  // Global mesh: cells_per_rank_axis^3 per rank, cube decomposition. The
  // global problem is fixed by the *original* rank count and stays fixed
  // when a restart resizes the assembly (27 -> 8 after a reclaim) — the
  // survivors take over the lost gids.
  const int k = static_cast<int>(std::round(std::cbrt(experiment.ranks)));
  HETERO_REQUIRE(k * k * k == experiment.ranks,
                 "direct mode needs a cubic rank count (1, 8, 27, ...)");
  const int global_cells = experiment.cells_per_rank_axis * k;
  const int steps = experiment.direct_steps;

  // What the next attempt runs on: a restart may change any of these
  // (everything billed or timed below reads through `cur` and `ranks`).
  const platform::PlatformSpec* cur = &spec;
  int ranks = experiment.ranks;
  int axis = k;
  std::vector<double> rank_weights;  // empty = uniform partition
  rstats.final_ranks = ranks;

  const bool use_ckpt =
      policy.kind == resil::RecoveryKind::kCheckpointRestart;
  // Re-brokering and load balancing checkpoint through `io` ahead of their
  // restarts even when the recovery policy itself never checkpoints.
  const bool need_ckpt_file = use_ckpt || rb_on || experiment.balance.enabled;
  const std::string ckpt_path = need_ckpt_file ? checkpoint_scratch_path() : "";
  // Checkpoint bookkeeping. Written by rank 0 of the running attempt, read
  // by the host thread and the next attempt — Runtime::run joins all rank
  // threads first, so there is no cross-attempt race.
  bool have_checkpoint = false;
  int ckpt_step = 0;  // completed steps at the checkpoint

  // Completed-step records by absolute step index; rank 0 writes. Re-run
  // steps overwrite with identical values (same discrete trajectory).
  std::vector<apps::StepRecord> records(static_cast<std::size_t>(steps));
  // Dollar cost of each completed step on the platform it last ran on;
  // rank 0 writes. Migrated runs blend their per-iteration cost from this.
  std::vector<double> step_cost(static_cast<std::size_t>(steps), 0.0);

  // Steps the current attempt re-executes or runs; the crash cell lookup
  // starts here, so a restart from a checkpoint exposes fewer cells.
  auto resume_step = [&] { return have_checkpoint ? ckpt_step : 0; };

  // The mid-run controllers. Each attempt hands every simulated rank an
  // identical copy of each enabled one, fed the same allreduced (step time)
  // or allgathered (per-rank step times) observation, so every rank reaches
  // the same verdict without communication; rank 0's copies are canonical
  // and are adopted back after the attempt. The disabled re-brokering
  // controller still counts storms so a static plan's outcome reports what
  // the market did to it.
  rebroker::Controller canonical;
  std::vector<rebroker::Controller> rank_ctl;
  lb::LoadBalancer lb_canonical(experiment.balance, experiment.ranks);
  std::vector<lb::LoadBalancer> rank_lb;
  if (rb_on) {
    const std::uint64_t rb_seed = hash_combine(
        hash_combine(0x7262726bULL /* "rbrk" */, seed_), experiment.seed);
    const int redo_steps =
        use_ckpt ? std::max(1, policy.checkpoint_every / 2)
                 : std::max(1, steps / 2);
    canonical =
        rebroker::Controller(rb, experiment.app, experiment.cells_per_rank_axis,
                             steps, rb_seed, resil::backoff_delay_s(policy, 0),
                             redo_steps);
  }

  // The job's virtual clock and spend across attempts, backoffs and
  // migration queue waits included: the re-brokering controller prices
  // against them and every host-side restart instant is stamped with the
  // clock.
  double job_s = 0.0;
  double job_usd = 0.0;

  // Why the last attempt ended before the final step: rank 0 writes a
  // controller's verdict; an injected fault means kRecovery.
  Restart restart = Restart::kNone;

  // One attempt: build the solver (restoring from the checkpoint if we
  // have one) and run it from there, injecting the planned crash or
  // spot-reclaim storm. After each step every enabled controller folds the
  // same allreduced/allgathered data, so all ranks reach the same verdict;
  // the one checkpoint site then writes the periodic checkpoint or the one
  // a restart needs, and a restart unwinds the attempt *cleanly* (no
  // exception) on every rank together.
  auto run_attempt = [&](simmpi::Runtime& runtime, auto make_solver,
                         const std::optional<resil::RankCrash>& crash,
                         const std::optional<int>& storm) {
    runtime.run([&](simmpi::Comm& comm) {
      auto solver = make_solver(comm);
      int start_step = 0;
      if (have_checkpoint) {
        la::DistVector u_now(solver.map());
        la::DistVector u_prev(solver.map());
        const io::SolverCheckpointMeta meta =
            io::load_solver_checkpoint(comm, u_now, u_prev, ckpt_path);
        solver.restore_state(u_now, u_prev, meta.time);
        start_step = meta.steps_done;
      }
      const auto r = static_cast<std::size_t>(comm.rank());
      for (int s = start_step; s < steps; ++s) {
        if (storm && s == *storm && r == 0) {
          obs::trace_instant("spot_reclaim", "resil", comm.now(), "step",
                             static_cast<double>(s));
          throw resil::SpotReclaim(s);
        }
        if (crash && s == crash->step && comm.rank() == crash->rank) {
          obs::trace_instant("rank_crash", "resil", comm.now(), "step",
                             static_cast<double>(s));
          throw resil::InjectedFault(comm.rank(), s);
        }
        const apps::StepRecord record = solver.step();
        const auto at = static_cast<std::size_t>(s);
        if (r == 0) {
          records[at] = record;
        }
        Restart want = Restart::kNone;
        if (rb_on) {
          // timing.total_s is an allreduced maximum, identical everywhere.
          const double cost_s = cur->cost_usd(ranks, record.timing.total_s);
          if (r == 0) {
            step_cost[at] = cost_s;
          }
          if (rank_ctl[r].observe_step(s, record.timing.total_s, cost_s)) {
            want = Restart::kMigration;
          }
        }
        // rank_step_s is allgathered, and collected only while balancing.
        // A migration outranks a rebalance: the move repartitions anyway.
        if (!record.rank_step_s.empty() &&
            rank_lb[r].observe(s, std::span<const double>(record.rank_step_s)) &&
            want == Restart::kNone) {
          want = Restart::kRebalance;
        }
        const bool periodic =
            use_ckpt && (s + 1) % policy.checkpoint_every == 0;
        if (s + 1 == steps || (!periodic && want == Restart::kNone)) {
          continue;
        }
        io::save_solver_checkpoint(comm, state_now(solver),
                                   state_prev(solver), solver.current_time(),
                                   s + 1, ckpt_path);
        if (r == 0) {
          have_checkpoint = true;
          ckpt_step = s + 1;
          ++rstats.checkpoints_written;
          resil_metrics().checkpoints.increment();
          obs::trace_instant(restart_trace(want).checkpoint,
                             restart_trace(want).category, comm.now(), "step",
                             static_cast<double>(s + 1));
          restart = want;
        }
        if (want != Restart::kNone) {
          return;
        }
      }
    });
  };

  // Every restart, whatever its reason, consumes the next attempt number:
  // the fault plan, the recovery budget and the rebroker trail key on it.
  for (int attempt = 0;; ++attempt) {
    rstats.attempts = attempt + 1;
    auto crash = plan.rank_crash(ranks, steps, attempt, resume_step());
    // Spot-reclaim storms only exist where there is a spot market; a
    // migration to an on-premises queue leaves them behind. When both a
    // crash and a storm arm in one attempt, only the earlier one can fire
    // (ties go to the crash): one throwing rank per attempt keeps
    // Runtime::run's first-error propagation deterministic.
    std::optional<int> storm;
    if (cur->spot_node_hour_usd > 0.0) {
      storm = plan.spot_reclaim(steps, attempt, resume_step());
    }
    if (crash && storm) {
      if (*storm < crash->step) {
        crash.reset();
      } else {
        storm.reset();
      }
    }
    if (rb_on) {
      canonical.begin_attempt(attempt, cur->name, ranks, resume_step(), job_s,
                              job_usd, canonical.outcome().storms,
                              canonical.steps_observed());
      rank_ctl.assign(static_cast<std::size_t>(ranks), canonical);
    }
    rank_lb.assign(lb_canonical.enabled() ? static_cast<std::size_t>(ranks)
                                          : 0,
                   lb_canonical);
    simmpi::Runtime runtime(cur->topology(ranks));
    if (plan.enabled()) {
      runtime.set_degradation(plan.degradation());
    }
    if (experiment.skew.enabled()) {
      // Per-rank slow cores and time-windowed noisy neighbors, hashed from
      // (seed, platform, rank): every compute charge on rank r at virtual
      // time t is stretched by the same factor at any --jobs.
      const resil::SkewPlan splan =
          make_skew_plan(experiment, seed_, cur->name);
      runtime.set_compute_scale(
          [splan](int rank, double now) { return splan.factor_at(rank, now); });
    }
    restart = Restart::kNone;
    std::optional<resil::InjectedFault> fault;
    // What both apps' configs take from the attempt.
    auto configure = [&](auto config) {
      config.global_cells = global_cells;
      config.cpu = cur->cpu_model();
      config.rank_weights = rank_weights;
      config.collect_rank_step_s = !rank_lb.empty();
      return config;
    };
    try {
      if (experiment.app == perf::AppKind::kReactionDiffusion) {
        run_attempt(
            runtime,
            [&](simmpi::Comm& comm) {
              return apps::RdSolver(comm, configure(apps::RdConfig{}));
            },
            crash, storm);
      } else {
        apps::NsConfig ns;
        ns.velocity_order = experiment.element_order;
        run_attempt(
            runtime,
            [&](simmpi::Comm& comm) {
              return apps::NsSolver(comm, configure(ns));
            },
            crash, storm);
      }
    } catch (const resil::InjectedFault& f) {
      fault = f;
      restart = Restart::kRecovery;
    }
    if (rb_on) {
      canonical = rank_ctl[0];
    }
    if (!rank_lb.empty()) {
      lb_canonical = rank_lb[0];
    }
    if (restart == Restart::kNone) {
      break;  // the attempt ran to the last step
    }

    const double attempt_s = runtime.elapsed_sim_seconds();
    const double attempt_usd = cur->cost_usd(ranks, attempt_s);
    if (fault) {
      const int wasted = std::max(0, fault->step() - resume_step());
      ++rstats.faults_injected;
      rstats.wasted_sim_s += attempt_s;
      rstats.wasted_cost_usd += attempt_usd;
      rstats.steps_wasted += wasted;
      resil_metrics().faults.increment();
      resil_metrics().steps_wasted.add(static_cast<double>(wasted));
      resil_metrics().wasted_cost_usd.add(attempt_usd);
      if (fault->rank() < 0) {
        // A storm, not a host: the whole allocation went away.
        canonical.record_storm(fault->step(), job_s + attempt_s);
      }
      if (policy.kind == resil::RecoveryKind::kNone ||
          attempt + 1 >= policy.max_attempts) {
        resil_metrics().unrecovered.increment();
        result.failure_reason =
            std::string(fault->what()) + "; unrecovered after " +
            std::to_string(attempt + 1) + " attempt(s) with policy '" +
            resil::to_string(policy.kind) + "'";
        break;
      }
    }

    // Turn the restart reason into the next attempt's platform, ranks and
    // weights, and the wait (backoff or queue) before it starts.
    const platform::PlatformSpec* const from = cur;
    const int from_ranks = ranks;
    double wait_s = 0.0;
    const char* mark = restart_trace(restart).restart;
    switch (restart) {
      case Restart::kRecovery:
        wait_s = resil::backoff_delay_s(policy, attempt);
        rstats.retry_delay_s += wait_s;
        rstats.steps_recovered += resume_step();
        resil_metrics().retry_delay_s.add(wait_s);
        resil_metrics().steps_recovered.add(
            static_cast<double>(resume_step()));
        if (policy.shrink_ranks_on_crash && axis > 1) {
          // A reclaim took hosts: restart on the next smaller cube. The
          // checkpoint redistributes by gid, so the survivors pick up the
          // lost ranks' share.
          --axis;
          ranks = axis * axis * axis;
        }
        break;
      case Restart::kMigration: {
        const int target_ranks = canonical.move_ranks();
        const platform::PlatformSpec& target =
            platform::platform_by_name(rb.fallback_platform);
        // The real submission to the fallback, on its own hashed stream:
        // replays of the same seed see the same queue wait at any --jobs.
        Rng migration_rng(hash_mix(hash_combine(
            hash_combine(hash_combine(0x7262726bULL /* "rbrk" */, seed_),
                         experiment.seed),
            static_cast<std::uint64_t>(canonical.outcome().migrations))));
        const sched::JobOutcome moved = sched::make_scheduler(target)->submit(
            {target_ranks, /*estimated_runtime_s=*/3600.0}, migration_rng);
        if (!moved.launched) {
          // The fallback would not take the job; resume from the migration
          // checkpoint on the platform we never left.
          canonical.record_migration_failed(moved.failure_reason);
          mark = nullptr;
          break;
        }
        canonical.record_migration(ckpt_step, cur->name, ranks, target.name,
                                   target_ranks, moved.wait_s);
        wait_s = moved.wait_s;
        cur = &target;
        ranks = target_ranks;
        axis = static_cast<int>(std::round(std::cbrt(target_ranks)));
        break;
      }
      case Restart::kRebalance:
        // The measured speeds become the next attempt's capacity weights;
        // it resumes from the rebalance checkpoint on a freshly weighted
        // partition (gid-keyed restore, as for recovery).
        lb_canonical.record_rebalance();
        rank_weights = lb_canonical.rank_weights();
        lb_metrics().rebalances.increment();
        break;
      case Restart::kNone:
        break;
    }
    // In sequence: the attempt, then the wait before the next one.
    job_s = job_s + attempt_s + wait_s;
    job_usd += attempt_usd;
    rstats.final_ranks = ranks;
    if (cur != from || ranks != from_ranks) {
      // Measured speeds describe ranks that no longer exist: the balancer
      // starts over uniform, keeping its counters and rebalance budget.
      lb_canonical.restart(ranks);
      rank_weights.clear();
    }
    if (mark != nullptr) {
      obs::trace_instant(mark, restart_trace(restart).category, job_s,
                         "attempt", static_cast<double>(attempt + 1));
    }
  }
  if (need_ckpt_file) std::remove(ckpt_path.c_str());
  result.rebroker = canonical.take_outcome();
  result.rebroker.final_platform = cur->name;
  result.balance = lb_canonical.outcome();
  if (!result.failure_reason.empty()) {
    result.launched = false;
    return result;
  }
  rstats.recovered = rstats.faults_injected > 0;
  if (rstats.recovered) {
    resil_metrics().recoveries.increment();
  }

  if (recorder) {
    recorder->write_chrome_json(experiment.trace_path);
  }

  SampleStats assembly;
  SampleStats precond;
  SampleStats solve;
  SampleStats total;
  double nodal_error = 0.0;
  bool converged = true;
  apps::WorkCounts work;
  std::int64_t iters_total = 0;
  for (const auto& r : records) {
    assembly.add(r.timing.assembly_s);
    precond.add(r.timing.preconditioner_s);
    solve.add(r.timing.solve_s);
    total.add(r.timing.total_s);
    nodal_error = std::max(nodal_error, r.nodal_error);
    converged = converged && r.solver_converged;
    work = r.work;
    iters_total += r.solver_iterations;
  }

  result.launched = true;
  result.iteration.assembly_s = assembly.mean();
  result.iteration.preconditioner_s = precond.mean();
  result.iteration.solve_s = solve.mean();
  result.iteration.total_s = total.mean();
  result.iteration.solver_iterations =
      static_cast<double>(iters_total) / experiment.direct_steps;
  result.work_per_rank = work;
  result.nodal_error = nodal_error;
  result.solver_converged = converged;
  if (experiment.balance.enabled) {
    lb_metrics().checks.add(static_cast<double>(result.balance.checks));
  }
  if (result.rebroker.migrations > 0) {
    // A migrated run blends the per-step dollars each platform billed;
    // without a migration the legacy single-platform formula applies
    // unchanged (so an adaptive run that never moves prices identically
    // to a static one).
    double total_cost = 0.0;
    for (const double c : step_cost) {
      total_cost += c;
    }
    result.cost_per_iteration_usd = total_cost / steps;
  } else {
    result.cost_per_iteration_usd =
        cur->cost_usd(ranks, result.iteration.total_s);
  }
  result.est_cost_per_iteration_usd = result.cost_per_iteration_usd;
  return result;
}

std::vector<double> modeled_skew_factors(const Experiment& experiment,
                                         std::uint64_t runner_seed) {
  if (!experiment.skew.enabled()) {
    return std::vector<double>(static_cast<std::size_t>(experiment.ranks),
                               1.0);
  }
  const platform::PlatformSpec& spec =
      platform::platform_by_name(experiment.platform);
  const resil::SkewPlan plan =
      make_skew_plan(experiment, runner_seed, spec.name);
  return skew_mean_factors(plan, experiment.ranks);
}

}  // namespace hetero::core
