// Tests for the closed-loop re-brokering subsystem: the pure advise()
// verdict (hysteresis, deadline, and budget rules over canned drift
// traces), the mid-run migration machinery end to end (byte-identical
// replays, the exact-solution oracle across a storm-driven migration),
// the Predictor's resumed re-pricing, and the svc daemon's `rebroker`
// advisory records.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "broker/predictor.hpp"
#include "core/campaign_engine.hpp"
#include "core/experiment.hpp"
#include "obs/bench_io.hpp"
#include "obs/json.hpp"
#include "rebroker/controller.hpp"
#include "rebroker/quote.hpp"
#include "support/error.hpp"
#include "svc/result_codec.hpp"
#include "svc/service.hpp"

namespace {

using namespace hetero;

// --- advise(): the pure verdict ---------------------------------------

/// Inputs on a flat cost landscape: staying costs 0.01 $/step at pace
/// `observed`, the fallback half that at the same pace with no queue.
/// The cost rule then reads: migrate iff observed > 0.5 * (1 + h).
rebroker::AdviseInputs flat_inputs(double observed, double hysteresis) {
  rebroker::AdviseInputs in;
  in.steps_total = 100;
  in.steps_done = 10;
  in.observed_step_s = observed;
  in.stay.platform = "ec2";
  in.stay.ranks = 8;
  in.stay.can_launch = true;
  in.stay.seconds_per_step = 1.0;
  in.stay.cost_per_step_usd = 0.01;
  in.move.platform = "puma";
  in.move.ranks = 8;
  in.move.can_launch = true;
  in.move.seconds_per_step = 1.0;
  in.move.cost_per_step_usd = 0.005;
  in.move.queue_wait_s = 0.0;
  in.hysteresis = hysteresis;
  return in;
}

int verdict_flips(const std::vector<double>& trace, double hysteresis) {
  int flips = 0;
  bool have_last = false;
  bool last = false;
  for (const double observed : trace) {
    const auto a = rebroker::advise(flat_inputs(observed, hysteresis));
    if (have_last && a.migrate != last) {
      ++flips;
    }
    last = a.migrate;
    have_last = true;
  }
  return flips;
}

TEST(Advise, HysteresisPreventsFlapping) {
  // Oscillates around the zero-hysteresis parity point (observed = 0.5):
  // without a margin the verdict flips on every sample; a 25% margin
  // (threshold 0.625) never budges.
  const std::vector<double> oscillating = {0.48, 0.56, 0.47, 0.57,
                                           0.46, 0.58, 0.48, 0.56};
  EXPECT_GE(verdict_flips(oscillating, 0.0), 4);
  EXPECT_EQ(verdict_flips(oscillating, 0.25), 0);
}

TEST(Advise, VerdictFlipsOnceOnCannedDriftTrace) {
  // A degradation ramp: the verdict starts at stay, crosses the
  // hysteresis threshold exactly once, and never flaps back.
  const std::vector<double> ramp = {0.30, 0.40, 0.50, 0.60, 0.70,
                                    0.80, 0.90, 1.00, 1.10, 1.20};
  EXPECT_EQ(verdict_flips(ramp, 0.25), 1);
  EXPECT_FALSE(rebroker::advise(flat_inputs(ramp.front(), 0.25)).migrate);
  EXPECT_TRUE(rebroker::advise(flat_inputs(ramp.back(), 0.25)).migrate);
}

TEST(Advise, UnlaunchableFallbackAndBudgetGuard) {
  auto in = flat_inputs(2.0, 0.0);  // far past parity: would migrate
  ASSERT_TRUE(rebroker::advise(in).migrate);

  auto no_launch = in;
  no_launch.move.can_launch = false;
  const auto a = rebroker::advise(no_launch);
  EXPECT_FALSE(a.migrate);
  EXPECT_EQ(a.reason, "fallback cannot launch");

  auto tight = in;
  tight.migrate_budget_usd = 0.01;  // remaining fallback bill is 0.45 $
  const auto b = rebroker::advise(tight);
  EXPECT_FALSE(b.migrate);
  EXPECT_EQ(b.reason, "migration budget exceeded");
}

TEST(Advise, DeadlineOverridesCost) {
  // The fallback is cheaper but its queue misses the deadline: stay.
  auto in = flat_inputs(2.0, 0.0);
  in.move.queue_wait_s = 900.0;
  in.deadline_s = 250.0;  // stay finishes in ~180 s at the observed pace
  const auto a = rebroker::advise(in);
  EXPECT_FALSE(a.migrate);
  EXPECT_EQ(a.reason, "staying meets the deadline; fallback would miss it");

  // Storms push the stay projection past the deadline; the fallback's
  // queue still fits: migrate regardless of cost.
  auto stormy = in;
  stormy.move.queue_wait_s = 30.0;
  stormy.storm_rate = 0.1;
  stormy.backoff_expect_s = 30.0;
  stormy.redo_steps_per_storm = 4;
  const auto b = rebroker::advise(stormy);
  EXPECT_TRUE(b.migrate);
  EXPECT_EQ(b.reason, "deadline at risk; fallback meets it");
}

// --- the migration machinery end to end --------------------------------

/// The bench's stormy adaptive scenario: RD direct on ec2 with a 3%
/// spot-reclaim storm rate, re-brokering to puma under a 40 s deadline.
/// Seed 46 storms on the first attempt and migrates on the second.
core::Experiment stormy_adaptive_experiment() {
  core::Experiment e;
  e.app = perf::AppKind::kReactionDiffusion;
  e.platform = "ec2";
  e.ranks = 8;
  e.cells_per_rank_axis = 4;
  e.mode = core::Mode::kDirect;
  e.direct_steps = 16;
  e.faults.reclaim_storm_rate = 0.03;
  e.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
  e.recovery.checkpoint_every = 2;
  e.recovery.max_attempts = 2;
  e.rebroker.enabled = true;
  e.rebroker.fallback_platform = "puma";
  e.rebroker.hysteresis = 0.15;
  e.rebroker.deadline_s = 40.0;
  e.rebroker.run_label = "test-stormy";
  e.seed = 46;
  return e;
}

TEST(Rebroker, MigrationReplaysByteIdentically) {
  const auto e = stormy_adaptive_experiment();
  core::CampaignEngine first(42);
  core::CampaignEngine second(42);
  const auto r1 = first.run(e);
  const auto r2 = second.run(e);

  ASSERT_TRUE(r1.launched);
  ASSERT_GE(r1.rebroker.migrations, 1);
  ASSERT_GE(r1.rebroker.storms, 1);
  EXPECT_EQ(r1.rebroker.final_platform, "puma");
  // The whole result — every double down to the bit pattern, and the
  // complete decision trail — replays identically from the same seed.
  EXPECT_EQ(svc::encode_result(r1), svc::encode_result(r2));
  ASSERT_EQ(r1.rebroker.trail.size(), r2.rebroker.trail.size());
  EXPECT_EQ(r1.rebroker.trail, r2.rebroker.trail);
  // The trail actually narrates the migration.
  bool saw_migration_record = false;
  for (const auto& line : r1.rebroker.trail) {
    if (line.find("\"type\":\"migration\"") != std::string::npos) {
      saw_migration_record = true;
      EXPECT_NE(line.find("\"from_platform\":\"ec2\""), std::string::npos);
      EXPECT_NE(line.find("\"to_platform\":\"puma\""), std::string::npos);
      EXPECT_NE(line.find("\"checkpoint_step\""), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_migration_record);
}

TEST(Rebroker, MigrationLandsExactSolutionOracle) {
  // A storm-driven mid-run migration restores from the gid-keyed
  // checkpoint and finishes on puma; the physics must not notice. The
  // migrated run's nodal error against the exact solution is bitwise
  // equal to a calm single-platform run's: platform swaps change cost
  // models and topology timings, never the arithmetic.
  core::CampaignEngine engine(42);
  const auto migrated = engine.run(stormy_adaptive_experiment());
  ASSERT_TRUE(migrated.launched);
  ASSERT_GE(migrated.rebroker.migrations, 1);

  auto calm = stormy_adaptive_experiment();
  calm.faults.reclaim_storm_rate = 0.0;
  calm.rebroker = rebroker::Policy{};
  const auto baseline = engine.run(calm);
  ASSERT_TRUE(baseline.launched);
  EXPECT_EQ(baseline.rebroker.migrations, 0);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(migrated.nodal_error),
            std::bit_cast<std::uint64_t>(baseline.nodal_error));
  EXPECT_EQ(migrated.solver_converged, baseline.solver_converged);
}

TEST(Rebroker, TracedMigrationThatGrowsTheJobTracesEveryRank) {
  // A migration may land on more ranks than the job started with: the
  // trace needs a row for every rank of the widest attempt.
  const std::string trace_path =
      ::testing::TempDir() + "rebroker_test_grow.trace.json";
  auto e = stormy_adaptive_experiment();
  e.ranks = 1;
  e.rebroker.target_ranks = 8;
  e.trace_path = trace_path;
  const auto r = core::ExperimentRunner(42).run(e);
  ASSERT_TRUE(r.launched) << r.failure_reason;
  ASSERT_GE(r.rebroker.migrations, 1);
  EXPECT_EQ(r.resil.final_ranks, 8);
  EXPECT_LT(r.nodal_error, 1e-8);

  const auto docs = obs::read_jsonl(trace_path);
  ASSERT_EQ(docs.size(), 1u);
  const obs::Json& events = docs[0].at("traceEvents");
  int rows = 0;
  std::vector<int> events_per_rank(8, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const int tid = static_cast<int>(events[i].at("tid").as_number());
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, 8);
    if (events[i].at("ph").as_string() == "M") {
      ++rows;
    } else {
      ++events_per_rank[static_cast<std::size_t>(tid)];
    }
  }
  EXPECT_EQ(rows, 8);  // a thread_name row per rank
#ifndef HETERO_OBS_DISABLED
  for (int rank = 0; rank < 8; ++rank) {
    EXPECT_GT(events_per_rank[static_cast<std::size_t>(rank)], 0)
        << "rank " << rank << " recorded nothing";
  }
#endif
  std::remove(trace_path.c_str());
}

TEST(Rebroker, CalmAdaptiveRunIsExactlyStatic) {
  // Without storms the controller samples but never migrates, and the
  // result prices through the unchanged single-platform formula.
  core::CampaignEngine engine(42);
  auto adaptive = stormy_adaptive_experiment();
  adaptive.faults.reclaim_storm_rate = 0.0;
  auto is_static = adaptive;
  is_static.rebroker = rebroker::Policy{};
  const auto a = engine.run(adaptive);
  const auto s = engine.run(is_static);
  ASSERT_TRUE(a.launched);
  EXPECT_EQ(a.rebroker.migrations, 0);
  EXPECT_GT(a.rebroker.samples, 0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cost_per_iteration_usd),
            std::bit_cast<std::uint64_t>(s.cost_per_iteration_usd));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.iteration.total_s),
            std::bit_cast<std::uint64_t>(s.iteration.total_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.nodal_error),
            std::bit_cast<std::uint64_t>(s.nodal_error));
}

// --- predictor: resumed re-pricing -------------------------------------

TEST(PredictResumed, ScalesSamePlatformQuoteByObservedDrift) {
  core::CampaignEngine engine(42);
  broker::Predictor predictor(engine);
  broker::Candidate c;
  c.platform = "ec2";
  c.ranks = 8;
  c.cells_per_rank_axis = 10;
  broker::JobRequest job;
  job.ranks = 8;
  job.iterations = 10;

  broker::ResumeState on_model;
  on_model.iterations_total = 10;
  on_model.iterations_done = 5;
  on_model.same_platform = true;
  const auto base = predictor.predict_resumed(c, job, on_model);
  ASSERT_TRUE(base.launched);
  EXPECT_DOUBLE_EQ(base.queue_wait_s, 0.0);  // the job already runs there
  EXPECT_DOUBLE_EQ(base.run_s, 5.0 * base.seconds_per_iteration);

  auto dragging = on_model;
  dragging.observed_seconds_per_iteration = 2.0 * base.seconds_per_iteration;
  const auto drifted = predictor.predict_resumed(c, job, dragging);
  ASSERT_TRUE(drifted.launched);
  // Billing is linear in seconds: a 2x slower pace doubles both the
  // remaining wall time and the remaining bill.
  EXPECT_DOUBLE_EQ(drifted.seconds_per_iteration,
                   dragging.observed_seconds_per_iteration);
  EXPECT_NEAR(drifted.run_s, 2.0 * base.run_s, 1e-9 * base.run_s);
  EXPECT_NEAR(drifted.cost_usd, 2.0 * base.cost_usd, 1e-9 * base.cost_usd);

  broker::ResumeState finished = on_model;
  finished.iterations_done = 10;
  const auto done = predictor.predict_resumed(c, job, finished);
  EXPECT_DOUBLE_EQ(done.run_s, 0.0);
  EXPECT_DOUBLE_EQ(done.cost_usd, 0.0);

  broker::ResumeState bogus = on_model;
  bogus.iterations_done = 11;
  EXPECT_THROW(predictor.predict_resumed(c, job, bogus), Error);
}

// --- svc: the rebroker advisory record ---------------------------------

TEST(SvcRebroker, AnswersAndMemoizesAdvisoryRequests) {
  svc::ServiceOptions options;
  options.jobs = 1;
  svc::Service service(options);
  const std::string line =
      R"({"id":1,"type":"rebroker","app":"rd","ranks":8,)"
      R"("platform":"ec2","fallback":"puma","steps":16,"done":4,)"
      R"("observed_s":0.05,"storms":1,"deadline_s":40})";
  const auto first = service.process_line(line);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_NE(first[0].find("\"type\":\"rebroker\""), std::string::npos);
  EXPECT_NE(first[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(first[0].find("\"action\":"), std::string::npos);
  EXPECT_NE(first[0].find("\"target\":\"puma\""), std::string::npos);
  EXPECT_NE(first[0].find("\"stay_finish_s\":"), std::string::npos);
  EXPECT_NE(first[0].find("\"reason\":"), std::string::npos);

  // The warm path serves the identical payload from the request memo.
  const auto again = service.process_line(line);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(first[0], again[0]);

  // Malformed advisory requests become error records, not exceptions.
  const auto bad = service.process_line(
      R"({"id":2,"type":"rebroker","steps":4,"done":9})");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].find("\"type\":\"error\""), std::string::npos);
}

}  // namespace
