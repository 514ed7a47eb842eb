// BudgetSchedule P(t): evaluation semantics, spec parsing, and the
// closed-loop wiring that applies a time-varying cap to the single-DC
// controller and the campus allocator.
//
// Covered here:
//   1. ScaleAt — step/ramp/diurnal evaluation, [start, end) boundary
//      semantics at exact schedule-boundary ticks, phase composition.
//   2. ParseBudgetSchedule — the --budget-schedule grammar, including the
//      malformed-input paths (structured false + message, never a throw).
//   3. Single-DC wiring — the controller's DecisionJournal records the
//      curtailed budget, violations count against the curtailed cap, and
//      the constant schedule stays bit-identical to no schedule at all.
//   4. Campus wiring — a mid-window curtailment forces an extra re-plan
//      (beyond the 15-minute cadence) and scales the allocator's total.
//   5. Chaos x P(t) — every fault preset rides the curtailment with zero
//      breaker trips.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/control/budget_schedule.h"
#include "src/core/campus_experiment.h"
#include "src/core/controller.h"
#include "src/core/experiment.h"
#include "src/faults/presets.h"
#include "src/obs/journal.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160622;

// --- 1. Evaluation semantics ---------------------------------------------

TEST(BudgetScheduleTest, DefaultIsConstantOne) {
  BudgetSchedule schedule;
  EXPECT_TRUE(schedule.IsConstant());
  EXPECT_EQ(schedule.ScaleAt(SimTime()), 1.0);
  EXPECT_EQ(schedule.ScaleAt(SimTime::Hours(13)), 1.0);
  EXPECT_EQ(schedule.MinScaleOver(SimTime::Hours(24)), 1.0);
}

TEST(BudgetScheduleTest, StepWindowIsHalfOpen) {
  BudgetSchedule schedule;
  schedule.AddStep(SimTime::Minutes(10), SimTime::Minutes(20), 0.8);
  EXPECT_FALSE(schedule.IsConstant());
  // Exactly at the start boundary: inside. Exactly at the end: outside.
  EXPECT_EQ(schedule.ScaleAt(SimTime::Minutes(10) - SimTime::Micros(1)), 1.0);
  EXPECT_EQ(schedule.ScaleAt(SimTime::Minutes(10)), 0.8);
  EXPECT_EQ(schedule.ScaleAt(SimTime::Minutes(20) - SimTime::Micros(1)), 0.8);
  EXPECT_EQ(schedule.ScaleAt(SimTime::Minutes(20)), 1.0);
  EXPECT_EQ(schedule.MinScaleOver(SimTime::Hours(1)), 0.8);
}

TEST(BudgetScheduleTest, RampInterpolatesLinearly) {
  BudgetSchedule schedule;
  schedule.AddRamp(SimTime::Minutes(0), SimTime::Minutes(10), 1.0, 0.5);
  EXPECT_EQ(schedule.ScaleAt(SimTime::Minutes(0)), 1.0);
  EXPECT_DOUBLE_EQ(schedule.ScaleAt(SimTime::Minutes(5)), 0.75);
  EXPECT_DOUBLE_EQ(schedule.ScaleAt(SimTime::Minutes(9)), 0.55);
  // End boundary exits the phase: back to the ambient 1.0.
  EXPECT_EQ(schedule.ScaleAt(SimTime::Minutes(10)), 1.0);
}

TEST(BudgetScheduleTest, OverlappingPhasesMultiply) {
  BudgetSchedule schedule;
  schedule.AddStep(SimTime::Minutes(0), SimTime::Minutes(30), 0.9);
  schedule.AddStep(SimTime::Minutes(15), SimTime::Minutes(45), 0.8);
  EXPECT_DOUBLE_EQ(schedule.ScaleAt(SimTime::Minutes(10)), 0.9);
  EXPECT_DOUBLE_EQ(schedule.ScaleAt(SimTime::Minutes(20)), 0.9 * 0.8);
  EXPECT_DOUBLE_EQ(schedule.ScaleAt(SimTime::Minutes(40)), 0.8);
}

TEST(BudgetScheduleTest, DiurnalDipsAtThePeakHour) {
  BudgetSchedule schedule;
  schedule.SetDiurnal(0.2, 14.0);
  EXPECT_FALSE(schedule.IsConstant());
  // Deepest at the peak hour, shallowest 12 h away.
  EXPECT_NEAR(schedule.ScaleAt(SimTime::Hours(14)), 0.8, 1e-12);
  EXPECT_NEAR(schedule.ScaleAt(SimTime::Hours(2)), 1.0, 1e-12);
  // Periodic: hour 38 = hour 14 next day.
  EXPECT_NEAR(schedule.ScaleAt(SimTime::Hours(38)), 0.8, 1e-12);
  EXPECT_NEAR(schedule.MinScaleOver(SimTime::Hours(24)), 0.8, 1e-12);
}

// --- 2. Spec parsing ------------------------------------------------------

TEST(BudgetScheduleParseTest, ParsesStepRampDiurnal) {
  BudgetSchedule schedule;
  std::string error;
  ASSERT_TRUE(ParseBudgetSchedule(
      "step:60:100:0.85;ramp:100:120:0.85:1.0;diurnal:0.1:15", &schedule,
      &error))
      << error;
  EXPECT_FALSE(schedule.IsConstant());
  ASSERT_EQ(schedule.phases().size(), 2u);
  EXPECT_EQ(schedule.diurnal_depth(), 0.1);
  EXPECT_DOUBLE_EQ(schedule.phases()[0].scale_begin, 0.85);
  EXPECT_EQ(schedule.phases()[1].end, SimTime::Minutes(120));
  // The diurnal factor at t=0 composes with nothing else active there.
  EXPECT_LT(schedule.ScaleAt(SimTime()), 1.0);
}

TEST(BudgetScheduleParseTest, EmptySpecIsConstant) {
  BudgetSchedule schedule;
  std::string error;
  ASSERT_TRUE(ParseBudgetSchedule("", &schedule, &error)) << error;
  EXPECT_TRUE(schedule.IsConstant());
}

TEST(BudgetScheduleParseTest, MalformedSpecsFailStructurally) {
  const std::vector<std::string> bad = {
      "step:60:100",            // Too few fields.
      "step:100:60:0.85",       // Empty window.
      "step:-5:60:0.85",        // Negative start.
      "step:0:60:0",            // Non-positive scale.
      "ramp:0:60:1.0",          // Too few fields.
      "ramp:0:60:1.0:-0.5",     // Negative target.
      "diurnal:1.5:14",         // Depth out of [0, 1).
      "step:a:b:c",             // Non-numeric.
      "step::60:0.9",           // Empty field.
      "sine:0:60:0.9",          // Unknown kind.
      "step",                   // No arguments at all.
  };
  for (const std::string& spec : bad) {
    BudgetSchedule schedule;
    std::string error;
    EXPECT_FALSE(ParseBudgetSchedule(spec, &schedule, &error))
        << "'" << spec << "' parsed";
    EXPECT_FALSE(error.empty()) << "'" << spec << "' left no error message";
  }
}

// --- 3. Single-DC closed-loop wiring -------------------------------------

ExperimentConfig LoopConfig() {
  ExperimentConfig config;
  config.seed = kSeed;
  config.topology.num_rows = 2;
  config.topology.racks_per_row = 3;
  config.topology.servers_per_rack = 8;  // 48 servers.
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, 0.97, 0.25);
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(2);
  return config;
}

TEST(BudgetScheduleLoopTest, ConstantScheduleIsBitIdenticalToNoSchedule) {
  ControlledExperiment plain(LoopConfig());
  plain.Run();
  const std::string plain_journal = plain.controller()->journal().ToCsv();

  // An explicitly-constructed constant schedule (no phases, no diurnal)
  // must add no events and change no bytes.
  ExperimentConfig config = LoopConfig();
  config.budget_schedule = BudgetSchedule();
  ControlledExperiment scheduled(config);
  scheduled.Run();
  EXPECT_EQ(scheduled.controller()->journal().ToCsv(), plain_journal);
}

TEST(BudgetScheduleLoopTest, CurtailmentReachesTheControllerWithinAMinute) {
  ExperimentConfig config = LoopConfig();
  config.budget_schedule.AddStep(SimTime::Minutes(60), SimTime::Minutes(90),
                                 0.85);
  ControlledExperiment experiment(config);
  const ExperimentResult result = experiment.Run();
  EXPECT_EQ(result.budget_scale_min, 0.85);

  // The journal's budget_watts column is the audit trail: ticks inside the
  // curtailment window must run against 0.85 x the baseline budget, ticks
  // outside against the full budget. The budget updates at +0.5 s and the
  // controller ticks at +1 s, so minute 60's tick (measured clock) already
  // sees the curtailed cap.
  const double full = experiment.domain().experiment_budget_watts();
  const std::vector<obs::DecisionRecord> records =
      experiment.controller()->journal().Query(
          SimTime(), SimTime::Hours(1000), ControlledExperiment::kExperimentGroup);
  ASSERT_FALSE(records.empty());
  size_t curtailed_ticks = 0, full_ticks = 0;
  const SimTime measure_start = config.warmup;
  for (const auto& rec : records) {
    const SimTime measured = rec.time - measure_start;
    if (measured >= SimTime::Minutes(60) && measured < SimTime::Minutes(90)) {
      EXPECT_DOUBLE_EQ(rec.budget_watts, full * 0.85)
          << "at measured minute " << measured.minutes();
      ++curtailed_ticks;
    } else {
      EXPECT_DOUBLE_EQ(rec.budget_watts, full)
          << "at measured minute " << measured.minutes();
      ++full_ticks;
    }
  }
  EXPECT_EQ(curtailed_ticks, 30u);
  EXPECT_GE(full_ticks, 89u);
}

TEST(BudgetScheduleLoopTest, RampRestoresTheFullBudgetByTheEnd) {
  ExperimentConfig config = LoopConfig();
  config.budget_schedule.AddStep(SimTime::Minutes(40), SimTime::Minutes(60),
                                 0.9);
  config.budget_schedule.AddRamp(SimTime::Minutes(60), SimTime::Minutes(80),
                                 0.9, 1.0);
  ControlledExperiment experiment(config);
  const ExperimentResult result = experiment.Run();
  EXPECT_EQ(result.budget_scale_min, 0.9);
  EXPECT_FALSE(result.breaker_tripped);

  const double full = experiment.domain().experiment_budget_watts();
  const std::vector<obs::DecisionRecord> records =
      experiment.controller()->journal().Query(
          SimTime(), SimTime::Hours(1000), ControlledExperiment::kExperimentGroup);
  ASSERT_FALSE(records.empty());
  const SimTime measure_start = config.warmup;
  double last_budget = 0.0;
  bool saw_mid_ramp = false;
  for (const auto& rec : records) {
    const SimTime measured = rec.time - measure_start;
    if (measured >= SimTime::Minutes(70) && measured < SimTime::Minutes(71)) {
      // Mid-ramp: half-way back up (the budget event runs 0.5 s past the
      // minute mark, so allow that half-second of ramp slope).
      EXPECT_NEAR(rec.budget_watts, full * 0.95, full * 1e-3);
      saw_mid_ramp = true;
    }
    last_budget = rec.budget_watts;
  }
  EXPECT_TRUE(saw_mid_ramp);
  EXPECT_DOUBLE_EQ(last_budget, full);  // Fully restored by the final tick.
}

// --- 4. Campus wiring -----------------------------------------------------

ExperimentConfig CampusConfig() {
  ExperimentConfig config = LoopConfig();
  config.duration = SimTime::Hours(1);
  config.campus.enabled = true;
  config.campus.num_datacenters = 4;
  config.campus.dc_target_power = {0.99, 0.95, 0.90, 0.85};
  config.campus.allocator.replan_interval = SimTime::Minutes(15);
  return config;
}

TEST(BudgetScheduleCampusTest, MidWindowCurtailmentForcesAnExtraReplan) {
  // Baseline cadence: a 1 h window re-plans at +5, +20, +35, +50 min.
  CampusExperiment baseline(CampusConfig());
  const CampusResult base_result = baseline.Run();

  // Curtail from minute 22 (mid-window between the +20 and +35 plans) to
  // minute 40. The minute-22 scale change and the minute-40 restoration
  // each force an immediate re-plan, so the curtailed run re-plans at least
  // twice more than the baseline.
  ExperimentConfig config = CampusConfig();
  config.budget_schedule.AddStep(SimTime::Minutes(22), SimTime::Minutes(40),
                                 0.9);
  CampusExperiment curtailed(config);
  const CampusResult curtailed_result = curtailed.Run();
  EXPECT_GE(curtailed_result.replans, base_result.replans + 2);
  EXPECT_FALSE(curtailed_result.breaker_tripped);

  // The allocator's journal must show the scaled campus total: during the
  // curtailment the per-DC shares sum to 0.9 x the campus cap.
  const double campus_cap = curtailed.allocator().campus_total_watts();
  const std::vector<obs::DecisionRecord> records =
      curtailed.allocator().journal().Query(SimTime(), SimTime::Hours(1000));
  ASSERT_FALSE(records.empty());
  ASSERT_EQ(records.size() % 4, 0u);  // One record per DC per re-plan.
  const SimTime measure_start = config.warmup;
  bool saw_curtailed_plan = false;
  for (size_t i = 0; i + 4 <= records.size(); i += 4) {
    double total = 0.0;
    for (size_t k = 0; k < 4; ++k) {
      total += records[i + k].budget_watts;
    }
    const SimTime measured = records[i].time - measure_start;
    if (measured >= SimTime::Minutes(22) && measured < SimTime::Minutes(40)) {
      EXPECT_NEAR(total, campus_cap * 0.9, campus_cap * 1e-9)
          << "at measured minute " << measured.minutes();
      saw_curtailed_plan = true;
    } else {
      EXPECT_NEAR(total, campus_cap, campus_cap * 1e-9)
          << "at measured minute " << measured.minutes();
    }
  }
  EXPECT_TRUE(saw_curtailed_plan);
}

TEST(BudgetScheduleCampusTest, TraceSectionIsRejectedInCampusRuns) {
  ExperimentConfig config = CampusConfig();
  config.trace.record = true;
  EXPECT_THROW(CampusExperiment{config}, CheckFailure);
}

// --- 5. Chaos presets x P(t) ---------------------------------------------

TEST(BudgetScheduleChaosTest, ZeroBreakerTripsAcrossPresetsUnderCurtailment) {
  size_t preset_index = 0;
  for (const std::string& preset : faults::PresetNames()) {
    ExperimentConfig config = LoopConfig();
    config.faults = *faults::PresetByName(preset);
    config.faults.seed = kSeed + 100 + preset_index++;
    config.budget_schedule.AddStep(SimTime::Minutes(50),
                                   SimTime::Minutes(80), 0.85);
    config.budget_schedule.AddRamp(SimTime::Minutes(80),
                                   SimTime::Minutes(100), 0.85, 1.0);
    const ExperimentResult result = RunExperimentToResult(config);
    EXPECT_FALSE(result.breaker_tripped)
        << "breaker tripped under preset '" << preset
        << "' with the curtailment schedule";
    EXPECT_EQ(result.budget_scale_min, 0.85) << preset;
  }
}

}  // namespace
}  // namespace ampere