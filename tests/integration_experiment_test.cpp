#include "src/core/experiment.h"

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/stats/correlation.h"

namespace ampere {
namespace {

// A small row keeps these integration tests fast while preserving the
// statistical structure (tens of servers, hundreds of jobs).
ExperimentConfig BaseConfig(double target_power, double ro) {
  ExperimentConfig config;
  config.seed = 2024;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 4;
  config.topology.servers_per_rack = 20;  // 80 servers.
  config.over_provision_ratio = ro;
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, target_power, ro);
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Hours(1);
  config.duration = SimTime::Hours(3);
  return config;
}

TEST(ExperimentTest, ParitySplitIsBalanced) {
  ExperimentConfig config = BaseConfig(0.9, 0.25);
  ControlledExperiment experiment(config);
  EXPECT_EQ(experiment.domain().experiment_servers().size(), 40u);
  EXPECT_EQ(experiment.domain().control_servers().size(), 40u);
  for (ServerId id : experiment.domain().experiment_servers()) {
    EXPECT_EQ(id.value() % 2, 0);
  }
  // Scaled budgets per Eq. (16).
  EXPECT_NEAR(experiment.domain().experiment_budget_watts(),
              40 * 250.0 / 1.25, 1e-9);
}

TEST(ExperimentTest, GroupsStatisticallyEquivalentWithoutControl) {
  // §4.1.2 validation: with Ampere off, the groups' power traces must agree
  // closely (paper: mean difference < 0.46 %, correlation 0.946). The
  // correlation comes from common-mode workload variation, so give the
  // arrival process a pronounced wandering component.
  // Strong diurnal swing provides the common-mode signal; 12 h of trace
  // spans a large part of the cycle.
  ExperimentConfig config = BaseConfig(0.92, 0.25);
  config.enable_ampere = false;
  config.workload.arrivals.diurnal_amplitude = 0.30;
  config.duration = SimTime::Hours(12);
  ControlledExperiment experiment(config);
  ExperimentResult result = experiment.Run();

  ASSERT_GT(result.experiment.minutes.size(), 100u);
  double mean_diff = std::abs(result.experiment.p_mean -
                              result.control.p_mean) /
                     result.control.p_mean;
  EXPECT_LT(mean_diff, 0.02);

  std::vector<double> exp_series;
  std::vector<double> ctl_series;
  for (const MinutePoint& m : result.experiment.minutes) {
    exp_series.push_back(m.normalized_power);
  }
  for (const MinutePoint& m : result.control.minutes) {
    ctl_series.push_back(m.normalized_power);
  }
  EXPECT_GT(PearsonCorrelation(exp_series, ctl_series), 0.6);
  // Throughput also splits evenly.
  EXPECT_NEAR(result.throughput_ratio, 1.0, 0.05);
  // And no control actions were ever taken.
  EXPECT_DOUBLE_EQ(result.experiment.u_mean, 0.0);
}

TEST(ExperimentTest, AmpereReducesViolationsUnderHeavyLoad) {
  // Demand above the scaled budget: the uncontrolled group violates
  // routinely, the controlled group rarely (Table 2's headline result).
  ExperimentConfig config = BaseConfig(1.03, 0.25);
  config.controller.effect = FreezeEffectModel(0.03);
  ControlledExperiment experiment(config);
  ExperimentResult result = experiment.Run();

  EXPECT_GT(result.control.violations, 40);
  EXPECT_LT(result.experiment.violations, result.control.violations / 3);
  EXPECT_GT(result.experiment.u_mean, 0.0);
  EXPECT_LT(result.experiment.p_max, result.control.p_max);
}

TEST(ExperimentTest, LightLoadNeedsAlmostNoControl) {
  ExperimentConfig config = BaseConfig(0.85, 0.25);
  ControlledExperiment experiment(config);
  ExperimentResult result = experiment.Run();
  EXPECT_LT(result.experiment.u_mean, 0.05);
  EXPECT_EQ(result.experiment.violations, 0);
  EXPECT_NEAR(result.throughput_ratio, 1.0, 0.06);
}

TEST(ExperimentTest, ControlCostsThroughputUnderHeavyLoad) {
  ExperimentConfig config = BaseConfig(1.02, 0.25);
  ControlledExperiment experiment(config);
  ExperimentResult result = experiment.Run();
  // Freezing diverts jobs to the control group: rT < 1.
  EXPECT_LT(result.throughput_ratio, 0.98);
  EXPECT_GT(result.throughput_ratio, 0.5);
  EXPECT_NEAR(result.gain_tpw,
              result.throughput_ratio * 1.25 - 1.0, 1e-12);
}

TEST(ExperimentTest, FuCalibrationFindsPositiveSlope) {
  ExperimentConfig config = BaseConfig(0.95, 0.25);
  config.enable_ampere = false;
  config.warmup = SimTime::Hours(1);
  ControlledExperiment experiment(config);
  std::vector<double> levels{0.2, 0.4, 0.6};
  auto samples = experiment.RunFuCalibration(levels, SimTime::Minutes(5),
                                             SimTime::Minutes(20),
                                             SimTime::Hours(10));
  ASSERT_GT(samples.size(), 100u);
  FreezeEffectModel model = FreezeEffectModel::Fit(samples);
  EXPECT_GT(model.kr(), 0.0);
  EXPECT_LT(model.kr(), 1.0);
}

TEST(ExperimentTest, FrozenServersNeverReceivePlacements) {
  ExperimentConfig config = BaseConfig(1.02, 0.25);
  ControlledExperiment experiment(config);
  bool violation_seen = false;
  experiment.scheduler().SetPlacementListener(
      [&](const JobSpec&, ServerId server) {
        if (experiment.dc().server(server).frozen()) {
          violation_seen = true;
        }
      });
  experiment.Run();
  EXPECT_FALSE(violation_seen);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  ExperimentConfig config = BaseConfig(0.97, 0.25);
  config.duration = SimTime::Hours(1);
  ExperimentResult a = ControlledExperiment(config).Run();
  ExperimentResult b = ControlledExperiment(config).Run();
  EXPECT_EQ(a.experiment.throughput_jobs, b.experiment.throughput_jobs);
  EXPECT_DOUBLE_EQ(a.experiment.p_mean, b.experiment.p_mean);
  EXPECT_DOUBLE_EQ(a.experiment.u_mean, b.experiment.u_mean);
  EXPECT_EQ(a.control.violations, b.control.violations);
}

TEST(ExperimentTest, UnscaledControlBudgetChangesViolationBaseline) {
  // §4.4 methodology: when only the experiment group's budget is scaled,
  // the control group (rated provisioning) can essentially never violate,
  // even while the experiment group is under pressure.
  ExperimentConfig config = BaseConfig(1.0, 0.25);
  config.scale_control_budget = false;
  config.duration = SimTime::Hours(2);
  ControlledExperiment experiment(config);
  EXPECT_NEAR(experiment.domain().control_budget_watts(), 40 * 250.0, 1e-9);
  ExperimentResult result = experiment.Run();
  EXPECT_EQ(result.control.violations, 0);
  EXPECT_LT(result.control.p_mean, 0.9);     // Rated-normalized.
  EXPECT_GT(result.experiment.p_mean, 0.9);  // Scaled-normalized.
}

TEST(ArrivalRateCalibrationTest, ProducesTargetPower) {
  // The steady-state power of an uncontrolled run should land near the
  // calibration target.
  ExperimentConfig config = BaseConfig(0.9, 0.25);
  config.enable_ampere = false;
  config.duration = SimTime::Hours(2);
  ExperimentResult result = ControlledExperiment(config).Run();
  EXPECT_NEAR(result.control.p_mean, 0.9, 0.05);
}

TEST(ArrivalRateCalibrationTest, RejectsUnreachableTargets) {
  TopologyConfig topo;
  BatchWorkloadParams workload;
  // Below the idle floor.
  EXPECT_THROW(
      ArrivalRateForNormalizedPower(topo, workload, 0.3, 0.25),
      CheckFailure);
  // Above full utilization.
  EXPECT_THROW(
      ArrivalRateForNormalizedPower(topo, workload, 1.6, 0.25),
      CheckFailure);
}

}  // namespace
}  // namespace ampere
