#include "src/core/experiment.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/check.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {

double ArrivalRateForNormalizedPower(const TopologyConfig& topology,
                                     const BatchWorkloadParams& workload,
                                     double target_normalized_power,
                                     double over_provision_ratio) {
  AMPERE_CHECK(target_normalized_power > 0.0);
  const PowerModelParams& pm = topology.power_model;
  double rated = pm.rated_watts;
  double idle = rated * pm.idle_fraction;
  double dyn_range = rated - idle;
  // Power target relative to the *rated* budget.
  double target_rated = target_normalized_power / (1.0 + over_provision_ratio);
  double util = (rated * target_rated - idle) / dyn_range;
  AMPERE_CHECK(util > 0.0)
      << "target power " << target_normalized_power
      << " is below the idle floor at rO=" << over_provision_ratio;
  AMPERE_CHECK(util <= 1.0) << "target power above full utilization";

  double n_servers = static_cast<double>(topology.num_rows) *
                     topology.racks_per_row * topology.servers_per_rack;
  double total_cores = n_servers * topology.server_capacity.cpu_cores;

  // Mean demand per job from the mix (or the generator's default mix).
  std::vector<DemandProfile> demands = workload.demands;
  if (demands.empty()) {
    demands = {{Resources{1.0, 2.0}, 0.4},
               {Resources{2.0, 4.0}, 0.4},
               {Resources{4.0, 8.0}, 0.2}};
  }
  double weight = 0.0;
  double mean_cores = 0.0;
  for (const DemandProfile& d : demands) {
    weight += d.weight;
    mean_cores += d.weight * d.demand.cpu_cores;
  }
  mean_cores /= weight;

  DurationModel durations(workload.durations);
  double mean_minutes = durations.TruncatedMeanMinutes();
  // Little's law: concurrent cores = rate * duration * cores_per_job.
  return util * total_cores / (mean_minutes * mean_cores);
}

ExperimentResult RunExperimentToResult(const ExperimentConfig& config) {
  ControlledExperiment experiment(config);
  return experiment.Run();
}

ControlledExperiment::ControlledExperiment(const ExperimentConfig& config)
    : config_(config), rng_(config.seed),
      // jobs lanes total: this (simulation) thread plus jobs-1 pool workers.
      // The pool is instance-owned, so concurrent experiments each get their
      // own; attaching it never changes results (see ExperimentConfig::jobs).
      pool_(config.jobs >= 2 ? std::make_unique<ThreadPool>(config.jobs - 1)
                             : nullptr),
      sim_(), dc_(config.topology, &sim_), scaffold_(config_, "run"),
      domain_(config_,
              DcDomainSpec{.streams = {1, 2, 3},
                           .series_prefix = config.monitor.series_prefix,
                           .report_prefix = "",
                           .obs_domain = "",
                           .workload = config.workload},
              rng_, &sim_, &dc_, &scaffold_.db(), &ids_, pool_.get(),
              scaffold_.injector()) {
  dc_.SetThreadPool(pool_.get());
  if (controller() != nullptr) {
    scaffold_.TailJournal(&controller()->journal());
  }
}

ExperimentResult ControlledExperiment::Run() {
  AMPERE_SPAN("experiment.run");
  // Install the flight recorder (if configured) for the whole closed loop.
  // Recording is passive — nothing downstream reads the recorder during the
  // run — so results are bit-identical with or without it.
  obs::ScopedFlightRecorder scoped_recorder(scaffold_.recorder());
  domain_.StartBaseline();
  const SimTime measure_start = config_.warmup;
  const SimTime end = config_.warmup + config_.duration;

  domain_.StartMeasurement(measure_start, end);
  if (controller() != nullptr && !config_.budget_schedule.IsConstant()) {
    // P(t): re-target the domain budget each minute between the monitor's
    // sample (:00) and the controller's tick (+1 s), so every decision
    // rides the current cap. Gated on a non-constant schedule — fixed-cap
    // runs get no extra events and stay bit-identical.
    sim_.SchedulePeriodic(
        measure_start + SimTime::Millis(500), SimTime::Minutes(1),
        [this, measure_start, end](SimTime t) {
          if (t >= end) {
            return;
          }
          const double scale =
              config_.budget_schedule.ScaleAt(t - measure_start);
          budget_scale_min_ = std::min(budget_scale_min_, scale);
          domain_.SetExperimentBudget(domain_.experiment_budget_watts() *
                                      scale);
        });
  }
  sim_.ScheduleAt(measure_start, [this] { domain_.StartCounting(); });

  sim_.RunUntil(end);

  ExperimentResult result;
  domain_.Finish(&result);
  // Re-export the audit-path aggregates as gauges so a harness run's obs
  // snapshot carries the journal summary alongside the span profile (the
  // summary is empty without a controller).
  if (obs::Enabled()) {
    for (const auto& d : result.journal.domains) {
      const std::string prefix = "journal." + d.domain + ".";
      obs::GaugeSet(prefix + "ticks", static_cast<double>(d.ticks));
      obs::GaugeSet(prefix + "violations", static_cast<double>(d.violations));
      obs::GaugeSet(prefix + "u_mean", d.u_mean);
      obs::GaugeSet(prefix + "u_max", d.u_max);
      obs::GaugeSet(prefix + "p_mean", d.p_mean);
      obs::GaugeSet(prefix + "p_max", d.p_max);
      obs::GaugeSet(prefix + "degraded_ticks",
                    static_cast<double>(d.degraded_ticks));
      obs::GaugeSet(prefix + "rpc_giveups",
                    static_cast<double>(d.rpc_giveups));
    }
  }
  result.budget_scale_min = budget_scale_min_;
  if (domain_.trace_workload() != nullptr) {
    result.trace_jobs_replayed = domain_.trace_workload()->jobs_submitted();
  }
  if (domain_.trace_recorder() != nullptr) {
    result.trace_jobs_recorded = domain_.trace_recorder()->jobs_recorded();
  }
  scaffold_.Finish(domain_.trace_recorder(), &result);
  return result;
}

std::shared_ptr<const TraceData> ControlledExperiment::RecordedTrace() const {
  AMPERE_CHECK(domain_.trace_recorder() != nullptr)
      << "RecordedTrace needs config.trace.recording()";
  return std::make_shared<const TraceData>(domain_.trace_recorder()->trace());
}

std::vector<FuSample> ControlledExperiment::RunFuCalibration(
    std::span<const double> u_levels, SimTime hold, SimTime rest,
    SimTime total, FreezeSelection selection) {
  AMPERE_CHECK(!u_levels.empty());
  AMPERE_CHECK(hold >= SimTime::Minutes(2));
  AMPERE_CHECK(rest >= SimTime::Minutes(1));
  AMPERE_CHECK(!config_.enable_ampere)
      << "calibration requires the closed-loop controller disabled";
  domain_.StartBaseline();
  sim_.RunUntil(config_.warmup);

  // The periodic task outlives this function body (it stays armed in the
  // event queue), so all mutable calibration state lives on the heap and is
  // captured by value.
  struct CalibrationState {
    std::vector<FuSample> samples;
    std::unordered_set<ServerId> frozen;
    std::vector<double> levels;
    double current_u = 0.0;
    double prev_exp = 0.0;
    double prev_ctl = 0.0;
    int64_t hold_minutes = 0;
    int64_t rest_minutes = 0;
    int64_t minute_in_phase = 0;
    bool holding = false;
    size_t level_index = 0;
    FreezeSelection selection = FreezeSelection::kHighestPower;
    Rng rng{1};
  };
  auto state = std::make_shared<CalibrationState>();
  state->levels.assign(u_levels.begin(), u_levels.end());
  state->hold_minutes = static_cast<int64_t>(hold.minutes());
  state->rest_minutes = static_cast<int64_t>(rest.minutes());
  state->selection = selection;
  state->rng = rng_.Fork(77);
  SimTime end = config_.warmup + total;

  // Per-minute calibration task, offset 1 s after the monitor sample.
  sim_.SchedulePeriodic(
      config_.warmup + SimTime::Seconds(1), SimTime::Minutes(1),
      [this, state, end](SimTime now) {
        if (now >= end) {
          return;
        }
        double exp_watts = monitor().LatestGroupWatts(kExperimentGroup);
        double ctl_watts = monitor().LatestGroupWatts(kControlGroup);
        // Sampling precedes the phase transition below, so at the tick that
        // applies a freeze `holding` is still false (no partial interval is
        // sampled) and the first sampled delta covers the first full frozen
        // minute.
        if (state->holding) {
          // f(u) sample while the freeze is fresh: the control group's
          // power change is the shared demand trend E_t; the experiment
          // group's shortfall from that trend is the freezing effect
          // (§3.4). Normalized to the budget.
          double delta_ctl =
              (ctl_watts - state->prev_ctl) / domain_.control_budget_watts();
          double delta_exp = (exp_watts - state->prev_exp) /
                             domain_.experiment_budget_watts();
          state->samples.push_back(
              FuSample{state->current_u, delta_ctl - delta_exp});
        }
        state->prev_exp = exp_watts;
        state->prev_ctl = ctl_watts;

        ++state->minute_in_phase;
        if (state->holding && state->minute_in_phase >= state->hold_minutes) {
          // Hold over: release and rest so the groups re-equalize.
          for (ServerId id : state->frozen) {
            scheduler().Unfreeze(id);
          }
          state->frozen.clear();
          state->holding = false;
          state->minute_in_phase = 0;
        } else if (!state->holding &&
                   state->minute_in_phase >= state->rest_minutes) {
          // Rest over: apply the next level to the highest-power
          // experiment-group servers (§3.5).
          state->current_u =
              state->levels[state->level_index % state->levels.size()];
          ++state->level_index;
          std::vector<ServerId> ranked = domain_.experiment_servers();
          auto target = static_cast<size_t>(std::floor(
              state->current_u * static_cast<double>(ranked.size())));
          switch (state->selection) {
            case FreezeSelection::kHighestPower:
              std::sort(ranked.begin(), ranked.end(),
                        [this](ServerId a, ServerId b) {
                          return monitor().LatestServerWatts(a) >
                                 monitor().LatestServerWatts(b);
                        });
              break;
            case FreezeSelection::kLowestPower:
              std::sort(ranked.begin(), ranked.end(),
                        [this](ServerId a, ServerId b) {
                          return monitor().LatestServerWatts(a) <
                                 monitor().LatestServerWatts(b);
                        });
              break;
            case FreezeSelection::kRandom:
              for (size_t i = ranked.size(); i > 1; --i) {
                size_t j = static_cast<size_t>(state->rng.UniformInt(
                    0, static_cast<int64_t>(i) - 1));
                std::swap(ranked[i - 1], ranked[j]);
              }
              break;
          }
          for (size_t i = 0; i < target && i < ranked.size(); ++i) {
            scheduler().Freeze(ranked[i]);
            state->frozen.insert(ranked[i]);
          }
          state->holding = true;
          state->minute_in_phase = 0;
        }
      });

  sim_.RunUntil(end);
  for (ServerId id : state->frozen) {
    scheduler().Unfreeze(id);
  }
  return state->samples;
}

}  // namespace ampere
