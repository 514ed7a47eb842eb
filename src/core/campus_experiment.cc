#include "src/core/campus_experiment.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/obs/span.h"

namespace ampere {

CampusBudgetAllocator::CampusBudgetAllocator(
    double campus_total_watts, const CampusAllocatorConfig& config)
    : campus_total_watts_(campus_total_watts), config_(config),
      journal_(config.journal_capacity > 0 ? config.journal_capacity : 1) {
  AMPERE_CHECK(campus_total_watts > 0.0);
}

std::vector<double> CampusBudgetAllocator::Replan(
    SimTime now, std::span<const CampusDcObservation> dcs,
    double total_scale) {
  AMPERE_CHECK(total_scale > 0.0) << "campus budget scale must stay positive";
  const double scaled_total = campus_total_watts_ * total_scale;
  std::vector<double> shares =
      AllocateCampusBudgets(scaled_total, dcs, config_);
  while (domain_names_.size() < dcs.size()) {
    domain_names_.push_back("campus/dc" +
                            std::to_string(domain_names_.size()));
  }
  for (size_t i = 0; i < dcs.size(); ++i) {
    // One audit record per DC per re-plan, reusing the controller's record
    // schema: the "decision" is the DC's new budget, u is its share
    // fraction of the campus cap, E_t is the allocator's drift margin.
    obs::DecisionRecord rec;
    rec.time = now;
    rec.domain = domain_names_[i];
    rec.observed_watts = dcs[i].observed_watts;
    rec.budget_watts = shares[i];
    rec.normalized_power =
        shares[i] > 0.0 ? dcs[i].observed_watts / shares[i] : 0.0;
    rec.et = config_.et_margin;
    rec.violation = rec.normalized_power > 1.0;
    rec.predicted_next = shares[i];
    rec.u = shares[i] / scaled_total;
    rec.n_servers = static_cast<uint32_t>(dcs.size());
    journal_.Append(rec);
  }
  ++replans_;
  return shares;
}

CampusResult RunCampusToResult(const ExperimentConfig& config) {
  CampusExperiment experiment(config);
  return experiment.Run();
}

std::string CampusExperiment::DcPrefix(DataCenterId id) {
  return "campus/dc" + std::to_string(id.value()) + "/";
}

CampusConfig CampusExperiment::MakeCampusConfig(
    const ExperimentConfig& config) {
  CampusConfig campus;
  campus.num_datacenters = config.campus.num_datacenters;
  campus.datacenter = config.topology;
  campus.dc_contract_watts = config.campus.dc_contract_watts;
  campus.campus_contract_watts = config.campus.campus_contract_watts;
  return campus;
}

CampusExperiment::CampusExperiment(const ExperimentConfig& config)
    : config_(config), rng_(config.seed), sim_(),
      campus_(MakeCampusConfig(config), &sim_), scaffold_(config_, "campus") {
  AMPERE_CHECK(config_.campus.enabled)
      << "CampusExperiment requires config.campus.enabled";
  AMPERE_CHECK(config_.enable_ampere)
      << "campus federation needs the per-DC controllers";
  AMPERE_CHECK(!config_.trace.active())
      << "workload trace record/replay is single-DC only";

  if (config_.jobs >= 2) {
    // One shared pool for every DC's batch passes. Only one sample pass or
    // resummation runs at a time (the simulation is single-threaded), so
    // sharing is safe and keeps the worker count at jobs-1 total.
    pool_ = std::make_unique<ThreadPool>(config_.jobs - 1);
    campus_.SetThreadPool(pool_.get());
  }

  const size_t n = static_cast<size_t>(campus_.num_datacenters());
  domains_.reserve(n);
  jobs_spilled_in_.assign(n, 0);
  for (size_t k = 0; k < n; ++k) {
    const DataCenterId id(static_cast<int32_t>(k));
    // Per-DC workload: same product mix, per-DC intensity. dc_target_power
    // gives each DC its own normalized-power operating point (last value
    // repeats); empty keeps the caller's arrival rate everywhere.
    BatchWorkloadParams workload = config_.workload;
    if (!config_.campus.dc_target_power.empty()) {
      const size_t i =
          std::min(k, config_.campus.dc_target_power.size() - 1);
      workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
          config_.topology, config_.workload,
          config_.campus.dc_target_power[i], config_.over_provision_ratio);
    }
    // Distinct forked streams per DC and per role, disjoint from the stream
    // ids ControlledExperiment uses (1..3, 77), so a campus run's randomness
    // is stable under adding components.
    domains_.push_back(std::make_unique<DcDomain>(
        config_,
        DcDomainSpec{.streams = {100 + k, 300 + k, 200 + k},
                     .series_prefix = DcPrefix(id),
                     .report_prefix = DcPrefix(id),
                     .obs_domain = "dc" + std::to_string(k) + "/",
                     .workload = std::move(workload)},
        rng_, &sim_, &campus_.dc(id), &scaffold_.db(), &ids_, pool_.get(),
        scaffold_.injector()));
  }

  // The campus experiment cap is the sum of the initial rO-scaled per-DC
  // experiment budgets — the same total a static federation would carve up.
  double campus_cap = 0.0;
  for (const auto& domain : domains_) {
    campus_cap += domain->experiment_budget_watts();
  }
  allocator_ = std::make_unique<CampusBudgetAllocator>(
      campus_cap, config_.campus.allocator);
  // Campus postmortems tail the allocator's journal, the campus-level
  // audit log.
  scaffold_.TailJournal(&allocator_->journal());
}

void CampusExperiment::ReplanBudgets(SimTime now) {
  std::vector<CampusDcObservation> observations;
  observations.reserve(domains_.size());
  for (const auto& domain : domains_) {
    CampusDcObservation obs;
    obs.observed_watts =
        domain->monitor().LatestGroupWatts(DcDomain::kExperimentGroup);
    obs.budget_watts = domain->budget_in_force();
    obs.contract_watts = domain->experiment_rated_watts();
    observations.push_back(obs);
  }
  const std::vector<double> shares =
      allocator_->Replan(now, observations, campus_budget_scale_);
  last_planned_scale_ = campus_budget_scale_;
  for (size_t k = 0; k < domains_.size(); ++k) {
    domains_[k]->SetExperimentBudget(shares[k]);
    AMPERE_TIMELINE(now, obs::TimelineEventType::kCampusReplan, shares[k],
                    observations[k].observed_watts,
                    static_cast<uint64_t>(k));
  }
}

void CampusExperiment::SpilloverPass(SimTime now) {
  const size_t threshold = config_.campus.spillover_queue_threshold;
  for (size_t s = 0; s < domains_.size(); ++s) {
    DcDomain& source = *domains_[s];
    if (source.scheduler().queue_length() <= threshold ||
        source.controller()->freeze_ratio(0) <= 0.0) {
      continue;
    }
    // Starved source: its queue is backed up while its controller holds
    // capacity frozen. Pick the sibling with the most observed headroom
    // against its *current* budget (ties break toward the lower DC id).
    size_t target = s;
    double best_headroom = 0.0;
    for (size_t c = 0; c < domains_.size(); ++c) {
      DcDomain& candidate = *domains_[c];
      if (c == s || candidate.scheduler().queue_length() > threshold) {
        continue;
      }
      const double headroom =
          candidate.budget_in_force() -
          candidate.monitor().LatestGroupWatts(DcDomain::kExperimentGroup);
      if (headroom > best_headroom) {
        best_headroom = headroom;
        target = c;
      }
    }
    if (target == s) {
      continue;
    }
    const std::vector<JobSpec> moved = source.scheduler().TakePending(
        config_.campus.spillover_max_jobs_per_pass);
    for (const JobSpec& job : moved) {
      domains_[target]->scheduler().Submit(job);
    }
    jobs_spilled_in_[target] += moved.size();
    spillover_jobs_ += moved.size();
    if (!moved.empty()) {
      AMPERE_TIMELINE(now, obs::TimelineEventType::kSpillover,
                      static_cast<double>(moved.size()), best_headroom,
                      (static_cast<uint64_t>(s) << 32) |
                          static_cast<uint64_t>(target));
    }
  }
}

CampusResult CampusExperiment::Run() {
  AMPERE_SPAN("campus.run");
  // Install the flight recorder (if configured) for the whole federated
  // loop. Recording is passive — nothing downstream reads the recorder
  // during the run — so results are bit-identical with or without it.
  obs::ScopedFlightRecorder scoped_recorder(scaffold_.recorder());
  // Every DC's monitor fires at the same instants; the event queue's FIFO
  // seq order makes DC 0 sample first every minute, deterministically.
  for (const auto& domain : domains_) {
    domain->StartBaseline();
  }
  const SimTime measure_start = config_.warmup;
  const SimTime end = config_.warmup + config_.duration;
  for (const auto& domain : domains_) {
    domain->StartMeasurement(measure_start, end);
  }
  if (config_.campus.enable_spillover) {
    sim_.SchedulePeriodic(measure_start + SimTime::Seconds(4),
                          SimTime::Minutes(1), [this, end](SimTime t) {
                            if (t >= end) {
                              return;
                            }
                            SpilloverPass(t);
                          });
  }
  if (!config_.budget_schedule.IsConstant()) {
    // Campus P(t): refresh the scale each minute between spillover (+4 s)
    // and the re-plan slot (+5 s). A scale change forces an extra re-plan
    // immediately rather than waiting out the replan_interval, so
    // mid-window curtailment reaches every DC controller within a minute.
    sim_.SchedulePeriodic(
        measure_start + SimTime::Millis(4500), SimTime::Minutes(1),
        [this, measure_start, end](SimTime t) {
          if (t >= end) {
            return;
          }
          campus_budget_scale_ =
              config_.budget_schedule.ScaleAt(t - measure_start);
          if (campus_budget_scale_ != last_planned_scale_) {
            ReplanBudgets(t);
          }
        });
  }
  sim_.SchedulePeriodic(measure_start + SimTime::Seconds(5),
                        config_.campus.allocator.replan_interval,
                        [this, end](SimTime t) {
                          if (t >= end) {
                            return;
                          }
                          ReplanBudgets(t);
                        });
  sim_.ScheduleAt(measure_start, [this] {
    for (const auto& domain : domains_) {
      domain->StartCounting();
    }
  });

  sim_.RunUntil(end);

  CampusResult result;
  result.dcs.reserve(domains_.size());
  uint64_t thru_experiment = 0;
  uint64_t thru_control = 0;
  for (size_t k = 0; k < domains_.size(); ++k) {
    DcDomain& domain = *domains_[k];
    CampusDcResult out;
    domain.Finish(&out);
    // Report against the final allocator-assigned budget; minute points
    // already normalized against the budget in force at their minute.
    out.final_budget_watts = domain.budget_in_force();
    out.experiment.budget_watts = out.final_budget_watts;
    out.jobs_spilled_out = domain.scheduler().jobs_spilled_out();
    out.jobs_spilled_in = jobs_spilled_in_[k];
    thru_experiment += out.experiment.throughput_jobs;
    thru_control += out.control.throughput_jobs;
    result.jobs_submitted += out.jobs_submitted;
    result.jobs_completed += out.jobs_completed;
    result.dcs.push_back(std::move(out));
  }
  result.throughput_ratio =
      thru_control > 0 ? static_cast<double>(thru_experiment) /
                             static_cast<double>(thru_control)
                       : 0.0;
  result.gain_tpw =
      GainInTpw(result.throughput_ratio, config_.over_provision_ratio);
  result.spillover_jobs = spillover_jobs_;
  result.replans = allocator_->replans();
  result.breaker_tripped = campus_.AnyBreakerTripped();
  result.allocator_journal = allocator_->journal().Summarize();
  scaffold_.Finish(nullptr, &result);
  return result;
}

}  // namespace ampere
