#include "src/core/dc_domain.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/core/experiment.h"
#include "src/faults/fault_plan.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_export.h"

namespace ampere {
namespace {

PowerMonitorConfig WithSeriesPrefix(PowerMonitorConfig config,
                                    const std::string& prefix) {
  config.series_prefix = prefix;
  return config;
}

MinutePoint MakeMinutePoint(SimTime t, double watts, double budget,
                            double freeze_ratio, uint64_t placements) {
  MinutePoint point;
  point.time = t;
  point.power_watts = watts;
  point.normalized_power = watts / budget;
  point.freeze_ratio = freeze_ratio;
  point.violation = point.normalized_power > 1.0;
  point.placements = static_cast<uint32_t>(placements);
  return point;
}

}  // namespace

DcDomain::DcDomain(const ExperimentConfig& config, const DcDomainSpec& spec,
                   const Rng& rng, Simulation* sim, DataCenter* dc,
                   TimeSeriesDb* db, JobIdAllocator* ids,
                   faults::FaultInjector* injector)
    : config_(config), sim_(sim), dc_(dc),
      scheduler_(dc, config.scheduler, rng.Fork(spec.streams.scheduler)),
      monitor_(dc, db, WithSeriesPrefix(config.monitor, spec.series_prefix),
               rng.Fork(spec.streams.monitor)) {
  // Arrival source: synthetic generator by default, trace replay when the
  // config asks. A recording run interposes the TraceRecorder as the sink —
  // a pass-through decorator, so recording never perturbs the run.
  JobSink* sink = &scheduler_;
  if (config_.trace.recording()) {
    trace_recorder_ = std::make_unique<TraceRecorder>(sim_, &scheduler_);
    trace_recorder_->set_seed(config_.seed);
    trace_recorder_->SetClasses(spec.workload.demands);
    sink = trace_recorder_.get();
  }
  if (config_.trace.replay()) {
    std::shared_ptr<const TraceData> replay = config_.trace.replay_data;
    if (replay == nullptr) {
      TraceParseResult parsed = ReadTraceFile(config_.trace.replay_path);
      AMPERE_CHECK(parsed.ok()) << "cannot replay trace "
                                << config_.trace.replay_path << ": "
                                << parsed.message;
      replay = std::make_shared<const TraceData>(std::move(parsed.trace));
    }
    trace_workload_ = std::make_unique<TraceArrivalProcess>(
        std::move(replay), sim_, sink, ids);
  } else {
    workload_ = std::make_unique<BatchWorkload>(
        spec.workload, sim_, sink, ids, rng.Fork(spec.streams.workload));
  }

  // Parity split: even server ids form the experiment group, odd ids the
  // control group — a uniformly random, product-independent partition
  // (§4.1.2). Reserved servers never join either group.
  for (int32_t s = 0; s < dc_->num_servers(); ++s) {
    ServerId id(s);
    if (dc_->server(id).reserved()) {
      continue;
    }
    (s % 2 == 0 ? experiment_servers_ : control_servers_).push_back(id);
  }
  AMPERE_CHECK(!experiment_servers_.empty() && !control_servers_.empty());
  monitor_.RegisterGroup(kExperimentGroup, experiment_servers_);
  monitor_.RegisterGroup(kControlGroup, control_servers_);

  const double rated = dc_->power_model().rated_watts();
  const double scale = 1.0 + config_.over_provision_ratio;
  experiment_rated_watts_ =
      static_cast<double>(experiment_servers_.size()) * rated;
  const double ctl_rated = static_cast<double>(control_servers_.size()) * rated;
  experiment_budget_watts_ = config_.scale_experiment_budget
                                 ? experiment_rated_watts_ / scale
                                 : experiment_rated_watts_;
  control_budget_watts_ =
      config_.scale_control_budget ? ctl_rated / scale : ctl_rated;
  budget_in_force_ = experiment_budget_watts_;

  if (injector != nullptr) {
    monitor_.AttachFaultInjector(injector);
    scheduler_.AttachFaultInjector(injector);
  }
  // Metrics land under the obs domain's prefix and timeline events carry its
  // id, so DCs sharing one registry/recorder keep their signals apart ("" is
  // the root domain). Observation-only.
  const obs::DomainId obs_domain = obs::InternDomain(spec.obs_domain);
  dc_->SetObsDomain(obs_domain);
  scheduler_.SetObsDomain(obs_domain);
  monitor_.SetObsDomain(obs_domain);
  if (config_.enable_ampere) {
    controller_ = std::make_unique<AmpereController>(&scheduler_, &monitor_,
                                                     config_.controller);
    controller_->SetObsDomain(obs_domain);
    controller_->AddDomain(
        {kExperimentGroup, experiment_servers_, experiment_budget_watts_});
  }

  // Throughput accounting: a "placement" is a job accepted onto a group's
  // server (§4.1.3 counts accepted jobs as the throughput indicator).
  scheduler_.SetPlacementListener([this](const JobSpec&, ServerId server) {
    if (!counting_) {
      return;
    }
    if ((server.value() % 2) == 0) {
      ++window_thru_experiment_;
      ++minute_thru_experiment_;
    } else {
      ++window_thru_control_;
      ++minute_thru_control_;
    }
  });
  experiment_report_.name = spec.report_prefix + kExperimentGroup;
  experiment_report_.budget_watts = experiment_budget_watts_;
  control_report_.name = spec.report_prefix + kControlGroup;
  control_report_.budget_watts = control_budget_watts_;
}

void DcDomain::StartBaseline() {
  // Replay mirrors the generator's event pattern (same Start slot, same
  // per-minute batch task), so a replayed run's event ordering matches the
  // recording run's.
  if (trace_workload_ != nullptr) {
    trace_workload_->Start(SimTime());
  } else {
    workload_->Start(SimTime());
  }
  // First sample lands at t = 1 min, once some workload exists.
  monitor_.Start(SimTime::Minutes(1));
}

void DcDomain::StartMeasurement(SimTime measure_start, SimTime end) {
  if (controller_ != nullptr) {
    // Tick 1 s after the monitor samples so decisions see fresh data.
    controller_->Start(sim_, measure_start + SimTime::Seconds(1));
  }
  // The metrics record runs 2 s after each minute's monitor sample (and
  // after the controller's +1 s tick), so it reflects this minute's
  // decision. The experiment group normalizes against the budget in force,
  // so a curtailed or re-planned minute counts violations against its cap.
  sim_->SchedulePeriodic(
      measure_start + SimTime::Seconds(2), SimTime::Minutes(1),
      [this, end](SimTime t) {
        if (t >= end) {
          return;
        }
        experiment_report_.minutes.push_back(MakeMinutePoint(
            t, monitor_.LatestGroupWatts(kExperimentGroup), budget_in_force_,
            controller_ != nullptr ? controller_->freeze_ratio(0) : 0.0,
            minute_thru_experiment_));
        control_report_.minutes.push_back(MakeMinutePoint(
            t, monitor_.LatestGroupWatts(kControlGroup), control_budget_watts_,
            0.0, minute_thru_control_));
        minute_thru_experiment_ = 0;
        minute_thru_control_ = 0;
      });
}

void DcDomain::SetExperimentBudget(double watts) {
  budget_in_force_ = watts;
  if (controller_ != nullptr) {
    controller_->SetDomainBudget(0, watts);
  }
}

void DcDomain::Finish(DcDomainResult* out) {
  experiment_report_.throughput_jobs = window_thru_experiment_;
  control_report_.throughput_jobs = window_thru_control_;
  experiment_report_.Finalize();
  control_report_.Finalize();
  out->experiment = std::move(experiment_report_);
  out->control = std::move(control_report_);
  out->throughput_ratio =
      window_thru_control_ > 0
          ? static_cast<double>(window_thru_experiment_) /
                static_cast<double>(window_thru_control_)
          : 0.0;
  out->gain_tpw =
      GainInTpw(out->throughput_ratio, config_.over_provision_ratio);
  out->jobs_submitted = scheduler_.jobs_submitted();
  out->jobs_completed = scheduler_.jobs_completed();
  out->final_queue_length = scheduler_.queue_length();
  out->breaker_tripped = dc_->AnyBreakerTripped();
  if (controller_ != nullptr) {
    out->journal = controller_->journal().Summarize();
    out->degraded_ticks = controller_->degraded_ticks();
    out->blackout_skips = controller_->blackout_skips();
    out->stale_fallbacks = controller_->stale_fallbacks();
    out->rpc_giveups = controller_->rpc_giveups();
  }
}

RunScaffold::RunScaffold(const ExperimentConfig& config,
                         const char* default_label)
    : config_(config),
      label_(config.obs.run_label.empty() ? default_label
                                          : config.obs.run_label) {
  if (config_.storage.enabled()) {
    // Persistent cold tier: the db spills past the hot budget into mmap'd
    // segments under store_dir. Pure storage plumbing — the control loop
    // reads the monitor's caches, so results are identical with it off.
    ColdStoreConfig cold;
    cold.dir = config_.storage.store_dir;
    cold.segment_samples =
        config_.storage.segment_samples > 0
            ? config_.storage.segment_samples
            : std::max<size_t>(16384, config_.storage.hot_budget_samples);
    auto opened = ColdStore::Create(cold);
    AMPERE_CHECK(opened.status.ok())
        << "cannot create cold store: " << opened.status.message;
    cold_store_ = std::move(opened.store);
    db_.AttachColdStore(cold_store_.get(), config_.storage.hot_budget_samples);
  }
  if (config_.faults.any()) {
    // Pre-generate the whole run's fault schedule (seeded independently of
    // the workload) for every domain to attach. One extra interval of slack
    // covers tasks scheduled right at the horizon.
    const SimTime horizon =
        config_.warmup + config_.duration + config_.monitor.interval;
    injector_ = std::make_unique<faults::FaultInjector>(
        faults::FaultPlan::Generate(config_.faults, horizon));
  }
  if (config_.obs.enabled()) {
    recorder_ =
        std::make_unique<obs::FlightRecorder>(config_.obs.recorder_capacity);
    recorder_->SetAnomalyPolicy(config_.obs.anomaly);
    if (!config_.obs.postmortem_dir.empty()) {
      recorder_->SetAnomalySink(
          [this](const obs::TimelineEvent& trigger) {
            WritePostmortem(trigger);
          });
    }
  }
}

void RunScaffold::WritePostmortem(const obs::TimelineEvent& trigger) {
  std::string safe_label = label_;
  for (char& c : safe_label) {
    if (c == '/' || c == '\\' || c == ' ') c = '-';
  }
  std::error_code ec;
  std::filesystem::create_directories(config_.obs.postmortem_dir, ec);
  const std::string path = config_.obs.postmortem_dir + "/postmortem_" +
                           safe_label + "_" +
                           std::to_string(recorder_->anomalies_fired()) +
                           ".json";
  const std::string json = BuildPostmortemJson(
      trigger, *recorder_, obs::CurrentMetrics()->Snapshot(), journal_,
      config_.obs.postmortem, label_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    AMPERE_LOG(kWarning) << "failed to open postmortem artifact " << path;
    return;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (ok) {
    postmortems_.push_back(path);
    AMPERE_LOG(kInfo) << "postmortem (" << obs::TimelineEventTypeName(
                             trigger.type)
                      << " @ " << trigger.time.minutes() << " min) -> "
                      << path;
  }
}

void RunScaffold::Finish(const TraceRecorder* recorded,
                         RunScaffoldResult* out) {
  if (injector_ != nullptr) {
    out->fault_counts = injector_->counts();
  }
  if (recorder_ != nullptr) {
    out->timeline_events = recorder_->total_appended();
    const std::string& trace_path = config_.obs.trace_path;
    if (!trace_path.empty()) {
      if (obs::WriteChromeTraceFile(*recorder_, trace_path, label_)) {
        out->artifacts.push_back(trace_path);
      } else {
        AMPERE_LOG(kWarning) << "failed to write trace artifact "
                             << trace_path;
      }
    }
    out->artifacts.insert(out->artifacts.end(), postmortems_.begin(),
                          postmortems_.end());
  }
  const std::string& record_path = config_.trace.record_path;
  if (recorded != nullptr && !record_path.empty()) {
    if (WriteTraceFile(record_path, recorded->trace())) {
      out->artifacts.push_back(record_path);
    } else {
      AMPERE_LOG(kWarning) << "failed to write trace artifact "
                           << record_path;
    }
  }
  if (cold_store_ != nullptr) {
    // Seal every active segment so the store is fully on disk and reopenable
    // (the OpenExisting instant-restart path) before the process exits.
    const StoreStatus flushed = cold_store_->Flush();
    AMPERE_CHECK(flushed.ok())
        << "cold store flush failed: " << flushed.message;
    out->cold_samples_spilled = db_.samples_spilled();
    out->cold_segments = cold_store_->total_segments();
    out->artifacts.push_back(cold_store_->ManifestPath());
    AMPERE_LOG(kInfo) << "cold store: spilled " << out->cold_samples_spilled
                      << " samples into " << out->cold_segments
                      << " segments under " << cold_store_->dir();
  }
}

}  // namespace ampere
