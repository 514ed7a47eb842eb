// One data center's control domain, the unit of the paper's evaluation
// (§4.1.2), and the run-level scaffolding around a run's domains.
//
// A DcDomain is one DC's parity-split controlled experiment: scheduler,
// monitor, arrival source, optional Ampere controller, the experiment and
// control groups with their budgets, and the per-minute metrics recorder.
// ControlledExperiment builds one; CampusExperiment builds one per DC under
// a shared allocator. The two differ only in the plain data of DcDomainSpec
// (RNG streams, series and report prefixes, obs domain, workload), so both
// assemble a DC through the same code and keep their goldens byte-identical.
//
// RunScaffold is the plumbing both experiment kinds wrap around their
// domains: the run's TimeSeriesDb with its cold tier, the one fault
// injector every domain attaches, the flight recorder with its postmortem
// writer, and the end-of-run artifact list in its fixed order.

#ifndef SRC_CORE_DC_DOMAIN_H_
#define SRC_CORE_DC_DOMAIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/common/rng.h"
#include "src/core/controller.h"
#include "src/core/metrics.h"
#include "src/faults/fault_injector.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/journal.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulation.h"
#include "src/telemetry/cold_store.h"
#include "src/telemetry/power_monitor.h"
#include "src/telemetry/timeseries_db.h"
#include "src/workload/batch_workload.h"
#include "src/workload/trace_format.h"

namespace ampere {

struct ExperimentConfig;  // src/core/experiment.h

// Everything that distinguishes one DC's assembly from another's.
struct DcDomainSpec {
  // Streams forked from the owner's root Rng for each stochastic role.
  struct Streams {
    uint64_t scheduler = 0;
    uint64_t monitor = 0;
    uint64_t workload = 0;
  };
  Streams streams;
  std::string series_prefix;  // Prefix of every TimeSeriesDb series name.
  std::string report_prefix;  // Prefix of the two GroupReport names.
  std::string obs_domain;     // Metrics/timeline domain; "" = root.
  BatchWorkloadParams workload;
};

// The two-group result of one DC's window, shared by ExperimentResult and
// CampusDcResult.
struct DcDomainResult {
  GroupReport experiment;
  GroupReport control;
  double throughput_ratio = 0.0;  // rT = thruE / thruC.
  double gain_tpw = 0.0;          // Eq. (18).
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  size_t final_queue_length = 0;
  bool breaker_tripped = false;
  // Aggregate of the controller's DecisionJournal over the run (empty when
  // the controller is disabled or journaling is off). Since the journal
  // sees the same per-minute power the metrics recorder sees, its
  // "experiment"-domain row reproduces the GroupReport's Table-2 counts
  // (violations, u_mean, u_max) independently — the audit path and the
  // reporting path cross-check each other.
  obs::JournalSummary journal;
  // The controller's degraded-tick totals (all zero on fault-free runs).
  uint64_t degraded_ticks = 0;
  uint64_t blackout_skips = 0;
  uint64_t stale_fallbacks = 0;
  uint64_t rpc_giveups = 0;
};

// Run-level outcome of the scaffolding, shared by ExperimentResult and
// CampusResult.
struct RunScaffoldResult {
  // Fault adversity the run actually experienced (all zero without an
  // injector). These report what *happened*, where ExperimentConfig::faults
  // describes what was possible.
  faults::FaultCounts fault_counts;
  // Artifact files this run wrote: trace export first, then postmortems in
  // trigger order, then the recorded workload trace, then the cold-store
  // manifest. Empty unless the config asked for them.
  std::vector<std::string> artifacts;
  uint64_t timeline_events = 0;  // Recorder total_appended (0 = no recorder).
  // Cold-tier accounting (zero when ExperimentConfig::storage is off).
  uint64_t cold_samples_spilled = 0;
  uint64_t cold_segments = 0;
};

class DcDomain {
 public:
  static constexpr const char* kExperimentGroup = "experiment";
  static constexpr const char* kControlGroup = "control";

  // Borrows everything but what it builds; `config`, `sim`, `dc`, `db`,
  // `ids`, `pool` and `injector` must outlive the domain. `pool` and
  // `injector` may be null.
  DcDomain(const ExperimentConfig& config, const DcDomainSpec& spec,
           const Rng& rng, Simulation* sim, DataCenter* dc, TimeSeriesDb* db,
           JobIdAllocator* ids, ThreadPool* pool,
           faults::FaultInjector* injector);
  DcDomain(const DcDomain&) = delete;
  DcDomain& operator=(const DcDomain&) = delete;

  // Run wiring, in event-insertion order: arrivals at t = 0 and the first
  // monitor sample at 1 min; then the controller tick at measure start + 1 s
  // and the metrics record at + 2 s, each minute of [measure_start, end).
  // Same-time events of different DCs break ties by insertion order, so an
  // owner of several domains calls each phase for every DC in DC order.
  void StartBaseline();
  void StartMeasurement(SimTime measure_start, SimTime end);
  // Placements count toward throughput from here on.
  void StartCounting() { counting_ = true; }

  // Re-targets the experiment budget in force: the controller's domain
  // budget and the metrics' normalization (a P(t) step or a campus re-plan).
  void SetExperimentBudget(double watts);

  // Finalizes the group reports (moved into `out`) and fills the rest.
  void Finish(DcDomainResult* out);

  Scheduler& scheduler() { return scheduler_; }
  PowerMonitor& monitor() { return monitor_; }
  AmpereController* controller() { return controller_.get(); }
  TraceArrivalProcess* trace_workload() { return trace_workload_.get(); }
  const TraceRecorder* trace_recorder() const { return trace_recorder_.get(); }
  const std::vector<ServerId>& experiment_servers() const {
    return experiment_servers_;
  }
  const std::vector<ServerId>& control_servers() const {
    return control_servers_;
  }
  // Initial rO-scaled budgets.
  double experiment_budget_watts() const { return experiment_budget_watts_; }
  double control_budget_watts() const { return control_budget_watts_; }
  double budget_in_force() const { return budget_in_force_; }
  // Unscaled experiment-group provisioning (the allocator's clamp ceiling).
  double experiment_rated_watts() const { return experiment_rated_watts_; }

 private:
  const ExperimentConfig& config_;
  Simulation* sim_;
  DataCenter* dc_;
  Scheduler scheduler_;
  PowerMonitor monitor_;
  // Arrival source: the synthetic generator, or a trace replay; a recording
  // run interposes the recorder between the source and the scheduler.
  std::unique_ptr<TraceRecorder> trace_recorder_;
  std::unique_ptr<TraceArrivalProcess> trace_workload_;
  std::unique_ptr<BatchWorkload> workload_;
  std::unique_ptr<AmpereController> controller_;

  std::vector<ServerId> experiment_servers_;
  std::vector<ServerId> control_servers_;
  double experiment_rated_watts_ = 0.0;
  double experiment_budget_watts_ = 0.0;
  double control_budget_watts_ = 0.0;
  double budget_in_force_ = 0.0;

  GroupReport experiment_report_;
  GroupReport control_report_;
  uint64_t window_thru_experiment_ = 0;
  uint64_t window_thru_control_ = 0;
  uint64_t minute_thru_experiment_ = 0;
  uint64_t minute_thru_control_ = 0;
  bool counting_ = false;
};

class RunScaffold {
 public:
  // Opens the cold store under the db and builds the fault injector and the
  // flight recorder when the config asks for them. `default_label` names
  // artifacts when config.obs.run_label is empty. `config` must outlive the
  // scaffold.
  RunScaffold(const ExperimentConfig& config, const char* default_label);
  RunScaffold(const RunScaffold&) = delete;
  RunScaffold& operator=(const RunScaffold&) = delete;

  // The decision journal postmortems tail (none until set); it must outlive
  // the run.
  void TailJournal(const obs::DecisionJournal* journal) { journal_ = journal; }

  // After the run: fault counts, timeline total, and the artifacts in order
  // (trace export, postmortems, `recorded` workload trace if a record path
  // is set, flushed cold-store manifest).
  void Finish(const TraceRecorder* recorded, RunScaffoldResult* out);

  TimeSeriesDb& db() { return db_; }
  faults::FaultInjector* injector() { return injector_.get(); }
  obs::FlightRecorder* recorder() { return recorder_.get(); }
  ColdStore* cold_store() { return cold_store_.get(); }

 private:
  // Anomaly sink: snapshots the recorder window, the metrics and the
  // journal tail into config.obs.postmortem_dir.
  void WritePostmortem(const obs::TimelineEvent& trigger);

  const ExperimentConfig& config_;
  std::string label_;
  std::unique_ptr<ColdStore> cold_store_;  // Outlives db_, its spill target.
  TimeSeriesDb db_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  const obs::DecisionJournal* journal_ = nullptr;
  std::vector<std::string> postmortems_;  // In trigger order.
};

}  // namespace ampere

#endif  // SRC_CORE_DC_DOMAIN_H_
