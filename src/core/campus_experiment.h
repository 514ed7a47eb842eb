// Campus-federation experiment: N controlled experiments under one contract.
//
// A CampusExperiment runs the §4.1.2 controlled-experiment methodology in
// every data center of a Campus simultaneously — one DcDomain per DC, the
// assembly ControlledExperiment builds once, all bound to ONE shared
// Simulation and ONE shared TimeSeriesDb. DC k's domain differs from a
// single DC's only in plain data: RNG streams Fork(100+k, 300+k, 200+k),
// series and report prefix "campus/dcK/", obs domain "dcK/" and its
// dc_target_power workload. It adds the two campus-level behaviors:
//
//   1. Hierarchical budget allocation. Every re-plan interval the
//      CampusBudgetAllocator reads each DC's observed experiment-group
//      power and re-divides the campus experiment cap across the per-DC
//      controllers (AllocateCampusBudgets in src/control), journaling one
//      DecisionRecord per DC per re-plan under domain "campus/dcK". The
//      per-DC controllers are unchanged in their inner loop; only the PM
//      they normalize against moves.
//   2. Cross-DC batch spillover (policy-flagged, default off). When a DC's
//      frozen capacity starves its queue, unpinned pending jobs migrate to
//      the sibling DC with the most observed headroom via
//      Scheduler::TakePending + Submit.
//
// Determinism contract: everything campus-level runs on the simulation
// thread at fixed event offsets (monitor :00, controllers +1 s, metrics
// +2 s, spillover +4 s, P(t) +4.5 s, re-plan +5 s; ties broken by DC order
// via the event queue's FIFO seq). Parallelism (jobs >= 2) only shards the
// per-monitor sample passes and resummations, which are byte-identical by
// the counter-rng contract — so a campus run is a pure function of its
// config, bit-identical at any job count.

#ifndef SRC_CORE_CAMPUS_EXPERIMENT_H_
#define SRC_CORE_CAMPUS_EXPERIMENT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/cluster/campus.h"
#include "src/common/rng.h"
#include "src/control/campus_allocator.h"
#include "src/core/experiment.h"
#include "src/obs/journal.h"

namespace ampere {

// The campus-level control daemon: owns the re-plan math's inputs/outputs
// and the decision audit log. Pure apart from the journal — Replan returns
// AllocateCampusBudgets on its observations and records one DecisionRecord
// per DC (domain "campus/dcK": observed vs the new budget, u = the DC's
// share fraction of the campus cap).
class CampusBudgetAllocator {
 public:
  CampusBudgetAllocator(double campus_total_watts,
                        const CampusAllocatorConfig& config);

  // `total_scale` applies a time-varying campus cap P(t): the allocator
  // divides campus_total_watts * total_scale instead of the static cap.
  std::vector<double> Replan(SimTime now,
                             std::span<const CampusDcObservation> dcs,
                             double total_scale = 1.0);

  double campus_total_watts() const { return campus_total_watts_; }
  uint64_t replans() const { return replans_; }
  const obs::DecisionJournal& journal() const { return journal_; }

 private:
  double campus_total_watts_;
  CampusAllocatorConfig config_;
  obs::DecisionJournal journal_;
  std::vector<std::string> domain_names_;  // "campus/dcK", grown on demand.
  uint64_t replans_ = 0;
};

// Per-DC slice of a campus run: the usual two-group report plus the
// federation bookkeeping. experiment.budget_watts is the final
// allocator-assigned budget.
struct CampusDcResult : DcDomainResult {
  uint64_t jobs_spilled_out = 0;  // Taken from this DC's queue.
  uint64_t jobs_spilled_in = 0;   // Re-submitted into this DC.
  double final_budget_watts = 0.0;  // Experiment budget after the last plan.
};

// Campus-level results; the RunScaffoldResult base carries the run's fault
// counts (one injector for every DC), artifacts and cold-tier accounting.
struct CampusResult : RunScaffoldResult {
  std::vector<CampusDcResult> dcs;
  // Campus-level rT/G_TPW over the summed group throughputs.
  double throughput_ratio = 0.0;
  double gain_tpw = 0.0;
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t spillover_jobs = 0;  // Total cross-DC migrations.
  uint64_t replans = 0;
  bool breaker_tripped = false;
  obs::JournalSummary allocator_journal;
};

// Pure entry point mirroring RunExperimentToResult: builds a fresh
// CampusExperiment from `config` (config.campus must be enabled) and runs
// the closed loop. Deterministic function of the config; safe to call
// concurrently with distinct configs.
CampusResult RunCampusToResult(const ExperimentConfig& config);

class CampusExperiment {
 public:
  explicit CampusExperiment(const ExperimentConfig& config);

  CampusResult Run();

  // Canonical per-DC series prefix: "campus/dcK/".
  static std::string DcPrefix(DataCenterId id);

  // --- Component access for benches and tests ---
  Simulation& sim() { return sim_; }
  Campus& campus() { return campus_; }
  TimeSeriesDb& db() { return scaffold_.db(); }
  CampusBudgetAllocator& allocator() { return *allocator_; }
  Scheduler& scheduler(DataCenterId id) {
    return domains_[id.index()]->scheduler();
  }
  PowerMonitor& monitor(DataCenterId id) {
    return domains_[id.index()]->monitor();
  }
  AmpereController& controller(DataCenterId id) {
    return *domains_[id.index()]->controller();
  }
  const ExperimentConfig& config() const { return config_; }
  // Null unless config.obs requested recording.
  obs::FlightRecorder* flight_recorder() { return scaffold_.recorder(); }

 private:
  static CampusConfig MakeCampusConfig(const ExperimentConfig& config);
  void SpilloverPass(SimTime now);
  void ReplanBudgets(SimTime now);

  ExperimentConfig config_;
  Rng rng_;
  // Shared worker pool for all DCs' batch passes; declared before the
  // components that borrow it so it is destroyed last.
  std::unique_ptr<ThreadPool> pool_;
  Simulation sim_;
  Campus campus_;
  RunScaffold scaffold_;  // The shared db: per-DC prefixes keep series apart.
  JobIdAllocator ids_;  // Shared: JobIds are campus-unique.
  std::vector<std::unique_ptr<DcDomain>> domains_;
  std::vector<uint64_t> jobs_spilled_in_;  // Per DC.
  std::unique_ptr<CampusBudgetAllocator> allocator_;
  uint64_t spillover_jobs_ = 0;
  // Budget-schedule state: the scale in force now and the scale the last
  // re-plan used. A minute-tick mismatch triggers an extra mid-window
  // re-plan so curtailment propagates within one minute.
  double campus_budget_scale_ = 1.0;
  double last_planned_scale_ = 1.0;
};

}  // namespace ampere

#endif  // SRC_CORE_CAMPUS_EXPERIMENT_H_
