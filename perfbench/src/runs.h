// Untraced and traced runs of one workload.
//
// The untraced run is the end-to-end measurement: construct the experiment
// (timed as set-up), call its Run() (timed as the run), fingerprint the
// result. Run() is also timed in slices of simulated time, by no-op marker
// events at the slice boundaries, so that a window of repeats can be
// combined slice by slice (see QuietRunSeconds).
//
// The traced run calls the same Run(), but first schedules a stepper event at
// t = 0 — the first event Run()'s RunUntil pops. The stepper then calls
// Simulation::Step() itself, one event at a time, until a sentinel event one
// microsecond past the run's end fires: exactly the events RunUntil(end)
// would have processed, in the same order. Each step is timed and charged to
// the layer whose public counter moved (see StepKind). Periodic no-op probe
// events measure the queue's own pop + push cost at production depth and
// sample the heap and backlog depth. The stepper, the sentinel and the probes
// are the benchmark's own events; the fingerprint nets them out, so a traced
// run must reproduce the untraced fingerprint exactly.

#ifndef PERFBENCH_SRC_RUNS_H_
#define PERFBENCH_SRC_RUNS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"

namespace perfbench {

// Run() is timed in at most this many slices of whole simulated minutes
// (64 for paper_overcommit and hyperscale_steady, 50 for campus4).
inline constexpr int kSlices = 64;

struct UntracedRun {
  double setup_s = 0.0;  // Experiment constructor.
  double run_s = 0.0;    // Run().
  double sim_minutes = 0.0;
  Fingerprint fingerprint;  // Marker events netted out.
  // Wall seconds of each slice of Run(); they sum to run_s. Every run of a
  // workload has the same slices, each doing the same simulated work.
  std::vector<double> slice_s;
};
UntracedRun RunUntraced(const Workload& workload, uint64_t seed);

// Compares every run's fingerprint with the reference: the pinned one when
// the seed is pinned, else the first run's. A mismatch is a failed
// operation.
class FingerprintCheck {
 public:
  FingerprintCheck(const Workload& workload, uint64_t seed);

  bool pinned() const { return pinned_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // Counts one operation; false (and a printed diff) on a mismatch.
  bool Check(const Fingerprint& fp);

 private:
  std::optional<Fingerprint> reference_;
  bool pinned_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct UntracedSummary {
  std::vector<UntracedRun> runs;
  double peak_rss_mb = 0.0;  // Read after the last run, before any trace.
};
// Untraced runs, each checked: at least `min_runs` (>= 1), then more while
// the next one, at the median length so far, still ends within `seconds`.
// Prints one line per run.
UntracedSummary RepeatUntraced(const Workload& workload, uint64_t seed,
                               double seconds, size_t min_runs,
                               FingerprintCheck* check);

double Median(std::vector<double> v);

// What a traced step is charged to, by which public counter moved (first
// match wins):
enum class StepKind : int {
  kProbe,         // The benchmark's own probe or sentinel event.
  kTick,          // AmpereController::ticks
  kReplan,        // CampusBudgetAllocator::replans
  kSpill,         // Scheduler::jobs_spilled_out
  kSample,        // PowerMonitor::samples_taken
  kSubmit,        // Scheduler::jobs_submitted
  kDrain,         // jobs_completed and jobs_placed: a completion that
                  // placed queued jobs
  kComplete,      // jobs_completed only
  kWorkload,      // no counter, pending events grew: a minute batch of
                  // arrivals was scheduled (BatchWorkload::GenerateMinute)
  kPeriodic,      // no counter, pending events did not grow: metrics
                  // recorder, measure-start, an idle spillover pass
  kUnattributed,  // anything else; a correct trace has none
  kCount,
};
const char* StepKindName(StepKind kind);

struct TimingStats {
  uint64_t n = 0;
  double p50_ns = 0.0;
  double tail_ns = 0.0;
  double tail_percentile = 0.0;  // Which percentile `tail_ns` is.
  double total_ns = 0.0;
};
// Median and the highest of p99.99/p99.9/p99/p90 with at least ten samples
// beyond it (the maximum when n < 100). Sorts `ns` in place.
TimingStats Summarize(std::vector<uint32_t>& ns);

struct TracedRun {
  Fingerprint fingerprint;  // Benchmark events netted out.
  double wall_s = 0.0;      // Traced Run().
  std::array<TimingStats, static_cast<size_t>(StepKind::kCount)> steps;
  uint64_t jobs_generated = 0;       // Arrivals scheduled by kWorkload steps.
  uint64_t placed_at_submit = 0;     // kSubmit steps that placed their job.
  uint64_t drain_placements = 0;     // Jobs placed by kDrain steps.
  uint64_t freeze_ops = 0;           // Freeze + unfreeze ops in kTick steps.
  uint64_t readings = 0;             // Server readings in kSample steps.
  uint64_t spillover_jobs = 0;
  uint64_t replans = 0;
  double pending_mean = 0.0;         // Run's own pending events, at probes.
  uint64_t pending_max = 0;
  double queue_len_mean = 0.0;       // Scheduler backlog (all DCs), at probes.
  uint64_t queue_len_max = 0;
};
TracedRun RunTraced(const Workload& workload, uint64_t seed);

// `name`, value and unit of one reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
// Run() time with contention filtered out: the sum over slices of the
// fastest wall time any of `runs` took for that slice.
double QuietRunSeconds(const std::vector<UntracedRun>& runs);
// The end-to-end metrics of untraced runs: throughput over the quiet run
// time, the median set-up, peak RSS after the runs. Nothing here comes from a
// traced run.
std::vector<Metric> EndToEndMetrics(const UntracedSummary& untraced);
// The per-layer metrics of a traced run; `untraced_run_s` is the median
// untraced Run() wall of the same workload and seed (for trace.overhead).
std::vector<Metric> LayerMetrics(const TracedRun& traced,
                                 double untraced_run_s);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RUNS_H_
