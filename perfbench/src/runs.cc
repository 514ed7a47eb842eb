#include "perfbench/src/runs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "perfbench/src/host_info.h"
#include "src/common/check.h"

namespace perfbench {
namespace {

using ampere::SimTime;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Probes fire every 10 simulated seconds from t = 7.5 s, so they never
// coincide with the model's minute-aligned periodic events (:00, +1 s, +2 s,
// +4 s, +5 s).
constexpr SimTime kFirstProbe = SimTime::Millis(7500);
constexpr SimTime kProbeInterval = SimTime::Seconds(10);

// One constructed experiment of either kind, with the public counters the
// tracer reads.
class Experiment {
 public:
  explicit Experiment(const ampere::ExperimentConfig& config);

  ampere::Simulation& sim();
  // Runs the closed loop. The fingerprint counts every processed event,
  // the benchmark's own included.
  Fingerprint Run();

  // Per-DC layers (one entry for a single-DC experiment).
  struct DcLayers {
    ampere::Scheduler* scheduler;
    ampere::PowerMonitor* monitor;
    ampere::AmpereController* controller;
    int servers;
  };
  const std::vector<DcLayers>& layers() const { return layers_; }
  // Campus re-plans so far (0 for a single-DC experiment).
  uint64_t replans();

 private:
  std::unique_ptr<ampere::ControlledExperiment> single_;
  std::unique_ptr<ampere::CampusExperiment> campus_;
  std::vector<DcLayers> layers_;
};

Experiment::Experiment(const ampere::ExperimentConfig& config) {
  if (config.campus.enabled) {
    campus_ = std::make_unique<ampere::CampusExperiment>(config);
    const int n = campus_->campus().num_datacenters();
    for (int d = 0; d < n; ++d) {
      const ampere::DataCenterId id(d);
      layers_.push_back({&campus_->scheduler(id), &campus_->monitor(id),
                         &campus_->controller(id),
                         campus_->campus().dc(id).num_servers()});
    }
  } else {
    single_ = std::make_unique<ampere::ControlledExperiment>(config);
    AMPERE_CHECK(single_->controller() != nullptr);
    layers_.push_back({&single_->scheduler(), &single_->monitor(),
                       single_->controller(), single_->dc().num_servers()});
  }
}

ampere::Simulation& Experiment::sim() {
  return campus_ != nullptr ? campus_->sim() : single_->sim();
}

Fingerprint Experiment::Run() {
  if (campus_ != nullptr) {
    const ampere::CampusResult result = campus_->Run();
    return FingerprintOf(result, sim().processed_events());
  }
  const ampere::ExperimentResult result = single_->Run();
  return FingerprintOf(result, sim().processed_events());
}

uint64_t Experiment::replans() {
  return campus_ != nullptr ? campus_->allocator().replans() : 0;
}

// Sums of the public counters over every DC, read before and after a step.
struct Counters {
  uint64_t submitted = 0;
  uint64_t placed = 0;
  uint64_t completed = 0;
  uint64_t spilled_out = 0;
  uint64_t samples = 0;
  uint64_t ticks = 0;
  uint64_t freeze_ops = 0;
  uint64_t replans = 0;
  size_t pending = 0;
};

// Drives one experiment's run step by step and fills a TracedRun.
class Tracer {
 public:
  Tracer(Experiment* experiment, SimTime end, TracedRun* out)
      : experiment_(experiment), sim_(&experiment->sim()), end_(end),
        out_(out) {
    servers_per_dc_ = experiment_->layers().front().servers;
    for (const Experiment::DcLayers& dc : experiment_->layers()) {
      AMPERE_CHECK(dc.servers == servers_per_dc_);
    }
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Schedules the stepper, the sentinel and the first probe. Must run before
  // the experiment's Run() so the stepper is the first event it pops.
  void Arm() {
    sim_->ScheduleAt(SimTime(), [this] { StepToEnd(); });
    ++own_events_;
    sim_->ScheduleAt(end_ + SimTime::Micros(1), [this] {
      own_step_ = true;
      done_ = true;
    });
    ++own_events_;
    ScheduleProbe(kFirstProbe);
  }

  uint64_t own_events() const { return own_events_; }

  // Summarizes the step times and depth samples into the TracedRun.
  void Finish() {
    for (size_t k = 0; k < ns_.size(); ++k) {
      out_->steps[k] = Summarize(ns_[k]);
    }
    AMPERE_CHECK(probes_ > 0);
    out_->pending_mean = pending_sum_ / static_cast<double>(probes_);
    out_->queue_len_mean = queue_sum_ / static_cast<double>(probes_);
  }

 private:
  Counters Read() {
    Counters c;
    for (const Experiment::DcLayers& dc : experiment_->layers()) {
      c.submitted += dc.scheduler->jobs_submitted();
      c.placed += dc.scheduler->jobs_placed();
      c.completed += dc.scheduler->jobs_completed();
      c.spilled_out += dc.scheduler->jobs_spilled_out();
      c.samples += dc.monitor->samples_taken();
      c.ticks += dc.controller->ticks();
      c.freeze_ops +=
          dc.controller->freeze_ops() + dc.controller->unfreeze_ops();
    }
    c.replans = experiment_->replans();
    c.pending = sim_->pending_events();
    return c;
  }

  void ScheduleProbe(SimTime at) {
    if (at > end_) {
      return;
    }
    sim_->ScheduleAt(at, [this, at] {
      own_step_ = true;
      // The sentinel is the only benchmark event pending while a probe runs.
      const uint64_t pending = sim_->pending_events() - 1;
      uint64_t queued = 0;
      for (const Experiment::DcLayers& dc : experiment_->layers()) {
        queued += dc.scheduler->queue_length();
      }
      ++probes_;
      pending_sum_ += static_cast<double>(pending);
      out_->pending_max = std::max(out_->pending_max, pending);
      queue_sum_ += static_cast<double>(queued);
      out_->queue_len_max = std::max(out_->queue_len_max, queued);
      ScheduleProbe(at + kProbeInterval);
    });
    ++own_events_;
  }

  StepKind Classify(const Counters& a, const Counters& b) {
    if (own_step_) {
      return StepKind::kProbe;
    }
    if (b.ticks != a.ticks) {
      out_->freeze_ops += b.freeze_ops - a.freeze_ops;
      return StepKind::kTick;
    }
    if (b.replans != a.replans) {
      return StepKind::kReplan;
    }
    if (b.spilled_out != a.spilled_out) {
      out_->spillover_jobs += b.spilled_out - a.spilled_out;
      return StepKind::kSpill;
    }
    if (b.samples != a.samples) {
      out_->readings += (b.samples - a.samples) *
                        static_cast<uint64_t>(servers_per_dc_);
      return StepKind::kSample;
    }
    if (b.submitted != a.submitted) {
      out_->placed_at_submit += b.placed - a.placed;
      return StepKind::kSubmit;
    }
    if (b.completed != a.completed) {
      if (b.placed != a.placed) {
        out_->drain_placements += b.placed - a.placed;
        return StepKind::kDrain;
      }
      return StepKind::kComplete;
    }
    if (b.placed != a.placed) {
      return StepKind::kUnattributed;
    }
    if (b.pending > a.pending) {
      out_->jobs_generated += b.pending - a.pending;
      return StepKind::kWorkload;
    }
    if (b.pending + 1 >= a.pending) {
      // A re-armed periodic task (net 0) or a one-shot event (net -1).
      return StepKind::kPeriodic;
    }
    return StepKind::kUnattributed;
  }

  // Runs inside the stepper event's callback. Nested Step() calls are safe:
  // Step() marks the running event fired before invoking it and recycles
  // its slot only after the callback returns, so inner steps never touch
  // the stepper's slot, and the clock only moves forward.
  void StepToEnd() {
    Counters before = Read();
    while (!done_) {
      own_step_ = false;
      const Clock::time_point t0 = Clock::now();
      AMPERE_CHECK(sim_->Step()) << "event queue ran dry before the sentinel";
      const Clock::time_point t1 = Clock::now();
      const Counters after = Read();
      const StepKind kind = Classify(before, after);
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          t1 - t0)
                          .count();
      ns_[static_cast<size_t>(kind)].push_back(static_cast<uint32_t>(
          std::min<int64_t>(ns, std::numeric_limits<uint32_t>::max())));
      before = after;
    }
  }

  Experiment* experiment_;
  ampere::Simulation* sim_;
  SimTime end_;
  TracedRun* out_;
  int servers_per_dc_ = 0;
  bool own_step_ = false;
  bool done_ = false;
  uint64_t own_events_ = 0;
  std::array<std::vector<uint32_t>, static_cast<size_t>(StepKind::kCount)>
      ns_;
  uint64_t probes_ = 0;
  double pending_sum_ = 0.0;
  double queue_sum_ = 0.0;
};

double Share(const TimingStats& s, double wall_ns) {
  return s.total_ns / wall_ns;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

UntracedRun RunUntraced(const Workload& workload, uint64_t seed) {
  const ampere::ExperimentConfig config = workload.make_config(seed);
  const SimTime end = config.warmup + config.duration;
  UntracedRun run;
  run.sim_minutes = end.minutes();
  const Clock::time_point setup_start = Clock::now();
  Experiment experiment(config);
  run.setup_s = SecondsSince(setup_start);

  // Whole minutes per slice. Each inner boundary is marked 7.5 s past its
  // minute, off the model's minute-aligned events, like the probes.
  const int64_t minutes = static_cast<int64_t>(std::ceil(run.sim_minutes));
  const int64_t slice_min = (minutes + kSlices - 1) / kSlices;
  std::vector<Clock::time_point> marks;
  marks.reserve(static_cast<size_t>(kSlices) + 1);
  uint64_t markers = 0;
  for (int64_t m = slice_min; m < minutes; m += slice_min) {
    const SimTime at = SimTime::Minutes(static_cast<double>(m)) + kFirstProbe;
    if (at <= end) {
      experiment.sim().ScheduleAt(at,
                                  [&marks] { marks.push_back(Clock::now()); });
      ++markers;
    }
  }
  const Clock::time_point run_start = Clock::now();
  marks.push_back(run_start);
  run.fingerprint = experiment.Run();
  marks.push_back(Clock::now());
  AMPERE_CHECK(marks.size() == markers + 2);
  run.fingerprint.events -= markers;
  run.run_s = std::chrono::duration<double>(marks.back() - run_start).count();
  for (size_t i = 1; i < marks.size(); ++i) {
    run.slice_s.push_back(
        std::chrono::duration<double>(marks[i] - marks[i - 1]).count());
  }
  return run;
}

TracedRun RunTraced(const Workload& workload, uint64_t seed) {
  const ampere::ExperimentConfig config = workload.make_config(seed);
  Experiment experiment(config);
  TracedRun out;
  Tracer tracer(&experiment, config.warmup + config.duration, &out);
  tracer.Arm();
  const Clock::time_point start = Clock::now();
  out.fingerprint = experiment.Run();
  out.wall_s = SecondsSince(start);
  out.fingerprint.events -= tracer.own_events();
  out.replans = experiment.replans();
  tracer.Finish();
  return out;
}

FingerprintCheck::FingerprintCheck(const Workload& workload, uint64_t seed)
    : reference_(PinnedFingerprint(workload.name, seed)),
      pinned_(reference_.has_value()) {}

bool FingerprintCheck::Check(const Fingerprint& fp) {
  ++attempted_;
  if (!reference_.has_value()) {
    reference_ = fp;
  }
  if (fp == *reference_) {
    return true;
  }
  ++failed_;
  std::printf("FINGERPRINT MISMATCH: got %s, want %s\n",
              fp.ToString().c_str(), reference_->ToString().c_str());
  return false;
}

UntracedSummary RepeatUntraced(const Workload& workload, uint64_t seed,
                               double seconds, size_t min_runs,
                               FingerprintCheck* check) {
  AMPERE_CHECK(min_runs >= 1);
  UntracedSummary summary;
  std::vector<double> walls;  // Set-up plus run, to predict the next one.
  const Clock::time_point start = Clock::now();
  while (summary.runs.size() < min_runs ||
         SecondsSince(start) + Median(walls) <= seconds) {
    const UntracedRun run = RunUntraced(workload, seed);
    const bool ok = check->Check(run.fingerprint);
    std::printf("run %zu: setup %.6f s, run %.4f s, %llu events, %.1f "
                "sim-min/s, fingerprint %s\n",
                summary.runs.size() + 1, run.setup_s, run.run_s,
                static_cast<unsigned long long>(run.fingerprint.events),
                run.sim_minutes / run.run_s, ok ? "ok" : "MISMATCH");
    summary.runs.push_back(run);
    walls.push_back(run.setup_s + run.run_s);
  }
  summary.peak_rss_mb = PeakRssMb();
  return summary;
}

double Median(std::vector<double> v) {
  AMPERE_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double QuietRunSeconds(const std::vector<UntracedRun>& runs) {
  AMPERE_CHECK(!runs.empty());
  std::vector<double> fastest = runs.front().slice_s;
  for (const UntracedRun& run : runs) {
    AMPERE_CHECK(run.slice_s.size() == fastest.size());
    for (size_t k = 0; k < fastest.size(); ++k) {
      fastest[k] = std::min(fastest[k], run.slice_s[k]);
    }
  }
  double total = 0.0;
  for (double s : fastest) {
    total += s;
  }
  return total;
}

std::vector<Metric> EndToEndMetrics(const UntracedSummary& untraced) {
  // On a shared host, contention only ever adds time, and it comes and goes
  // both within a run and in phases longer than one, so each slice's
  // fastest repeat tracks the program where a whole run's time, the
  // fastest one included, follows the contention (README.md).
  const double run_s = QuietRunSeconds(untraced.runs);
  const UntracedRun& first = untraced.runs.front();
  std::vector<double> setup_s;
  for (const UntracedRun& run : untraced.runs) {
    setup_s.push_back(run.setup_s);
  }
  return {{"sim_minutes_per_s", first.sim_minutes / run_s, "sim-min/s"},
          {"steps_per_s",
           static_cast<double>(first.fingerprint.events) / run_s, "steps/s"},
          {"setup_s", Median(setup_s), "s"},
          {"peak_rss_mb", untraced.peak_rss_mb, "MiB"}};
}

const char* StepKindName(StepKind kind) {
  switch (kind) {
    case StepKind::kProbe: return "probe";
    case StepKind::kTick: return "tick";
    case StepKind::kReplan: return "replan";
    case StepKind::kSpill: return "spill";
    case StepKind::kSample: return "sample";
    case StepKind::kSubmit: return "submit";
    case StepKind::kDrain: return "drain";
    case StepKind::kComplete: return "complete";
    case StepKind::kWorkload: return "workload";
    case StepKind::kPeriodic: return "periodic";
    case StepKind::kUnattributed: return "unattributed";
    case StepKind::kCount: break;
  }
  return "?";
}

TimingStats Summarize(std::vector<uint32_t>& ns) {
  TimingStats s;
  s.n = ns.size();
  if (ns.empty()) {
    return s;
  }
  std::sort(ns.begin(), ns.end());
  for (uint32_t v : ns) {
    s.total_ns += v;
  }
  const auto at = [&ns](double q) {
    const size_t i = static_cast<size_t>(
        std::floor(q * static_cast<double>(ns.size() - 1)));
    return static_cast<double>(ns[i]);
  };
  s.p50_ns = at(0.5);
  s.tail_percentile = 100.0;
  s.tail_ns = static_cast<double>(ns.back());
  for (double q : {0.9999, 0.999, 0.99, 0.9}) {
    if (static_cast<double>(ns.size()) * (1.0 - q) >= 10.0) {
      s.tail_percentile = q * 100.0;
      s.tail_ns = at(q);
      break;
    }
  }
  return s;
}

std::vector<Metric> LayerMetrics(const TracedRun& t, double untraced_run_s) {
  const auto& k = t.steps;
  const auto step = [&k](StepKind kind) -> const TimingStats& {
    return k[static_cast<size_t>(kind)];
  };
  const double wall_ns = t.wall_s * 1e9;
  double timed_ns = 0.0;
  for (const TimingStats& s : k) {
    timed_ns += s.total_ns;
  }

  std::vector<Metric> m;
  const auto timing = [&m](const std::string& name, const TimingStats& s) {
    m.push_back({name + ".p50", s.p50_ns, "ns"});
    m.push_back({name + ".tail", s.tail_ns, "ns"});
    m.push_back({name + ".n", static_cast<double>(s.n), "count"});
  };

  const TimingStats& probe = step(StepKind::kProbe);
  m.push_back({"sim.events", static_cast<double>(t.fingerprint.events),
               "count"});
  m.push_back({"sim.pending_mean", t.pending_mean, "events"});
  m.push_back({"sim.pending_max", static_cast<double>(t.pending_max),
               "events"});
  timing("sim.probe_step_ns", probe);
  m.push_back({"sim.probe_share", Share(probe, wall_ns), "fraction"});

  const TimingStats& gen = step(StepKind::kWorkload);
  timing("workload.minute_ns", gen);
  m.push_back({"workload.ns_per_job",
               Ratio(gen.total_ns, static_cast<double>(t.jobs_generated)),
               "ns"});
  m.push_back({"workload.jobs_per_minute",
               Ratio(static_cast<double>(t.jobs_generated),
                     static_cast<double>(gen.n)),
               "jobs/min"});
  m.push_back({"workload.share", Share(gen, wall_ns), "fraction"});

  const TimingStats& submit = step(StepKind::kSubmit);
  const TimingStats& drain = step(StepKind::kDrain);
  const TimingStats& complete = step(StepKind::kComplete);
  timing("sched.submit_ns", submit);
  m.push_back({"sched.placed_at_submit_ratio",
               Ratio(static_cast<double>(t.placed_at_submit),
                     static_cast<double>(submit.n)),
               "ratio"});
  m.push_back({"sched.queue_len_mean", t.queue_len_mean, "jobs"});
  m.push_back({"sched.queue_len_max", static_cast<double>(t.queue_len_max),
               "jobs"});
  timing("sched.drain_ns", drain);
  m.push_back({"sched.drain_placements_per_completion",
               Ratio(static_cast<double>(t.drain_placements),
                     static_cast<double>(drain.n + complete.n)),
               "ratio"});
  m.push_back({"sched.share", (submit.total_ns + drain.total_ns) / wall_ns,
               "fraction"});

  timing("cluster.complete_ns", complete);
  m.push_back({"cluster.completions",
               static_cast<double>(drain.n + complete.n), "count"});
  m.push_back({"cluster.share", Share(complete, wall_ns), "fraction"});

  const TimingStats& sample = step(StepKind::kSample);
  timing("telemetry.sample_ns", sample);
  m.push_back({"telemetry.ns_per_reading",
               Ratio(sample.total_ns, static_cast<double>(t.readings)),
               "ns"});
  m.push_back({"telemetry.share", Share(sample, wall_ns), "fraction"});

  const TimingStats& tick = step(StepKind::kTick);
  const double core_ns = tick.total_ns + step(StepKind::kReplan).total_ns +
                         step(StepKind::kSpill).total_ns +
                         step(StepKind::kPeriodic).total_ns;
  timing("core.tick_ns", tick);
  m.push_back({"core.freeze_ops_per_tick",
               Ratio(static_cast<double>(t.freeze_ops),
                     static_cast<double>(tick.n)),
               "ops"});
  m.push_back({"core.share", core_ns / wall_ns, "fraction"});
  m.push_back({"core.periodic_share", (core_ns + sample.total_ns) / wall_ns,
               "fraction"});

  m.push_back({"control.replans", static_cast<double>(t.replans), "count"});
  m.push_back({"control.spillover_jobs",
               static_cast<double>(t.spillover_jobs), "count"});

  m.push_back({"trace.overhead", t.wall_s / untraced_run_s - 1.0,
               "fraction"});
  m.push_back({"trace.residual_share", (wall_ns - timed_ns) / wall_ns,
               "fraction"});
  return m;
}

}  // namespace perfbench
