// The benchmark's own checks: the workloads are the configs they claim to
// be, the fingerprint check is not vacuous, the traced run reproduces the
// untraced one and charges every step, and the end-to-end metrics come from
// untraced runs only.
//
//   cmake -S perfbench -B build-perfbench -DPERFBENCH_TESTS=ON
//   cmake --build build-perfbench -j && ctest --test-dir build-perfbench

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "perfbench/src/runs.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

const Workload& Get(const char* name) {
  const Workload* w = FindWorkload(name);
  EXPECT_NE(w, nullptr) << name;
  return *w;
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return m.value;
    }
  }
  ADD_FAILURE() << "no metric " << name;
  return NAN;
}

TEST(PerfbenchWorkloads, HyperscaleSteadyIsPerfClosedLoopHyperscale) {
  // perf_closed_loop's hyperscale tier (seed 20160412, 8 h + 30 min)
  // processes exactly this many events; the same count proves the configs
  // are the same.
  const UntracedRun run = RunUntraced(Get("hyperscale_steady"), 20160412);
  EXPECT_EQ(run.fingerprint.events, 2061934u);
  EXPECT_DOUBLE_EQ(run.sim_minutes, 510.0);
  // 8-minute slices; the slice times add up to the whole Run().
  ASSERT_EQ(run.slice_s.size(), 64u);
  double sum = 0.0;
  for (double s : run.slice_s) {
    sum += s;
  }
  EXPECT_NEAR(sum, run.run_s, 1e-9);
}

TEST(PerfbenchWorkloads, DefaultAndHeldOutSeedsArePinned) {
  ASSERT_EQ(Workloads().size(), 3u);
  for (const Workload& w : Workloads()) {
    EXPECT_TRUE(PinnedFingerprint(w.name, kDefaultSeed).has_value()) << w.name;
    EXPECT_TRUE(PinnedFingerprint(w.name, kHeldOutSeed).has_value())
        << w.name;
    EXPECT_EQ(w.make_config(kDefaultSeed).jobs, 1) << w.name;
  }
}

TEST(PerfbenchFingerprint, PerturbedSeedFailsThePinnedCheck) {
  const Workload& w = Get("hyperscale_steady");
  FingerprintCheck check(w, kDefaultSeed);
  ASSERT_TRUE(check.pinned());
  EXPECT_TRUE(check.Check(RunUntraced(w, kDefaultSeed).fingerprint));
  // The same workload one seed over simulates a different run.
  EXPECT_FALSE(check.Check(RunUntraced(w, kDefaultSeed + 1).fingerprint));
  EXPECT_EQ(check.attempted(), 2u);
  EXPECT_EQ(check.failed(), 1u);
}

TEST(PerfbenchFingerprint, UnpinnedSeedChecksAgainstTheFirstRun) {
  Fingerprint a;
  a.events = 10;
  Fingerprint b = a;
  b.gain_tpw_bits = 1;
  FingerprintCheck check(Get("paper_overcommit"), 999);
  ASSERT_FALSE(check.pinned());
  EXPECT_TRUE(check.Check(a));
  EXPECT_TRUE(check.Check(a));
  EXPECT_FALSE(check.Check(b));
  EXPECT_EQ(check.failed(), 1u);
}

class TracedRunTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TracedRunTest, ReproducesThePinnedRunAndChargesEveryStep) {
  const Workload& w = Get(GetParam());
  const TracedRun traced = RunTraced(w, kDefaultSeed);

  // Benchmark events netted out, the traced run is the untraced run.
  const auto pinned = PinnedFingerprint(w.name, kDefaultSeed);
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(traced.fingerprint, *pinned)
      << traced.fingerprint.ToString() << " vs " << pinned->ToString();

  // Every one of the run's own events was one timed step charged to a
  // layer; the rest were probes.
  uint64_t layer_steps = 0;
  for (size_t k = 0; k < traced.steps.size(); ++k) {
    if (static_cast<StepKind>(k) != StepKind::kProbe) {
      layer_steps += traced.steps[k].n;
    }
  }
  EXPECT_EQ(layer_steps, traced.fingerprint.events);
  EXPECT_EQ(traced.steps[static_cast<size_t>(StepKind::kUnattributed)].n, 0u);
  EXPECT_GT(traced.steps[static_cast<size_t>(StepKind::kProbe)].n, 0u);
  for (StepKind kind : {StepKind::kTick, StepKind::kSample,
                        StepKind::kSubmit, StepKind::kComplete,
                        StepKind::kWorkload, StepKind::kPeriodic}) {
    EXPECT_GT(traced.steps[static_cast<size_t>(kind)].n, 0u)
        << StepKindName(kind);
  }
  // Arrivals scheduled by the minute batches cover every submitted job,
  // bar the ones spillover re-submitted, with at most a minute in flight.
  EXPECT_GE(traced.jobs_generated + traced.spillover_jobs,
            traced.fingerprint.jobs_submitted);

  // The layer shares and the residual add up to the traced wall time.
  const std::vector<Metric> m = LayerMetrics(traced, traced.wall_s);
  const double sum = Find(m, "sim.probe_share") + Find(m, "workload.share") +
                     Find(m, "sched.share") + Find(m, "cluster.share") +
                     Find(m, "telemetry.share") + Find(m, "core.share") +
                     Find(m, "trace.residual_share");
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(Find(m, "trace.residual_share"), 0.0);
  EXPECT_DOUBLE_EQ(Find(m, "trace.overhead"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedRunTest,
                         ::testing::Values("hyperscale_steady",
                                           "paper_overcommit", "campus4"));

TEST(PerfbenchMetrics, SetupAndPeakRssComeFromUntracedRuns) {
  UntracedSummary untraced;
  untraced.runs = {{0.5, 2.0, 60.0, {}, {0.25, 1.75}},
                   {0.3, 1.0, 60.0, {}, {0.5, 0.5}},
                   {0.1, 3.0, 60.0, {}, {2.0, 1.0}}};
  untraced.peak_rss_mb = 42.0;
  const std::vector<Metric> e2e = EndToEndMetrics(untraced);
  // Throughput comes from the fastest time of each slice (0.25 + 0.5 s),
  // which beats the fastest whole run (1 s); set-up is the median one.
  EXPECT_DOUBLE_EQ(QuietRunSeconds(untraced.runs), 0.75);
  EXPECT_DOUBLE_EQ(Find(e2e, "sim_minutes_per_s"), 80.0);
  EXPECT_DOUBLE_EQ(Find(e2e, "setup_s"), 0.3);
  EXPECT_DOUBLE_EQ(Find(e2e, "peak_rss_mb"), 42.0);

  // A traced run reports neither.
  TracedRun traced;
  traced.wall_s = 1.0;
  for (const Metric& m : LayerMetrics(traced, 1.0)) {
    EXPECT_NE(m.name, "setup_s");
    EXPECT_NE(m.name, "peak_rss_mb");
  }

  // RepeatUntraced reads the peak after its own runs.
  FingerprintCheck check(Get("paper_overcommit"), kDefaultSeed);
  const UntracedSummary real =
      RepeatUntraced(Get("paper_overcommit"), kDefaultSeed, 0.0, 1, &check);
  ASSERT_EQ(real.runs.size(), 1u);
  EXPECT_GT(real.peak_rss_mb, 1.0);
  EXPECT_GT(real.runs[0].setup_s, 0.0);
  EXPECT_EQ(check.failed(), 0u);
}

TEST(PerfbenchMetrics, TailIsTheHighestPercentileWithTenBeyond) {
  std::vector<uint32_t> ns;
  for (uint32_t i = 1; i <= 1000; ++i) {
    ns.push_back(1001 - i);
  }
  const TimingStats s = Summarize(ns);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.tail_ns, 990.0);
  EXPECT_DOUBLE_EQ(s.p50_ns, 500.0);
  EXPECT_DOUBLE_EQ(s.total_ns, 500500.0);
}

}  // namespace
}  // namespace perfbench
