// The benchmark's three closed-loop workloads, their run fingerprints and
// the fingerprints pinned for known seeds.
//
// Each workload is a real ControlledExperiment or CampusExperiment config.
// Inside a run the arrival process is an open-loop non-homogeneous Poisson
// process in simulated time; the benchmark runs one experiment after another
// (a closed loop of runs). The seed argument becomes ExperimentConfig::seed.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/campus_experiment.h"
#include "src/core/experiment.h"

namespace perfbench {

// Why each workload was chosen: README.md and BENCHMARK.json.
struct Workload {
  const char* name;
  // Builds the experiment config for `seed` (always jobs = 1).
  ampere::ExperimentConfig (*make_config)(uint64_t seed);
};

// hyperscale_steady, paper_overcommit, campus4 — in that order.
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

// The seed used when --seed is not given, and the one held out while the
// workloads were chosen. Both have pinned fingerprints for every workload.
inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr uint64_t kHeldOutSeed = 7;

// Everything a run simulates that a pure speed change must leave untouched.
// Bit patterns for the doubles, so "equal" means byte-identical.
struct Fingerprint {
  uint64_t events = 0;  // Simulation::processed_events of the run's own events.
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t final_queue_length = 0;
  int64_t violations = 0;      // Experiment group(s), summed over DCs.
  uint64_t u_mean_bits = 0;    // Campus: DC-order sum of per-DC u_mean.
  uint64_t gain_tpw_bits = 0;  // G_TPW (campus-level for campus4).
  uint64_t replans = 0;        // Campus only.
  uint64_t spillover = 0;      // Campus only.

  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};

Fingerprint FingerprintOf(const ampere::ExperimentResult& result,
                          uint64_t events);
Fingerprint FingerprintOf(const ampere::CampusResult& result,
                          uint64_t events);

// The fingerprint recorded for (workload, seed), if that pair is pinned.
std::optional<Fingerprint> PinnedFingerprint(std::string_view workload,
                                             uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
