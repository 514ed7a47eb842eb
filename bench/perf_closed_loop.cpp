// perf_closed_loop: the repo's perf baseline for the per-run hot path.
//
// Every scenario in the grid benches is one single-threaded discrete-event
// run; the harness (PR 1) parallelizes *across* runs, so per-run throughput
// is the floor every later PR stands on. This bench measures that floor and
// emits a machine-readable record (BENCH_perf_closed_loop.json) that CI
// compares against the committed baseline.
//
// Phases, per topology (small 84 / paper 420 / fleet4x 1680 / hyperscale
// 6720 servers; --huge adds a 26880-server tier):
//   closed_loop  — a full ControlledExperiment (workload + scheduler +
//                  monitor + controller + breaker) for several simulated
//                  hours; reports steps/sec (sim events per wall second)
//                  and sim-minutes/sec.
//   sample       — the PowerMonitor minute pass in a tight loop on a loaded
//                  fleet; reports samples/sec (server readings per wall
//                  second), ns per pass, and heap allocations per pass.
//   resummate    — the exact power re-aggregation sweep (servers -> racks ->
//                  rows -> total) on a loaded fleet; reports ns per
//                  resummation.
//   events       — event-core schedule+fire pairs with a typical closure;
//                  reports ns and heap allocations per event.
// Plus, at paper scale only:
//   tick         — the controller decision tick; reports ns per tick.
//
// --trajectory entries carry the per-topology "steps_per_sec" map (shape
// unchanged since schema 1) plus a "phase_ns" map with the paper-scale
// per-kernel timings {sample, resummate, tick, events}, so kernel-level
// regressions are attributable across PRs, not just the composite.
//
// Allocation accounting: this binary replaces global operator new/delete
// with counting forwarders. The steady-state contract after the interned-
// handle/pooled-event rebuild is ZERO allocations per sample pass and per
// event — enforced whenever the committed baseline says
// "require_zero_alloc": true (CI runs `--check=BENCH_perf_closed_loop.json`).
//
// Flags:
//   --json=PATH        write the current numbers as JSON
//   --check=PATH       compare against a committed baseline: fail (exit 1)
//                      on a >25% steps/sec regression on any topology, or on
//                      any steady-state allocation when the baseline
//                      requires zero. The baseline holds Release numbers, so
//                      a binary built as any other CMAKE_BUILD_TYPE refuses
//                      to check (exit 2) before measuring anything
//   --quick            quarter-length closed loops (for smoke use)
//   --huge             add the 64-row (26880-server) tier
//   --trajectory=PATH  append a dated {date, commit, per-topology steps/s}
//                      entry to the perf-trajectory JSON (commit read from
//                      $AMPERE_COMMIT, "unknown" if unset)
//   --store-dir=DIR    run the persistent-telemetry identity check before
//                      the tiers: a spill-enabled small closed loop under
//                      DIR whose stitched bytes must equal a RAM-only twin's,
//                      then an OpenExisting reopen that must serve the same
//                      bytes again. Prints STORAGE CHECK [PASS|FAIL] lines
//                      (CI greps them) and fails the binary on mismatch.
//   --storage-only     exit right after the --store-dir check (CI smoke)
//   --rss-demo         instead of the tiers, run the bounded-RSS demo: a
//                      multi-day hyperscale closed loop with per-server
//                      telemetry, once RAM-only and once spilling under
//                      --store-dir, sampling VmRSS each simulated day. The
//                      JSON gains a "storage_demo" block (RAM grows, spill
//                      plateaus; steps/s within 10%).
//   --rss-days=N       measured days for --rss-demo (default 7)
//
// RSS accounting: every tier (and every --rss-demo day) records VmRSS from
// /proc/self/status — best-effort, 0.0 where the file does not exist — so
// the longitudinal record tracks memory footprint, not just speed.
//
// The committed bench/BENCH_perf_closed_loop.json also archives the
// pre-rebuild numbers under "pre_change" so the speedup each PR documented
// stays auditable; --check ignores that block. The repo-root
// BENCH_perf_closed_loop.json is the longitudinal trajectory file that
// --trajectory appends to.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/controller.h"
#include "src/core/experiment.h"
#include "src/obs/metrics.h"
#include "src/sched/scheduler.h"
#include "src/telemetry/cold_store.h"
#include "src/telemetry/csv_export.h"
#include "src/telemetry/power_monitor.h"
#include "src/telemetry/timeseries_db.h"

// --- Global allocation counter ------------------------------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   ((size + static_cast<std::size_t>(align) -
                                     1) /
                                    static_cast<std::size_t>(align)) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160412;
// CMAKE_BUILD_TYPE of this binary (see bench/CMakeLists.txt); --check only
// trusts Release numbers.
constexpr const char* kBuildType = AMPERE_BUILD_TYPE;

uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

double NowSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// Steady-state resident set in MB from /proc/self/status (VmRSS is in kB).
// Best-effort: returns 0.0 where the file does not exist (non-Linux hosts),
// so consumers treat 0 as "not measured", never as "no memory".
double ReadVmRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct TopologySpec {
  const char* name;
  int rows;
  int racks_per_row;
  double closed_loop_hours;
};

struct ClosedLoopStats {
  double sim_hours = 0.0;
  double wall_s = 0.0;
  uint64_t events = 0;
  double steps_per_sec = 0.0;
  double sim_minutes_per_sec = 0.0;
};

struct SampleStats {
  uint64_t passes = 0;
  double samples_per_sec = 0.0;
  double ns_per_pass = 0.0;
  double allocs_per_pass = 0.0;
};

struct EventStats {
  double ns_per_event = 0.0;
  double allocs_per_event = 0.0;
};

struct TopologyResult {
  std::string name;
  int servers = 0;
  ClosedLoopStats closed_loop;
  SampleStats sample;
  double resummate_ns = 0.0;
  EventStats events;
  double tick_ns = 0.0;  // Paper topology only; 0 elsewhere.
  // VmRSS right after this tier's phases finished (0.0 = not measurable).
  double rss_mb = 0.0;
};

TopologyConfig MakeTopology(const TopologySpec& spec) {
  TopologyConfig config;
  config.num_rows = spec.rows;
  config.racks_per_row = spec.racks_per_row;
  config.servers_per_rack = 42;
  config.server_capacity = Resources{16.0, 64.0};
  config.power_model.rated_watts = 250.0;
  config.power_model.idle_fraction = 0.65;
  return config;
}

// --- Phase: full closed loop --------------------------------------------

ExperimentConfig MakeClosedLoopConfig(const TopologySpec& spec,
                                      double hours) {
  ExperimentConfig config;
  config.seed = kSeed;
  config.topology = MakeTopology(spec);
  config.over_provision_ratio = 0.25;
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, 0.98, 0.25);
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(hours);
  return config;
}

ClosedLoopStats RunClosedLoop(const TopologySpec& spec, double hours) {
  ExperimentConfig config = MakeClosedLoopConfig(spec, hours);

  ControlledExperiment experiment(config);
  const double start = NowSeconds();
  experiment.Run();
  const double wall = NowSeconds() - start;

  ClosedLoopStats stats;
  stats.sim_hours = hours + 0.5;
  stats.wall_s = wall;
  stats.events = experiment.sim().processed_events();
  stats.steps_per_sec = static_cast<double>(stats.events) / wall;
  stats.sim_minutes_per_sec = stats.sim_hours * 60.0 / wall;
  return stats;
}

// --- Phase: telemetry sample pass ---------------------------------------

// A loaded fleet whose monitor is sampled in a tight loop. obs is switched
// off for the measured section so the numbers isolate the telemetry path
// itself (the obs overhead has its own micro bench).
SampleStats RunSamplePhase(const TopologySpec& spec) {
  Simulation sim;
  DataCenter dc(MakeTopology(spec), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, PowerMonitorConfig{}, Rng(kSeed));
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    dc.PlaceTask(ServerId(s), TaskSpec{JobId(s), Resources{8.0, 8.0},
                                       SimTime::Hours(100000)});
  }

  const uint64_t passes = 4096;
  // Steady-state storage: one point per recorded series per pass. Sizing
  // the stores up front is what production monitors do for a known horizon;
  // it is also what makes a zero-allocation steady state possible at all.
  db.Reserve(static_cast<size_t>(dc.num_racks() + dc.num_rows()) + 1);
  monitor.PreallocateSamples(passes + 16);

  int64_t minute = 1;
  // Warmup: fault-free first passes intern/construct every series and let
  // vectors settle.
  for (int i = 0; i < 8; ++i) {
    monitor.SampleOnce(SimTime::Minutes(static_cast<double>(minute++)));
  }

  // Min-of-windows timing: the reported figure is the fastest of 8 equal
  // windows. The phase loops run for only a few ms, so a single scheduler
  // preemption inside one flat timing loop can inflate the mean 2x; the
  // minimum window measures the kernel, not whichever window the host's
  // jitter landed in. Allocations are still counted across every pass.
  constexpr uint64_t kWindows = 8;
  const uint64_t per_window = passes / kWindows;
  obs::SetEnabled(false);
  const uint64_t allocs_before = AllocCount();
  double best = std::numeric_limits<double>::infinity();
  for (uint64_t w = 0; w < kWindows; ++w) {
    const double start = NowSeconds();
    for (uint64_t i = 0; i < per_window; ++i) {
      monitor.SampleOnce(SimTime::Minutes(static_cast<double>(minute++)));
    }
    best = std::min(best, NowSeconds() - start);
  }
  const uint64_t allocs = AllocCount() - allocs_before;
  obs::SetEnabled(true);

  SampleStats stats;
  stats.passes = passes;
  stats.samples_per_sec =
      static_cast<double>(per_window) * static_cast<double>(dc.num_servers()) /
      best;
  stats.ns_per_pass = best * 1e9 / static_cast<double>(per_window);
  stats.allocs_per_pass =
      static_cast<double>(allocs) / static_cast<double>(passes);
  return stats;
}

// --- Phase: power resummation --------------------------------------------

// The exact re-aggregation sweep the monitor triggers each minute and the
// breaker check leans on: full servers -> racks -> rows -> total pairwise
// sums on a loaded fleet.
double RunResummatePhase(const TopologySpec& spec) {
  Simulation sim;
  DataCenter dc(MakeTopology(spec), &sim);
  Rng rng(kSeed + 3);
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    if (rng.Bernoulli(0.8)) {
      dc.PlaceTask(ServerId(s), TaskSpec{JobId(s), Resources{8.0, 8.0},
                                         SimTime::Hours(100000)});
    }
  }
  const uint64_t sweeps = 4096;
  for (int i = 0; i < 16; ++i) {
    dc.ResummatePowerAggregates();
  }
  // Min-of-windows (see RunSamplePass): this is the shortest phase, so it
  // is the most exposed to preemption spikes under a flat timing loop.
  constexpr uint64_t kWindows = 8;
  const uint64_t per_window = sweeps / kWindows;
  obs::SetEnabled(false);
  double best = std::numeric_limits<double>::infinity();
  for (uint64_t w = 0; w < kWindows; ++w) {
    const double start = NowSeconds();
    for (uint64_t i = 0; i < per_window; ++i) {
      dc.ResummatePowerAggregates();
    }
    best = std::min(best, NowSeconds() - start);
  }
  obs::SetEnabled(true);
  return best * 1e9 / static_cast<double>(per_window);
}

// --- Phase: event core ---------------------------------------------------

EventStats RunEventPhase() {
  Simulation sim;
  struct Receiver {
    uint64_t hits = 0;
    void OnFire(int32_t, int64_t) { ++hits; }
  } receiver;

  const uint64_t iterations = 1 << 20;
  // Warmup grows the pool/queue to steady capacity.
  for (uint64_t i = 0; i < 1024; ++i) {
    sim.ScheduleAfter(SimTime::Micros(1), [&receiver, i, j = int64_t(i)] {
      receiver.OnFire(static_cast<int32_t>(i), j);
    });
    sim.Step();
  }

  // Min-of-windows (see RunSamplePass). Allocations still counted across
  // every iteration.
  constexpr uint64_t kWindows = 8;
  const uint64_t per_window = iterations / kWindows;
  obs::SetEnabled(false);
  const uint64_t allocs_before = AllocCount();
  double best = std::numeric_limits<double>::infinity();
  for (uint64_t w = 0; w < kWindows; ++w) {
    const double start = NowSeconds();
    for (uint64_t i = 0; i < per_window; ++i) {
      // The sim's typical closure shape — a this-pointer plus two ids
      // (24 bytes, beyond std::function's 16-byte inline buffer).
      sim.ScheduleAfter(SimTime::Micros(1), [&receiver, i, j = int64_t(i)] {
        receiver.OnFire(static_cast<int32_t>(i & 0xff), j);
      });
      sim.Step();
    }
    best = std::min(best, NowSeconds() - start);
  }
  const uint64_t allocs = AllocCount() - allocs_before;
  obs::SetEnabled(true);

  EventStats stats;
  stats.ns_per_event = best * 1e9 / static_cast<double>(per_window);
  stats.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(iterations);
  return stats;
}

// --- Phase: controller tick ----------------------------------------------

double RunTickPhase(const TopologySpec& spec) {
  Simulation sim;
  DataCenter dc(MakeTopology(spec), &sim);
  TimeSeriesDb db;
  Scheduler scheduler(&dc, SchedulerConfig{}, Rng(kSeed + 1));
  PowerMonitor monitor(&dc, &db, PowerMonitorConfig{}, Rng(kSeed + 2));
  std::vector<ServerId> all;
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    all.push_back(ServerId(s));
    dc.PlaceTask(ServerId(s), TaskSpec{JobId(s), Resources{8.0, 8.0},
                                       SimTime::Hours(100000)});
  }
  monitor.RegisterGroup("domain", all);
  monitor.SampleOnce(SimTime::Minutes(1));

  AmpereControllerConfig config;
  config.effect = FreezeEffectModel(0.05);
  config.et = EtEstimator::Constant(0.02);
  AmpereController controller(&scheduler, &monitor, config);
  controller.AddDomain(
      {"domain", all, static_cast<double>(dc.num_servers()) * 250.0 / 1.25});

  const uint64_t ticks = 4096;
  int64_t minute = 2;
  for (int i = 0; i < 16; ++i) {
    controller.Tick(SimTime::Minutes(static_cast<double>(minute++)));
  }
  // Min-of-windows (see RunSamplePass).
  constexpr uint64_t kWindows = 8;
  const uint64_t per_window = ticks / kWindows;
  obs::SetEnabled(false);
  double best = std::numeric_limits<double>::infinity();
  for (uint64_t w = 0; w < kWindows; ++w) {
    const double start = NowSeconds();
    for (uint64_t i = 0; i < per_window; ++i) {
      controller.Tick(SimTime::Minutes(static_cast<double>(minute++)));
    }
    best = std::min(best, NowSeconds() - start);
  }
  obs::SetEnabled(true);
  return best * 1e9 / static_cast<double>(per_window);
}

// --- JSON emit / check ----------------------------------------------------

void AppendJson(std::ostringstream& out, const TopologyResult& r,
                bool last) {
  out << "    \"" << r.name << "\": {\n";
  out << "      \"servers\": " << r.servers << ",\n";
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "      \"rss_mb\": %.1f,\n",
                r.rss_mb);
  out << buffer;
  std::snprintf(buffer, sizeof(buffer),
                "      \"closed_loop\": {\"sim_hours\": %.2f, \"wall_s\": "
                "%.3f, \"events\": %llu, \"steps_per_sec\": %.0f, "
                "\"sim_minutes_per_sec\": %.1f},\n",
                r.closed_loop.sim_hours, r.closed_loop.wall_s,
                static_cast<unsigned long long>(r.closed_loop.events),
                r.closed_loop.steps_per_sec,
                r.closed_loop.sim_minutes_per_sec);
  out << buffer;
  std::snprintf(buffer, sizeof(buffer),
                "      \"sample\": {\"passes\": %llu, \"samples_per_sec\": "
                "%.0f, \"ns_per_pass\": %.0f, \"allocs_per_pass\": %.3f},\n",
                static_cast<unsigned long long>(r.sample.passes),
                r.sample.samples_per_sec, r.sample.ns_per_pass,
                r.sample.allocs_per_pass);
  out << buffer;
  std::snprintf(buffer, sizeof(buffer),
                "      \"resummate\": {\"ns_per_sweep\": %.0f},\n",
                r.resummate_ns);
  out << buffer;
  std::snprintf(buffer, sizeof(buffer),
                "      \"events\": {\"ns_per_event\": %.1f, "
                "\"allocs_per_event\": %.3f}",
                r.events.ns_per_event, r.events.allocs_per_event);
  out << buffer;
  if (r.tick_ns > 0.0) {
    std::snprintf(buffer, sizeof(buffer), ",\n      \"tick_ns\": %.0f",
                  r.tick_ns);
    out << buffer;
  }
  out << "\n    }" << (last ? "\n" : ",\n");
}

// `extra` (may be empty) is a pre-rendered top-level JSON member — e.g. the
// --rss-demo "storage_demo" block — emitted AFTER "topologies" so
// CheckAgainstBaseline's first-occurrence key lookups keep resolving into
// the per-tier section.
std::string ToJson(const std::vector<TopologyResult>& results,
                   const std::string& extra = {}) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"perf_closed_loop\",\n  \"schema\": 2,\n";
  out << "  \"require_zero_alloc\": true,\n";
  out << "  \"build_type\": \"" << kBuildType << "\",\n";
  out << "  \"hw_threads\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"topologies\": {\n";
  for (size_t i = 0; i < results.size(); ++i) {
    AppendJson(out, results[i], i + 1 == results.size());
  }
  out << "  }";
  if (!extra.empty()) {
    out << ",\n" << extra;
  }
  out << "\n}\n";
  return out.str();
}

// --- Perf trajectory -------------------------------------------------------

// Best-effort commit id for trajectory entries: $AMPERE_COMMIT when the
// harness provides it, else `git describe --always` from the current
// directory (benches run from the repo checkout), else "unknown".
std::string CommitId() {
  if (const char* env = std::getenv("AMPERE_COMMIT");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  std::string id;
  if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buffer[128];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      id = buffer;
    }
    pclose(pipe);
  }
  while (!id.empty() && (id.back() == '\n' || id.back() == '\r')) {
    id.pop_back();
  }
  return id.empty() ? "unknown" : id;
}

// Appends one dated entry to the longitudinal trajectory JSON:
//   {"date": "...", "commit": "...", "steps_per_sec": {topo: N, ...},
//    "phase_ns": {topo: {"sample": ..., "resummate": ..., "events": ...}}}
// The file is this bench's own shape ({"entries": [ ... ]}); a missing or
// unrecognized file is recreated fresh.
void AppendTrajectory(const std::string& path,
                      const std::vector<TopologyResult>& results) {
  std::ostringstream entry;
  char date[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  if (std::tm* tm = std::gmtime(&now)) {
    std::strftime(date, sizeof(date), "%Y-%m-%d", tm);
  }
  entry << "    {\"date\": \"" << date << "\", \"commit\": \"" << CommitId()
        << "\", \"steps_per_sec\": {";
  for (size_t i = 0; i < results.size(); ++i) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": %.0f",
                  i == 0 ? "" : ", ", results[i].name.c_str(),
                  results[i].closed_loop.steps_per_sec);
    entry << buffer;
  }
  entry << "}";
  // Per-kernel timings at EVERY tier, so a regression localized to one
  // scale (e.g. the hyperscale sample pass) is visible in the longitudinal
  // record, not just at paper scale. The controller tick is only measured
  // at paper scale and is included there alone.
  entry << ", \"phase_ns\": {";
  for (size_t i = 0; i < results.size(); ++i) {
    const TopologyResult& r = results[i];
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"sample\": %.0f, \"resummate\": %.0f, "
                  "\"events\": %.1f",
                  i == 0 ? "" : ", ", r.name.c_str(), r.sample.ns_per_pass,
                  r.resummate_ns, r.events.ns_per_event);
    entry << buffer;
    if (r.tick_ns > 0.0) {
      std::snprintf(buffer, sizeof(buffer), ", \"tick\": %.0f", r.tick_ns);
      entry << buffer;
    }
    entry << "}";
  }
  entry << "}";
  // Schema 2: steady-state VmRSS after each tier's phases, so footprint
  // regressions are as attributable as throughput ones.
  entry << ", \"rss_mb\": {";
  for (size_t i = 0; i < results.size(); ++i) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": %.1f",
                  i == 0 ? "" : ", ", results[i].name.c_str(),
                  results[i].rss_mb);
    entry << buffer;
  }
  entry << "}";
  entry << "}";

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
  }
  const size_t close = text.rfind("\n  ]");
  std::string out;
  if (close == std::string::npos) {
    out = "{\n  \"bench\": \"perf_closed_loop_trajectory\",\n"
          "  \"schema\": 2,\n"
          "  \"schema_note\": \"phase_ns is per-tier: {tier: {sample, "
          "resummate, events[, tick]}}; rss_mb is the per-tier steady-state "
          "VmRSS in MB after that tier's phases (0 = not measurable)\",\n"
          "  \"entries\": [\n" +
          entry.str() + "\n  ]\n}\n";
  } else {
    // Comma-join unless the entries array is still empty.
    size_t tail = text.find_last_not_of(" \t\r\n", close);
    const bool has_entries = tail != std::string::npos && text[tail] == '}';
    out = text.substr(0, close) + (has_entries ? ",\n" : "\n") + entry.str() +
          text.substr(close);
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  std::printf("appended trajectory entry to %s\n", path.c_str());
}

// Minimal scanner for our own JSON shape: finds `"key": <number>` after the
// first occurrence of `"section"`. Good enough for the baseline file this
// bench itself writes; not a general JSON parser.
bool FindNumber(const std::string& json, const std::string& section,
                const std::string& key, double* out) {
  size_t at = json.find("\"" + section + "\"");
  if (at == std::string::npos) {
    return false;
  }
  at = json.find("\"" + key + "\"", at);
  if (at == std::string::npos) {
    return false;
  }
  at = json.find(':', at);
  if (at == std::string::npos) {
    return false;
  }
  *out = std::strtod(json.c_str() + at + 1, nullptr);
  return true;
}

bool CheckAgainstBaseline(const std::string& path,
                          const std::vector<TopologyResult>& results) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "perf_closed_loop: cannot read baseline %s\n",
                 path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // Strip the archived "pre_change" block (if present) so lookups resolve
  // inside the current-baseline section only.
  std::string json = buffer.str();
  if (size_t cut = json.find("\"pre_change\""); cut != std::string::npos) {
    json = json.substr(0, cut);
  }

  double zero_alloc_flag = 0.0;
  const bool require_zero_alloc =
      json.find("\"require_zero_alloc\": true") != std::string::npos;
  (void)zero_alloc_flag;

  bool ok = true;
  for (const TopologyResult& r : results) {
    double baseline_steps = 0.0;
    if (!FindNumber(json, r.name, "steps_per_sec", &baseline_steps)) {
      std::fprintf(stderr, "  [%s] baseline has no steps_per_sec; skipped\n",
                   r.name.c_str());
      continue;
    }
    const double floor = 0.75 * baseline_steps;
    const bool pass = r.closed_loop.steps_per_sec >= floor;
    std::printf("  [%s] steps/sec %.0f vs baseline %.0f (floor %.0f): %s\n",
                r.name.c_str(), r.closed_loop.steps_per_sec, baseline_steps,
                floor, pass ? "ok" : "REGRESSION");
    ok = ok && pass;
    // Per-kernel phase gate: each measured phase may regress at most 35 %
    // against the committed baseline, so a slowdown localized to one kernel
    // (noise, resummation, event core, controller tick) fails the smoke
    // check even when the aggregate steps/s still clears its floor. Phases
    // absent from the baseline (older schema) are skipped.
    struct PhaseCheck {
      const char* key;
      double current;
    };
    const PhaseCheck phases[] = {
        {"ns_per_pass", r.sample.ns_per_pass},  // First match = sample's.
        {"ns_per_sweep", r.resummate_ns},       // Resummate phase's key.
        {"ns_per_event", r.events.ns_per_event},
        {"tick_ns", r.tick_ns},
    };
    constexpr double kPhaseRegressionLimit = 1.35;
    for (const PhaseCheck& phase : phases) {
      double baseline_ns = 0.0;
      if (phase.current <= 0.0 ||
          !FindNumber(json, r.name, phase.key, &baseline_ns) ||
          baseline_ns <= 0.0) {
        continue;
      }
      const bool phase_ok =
          phase.current <= kPhaseRegressionLimit * baseline_ns;
      std::printf("  [%s] phase %s %.1f ns vs baseline %.1f ns "
                  "(limit %.1f): %s\n",
                  r.name.c_str(), phase.key, phase.current, baseline_ns,
                  kPhaseRegressionLimit * baseline_ns,
                  phase_ok ? "ok" : "PHASE REGRESSION");
      ok = ok && phase_ok;
    }
    if (require_zero_alloc) {
      const bool alloc_ok = r.sample.allocs_per_pass == 0.0 &&
                            r.events.allocs_per_event == 0.0;
      std::printf("  [%s] steady-state allocs: %.3f/pass, %.3f/event: %s\n",
                  r.name.c_str(), r.sample.allocs_per_pass,
                  r.events.allocs_per_event,
                  alloc_ok ? "ok" : "NONZERO (hot path allocates)");
      ok = ok && alloc_ok;
    }
  }
  return ok;
}

// --- Persistent-telemetry identity check (--store-dir) --------------------

__attribute__((format(printf, 3, 4)))
void StorageCheck(bool ok, bool* all_ok, const char* format, ...) {
  char message[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(message, sizeof(message), format, args);
  va_end(args);
  std::printf("STORAGE CHECK [%s]: %s\n", ok ? "PASS" : "FAIL", message);
  *all_ok = *all_ok && ok;
}

// Canonical per-series bytes via the stitched read: one "micros value" line
// per point, %.17g so doubles round-trip bit-exactly. `limit` truncates to a
// prefix (used to compare a reopened, cold-only store against the full run).
std::string CanonicalSeriesBytes(const TimeSeriesDb& db,
                                 const std::string& name,
                                 size_t limit = SIZE_MAX) {
  std::string out;
  size_t n = 0;
  db.SeriesStitched(name).ForEachPoint([&](const TimePoint& point) {
    if (n++ >= limit) {
      return;
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%lld %.17g\n",
                  static_cast<long long>(point.time.micros()), point.value);
    out += buffer;
  });
  return out;
}

// Runs the spill-identity + instant-restart matrix on the small tier:
//   1. RAM-only closed loop (the reference bytes).
//   2. The same config spilling into `dir` under a tight hot budget — the
//      stitched CSV export must be byte-identical to the reference.
//   3. ColdStore::OpenExisting on `dir` after the run — every series the
//      store holds must serve exactly the reference's first N samples.
bool RunStorageSection(const std::string& dir) {
  std::printf("\n--- persistent-telemetry identity check (%s) ---\n",
              dir.c_str());
  const TopologySpec spec{"small", 1, 2, 8.0};
  constexpr size_t kHotBudget = 64;
  bool ok = true;

  ExperimentConfig ram_config = MakeClosedLoopConfig(spec, 8.0);
  ram_config.monitor.record_servers = true;  // More series, harder check.
  ControlledExperiment ram(ram_config);
  ram.Run();
  std::ostringstream ram_csv;
  ExportCsv(ram.db(), ram.db().SeriesNames(), ram_csv);

  std::vector<std::string> series_names;
  std::vector<uint64_t> cold_counts;
  uint64_t spilled = 0;
  uint64_t segments = 0;
  std::string manifest_path;
  {
    ExperimentConfig spill_config = ram_config;
    spill_config.storage.store_dir = dir;
    spill_config.storage.hot_budget_samples = kHotBudget;
    ControlledExperiment spill(spill_config);
    ExperimentResult result = spill.Run();
    spilled = result.cold_samples_spilled;
    segments = result.cold_segments;
    manifest_path = spill.cold_store()->ManifestPath();
    std::ostringstream spill_csv;
    ExportCsv(spill.db(), spill.db().SeriesNames(), spill_csv);
    StorageCheck(spilled > 0 && segments > 0, &ok,
                 "spill actually engaged: %llu samples into %llu segments "
                 "(hot budget %zu)",
                 static_cast<unsigned long long>(spilled),
                 static_cast<unsigned long long>(segments), kHotBudget);
    StorageCheck(spill_csv.str() == ram_csv.str() && !ram_csv.str().empty(),
                 &ok,
                 "stitched hot+cold export byte-identical to the RAM-only "
                 "run (%zu bytes, %zu series)",
                 ram_csv.str().size(), ram.db().SeriesNames().size());
    for (const std::string& name : spill.cold_store()->SeriesNames()) {
      series_names.push_back(name);
      cold_counts.push_back(spill.cold_store()->SamplesForSeries(name));
    }
  }  // Destroys the spill experiment: the store is now only on disk.

  ColdStoreConfig reopen_config;
  reopen_config.dir = dir;
  ColdStore::OpenResult reopened = ColdStore::OpenExisting(reopen_config);
  StorageCheck(reopened.status.ok(), &ok,
               "OpenExisting validated the manifest and every segment (%s)",
               reopened.status.ok() ? manifest_path.c_str()
                                    : reopened.status.message.c_str());
  if (reopened.store != nullptr) {
    TimeSeriesDb restarted;
    restarted.AttachColdStore(reopened.store.get(), kHotBudget);
    size_t mismatched = 0;
    uint64_t cold_total = 0;
    for (size_t i = 0; i < series_names.size(); ++i) {
      cold_total += cold_counts[i];
      const std::string after = CanonicalSeriesBytes(restarted,
                                                     series_names[i]);
      const std::string expected = CanonicalSeriesBytes(
          ram.db(), series_names[i], static_cast<size_t>(cold_counts[i]));
      if (after != expected || after.empty()) {
        ++mismatched;
      }
    }
    StorageCheck(mismatched == 0 && !series_names.empty(), &ok,
                 "reopened store serves identical bytes without "
                 "re-simulating (%zu series, %llu cold samples, %zu "
                 "mismatched)",
                 series_names.size(),
                 static_cast<unsigned long long>(cold_total), mismatched);
  }
  return ok;
}

// --- Bounded-RSS demo (--rss-demo) ----------------------------------------

struct RssArm {
  double rss_start_mb = 0.0;
  double rss_final_mb = 0.0;
  double rss_peak_mb = 0.0;
  std::vector<double> rss_day_mb;  // VmRSS at each simulated day boundary.
  double wall_s = 0.0;
  double steps_per_sec = 0.0;
  uint64_t events = 0;
  uint64_t jobs_completed = 0;
  uint64_t spilled = 0;
  uint64_t segments = 0;

  double growth_mb() const { return rss_final_mb - rss_start_mb; }
};

// One hyperscale multi-day closed loop with per-server telemetry recorded
// (the configuration whose RAM-only footprint actually grows), VmRSS sampled
// at every simulated day boundary via a self-rescheduling sim event. The
// sampler reads /proc and schedules one event per day — it never touches
// simulation state, so both arms' results stay bit-identical.
RssArm RunRssArm(double days, const std::string& store_dir,
                 size_t hot_budget) {
  const TopologySpec spec{"hyperscale", 16, 10, days * 24.0};
  ExperimentConfig config = MakeClosedLoopConfig(spec, days * 24.0);
  config.monitor.record_servers = true;
  if (!store_dir.empty()) {
    config.storage.store_dir = store_dir;
    config.storage.hot_budget_samples = hot_budget;
  }
  ControlledExperiment experiment(config);

  RssArm arm;
  arm.rss_start_mb = ReadVmRssMb();
  arm.rss_peak_mb = arm.rss_start_mb;
  Simulation& sim = experiment.sim();
  // Offset half a minute past the day boundary so the sampler never shares a
  // timestamp with the minute-aligned monitor/controller events.
  std::function<void()> sample_day = [&] {
    const double rss = ReadVmRssMb();
    arm.rss_day_mb.push_back(rss);
    arm.rss_peak_mb = std::max(arm.rss_peak_mb, rss);
    std::printf("    day %2zu: %8.1f MB RSS\n", arm.rss_day_mb.size(), rss);
    sim.ScheduleAfter(SimTime::Hours(24), sample_day);
  };
  sim.ScheduleAfter(SimTime::Hours(24) + SimTime::Minutes(0.5), sample_day);

  const double start = NowSeconds();
  ExperimentResult result = experiment.Run();
  arm.wall_s = NowSeconds() - start;
  arm.events = experiment.sim().processed_events();
  arm.steps_per_sec = static_cast<double>(arm.events) / arm.wall_s;
  arm.rss_final_mb = ReadVmRssMb();
  arm.rss_peak_mb = std::max(arm.rss_peak_mb, arm.rss_final_mb);
  arm.jobs_completed = result.jobs_completed;
  arm.spilled = result.cold_samples_spilled;
  arm.segments = result.cold_segments;
  return arm;
}

void AppendRssArmJson(std::ostringstream& out, const char* key,
                      const RssArm& arm, bool last) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "    \"%s\": {\"steps_per_sec\": %.0f, \"wall_s\": %.1f, "
                "\"rss_start_mb\": %.1f, \"rss_final_mb\": %.1f, "
                "\"rss_peak_mb\": %.1f, \"rss_growth_mb\": %.1f,\n",
                key, arm.steps_per_sec, arm.wall_s, arm.rss_start_mb,
                arm.rss_final_mb, arm.rss_peak_mb, arm.growth_mb());
  out << buffer;
  std::snprintf(buffer, sizeof(buffer),
                "      \"samples_spilled\": %llu, \"cold_segments\": %llu, "
                "\"rss_day_mb\": [",
                static_cast<unsigned long long>(arm.spilled),
                static_cast<unsigned long long>(arm.segments));
  out << buffer;
  for (size_t i = 0; i < arm.rss_day_mb.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s%.1f", i == 0 ? "" : ", ",
                  arm.rss_day_mb[i]);
    out << buffer;
  }
  out << "]}" << (last ? "\n" : ",\n");
}

// Runs the spill arm first (small footprint), then the RAM-only arm, and
// renders the "storage_demo" JSON block. Returns false when an acceptance
// gate (identical results, steps/s within 10%, spill growth well under the
// RAM growth) fails.
bool RunRssDemo(const std::string& store_dir, double days,
                std::string* extra_json) {
  std::printf("\n--- bounded-RSS demo: hyperscale, %.0f days, per-server "
              "telemetry ---\n", days);
  constexpr size_t kHotBudget = 1024;
  std::printf("  spill arm (hot budget %zu samples/series -> %s):\n",
              kHotBudget, store_dir.c_str());
  const RssArm spill = RunRssArm(days, store_dir, kHotBudget);
  std::printf("  RAM-only arm:\n");
  const RssArm ram = RunRssArm(days, "", 0);

  std::printf("  spill: %8.0f steps/s, RSS %7.1f -> %7.1f MB (peak %7.1f), "
              "%llu samples into %llu segments\n",
              spill.steps_per_sec, spill.rss_start_mb, spill.rss_final_mb,
              spill.rss_peak_mb,
              static_cast<unsigned long long>(spill.spilled),
              static_cast<unsigned long long>(spill.segments));
  std::printf("  ram:   %8.0f steps/s, RSS %7.1f -> %7.1f MB (peak %7.1f)\n",
              ram.steps_per_sec, ram.rss_start_mb, ram.rss_final_mb,
              ram.rss_peak_mb);

  bool ok = true;
  StorageCheck(spill.events == ram.events &&
                   spill.jobs_completed == ram.jobs_completed,
               &ok,
               "both arms simulated identical runs (%llu events, %llu jobs)",
               static_cast<unsigned long long>(ram.events),
               static_cast<unsigned long long>(ram.jobs_completed));
  const double ratio = spill.steps_per_sec / ram.steps_per_sec;
  StorageCheck(ratio >= 0.90, &ok,
               "spill throughput within 10%% of RAM-only (%.2fx)", ratio);
  StorageCheck(spill.spilled > 0, &ok,
               "the spill arm actually spilled (%llu samples)",
               static_cast<unsigned long long>(spill.spilled));
  // The plateau gate: if RSS is measurable, the spill arm's growth must stay
  // well under the RAM arm's (the hot tier is bounded; only the active
  // segments and allocator slack grow).
  if (ram.rss_final_mb > 0.0) {
    StorageCheck(spill.growth_mb() < 0.5 * ram.growth_mb(), &ok,
                 "spill RSS growth %.1f MB vs RAM-only %.1f MB "
                 "(plateau vs grow)",
                 spill.growth_mb(), ram.growth_mb());
  }

  std::ostringstream out;
  out << "  \"storage_demo\": {\n";
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "    \"days\": %.0f, \"servers\": 6720, "
                "\"record_servers\": true, \"hot_budget_samples\": %zu,\n",
                days, kHotBudget);
  out << buffer;
  AppendRssArmJson(out, "hyperscale_spill", spill, false);
  AppendRssArmJson(out, "hyperscale_ram", ram, true);
  out << "  }";
  *extra_json = out.str();
  return ok;
}

int Main(int argc, char** argv) {
  std::string json_path;
  std::string check_path;
  std::string trajectory_path;
  std::string store_dir;
  bool storage_only = false;
  bool rss_demo = false;
  double rss_days = 7.0;
  bool quick = false;
  bool huge = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--check=", 0) == 0) {
      check_path = arg.substr(8);
    } else if (arg.rfind("--trajectory=", 0) == 0) {
      trajectory_path = arg.substr(13);
    } else if (arg.rfind("--store-dir=", 0) == 0) {
      store_dir = arg.substr(12);
    } else if (arg == "--storage-only") {
      storage_only = true;
    } else if (arg == "--rss-demo") {
      rss_demo = true;
    } else if (arg.rfind("--rss-days=", 0) == 0) {
      rss_days = std::strtod(arg.c_str() + 11, nullptr);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--huge") {
      huge = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (!check_path.empty() && std::strcmp(kBuildType, "Release") != 0) {
    std::fprintf(stderr,
                 "--check needs a Release build (this binary is \"%s\"); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 kBuildType);
    return 2;
  }
  if ((storage_only || rss_demo) && store_dir.empty()) {
    std::fprintf(stderr,
                 "--storage-only / --rss-demo need --store-dir=DIR\n");
    return 2;
  }

  if (rss_demo) {
    // Demo mode replaces the tiers: the multi-day arms are the whole run.
    std::string extra_json;
    const bool demo_ok =
        RunRssDemo(store_dir + "/rss_demo", rss_days, &extra_json);
    const std::string json = ToJson({}, extra_json);
    if (!json_path.empty()) {
      std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
      out << json;
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::printf("%s", json.c_str());
    }
    std::printf("STORAGE DEMO [%s]\n", demo_ok ? "PASS" : "FAIL");
    return demo_ok ? 0 : 1;
  }
  if (!store_dir.empty()) {
    if (!RunStorageSection(store_dir + "/identity")) {
      std::printf("STORAGE CHECK [FAIL] overall\n");
      return 1;
    }
    if (storage_only) {
      return 0;
    }
  }

  std::vector<TopologySpec> specs = {
      {"small", 1, 2, 96.0},
      {"paper", 1, 10, 72.0},
      {"fleet4x", 4, 10, 24.0},
      {"hyperscale", 16, 10, 8.0},
  };
  if (huge) {
    specs.push_back({"huge", 64, 10, 2.0});
  }

  std::printf("perf_closed_loop: hot-path throughput (seed=%llu, %s%s)\n",
              static_cast<unsigned long long>(kSeed), kBuildType,
              quick ? ", quick" : "");
  std::vector<TopologyResult> results;
  for (const TopologySpec& spec : specs) {
    TopologyResult r;
    r.name = spec.name;
    r.servers = spec.rows * spec.racks_per_row * 42;
    const double hours =
        quick ? spec.closed_loop_hours / 4.0 : spec.closed_loop_hours;
    r.closed_loop = RunClosedLoop(spec, hours);
    r.sample = RunSamplePhase(spec);
    r.resummate_ns = RunResummatePhase(spec);
    r.events = RunEventPhase();
    if (std::strcmp(spec.name, "paper") == 0) {
      r.tick_ns = RunTickPhase(spec);
    }
    r.rss_mb = ReadVmRssMb();
    std::printf(
        "  [%10s] %5d servers | closed loop %5.2f sim-h in %6.2fs "
        "(%8.0f steps/s, %6.1f sim-min/s) | sample %9.0f samples/s "
        "(%6.0f ns/pass, %.3f allocs/pass) | resummate %6.0f ns | "
        "events %5.1f ns (%.3f allocs) | rss %.0f MB%s\n",
        spec.name, r.servers, r.closed_loop.sim_hours, r.closed_loop.wall_s,
        r.closed_loop.steps_per_sec, r.closed_loop.sim_minutes_per_sec,
        r.sample.samples_per_sec, r.sample.ns_per_pass,
        r.sample.allocs_per_pass, r.resummate_ns, r.events.ns_per_event,
        r.events.allocs_per_event, r.rss_mb, r.tick_ns > 0.0 ? " | tick" : "");
    if (r.tick_ns > 0.0) {
      std::printf("  [%10s] controller tick: %.0f ns\n", spec.name,
                  r.tick_ns);
    }
    results.push_back(std::move(r));
  }

  const std::string json = ToJson(results);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << json;
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::printf("%s", json.c_str());
  }

  if (!trajectory_path.empty()) {
    AppendTrajectory(trajectory_path, results);
  }

  if (!check_path.empty()) {
    std::printf("checking against baseline %s\n", check_path.c_str());
    if (!CheckAgainstBaseline(check_path, results)) {
      std::printf("PERF CHECK [FAIL]\n");
      return 1;
    }
    std::printf("PERF CHECK [PASS]\n");
  }
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) { return ampere::Main(argc, argv); }
