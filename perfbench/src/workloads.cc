#include "perfbench/src/workloads.h"

#include <bit>
#include <cstdio>

namespace perfbench {
namespace {

using ampere::ExperimentConfig;
using ampere::SimTime;

// The perf_closed_loop topology: `rows` rows of 10 racks x 42 servers.
ampere::TopologyConfig PerfTopology(int rows) {
  ampere::TopologyConfig topology;
  topology.num_rows = rows;
  topology.racks_per_row = 10;
  topology.servers_per_rack = 42;
  topology.server_capacity = ampere::Resources{16.0, 64.0};
  topology.power_model.rated_watts = 250.0;
  topology.power_model.idle_fraction = 0.65;
  return topology;
}

// perf_closed_loop's MakeClosedLoopConfig, with its seed as a parameter.
ExperimentConfig ClosedLoopConfig(uint64_t seed, int rows,
                                  double target_power, double hours) {
  ExperimentConfig config;
  config.seed = seed;
  config.jobs = 1;
  config.topology = PerfTopology(rows);
  config.over_provision_ratio = 0.25;
  config.workload.arrivals.base_rate_per_min =
      ampere::ArrivalRateForNormalizedPower(config.topology, config.workload,
                                            target_power, 0.25);
  config.controller.effect = ampere::FreezeEffectModel(0.05);
  config.controller.et = ampere::EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(hours);
  return config;
}

ExperimentConfig HyperscaleSteady(uint64_t seed) {
  // 6,720 servers at perf_closed_loop's 8 h + 30 min length.
  return ClosedLoopConfig(seed, 16, 0.98, 8.0);
}

ExperimentConfig PaperOvercommit(uint64_t seed) {
  // 420 servers driven past what max_freeze_ratio 0.5 can absorb.
  return ClosedLoopConfig(seed, 1, 1.20, 24.0);
}

ExperimentConfig Campus4(uint64_t seed) {
  // federation_budget_allocation --hyperscale: 4 x 6,720 servers, headroom
  // allocator, spillover on.
  ExperimentConfig config;
  config.seed = seed;
  config.jobs = 1;
  config.topology.num_rows = 16;
  config.topology.racks_per_row = 10;
  config.topology.servers_per_rack = 42;
  config.controller.effect = ampere::FreezeEffectModel(0.05);
  config.controller.et = ampere::EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(2);
  config.campus.enabled = true;
  config.campus.num_datacenters = 4;
  config.campus.dc_target_power = {0.99, 0.95, 0.90, 0.85};
  config.campus.allocator.policy = ampere::CampusAllocPolicy::kHeadroom;
  config.campus.allocator.replan_interval = SimTime::Minutes(15);
  config.campus.enable_spillover = true;
  config.campus.spillover_queue_threshold = 4;
  config.campus.spillover_max_jobs_per_pass = 16;
  return config;
}

struct Pin {
  const char* workload;
  uint64_t seed;
  Fingerprint fingerprint;
};

// Recorded with `ampere_perfbench --workload <name> --seed <n>
// --print-fingerprint`; see README.md. {events, jobs submitted, jobs
// completed, final queue, violations, u_mean bits, G_TPW bits, replans,
// spillover}.
const Pin kPins[] = {
    {"hyperscale_steady", 1, {2036140ull, 1028249ull, 1005909ull, 0ull, 0, 0x3f8466b99ecd2003ull, 0x3fcf08fb18715338ull, 0ull, 0ull}},
    {"hyperscale_steady", 7, {2045587ull, 1032531ull, 1011074ull, 0ull, 0, 0x3f72aa0439dd376eull, 0x3fcf9398bf8613e8ull, 0ull, 0ull}},
    {"paper_overcommit", 1, {975702ull, 491345ull, 478535ull, 9953ull, 1440, 0x3fe0000000000000ull, 0xbfd2343c7caaab40ull, 0ull, 0ull}},
    {"paper_overcommit", 7, {938413ull, 467650ull, 464941ull, 0ull, 1440, 0x3fe0000000000000ull, 0xbfd22b4913ee72e2ull, 0ull, 0ull}},
    {"campus4", 1, {1472098ull, 757517ull, 712288ull, 0ull, 0, 0x0000000000000000ull, 0x3fd03ea05e80b934ull, 8ull, 0ull}},
    {"campus4", 7, {1475902ull, 759491ull, 714118ull, 0ull, 0, 0x0000000000000000ull, 0x3fcffe81669401f0ull, 8ull, 0ull}},
};

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"hyperscale_steady", HyperscaleSteady},
      {"paper_overcommit", PaperOvercommit},
      {"campus4", Campus4},
  };
  return workloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::string Fingerprint::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{%lluull, %lluull, %lluull, %lluull, %lld, 0x%016llxull, "
                "0x%016llxull, %lluull, %lluull}",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(jobs_submitted),
                static_cast<unsigned long long>(jobs_completed),
                static_cast<unsigned long long>(final_queue_length),
                static_cast<long long>(violations),
                static_cast<unsigned long long>(u_mean_bits),
                static_cast<unsigned long long>(gain_tpw_bits),
                static_cast<unsigned long long>(replans),
                static_cast<unsigned long long>(spillover));
  return buf;
}

Fingerprint FingerprintOf(const ampere::ExperimentResult& result,
                          uint64_t events) {
  Fingerprint fp;
  fp.events = events;
  fp.jobs_submitted = result.jobs_submitted;
  fp.jobs_completed = result.jobs_completed;
  fp.final_queue_length = result.final_queue_length;
  fp.violations = result.experiment.violations;
  fp.u_mean_bits = std::bit_cast<uint64_t>(result.experiment.u_mean);
  fp.gain_tpw_bits = std::bit_cast<uint64_t>(result.gain_tpw);
  return fp;
}

Fingerprint FingerprintOf(const ampere::CampusResult& result,
                          uint64_t events) {
  Fingerprint fp;
  fp.events = events;
  fp.jobs_submitted = result.jobs_submitted;
  fp.jobs_completed = result.jobs_completed;
  double u_sum = 0.0;
  for (const ampere::CampusDcResult& dc : result.dcs) {
    fp.final_queue_length += dc.final_queue_length;
    fp.violations += dc.experiment.violations;
    u_sum += dc.experiment.u_mean;
  }
  fp.u_mean_bits = std::bit_cast<uint64_t>(u_sum);
  fp.gain_tpw_bits = std::bit_cast<uint64_t>(result.gain_tpw);
  fp.replans = result.replans;
  fp.spillover = result.spillover_jobs;
  return fp;
}

std::optional<Fingerprint> PinnedFingerprint(std::string_view workload,
                                             uint64_t seed) {
  for (const Pin& pin : kPins) {
    if (workload == pin.workload && seed == pin.seed) {
      return pin.fingerprint;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
