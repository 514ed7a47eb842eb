#include "src/sched/scheduler.h"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ampere {
namespace {

TopologyConfig TwoRowTopology() {
  TopologyConfig config;
  config.num_rows = 2;
  config.racks_per_row = 1;
  config.servers_per_rack = 8;
  config.server_capacity = Resources{16.0, 64.0};
  return config;
}

JobSpec MakeJob(int32_t id, double cores = 2.0,
                SimTime duration = SimTime::Minutes(5)) {
  JobSpec job;
  job.id = JobId(id);
  job.demand = Resources{cores, cores * 2.0};
  job.duration = duration;
  return job;
}

struct Fixture {
  Simulation sim;
  DataCenter dc;
  Scheduler scheduler;
  explicit Fixture(PlacementPolicy policy = PlacementPolicy::kRandomFit,
                   TopologyConfig topo = TwoRowTopology())
      : dc(topo, &sim),
        scheduler(&dc, MakeConfig(policy), Rng(17)) {}
  static SchedulerConfig MakeConfig(PlacementPolicy policy) {
    SchedulerConfig c;
    c.policy = policy;
    return c;
  }
};

TEST(SchedulerTest, PlacesSubmittedJob) {
  Fixture f;
  f.scheduler.Submit(MakeJob(1));
  EXPECT_EQ(f.scheduler.jobs_submitted(), 1u);
  EXPECT_EQ(f.scheduler.jobs_placed(), 1u);
  EXPECT_EQ(f.scheduler.queue_length(), 0u);
}

TEST(SchedulerTest, NeverPlacesOnFrozenServers) {
  Fixture f;
  // Freeze everything except server 5.
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    if (s != 5) {
      f.scheduler.Freeze(ServerId(s));
    }
  }
  for (int i = 0; i < 6; ++i) {
    f.scheduler.Submit(MakeJob(100 + i));
  }
  EXPECT_EQ(f.scheduler.jobs_placed(), 6u);
  EXPECT_EQ(f.dc.server(ServerId(5)).num_tasks(), 6u);
}

TEST(SchedulerTest, AllFrozenQueuesJobs) {
  Fixture f;
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    f.scheduler.Freeze(ServerId(s));
  }
  f.scheduler.Submit(MakeJob(1));
  EXPECT_EQ(f.scheduler.jobs_placed(), 0u);
  EXPECT_EQ(f.scheduler.queue_length(), 1u);
}

TEST(SchedulerTest, UnfreezeDrainsQueue) {
  Fixture f;
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    f.scheduler.Freeze(ServerId(s));
  }
  f.scheduler.Submit(MakeJob(1));
  f.scheduler.Submit(MakeJob(2));
  ASSERT_EQ(f.scheduler.queue_length(), 2u);
  f.scheduler.Unfreeze(ServerId(3));
  EXPECT_EQ(f.scheduler.queue_length(), 0u);
  EXPECT_EQ(f.dc.server(ServerId(3)).num_tasks(), 2u);
}

TEST(SchedulerTest, CompletionDrainsQueue) {
  Fixture f;
  // Fill every server to capacity with 16-core jobs.
  int32_t id = 0;
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    f.scheduler.Submit(MakeJob(id++, 16.0, SimTime::Minutes(1)));
  }
  f.scheduler.Submit(MakeJob(id++, 16.0, SimTime::Minutes(1)));
  EXPECT_EQ(f.scheduler.queue_length(), 1u);
  f.sim.RunUntil(SimTime::Minutes(1.5));
  EXPECT_EQ(f.scheduler.queue_length(), 0u);
  EXPECT_EQ(f.scheduler.jobs_completed(), 16u);
}

TEST(SchedulerTest, RowAffinityRespected) {
  Fixture f;
  for (int i = 0; i < 20; ++i) {
    JobSpec job = MakeJob(200 + i);
    job.row_affinity = RowId(1);
    f.scheduler.Submit(job);
  }
  EXPECT_EQ(f.scheduler.placements_in_row(RowId(0)), 0u);
  EXPECT_EQ(f.scheduler.placements_in_row(RowId(1)), 20u);
}

TEST(SchedulerTest, ReservedServersSkipped) {
  Fixture f;
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    if (s != 7) {
      f.dc.SetReserved(ServerId(s), true);
    }
  }
  for (int i = 0; i < 4; ++i) {
    f.scheduler.Submit(MakeJob(300 + i));
  }
  EXPECT_EQ(f.dc.server(ServerId(7)).num_tasks(), 4u);
}

TEST(SchedulerTest, PlacementListenerFires) {
  Fixture f;
  std::vector<int32_t> placed_on;
  f.scheduler.SetPlacementListener(
      [&](const JobSpec&, ServerId s) { placed_on.push_back(s.value()); });
  f.scheduler.Submit(MakeJob(1));
  f.scheduler.Submit(MakeJob(2));
  EXPECT_EQ(placed_on.size(), 2u);
}

TEST(SchedulerTest, StatisticalSpreadAcrossRows) {
  // With random-fit and symmetric rows, placements split roughly evenly —
  // the statistical property Ampere's indirect control relies on (§3.4).
  Fixture f;
  for (int i = 0; i < 2000; ++i) {
    f.scheduler.Submit(MakeJob(1000 + i, 1.0, SimTime::Hours(10)));
  }
  auto row0 = static_cast<double>(f.scheduler.placements_in_row(RowId(0)));
  auto row1 = static_cast<double>(f.scheduler.placements_in_row(RowId(1)));
  EXPECT_NEAR(row0 / (row0 + row1), 0.5, 0.05);
}

TEST(SchedulerTest, FreezingShiftsPlacementShareProportionally) {
  // Freeze half of row 0: its share of new placements should drop to ~1/3
  // (4 available vs 8 in row 1).
  Fixture f;
  for (int32_t s = 0; s < 4; ++s) {
    f.scheduler.Freeze(ServerId(s));
  }
  for (int i = 0; i < 3000; ++i) {
    f.scheduler.Submit(MakeJob(1000 + i, 0.1, SimTime::Hours(10)));
  }
  auto row0 = static_cast<double>(f.scheduler.placements_in_row(RowId(0)));
  auto row1 = static_cast<double>(f.scheduler.placements_in_row(RowId(1)));
  EXPECT_NEAR(row0 / (row0 + row1), 1.0 / 3.0, 0.05);
}

TEST(SchedulerTest, LeastLoadedPrefersIdleServers) {
  Fixture f(PlacementPolicy::kLeastLoaded);
  // Pre-load servers 0..13 heavily; 14 and 15 stay empty.
  for (int32_t s = 0; s < 14; ++s) {
    f.dc.PlaceTask(ServerId(s), TaskSpec{JobId(9000 + s),
                                         Resources{14.0, 14.0},
                                         SimTime::Hours(10)});
  }
  for (int i = 0; i < 10; ++i) {
    f.scheduler.Submit(MakeJob(400 + i, 1.0, SimTime::Hours(10)));
  }
  // The two idle servers should absorb well over their uniform share (10 *
  // 2/16 ≈ 1.25 jobs) of the 10 placements.
  size_t idle_tasks = f.dc.server(ServerId(14)).num_tasks() +
                      f.dc.server(ServerId(15)).num_tasks();
  EXPECT_GE(idle_tasks, 5u);
}

TEST(SchedulerTest, RoundRobinCyclesServers) {
  Fixture f(PlacementPolicy::kRoundRobin);
  for (int i = 0; i < 16; ++i) {
    f.scheduler.Submit(MakeJob(500 + i, 1.0, SimTime::Hours(10)));
  }
  for (int32_t s = 0; s < 16; ++s) {
    EXPECT_EQ(f.dc.server(ServerId(s)).num_tasks(), 1u) << "server " << s;
  }
}

TEST(SchedulerTest, OversizedJobStaysQueuedWithoutBlockingOthers) {
  Fixture f;
  f.scheduler.Submit(MakeJob(1, 32.0));  // Larger than any server.
  f.scheduler.Submit(MakeJob(2, 2.0));
  EXPECT_EQ(f.scheduler.queue_length(), 1u);
  EXPECT_EQ(f.scheduler.jobs_placed(), 1u);
}

TEST(SchedulerTest, RowAffinityScanFindsTheRowsOnlyCandidate) {
  TopologyConfig topo = TwoRowTopology();
  topo.racks_per_row = 2;
  topo.servers_per_rack = 4;
  Fixture f(PlacementPolicy::kRandomFit, topo);
  // One candidate left in the fleet, in row 1's second rack.
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    if (s != 13) {
      f.scheduler.Freeze(ServerId(s));
    }
  }
  JobSpec pinned = MakeJob(1);
  pinned.row_affinity = RowId(1);
  f.scheduler.Submit(pinned);
  EXPECT_EQ(f.dc.server(ServerId(13)).num_tasks(), 1u);
  // Row 0 has no candidate: the job waits until one rejoins the list.
  JobSpec row0 = MakeJob(2);
  row0.row_affinity = RowId(0);
  f.scheduler.Submit(row0);
  EXPECT_EQ(f.scheduler.queue_length(), 1u);
  f.scheduler.Unfreeze(ServerId(6));
  EXPECT_EQ(f.scheduler.queue_length(), 0u);
  EXPECT_EQ(f.dc.server(ServerId(6)).num_tasks(), 1u);
}

TEST(SchedulerTest, RowOutsideTopologyStaysQueued) {
  // A replayed trace may pin a job to a row this topology lacks: no server
  // is eligible, so under every policy the job waits and others still place.
  for (PlacementPolicy policy :
       {PlacementPolicy::kRandomFit, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kRoundRobin, PlacementPolicy::kConcentrateRows}) {
    Fixture f(policy);
    JobSpec missing_row = MakeJob(1);
    missing_row.row_affinity = RowId(f.dc.num_rows());
    f.scheduler.Submit(missing_row);
    JobSpec far_row = MakeJob(2);
    far_row.row_affinity = RowId(1000);
    f.scheduler.Submit(far_row);
    EXPECT_EQ(f.scheduler.queue_length(), 2u) << static_cast<int>(policy);
    EXPECT_EQ(f.scheduler.jobs_placed(), 0u) << static_cast<int>(policy);
    f.scheduler.Submit(MakeJob(3));
    EXPECT_EQ(f.scheduler.jobs_placed(), 1u) << static_cast<int>(policy);
    EXPECT_EQ(f.scheduler.queue_length(), 2u) << static_cast<int>(policy);
  }
}

// Placement as it was before the fleet-wide room bound: every placement
// draws its random probes, then scans server by server (the plain cyclic
// scan, not the rack-skipping one). The queue and drain rules mirror
// Scheduler's, so both see the same sequence of placement attempts.
class ProbingReference {
 public:
  ProbingReference(DataCenter* dc, const SchedulerConfig& config, Rng rng)
      : dc_(dc), config_(config), rng_(rng) {
    dc_->SetTaskCompletionListener([this](ServerId, JobId) { Drain(); });
  }

  void Submit(const JobSpec& job) {
    if (!TryPlace(job)) {
      pending_.push_back(job);
    }
  }
  void Freeze(ServerId id) { dc_->SetFrozen(id, true); }
  void Unfreeze(ServerId id) {
    dc_->SetFrozen(id, false);
    Drain();
  }
  // The draw the next placement's first probe would make.
  int64_t PeekDraw() const {
    Rng copy = rng_;
    return copy.UniformInt(0, dc_->num_servers() - 1);
  }
  size_t queue_length() const { return pending_.size(); }
  const std::vector<std::pair<JobId, ServerId>>& placements() const {
    return placements_;
  }

 private:
  bool Eligible(ServerId id, const JobSpec& job) const {
    const Server& server = dc_->server(id);
    return server.SchedulableState() && server.CanFit(job.demand) &&
           (!job.row_affinity.has_value() ||
            server.row() == *job.row_affinity);
  }
  ServerId Scan(const JobSpec& job) {
    const int64_t n = dc_->num_servers();
    const int64_t start = rng_.UniformInt(0, n - 1);
    for (int64_t i = 0; i < n; ++i) {
      const ServerId id(static_cast<int32_t>((start + i) % n));
      if (Eligible(id, job)) {
        return id;
      }
    }
    return ServerId();
  }
  ServerId Pick(const JobSpec& job) {
    const int64_t n = dc_->num_servers();
    if (config_.policy == PlacementPolicy::kRandomFit) {
      for (int attempt = 0; attempt < config_.sample_attempts; ++attempt) {
        const ServerId id(static_cast<int32_t>(rng_.UniformInt(0, n - 1)));
        if (Eligible(id, job)) {
          return id;
        }
      }
      return Scan(job);
    }
    ServerId best;
    double best_util = 2.0;
    int found = 0;
    for (int attempt = 0;
         attempt < config_.sample_attempts * config_.least_loaded_choices &&
         found < config_.least_loaded_choices;
         ++attempt) {
      const ServerId id(static_cast<int32_t>(rng_.UniformInt(0, n - 1)));
      if (!Eligible(id, job)) {
        continue;
      }
      ++found;
      if (dc_->server(id).utilization() < best_util) {
        best_util = dc_->server(id).utilization();
        best = id;
      }
    }
    return best.valid() ? best : Scan(job);
  }
  bool TryPlace(const JobSpec& job) {
    const ServerId id = Pick(job);
    if (!id.valid()) {
      return false;
    }
    EXPECT_TRUE(dc_->PlaceTask(id, TaskSpec{job.id, job.demand, job.duration}));
    placements_.emplace_back(job.id, id);
    return true;
  }
  void Drain() {
    size_t examined = 0;
    size_t failures = 0;
    for (auto it = pending_.begin();
         it != pending_.end() && examined < config_.queue_scan_limit &&
         failures < config_.drain_failure_limit;
         ++examined) {
      if (TryPlace(*it)) {
        it = pending_.erase(it);
      } else {
        ++failures;
        ++it;
      }
    }
  }

  DataCenter* dc_;
  SchedulerConfig config_;
  Rng rng_;
  std::deque<JobSpec> pending_;
  std::vector<std::pair<JobId, ServerId>> placements_;
};

// A placement the fleet-wide room bound rejects draws exactly what the
// probing path draws, so on a saturated, half-frozen fleet every placement
// and the RNG's state at the end match the always-probing reference.
TEST(SchedulerTest, FleetBoundRejectionMatchesProbingReference) {
  TopologyConfig topo = TwoRowTopology();
  topo.racks_per_row = 2;
  topo.servers_per_rack = 4;
  for (PlacementPolicy policy :
       {PlacementPolicy::kRandomFit, PlacementPolicy::kLeastLoaded}) {
    for (bool with_affinity : {false, true}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(policy)) +
                   (with_affinity ? " with row affinity" : ""));
      SchedulerConfig config = Fixture::MakeConfig(policy);
      Fixture f(policy, topo);
      Simulation ref_sim;
      DataCenter ref_dc(topo, &ref_sim);
      ProbingReference reference(&ref_dc, config, Rng(17));
      std::vector<std::pair<JobId, ServerId>> placements;
      f.scheduler.SetPlacementListener(
          [&placements](const JobSpec& job, ServerId id) {
            placements.emplace_back(job.id, id);
          });

      const int32_t n = f.dc.num_servers();
      // Start half frozen, as under the freeze cap.
      for (int32_t s = 0; s < n; s += 2) {
        f.scheduler.Freeze(ServerId(s));
        reference.Freeze(ServerId(s));
      }
      Rng ops(20261018);
      int32_t next_job = 0;
      int bound_rejections = 0;
      for (int step = 0; step < 3000; ++step) {
        const int64_t op = ops.UniformInt(0, 9);
        if (op < 6) {  // Submits outpace completions: the fleet saturates.
          JobSpec job =
              MakeJob(next_job++, static_cast<double>(ops.UniformInt(1, 8)),
                      SimTime::Minutes(ops.Uniform(1.0, 20.0)));
          if (with_affinity && ops.Bernoulli(0.3)) {
            job.row_affinity =
                RowId(static_cast<int32_t>(ops.UniformInt(0, 1)));
          }
          bound_rejections +=
              !f.scheduler.resource_manager().CandidateMayFit(job.demand);
          f.scheduler.Submit(job);
          reference.Submit(job);
        } else if (op < 9) {  // Completions, each draining the queue.
          const SimTime until =
              f.sim.now() + SimTime::Seconds(ops.Uniform(0.0, 60.0));
          f.sim.RunUntil(until);
          ref_sim.RunUntil(until);
        } else {  // Freeze or unfreeze one server.
          const ServerId id(static_cast<int32_t>(ops.UniformInt(0, n - 1)));
          if (f.scheduler.IsFrozen(id)) {
            f.scheduler.Unfreeze(id);
            reference.Unfreeze(id);
          } else {
            f.scheduler.Freeze(id);
            reference.Freeze(id);
          }
        }
        ASSERT_EQ(f.scheduler.queue_length(), reference.queue_length())
            << "step " << step;
      }
      EXPECT_GT(bound_rejections, 100);
      EXPECT_GT(reference.queue_length(), 0u);
      ASSERT_EQ(placements, reference.placements());

      // The scheduler's RNG is where the reference's is: on an idle,
      // unfrozen fleet the next job lands on the next draw's server.
      for (int32_t s = 0; s < n; ++s) {
        if (f.scheduler.IsFrozen(ServerId(s))) {
          f.scheduler.Unfreeze(ServerId(s));
          reference.Unfreeze(ServerId(s));
        }
      }
      f.sim.RunToCompletion();
      ref_sim.RunToCompletion();
      ASSERT_EQ(f.scheduler.queue_length(), 0u);
      ASSERT_EQ(placements, reference.placements());
      const int64_t next_draw = reference.PeekDraw();
      f.scheduler.Submit(MakeJob(next_job, 1.0));
      ASSERT_FALSE(placements.empty());
      EXPECT_EQ(placements.back(),
                std::make_pair(JobId(next_job),
                               ServerId(static_cast<int32_t>(next_draw))));
    }
  }
}

}  // namespace
}  // namespace ampere
