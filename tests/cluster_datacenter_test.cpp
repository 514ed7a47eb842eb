#include "src/cluster/datacenter.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace ampere {
namespace {

TopologyConfig SmallTopology() {
  TopologyConfig config;
  config.num_rows = 2;
  config.racks_per_row = 2;
  config.servers_per_rack = 4;
  config.server_capacity = Resources{16.0, 64.0};
  config.power_model.rated_watts = 250.0;
  config.power_model.idle_fraction = 0.65;
  return config;
}

TEST(DataCenterTest, TopologyCountsAndMembership) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  EXPECT_EQ(dc.num_rows(), 2);
  EXPECT_EQ(dc.num_racks(), 4);
  EXPECT_EQ(dc.num_servers(), 16);
  EXPECT_EQ(dc.servers_in_row(RowId(0)).size(), 8u);
  EXPECT_EQ(dc.servers_in_rack(RackId(0)).size(), 4u);
  EXPECT_EQ(dc.racks_in_row(RowId(1)).size(), 2u);
  // Every server knows its row.
  for (ServerId id : dc.servers_in_row(RowId(1))) {
    EXPECT_EQ(dc.row_of(id), RowId(1));
  }
}

TEST(DataCenterTest, RatedProvisioningBudgets) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  EXPECT_DOUBLE_EQ(dc.row_budget_watts(RowId(0)), 8 * 250.0);
  EXPECT_DOUBLE_EQ(dc.rack_budget_watts(RackId(0)), 4 * 250.0);
  EXPECT_DOUBLE_EQ(dc.total_budget_watts(), 16 * 250.0);
}

TEST(DataCenterTest, InitialPowerIsIdle) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  double idle = 250.0 * 0.65;
  EXPECT_NEAR(dc.total_power_watts(), 16 * idle, 1e-9);
  EXPECT_NEAR(dc.row_power_watts(RowId(0)), 8 * idle, 1e-9);
  EXPECT_NEAR(dc.server_power_watts(ServerId(0)), idle, 1e-9);
}

TEST(DataCenterTest, PlaceTaskRaisesPowerAndUtilization) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  ServerId target(0);
  TaskSpec spec{JobId(1), Resources{8.0, 16.0}, SimTime::Minutes(5)};
  ASSERT_TRUE(dc.PlaceTask(target, spec));
  const Server& server = dc.server(target);
  EXPECT_DOUBLE_EQ(server.utilization(), 0.5);
  double expected = 162.5 + 0.5 * 87.5;
  EXPECT_NEAR(server.power_watts(), expected, 1e-9);
  EXPECT_NEAR(dc.row_power_watts(RowId(0)), 7 * 162.5 + expected, 1e-9);
}

TEST(DataCenterTest, PlaceTaskRejectsWhenFull) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  ServerId target(0);
  ASSERT_TRUE(dc.PlaceTask(
      target, TaskSpec{JobId(1), Resources{12.0, 32.0}, SimTime::Minutes(5)}));
  EXPECT_FALSE(dc.PlaceTask(
      target, TaskSpec{JobId(2), Resources{8.0, 8.0}, SimTime::Minutes(5)}));
  // Memory limits are also enforced.
  EXPECT_FALSE(dc.PlaceTask(
      target, TaskSpec{JobId(3), Resources{1.0, 64.0}, SimTime::Minutes(5)}));
}

TEST(DataCenterTest, DuplicateJobOnServerThrows) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TaskSpec spec{JobId(1), Resources{1.0, 1.0}, SimTime::Minutes(5)};
  ASSERT_TRUE(dc.PlaceTask(ServerId(0), spec));
  EXPECT_THROW(dc.PlaceTask(ServerId(0), spec), CheckFailure);
}

TEST(DataCenterTest, TaskCompletesOnScheduleAndRestoresPower) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  std::vector<std::pair<int32_t, int32_t>> completions;
  dc.SetTaskCompletionListener([&](ServerId s, JobId j) {
    completions.emplace_back(s.value(), j.value());
  });
  ASSERT_TRUE(dc.PlaceTask(
      ServerId(3), TaskSpec{JobId(7), Resources{4.0, 8.0},
                            SimTime::Minutes(10)}));
  sim.RunUntil(SimTime::Minutes(9.9));
  EXPECT_TRUE(completions.empty());
  sim.RunUntil(SimTime::Minutes(10.1));
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0], (std::pair<int32_t, int32_t>{3, 7}));
  EXPECT_DOUBLE_EQ(dc.server(ServerId(3)).utilization(), 0.0);
  EXPECT_NEAR(dc.server_power_watts(ServerId(3)), 162.5, 1e-9);
}

TEST(DataCenterTest, AggregatesStayConsistentUnderChurn) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  // Launch staggered tasks across all servers.
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    dc.PlaceTask(ServerId(s),
                 TaskSpec{JobId(100 + s), Resources{4.0, 4.0},
                          SimTime::Minutes(1 + s % 7)});
  }
  for (int step = 0; step < 10; ++step) {
    sim.RunUntil(SimTime::Minutes(step));
    double sum_servers = 0.0;
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      sum_servers += dc.server_power_watts(ServerId(s));
    }
    EXPECT_NEAR(dc.total_power_watts(), sum_servers, 1e-6);
    double sum_rows = dc.row_power_watts(RowId(0)) + dc.row_power_watts(RowId(1));
    EXPECT_NEAR(dc.total_power_watts(), sum_rows, 1e-6);
  }
}

TEST(DataCenterTest, FrozenFlagDoesNotAffectRunningTasks) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  int completions = 0;
  dc.SetTaskCompletionListener([&](ServerId, JobId) { ++completions; });
  ASSERT_TRUE(dc.PlaceTask(
      ServerId(0),
      TaskSpec{JobId(1), Resources{2.0, 2.0}, SimTime::Minutes(5)}));
  dc.SetFrozen(ServerId(0), true);
  EXPECT_TRUE(dc.server(ServerId(0)).frozen());
  sim.RunUntil(SimTime::Minutes(6));
  EXPECT_EQ(completions, 1);  // The task finished normally while frozen.
  dc.SetFrozen(ServerId(0), false);
  EXPECT_FALSE(dc.server(ServerId(0)).frozen());
}

TEST(DataCenterTest, ReservedFlagRoundTrips) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  EXPECT_FALSE(dc.server(ServerId(5)).reserved());
  dc.SetReserved(ServerId(5), true);
  EXPECT_TRUE(dc.server(ServerId(5)).reserved());
}

TEST(DataCenterTest, PowerOfServersSumsSubset) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  std::vector<ServerId> subset{ServerId(0), ServerId(2), ServerId(4)};
  EXPECT_NEAR(dc.PowerOfServers(subset), 3 * 162.5, 1e-9);
}

// --- DVFS capping behaviour ---

TopologyConfig CappedTopology() {
  TopologyConfig config = SmallTopology();
  config.num_rows = 1;
  config.racks_per_row = 1;
  config.servers_per_rack = 4;
  config.capping_enabled = true;
  // Budget well below full demand (idle 650 + dynamic 350 = 1000 W) but
  // reachable at the ladder's minimum step (650 + 350*0.5 = 825 W).
  config.row_budget_watts = 4 * 162.5 + 200.0;
  return config;
}

TEST(DataCenterCappingTest, CapEngagesWhenRowExceedsBudget) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  // Fill all four servers: dynamic demand = 4 * 87.5 = 350 W >> 100 W slack.
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  EXPECT_LT(dc.row_throttle(RowId(0)), 1.0);
  EXPECT_LE(dc.row_power_watts(RowId(0)), 4 * 162.5 + 200.0 + 1e-9);
  EXPECT_TRUE(dc.IsServerCapped(ServerId(0)));
}

TEST(DataCenterCappingTest, CapReleasesWhenLoadDrains) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  ASSERT_LT(dc.row_throttle(RowId(0)), 1.0);
  // Tasks run at half speed -> they need 20 min, not 10.
  sim.RunUntil(SimTime::Minutes(15));
  EXPECT_LT(dc.row_throttle(RowId(0)), 1.0);
  sim.RunUntil(SimTime::Minutes(25));
  EXPECT_DOUBLE_EQ(dc.row_throttle(RowId(0)), 1.0);
  EXPECT_GT(dc.row_capped_time(RowId(0)), SimTime::Minutes(15));
}

TEST(DataCenterCappingTest, ThrottlingStretchesTaskWallClock) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  int completions = 0;
  dc.SetTaskCompletionListener([&](ServerId, JobId) { ++completions; });
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  double throttle = dc.row_throttle(RowId(0));
  ASSERT_LT(throttle, 1.0);
  sim.RunUntil(SimTime::Minutes(10.5));
  EXPECT_EQ(completions, 0);  // Would have finished at 10 min uncapped.
  sim.RunUntil(SimTime::Minutes(10.0 / throttle + 1.0));
  EXPECT_EQ(completions, 4);
}

TEST(DataCenterCappingTest, LoweredCappingBudgetTakesEffect) {
  Simulation sim;
  TopologyConfig config = CappedTopology();
  config.row_budget_watts = 0.0;  // Rated: 1000 W, never violated.
  DataCenter dc(config, &sim);
  ASSERT_TRUE(dc.PlaceTask(
      ServerId(0),
      TaskSpec{JobId(0), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  EXPECT_DOUBLE_EQ(dc.row_throttle(RowId(0)), 1.0);
  // Operator narrows the enforcement target below current draw.
  dc.SetRowCappingBudget(RowId(0), dc.row_power_watts(RowId(0)) - 20.0);
  EXPECT_LT(dc.row_throttle(RowId(0)), 1.0);
}

TEST(DataCenterCappingTest, DisablingCappingReleasesThrottle) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  ASSERT_LT(dc.row_throttle(RowId(0)), 1.0);
  dc.SetCappingEnabled(false);
  EXPECT_DOUBLE_EQ(dc.row_throttle(RowId(0)), 1.0);
  EXPECT_FALSE(dc.IsServerCapped(ServerId(0)));
}

TEST(DataCenterCappingTest, BreakerTripsWithoutCapping) {
  Simulation sim;
  TopologyConfig config = CappedTopology();
  config.capping_enabled = false;
  config.breaker.tolerance = 1.05;
  config.breaker.trip_delay = SimTime::Seconds(30);
  DataCenter dc(config, &sim);
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  // Severe sustained overload with no protection; the breaker needs to see
  // observations, which arrive with task events. Schedule a nudge task.
  for (int t = 1; t <= 60; ++t) {
    sim.ScheduleAt(SimTime::Seconds(t), [&dc, t] {
      dc.PlaceTask(ServerId(0), TaskSpec{JobId(1000 + t), Resources{0.0, 0.0},
                                         SimTime::Minutes(1)});
    });
  }
  sim.RunUntil(SimTime::Minutes(2));
  EXPECT_TRUE(dc.AnyBreakerTripped());
}

TEST(DataCenterTest, ExactAccessorsMatchIncrementalAggregates) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  for (int32_t s = 0; s < 8; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{8.0, 16.0}, SimTime::Minutes(5)}));
  }
  // A handful of mutations introduces no measurable drift yet: exact and
  // incremental agree tightly at every level.
  for (int32_t r = 0; r < dc.num_rows(); ++r) {
    EXPECT_NEAR(dc.row_power_watts(RowId(r)), dc.ExactRowPowerWatts(RowId(r)),
                1e-9);
  }
  for (int32_t k = 0; k < dc.num_racks(); ++k) {
    EXPECT_NEAR(dc.rack_power_watts(RackId(k)),
                dc.ExactRackPowerWatts(RackId(k)), 1e-9);
  }
  EXPECT_NEAR(dc.total_power_watts(), dc.ExactTotalPowerWatts(), 1e-9);
}

TEST(DataCenterTest, ResummateSnapsAggregatesToExactSums) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  for (int32_t s = 0; s < 16; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{4.0, 8.0}, SimTime::Minutes(5)}));
  }
  EXPECT_GT(dc.power_mutations_since_resum(), 0u);
  dc.ResummatePowerAggregates();
  EXPECT_EQ(dc.power_mutations_since_resum(), 0u);
  // After a snap the aggregates are bitwise equal to the exact sums (the
  // resummation and the exact accessors use the same summation order).
  for (int32_t r = 0; r < dc.num_rows(); ++r) {
    EXPECT_EQ(dc.row_power_watts(RowId(r)), dc.ExactRowPowerWatts(RowId(r)));
  }
  for (int32_t k = 0; k < dc.num_racks(); ++k) {
    EXPECT_EQ(dc.rack_power_watts(RackId(k)),
              dc.ExactRackPowerWatts(RackId(k)));
  }
  EXPECT_EQ(dc.total_power_watts(), dc.ExactTotalPowerWatts());
  // Resummation is idempotent.
  dc.ResummatePowerAggregates();
  EXPECT_EQ(dc.total_power_watts(), dc.ExactTotalPowerWatts());
}

TEST(DataCenterTest, ResummateIsExactForOddRackSpans) {
  // Rack spans of 1/3/7 exercise every tail length of the span kernels (and
  // the degenerate one-server rack). The resummed aggregates must equal the
  // Exact* sums bit-for-bit.
  for (int servers_per_rack : {1, 3, 7}) {
    TopologyConfig topology;
    topology.num_rows = 2;
    topology.racks_per_row = 3;
    topology.servers_per_rack = servers_per_rack;
    Simulation sim;
    DataCenter dc(topology, &sim);
    Rng rng(20210806);
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      if (rng.Bernoulli(0.7)) {
        dc.PlaceTask(ServerId(s),
                     TaskSpec{JobId(s), Resources{rng.Uniform(1.0, 12.0),
                                                  rng.Uniform(1.0, 48.0)},
                              SimTime::Hours(100)});
      }
    }
    dc.ResummatePowerAggregates();
    for (int r = 0; r < dc.num_racks(); ++r) {
      EXPECT_EQ(dc.rack_power_watts(RackId(r)),
                dc.ExactRackPowerWatts(RackId(r)))
          << "rack " << r << " span=" << servers_per_rack;
    }
    for (int r = 0; r < dc.num_rows(); ++r) {
      EXPECT_EQ(dc.row_power_watts(RowId(r)), dc.ExactRowPowerWatts(RowId(r)))
          << "row " << r << " span=" << servers_per_rack;
    }
    EXPECT_EQ(dc.total_power_watts(), dc.ExactTotalPowerWatts())
        << "span=" << servers_per_rack;
  }
}

// Reference for FirstCandidateFit: the plain cyclic server-by-server scan.
ServerId BruteForceFirstFit(const DataCenter& dc, size_t start,
                            const Resources& demand,
                            std::optional<RowId> row) {
  const size_t n = static_cast<size_t>(dc.num_servers());
  for (size_t i = 0; i < n; ++i) {
    ServerId id(static_cast<int32_t>((start + i) % n));
    const Server& server = dc.server(id);
    if (server.SchedulableState() && server.CanFit(demand) &&
        (!row.has_value() || server.row() == *row)) {
      return id;
    }
  }
  return ServerId();
}

// The room_bound invariant: every rack's bound, and the fleet's bound, is
// >= each schedulable server's Available(), per dimension.
::testing::AssertionResult BoundsCoverRoom(const DataCenter& dc) {
  const Resources fleet = dc.room_bound();
  for (int32_t k = 0; k < dc.num_racks(); ++k) {
    const Resources rack = dc.rack_room_bound(RackId(k));
    for (ServerId id : dc.servers_in_rack(RackId(k))) {
      const Server& server = dc.server(id);
      const Resources room = server.Available();
      if (!server.SchedulableState()) {
        continue;
      }
      for (const auto& [what, bound] : {std::pair{"rack", rack},
                                        std::pair{"fleet", fleet}}) {
        if (bound.cpu_cores < room.cpu_cores ||
            bound.memory_gb < room.memory_gb) {
          return ::testing::AssertionFailure()
                 << what << " bound {" << bound.cpu_cores << ", "
                 << bound.memory_gb << "} (rack " << k << ") under server "
                 << id.value() << " room {" << room.cpu_cores << ", "
                 << room.memory_gb << "}";
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DataCenterCandidateScanTest, MatchesBruteForceUnderRandomMutations) {
  TopologyConfig config = SmallTopology();
  config.num_rows = 3;
  config.racks_per_row = 3;
  config.servers_per_rack = 4;
  config.wake_latency = SimTime::Minutes(1);
  Simulation sim;
  DataCenter dc(config, &sim);
  const int32_t n = dc.num_servers();
  // Small, medium, cpu-heavy, memory-heavy, whole-server and oversized
  // demands: per-dimension bounds can fit a demand no single server fits.
  const std::vector<Resources> demands = {
      {0.5, 1.0}, {4.0, 16.0}, {12.0, 4.0}, {2.0, 48.0}, {16.0, 64.0},
      {17.0, 1.0}};
  std::vector<std::optional<RowId>> rows = {std::nullopt};
  for (int32_t r = 0; r < dc.num_rows(); ++r) {
    rows.push_back(RowId(r));
  }

  Rng rng(20260417);
  int32_t next_job = 0;
  int wake_completions = 0;
  int hits = 0;
  int misses = 0;
  int fleet_rejections = 0;
  for (int mutation = 0; mutation < 600; ++mutation) {
    const ServerId target(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
    const Server& server = dc.server(target);
    switch (rng.UniformInt(0, 8)) {
      case 0:
      case 1:
      case 2:
      case 3:  // A burst of placements keeps the fleet near full.
        for (int64_t k = rng.UniformInt(1, 4); k > 0; --k) {
          const ServerId host(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
          dc.PlaceTask(host,
                       TaskSpec{JobId(next_job++),
                                Resources{rng.Uniform(0.5, 6.0),
                                          rng.Uniform(1.0, 24.0)},
                                SimTime::Minutes(rng.Uniform(2.0, 40.0))});
        }
        break;
      case 4: {  // Task completions and wake completions.
        std::vector<bool> waking(static_cast<size_t>(n));
        for (int32_t s = 0; s < n; ++s) {
          waking[static_cast<size_t>(s)] = dc.server(ServerId(s)).waking();
        }
        sim.RunUntil(sim.now() + SimTime::Minutes(rng.Uniform(0.0, 3.0)));
        for (int32_t s = 0; s < n; ++s) {
          if (waking[static_cast<size_t>(s)] &&
              !dc.server(ServerId(s)).asleep()) {
            ++wake_completions;
          }
        }
        break;
      }
      case 5:
        dc.SetFrozen(target, !server.frozen());
        break;
      case 6:
        dc.SetReserved(target, !server.reserved());
        break;
      case 7:
        if (server.num_tasks() == 0) {
          dc.SleepServer(target);
        }
        break;
      case 8:
        dc.WakeServer(target);
        break;
    }

    ASSERT_TRUE(BoundsCoverRoom(dc)) << "after mutation " << mutation;
    // The rack-skipping scan returns exactly what the plain scan returns,
    // and the tightening it does (a bound update too) keeps the invariant.
    // Starts run from a random origin, so stale bounds meet mid-rack starts.
    const int32_t first = static_cast<int32_t>(rng.UniformInt(0, n - 1));
    for (int32_t i = 0; i < n; ++i) {
      const int32_t start = (first + i) % n;
      for (const Resources& demand : demands) {
        for (const std::optional<RowId>& row : rows) {
          const size_t origin = static_cast<size_t>(start);
          auto where = [&] {
            return "mutation " + std::to_string(mutation) + " start " +
                   std::to_string(start) + " demand {" +
                   std::to_string(demand.cpu_cores) + ", " +
                   std::to_string(demand.memory_gb) + "} row " +
                   std::to_string(row.has_value() ? row->value() : -1);
          };
          const ServerId want = BruteForceFirstFit(dc, origin, demand, row);
          ASSERT_EQ(dc.FirstCandidateFit(origin, demand, row), want)
              << where();
          ++(want.valid() ? hits : misses);
          if (!dc.CandidateMayFit(demand)) {
            ASSERT_FALSE(want.valid()) << "fleet bound rejects a fit at "
                                       << where();
            fleet_rejections += config.server_capacity.Fits(demand);
          }
          ASSERT_TRUE(BoundsCoverRoom(dc)) << "after scan at " << where();
        }
      }
    }
  }
  // The sequence reached the interesting states: wakes completed, and the
  // fleet filled up enough that many scans miss.
  EXPECT_GT(wake_completions, 0);
  EXPECT_GT(misses, hits / 4) << hits << " hits";
  // Whole-fleet misses tightened the fleet bound below demands an empty
  // server could host.
  EXPECT_GT(fleet_rejections, 0);
  EXPECT_GT(sim.processed_events(), 200u);
}

TEST(DataCenterCandidateScanTest, RowOutsideTopologyHasNoCandidate) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  const Resources demand{0.5, 1.0};
  for (int32_t start = 0; start < dc.num_servers(); ++start) {
    const size_t origin = static_cast<size_t>(start);
    EXPECT_TRUE(dc.FirstCandidateFit(origin, demand, std::nullopt).valid());
    EXPECT_FALSE(
        dc.FirstCandidateFit(origin, demand, RowId(dc.num_rows())).valid());
    EXPECT_FALSE(dc.FirstCandidateFit(origin, demand, RowId(1000)).valid());
  }
}

}  // namespace
}  // namespace ampere
