#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace ampere {
namespace {

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Seconds(3), [&] { order.push_back(3); });
  sim.ScheduleAt(SimTime::Seconds(1), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime::Seconds(2), [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::Seconds(3));
}

TEST(SimulationTest, SameTimeEventsFireFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(SimTime::Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen;
  sim.ScheduleAt(SimTime::Minutes(5), [&] { seen = sim.now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, SimTime::Minutes(5));
}

TEST(SimulationTest, SchedulingIntoThePastThrows) {
  Simulation sim;
  sim.ScheduleAt(SimTime::Seconds(10), [] {});
  sim.RunToCompletion();
  EXPECT_THROW(sim.ScheduleAt(SimTime::Seconds(5), [] {}), CheckFailure);
}

TEST(SimulationTest, ScheduleAfterIsRelative) {
  Simulation sim;
  std::vector<double> fire_times;
  sim.ScheduleAt(SimTime::Seconds(10), [&] {
    sim.ScheduleAfter(SimTime::Seconds(5),
                      [&] { fire_times.push_back(sim.now().seconds()); });
  });
  sim.RunToCompletion();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_DOUBLE_EQ(fire_times[0], 15.0);
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  auto handle = sim.ScheduleAt(SimTime::Seconds(1), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelAfterFireIsNoop) {
  Simulation sim;
  auto handle = sim.ScheduleAt(SimTime::Seconds(1), [] {});
  sim.RunToCompletion();
  EXPECT_FALSE(handle.pending());
  handle.Cancel();  // Must not crash.
}

TEST(SimulationTest, DefaultHandleIsInert) {
  Simulation::EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.Cancel();
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndSetsClock) {
  Simulation sim;
  std::vector<double> fired;
  sim.ScheduleAt(SimTime::Seconds(1), [&] { fired.push_back(1.0); });
  sim.ScheduleAt(SimTime::Seconds(5), [&] { fired.push_back(5.0); });
  sim.RunUntil(SimTime::Seconds(3));
  EXPECT_EQ(fired, std::vector<double>{1.0});
  EXPECT_EQ(sim.now(), SimTime::Seconds(3));
  sim.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 5.0}));
}

TEST(SimulationTest, EventAtBoundaryIncludedInRunUntil) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAt(SimTime::Seconds(3), [&] { fired = true; });
  sim.RunUntil(SimTime::Seconds(3));
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, RunUntilHonorsBoundaryPastCancelledEvents) {
  // Regression: a cancelled entry at the queue head must not let RunUntil
  // execute a live event beyond the boundary.
  Simulation sim;
  bool late_fired = false;
  auto early = sim.ScheduleAt(SimTime::Seconds(1), [] {});
  sim.ScheduleAt(SimTime::Seconds(100), [&] { late_fired = true; });
  early.Cancel();
  sim.RunUntil(SimTime::Seconds(10));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now(), SimTime::Seconds(10));
  sim.RunUntil(SimTime::Seconds(200));
  EXPECT_TRUE(late_fired);
}

TEST(SimulationTest, PeriodicTaskFiresAtInterval) {
  Simulation sim;
  std::vector<double> fire_minutes;
  sim.SchedulePeriodic(SimTime::Minutes(1), SimTime::Minutes(1),
                       [&](SimTime t) { fire_minutes.push_back(t.minutes()); });
  sim.RunUntil(SimTime::Minutes(5.5));
  EXPECT_EQ(fire_minutes, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(SimulationTest, PeriodicTasksInterleaveDeterministically) {
  Simulation sim;
  std::vector<char> order;
  sim.SchedulePeriodic(SimTime::Minutes(1), SimTime::Minutes(1),
                       [&](SimTime) { order.push_back('a'); });
  sim.SchedulePeriodic(SimTime::Minutes(1), SimTime::Minutes(1),
                       [&](SimTime) { order.push_back('b'); });
  sim.RunUntil(SimTime::Minutes(3));
  // 'a' was registered first and must stay first at every shared instant.
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'a', 'b', 'a', 'b'}));
}

TEST(SimulationTest, ProcessedEventCountTracks) {
  Simulation sim;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(SimTime::Seconds(i), [] {});
  }
  sim.RunToCompletion();
  EXPECT_EQ(sim.processed_events(), 10u);
}

TEST(SimulationTest, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.Step());
}

// --- Pooled event core ----------------------------------------------------
//
// The slab/free-list slot pool and generation-checked handles are invisible
// to well-behaved callers; these tests pin down the recycling behavior
// directly through the slab_size()/free_slots() introspection hooks.

TEST(SimulationPoolTest, SequentialScheduleFireCyclesReuseOneSlot) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(SimTime::Seconds(i), [&] { ++fired; });
    sim.Step();
  }
  EXPECT_EQ(fired, 100);
  // Fire returns the slot to the free list; the next schedule reuses it.
  EXPECT_EQ(sim.slab_size(), 1u);
  EXPECT_EQ(sim.free_slots(), 1u);
}

TEST(SimulationPoolTest, StaleHandleCannotCancelRecycledSlot) {
  Simulation sim;
  bool second_fired = false;
  auto first = sim.ScheduleAt(SimTime::Seconds(1), [] {});
  sim.Step();  // Fires; the slot goes back to the free list.
  // Reuses the same slot under a newer generation.
  auto second =
      sim.ScheduleAt(SimTime::Seconds(2), [&] { second_fired = true; });
  EXPECT_EQ(sim.slab_size(), 1u);
  EXPECT_FALSE(first.pending());
  first.Cancel();  // Stale generation: must not touch the new occupant.
  EXPECT_TRUE(second.pending());
  sim.RunToCompletion();
  EXPECT_TRUE(second_fired);
}

TEST(SimulationPoolTest, CancelRecyclesTheSlotImmediately) {
  Simulation sim;
  auto handle = sim.ScheduleAt(SimTime::Seconds(1), [] {});
  EXPECT_EQ(sim.free_slots(), 0u);
  handle.Cancel();
  EXPECT_EQ(sim.free_slots(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
  // The orphaned queue entry is discarded by its generation mismatch.
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.processed_events(), 0u);
}

TEST(SimulationPoolTest, GenerationChecksSurviveManyReuseCycles) {
  Simulation sim;
  int fired = 0;
  std::vector<Simulation::EventHandle> stale;
  for (int i = 0; i < 1000; ++i) {
    stale.push_back(sim.ScheduleAt(SimTime::Seconds(i), [&] { ++fired; }));
    sim.Step();
  }
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.slab_size(), 1u);
  // Every retained handle is stale; pending() is false and Cancel() is a
  // no-op for each of the 1000 generations the slot has been through.
  for (auto& handle : stale) {
    EXPECT_FALSE(handle.pending());
    handle.Cancel();
  }
  EXPECT_EQ(sim.free_slots(), 1u);
}

TEST(SimulationPoolTest, OversizedCallbackFallsBackToHeapAndFires) {
  Simulation sim;
  // 128 bytes of captured state: beyond the slot's inline buffer, so this
  // exercises the heap fallback path of the pooled callback storage.
  std::array<uint64_t, 16> payload{};
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = i * 3 + 1;
  }
  uint64_t sum = 0;
  sim.ScheduleAt(SimTime::Seconds(1), [payload, &sum] {
    for (uint64_t v : payload) {
      sum += v;
    }
  });
  sim.RunToCompletion();
  uint64_t expected = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    expected += i * 3 + 1;
  }
  EXPECT_EQ(sum, expected);
}

TEST(SimulationPoolTest, CancelInsideOwnCallbackIsNoop) {
  Simulation sim;
  Simulation::EventHandle handle;
  bool fired = false;
  handle = sim.ScheduleAt(SimTime::Seconds(1), [&] {
    fired = true;
    // The event counts as fired before its callback runs, matching the old
    // shared-state handle semantics.
    EXPECT_FALSE(handle.pending());
    handle.Cancel();
  });
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.free_slots(), sim.slab_size());
}

TEST(SimulationPoolTest, OverAlignedCallbackFallsBackToHeap) {
  // An over-aligned closure cannot live in the 16-byte-aligned inline
  // buffer. It must take the heap node, fire once at its own alignment and
  // be destroyed exactly once.
  struct alignas(32) Aligned {
    int* fires;
    int* destroys;
    bool owner = true;
    Aligned(int* f, int* d) : fires(f), destroys(d) {}
    Aligned(Aligned&& other) noexcept
        : fires(other.fires), destroys(other.destroys) {
      other.owner = false;
    }
    ~Aligned() {
      if (owner) {
        ++*destroys;
      }
    }
    void operator()() {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(this) % 32, 0u);
      ++*fires;
    }
  };
  static_assert(alignof(Aligned) > alignof(std::max_align_t));
  int fires = 0;
  int destroys = 0;
  {
    Simulation sim;
    sim.ScheduleAt(SimTime::Seconds(1), Aligned(&fires, &destroys));
    EXPECT_EQ(destroys, 0);
    sim.RunToCompletion();
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(destroys, 1);
    // A second one is still queued when the Simulation is destroyed.
    sim.ScheduleAt(SimTime::Seconds(2), Aligned(&fires, &destroys));
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(destroys, 2);
}

TEST(SimulationPoolTest, CallbackGrowingTheSlabKeepsItsCaptures) {
  // A callback schedules more than two chunks of events while its own slot
  // is in use, so the slab grows under it; its captures must stay where
  // they were (ASan reports any read of moved or freed storage).
  Simulation sim;
  const std::array<uint64_t, 4> captured = {11, 22, 33, 44};
  const size_t spawned = 2 * Simulation::kChunkSlots + 5;
  uint64_t sum = 0;
  int fired = 0;
  sim.ScheduleAt(SimTime::Seconds(1), [&sim, &sum, &fired, captured,
                                        spawned] {
    for (size_t i = 0; i < spawned; ++i) {
      sim.ScheduleAfter(SimTime::Seconds(1), [&fired] { ++fired; });
    }
    for (uint64_t v : captured) {
      sum += v;
    }
  });
  EXPECT_EQ(sim.slab_size(), 1u);
  sim.Step();
  EXPECT_EQ(sum, 110u);
  EXPECT_EQ(sim.slab_size(), spawned + 1);
  EXPECT_EQ(sim.pending_events(), spawned);
  sim.RunToCompletion();
  EXPECT_EQ(fired, static_cast<int>(spawned));
  EXPECT_EQ(sim.free_slots(), sim.slab_size());
}

// Differential test of the event core against an ordered-set reference. A
// seeded mix of schedules (many at equal times, some spawning a child from
// inside their callback), cancels of live, fired and recycled handles,
// Step() and RunUntil() runs, with enough live events to span several slab
// chunks. After every operation the fire order, now(), pending_events()
// and processed_events() must match the reference, which orders events by
// (time, schedule order) in a std::set.
TEST(SimulationPoolTest, RandomOpsMatchOrderedReference) {
  Simulation sim;
  std::mt19937_64 rng(20161018);
  std::set<std::pair<SimTime, uint64_t>> ref;  // (time, id) of live events.
  std::vector<SimTime> time_of;                 // by id
  std::vector<Simulation::EventHandle> handles; // by id
  std::vector<uint64_t> fired;
  uint64_t ref_processed = 0;

  // Ids follow schedule order, which is the order the engine breaks time
  // ties in.
  std::function<void(SimTime, bool)> schedule = [&](SimTime at, bool spawn) {
    const uint64_t id = handles.size();
    time_of.push_back(at);
    handles.push_back(sim.ScheduleAt(at, [&, id, spawn] {
      fired.push_back(id);
      if (spawn) {
        schedule(sim.now() + SimTime::Seconds(static_cast<double>(rng() % 3)),
                 false);
      }
    }));
    ref.emplace(at, id);
  };
  // Pops the reference's head as the engine's next firing.
  auto expect_fire = [&] {
    ASSERT_FALSE(ref.empty());
    const auto head = *ref.begin();
    ref.erase(ref.begin());
    ++ref_processed;
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(fired.back(), head.second);
    EXPECT_EQ(sim.now(), head.first);
  };

  size_t peak_live = 0;
  for (int op = 0; op < 60000; ++op) {
    // Schedule-heavy without RunUntil for the first third, so the live set
    // spans several chunks; then balanced; then drain-heavy.
    const int phase = op / 20000;
    const uint64_t roll = rng() % 100;
    const uint64_t schedule_cut = phase == 0 ? 90 : (phase == 1 ? 45 : 10);
    const uint64_t cancel_cut = schedule_cut + (phase == 0 ? 5 : 8);
    const uint64_t run_until_cut = cancel_cut + (phase == 0 ? 0 : 4);
    if (roll < schedule_cut) {
      // Few distinct offsets, so many events share a time.
      const double offset = static_cast<double>(rng() % 8);
      schedule(sim.now() + SimTime::Seconds(offset), rng() % 4 == 0);
    } else if (roll < cancel_cut && !handles.empty()) {
      // Any handle ever minted: live, fired, cancelled or recycled slot.
      const uint64_t id = rng() % handles.size();
      const bool live = ref.count({time_of[id], id}) > 0;
      EXPECT_EQ(handles[id].pending(), live);
      handles[id].Cancel();
      ref.erase({time_of[id], id});
      EXPECT_FALSE(handles[id].pending());
    } else if (roll < run_until_cut) {
      const size_t before = fired.size();
      const SimTime until =
          sim.now() + SimTime::Seconds(static_cast<double>(rng() % 3));
      sim.RunUntil(until);
      // Children spawned during the run are already in the reference, and
      // each sorts after its parent, so replaying the reference's heads
      // reproduces the engine's order.
      for (size_t i = before; i < fired.size(); ++i) {
        ASSERT_FALSE(ref.empty());
        const auto head = *ref.begin();
        ASSERT_LE(head.first, until);
        EXPECT_EQ(fired[i], head.second);
        ref.erase(ref.begin());
        ++ref_processed;
      }
      EXPECT_TRUE(ref.empty() || ref.begin()->first > until);
      EXPECT_EQ(sim.now(), until);
    } else {
      const bool had_live = !ref.empty();
      const size_t before = fired.size();
      EXPECT_EQ(sim.Step(), had_live);
      if (had_live) {
        ASSERT_EQ(fired.size(), before + 1);
        expect_fire();
      }
    }
    ASSERT_EQ(sim.pending_events(), ref.size()) << "op " << op;
    ASSERT_EQ(sim.processed_events(), ref_processed) << "op " << op;
    peak_live = std::max(peak_live, ref.size());
  }
  while (sim.Step()) {
    expect_fire();
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(sim.processed_events(), ref_processed);
  EXPECT_GT(peak_live, 2 * Simulation::kChunkSlots);
  EXPECT_GT(sim.slab_size(), 2 * Simulation::kChunkSlots);
  EXPECT_EQ(sim.free_slots(), sim.slab_size());
}

TEST(SimulationTest, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(SimTime::Seconds(1), recurse);
    }
  };
  sim.ScheduleAt(SimTime::Seconds(0), recurse);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::Seconds(4));
}

}  // namespace
}  // namespace ampere
