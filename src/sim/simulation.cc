#include "src/sim/simulation.h"

#include <memory>
#include <new>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {

Simulation::~Simulation() {
  // Destroys the callbacks of events still queued; ChunkDelete then frees
  // the raw chunk storage.
  for (uint32_t i = 0; i < slot_count_; ++i) {
    SlotAt(i).~Slot();
  }
}

void Simulation::AddChunk() {
  std::unique_ptr<Slot, ChunkDelete> chunk(static_cast<Slot*>(::operator new(
      kChunkSlots * sizeof(Slot), std::align_val_t{alignof(Slot)})));
  chunks_.push_back(std::move(chunk));
}

void Simulation::EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelEvent(slot_, seq_);
  }
}

bool Simulation::EventHandle::pending() const {
  return sim_ != nullptr && sim_->EventPending(slot_, seq_);
}

void Simulation::CancelEvent(uint32_t slot_index, uint64_t seq) {
  if (slot_index >= slot_count_) {
    return;
  }
  if (SlotAt(slot_index).seq != seq) {
    // Already fired, already cancelled, or the slot was recycled for a newer
    // event: nothing to do.
    return;
  }
  // O(1) cancel: stale the handle/queue-entry generation and recycle the
  // slot immediately. The queue entry stays behind and is discarded (by the
  // generation mismatch) when it reaches the head.
  RetireSlot(slot_index);
  --live_events_;
}

void Simulation::SchedulePeriodic(SimTime start, SimTime interval,
                                  std::function<void(SimTime)> callback) {
  AMPERE_CHECK(interval > SimTime()) << "non-positive period";
  // The self-rescheduling closure owns the user callback; each firing queues
  // the next one, so the task survives indefinitely. The user callback sits
  // behind one shared_ptr allocated here, once — the per-fire re-arm closure
  // (40 bytes) fits the pooled slots' inline buffer, so steady-state
  // periodic ticks are allocation-free.
  auto cb = std::make_shared<std::function<void(SimTime)>>(std::move(callback));
  struct Rearm {
    Simulation* sim;
    SimTime interval;
    std::shared_ptr<std::function<void(SimTime)>> cb;
    void Fire(SimTime nominal) const {
      (*cb)(nominal);
      Rearm next = *this;
      sim->ScheduleAt(nominal + interval,
                      [next, at = nominal + interval] { next.Fire(at); });
    }
  };
  Rearm rearm{this, interval, std::move(cb)};
  ScheduleAt(start, [rearm, start] { rearm.Fire(start); });
}

bool Simulation::Step() {
  while (!heap_.empty()) {
    const QueueEntry entry = heap_.front();
    HeapPop();
    if (!heap_.empty()) {
      // Fetch the next event's slot while this one runs: RunUntil's stale
      // check and the next Invoke() then hit a warm line. At fleet scale the
      // slab is far larger than the caches, so this line is otherwise the
      // loop's first miss per event.
      __builtin_prefetch(&SlotAt(heap_.front().slot()));
    }
    if (EntryStale(entry)) {
      // Cancelled (the slot was retired, possibly re-minted since): the
      // live-event count was settled at cancel time.
      continue;
    }
    --live_events_;
    AMPERE_CHECK(entry.time >= now_);
    now_ = entry.time;
    ++processed_events_;
    Slot& slot = SlotAt(entry.slot());
    // Clear the seq token before invoking: the event is now "fired", so a
    // Cancel() or pending() from inside its own callback behaves like the
    // old shared-state handles (no-op / false). The slot is only returned
    // to the free list after the callback finishes, so events scheduled by
    // the callback cannot alias the still-running slot.
    slot.seq = kNoEvent;
    try {
      slot.Invoke();
    } catch (...) {
      slot.Reset();
      free_list_.push_back(entry.slot());
      throw;
    }
    slot.Reset();
    free_list_.push_back(entry.slot());
    return true;
  }
  return false;
}

void Simulation::RunUntil(SimTime until) {
  AMPERE_CHECK(until >= now_);
  // One span per drain, not per event: the event loop is far too hot for
  // per-event instrumentation, so RunUntil reports the wall time of the
  // whole drain plus a delta counter of events processed inside it.
  AMPERE_SPAN("sim.run_until");
  const uint64_t processed_before = processed_events_;
  while (!heap_.empty()) {
    // Discard stale (cancelled) entries first: Step() would skip past them
    // to the next live event, which may lie beyond the boundary.
    if (EntryStale(heap_.front())) {
      HeapPop();
      continue;
    }
    if (heap_.front().time > until) {
      break;
    }
    Step();
  }
  now_ = until;
  AMPERE_COUNTER_ADD("sim.events", processed_events_ - processed_before);
}

void Simulation::RunToCompletion() {
  while (Step()) {
  }
}

}  // namespace ampere
