// Discrete-event simulation engine.
//
// A single-threaded event core drives the data-center model: job arrivals
// and completions are point events, while the power monitor and the Ampere
// controller are periodic tasks on a one-minute cadence. Completion events
// are cancellable because DVFS power capping changes server speed, which
// requires rescheduling every affected task's completion.
//
// Hot-path design: events live in a slab of pooled slots recycled through a
// free list, each slot holding its callback in small-buffer storage sized
// for the closures the model actually schedules (completion lambdas,
// periodic re-arms). A slot is exactly one cache line, and the slab is a
// table of fixed-size chunks, so slot addresses never move. The steady
// state allocates nothing per event — no shared_ptr control block, no
// std::function heap node. Handles are generation-checked PODs: cancelling
// an already-fired, already-cancelled, or recycled event is a safe no-op,
// exactly like the previous shared-state handles, with cancel O(1).

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"

namespace ampere {

class Simulation {
 public:
  using Callback = std::function<void()>;

  // A cancellable reference to a scheduled event. Default-constructed handles
  // are inert. Cancelling an already-fired or already-cancelled event is a
  // no-op, so owners can cancel unconditionally in destructors. Handles are
  // trivially copyable; a copied handle refers to the same event. The
  // Simulation must outlive any Cancel()/pending() call on a live handle
  // (every owner in the model is destroyed before its Simulation).
  class EventHandle {
   public:
    EventHandle() = default;

    void Cancel();
    // True if the event is still queued and will fire.
    bool pending() const;

   private:
    friend class Simulation;
    EventHandle(Simulation* sim, uint32_t slot, uint64_t seq)
        : sim_(sim), slot_(slot), seq_(seq) {}
    Simulation* sim_ = nullptr;
    uint32_t slot_ = 0;
    uint64_t seq_ = 0;
  };

  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }
  size_t pending_events() const { return live_events_; }
  uint64_t processed_events() const { return processed_events_; }

  // Schedules `callback` at absolute time `at` (>= now()). Accepts any
  // nullary callable; closures up to the slot's inline buffer are stored
  // without touching the heap.
  template <typename F>
  EventHandle ScheduleAt(SimTime at, F&& callback) {
    AMPERE_CHECK(at >= now_) << "scheduling into the past: at="
                             << at.ToString() << " now=" << now_.ToString();
    const uint32_t slot_index = AllocSlot();
    const uint64_t seq = next_seq_++;
    AMPERE_CHECK(seq < (uint64_t{1} << kSeqBits)) << "event seq overflow";
    Slot& slot = SlotAt(slot_index);
    slot.Emplace(std::forward<F>(callback));
    slot.seq = seq;
    HeapPush(QueueEntry{at, (seq << kSlotBits) | slot_index});
    ++live_events_;
    return EventHandle(this, slot_index, seq);
  }

  // Schedules `callback` `delay` after the current time (delay >= 0).
  template <typename F>
  EventHandle ScheduleAfter(SimTime delay, F&& callback) {
    AMPERE_CHECK(delay >= SimTime()) << "negative delay";
    return ScheduleAt(now_ + delay, std::forward<F>(callback));
  }

  // Schedules `callback(fire_time)` every `interval` starting at `start`,
  // forever (periodic tasks run for the life of the simulation). The callback
  // receives the nominal fire time.
  void SchedulePeriodic(SimTime start, SimTime interval,
                        std::function<void(SimTime)> callback);

  // Executes the next event, advancing the clock to it. Returns false when
  // the queue is empty.
  bool Step();

  // Runs every event with fire time <= `until`, then sets the clock to
  // `until` (so telemetry windows close deterministically).
  void RunUntil(SimTime until);

  // Runs to queue exhaustion. Periodic tasks never exhaust; use RunUntil.
  void RunToCompletion();

  // The slot slab grows one chunk of kChunkSlots slots at a time and never
  // moves a slot.
  static constexpr int kChunkBits = 12;
  static constexpr size_t kChunkSlots = size_t{1} << kChunkBits;

  // Introspection for tests/benches: slots ever created (high-water mark of
  // concurrently live events) and slots currently on the free list.
  size_t slab_size() const { return slot_count_; }
  size_t free_slots() const { return free_list_.size(); }

 private:
  // Queue entries pack (seq, slot) into one word: seq in the high bits,
  // slot index in the low kSlotBits. Sequence numbers are globally unique,
  // so comparing packed words compares seqs (the slot bits can only break a
  // tie that never happens), and a slot's current seq doubles as its
  // generation token — an entry or handle whose seq no longer matches the
  // slot's is stale. The packing halves the entry to 16 bytes: the pop's
  // sift-down touches half the cache lines of the 32-byte layout it
  // replaces, which is where most of the queue time goes at fleet scale.
  static constexpr int kSlotBits = 22;       // 4M concurrently live events.
  static constexpr int kSeqBits = 64 - kSlotBits;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  // Token value meaning "no queued event owns this slot"; real seqs are
  // checked against kSeqBits so they never collide with it.
  static constexpr uint64_t kNoEvent = ~uint64_t{0};

  // One pooled event slot: a generation token and a move-only type-erased
  // nullary callable with small-buffer storage, in exactly one cache line.
  // `seq` is the sequence number of the event currently occupying the slot
  // (kNoEvent when free/fired/cancelled); queue entries and handles carry
  // the seq they were minted with, so stale references are detected in O(1)
  // without shared ownership. The stale check and the callback's invoke
  // therefore touch the same line. kInlineBytes covers every closure the
  // model schedules (the largest is the periodic re-arm at 40 bytes);
  // larger or over-aligned callables fall back to one heap node, preserving
  // correctness for arbitrary user code.
  struct alignas(64) Slot {
    static constexpr size_t kInlineBytes = 48;

    Slot() = default;
    ~Slot() { Reset(); }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    template <typename F>
    void Emplace(F&& f) {
      using D = std::decay_t<F>;
      static_assert(std::is_invocable_r_v<void, D&>,
                    "event callback must be callable as void()");
      Reset();
      if constexpr (sizeof(D) <= kInlineBytes &&
                    alignof(D) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(buffer)) D(std::forward<F>(f));
        ops = InlineOps<D>();
      } else {
        *reinterpret_cast<D**>(static_cast<void*>(buffer)) =
            new D(std::forward<F>(f));
        ops = HeapOps<D>();
      }
    }

    void Invoke() { ops->invoke(buffer); }
    void Reset() {
      if (ops != nullptr) {
        const Ops* old = ops;
        ops = nullptr;
        old->destroy(buffer);
      }
    }

    struct Ops {
      void (*invoke)(void*);
      void (*destroy)(void*);
    };

    template <typename D>
    static const Ops* InlineOps() {
      static constexpr Ops kOps = {
          [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
          [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); },
      };
      return &kOps;
    }
    template <typename D>
    static const Ops* HeapOps() {
      static constexpr Ops kOps = {
          [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
          [](void* p) { delete *std::launder(reinterpret_cast<D**>(p)); },
      };
      return &kOps;
    }

    uint64_t seq = kNoEvent;
    const Ops* ops = nullptr;
    alignas(std::max_align_t) unsigned char buffer[kInlineBytes];
  };
  static_assert(sizeof(Slot) == 64, "an event slot is one cache line");

  struct QueueEntry {
    SimTime time;
    uint64_t key;  // (seq << kSlotBits) | slot.

    uint64_t seq() const { return key >> kSlotBits; }
    uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
  };

  // (time, seq) is a strict total order — seq is unique — so the pop
  // sequence is fully determined by the entries alone, independent of the
  // heap's internal arrangement. That makes the heap shape a pure
  // performance choice: a 4-ary heap halves the levels of a binary heap
  // (fewer dependent cache misses on the pop's sift-down, where most of the
  // queue time goes) at the cost of a few extra in-cache-line compares.
  static bool Earlier(const QueueEntry& a, const QueueEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.key < b.key;
  }

  void HeapPush(const QueueEntry& entry) {
    heap_.push_back(entry);
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!Earlier(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  // Removes heap_[0]. Hole-based sift-down: the displaced last element is
  // written once at its final position instead of swapped down level by
  // level.
  void HeapPop() {
    const QueueEntry last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) {
      return;
    }
    size_t i = 0;
    for (;;) {
      const size_t first_child = i * 4 + 1;
      if (first_child >= n) {
        break;
      }
      size_t best = first_child;
      const size_t end = first_child + 4 < n ? first_child + 4 : n;
      for (size_t c = first_child + 1; c < end; ++c) {
        if (Earlier(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!Earlier(heap_[best], last)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  uint32_t AllocSlot() {
    if (!free_list_.empty()) {
      const uint32_t index = free_list_.back();
      free_list_.pop_back();
      return index;
    }
    AMPERE_CHECK(slot_count_ < kSlotMask) << "event slot overflow";
    if ((slot_count_ & kChunkMask) == 0) {
      AddChunk();
    }
    ::new (static_cast<void*>(&SlotAt(slot_count_))) Slot();
    return slot_count_++;
  }

  // Appends one chunk of uninitialized slot storage; AllocSlot constructs
  // each slot on first use, so untouched slots cost no resident memory.
  void AddChunk();

  Slot& SlotAt(uint32_t index) {
    return chunks_[index >> kChunkBits].get()[index & kChunkMask];
  }
  const Slot& SlotAt(uint32_t index) const {
    return chunks_[index >> kChunkBits].get()[index & kChunkMask];
  }

  // Retires a slot's current event: clears its seq token (stale-ing every
  // outstanding handle/queue entry) and returns the slot to the free list.
  void RetireSlot(uint32_t index) {
    Slot& slot = SlotAt(index);
    slot.seq = kNoEvent;
    slot.Reset();
    free_list_.push_back(index);
  }

  bool EntryStale(const QueueEntry& entry) const {
    return SlotAt(entry.slot()).seq != entry.seq();
  }

  void CancelEvent(uint32_t slot_index, uint64_t seq);
  bool EventPending(uint32_t slot_index, uint64_t seq) const {
    return slot_index < slot_count_ && SlotAt(slot_index).seq == seq;
  }

  static constexpr uint32_t kChunkMask = kChunkSlots - 1;

  struct ChunkDelete {
    void operator()(Slot* chunk) const {
      ::operator delete(chunk, std::align_val_t{alignof(Slot)});
    }
  };

  SimTime now_;
  uint64_t next_seq_ = 0;
  size_t live_events_ = 0;
  uint64_t processed_events_ = 0;
  // Slab of pooled slots: slot i is chunks_[i >> kChunkBits][i & kChunkMask].
  // Chunks never move, so a slot's address is stable across growth (an event
  // firing may schedule new events while its own slot is still in use).
  // Slots [0, slot_count_) are constructed.
  std::vector<std::unique_ptr<Slot, ChunkDelete>> chunks_;
  uint32_t slot_count_ = 0;
  std::vector<uint32_t> free_list_;
  // 4-ary min-heap on (time, packed seq/slot); see Earlier()/HeapPush()/
  // HeapPop().
  std::vector<QueueEntry> heap_;
};

}  // namespace ampere

#endif  // SRC_SIM_SIMULATION_H_
