// Pending-event set for the discrete-event engine: a binary heap keyed by
// (time, sequence number). The sequence number makes same-time events fire
// in scheduling order, which keeps runs deterministic — protocol races
// (e.g. an SSB measurement and a blockage onset in the same slot) resolve
// the same way on every platform. Events are cancellable via handles so a
// timer can be disarmed when its state machine leaves the waiting state.
//
// Callbacks live in a vector of generation-counted slots recycled through
// a free list, so push, cancel and pop touch no allocator once the slot
// table has reached the run's peak queue depth. An EventId packs the
// slot's generation (high 32 bits) with its index + 1 (low 32 bits): it is
// never 0, which callers keep as "no event", and an id whose slot has
// since been reused no longer matches the slot's generation.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace st::sim {

using EventId = std::uint64_t;
using EventFn = std::function<void()>;

class EventQueue {
 public:
  struct Entry {
    Time when;
    EventId id = 0;
    EventFn fn;
  };

  /// Add an event; returns a handle usable with cancel().
  EventId push(Time when, EventFn fn);

  /// Cancel a pending event and destroy its callback. Returns false if
  /// it already fired, was already cancelled, or never existed.
  /// Cancellation is O(1) (lazy: the heap entry is skipped at pop time).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  /// Number of pending (not fired, not cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Remove and return the earliest pending event. Precondition: !empty().
  [[nodiscard]] Entry pop();

  void clear();

 private:
  struct HeapItem {
    Time when;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const noexcept {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    bool live = false;
  };

  /// Whether `id` names the event its slot currently holds. `id` must
  /// come from push(), so its slot index is in range.
  [[nodiscard]] bool holds(EventId id) const noexcept;

  /// Destroy the slot's callback, bump its generation (so ids handed out
  /// for it go stale) and return it to the free list.
  void release(std::uint32_t index);

  /// Drop cancelled entries from the heap top. Logically const — it only
  /// collapses lazily-cancelled entries, never changes the observable
  /// queue — so const accessors (next_time) may call it on the mutable
  /// heap without casting away constness.
  void skip_cancelled() const;

  mutable std::priority_queue<HeapItem, std::vector<HeapItem>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace st::sim
