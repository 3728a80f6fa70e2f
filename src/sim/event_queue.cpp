#include "sim/event_queue.hpp"

#include <stdexcept>

namespace st::sim {

namespace {

[[nodiscard]] constexpr EventId make_id(std::uint32_t gen,
                                        std::uint32_t index) noexcept {
  return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(index) + 1);
}

/// Slot index an id names; ids with a zero low half (0 included) map to
/// UINT32_MAX, which no slot table reaches.
[[nodiscard]] constexpr std::uint32_t index_of(EventId id) noexcept {
  return static_cast<std::uint32_t>(id) - 1U;
}

[[nodiscard]] constexpr std::uint32_t gen_of(EventId id) noexcept {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

EventId EventQueue::push(Time when, EventFn fn) {
  std::uint32_t index = 0;
  if (free_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.live = true;
  ++live_;
  const EventId id = make_id(slot.gen, index);
  heap_.push(HeapItem{when, next_seq_++, id});
  return id;
}

bool EventQueue::holds(EventId id) const noexcept {
  const Slot& slot = slots_[index_of(id)];
  return slot.live && slot.gen == gen_of(id);
}

void EventQueue::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = nullptr;
  slot.live = false;
  ++slot.gen;
  free_.push_back(index);
  --live_;
}

bool EventQueue::cancel(EventId id) {
  if (index_of(id) >= slots_.size() || !holds(id)) {
    return false;
  }
  release(index_of(id));
  return true;
}

void EventQueue::skip_cancelled() const {
  while (!heap_.empty() && !holds(heap_.top().id)) {
    heap_.pop();
  }
}

Time EventQueue::next_time() const {
  skip_cancelled();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time on empty queue");
  }
  return heap_.top().when;
}

EventQueue::Entry EventQueue::pop() {
  skip_cancelled();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  const HeapItem item = heap_.top();
  heap_.pop();
  Entry entry{item.when, item.id, std::move(slots_[index_of(item.id)].fn)};
  release(index_of(item.id));
  return entry;
}

void EventQueue::clear() {
  heap_ = {};
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live) {
      release(i);
    }
  }
}

}  // namespace st::sim
