#include "obs/trace.hpp"

#include <algorithm>

namespace st::obs {

std::string_view to_string(Component c) noexcept {
  switch (c) {
    case Component::kSilentTracker:
      return "silent_tracker";
    case Component::kBeamSurfer:
      return "beamsurfer";
    case Component::kReactive:
      return "reactive";
    case Component::kCellSearch:
      return "cell_search";
    case Component::kRach:
      return "rach";
    case Component::kLinkMonitor:
      return "link_monitor";
    case Component::kScenario:
      return "scenario";
    case Component::kEngine:
      return "engine";
    case Component::kServe:
      return "serve";
  }
  return "?";
}

std::string_view to_string(TraceEventType type) noexcept {
  switch (type) {
    case TraceEventType::kStateTransition:
      return "state_transition";
    case TraceEventType::kCellFound:
      return "cell_found";
    case TraceEventType::kRxBeamSwitch:
      return "rx_beam_switch";
    case TraceEventType::kTxBeamSwitch:
      return "tx_beam_switch";
    case TraceEventType::kRssDrop:
      return "rss_drop";
    case TraceEventType::kRssSample:
      return "rss_sample";
    case TraceEventType::kRecoverySweep:
      return "recovery_sweep";
    case TraceEventType::kNeighbourAbandoned:
      return "neighbour_abandoned";
    case TraceEventType::kServingLost:
      return "serving_lost";
    case TraceEventType::kServingUnreachable:
      return "serving_unreachable";
    case TraceEventType::kSearchStart:
      return "search_start";
    case TraceEventType::kSearchDwell:
      return "search_dwell";
    case TraceEventType::kSearchOutcome:
      return "search_outcome";
    case TraceEventType::kRachStart:
      return "rach_start";
    case TraceEventType::kRachAttempt:
      return "rach_attempt";
    case TraceEventType::kRachOutcome:
      return "rach_outcome";
    case TraceEventType::kLinkBelowThreshold:
      return "link_below_threshold";
    case TraceEventType::kRadioLinkFailure:
      return "radio_link_failure";
    case TraceEventType::kHandoverComplete:
      return "handover_complete";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void TraceBuffer::push(const TraceEvent& event) {
  ++pushed_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

TraceRecorder::TraceRecorder(TraceConfig config) {
  // Built in place, not copied from a prototype: a copy would drop each
  // ring's up-front reserve and allocate the prototype's for nothing.
  buffers_.reserve(kComponentCount);
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    buffers_.emplace_back(config.buffer_capacity);
  }
}

std::uint64_t TraceRecorder::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const TraceBuffer& b : buffers_) {
    n += b.pushed();
  }
  return n;
}

std::uint64_t TraceRecorder::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const TraceBuffer& b : buffers_) {
    n += b.dropped();
  }
  return n;
}

}  // namespace st::obs
