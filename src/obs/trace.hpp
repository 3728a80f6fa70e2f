// Structured trace layer: typed protocol events in bounded per-component
// ring buffers, with nanosecond sim timestamps.
//
// A TraceEvent carries the *fields* of one protocol step (type, cell,
// beams, values); trace.json / JSONL / RunReport consume that typed form
// directly, and tests query it by component and type.
//
// Recording is wired through an Emitter per protocol instance: a small
// value object holding the component tag plus two optional sinks — the
// TraceRecorder for typed events (set only when a run collects its
// trace) and the run's counter registry. With the recorder null — the
// default — emit() is one pointer test and the composed event is
// discarded, which keeps the disabled-by-default telemetry off the
// bench fast path.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace st::obs {

/// Who recorded an event; doubles as the track index in the Perfetto
/// export.
enum class Component : std::uint8_t {
  kSilentTracker = 0,
  kBeamSurfer,
  kReactive,
  kCellSearch,
  kRach,
  kLinkMonitor,
  kScenario,
  kEngine,
  kServe,  ///< daemon job lifecycle; cell = job id, label = state
};

inline constexpr std::size_t kComponentCount = 9;

/// Export tag: "silent_tracker", "beamsurfer", "reactive", ...
[[nodiscard]] std::string_view to_string(Component c) noexcept;

[[nodiscard]] constexpr std::size_t component_index(Component c) noexcept {
  return static_cast<std::size_t>(c);
}

enum class TraceEventType : std::uint8_t {
  kStateTransition,   ///< label = state name; Accessing carries cell/tx/rx
  kCellFound,         ///< initial search hit: cell, tx, rx, rss, latency_ms
  kRxBeamSwitch,      ///< beam_a -> beam_b, value = winning rss
  kTxBeamSwitch,      ///< retarget/BS switch: beam_a -> beam_b
  kRssDrop,           ///< 3 dB rule fired: value = filtered, value2 = ref
  kRssSample,         ///< per-burst sample: value = rss, beam_a = rx beam
  kRecoverySweep,     ///< full-codebook beam-failure-recovery sweep
  kNeighbourAbandoned,///< value = quiet ms before giving the beam up
  kServingLost,       ///< label = reason ("" for the reactive baseline)
  kServingUnreachable,///< rule (ii) uplink exhausted its attempts
  kSearchStart,       ///< value = candidate cell count
  kSearchDwell,       ///< beam_a = rx beam dwelled on, value = dwell index
  kSearchOutcome,     ///< flag = found; cell/tx/rx/rss, value2 = latency_ms
  kRachStart,         ///< cell, beam_a = target tx beam
  kRachAttempt,       ///< value = attempt number, value2 = ramp dB
  kRachOutcome,       ///< flag = success, value = attempts, value2 = latency_ms
  kLinkBelowThreshold,///< serving SNR fell below data threshold (value = snr)
  kRadioLinkFailure,  ///< RLF declared: cell, value = last snr
  kHandoverComplete,  ///< flag = success; cell, beam_b = rx, value = interruption_ms
};

[[nodiscard]] std::string_view to_string(TraceEventType type) noexcept;

/// One typed event. Fields are a union-of-needs across event types (see
/// the per-type comments above); unused fields keep their defaults.
/// `label` must point at storage outliving the recorder — in practice
/// every label is a string literal (state names, loss reasons).
struct TraceEvent {
  sim::Time t{};
  TraceEventType type = TraceEventType::kStateTransition;
  std::int64_t cell = -1;
  std::int64_t beam_a = -1;
  std::int64_t beam_b = -1;
  double value = 0.0;
  double value2 = 0.0;
  bool flag = false;
  std::string_view label{};
};

/// Bounded ring of TraceEvents; when full, the oldest events are dropped
/// (and counted), so a runaway scenario can never grow memory unboundedly.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 16);

  void push(const TraceEvent& event);

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ring_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events pushed in total, including any that have been overwritten.
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return pushed_ > ring_.size() ? pushed_ - ring_.size() : 0;
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next overwrite position once the ring is full
  std::uint64_t pushed_ = 0;
};

struct TraceConfig {
  std::size_t buffer_capacity = 1 << 16;  ///< per component
};

/// One buffer per component plus the run's MetricRegistry — everything a
/// single scenario run records, handed as a unit to the exporters.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config = {});

  void record(Component component, const TraceEvent& event) {
    buffers_[component_index(component)].push(event);
  }

  [[nodiscard]] const TraceBuffer& buffer(Component component) const noexcept {
    return buffers_[component_index(component)];
  }
  [[nodiscard]] MetricRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricRegistry& metrics() const noexcept {
    return metrics_;
  }

  [[nodiscard]] std::uint64_t total_events() const noexcept;
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;

 private:
  std::vector<TraceBuffer> buffers_;  // indexed by component_index()
  MetricRegistry metrics_;
};

/// Per-protocol fan-out point: typed events to the TraceRecorder,
/// counters to the run's registry. Both sinks optional and non-owned.
struct Emitter {
  Component component = Component::kScenario;
  TraceRecorder* recorder = nullptr;
  MetricRegistry* counters = nullptr;

  [[nodiscard]] bool tracing() const noexcept { return recorder != nullptr; }

  void emit(const TraceEvent& event) const {
    if (recorder != nullptr) {
      recorder->record(component, event);
    }
  }

  /// Bump the run counter `name` (unqualified: "bs_switches").
  void count(std::string_view name, std::uint64_t by = 1) const {
    if (counters != nullptr) {
      counters->counter(name).increment(by);
    }
  }
};

}  // namespace st::obs
