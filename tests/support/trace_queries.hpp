// Shared test queries over a run's typed trace and counters, plus the one
// fingerprint every determinism/equivalence suite compares.
//
// Every query over a trace first asserts that no ring buffer overflowed:
// a dropped event could otherwise hide the very event a test looks for
// (the ring drops its *oldest* events, so even "first event of type X"
// would silently move).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace st::test {

/// Events `component` recorded, oldest first (all types).
inline std::vector<obs::TraceEvent> events_of(const obs::TraceRecorder& trace,
                                              obs::Component component) {
  EXPECT_EQ(trace.total_dropped(), 0u) << "trace ring overflowed";
  return trace.buffer(component).snapshot();
}

/// Events of one `type` that `component` recorded, oldest first.
inline std::vector<obs::TraceEvent> events_of(const obs::TraceRecorder& trace,
                                              obs::Component component,
                                              obs::TraceEventType type) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : events_of(trace, component)) {
    if (e.type == type) {
      out.push_back(e);
    }
  }
  return out;
}

/// Time of the first `type` event of `component` accepted by `match`.
template <typename Match>
std::optional<sim::Time> first_time_of(const obs::TraceRecorder& trace,
                                       obs::Component component,
                                       obs::TraceEventType type, Match match) {
  for (const obs::TraceEvent& e : events_of(trace, component, type)) {
    if (match(e)) {
      return e.t;
    }
  }
  return std::nullopt;
}

inline std::optional<sim::Time> first_time_of(const obs::TraceRecorder& trace,
                                              obs::Component component,
                                              obs::TraceEventType type) {
  return first_time_of(trace, component, type,
                       [](const obs::TraceEvent&) { return true; });
}

/// Plain name -> value view of a counter registry, for equality checks.
inline std::map<std::string, std::uint64_t> counter_map(
    const obs::MetricRegistry& registry) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : registry.counters()) {
    out.emplace(name, counter.value());
  }
  return out;
}

/// Everything deterministic a traced run produced: every typed event
/// (time, component, type and all fields), the counters, the handover
/// records and the ground-truth series. Doubles are printed round-trip
/// exact, so equal fingerprints mean bit-identical runs.
inline std::string fingerprint(const core::ScenarioResult& r) {
  std::ostringstream oss;
  oss << std::setprecision(17);
  if (r.trace == nullptr) {
    ADD_FAILURE() << "fingerprint needs a run with collect_trace on";
  } else {
    for (std::size_t c = 0; c < obs::kComponentCount; ++c) {
      const auto component = static_cast<obs::Component>(c);
      for (const obs::TraceEvent& e : events_of(*r.trace, component)) {
        oss << e.t.ns() << '|' << obs::to_string(component) << '|'
            << obs::to_string(e.type) << '|' << e.cell << '|' << e.beam_a
            << '|' << e.beam_b << '|' << e.value << '|' << e.value2 << '|'
            << e.flag << '|' << e.label << '\n';
      }
    }
  }
  for (const auto& [name, value] : counter_map(r.counters)) {
    oss << name << '=' << value << '\n';
  }
  for (const auto& h : r.handovers) {
    oss << h.from << "->" << h.to << '@' << h.completed.ns() << ' '
        << h.success << h.rach_attempts << '\n';
  }
  oss << r.neighbour_tracked_rss_dbm.csv() << r.neighbour_best_rss_dbm.csv()
      << r.alignment_gap_db.csv() << r.serving_snr_db.csv();
  return oss.str();
}

}  // namespace st::test
