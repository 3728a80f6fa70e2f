// Trace layer: ring-buffer bounds, export tags, and the Emitter's two
// sinks (typed events to the recorder, counts to the run's registry).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace {

using namespace st;
using obs::Component;
using obs::TraceEvent;
using obs::TraceEventType;

sim::Time at_ms(std::int64_t ms) {
  return sim::Time::zero() + sim::Duration::milliseconds(ms);
}

TEST(TraceBuffer, RetainsEverythingBelowCapacity) {
  obs::TraceBuffer buffer(8);
  for (int i = 0; i < 5; ++i) {
    buffer.push({.t = at_ms(i), .value = static_cast<double>(i)});
  }
  EXPECT_EQ(buffer.size(), 5u);
  EXPECT_EQ(buffer.pushed(), 5u);
  EXPECT_EQ(buffer.dropped(), 0u);
  const auto events = buffer.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].t, at_ms(i));
  }
}

TEST(TraceBuffer, DropsOldestWhenFullAndCountsDrops) {
  obs::TraceBuffer buffer(4);
  for (int i = 0; i < 10; ++i) {
    buffer.push({.t = at_ms(i)});
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.pushed(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);
  // Snapshot holds the newest four, oldest first.
  const auto events = buffer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].t, at_ms(6 + i));
  }
}

TEST(TraceBuffer, ZeroCapacityIsClampedToOne) {
  obs::TraceBuffer buffer(0);
  EXPECT_EQ(buffer.capacity(), 1u);
  buffer.push({.t = at_ms(1)});
  buffer.push({.t = at_ms(2)});
  const auto events = buffer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, at_ms(2));
}

TEST(TraceRecorder, RoutesEventsToPerComponentBuffers) {
  obs::TraceRecorder recorder(obs::TraceConfig{16});
  recorder.record(Component::kBeamSurfer, {.t = at_ms(1)});
  recorder.record(Component::kBeamSurfer, {.t = at_ms(2)});
  recorder.record(Component::kRach, {.t = at_ms(3)});
  EXPECT_EQ(recorder.buffer(Component::kBeamSurfer).size(), 2u);
  EXPECT_EQ(recorder.buffer(Component::kRach).size(), 1u);
  EXPECT_EQ(recorder.buffer(Component::kSilentTracker).size(), 0u);
  EXPECT_EQ(recorder.total_events(), 3u);
  EXPECT_EQ(recorder.total_dropped(), 0u);
}

TEST(TraceStrings, ComponentTags) {
  EXPECT_EQ(obs::to_string(Component::kSilentTracker), "silent_tracker");
  EXPECT_EQ(obs::to_string(Component::kBeamSurfer), "beamsurfer");
  EXPECT_EQ(obs::to_string(Component::kReactive), "reactive");
  EXPECT_EQ(obs::to_string(Component::kCellSearch), "cell_search");
  EXPECT_EQ(obs::to_string(Component::kRach), "rach");
  EXPECT_EQ(obs::to_string(Component::kLinkMonitor), "link_monitor");
  EXPECT_EQ(obs::to_string(Component::kScenario), "scenario");
  EXPECT_EQ(obs::to_string(Component::kEngine), "engine");
}

TEST(Emitter, AllSinksNullIsANoOp) {
  obs::Emitter emitter{Component::kBeamSurfer};
  EXPECT_FALSE(emitter.tracing());
  emitter.emit({.t = at_ms(1), .type = TraceEventType::kRecoverySweep});
  emitter.count("switches");  // must not crash
}

TEST(Emitter, EmitRecordsTheTypedEventInItsComponentBuffer) {
  obs::TraceRecorder recorder;
  obs::Emitter emitter{Component::kBeamSurfer, &recorder};
  EXPECT_TRUE(emitter.tracing());

  emitter.emit({.t = at_ms(5),
                .type = TraceEventType::kRxBeamSwitch,
                .beam_a = 3,
                .beam_b = 4,
                .value = -71.25});

  const auto events = recorder.buffer(Component::kBeamSurfer).snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, at_ms(5));
  EXPECT_EQ(events[0].type, TraceEventType::kRxBeamSwitch);
  EXPECT_EQ(events[0].beam_a, 3);
  EXPECT_EQ(events[0].beam_b, 4);
  EXPECT_EQ(events[0].value, -71.25);
  EXPECT_EQ(recorder.total_events(), 1u);
}

TEST(Emitter, CountBumpsOneUnqualifiedRegistryCounter) {
  obs::TraceRecorder recorder;
  obs::MetricRegistry counters;
  obs::Emitter emitter{Component::kSilentTracker, &recorder, &counters};
  emitter.count("rach_failures");
  emitter.count("rach_failures", 2);
  EXPECT_EQ(counters.counter_value("rach_failures"), 3u);
  EXPECT_EQ(counters.counters().size(), 1u);
  // Counting never writes into the trace's own registry.
  EXPECT_TRUE(recorder.metrics().counters().empty());
}

TEST(Emitter, CountWorksWithoutARecorder) {
  obs::MetricRegistry counters;
  obs::Emitter emitter{Component::kBeamSurfer, nullptr, &counters};
  EXPECT_FALSE(emitter.tracing());
  emitter.emit({.t = at_ms(1), .type = TraceEventType::kRecoverySweep});
  emitter.count("switches");
  EXPECT_EQ(counters.counter_value("switches"), 1u);
}

}  // namespace
