// Concurrency stress for the ThreadSanitizer CI job.
//
// PRs 1–2 introduced the three concurrency surfaces of the codebase: the
// parallel batch runner (bench/bench_util.hpp), the thread-safe global
// Logger (atomic level + mutex-guarded sink), and the obs layer whose
// ownership model is one TraceRecorder per run, never shared across
// threads. These tests exist to give TSan *real interleavings* to chew
// on — they run under the plain build too (where they assert functional
// properties), but their reason to exist is `-fsanitize=thread`.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/logging.hpp"
#include "core/scenario.hpp"
#include "obs/trace.hpp"

namespace st {
namespace {

// ---- run_batch_parallel ---------------------------------------------------

core::ScenarioSpec short_spec() {
  return core::SpecBuilder(core::preset::paper_walk())
      .duration(sim::Duration::milliseconds(2'000))
      .build();
}

TEST(BatchRunnerStress, ParallelRunsMatchSerialUnderContention) {
  // More seeds than hardware threads so workers steal from the shared
  // atomic cursor repeatedly — the interleaving TSan needs to see.
  const std::vector<std::uint64_t> seeds = bench::seeds(12);
  const core::ScenarioSpec spec = short_spec();

  const bench::Aggregate serial = bench::run_batch(spec, seeds);
  const bench::Aggregate parallel = bench::run_batch_parallel(spec, seeds, 4);

  EXPECT_EQ(serial.handover_success.successes(),
            parallel.handover_success.successes());
  EXPECT_EQ(serial.handover_success.trials(),
            parallel.handover_success.trials());
  EXPECT_EQ(serial.interruption_ms.count(), parallel.interruption_ms.count());
}

TEST(BatchRunnerStress, TracedParallelRunsAreIsolated) {
  // collect_trace adds a per-run TraceRecorder, MetricRegistry and
  // dispatch-timing hook to every worker: the whole obs recording path
  // runs concurrently across threads, one recorder per run (the
  // documented ownership model — nothing is shared).
  core::ScenarioSpec spec = short_spec();
  spec.collect_trace = true;
  spec.trace_buffer_capacity = 1 << 10;

  const std::vector<std::uint64_t> seeds = bench::seeds(8);
  const bench::Aggregate parallel = bench::run_batch_parallel(spec, seeds, 4);
  const bench::Aggregate serial = bench::run_batch(spec, seeds);
  EXPECT_EQ(serial.handover_success.trials(),
            parallel.handover_success.trials());
}

TEST(BatchRunnerStress, OversubscribedPoolDrainsEverySeed) {
  // More workers than seeds: some workers find the cursor exhausted
  // immediately and exit — the short-lived-thread path. Every seed must
  // still be absorbed exactly once (bit-identical to serial).
  const std::vector<std::uint64_t> seeds = bench::seeds(3);
  const core::ScenarioSpec spec = short_spec();
  const bench::Aggregate parallel = bench::run_batch_parallel(spec, seeds, 16);
  const bench::Aggregate serial = bench::run_batch(spec, seeds);
  EXPECT_EQ(serial.handover_success.trials(),
            parallel.handover_success.trials());
  EXPECT_EQ(serial.alignment_fraction.count(),
            parallel.alignment_fraction.count());
}

// ---- Logger ---------------------------------------------------------------

TEST(LoggerStress, ConcurrentLoggingWithLevelAndSinkChurn) {
  Logger& logger = Logger::global();
  std::ostringstream sink_a;
  std::ostringstream sink_b;
  logger.set_sink(sink_a);
  logger.set_level(LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kMessagesPerThread = 500;
  std::atomic<bool> stop{false};

  // Churn thread: flips the level and swaps the sink while the writers
  // are logging — exactly the set_sink()/set_level() concurrency the
  // Logger documents as safe.
  std::thread churner([&] {
    bool use_a = false;
    while (!stop.load(std::memory_order_relaxed)) {
      logger.set_sink(use_a ? sink_a : sink_b);
      logger.set_level(use_a ? LogLevel::kInfo : LogLevel::kWarning);
      use_a = !use_a;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&logger, t] {
      for (int i = 0; i < kMessagesPerThread; ++i) {
        logger.info("stress", log_message("thread ", t, " message ", i));
        logger.warning("stress", log_message("warn ", t, ":", i));
        if (logger.enabled(LogLevel::kDebug)) {
          logger.debug("stress", "never emitted at these levels");
        }
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  stop.store(true, std::memory_order_relaxed);
  churner.join();

  // Restore the defaults other suites expect.
  logger.set_level(LogLevel::kWarning);

  // Concurrent log() calls serialise: every retained line is complete —
  // it carries the level tag, the component, and a trailing newline; no
  // interleaved half-lines.
  for (std::ostringstream* sink : {&sink_a, &sink_b}) {
    std::istringstream lines(sink->str());
    std::string line;
    while (std::getline(lines, line)) {
      EXPECT_EQ(line.front(), '[') << line;
      EXPECT_NE(line.find("stress: "), std::string::npos) << line;
    }
  }
  // At least the warnings always pass the level churn (kInfo or
  // kWarning both admit kWarning).
  std::string all = sink_a.str() + sink_b.str();
  EXPECT_NE(all.find("warn "), std::string::npos);
}

// ---- obs ring buffers -----------------------------------------------------

TEST(TraceBufferStress, PerThreadBuffersUnderConcurrentPushAndSnapshot) {
  // The obs ownership model: each run (thread) owns its recorder. Hammer
  // one wrapping ring per thread, snapshotting mid-stream, and verify
  // ordering and drop accounting per buffer.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kEvents = 20'000;
  constexpr std::size_t kCapacity = 256;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&failures] {
      obs::TraceBuffer ring(kCapacity);
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        ring.push({.t = sim::Time::zero() +
                        sim::Duration::nanoseconds(
                            static_cast<std::int64_t>(i)),
                   .type = obs::TraceEventType::kRssSample,
                   .value = static_cast<double>(i)});
        if (i == kEvents / 2) {
          const std::vector<obs::TraceEvent> mid = ring.snapshot();
          if (mid.size() != kCapacity) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      const std::vector<obs::TraceEvent> snap = ring.snapshot();
      if (snap.size() != kCapacity ||
          ring.pushed() != kEvents ||
          ring.dropped() != kEvents - kCapacity) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Oldest-first, consecutive.
      for (std::size_t i = 1; i < snap.size(); ++i) {
        if (snap[i].value != snap[i - 1].value + 1.0) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(EmitterStress, ConcurrentEmittersFanOutToPrivateSinks) {
  // One Emitter + both sinks per thread (recorder, counter registry)
  // emitting concurrently — the per-run fan-out the parallel batch runner
  // executes, with the shared global Logger alive next to it.
  constexpr int kThreads = 6;
  constexpr std::uint64_t kEvents = 5'000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&failures] {
      obs::TraceRecorder recorder({.buffer_capacity = 1 << 8});
      obs::MetricRegistry counters;
      obs::Emitter emit{obs::Component::kSilentTracker, &recorder, &counters};
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        emit.emit({.t = sim::Time::zero() +
                        sim::Duration::nanoseconds(
                            static_cast<std::int64_t>(i)),
                   .type = obs::TraceEventType::kStateTransition,
                   .label = "Tracking"});
        emit.count("stress_events");
      }
      if (recorder.total_events() != kEvents ||
          counters.counter_value("stress_events") != kEvents) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace st
