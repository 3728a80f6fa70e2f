// run_batch_parallel must be indistinguishable from the serial run_batch:
// each scenario run is a pure function of (spec, seed) and the parallel
// runner absorbs the per-run results in seed order, so every Aggregate
// field — counts and raw samples alike — must be bit-identical. The
// bench binaries all route through the parallel runner, so this test is
// what keeps their printed tables byte-stable regardless of thread count.
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/scenario.hpp"

namespace st::bench {
namespace {

core::ScenarioSpec short_spec() {
  core::ScenarioSpec spec = core::SpecBuilder(core::preset::paper_walk())
                                .duration(sim::Duration::milliseconds(2'000))
                                .build();
  // The rate layer is observer-only; on, it gives Aggregate::rate
  // something to compare.
  spec.rate.enabled = true;
  return spec;
}

void expect_identical(const SuccessRate& a, const SuccessRate& b) {
  EXPECT_EQ(a.trials(), b.trials());
  EXPECT_EQ(a.successes(), b.successes());
}

void expect_identical(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    // Bit-identical, not approximately equal: same runs, same order.
    EXPECT_EQ(a.samples()[i], b.samples()[i]) << "sample " << i;
  }
}

void expect_identical(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_identical(const rate::RateStats& a, const rate::RateStats& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.served_samples, b.served_samples);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.sum_sinr_db, b.sum_sinr_db);
  EXPECT_EQ(a.sum_cqi, b.sum_cqi);
  EXPECT_EQ(a.duration_ms, b.duration_ms);
  EXPECT_EQ(a.outage_events, b.outage_events);
  EXPECT_EQ(a.outage_ms, b.outage_ms);
  EXPECT_EQ(a.longest_outage_ms, b.longest_outage_ms);
}

void expect_identical(const Aggregate& a, const Aggregate& b) {
  expect_identical(a.handover_success, b.handover_success);
  expect_identical(a.soft_fraction, b.soft_fraction);
  expect_identical(a.aligned_at_completion, b.aligned_at_completion);
  expect_identical(a.interruption_ms, b.interruption_ms);
  expect_identical(a.alignment_fraction, b.alignment_fraction);
  expect_identical(a.rach_attempts, b.rach_attempts);
  expect_identical(a.rx_switches, b.rx_switches);
  expect_identical(a.drop_events, b.drop_events);
  expect_identical(a.ssb_observations, b.ssb_observations);
  expect_identical(a.rate, b.rate);
}

TEST(RunBatchParallel, BitIdenticalToSerial) {
  const core::ScenarioSpec spec = short_spec();
  const std::vector<std::uint64_t> run_seeds = seeds(5);
  const Aggregate serial = run_batch(spec, run_seeds);
  // Force a real pool: the CI container may report one hardware thread,
  // which would silently select the serial fallback.
  const Aggregate parallel = run_batch_parallel(spec, run_seeds, 4);
  expect_identical(serial, parallel);
}

TEST(RunBatchParallel, MoreThreadsThanSeedsStillIdentical) {
  const core::ScenarioSpec spec = short_spec();
  const std::vector<std::uint64_t> run_seeds = seeds(2);
  expect_identical(run_batch(spec, run_seeds),
                   run_batch_parallel(spec, run_seeds, 8));
}

TEST(RunBatchParallel, SingleThreadFallsBackToSerial) {
  const core::ScenarioSpec spec = short_spec();
  const std::vector<std::uint64_t> run_seeds = seeds(3);
  expect_identical(run_batch(spec, run_seeds),
                   run_batch_parallel(spec, run_seeds, 1));
}

TEST(RunBatchParallel, RepeatedParallelRunsAreDeterministic) {
  const core::ScenarioSpec spec = short_spec();
  const std::vector<std::uint64_t> run_seeds = seeds(4);
  expect_identical(run_batch_parallel(spec, run_seeds, 3),
                   run_batch_parallel(spec, run_seeds, 4));
}

}  // namespace
}  // namespace st::bench
