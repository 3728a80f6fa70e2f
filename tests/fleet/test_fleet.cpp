// The fleet engine: N mobiles against one shared deployment, sharded
// across a thread pool. The load-bearing contract is determinism — the
// parallel schedule must be bit-identical to the serial one, per UE —
// plus obs isolation (each UE owns its ring buffers) and faithful
// aggregation into the FleetReport.
#include "fleet/engine.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "core/scenario.hpp"
#include "support/trace_queries.hpp"

namespace st::fleet {
namespace {

using namespace st::sim::literals;
using test::fingerprint;

/// A heterogeneous fleet on the three-cell row (walk / rotation /
/// vehicular profiles cycling), short enough for the test budget.
core::ScenarioSpec fleet_spec(std::size_t n_ues, sim::Duration duration) {
  core::SpecBuilder builder;
  builder.cells(3).duration(duration).seed(1000);
  const core::UeProfile profiles[] = {core::preset::walking_ue(),
                                      core::preset::rotating_ue(),
                                      core::preset::vehicular_ue()};
  for (std::size_t i = 0; i < n_ues; ++i) {
    builder.ue(profiles[i % 3]);
  }
  return builder.build();
}

TEST(FleetEngine, SerialAndParallelSchedulesAreBitIdentical) {
  // The acceptance bar: a 64-UE fleet, serial vs a real pool, every UE's
  // realisation compared bit for bit.
  core::ScenarioSpec spec = fleet_spec(64, 1'000_ms);
  spec.collect_trace = true;
  const FleetResult serial = run_fleet(spec, 1);
  const FleetResult parallel = run_fleet(spec, 4);

  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(parallel.threads_used, 4u);
  ASSERT_EQ(serial.ue_count(), 64u);
  ASSERT_EQ(parallel.ue_count(), 64u);
  for (std::size_t ue = 0; ue < serial.ue_count(); ++ue) {
    EXPECT_EQ(fingerprint(serial.ue_results[ue]),
              fingerprint(parallel.ue_results[ue]))
        << "ue " << ue;
  }
  // Merged statistics (sums over per-UE runs) agree too; wall-clock
  // fields are the only non-deterministic content of a FleetResult.
  EXPECT_EQ(serial.engine.events_executed, parallel.engine.events_executed);
  EXPECT_EQ(serial.snapshot_cache.hits, parallel.snapshot_cache.hits);
  EXPECT_EQ(serial.snapshot_cache.refreshes, parallel.snapshot_cache.refreshes);
  EXPECT_EQ(serial.snapshot_cache.cold_misses,
            parallel.snapshot_cache.cold_misses);
  EXPECT_EQ(serial.ssb_observations, parallel.ssb_observations);
}

TEST(FleetEngine, GridFleetWithPolicyIsBitIdenticalToo) {
  // The multi-cell tentpole must not cost determinism: a 64-UE fleet on
  // the 3x3 grid with the neighbour-ranking policy enabled (static
  // per-cell load, rival scans, penalty timers) is still bit-identical
  // serial vs parallel.
  core::ScenarioSpec spec = core::preset::grid_walk();
  spec.duration = 1'000_ms;
  spec.seed = 1000;
  spec.ues.assign(64, spec.ues.front());
  spec.collect_trace = true;
  spec = core::SpecBuilder(std::move(spec)).build();
  const FleetResult serial = run_fleet(spec, 1);
  const FleetResult parallel = run_fleet(spec, 4);
  ASSERT_EQ(serial.ue_count(), 64u);
  ASSERT_EQ(parallel.ue_count(), 64u);
  for (std::size_t ue = 0; ue < serial.ue_count(); ++ue) {
    EXPECT_EQ(fingerprint(serial.ue_results[ue]),
              fingerprint(parallel.ue_results[ue]))
        << "ue " << ue;
  }
  EXPECT_EQ(serial.engine.events_executed, parallel.engine.events_executed);
  EXPECT_EQ(serial.ssb_observations, parallel.ssb_observations);
}

TEST(FleetEngine, RateLayerIsBitIdenticalSerialVsParallel) {
  // The rate layer's interference sum (grid_walk carries graded per-cell
  // load, so every sample folds in non-serving cells) and the fixed-order
  // RateStats merge must be bit-identical serial vs parallel on a 64-UE
  // multi-cell fleet — doubles compared exactly, not approximately.
  core::ScenarioSpec spec = core::preset::grid_walk();
  spec.duration = 1'000_ms;
  spec.seed = 1000;
  spec.ues.assign(64, spec.ues.front());
  spec = core::SpecBuilder(std::move(spec)).build();
  ASSERT_TRUE(spec.rate.enabled);

  const FleetResult serial = run_fleet(spec, 1);
  const FleetResult parallel = run_fleet(spec, 4);
  ASSERT_EQ(serial.ue_count(), 64u);
  for (std::size_t ue = 0; ue < serial.ue_count(); ++ue) {
    const rate::RateStats& a = serial.ue_results[ue].rate;
    const rate::RateStats& b = parallel.ue_results[ue].rate;
    EXPECT_EQ(a.samples, b.samples) << "ue " << ue;
    EXPECT_EQ(a.served_samples, b.served_samples) << "ue " << ue;
    EXPECT_EQ(a.bits, b.bits) << "ue " << ue;
    EXPECT_EQ(a.sum_sinr_db, b.sum_sinr_db) << "ue " << ue;
    EXPECT_EQ(a.sum_cqi, b.sum_cqi) << "ue " << ue;
    EXPECT_EQ(a.outage_events, b.outage_events) << "ue " << ue;
    EXPECT_EQ(a.outage_ms, b.outage_ms) << "ue " << ue;
    EXPECT_GT(a.samples, 0u) << "ue " << ue;
  }
  // The merged totals ride the same fixed-order reduction.
  EXPECT_EQ(serial.rate.bits, parallel.rate.bits);
  EXPECT_EQ(serial.rate.sum_sinr_db, parallel.rate.sum_sinr_db);
  EXPECT_EQ(serial.rate.outage_ms, parallel.rate.outage_ms);
  EXPECT_EQ(serial.rate.longest_outage_ms, parallel.rate.longest_outage_ms);

  // And the report surfaces them: per-UE rows plus fleet distributions.
  const obs::FleetReport report = build_fleet_report(spec, serial);
  EXPECT_TRUE(report.rate_enabled);
  ASSERT_EQ(report.ues.size(), 64u);
  EXPECT_GT(report.mean_throughput_mbps, 0.0);
  EXPECT_EQ(report.ues.front().throughput_mbps,
            serial.ue_results.front().rate.mean_throughput_mbps());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"throughput\""), std::string::npos);
  EXPECT_NE(json.find("\"outage\""), std::string::npos);
}

TEST(FleetEngine, SingleUeFleetMatchesRunScenario) {
  core::ScenarioSpec spec = core::preset::paper_walk();
  spec.duration = 2'000_ms;
  spec.seed = 1000;
  spec.collect_trace = true;
  const FleetResult fleet = run_fleet(spec);
  ASSERT_EQ(fleet.ue_count(), 1u);
  EXPECT_EQ(fingerprint(fleet.ue_results.front()),
            fingerprint(core::run_scenario(spec)));
}

TEST(FleetEngine, EmptyFleetIsRejected) {
  core::ScenarioSpec spec = core::preset::paper_walk();
  spec.ues.clear();
  EXPECT_THROW((void)run_fleet(spec), std::invalid_argument);
}

TEST(FleetEngine, TracedUesOwnPrivateRecorders) {
  // One TraceRecorder per mobile, never shared: every traced UE surfaces
  // its own ring buffers, at distinct addresses, each with events.
  core::ScenarioSpec spec = fleet_spec(6, 1'000_ms);
  spec.collect_trace = true;
  spec.trace_buffer_capacity = 1 << 8;
  const FleetResult result = run_fleet(spec, 3);

  std::set<const obs::TraceRecorder*> recorders;
  for (const core::ScenarioResult& ue_result : result.ue_results) {
    ASSERT_NE(ue_result.trace, nullptr);
    EXPECT_GT(ue_result.trace->total_events(), 0u);
    recorders.insert(ue_result.trace.get());
  }
  EXPECT_EQ(recorders.size(), result.ue_count());
}

TEST(FleetEngine, MergedStatsSumThePerUeRuns) {
  const core::ScenarioSpec spec = fleet_spec(5, 1'000_ms);
  const FleetResult result = run_fleet(spec, 2);

  std::uint64_t events = 0;
  std::uint64_t hits = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t cold = 0;
  std::uint64_t incremental = 0;
  std::uint64_t ssb = 0;
  double sim_seconds = 0.0;
  for (const core::ScenarioResult& ue_result : result.ue_results) {
    events += ue_result.engine.events_executed;
    hits += ue_result.snapshot_cache.hits;
    refreshes += ue_result.snapshot_cache.refreshes;
    cold += ue_result.snapshot_cache.cold_misses;
    incremental += ue_result.snapshot_cache.incremental_builds;
    ssb += ue_result.ssb_observations;
    sim_seconds += ue_result.engine.sim_seconds;
  }
  EXPECT_EQ(result.engine.events_executed, events);
  EXPECT_EQ(result.snapshot_cache.hits, hits);
  EXPECT_EQ(result.snapshot_cache.refreshes, refreshes);
  EXPECT_EQ(result.snapshot_cache.cold_misses, cold);
  EXPECT_EQ(result.snapshot_cache.incremental_builds, incremental);
  EXPECT_EQ(result.ssb_observations, ssb);
  EXPECT_DOUBLE_EQ(result.engine.sim_seconds, sim_seconds);
  EXPECT_GE(result.wall_seconds, 0.0);
}

TEST(FleetReport, AggregatesPerUeRowsAndTotals) {
  const core::ScenarioSpec spec = fleet_spec(6, 2'000_ms);
  const FleetResult result = run_fleet(spec, 2);
  const obs::FleetReport report = build_fleet_report(spec, result);

  EXPECT_EQ(report.schema, "silent-tracker/fleet-report/v1");
  EXPECT_EQ(report.seed, spec.seed);
  EXPECT_EQ(report.n_ues, 6u);
  EXPECT_EQ(report.n_cells, 3u);
  ASSERT_EQ(report.ues.size(), 6u);

  std::size_t handovers = 0;
  std::uint64_t ssb = 0;
  for (std::size_t ue = 0; ue < report.ues.size(); ++ue) {
    const obs::FleetUeReport& row = report.ues[ue];
    EXPECT_EQ(row.ue, ue);
    EXPECT_EQ(row.seed, core::fleet_ue_seed(spec.seed, ue));
    EXPECT_EQ(row.scenario,
              std::string(core::to_string(spec.ues[ue].mobility)));
    handovers += row.handovers_total;
    ssb += row.ssb_observations;
  }
  EXPECT_EQ(report.handovers_total, handovers);
  EXPECT_EQ(report.ssb_observations, ssb);
  EXPECT_EQ(report.ssb_observations, result.ssb_observations);

  // Rendering round-trips: the JSON carries the schema and one object per
  // UE; the human summary mentions the fleet size.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"silent-tracker/fleet-report/v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ues\""), std::string::npos);
  EXPECT_FALSE(report.summary_text().empty());
}

TEST(FleetReport, PerCellBlockCarriesLoadAndHandoverFlows) {
  // The multi-cell report surface: one row per cell with the configured
  // offered load, and in/out flows that sum to the fleet's successful
  // handovers on each side.
  core::ScenarioSpec spec = core::preset::grid_walk();
  spec.duration = 2'000_ms;
  spec.seed = 1000;
  spec.ues.assign(4, spec.ues.front());
  spec = core::SpecBuilder(std::move(spec)).build();
  const FleetResult result = run_fleet(spec, 2);
  const obs::FleetReport report = build_fleet_report(spec, result);

  ASSERT_EQ(report.per_cell.size(), spec.n_cells);
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  for (std::size_t cell = 0; cell < report.per_cell.size(); ++cell) {
    const obs::FleetCellReport& row = report.per_cell[cell];
    EXPECT_EQ(row.cell, cell);
    EXPECT_DOUBLE_EQ(row.load, spec.cell_load[cell]);
    in += row.handovers_in;
    out += row.handovers_out;
  }
  EXPECT_EQ(in, report.handovers_successful);
  EXPECT_EQ(out, report.handovers_successful);

  // The JSON rendering carries the block and the ping-pong aggregate.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"per_cell\""), std::string::npos);
  EXPECT_NE(json.find("\"ping_pong_rate\""), std::string::npos);
}

TEST(FleetReport, ReactiveUesContributeNoAlignmentSamples) {
  // The reactive baseline never tracks a neighbour, so its row keeps the
  // "no samples" sentinel and the alignment histogram only counts the
  // tracker UEs.
  core::SpecBuilder builder;
  core::UeProfile reactive = core::preset::walking_ue();
  reactive.protocol = core::ProtocolKind::kReactive;
  const core::ScenarioSpec spec = builder.cells(2)
                                      .duration(2'000_ms)
                                      .seed(1000)
                                      .ue(core::preset::walking_ue())
                                      .ue(reactive)
                                      .build();
  const FleetResult result = run_fleet(spec, 1);
  const obs::FleetReport report = build_fleet_report(spec, result);
  ASSERT_EQ(report.ues.size(), 2u);
  EXPECT_LT(report.ues[1].alignment_fraction, 0.0);
  EXPECT_LE(report.alignment_fraction.count, 1u);
}

}  // namespace
}  // namespace st::fleet
