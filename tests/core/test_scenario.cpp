#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include "core/scenario_spec.hpp"
#include "support/trace_queries.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;
using test::counter_map;

ScenarioSpec quick_spec() {
  return SpecBuilder(preset::paper_walk()).duration(10'000_ms).seed(7).build();
}

TEST(Scenario, CodebookFactory) {
  EXPECT_EQ(make_ue_codebook(20.0).size(), 18U);
  EXPECT_EQ(make_ue_codebook(60.0).size(), 6U);
  EXPECT_TRUE(make_ue_codebook(0.0).is_omni());
  EXPECT_TRUE(make_ue_codebook(-1.0).is_omni());
}

TEST(Scenario, MobilityFactoryMatchesScenario) {
  const ScenarioSpec spec = quick_spec();
  const net::Deployment d = make_deployment(spec);

  EXPECT_NEAR(make_mobility(spec, preset::walking_ue(), spec.seed, d)
                  ->speed_at(sim::Time::zero()),
              1.4, 1e-9);
  EXPECT_DOUBLE_EQ(make_mobility(spec, preset::rotating_ue(), spec.seed, d)
                       ->speed_at(sim::Time::zero()),
                   0.0);
  EXPECT_NEAR(make_mobility(spec, preset::vehicular_ue(), spec.seed, d)
                  ->speed_at(sim::Time::zero()),
              8.9408, 1e-4);
}

TEST(Scenario, RunProducesMetrics) {
  const ScenarioResult r = run_scenario(quick_spec());
  EXPECT_FALSE(r.serving_snr_db.empty());
  EXPECT_FALSE(r.counters.counters().empty());
  // Tracking metrics appear once a neighbour was found.
  EXPECT_FALSE(r.alignment_gap_db.empty());
  EXPECT_EQ(r.alignment_gap_db.size(), r.neighbour_tracked_rss_dbm.size());
  EXPECT_EQ(r.alignment_gap_db.size(), r.neighbour_best_rss_dbm.size());
}

TEST(Scenario, AlignmentGapIsBestMinusTracked) {
  const ScenarioResult r = run_scenario(quick_spec());
  const auto gaps = r.alignment_gap_db.points();
  const auto best = r.neighbour_best_rss_dbm.points();
  const auto tracked = r.neighbour_tracked_rss_dbm.points();
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    EXPECT_NEAR(gaps[i].value, best[i].value - tracked[i].value, 1e-9);
    EXPECT_GE(gaps[i].value, -1e-9);  // best is best
  }
}

TEST(Scenario, DeterministicForSameSeed) {
  const ScenarioResult a = run_scenario(quick_spec());
  const ScenarioResult b = run_scenario(quick_spec());
  ASSERT_EQ(a.handovers.size(), b.handovers.size());
  for (std::size_t i = 0; i < a.handovers.size(); ++i) {
    EXPECT_EQ(a.handovers[i].completed.ns(), b.handovers[i].completed.ns());
    EXPECT_EQ(a.handovers[i].final_rx_beam, b.handovers[i].final_rx_beam);
  }
  EXPECT_EQ(counter_map(a.counters), counter_map(b.counters));
  EXPECT_EQ(a.engine.events_executed, b.engine.events_executed);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const ScenarioResult a = run_scenario(quick_spec());
  const ScenarioResult b =
      run_scenario(SpecBuilder(quick_spec()).seed(8).build());
  // Some observable must differ (channel realisation changed).
  const bool same_handovers =
      a.handovers.size() == b.handovers.size() &&
      (a.handovers.empty() ||
       a.handovers[0].completed.ns() == b.handovers[0].completed.ns());
  const bool same_counters = counter_map(a.counters) == counter_map(b.counters);
  EXPECT_FALSE(same_handovers && same_counters);
}

TEST(Scenario, ReactiveProtocolRuns) {
  UeProfile reactive = preset::walking_ue();
  reactive.protocol = ProtocolKind::kReactive;
  const ScenarioSpec spec =
      SpecBuilder().duration(15'000_ms).seed(7).ue(reactive).build();
  const ScenarioResult r = run_scenario(spec);
  EXPECT_FALSE(r.serving_snr_db.empty());
  // Reactive never tracks a neighbour.
  EXPECT_TRUE(r.alignment_gap_db.empty());
  for (const auto& h : r.handovers) {
    EXPECT_EQ(h.type, net::HandoverType::kHard);
  }
}

TEST(Scenario, SummariesCountCorrectly) {
  ScenarioResult r;
  net::HandoverRecord soft;
  soft.type = net::HandoverType::kSoft;
  soft.success = true;
  soft.beam_aligned_at_completion = true;
  net::HandoverRecord hard;
  hard.type = net::HandoverType::kHard;
  hard.success = true;
  hard.beam_aligned_at_completion = false;
  net::HandoverRecord failed;
  failed.type = net::HandoverType::kHard;
  failed.success = false;
  r.handovers = {soft, hard, failed};
  EXPECT_EQ(r.soft_handovers(), 1U);
  EXPECT_EQ(r.hard_handovers(), 2U);
  EXPECT_EQ(r.successful_handovers(), 2U);
  EXPECT_FALSE(r.all_handovers_aligned());
  r.handovers = {soft, failed};
  EXPECT_TRUE(r.all_handovers_aligned());
}

TEST(Scenario, NamesForDisplay) {
  EXPECT_EQ(to_string(MobilityScenario::kHumanWalk), "human_walk");
  EXPECT_EQ(to_string(MobilityScenario::kRotation), "rotation");
  EXPECT_EQ(to_string(MobilityScenario::kVehicular), "vehicular");
  EXPECT_EQ(to_string(ProtocolKind::kSilentTracker), "silent_tracker");
  EXPECT_EQ(to_string(ProtocolKind::kReactive), "reactive");
}

TEST(Scenario, MeasurementBudgetIsCounted) {
  const ScenarioResult r = run_scenario(quick_spec());
  // A 10 s run with 20 ms bursts makes hundreds of SSB observations at
  // minimum (serving maintenance alone samples every burst).
  EXPECT_GT(r.ssb_observations, 300U);
  // And reactive — which never measures neighbours — spends less.
  UeProfile profile = preset::walking_ue();
  profile.protocol = ProtocolKind::kReactive;
  const ScenarioResult rr = run_scenario(
      SpecBuilder().duration(10'000_ms).seed(7).ue(profile).build());
  EXPECT_LT(rr.ssb_observations, r.ssb_observations);
}

TEST(Scenario, UlaCodebookFlagChangesCodebook) {
  EXPECT_EQ(make_ue_codebook(20.0, false).size(), 18U);
  // The physical array that meets 20 deg has its own (narrower) achieved
  // beamwidth and hence its own beam count.
  const phy::Codebook ula = make_ue_codebook(20.0, true);
  EXPECT_NE(ula.size(), 18U);
  EXPECT_TRUE(make_ue_codebook(0.0, true).is_omni());

  UeProfile profile = preset::walking_ue();
  profile.ue_ula_codebook = true;
  const ScenarioSpec spec =
      SpecBuilder().duration(10'000_ms).seed(7).ue(profile).build();
  const ScenarioResult r = run_scenario(spec);
  EXPECT_FALSE(r.counters.counters().empty());
}

TEST(Scenario, AlignmentUntilFirstHandoverStopsAtCompletion) {
  ScenarioResult r;
  net::HandoverRecord h;
  h.success = true;
  h.completed = sim::Time::zero() + 1000_ms;
  r.handovers.push_back(h);
  // Aligned before the handover, catastrophic after: the paper metric
  // must only see the former.
  for (int ms = 0; ms <= 900; ms += 100) {
    r.alignment_gap_db.record(
        sim::Time::zero() + sim::Duration::milliseconds(ms), 1.0);
  }
  for (int ms = 1100; ms <= 2000; ms += 100) {
    r.alignment_gap_db.record(
        sim::Time::zero() + sim::Duration::milliseconds(ms), 20.0);
  }
  EXPECT_DOUBLE_EQ(r.alignment_until_first_handover(), 1.0);
  EXPECT_LT(r.tracking_alignment_fraction(), 0.6);
}

TEST(Scenario, AlignmentUntilFirstHandoverFallsBackWithoutHandover) {
  ScenarioResult r;
  r.alignment_gap_db.record(sim::Time::zero(), 1.0);
  r.alignment_gap_db.record(sim::Time::zero() + 100_ms, 10.0);
  EXPECT_DOUBLE_EQ(r.alignment_until_first_handover(),
                   r.tracking_alignment_fraction());
}

TEST(Scenario, RotationDeploymentScaleChangesRealisation) {
  // The rotation preset encodes its tighter geometry explicitly in the
  // spec's deployment; a different inter-site distance must change the
  // realisation.
  const ScenarioSpec a = SpecBuilder(preset::paper_rotation())
                             .duration(10'000_ms)
                             .seed(7)
                             .collect_trace()
                             .build();
  net::DeploymentConfig tighter = a.deployment;
  tighter.inter_site_m = 30.0;
  const ScenarioSpec b = SpecBuilder(a).deployment(tighter).build();
  EXPECT_NE(test::fingerprint(run_scenario(a)),
            test::fingerprint(run_scenario(b)));
}

TEST(Scenario, OmniConfigurationRuns) {
  UeProfile profile = preset::walking_ue();
  profile.ue_beamwidth_deg = 0.0;
  const ScenarioSpec spec =
      SpecBuilder().duration(10'000_ms).seed(7).ue(profile).build();
  const ScenarioResult r = run_scenario(spec);
  EXPECT_FALSE(r.counters.counters().empty());
}

TEST(Scenario, VehicularThreeCellsChainsHandovers) {
  const ScenarioSpec spec = SpecBuilder(preset::paper_vehicular())
                                .duration(20'000_ms)
                                .seed(7)
                                .build();
  const ScenarioResult r = run_scenario(spec);
  // Driving past three cells at 20 mph should produce at least one
  // completed handover.
  EXPECT_GE(r.successful_handovers(), 1U);
}

TEST(Scenario, EngineAndCacheStatsAlwaysPopulated) {
  // Even without collect_trace, the run carries engine and snapshot-cache
  // statistics (they are maintained unconditionally).
  const ScenarioResult r = run_scenario(quick_spec());
  EXPECT_EQ(r.trace, nullptr);
  EXPECT_GT(r.engine.events_executed, 100u);
  EXPECT_GT(r.engine.queue_depth_hwm, 0u);
  EXPECT_NEAR(r.engine.sim_seconds, 10.0, 1e-9);
  EXPECT_GT(r.snapshot_cache.hits + r.snapshot_cache.rebuilds(), 0u);
  EXPECT_GT(r.snapshot_cache.pair_sweeps, 0u);
}

TEST(Scenario, CollectTracePopulatesRecorder) {
  const ScenarioSpec spec = SpecBuilder(quick_spec()).collect_trace().build();
  const ScenarioResult r = run_scenario(spec);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->total_events(), 0u);
  // The tracker narrates state transitions from t=0 (Searching).
  EXPECT_FALSE(r.trace->buffer(obs::Component::kSilentTracker).empty());
  // Engine dispatch timing flows into the registry histogram.
  const LogLinearHistogram* dispatch =
      r.trace->metrics().find_histogram("engine.dispatch_us");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->count(), r.engine.events_executed);
  // End-of-run gauges are recorded for the report.
  EXPECT_GT(r.trace->metrics().gauges().count("engine.queue_depth_hwm"), 0u);
}

TEST(Scenario, TraceBufferCapacityIsRespected) {
  const ScenarioSpec spec = SpecBuilder(quick_spec())
                                .collect_trace()
                                .trace_buffer_capacity(4)
                                .build();
  const ScenarioResult r = run_scenario(spec);
  ASSERT_NE(r.trace, nullptr);
  for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
    EXPECT_LE(r.trace->buffer(static_cast<obs::Component>(i)).size(), 4u);
  }
  // A 10 s run emits far more than 4 events somewhere, so drops count up.
  EXPECT_GT(r.trace->total_dropped(), 0u);
  EXPECT_EQ(r.trace->total_events() - r.trace->total_dropped(),
            r.trace->buffer(obs::Component::kSilentTracker).size() +
                r.trace->buffer(obs::Component::kBeamSurfer).size() +
                r.trace->buffer(obs::Component::kReactive).size() +
                r.trace->buffer(obs::Component::kCellSearch).size() +
                r.trace->buffer(obs::Component::kRach).size() +
                r.trace->buffer(obs::Component::kLinkMonitor).size() +
                r.trace->buffer(obs::Component::kScenario).size() +
                r.trace->buffer(obs::Component::kEngine).size());
}

TEST(Scenario, TracingDoesNotPerturbTheRun) {
  // The observability layer must be read-only with respect to protocol
  // behaviour: same seed with and without tracing gives identical
  // counters, handover outcomes, series and event counts.
  const ScenarioResult a = run_scenario(quick_spec());
  const ScenarioResult b =
      run_scenario(SpecBuilder(quick_spec()).collect_trace().build());

  EXPECT_EQ(counter_map(a.counters), counter_map(b.counters));
  ASSERT_EQ(a.handovers.size(), b.handovers.size());
  for (std::size_t i = 0; i < a.handovers.size(); ++i) {
    EXPECT_EQ(a.handovers[i].completed.ns(), b.handovers[i].completed.ns());
    EXPECT_EQ(a.handovers[i].to, b.handovers[i].to);
    EXPECT_EQ(a.handovers[i].final_rx_beam, b.handovers[i].final_rx_beam);
  }
  EXPECT_EQ(a.neighbour_tracked_rss_dbm.csv(),
            b.neighbour_tracked_rss_dbm.csv());
  EXPECT_EQ(a.neighbour_best_rss_dbm.csv(), b.neighbour_best_rss_dbm.csv());
  EXPECT_EQ(a.alignment_gap_db.csv(), b.alignment_gap_db.csv());
  EXPECT_EQ(a.serving_snr_db.csv(), b.serving_snr_db.csv());
  EXPECT_EQ(a.engine.events_executed, b.engine.events_executed);
}

TEST(Scenario, BuildRunReportEchoesScenarioAndResults) {
  const ScenarioSpec spec = SpecBuilder(quick_spec()).collect_trace().build();
  const ScenarioResult r = run_scenario(spec);
  const obs::RunReport report = build_run_report(spec, r);

  EXPECT_EQ(report.schema, "silent-tracker/run-report/v1");
  EXPECT_EQ(report.scenario, "human_walk");
  EXPECT_EQ(report.protocol, "silent_tracker");
  EXPECT_EQ(report.seed, 7u);
  EXPECT_DOUBLE_EQ(report.duration_ms, 10000.0);
  EXPECT_EQ(report.n_cells, 2u);
  EXPECT_EQ(report.handover.total, r.handovers.size());
  EXPECT_EQ(report.handover.successful, r.successful_handovers());
  EXPECT_EQ(report.engine.events_executed, r.engine.events_executed);
  EXPECT_EQ(report.snapshot_cache.hits, r.snapshot_cache.hits);
  EXPECT_DOUBLE_EQ(report.snapshot_cache.hit_rate,
                   r.snapshot_cache.hit_rate());
  EXPECT_EQ(report.counters, counter_map(r.counters));
  EXPECT_EQ(report.trace_events, r.trace->total_events());
  // The engine dispatch digest always exists when tracing was on.
  EXPECT_GT(report.latencies.count("engine.dispatch_us"), 0u);
  // And the JSON document serialises without blowing up.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\""), std::string::npos);
}

TEST(Scenario, BuildRunReportWithoutTraceOmitsTraceSections) {
  const ScenarioSpec spec = quick_spec();
  const ScenarioResult r = run_scenario(spec);
  const obs::RunReport report = build_run_report(spec, r);
  EXPECT_EQ(report.trace_events, 0u);
  EXPECT_TRUE(report.latencies.empty());
  EXPECT_TRUE(report.gauges.empty());
  // Non-trace material is still filled in.
  EXPECT_GT(report.engine.events_executed, 0u);
  EXPECT_FALSE(report.counters.empty());
}

}  // namespace
}  // namespace st::core
