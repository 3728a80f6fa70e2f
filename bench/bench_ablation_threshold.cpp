// E5 — ablation of the 3 dB switching threshold.
//
// Both protocols switch to a directionally adjacent beam "when the RSS
// drops by 3 dB". This harness sweeps that threshold (1–10 dB) on the
// walk and rotation scenarios and reports tracking alignment, switch
// counts (protocol churn), and handover outcomes.
//
// Expected shape: small thresholds thrash (every noise wiggle triggers a
// probe burst, burning measurement slots), large thresholds react too
// late (alignment and completion suffer); ~3 dB sits at the knee — which
// is also half-power, i.e. "the beam has drifted to its -3 dB contour,
// exactly one beamwidth of motion".
#include <iostream>

#include "bench_util.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

}  // namespace

int main(int argc, char** argv) {
  const st::bench::ObsOptions obs = st::bench::consume_obs_options(argc, argv);
  const st::bench::SpecOptions spec_options =
      st::bench::consume_spec_options(argc, argv);
  st::bench::reject_unknown_options(argc, argv, "bench_ablation_threshold");

  st::bench::print_header(
      "E5: switching-threshold ablation (the paper's 3 dB rule)",
      "§3 design choice — adjacent-beam switch on a 3 dB drop");

  const auto run_seeds = st::bench::seeds(12);
  const std::vector<st::bench::LabelledSpec> axis = st::bench::scenario_axis(
      spec_options,
      {core::MobilityScenario::kHumanWalk, core::MobilityScenario::kRotation},
      20'000);

  Table table({"scenario", "threshold dB", "time aligned %",
               "rx switches / run", "drops / run", "handover success [CI]",
               "soft [CI]"});

  for (const st::bench::LabelledSpec& scenario : axis) {
    for (const double threshold : {1.0, 2.0, 3.0, 5.0, 8.0, 10.0}) {
      core::ScenarioSpec spec = scenario.spec;
      for (core::UeProfile& ue : spec.ues) {
        ue.tracker.neighbour_tracker.drop_threshold_db = threshold;
        ue.tracker.beamsurfer.tracker.drop_threshold_db = threshold;
      }

      st::bench::Aggregate agg;
      RunningStats switches;
      RunningStats drops;
      for (const std::uint64_t seed : run_seeds) {
        spec.seed = seed;
        const core::ScenarioResult result = core::run_scenario(spec);
        agg.absorb(result);
        switches.add(static_cast<double>(
            result.counters.counter_value("neighbour_rx_switches") +
            result.counters.counter_value("serving_rx_switches")));
        drops.add(static_cast<double>(
            result.counters.counter_value("neighbour_drop_events") +
            result.counters.counter_value("serving_drop_events")));
      }

      table.row()
          .cell(scenario.label)
          .cell(threshold, 1)
          .cell(100.0 * agg.alignment_fraction.mean(), 1)
          .cell(switches.mean(), 1)
          .cell(drops.mean(), 1)
          .cell(st::bench::rate_with_ci(agg.handover_success))
          .cell(st::bench::rate_with_ci(agg.soft_fraction));
    }
  }
  table.print(std::cout);

  std::cout << "\nShape check: switch churn falls monotonically with the "
               "threshold; alignment degrades once the threshold exceeds "
               "the beam overlap depth. 3 dB sits at the knee.\n";
  return st::bench::write_observability(obs, axis.front().spec) ? 0 : 1;
}
