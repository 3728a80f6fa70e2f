// E9 — mobile codebook beamwidth sweep (extension bridging Fig. 2a and
// Fig. 2c).
//
// Fig. 2a varies the mobile's beamwidth for *search*; this sweep carries
// the same axis through the whole protocol: narrower beams buy link
// budget (better detection, better cell-edge SNR) but cost sweep time
// (more beams to search) and tracking agility (boundaries crossed more
// often under the same motion). The paper's 20° choice sits where the
// budget gain still dominates.
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
  st::bench::reject_unknown_options(argc, argv, "bench_ablation_beamwidth");

  st::bench::print_header(
      "E9: mobile beamwidth sweep across the full protocol",
      "extension — Fig. 2a's codebook axis carried through tracking and "
      "handover");

  const auto run_seeds = st::bench::seeds(12);
  const std::vector<st::bench::LabelledSpec> axis = st::bench::scenario_axis(
      spec_options,
      {core::MobilityScenario::kHumanWalk, core::MobilityScenario::kRotation},
      20'000);

  Table table({"scenario", "codebook", "time aligned %",
               "handover success [CI]", "soft [CI]", "interruption p50 ms",
               "rx switches/run"});

  for (const st::bench::LabelledSpec& scenario : axis) {
    for (const double beamwidth : {10.0, 15.0, 20.0, 30.0, 45.0, 60.0, 0.0}) {
      core::ScenarioSpec spec = scenario.spec;
      for (core::UeProfile& ue : spec.ues) {
        ue.ue_beamwidth_deg = beamwidth;
      }

      st::bench::Aggregate agg;
      RunningStats switches;
      for (const std::uint64_t seed : run_seeds) {
        spec.seed = seed;
        const core::ScenarioResult result = core::run_scenario(spec);
        agg.absorb(result);
        switches.add(static_cast<double>(
            result.counters.counter_value("neighbour_rx_switches") +
            result.counters.counter_value("serving_rx_switches")));
      }

      table.row()
          .cell(scenario.label)
          .cell(core::make_ue_codebook(beamwidth).description())
          .cell(agg.alignment_fraction.empty()
                    ? std::string("-")
                    : format_double(100.0 * agg.alignment_fraction.mean(), 1))
          .cell(st::bench::rate_with_ci(agg.handover_success))
          .cell(st::bench::rate_with_ci(agg.soft_fraction))
          .cell(agg.interruption_ms.empty()
                    ? std::string("-")
                    : format_double(agg.interruption_ms.median(), 1))
          .cell(switches.mean(), 1);
    }
  }
  table.print(std::cout);

  std::cout << "\nShape check: very narrow beams switch constantly (and "
               "suffer under rotation); wide beams and omni lose the link "
               "budget that cell-edge operation needs. The paper's 20 deg "
               "sits in the broad middle.\n";
  return st::bench::write_observability(obs, axis.front().spec) ? 0 : 1;
}
