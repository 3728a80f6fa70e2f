// Vehicular scenario: a 20 mph drive past a row of three roadside cells,
// with Silent Tracker chaining soft handovers cell to cell. Prints each
// handover as the drive progresses and closing statistics — the mobility
// case where handover *frequency* matters (the paper cites [8]: mm-wave
// handoff rates at vehicular speeds are high because cells are small).
//
//   ./vehicular_handover [seed]
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "core/scenario.hpp"

int main(int argc, char** argv) {
  using namespace st;
  using namespace st::sim::literals;

  const core::ScenarioSpec spec =
      core::SpecBuilder(core::preset::paper_vehicular())
          .duration(20'000_ms)
          .collect_trace(true)  // feeds the run-report summary below
          .seed(argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11)
          .build();
  const core::UeProfile& ue = spec.ues.front();

  const double speed = mph_to_mps(ue.vehicle_speed_mph);
  std::cout << "Vehicular drive: 3 cells at x = 0, 60, 120 m; corridor at "
               "y = 10 m;\nspeed "
            << ue.vehicle_speed_mph << " mph (" << format_double(speed, 2)
            << " m/s), " << spec.duration.seconds() << " s of driving.\n\n";

  const core::ScenarioResult result = core::run_scenario(spec);

  std::cout << "--- handovers along the road ---\n";
  for (const auto& h : result.handovers) {
    const double x = -24.0 + speed * h.completed.seconds();
    std::cout << "  t=" << sim::to_string(h.completed) << "  x~"
              << format_double(x, 0) << " m  cell " << h.from << " -> "
              << h.to << "  "
              << (h.type == net::HandoverType::kSoft ? "soft" : "hard")
              << (h.success ? "" : " (FAILED)") << "  interruption "
              << sim::to_string(h.interruption()) << '\n';
  }

  const obs::MetricRegistry& counters = result.counters;
  std::size_t soft = result.soft_handovers();
  std::size_t ok = result.successful_handovers();
  std::cout << "\n--- closing statistics ---\n"
            << "  completed handovers : " << ok << " (" << soft << " soft)\n"
            << "  tracking aligned    : "
            << format_double(100.0 * result.alignment_until_first_handover(),
                             1)
            << "% of pre-handover tracking time\n"
            << "  beam switches       : "
            << counters.counter_value("neighbour_rx_switches") << " neighbour, "
            << counters.counter_value("serving_rx_switches") << " serving\n"
            << "  BS-side switches    : "
            << counters.counter_value("bs_switches") << '\n';

  std::cout << '\n' << core::build_run_report(spec, result).summary_text();
  return 0;
}
