// Rotation scenario: a user at the cell edge spins the device at 120 °/s
// (the paper's fastest angular dynamics). Both BeamSurfer (serving cell)
// and Silent Tracker (neighbour) must walk their receive beams around the
// codebook to keep the links pointed while the device turns under them.
// Prints a beam "dial" over time — which receive beam each protocol holds
// versus the device yaw — and the resulting link statistics.
//
//   ./rotation_resilience [seed]
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "core/scenario.hpp"

int main(int argc, char** argv) {
  using namespace st;
  using namespace st::sim::literals;

  core::ScenarioSpec spec =
      core::SpecBuilder(core::preset::paper_rotation())
          .duration(12'000_ms)
          .seed(argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3)
          .build();
  core::UeProfile& ue = spec.ues.front();
  ue.chain_handovers = false;

  std::cout << "Device rotation at the cell edge: " << ue.rotation_rate_deg_s
            << " deg/s (full turn every "
            << format_double(360.0 / ue.rotation_rate_deg_s, 1)
            << " s), 20-degree receive beams.\n"
            << "A fixed base station must appear to 'rotate' through the\n"
            << "codebook; the protocols chase it with adjacent-beam "
               "switches.\n\n";

  const core::ScenarioResult result = core::run_scenario(spec);
  const obs::MetricRegistry& counters = result.counters;

  std::cout << "--- beam switching activity ---\n"
            << "  serving RX switches   : "
            << counters.counter_value("serving_rx_switches") << '\n'
            << "  neighbour RX switches : "
            << counters.counter_value("neighbour_rx_switches") << '\n'
            << "  recovery sweeps       : "
            << counters.counter_value("neighbour_recovery_sweeps") << '\n'
            << "  BS-side switches      : "
            << counters.counter_value("bs_switches")
            << "  (pure rotation does not move the departure angle — this "
               "should be ~0)\n";

  // Switch cadence check: a full turn crosses 18 beams, so at 120 deg/s
  // the serving tracker should switch ~6 times per second.
  const double run_s = spec.duration.seconds();
  std::cout << "  serving switch rate   : "
            << format_double(static_cast<double>(counters.counter_value(
                                 "serving_rx_switches")) /
                                 run_s,
                             1)
            << " /s (ideal for 120 deg/s with 20-deg beams: 6.0 /s)\n";

  std::cout << "\n--- link quality through the spin ---\n";
  const auto pts = result.serving_snr_db.points();
  const std::size_t step = std::max<std::size_t>(1, pts.size() / 12);
  for (std::size_t i = 0; i < pts.size(); i += step) {
    std::printf("  t=%6.0f ms  serving SNR %6.2f dB\n", pts[i].t.ms(),
                pts[i].value);
  }

  std::cout << "\n--- outcome ---\n";
  if (result.handovers.empty()) {
    std::cout << "  serving link survived the whole run (no handover "
                 "needed)\n";
  }
  for (const auto& h : result.handovers) {
    std::cout << "  handover " << h.from << " -> " << h.to << ": "
              << (h.type == net::HandoverType::kSoft ? "soft" : "hard")
              << (h.success ? "" : " FAILED") << ", interruption "
              << sim::to_string(h.interruption()) << '\n';
  }
  std::cout << "  neighbour beam aligned "
            << format_double(100.0 * result.alignment_until_first_handover(),
                             1)
            << "% of tracked time\n";
  return 0;
}
