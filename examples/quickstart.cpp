// Quickstart: the smallest complete Silent Tracker run.
//
// Two 60 GHz cells, a user walking across the boundary at 1.4 m/s with a
// 20° receive codebook, Silent Tracker managing the transition. Prints
// the protocol's event timeline and a summary of the handover.
//
//   ./quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "core/scenario.hpp"

int main(int argc, char** argv) {
  const st::core::ScenarioSpec spec =
      st::core::SpecBuilder(st::core::preset::paper_walk())
          .duration(st::sim::Duration::milliseconds(20'000))
          .collect_trace(true)  // the timeline below reads the typed events
          .seed(argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42)
          .build();
  const st::core::UeProfile& ue = spec.ues.front();

  std::cout << "Silent Tracker quickstart\n"
            << "  scenario : human walk, " << ue.walk_speed_mps
            << " m/s across the cell boundary\n"
            << "  codebook : " << ue.ue_beamwidth_deg
            << " deg mobile receive beams\n"
            << "  seed     : " << spec.seed << "\n\n";

  const st::core::ScenarioResult result = st::core::run_scenario(spec);

  std::cout << "--- protocol timeline ---\n";
  for (const st::obs::TraceEvent& e :
       result.trace->buffer(st::obs::Component::kSilentTracker).snapshot()) {
    if (e.type == st::obs::TraceEventType::kRssSample) {
      continue;  // per-burst samples: see scenario_cli --trace-out
    }
    // Unset fields are -1 and omitted, as in obs::write_trace_jsonl.
    std::cout << "  " << st::sim::to_string(e.t) << "  "
              << st::obs::to_string(e.type) << ' ' << e.label;
    if (e.cell >= 0) {
      std::cout << " cell=" << e.cell;
    }
    if (e.beam_a >= 0) {
      std::cout << " beam_a=" << e.beam_a;
    }
    if (e.beam_b >= 0) {
      std::cout << " beam_b=" << e.beam_b;
    }
    std::cout << '\n';
  }

  std::cout << "\n--- handovers ---\n";
  for (const auto& h : result.handovers) {
    std::cout << "  cell " << h.from << " -> " << h.to << "  type="
              << (h.type == st::net::HandoverType::kSoft ? "soft" : "hard")
              << "  success=" << (h.success ? "yes" : "no")
              << "  interruption=" << st::sim::to_string(h.interruption())
              << "  rach_attempts=" << h.rach_attempts << "  aligned="
              << (h.beam_aligned_at_completion ? "yes" : "no") << '\n';
  }

  std::cout << "\n--- tracking quality ---\n"
            << "  samples while tracking : "
            << result.alignment_gap_db.size() << '\n'
            << "  aligned (within 3 dB)  : "
            << 100.0 * result.tracking_alignment_fraction() << " %\n";

  std::cout << "\n--- counters ---\n";
  for (const auto& [name, counter] : result.counters.counters()) {
    std::cout << "  " << name << " = " << counter.value() << '\n';
  }
  return 0;
}
