// The paper's Fig. 1 scenario, narrated.
//
// A mobile served by Cell A walks along the corridor at 1.4 m/s towards
// Cell B's coverage. Silent Tracker discovers B's beam early, tracks it
// silently while BeamSurfer keeps A alive, and completes a soft handover
// the moment A's link finally dies. The program prints a running
// narration with positions, link SNRs, and the protocol's decisions, then
// a summary of the transition.
//
//   ./cell_edge_walk [seed]
#include <cstdlib>
#include <iostream>
#include <optional>
#include <vector>

#include "common/table.hpp"
#include "core/scenario.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

const char* bar(double snr_db) {
  if (snr_db > 12.0) {
    return "#####";
  }
  if (snr_db > 9.0) {
    return "####.";
  }
  if (snr_db > 6.0) {
    return "###..";
  }
  if (snr_db > 3.0) {
    return "##...";
  }
  if (snr_db > 0.0) {
    return "#....";
  }
  return ".....";
}

}  // namespace

int main(int argc, char** argv) {
  core::ScenarioSpec spec =
      core::SpecBuilder(core::preset::paper_walk())
          .duration(30'000_ms)
          .collect_trace(true)  // feeds the timeline and the run report
          .seed(argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7)
          .build();
  spec.ues.front().chain_handovers = false;  // one clean A -> B story

  std::cout
      << "Cell-edge walk (Fig. 1): Cell A at x=0, Cell B at x=60, corridor "
         "at y=10.\nThe user starts 20 m before the boundary and walks at "
         "1.4 m/s towards Cell B.\n\n";

  const core::ScenarioResult result = core::run_scenario(spec);

  // Interleave the 1 Hz link picture with protocol events.
  std::cout << "time      serving-SNR        protocol events\n";
  std::size_t next_event = 0;
  std::vector<obs::TraceEvent> events;
  std::optional<sim::Time> completed;
  for (const obs::TraceEvent& e :
       result.trace->buffer(obs::Component::kSilentTracker).snapshot()) {
    if (e.type == obs::TraceEventType::kRssSample) {
      continue;
    }
    if (!completed && e.type == obs::TraceEventType::kHandoverComplete &&
        e.flag) {
      completed = e.t;
    }
    events.push_back(e);
  }
  const sim::Time done = completed.value_or(sim::Time::zero() + 30'000_ms);
  for (std::int64_t ms = 0; ms <= 30'000; ms += 1000) {
    const auto t = sim::Time::zero() + sim::Duration::milliseconds(ms);
    std::string events_here;
    while (next_event < events.size() && events[next_event].t <= t) {
      if (!events_here.empty()) {
        events_here += "; ";
      }
      const obs::TraceEvent& e = events[next_event];
      events_here += obs::to_string(e.type);
      if (!e.label.empty()) {
        events_here += ' ';
        events_here += e.label;
      }
      ++next_event;
    }
    const double snr = result.serving_snr_db.value_at(t, -99.0);
    std::printf("%6llds   [%s] %5.1f dB   %s\n",
                static_cast<long long>(ms / 1000),
                snr > -90.0 ? bar(snr) : " --- ",
                snr > -90.0 ? snr : 0.0, events_here.c_str());
    if (t >= done) {
      std::cout << "        (handover complete — now served by Cell B)\n";
      break;
    }
  }

  std::cout << "\n--- transition summary ---\n";
  for (const auto& h : result.handovers) {
    std::cout << "  cell " << h.from << " -> " << h.to << ": "
              << (h.type == st::net::HandoverType::kSoft ? "SOFT" : "HARD")
              << " handover, " << (h.success ? "completed" : "FAILED")
              << ", service interruption "
              << st::sim::to_string(h.interruption()) << ", "
              << h.rach_attempts << " RACH attempt(s), beam "
              << (h.beam_aligned_at_completion ? "aligned" : "NOT aligned")
              << " at completion\n";
  }
  std::cout << "  neighbour beam aligned (within 3 dB of best) for "
            << st::format_double(
                   100.0 * result.alignment_until_first_handover(), 1)
            << "% of the tracking time before the handover\n";

  std::cout << '\n' << core::build_run_report(spec, result).summary_text();
  return 0;
}
