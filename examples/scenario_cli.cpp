// General scenario runner: every knob of the experiment harness on the
// command line, with CSV output options for plotting. This is the tool a
// downstream user points at their own parameter questions ("what if the
// SSB period were 10 ms?", "does 60-degree tracking survive 200 deg/s?").
//
// Usage:
//   scenario_cli [options]
//     --scenario walk|rotation|vehicular   (default walk)
//     --protocol tracker|reactive          (default tracker)
//     --beamwidth <deg>                    (default 20; 0 = omni)
//     --threshold <dB>                     (default 3)
//     --cells <n>                          (default 2; vehicular wants 3)
//     --duration <s>                       (default 20)
//     --speed <m/s>                        (walk speed, default 1.4)
//     --rotation-rate <deg/s>              (default 120)
//     --vehicle-mph <mph>                  (default 20)
//     --ssb-period <ms>                    (default 20)
//     --seed <n>                           (default 1)
//     --csv rss|gap|snr                    (print a series as CSV and exit)
//     --quiet                              (summary only, no timeline)
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "core/scenario.hpp"
#include "obs/export.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "scenario_cli: " << message
            << " (run with --help for options)\n";
  std::exit(2);
}

void print_help() {
  std::cout <<
      R"(scenario_cli — run one Silent Tracker experiment with custom knobs.

  --scenario walk|rotation|vehicular   mobility scenario        [walk]
  --protocol tracker|reactive          protocol under test      [tracker]
  --beamwidth <deg>                    mobile codebook; 0=omni  [20]
  --ula                                physical ULA patterns (sidelobes)
  --threshold <dB>                     beam-switch drop rule    [3]
  --cells <n>                          base stations in a row   [2]
  --duration <s>                       simulated time           [20]
  --speed <m/s>                        walk speed               [1.4]
  --rotation-rate <deg/s>              rotation rate            [120]
  --vehicle-mph <mph>                  vehicle speed            [20]
  --ssb-period <ms>                    SSB burst periodicity    [20]
  --seed <n>                           RNG root seed            [1]
  --csv rss|gap|snr                    dump a series as CSV
  --quiet                              summary only
  --trace-out <path>                   write Chrome/Perfetto trace.json
  --report-out <path>                  write machine-readable RunReport JSON
)";
}

}  // namespace

int main(int argc, char** argv) {
  core::ScenarioSpec spec;
  spec.duration = 20'000_ms;
  core::UeProfile& ue = spec.ues.front();
  std::string csv;
  std::string trace_out;
  std::string report_out;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage_error("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg == "--scenario") {
      const std::string v = next_value();
      if (v == "walk") {
        ue.mobility = core::MobilityScenario::kHumanWalk;
      } else if (v == "rotation") {
        ue.mobility = core::MobilityScenario::kRotation;
        // The paper's rotation runs sit at a tighter 40 m cell edge (see
        // preset::paper_rotation()).
        spec.deployment.inter_site_m =
            std::min(spec.deployment.inter_site_m, 40.0);
      } else if (v == "vehicular") {
        ue.mobility = core::MobilityScenario::kVehicular;
        spec.n_cells = 3;
      } else {
        usage_error("unknown scenario '" + v + "'");
      }
    } else if (arg == "--protocol") {
      const std::string v = next_value();
      if (v == "tracker") {
        ue.protocol = core::ProtocolKind::kSilentTracker;
      } else if (v == "reactive") {
        ue.protocol = core::ProtocolKind::kReactive;
      } else {
        usage_error("unknown protocol '" + v + "'");
      }
    } else if (arg == "--beamwidth") {
      ue.ue_beamwidth_deg = std::strtod(next_value().c_str(), nullptr);
    } else if (arg == "--ula") {
      ue.ue_ula_codebook = true;
    } else if (arg == "--threshold") {
      const double thr = std::strtod(next_value().c_str(), nullptr);
      ue.tracker.neighbour_tracker.drop_threshold_db = thr;
      ue.tracker.beamsurfer.tracker.drop_threshold_db = thr;
      ue.reactive.beamsurfer.tracker.drop_threshold_db = thr;
    } else if (arg == "--cells") {
      spec.n_cells =
          static_cast<unsigned>(std::strtoul(next_value().c_str(), nullptr, 10));
    } else if (arg == "--duration") {
      spec.duration = sim::Duration::seconds_of(
          std::strtod(next_value().c_str(), nullptr));
    } else if (arg == "--speed") {
      ue.walk_speed_mps = std::strtod(next_value().c_str(), nullptr);
    } else if (arg == "--rotation-rate") {
      ue.rotation_rate_deg_s = std::strtod(next_value().c_str(), nullptr);
    } else if (arg == "--vehicle-mph") {
      ue.vehicle_speed_mph = std::strtod(next_value().c_str(), nullptr);
    } else if (arg == "--ssb-period") {
      spec.deployment.frame.ssb_period = sim::Duration::milliseconds(
          std::strtol(next_value().c_str(), nullptr, 10));
    } else if (arg == "--seed") {
      spec.seed = std::strtoull(next_value().c_str(), nullptr, 10);
    } else if (arg == "--csv") {
      csv = next_value();
    } else if (arg == "--trace-out") {
      trace_out = next_value();
    } else if (arg == "--report-out") {
      report_out = next_value();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }

  const bool timeline = !quiet && csv.empty();
  spec.collect_trace = timeline || !trace_out.empty() || !report_out.empty();

  const core::ScenarioResult result = core::run_scenario(spec);

  if (!trace_out.empty() &&
      !obs::write_chrome_trace_file(*result.trace, trace_out)) {
    std::cerr << "scenario_cli: failed to write trace to " << trace_out
              << "\n";
    return 1;
  }
  if (!report_out.empty()) {
    const obs::RunReport report = core::build_run_report(spec, result);
    if (!obs::write_text_file(report_out, report.to_json())) {
      std::cerr << "scenario_cli: failed to write report to " << report_out
                << "\n";
      return 1;
    }
  }

  if (csv == "rss") {
    std::cout << "t_ms,tracked_rss_dbm\n"
              << result.neighbour_tracked_rss_dbm.csv();
    return 0;
  }
  if (csv == "gap") {
    std::cout << "t_ms,alignment_gap_db\n" << result.alignment_gap_db.csv();
    return 0;
  }
  if (csv == "snr") {
    std::cout << "t_ms,serving_snr_db\n" << result.serving_snr_db.csv();
    return 0;
  }
  if (!csv.empty()) {
    usage_error("unknown series '" + csv + "' (rss|gap|snr)");
  }

  if (timeline) {
    // The protocol's own typed events; per-burst RSS samples are left to
    // --trace-out.
    const obs::Component protocol = ue.protocol == core::ProtocolKind::kReactive
                                        ? obs::Component::kReactive
                                        : obs::Component::kSilentTracker;
    for (const obs::TraceEvent& e : result.trace->buffer(protocol).snapshot()) {
      if (e.type == obs::TraceEventType::kRssSample) {
        continue;
      }
      std::cout << st::sim::to_string(e.t) << "  " << obs::to_string(e.type)
                << ' ' << e.label;
      if (e.cell >= 0) {
        std::cout << " cell=" << e.cell;
      }
      std::cout << '\n';
    }
    std::cout << '\n';
  }

  std::cout << "scenario=" << core::to_string(ue.mobility)
            << " protocol=" << core::to_string(ue.protocol)
            << " beamwidth=" << ue.ue_beamwidth_deg
            << " seed=" << spec.seed << '\n'
            << "handovers=" << result.handovers.size()
            << " successful=" << result.successful_handovers()
            << " soft=" << result.soft_handovers() << '\n'
            << "aligned_until_first_handover="
            << format_double(100.0 * result.alignment_until_first_handover(),
                             1)
            << "%\n";
  for (const auto& [name, counter] : result.counters.counters()) {
    std::cout << "counter " << name << "=" << counter.value() << '\n';
  }
  return 0;
}
