// Bring-your-own-trace: run Silent Tracker on a recorded pose trajectory
// instead of a synthetic mobility model, assembling the pieces manually
// (deployment → environment → protocol) rather than via run_scenario().
//
//   ./custom_trace                # uses a built-in demo trace
//   ./custom_trace my_trace.csv   # t_s,x,y,z,yaw_deg rows
//
// The demo trace is a walk that pauses mid-corridor, turns to face the
// old cell for two seconds (a person checking their phone), then carries
// on — the kind of irregular motion no parametric model produces and the
// reason trace playback exists.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "core/silent_tracker.hpp"
#include "mobility/trace.hpp"
#include "net/deployment.hpp"
#include "obs/trace.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

std::shared_ptr<const mobility::TracePlayback> demo_trace() {
  // Hand-authored: walk 10 s, pause + turn 3 s, walk on.
  std::vector<mobility::TraceSample> samples;
  const auto add = [&samples](double t_s, double x, double yaw_deg) {
    mobility::TraceSample s;
    s.t = sim::Time::from_ns(static_cast<std::int64_t>(t_s * 1e9));
    s.position = {x, 10.0, 0.0};
    s.yaw_rad = deg_to_rad(yaw_deg);
    samples.push_back(s);
  };
  add(0.0, 10.0, 0.0);
  add(10.0, 24.0, 0.0);    // 1.4 m/s walk
  add(11.0, 24.0, -90.0);  // stop, quarter-turn
  add(13.0, 24.0, -90.0);  // dwell
  add(14.0, 24.0, 0.0);    // turn back
  add(30.0, 46.4, 0.0);    // walk on across the boundary
  return std::make_shared<mobility::TracePlayback>(std::move(samples));
}

}  // namespace

int main(int argc, char** argv) {
  std::shared_ptr<const mobility::TracePlayback> trace;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::cerr << "custom_trace: cannot open " << argv[1] << '\n';
      return 1;
    }
    trace = std::make_shared<mobility::TracePlayback>(
        mobility::TracePlayback::from_csv(file));
    std::cout << "Loaded " << trace->sample_count() << " samples spanning "
              << sim::to_string(trace->end_time() - trace->start_time())
              << " from " << argv[1] << "\n\n";
  } else {
    trace = demo_trace();
    std::cout << "Using the built-in demo trace (walk, pause + quarter-turn, "
                 "walk on).\nExport your own with "
                 "st::mobility::trace_to_csv().\n\n";
  }

  // Assemble the world manually: two cells, the trace as the mobile.
  net::Deployment deployment = net::make_cell_row(net::DeploymentConfig{}, 2);
  net::EnvironmentConfig env_config;
  env_config.horizon = trace->end_time() - sim::Time::zero() +
                       sim::Duration::milliseconds(2000);
  env_config.seed = 4;
  net::RadioEnvironment env(env_config, std::move(deployment.base_stations),
                            trace, phy::Codebook::from_beamwidth_deg(20.0));

  sim::Simulator simulator;
  const auto initial = env.ground_truth_best_pair(0, sim::Time::zero());
  env.bs_mutable(0).set_serving_tx_beam(initial.tx_beam);

  core::SilentTracker tracker(simulator, env, core::SilentTrackerConfig{});
  obs::TraceRecorder trace_events;
  tracker.set_tracer(&trace_events);
  std::optional<net::HandoverRecord> handover;
  tracker.start(0, initial.rx_beam, initial.rx_power_dbm,
                [&](const net::HandoverRecord& r) { handover = r; });

  simulator.run_until(trace->end_time());

  std::cout << "--- protocol events along the trace ---\n";
  for (const obs::TraceEvent& e :
       trace_events.buffer(obs::Component::kSilentTracker).snapshot()) {
    if (e.type == obs::TraceEventType::kRssSample) {
      continue;
    }
    const Pose pose = trace->pose_at(e.t);
    const std::string type(obs::to_string(e.type));
    std::printf("  %9.1f ms  x=%5.1f yaw=%6.1f  %s %.*s\n", e.t.ms(),
                pose.position.x, rad_to_deg(pose.orientation.yaw()),
                type.c_str(), static_cast<int>(e.label.size()),
                e.label.data());
  }

  std::cout << "\n--- outcome ---\n";
  if (handover.has_value()) {
    std::cout << "  handover " << handover->from << " -> " << handover->to
              << ": "
              << (handover->type == net::HandoverType::kSoft ? "soft" : "hard")
              << (handover->success ? "" : " FAILED") << ", interruption "
              << sim::to_string(handover->interruption()) << '\n';
  } else {
    std::cout << "  no handover within the trace (state: "
              << core::to_string(tracker.state()) << ")\n";
  }
  return 0;
}
