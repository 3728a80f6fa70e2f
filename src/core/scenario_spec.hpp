// The experiment API, shaped for fleets.
//
// A fleet run factors into one shared experiment frame (deployment,
// radio environment, duration, metric cadence, trace options) against
// which N independent mobiles run, each with its own mobility, codebook,
// protocol, and derived random streams. This header provides that split:
//
//   * UeProfile    — everything that is per-mobile;
//   * ScenarioSpec — the shared frame plus a vector of UeProfiles;
//   * SpecBuilder  — fluent assembly with validation at build();
//   * preset::     — named paper configurations (paper_walk() etc.) whose
//                    single-UE runs reproduce the pinned Fig. 2a/2c
//                    numbers exactly;
//   * fleet_ue_seed() — the per-UE splitmix seed derivation that keeps a
//                    UE's realisation identical whether it runs alone or
//                    inside a fleet.
#pragma once

#include <cstdint>
#include <vector>

#include "core/beam_policy.hpp"
#include "core/reactive_handover.hpp"
#include "core/silent_tracker.hpp"
#include "rate/rate_model.hpp"
#include "net/deployment.hpp"
#include "net/environment.hpp"
#include "net/handover_policy.hpp"
#include "sim/time.hpp"

namespace st::core {

enum class MobilityScenario { kHumanWalk, kRotation, kVehicular, kPingPong };
enum class ProtocolKind { kSilentTracker, kReactive };

[[nodiscard]] std::string_view to_string(MobilityScenario s) noexcept;
[[nodiscard]] std::string_view to_string(ProtocolKind p) noexcept;

/// Everything that belongs to one mobile: its motion, its antenna, the
/// protocol instance managing its links, and the per-scenario speeds.
struct UeProfile {
  MobilityScenario mobility = MobilityScenario::kHumanWalk;
  ProtocolKind protocol = ProtocolKind::kSilentTracker;

  /// Mobile codebook beamwidth in degrees; <= 0 selects the omni antenna.
  double ue_beamwidth_deg = 20.0;
  /// Build the mobile codebook from a physical half-wavelength ULA
  /// (sinc-like main lobe with real sidelobes) instead of the analytic
  /// Gaussian pattern — the realism ablation of E11.
  bool ue_ula_codebook = false;

  SilentTrackerConfig tracker{};
  ReactiveHandoverConfig reactive{};

  /// Paper parameters for the three mobility scenarios.
  double walk_speed_mps = 1.4;
  double rotation_rate_deg_s = 120.0;
  double vehicle_speed_mph = 20.0;
  /// kPingPong: shuttle speed and half-span of the back-and-forth walk
  /// across the central cell boundary (the ping-pong stress scenario).
  /// The 8 m default keeps the mobile inside both cells' overlap region,
  /// crossing every ~3 s — well inside the ping-pong window, so a
  /// policy-off run hands back on nearly every crossing.
  double ping_pong_speed_mps = 5.0;
  double ping_pong_amplitude_m = 8.0;

  /// Neighbour-ranking handover decisions (hysteresis, load penalty,
  /// ping-pong penalty timer). Disabled by default: the paper presets
  /// keep the legacy strongest-RSS selection bit for bit.
  net::HandoverPolicyConfig handover_policy{};

  /// Probe-planning strategy for the tracker (E15 head-to-head
  /// evaluation). The default kind reproduces the paper's own planner
  /// bit for bit; kHierarchical/kBlind swap in the competitors.
  BeamPolicyConfig beam_policy{};

  /// Start a fresh protocol instance after each completed handover (the
  /// vehicular drive passes several cells).
  bool chain_handovers = true;
};

/// The shared experiment frame: one deployment and radio-environment
/// configuration, one clock, one metric cadence — and the fleet of
/// mobiles that runs against it. ues.size() == 1 is the paper's setup.
struct ScenarioSpec {
  unsigned n_cells = 2;
  net::DeploymentConfig deployment{};
  /// Layout the cells form: the paper's row, an urban grid, or a street
  /// corridor (net/deployment.hpp builders). A row of two is the paper's
  /// exact setup, so kRow stays the default.
  net::DeploymentShape deployment_shape = net::DeploymentShape::kRow;
  /// Grid width for kGrid (0 = square-ish, ceil(sqrt(n_cells))).
  unsigned grid_cols = 0;
  /// Offered load per cell, indexed by CellId, each in [0, 1]. Empty
  /// means idle everywhere. Static by design: load is a backhaul-fed
  /// configuration input, and keeping it constant keeps fleet runs
  /// bit-identical serial vs parallel.
  std::vector<double> cell_load = {};
  net::EnvironmentConfig environment{};

  /// Throughput/SINR rate layer (strictly observer-only; sampling rides
  /// the metric cadence and consumes no randomness, so enabling it never
  /// changes a run's events).
  rate::RateConfig rate{};

  sim::Duration duration = sim::Duration::milliseconds(30'000);
  sim::Duration metric_period = sim::Duration::milliseconds(10);

  /// Record typed trace events and per-event dispatch timing during each
  /// UE's run. Every UE gets its own obs::TraceRecorder (ring buffers are
  /// never shared across mobiles).
  bool collect_trace = false;
  /// Per-component ring capacity when collect_trace is on.
  std::size_t trace_buffer_capacity = 1 << 16;

  /// Fleet root seed; UE k runs from fleet_ue_seed(seed, k).
  std::uint64_t seed = 1;

  /// The mobiles. Defaults to the paper's single walking UE.
  std::vector<UeProfile> ues = {UeProfile{}};

  [[nodiscard]] std::size_t ue_count() const noexcept { return ues.size(); }
};

/// Root seed of UE `ue` in a fleet seeded with `fleet_seed`. UE 0 inherits
/// the fleet seed unchanged — a single-UE spec is seeded exactly as the
/// paper's single-mobile runs always were — while later UEs draw
/// decorrelated roots from a SplitMix64 stream over the fleet seed, so a
/// UE's trajectory is the same whether it runs alone (a single-UE spec
/// seeded with its root) or inside the fleet.
[[nodiscard]] std::uint64_t fleet_ue_seed(std::uint64_t fleet_seed,
                                          std::size_t ue) noexcept;

/// Fluent assembly of a ScenarioSpec. Chain setters, append UEs, and call
/// build(), which validates (at least one UE, at least one cell, positive
/// duration and metric period) and throws std::invalid_argument otherwise.
///
///   const auto spec = SpecBuilder(preset::paper_walk())
///                         .duration(20'000_ms)
///                         .seed(7)
///                         .build();
class SpecBuilder {
 public:
  /// Start from the defaults with no UEs (append at least one).
  SpecBuilder() { spec_.ues.clear(); }
  /// Start from an existing spec (e.g. a preset), keeping its UEs.
  explicit SpecBuilder(ScenarioSpec base) : spec_(std::move(base)) {}

  SpecBuilder& cells(unsigned n) {
    spec_.n_cells = n;
    return *this;
  }
  SpecBuilder& deployment(const net::DeploymentConfig& d) {
    spec_.deployment = d;
    return *this;
  }
  SpecBuilder& deployment_shape(net::DeploymentShape shape) {
    spec_.deployment_shape = shape;
    return *this;
  }
  SpecBuilder& grid_cols(unsigned cols) {
    spec_.grid_cols = cols;
    return *this;
  }
  SpecBuilder& cell_load(std::vector<double> load) {
    spec_.cell_load = std::move(load);
    return *this;
  }
  SpecBuilder& environment(const net::EnvironmentConfig& e) {
    spec_.environment = e;
    return *this;
  }
  SpecBuilder& rate(const rate::RateConfig& r) {
    spec_.rate = r;
    return *this;
  }
  SpecBuilder& duration(sim::Duration d) {
    spec_.duration = d;
    return *this;
  }
  SpecBuilder& metric_period(sim::Duration p) {
    spec_.metric_period = p;
    return *this;
  }
  SpecBuilder& collect_trace(bool on = true) {
    spec_.collect_trace = on;
    return *this;
  }
  SpecBuilder& trace_buffer_capacity(std::size_t capacity) {
    spec_.trace_buffer_capacity = capacity;
    return *this;
  }
  SpecBuilder& seed(std::uint64_t s) {
    spec_.seed = s;
    return *this;
  }
  /// Append one mobile.
  SpecBuilder& ue(UeProfile profile) {
    spec_.ues.push_back(std::move(profile));
    return *this;
  }
  /// Append `n` mobiles sharing one profile (they still get independent
  /// random streams via fleet_ue_seed).
  SpecBuilder& ues(std::size_t n, const UeProfile& profile) {
    spec_.ues.insert(spec_.ues.end(), n, profile);
    return *this;
  }

  /// Validate and return the spec; throws std::invalid_argument on an
  /// empty fleet, zero cells, or non-positive duration/metric period.
  [[nodiscard]] ScenarioSpec build() const;

 private:
  ScenarioSpec spec_;
};

namespace preset {

/// Per-UE paper profiles (§5 evaluation): 20° Gaussian codebook, Silent
/// Tracker, the scenario's paper speed.
[[nodiscard]] UeProfile walking_ue();
[[nodiscard]] UeProfile rotating_ue();
[[nodiscard]] UeProfile vehicular_ue();

/// The E3/Fig. 2c experiment frames, one UE each: 25 s runs, two cells
/// (three for the vehicular drive, which passes several), and — for the
/// rotation preset — the tighter inter-site distance of the paper's
/// ~10 m-scale 3-node testbed. Their runs are pinned by the determinism
/// and fleet suites and by the benchmark's report fingerprints.
[[nodiscard]] ScenarioSpec paper_walk();
[[nodiscard]] ScenarioSpec paper_rotation();
[[nodiscard]] ScenarioSpec paper_vehicular();

/// Dispatch helper for sweeps over the three scenarios.
[[nodiscard]] ScenarioSpec paper(MobilityScenario mobility);

/// Multi-cell experiment frames with the handover-decision layer on
/// (hysteresis + load penalty + ping-pong penalty timer):
///
///   * grid_walk      — 3×3 urban grid, one walking mobile near the
///                      centre, graded per-cell load;
///   * corridor_drive — 9-cell street corridor, the vehicular drive
///                      passing every site;
///   * edge_ping_pong — 3×3 grid with a mobile shuttling across the
///                      central cell boundary: the ping-pong stress test
///                      the penalty timer exists for.
[[nodiscard]] ScenarioSpec grid_walk();
[[nodiscard]] ScenarioSpec corridor_drive();
[[nodiscard]] ScenarioSpec edge_ping_pong();

}  // namespace preset

}  // namespace st::core
