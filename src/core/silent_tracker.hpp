// Silent Tracker — the paper's contribution (Fig. 2b).
//
// An entirely in-band, mobile-controlled beam-management protocol for
// soft handover. While BeamSurfer keeps the *serving* link alive, Silent
// Tracker prepares the *next* link without ever talking to it:
//
//   InitialSearch --found--> Tracking --serving lost--> Accessing
//        ^                      |                        |   |
//        |                      | (3 dB drop: probe      |   +--success--> Complete
//        |                      |  adjacent RX beams,    |
//        |                      |  follow TX beam drift) |
//        +--- serving lost      |                        +--RACH failed--> FallbackSearch
//             before found -----+------------------------------(hard handover)---+
//                                                               ^                |
//                                                               +----- RACH -----+
//
//  * InitialSearch: directional search for any neighbour cell's beam,
//    using only measurement gaps (serving slots pre-empt the radio).
//  * Tracking ("silent"): the discovered beam pair is maintained by pure
//    receive-side adaptation — switch to a directionally adjacent receive
//    beam when the neighbour's RSS drops 3 dB; follow the neighbour's
//    transmit-beam drift by comparing the adjacent SSBs of the same
//    burst. No uplink to the neighbour exists yet, so nothing is ever
//    requested of it: tracking is invisible to the network.
//  * Accessing: the serving link has died (radio link failure, or
//    BeamSurfer's base-station switch request can no longer be
//    delivered). The mobile switches serving cells and runs random
//    access *on the already-aligned tracked beam*; tracking continues
//    during the procedure so the beam stays fresh until Msg4.
//  * FallbackSearch: only reached when access fails (or the serving cell
//    died before anything was found) — the hard-handover path the
//    protocol exists to avoid: a from-scratch search with no serving
//    cell, then random access.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "core/beam_policy.hpp"
#include "core/beamsurfer.hpp"
#include "core/rss_tracker.hpp"
#include "net/cell_search.hpp"
#include "net/environment.hpp"
#include "net/handover.hpp"
#include "net/handover_policy.hpp"
#include "net/link_monitor.hpp"
#include "net/rach.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace st::core {

enum class SilentTrackerState {
  kIdle,
  kSearching,
  kTracking,
  kAccessing,
  kFallbackSearch,
  kComplete,
  kFailed,
};

[[nodiscard]] std::string_view to_string(SilentTrackerState state) noexcept;

/// What the tracker probes when the 3 dB drop fires. The paper's design
/// is kAdjacent (two candidate beams, one burst each); kFullSweep is the
/// ablation baseline that re-measures the whole codebook — more accurate
/// per decision but so slow (one burst per beam) that the link moves on
/// before the sweep finishes.
enum class ProbePolicy { kAdjacent, kFullSweep };

struct SilentTrackerConfig {
  RssTrackerConfig neighbour_tracker{};
  ProbePolicy probe_policy = ProbePolicy::kAdjacent;
  BeamSurferConfig beamsurfer{};
  net::CellSearchConfig search{};
  net::RachConfig rach{};
  net::LinkMonitorConfig link_monitor{};
  /// An adjacent neighbour TX beam must beat the tracked one by this
  /// margin (twice in a row) before the tracker retargets.
  double tx_retarget_margin_db = 1.0;
  /// Full search+access rounds attempted on the hard-handover path
  /// before giving up. Generous, because a real mobile keeps searching;
  /// a definitive failure only happens when coverage is truly gone.
  unsigned max_fallback_rounds = 10;
  /// Tracking a neighbour whose SSBs have been at the correlator floor
  /// for this long (despite recovery sweeps) abandons it and re-enters
  /// InitialSearch — a beam that cannot be heard any more is, per
  /// Fig. 2b's own logic, no discovered beam at all. Keeps the tracker
  /// from riding a receding cell while a better neighbour appears (the
  /// vehicular drive past several cells).
  sim::Duration neighbour_abandon_after = sim::Duration::milliseconds(2000);
};

class SilentTracker {
 public:
  using HandoverCallback = std::function<void(const net::HandoverRecord&)>;

  SilentTracker(sim::Simulator& simulator, net::RadioEnvironment& environment,
                SilentTrackerConfig config);
  ~SilentTracker();

  SilentTracker(const SilentTracker&) = delete;
  SilentTracker& operator=(const SilentTracker&) = delete;

  /// Start from steady state in `serving_cell`: the serving TX beam is
  /// whatever the base station currently has, `serving_rx_beam` is
  /// aligned, and `serving_rss_dbm` seeds BeamSurfer's reference.
  /// `on_handover` fires exactly once, when the handover completes or
  /// definitively fails.
  void start(net::CellId serving_cell, phy::BeamId serving_rx_beam,
             double serving_rss_dbm, HandoverCallback on_handover);

  void stop();

  [[nodiscard]] SilentTrackerState state() const noexcept { return state_; }
  [[nodiscard]] net::CellId serving_cell() const noexcept { return serving_; }
  [[nodiscard]] net::CellId neighbour_cell() const noexcept {
    return neighbour_;
  }
  /// Tracked neighbour beams (valid in kTracking and later states).
  [[nodiscard]] phy::BeamId neighbour_rx_beam() const noexcept {
    return neighbour_rss_.beam();
  }
  [[nodiscard]] phy::BeamId neighbour_tx_beam() const noexcept {
    return neighbour_tx_beam_;
  }
  [[nodiscard]] double neighbour_filtered_rss_dbm() const noexcept {
    return neighbour_rss_.filtered_rss_dbm();
  }
  [[nodiscard]] const BeamSurfer& beamsurfer() const noexcept {
    return *beamsurfer_;
  }
  /// Whether the serving link is still believed alive (false from the
  /// moment RLF / unreachability routed the protocol towards access).
  [[nodiscard]] bool serving_alive() const noexcept { return serving_alive_; }

  /// Run counter registry (not owned; may be null), shared with the
  /// BeamSurfer instance.
  void set_counters(obs::MetricRegistry* counters);

  /// Structured trace sink (not owned; may be null). Propagated to the
  /// sub-procedures (BeamSurfer, search, RACH, link monitor) so every
  /// component records into the same per-component buffers.
  void set_tracer(obs::TraceRecorder* recorder);

  /// Neighbour-ranking decision layer (not owned; may be null). When set
  /// and enabled, the tracker (a) draws its search candidates from the
  /// serving cell's NeighborList, (b) adopts the best-*scored* search
  /// detection — filtered RSS minus load penalty, penalized cells
  /// excluded while the serving link lives, ties to the lower CellId —
  /// instead of the raw strongest, (c) refreshes one rival candidate per
  /// scan period while tracking, and (d) abandons the tracked candidate
  /// when a rival wins the crossover vote, re-entering InitialSearch to
  /// re-rank. Null (or a disabled config) reproduces the legacy
  /// strongest-RSS behaviour bit for bit. The decision object outlives
  /// the tracker (the scenario layer owns it across handover chains) and
  /// must be set before start().
  void set_decision(net::HandoverDecision* decision);

  /// Probe-planning strategy (not owned; may be null). Null means the
  /// paper's own planner (honouring `config.probe_policy`), constructed
  /// lazily at start() — existing callers see bit-identical behaviour.
  /// Like the decision layer, the policy outlives the tracker (the
  /// scenario layer owns it across handover chains) and must be set
  /// before start().
  void set_policy(BeamPolicy* policy);

  /// The active policy's name (valid after start()).
  [[nodiscard]] std::string_view policy_name() const noexcept {
    return policy_ != nullptr ? policy_->name() : std::string_view{};
  }

 private:
  /// Single mutation point for `state_`: every state change funnels
  /// through here so the Fig. 2b contract checker (core/invariants.hpp,
  /// compiled in with ST_CHECK_INVARIANTS=ON) sees each transition.
  void transition_to(SilentTrackerState next);
  [[nodiscard]] bool policy_active() const noexcept {
    return decision_ != nullptr && decision_->enabled();
  }
  void enter_searching();
  void on_search_done(const net::SearchOutcome& outcome);
  void enter_tracking();
  void on_neighbour_burst();
  void schedule_rival_scan();
  void on_rival_scan();
  void check_crossover();
  void abandon_tracked(std::string_view reason);
  void handle_neighbour_sample(const net::SsbObservation& obs);
  void finish_neighbour_probe();
  void on_serving_lost(std::string_view reason);
  void enter_accessing();
  void on_rach_done(const net::RachOutcome& outcome);
  void enter_fallback();
  void on_fallback_search_done(const net::SearchOutcome& outcome);
  void complete(bool success);
  [[nodiscard]] bool radio_busy(sim::Time t) const;
  void cancel_tracking_events();

  sim::Simulator& simulator_;
  net::RadioEnvironment& environment_;
  SilentTrackerConfig config_;

  SilentTrackerState state_ = SilentTrackerState::kIdle;
  net::CellId serving_ = net::kInvalidCell;
  net::CellId neighbour_ = net::kInvalidCell;
  phy::BeamId neighbour_tx_beam_ = phy::kInvalidBeam;
  RssTracker neighbour_rss_;

  std::unique_ptr<BeamSurfer> beamsurfer_;
  std::unique_ptr<net::LinkMonitor> link_monitor_;
  std::unique_ptr<net::CellSearch> search_;
  std::unique_ptr<net::CellSearch> fallback_search_;
  std::unique_ptr<net::RachProcedure> rach_;

  // Neighbour tracking burst machinery (mirrors BeamSurfer, silently).
  std::vector<phy::BeamId> probe_pending_;
  std::vector<std::pair<phy::BeamId, double>> probe_results_;
  std::optional<phy::BeamId> probing_now_;
  std::optional<std::pair<phy::BeamId, double>> best_adjacent_tx_;
  unsigned retarget_votes_ = 0;
  /// Direction of the last successful RX switch (-1 = left neighbour,
  /// +1 = right, 0 = unknown): steady motion (walking past a cell,
  /// rotating the device) drifts the best beam consistently one way, so
  /// the next probe round tries that side first and costs one burst less.
  int rx_trend_ = 0;
  /// Consecutive undetected tracked-slot SSBs; at 3 the tracker has lost
  /// the beam beyond what adjacent stepping can recover (e.g. fast
  /// rotation) and runs an NR-style beam-failure-recovery sweep over the
  /// whole codebook.
  unsigned missed_tracked_ = 0;
  /// True while a beam-failure-recovery sweep (full codebook) is the
  /// probe round in flight; a sweep that still concludes at the noise
  /// floor re-baselines instead of looping immediately.
  bool in_recovery_sweep_ = false;
  /// When the tracked neighbour first went quiet (floor-level probe
  /// conclusions); reset on any detected sample.
  std::optional<sim::Time> neighbour_quiet_since_;
  std::vector<sim::EventId> tracking_events_;
  sim::EventId burst_event_ = 0;

  /// Background rival refresh (policy runs only): one neighbour-list
  /// cell per scan period gets its next SSB burst observed, feeding the
  /// decision layer's candidate table for the crossover test.
  net::HandoverDecision* decision_ = nullptr;
  sim::EventId rival_scan_event_ = 0;
  std::vector<sim::EventId> rival_obs_events_;

  /// Probe planner. `policy_` is the active strategy; `owned_policy_`
  /// backs it only when no external policy was injected via set_policy.
  BeamPolicy* policy_ = nullptr;
  std::unique_ptr<BeamPolicy> owned_policy_;

  // Handover bookkeeping.
  net::HandoverRecord record_;
  bool serving_alive_ = true;
  unsigned fallback_rounds_ = 0;
  HandoverCallback on_handover_;

  obs::Emitter emit_{obs::Component::kSilentTracker};
};

}  // namespace st::core
