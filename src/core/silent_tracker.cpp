#include "core/silent_tracker.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"
#include "core/invariants.hpp"

namespace st::core {

namespace {
using net::SsbObservation;
using sim::Duration;
using sim::Time;
}  // namespace

std::string_view to_string(SilentTrackerState state) noexcept {
  switch (state) {
    case SilentTrackerState::kIdle:
      return "Idle";
    case SilentTrackerState::kSearching:
      return "InitialSearch";
    case SilentTrackerState::kTracking:
      return "Tracking";
    case SilentTrackerState::kAccessing:
      return "Accessing";
    case SilentTrackerState::kFallbackSearch:
      return "FallbackSearch";
    case SilentTrackerState::kComplete:
      return "Complete";
    case SilentTrackerState::kFailed:
      return "Failed";
  }
  return "?";
}

void SilentTracker::transition_to(SilentTrackerState next) {
  ST_INVARIANT(invariants::check_silent_tracker_transition(state_, next));
  state_ = next;
}

SilentTracker::SilentTracker(sim::Simulator& simulator,
                             net::RadioEnvironment& environment,
                             SilentTrackerConfig config)
    : simulator_(simulator),
      environment_(environment),
      config_(config),
      neighbour_rss_(config.neighbour_tracker) {
  if (environment.cell_count() < 2) {
    throw std::invalid_argument(
        "SilentTracker: needs a serving cell and at least one neighbour");
  }
}

SilentTracker::~SilentTracker() { stop(); }

void SilentTracker::set_counters(obs::MetricRegistry* counters) {
  emit_.counters = counters;
  if (beamsurfer_ != nullptr) {
    beamsurfer_->set_counters(counters);
  }
}

void SilentTracker::set_decision(net::HandoverDecision* decision) {
  if (state_ != SilentTrackerState::kIdle) {
    throw std::logic_error(
        "SilentTracker: set_decision before start(), not mid-run");
  }
  decision_ = decision;
}

void SilentTracker::set_policy(BeamPolicy* policy) {
  if (state_ != SilentTrackerState::kIdle) {
    throw std::logic_error(
        "SilentTracker: set_policy before start(), not mid-run");
  }
  policy_ = policy;
}

void SilentTracker::set_tracer(obs::TraceRecorder* recorder) {
  emit_.recorder = recorder;
  if (beamsurfer_ != nullptr) {
    beamsurfer_->set_tracer(recorder);
  }
  if (link_monitor_ != nullptr) {
    link_monitor_->set_tracer(recorder);
  }
  if (search_ != nullptr) {
    search_->set_tracer(recorder);
  }
  if (fallback_search_ != nullptr) {
    fallback_search_->set_tracer(recorder);
  }
  if (rach_ != nullptr) {
    rach_->set_tracer(recorder);
  }
}

void SilentTracker::start(net::CellId serving_cell,
                          phy::BeamId serving_rx_beam, double serving_rss_dbm,
                          HandoverCallback on_handover) {
  if (state_ != SilentTrackerState::kIdle) {
    throw std::logic_error("SilentTracker: already started");
  }
  if (on_handover == nullptr) {
    throw std::invalid_argument("SilentTracker: null handover callback");
  }
  serving_ = serving_cell;
  on_handover_ = std::move(on_handover);
  serving_alive_ = true;
  fallback_rounds_ = 0;
  record_ = net::HandoverRecord{};
  record_.from = serving_cell;

  if (policy_ == nullptr) {
    owned_policy_ = make_beam_policy(
        BeamPolicyConfig{},
        config_.probe_policy == ProbePolicy::kFullSweep);
    policy_ = owned_policy_.get();
  }

  beamsurfer_ = std::make_unique<BeamSurfer>(simulator_, environment_,
                                             serving_cell, config_.beamsurfer);
  beamsurfer_->set_counters(emit_.counters);
  beamsurfer_->set_tracer(emit_.recorder);
  beamsurfer_->set_unreachable_callback(
      [this] { on_serving_lost("bs_switch_request_undeliverable"); });
  beamsurfer_->start(serving_rx_beam, serving_rss_dbm);

  link_monitor_ = std::make_unique<net::LinkMonitor>(simulator_, environment_,
                                                     config_.link_monitor);
  link_monitor_->set_tracer(emit_.recorder);
  link_monitor_->start(
      serving_cell, [this] { return beamsurfer_->rx_beam(); },
      [this] { on_serving_lost("radio_link_failure"); });

  enter_searching();
}

void SilentTracker::stop() {
  cancel_tracking_events();
  if (beamsurfer_ != nullptr) {
    beamsurfer_->stop();
  }
  if (link_monitor_ != nullptr) {
    link_monitor_->stop();
  }
  if (search_ != nullptr) {
    search_->abort();
  }
  if (fallback_search_ != nullptr) {
    fallback_search_->abort();
  }
  if (rach_ != nullptr) {
    rach_->abort();
  }
  transition_to(SilentTrackerState::kIdle);
  on_handover_ = nullptr;
}

bool SilentTracker::radio_busy(sim::Time t) const {
  // While the serving cell is alive, its SSB slots own the RF chain
  // (BeamSurfer measurements and the data link the mobile is protecting).
  if (!serving_alive_) {
    return false;
  }
  return environment_.bs(serving_).schedule().ssb_at(t).has_value();
}

void SilentTracker::cancel_tracking_events() {
  simulator_.cancel(burst_event_);
  for (const sim::EventId id : tracking_events_) {
    simulator_.cancel(id);
  }
  tracking_events_.clear();
  simulator_.cancel(rival_scan_event_);
  for (const sim::EventId id : rival_obs_events_) {
    simulator_.cancel(id);
  }
  rival_obs_events_.clear();
}

// ---- Initial search ------------------------------------------------------

void SilentTracker::enter_searching() {
  transition_to(SilentTrackerState::kSearching);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kStateTransition,
              .label = "InitialSearch"});

  // The deployment's declared candidate set of the serving cell — for
  // the paper's row layouts this is every other cell in CellId order,
  // identical to the historical construction.
  std::vector<net::CellId> candidates = environment_.neighbour_cells(serving_);
  search_ = std::make_unique<net::CellSearch>(
      simulator_, environment_, std::move(candidates), config_.search,
      [this](sim::Time t) { return radio_busy(t); });
  search_->set_tracer(emit_.recorder);
  search_->start([this](const net::SearchOutcome& o) { on_search_done(o); });
}

void SilentTracker::on_search_done(const net::SearchOutcome& outcome) {
  if (state_ != SilentTrackerState::kSearching) {
    return;
  }
  if (!outcome.found) {
    emit_.count("initial_search_misses");
    // Fig. 2b: keep searching until a neighbour beam is discovered (or
    // the serving link dies, which routes to the fallback path).
    enter_searching();
    return;
  }

  // Legacy rule: adopt the strongest detection. With a decision layer,
  // adopt the best-*ranked* one instead (load-penalized score, penalized
  // cells excluded, ties to the lower CellId) — the mobile prepares the
  // neighbour it *should* join, not merely the loudest.
  net::CellId cell = outcome.cell;
  phy::BeamId tx_beam = outcome.tx_beam;
  phy::BeamId rx_beam = outcome.rx_beam;
  double rss_dbm = outcome.rss_dbm;
  if (policy_active()) {
    const net::NeighborList& neighbors = environment_.neighbour_cells(serving_);
    for (const net::SsbObservation& obs : outcome.all) {
      decision_->observe(obs);
    }
    const std::optional<std::size_t> pick = decision_->select(
        outcome.all, neighbors, simulator_.now(), serving_alive_);
    if (!pick.has_value()) {
      // Every detection was penalized (or off-list): per the penalty
      // rule nothing is selectable yet — keep searching until a timer
      // expires or another cell appears.
      emit_.count("policy_no_eligible_candidate");
      enter_searching();
      return;
    }
    const net::SsbObservation& chosen = outcome.all[*pick];
    if (chosen.cell != outcome.cell) {
      emit_.count("policy_selection_diverted");
    }
    ST_INVARIANT(invariants::check_decision_in_neighbor_list(
        serving_, chosen.cell, neighbors));
    ST_INVARIANT(invariants::check_decision_not_penalized(
        chosen.cell, decision_->penalized(chosen.cell, simulator_.now()),
        serving_alive_));
    cell = chosen.cell;
    tx_beam = chosen.tx_beam;
    rx_beam = chosen.rx_beam;
    rss_dbm = chosen.rss_dbm;
  }

  emit_.count("initial_search_hits");
  neighbour_ = cell;
  neighbour_tx_beam_ = tx_beam;
  neighbour_rss_.select_beam(rx_beam, rss_dbm);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kCellFound,
              .cell = cell,
              .beam_a = tx_beam,
              .beam_b = rx_beam,
              .value = rss_dbm,
              .value2 = outcome.latency.ms()});
  enter_tracking();
}

// ---- Silent tracking -----------------------------------------------------

void SilentTracker::enter_tracking() {
  transition_to(SilentTrackerState::kTracking);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kStateTransition,
              .label = "Tracking"});
  probe_pending_.clear();
  probe_results_.clear();
  probing_now_.reset();
  best_adjacent_tx_.reset();
  retarget_votes_ = 0;
  rx_trend_ = 0;
  missed_tracked_ = 0;
  in_recovery_sweep_ = false;
  neighbour_quiet_since_.reset();
  policy_->reset();

  const Time next = environment_.bs(neighbour_)
                        .schedule()
                        .next_burst_start(simulator_.now());
  burst_event_ = simulator_.schedule_at(next, [this] { on_neighbour_burst(); });

  // With a decision layer, keep the rivals' scores fresh in the
  // background so the crossover test has something to compare against.
  if (policy_active() && serving_alive_) {
    schedule_rival_scan();
  }
}

// One rival candidate per scan period: pick the next neighbour-list cell
// round-robin, listen to one full SSB burst of it (every TX beam, on the
// best RX beam known for that cell) in the slots the serving schedule
// leaves free, then run the crossover test on the refreshed table.
void SilentTracker::schedule_rival_scan() {
  rival_scan_event_ = simulator_.schedule_at(
      simulator_.now() + decision_->config().rival_scan_period,
      [this] { on_rival_scan(); });
}

void SilentTracker::on_rival_scan() {
  if (state_ != SilentTrackerState::kTracking || !serving_alive_) {
    return;
  }
  rival_obs_events_.clear();
  const net::NeighborList& neighbors = environment_.neighbour_cells(serving_);
  const std::optional<net::CellId> rival =
      decision_->next_rival(neighbors, neighbour_);
  if (rival.has_value()) {
    const net::CellId cell = *rival;
    // A cell heard before is listened to on the beam that heard it; a
    // cold one on the currently tracked beam (the best guess available
    // without spending a sweep).
    const std::optional<net::HandoverDecision::Candidate> known =
        decision_->candidate(cell);
    const phy::BeamId rx = (known.has_value() &&
                            known->rx_beam != phy::kInvalidBeam)
                               ? known->rx_beam
                               : neighbour_rss_.beam();
    const net::FrameSchedule& schedule = environment_.bs(cell).schedule();
    const Time burst = schedule.next_burst_start(simulator_.now());
    for (const phy::Beam& beam : environment_.bs(cell).codebook().beams()) {
      const net::SsbSlot slot = schedule.next_ssb_for_beam(burst, beam.id());
      rival_obs_events_.push_back(simulator_.schedule_at(
          slot.start, [this, cell, tx = beam.id(), rx] {
            if (state_ != SilentTrackerState::kTracking || !serving_alive_) {
              return;
            }
            if (radio_busy(simulator_.now())) {
              emit_.count("rival_slots_preempted");
              return;
            }
            const SsbObservation obs =
                environment_.observe_ssb(cell, tx, rx, simulator_.now());
            if (obs.detected) {
              decision_->observe(obs);
            }
          }));
    }
    rival_obs_events_.push_back(
        simulator_.schedule_at(burst + schedule.burst_duration(),
                               [this] { check_crossover(); }));
  }
  schedule_rival_scan();
}

void SilentTracker::check_crossover() {
  if (!policy_active() || state_ != SilentTrackerState::kTracking ||
      !serving_alive_) {
    return;
  }
  const std::optional<net::HandoverDecision::Choice> winner =
      decision_->crossover(neighbour_, neighbour_rss_.filtered_rss_dbm(),
                           environment_.neighbour_cells(serving_),
                           simulator_.now());
  if (!winner.has_value()) {
    return;
  }
  emit_.count("neighbour_crossovers");
  // Fig. 2b stays normative: the crossover is the Tracking ->
  // InitialSearch "abandon" edge, and the fresh search's ranked
  // selection is what actually retargets (the rival must still be
  // *found*, not just remembered).
  abandon_tracked("crossover");
}

void SilentTracker::abandon_tracked(std::string_view reason) {
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kNeighbourAbandoned,
              .cell = neighbour_,
              .label = reason});
  emit_.count("neighbour_abandoned");
  cancel_tracking_events();
  probe_pending_.clear();
  probe_results_.clear();
  probing_now_.reset();
  neighbour_quiet_since_.reset();
  enter_searching();
}

void SilentTracker::on_neighbour_burst() {
  tracking_events_.clear();
  const net::BaseStation& bs = environment_.bs(neighbour_);
  const net::FrameSchedule& schedule = bs.schedule();

  // Pick this burst's receive beam: a probe candidate, or the tracked beam.
  probing_now_.reset();
  if (!probe_pending_.empty()) {
    probing_now_ = probe_pending_.front();
    probe_pending_.erase(probe_pending_.begin());
  }
  const phy::BeamId listen_beam =
      probing_now_.has_value() ? *probing_now_ : neighbour_rss_.beam();

  // The tracked TX beam's slot.
  const net::SsbSlot tracked_slot =
      schedule.next_ssb_for_beam(simulator_.now(), neighbour_tx_beam_);
  tracking_events_.push_back(simulator_.schedule_at(
      tracked_slot.start, [this, listen_beam] {
        if (radio_busy(simulator_.now())) {
          emit_.count("neighbour_slots_preempted");
          return;
        }
        const SsbObservation obs = environment_.observe_ssb(
            neighbour_, neighbour_tx_beam_, listen_beam, simulator_.now());
        handle_neighbour_sample(obs);
      }));

  // Adjacent TX beams of the same burst, listened to with the tracked RX
  // beam: how the tracker follows the neighbour's beam drift silently —
  // SSBs are broadcast, so no interaction with the cell is needed.
  if (!probing_now_.has_value()) {
    best_adjacent_tx_.reset();
    const phy::BeamId left = bs.codebook().left_neighbour(neighbour_tx_beam_);
    const phy::BeamId right = bs.codebook().right_neighbour(neighbour_tx_beam_);
    for (const phy::BeamId tx : {left, right}) {
      const net::SsbSlot slot =
          schedule.next_ssb_for_beam(simulator_.now(), tx);
      tracking_events_.push_back(
          simulator_.schedule_at(slot.start, [this, tx] {
            if (radio_busy(simulator_.now())) {
              return;
            }
            const SsbObservation obs = environment_.observe_ssb(
                neighbour_, tx, neighbour_rss_.beam(), simulator_.now());
            if (obs.detected &&
                (!best_adjacent_tx_.has_value() ||
                 obs.rss_dbm > best_adjacent_tx_->second)) {
              best_adjacent_tx_ = {tx, obs.rss_dbm};
            }
          }));
    }
  }

  // Next burst (tracking persists through kAccessing so the beam is live
  // until Msg4 — the protocol's whole purpose).
  const Time next = schedule.next_burst_start(tracked_slot.start +
                                              schedule.burst_duration());
  burst_event_ = simulator_.schedule_at(next, [this] { on_neighbour_burst(); });
}

void SilentTracker::handle_neighbour_sample(const SsbObservation& obs) {
  const double sample = obs.detected
                            ? obs.rss_dbm
                            : environment_.link_budget().noise_floor_dbm();

  if (emit_.tracing()) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kRssSample,
                .cell = neighbour_,
                .beam_a = probing_now_.value_or(neighbour_rss_.beam()),
                .value = sample,
                .flag = obs.detected});
  }

  if (probing_now_.has_value()) {
    probe_results_.emplace_back(*probing_now_, sample);
    if (probe_pending_.empty()) {
      finish_neighbour_probe();
    }
    return;
  }

  neighbour_rss_.add_sample(sample);
  missed_tracked_ = obs.detected ? 0 : missed_tracked_ + 1;
  if (policy_active()) {
    // Keep the incumbent's table entry at the filtered level so the
    // crossover test compares rivals against what tracking actually sees.
    decision_->update_rss(neighbour_, neighbour_rss_.filtered_rss_dbm(),
                          simulator_.now());
  }

  // Track how long the neighbour has been inaudible. A beam that stays at
  // the correlator floor despite recovery sweeps is no discovered beam at
  // all: abandon it and search again (only while the serving cell still
  // carries us — once in Accessing, the tracked beam is all we have).
  if (obs.detected) {
    neighbour_quiet_since_.reset();
  } else if (!neighbour_quiet_since_.has_value()) {
    neighbour_quiet_since_ = simulator_.now();
  } else if (state_ == SilentTrackerState::kTracking && serving_alive_ &&
             simulator_.now() - *neighbour_quiet_since_ >=
                 config_.neighbour_abandon_after) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kNeighbourAbandoned,
                .cell = neighbour_,
                .value = (simulator_.now() - *neighbour_quiet_since_).ms()});
    emit_.count("neighbour_abandoned");
    cancel_tracking_events();
    probe_pending_.clear();
    probe_results_.clear();
    probing_now_.reset();
    neighbour_quiet_since_.reset();
    enter_searching();
    return;
  }

  // TX-beam drift: an adjacent SSB consistently stronger than the tracked
  // one (two bursts in a row) retargets the tracked TX beam.
  if (best_adjacent_tx_.has_value() &&
      best_adjacent_tx_->second >
          neighbour_rss_.filtered_rss_dbm() + config_.tx_retarget_margin_db) {
    if (++retarget_votes_ >= 2) {
      emit_.emit({.t = simulator_.now(),
                  .type = obs::TraceEventType::kTxBeamSwitch,
                  .cell = neighbour_,
                  .beam_a = neighbour_tx_beam_,
                  .beam_b = best_adjacent_tx_->first});
      emit_.count("neighbour_tx_retargets");
      neighbour_tx_beam_ = best_adjacent_tx_->first;
      neighbour_rss_.select_beam(neighbour_rss_.beam(),
                                 best_adjacent_tx_->second);
      retarget_votes_ = 0;
      return;
    }
  } else {
    retarget_votes_ = 0;
  }

  // The 3 dB rule on the neighbour, plus out-of-sync detection (a filter
  // parked at the noise floor cannot fall a further 3 dB): queue probes
  // of the adjacent RX beams.
  if ((neighbour_rss_.drop_detected() || missed_tracked_ >= 3) &&
      probe_pending_.empty()) {
    ST_INVARIANT(invariants::check_drop_on_tracked_beam(
        state_, neighbour_rss_.beam(), environment_.ue_codebook().size()));
    const bool lost = missed_tracked_ >= 3;
    missed_tracked_ = 0;
    emit_.count("neighbour_drop_events");
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kRssDrop,
                .cell = neighbour_,
                .value = neighbour_rss_.filtered_rss_dbm(),
                .value2 = neighbour_rss_.reference_rss_dbm()});
    policy_->plan_probe({.codebook = environment_.ue_codebook(),
                         .current = neighbour_rss_.beam(),
                         .filtered_rss_dbm = neighbour_rss_.filtered_rss_dbm(),
                         .rx_trend = rx_trend_,
                         .lost = lost},
                        probe_pending_);
    probe_results_.clear();
  }
}

void SilentTracker::finish_neighbour_probe() {
  const auto best = std::max_element(
      probe_results_.begin(), probe_results_.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });

  // Every candidate at the correlator floor: the beam is lost beyond what
  // adjacent stepping can recover (a 120 deg/s rotation outruns
  // one-beam-per-round chasing). Escalate once to a full-codebook sweep —
  // the in-band analogue of NR beam-failure recovery. If even the sweep
  // concludes at the floor, the neighbour is gone for now: re-baseline
  // and let the missed-SSB counter retrigger probing later.
  const double lost_level = environment_.link_budget().noise_floor_dbm() + 1.0;
  if (best == probe_results_.end() || best->second <= lost_level) {
    probing_now_.reset();
    probe_results_.clear();
    if (!in_recovery_sweep_) {
      in_recovery_sweep_ = true;
      emit_.count("neighbour_recovery_sweeps");
      emit_.emit({.t = simulator_.now(),
                  .type = obs::TraceEventType::kRecoverySweep,
                  .cell = neighbour_});
      probe_pending_.reserve(environment_.ue_codebook().size());
      for (const phy::Beam& beam : environment_.ue_codebook().beams()) {
        probe_pending_.push_back(beam.id());
      }
      rx_trend_ = 0;
    } else {
      in_recovery_sweep_ = false;
      neighbour_rss_.select_beam(neighbour_rss_.beam(),
                                 neighbour_rss_.filtered_rss_dbm());
    }
    return;
  }
  in_recovery_sweep_ = false;
  const phy::BeamId winner = best->first;
  const double winner_rss = best->second;

  // Before adopting, let the policy ask for another round (hierarchical
  // coarse-to-fine refines one narrower ring around the coarse winner).
  // The default policy never does, keeping the historical single-round
  // behaviour — and its fingerprint — intact.
  policy_->plan_refine({.codebook = environment_.ue_codebook(),
                        .current = neighbour_rss_.beam(),
                        .filtered_rss_dbm = neighbour_rss_.filtered_rss_dbm(),
                        .rx_trend = rx_trend_,
                        .lost = false},
                       winner, probe_pending_);
  if (!probe_pending_.empty()) {
    emit_.count("probe_refine_rounds");
    probing_now_.reset();
    probe_results_.clear();
    return;
  }

  if (winner != neighbour_rss_.beam()) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kRxBeamSwitch,
                .cell = neighbour_,
                .beam_a = neighbour_rss_.beam(),
                .beam_b = winner,
                .value = winner_rss});
    emit_.count("neighbour_rx_switches");
    rx_trend_ = winner == environment_.ue_codebook().left_neighbour(
                              neighbour_rss_.beam())
                    ? -1
                    : 1;
    neighbour_rss_.select_beam(winner, winner_rss);
  } else {
    rx_trend_ = 0;  // the trend stalled; probe both sides next time
    // The current beam won its own probe round: it *is* the best the
    // mobile can do and the loss is the channel's (distance, blockage).
    // Re-baseline at the fresh level so the drop rule measures future
    // degradation instead of re-firing every burst on the same loss.
    neighbour_rss_.select_beam(neighbour_rss_.beam(), winner_rss);
  }
  probing_now_.reset();
  probe_results_.clear();
}

// ---- Serving loss and access ---------------------------------------------

void SilentTracker::on_serving_lost(std::string_view reason) {
  if (!serving_alive_) {
    return;  // already handling it
  }
  serving_alive_ = false;
  record_.serving_lost = simulator_.now();
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kServingLost,
              .cell = serving_,
              .label = reason});
  emit_.count("serving_lost");
  beamsurfer_->stop();
  link_monitor_->stop();

  switch (state_) {
    case SilentTrackerState::kTracking:
      enter_accessing();
      break;
    case SilentTrackerState::kSearching:
      // Nothing tracked yet: this is the hard-handover case the protocol
      // exists to avoid, reached only when the edge was crossed before
      // initial search ever succeeded.
      if (search_ != nullptr) {
        search_->abort();
      }
      enter_fallback();
      break;
    default:
      break;  // kAccessing and beyond: already past the serving cell
  }
}

void SilentTracker::enter_accessing() {
  ST_INVARIANT(invariants::check_rach_entry(
      neighbour_, serving_, neighbour_tx_beam_,
      environment_.bs(neighbour_).codebook().size(), neighbour_rss_.beam(),
      environment_.ue_codebook().size()));
  transition_to(SilentTrackerState::kAccessing);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kStateTransition,
              .cell = neighbour_,
              .beam_a = neighbour_tx_beam_,
              .beam_b = neighbour_rss_.beam(),
              .label = "Accessing"});
  record_.to = neighbour_;
  record_.access_started = simulator_.now();

  rach_ = std::make_unique<net::RachProcedure>(simulator_, environment_,
                                               config_.rach);
  rach_->set_tracer(emit_.recorder);
  rach_->start(
      neighbour_, neighbour_tx_beam_,
      [this] { return neighbour_rss_.beam(); },
      [this](const net::RachOutcome& o) { on_rach_done(o); });
}

void SilentTracker::on_rach_done(const net::RachOutcome& outcome) {
  record_.rach_attempts += outcome.attempts;
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kRachOutcome,
              .cell = neighbour_,
              .value = static_cast<double>(outcome.attempts),
              .value2 = outcome.latency.ms(),
              .flag = outcome.success});
  if (outcome.success) {
    complete(true);
    return;
  }
  emit_.count("rach_failures");
  enter_fallback();
}

// ---- Hard-handover fallback ------------------------------------------------

void SilentTracker::enter_fallback() {
  cancel_tracking_events();
  ST_INVARIANT(invariants::check_handover_type_transition(
      record_.type, net::HandoverType::kHard));
  record_.type = net::HandoverType::kHard;
  if (fallback_rounds_ >= config_.max_fallback_rounds) {
    complete(false);
    return;
  }
  ++fallback_rounds_;
  transition_to(SilentTrackerState::kFallbackSearch);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kStateTransition,
              .label = "FallbackSearch"});
  emit_.count("fallback_searches");

  // Even with the serving cell gone, the candidate set is the
  // deployment's declared neighbour list of the last serving cell (the
  // row layouts list every other cell there, so the paper presets are
  // unchanged).
  std::vector<net::CellId> candidates = environment_.neighbour_cells(serving_);
  // No serving cell, no pre-emption: the radio is entirely free — but the
  // user has no service either.
  fallback_search_ = std::make_unique<net::CellSearch>(
      simulator_, environment_, std::move(candidates), config_.search);
  fallback_search_->set_tracer(emit_.recorder);
  fallback_search_->start(
      [this](const net::SearchOutcome& o) { on_fallback_search_done(o); });
}

void SilentTracker::on_fallback_search_done(const net::SearchOutcome& outcome) {
  if (!outcome.found) {
    enter_fallback();  // consumes another round
    return;
  }
  net::CellId cell = outcome.cell;
  phy::BeamId tx_beam = outcome.tx_beam;
  phy::BeamId rx_beam = outcome.rx_beam;
  double rss_dbm = outcome.rss_dbm;
  if (policy_active()) {
    // With no serving link, penalty timers are waived (any cell beats no
    // cell) but load still ranks equal-RSS candidates.
    const net::NeighborList& neighbors = environment_.neighbour_cells(serving_);
    for (const net::SsbObservation& obs : outcome.all) {
      decision_->observe(obs);
    }
    const std::optional<std::size_t> pick = decision_->select(
        outcome.all, neighbors, simulator_.now(), /*serving_alive=*/false);
    if (!pick.has_value()) {
      enter_fallback();  // consumes another round
      return;
    }
    const net::SsbObservation& chosen = outcome.all[*pick];
    ST_INVARIANT(invariants::check_decision_in_neighbor_list(
        serving_, chosen.cell, neighbors));
    cell = chosen.cell;
    tx_beam = chosen.tx_beam;
    rx_beam = chosen.rx_beam;
    rss_dbm = chosen.rss_dbm;
  }
  neighbour_ = cell;
  neighbour_tx_beam_ = tx_beam;
  neighbour_rss_.select_beam(rx_beam, rss_dbm);
  // Resume tracking during access so the fallback access still benefits
  // from receive-beam adaptation.
  enter_tracking();
  enter_accessing();
}

// ---- Completion ------------------------------------------------------------

void SilentTracker::complete(bool success) {
  cancel_tracking_events();
  record_.success = success;
  record_.completed = simulator_.now();
  record_.target_tx_beam = neighbour_tx_beam_;
  record_.final_rx_beam = neighbour_rss_.beam();
  transition_to(success ? SilentTrackerState::kComplete
                        : SilentTrackerState::kFailed);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kHandoverComplete,
              .cell = record_.to,
              .beam_b = record_.final_rx_beam,
              .value = record_.interruption().ms(),
              .flag = success});
  emit_.count(success ? "handover_complete" : "handover_failed");
  if (on_handover_) {
    HandoverCallback cb = std::move(on_handover_);
    on_handover_ = nullptr;
    cb(record_);
  }
}

}  // namespace st::core
