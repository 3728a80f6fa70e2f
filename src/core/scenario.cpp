#include "core/scenario.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/units.hpp"
#include "phy/simd.hpp"

namespace st::core {

namespace {
using sim::Duration;
using sim::Time;

/// Alignment criterion of Fig. 2c: the mobile's receive beam is "aligned"
/// when it is within 3 dB of the best receive beam for the target's
/// transmit beam.
constexpr double kAlignmentToleranceDb = 3.0;
}  // namespace

phy::Codebook make_ue_codebook(double beamwidth_deg) {
  return make_ue_codebook(beamwidth_deg, false);
}

phy::Codebook make_ue_codebook(double beamwidth_deg, bool ula) {
  if (beamwidth_deg <= 0.0) {
    return phy::Codebook::omni();
  }
  if (ula) {
    return phy::Codebook::ula_from_beamwidth_deg(beamwidth_deg);
  }
  return phy::Codebook::from_beamwidth_deg(beamwidth_deg);
}

net::Deployment make_deployment(const ScenarioSpec& spec) {
  switch (spec.deployment_shape) {
    case net::DeploymentShape::kRow:
      return net::make_cell_row(spec.deployment, spec.n_cells);
    case net::DeploymentShape::kGrid:
      return net::make_grid(spec.deployment, spec.n_cells, spec.grid_cols);
    case net::DeploymentShape::kCorridor:
      return net::make_corridor(spec.deployment, spec.n_cells);
  }
  throw std::logic_error("make_deployment: unknown deployment shape");
}

std::shared_ptr<const mobility::MobilityModel> make_mobility(
    const ScenarioSpec& spec, const UeProfile& profile, std::uint64_t root_seed,
    const net::Deployment& deployment) {
  switch (profile.mobility) {
    case MobilityScenario::kHumanWalk:
      return net::make_edge_walk(deployment, profile.walk_speed_mps,
                                 spec.duration,
                                 derive_seed(root_seed, "mobility"));
    case MobilityScenario::kRotation:
      return net::make_edge_rotation(deployment, profile.rotation_rate_deg_s);
    case MobilityScenario::kVehicular:
      return net::make_drive(deployment,
                             mph_to_mps(profile.vehicle_speed_mph));
    case MobilityScenario::kPingPong:
      return net::make_edge_ping_pong(deployment, profile.ping_pong_speed_mps,
                                      profile.ping_pong_amplitude_m,
                                      spec.duration);
  }
  throw std::logic_error("make_mobility: unknown scenario");
}

std::unique_ptr<net::RadioEnvironment> make_ue_environment(
    const ScenarioSpec& spec, std::size_t ue,
    const net::Deployment& deployment) {
  const UeProfile& profile = spec.ues.at(ue);
  const std::uint64_t root_seed = fleet_ue_seed(spec.seed, ue);
  net::EnvironmentConfig env_config = spec.environment;
  env_config.horizon = spec.duration + sim::Duration::milliseconds(1000);
  env_config.seed = derive_seed(root_seed, "environment");
  env_config.ue = static_cast<net::UeId>(ue);
  return std::make_unique<net::RadioEnvironment>(
      env_config, deployment.base_stations,
      make_mobility(spec, profile, root_seed, deployment),
      make_ue_codebook(profile.ue_beamwidth_deg, profile.ue_ula_codebook),
      deployment.neighbor_lists);
}

namespace {

/// Owns everything alive during one mobile's run; members are declared in
/// dependency order so destruction tears protocols down before the
/// environment. The shared deployment is only read during construction
/// (base stations are copied into the per-UE environment), so one
/// Deployment can back many concurrent ScenarioRuns.
class ScenarioRun {
 public:
  ScenarioRun(const ScenarioSpec& spec, std::size_t ue,
              const net::Deployment& deployment)
      : spec_(spec),
        profile_(spec.ues.at(ue)),
        rate_(spec.rate, spec.metric_period) {
    environment_ = make_ue_environment(spec, ue, deployment);
    if (profile_.handover_policy.enabled) {
      // One decision instance per mobile, shared across the whole
      // handover chain: the ping-pong penalty timer must survive the
      // handover that started it.
      decision_ = std::make_unique<net::HandoverDecision>(
          profile_.handover_policy, spec.cell_load);
    }
    if (profile_.beam_policy.kind != BeamPolicyKind::kSilentTracker) {
      // One policy instance per mobile, shared across the handover chain
      // (mirrors the decision layer). Default kind stays null so the
      // tracker builds its own — the historical construction, bit for
      // bit.
      policy_ = make_beam_policy(profile_.beam_policy);
    }
    for (const double load : spec.cell_load) {
      has_load_ |= load > 0.0;
    }
    if (spec.collect_trace) {
      trace_ = std::make_shared<obs::TraceRecorder>(
          obs::TraceConfig{spec.trace_buffer_capacity});
      simulator_.set_dispatch_histogram(
          &trace_->metrics().histogram("engine.dispatch_us"));
    }
  }

  ScenarioResult run(const sim::CancelToken* cancel = nullptr) {
    // Steady-state initial condition: the mobile has been inside cell 0
    // with BeamSurfer keeping it aligned; start from the true best pair.
    const phy::Channel::BestPair initial =
        environment_->ground_truth_best_pair(0, Time::zero());
    environment_->bs_mutable(0).set_serving_tx_beam(initial.tx_beam);

    start_protocol(0, initial.rx_beam, initial.rx_power_dbm);
    schedule_metric_tick();
    result_.cancelled =
        !simulator_.run_until(Time::zero() + spec_.duration, cancel);
    result_.rate = rate_.finish(simulator_.now());
    result_.ssb_observations = environment_->ssb_observation_count();
    result_.engine = simulator_.stats();
    result_.snapshot_cache = environment_->snapshot_stats();
    if (trace_ != nullptr) {
      obs::MetricRegistry& metrics = trace_->metrics();
      metrics.gauge("engine.queue_depth_hwm")
          .set(static_cast<double>(result_.engine.queue_depth_hwm));
      metrics.gauge("engine.wall_per_sim_second")
          .set(result_.engine.wall_per_sim_second());
      metrics.gauge("phy.snapshot_cache.hit_rate")
          .set(result_.snapshot_cache.hit_rate());
    }
    result_.trace = trace_;
    return std::move(result_);
  }

 private:
  void start_protocol(net::CellId serving, phy::BeamId rx_beam,
                      double rss_dbm) {
    if (profile_.protocol == ProtocolKind::kSilentTracker) {
      trackers_.push_back(std::make_unique<SilentTracker>(
          simulator_, *environment_, profile_.tracker));
      SilentTracker& tracker = *trackers_.back();
      tracker.set_counters(&result_.counters);
      tracker.set_tracer(trace_.get());
      if (decision_ != nullptr) {
        tracker.set_decision(decision_.get());
      }
      if (policy_ != nullptr) {
        tracker.set_policy(policy_.get());
      }
      tracker.start(serving, rx_beam, rss_dbm,
                    [this](const net::HandoverRecord& r) {
                      on_handover(r);
                    });
    } else {
      reactives_.push_back(std::make_unique<ReactiveHandover>(
          simulator_, *environment_, profile_.reactive));
      ReactiveHandover& reactive = *reactives_.back();
      reactive.set_counters(&result_.counters);
      reactive.set_tracer(trace_.get());
      reactive.start(serving, rx_beam, rss_dbm,
                     [this](const net::HandoverRecord& r) {
                       on_handover(r);
                     });
    }
  }

  void on_handover(net::HandoverRecord record) {
    const Time now = simulator_.now();
    if (record.success) {
      // Score the Fig. 2c criterion against ground truth at completion.
      const phy::Channel::BestBeam best = environment_->ground_truth_best_rx(
          record.to, record.target_tx_beam, now);
      const double got_snr = environment_->true_dl_snr_db(
          record.to, record.target_tx_beam, record.final_rx_beam, now);
      const double got_rss =
          got_snr + environment_->link_budget().noise_floor_dbm();
      record.beam_aligned_at_completion =
          best.rx_power_dbm - got_rss <= kAlignmentToleranceDb;
    }
    result_.handovers.push_back(record);
    if (record.success && decision_ != nullptr) {
      // Start the source cell's ping-pong penalty timer and drop the
      // stale candidate RSS (the mobile now measures from a new serving
      // context); the penalties themselves persist.
      decision_->record_handover(record.from, record.to, now);
      decision_->clear_candidates();
    }

    if (record.success && profile_.chain_handovers &&
        now + Duration::milliseconds(100) < Time::zero() + spec_.duration) {
      // Connected-mode beam refinement: once attached, the NR P-2/P-3
      // procedures (CSI-RS sweeps with network assistance) polish the
      // beam pair within a few tens of milliseconds — fast against our
      // mobility and abstracted here as adopting the best pair. The
      // alignment score above was taken *before* this, so it still
      // measures what the in-band tracker achieved on its own.
      const phy::Channel::BestPair refined =
          environment_->ground_truth_best_pair(record.to, now);
      environment_->bs_mutable(record.to).set_serving_tx_beam(refined.tx_beam);
      start_protocol(record.to, refined.rx_beam, refined.rx_power_dbm);
    } else if (record.success) {
      environment_->bs_mutable(record.to).set_serving_tx_beam(
          record.target_tx_beam);
    }
  }

  void schedule_metric_tick() {
    simulator_.schedule_periodic(Time::zero(), spec_.metric_period, [this] {
      sample_metrics();
    });
  }

  void sample_metrics() {
    const Time now = simulator_.now();

    if (profile_.protocol == ProtocolKind::kSilentTracker &&
        !trackers_.empty()) {
      const SilentTracker& tracker = *trackers_.back();

      // Serving link health while the protocol still believes in it.
      if (tracker.serving_alive()) {
        const double snr = environment_->true_dl_snr_db(
            tracker.serving_cell(),
            environment_->bs(tracker.serving_cell()).serving_tx_beam(),
            tracker.beamsurfer().rx_beam(), now);
        result_.serving_snr_db.record(now, snr);
        sample_rate(now, tracker.serving_cell(), snr,
                    tracker.beamsurfer().rx_beam());
      } else {
        sample_rate_unserved(now);
      }

      // Neighbour tracking quality (the Fig. 2c series).
      const SilentTrackerState state = tracker.state();
      if (state == SilentTrackerState::kTracking ||
          state == SilentTrackerState::kAccessing) {
        const net::CellId cell = tracker.neighbour_cell();
        const phy::BeamId tx = tracker.neighbour_tx_beam();
        const double tracked_rss =
            environment_->true_dl_snr_db(cell, tx,
                                         tracker.neighbour_rx_beam(), now) +
            environment_->link_budget().noise_floor_dbm();
        const phy::Channel::BestBeam best =
            environment_->ground_truth_best_rx(cell, tx, now);
        result_.neighbour_tracked_rss_dbm.record(now, tracked_rss);
        result_.neighbour_best_rss_dbm.record(now, best.rx_power_dbm);
        result_.alignment_gap_db.record(now,
                                        best.rx_power_dbm - tracked_rss);
      }
    } else if (profile_.protocol == ProtocolKind::kReactive &&
               !reactives_.empty()) {
      const ReactiveHandover& reactive = *reactives_.back();
      if (reactive.serving_alive()) {
        // The reactive baseline has no neighbour series by construction.
        const double snr = environment_->true_dl_snr_db(
            reactive.serving_cell(),
            environment_->bs(reactive.serving_cell()).serving_tx_beam(),
            reactive.beamsurfer().rx_beam(), now);
        result_.serving_snr_db.record(now, snr);
        sample_rate(now, reactive.serving_cell(), snr,
                    reactive.beamsurfer().rx_beam());
      } else {
        sample_rate_unserved(now);
      }
    }
  }

  /// One rate-layer sample on a served tick: SINR from the serving SNR
  /// plus load-weighted interference from every loaded non-serving cell
  /// (each cell heard on its own serving TX beam through the mobile's
  /// current RX beam). All queries ride the snapshot cache and draw no
  /// randomness, so the sampling is invisible to the run's events — and
  /// with no loaded cells (the paper presets) SINR degenerates to SNR
  /// without touching the cache at all.
  void sample_rate(Time now, net::CellId serving, double snr_db,
                   phy::BeamId rx_beam) {
    if (!spec_.rate.enabled) {
      return;
    }
    const double noise_dbm = environment_->link_budget().noise_floor_dbm();
    double interference = 0.0;
    if (has_load_) {
      interf_rss_.clear();
      interf_load_.clear();
      const auto n_cells = static_cast<net::CellId>(std::min<std::size_t>(
          environment_->cell_count(), spec_.cell_load.size()));
      for (net::CellId cell = 0; cell < n_cells; ++cell) {
        if (cell == serving || spec_.cell_load[cell] <= 0.0) {
          continue;
        }
        const double rss_dbm =
            environment_->true_dl_snr_db(
                cell, environment_->bs(cell).serving_tx_beam(), rx_beam, now) +
            noise_dbm;
        interf_rss_.push_back(rss_dbm);
        interf_load_.push_back(spec_.cell_load[cell]);
      }
      interference = rate::interference_mw(
          interf_rss_.data(), interf_load_.data(), interf_rss_.size());
    }
    rate_.sample(now, rate::sinr_db(snr_db + noise_dbm, noise_dbm, interference),
                 /*served=*/true);
  }

  /// One rate-layer sample inside a handover gap: no serving link, so the
  /// tick is unserved regardless of SINR (interruption counts as outage
  /// once it exceeds the minimum window).
  void sample_rate_unserved(Time now) {
    if (!spec_.rate.enabled) {
      return;
    }
    rate_.sample(now, 0.0, /*served=*/false);
  }

  const ScenarioSpec& spec_;
  const UeProfile& profile_;
  sim::Simulator simulator_;
  std::shared_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<net::RadioEnvironment> environment_;
  std::unique_ptr<net::HandoverDecision> decision_;
  std::unique_ptr<BeamPolicy> policy_;
  std::vector<std::unique_ptr<SilentTracker>> trackers_;
  std::vector<std::unique_ptr<ReactiveHandover>> reactives_;
  rate::RateAccumulator rate_;
  bool has_load_ = false;
  /// Scratch for the per-tick interference sum (avoids reallocating on
  /// every metric tick).
  std::vector<double> interf_rss_;
  std::vector<double> interf_load_;
  ScenarioResult result_;
};

}  // namespace

double ScenarioResult::tracking_alignment_fraction() const {
  const auto points = alignment_gap_db.points();
  if (points.empty()) {
    return 0.0;
  }
  std::size_t aligned = 0;
  for (const auto& p : points) {
    if (p.value <= kAlignmentToleranceDb) {
      ++aligned;
    }
  }
  return static_cast<double>(aligned) / static_cast<double>(points.size());
}

double ScenarioResult::alignment_until_first_handover() const {
  Time cutoff = Time::zero() + Duration::milliseconds(
                                   std::numeric_limits<std::int64_t>::max() /
                                   2'000'000);
  for (const auto& h : handovers) {
    if (h.success) {
      cutoff = h.completed;
      break;
    }
  }
  const auto points = alignment_gap_db.points();
  std::size_t total = 0;
  std::size_t aligned = 0;
  for (const auto& p : points) {
    if (p.t > cutoff) {
      break;
    }
    ++total;
    if (p.value <= kAlignmentToleranceDb) {
      ++aligned;
    }
  }
  if (total == 0) {
    return tracking_alignment_fraction();
  }
  return static_cast<double>(aligned) / static_cast<double>(total);
}

std::size_t ScenarioResult::soft_handovers() const noexcept {
  std::size_t n = 0;
  for (const auto& h : handovers) {
    if (h.type == net::HandoverType::kSoft && h.success) {
      ++n;
    }
  }
  return n;
}

std::size_t ScenarioResult::hard_handovers() const noexcept {
  std::size_t n = 0;
  for (const auto& h : handovers) {
    if (h.type == net::HandoverType::kHard) {
      ++n;
    }
  }
  return n;
}

std::size_t ScenarioResult::successful_handovers() const noexcept {
  std::size_t n = 0;
  for (const auto& h : handovers) {
    if (h.success) {
      ++n;
    }
  }
  return n;
}

bool ScenarioResult::all_handovers_aligned() const noexcept {
  for (const auto& h : handovers) {
    if (h.success && !h.beam_aligned_at_completion) {
      return false;
    }
  }
  return true;
}

ScenarioResult run_scenario_ue(const ScenarioSpec& spec, std::size_t ue,
                               const net::Deployment& deployment) {
  return run_scenario_ue(spec, ue, deployment, nullptr);
}

ScenarioResult run_scenario_ue(const ScenarioSpec& spec, std::size_t ue,
                               const net::Deployment& deployment,
                               const sim::CancelToken* cancel) {
  if (ue >= spec.ues.size()) {
    throw std::out_of_range("run_scenario_ue: UE index beyond the fleet");
  }
  ScenarioRun run(spec, ue, deployment);
  return run.run(cancel);
}

ScenarioResult run_scenario_ue(const ScenarioSpec& spec, std::size_t ue) {
  const net::Deployment deployment = make_deployment(spec);
  return run_scenario_ue(spec, ue, deployment);
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  if (spec.ue_count() != 1) {
    throw std::invalid_argument(
        "run_scenario: spec holds a fleet; use fleet::run_fleet");
  }
  return run_scenario_ue(spec, 0);
}

namespace {

/// Drop-to-switch latency per component: every kRssDrop is answered (or
/// not) by the next kRxBeamSwitch of the same component; the gap is the
/// tracking loop's reaction time.
void add_tracking_loop_latencies(const obs::TraceRecorder& trace,
                                 obs::Component component,
                                 LogLinearHistogram& out) {
  Time drop_at = Time::zero();
  bool drop_pending = false;
  for (const obs::TraceEvent& e : trace.buffer(component).snapshot()) {
    if (e.type == obs::TraceEventType::kRssDrop) {
      drop_at = e.t;
      drop_pending = true;
    } else if (e.type == obs::TraceEventType::kRxBeamSwitch && drop_pending) {
      out.add((e.t - drop_at).ms());
      drop_pending = false;
    }
  }
}

/// Collect value2 (= latency in ms) of every event of `type`.
void add_outcome_latencies(const obs::TraceRecorder& trace,
                           obs::Component component, obs::TraceEventType type,
                           LogLinearHistogram& out) {
  for (const obs::TraceEvent& e : trace.buffer(component).snapshot()) {
    if (e.type == type) {
      out.add(e.value2);
    }
  }
}

}  // namespace

obs::RunReport build_run_report(const ScenarioSpec& spec,
                                const ScenarioResult& result, std::size_t ue) {
  const UeProfile& profile = spec.ues.at(ue);
  obs::RunReport report;
  report.scenario = std::string(to_string(profile.mobility));
  report.protocol = std::string(to_string(profile.protocol));
  report.beam_policy = std::string(to_string(profile.beam_policy.kind));
  report.seed = fleet_ue_seed(spec.seed, ue);
  report.duration_ms = spec.duration.ms();
  report.ue_beamwidth_deg = profile.ue_beamwidth_deg;
  report.n_cells = spec.n_cells;
  report.provenance.simd_dispatch = std::string(phy::simd::mode());

  obs::HandoverReport& ho = report.handover;
  ho.total = result.handovers.size();
  ho.successful = result.successful_handovers();
  ho.soft = result.soft_handovers();
  ho.hard = result.hard_handovers();
  double interruption_sum = 0.0;
  std::uint64_t interruption_n = 0;
  for (const auto& h : result.handovers) {
    if (!h.success) {
      continue;
    }
    const double ms = h.interruption().ms();
    if (interruption_n == 0) {
      ho.first_interruption_ms = ms;
    }
    interruption_sum += ms;
    ++interruption_n;
  }
  ho.mean_interruption_ms =
      interruption_n > 0
          ? interruption_sum / static_cast<double>(interruption_n)
          : 0.0;
  const obs::MetricRegistry& counters = result.counters;
  ho.rx_beam_switches = counters.counter_value("serving_rx_switches") +
                        counters.counter_value("neighbour_rx_switches");
  ho.tx_beam_switches = counters.counter_value("bs_switches") +
                        counters.counter_value("neighbour_tx_retargets");
  ho.alignment_fraction = result.tracking_alignment_fraction();
  ho.alignment_until_first_handover = result.alignment_until_first_handover();
  ho.ssb_observations = result.ssb_observations;
  ho.ping_pongs = net::count_ping_pongs(result.handovers,
                                        profile.handover_policy.ping_pong_window);

  obs::RateReport& rr = report.rate;
  rr.enabled = spec.rate.enabled;
  rr.samples = result.rate.samples;
  rr.served_samples = result.rate.served_samples;
  rr.mean_throughput_mbps = result.rate.mean_throughput_mbps();
  rr.mean_sinr_db = result.rate.mean_sinr_db();
  rr.mean_cqi = result.rate.mean_cqi();
  rr.outage_events = result.rate.outage_events;
  rr.outage_ms = result.rate.outage_ms;
  rr.longest_outage_ms = result.rate.longest_outage_ms;
  rr.outage_fraction = result.rate.outage_fraction();

  report.engine.events_executed = result.engine.events_executed;
  report.engine.queue_depth_hwm = result.engine.queue_depth_hwm;
  report.engine.wall_seconds = result.engine.wall_seconds;
  report.engine.sim_seconds = result.engine.sim_seconds;
  report.engine.wall_per_sim_second = result.engine.wall_per_sim_second();

  const net::SnapshotCacheStats& cache = result.snapshot_cache;
  report.snapshot_cache.hits = cache.hits;
  report.snapshot_cache.refreshes = cache.refreshes;
  report.snapshot_cache.cold_misses = cache.cold_misses;
  report.snapshot_cache.invalidations = cache.invalidations;
  report.snapshot_cache.pair_sweeps = cache.pair_sweeps;
  report.snapshot_cache.rx_sweeps = cache.rx_sweeps;
  report.snapshot_cache.full_builds = cache.full_builds;
  report.snapshot_cache.incremental_builds = cache.incremental_builds;
  report.snapshot_cache.geometry_reuses = cache.geometry_reuses;
  report.snapshot_cache.shadow_reuses = cache.shadow_reuses;
  report.snapshot_cache.blockage_reuses = cache.blockage_reuses;
  report.snapshot_cache.azimuth_reuses = cache.azimuth_reuses;
  report.snapshot_cache.hit_rate = cache.hit_rate();

  for (const auto& [name, counter] : counters.counters()) {
    report.counters[name] = counter.value();
  }

  if (result.trace != nullptr) {
    const obs::TraceRecorder& trace = *result.trace;
    report.trace_events = trace.total_events();
    report.trace_dropped = trace.total_dropped();

    LogLinearHistogram tracking_ms;
    add_tracking_loop_latencies(trace, obs::Component::kBeamSurfer,
                                tracking_ms);
    add_tracking_loop_latencies(trace, obs::Component::kSilentTracker,
                                tracking_ms);
    if (tracking_ms.count() > 0) {
      report.latencies["tracking_loop_ms"] =
          obs::HistogramSummary::from(tracking_ms);
    }

    LogLinearHistogram search_ms;
    add_outcome_latencies(trace, obs::Component::kCellSearch,
                          obs::TraceEventType::kSearchOutcome, search_ms);
    if (search_ms.count() > 0) {
      report.latencies["search_ms"] = obs::HistogramSummary::from(search_ms);
    }

    LogLinearHistogram rach_ms;
    add_outcome_latencies(trace, obs::Component::kRach,
                          obs::TraceEventType::kRachOutcome, rach_ms);
    if (rach_ms.count() > 0) {
      report.latencies["rach_ms"] = obs::HistogramSummary::from(rach_ms);
    }

    for (const auto& [name, histogram] : trace.metrics().histograms()) {
      report.latencies[name] = obs::HistogramSummary::from(histogram);
    }
    for (const auto& [name, gauge] : trace.metrics().gauges()) {
      report.gauges[name] = gauge.value();
    }
  }

  return report;
}

}  // namespace st::core
