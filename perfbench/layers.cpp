// The traced run's per-layer split. Every number comes from the harness
// timing calls into a layer's public functions on a workload's own UEs,
// seeds and 10 ms step cadence, and from the exact work counters the
// fleet result carries. A layer's busy time is count × unit cost; the
// protocol core's self share is what the layers leave of the job time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/scenario.hpp"
#include "net/handover_policy.hpp"
#include "rate/rate_model.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

namespace net = st::net;
namespace sim = st::sim;

/// Rounds of repeated same-instant queries per step in the hit probe:
/// enough calls per clock pair that the clock's own cost is small.
constexpr int kHitRounds = 4;
/// Events scheduled and dispatched by the event probe.
constexpr std::size_t kEventProbes = 20000;
/// UE-0 runs per probed job, each paired with a unit-cost pass.
constexpr int kProbeRepeats = 15;
/// Of those, the runs also paired with a collect_trace run.
constexpr int kTraceRepeats = 5;

/// Cost of one steady_clock::now() call (median of back-to-back pairs);
/// subtracted once from every timed interval.
[[nodiscard]] double clock_overhead_ns() {
  SampleSet s;
  for (int i = 0; i < 2001; ++i) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    s.add(std::chrono::duration<double, std::nano>(b - a).count());
  }
  return s.median();
}

[[nodiscard]] double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Keeps probe results observable so the compiler cannot drop the calls.
volatile double g_sink = 0.0;

/// Unit costs of one job, measured on its UE 0. The *_pass_ns fields are
/// per-link costs of whole passes that also refresh every link; the hit,
/// sweep and SSB costs are their excess over the refresh-only pass.
struct UnitCosts {
  double pose_ns = 0.0;
  double refresh_ns = 0.0;
  double hit_pass_ns = 0.0;
  double sweep_pass_ns = 0.0;
  double ssb_pass_ns = 0.0;
  double decision_ns = 0.0;
  double event_ns = 0.0;
  double interference_ns = 0.0;
  double sample_ns = 0.0;
};

/// Times `body(t)` over every step of the trajectory in one interval, on
/// a fresh environment of UE 0, in ns.
template <typename Body>
[[nodiscard]] double trajectory_pass(const core::ScenarioSpec& spec,
                                   const net::Deployment& deployment,
                                   double clock_ns, const Body& body) {
  const std::unique_ptr<net::RadioEnvironment> env =
      core::make_ue_environment(spec, 0, deployment);
  const std::int64_t steps = spec.duration / spec.metric_period;
  const Clock::time_point a = Clock::now();
  for (std::int64_t k = 1; k <= steps; ++k) {
    body(*env, sim::Time::zero() + k * spec.metric_period);
  }
  return ns_between(a, Clock::now()) - clock_ns;
}

/// What the probes replay of UE 0's trajectory, gathered once per job in
/// an untimed pass: the best beam pair per cell at the start, and per
/// step the strongest (serving) cell, the levels of the others, and the
/// SSB detections of every cell.
struct Trajectory {
  std::vector<st::phy::BeamId> tx, rx;
  std::vector<net::CellId> serving_cell;
  std::vector<double> serving_snr;
  std::vector<double> other_rss;  ///< per step, every non-serving cell
  std::vector<std::vector<net::SsbObservation>> detections;
};

[[nodiscard]] Trajectory trace_trajectory(const core::ScenarioSpec& spec,
                                          const net::Deployment& deployment) {
  Trajectory tr;
  const std::unique_ptr<net::RadioEnvironment> env =
      core::make_ue_environment(spec, 0, deployment);
  const std::size_t n_cells = env->cell_count();
  for (std::size_t c = 0; c < n_cells; ++c) {
    const auto best = env->ground_truth_best_pair(static_cast<net::CellId>(c),
                                                  sim::Time::zero());
    tr.tx.push_back(best.tx_beam);
    tr.rx.push_back(best.rx_beam);
  }
  const std::int64_t steps = spec.duration / spec.metric_period;
  std::vector<double> snr(n_cells);
  for (std::int64_t k = 1; k <= steps; ++k) {
    const sim::Time t = sim::Time::zero() + k * spec.metric_period;
    std::vector<net::SsbObservation>& seen = tr.detections.emplace_back();
    for (std::size_t c = 0; c < n_cells; ++c) {
      const auto cell = static_cast<net::CellId>(c);
      snr[c] = env->true_dl_snr_db(cell, tr.tx[c], tr.rx[c], t);
      const net::SsbObservation obs = env->observe_ssb(cell, tr.tx[c], tr.rx[c], t);
      if (obs.detected) {
        seen.push_back(obs);
      }
    }
    const auto serving = static_cast<std::size_t>(
        std::max_element(snr.begin(), snr.end()) - snr.begin());
    tr.serving_cell.push_back(static_cast<net::CellId>(serving));
    tr.serving_snr.push_back(snr[serving]);
    for (std::size_t c = 0; c < n_cells; ++c) {
      if (c != serving) {
        tr.other_rss.push_back(snr[c] - 90.0);  // a dBm-scale level
      }
    }
  }
  return tr;
}

/// Every time the probe takes is divided by the reference kernel's time
/// right after it (see reference_kernel_ms): costs are then in units of
/// that kernel, free of the core's contention state, and are turned back
/// into ns of the least-contended state at the end.
class PerReference {
 public:
  double operator()(double t) {
    const double k = reference_kernel_ms();
    floor_ms_ = std::min(floor_ms_, k);
    return t / k;
  }
  [[nodiscard]] double floor_ms() const { return floor_ms_; }

 private:
  double floor_ms_ = std::numeric_limits<double>::infinity();
};

[[nodiscard]] UnitCosts measure_costs(const core::ScenarioSpec& spec,
                                      const net::Deployment& deployment,
                                      const Trajectory& tr,
                                      std::size_t queue_depth_hwm,
                                      double clock_ns, PerReference& per_ref) {
  UnitCosts u;
  const auto mobility = core::make_mobility(
      spec, spec.ues.front(), core::fleet_ue_seed(spec.seed, 0), deployment);
  const std::size_t n_cells = deployment.base_stations.size();
  const sim::Duration period = spec.metric_period;
  const std::int64_t steps = spec.duration / period;
  const auto at = [&](std::int64_t k) { return sim::Time::zero() + k * period; };
  const double links = static_cast<double>(steps) * static_cast<double>(n_cells);

  // mobility: pose_at along the trajectory
  {
    double sink = 0.0;
    const Clock::time_point a = Clock::now();
    for (std::int64_t k = 1; k <= steps; ++k) {
      sink += mobility->pose_at(at(k)).position.x;
    }
    const Clock::time_point b = Clock::now();
    g_sink = sink;
    u.pose_ns =
        per_ref((ns_between(a, b) - clock_ns) / static_cast<double>(steps));
  }

  // phy and net, by difference of whole-trajectory passes on fresh
  // environments: every pass makes the first query of each link at each
  // new instant (a snapshot refresh); the others add repeated queries at
  // that instant (hits), a receive-beam sweep, or an SSB listening
  // attempt per link.
  double sink = 0.0;
  const auto refresh = [&](net::RadioEnvironment& env, sim::Time t,
                           std::size_t c) {
    return env.true_dl_snr_db(static_cast<net::CellId>(c), tr.tx[c], tr.rx[c], t);
  };
  const double pass_refresh = per_ref(trajectory_pass(
      spec, deployment, clock_ns, [&](net::RadioEnvironment& env, sim::Time t) {
        for (std::size_t c = 0; c < n_cells; ++c) {
          sink += refresh(env, t, c);
        }
      }));
  const double pass_hit = per_ref(trajectory_pass(
      spec, deployment, clock_ns, [&](net::RadioEnvironment& env, sim::Time t) {
        for (std::size_t c = 0; c < n_cells; ++c) {
          sink += refresh(env, t, c);
          for (int r = 0; r < kHitRounds; ++r) {
            sink += refresh(env, t, c);
          }
        }
      }));
  const double pass_sweep = per_ref(trajectory_pass(
      spec, deployment, clock_ns, [&](net::RadioEnvironment& env, sim::Time t) {
        for (std::size_t c = 0; c < n_cells; ++c) {
          sink += refresh(env, t, c);
          sink += env.ground_truth_best_rx(static_cast<net::CellId>(c), tr.tx[c], t)
                      .rx_power_dbm;
        }
      }));
  // The SSB pass runs with co-channel interference off, so each attempt
  // makes exactly one snapshot query (its own link); the interfering
  // cells' queries of a real run are charged to phy like any other query.
  core::ScenarioSpec quiet = spec;
  quiet.environment.enable_interference = false;
  const double pass_ssb = per_ref(trajectory_pass(
      quiet, deployment, clock_ns, [&](net::RadioEnvironment& env, sim::Time t) {
        for (std::size_t c = 0; c < n_cells; ++c) {
          sink += refresh(env, t, c);
          sink += env.observe_ssb(static_cast<net::CellId>(c), tr.tx[c],
                                  tr.rx[c], t)
                      .rss_dbm;
        }
      }));
  g_sink = sink;
  u.refresh_ns = pass_refresh / links;
  u.hit_pass_ns = pass_hit / links;
  u.sweep_pass_ns = pass_sweep / links;
  u.ssb_pass_ns = pass_ssb / links;

  // net: one decision round per step (tracked-cell RSS update, selection
  // over the step's detections, crossover test) with the UE's own policy
  // switched on, so every workload measures the same logic.
  {
    net::HandoverPolicyConfig policy = spec.ues.front().handover_policy;
    policy.enabled = true;
    net::HandoverDecision decision(policy, spec.cell_load);
    double decided = 0.0;
    for (std::int64_t k = 1; k <= steps; ++k) {
      const sim::Time t = at(k);
      const auto idx = static_cast<std::size_t>(k - 1);
      for (const net::SsbObservation& obs : tr.detections[idx]) {
        decision.observe(obs);
      }
      const net::CellId serving = tr.serving_cell[idx];
      const net::NeighborList& neighbours = deployment.neighbors(serving);
      const Clock::time_point d0 = Clock::now();
      decision.update_rss(serving, tr.serving_snr[idx], t);
      const auto pick = decision.select(tr.detections[idx], neighbours, t, true);
      const auto cross =
          decision.crossover(serving, tr.serving_snr[idx], neighbours, t);
      decided += ns_between(d0, Clock::now()) - clock_ns;
      g_sink = static_cast<double>(pick.value_or(0)) +
               (cross.has_value() ? cross->score_db : 0.0);
    }
    u.decision_ns = per_ref(decided / static_cast<double>(steps));
  }

  // sim: schedule + dispatch of empty events, in batches that take the
  // pending set to the job's queue high-water mark (half of it stays
  // pending far in the future, the other half is scheduled and
  // dispatched per batch).
  {
    sim::Simulator simulator;
    const std::size_t hwm = std::max<std::size_t>(2, queue_depth_hwm);
    const std::size_t batch = hwm - hwm / 2;
    const sim::Time far =
        sim::Time::from_ns(std::numeric_limits<std::int64_t>::max() / 2);
    for (std::size_t i = 0; i < hwm / 2; ++i) {
      simulator.schedule_at(far, [] {});
    }
    std::int64_t now_ns = 0;
    std::size_t dispatched = 0;
    const Clock::time_point a = Clock::now();
    while (dispatched < kEventProbes) {
      for (std::size_t i = 0; i < batch; ++i) {
        now_ns += 1000;
        simulator.schedule_at(sim::Time::from_ns(now_ns), [] {});
      }
      // The dispatch loop run_until drives, minus its wall-clock stamps
      // (the engine takes those once per UE run, not per batch).
      while (simulator.step(sim::Time::from_ns(now_ns))) {
      }
      dispatched += batch;
    }
    const Clock::time_point b = Clock::now();
    u.event_ns = per_ref((ns_between(a, b) - clock_ns) /
                         static_cast<double>(dispatched));
  }

  // rate: the interference sum over the non-serving cells and the
  // accumulator's per-tick sample.
  {
    const std::size_t others = n_cells - 1;
    std::vector<double> load(others, 0.0);
    for (std::size_t c = 0; c < others && c < spec.cell_load.size(); ++c) {
      load[c] = spec.cell_load[c + 1];
    }
    double mw = 0.0;
    const Clock::time_point a = Clock::now();
    for (std::int64_t k = 0; k < steps; ++k) {
      mw += st::rate::interference_mw(
          tr.other_rss.data() + static_cast<std::size_t>(k) * others, load.data(),
          others);
    }
    const Clock::time_point b = Clock::now();
    g_sink = mw;
    u.interference_ns =
        per_ref((ns_between(a, b) - clock_ns) / static_cast<double>(steps));

    st::rate::RateAccumulator acc(spec.rate, period);
    const Clock::time_point c0 = Clock::now();
    for (std::int64_t k = 0; k < steps; ++k) {
      acc.sample(at(k), tr.serving_snr[static_cast<std::size_t>(k)], true);
    }
    const Clock::time_point c1 = Clock::now();
    g_sink = acc.stats().bits;
    u.sample_ns =
        per_ref((ns_between(c0, c1) - clock_ns) / static_cast<double>(steps));
  }
  return u;
}

[[nodiscard]] bool any_load(const core::ScenarioSpec& spec) {
  return std::any_of(spec.cell_load.begin(), spec.cell_load.end(),
                     [](double l) { return l > 0.0; });
}

}  // namespace

LayerSplit probe_layers(const std::vector<Job>& jobs) {
  LayerSplit s;
  const double clock_ns = clock_overhead_ns();
  PerReference per_ref;
  for (const Job& job : jobs) {
    const core::ScenarioSpec& spec = job.spec;

    // One serial fleet run with per-UE completion stamps: the output
    // fingerprint, the exact counts of every UE, per-UE run times.
    std::mutex mutex;
    std::vector<double> done;
    const Clock::time_point t0 = Clock::now();
    fleet::RunControl control;
    control.on_ue_complete = [&](std::size_t, std::size_t) {
      const double at = seconds_since(t0);
      const std::lock_guard<std::mutex> lock(mutex);
      done.push_back(at);
    };
    const fleet::FleetResult result = fleet::run_fleet(spec, 1, control);
    const double fleet_s = seconds_since(t0);
    const Clock::time_point r0 = Clock::now();
    const std::string report = fleet::build_fleet_report(spec, result).to_json();
    const double report_s = seconds_since(r0);
    // One reference reading serves the fleet run, its stamps and report.
    const double unit = per_ref(1.0);
    s.fleet_run_s += fleet_s * unit;
    s.report_ms.add(report_s * 1e3 * unit);
    s.report_bytes.add(static_cast<double>(report.size()));
    s.fingerprints.push_back(fingerprint_report(json::parse(report)));

    double prev = 0.0, mean_done = 0.0;
    for (const double d : done) {
      s.run_ue_ms.add((d - prev) * 1e3 * unit);
      prev = d;
      mean_done += d / static_cast<double>(done.size());
    }
    s.ue_run_s += done.back() * unit;
    s.straggler.add(done.back() / mean_done);
    for (const core::ScenarioResult& ue : result.ue_results) {
      s.hits += ue.snapshot_cache.hits;
      s.rebuilds += ue.snapshot_cache.rebuilds();
      s.ssb_observations += ue.ssb_observations;
      s.events += ue.engine.events_executed;
      s.rate_samples += ue.rate.samples;
      s.ue_seconds += ue.engine.sim_seconds;
      s.ue_steps += ue.engine.sim_seconds / spec.metric_period.seconds();
      s.handovers += ue.successful_handovers();
      for (const st::net::HandoverRecord& h : ue.handovers) {
        s.rach_attempts += h.rach_attempts;
      }
    }
    s.ues += result.ue_results.size();

    // Attribution on UE 0: its run, with collect_trace off and on, in
    // alternation with unit-cost passes on its trajectory; every time in
    // reference-kernel units, each quantity the median of its passes.
    const st::net::Deployment deployment = core::make_deployment(spec);
    core::ScenarioSpec traced = spec;
    traced.collect_trace = true;
    SampleSet off_s, on_s;
    std::vector<UnitCosts> passes;
    core::ScenarioResult ue0;
    const Trajectory trajectory = trace_trajectory(spec, deployment);
    for (int rep = 0; rep < kProbeRepeats; ++rep) {
      const Clock::time_point a = Clock::now();
      ue0 = core::run_scenario_ue(spec, 0, deployment);
      off_s.add(per_ref(seconds_since(a)));
      if (rep < kTraceRepeats) {
        const Clock::time_point b = Clock::now();
        g_sink = core::run_scenario_ue(traced, 0, deployment).engine.sim_seconds;
        on_s.add(per_ref(seconds_since(b)));
      }
      passes.push_back(measure_costs(spec, deployment, trajectory,
                                     ue0.engine.queue_depth_hwm, clock_ns,
                                     per_ref));
    }
    SampleSet paired_off;
    paired_off.add_all(off_s.samples().subspan(0, kTraceRepeats));
    s.trace_off_s += paired_off.median();
    s.trace_on_s += on_s.median();
    s.attributed_s += off_s.median();
    s.attributed_spread_s +=
        (off_s.percentile(75.0) - off_s.percentile(25.0)) / 2.0;

    const auto median_cost = [&](double UnitCosts::*field) {
      SampleSet v;
      for (const UnitCosts& p : passes) {
        v.add(p.*field);
      }
      return v.median();
    };
    UnitCosts u;
    for (double UnitCosts::*field :
         {&UnitCosts::pose_ns, &UnitCosts::refresh_ns, &UnitCosts::hit_pass_ns,
          &UnitCosts::sweep_pass_ns, &UnitCosts::ssb_pass_ns,
          &UnitCosts::decision_ns, &UnitCosts::event_ns,
          &UnitCosts::interference_ns, &UnitCosts::sample_ns}) {
      u.*field = median_cost(field);
    }
    const double hit_ns = (u.hit_pass_ns - u.refresh_ns) / kHitRounds;
    const double sweep_ns = u.sweep_pass_ns - u.refresh_ns;
    const double ssb_ns = u.ssb_pass_ns - u.refresh_ns;
    s.pose_ns.add(u.pose_ns);
    s.refresh_ns.add(u.refresh_ns);
    s.hit_ns.add(hit_ns);
    s.rx_sweep_ns.add(sweep_ns);
    s.ssb_observe_ns.add(ssb_ns);
    s.decision_ns.add(u.decision_ns);
    s.event_ns.add(u.event_ns);
    s.interference_ns.add(u.interference_ns);
    s.sample_ns.add(u.sample_ns);

    // An SSB attempt at a cached instant, its own link's snapshot query
    // included, is net's. Every other snapshot query that is not a sweep
    // evaluates one link gain (a hit's whole cost), and a rebuild adds the
    // refresh's excess over a hit: that is phy, as are the sweeps.
    const net::SnapshotCacheStats& cache = ue0.snapshot_cache;
    const double queries = static_cast<double>(cache.hits + cache.rebuilds());
    const double sweeps = static_cast<double>(cache.rx_sweeps + cache.pair_sweeps);
    const double ssb = static_cast<double>(ue0.ssb_observations);
    const double gain_evals = queries - sweeps - ssb;
    const double rebuild_ns = u.refresh_ns - hit_ns;
    if (hit_ns < 0.0 || sweep_ns < 0.0 || ssb_ns < 0.0 || rebuild_ns < 0.0 ||
        gain_evals < 0.0) {
      throw std::runtime_error(
          "attribution: inconsistent unit costs (hit " + std::to_string(hit_ns) +
          " ns, sweep " + std::to_string(sweep_ns) + " ns, refresh " +
          std::to_string(u.refresh_ns) + " ns, SSB " + std::to_string(ssb_ns) +
          " ns) or counts (" + std::to_string(gain_evals) +
          " gain evaluations left)");
    }
    const net::HandoverPolicyConfig& policy = spec.ues.front().handover_policy;
    // Decision rounds run at the rival-scan cadence.
    const double decision_rounds =
        policy.enabled
            ? ue0.engine.sim_seconds / policy.rival_scan_period.seconds()
            : 0.0;
    s.phy_busy_s += (gain_evals * hit_ns +
                     static_cast<double>(cache.rebuilds()) * rebuild_ns +
                     sweeps * sweep_ns) *
                    1e-9;
    s.net_busy_s += (ssb * ssb_ns +
                     decision_rounds * u.decision_ns) *
                    1e-9;
    s.sim_busy_s +=
        static_cast<double>(ue0.engine.events_executed) * u.event_ns * 1e-9;
    s.rate_busy_s +=
        static_cast<double>(ue0.rate.samples) *
        (u.sample_ns + (any_load(spec) ? u.interference_ns : 0.0)) * 1e-9;
  }

  // Back from reference-kernel units to seconds (and ns) of the
  // least-contended state the probe saw.
  const double scale = per_ref.floor_ms();
  for (double* t : {&s.phy_busy_s, &s.net_busy_s, &s.sim_busy_s, &s.rate_busy_s,
                    &s.ue_run_s, &s.fleet_run_s, &s.attributed_s,
                    &s.attributed_spread_s, &s.trace_on_s, &s.trace_off_s}) {
    *t *= scale;
  }
  for (SampleSet* set : {&s.pose_ns, &s.refresh_ns, &s.hit_ns, &s.rx_sweep_ns,
                         &s.ssb_observe_ns, &s.decision_ns, &s.event_ns,
                         &s.interference_ns, &s.sample_ns, &s.run_ue_ms,
                         &s.report_ms}) {
    SampleSet scaled;
    for (const double v : set->samples()) {
      scaled.add(v * scale);
    }
    *set = std::move(scaled);
  }

  const double busy =
      s.phy_busy_s + s.net_busy_s + s.sim_busy_s + s.rate_busy_s;
  // A sum of layer costs beyond the job time by more than that time's own
  // spread is double counting.
  if (busy > s.attributed_s + s.attributed_spread_s) {
    throw std::runtime_error(
        "attribution: the layers' busy time (" + std::to_string(busy) +
        " s) exceeds the job time (" + std::to_string(s.attributed_s) +
        " s) by more than its measurement spread (" +
        std::to_string(s.attributed_spread_s) + " s)");
  }
  return s;
}

void print_split(const LayerSplit& s, double trace_overhead_frac) {
  const double job = s.attributed_s;
  std::printf(
      "split of %.4f s UE-0 job time: phy %.1f%%  net %.1f%%  sim %.1f%%  "
      "rate %.1f%%  core(self) %.1f%% (job-time spread %.1f%%)  | "
      "bench.trace_overhead_frac %.4f\n",
      job, 100.0 * s.phy_busy_s / job, 100.0 * s.net_busy_s / job,
      100.0 * s.sim_busy_s / job, 100.0 * s.rate_busy_s / job,
      100.0 * (job - s.phy_busy_s - s.net_busy_s - s.sim_busy_s -
               s.rate_busy_s) / job,
      100.0 * s.attributed_spread_s / job, trace_overhead_frac);
}

void report_layers(const LayerSplit& s, MetricSink& m) {
  const double job = s.attributed_s;
  const double queries = static_cast<double>(s.hits + s.rebuilds);
  m.add("mobility.pose_ns", s.pose_ns.median(), "ns");
  m.add("phy.refresh_ns", s.refresh_ns.median(), "ns");
  m.add("phy.hit_ns", s.hit_ns.median(), "ns");
  m.add("phy.rx_sweep_ns", s.rx_sweep_ns.median(), "ns");
  m.add("phy.queries_per_ue_step", queries / s.ue_steps, "count");
  m.add("phy.rebuilds_per_ue_step",
        static_cast<double>(s.rebuilds) / s.ue_steps, "count");
  m.add("phy.hit_rate", static_cast<double>(s.hits) / queries, "fraction");
  m.add("phy.busy_frac", s.phy_busy_s / job, "fraction");
  m.add("net.ssb_observe_ns", s.ssb_observe_ns.median(), "ns");
  m.add("net.ssb_obs_per_ue_s",
        static_cast<double>(s.ssb_observations) / s.ue_seconds, "count");
  m.add("net.decision_ns", s.decision_ns.median(), "ns");
  m.add("net.busy_frac", s.net_busy_s / job, "fraction");
  m.add("sim.event_ns", s.event_ns.median(), "ns");
  m.add("sim.events_per_ue_s", static_cast<double>(s.events) / s.ue_seconds,
        "count");
  m.add("sim.busy_frac", s.sim_busy_s / job, "fraction");
  m.add("rate.interference_ns", s.interference_ns.median(), "ns");
  m.add("rate.sample_ns", s.sample_ns.median(), "ns");
  m.add("rate.samples_per_ue_s",
        static_cast<double>(s.rate_samples) / s.ue_seconds, "count");
  m.add("rate.busy_frac", s.rate_busy_s / job, "fraction");
  m.add("core.run_ue_ms_p50", s.run_ue_ms.median(), "ms");
  m.add("core.self_frac",
        1.0 - (s.phy_busy_s + s.net_busy_s + s.sim_busy_s + s.rate_busy_s) / job,
        "fraction");
  m.add("core.handovers_per_ue",
        static_cast<double>(s.handovers) / static_cast<double>(s.ues), "count");
  m.add("core.rach_per_handover",
        s.handovers == 0 ? 0.0
                         : static_cast<double>(s.rach_attempts) /
                               static_cast<double>(s.handovers),
        "count");
  m.add("obs.collect_trace_overhead_frac", s.trace_on_s / s.trace_off_s - 1.0,
        "fraction");
}

void report_serve(const ServeSplit& s, MetricSink& m) {
  m.add("serve.queue_wait_ms_p50", s.queue_wait_ms_p50, "ms");
  m.add("serve.run_ms_p50", s.run_ms_p50, "ms");
  m.add("serve.ping_us_p50", s.ping_us_p50, "us");
  m.add("serve.submit_us_p50", s.submit_us_p50, "us");
  m.add("serve.telemetry_frames_per_job", s.telemetry_frames_per_job, "count");
  m.add("serve.telemetry_dropped_frac", s.telemetry_dropped_frac, "fraction");
}

// ---- results -----------------------------------------------------------------

void MetricSink::add(const std::string& name, double value,
                     const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  entries_.push_back({name, value, unit});
}

json::Value MetricSink::to_json() const {
  json::Value out = json::Value::object();
  for (const Entry& e : entries_) {
    json::Value v = json::Value::object();
    v.set("value", json::Value::number(e.value));
    v.set("unit", json::Value::string(e.unit));
    out.set(e.name, std::move(v));
  }
  return out;
}

void MetricSink::print_table() const {
  for (const Entry& e : entries_) {
    std::printf("  %-34s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

double peak_rss_mib() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the parent's footprint carried across fork and exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

}  // namespace perfbench
