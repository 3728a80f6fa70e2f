// The fleet scenario engine: N independent mobiles against one shared
// deployment.
//
// A ScenarioSpec with several UeProfiles describes a fleet; run_fleet()
// builds the deployment once, runs every mobile through the core scenario
// engine — each from its own splitmix-derived root seed, with its own
// mobility model, codebook, protocol instance, RNG streams, and
// UE-id-keyed snapshot cache — and aggregates the per-UE outcomes.
// Execution shards UEs across a thread pool (fleet::parallel_map); the
// result is bit-identical between serial and parallel execution for any
// thread count, because each UE's run is a pure function of its root seed
// and results are absorbed in UE order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/scenario.hpp"
#include "obs/report.hpp"
#include "sim/cancel.hpp"

namespace st::fleet {

/// Optional control surface of a fleet run, used by long-lived callers
/// (the scenario service): a cooperative cancellation token polled by
/// every UE's event loop, and a progress hook fired after each UE
/// completes. The hook runs on the worker thread that finished the UE
/// and may fire concurrently — it must be thread-safe and cheap. A
/// default-constructed RunControl changes nothing about the run.
struct RunControl {
  const sim::CancelToken* cancel = nullptr;
  /// (UEs completed so far, fleet size). `completed` counts invocation
  /// order, not UE ids — UEs finish out of order under sharding.
  std::function<void(std::size_t completed, std::size_t total)> on_ue_complete;
};

/// Everything a fleet run produces: the per-UE results (index = UE id)
/// plus fleet-level aggregates. The wall-clock fields are the only
/// non-deterministic content; every equivalence test compares the rest.
struct FleetResult {
  std::vector<core::ScenarioResult> ue_results;

  /// Engine stats merged across UEs (events and dispatch time sum, queue
  /// high-water mark is the max).
  sim::EngineStats engine;
  /// Snapshot-cache and sweep-kernel counters summed across UEs.
  net::SnapshotCacheStats snapshot_cache;
  /// Rate-layer totals merged across UEs in UE order — bit-identical
  /// serial vs parallel, because each UE's stats are deterministic and
  /// the merge is a fixed-order reduction.
  rate::RateStats rate;
  /// Total SSB listening attempts across the fleet.
  std::uint64_t ssb_observations = 0;

  /// True when a RunControl cancellation stopped the fleet early; the
  /// per-UE results are then partial (each a consistent prefix).
  bool cancelled = false;

  /// Wall-clock of the whole fleet run (serial or sharded) — unlike
  /// engine.wall_seconds, which sums per-UE dispatch time across threads.
  double wall_seconds = 0.0;
  /// Worker threads the run was sharded over (1 = serial).
  unsigned threads_used = 1;

  [[nodiscard]] std::size_t ue_count() const noexcept {
    return ue_results.size();
  }

  /// Fleet throughput: mobiles simulated per wall second.
  [[nodiscard]] double ues_per_second() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(ue_results.size()) / wall_seconds
               : 0.0;
  }
};

/// Run every mobile of `spec` to completion. `n_threads == 0` uses the
/// hardware concurrency, 1 forces a serial run; any value produces a
/// bit-identical FleetResult apart from the wall-clock fields.
[[nodiscard]] FleetResult run_fleet(const core::ScenarioSpec& spec,
                                    unsigned n_threads = 0);

/// As above with a control surface: `control.cancel` stops every UE
/// within one scenario step of firing (partial results are returned
/// with `cancelled` set), `control.on_ue_complete` reports progress.
/// A default RunControl makes this bit-identical to the plain overload
/// apart from the wall-clock fields.
[[nodiscard]] FleetResult run_fleet(const core::ScenarioSpec& spec,
                                    unsigned n_threads,
                                    const RunControl& control);

/// Assemble the fleet-level report: one row per UE (alignment fraction,
/// handover outcomes, RACH attempts) plus the fleet distributions of
/// alignment, handover interruption, and RACH attempts, merged engine and
/// snapshot-cache stats, and throughput.
[[nodiscard]] obs::FleetReport build_fleet_report(const core::ScenarioSpec& spec,
                                                  const FleetResult& result);

}  // namespace st::fleet
