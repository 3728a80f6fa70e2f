// Shared declarations of the perfbench harness: the job catalogue, the
// output fingerprints every run is checked against, the per-layer probes
// of the traced run, and the metric sink that prints the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/scenario_spec.hpp"
#include "fleet/engine.hpp"

namespace perfbench {

namespace json = st::json;
namespace core = st::core;
namespace fleet = st::fleet;
using st::SampleSet;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The seed the stored fingerprint file was generated with.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// The stored fingerprints, relative to the checkout root.
inline constexpr const char* kFingerprintFile = "perfbench/fingerprints.json";

/// Command line of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  /// Regenerate the stored fingerprints for the default seed instead of
  /// measuring (maintenance mode; see NOTES.md).
  bool write_fingerprints = false;
};

/// One job of a workload's fixed cycle: the submission document the
/// service would receive and the spec it resolves to.
struct Job {
  json::Value doc;
  core::ScenarioSpec spec;
  std::string preset;
};

/// Workload shape: the presets a job cycle walks through and how each
/// job is sized and run.
struct WorkloadShape {
  std::string name;
  std::vector<std::string> presets;
  std::vector<std::uint64_t> n_ues;  ///< fleet size, per preset
  std::size_t rounds = 1;          ///< cycle length = presets × rounds
  std::int64_t duration_ms = 0;    ///< 0 keeps the preset's duration
  unsigned fleet_threads = 1;
  /// Concurrent closed-loop job streams (fleet workloads).
  std::size_t streams = 1;
};

[[nodiscard]] WorkloadShape workload_shape(const std::string& name);
/// The job documents of `shape`'s cycle for `seed` (same seed, same
/// sequence).
[[nodiscard]] std::vector<json::Value> job_documents(const WorkloadShape& shape,
                                                     std::uint64_t seed);
/// Resolve documents through the wire decoder (the service's own path).
[[nodiscard]] std::vector<Job> resolve_jobs(const std::vector<json::Value>& docs);

// ---- output fingerprints --------------------------------------------------

/// The deterministic part of one job's output. `digest` hashes the fleet
/// report minus its wall-clock, thread-count and provenance fields;
/// `counters` are the exact work counters the per-layer split reports.
struct Fingerprint {
  std::string digest;
  std::map<std::string, std::uint64_t> counters;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// The fleet report with every field that legitimately differs between
/// two runs of one spec removed.
[[nodiscard]] json::Value scrub_report(const json::Value& report);
/// Fingerprint of a fleet report document (served or direct).
[[nodiscard]] Fingerprint fingerprint_report(const json::Value& report);
/// Human-readable list of differences ("" when equal).
[[nodiscard]] std::string describe_mismatch(const Fingerprint& want,
                                            const Fingerprint& got);

/// The stored fingerprints: workload -> job index -> fingerprint, for
/// kDefaultSeed under one SIMD dispatch mode.
using FingerprintTable = std::map<std::string, std::vector<Fingerprint>>;
[[nodiscard]] FingerprintTable load_fingerprints(const std::string& path,
                                                 const std::string& simd_mode);
void store_fingerprints(const std::string& path, const std::string& simd_mode,
                        const FingerprintTable& table);

/// Proves the checker rejects perturbed output: flips one counter, one
/// digest character, and one report field, and returns false unless
/// every perturbation is caught.
[[nodiscard]] bool checker_self_test(const json::Value& sample_report);

// ---- results --------------------------------------------------------------

/// Metrics of one run, printed in insertion order.
class MetricSink {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] json::Value to_json() const;
  void print_table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Bookkeeping shared by every workload.
struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + shed + output mismatches
  bool correct = true;
  MetricSink metrics;
};

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

/// Time of a fixed floating-point reference kernel on the calling thread,
/// in ms: the speed of the core right now (see workloads.cpp).
[[nodiscard]] double reference_kernel_ms();

// ---- per-layer probes (traced run) ----------------------------------------

/// What the traced probe of a set of jobs measured: exact work counts and
/// serial run times of every UE, unit costs of each layer's public calls
/// on the same UEs' trajectories, and the busy time they add up to.
struct LayerSplit {
  /// Fingerprints of the serial reruns, in job order (checked against
  /// the timed jobs' references: traced serial == untraced threaded).
  std::vector<Fingerprint> fingerprints;

  // exact counts, summed over every UE of the probed jobs
  double ue_seconds = 0.0;
  double ue_steps = 0.0;
  std::uint64_t ues = 0;
  std::uint64_t hits = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t ssb_observations = 0;
  std::uint64_t events = 0;
  std::uint64_t rate_samples = 0;
  std::uint64_t handovers = 0;
  std::uint64_t rach_attempts = 0;

  // busy seconds per layer on UE 0 of each probed job (count x unit
  // cost), the UE-0 run time they are shares of, and fleet run times
  double attributed_s = 0.0;
  /// Half the interquartile range of those runs.
  double attributed_spread_s = 0.0;
  double phy_busy_s = 0.0;
  double net_busy_s = 0.0;
  double sim_busy_s = 0.0;
  double rate_busy_s = 0.0;
  double ue_run_s = 0.0;     ///< sum of per-UE run times (serial)
  double fleet_run_s = 0.0;  ///< serial run_fleet wall, all probed jobs

  // unit costs: one sample per probed job
  SampleSet pose_ns, refresh_ns, hit_ns, rx_sweep_ns, ssb_observe_ns,
      decision_ns, event_ns, interference_ns, sample_ns;
  SampleSet run_ue_ms;
  SampleSet report_ms, report_bytes;
  /// Last UE completion over the mean completion, per serial job.
  SampleSet straggler;
  /// UE-0 run time with spec.collect_trace on and off (paired runs).
  double trace_on_s = 0.0;
  double trace_off_s = 0.0;
};

/// Run the layer probes over `jobs` (serial, on the calling thread).
/// Throws std::runtime_error when the attribution is inconsistent.
[[nodiscard]] LayerSplit probe_layers(const std::vector<Job>& jobs);
/// Print the busy shares beside the harness's own tracing overhead.
void print_split(const LayerSplit& split, double trace_overhead_frac);
/// Add the split's per-layer metrics to `sink`.
void report_layers(const LayerSplit& split, MetricSink& sink);

/// Service-side per-layer numbers, measured by serving `jobs`.
struct ServeSplit {
  double queue_wait_ms_p50 = 0.0;
  double run_ms_p50 = 0.0;
  double ping_us_p50 = 0.0;
  double submit_us_p50 = 0.0;
  double telemetry_frames_per_job = 0.0;
  double telemetry_dropped_frac = 0.0;
};
void report_serve(const ServeSplit& split, MetricSink& sink);

// ---- workloads ------------------------------------------------------------

[[nodiscard]] RunOutcome run_fleet_workload(const Options& opt,
                                            const WorkloadShape& shape,
                                            const FingerprintTable& golden);
[[nodiscard]] RunOutcome run_serve_workload(const Options& opt,
                                            const WorkloadShape& shape,
                                            const FingerprintTable& golden);
/// Compute the default-seed fingerprints of every workload.
[[nodiscard]] FingerprintTable compute_fingerprints();

/// Socket path for an in-process server: relative, inside the build
/// directory of the checkout, unique per process.
[[nodiscard]] std::string socket_path(const std::string& tag);

}  // namespace perfbench
