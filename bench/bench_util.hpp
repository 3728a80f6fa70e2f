// Shared helpers for the benchmark harness.
//
// Every bench binary regenerates tables/figures of the paper's
// evaluation (see DESIGN.md §4) and prints the rows/series the paper
// reports. All runs are seeded; rerunning a binary reproduces its output
// bit for bit. Configurations are ScenarioSpecs, usually started from the
// presets in core/scenario_spec.hpp (preset::paper_walk() etc.) so every
// binary shares one definition of the paper's setups.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scenario.hpp"
#include "fleet/parallel.hpp"
#include "obs/export.hpp"
#include "rate/rate_model.hpp"

namespace st::bench {

/// Observability outputs shared by the scenario-driven binaries:
/// `--trace-out=<path>` writes a Chrome/Perfetto trace.json of one
/// instrumented run, `--report-out=<path>` the machine-readable RunReport
/// JSON. Both default off, so the measured runs stay untraced.
struct ObsOptions {
  std::string trace_out;
  std::string report_out;

  [[nodiscard]] bool enabled() const noexcept {
    return !trace_out.empty() || !report_out.empty();
  }
};

/// Strip `--trace-out=...` / `--report-out=...` (also the two-token
/// `--flag value` spelling) from argv so the binary's own parsing — or
/// google-benchmark's — never sees them.
[[nodiscard]] inline ObsOptions consume_obs_options(int& argc, char** argv) {
  ObsOptions options;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto match = [&](const std::string& flag,
                           std::string& value) -> bool {
      if (arg.starts_with(flag + "=")) {
        value = arg.substr(flag.size() + 1);
        return true;
      }
      if (arg == flag && i + 1 < argc) {
        value = argv[++i];
        return true;
      }
      return false;
    };
    if (match("--trace-out", options.trace_out) ||
        match("--report-out", options.report_out)) {
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return options;
}

/// Re-run `spec` once with tracing on and write whichever outputs were
/// requested. Returns false (with a stderr note) if a file failed to open.
inline bool write_observability(const ObsOptions& options,
                                core::ScenarioSpec spec) {
  if (!options.enabled()) {
    return true;
  }
  spec.collect_trace = true;
  const core::ScenarioResult result = core::run_scenario(spec);
  bool ok = true;
  if (!options.trace_out.empty()) {
    if (obs::write_chrome_trace_file(*result.trace, options.trace_out)) {
      std::cout << "trace written to " << options.trace_out << "\n";
    } else {
      std::cerr << "failed to write trace to " << options.trace_out << "\n";
      ok = false;
    }
  }
  if (!options.report_out.empty()) {
    const obs::RunReport report = core::build_run_report(spec, result);
    if (obs::write_text_file(options.report_out, report.to_json())) {
      std::cout << "report written to " << options.report_out << "\n";
    } else {
      std::cerr << "failed to write report to " << options.report_out << "\n";
      ok = false;
    }
  }
  return ok;
}

/// Repetition seeds used across benches (arbitrary but fixed).
[[nodiscard]] inline std::vector<std::uint64_t> seeds(std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(1000 + 7919 * i);  // spread out; derive_seed decorrelates
  }
  return out;
}

/// Aggregated protocol outcomes over a batch of scenario runs.
struct Aggregate {
  SuccessRate handover_success;       ///< completed handovers / attempts
  SuccessRate soft_fraction;          ///< soft / completed
  SuccessRate aligned_at_completion;  ///< Fig. 2c criterion per handover
  SampleSet interruption_ms;          ///< successful handovers only
  SampleSet alignment_fraction;       ///< per run: time-aligned fraction
  SampleSet rach_attempts;
  RunningStats rx_switches;       ///< per run: neighbour + serving RX switches
  RunningStats drop_events;       ///< per run: neighbour + serving 3 dB drops
  RunningStats ssb_observations;  ///< per run: SSB listening attempts
  rate::RateStats rate;           ///< rate-layer totals, merged over runs

  /// Scenario runs absorbed.
  [[nodiscard]] std::size_t runs() const noexcept {
    return ssb_observations.count();
  }

  void absorb(const core::ScenarioResult& result) {
    for (const auto& h : result.handovers) {
      handover_success.record(h.success);
      if (h.success) {
        soft_fraction.record(h.type == net::HandoverType::kSoft);
        aligned_at_completion.record(h.beam_aligned_at_completion);
        interruption_ms.add(h.interruption().ms());
        rach_attempts.add(static_cast<double>(h.rach_attempts));
      }
    }
    if (!result.alignment_gap_db.empty()) {
      // The paper's criterion: alignment maintained *until the handover
      // concluded* (post-handover tracking of whatever neighbour remains
      // is a different, often hopeless, task and would pollute the
      // metric).
      alignment_fraction.add(result.alignment_until_first_handover());
    }
    const auto count = [&](std::string_view neighbour,
                           std::string_view serving) {
      return static_cast<double>(result.counters.counter_value(neighbour) +
                                 result.counters.counter_value(serving));
    };
    rx_switches.add(count("neighbour_rx_switches", "serving_rx_switches"));
    drop_events.add(count("neighbour_drop_events", "serving_drop_events"));
    ssb_observations.add(static_cast<double>(result.ssb_observations));
    rate.merge(result.rate);
  }
};

/// Run one spec across `run_seeds`, aggregating outcomes.
[[nodiscard]] inline Aggregate run_batch(
    core::ScenarioSpec spec, const std::vector<std::uint64_t>& run_seeds) {
  Aggregate agg;
  for (const std::uint64_t seed : run_seeds) {
    spec.seed = seed;
    agg.absorb(core::run_scenario(spec));
  }
  return agg;
}

/// Parallel run_batch: shards the seeds over fleet::parallel_map's thread
/// pool and absorbs the per-run results in seed order once every worker
/// has joined. Each run is a pure function of (spec, seed) and absorption
/// order is the only aggregation-order effect, so the returned Aggregate
/// is bit-identical to the serial run_batch for the same seed list
/// (pinned by tests/core/test_batch_runner.cpp). `n_threads == 0` uses
/// the hardware concurrency.
[[nodiscard]] inline Aggregate run_batch_parallel(
    const core::ScenarioSpec& spec,
    const std::vector<std::uint64_t>& run_seeds, unsigned n_threads = 0) {
  const std::vector<core::ScenarioResult> results = fleet::parallel_map(
      run_seeds.size(), n_threads, [&](std::size_t i) {
        core::ScenarioSpec run_spec = spec;
        run_spec.seed = run_seeds[i];
        return core::run_scenario(run_spec);
      });
  Aggregate agg;
  for (const core::ScenarioResult& result : results) {
    agg.absorb(result);
  }
  return agg;
}

inline void print_header(std::string_view title, std::string_view paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "reproduces: " << paper_ref << "\n\n";
}

/// "62.5% [55.1, 69.3]" — rate with its Wilson 95% interval.
[[nodiscard]] inline std::string rate_with_ci(const SuccessRate& r) {
  const auto [lo, hi] = r.wilson95();
  return format_double(100.0 * r.rate(), 1) + "% [" +
         format_double(100.0 * lo, 1) + ", " + format_double(100.0 * hi, 1) +
         "]";
}

}  // namespace st::bench
