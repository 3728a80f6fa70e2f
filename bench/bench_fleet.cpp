// E12 — multi-UE fleet engine throughput (extension).
//
// The fleet engine runs N independent mobiles — mixed walk / rotation /
// vehicular profiles, each with its own protocol instance and derived
// random streams — against one shared three-cell deployment, sharded
// across a thread pool. This bench sweeps the fleet size and reports the
// engine's scaling: wall time per sweep, UEs simulated per second, and
// the per-UE snapshot-cache hit rate (the cache is keyed on (UE, cell,
// epoch), so fleet sharding must not dilute it). The parallel schedule is
// bit-identical to the serial one (pinned by tests/fleet/test_fleet.cpp),
// so the numbers here are pure throughput, not a different computation.
//
//   ./bench_fleet [--ues N] [--threads T] [--duration-ms D]
//                 [--preset NAME] [--report-out fleet_report.json]
//
// --preset replicates a named spec preset (paper_walk, grid_walk,
// corridor_drive, edge_ping_pong, ...) across the fleet instead of the
// default mixed walk/rotation/vehicular three-cell row — the multi-cell
// presets exercise the neighbour-ranking handover policy at fleet scale.
//
// Writes BENCH_fleet.json (same schema as BENCH_micro.json) next to the
// binary; --report-out additionally writes the machine-readable
// FleetReport JSON of the largest fleet swept.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/spec_json.hpp"
#include "fleet/engine.hpp"
#include "obs/export.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

/// A heterogeneous fleet on the shared three-cell row: profiles cycle
/// through the paper's three mobility models so every sweep exercises
/// walk, rotation, and vehicular dynamics together.
core::ScenarioSpec fleet_spec(const std::string& preset_name,
                              std::size_t n_ues, sim::Duration duration) {
  if (!preset_name.empty()) {
    // Replicate the named preset's profile across the fleet (grid_walk
    // etc. bring their own deployment shape, cell load, and policy).
    core::ScenarioSpec spec = core::preset_by_name(preset_name);
    spec.duration = duration;
    spec.seed = 1000;
    spec.ues.assign(n_ues, spec.ues.front());
    return core::SpecBuilder(std::move(spec)).build();
  }
  core::SpecBuilder builder;
  builder.cells(3).duration(duration).seed(1000);
  const core::UeProfile profiles[] = {core::preset::walking_ue(),
                                      core::preset::rotating_ue(),
                                      core::preset::vehicular_ue()};
  for (std::size_t i = 0; i < n_ues; ++i) {
    builder.ue(profiles[i % 3]);
  }
  return builder.build();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t only_ues = 0;   // 0 = sweep the default ladder
  unsigned n_threads = 0;     // 0 = hardware concurrency
  std::int64_t duration_ms = 5'000;
  std::string report_out;
  std::string preset_name;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_fleet: missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--ues") {
      only_ues = std::strtoull(next_value().c_str(), nullptr, 10);
    } else if (arg == "--threads") {
      n_threads = static_cast<unsigned>(
          std::strtoul(next_value().c_str(), nullptr, 10));
    } else if (arg == "--duration-ms") {
      duration_ms = std::strtol(next_value().c_str(), nullptr, 10);
    } else if (arg == "--report-out") {
      report_out = next_value();
    } else if (arg == "--preset") {
      preset_name = next_value();
    } else {
      std::cerr << "bench_fleet: unknown option '" << arg << "'\n";
      return 2;
    }
  }

  st::bench::print_header(
      "E12: fleet engine throughput (multi-UE scaling)",
      "extension — N mobiles on one deployment, serial == parallel "
      "bit-identically");

  std::vector<std::size_t> sweep = {1, 8, 64};
  if (only_ues > 0) {
    sweep = {only_ues};
  }

  Table table({"UEs", "threads", "wall s", "UEs/s", "sim s / wall s",
               "cache hit %", "handovers", "SSB obs"});

  struct Entry {
    std::size_t ues;
    double wall_seconds;
    double ues_per_second;
    double cache_hit_rate;
    unsigned threads;
  };
  std::vector<Entry> entries;

  for (const std::size_t n_ues : sweep) {
    const core::ScenarioSpec spec =
        fleet_spec(preset_name, n_ues, sim::Duration::milliseconds(duration_ms));
    const fleet::FleetResult result = fleet::run_fleet(spec, n_threads);

    std::size_t handovers = 0;
    for (const core::ScenarioResult& ue_result : result.ue_results) {
      handovers += ue_result.handovers.size();
    }
    table.row()
        .cell(n_ues)
        .cell(static_cast<std::size_t>(result.threads_used))
        .cell(result.wall_seconds, 3)
        .cell(result.ues_per_second(), 1)
        .cell(result.wall_seconds > 0.0
                  ? result.engine.sim_seconds / result.wall_seconds
                  : 0.0,
              1)
        .cell(100.0 * result.snapshot_cache.hit_rate(), 1)
        .cell(handovers)
        .cell(result.ssb_observations);

    entries.push_back({n_ues, result.wall_seconds, result.ues_per_second(),
                       result.snapshot_cache.hit_rate(),
                       result.threads_used});

    // The machine-readable report covers the largest fleet swept.
    if (!report_out.empty() && n_ues == sweep.back()) {
      const obs::FleetReport report = fleet::build_fleet_report(spec, result);
      if (obs::write_text_file(report_out, report.to_json())) {
        std::cout << "fleet report written to " << report_out << "\n";
      } else {
        std::cerr << "failed to write fleet report to " << report_out << "\n";
        return 1;
      }
    }
  }
  table.print(std::cout);

  // BENCH_micro.json schema: a "benchmarks" array of {name, ns_per_op,
  // items_per_second}, plus named extra members.
  std::ofstream out("BENCH_fleet.json");
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const double ns_per_ue =
        e.ues > 0 ? e.wall_seconds * 1e9 / static_cast<double>(e.ues) : 0.0;
    out << "    {\"name\": \"fleet/ues:" << e.ues
        << "\", \"ns_per_op\": " << ns_per_ue
        << ", \"items_per_second\": " << e.ues_per_second << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"fleet\": {";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << (i > 0 ? ", " : "") << "\"ues_" << e.ues
        << "\": {\"wall_seconds\": " << e.wall_seconds
        << ", \"ues_per_second\": " << e.ues_per_second
        << ", \"snapshot_cache_hit_rate\": " << e.cache_hit_rate
        << ", \"threads\": " << e.threads << "}";
  }
  out << "}\n}\n";
  std::cout << "\nwrote BENCH_fleet.json\n"
            << "Shape check: UEs/s grows with the fleet until the thread "
               "pool saturates; the cache hit rate stays flat (per-UE "
               "keying keeps fleets from evicting each other).\n";
  return 0;
}
