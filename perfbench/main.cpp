// perfbench — the repository's benchmark harness.
//
//   perfbench --workload paper_fleet|grid_fleet|serve_load --seed N
//             --seconds S --trace 0|1
//   perfbench --write-fingerprints
//
// --trace 0 prints the end-to-end metrics of one timed run; --trace 1
// prints the per-layer split. The last line of standard output is the
// result object {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "common/build_info.hpp"
#include "phy/simd.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       perfbench --write-fingerprints\n";
  std::exit(2);
}

[[nodiscard]] Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        usage("--trace takes 0 or 1");
      }
      opt.trace = v == "1";
    } else if (arg == "--write-fingerprints") {
      opt.write_fingerprints = true;
    } else {
      usage("unknown option '" + arg + "'");
    }
  }
  if (!opt.write_fingerprints && opt.workload.empty()) {
    usage("--workload is required");
  }
  if (opt.seconds <= 0.0) {
    usage("--seconds must be positive");
  }
  return opt;
}

/// Measurements of a debug or contract-checked build would not describe
/// the shipped program.
void refuse_unrepresentative_build() {
#ifdef ST_CHECK_INVARIANTS
  std::cerr << "perfbench: refusing to measure an ST_CHECK_INVARIANTS build\n";
  std::exit(2);
#endif
  const std::string_view type = st::build_info().build_type;
  if (type != "Release" && type != "RelWithDebInfo") {
    std::cerr << "perfbench: refusing to measure a '" << type
              << "' build of the libraries (need Release)\n";
    std::exit(2);
  }
}

/// A tiny real report for the checker's self-test.
[[nodiscard]] json::Value sample_report() {
  json::Value doc = json::Value::object();
  doc.set("preset", json::Value::string("paper_walk"));
  json::Value overrides = json::Value::object();
  overrides.set("duration_ms", json::Value::number(200.0));
  doc.set("overrides", std::move(overrides));
  const Job job = resolve_jobs({doc}).front();
  return json::parse(
      fleet::build_fleet_report(job.spec, fleet::run_fleet(job.spec, 1))
          .to_json());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  refuse_unrepresentative_build();
  const std::string simd = st::phy::simd::mode();

  try {
    if (opt.write_fingerprints) {
      store_fingerprints(kFingerprintFile, simd, compute_fingerprints());
      std::cout << "perfbench: wrote " << kFingerprintFile << " (simd "
                << simd << ")\n";
      return 0;
    }

    const WorkloadShape shape = workload_shape(opt.workload);
    const st::BuildInfo& build = st::build_info();
    const unsigned nproc = std::thread::hardware_concurrency();
    std::printf(
        "perfbench %s seed %llu seconds %g trace %d\n"
        "provenance: git %s | build %s | compiler %s | simd %s | nproc %u | "
        "job streams %zu, fleet threads %u%s\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.seconds, opt.trace ? 1 : 0, std::string(build.git_describe).c_str(),
        std::string(build.build_type).c_str(),
        std::string(build.compiler).c_str(), simd.c_str(), nproc,
        shape.streams, shape.fleet_threads,
        opt.workload == "serve_load" ? " | server workers 2, submitters 2"
                                     : "");

    if (!checker_self_test(sample_report())) {
      std::cerr << "perfbench: output checker self-test failed: a perturbed "
                   "output went unnoticed\n";
      return 1;
    }
    const FingerprintTable golden =
        load_fingerprints(kFingerprintFile, simd);

    RunOutcome outcome = opt.workload == "serve_load"
                             ? run_serve_workload(opt, shape, golden)
                             : run_fleet_workload(opt, shape, golden);

    outcome.metrics.print_table();
    std::printf("  %-34s %16.6g (failed %llu of %llu attempted)\n",
                "failed_frac",
                static_cast<double>(outcome.failed) /
                    static_cast<double>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));
    json::Value result = json::Value::object();
    result.set("correct", json::Value::boolean(outcome.correct));
    result.set("attempted", json::Value::unsigned_integer(outcome.attempted));
    result.set("failed", json::Value::unsigned_integer(outcome.failed));
    result.set("metrics", outcome.metrics.to_json());
    std::cout << result.dump() << std::endl;
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
