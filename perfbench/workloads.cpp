// The three workloads: their fixed job cycles, the untraced timed phase
// that yields the end-to-end metrics, and the traced phase that yields
// the per-layer split.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <cstdio>
#include <iostream>
#include <memory>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "core/spec_json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

/// Service set-ups per serve_load run; setup_s is their median.
constexpr int kSetupRepeats = 9;

/// Keeps the reference kernel's result observable.
volatile double g_reference_sink = 0.0;

[[nodiscard]] double median_of(std::vector<double> v) {
  SampleSet s;
  s.add_all(v);
  return s.median();
}

/// What a job must reproduce: its fingerprint from a direct run.
struct Reference {
  Fingerprint fp;
  double sim_seconds = 0.0;
};

/// One executed fleet job.
struct JobRun {
  double seconds = 0.0;
  double fleet_seconds = 0.0;  ///< the run_fleet call alone
  double report_seconds = 0.0;
  std::size_t report_bytes = 0;
  Fingerprint fp;
  double sim_seconds = 0.0;
  unsigned threads_used = 1;
  /// Offsets from the job start at which each UE completed (traced only).
  std::vector<double> ue_done_s;
};

/// run_fleet + build_fleet_report + to_json, then the check's parse and
/// fingerprint: one job from start to a checked result.
[[nodiscard]] JobRun run_job(const Job& job, unsigned threads, bool traced) {
  JobRun out;
  const Clock::time_point t0 = Clock::now();
  fleet::FleetResult result;
  if (traced) {
    std::mutex mutex;
    std::vector<double> done;
    fleet::RunControl control;
    control.on_ue_complete = [&](std::size_t, std::size_t) {
      const double at = seconds_since(t0);
      const std::lock_guard<std::mutex> lock(mutex);
      done.push_back(at);
    };
    result = fleet::run_fleet(job.spec, threads, control);
    out.ue_done_s = std::move(done);
  } else {
    result = fleet::run_fleet(job.spec, threads);
  }
  const Clock::time_point r0 = Clock::now();
  out.fleet_seconds = std::chrono::duration<double>(r0 - t0).count();
  const std::string report =
      fleet::build_fleet_report(job.spec, result).to_json();
  out.report_seconds = seconds_since(r0);
  out.report_bytes = report.size();
  out.fp = fingerprint_report(json::parse(report));
  out.seconds = seconds_since(t0);
  out.sim_seconds = result.engine.sim_seconds;
  out.threads_used = result.threads_used;
  return out;
}

/// Compares a job's fingerprint with what it must reproduce; reports the
/// first few mismatches on stderr.
class Checker {
 public:
  bool check(const std::string& what, const Fingerprint& want,
             const Fingerprint& got) {
    const std::string diff = describe_mismatch(want, got);
    if (diff.empty()) {
      return true;
    }
    if (++mismatches_ <= 5) {
      std::cerr << "perfbench: output mismatch in " << what << ":" << diff
                << "\n";
    }
    return false;
  }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

 private:
  std::uint64_t mismatches_ = 0;
};

/// The golden comparison of a run: the default seed's first cycle
/// positions (one per preset) against the stored fingerprints, plus every
/// position when the run itself uses the default seed.
void check_golden(const WorkloadShape& shape, const FingerprintTable& golden,
                  std::uint64_t seed, const std::vector<Reference>& refs,
                  Checker& checker, RunOutcome& outcome) {
  const auto it = golden.find(shape.name);
  if (it == golden.end() || it->second.size() != refs.size()) {
    throw std::runtime_error("fingerprint file has no complete entry for " +
                             shape.name);
  }
  const std::vector<Fingerprint>& stored = it->second;
  if (seed == kDefaultSeed) {
    for (std::size_t j = 0; j < refs.size(); ++j) {
      ++outcome.attempted;
      if (!checker.check("stored fingerprint " + std::to_string(j), stored[j],
                         refs[j].fp)) {
        ++outcome.failed;
      }
    }
    return;
  }
  const std::vector<Job> jobs =
      resolve_jobs(job_documents(shape, kDefaultSeed));
  for (std::size_t j = 0; j < shape.presets.size(); ++j) {
    ++outcome.attempted;
    const JobRun run = run_job(jobs[j], shape.fleet_threads, false);
    if (!checker.check("stored fingerprint " + std::to_string(j), stored[j],
                       run.fp)) {
      ++outcome.failed;
    }
  }
}

/// Resolve the cycle's specs and build their deployments: the set-up a
/// caller pays before its first job.
[[nodiscard]] std::vector<Job> setup_jobs(const WorkloadShape& shape,
                                          std::uint64_t seed) {
  std::vector<Job> jobs = resolve_jobs(job_documents(shape, seed));
  for (const Job& job : jobs) {
    const st::net::Deployment deployment = core::make_deployment(job.spec);
    if (deployment.base_stations.size() != job.spec.n_cells) {
      throw std::runtime_error("deployment size mismatch for " + job.preset);
    }
  }
  return jobs;
}

void add_e2e(RunOutcome& outcome, double wall_s, double ue_seconds,
             std::uint64_t jobs_done, const SampleSet& e2e_ms, bool with_p99,
             double setup_s) {
  MetricSink& m = outcome.metrics;
  m.add("ue_sim_s_per_s", ue_seconds / wall_s, "UE-s/s");
  m.add("jobs_per_s", static_cast<double>(jobs_done) / wall_s, "jobs/s");
  m.add("e2e_ms_p50", e2e_ms.percentile(50.0), "ms");
  m.add("e2e_ms_p90", e2e_ms.percentile(90.0), "ms");
  m.add("peak_rss_mb", peak_rss_mib(), "MiB");
  m.add("setup_s", setup_s, "s");
  std::printf("%llu jobs over %.3f s of timed (or corrected) host time, %zu "
              "latency samples\n",
              static_cast<unsigned long long>(jobs_done), wall_s,
              e2e_ms.count());
  // A tail percentile is only printed where at least ten samples lie
  // beyond it; the result line carries the metrics every workload shares.
  if (with_p99 && e2e_ms.count() >= 1000) {
    std::printf("  %-34s %16.6g ms (%zu samples beyond)\n", "e2e_ms_p99",
                e2e_ms.percentile(99.0), e2e_ms.count() / 100);
  }
}

// ---- the service session ---------------------------------------------------

/// What a closed loop against the service produced.
struct LoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  SampleSet e2e_ms;
  SampleSet submit_us;
  std::uint64_t frames = 0;
  std::uint64_t dropped = 0;
};

/// An in-process server plus the connections a caller holds: `submitters`
/// request connections and one subscribe("all") stream whose pushed
/// lifecycle events tell the submitters their jobs completed.
class ServeSession {
 public:
  ServeSession(const std::string& socket, std::size_t submitters)
      : server_(make_config(socket)) {
    server_.start();
    for (std::size_t i = 0; i < submitters; ++i) {
      auto client = std::make_unique<st::serve::Client>();
      if (!client->connect(socket)) {
        throw std::runtime_error("cannot connect to " + socket);
      }
      clients_.push_back(std::move(client));
    }
    if (!subscriber_.connect(socket)) {
      throw std::runtime_error("cannot connect subscriber to " + socket);
    }
    const json::Value ack = subscriber_.subscribe("all", 200);
    if (!ack.find("ok")->bool_or(false)) {
      throw std::runtime_error("subscribe refused: " + ack.dump());
    }
    listener_ = std::thread([this] { listen(); });
  }

  ~ServeSession() {
    stop_.store(true);
    listener_.join();
    subscriber_.close();
    for (auto& c : clients_) {
      c->close();
    }
    server_.stop();
  }

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Closed loop: submitter c sends jobs c, c+S, c+2S, ... of the cycle
  /// (S submitters) back to back until `seconds` pass or it has sent its
  /// share of `max_jobs`, checking every served report against `refs`.
  LoopResult closed_loop(const std::vector<Job>& jobs,
                         const std::vector<Reference>& refs, double seconds,
                         std::size_t max_jobs, bool traced, Checker& checker) {
    const std::size_t n_sub = clients_.size();
    const std::uint64_t frames0 = frames_.load();
    const std::uint64_t dropped0 = dropped_.load();
    std::vector<LoopResult> parts(n_sub);
    std::mutex checker_mutex;
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n_sub; ++c) {
      threads.emplace_back([&, c] {
        st::serve::Client& client = *clients_[c];
        LoopResult& part = parts[c];
        for (std::size_t k = c; k < max_jobs && seconds_since(start) < seconds;
             k += n_sub) {
          const std::size_t j = k % jobs.size();
          ++part.attempted;
          const Clock::time_point t0 = Clock::now();
          const json::Value submitted = client.submit(jobs[j].doc);
          if (traced) {
            part.submit_us.add(seconds_since(t0) * 1e6);
          }
          const json::Value* id = submitted.find("id");
          if (!submitted.find("ok")->bool_or(false) || id == nullptr) {
            ++part.failed;  // shed or refused
            continue;
          }
          if (!await_done(id->as_u64())) {
            ++part.failed;
            continue;
          }
          const json::Value result = client.result(id->as_u64());
          const json::Value* report = result.find("report");
          bool ok = report != nullptr;
          if (ok) {
            const Fingerprint got = fingerprint_report(*report);
            const std::lock_guard<std::mutex> lock(checker_mutex);
            ok = checker.check("served job " + std::to_string(j), refs[j].fp,
                               got);
          }
          if (!ok) {
            ++part.failed;
            continue;
          }
          part.e2e_ms.add(seconds_since(t0) * 1e3);
          ++part.done;
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    LoopResult out;
    out.wall_s = seconds_since(start);
    for (const LoopResult& p : parts) {
      out.attempted += p.attempted;
      out.done += p.done;
      out.failed += p.failed;
      out.e2e_ms.add_all(p.e2e_ms.samples());
      out.submit_us.add_all(p.submit_us.samples());
    }
    out.frames = frames_.load() - frames0;
    out.dropped = dropped_.load() - dropped0;
    return out;
  }

  [[nodiscard]] SampleSet ping_us(int n) {
    SampleSet out;
    for (int i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      const json::Value pong = clients_.front()->ping();
      if (!pong.find("ok")->bool_or(false)) {
        throw std::runtime_error("ping failed: " + pong.dump());
      }
      out.add(seconds_since(t0) * 1e6);
    }
    return out;
  }

  [[nodiscard]] json::Value stats() { return clients_.front()->stats(); }

 private:
  static st::serve::ServerConfig make_config(const std::string& socket) {
    st::serve::ServerConfig config;
    config.socket_path = socket;
    config.workers = 2;
    config.fleet_threads = 1;
    return config;
  }

  /// Wait for the pushed terminal event of job `id`; true when it is done.
  bool await_done(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool seen = cv_.wait_for(lock, std::chrono::seconds(60), [&] {
      return finished_.count(id) > 0;
    });
    if (!seen) {
      return false;
    }
    const bool done = finished_[id] == "done";
    finished_.erase(id);
    return done;
  }

  void listen() {
    bool closed = false;
    while (!stop_.load() && !closed) {
      const std::optional<json::Value> frame =
          subscriber_.next_frame(50, &closed);
      if (!frame.has_value()) {
        continue;
      }
      frames_.fetch_add(1);
      if (const json::Value* d = frame->find("dropped")) {
        dropped_.fetch_add(d->u64_or(0));
      }
      const json::Value* kind = frame->find("kind");
      const json::Value* data = frame->find("data");
      if (kind == nullptr || kind->string_or("") != "job" || data == nullptr) {
        continue;
      }
      const std::string event(data->find("event")->string_or(""));
      if (event == "done" || event == "failed" || event == "cancelled") {
        const std::lock_guard<std::mutex> lock(mutex_);
        finished_[data->find("id")->as_u64()] = event;
        cv_.notify_all();
      }
    }
  }

  st::serve::Server server_;
  std::vector<std::unique_ptr<st::serve::Client>> clients_;
  st::serve::Client subscriber_;
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::string> finished_;
  std::atomic<bool> stop_{false};
  std::thread listener_;
};

[[nodiscard]] double server_p50(const json::Value& stats_response,
                                const char* histogram) {
  const json::Value* stats = stats_response.find("stats");
  const json::Value* latency = stats == nullptr ? nullptr : stats->find("latency");
  const json::Value* h = latency == nullptr ? nullptr : latency->find(histogram);
  if (h == nullptr) {
    throw std::runtime_error(std::string("server stats lack ") + histogram);
  }
  return h->find("p50")->as_double();
}

/// Direct (in-process, serial) references for every job of a cycle.
[[nodiscard]] std::vector<Reference> direct_references(
    const std::vector<Job>& jobs, unsigned threads) {
  std::vector<Reference> refs;
  for (const Job& job : jobs) {
    const JobRun run = run_job(job, threads, false);
    refs.push_back({run.fp, run.sim_seconds});
  }
  return refs;
}

/// A serial rerun of the cycle's first job must reproduce the threaded
/// reference exactly.
void check_serial_rerun(const std::vector<Job>& jobs,
                        const std::vector<Reference>& refs, Checker& checker,
                        RunOutcome& outcome) {
  ++outcome.attempted;
  if (!checker.check("serial rerun of job 0", refs[0].fp,
                     run_job(jobs[0], 1, false).fp)) {
    ++outcome.failed;
  }
}

/// The service's per-layer numbers: the server's own histograms, fresh
/// ping round trips, and what the closed loops measured.
[[nodiscard]] ServeSplit serve_split(ServeSession& session,
                                     const SampleSet& submit_us,
                                     std::uint64_t frames,
                                     std::uint64_t dropped,
                                     std::uint64_t done) {
  const json::Value stats = session.stats();
  ServeSplit split;
  split.queue_wait_ms_p50 = server_p50(stats, "queue_wait_ms");
  split.run_ms_p50 = server_p50(stats, "run_ms");
  split.ping_us_p50 = session.ping_us(200).median();
  split.submit_us_p50 = submit_us.median();
  split.telemetry_frames_per_job =
      static_cast<double>(frames) / static_cast<double>(done);
  split.telemetry_dropped_frac =
      static_cast<double>(dropped) / static_cast<double>(frames + dropped);
  return split;
}

void finish_outcome(RunOutcome& outcome, const Checker& checker) {
  outcome.correct = outcome.failed == 0 && checker.mismatches() == 0;
}

}  // namespace

/// Reference kernel for the speed of the cores a job ran on: independent
/// exp/cos chains, transcendental floating-point math at full throughput
/// like the simulator's phy layer. On the VM this benchmark was tuned on,
/// a core's speed on such code drops by up to 1.7x for seconds at a time
/// while integer and latency-bound code keeps full speed; over 5 s
/// windows this kernel's time tracked a paper job's to within 3%, where
/// the raw job time moved 19%. The kernel belongs to the benchmark, so no
/// change to the simulator can move it.
double reference_kernel_ms() {
  const Clock::time_point a = Clock::now();
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (int i = 0; i < 3000; ++i) {
    const double x = 1e-4 * i;
    s0 += std::exp(-x);
    s1 += std::cos(3.0 * x);
    s2 += std::exp(-2.0 * x);
    s3 += std::cos(5.0 * x);
  }
  g_reference_sink = s0 + s1 + s2 + s3;
  return seconds_since(a) * 1e3;
}

// ---- catalogue -------------------------------------------------------------

WorkloadShape workload_shape(const std::string& name) {
  WorkloadShape s;
  s.name = name;
  if (name == "paper_fleet") {
    s.presets = {"paper_walk", "paper_rotation", "paper_vehicular"};
    // A rotating UE costs about two thirds of a walking or driving one;
    // three of them keep the three presets' job times alike, so the
    // job-latency distribution has one mode and its median is stable.
    s.n_ues = {2, 3, 2};
    s.rounds = 8;
    // Single-threaded jobs on one stream per core: each core's speed
    // drifts on its own, and the streams average it.
    s.streams = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  } else if (name == "grid_fleet") {
    s.presets = {"grid_walk", "corridor_drive", "edge_ping_pong"};
    s.n_ues = {8, 8, 8};
    s.rounds = 2;
    s.fleet_threads = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  } else if (name == "serve_load") {
    s.presets = {"paper_walk"};
    s.n_ues = {1};
    s.rounds = 16;
    s.duration_ms = 500;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

std::vector<json::Value> job_documents(const WorkloadShape& shape,
                                       std::uint64_t seed) {
  std::vector<json::Value> docs;
  const std::size_t n = shape.presets.size() * shape.rounds;
  for (std::size_t j = 0; j < n; ++j) {
    json::Value overrides = json::Value::object();
    overrides.set("n_ues", json::Value::unsigned_integer(
                               shape.n_ues[j % shape.presets.size()]));
    if (shape.duration_ms > 0) {
      overrides.set("duration_ms",
                    json::Value::number(static_cast<double>(shape.duration_ms)));
    }
    json::Value doc = json::Value::object();
    doc.set("preset", json::Value::string(shape.presets[j % shape.presets.size()]));
    // Job seeds stay below 2^53 so every JSON reader keeps them exact.
    doc.set("seed", json::Value::unsigned_integer(
                        st::derive_seed(seed, "perfbench/job/" + std::to_string(j)) >>
                        11));
    doc.set("overrides", std::move(overrides));
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<Job> resolve_jobs(const std::vector<json::Value>& docs) {
  std::vector<Job> jobs;
  for (const json::Value& doc : docs) {
    jobs.push_back({doc, core::spec_from_job_json(doc),
                    doc.find("preset")->as_string()});
  }
  return jobs;
}

std::string socket_path(const std::string& tag) {
  return ".bench_build/pb-" + std::to_string(::getpid()) + "-" + tag + ".sock";
}

// ---- fleet workloads ---------------------------------------------------------

RunOutcome run_fleet_workload(const Options& opt, const WorkloadShape& shape,
                              const FingerprintTable& golden) {
  RunOutcome outcome;
  Checker checker;

  const std::vector<Job> jobs = setup_jobs(shape, opt.seed);

  // Warm-up: one full cycle, whose outputs become the references every
  // timed job must reproduce.
  const std::vector<Reference> refs =
      direct_references(jobs, shape.fleet_threads);
  check_golden(shape, golden, opt.seed, refs, checker, outcome);
  if (shape.fleet_threads > 1) {
    check_serial_rerun(jobs, refs, checker, outcome);
  }

  const double phase_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const std::size_t cycle = jobs.size();
  const std::size_t n_streams = shape.streams;
  // Single-threaded jobs are corrected by the reference kernel run on
  // their own thread right after them. For jobs sharded over every core
  // no kernel placement tracked the job (kernel slowdown and job time
  // even moved apart), so those keep plain host time.
  const bool corrected = shape.fleet_threads == 1;

  // Concurrent job streams: stream s runs cycle positions s, s+S, s+2S, ...
  // back to back, so the seed fixes every stream's job sequence. In a
  // traced run, whole cycles alternate between traced and untraced jobs.
  // Stream 0 repeats the set-up once per cycle, so its median spans the
  // same machine regimes as the jobs.
  struct Record {
    std::size_t j;
    bool traced;
    JobRun run;
    double reference_ms;  ///< reference kernel right after the job
  };
  std::vector<std::vector<Record>> records(n_streams);
  std::vector<double> setup_s;
  std::vector<std::exception_ptr> errors(n_streams);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> streams;
    for (std::size_t sid = 0; sid < n_streams; ++sid) {
      streams.emplace_back([&, sid] {
        try {
          for (std::size_t i = sid; seconds_since(start) < phase_s;
               i += n_streams) {
            if (sid == 0 && i % cycle < n_streams) {
              const Clock::time_point t0 = Clock::now();
              const std::vector<Job> again = setup_jobs(shape, opt.seed);
              setup_s.push_back(seconds_since(t0));
              if (again.size() != cycle) {
                throw std::runtime_error("set-up is not repeatable");
              }
            }
            const bool traced = opt.trace && (i / cycle) % 2 == 1;
            JobRun run = run_job(jobs[i % cycle], shape.fleet_threads, traced);
            const double reference = corrected ? reference_kernel_ms() : 1.0;
            records[sid].push_back({i % cycle, traced, std::move(run), reference});
          }
        } catch (...) {
          errors[sid] = std::current_exception();
        }
      });
    }
    for (std::thread& t : streams) {
      t.join();
    }
  }
  const double wall_s = seconds_since(start);
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }

  // Each job's time is scaled to the fastest core state the reference
  // kernel saw in this run (factor = fastest kernel time / the kernel
  // time right after the job, at most 1; 1 where not corrected).
  double reference_floor_ms = std::numeric_limits<double>::infinity();
  for (const std::vector<Record>& stream : records) {
    for (const Record& r : stream) {
      reference_floor_ms = std::min(reference_floor_ms, r.reference_ms);
    }
  }

  SampleSet e2e_ms, host_e2e_ms, slowdown;
  double ue_seconds = 0.0;
  double busy_s = 0.0;  // summed corrected job times, all streams
  std::uint64_t done = 0;
  // Traced-phase records: per cycle position, traced and untraced job
  // times, straggler ratios, report costs.
  std::vector<SampleSet> traced_s(cycle), plain_s(cycle), traced_fleet_s(cycle);
  SampleSet straggler, report_ms, report_bytes;
  unsigned threads_used = 1;
  for (const std::vector<Record>& stream : records) {
    for (const Record& r : stream) {
      ++outcome.attempted;
      if (!checker.check("job " + std::to_string(r.j), refs[r.j].fp, r.run.fp)) {
        ++outcome.failed;
        continue;
      }
      ++done;
      const double factor = reference_floor_ms / r.reference_ms;
      slowdown.add(1.0 / factor);
      host_e2e_ms.add(r.run.seconds * 1e3);
      e2e_ms.add(r.run.seconds * factor * 1e3);
      busy_s += r.run.seconds * factor;
      ue_seconds += r.run.sim_seconds;
      threads_used = r.run.threads_used;
      if (r.traced) {
        traced_s[r.j].add(r.run.seconds * factor);
        traced_fleet_s[r.j].add(r.run.fleet_seconds * factor);
        report_ms.add(r.run.report_seconds * 1e3);
        report_bytes.add(static_cast<double>(r.run.report_bytes));
        double mean = 0.0;
        for (const double d : r.run.ue_done_s) {
          mean += d / static_cast<double>(r.run.ue_done_s.size());
        }
        straggler.add(*std::max_element(r.run.ue_done_s.begin(),
                                        r.run.ue_done_s.end()) /
                      mean);
      } else if (opt.trace) {
        plain_s[r.j].add(r.run.seconds * factor);
      }
    }
  }

  // S streams keep S jobs in flight, so S corrected busy seconds make one
  // corrected host second.
  const double corrected_wall_s = busy_s / static_cast<double>(n_streams);
  std::printf("host clock: %.6g UE-s/s, %.6g jobs/s, e2e p50 %.6g ms, p90 "
              "%.6g ms; reference-kernel slowdown p50 %.3f, p90 %.3f\n",
              ue_seconds / wall_s, static_cast<double>(done) / wall_s,
              host_e2e_ms.percentile(50.0), host_e2e_ms.percentile(90.0),
              slowdown.percentile(50.0), slowdown.percentile(90.0));

  if (!opt.trace) {
    add_e2e(outcome, corrected_wall_s, ue_seconds, done, e2e_ms, false,
            median_of(setup_s));
    finish_outcome(outcome, checker);
    return outcome;
  }

  // Traced run: the per-layer split on the cycle's first round.
  const std::vector<Job> probed(jobs.begin(),
                                jobs.begin() + static_cast<std::ptrdiff_t>(
                                                   shape.presets.size()));
  const LayerSplit split = probe_layers(probed);
  for (std::size_t j = 0; j < probed.size(); ++j) {
    ++outcome.attempted;
    if (!checker.check("traced serial rerun of job " + std::to_string(j),
                       refs[j].fp, split.fingerprints[j])) {
      ++outcome.failed;
    }
  }

  double traced_sum = 0.0, plain_sum = 0.0, threaded_wall = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!traced_s[j].empty() && !plain_s[j].empty()) {
      traced_sum += traced_s[j].median();
      plain_sum += plain_s[j].median();
    }
  }
  for (std::size_t j = 0; j < probed.size(); ++j) {
    if (traced_s[j].empty()) {
      throw std::runtime_error("traced phase too short: no traced job at "
                               "cycle position " + std::to_string(j));
    }
    threaded_wall += traced_fleet_s[j].median();
  }
  MetricSink& m = outcome.metrics;
  report_layers(split, m);
  m.add("obs.report_ms", report_ms.median(), "ms");
  m.add("obs.report_bytes", report_bytes.median(), "bytes");
  if (plain_sum == 0.0) {
    throw std::runtime_error("traced phase too short to pair traced and "
                             "untraced jobs");
  }
  print_split(split, traced_sum / plain_sum - 1.0);
  m.add("bench.trace_overhead_frac", traced_sum / plain_sum - 1.0, "fraction");
  m.add("fleet.parallel_efficiency",
        split.ue_run_s / (static_cast<double>(threads_used) * threaded_wall),
        "fraction");
  m.add("fleet.straggler_ratio", straggler.median(), "ratio");

  // The service split: the same first round of jobs, served.
  {
    ServeSession session(socket_path("probe"), 2);
    const LoopResult loop = session.closed_loop(probed, refs, 600.0,
                                                probed.size(), true, checker);
    outcome.attempted += loop.attempted;
    outcome.failed += loop.failed;
    report_serve(serve_split(session, loop.submit_us, loop.frames, loop.dropped,
                             loop.done),
                 m);
  }
  finish_outcome(outcome, checker);
  return outcome;
}

// ---- serve_load ----------------------------------------------------------------

RunOutcome run_serve_workload(const Options& opt, const WorkloadShape& shape,
                              const FingerprintTable& golden) {
  RunOutcome outcome;
  Checker checker;

  std::vector<double> setup_s;
  std::vector<Job> jobs;
  std::unique_ptr<ServeSession> session;
  for (int i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    const Clock::time_point t0 = Clock::now();
    jobs = setup_jobs(shape, opt.seed);
    session = std::make_unique<ServeSession>(socket_path("load"), 2);
    setup_s.push_back(seconds_since(t0));
  }

  // Direct run_fleet references for every served report, then one
  // served cycle as warm-up.
  const std::vector<Reference> refs = direct_references(jobs, 1);
  check_golden(shape, golden, opt.seed, refs, checker, outcome);
  {
    const LoopResult warm = session->closed_loop(jobs, refs, 600.0,
                                                 jobs.size(), false, checker);
    outcome.attempted += warm.attempted;
    outcome.failed += warm.failed;
  }

  const std::size_t unlimited = static_cast<std::size_t>(-1);
  if (!opt.trace) {
    const LoopResult loop =
        session->closed_loop(jobs, refs, opt.seconds, unlimited, false, checker);
    outcome.attempted += loop.attempted;
    outcome.failed += loop.failed;
    add_e2e(outcome, loop.wall_s,
            static_cast<double>(loop.done) * refs.front().sim_seconds,
            loop.done, loop.e2e_ms, true, median_of(setup_s));
    finish_outcome(outcome, checker);
    return outcome;
  }

  // Traced run: alternate untraced and traced blocks so both see the
  // same machine regimes.
  const double block_s = opt.seconds / 8.0;
  SampleSet plain_ms, traced_ms, submit_us;
  std::uint64_t frames = 0, dropped = 0, done = 0;
  for (int b = 0; b < 4; ++b) {
    for (const bool traced : {false, true}) {
      const LoopResult loop =
          session->closed_loop(jobs, refs, block_s, unlimited, traced, checker);
      outcome.attempted += loop.attempted;
      outcome.failed += loop.failed;
      (traced ? traced_ms : plain_ms).add_all(loop.e2e_ms.samples());
      if (traced) {
        submit_us.add_all(loop.submit_us.samples());
      }
      frames += loop.frames;
      dropped += loop.dropped;
      done += loop.done;
    }
  }
  const ServeSplit serve = serve_split(*session, submit_us, frames, dropped, done);
  session.reset();

  const std::vector<Job> probed(jobs.begin(), jobs.begin() + 3);
  const LayerSplit split = probe_layers(probed);
  for (std::size_t j = 0; j < probed.size(); ++j) {
    ++outcome.attempted;
    if (!checker.check("traced serial rerun of job " + std::to_string(j),
                       refs[j].fp, split.fingerprints[j])) {
      ++outcome.failed;
    }
  }
  MetricSink& m = outcome.metrics;
  report_layers(split, m);
  m.add("obs.report_ms", split.report_ms.median(), "ms");
  m.add("obs.report_bytes", split.report_bytes.median(), "bytes");
  print_split(split, traced_ms.median() / plain_ms.median() - 1.0);
  m.add("bench.trace_overhead_frac",
        traced_ms.median() / plain_ms.median() - 1.0, "fraction");
  // One fleet thread per served job: the serial probe is the served
  // configuration.
  m.add("fleet.parallel_efficiency", split.ue_run_s / split.fleet_run_s,
        "fraction");
  m.add("fleet.straggler_ratio", split.straggler.median(), "ratio");
  report_serve(serve, m);
  finish_outcome(outcome, checker);
  return outcome;
}

FingerprintTable compute_fingerprints() {
  FingerprintTable table;
  for (const char* name : {"paper_fleet", "grid_fleet", "serve_load"}) {
    const WorkloadShape shape = workload_shape(name);
    const std::vector<Job> jobs =
        resolve_jobs(job_documents(shape, kDefaultSeed));
    for (const Reference& r : direct_references(jobs, 1)) {
      table[name].push_back(r.fp);
    }
  }
  return table;
}

}  // namespace perfbench
