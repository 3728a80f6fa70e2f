// Output fingerprints: what every run checks its jobs against.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Fields of a fleet report that differ between runs of one spec: wall
/// clock, the thread count the run was sharded over, and the build stamp.
[[nodiscard]] bool volatile_field(std::string_view key) {
  return key == "wall_seconds" || key == "ues_per_second" ||
         key == "wall_per_sim_second" || key == "threads" ||
         key == "provenance";
}

[[nodiscard]] std::string fnv1a_hex(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

[[nodiscard]] std::uint64_t u64_at(const json::Value& doc,
                                   std::string_view block,
                                   std::string_view key) {
  const json::Value* b = doc.find(block);
  const json::Value* v = b == nullptr ? nullptr : b->find(key);
  if (v == nullptr) {
    throw std::runtime_error("fleet report lacks " + std::string(block) + "." +
                             std::string(key));
  }
  return v->as_u64();
}

}  // namespace

json::Value scrub_report(const json::Value& report) {
  if (report.is_object()) {
    json::Value out = json::Value::object();
    for (const json::Value::Member& m : report.members()) {
      if (!volatile_field(m.first)) {
        out.set(m.first, scrub_report(m.second));
      }
    }
    return out;
  }
  if (report.is_array()) {
    json::Value out = json::Value::array();
    for (const json::Value& e : report.items()) {
      out.push_back(scrub_report(e));
    }
    return out;
  }
  return report;
}

Fingerprint fingerprint_report(const json::Value& report) {
  Fingerprint f;
  f.digest = fnv1a_hex(scrub_report(report).dump());
  for (const char* key : {"total", "successful", "soft", "hard",
                          "rach_attempts", "ssb_observations", "ping_pongs"}) {
    f.counters[std::string("handover.") + key] = u64_at(report, "handover", key);
  }
  f.counters["engine.events_executed"] =
      u64_at(report, "engine", "events_executed");
  f.counters["engine.queue_depth_hwm"] =
      u64_at(report, "engine", "queue_depth_hwm");
  const json::Value* engine = report.find("engine");
  f.counters["engine.sim_ms"] = static_cast<std::uint64_t>(
      engine->find("sim_seconds")->as_double() * 1000.0 + 0.5);
  for (const char* key : {"hits", "refreshes", "cold_misses", "invalidations",
                          "pair_sweeps", "rx_sweeps", "full_builds",
                          "incremental_builds"}) {
    f.counters[std::string("snapshot_cache.") + key] =
        u64_at(report, "snapshot_cache", key);
  }
  f.counters["fleet.n_ues"] = u64_at(report, "fleet", "n_ues");
  return f;
}

std::string describe_mismatch(const Fingerprint& want, const Fingerprint& got) {
  std::ostringstream out;
  if (want.digest != got.digest) {
    out << " digest " << want.digest << " != " << got.digest << ";";
  }
  for (const auto& [key, value] : want.counters) {
    const auto it = got.counters.find(key);
    if (it == got.counters.end()) {
      out << " " << key << " missing;";
    } else if (it->second != value) {
      out << " " << key << " " << value << " != " << it->second << ";";
    }
  }
  for (const auto& [key, value] : got.counters) {
    if (want.counters.find(key) == want.counters.end()) {
      out << " unexpected " << key << "=" << value << ";";
    }
  }
  return out.str();
}

FingerprintTable load_fingerprints(const std::string& path,
                                   const std::string& simd_mode) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read fingerprint file " + path);
  }
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  if (doc.find("seed") == nullptr ||
      doc.find("seed")->as_u64() != kDefaultSeed) {
    throw std::runtime_error(path + " was not generated for the default seed");
  }
  const json::Value* modes = doc.find("simd");
  const json::Value* table = modes == nullptr ? nullptr : modes->find(simd_mode);
  if (table == nullptr) {
    throw std::runtime_error(path + " holds no fingerprints for SIMD mode '" +
                             simd_mode + "'");
  }
  FingerprintTable out;
  for (const json::Value::Member& workload : table->members()) {
    std::vector<Fingerprint>& jobs = out[workload.first];
    for (const json::Value& entry : workload.second.items()) {
      Fingerprint f;
      f.digest = entry.find("digest")->as_string();
      for (const json::Value::Member& c : entry.find("counters")->members()) {
        f.counters[c.first] = c.second.as_u64();
      }
      jobs.push_back(std::move(f));
    }
  }
  return out;
}

void store_fingerprints(const std::string& path, const std::string& simd_mode,
                        const FingerprintTable& table) {
  // Keep the other SIMD modes' tables; replace only this one.
  json::Value modes = json::Value::object();
  if (std::ifstream in(path); in) {
    std::stringstream text;
    text << in.rdbuf();
    const json::Value old = json::parse(text.str());
    if (const json::Value* m = old.find("simd")) {
      modes = *m;
    }
  }
  json::Value workloads = json::Value::object();
  for (const auto& [name, jobs] : table) {
    json::Value list = json::Value::array();
    for (const Fingerprint& f : jobs) {
      json::Value counters = json::Value::object();
      for (const auto& [key, value] : f.counters) {
        counters.set(key, json::Value::unsigned_integer(value));
      }
      json::Value entry = json::Value::object();
      entry.set("digest", json::Value::string(f.digest));
      entry.set("counters", std::move(counters));
      list.push_back(std::move(entry));
    }
    workloads.set(name, std::move(list));
  }
  modes.set(simd_mode, std::move(workloads));
  json::Value doc = json::Value::object();
  doc.set("schema", json::Value::string("perfbench/fingerprints/v1"));
  doc.set("seed", json::Value::unsigned_integer(kDefaultSeed));
  doc.set("simd", std::move(modes));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) {
    throw std::runtime_error("cannot write fingerprint file " + path);
  }
}

bool checker_self_test(const json::Value& sample_report) {
  const Fingerprint base = fingerprint_report(sample_report);
  if (!describe_mismatch(base, fingerprint_report(sample_report)).empty()) {
    return false;
  }

  Fingerprint counter = base;
  counter.counters.begin()->second += 1;
  Fingerprint digest = base;
  digest.digest[0] = digest.digest[0] == '0' ? '1' : '0';

  // A perturbed report field (one more successful handover) and a
  // perturbed wall-clock field: the first must be caught, the second
  // must not.
  json::Value wrong_output = json::Value::object();
  json::Value wall_only = json::Value::object();
  for (const json::Value::Member& m : sample_report.members()) {
    json::Value block = m.second;
    json::Value wall_block = m.second;
    if (m.first == "handover") {
      block.set("successful", json::Value::unsigned_integer(
                                  block.find("successful")->as_u64() + 1));
    }
    if (m.first == "timing") {
      wall_block.set("wall_seconds", json::Value::number(12345.0));
    }
    wrong_output.set(m.first, std::move(block));
    wall_only.set(m.first, std::move(wall_block));
  }

  return !describe_mismatch(base, counter).empty() &&
         !describe_mismatch(base, digest).empty() &&
         !describe_mismatch(base, fingerprint_report(wrong_output)).empty() &&
         describe_mismatch(base, fingerprint_report(wall_only)).empty();
}

}  // namespace perfbench
