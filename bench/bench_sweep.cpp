// bench_sweep — the one-axis scenario sweeps of the evaluation (DESIGN.md
// §4): E4 handover interruption, E5 drop threshold, E6 probe rule, E8 SSB
// period, E9 beamwidth, E10 measurement budget, E11 pattern family and
// E15 beam-policy head to head.
//
// Every sweep is the same loop: for each scenario and each variant of the
// swept axis, run a fixed seed list through run_batch_parallel and print
// one table row. The axes are data: the table below names each one's
// scenarios, seed count, variants (a label plus a spec mutator) and the
// columns it prints, picked from one column catalogue.
//
//   ./bench_sweep [--axis NAME] [--preset NAME] [--duration-ms D]
//                 [--runs N] [--report-out report.json]
//                 [--trace-out trace.json]
//
// With no --axis every axis runs in E-order. --preset collapses an axis's
// scenario list to one named spec preset (paper_walk, grid_walk, ...);
// --duration-ms and --runs override the per-run duration and the seed
// count. Each axis writes BENCH_<axis>.json (the "benchmarks" schema of
// BENCH_micro.json plus a per-combination "matrix" block); --report-out
// and --trace-out re-run the first scenario of the first selected axis
// once, instrumented.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/spec_json.hpp"

namespace {

using namespace st;

// ---- column catalogue -----------------------------------------------------

enum class Column {
  kHandovers,         ///< handover attempts
  kAligned,           ///< time aligned % until the first handover
  kSuccess,           ///< handover success [Wilson CI]
  kSoft,              ///< soft share of completed handovers [CI]
  kInterruptionMean,  ///< interruption ms over successful handovers
  kInterruptionP50,
  kInterruptionP95,
  kInterruptionMax,
  kRxSwitches,    ///< RX beam switches per run
  kDrops,         ///< 3 dB drop events per run
  kSsbObsPerS,    ///< SSB listening attempts per simulated second
  kThroughput,    ///< mean throughput Mb/s (rate layer)
  kSinr,          ///< mean served SINR dB (rate layer)
  kOutageMs,      ///< outage ms per run (rate layer)
  kOutageEvents,  ///< outage windows per run (rate layer)
};

/// A printed column: what it shows and the header the axis gives it.
struct ColumnSpec {
  Column column;
  const char* header;
};

/// One (scenario, variant) combination's batch outcome.
struct Entry {
  std::string scenario;
  std::string variant;
  bench::Aggregate agg;
  double duration_s = 0.0;
  double wall_seconds = 0.0;
};

/// `stat` of `samples` at one decimal, or "-" for an empty set (its order
/// statistics would throw).
template <typename Stat>
std::string over(const SampleSet& samples, Stat stat) {
  return samples.empty() ? std::string("-")
                         : format_double(std::invoke(stat, samples), 1);
}

std::string format_cell(Column column, const Entry& e) {
  const bench::Aggregate& agg = e.agg;
  const SampleSet& interruption = agg.interruption_ms;
  const double runs = static_cast<double>(agg.runs());
  switch (column) {
    case Column::kHandovers:
      return std::to_string(agg.handover_success.trials());
    case Column::kAligned:
      return over(agg.alignment_fraction,
                  [](const SampleSet& s) { return 100.0 * s.mean(); });
    case Column::kSuccess:
      return bench::rate_with_ci(agg.handover_success);
    case Column::kSoft:
      return bench::rate_with_ci(agg.soft_fraction);
    case Column::kInterruptionMean:
      return over(interruption, &SampleSet::mean);
    case Column::kInterruptionP50:
      return over(interruption, &SampleSet::median);
    case Column::kInterruptionP95:
      return over(interruption,
                  [](const SampleSet& s) { return s.percentile(95.0); });
    case Column::kInterruptionMax:
      return over(interruption, &SampleSet::max);
    case Column::kRxSwitches:
      return format_double(agg.rx_switches.mean(), 1);
    case Column::kDrops:
      return format_double(agg.drop_events.mean(), 1);
    case Column::kSsbObsPerS:
      return format_double(agg.ssb_observations.mean() / e.duration_s, 1);
    case Column::kThroughput:
      return format_double(agg.rate.mean_throughput_mbps(), 1);
    case Column::kSinr:
      return format_double(agg.rate.mean_sinr_db(), 1);
    case Column::kOutageMs:
      return format_double(agg.rate.outage_ms / runs, 1);
    case Column::kOutageEvents:
      return format_double(static_cast<double>(agg.rate.outage_events) / runs,
                           2);
  }
  return "?";
}

// ---- axes -----------------------------------------------------------------

struct Variant {
  std::string label;
  std::function<void(core::ScenarioSpec&)> apply;
};

/// A variant that applies `set` to every mobile of the spec.
Variant per_ue(std::string label, std::function<void(core::UeProfile&)> set) {
  return {std::move(label), [set = std::move(set)](core::ScenarioSpec& spec) {
            for (core::UeProfile& ue : spec.ues) {
              set(ue);
            }
          }};
}

/// A swept scenario: the row label and the spec preset it runs.
struct Scenario {
  const char* label;
  const char* preset;
};

struct Axis {
  const char* name;  ///< --axis value; also names BENCH_<name>.json
  const char* title;
  const char* paper_ref;
  std::vector<Scenario> scenarios;
  std::size_t runs;          ///< seeds per combination
  std::int64_t duration_ms;  ///< 0 keeps each preset's own duration
  const char* variant_header;
  std::vector<Variant> variants;
  std::vector<ColumnSpec> columns;
  const char* shape_check;  ///< closing text, printed after the table
  void (*preamble)() = nullptr;
  void (*footer)(const std::vector<Entry>&) = nullptr;
};

const std::vector<Scenario> kWalkRotation = {
    {"human_walk", "paper_walk"}, {"rotation", "paper_rotation"}};

Variant protocol_variant(std::string label, core::ProtocolKind protocol) {
  return per_ue(std::move(label),
                [protocol](core::UeProfile& ue) { ue.protocol = protocol; });
}

Variant policy_variant(std::string label, core::BeamPolicyKind kind) {
  return per_ue(std::move(label), [kind](core::UeProfile& ue) {
    ue.tracker.beam_policy.kind = kind;
  });
}

/// E6's variants pin the codebook too: 20 deg beams, or omni at 0.
Variant probe_variant(std::string label, core::BeamPolicyKind kind,
                      double beamwidth_deg) {
  return per_ue(std::move(label), [kind, beamwidth_deg](core::UeProfile& ue) {
    ue.ue_beamwidth_deg = beamwidth_deg;
    ue.tracker.beam_policy.kind = kind;
  });
}

// E4: pool each protocol's interruptions over every scenario.
void interruption_summary(const std::vector<Entry>& entries) {
  SampleSet soft_all;
  SampleSet hard_all;
  for (const Entry& e : entries) {
    SampleSet& sink = e.variant == "silent_tracker" ? soft_all : hard_all;
    sink.add_all(e.agg.interruption_ms.samples());
  }
  if (soft_all.empty() || hard_all.empty()) {
    return;
  }
  std::cout << "Overall mean interruption: silent_tracker = "
            << format_double(soft_all.mean(), 1)
            << " ms, reactive = " << format_double(hard_all.mean(), 1)
            << " ms  (ratio "
            << format_double(hard_all.mean() / soft_all.mean(), 1)
            << "x)\nMedian interruption:       silent_tracker = "
            << format_double(soft_all.median(), 1)
            << " ms, reactive = " << format_double(hard_all.median(), 1)
            << " ms  (ratio "
            << format_double(hard_all.median() / soft_all.median(), 1)
            << "x)\n";
  // Translate to user impact: a 1 Gb/s mm-wave stream loses this much
  // data per handover gap.
  constexpr double kGbps = 1.0;
  std::cout << "At " << kGbps << " Gb/s, a median gap costs "
            << format_double(soft_all.median() * kGbps / 8.0, 1)
            << " MB (silent_tracker) vs "
            << format_double(hard_all.median() * kGbps / 8.0, 1)
            << " MB (reactive) of lost data.\n";
}

// E11: the two codebooks being compared, at the paper's 20 deg.
void pattern_preamble() {
  const phy::Codebook gaussian = core::make_ue_codebook(20.0, false);
  const phy::Codebook ula = core::make_ue_codebook(20.0, true);
  std::cout << "codebooks at nominal 20 deg: Gaussian = "
            << gaussian.description() << ", ULA = " << ula.description()
            << " (peak gains "
            << format_double(gaussian.beam(0).pattern().peak_gain_dbi(), 1)
            << " / "
            << format_double(ula.beam(0).pattern().peak_gain_dbi(), 1)
            << " dBi)\n\n";
}

std::vector<Axis> make_axes() {
  using core::BeamPolicyKind;
  using core::ProtocolKind;
  std::vector<Axis> axes;

  // E4 — Silent Tracker's soft handover vs the reactive (hard) baseline.
  // A reactive mobile pays the up-to-1.28 s initial search after its
  // serving link died; Silent Tracker banks search and tracking ahead of
  // time, so its interruption is only RACH on an aligned beam.
  axes.push_back(
      {.name = "interruption",
       .title = "E4: handover service interruption, Silent Tracker vs "
                "reactive",
       .paper_ref = "§1/§2 claim — soft handover avoids the up-to-1.28 s "
                    "search a hard handover pays",
       .scenarios = {{"human_walk", "paper_walk"},
                     {"rotation", "paper_rotation"},
                     {"vehicular", "paper_vehicular"}},
       .runs = 25,
       .duration_ms = 0,
       .variant_header = "protocol",
       .variants = {protocol_variant("silent_tracker",
                                     ProtocolKind::kSilentTracker),
                    protocol_variant("reactive", ProtocolKind::kReactive)},
       .columns = {{Column::kHandovers, "handovers"},
                   {Column::kSuccess, "success [CI]"},
                   {Column::kInterruptionMean, "interruption mean ms"},
                   {Column::kInterruptionP50, "p50 ms"},
                   {Column::kInterruptionP95, "p95 ms"},
                   {Column::kInterruptionMax, "max ms"}},
       .shape_check =
           "Shape check: reactive interruption is dominated by the "
           "directional search (hundreds of ms to seconds); Silent Tracker "
           "pays only RACH on an aligned beam.",
       .footer = interruption_summary});

  // E5 — the 3 dB switching threshold. Small thresholds thrash (every
  // noise wiggle triggers a probe burst), large ones react too late; 3 dB
  // is half-power, one beamwidth of motion.
  std::vector<Variant> thresholds;
  for (const double threshold : {1.0, 2.0, 3.0, 5.0, 8.0, 10.0}) {
    thresholds.push_back(
        per_ue(format_double(threshold, 1), [threshold](core::UeProfile& ue) {
          ue.tracker.neighbour_tracker.drop_threshold_db = threshold;
          ue.tracker.beamsurfer.tracker.drop_threshold_db = threshold;
        }));
  }
  axes.push_back(
      {.name = "threshold",
       .title = "E5: switching-threshold ablation (the paper's 3 dB rule)",
       .paper_ref = "§3 design choice — adjacent-beam switch on a 3 dB drop",
       .scenarios = kWalkRotation,
       .runs = 12,
       .duration_ms = 20'000,
       .variant_header = "threshold dB",
       .variants = std::move(thresholds),
       .columns = {{Column::kAligned, "time aligned %"},
                   {Column::kRxSwitches, "rx switches / run"},
                   {Column::kDrops, "drops / run"},
                   {Column::kSuccess, "handover success [CI]"},
                   {Column::kSoft, "soft [CI]"}},
       .shape_check =
           "Shape check: switch churn falls monotonically with the "
           "threshold; alignment degrades once the threshold exceeds the "
           "beam overlap depth. 3 dB sits at the knee."});

  // E6 — the probe rule: the two adjacent beams vs a full re-sweep of the
  // codebook (17 bursts at 20 deg, ~340 ms while the link moves on) vs
  // the omni antenna (nothing to track, no beamforming gain).
  axes.push_back(
      {.name = "probe",
       .title = "E6: probe-policy ablation (adjacent vs full re-sweep vs "
                "omni)",
       .paper_ref = "§3 design choice — 'switch to one of the directionally "
                    "adjacent receive beams'",
       .scenarios = kWalkRotation,
       .runs = 12,
       .duration_ms = 20'000,
       .variant_header = "policy",
       .variants = {probe_variant("adjacent (paper)",
                                  BeamPolicyKind::kSilentTracker, 20.0),
                    probe_variant("full re-sweep", BeamPolicyKind::kFullSweep,
                                  20.0),
                    probe_variant("omni", BeamPolicyKind::kSilentTracker,
                                  0.0)},
       .columns = {{Column::kAligned, "time aligned %"},
                   {Column::kSuccess, "handover success [CI]"},
                   {Column::kSoft, "soft [CI]"},
                   {Column::kInterruptionP50, "interruption p50 ms"}},
       .shape_check =
           "Note: omni's 'time aligned' is trivially 100% — a single 0 dBi "
           "beam is always its own best beam; its handover success column "
           "is what shows it cannot reach cell-edge SNR.\n"
           "Shape check: adjacent probing tracks at least as well as the "
           "full re-sweep under slow motion and far better under rotation, "
           "at a fraction of the measurement budget; omni cannot hold "
           "cell-edge links."});

  // E8 — the SSB burst period (NR allows 5–160 ms). Every in-band
  // decision rides on it: one measurement opportunity per beam per
  // period. The search budget stays at 64 dwells, as in NR initial
  // access.
  std::vector<Variant> periods;
  for (const std::int64_t period_ms : {5, 10, 20, 40, 80}) {
    periods.push_back(
        {std::to_string(period_ms), [period_ms](core::ScenarioSpec& spec) {
           spec.deployment.frame.ssb_period =
               sim::Duration::milliseconds(period_ms);
           for (core::UeProfile& ue : spec.ues) {
             ue.tracker.search.dwell = sim::Duration::milliseconds(period_ms);
             ue.tracker.search.budget =
                 sim::Duration::milliseconds(64 * period_ms);
             ue.reactive.search = ue.tracker.search;
           }
         }});
  }
  axes.push_back(
      {.name = "ssb_period",
       .title = "E8: SSB periodicity ablation (measurement cadence)",
       .paper_ref = "extension — the paper's latencies all scale with the "
                    "20 ms SSB period (64 dwells x 20 ms = the 1.28 s search "
                    "bound of its intro)",
       .scenarios = kWalkRotation,
       .runs = 12,
       .duration_ms = 20'000,
       .variant_header = "SSB period ms",
       .variants = std::move(periods),
       .columns = {{Column::kAligned, "time aligned %"},
                   {Column::kSuccess, "handover success [CI]"},
                   {Column::kSoft, "soft [CI]"},
                   {Column::kInterruptionP50, "interruption p50 ms"}},
       .shape_check =
           "Shape check: alignment under rotation improves steeply as the "
           "period shrinks (tracking is measurement-cadence limited); the "
           "slow walk barely cares."});

  // E9 — Fig. 2a's codebook axis carried through tracking and handover:
  // narrow beams buy link budget but cost sweep time and switch churn.
  std::vector<Variant> beamwidths;
  for (const double beamwidth : {10.0, 15.0, 20.0, 30.0, 45.0, 60.0, 0.0}) {
    beamwidths.push_back(
        per_ue(core::make_ue_codebook(beamwidth).description(),
               [beamwidth](core::UeProfile& ue) {
                 ue.ue_beamwidth_deg = beamwidth;
               }));
  }
  axes.push_back(
      {.name = "beamwidth",
       .title = "E9: mobile beamwidth sweep across the full protocol",
       .paper_ref = "extension — Fig. 2a's codebook axis carried through "
                    "tracking and handover",
       .scenarios = kWalkRotation,
       .runs = 12,
       .duration_ms = 20'000,
       .variant_header = "codebook",
       .variants = std::move(beamwidths),
       .columns = {{Column::kAligned, "time aligned %"},
                   {Column::kSuccess, "handover success [CI]"},
                   {Column::kSoft, "soft [CI]"},
                   {Column::kInterruptionP50, "interruption p50 ms"},
                   {Column::kRxSwitches, "rx switches/run"}},
       .shape_check =
           "Shape check: very narrow beams switch constantly (and suffer "
           "under rotation); wide beams and omni lose the link budget that "
           "cell-edge operation needs. The paper's 20 deg sits in the broad "
           "middle."});

  // E10 — the radio measurement budget (§2: "it needs to be done with
  // minimal resource usage"): every SSB listening attempt, per policy.
  axes.push_back(
      {.name = "budget",
       .title = "E10: radio measurement budget per policy",
       .paper_ref = "§2 claim — beam management for soft handover with "
                    "minimal measurement resource usage",
       .scenarios = kWalkRotation,
       .runs = 12,
       .duration_ms = 20'000,
       .variant_header = "policy",
       .variants = {policy_variant("silent_tracker / adjacent (paper)",
                                   BeamPolicyKind::kSilentTracker),
                    policy_variant("silent_tracker / full re-sweep",
                                   BeamPolicyKind::kFullSweep),
                    protocol_variant("reactive (no pre-HO measurement)",
                                     ProtocolKind::kReactive)},
       .columns = {{Column::kSsbObsPerS, "SSB obs/s"},
                   {Column::kAligned, "time aligned %"},
                   {Column::kSoft, "soft [CI]"},
                   {Column::kInterruptionP50, "interruption p50 ms"}},
       .shape_check =
           "Shape check: the paper's adjacent policy spends less than 2x the "
           "budget of the reactive baseline (which measures only the "
           "serving cell) yet converts its hard handovers to soft. The full "
           "re-sweep's cost is not extra slots but *time*: each probe round "
           "monopolises the measurement schedule for a full codebook of "
           "bursts, so tracking staleness — not slot count — is what "
           "collapses under fast motion."});

  // E11 — analytic Gaussian beams vs a physical half-wavelength ULA
  // (first sidelobe only ~13 dB down) at the same nominal beamwidth.
  axes.push_back(
      {.name = "pattern",
       .title = "E11: beam pattern family — analytic Gaussian vs physical "
                "ULA",
       .paper_ref = "extension — does the modelling abstraction change the "
                    "paper's conclusions?",
       .scenarios = kWalkRotation,
       .runs = 12,
       .duration_ms = 20'000,
       .variant_header = "pattern",
       .variants = {per_ue("Gaussian (analytic)",
                           [](core::UeProfile& ue) {
                             ue.ue_ula_codebook = false;
                           }),
                    per_ue("ULA (real sidelobes)",
                           [](core::UeProfile& ue) {
                             ue.ue_ula_codebook = true;
                           })},
       .columns = {{Column::kAligned, "time aligned %"},
                   {Column::kSuccess, "handover success [CI]"},
                   {Column::kSoft, "soft [CI]"},
                   {Column::kInterruptionP50, "interruption p50 ms"}},
       .shape_check =
           "Shape check: the paper's conclusions (soft handovers, aligned "
           "tracking) must hold for both families — the protocol rides the "
           "main lobe, and sidelobes cost a little alignment, not the "
           "mechanism.",
       .preamble = pattern_preamble});

  // E15 — beam-management policies head to head, scored by the rate
  // layer: the paper's adjacent rule, coarse-to-fine after Palacios et
  // al., blind switching after Gao et al., and the full re-sweep.
  std::vector<Variant> policies;
  for (const BeamPolicyKind kind :
       {BeamPolicyKind::kSilentTracker, BeamPolicyKind::kHierarchical,
        BeamPolicyKind::kBlind, BeamPolicyKind::kFullSweep}) {
    policies.push_back(policy_variant(std::string(core::to_string(kind)),
                                      kind));
  }
  axes.push_back(
      {.name = "beam_policy",
       .title = "E15: beam-management policy comparison over the rate layer",
       .paper_ref = "extension — Silent Tracker's adjacent rule vs "
                    "hierarchical coarse-to-fine vs blind switching, scored "
                    "by throughput and outage",
       .scenarios = {{"paper_walk", "paper_walk"},
                     {"paper_rotation", "paper_rotation"},
                     {"paper_vehicular", "paper_vehicular"},
                     {"grid_walk", "grid_walk"}},
       .runs = 12,
       .duration_ms = 0,
       .variant_header = "policy",
       .variants = std::move(policies),
       .columns = {{Column::kThroughput, "tput Mb/s"},
                   {Column::kSinr, "SINR dB"},
                   {Column::kOutageMs, "outage ms/run"},
                   {Column::kOutageEvents, "events/run"},
                   {Column::kSuccess, "success [CI]"},
                   {Column::kInterruptionP50, "interruption p50 ms"},
                   {Column::kAligned, "aligned %"}},
       .shape_check =
           "Shape check: silent_tracker holds alignment under rotation with "
           "two probes per drop, where hierarchical (a coarse sweep plus a "
           "refine round per drop) and the full re-sweep (a whole codebook "
           "of bursts per drop) fall behind; blind switching skips the "
           "confirming probe and stays within a few percent of "
           "silent_tracker's outage."});
  return axes;
}

// ---- runner ---------------------------------------------------------------

struct Options {
  std::string axis;
  std::string preset;
  std::int64_t duration_ms = 0;
  std::size_t runs = 0;
};

/// The scenario list an axis runs under `options`: its own presets, or
/// the one --preset names; at --duration-ms, else the axis default, else
/// each preset's own duration.
std::vector<std::pair<std::string, core::ScenarioSpec>> scenarios_of(
    const Axis& axis, const Options& options) {
  std::vector<Scenario> scenarios = axis.scenarios;
  if (!options.preset.empty()) {
    scenarios = {{options.preset.c_str(), options.preset.c_str()}};
  }
  const std::int64_t duration_ms =
      options.duration_ms > 0 ? options.duration_ms : axis.duration_ms;
  std::vector<std::pair<std::string, core::ScenarioSpec>> out;
  for (const Scenario& scenario : scenarios) {
    core::ScenarioSpec spec = core::preset_by_name(scenario.preset);
    if (duration_ms > 0) {
      spec.duration = sim::Duration::milliseconds(duration_ms);
    }
    out.emplace_back(scenario.label, std::move(spec));
  }
  return out;
}

/// BENCH_micro.json schema: a "benchmarks" array of {name, ns_per_op,
/// items_per_second}, plus a named per-combination matrix.
void write_json(const Axis& axis, const std::vector<Entry>& entries,
                std::size_t n_runs) {
  const std::string path = std::string("BENCH_") + axis.name + ".json";
  const double runs = static_cast<double>(n_runs);
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "    {\"name\": \"" << axis.name << "/" << e.scenario << "/"
        << e.variant << "\", \"ns_per_op\": " << e.wall_seconds * 1e9 / runs
        << ", \"items_per_second\": "
        << (e.wall_seconds > 0.0 ? runs / e.wall_seconds : 0.0) << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"matrix\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const bench::Aggregate& agg = e.agg;
    const rate::RateStats& rate = agg.rate;
    out << "    \"" << e.scenario << "/" << e.variant << "\": {"
        << "\"throughput_mbps\": " << rate.mean_throughput_mbps()
        << ", \"mean_sinr_db\": " << rate.mean_sinr_db()
        << ", \"mean_cqi\": " << rate.mean_cqi()
        << ", \"outage_ms_per_run\": " << rate.outage_ms / runs
        << ", \"outage_events_per_run\": "
        << static_cast<double>(rate.outage_events) / runs
        << ", \"outage_fraction\": " << rate.outage_fraction()
        << ", \"handover_success\": " << agg.handover_success.rate()
        << ", \"handovers\": " << agg.handover_success.trials()
        << ", \"interruption_p50_ms\": "
        << (agg.interruption_ms.empty() ? 0.0 : agg.interruption_ms.median())
        << ", \"alignment_fraction\": "
        << (agg.alignment_fraction.empty() ? 0.0
                                           : agg.alignment_fraction.mean())
        << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"runs_per_combination\": " << n_runs << "\n}\n";
  std::cout << "wrote " << path << "\n";
}

void run_axis(const Axis& axis, const Options& options) {
  bench::print_header(axis.title, axis.paper_ref);
  if (axis.preamble != nullptr) {
    axis.preamble();
  }
  const std::size_t n_runs = options.runs > 0 ? options.runs : axis.runs;
  const std::vector<std::uint64_t> run_seeds = bench::seeds(n_runs);

  std::vector<std::string> headers = {"scenario", axis.variant_header};
  for (const ColumnSpec& column : axis.columns) {
    headers.emplace_back(column.header);
  }
  Table table(std::move(headers));
  std::vector<Entry> entries;
  for (const auto& [label, base] : scenarios_of(axis, options)) {
    for (const Variant& variant : axis.variants) {
      core::ScenarioSpec spec = base;
      variant.apply(spec);
      spec = core::SpecBuilder(std::move(spec)).build();
      const auto start = std::chrono::steady_clock::now();
      Entry entry{.scenario = label,
                  .variant = variant.label,
                  .agg = bench::run_batch_parallel(spec, run_seeds),
                  .duration_s = spec.duration.seconds()};
      entry.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      table.row().cell(entry.scenario).cell(entry.variant);
      for (const ColumnSpec& column : axis.columns) {
        table.cell(format_cell(column.column, entry));
      }
      entries.push_back(std::move(entry));
    }
  }
  table.print(std::cout);

  std::cout << "\n";
  if (axis.footer != nullptr) {
    axis.footer(entries);
  }
  std::cout << axis.shape_check << "\n";
  write_json(axis, entries, n_runs);
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "bench_sweep: " << message << "\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  std::string duration;
  std::string runs;
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
    if (!match("--axis", options.axis) && !match("--preset", options.preset) &&
        !match("--duration-ms", duration) && !match("--runs", runs)) {
      usage_error("unknown option '" + arg + "'");
    }
  }
  if (!duration.empty()) {
    options.duration_ms = std::strtol(duration.c_str(), nullptr, 10);
  }
  if (!runs.empty()) {
    options.runs = std::strtoull(runs.c_str(), nullptr, 10);
    if (options.runs == 0) {
      usage_error("--runs must be positive");
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs = bench::consume_obs_options(argc, argv);
  const Options options = parse_options(argc, argv);

  std::vector<Axis> axes = make_axes();
  if (!options.axis.empty()) {
    std::erase_if(axes,
                  [&](const Axis& axis) { return axis.name != options.axis; });
    if (axes.empty()) {
      std::string names;
      for (const Axis& axis : make_axes()) {
        names += std::string(names.empty() ? "" : ", ") + axis.name;
      }
      usage_error("unknown axis '" + options.axis + "' (expected " + names +
                  ")");
    }
  }
  for (const Axis& axis : axes) {
    run_axis(axis, options);
  }
  // The instrumented re-run covers the first scenario of the first axis,
  // under the preset's own protocol and policy.
  return bench::write_observability(
             obs, scenarios_of(axes.front(), options).front().second)
             ? 0
             : 1;
}
