// Reactive handover — the baseline Silent Tracker is measured against.
//
// "Reactive handover mechanisms employed in omnidirectional cellular
// technologies are not viable in the mm-wave band" (§2): this class is
// that mechanism, transplanted to the directional setting. It maintains
// the serving link exactly like Silent Tracker (BeamSurfer + link
// monitor) but does *nothing* about neighbours until the serving link is
// already dead — then it performs a from-scratch directional search
// (paying the up-to-1.28 s initial-search cost under mobility) followed
// by random access with the beam the search happened to find, unadapted.
// Every transition it makes is a hard handover; the service interruption
// gap it measures is the quantity Fig. 2c's soft handovers avoid.
#pragma once

#include <functional>
#include <memory>

#include "core/beamsurfer.hpp"
#include "net/cell_search.hpp"
#include "net/environment.hpp"
#include "net/handover.hpp"
#include "net/link_monitor.hpp"
#include "net/rach.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace st::core {

struct ReactiveHandoverConfig {
  BeamSurferConfig beamsurfer{};
  net::CellSearchConfig search{};
  net::RachConfig rach{};
  net::LinkMonitorConfig link_monitor{};
  unsigned max_rounds = 10;  ///< search+access rounds before giving up
};

class ReactiveHandover {
 public:
  using HandoverCallback = std::function<void(const net::HandoverRecord&)>;

  ReactiveHandover(sim::Simulator& simulator,
                   net::RadioEnvironment& environment,
                   ReactiveHandoverConfig config);
  ~ReactiveHandover();

  ReactiveHandover(const ReactiveHandover&) = delete;
  ReactiveHandover& operator=(const ReactiveHandover&) = delete;

  void start(net::CellId serving_cell, phy::BeamId serving_rx_beam,
             double serving_rss_dbm, HandoverCallback on_handover);
  void stop();

  [[nodiscard]] bool serving_alive() const noexcept { return serving_alive_; }
  [[nodiscard]] net::CellId serving_cell() const noexcept { return serving_; }
  [[nodiscard]] const BeamSurfer& beamsurfer() const noexcept {
    return *beamsurfer_;
  }

  /// Run counter registry (not owned; may be null), shared with the
  /// BeamSurfer instance.
  void set_counters(obs::MetricRegistry* counters);

  /// Structured trace sink (not owned; may be null). Propagated to the
  /// sub-procedures so every component records into the same buffers.
  void set_tracer(obs::TraceRecorder* recorder);

 private:
  void on_serving_lost();
  void next_round();
  void on_search_done(const net::SearchOutcome& outcome);
  void on_rach_done(const net::RachOutcome& outcome);
  void complete(bool success);

  sim::Simulator& simulator_;
  net::RadioEnvironment& environment_;
  ReactiveHandoverConfig config_;

  net::CellId serving_ = net::kInvalidCell;
  bool serving_alive_ = true;
  unsigned rounds_ = 0;
  phy::BeamId found_rx_beam_ = phy::kInvalidBeam;

  std::unique_ptr<BeamSurfer> beamsurfer_;
  std::unique_ptr<net::LinkMonitor> link_monitor_;
  std::unique_ptr<net::CellSearch> search_;
  std::unique_ptr<net::RachProcedure> rach_;

  net::HandoverRecord record_;
  HandoverCallback on_handover_;

  obs::Emitter emit_{obs::Component::kReactive};
};

}  // namespace st::core
