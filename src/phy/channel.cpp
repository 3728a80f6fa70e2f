#include "phy/channel.hpp"

#include <cmath>
#include <vector>

#include "common/angles.hpp"
#include "common/units.hpp"
#include "phy/path_snapshot.hpp"

namespace st::phy {

namespace {

/// Scratch snapshot for the pose-based convenience entry points. One per
/// thread so concurrent scenario runs (run_batch_parallel) never share
/// state; capacity is retained across calls, so the hot path allocates
/// only on each thread's first use.
PathSnapshot& scratch_snapshot() {
  thread_local PathSnapshot snapshot;
  return snapshot;
}

}  // namespace

Channel::Channel(const ChannelConfig& config, Vec3 tx_anchor, Vec3 rx_anchor,
                 sim::Duration horizon, std::uint64_t seed)
    : coherent_(config.coherent_combining),
      wavelength_m_(wavelength(config.pathloss.carrier_hz)),
      pathloss_(config.pathloss),
      shadowing_(config.shadowing, derive_seed(seed, "shadowing")),
      blockage_(config.blockage, horizon, derive_seed(seed, "blockage")),
      multipath_(config.multipath, tx_anchor, rx_anchor,
                 derive_seed(seed, "multipath")) {}

namespace {

bool same_orientation(const Quaternion& a, const Quaternion& b) noexcept {
  return a.w == b.w && a.x == b.x && a.y == b.y && a.z == b.z;
}

/// `v.normalized()` for a caller that already holds `norm == v.norm()`,
/// zero-vector case included.
Vec3 unit_direction(Vec3 v, double norm) noexcept {
  if (norm <= 0.0) {
    return {1.0, 0.0, 0.0};
  }
  return v / norm;
}

}  // namespace

void Channel::make_snapshot(const Pose& tx_pose, const Pose& rx_pose,
                            sim::Time t, double tx_power_dbm,
                            PathSnapshot& out) const {
  update_snapshot(tx_pose, rx_pose, t, tx_power_dbm, out, nullptr, nullptr);
}

void Channel::update_snapshot(const Pose& tx_pose, const Pose& rx_pose,
                              sim::Time t, double tx_power_dbm,
                              PathSnapshot& out, SnapshotReuse* reuse,
                              SnapshotBuildStats* stats) const {
  if (reuse == nullptr) {
    // One-off build through per-thread scratch reuse state, marked cold on
    // both sides so nothing leaks between channels sharing the thread.
    thread_local SnapshotReuse scratch;
    scratch.valid = false;
    update_snapshot(tx_pose, rx_pose, t, tx_power_dbm, out, &scratch, stats);
    scratch.valid = false;
    return;
  }

  SnapshotReuse& r = *reuse;
  const std::vector<MultipathGeometry::Reflector>& reflectors =
      multipath_.reflectors();
  const std::size_t n = 1 + reflectors.size();
  // State sized for another path count cannot describe this channel.
  const bool warm = r.valid && r.tx_leg_m.size() == n;
  // Cleared for the duration of the build: a throwing component can never
  // leave reuse state describing a half-built snapshot.
  r.valid = false;

  const bool same_tx_pos = warm && r.tx_pose.position == tx_pose.position;
  const bool same_rx_pos = warm && r.rx_pose.position == rx_pose.position;
  const bool geometry_ok = same_tx_pos && same_rx_pos;
  const bool tx_orient_ok =
      warm && same_orientation(r.tx_pose.orientation, tx_pose.orientation);
  const bool rx_orient_ok =
      warm && same_orientation(r.rx_pose.orientation, rx_pose.orientation);

  // Shadowing is a pure function of the RX position.
  const bool shadow_ok = same_rx_pos;
  if (!shadow_ok) {
    r.shadow_db = shadowing_.sample_db(rx_pose.position);
  }

  // Blockage is piecewise constant/linear in t; the cached window tells
  // us exactly how long the last value keeps holding.
  const bool block_ok = warm && r.block_from <= t && t < r.block_until;
  if (!block_ok) {
    const BlockageWindow w = blockage_.window(t);
    r.block_db = w.attenuation_db;
    r.block_from = w.from;
    r.block_until = w.until;
  }

  // Path geometry by index: the LOS path first, then one path per
  // reflector, the order of MultipathGeometry::paths. Each leg takes one
  // norm() for both its direction and its length: normalized() and
  // distance() compute that same sqrt, and (a − b) differs from (b − a)
  // only in sign, so both have the same norm. Every value equals paths()'
  // bit for bit.
  const auto set_path_length = [&](std::size_t p, double length_m) {
    r.path_loss_db[p] = pathloss_.loss_db(length_m);
    if (coherent_) {
      const double phase = kTwoPi * std::fmod(length_m / wavelength_m_, 1.0);
      r.phase_cos[p] = std::cos(phase);
      r.phase_sin[p] = std::sin(phase);
    } else {
      r.phase_cos[p] = 0.0;
      r.phase_sin[p] = 0.0;
    }
  };

  // TX legs: a reflected path's departure direction and TX→reflector
  // length depend on the TX position alone, and base stations never move.
  if (!same_tx_pos) {
    r.departure.resize(n);
    r.tx_leg_m.resize(n);
    for (std::size_t p = 1; p < n; ++p) {
      const Vec3 leg = reflectors[p - 1].point - tx_pose.position;
      const double leg_m = leg.norm();
      r.departure[p] = unit_direction(leg, leg_m);
      r.tx_leg_m[p] = leg_m;
    }
  }

  // RX legs, the LOS departure and everything derived from path lengths.
  if (!geometry_ok) {
    r.arrival.resize(n);
    r.path_loss_db.resize(n);
    r.phase_cos.resize(n);
    r.phase_sin.resize(n);
    const Vec3 los_out = rx_pose.position - tx_pose.position;
    const Vec3 los_in = tx_pose.position - rx_pose.position;
    const double los_m = los_in.norm();
    r.departure[0] = unit_direction(los_out, los_m);
    r.arrival[0] = unit_direction(los_in, los_m);
    set_path_length(0, los_m);
    for (std::size_t p = 1; p < n; ++p) {
      const Vec3 leg = reflectors[p - 1].point - rx_pose.position;
      const double leg_m = leg.norm();
      r.arrival[p] = unit_direction(leg, leg_m);
      set_path_length(p, r.tx_leg_m[p] + leg_m);
    }
  }

  out.coherent = coherent_;
  out.resize(n);

  // Body-frame azimuths. The reflected paths' TX azimuths stay in `out`
  // while the TX pose holds; an RX move re-projects only the LOS
  // departure. Rotations re-project the cached world-frame directions.
  if (!(same_tx_pos && tx_orient_ok)) {
    for (std::size_t p = 0; p < n; ++p) {
      out.tx_az[p] = tx_pose.to_body_frame(r.departure[p]).azimuth();
    }
  } else if (!same_rx_pos) {
    out.tx_az[0] = tx_pose.to_body_frame(r.departure[0]).azimuth();
  }
  if (!(geometry_ok && rx_orient_ok)) {
    for (std::size_t p = 0; p < n; ++p) {
      out.rx_az[p] = rx_pose.to_body_frame(r.arrival[p]).azimuth();
    }
  }

  // Base powers and coherent amplitudes: untouched when every input term
  // carried over, recomputed from the cached per-path components
  // otherwise (the arithmetic order matches a from-scratch build exactly,
  // so incremental and full rebuilds stay bit-identical).
  const bool power_ok = warm && r.tx_power_dbm == tx_power_dbm;
  const bool bases_ok = geometry_ok && shadow_ok && block_ok && power_ok;
  if (!bases_ok) {
    for (std::size_t p = 0; p < n; ++p) {
      const double extra_loss_db = p == 0 ? 0.0 : reflectors[p - 1].loss_db;
      double base =
          tx_power_dbm - r.path_loss_db[p] - extra_loss_db - r.shadow_db;
      if (p == 0) {
        base -= r.block_db;  // blockage attenuates the LOS path only
      }
      out.base_db[p] = base;
      out.base_linear[p] = from_db(base);
      if (coherent_) {
        const double amp = std::sqrt(out.base_linear[p]);
        out.amp_cos[p] = amp * r.phase_cos[p];
        out.amp_sin[p] = amp * r.phase_sin[p];
      } else {
        out.amp_cos[p] = 0.0;
        out.amp_sin[p] = 0.0;
      }
    }
  }

  if (stats != nullptr) {
    if (warm) {
      ++stats->incremental_builds;
      stats->geometry_reuses += geometry_ok ? 1 : 0;
      stats->shadow_reuses += shadow_ok ? 1 : 0;
      stats->blockage_reuses += block_ok ? 1 : 0;
      stats->azimuth_reuses +=
          (geometry_ok && tx_orient_ok && rx_orient_ok) ? 1 : 0;
    } else {
      ++stats->full_builds;
    }
  }

  r.tx_pose = tx_pose;
  r.rx_pose = rx_pose;
  r.tx_power_dbm = tx_power_dbm;
  r.valid = true;
}

double Channel::rx_power_dbm(const Pose& tx_pose, const Beam& tx_beam,
                             const Pose& rx_pose, const Beam& rx_beam,
                             sim::Time t, double tx_power_dbm) const {
  PathSnapshot& snapshot = scratch_snapshot();
  make_snapshot(tx_pose, rx_pose, t, tx_power_dbm, snapshot);
  return snapshot_rx_power_dbm(snapshot, tx_beam, rx_beam);
}

Channel::BestBeam Channel::best_rx_beam(const Pose& tx_pose,
                                        const Beam& tx_beam,
                                        const Pose& rx_pose,
                                        const Codebook& rx_codebook,
                                        sim::Time t, double tx_power_dbm) const {
  PathSnapshot& snapshot = scratch_snapshot();
  make_snapshot(tx_pose, rx_pose, t, tx_power_dbm, snapshot);
  return sweep_rx_beams(snapshot, tx_beam, rx_codebook);
}

Channel::BestPair Channel::best_beam_pair(const Pose& tx_pose,
                                          const Codebook& tx_codebook,
                                          const Pose& rx_pose,
                                          const Codebook& rx_codebook,
                                          sim::Time t, double tx_power_dbm) const {
  PathSnapshot& snapshot = scratch_snapshot();
  make_snapshot(tx_pose, rx_pose, t, tx_power_dbm, snapshot);
  return sweep_beam_pairs(snapshot, tx_codebook, rx_codebook);
}

}  // namespace st::phy
