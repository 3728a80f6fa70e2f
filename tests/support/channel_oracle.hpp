// Test-only reference formulations of the channel, built from its public
// pieces (multipath().paths(), shadowing(), blockage()) plus the
// ChannelConfig it was constructed from, so they share no code with
// Channel::update_snapshot's rebuild loop.
//
// - `snapshot` recomputes every per-path term of a PathSnapshot from
//   MultipathGeometry::paths(), in the arithmetic order that defines it:
//   update_snapshot must reproduce it bit for bit, however much state it
//   carries between builds.
// - `rx_power_dbm` / `best_beam_pair` are the naive per-call formulation
//   that re-derives every term for each beam pair; the sweep kernels must
//   match them to <= 1e-9 dB and pick the same beam ids.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/angles.hpp"
#include "common/pose.hpp"
#include "common/units.hpp"
#include "phy/channel.hpp"
#include "phy/codebook.hpp"
#include "phy/path_snapshot.hpp"
#include "phy/pathloss.hpp"
#include "sim/time.hpp"

namespace st::test {

class ChannelOracle {
 public:
  /// `config` must be the configuration `channel` was constructed with.
  ChannelOracle(const phy::Channel& channel, const phy::ChannelConfig& config)
      : channel_(channel),
        coherent_(config.coherent_combining),
        wavelength_m_(wavelength(config.pathloss.carrier_hz)),
        pathloss_(config.pathloss) {}

  /// The snapshot of (tx_pose, rx_pose, t), one path at a time.
  [[nodiscard]] phy::PathSnapshot snapshot(const Pose& tx_pose,
                                           const Pose& rx_pose, sim::Time t,
                                           double tx_power_dbm) const {
    const double shadow_db = channel_.shadowing().sample_db(rx_pose.position);
    const double block_db = channel_.blockage().attenuation_db(t);
    phy::PathSnapshot out;
    out.coherent = coherent_;
    for (const phy::PropagationPath& path :
         channel_.multipath().paths(tx_pose.position, rx_pose.position)) {
      double base = tx_power_dbm - pathloss_.loss_db(path.length_m) -
                    path.extra_loss_db - shadow_db;
      if (path.is_los) {
        base -= block_db;
      }
      const double linear = from_db(base);
      double amp_cos = 0.0;
      double amp_sin = 0.0;
      if (coherent_) {
        const double amp = std::sqrt(linear);
        const double phase = geometric_phase(path.length_m);
        amp_cos = amp * std::cos(phase);
        amp_sin = amp * std::sin(phase);
      }
      out.base_db.push_back(base);
      out.base_linear.push_back(linear);
      out.amp_cos.push_back(amp_cos);
      out.amp_sin.push_back(amp_sin);
      out.tx_az.push_back(
          tx_pose.to_body_frame(path.departure_world).azimuth());
      out.rx_az.push_back(rx_pose.to_body_frame(path.arrival_world).azimuth());
    }
    return out;
  }

  /// Received power [dBm] for one beam pair, every term re-derived.
  [[nodiscard]] double rx_power_dbm(const Pose& tx_pose,
                                    const phy::Beam& tx_beam,
                                    const Pose& rx_pose,
                                    const phy::Beam& rx_beam, sim::Time t,
                                    double tx_power_dbm) const {
    const double shadow_db = channel_.shadowing().sample_db(rx_pose.position);
    const double block_db = channel_.blockage().attenuation_db(t);

    double sum_linear_mw = 0.0;
    std::complex<double> sum_amplitude{0.0, 0.0};
    for (const phy::PropagationPath& path :
         channel_.multipath().paths(tx_pose.position, rx_pose.position)) {
      const double tx_az =
          tx_pose.to_body_frame(path.departure_world).azimuth();
      const double rx_az = rx_pose.to_body_frame(path.arrival_world).azimuth();
      double pr_dbm = tx_power_dbm + tx_beam.gain_dbi(tx_az) +
                      rx_beam.gain_dbi(rx_az) -
                      pathloss_.loss_db(path.length_m) - path.extra_loss_db -
                      shadow_db;
      if (path.is_los) {
        pr_dbm -= block_db;
      }
      if (coherent_) {
        const double phase = geometric_phase(path.length_m);
        sum_amplitude += std::sqrt(from_db(pr_dbm)) *
                         std::complex<double>(std::cos(phase), std::sin(phase));
      } else {
        sum_linear_mw += from_db(pr_dbm);
      }
    }
    if (coherent_) {
      return to_db(std::max(std::norm(sum_amplitude), 1e-30));
    }
    return to_db(sum_linear_mw);
  }

  /// Best (TX beam, RX beam) pair by an id-ordered first-strictly-greater
  /// scan over rx_power_dbm.
  [[nodiscard]] phy::Channel::BestPair best_beam_pair(
      const Pose& tx_pose, const phy::Codebook& tx_codebook,
      const Pose& rx_pose, const phy::Codebook& rx_codebook, sim::Time t,
      double tx_power_dbm) const {
    phy::Channel::BestPair best;
    for (const phy::Beam& tx : tx_codebook.beams()) {
      phy::Channel::BestBeam b;
      for (const phy::Beam& candidate : rx_codebook.beams()) {
        const double p =
            rx_power_dbm(tx_pose, tx, rx_pose, candidate, t, tx_power_dbm);
        if (b.beam == phy::kInvalidBeam || p > b.rx_power_dbm) {
          b.beam = candidate.id();
          b.rx_power_dbm = p;
        }
      }
      if (best.tx_beam == phy::kInvalidBeam ||
          b.rx_power_dbm > best.rx_power_dbm) {
        best.tx_beam = tx.id();
        best.rx_beam = b.beam;
        best.rx_power_dbm = b.rx_power_dbm;
      }
    }
    return best;
  }

 private:
  /// 2*pi*L/lambda, wrapped to one turn before scaling.
  [[nodiscard]] double geometric_phase(double length_m) const {
    return kTwoPi * std::fmod(length_m / wavelength_m_, 1.0);
  }

  const phy::Channel& channel_;
  bool coherent_;
  double wavelength_m_;
  phy::PathLoss pathloss_;
};

}  // namespace st::test
