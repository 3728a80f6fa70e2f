// Geometric multipath: a LOS path plus first-order reflections off fixed
// scatterer points (walls, vehicles, street furniture).
//
// Representing NLOS components by world-frame reflector *points* — rather
// than drawing angle clusters statistically per sample — keeps angles of
// departure/arrival geometrically consistent as the mobile moves or
// rotates: when the user turns 30°, every arrival direction turns by
// exactly 30° in the device frame. That consistency is what lets a beam
// tracker (and its tests) behave the way it does on real hardware, where
// reflections come from actual objects.
//
// Reflection loss at 60 GHz is 5–20 dB depending on material; we draw one
// loss per reflector. Paths are combined incoherently (power sum) by the
// channel — beam-level RSS varies on the large-scale; small-scale fading
// is represented by the measurement-noise model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/pose.hpp"
#include "common/rng.hpp"
#include "common/vec.hpp"

namespace st::phy {

struct MultipathConfig {
  unsigned reflector_count = 3;
  double reflection_loss_mean_db = 12.0;
  double reflection_loss_sigma_db = 3.0;
  /// Reflectors are placed uniformly in an annulus centred between the
  /// endpoints provided at construction.
  double placement_radius_min_m = 3.0;
  double placement_radius_max_m = 25.0;
};

/// One propagation path evaluated for a specific TX/RX geometry.
struct PropagationPath {
  Vec3 departure_world;  ///< unit vector, direction of departure at TX
  Vec3 arrival_world;    ///< unit vector, direction radio energy arrives
                         ///< FROM at RX (pointing from RX towards the
                         ///< last bounce / the TX for LOS)
  double length_m;       ///< total travelled distance
  double extra_loss_db;  ///< reflection loss (0 for LOS)
  bool is_los;
};

class MultipathGeometry {
 public:
  /// Draws `config.reflector_count` reflector points around the midpoint
  /// of `anchor_a`/`anchor_b` (typically BS and initial UE positions).
  MultipathGeometry(const MultipathConfig& config, Vec3 anchor_a, Vec3 anchor_b,
                    std::uint64_t seed);

  /// Construct with explicit reflectors (tests / handcrafted scenarios).
  struct Reflector {
    Vec3 point;
    double loss_db;
  };
  explicit MultipathGeometry(std::vector<Reflector> reflectors);

  /// All paths between the two positions: LOS first, then one per
  /// reflector. Channel::update_snapshot builds the same paths by index,
  /// bit for bit, without materialising them.
  [[nodiscard]] std::vector<PropagationPath> paths(Vec3 tx_position,
                                                   Vec3 rx_position) const;

  [[nodiscard]] const std::vector<Reflector>& reflectors() const noexcept {
    return reflectors_;
  }

 private:
  std::vector<Reflector> reflectors_;
};

}  // namespace st::phy
