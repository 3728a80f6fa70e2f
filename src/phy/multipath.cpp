#include "phy/multipath.hpp"

#include <cmath>

#include "common/angles.hpp"

namespace st::phy {

MultipathGeometry::MultipathGeometry(const MultipathConfig& config,
                                     Vec3 anchor_a, Vec3 anchor_b,
                                     std::uint64_t seed) {
  Rng rng(seed);
  const Vec3 centre = 0.5 * (anchor_a + anchor_b);
  reflectors_.reserve(config.reflector_count);
  for (unsigned i = 0; i < config.reflector_count; ++i) {
    const double radius =
        rng.uniform(config.placement_radius_min_m, config.placement_radius_max_m);
    const double angle = rng.uniform(-kPi, kPi);
    Reflector r;
    r.point = centre + radius * Vec3{std::cos(angle), std::sin(angle), 0.0};
    r.loss_db = std::max(
        3.0, rng.normal(config.reflection_loss_mean_db,
                        config.reflection_loss_sigma_db));
    reflectors_.push_back(r);
  }
}

MultipathGeometry::MultipathGeometry(std::vector<Reflector> reflectors)
    : reflectors_(std::move(reflectors)) {}

std::vector<PropagationPath> MultipathGeometry::paths(Vec3 tx_position,
                                                      Vec3 rx_position) const {
  std::vector<PropagationPath> out;
  out.reserve(1 + reflectors_.size());
  PropagationPath los;
  los.departure_world = (rx_position - tx_position).normalized();
  los.arrival_world = (tx_position - rx_position).normalized();
  los.length_m = distance(tx_position, rx_position);
  los.extra_loss_db = 0.0;
  los.is_los = true;
  out.push_back(los);

  for (const Reflector& r : reflectors_) {
    PropagationPath p;
    p.departure_world = (r.point - tx_position).normalized();
    p.arrival_world = (r.point - rx_position).normalized();
    p.length_m =
        distance(tx_position, r.point) + distance(r.point, rx_position);
    p.extra_loss_db = r.loss_db;
    p.is_los = false;
    out.push_back(p);
  }
  return out;
}

}  // namespace st::phy
