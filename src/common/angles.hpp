// Angle arithmetic helpers. All protocol and PHY code works in radians;
// degrees appear only at API edges (configuration, reporting) because the
// paper specifies beamwidths (20°, 60°) and rotation rate (120 °/s) in
// degrees.
#pragma once

#include <cmath>
#include <numbers>

namespace st {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

[[nodiscard]] constexpr double deg_to_rad(double deg) noexcept {
  return deg * kPi / 180.0;
}

[[nodiscard]] constexpr double rad_to_deg(double rad) noexcept {
  return rad * 180.0 / kPi;
}

/// Wrap an angle to (-pi, pi].
///
/// Bit-identical to std::remainder(rad, kTwoPi) with -pi mapped to +pi,
/// without the libm call for the inputs the simulator produces: a value
/// already in range is returned as is, and one within a turn of the range
/// needs a single subtraction. There the IEEE remainder is exactly
/// rad -/+ kTwoPi, and since kPi <= |rad| <= kTwoPi that subtraction is
/// exact (Sterbenz lemma), so both forms round to the same double.
/// Everything else (|rad| >= 2*pi, -pi itself, NaN, infinities) takes
/// the remainder.
[[nodiscard]] inline double wrap_pi(double rad) noexcept {
  if (rad > -kPi && rad <= kPi) {
    return rad;
  }
  if (rad > kPi && rad < kTwoPi) {
    return rad - kTwoPi;
  }
  if (rad < -kPi && rad > -kTwoPi) {
    return rad + kTwoPi;
  }
  double w = std::remainder(rad, kTwoPi);
  // std::remainder returns values in [-pi, pi]; map -pi to +pi so the
  // result lies in (-pi, pi] and wrap_pi(pi) == pi.
  if (w <= -kPi) {
    w += kTwoPi;
  }
  return w;
}

/// Wrap an angle to [0, 2*pi).
[[nodiscard]] double wrap_two_pi(double rad) noexcept;

/// Smallest absolute angular distance between two angles, in [0, pi].
[[nodiscard]] double angular_distance(double a_rad, double b_rad) noexcept;

/// Signed shortest rotation taking `from` to `to`, in (-pi, pi].
[[nodiscard]] inline double angular_difference(double from_rad,
                                               double to_rad) noexcept {
  return wrap_pi(to_rad - from_rad);
}

/// Linear interpolation along the shortest arc from `a` to `b`.
/// `t` in [0,1]; result is wrapped to (-pi, pi].
[[nodiscard]] double angular_lerp(double a_rad, double b_rad, double t) noexcept;

}  // namespace st
