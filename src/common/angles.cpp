#include "common/angles.hpp"

#include <cmath>

namespace st {

double wrap_two_pi(double rad) noexcept {
  double w = std::fmod(rad, kTwoPi);
  if (w < 0.0) {
    w += kTwoPi;
  }
  return w;
}

double angular_distance(double a_rad, double b_rad) noexcept {
  return std::fabs(wrap_pi(a_rad - b_rad));
}

double angular_lerp(double a_rad, double b_rad, double t) noexcept {
  return wrap_pi(a_rad + t * angular_difference(a_rad, b_rad));
}

}  // namespace st
