#include "common/angles.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace st {
namespace {

TEST(Angles, DegRadRoundTrip) {
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad_to_deg(kPi), 180.0);
  EXPECT_NEAR(rad_to_deg(deg_to_rad(123.456)), 123.456, 1e-12);
}

TEST(Angles, WrapPiIdentityInsideRange) {
  EXPECT_DOUBLE_EQ(wrap_pi(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_pi(1.0), 1.0);
  EXPECT_DOUBLE_EQ(wrap_pi(-1.0), -1.0);
}

TEST(Angles, WrapPiMapsBoundaryToPositivePi) {
  EXPECT_DOUBLE_EQ(wrap_pi(kPi), kPi);
  EXPECT_DOUBLE_EQ(wrap_pi(-kPi), kPi);
  EXPECT_DOUBLE_EQ(wrap_pi(3.0 * kPi), kPi);
}

TEST(Angles, WrapPiLargeMagnitudes) {
  EXPECT_NEAR(wrap_pi(100.0 * kTwoPi + 0.25), 0.25, 1e-9);
  EXPECT_NEAR(wrap_pi(-100.0 * kTwoPi - 0.25), -0.25, 1e-9);
}

TEST(Angles, WrapTwoPiRange) {
  EXPECT_DOUBLE_EQ(wrap_two_pi(0.0), 0.0);
  EXPECT_NEAR(wrap_two_pi(-0.1), kTwoPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_two_pi(kTwoPi + 0.1), 0.1, 1e-12);
}

TEST(Angles, AngularDistanceSymmetric) {
  EXPECT_DOUBLE_EQ(angular_distance(0.3, 1.1), angular_distance(1.1, 0.3));
  EXPECT_NEAR(angular_distance(0.3, 1.1), 0.8, 1e-12);
}

TEST(Angles, AngularDistanceAcrossSeam) {
  // 170 deg and -170 deg are 20 deg apart, not 340.
  EXPECT_NEAR(angular_distance(deg_to_rad(170.0), deg_to_rad(-170.0)),
              deg_to_rad(20.0), 1e-12);
}

TEST(Angles, AngularDistanceMaxIsPi) {
  EXPECT_NEAR(angular_distance(0.0, kPi), kPi, 1e-12);
}

TEST(Angles, AngularDifferenceSigned) {
  EXPECT_NEAR(angular_difference(0.0, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(angular_difference(0.5, 0.0), -0.5, 1e-12);
  // Shortest path across the seam is positive (+20 deg).
  EXPECT_NEAR(angular_difference(deg_to_rad(170.0), deg_to_rad(-170.0)),
              deg_to_rad(20.0), 1e-12);
}

TEST(Angles, AngularLerpEndpoints) {
  EXPECT_NEAR(angular_lerp(0.2, 1.4, 0.0), 0.2, 1e-12);
  EXPECT_NEAR(angular_lerp(0.2, 1.4, 1.0), 1.4, 1e-12);
}

TEST(Angles, AngularLerpTakesShortArc) {
  const double a = deg_to_rad(170.0);
  const double b = deg_to_rad(-170.0);
  const double mid = angular_lerp(a, b, 0.5);
  EXPECT_NEAR(angular_distance(mid, deg_to_rad(180.0)), 0.0, 1e-9);
}

/// The remainder-only wrap_pi that the inline fast path replaced.
double wrap_pi_by_remainder(double rad) {
  double w = std::remainder(rad, kTwoPi);
  if (w <= -kPi) {
    w += kTwoPi;
  }
  return w;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Angles, WrapPiMatchesRemainderBitwise) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> inputs = {
      std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, 1e6, -1e6,
      3.0 * kPi, -3.0 * kPi, std::numeric_limits<double>::denorm_min()};
  for (const double edge : {0.0, kPi, kTwoPi}) {
    for (const double x : {edge, -edge}) {
      inputs.push_back(x);
      inputs.push_back(std::nextafter(x, kInf));
      inputs.push_back(std::nextafter(x, -kInf));
    }
  }
  for (const double x : inputs) {
    EXPECT_TRUE(same_bits(wrap_pi(x), wrap_pi_by_remainder(x))) << x;
  }

  // What the phy layer feeds it: the difference of two wrapped angles
  // (a beam offset), then values across several turns (yaw, lerp).
  Rng rng(20211);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double diff =
        wrap_pi(rng.uniform(-4.0, 4.0)) - wrap_pi(rng.uniform(-4.0, 4.0));
    const double wide = rng.uniform(-40.0, 40.0);
    for (const double x : {diff, wide}) {
      if (!same_bits(wrap_pi(x), wrap_pi_by_remainder(x))) {
        ++mismatches;
        ADD_FAILURE() << "wrap_pi differs from remainder at " << x;
      }
    }
    if (mismatches > 10) {
      break;
    }
  }
  EXPECT_EQ(mismatches, 0U);
}

/// Property sweep: wrap_pi output is always in (-pi, pi] and preserves the
/// angle modulo 2*pi.
class WrapPiProperty : public ::testing::TestWithParam<double> {};

TEST_P(WrapPiProperty, RangeAndEquivalence) {
  const double theta = GetParam();
  const double w = wrap_pi(theta);
  EXPECT_GT(w, -kPi);
  EXPECT_LE(w, kPi);
  EXPECT_NEAR(std::remainder(theta - w, kTwoPi), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WrapPiProperty,
                         ::testing::Values(-17.3, -6.4, -kPi, -0.5, 0.0, 0.5,
                                           kPi, 4.0, 9.42, 123.456, -987.65,
                                           1e6, -1e6));

}  // namespace
}  // namespace st
