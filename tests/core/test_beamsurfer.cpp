#include "core/beamsurfer.hpp"

#include <gtest/gtest.h>

#include "mobility/rotation.hpp"
#include "mobility/walk.hpp"
#include "net/test_helpers.hpp"
#include "sim/simulator.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;
using sim::Time;

struct SurferWorld {
  explicit SurferWorld(std::shared_ptr<const mobility::MobilityModel> ue,
                       double beamwidth = 20.0, std::uint64_t seed = 1)
      : env(test::make_two_cell_env(std::move(ue), beamwidth, seed)) {}

  void start(BeamSurferConfig config = {}) {
    const auto best = env.ground_truth_best_pair(0, Time::zero());
    env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);
    surfer = std::make_unique<BeamSurfer>(sim, env, 0, config);
    surfer->set_counters(&counters);
    surfer->start(best.rx_beam, best.rx_power_dbm);
  }

  sim::Simulator sim;
  net::RadioEnvironment env;
  obs::MetricRegistry counters;
  std::unique_ptr<BeamSurfer> surfer;
};

TEST(BeamSurfer, SteadyStateNoSwitchesOnStaticLink) {
  SurferWorld world(test::standing_at({5.0, 10.0, 0.0}));
  world.start();
  world.sim.run_until(Time::zero() + 5000_ms);
  EXPECT_EQ(world.counters.counter_value("serving_rx_switches"), 0U);
  EXPECT_EQ(world.counters.counter_value("bs_switches"), 0U);
  EXPECT_EQ(world.counters.counter_value("serving_drop_events"), 0U);
}

TEST(BeamSurfer, FilteredRssTracksTruth) {
  SurferWorld world(test::standing_at({5.0, 10.0, 0.0}));
  world.start();
  world.sim.run_until(Time::zero() + 1000_ms);
  const auto best = world.env.ground_truth_best_pair(0, world.sim.now());
  EXPECT_NEAR(world.surfer->filtered_rss_dbm(), best.rx_power_dbm, 1.0);
}

TEST(BeamSurfer, WalkTriggersRxSwitchesThatKeepAlignment) {
  // Walking past the base station sweeps the AoA through many beams; the
  // mobile-side rule alone must keep the receive beam near-best.
  mobility::WalkConfig walk;
  walk.start = {-10.0, 10.0, 0.0};
  walk.heading_rad = 0.0;
  walk.speed_mps = 1.4;
  walk.sway_amplitude_m = 0.0;
  walk.yaw_jitter_stddev_rad = 0.0;
  SurferWorld world(std::make_shared<mobility::LinearWalk>(walk, 30_s, 2));
  world.start();
  world.sim.run_until(Time::zero() + 15'000_ms);

  EXPECT_GT(world.counters.counter_value("serving_rx_switches"), 2U);
  // At the end, the tracked beam is within 3 dB of the best receive beam.
  const auto tx = world.env.bs(0).serving_tx_beam();
  const auto best = world.env.ground_truth_best_rx(0, tx, world.sim.now());
  const double got =
      world.env.true_dl_snr_db(0, tx, world.surfer->rx_beam(), world.sim.now()) +
      world.env.link_budget().noise_floor_dbm();
  EXPECT_LE(best.rx_power_dbm - got, 3.0);
}

TEST(BeamSurfer, RotationHandledByRxSwitchesOnly) {
  // Pure rotation leaves the BS-side geometry unchanged: the base station
  // beam must stay put while the mobile beam walks the codebook.
  mobility::RotationConfig rot;
  rot.position = {5.0, 10.0, 0.0};
  rot.rate_rad_per_s = deg_to_rad(120.0);
  SurferWorld world(std::make_shared<mobility::DeviceRotation>(rot));
  world.start();
  const auto tx_before = world.env.bs(0).serving_tx_beam();
  world.sim.run_until(Time::zero() + 6000_ms);  // two full revolutions
  EXPECT_GT(world.counters.counter_value("serving_rx_switches"), 10U);
  EXPECT_EQ(world.env.bs(0).serving_tx_beam(), tx_before);
  EXPECT_EQ(world.counters.counter_value("bs_switches"), 0U);
}

TEST(BeamSurfer, BsSwitchRequestedWhenRxAdaptationInsufficient) {
  // Walking a long arc around the BS changes the departure angle: receive
  // switches can't fix that; rule (ii) must move the BS beam.
  mobility::WalkConfig walk;
  walk.start = {18.0, 4.0, 0.0};
  walk.heading_rad = deg_to_rad(125.0);  // arc-ish path around the BS at 0,0
  walk.speed_mps = 3.0;
  walk.sway_amplitude_m = 0.0;
  walk.yaw_jitter_stddev_rad = 0.0;
  SurferWorld world(std::make_shared<mobility::LinearWalk>(walk, 30_s, 3));
  world.start();
  world.sim.run_until(Time::zero() + 12'000_ms);
  EXPECT_GT(world.counters.counter_value("bs_switches"), 0U);
  // And the serving TX beam ends up the true best (or adjacent to it).
  const auto best = world.env.ground_truth_best_pair(0, world.sim.now());
  const auto serving = world.env.bs(0).serving_tx_beam();
  const auto n = static_cast<phy::BeamId>(world.env.bs(0).codebook().size());
  const auto diff = (serving + n - best.tx_beam) % n;
  EXPECT_TRUE(diff == 0 || diff == 1 || diff == n - 1)
      << "serving=" << serving << " best=" << best.tx_beam;
}

TEST(BeamSurfer, UnreachableCallbackWhenUplinkDead) {
  // Start healthy, then teleport... we can't teleport a Stationary model,
  // so instead walk straight out of coverage fast. When the uplink dies,
  // rule (ii)'s request can't be delivered and the callback must fire.
  mobility::WalkConfig walk;
  walk.start = {5.0, 10.0, 0.0};
  walk.heading_rad = deg_to_rad(180.0);
  walk.speed_mps = 30.0;  // leaves coverage in a couple of seconds
  walk.sway_amplitude_m = 0.0;
  walk.yaw_jitter_stddev_rad = 0.0;
  SurferWorld world(std::make_shared<mobility::LinearWalk>(walk, 30_s, 4));
  BeamSurferConfig config;
  config.max_request_attempts = 2;
  world.start(config);
  bool unreachable = false;
  world.surfer->set_unreachable_callback([&] { unreachable = true; });
  world.sim.run_until(Time::zero() + 20'000_ms);
  EXPECT_TRUE(unreachable);
}

TEST(BeamSurfer, StopHaltsActivity) {
  SurferWorld world(test::standing_at({5.0, 10.0, 0.0}));
  world.start();
  world.sim.run_until(Time::zero() + 100_ms);
  world.surfer->stop();
  const auto executed = world.sim.events_executed();
  world.sim.run_until(Time::zero() + 2000_ms);
  EXPECT_EQ(world.sim.events_executed(), executed);
}

TEST(BeamSurfer, RestartAfterStop) {
  SurferWorld world(test::standing_at({5.0, 10.0, 0.0}));
  world.start();
  world.sim.run_until(Time::zero() + 100_ms);
  world.surfer->stop();
  EXPECT_FALSE(world.surfer->running());
  const auto best = world.env.ground_truth_best_pair(0, world.sim.now());
  world.surfer->start(best.rx_beam, best.rx_power_dbm);
  EXPECT_TRUE(world.surfer->running());
  world.sim.run_until(Time::zero() + 500_ms);
  EXPECT_GT(world.sim.events_executed(), 0U);
}

TEST(BeamSurfer, InvalidConfigThrows) {
  SurferWorld world(test::standing_at({5.0, 10.0, 0.0}));
  BeamSurferConfig bad;
  bad.max_request_attempts = 0;
  EXPECT_THROW(BeamSurfer(world.sim, world.env, 0, bad),
               std::invalid_argument);
}

TEST(BeamSurfer, DoubleStartThrows) {
  SurferWorld world(test::standing_at({5.0, 10.0, 0.0}));
  world.start();
  EXPECT_THROW(world.surfer->start(0, -60.0), std::logic_error);
}

}  // namespace
}  // namespace st::core
