#include "core/reactive_handover.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "mobility/walk.hpp"
#include "net/test_helpers.hpp"
#include "sim/simulator.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;
using sim::Time;

struct ReactiveWorld {
  explicit ReactiveWorld(double speed_mps = 3.0, std::uint64_t seed = 1)
      : env(test::make_two_cell_env(walker(speed_mps), 20.0, seed)) {}

  static std::shared_ptr<const mobility::MobilityModel> walker(
      double speed_mps) {
    mobility::WalkConfig walk;
    walk.start = {10.0, 10.0, 0.0};
    walk.heading_rad = 0.0;
    walk.speed_mps = speed_mps;
    walk.sway_amplitude_m = 0.0;
    walk.yaw_jitter_stddev_rad = 0.0;
    return std::make_shared<mobility::LinearWalk>(
        walk, sim::Duration::milliseconds(120'000), 9);
  }

  void start(ReactiveHandoverConfig config = {}) {
    const auto best = env.ground_truth_best_pair(0, Time::zero());
    env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);
    proto = std::make_unique<ReactiveHandover>(sim, env, config);
    proto->set_counters(&counters);
    proto->start(0, best.rx_beam, best.rx_power_dbm,
                 [this](const net::HandoverRecord& r) { record = r; });
  }

  sim::Simulator sim;
  net::RadioEnvironment env;
  obs::MetricRegistry counters;
  std::unique_ptr<ReactiveHandover> proto;
  std::optional<net::HandoverRecord> record;
};

TEST(Reactive, EventuallyHandsOverButHard) {
  ReactiveWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 90'000_ms);
  ASSERT_TRUE(world.record.has_value());
  EXPECT_EQ(world.record->type, net::HandoverType::kHard);
  EXPECT_TRUE(world.record->success);
  EXPECT_EQ(world.record->to, 1U);
}

TEST(Reactive, SearchStartsOnlyAfterServingLoss) {
  ReactiveWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 90'000_ms);
  ASSERT_TRUE(world.record.has_value());
  // access_started (== first search completion) comes after serving_lost.
  EXPECT_GE(world.record->access_started, world.record->serving_lost);
  // The gap includes at least one 20 ms search dwell.
  EXPECT_GE(world.record->access_started - world.record->serving_lost, 20_ms);
}

TEST(Reactive, InterruptionIncludesSearchTime) {
  ReactiveWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 90'000_ms);
  ASSERT_TRUE(world.record.has_value());
  ASSERT_TRUE(world.record->success);
  // Reactive interruption must exceed any soft handover's (which is only
  // RACH): at minimum one search dwell + RACH.
  EXPECT_GT(world.record->interruption(), 20_ms);
}

TEST(Reactive, ServingMaintainedBeforeLoss) {
  ReactiveWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 5000_ms);
  if (world.proto->serving_alive()) {
    // BeamSurfer keeps the serving beam aligned while walking.
    const auto tx = world.env.bs(0).serving_tx_beam();
    const auto best = world.env.ground_truth_best_rx(0, tx, world.sim.now());
    const double got = world.env.true_dl_snr_db(
                           0, tx, world.proto->beamsurfer().rx_beam(),
                           world.sim.now()) +
                       world.env.link_budget().noise_floor_dbm();
    EXPECT_LE(best.rx_power_dbm - got, 3.5);
  }
}

TEST(Reactive, StopIsClean) {
  ReactiveWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 1000_ms);
  world.proto->stop();
  const auto executed = world.sim.events_executed();
  world.sim.run_until(Time::zero() + 5000_ms);
  EXPECT_LE(world.sim.events_executed() - executed, 2U);
}

TEST(Reactive, NullCallbackThrows) {
  ReactiveWorld world;
  world.proto = std::make_unique<ReactiveHandover>(world.sim, world.env,
                                                   ReactiveHandoverConfig{});
  EXPECT_THROW(world.proto->start(0, 0, -60.0, nullptr),
               std::invalid_argument);
}

TEST(Reactive, RequiresTwoCells) {
  sim::Simulator sim;
  net::Deployment d = net::make_cell_row(net::DeploymentConfig{}, 1);
  net::RadioEnvironment env(test::clean_environment(),
                            std::move(d.base_stations),
                            test::standing_at({5.0, 10.0, 0.0}),
                            phy::Codebook::omni());
  EXPECT_THROW(ReactiveHandover(sim, env, ReactiveHandoverConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace st::core
