// The experiment API: UeProfile + ScenarioSpec + SpecBuilder + presets +
// fleet_ue_seed. The contract pinned here is the one the fleet engine
// rides on: a UE's realisation is the same alone or inside a fleet.
#include "core/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/scenario.hpp"
#include "support/trace_queries.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;
using test::fingerprint;

// ---- fleet_ue_seed --------------------------------------------------------

TEST(FleetUeSeed, UeZeroInheritsTheFleetSeed) {
  // A single-UE spec must run from its own seed, so UE 0 sees exactly the
  // fleet seed, not a derived one.
  EXPECT_EQ(fleet_ue_seed(1, 0), 1u);
  EXPECT_EQ(fleet_ue_seed(1000, 0), 1000u);
  EXPECT_EQ(fleet_ue_seed(0xDEADBEEF, 0), 0xDEADBEEFu);
}

TEST(FleetUeSeed, LaterUesGetDecorrelatedDistinctRoots) {
  std::set<std::uint64_t> roots;
  for (std::size_t ue = 0; ue < 64; ++ue) {
    roots.insert(fleet_ue_seed(1000, ue));
  }
  EXPECT_EQ(roots.size(), 64u);
  // Adjacent fleet seeds (the bench ladder uses arithmetic seed spacing)
  // must not alias each other's per-UE roots.
  EXPECT_NE(fleet_ue_seed(1000, 1), fleet_ue_seed(1001, 1));
  EXPECT_NE(fleet_ue_seed(1000, 2), fleet_ue_seed(1001, 1));
}

TEST(FleetUeSeed, DerivationIsAPureFunction) {
  for (std::size_t ue = 0; ue < 8; ++ue) {
    EXPECT_EQ(fleet_ue_seed(77, ue), fleet_ue_seed(77, ue));
  }
}

// ---- presets ---------------------------------------------------------------

TEST(Presets, PaperFramesMatchTheEvaluationSetups) {
  const ScenarioSpec walk = preset::paper_walk();
  EXPECT_EQ(walk.n_cells, 2u);
  EXPECT_EQ(walk.duration, 25'000_ms);
  ASSERT_EQ(walk.ue_count(), 1u);
  EXPECT_EQ(walk.ues.front().mobility, MobilityScenario::kHumanWalk);

  const ScenarioSpec rotation = preset::paper_rotation();
  EXPECT_EQ(rotation.n_cells, 2u);
  // The paper's rotation runs use the tighter cell edge.
  EXPECT_DOUBLE_EQ(rotation.deployment.inter_site_m, 40.0);
  EXPECT_EQ(rotation.ues.front().mobility, MobilityScenario::kRotation);

  const ScenarioSpec vehicular = preset::paper_vehicular();
  EXPECT_EQ(vehicular.n_cells, 3u);
  EXPECT_EQ(vehicular.ues.front().mobility, MobilityScenario::kVehicular);
  EXPECT_TRUE(vehicular.ues.front().chain_handovers);
}

// ---- standalone vs fleet equivalence --------------------------------------

TEST(ScenarioSpecFleet, UeRealisationIsIdenticalAloneAndInAFleet) {
  // Three heterogeneous mobiles in one frame. Each UE k, run standalone
  // from a single-UE spec seeded with its fleet root, must reproduce its
  // in-fleet trajectory bit for bit — the per-UE splitmix derivation is
  // what makes fleet membership invisible to the individual mobile.
  ScenarioSpec fleet = SpecBuilder(preset::paper_vehicular())
                           .duration(3'000_ms)
                           .seed(424242)
                           .ue(preset::walking_ue())
                           .ue(preset::rotating_ue())
                           .collect_trace()
                           .build();
  ASSERT_EQ(fleet.ue_count(), 3u);

  for (std::size_t ue = 0; ue < fleet.ue_count(); ++ue) {
    const ScenarioResult in_fleet = run_scenario_ue(fleet, ue);

    ScenarioSpec alone = fleet;
    alone.ues = {fleet.ues[ue]};
    alone.seed = fleet_ue_seed(fleet.seed, ue);
    const ScenarioResult standalone = run_scenario(alone);

    EXPECT_EQ(fingerprint(in_fleet), fingerprint(standalone)) << "ue " << ue;
  }
}

TEST(ScenarioSpecFleet, RunScenarioRejectsFleets) {
  const ScenarioSpec fleet =
      SpecBuilder(preset::paper_walk()).ue(preset::walking_ue()).build();
  EXPECT_THROW((void)run_scenario(fleet), std::invalid_argument);
}

TEST(ScenarioSpecFleet, RunScenarioUeRejectsOutOfRangeIndex) {
  const ScenarioSpec spec = preset::paper_walk();
  EXPECT_THROW((void)run_scenario_ue(spec, 1), std::out_of_range);
}

// ---- builder validation ---------------------------------------------------

TEST(SpecBuilder, ValidatesAtBuild) {
  EXPECT_THROW((void)SpecBuilder().build(), std::invalid_argument);  // no UEs
  EXPECT_THROW((void)SpecBuilder(preset::paper_walk()).cells(0).build(),
               std::invalid_argument);
  EXPECT_THROW((void)SpecBuilder(preset::paper_walk())
                   .duration(sim::Duration::milliseconds(0))
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)SpecBuilder(preset::paper_walk())
                   .metric_period(sim::Duration::milliseconds(0))
                   .build(),
               std::invalid_argument);
}

TEST(SpecBuilder, UesAppendsSharedProfiles) {
  const ScenarioSpec spec =
      SpecBuilder().cells(2).ues(5, preset::walking_ue()).build();
  EXPECT_EQ(spec.ue_count(), 5u);
  for (const UeProfile& ue : spec.ues) {
    EXPECT_EQ(ue.mobility, MobilityScenario::kHumanWalk);
  }
}

}  // namespace
}  // namespace st::core
