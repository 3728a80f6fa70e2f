// Reproducibility guarantees: every experiment is a pure function of its
// seed. These tests pin that across the whole stack, including the
// metric-layer/protocol interleaving (which historically breaks
// determinism in simulators whose ground-truth queries consume the same
// random streams as the system under test).
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "support/trace_queries.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;
using test::fingerprint;

ScenarioSpec spec_for(std::uint64_t seed, MobilityScenario mobility) {
  return SpecBuilder(preset::paper(mobility))
      .duration(12'000_ms)
      .seed(seed)
      .collect_trace()
      .build();
}

class DeterminismBySeed
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 MobilityScenario>> {};

TEST_P(DeterminismBySeed, IdenticalRunsBitForBit) {
  const auto [seed, mobility] = GetParam();
  const ScenarioResult a = run_scenario(spec_for(seed, mobility));
  const ScenarioResult b = run_scenario(spec_for(seed, mobility));
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndScenarios, DeterminismBySeed,
    ::testing::Combine(::testing::Values(1ULL, 17ULL, 12345ULL),
                       ::testing::Values(MobilityScenario::kHumanWalk,
                                         MobilityScenario::kRotation,
                                         MobilityScenario::kVehicular)));

TEST(Determinism, ReactiveProtocolAlsoDeterministic) {
  UeProfile reactive = preset::walking_ue();
  reactive.protocol = ProtocolKind::kReactive;
  const ScenarioSpec spec = SpecBuilder()
                                .duration(12'000_ms)
                                .seed(3)
                                .ue(reactive)
                                .collect_trace()
                                .build();
  const ScenarioResult a = run_scenario(spec);
  const ScenarioResult b = run_scenario(spec);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Determinism, SeedChangesRealisation) {
  const ScenarioResult a =
      run_scenario(spec_for(100, MobilityScenario::kHumanWalk));
  const ScenarioResult b =
      run_scenario(spec_for(101, MobilityScenario::kHumanWalk));
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(Determinism, BeamwidthIsConfigNotRandomness) {
  // Same seed, different codebook: runs differ (different physics), but
  // each remains internally deterministic.
  UeProfile wide = preset::walking_ue();
  wide.ue_beamwidth_deg = 60.0;
  const ScenarioSpec s20 = spec_for(5, MobilityScenario::kHumanWalk);
  const ScenarioSpec s60 = SpecBuilder()
                               .duration(12'000_ms)
                               .seed(5)
                               .ue(wide)
                               .collect_trace()
                               .build();
  EXPECT_NE(fingerprint(run_scenario(s20)), fingerprint(run_scenario(s60)));
  EXPECT_EQ(fingerprint(run_scenario(s60)), fingerprint(run_scenario(s60)));
}

}  // namespace
}  // namespace st::core
