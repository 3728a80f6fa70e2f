// Contract-checker suite (core/invariants.hpp): the Fig. 2b transition
// table and the protocols' value invariants.
//
// Three layers of coverage:
//  1. The transition tables themselves — every legal edge accepted, and
//     seeded illegal transitions (RACH entry from an untracked beam,
//     Steady jumping straight to Requesting, hard upgrading to soft)
//     rejected with ContractViolation. The check_* functions are plain
//     functions, so this layer runs in every build.
//  2. Full protocol runs with the checker armed: a legal soft handover
//     and a legal hard (reactive) handover complete without a single
//     violation — the checker is silent on conforming executions.
//  3. A determinism pin: a checker-enforced run and an unenforced run of
//     the same seed produce identical results (the checker observes, it
//     never steers), mirroring the PR 2 tracing-on/off pin.
#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.hpp"
#include "core/invariants.hpp"
#include "core/scenario.hpp"
#include "support/trace_queries.hpp"

namespace st::core {
namespace {

using contracts::ContractViolation;
using S = SilentTrackerState;
using B = BeamSurferState;
using H = net::HandoverType;
namespace inv = st::core::invariants;

// ---- 1. Transition tables -------------------------------------------------

TEST(SilentTrackerTransitionTable, AcceptsEveryFig2bEdge) {
  // The full soft-handover path of Fig. 2b, in order.
  const std::vector<std::pair<S, S>> soft_path = {
      {S::kIdle, S::kSearching},      {S::kSearching, S::kSearching},
      {S::kSearching, S::kTracking},  {S::kTracking, S::kAccessing},
      {S::kAccessing, S::kComplete},  {S::kComplete, S::kIdle},
  };
  for (const auto& [from, to] : soft_path) {
    EXPECT_TRUE(inv::silent_tracker_transition_allowed(from, to))
        << to_string(from) << " -> " << to_string(to);
    EXPECT_NO_THROW(inv::check_silent_tracker_transition(from, to));
  }

  // The hard-handover detours.
  const std::vector<std::pair<S, S>> hard_edges = {
      {S::kSearching, S::kFallbackSearch},  // serving died before discovery
      {S::kTracking, S::kSearching},        // neighbour abandoned
      {S::kAccessing, S::kFallbackSearch},  // RACH failed
      {S::kFallbackSearch, S::kFallbackSearch},
      {S::kFallbackSearch, S::kTracking},
      {S::kAccessing, S::kFailed},
      {S::kFallbackSearch, S::kFailed},
      {S::kFailed, S::kIdle},
  };
  for (const auto& [from, to] : hard_edges) {
    EXPECT_TRUE(inv::silent_tracker_transition_allowed(from, to))
        << to_string(from) << " -> " << to_string(to);
  }
}

TEST(SilentTrackerTransitionTable, RejectsIllegalEdges) {
  // A representative set of edges Fig. 2b does not contain: states may
  // never be skipped (Idle cannot teleport into Accessing or Complete),
  // terminal states never resume, and access cannot regress to tracking.
  const std::vector<std::pair<S, S>> illegal = {
      {S::kIdle, S::kTracking},       {S::kIdle, S::kAccessing},
      {S::kIdle, S::kComplete},       {S::kIdle, S::kFailed},
      {S::kSearching, S::kAccessing}, {S::kSearching, S::kComplete},
      {S::kTracking, S::kComplete},   {S::kTracking, S::kFallbackSearch},
      {S::kTracking, S::kFailed},     {S::kAccessing, S::kTracking},
      {S::kAccessing, S::kSearching}, {S::kComplete, S::kTracking},
      {S::kComplete, S::kFailed},     {S::kFailed, S::kSearching},
      {S::kFallbackSearch, S::kComplete},
      {S::kFallbackSearch, S::kAccessing},  // must re-track first
  };
  for (const auto& [from, to] : illegal) {
    EXPECT_FALSE(inv::silent_tracker_transition_allowed(from, to))
        << to_string(from) << " -> " << to_string(to);
    EXPECT_THROW(inv::check_silent_tracker_transition(from, to),
                 ContractViolation);
  }
}

TEST(BeamSurferTransitionTable, EscalationMustPassThroughProbing) {
  EXPECT_TRUE(inv::beamsurfer_transition_allowed(B::kSteady, B::kProbing));
  EXPECT_TRUE(inv::beamsurfer_transition_allowed(B::kProbing, B::kSteady));
  EXPECT_TRUE(inv::beamsurfer_transition_allowed(B::kProbing, B::kRequesting));
  EXPECT_TRUE(inv::beamsurfer_transition_allowed(B::kRequesting, B::kSteady));

  // Rule (ii) may only follow a probe round that proved receive-side
  // adaptation insufficient: Steady can never jump straight to
  // Requesting, and a request never regresses into probing.
  EXPECT_FALSE(inv::beamsurfer_transition_allowed(B::kSteady, B::kRequesting));
  EXPECT_FALSE(inv::beamsurfer_transition_allowed(B::kRequesting, B::kProbing));
  EXPECT_THROW(inv::check_beamsurfer_transition(B::kSteady, B::kRequesting),
               ContractViolation);
}

TEST(HandoverTypeTable, SoftDegradesHardNeverUpgrades) {
  EXPECT_TRUE(inv::handover_type_transition_allowed(H::kSoft, H::kHard));
  EXPECT_TRUE(inv::handover_type_transition_allowed(H::kHard, H::kHard));
  EXPECT_FALSE(inv::handover_type_transition_allowed(H::kHard, H::kSoft));
  EXPECT_THROW(inv::check_handover_type_transition(H::kHard, H::kSoft),
               ContractViolation);
}

// ---- Seeded value-invariant violations ------------------------------------

TEST(ValueInvariants, RachFromUntrackedBeamIsRejected) {
  // The protocol's core promise: random access runs on a beam tracking
  // kept aligned. No cell, an invalid beam, or an out-of-codebook beam
  // all violate the contract.
  EXPECT_THROW(
      inv::check_rach_entry(net::kInvalidCell, 0, 3, 8, 2, 18),
      ContractViolation);
  EXPECT_THROW(inv::check_rach_entry(1, 0, phy::kInvalidBeam, 8, 2, 18),
               ContractViolation);
  EXPECT_THROW(inv::check_rach_entry(1, 0, 3, 8, phy::kInvalidBeam, 18),
               ContractViolation);
  EXPECT_THROW(inv::check_rach_entry(1, 0, 9, 8, 2, 18),  // tx out of range
               ContractViolation);
  EXPECT_THROW(inv::check_rach_entry(1, 0, 3, 8, 18, 18),  // rx out of range
               ContractViolation);
  // Accessing the cell we just lost is no handover at all.
  EXPECT_THROW(inv::check_rach_entry(0, 0, 3, 8, 2, 18), ContractViolation);
  // A legal aligned entry passes.
  EXPECT_NO_THROW(inv::check_rach_entry(1, 0, 3, 8, 2, 18));
}

TEST(ValueInvariants, DropThresholdOnlyFiresOnATrackedBeam) {
  // Legal: 3 dB rule while Tracking, or while Accessing (tracking
  // persists until Msg4).
  EXPECT_NO_THROW(inv::check_drop_on_tracked_beam(S::kTracking, 4, 18));
  EXPECT_NO_THROW(inv::check_drop_on_tracked_beam(S::kAccessing, 4, 18));
  // Illegal: the threshold has no tracked beam to fire on elsewhere.
  EXPECT_THROW(inv::check_drop_on_tracked_beam(S::kSearching, 4, 18),
               ContractViolation);
  EXPECT_THROW(inv::check_drop_on_tracked_beam(S::kIdle, 4, 18),
               ContractViolation);
  // Illegal: "tracked" beam outside the codebook.
  EXPECT_THROW(
      inv::check_drop_on_tracked_beam(S::kTracking, phy::kInvalidBeam, 18),
      ContractViolation);
  EXPECT_THROW(inv::check_drop_on_tracked_beam(S::kTracking, 18, 18),
               ContractViolation);
}

TEST(ValueInvariants, BeamCodebookBounds) {
  EXPECT_NO_THROW(inv::check_beam_in_codebook("b", 0, 1));
  EXPECT_NO_THROW(inv::check_beam_in_codebook("b", 17, 18));
  EXPECT_THROW(inv::check_beam_in_codebook("b", 18, 18), ContractViolation);
  EXPECT_THROW(inv::check_beam_in_codebook("b", phy::kInvalidBeam, 18),
               ContractViolation);
}

TEST(Contracts, ViolationCountsAndMessages) {
  const std::uint64_t before = contracts::violation_count();
  try {
    inv::check_silent_tracker_transition(S::kIdle, S::kComplete);
    FAIL() << "expected a ContractViolation";
  } catch (const ContractViolation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("SilentTracker"), std::string::npos);
    EXPECT_NE(what.find("Idle"), std::string::npos);
    EXPECT_NE(what.find("Complete"), std::string::npos);
  }
  EXPECT_EQ(contracts::violation_count(), before + 1);
}

// ---- 2. Legal full runs stay silent ---------------------------------------

ScenarioSpec checked_spec(ProtocolKind protocol) {
  UeProfile ue = preset::walking_ue();
  ue.protocol = protocol;
  return SpecBuilder()
      .duration(sim::Duration::milliseconds(15'000))
      .seed(42)
      .ue(ue)
      .build();
}

TEST(CheckedRuns, LegalSoftHandoverKeepsCheckerSilent) {
  const std::uint64_t before = contracts::violation_count();
  const ScenarioResult r =
      run_scenario(checked_spec(ProtocolKind::kSilentTracker));
  EXPECT_GT(r.ssb_observations, 0U);
  // The wiring (when compiled in) checked every state mutation of the
  // run; a conforming execution raises nothing.
  EXPECT_EQ(contracts::violation_count(), before);
}

TEST(CheckedRuns, LegalReactiveHandoverKeepsCheckerSilent) {
  const std::uint64_t before = contracts::violation_count();
  const ScenarioResult r = run_scenario(checked_spec(ProtocolKind::kReactive));
  EXPECT_GT(r.ssb_observations, 0U);
  EXPECT_EQ(contracts::violation_count(), before);
}

// ---- 3. Checker-on/off determinism pin ------------------------------------

TEST(CheckedRuns, EnforcementDoesNotChangeResults) {
  // The checker observes transitions; it must never steer them. An
  // enforced run and an unenforced run of the same seed are identical.
  // (With the checker compiled out both runs are trivially unenforced —
  // the pin then asserts plain run-to-run determinism.)
  const ScenarioSpec spec = checked_spec(ProtocolKind::kSilentTracker);

  ScenarioResult enforced, unenforced;
  {
    const contracts::EnforcementGuard guard{true};
    enforced = run_scenario(spec);
  }
  {
    const contracts::EnforcementGuard guard{false};
    unenforced = run_scenario(spec);
  }

  ASSERT_EQ(enforced.handovers.size(), unenforced.handovers.size());
  for (std::size_t i = 0; i < enforced.handovers.size(); ++i) {
    const auto& a = enforced.handovers[i];
    const auto& b = unenforced.handovers[i];
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.serving_lost.ns(), b.serving_lost.ns());
    EXPECT_EQ(a.completed.ns(), b.completed.ns());
    EXPECT_EQ(a.rach_attempts, b.rach_attempts);
    EXPECT_EQ(a.final_rx_beam, b.final_rx_beam);
    EXPECT_EQ(a.target_tx_beam, b.target_tx_beam);
  }
  EXPECT_EQ(enforced.ssb_observations, unenforced.ssb_observations);
  EXPECT_EQ(test::counter_map(enforced.counters),
            test::counter_map(unenforced.counters));
}

TEST(ValueInvariants, DecisionMustTargetANeighborListMember) {
  const net::NeighborList neighbors{1, 2, 4};
  EXPECT_NO_THROW(inv::check_decision_in_neighbor_list(0, 2, neighbors));
  // A cell outside the serving cell's declared candidate set.
  EXPECT_THROW(inv::check_decision_in_neighbor_list(0, 3, neighbors),
               ContractViolation);
  // Selecting the serving cell itself is no decision at all.
  EXPECT_THROW(inv::check_decision_in_neighbor_list(0, 0, neighbors),
               ContractViolation);
}

TEST(ValueInvariants, PenalizedCellOnlySelectableWhenServingDead) {
  EXPECT_NO_THROW(inv::check_decision_not_penalized(
      2, /*target_penalized=*/false, /*serving_alive=*/true));
  EXPECT_THROW(inv::check_decision_not_penalized(2, true, true),
               ContractViolation);
  // Serving link dead: the penalty is waived (any cell beats no cell).
  EXPECT_NO_THROW(inv::check_decision_not_penalized(2, true, false));
}

// ---- Build-mode sanity ----------------------------------------------------

TEST(Contracts, CompiledInMatchesBuildConfiguration) {
#if ST_INVARIANTS_ENABLED
  EXPECT_TRUE(contracts::compiled_in());
#else
  EXPECT_FALSE(contracts::compiled_in());
#endif
  // Enforcement defaults on; the toggle round-trips.
  EXPECT_TRUE(contracts::enforcement_enabled());
  {
    const contracts::EnforcementGuard guard{false};
    EXPECT_FALSE(contracts::enforcement_enabled());
  }
  EXPECT_TRUE(contracts::enforcement_enabled());
}

}  // namespace
}  // namespace st::core
