//===-- tests/edgecase_tests.cpp - Arithmetic & engine edge cases ---------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Edge cases exercised across every engine (the six implementations
/// share semantics but not code paths): integer extremes, shift bounds,
/// division corner cases, +LOOP boundary crossings, deep recursion near
/// the return-stack limit, and the paper's own example state machines
/// (Figs. 13 and 17) as explicit transition checks.
///
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "cache/Organization.h"
#include "cache/Reconcile.h"
#include "cache/Transition.h"
#include "forth/Forth.h"
#include "staticcache/StaticEngine.h"
#include "staticcache/StaticSpec.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::cache;
using namespace sc::vm;
using vm::Opcode;

namespace {

/// Runs `main` under all six engines and expects identical stacks/status.
void checkEverywhere(const char *Src) {
  SCOPED_TRACE(Src);
  auto Sys = forth::loadOrDie(Src);
  auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);

  for (engine::EngineId K : tests::referenceEngines()) {
    auto R = Sys->runIsolated("main", K);
    EXPECT_EQ(R.Outcome.Status, Ref.Outcome.Status) << engine::engineName(K);
    EXPECT_EQ(R.DS, Ref.DS) << engine::engineName(K);
  }
  {
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    RunOutcome O = tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                                  Sys->entryOf("main"));
    const char *Name = engine::engineName(engine::EngineId::Dynamic3);
    EXPECT_EQ(O.Status, Ref.Outcome.Status) << Name;
    std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
    EXPECT_EQ(DS, Ref.DS) << Name;
  }
  {
    staticcache::SpecProgram SP = staticcache::compileStatic(Sys->Prog);
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    RunOutcome O = staticcache::runStaticEngine(SP, Ctx, Sys->entryOf("main"));
    const char *Name = engine::engineName(engine::EngineId::StaticGreedy);
    EXPECT_EQ(O.Status, Ref.Outcome.Status) << Name;
    std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
    EXPECT_EQ(DS, Ref.DS) << Name;
  }
}

TEST(EdgeCases, IntegerExtremes) {
  // INT64_MIN arithmetic must not fault (wrapping semantics).
  checkEverywhere(": main -9223372036854775808 negate ;");
  checkEverywhere(": main -9223372036854775808 abs ;");
  checkEverywhere(": main -9223372036854775808 -1 / ;");
  checkEverywhere(": main -9223372036854775808 -1 mod ;");
  checkEverywhere(": main 9223372036854775807 1+ ;");
  checkEverywhere(": main -9223372036854775808 1- ;");
  checkEverywhere(": main 9223372036854775807 2* ;");
}

TEST(EdgeCases, ShiftBounds) {
  checkEverywhere(": main 1 63 lshift ;");
  checkEverywhere(": main 1 64 lshift ;");  // over-shift yields 0
  checkEverywhere(": main 1 100 lshift ;");
  checkEverywhere(": main -1 63 rshift ;"); // logical right shift
  checkEverywhere(": main -1 64 rshift ;");
  checkEverywhere(": main -8 2/ ;");        // arithmetic right shift
}

TEST(EdgeCases, DivisionRounding) {
  checkEverywhere(": main 7 2 / -7 2 / 7 -2 / -7 -2 / ;");
  checkEverywhere(": main 7 2 mod -7 2 mod 7 -2 mod -7 -2 mod ;");
}

TEST(EdgeCases, UnsignedComparison) {
  checkEverywhere(": main -1 1 u< 1 -1 u< -1 -1 u< ;");
}

TEST(EdgeCases, PlusLoopBoundaries) {
  // Crossing the limit boundary from both directions, including exact
  // landings and overshoot.
  checkEverywhere(": main 0 10 0 do 1+ 3 +loop ;");
  checkEverywhere(": main 0 10 0 do 1+ 10 +loop ;");
  checkEverywhere(": main 0 0 10 do 1+ -3 +loop ;");
  checkEverywhere(": main 0 1 0 do 1+ 1 +loop ;");
}

TEST(EdgeCases, CountedLoopRunsBodyAtLeastOnce) {
  // Forth DO..LOOP always executes its body at least once.
  checkEverywhere(": main 0 1 0 do 1+ loop ;");
}

TEST(EdgeCases, EqualLimitAndIndexWrapsLikeForth) {
  // `0 0 DO ... LOOP` iterates until the index wraps around (2^64
  // times) - the standard Forth pitfall ?DO exists for. Confirm it does
  // not terminate early, under a step budget.
  auto Sys = forth::loadOrDie(": main 0 0 0 do 1+ loop ;");
  auto R = Sys->runIsolated("main", engine::EngineId::Switch, 10000);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StepLimit);
}

TEST(EdgeCases, DeepRecursionNearTheLimit) {
  // ~8000 nested calls: well within the 16384-cell return stack but deep
  // enough to shake out frame handling in every engine.
  checkEverywhere(
      ": down dup 0> if 1- recurse 1+ then ; : main 8000 down ;");
}

TEST(EdgeCases, RStackOverflowTrapsEverywhere) {
  auto Sys = forth::loadOrDie(": forever recurse ; : main forever ;");
  for (engine::EngineId K : tests::referenceEngines()) {
    auto R = Sys->runIsolated("main", K);
    EXPECT_EQ(R.Outcome.Status, RunStatus::RStackOverflow)
        << engine::engineName(K);
  }
  {
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    EXPECT_EQ(tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                             Sys->entryOf("main")).Status,
              RunStatus::RStackOverflow);
  }
  {
    staticcache::SpecProgram SP = staticcache::compileStatic(Sys->Prog);
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    EXPECT_EQ(
        staticcache::runStaticEngine(SP, Ctx, Sys->entryOf("main")).Status,
        RunStatus::RStackOverflow);
  }
}

TEST(EdgeCases, DataStackOverflowTraps) {
  checkEverywhere(": main begin 1 dup drop again ;"); // stays shallow: loop
}

TEST(EdgeCases, DataStackOverflowActuallyOverflows) {
  auto Sys = forth::loadOrDie(": main begin 1 again ;");
  auto R = Sys->runIsolated("main", engine::EngineId::Switch);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StackOverflow);
  Vm Copy = Sys->Machine;
  ExecContext Ctx(Sys->Prog, Copy);
  EXPECT_EQ(tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                           Sys->entryOf("main")).Status,
            RunStatus::StackOverflow);
}

// --- The paper's example machines as explicit checks ------------------------

TEST(PaperFigures, Fig13ThreeStateMachine) {
  // Figure 13: two registers, three states. Check the marked transitions:
  // an add-shaped word (ww--w) from the full state stays expressible and
  // costs nothing; pushes walk up; the overflow spills.
  MinimalPolicy P{2, 2}; // full state as overflow followup
  unsigned Depth = 0;
  EXPECT_EQ(applyEffectMinimal(Depth, 0, 1, P).accessCycles(), 0u); // --w
  EXPECT_EQ(Depth, 1u);
  EXPECT_EQ(applyEffectMinimal(Depth, 0, 1, P).accessCycles(), 0u);
  EXPECT_EQ(Depth, 2u);
  Counts Add = applyEffectMinimal(Depth, 2, 1, P); // ww--w
  EXPECT_EQ(Add.accessCycles(), 0u);
  EXPECT_EQ(Depth, 1u);
  // Fig. 14: "add in stack caching (starting in the full state)" is one
  // real instruction - zero overhead, which is the scheme's whole point.
}

TEST(PaperFigures, Fig15OverflowTransition) {
  // Figure 15: overflowing into a non-full followup state reduces the
  // number of future overflows at the cost of keeping fewer items.
  MinimalPolicy Full{3, 3}, Half{3, 1};
  unsigned D1 = 3, D2 = 3;
  Counts A = applyEffectMinimal(D1, 0, 1, Full);
  Counts B = applyEffectMinimal(D2, 0, 1, Half);
  EXPECT_EQ(D1, 3u);
  EXPECT_EQ(D2, 1u);
  EXPECT_EQ(A.Stores, 1u);
  EXPECT_EQ(B.Stores, 3u);
  EXPECT_GT(A.Moves, B.Moves) << "full followup pays with moves";
}

TEST(PaperFigures, Fig17OneDuplicationOrganization) {
  // Figure 17: two registers, one duplication allowed: seven states, and
  // the drawn transitions stay inside the organization.
  auto Org = makeOrganization(OrgKind::OneDuplication, 2);
  EXPECT_EQ(Org->countStates(), 7u);
  CacheState S1 = CacheState::minimal(1);
  CacheState Dup = applyManipToState(S1, Opcode::Dup);
  EXPECT_TRUE(Org->contains(Dup)) << Dup.str();
  CacheState S2 = CacheState::minimal(2);
  EXPECT_TRUE(Org->contains(applyManipToState(S2, Opcode::Drop)));
  CacheState Swapped = applyManipToState(S2, Opcode::Swap);
  EXPECT_FALSE(Org->contains(Swapped))
      << "the minimal+dup organization has no swapped state; a transition "
         "must materialize it";
  Counts Fix = reconcile(Swapped, CacheState::minimal(2));
  EXPECT_EQ(Fix.Moves, 3u) << "materializing the swap costs a 3-move cycle";
}

} // namespace
