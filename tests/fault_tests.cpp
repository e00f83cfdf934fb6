//===-- tests/fault_tests.cpp - Fault diagnostics + injection harness -----===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the fault-diagnostics layer (FaultInfo, describeFault, stack
/// high-watermarks) and the systematic fault-injection harness: step-limit
/// sweeps, capacity shrinking for each overflow class, data-space
/// shrinking for BadMemAccess, bytecode mutation with Code::verify as the
/// oracle, and proof that a desynced engine would be caught.
///
//===----------------------------------------------------------------------===//

#include "harness/FaultInject.h"

#include "dispatch/EngineRegistry.h"
#include "forth/Forth.h"
#include "vm/FaultDiag.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::harness;
using namespace sc::vm;

namespace {

/// Fault observed directly from the switch reference engine, keeping the
/// ExecContext around for describeFault.
struct RefRun {
  std::unique_ptr<forth::System> Sys;
  Vm Machine;
  ExecContext Ctx;
  RunOutcome Outcome;

  RefRun(const char *Src, const char *Word = "main")
      : Sys(forth::loadOrDie(Src)), Machine(Sys->Machine) {
    Machine.resetOutput();
    Ctx.Prog = &Sys->Prog;
    Ctx.Machine = &Machine;
    engine::RunOptions Opts;
    Opts.Entry = Sys->entryOf(Word);
    Outcome = engine::runEngine(engine::EngineId::Switch, Sys->Prog, Ctx, Opts);
  }
};

// --- FaultInfo golden values from the reference engine ---------------------

TEST(FaultInfo, DivByZeroReportsConsumedOperands) {
  RefRun R(": main 7 0 / ;");
  EXPECT_EQ(R.Outcome.Status, RunStatus::DivByZero);
  EXPECT_EQ(R.Outcome.Fault.Op, Opcode::Div);
  // Operands are consumed before the trap (docs/TRAPS.md).
  EXPECT_EQ(R.Outcome.Fault.DsDepth, 0u);
  EXPECT_FALSE(R.Outcome.Fault.HasAddr);
  // Pc addresses the div instruction itself.
  EXPECT_EQ(R.Sys->Prog.Insts[R.Outcome.Fault.Pc].Op, Opcode::Div);
}

TEST(FaultInfo, BadMemAccessCarriesAddress) {
  RefRun R(": main 1 @ ;"); // address 1 is below the reserved first cell
  EXPECT_EQ(R.Outcome.Status, RunStatus::BadMemAccess);
  EXPECT_EQ(R.Outcome.Fault.Op, Opcode::Fetch);
  EXPECT_TRUE(R.Outcome.Fault.HasAddr);
  EXPECT_EQ(R.Outcome.Fault.Addr, 1);
  EXPECT_EQ(R.Outcome.Fault.DsDepth, 0u); // the address was popped
}

TEST(FaultInfo, UnderflowReportsFaultingOpcode) {
  RefRun R(": main drop ;");
  EXPECT_EQ(R.Outcome.Status, RunStatus::StackUnderflow);
  EXPECT_EQ(R.Outcome.Fault.Op, Opcode::Drop);
  EXPECT_EQ(R.Outcome.Fault.DsDepth, 0u);
  EXPECT_EQ(R.Outcome.Fault.RsDepth, 1u); // entry sentinel
}

TEST(FaultInfo, StepLimitReportsResumePoint) {
  auto Sys = forth::loadOrDie(": main 1 2 + drop ;");
  RunLimits L;
  L.MaxSteps = 2; // stop after "1 2": resume at the +
  EngineObservation O =
      observeEngine(*Sys, Sys->Prog, Sys->entryOf("main"), EngineId::Switch, L);
  ASSERT_EQ(O.Outcome.Status, RunStatus::StepLimit);
  EXPECT_EQ(O.Outcome.Fault.Op, Opcode::Add);
  EXPECT_EQ(O.Outcome.Fault.DsDepth, 2u);
}

TEST(FaultDiag, DescribeFaultShowsWindowAndStacks) {
  RefRun R(": main 40 2 1 @ ;");
  std::string S = describeFault(R.Sys->Prog, R.Outcome, R.Ctx);
  EXPECT_NE(S.find("bad memory access"), std::string::npos);
  EXPECT_NE(S.find("addr=1"), std::string::npos);
  EXPECT_NE(S.find("=>"), std::string::npos); // fault line marker
  EXPECT_NE(S.find("@"), std::string::npos);  // mnemonic in the window
  EXPECT_NE(S.find("data stack (depth 2): 2 40"), std::string::npos);
  // Halted runs have nothing to describe.
  RefRun Ok(": main ;");
  EXPECT_EQ(describeFault(Ok.Sys->Prog, Ok.Outcome, Ok.Ctx),
            "halted normally");
}

// --- Configurable capacities + high watermarks -----------------------------

TEST(Capacities, HighWaterBisectionMatchesHandComputedPeak) {
  auto Sys = forth::loadOrDie(": main 1 2 3 + + drop ;");
  EXPECT_EQ(measureDsHighWater(*Sys, "main"), 3u);
  auto Deep = forth::loadOrDie(": main 1 2 3 4 5 6 + + + + + drop ;");
  EXPECT_EQ(measureDsHighWater(*Deep, "main"), 6u);
}

TEST(Capacities, SampledWatermarkIsLowerBoundOnTruePeak) {
  auto Sys = forth::loadOrDie(
      "variable v : main 5 0 do i 1 + v ! v @ drop loop ;");
  EngineObservation O = observeEngine(*Sys, Sys->Prog, Sys->entryOf("main"),
                                      EngineId::Switch);
  unsigned True = measureDsHighWater(*Sys, "main");
  EXPECT_LE(O.DsHighWater, True);
  EXPECT_GE(True, 2u);
}

TEST(Capacities, HostPushRespectsConfiguredCapacity) {
  ExecContext Ctx;
  Ctx.setStackCapacities(4, 4);
  for (int I = 0; I < 4; ++I)
    Ctx.push(I);
  EXPECT_EQ(Ctx.DsHighWater, 4u);
  EXPECT_EQ(Ctx.pop(), 3);
}

// --- Fault injection: step-limit sweep -------------------------------------

TEST(Inject, StepLimitSweepStraightLine) {
  auto Sys = forth::loadOrDie(": main 1 2 3 + + 4 * drop ;");
  InjectReport R = sweepStepLimit(*Sys, "main");
  EXPECT_GT(R.Points, 5u);
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
}

TEST(Inject, StepLimitSweepLoopsCallsAndMemory) {
  auto Sys = forth::loadOrDie(
      "variable v : sq dup * ; "
      ": main 0 5 0 do i sq + i v ! v @ drop loop . ;");
  InjectReport R = sweepStepLimit(*Sys, "main");
  EXPECT_GT(R.Faults, 10u); // every interrupted point is a StepLimit fault
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
}

TEST(Inject, StepLimitSweepEndsInTrap) {
  // The final sweep point reproduces the program's own DivByZero trap.
  auto Sys = forth::loadOrDie(": main 3 1 - 0 / ;");
  InjectReport R = sweepStepLimit(*Sys, "main");
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
}

// --- Fault injection: capacity + data-space shrinking ----------------------

TEST(Inject, ShrinkForcesDataStackOverflowEverywhere) {
  // Pure pushes: the overflow point is not deferrable by manipulation
  // absorption, so the static engines participate with full identity.
  auto Sys = forth::loadOrDie(": main 1 2 3 4 5 6 + + + + + drop ;");
  InjectReport R = shrinkCapacities(*Sys, "main", RunLimits(),
                                    /*IncludeStatic=*/true);
  EXPECT_GT(R.Faults, 0u);
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
}

TEST(Inject, ShrinkForcesReturnStackOverflowEverywhere) {
  auto Sys = forth::loadOrDie(
      ": a 1 drop ; : b a a ; : c b b ; : main c c ;");
  InjectReport R = shrinkCapacities(*Sys, "main");
  EXPECT_GT(R.Faults, 0u);
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
}

TEST(Inject, ShrinkForcesBadMemAccessEverywhere) {
  auto Sys = forth::loadOrDie(
      "variable v : main 7 v ! v @ 1 + v ! v @ drop ;");
  InjectReport R = shrinkCapacities(*Sys, "main", RunLimits(),
                                    /*IncludeStatic=*/true);
  EXPECT_GT(R.Faults, 0u);
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
}

TEST(Inject, ShrunkDataSpaceFaultCarriesOffendingAddress) {
  auto Sys = forth::loadOrDie("variable v : main v @ drop ;");
  RunLimits L;
  L.DataSpaceLimit = 8; // v lives past the reserved first cell
  EngineObservation O =
      observeEngine(*Sys, Sys->Prog, Sys->entryOf("main"), EngineId::Switch, L);
  ASSERT_EQ(O.Outcome.Status, RunStatus::BadMemAccess);
  EXPECT_TRUE(O.Outcome.Fault.HasAddr);
  EXPECT_GE(O.Outcome.Fault.Addr, 8);
}

// --- Fault injection: preempted (sliced) execution -------------------------

TEST(Inject, SlicedFaultMatrixWithCalls) {
  // Calls and returns across slice boundaries: the preempted runs carry
  // live return addresses (plus the sentinel) from slice to slice, and
  // every forced overflow must land exactly like the one-shot run.
  auto Sys = forth::loadOrDie(
      ": a 1 drop ; : b a a ; : c b b ; : main c c ;");
  InjectReport R = sweepSlicedFaults(*Sys, "main", RunLimits(), 2);
  EXPECT_GT(R.Faults, 0u);
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
}

TEST(Inject, SliceSweepAgreesThroughTrap) {
  // The guest's own DivByZero must survive preemption unchanged for
  // every slice length and engine rotation.
  auto Sys = forth::loadOrDie(": main 3 1 - 0 / ;");
  InjectReport R = sweepSliceBoundaries(*Sys, "main");
  EXPECT_GT(R.Faults, 0u);
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
}

// --- Fault injection: bytecode mutation with Code::verify as oracle --------

TEST(Inject, MutationFuzzKeepsEnginesIdentical) {
  auto Sys = forth::loadOrDie(
      "variable v : sq dup * ; "
      ": main 0 6 0 do i sq + i v ! v @ + 2 mod 0= if 1 + then loop ;");
  InjectReport R = mutateAndCompare(*Sys, "main", 400, 0xfa17);
  EXPECT_GT(R.Points, 50u);  // plenty of mutants must survive the oracle
  EXPECT_GT(R.Faults, 0u);   // and some of those must trap
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
}

// --- The harness itself must catch a desynced engine -----------------------

TEST(Inject, DesyncedEngineIsCaught) {
  auto Sys = forth::loadOrDie(": main 7 0 / ;");
  EngineObservation Ref = observeEngine(*Sys, Sys->Prog, Sys->entryOf("main"),
                                        EngineId::Switch);
  ASSERT_EQ(Ref.Outcome.Status, RunStatus::DivByZero);
  EXPECT_EQ(compareObservations(Ref, Ref, EngineId::Threaded), "");

  EngineObservation Bad = Ref; // engine reporting the wrong fault PC
  Bad.Outcome.Fault.Pc += 1;
  EXPECT_NE(compareObservations(Ref, Bad, EngineId::Threaded), "");

  Bad = Ref; // wrong trap-time depth
  Bad.Outcome.Fault.DsDepth += 1;
  EXPECT_NE(compareObservations(Ref, Bad, EngineId::Dynamic3), "");

  Bad = Ref; // wrong status entirely
  Bad.Outcome.Status = RunStatus::Halted;
  EXPECT_NE(compareObservations(Ref, Bad, EngineId::Model), "");

  Bad = Ref; // silently dropped output
  Bad.Out += "x";
  EXPECT_NE(compareObservations(Ref, Bad, EngineId::StaticGreedy), "");

  Bad = Ref; // step-count drift is masked for static engines only
  Bad.Outcome.Steps += 1;
  EXPECT_EQ(compareObservations(Ref, Bad, EngineId::StaticGreedy), "");
  EXPECT_NE(compareObservations(Ref, Bad, EngineId::Threaded), "");

  Bad = Ref; // return addresses are canonical: compared even for static
  ASSERT_FALSE(Bad.RS.empty());
  Bad.RS.back() += 1;
  EXPECT_NE(compareObservations(Ref, Bad, EngineId::StaticGreedy), "");
}

// --- Call-threaded static-register hygiene ---------------------------------

TEST(CallThreaded, StaticRegistersResetBetweenRuns) {
  // First run leaves a memory fault (and its recorded fault address) in
  // the engine's static register block; the next run must not inherit it.
  auto Faulty = forth::loadOrDie(": main 1 @ ;");
  EngineObservation F = observeEngine(*Faulty, Faulty->Prog,
                                      Faulty->entryOf("main"),
                                      EngineId::CallThreaded);
  ASSERT_EQ(F.Outcome.Status, RunStatus::BadMemAccess);
  ASSERT_TRUE(F.Outcome.Fault.HasAddr);

  auto Under = forth::loadOrDie(": main drop ;");
  EngineObservation U = observeEngine(*Under, Under->Prog,
                                      Under->entryOf("main"),
                                      EngineId::CallThreaded);
  EXPECT_EQ(U.Outcome.Status, RunStatus::StackUnderflow);
  EXPECT_FALSE(U.Outcome.Fault.HasAddr); // would be stale without the reset

  auto Clean = forth::loadOrDie(": main 2 3 + . ;");
  EngineObservation C = observeEngine(*Clean, Clean->Prog,
                                      Clean->entryOf("main"),
                                      EngineId::CallThreaded);
  EXPECT_EQ(C.Outcome.Status, RunStatus::Halted);
  EXPECT_EQ(C.Out, "5 ");
}

} // namespace
