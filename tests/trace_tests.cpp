//===-- tests/trace_tests.cpp - Trace capture and simulator tests ---------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "trace/Capture.h"
#include "trace/Simulators.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::cache;
using namespace sc::trace;
using vm::Opcode;

namespace {

/// Builds a trace by hand. Ops marked with '*' prefix... simpler: pairs.
Trace makeTrace(std::initializer_list<std::pair<Opcode, bool>> Items) {
  Trace T;
  for (const auto &[Op, Leader] : Items) {
    TraceRec R;
    R.Op = Op;
    R.Flags = Leader ? TraceRec::LeaderFlag : 0;
    T.Recs.push_back(R);
  }
  return T;
}

// --- Capture -----------------------------------------------------------------

TEST(Capture, LengthMatchesSteps) {
  auto Sys = forth::loadOrDie(": main 1 2 + drop ;");
  auto Report = Sys->runIsolated("main", engine::EngineId::Switch);
  Trace T = captureTrace(*Sys, "main");
  EXPECT_EQ(T.size(), Report.Outcome.Steps);
}

TEST(Capture, RecordsOpcodesInOrder) {
  auto Sys = forth::loadOrDie(": main 1 2 + drop ;");
  Trace T = captureTrace(*Sys, "main");
  // lit lit + drop exit halt
  ASSERT_EQ(T.size(), 6u);
  EXPECT_EQ(T.Recs[0].Op, Opcode::Lit);
  EXPECT_EQ(T.Recs[1].Op, Opcode::Lit);
  EXPECT_EQ(T.Recs[2].Op, Opcode::Add);
  EXPECT_EQ(T.Recs[3].Op, Opcode::Drop);
  EXPECT_EQ(T.Recs[4].Op, Opcode::Exit);
  EXPECT_EQ(T.Recs[5].Op, Opcode::Halt);
}

TEST(Capture, EntryIsLeader) {
  auto Sys = forth::loadOrDie(": main 1 drop ;");
  Trace T = captureTrace(*Sys, "main");
  EXPECT_TRUE(T.Recs[0].isLeader());
  EXPECT_FALSE(T.Recs[1].isLeader());
}

TEST(Capture, BranchTargetsAreLeaders) {
  auto Sys = forth::loadOrDie(": main 0 if 1 drop then 2 drop ;");
  Trace T = captureTrace(*Sys, "main");
  // lit(0) 0branch lit(2) drop exit halt - the branch target lit(2) leads.
  ASSERT_EQ(T.size(), 6u);
  EXPECT_EQ(T.Recs[1].Op, Opcode::QBranch);
  EXPECT_EQ(T.Recs[2].Op, Opcode::Lit);
  EXPECT_TRUE(T.Recs[2].isLeader());
}

TEST(Capture, CountsReturnStackTraffic) {
  auto Sys = forth::loadOrDie(": w 5 >r r> drop ; : main w ;");
  Trace T = captureTrace(*Sys, "main");
  // call stores 1; >r stores 1; r> loads 1; w's and main's exits load 1
  // each. Five instructions move the return stack pointer.
  EXPECT_EQ(T.RStackStores, 2u);
  EXPECT_EQ(T.RStackLoads, 3u);
  EXPECT_EQ(T.RStackUpdates, 5u);
}

TEST(Capture, LoopTraffic) {
  auto Sys = forth::loadOrDie(": main 3 0 do loop ;");
  Trace T = captureTrace(*Sys, "main");
  // (do): 2 stores, 1 update. (loop) x3: two continue (1 store 2 loads,
  // no update) + one exit (2 loads, update). exit: 1 load 1 update.
  EXPECT_EQ(T.RStackStores, 2u + 2u);
  EXPECT_EQ(T.RStackLoads, 2u * 2 + 2u + 1u);
  EXPECT_EQ(T.RStackUpdates, 1u + 1u + 1u);
}

// --- Fig. 20 stats -------------------------------------------------------------

TEST(Fig20, HandComputedExample) {
  // lit lit + drop exit halt
  auto Sys = forth::loadOrDie(": main 1 2 + drop ;");
  Trace T = captureTrace(*Sys, "main");
  ProgramStats S = fig20Stats(T);
  EXPECT_EQ(S.Insts, 6u);
  // loads: 0+0+2+1+0+0 = 3
  EXPECT_DOUBLE_EQ(S.LoadsPerInst, 3.0 / 6.0);
  // stores: 1+1+1+0+0+0 = 3 (aggregate loads == stores, like the paper)
  EXPECT_DOUBLE_EQ(S.StoresPerInst, 3.0 / 6.0);
  // updates: lit,lit,+,drop change the depth -> 4
  EXPECT_DOUBLE_EQ(S.SpUpdatesPerInst, 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(S.CallsPerInst, 0.0);
}

TEST(Fig20, LoadsEqualStoresOnBalancedRuns) {
  size_t N;
  auto *W = sc::workloads::allWorkloads(N);
  auto Sys = forth::loadOrDie(W[0].Source);
  Trace T = captureTrace(*Sys, "main");
  ProgramStats S = fig20Stats(T);
  EXPECT_NEAR(S.LoadsPerInst, S.StoresPerInst, 0.01)
      << "stack conservation: what is pushed is eventually popped";
}

// --- Constant-k simulator -------------------------------------------------------

TEST(ConstantKSim, KZeroCountsAllOperands) {
  Trace T = makeTrace({{Opcode::Lit, true},
                       {Opcode::Lit, false},
                       {Opcode::Add, false},
                       {Opcode::Drop, false},
                       {Opcode::Halt, false}});
  Counts C = simulateConstantK(T, 0);
  EXPECT_EQ(C.Insts, 5u);
  EXPECT_EQ(C.Loads, 2u + 1u); // add loads 2, drop loads 1
  EXPECT_EQ(C.Stores, 1u + 1u + 1u); // lit, lit, add result
  EXPECT_EQ(C.Moves, 0u);
}

TEST(ConstantKSim, KOneIsCheaper) {
  auto Sys = forth::loadOrDie(": main 0 1000 0 do i + loop drop ;");
  Trace T = captureTrace(*Sys, "main");
  Counts K0 = simulateConstantK(T, 0);
  Counts K1 = simulateConstantK(T, 1);
  EXPECT_LT(K1.accessCycles(), K0.accessCycles());
  EXPECT_EQ(K0.Moves, 0u);
}

TEST(ConstantKSim, DepthTrackingNeverUnderflows) {
  size_t N;
  auto *W = sc::workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    Trace T = captureTrace(*Sys, "main");
    for (unsigned K = 0; K <= 4; K += 2) {
      Counts C = simulateConstantK(T, K);
      EXPECT_EQ(C.Insts, T.size());
    }
  }
}

// --- Dynamic simulator ----------------------------------------------------------

TEST(DynamicSim, NoCostWhenEverythingFits) {
  // Stack stays within 4 registers: no overhead at all.
  Trace T = makeTrace({{Opcode::Lit, true},
                       {Opcode::Lit, false},
                       {Opcode::Add, false},
                       {Opcode::Lit, false},
                       {Opcode::Mul, false},
                       {Opcode::Drop, false},
                       {Opcode::Halt, false}});
  Counts C = simulateDynamic(T, {4, 2});
  EXPECT_EQ(C.accessCycles(), 0u);
  EXPECT_EQ(C.Overflows, 0u);
  EXPECT_EQ(C.Underflows, 0u);
}

TEST(DynamicSim, OverflowOnDeepPush) {
  Trace T = makeTrace({{Opcode::Lit, true},
                       {Opcode::Lit, false},
                       {Opcode::Lit, false}});
  Counts C = simulateDynamic(T, {2, 1});
  // Third lit overflows: 3 items, keep 1 -> 2 stores, 0 moves (out=1=f).
  EXPECT_EQ(C.Overflows, 1u);
  EXPECT_EQ(C.Stores, 2u);
  EXPECT_EQ(C.Moves, 0u);
  EXPECT_EQ(C.SpUpdates, 1u);
}

TEST(DynamicSim, UnderflowAfterReset) {
  Trace T = makeTrace({{Opcode::Lit, true},
                       {Opcode::Lit, false},
                       {Opcode::Lit, false},
                       {Opcode::Add, false},
                       {Opcode::Add, false},
                       {Opcode::Add, false}});
  // regs=2, followup=0: third lit spills everything; first add underflows.
  Counts C = simulateDynamic(T, {2, 0});
  EXPECT_GE(C.Underflows, 1u);
  EXPECT_GE(C.Loads, 1u);
}

TEST(DynamicSim, MoreRegistersNeverWorse) {
  size_t N;
  auto *W = sc::workloads::allWorkloads(N);
  auto Sys = forth::loadOrDie(W[0].Source);
  Trace T = captureTrace(*Sys, "main");
  uint64_t Prev = UINT64_MAX;
  for (unsigned R = 1; R <= 8; ++R) {
    // Compare best-followup configurations, like Fig. 26.
    uint64_t Best = UINT64_MAX;
    for (unsigned F = 0; F <= R; ++F) {
      uint64_t Cy = simulateDynamic(T, {R, F}).accessCycles();
      Best = Cy < Best ? Cy : Best;
    }
    EXPECT_LE(Best, Prev) << R << " registers";
    Prev = Best;
  }
}

TEST(DynamicSim, RandomWalkReportConsistent) {
  size_t N;
  auto *W = sc::workloads::allWorkloads(N);
  auto Sys = forth::loadOrDie(W[1].Source); // gray
  Trace T = captureTrace(*Sys, "main");
  MinimalPolicy P{10, 7};
  RandomWalkReport Rep = analyzeRandomWalk(T, P);
  Counts C = simulateDynamic(T, P);
  EXPECT_EQ(Rep.Overflows, C.Overflows);
  EXPECT_EQ(Rep.Underflows, C.Underflows);
  EXPECT_LE(Rep.ReOverflows, Rep.Overflows);
}

// --- Static simulator -----------------------------------------------------------

TEST(StaticSim, ManipsOptimizedAway) {
  // dup swap over rot drop in one basic block: all absorbed.
  Trace T = makeTrace({{Opcode::Lit, true},
                       {Opcode::Lit, false},
                       {Opcode::Dup, false},
                       {Opcode::Swap, false},
                       {Opcode::Over, false},
                       {Opcode::Rot, false},
                       {Opcode::Drop, false},
                       {Opcode::Halt, false}});
  StaticPolicy P{6, 0, true};
  Counts C = simulateStatic(T, P);
  EXPECT_EQ(C.Insts, 8u);
  EXPECT_EQ(C.Dispatches, 8u - 5u) << "five manipulations absorbed";
}

TEST(StaticSim, AbsorptionCanBeDisabled) {
  Trace T = makeTrace({{Opcode::Lit, true},
                       {Opcode::Dup, false},
                       {Opcode::Drop, false},
                       {Opcode::Halt, false}});
  Counts C = simulateStatic(T, {4, 0, false});
  EXPECT_EQ(C.Dispatches, C.Insts);
}

TEST(StaticSim, CanonicalReconcileAtBlockBoundary) {
  // lit lit / branch-kind op forces a reset to canonical depth 0:
  // both cached items must be stored.
  Trace T = makeTrace({{Opcode::Lit, true},
                       {Opcode::Lit, false},
                       {Opcode::Branch, false},
                       {Opcode::Halt, true}});
  Counts C = simulateStatic(T, {4, 0, true});
  EXPECT_EQ(C.Stores, 2u);
  EXPECT_EQ(C.SpUpdates, 1u);
}

TEST(StaticSim, CanonicalPrefetchAtBlockBoundary) {
  // With canonical depth 2, a block that shrank the cache must prefetch
  // on the way out to restore the convention (Section 3.6's effect).
  Trace T = makeTrace({{Opcode::Add, true},
                       {Opcode::Branch, false},
                       {Opcode::Halt, true}});
  Counts C = simulateStatic(T, {4, 2, true});
  // Add consumes the two canonical items, produces one; the branch
  // reconciles back to depth 2: at least one load.
  EXPECT_GE(C.Loads, 1u);
  EXPECT_GE(C.SpUpdates, 1u);
}

TEST(StaticSim, DupAcrossBranchCostsOneStoreNotDispatch) {
  // dup's value is never materialized before the branch flushes it.
  Trace T = makeTrace({{Opcode::Lit, true},
                       {Opcode::Dup, false},
                       {Opcode::Branch, false},
                       {Opcode::Halt, true}});
  Counts C = simulateStatic(T, {4, 0, true});
  EXPECT_EQ(C.Dispatches, C.Insts - 1) << "dup optimized away";
  EXPECT_EQ(C.Stores, 2u) << "flushing [r0 r0] stores two cells";
}

TEST(StaticSim, SavesDispatchesOnRealPrograms) {
  size_t N;
  auto *W = sc::workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    Trace T = captureTrace(*Sys, "main");
    Counts C = simulateStatic(T, {4, 2, true});
    EXPECT_LT(C.Dispatches, C.Insts) << W[I].Name;
    Counts NoAbsorb = simulateStatic(T, {4, 2, false});
    EXPECT_EQ(NoAbsorb.Dispatches, NoAbsorb.Insts) << W[I].Name;
  }
}

TEST(StaticSim, TinyRegisterFileStillWorks) {
  size_t N;
  auto *W = sc::workloads::allWorkloads(N);
  auto Sys = forth::loadOrDie(W[3].Source); // cross
  Trace T = captureTrace(*Sys, "main");
  for (unsigned R = 1; R <= 2; ++R)
    for (unsigned Cn = 0; Cn <= R; ++Cn) {
      Counts C = simulateStatic(T, {R, Cn, true});
      EXPECT_EQ(C.Insts, T.size());
      EXPECT_LE(C.Dispatches, C.Insts);
    }
}

} // namespace
