//===-- tests/staticcache_tests.cpp - Static caching tests ----------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the static stack-caching compiler pass and its specialized
/// direct-threaded engine: the pass must remove stack manipulations from
/// the instruction stream, the engine must behave exactly like the
/// reference engines, and the specialized programs must execute fewer
/// instructions.
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "staticcache/StaticEngine.h"
#include "staticcache/StaticSpec.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::staticcache;
using namespace sc::vm;

namespace {

struct StaticRun {
  RunOutcome Outcome;
  std::string Output;
  std::vector<Cell> DS;
};

StaticRun runStatic(const forth::System &Sys, const SpecProgram &SP,
                    const std::string &Name, uint64_t MaxSteps = UINT64_MAX) {
  Vm Copy = Sys.Machine;
  Copy.resetOutput();
  ExecContext Ctx(Sys.Prog, Copy);
  Ctx.MaxSteps = MaxSteps;
  StaticRun R;
  R.Outcome = runStaticEngine(SP, Ctx, Sys.entryOf(Name));
  R.Output = Copy.Out;
  R.DS.assign(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  return R;
}

void checkAgainstReference(const char *Src) {
  SCOPED_TRACE(Src);
  auto Sys = forth::loadOrDie(Src);
  auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
  SpecProgram SP = compileStatic(Sys->Prog);
  StaticRun R = runStatic(*Sys, SP, "main");
  EXPECT_EQ(R.Outcome.Status, Ref.Outcome.Status);
  EXPECT_EQ(R.DS, Ref.DS);
  EXPECT_EQ(R.Output, Ref.Output);
}

// --- The pass ----------------------------------------------------------------

TEST(StaticPass, RemovesManipulations) {
  auto Sys = forth::loadOrDie(": main 1 2 swap dup drop nip ;");
  SpecProgram SP = compileStatic(Sys->Prog);
  EXPECT_EQ(SP.ManipsRemoved, 4u) << disasmSpec(SP);
}

TEST(StaticPass, AbsorptionCanBeDisabled) {
  auto Sys = forth::loadOrDie(": main 1 2 swap dup drop nip ;");
  StaticOptions Opts;
  Opts.AbsorbManips = false;
  SpecProgram SP = compileStatic(Sys->Prog, Opts);
  EXPECT_EQ(SP.ManipsRemoved, 0u);
}

TEST(StaticPass, SwapBecomesFreeWhenBothCached) {
  // lit lit swap add: the swap must not appear in the specialized code.
  auto Sys = forth::loadOrDie(": main 1 2 swap - ;");
  SpecProgram SP = compileStatic(Sys->Prog);
  EXPECT_EQ(SP.ManipsRemoved, 1u);
  StaticRun R = runStatic(*Sys, SP, "main");
  ASSERT_EQ(R.DS.size(), 1u);
  EXPECT_EQ(R.DS[0], 1); // 2 - 1 after the swap
}

TEST(StaticPass, DupOnFullCacheSpillsOnce) {
  auto Sys = forth::loadOrDie(": main 1 2 dup + + ;");
  SpecProgram SP = compileStatic(Sys->Prog);
  EXPECT_EQ(SP.ManipsRemoved, 1u) << disasmSpec(SP);
  StaticRun R = runStatic(*Sys, SP, "main");
  EXPECT_EQ(R.DS, (std::vector<Cell>{5}));
}

TEST(StaticPass, SpecializedCodeIsShorter) {
  // Manip-heavy code must shrink even after counting micro-ops.
  auto Sys = forth::loadOrDie(
      ": main 1 2 3 drop swap dup nip swap drop dup * ;");
  SpecProgram SP = compileStatic(Sys->Prog);
  EXPECT_LT(SP.Insts.size(), Sys->Prog.Insts.size()) << disasmSpec(SP);
}

TEST(StaticPass, BranchTargetsRemapped) {
  auto Sys = forth::loadOrDie(": main 0 10 0 do i + loop ;");
  SpecProgram SP = compileStatic(Sys->Prog);
  StaticRun R = runStatic(*Sys, SP, "main");
  EXPECT_EQ(R.Outcome.Status, RunStatus::Halted);
  EXPECT_EQ(R.DS, (std::vector<Cell>{45}));
}

TEST(StaticPass, ListingShowsStatesAndMicros) {
  auto Sys = forth::loadOrDie(": main 1 2 + drop ;");
  SpecProgram SP = compileStatic(Sys->Prog);
  std::string Listing = disasmSpec(SP);
  EXPECT_NE(Listing.find("(state"), std::string::npos) << Listing;
}

// --- The engine: differential correctness -------------------------------------

TEST(StaticEngine, BasicPrograms) {
  checkAgainstReference(": main 2 3 + 4 * 5 - ;");
  checkAgainstReference(": main 1 2 3 4 5 rot tuck 2dup over nip ;");
  checkAgainstReference(": main 1 2 swap dup drop nip negate abs 1+ ;");
  checkAgainstReference(": main 10 3 / 10 3 mod 7 2/ -9 2* ;");
  checkAgainstReference(": main 1 0= 0 0= -1 0< 5 0> and or ;");
}

TEST(StaticEngine, ControlFlow) {
  checkAgainstReference(": main 1 if 10 else 20 then ;");
  checkAgainstReference(": main 0 if 10 else 20 then ;");
  checkAgainstReference(": main 0 begin 1+ dup 7 >= until ;");
  checkAgainstReference(": main 0 10 0 do i dup * + loop ;");
  checkAgainstReference(": main 0 10 0 do 1+ 3 +loop ;");
  checkAgainstReference(
      ": main 0 10 0 do 1+ dup 4 = if leave then loop ;");
}

TEST(StaticEngine, CallsAndRecursion) {
  checkAgainstReference(": sq dup * ; : main 7 sq sq ;");
  checkAgainstReference(
      ": fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ; "
      ": main 14 fib ;");
}

TEST(StaticEngine, MemoryAndStrings) {
  checkAgainstReference("variable x : main 42 x ! 8 x +! x @ ;");
  checkAgainstReference("create buf 16 allot "
                        ": main [char] q buf c! buf c@ ;");
  checkAgainstReference(": main s\" hello\" type 42 . cr space ;");
}

TEST(StaticEngine, ReturnStackWords) {
  checkAgainstReference(": main 5 >r 10 r@ + r> + ;");
  checkAgainstReference(": main 3 0 do i 2 0 do i j + drop loop loop 9 ;");
}

TEST(StaticEngine, Traps) {
  auto Sys = forth::loadOrDie(": main 1 0 / ;");
  SpecProgram SP = compileStatic(Sys->Prog);
  EXPECT_EQ(runStatic(*Sys, SP, "main").Outcome.Status,
            RunStatus::DivByZero);

  auto Sys2 = forth::loadOrDie(": main + ;");
  SpecProgram SP2 = compileStatic(Sys2->Prog);
  EXPECT_EQ(runStatic(*Sys2, SP2, "main").Outcome.Status,
            RunStatus::StackUnderflow);

  auto Sys3 = forth::loadOrDie(": main 0 @ ;");
  SpecProgram SP3 = compileStatic(Sys3->Prog);
  EXPECT_EQ(runStatic(*Sys3, SP3, "main").Outcome.Status,
            RunStatus::BadMemAccess);
}

TEST(StaticEngine, StepLimitStops) {
  auto Sys = forth::loadOrDie(": main begin again ;");
  SpecProgram SP = compileStatic(Sys->Prog);
  StaticRun R = runStatic(*Sys, SP, "main", 500);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StepLimit);
}

TEST(StaticEngine, WorkloadChecksums) {
  size_t N;
  auto *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    SpecProgram SP = compileStatic(Sys->Prog);
    StaticRun R = runStatic(*Sys, SP, "main");
    EXPECT_EQ(R.Outcome.Status, RunStatus::Halted) << W[I].Name;
    EXPECT_EQ(R.Output, W[I].Expected) << W[I].Name;
    EXPECT_GT(SP.ManipsRemoved, 0u) << W[I].Name;
  }
}

TEST(StaticEngine, InstructionCountsVersusReference) {
  // Static caching removes manipulation dispatches but adds reconcile
  // micro-instructions; with the canonical-empty convention the net
  // effect ranges from a clear win (compile, gray) to break-even within
  // a fraction of a percent (prims2x, cross) - see EXPERIMENTS.md. What
  // must always hold: manipulations are removed, and the dynamic count
  // never regresses materially.
  size_t N;
  auto *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
    SpecProgram SP = compileStatic(Sys->Prog);
    StaticRun R = runStatic(*Sys, SP, "main");
    EXPECT_GT(SP.ManipsRemoved, 0u) << W[I].Name;
    EXPECT_LE(R.Outcome.Steps,
              Ref.Outcome.Steps + Ref.Outcome.Steps / 100)
        << W[I].Name;
  }
  // The manip-heavy programs must come out strictly ahead.
  for (const char *Name : {"compile", "gray"}) {
    auto *WL = workloads::findWorkload(Name);
    auto Sys = forth::loadOrDie(WL->Source);
    auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
    SpecProgram SP = compileStatic(Sys->Prog);
    StaticRun R = runStatic(*Sys, SP, "main");
    EXPECT_LT(R.Outcome.Steps, Ref.Outcome.Steps) << Name;
  }
}

TEST(StaticEngine, NoAbsorbStillCorrect) {
  size_t N;
  auto *W = workloads::allWorkloads(N);
  auto Sys = forth::loadOrDie(W[0].Source);
  StaticOptions Opts;
  Opts.AbsorbManips = false;
  SpecProgram SP = compileStatic(Sys->Prog, Opts);
  StaticRun R = runStatic(*Sys, SP, "main");
  EXPECT_EQ(R.Output, W[0].Expected);
}

TEST(StaticEngine, RandomProgramsAgreeWithReference) {
  Rng R(0xfeedface);
  const char *Ops[] = {"+",    "-",   "*",    "dup",  "swap", "over",
                       "rot",  "nip", "tuck", "drop", "max",  "min",
                       "2dup", "1+",  "abs",  "xor",  "and",  "or",
                       "2drop"};
  for (int Iter = 0; Iter < 60; ++Iter) {
    std::string Src = ": main ";
    int Depth = static_cast<int>(R.range(0, 4));
    for (int I = 0; I < Depth; ++I)
      Src += std::to_string(R.range(-100, 100)) + " ";
    int Len = static_cast<int>(R.range(5, 40));
    for (int I = 0; I < Len; ++I) {
      if (R.chance(1, 4))
        Src += std::to_string(R.range(-9, 9)) + " ";
      else
        Src += std::string(Ops[R.below(std::size(Ops))]) + " ";
    }
    Src += ";";
    checkAgainstReference(Src.c_str());
  }
}

TEST(StaticEngine, RandomControlFlowAgreesWithReference) {
  Rng R(0xc0ffee11);
  for (int Iter = 0; Iter < 30; ++Iter) {
    std::string Src = ": main 0 ";
    int Loops = static_cast<int>(R.range(1, 3));
    for (int L = 0; L < Loops; ++L) {
      Src += std::to_string(R.range(2, 6)) + " 0 do ";
      Src += R.chance(1, 2) ? "i + " : "1+ dup 2 mod if 3 + then ";
      Src += "loop ";
    }
    Src += ";";
    checkAgainstReference(Src.c_str());
  }
}

} // namespace
