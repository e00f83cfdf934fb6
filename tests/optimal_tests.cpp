//===-- tests/optimal_tests.cpp - Two-pass optimal codegen tests ----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the two-pass optimal code generator: it must agree
/// semantically with the reference engines and with the greedy pass, and
/// never emit more instructions per block than the greedy pass does.
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

StaticOptions optimalOpts() {
  StaticOptions O;
  O.TwoPassOptimal = true;
  return O;
}

struct TwoRuns {
  RunOutcome Greedy, Optimal;
  std::vector<Cell> GreedyDS, OptimalDS;
  std::string GreedyOut, OptimalOut;
  size_t GreedySize, OptimalSize;
};

TwoRuns runBoth(const forth::System &Sys) {
  TwoRuns R;
  SpecProgram G = compileStatic(Sys.Prog);
  SpecProgram O = compileStatic(Sys.Prog, optimalOpts());
  R.GreedySize = G.Insts.size();
  R.OptimalSize = O.Insts.size();
  {
    Vm Copy = Sys.Machine;
    ExecContext Ctx(Sys.Prog, Copy);
    R.Greedy = runStaticEngine(G, Ctx, Sys.entryOf("main"));
    R.GreedyDS.assign(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
    R.GreedyOut = Copy.Out;
  }
  {
    Vm Copy = Sys.Machine;
    ExecContext Ctx(Sys.Prog, Copy);
    R.Optimal = runStaticEngine(O, Ctx, Sys.entryOf("main"));
    R.OptimalDS.assign(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
    R.OptimalOut = Copy.Out;
  }
  return R;
}

TEST(OptimalCodegen, WorkloadChecksums) {
  size_t N;
  auto *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    SpecProgram SP = compileStatic(Sys->Prog, optimalOpts());
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    RunOutcome O = runStaticEngine(SP, Ctx, Sys->entryOf("main"));
    EXPECT_EQ(O.Status, RunStatus::Halted) << W[I].Name;
    EXPECT_EQ(Copy.Out, W[I].Expected) << W[I].Name;
  }
}

TEST(OptimalCodegen, NeverLargerThanGreedy) {
  size_t N;
  auto *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    TwoRuns R = runBoth(*Sys);
    EXPECT_LE(R.OptimalSize, R.GreedySize) << W[I].Name;
  }
}

TEST(OptimalCodegen, BeatsGreedyOnACraftedBlock) {
  // From the fuzzer: a block where the greedy fill decision is
  // suboptimal with full lookahead.
  auto Sys = forth::loadOrDie(
      ": main 0 5 7 swap + 4 7 drop 2drop dup 2drop 1+ rot - abs ;");
  TwoRuns R = runBoth(*Sys);
  EXPECT_LT(R.OptimalSize, R.GreedySize);
  EXPECT_EQ(R.GreedyDS, R.OptimalDS);
}

TEST(OptimalCodegen, RandomProgramsAgreeAndNeverWorse) {
  Rng R(0xabcdef01);
  const char *Ops[] = {"+",    "-",  "*",    "dup",   "swap", "over",
                       "rot",  "nip", "tuck", "drop",  "1+",   "2dup",
                       "2drop", "abs", "max",  "min"};
  int OptimalWins = 0;
  for (int Iter = 0; Iter < 300; ++Iter) {
    std::string Src = ": main ";
    int D = static_cast<int>(R.range(0, 4));
    for (int I = 0; I < D; ++I)
      Src += std::to_string(R.range(0, 9)) + " ";
    int L = static_cast<int>(R.range(3, 25));
    for (int I = 0; I < L; ++I) {
      if (R.chance(1, 4))
        Src += std::to_string(R.range(0, 9)) + " ";
      else
        Src += std::string(Ops[R.below(std::size(Ops))]) + " ";
    }
    Src += ";";
    SCOPED_TRACE(Src);
    forth::System Sys;
    ASSERT_TRUE(Sys.load(Src));
    TwoRuns Both = runBoth(Sys);
    EXPECT_LE(Both.OptimalSize, Both.GreedySize);
    if (Both.OptimalSize < Both.GreedySize)
      ++OptimalWins;
    EXPECT_EQ(Both.Greedy.Status, Both.Optimal.Status);
    EXPECT_EQ(Both.GreedyDS, Both.OptimalDS);
    EXPECT_EQ(Both.GreedyOut, Both.OptimalOut);
  }
  EXPECT_GT(OptimalWins, 0)
      << "lookahead should win somewhere in 300 random programs";
}

TEST(OptimalCodegen, ControlFlowAgrees) {
  const char *Programs[] = {
      ": main 0 10 0 do i dup * + loop ;",
      ": fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ; "
      ": main 13 fib ;",
      ": main 1 if 2 3 swap else 4 5 drop then ;",
      ": main 0 begin 1+ dup 6 >= until ;",
  };
  for (const char *Src : Programs) {
    SCOPED_TRACE(Src);
    auto Sys = forth::loadOrDie(Src);
    auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
    SpecProgram SP = compileStatic(Sys->Prog, optimalOpts());
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    RunOutcome O = runStaticEngine(SP, Ctx, Sys->entryOf("main"));
    EXPECT_EQ(O.Status, Ref.Outcome.Status);
    std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
    EXPECT_EQ(DS, Ref.DS);
  }
}

TEST(OptimalCodegen, TrapsMatchReference) {
  auto Sys = forth::loadOrDie(": main 3 0 / ;");
  SpecProgram SP = compileStatic(Sys->Prog, optimalOpts());
  Vm Copy = Sys->Machine;
  ExecContext Ctx(Sys->Prog, Copy);
  EXPECT_EQ(runStaticEngine(SP, Ctx, Sys->entryOf("main")).Status,
            RunStatus::DivByZero);
}

} // namespace
