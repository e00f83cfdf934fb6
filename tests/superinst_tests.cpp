//===-- tests/superinst_tests.cpp - Superinstruction pass tests -----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "forth/Forth.h"
#include "staticcache/StaticEngine.h"
#include "staticcache/StaticSpec.h"
#include "superinst/Superinst.h"
#include "support/Rng.h"
#include "trace/Capture.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::superinst;
using namespace sc::vm;

namespace {

/// Runs `main` of the original and the combined code on the same engine
/// and expects identical behaviour with fewer executed instructions.
void checkCombined(const char *Src, bool ExpectFusion = true) {
  SCOPED_TRACE(Src);
  auto Sys = forth::loadOrDie(Src);
  CombineResult R = combineSuperinstructions(Sys->Prog);
  std::string Err;
  ASSERT_TRUE(R.Combined.verify(&Err)) << Err;
  if (ExpectFusion) {
    EXPECT_GT(R.PairsCombined, 0u);
  }

  auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
  for (auto K : {engine::EngineId::Switch, engine::EngineId::Threaded,
                 engine::EngineId::ThreadedTos}) {
    Vm Copy = Sys->Machine;
    Copy.resetOutput();
    ExecContext Ctx(R.Combined, Copy);
    const Word *W = R.Combined.findWord("main");
    ASSERT_NE(W, nullptr);
    engine::RunOptions Opts;
    Opts.Entry = W->Entry;
    RunOutcome O =
        engine::runEngine(K, R.Combined, Ctx, Opts);
    EXPECT_EQ(O.Status, Ref.Outcome.Status) << engine::engineName(K);
    std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
    EXPECT_EQ(DS, Ref.DS) << engine::engineName(K);
    EXPECT_EQ(Copy.Out, Ref.Output) << engine::engineName(K);
    if (ExpectFusion) {
      EXPECT_LT(O.Steps, Ref.Outcome.Steps) << engine::engineName(K);
    }
  }
}

TEST(Superinst, FusesLitAdd) {
  auto Sys = forth::loadOrDie(": main 40 2 + ;");
  CombineResult R = combineSuperinstructions(Sys->Prog);
  // `40` stays a lit (its successor is another lit); `2 +` fuses.
  EXPECT_EQ(R.PairsCombined, 1u);
  bool Found = false;
  for (const Inst &In : R.Combined.Insts)
    if (In.Op == Opcode::LitAdd && In.Operand == 2)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Superinst, VariableAccessBecomesOneInstruction) {
  // `x @` compiles to `lit addr; @` and fuses to `lit@ addr` - the
  // paper's "specializing an instruction for a frequent constant
  // argument".
  auto Sys = forth::loadOrDie("variable x : main 5 x ! x @ ;");
  CombineResult R = combineSuperinstructions(Sys->Prog);
  unsigned Fetches = 0, Stores = 0;
  for (const Inst &In : R.Combined.Insts) {
    Fetches += In.Op == Opcode::LitFetch ? 1 : 0;
    Stores += In.Op == Opcode::LitStore ? 1 : 0;
  }
  EXPECT_EQ(Fetches, 1u);
  EXPECT_EQ(Stores, 1u);
}

TEST(Superinst, DoesNotFuseAcrossBranchTargets) {
  // The `1 +` after THEN: `1` is preceded by a branch target? Construct a
  // case where the consumer is a branch target: `if ... then +` - the +
  // following THEN is a leader and must not be fused with a lit before
  // the branch.
  auto Sys = forth::loadOrDie(": main 10 1 0 if 2 drop then + ;");
  CombineResult R = combineSuperinstructions(Sys->Prog);
  auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
  Vm Copy = Sys->Machine;
  ExecContext Ctx(R.Combined, Copy);
  engine::RunOptions Opts;
  Opts.Entry = R.Combined.findWord("main")->Entry;
  RunOutcome O =
      engine::runEngine(engine::EngineId::Switch, R.Combined, Ctx, Opts);
  EXPECT_EQ(O.Status, Ref.Outcome.Status);
  std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  EXPECT_EQ(DS, Ref.DS);
}

TEST(Superinst, BasicPrograms) {
  checkCombined(": main 10 2 + 3 - 4 < ;");
  checkCombined("variable x : main 7 x ! x @ 1 + x ! x @ ;");
  checkCombined(": main 0 100 0 do 3 + loop ;");
  checkCombined(": main 5 5 = if 1 else 2 then ;");
}

TEST(Superinst, WorkloadChecksums) {
  size_t N;
  auto *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    CombineResult R = combineSuperinstructions(Sys->Prog);
    EXPECT_GT(R.PairsCombined, 0u) << W[I].Name;
    Vm Copy = Sys->Machine;
    Copy.resetOutput();
    ExecContext Ctx(R.Combined, Copy);
    engine::RunOptions Opts;
    Opts.Entry = R.Combined.findWord("main")->Entry;
    RunOutcome O =
        engine::runEngine(engine::EngineId::Threaded, R.Combined, Ctx, Opts);
    EXPECT_EQ(O.Status, RunStatus::Halted) << W[I].Name;
    EXPECT_EQ(Copy.Out, W[I].Expected) << W[I].Name;
  }
}

TEST(Superinst, ComposesWithStaticCaching) {
  // Semantic content and argument access are independent axes: the
  // static pass runs on combined code (superinstructions take the
  // generic path) and everything still agrees.
  auto Sys = forth::loadOrDie(
      "variable x : main 7 x ! 0 50 0 do x @ + 1 x +! loop x @ + ;");
  auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
  CombineResult R = combineSuperinstructions(Sys->Prog);
  staticcache::SpecProgram SP = staticcache::compileStatic(R.Combined);
  Vm Copy = Sys->Machine;
  ExecContext Ctx(R.Combined, Copy);
  RunOutcome O = staticcache::runStaticEngine(
      SP, Ctx, R.Combined.findWord("main")->Entry);
  EXPECT_EQ(O.Status, Ref.Outcome.Status);
  std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  EXPECT_EQ(DS, Ref.DS);
}

TEST(Superinst, ComposesWithDynamicCaching) {
  auto Sys = forth::loadOrDie(": main 0 30 0 do 2 + 1 - loop ;");
  auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
  CombineResult R = combineSuperinstructions(Sys->Prog);
  Vm Copy = Sys->Machine;
  ExecContext Ctx(R.Combined, Copy);
  RunOutcome O =
      tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                     R.Combined.findWord("main")->Entry);
  EXPECT_EQ(O.Status, Ref.Outcome.Status);
  std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  EXPECT_EQ(DS, Ref.DS);
}

TEST(Superinst, RandomProgramsAgree) {
  Rng R(0x50133701);
  const char *Ops[] = {"+", "-", "<", "=", "dup", "swap", "drop", "1+"};
  for (int Iter = 0; Iter < 50; ++Iter) {
    std::string Src = ": main 1 2 3 ";
    int L = static_cast<int>(R.range(5, 25));
    for (int I = 0; I < L; ++I) {
      if (R.chance(1, 3))
        Src += std::to_string(R.range(-9, 9)) + " ";
      else
        Src += std::string(Ops[R.below(std::size(Ops))]) + " ";
    }
    Src += ";";
    SCOPED_TRACE(Src);
    auto Sys = forth::loadOrDie(Src);
    CombineResult C = combineSuperinstructions(Sys->Prog);
    auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
    Vm Copy = Sys->Machine;
    ExecContext Ctx(C.Combined, Copy);
    engine::RunOptions Opts;
    Opts.Entry = C.Combined.findWord("main")->Entry;
    RunOutcome O =
        engine::runEngine(engine::EngineId::Switch, C.Combined, Ctx, Opts);
    EXPECT_EQ(O.Status, Ref.Outcome.Status);
    std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
    EXPECT_EQ(DS, Ref.DS);
  }
}

TEST(Superinst, HiddenFromTheDictionary) {
  forth::System Sys;
  EXPECT_FALSE(Sys.load(": main 1 lit+ ;"))
      << "superinstructions must not be user-visible";
}

} // namespace
