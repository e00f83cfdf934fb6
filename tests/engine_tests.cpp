//===-- tests/engine_tests.cpp - Differential engine tests ----------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every engine implements the same virtual machine; these tests run the
/// same programs under all dispatch techniques and require identical
/// results: same status, same step count, same final stack, same output.
///
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "forth/Forth.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::forth;
using namespace sc::vm;
using sc::engine::EngineId;

namespace {

const std::vector<EngineId> ReferenceEngines = sc::tests::referenceEngines();

/// Runs \p Src's word \p Name under every engine and checks they agree
/// with the switch engine (the reference).
void checkAllEnginesAgree(const char *Src, const char *Name = "main",
                          uint64_t MaxSteps = UINT64_MAX) {
  auto Sys = loadOrDie(Src);
  RunReport Ref = Sys->runIsolated(Name, EngineId::Switch, MaxSteps);
  for (EngineId K : ReferenceEngines) {
    RunReport R = Sys->runIsolated(Name, K, MaxSteps);
    EXPECT_EQ(R.Outcome.Status, Ref.Outcome.Status)
        << sc::engine::engineName(K);
    EXPECT_EQ(R.Outcome.Steps, Ref.Outcome.Steps) << sc::engine::engineName(K);
    EXPECT_EQ(R.DS, Ref.DS) << sc::engine::engineName(K);
    EXPECT_EQ(R.Output, Ref.Output) << sc::engine::engineName(K);
  }
}

/// The suite's parameter: a reference engine's registry id held in four
/// bytes. It has no gtest printer, so each ctest name ends in gtest's dump
/// of those bytes ("4-byte object <02-00 00-00>"), the names this suite
/// has always had; the dump holds no address, so every build gives the
/// same names.
struct RefEngine {
  uint32_t Id;
};

std::vector<RefEngine> refEngineParams() {
  std::vector<RefEngine> Out;
  for (EngineId E : ReferenceEngines)
    Out.push_back({static_cast<uint32_t>(E)});
  return Out;
}

class AllEnginesTest : public ::testing::TestWithParam<RefEngine> {
protected:
  static EngineId engineId() { return static_cast<EngineId>(GetParam().Id); }
};

INSTANTIATE_TEST_SUITE_P(
    Engines, AllEnginesTest, ::testing::ValuesIn(refEngineParams()),
    [](const ::testing::TestParamInfo<RefEngine> &Info) {
      return sc::tests::engineTestName(static_cast<EngineId>(Info.param.Id));
    });

TEST_P(AllEnginesTest, Arithmetic) {
  auto Sys = loadOrDie(": main 2 3 + 4 * 5 - ;");
  RunReport R = Sys->runIsolated("main", engineId());
  EXPECT_EQ(R.Outcome.Status, RunStatus::Halted);
  EXPECT_EQ(R.DS, (std::vector<Cell>{15}));
}

TEST_P(AllEnginesTest, DeepStackShuffles) {
  auto Sys = loadOrDie(": main 1 2 3 4 5 rot tuck 2dup over nip ;");
  RunReport Ref = Sys->runIsolated("main", EngineId::Switch);
  RunReport R = Sys->runIsolated("main", engineId());
  EXPECT_EQ(R.DS, Ref.DS);
}

TEST_P(AllEnginesTest, Fibonacci) {
  auto Sys = loadOrDie(
      ": fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ; "
      ": main 15 fib ;");
  RunReport R = Sys->runIsolated("main", engineId());
  EXPECT_EQ(R.Outcome.Status, RunStatus::Halted);
  EXPECT_EQ(R.DS, (std::vector<Cell>{610}));
}

TEST_P(AllEnginesTest, LoopsAndMemory) {
  auto Sys = loadOrDie("create tbl 10 cells allot "
                       ": fill 10 0 do i i * tbl i cells + ! loop ; "
                       ": sum 0 10 0 do tbl i cells + @ + loop ; "
                       ": main fill sum ;");
  RunReport R = Sys->runIsolated("main", engineId());
  EXPECT_EQ(R.Outcome.Status, RunStatus::Halted);
  EXPECT_EQ(R.DS, (std::vector<Cell>{285}));
}

TEST_P(AllEnginesTest, Output) {
  auto Sys = loadOrDie(": main 3 0 do .\" x\" loop 42 . cr ;");
  RunReport R = Sys->runIsolated("main", engineId());
  EXPECT_EQ(R.Output, "xxx42 \n");
}

TEST_P(AllEnginesTest, EmptyStackUnderflowTrap) {
  auto Sys = loadOrDie(": main drop ;");
  RunReport R = Sys->runIsolated("main", engineId());
  EXPECT_EQ(R.Outcome.Status, RunStatus::StackUnderflow);
}

TEST_P(AllEnginesTest, DivByZeroTrap) {
  auto Sys = loadOrDie(": main 3 0 mod ;");
  RunReport R = Sys->runIsolated("main", engineId());
  EXPECT_EQ(R.Outcome.Status, RunStatus::DivByZero);
}

TEST_P(AllEnginesTest, StepLimitTrap) {
  auto Sys = loadOrDie(": main begin again ;");
  RunReport R = Sys->runIsolated("main", engineId(), 500);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StepLimit);
  EXPECT_EQ(R.Outcome.Steps, 500u);
}

TEST_P(AllEnginesTest, SeededArgumentsSurvive) {
  // Engines must accept a pre-seeded data stack and leave results there.
  auto Sys = loadOrDie(": addtwo + ;");
  Vm Copy = Sys->Machine;
  ExecContext Ctx(Sys->Prog, Copy);
  Ctx.push(30);
  Ctx.push(12);
  sc::engine::RunOptions Opts;
  Opts.Entry = Sys->entryOf("addtwo");
  RunOutcome O = sc::engine::runEngine(engineId(), Sys->Prog, Ctx, Opts);
  EXPECT_EQ(O.Status, RunStatus::Halted);
  ASSERT_EQ(Ctx.DsDepth, 1u);
  EXPECT_EQ(Ctx.DS[0], 42);
}

TEST(EngineAgreement, MixedWorkload) {
  checkAllEnginesAgree(
      "variable acc "
      ": step dup dup * acc +! 1+ ; "
      ": main 0 acc ! 1 100 0 do step loop drop acc @ ;");
}

TEST(EngineAgreement, StringProcessing) {
  checkAllEnginesAgree(
      "create buf 64 allot "
      ": upcase 64 0 do buf i + c@ dup [char] a >= over [char] z <= and if "
      "32 - then buf i + c! loop ; "
      ": main s\" Hello, World\" buf swap 0 do over i + c@ buf i + c! loop "
      "drop upcase buf 12 type ;");
}

TEST(EngineAgreement, NegativeNumbers) {
  checkAllEnginesAgree(": main -7 abs -7 negate -1 invert 5 -3 min ;");
}

TEST(EngineAgreement, ShiftOps) {
  checkAllEnginesAgree(
      ": main 1 10 lshift -8 1 rshift 3 2* 7 2/ 100 lshift 1 64 lshift ;");
}

TEST(EngineAgreement, RandomPrograms) {
  // Property: the four engines agree on randomly generated straight-line
  // arithmetic with a random seeded stack.
  Rng R(0xdecafbad);
  const char *Ops[] = {"+",    "-",   "*",    "dup",  "swap", "over",
                       "rot",  "nip", "tuck", "drop", "max",  "min",
                       "2dup", "1+",  "abs",  "xor",  "and",  "or"};
  for (int Iter = 0; Iter < 40; ++Iter) {
    std::string Src = ": main ";
    // Seed enough literals that underflow is rare but possible.
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
    SCOPED_TRACE(Src);
    checkAllEnginesAgree(Src.c_str());
  }
}

} // namespace
