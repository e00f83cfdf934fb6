//===-- tests/dynamic_tests.cpp - Dynamic caching engine tests ------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the two executable realizations of dynamic stack caching:
/// the value-level model interpreter (any register count / followup
/// state) and the 3-state computed-goto engine. Both must behave exactly
/// like the reference engines, and the model's event counts must equal
/// the analytic trace simulation - this is the bridge between the paper's
/// simulated numbers and real execution.
///
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "dynamic/ModelInterpreter.h"
#include "forth/Forth.h"
#include "trace/Capture.h"
#include "trace/Simulators.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::dynamic;
using namespace sc::vm;

namespace {

/// Runs `main` of \p Src under the model interpreter with shadow checks.
ModelOutcome runModel(const forth::System &Sys, const ModelConfig &Config,
                      std::string *Output = nullptr,
                      std::vector<Cell> *DS = nullptr,
                      uint64_t MaxSteps = UINT64_MAX) {
  Vm Copy = Sys.Machine;
  Copy.resetOutput();
  ExecContext Ctx(Sys.Prog, Copy);
  Ctx.MaxSteps = MaxSteps;
  ModelOutcome R = runModelInterpreter(Ctx, Sys.entryOf("main"), Config);
  if (Output)
    *Output = Copy.Out;
  if (DS)
    DS->assign(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  return R;
}

// --- Model interpreter -------------------------------------------------------

struct ModelParam {
  unsigned Regs;
  unsigned Followup;
};

class ModelPolicyTest : public ::testing::TestWithParam<ModelParam> {};

INSTANTIATE_TEST_SUITE_P(
    Policies, ModelPolicyTest,
    ::testing::Values(ModelParam{1, 0}, ModelParam{1, 1}, ModelParam{2, 1},
                      ModelParam{2, 2}, ModelParam{3, 1}, ModelParam{4, 2},
                      ModelParam{4, 4}, ModelParam{6, 3}, ModelParam{8, 6}),
    [](const ::testing::TestParamInfo<ModelParam> &Info) {
      return "r" + std::to_string(Info.param.Regs) + "_f" +
             std::to_string(Info.param.Followup);
    });

TEST_P(ModelPolicyTest, MatchesReferenceOnMixedProgram) {
  auto Sys = forth::loadOrDie(
      "variable acc "
      ": step dup dup * acc +! 1+ ; "
      ": main 0 acc ! 1 50 0 do step loop drop acc @ "
      "  1 2 3 4 5 rot tuck over nip + + + + + + ;");
  auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
  ModelConfig Cfg;
  Cfg.Policy = {GetParam().Regs, GetParam().Followup};
  Cfg.VerifyShadow = true;
  std::string Out;
  std::vector<Cell> DS;
  ModelOutcome R = runModel(*Sys, Cfg, &Out, &DS);
  EXPECT_EQ(R.Outcome.Status, Ref.Outcome.Status);
  EXPECT_EQ(R.Outcome.Steps, Ref.Outcome.Steps);
  EXPECT_EQ(DS, Ref.DS);
  EXPECT_EQ(Out, Ref.Output);
}

TEST_P(ModelPolicyTest, CountsMatchAnalyticSimulation) {
  auto Sys = forth::loadOrDie(
      ": fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ; "
      ": main 12 fib drop 10 0 do i i * drop loop ;");
  trace::Trace T = trace::captureTrace(*Sys, "main");
  cache::MinimalPolicy P{GetParam().Regs, GetParam().Followup};
  cache::Counts Analytic = trace::simulateDynamic(T, P);

  ModelConfig Cfg;
  Cfg.Policy = P;
  Cfg.VerifyShadow = true;
  ModelOutcome R = runModel(*Sys, Cfg);
  EXPECT_EQ(R.Costs.Loads, Analytic.Loads);
  EXPECT_EQ(R.Costs.Stores, Analytic.Stores);
  EXPECT_EQ(R.Costs.Moves, Analytic.Moves);
  EXPECT_EQ(R.Costs.SpUpdates, Analytic.SpUpdates);
  EXPECT_EQ(R.Costs.Overflows, Analytic.Overflows);
  EXPECT_EQ(R.Costs.Underflows, Analytic.Underflows);
  EXPECT_EQ(R.Costs.Insts, Analytic.Insts);
}

TEST(ModelInterpreter, WorkloadChecksums) {
  size_t N;
  auto *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    ModelConfig Cfg;
    Cfg.Policy = {3, 2};
    Cfg.VerifyShadow = false; // full-size runs; shadow is O(depth)/inst
    std::string Out;
    ModelOutcome R = runModel(*Sys, Cfg, &Out);
    EXPECT_EQ(R.Outcome.Status, RunStatus::Halted) << W[I].Name;
    EXPECT_EQ(Out, W[I].Expected) << W[I].Name;
  }
}

TEST(ModelInterpreter, CountsMatchAnalyticOnWorkload) {
  auto *W = workloads::findWorkload("cross");
  ASSERT_NE(W, nullptr);
  auto Sys = forth::loadOrDie(W->Source);
  trace::Trace T = trace::captureTrace(*Sys, "main");
  cache::MinimalPolicy P{4, 2};
  cache::Counts Analytic = trace::simulateDynamic(T, P);
  ModelConfig Cfg;
  Cfg.Policy = P;
  ModelOutcome R = runModel(*Sys, Cfg);
  EXPECT_EQ(R.Costs.Loads, Analytic.Loads);
  EXPECT_EQ(R.Costs.Stores, Analytic.Stores);
  EXPECT_EQ(R.Costs.Moves, Analytic.Moves);
  EXPECT_EQ(R.Costs.SpUpdates, Analytic.SpUpdates);
}

TEST(ModelInterpreter, TrapsLikeReference) {
  auto Sys = forth::loadOrDie(": main 1 0 / ;");
  ModelConfig Cfg;
  Cfg.Policy = {2, 1};
  ModelOutcome R = runModel(*Sys, Cfg);
  EXPECT_EQ(R.Outcome.Status, RunStatus::DivByZero);
}

TEST(ModelInterpreter, StepLimit) {
  auto Sys = forth::loadOrDie(": main begin again ;");
  ModelConfig Cfg;
  Cfg.Policy = {2, 1};
  ModelOutcome R = runModel(*Sys, Cfg, nullptr, nullptr, 100);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StepLimit);
  EXPECT_EQ(R.Outcome.Steps, 100u);
}

// --- 3-state computed-goto engine ---------------------------------------------

TEST(Dynamic3, WorkloadChecksums) {
  size_t N;
  auto *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    Vm Copy = Sys->Machine;
    Copy.resetOutput();
    ExecContext Ctx(Sys->Prog, Copy);
    RunOutcome O = tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                                  Sys->entryOf("main"));
    EXPECT_EQ(O.Status, RunStatus::Halted) << W[I].Name;
    EXPECT_EQ(Copy.Out, W[I].Expected) << W[I].Name;
    EXPECT_EQ(Ctx.DsDepth, 0u) << W[I].Name;
  }
}

TEST(Dynamic3, AgreesWithReferenceStepForStep) {
  const char *Programs[] = {
      ": main 2 3 + 4 * 5 - ;",
      ": main 1 2 3 4 5 rot tuck 2dup over nip ;",
      ": fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ; "
      ": main 15 fib ;",
      "create tbl 10 cells allot "
      ": main 10 0 do i i * tbl i cells + ! loop 0 10 0 do tbl i cells + @ "
      "+ loop ;",
      ": main 0 100 0 do i 3 mod + loop ;",
      ": main 5 >r 10 r@ + r> + ;",
      ": main s\" abc\" type 42 . cr ;",
      ": main -17 abs -17 negate min -100 max ;",
  };
  for (const char *Src : Programs) {
    SCOPED_TRACE(Src);
    auto Sys = forth::loadOrDie(Src);
    auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
    Vm Copy = Sys->Machine;
    Copy.resetOutput();
    ExecContext Ctx(Sys->Prog, Copy);
    RunOutcome O = tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                                  Sys->entryOf("main"));
    EXPECT_EQ(O.Status, Ref.Outcome.Status);
    EXPECT_EQ(O.Steps, Ref.Outcome.Steps);
    std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
    EXPECT_EQ(DS, Ref.DS);
    EXPECT_EQ(Copy.Out, Ref.Output);
  }
}

TEST(Dynamic3, TrapsWriteBackCache) {
  // Trap in state 2 (two cached items): both must appear on the stack.
  auto Sys = forth::loadOrDie(": main 7 8 0 @ ;"); // bad fetch at TOS
  Vm Copy = Sys->Machine;
  ExecContext Ctx(Sys->Prog, Copy);
  RunOutcome O = tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                                Sys->entryOf("main"));
  EXPECT_EQ(O.Status, RunStatus::BadMemAccess);
  // 7 and 8 were pushed; the 0 was consumed by the faulting @.
  ASSERT_EQ(Ctx.DsDepth, 2u);
  EXPECT_EQ(Ctx.DS[0], 7);
  EXPECT_EQ(Ctx.DS[1], 8);
}

TEST(Dynamic3, RareOpsGoThroughSpillShims) {
  // rot/2dup/+loop have no specialized copies; they run in state 0 after
  // a shim spill and must still compute correctly.
  auto Sys = forth::loadOrDie(
      ": main 1 2 3 rot 2dup + + + 0 10 0 do 1+ 2 +loop + ;");
  auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);
  Vm Copy = Sys->Machine;
  ExecContext Ctx(Sys->Prog, Copy);
  RunOutcome O = tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                                Sys->entryOf("main"));
  EXPECT_EQ(O.Status, RunStatus::Halted);
  std::vector<Cell> DS(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  EXPECT_EQ(DS, Ref.DS);
  EXPECT_EQ(O.Steps, Ref.Outcome.Steps);
}

TEST(Dynamic3, StepLimitCountsLikeReference) {
  auto Sys = forth::loadOrDie(": main begin 1 drop again ;");
  Vm Copy = Sys->Machine;
  ExecContext Ctx(Sys->Prog, Copy);
  Ctx.MaxSteps = 777;
  RunOutcome O = tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                                Sys->entryOf("main"));
  EXPECT_EQ(O.Status, RunStatus::StepLimit);
  EXPECT_EQ(O.Steps, 777u);
}

TEST(Dynamic3, UnderflowTrap) {
  auto Sys = forth::loadOrDie(": main + ;");
  Vm Copy = Sys->Machine;
  ExecContext Ctx(Sys->Prog, Copy);
  RunOutcome O = tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                                Sys->entryOf("main"));
  EXPECT_EQ(O.Status, RunStatus::StackUnderflow);
}

} // namespace
