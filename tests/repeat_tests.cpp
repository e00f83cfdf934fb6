//===-- tests/repeat_tests.cpp - Run-to-run determinism tests -------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every engine must be a pure function of its inputs: running the same
/// word twice on identical ExecContext/Vm state has to produce identical
/// outcomes, output, final stacks and (in -DSC_STATS=ON builds)
/// execution counters. This guards against residual state hiding in an
/// engine between runs — e.g. the call-threaded engine's static register
/// block, which once leaked state from a previous (possibly faulted) run
/// into the next one. Each engine is therefore also exercised as
/// fault-then-clean: a trapping run in between must not perturb the
/// following clean run.
///
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "forth/Forth.h"
#include "metrics/Counters.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::vm;

namespace {

/// Everything observable about one run.
struct Snapshot {
  RunOutcome Outcome;
  std::string Output;
  std::vector<Cell> DS;
  metrics::Counters Stats;
};

/// Runs \p E on a fresh copy of \p Sys's machine — the identical
/// starting pattern every time it is called.
Snapshot runOnce(const forth::System &Sys, engine::EngineId E,
                 uint32_t Entry) {
  Snapshot S;
  Vm Copy = Sys.Machine;
  Copy.resetOutput();
  ExecContext Ctx(Sys.Prog, Copy);
  Ctx.Stats = &S.Stats;
  engine::RunOptions Opts;
  Opts.Entry = Entry;
  S.Outcome = engine::runEngine(E, Sys.Prog, Ctx, Opts);
  S.Output = Copy.Out;
  S.DS.assign(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  return S;
}

void expectIdentical(const Snapshot &A, const Snapshot &B,
                     const char *Engine, const char *What) {
  EXPECT_EQ(A.Outcome.Status, B.Outcome.Status) << Engine << ": " << What;
  EXPECT_EQ(A.Outcome.Steps, B.Outcome.Steps) << Engine << ": " << What;
  EXPECT_EQ(A.Outcome.Fault, B.Outcome.Fault) << Engine << ": " << What;
  EXPECT_EQ(A.Output, B.Output) << Engine << ": " << What;
  EXPECT_EQ(A.DS, B.DS) << Engine << ": " << What;
  EXPECT_EQ(A.Stats, B.Stats) << Engine << ": " << What
                              << " (counters diverged)";
}

class RepeatTest : public ::testing::TestWithParam<engine::EngineId> {};

INSTANTIATE_TEST_SUITE_P(
    Engines, RepeatTest,
    ::testing::ValuesIn(tests::registryEngines()), tests::engineParamName);

} // namespace

TEST_P(RepeatTest, BackToBackRunsAreIdentical) {
  const engine::EngineId E = GetParam();
  const char *Name = engine::engineName(E);
  auto Sys = forth::loadOrDie(
      ": main 0 100 0 do i dup * + loop 1 2 3 rot swap drop + + . cr ;");
  uint32_t Entry = Sys->entryOf("main");

  Snapshot First = runOnce(*Sys, E, Entry);
  ASSERT_EQ(First.Outcome.Status, RunStatus::Halted) << Name;
  if (metrics::statsEnabled())
    EXPECT_GT(First.Stats.totalDispatch(), 0u) << Name;
  Snapshot Second = runOnce(*Sys, E, Entry);
  expectIdentical(First, Second, Name, "second run");
}

TEST_P(RepeatTest, FaultingRunLeavesNoResidue) {
  const engine::EngineId E = GetParam();
  const char *Name = engine::engineName(E);
  auto Clean = forth::loadOrDie(": main 2 3 + 4 * . cr ;");
  uint32_t CleanEntry = Clean->entryOf("main");

  // Deep into a computation, trap every way a guest program can.
  const char *Faulty[] = {
      ": main 5 1 0 / ;",        // DivByZero with operands on the stack
      ": main 1 2 + drop drop ;" // StackUnderflow mid-expression
  };

  Snapshot Before = runOnce(*Clean, E, CleanEntry);
  ASSERT_EQ(Before.Outcome.Status, RunStatus::Halted) << Name;

  for (const char *Src : Faulty) {
    auto Bad = forth::loadOrDie(Src);
    Snapshot Fault = runOnce(*Bad, E, Bad->entryOf("main"));
    EXPECT_NE(Fault.Outcome.Status, RunStatus::Halted)
        << Name << ": expected a trap from " << Src;
    // The faulted run must also be reproducible...
    Snapshot FaultAgain = runOnce(*Bad, E, Bad->entryOf("main"));
    expectIdentical(Fault, FaultAgain, Name, Src);
    // ...and must not contaminate the next clean run.
    Snapshot After = runOnce(*Clean, E, CleanEntry);
    expectIdentical(Before, After, Name, "clean run after fault");
  }
}

TEST_P(RepeatTest, WorkloadsRepeatDeterministically) {
  const engine::EngineId E = GetParam();
  const char *Name = engine::engineName(E);
  size_t N;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  ASSERT_GT(N, 0u);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    uint32_t Entry = Sys->entryOf(W[I].Entry);
    Snapshot First = runOnce(*Sys, E, Entry);
    ASSERT_EQ(First.Outcome.Status, RunStatus::Halted)
        << Name << " on " << W[I].Name;
    EXPECT_EQ(First.Output, W[I].Expected) << Name << " on " << W[I].Name;
    Snapshot Again = runOnce(*Sys, E, Entry);
    expectIdentical(First, Again, Name, W[I].Name);
  }
}
