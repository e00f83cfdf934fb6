//===-- tests/session_tests.cpp - Preemption, resume, supervision ---------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resume contract and the session layer on top of it. The first
/// half proves the contract differentially: for every engine and every
/// slice length, preempting a run at each StepLimit stop and re-entering
/// at the recorded PC — on the same engine or a rotating mix — is
/// observationally identical to an uninterrupted run, on clean runs and
/// on runs driven into every fault class. The second half pins VmSession
/// semantics: fuel, deadlines, cross-thread cancellation, fault
/// confirmation (confirmed / refuted / inconclusive) and process-wide
/// quarantine, plus a many-thread stress over one shared PrepareCache.
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "harness/FaultInject.h"
#include "metrics/Counters.h"
#include "prepare/PrepareCache.h"
#include "session/VmSession.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

using namespace sc;
using namespace sc::vm;
using namespace sc::session;

namespace {

/// Calls, branches, arithmetic, memory traffic and output in a few
/// hundred steps: small enough for exhaustive slice sweeps, rich enough
/// that every engine's cache states and reconciliations are exercised.
constexpr const char *SliceProgramSrc = R"(
variable acc
: sq dup * ;
: tri dup sq swap + ;
: step acc @ + acc ! ;
: main
  0 acc !
  7 0 do i tri step loop
  acc @ .
  5 begin dup 0 > while dup sq step 1 - repeat drop
  acc @ . ;
)";

/// Faults with DivByZero after some real work (so fault slices resume a
/// few times before trapping).
constexpr const char *FaultProgramSrc = R"(
: burn 6 0 do i drop loop ;
: main burn 10 3 - 3 - 4 - 1 swap / . ;
)";

/// Never halts; the only way out is supervision.
constexpr const char *SpinProgramSrc = ": main begin 1 drop again ;";

constexpr prepare::EngineId AllPrepareEngines[] = {
    prepare::EngineId::Switch,        prepare::EngineId::Threaded,
    prepare::EngineId::CallThreaded,  prepare::EngineId::ThreadedTos,
    prepare::EngineId::Dynamic3,      prepare::EngineId::StaticGreedy,
    prepare::EngineId::StaticOptimal,
};

bool isStaticFlavor(prepare::EngineId E) {
  return E == prepare::EngineId::StaticGreedy ||
         E == prepare::EngineId::StaticOptimal;
}

/// A session over a fresh prepared translation of \p Sys's program.
struct SessionFixture {
  std::unique_ptr<forth::System> Sys;
  Vm Machine; // session-owned copy; the System stays pristine
  std::shared_ptr<const prepare::PreparedCode> PC;
  std::unique_ptr<VmSession> S;

  SessionFixture(const char *Src, prepare::EngineId E,
                 SessionPolicy Policy = {}) {
    Sys = forth::loadOrDie(Src);
    Machine = Sys->Machine;
    Machine.resetOutput();
    PC = prepare::prepareCode(Sys->Prog, E);
    S = std::make_unique<VmSession>(PC, Machine, Policy);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Differential slice tests: sliced == one-shot, all engines
//===----------------------------------------------------------------------===//

TEST(SliceDifferential, EverySliceLengthEveryEngine) {
  auto Sys = forth::loadOrDie(SliceProgramSrc);
  harness::InjectReport R = harness::sweepSliceBoundaries(*Sys, "main");
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
  EXPECT_GT(R.Points, 0u);
}

TEST(SliceDifferential, FaultingProgram) {
  // The guest traps DivByZero; every slice length must surface the
  // identical fault, and the mixed rotations must agree with Switch.
  auto Sys = forth::loadOrDie(FaultProgramSrc);
  harness::InjectReport R = harness::sweepSliceBoundaries(*Sys, "main");
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
  EXPECT_GT(R.Faults, 0u);
}

TEST(SliceDifferential, SlicedFaultMatrix) {
  // Step-limit and capacity faults must land identically when the run
  // is preempted every 3 steps on the way there.
  auto Sys = forth::loadOrDie(SliceProgramSrc);
  harness::InjectReport R = harness::sweepSlicedFaults(*Sys, "main");
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
  EXPECT_GT(R.Faults, 0u);
}

TEST(SliceDifferential, WorkloadSpotCheck) {
  // One real workload at a few coarse slice lengths (the exhaustive
  // sweep would take total-steps^2 runs). Rotation crosses engine
  // families on every boundary.
  auto *W = workloads::findWorkload("cross");
  ASSERT_NE(W, nullptr);
  auto Sys = forth::loadOrDie(W->Source);
  const uint32_t Entry = Sys->entryOf(W->Entry);
  harness::EngineObservation Ref =
      harness::observeEngine(*Sys, Sys->Prog, Entry, harness::EngineId::Switch,
                             {});
  ASSERT_EQ(Ref.Outcome.Status, RunStatus::Halted);
  const std::vector<harness::EngineId> Rotation = {
      harness::EngineId::Threaded, harness::EngineId::StaticGreedy,
      harness::EngineId::Dynamic3, harness::EngineId::ThreadedTos,
      harness::EngineId::StaticOptimal};
  for (uint64_t Slice : {uint64_t(97), uint64_t(1024)}) {
    harness::EngineObservation Sliced = harness::observeEngineSliced(
        *Sys, Sys->Prog, Entry, Rotation, Slice, {});
    std::string D = harness::compareObservations(
        Ref, Sliced, harness::EngineId::StaticGreedy);
    EXPECT_TRUE(D.empty()) << "slice=" << Slice << ": " << D;
    EXPECT_EQ(Sliced.Out, W->Expected);
  }
}

TEST(SliceDifferential, ComparatorCatchesTampering) {
  auto Sys = forth::loadOrDie(SliceProgramSrc);
  const uint32_t Entry = Sys->entryOf("main");
  harness::EngineObservation A = harness::observeEngine(
      *Sys, Sys->Prog, Entry, harness::EngineId::Threaded, {});
  harness::EngineObservation B = A;
  EXPECT_TRUE(
      harness::compareSlicedObservation(A, B, harness::EngineId::Threaded)
          .empty());
  B.Outcome.Steps += 1;
  EXPECT_FALSE(
      harness::compareSlicedObservation(A, B, harness::EngineId::Threaded)
          .empty());
  B = A;
  B.RS.push_back(42); // a resumed run that forgot the sentinel shows here
  EXPECT_FALSE(
      harness::compareSlicedObservation(A, B, harness::EngineId::Threaded)
          .empty());
}

//===----------------------------------------------------------------------===//
// VmSession: completion, fuel, deadline, cancellation
//===----------------------------------------------------------------------===//

TEST(VmSession, RunsToCompletionInSlices) {
  // Reference output from the unsupervised switch engine.
  auto Ref = forth::loadOrDie(SliceProgramSrc)->runIsolated(
      "main", engine::EngineId::Switch);
  ASSERT_EQ(Ref.Outcome.Status, RunStatus::Halted);

  for (prepare::EngineId E : AllPrepareEngines) {
    SessionPolicy P;
    P.SliceSteps = 7;
    SessionFixture F(SliceProgramSrc, E, P);
    SessionResult R = F.S->run("main");
    EXPECT_EQ(R.Stop, StopKind::Halted) << engine::engineName(E);
    EXPECT_EQ(F.Machine.Out, Ref.Output) << engine::engineName(E);
    if (!isStaticFlavor(E)) {
      EXPECT_EQ(R.Outcome.Steps, Ref.Outcome.Steps) << engine::engineName(E);
      // Every slice but the last stops on the step limit, so the count
      // is exactly ceil(steps / slice).
      EXPECT_EQ(R.Slices, (Ref.Outcome.Steps + P.SliceSteps - 1) /
                              P.SliceSteps) << engine::engineName(E);
    }
    EXPECT_EQ(F.S->counters().StepsExecuted, R.Outcome.Steps);
    EXPECT_EQ(F.S->counters().Slices, R.Slices);
  }
}

TEST(VmSession, FuelExhaustsAndRefuelResumes) {
  auto Ref = forth::loadOrDie(SliceProgramSrc)->runIsolated(
      "main", engine::EngineId::Threaded);
  ASSERT_EQ(Ref.Outcome.Status, RunStatus::Halted);

  SessionPolicy P;
  P.SliceSteps = 5;
  P.FuelSteps = 17;
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Threaded, P);
  SessionResult R = F.S->run("main");
  EXPECT_EQ(R.Stop, StopKind::FuelExhausted);
  EXPECT_TRUE(R.Resumable);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StepLimit);
  EXPECT_EQ(R.Outcome.Steps, 17u); // stream engines stop exactly on fuel
  EXPECT_EQ(F.S->counters().FuelExhausted, 1u);

  // Refuel and resume at the recorded PC: the guest finishes exactly as
  // if it had never been stopped.
  F.S->refuel(UINT64_MAX); // saturates: effectively unlimited
  SessionResult R2 = F.S->run(R.ResumePc);
  EXPECT_EQ(R2.Stop, StopKind::Halted);
  EXPECT_EQ(R.Outcome.Steps + R2.Outcome.Steps, Ref.Outcome.Steps);
  EXPECT_EQ(F.Machine.Out, Ref.Output);
}

TEST(VmSession, DeadlineTerminatesInfiniteLoop) {
  SessionPolicy P;
  P.SliceSteps = 256;
  P.Deadline = std::chrono::milliseconds(20);
  SessionFixture F(SpinProgramSrc, prepare::EngineId::Threaded, P);
  const auto Start = std::chrono::steady_clock::now();
  SessionResult R = F.S->run("main");
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_EQ(R.Stop, StopKind::DeadlineExpired);
  EXPECT_TRUE(R.Resumable);
  EXPECT_GE(Elapsed, std::chrono::milliseconds(20));
  // Generous sanity bound: the loop must not have run seconds past the
  // deadline (supervision latency is one 256-step slice).
  EXPECT_LT(Elapsed, std::chrono::seconds(10));
  EXPECT_EQ(F.S->counters().DeadlineHits, 1u);
  EXPECT_GT(R.Outcome.Steps, 0u);
}

TEST(VmSession, CancelFromAnotherThreadStopsWithinOneSlice) {
  SessionPolicy P;
  P.SliceSteps = 128;
  SessionFixture F(SpinProgramSrc, prepare::EngineId::ThreadedTos, P);
  VmSession &S = *F.S;

  SessionResult R;
  std::thread Runner([&] { R = S.run("main"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  S.cancel();
  Runner.join();

  EXPECT_EQ(R.Stop, StopKind::Cancelled);
  EXPECT_TRUE(R.Resumable);
  EXPECT_EQ(S.counters().Cancellations, 1u);

  // resetCancel() + run(ResumePc) picks the loop back up; cancel again
  // from this thread to prove the flag is reusable.
  S.resetCancel();
  std::thread Runner2([&] { R = S.run(R.ResumePc); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  S.cancel();
  Runner2.join();
  EXPECT_EQ(R.Stop, StopKind::Cancelled);
  EXPECT_EQ(S.counters().Cancellations, 2u);
}

TEST(VmSession, CancelBeforeFirstSliceRunsNothing) {
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch);
  F.S->cancel();
  SessionResult R = F.S->run("main");
  EXPECT_EQ(R.Stop, StopKind::Cancelled);
  EXPECT_EQ(R.Slices, 0u);
  EXPECT_EQ(R.Outcome.Steps, 0u);
  EXPECT_TRUE(R.Resumable);
  // The recorded resume point is the untouched entry.
  F.S->resetCancel();
  SessionResult R2 = F.S->run(R.ResumePc);
  EXPECT_EQ(R2.Stop, StopKind::Halted);
}

//===----------------------------------------------------------------------===//
// Fault confirmation and quarantine
//===----------------------------------------------------------------------===//

TEST(VmSession, ConfirmsRealFault) {
  globalQuarantine().clear();
  for (prepare::EngineId E : AllPrepareEngines) {
    SessionPolicy P;
    P.SliceSteps = 4;
    P.ConfirmFaults = true;
    SessionFixture F(FaultProgramSrc, E, P);
    SessionResult R = F.S->run("main");
    EXPECT_EQ(R.Stop, StopKind::Fault) << engine::engineName(E);
    EXPECT_EQ(R.Outcome.Status, RunStatus::DivByZero) << engine::engineName(E);
    EXPECT_TRUE(R.Replayed);
    EXPECT_EQ(R.Verdict, Confirmation::Confirmed)
        << engine::engineName(E) << ": "
        << confirmationName(R.Verdict);
    EXPECT_EQ(F.S->counters().FallbackReplays, 1u);
    EXPECT_EQ(F.S->counters().FaultsConfirmed, 1u);
    EXPECT_FALSE(R.Quarantined); // QuarantineAfter defaults to off
  }
  EXPECT_EQ(globalQuarantine().size(), 0u);
}

TEST(VmSession, ConfirmationHelperRefutesAndInconcludes) {
  // Drive confirmFault directly: a healthy engine never produces the
  // refuted branch, so it is tested against a tampered observation.
  auto Sys = forth::loadOrDie(FaultProgramSrc);
  auto PC = prepare::prepareCode(Sys->Prog, prepare::EngineId::Threaded);

  SliceSnapshot Before;
  Before.Machine = Sys->Machine;
  Before.Machine.resetOutput();
  Before.DsCapacity = ExecContext::StackCells;
  Before.RsCapacity = ExecContext::StackCells;
  Before.DS.resize(ExecContext::StackCells + ExecContext::StackSlackCells);
  Before.RS.resize(ExecContext::StackCells + ExecContext::StackSlackCells);

  // The honest fault, taken from a real run.
  Vm Machine = Before.Machine;
  ExecContext Ctx(PC->program(), Machine);
  RunOutcome Observed =
      prepare::runPrepared(*PC, Ctx, PC->entryOf("main"));
  ASSERT_EQ(Observed.Status, RunStatus::DivByZero);

  const uint32_t Entry = PC->entryOf("main");
  EXPECT_EQ(confirmFault(*PC, Before, Entry, Observed, 100000),
            Confirmation::Confirmed);

  // Tampered fault class: the replay disagrees.
  RunOutcome Forged = Observed;
  Forged.Status = RunStatus::StackUnderflow;
  EXPECT_EQ(confirmFault(*PC, Before, Entry, Forged, 100000),
            Confirmation::Refuted);

  // Tampered fault PC (stream flavors compare FaultInfo exactly).
  Forged = Observed;
  Forged.Fault.Pc += 1;
  EXPECT_EQ(confirmFault(*PC, Before, Entry, Forged, 100000),
            Confirmation::Refuted);

  // Non-faults are not confirmable claims.
  Forged = Observed;
  Forged.Status = RunStatus::Halted;
  EXPECT_EQ(confirmFault(*PC, Before, Entry, Forged, 100000),
            Confirmation::Refuted);

  // A replay budget too small to reach the fault is inconclusive.
  EXPECT_EQ(confirmFault(*PC, Before, Entry, Observed, 1),
            Confirmation::Inconclusive);
}

TEST(VmSession, QuarantineAfterConfirmedFaults) {
  globalQuarantine().clear();
  SessionPolicy P;
  P.SliceSteps = 8;
  P.ConfirmFaults = true;
  P.QuarantineAfter = 2;
  SessionFixture F(FaultProgramSrc, prepare::EngineId::Dynamic3, P);

  SessionResult R1 = F.S->run("main");
  EXPECT_EQ(R1.Stop, StopKind::Fault);
  EXPECT_FALSE(R1.Quarantined); // one confirmed fault, threshold is two

  F.S->reset();
  F.Machine.resetOutput();
  SessionResult R2 = F.S->run("main");
  EXPECT_EQ(R2.Stop, StopKind::Fault);
  EXPECT_TRUE(R2.Quarantined);
  EXPECT_EQ(F.S->counters().Quarantines, 1u);
  EXPECT_TRUE(globalQuarantine().isQuarantined(F.PC->SourceIdentity));

  // The same session refuses further runs...
  F.S->reset();
  SessionResult R3 = F.S->run("main");
  EXPECT_EQ(R3.Stop, StopKind::Quarantined);
  EXPECT_EQ(R3.Slices, 0u);
  EXPECT_EQ(F.S->counters().QuarantineRejections, 1u);

  // ...and so does a brand-new session over the same program.
  Vm OtherMachine = F.Sys->Machine;
  VmSession Other(F.PC, OtherMachine, P);
  EXPECT_EQ(Other.run("main").Stop, StopKind::Quarantined);

  // A different program is unaffected.
  SessionFixture Clean(SliceProgramSrc, prepare::EngineId::Dynamic3);
  EXPECT_EQ(Clean.S->run("main").Stop, StopKind::Halted);

  globalQuarantine().clear();
}

//===----------------------------------------------------------------------===//
// Concurrency: one shared cache, many sessions, mid-flight cancellation
//===----------------------------------------------------------------------===//

TEST(VmSession, ConcurrentSessionsSharedCacheAndCancellation) {
  globalQuarantine().clear();
  auto Sys = forth::loadOrDie(SliceProgramSrc);
  auto Ref = Sys->runIsolated("main", engine::EngineId::Switch);

  // Thread-shareable flavors only: CallThreaded keeps its VM registers
  // in static storage and is non-reentrant by design.
  const prepare::EngineId Flavors[] = {
      prepare::EngineId::Switch,       prepare::EngineId::Threaded,
      prepare::EngineId::ThreadedTos,  prepare::EngineId::Dynamic3,
      prepare::EngineId::StaticGreedy, prepare::EngineId::StaticOptimal,
  };
  constexpr unsigned ThreadsPerFlavor = 3;
  constexpr unsigned Rounds = 8;

  prepare::PrepareCache Cache; // one cache, all threads
  std::vector<std::unique_ptr<Vm>> Machines;
  std::vector<std::unique_ptr<VmSession>> Sessions;
  for (prepare::EngineId E : Flavors)
    for (unsigned T = 0; T < ThreadsPerFlavor; ++T) {
      auto PC = Cache.getOrPrepare(Sys->Prog, E);
      Machines.push_back(std::make_unique<Vm>(Sys->Machine));
      Machines.back()->resetOutput();
      SessionPolicy P;
      P.SliceSteps = 3; // many boundaries -> many cancellation windows
      Sessions.push_back(
          std::make_unique<VmSession>(PC, *Machines.back(), P));
    }

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Completed{0};
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Sessions.size(); ++I)
    Threads.emplace_back([&, I] {
      VmSession &S = *Sessions[I];
      for (unsigned R = 0; R < Rounds; ++R) {
        S.reset();
        S.resetCancel();
        Machines[I]->resetOutput();
        SessionResult Res = S.run("main");
        // A cancelled run is resumed until it completes; anything else
        // must be a clean halt.
        while (Res.Stop == StopKind::Cancelled) {
          S.resetCancel();
          Res = S.run(Res.ResumePc);
        }
        ASSERT_EQ(Res.Stop, StopKind::Halted);
        ASSERT_EQ(Machines[I]->Out, Ref.Output);
        Completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  // Pepper every session with cancels while they run. Bounded passes
  // with a pause between them so the runners always make progress (a
  // tight cancel loop could starve them indefinitely).
  std::thread Canceller([&] {
    for (unsigned Pass = 0;
         Pass < 200 && !Done.load(std::memory_order_relaxed); ++Pass) {
      for (auto &S : Sessions)
        S->cancel();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto &T : Threads)
    T.join();
  Done.store(true, std::memory_order_relaxed);
  Canceller.join();

  EXPECT_EQ(Completed.load(), Sessions.size() * Rounds);
  // The shared cache translated each flavor exactly once.
  const metrics::PrepareCounters C = Cache.counters();
  EXPECT_EQ(C.Translations, std::size(Flavors));
  EXPECT_EQ(C.Misses, std::size(Flavors));
  EXPECT_EQ(C.Hits,
            std::size(Flavors) * ThreadsPerFlavor - std::size(Flavors));
}
