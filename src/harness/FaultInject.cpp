//===-- harness/FaultInject.cpp - Systematic fault injection --------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "harness/FaultInject.h"

#include "prepare/PrepareCache.h"
#include "staticcache/StaticSpec.h"
#include "support/Assert.h"
#include "support/Rng.h"
#include "vm/FaultDiag.h"

#include <algorithm>

using namespace sc;
using namespace sc::harness;
using namespace sc::vm;

namespace {

/// Dispatches runs of any engine against a caller-owned ExecContext,
/// through the registry's normalized entry point. A private PrepareCache
/// prepares each flavor once per runner, so a sliced observation reuses
/// one translation (and, for the static flavors, one SpecProgram) across
/// all its slices.
struct EngineRunner {
  const Code &Prog;
  prepare::PrepareCache Cache;

  explicit EngineRunner(const Code &P) : Prog(P) {}

  const prepare::PreparedCode &prepared(EngineId E) {
    return *Cache.getOrPrepare(Prog, E);
  }

  /// True when original PC \p Pc is a legal entry point of \p E's
  /// transformed program (static state-0 entries, regvm block leaders).
  bool canEnter(EngineId E, uint32_t Pc) {
    return prepare::canEnterAt(prepared(E), Pc);
  }

  RunOutcome run(ExecContext &Ctx, EngineId E, uint32_t Entry) {
    engine::RunOptions Opts;
    Opts.Entry = Entry;
    // Callers stage the budget and resume flag in the context; forward
    // them so the normalized entry point reinstalls the same values.
    Opts.MaxSteps = Ctx.MaxSteps;
    Opts.Resume = Ctx.Resume;
    Opts.Prepared = &prepared(E);
    return engine::runEngine(E, Prog, Ctx, Opts);
  }
};

EngineObservation snapshotObservation(const ExecContext &Ctx, const Vm &Machine,
                                      const RunOutcome &O) {
  EngineObservation Obs;
  Obs.Outcome = O;
  Obs.DS.assign(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  Obs.RS.assign(Ctx.RS.begin(), Ctx.RS.begin() + Ctx.RsDepth);
  Obs.Out = Machine.Out;
  Obs.DsHighWater = Ctx.DsHighWater;
  Obs.RsHighWater = Ctx.RsHighWater;
  return Obs;
}

} // namespace

EngineObservation sc::harness::observeEngine(const forth::System &Sys,
                                             const Code &Prog, uint32_t Entry,
                                             EngineId E,
                                             const RunLimits &Limits) {
  Vm Copy = Sys.Machine;
  Copy.resetOutput();
  Copy.setAccessibleLimit(Limits.DataSpaceLimit);
  ExecContext Ctx(Prog, Copy);
  Ctx.MaxSteps = Limits.MaxSteps;
  Ctx.setStackCapacities(Limits.DsCapacity, Limits.RsCapacity);

  EngineRunner Runner(Prog);
  RunOutcome O = Runner.run(Ctx, E, Entry);
  return snapshotObservation(Ctx, Copy, O);
}

EngineObservation sc::harness::observeEngineSliced(
    const forth::System &Sys, const Code &Prog, uint32_t Entry,
    const std::vector<EngineId> &Rotation, uint64_t SliceSteps,
    const RunLimits &Limits) {
  SC_ASSERT(!Rotation.empty(), "empty engine rotation");
  SC_ASSERT(SliceSteps > 0, "slices must make progress");
  Vm Copy = Sys.Machine;
  Copy.resetOutput();
  Copy.setAccessibleLimit(Limits.DataSpaceLimit);
  ExecContext Ctx(Prog, Copy);
  Ctx.setStackCapacities(Limits.DsCapacity, Limits.RsCapacity);

  EngineRunner Runner(Prog);
  uint64_t Remaining = Limits.MaxSteps;
  uint64_t TotalSteps = 0;
  uint32_t Pc = Entry;
  RunOutcome O;
  for (uint64_t Slice = 0;; ++Slice) {
    EngineId E = Rotation[Slice % Rotation.size()];
    if (isStaticEngine(E) && !Runner.canEnter(E, Pc))
      E = EngineId::Switch;
    Ctx.MaxSteps = std::min(SliceSteps, Remaining);
    O = Runner.run(Ctx, E, Pc);
    TotalSteps += O.Steps;
    // A static slice may overshoot its budget to reach a safe point;
    // the overshoot is charged against the total budget like any other
    // executed step.
    Remaining -= std::min(O.Steps, Remaining);
    if (O.Status != RunStatus::StepLimit || Remaining == 0)
      break;
    Pc = O.Fault.Pc;
    Ctx.Resume = true; // the sentinel survives from the preempted slice
  }
  O.Steps = TotalSteps;
  return snapshotObservation(Ctx, Copy, O);
}

std::string sc::harness::describeObservation(const EngineObservation &O) {
  std::string S = runStatusName(O.Outcome.Status);
  S += " steps=";
  S += std::to_string(O.Outcome.Steps);
  if (O.Outcome.Status != RunStatus::Halted) {
    S += " {";
    S += faultSummary(O.Outcome);
    S += '}';
  }
  S += " ds=[";
  for (Cell V : O.DS) {
    S += std::to_string(V);
    S += ' ';
  }
  S += "] rs-depth=";
  S += std::to_string(O.RS.size());
  S += " out=\"";
  S += O.Out;
  S += '"';
  return S;
}

std::string sc::harness::compareObservations(const EngineObservation &Ref,
                                             const EngineObservation &Got,
                                             EngineId GotId) {
  const bool Masked = isStaticEngine(GotId);
  auto Fail = [&](const char *What) {
    std::string S(engineName(GotId));
    S += " diverges in ";
    S += What;
    S += "\n  ref: ";
    S += describeObservation(Ref);
    S += "\n  got: ";
    S += describeObservation(Got);
    return S;
  };

  if (Got.Outcome.Status != Ref.Outcome.Status)
    return Fail("status");
  // A statically cached run stops at a different logical point when the
  // step budget expires (micros and removed manips change the count), so
  // only the status is comparable.
  if (Masked && Ref.Outcome.Status == RunStatus::StepLimit)
    return {};
  if (!Masked && Got.Outcome.Steps != Ref.Outcome.Steps)
    return Fail("step count");
  if (Got.DS != Ref.DS)
    return Fail("data stack");
  if (Got.Out != Ref.Out)
    return Fail("output");
  if (Got.RS.size() != Ref.RS.size())
    return Fail("return stack depth");
  // Return addresses are canonical original-code indices in every
  // engine (specialized calls push SpecToOrig-mapped values), so the
  // contents are comparable even for the static engines.
  if (Got.RS != Ref.RS)
    return Fail("return stack");
  if (Ref.Outcome.Status == RunStatus::Halted)
    return {};
  if (Got.Outcome.Fault != Ref.Outcome.Fault)
    return Fail("fault info");
  return {};
}

std::string sc::harness::compareSlicedObservation(
    const EngineObservation &OneShot, const EngineObservation &Sliced,
    EngineId Id) {
  auto Fail = [&](const char *What) {
    std::string S(engineName(Id));
    S += " sliced run diverges in ";
    S += What;
    S += "\n  one-shot: ";
    S += describeObservation(OneShot);
    S += "\n  sliced:   ";
    S += describeObservation(Sliced);
    return S;
  };
  if (Sliced.Outcome.Status != OneShot.Outcome.Status)
    return Fail("status");
  if (Sliced.Outcome.Steps != OneShot.Outcome.Steps)
    return Fail("step count");
  if (Sliced.DS != OneShot.DS)
    return Fail("data stack");
  if (Sliced.RS != OneShot.RS)
    return Fail("return stack");
  if (Sliced.Out != OneShot.Out)
    return Fail("output");
  if (OneShot.Outcome.Status != RunStatus::Halted &&
      Sliced.Outcome.Fault != OneShot.Outcome.Fault)
    return Fail("fault info");
  return {};
}

namespace {

/// Runs \p Word under every selected engine and folds comparator failures
/// into \p R, labelling them with \p Where.
void compareAcross(const forth::System &Sys, const Code &Prog, uint32_t Entry,
                   const RunLimits &Limits, bool IncludeStatic,
                   const std::string &Where, InjectReport &R) {
  EngineObservation Ref =
      observeEngine(Sys, Prog, Entry, EngineId::Switch, Limits);
  ++R.Points;
  if (Ref.Outcome.Status != RunStatus::Halted)
    ++R.Faults;
  for (unsigned E = 1; E < NumEngines; ++E) {
    EngineId Id = static_cast<EngineId>(E);
    if (isStaticEngine(Id) && !IncludeStatic)
      continue;
    std::string D =
        compareObservations(Ref, observeEngine(Sys, Prog, Entry, Id, Limits),
                            Id);
    if (!D.empty()) {
      ++R.Mismatches;
      if (R.FirstDivergence.empty())
        R.FirstDivergence = Where + ": " + D;
    }
  }
}

/// Smallest value in [Lo, Hi] for which \p Keeps holds, assuming
/// monotonicity (Keeps(Hi) must hold). Used for capacity/limit bisection.
template <typename Pred>
uint64_t bisectSmallest(uint64_t Lo, uint64_t Hi, Pred Keeps) {
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    if (Keeps(Mid))
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  return Lo;
}

bool sameResult(const EngineObservation &A, const EngineObservation &B) {
  return A.Outcome.Status == B.Outcome.Status &&
         A.Outcome.Steps == B.Outcome.Steps && A.DS == B.DS && A.Out == B.Out;
}

} // namespace

InjectReport sc::harness::sweepStepLimit(const forth::System &Sys,
                                         const std::string &Word,
                                         const RunLimits &Limits) {
  InjectReport R;
  const uint32_t Entry = Sys.entryOf(Word);
  EngineObservation Full =
      observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, Limits);
  const uint64_t Total = Full.Outcome.Steps;
  for (uint64_t M = 0; M <= Total; ++M) {
    RunLimits L = Limits;
    L.MaxSteps = M;
    compareAcross(Sys, Sys.Prog, Entry, L, /*IncludeStatic=*/false,
                  "MaxSteps=" + std::to_string(M), R);
  }
  return R;
}

unsigned sc::harness::measureDsHighWater(const forth::System &Sys,
                                         const std::string &Word,
                                         const RunLimits &Limits) {
  const uint32_t Entry = Sys.entryOf(Word);
  EngineObservation Full =
      observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, Limits);
  return static_cast<unsigned>(bisectSmallest(0, Limits.DsCapacity, [&](
                                                  uint64_t C) {
    RunLimits L = Limits;
    L.DsCapacity = static_cast<unsigned>(C);
    return sameResult(observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, L),
                      Full);
  }));
}

InjectReport sc::harness::shrinkCapacities(const forth::System &Sys,
                                           const std::string &Word,
                                           const RunLimits &Limits,
                                           bool IncludeStatic) {
  InjectReport R;
  const uint32_t Entry = Sys.entryOf(Word);
  EngineObservation Full =
      observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, Limits);

  auto Keeps = [&](const RunLimits &L) {
    return sameResult(observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, L),
                      Full);
  };

  // Data-stack capacities below the peak: every one must overflow at the
  // same instruction in every engine.
  const unsigned PeakDs =
      static_cast<unsigned>(bisectSmallest(0, Limits.DsCapacity, [&](
                                               uint64_t C) {
        RunLimits L = Limits;
        L.DsCapacity = static_cast<unsigned>(C);
        return Keeps(L);
      }));
  for (unsigned C = 0; C < PeakDs; ++C) {
    RunLimits L = Limits;
    L.DsCapacity = C;
    compareAcross(Sys, Sys.Prog, Entry, L, IncludeStatic,
                  "DsCapacity=" + std::to_string(C), R);
  }

  // Return-stack capacities below the peak (the entry sentinel makes the
  // minimum useful capacity 1; capacity 0 exercises the pre-run check).
  const unsigned PeakRs =
      static_cast<unsigned>(bisectSmallest(0, Limits.RsCapacity, [&](
                                               uint64_t C) {
        RunLimits L = Limits;
        L.RsCapacity = static_cast<unsigned>(C);
        return Keeps(L);
      }));
  for (unsigned C = 0; C < PeakRs; ++C) {
    RunLimits L = Limits;
    L.RsCapacity = C;
    compareAcross(Sys, Sys.Prog, Entry, L, IncludeStatic,
                  "RsCapacity=" + std::to_string(C), R);
  }

  // Data-space limits below the program's reach: the first out-of-range
  // access must fault with the same offending address in every engine.
  const size_t FullSpace = Sys.Machine.dataSpaceSize();
  const size_t Reach = bisectSmallest(0, FullSpace, [&](uint64_t B) {
    RunLimits L = Limits;
    L.DataSpaceLimit = static_cast<size_t>(B);
    return Keeps(L);
  });
  if (Reach > 0) {
    // Every byte short of the reach faults identically; probe the
    // boundary and a few interior points instead of all of them.
    const size_t Probes[] = {Reach - 1, Reach > 8 ? Reach - 8 : 0, Reach / 2,
                             0};
    size_t Last = static_cast<size_t>(-1);
    for (size_t B : Probes) {
      if (B == Last)
        continue;
      Last = B;
      RunLimits L = Limits;
      L.DataSpaceLimit = B;
      compareAcross(Sys, Sys.Prog, Entry, L, IncludeStatic,
                    "DataSpaceLimit=" + std::to_string(B), R);
    }
  }
  return R;
}

InjectReport sc::harness::mutateAndCompare(const forth::System &Sys,
                                           const std::string &Word,
                                           uint64_t Rounds, uint64_t Seed,
                                           const RunLimits &Limits) {
  InjectReport R;
  const uint32_t Entry = Sys.entryOf(Word);
  RunLimits L = Limits;
  if (L.MaxSteps == UINT64_MAX)
    L.MaxSteps = 100000; // verified mutants may still loop forever
  Rng Rand(Seed);

  for (uint64_t Round = 0; Round < Rounds; ++Round) {
    Code Mut = Sys.Prog;
    const unsigned Edits = 1 + static_cast<unsigned>(Rand.below(3));
    for (unsigned E = 0; E < Edits; ++E) {
      Inst &In = Mut.Insts[Rand.below(Mut.Insts.size())];
      switch (Rand.below(4)) {
      case 0:
        In.Op = static_cast<Opcode>(Rand.below(NumOpcodes));
        break;
      case 1:
        In.Operand = Rand.range(-64, 64);
        break;
      case 2:
        In.Operand ^= static_cast<Cell>(1) << Rand.below(32);
        break;
      case 3:
        In.Operand = static_cast<Cell>(Rand.below(Mut.Insts.size()));
        break;
      }
    }
    Mut.touch(); // edits bypassed emit(); invalidate cached translations
    if (!Mut.verify())
      continue; // the oracle rejected the mutant

    EngineObservation Ref =
        observeEngine(Sys, Mut, Entry, EngineId::Switch, L);
    ++R.Points;
    if (Ref.Outcome.Status != RunStatus::Halted)
      ++R.Faults;
    const bool Limited = Ref.Outcome.Status == RunStatus::StepLimit;
    for (unsigned E = 1; E < NumEngines; ++E) {
      EngineId Id = static_cast<EngineId>(E);
      if (isStaticEngine(Id) && Limited)
        continue; // static step counts make the stop point incomparable
      std::string D =
          compareObservations(Ref, observeEngine(Sys, Mut, Entry, Id, L), Id);
      if (!D.empty()) {
        ++R.Mismatches;
        if (R.FirstDivergence.empty())
          R.FirstDivergence =
              "mutation round " + std::to_string(Round) + ": " + D;
      }
    }
  }
  return R;
}

namespace {

/// Folds one sliced-vs-one-shot comparison into \p R.
void checkSliced(const EngineObservation &OneShot,
                 const EngineObservation &Sliced, EngineId Id,
                 const std::string &Where, InjectReport &R) {
  ++R.Points;
  if (OneShot.Outcome.Status != RunStatus::Halted)
    ++R.Faults;
  std::string D = compareSlicedObservation(OneShot, Sliced, Id);
  if (!D.empty()) {
    ++R.Mismatches;
    if (R.FirstDivergence.empty())
      R.FirstDivergence = Where + ": " + D;
  }
}

} // namespace

InjectReport sc::harness::sweepSliceBoundaries(const forth::System &Sys,
                                               const std::string &Word,
                                               const RunLimits &Limits,
                                               uint64_t MaxSlice) {
  InjectReport R;
  const uint32_t Entry = Sys.entryOf(Word);
  EngineObservation Ref =
      observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, Limits);
  const uint64_t Total = Ref.Outcome.Steps;
  if (MaxSlice == 0 || MaxSlice > Total)
    MaxSlice = Total;

  // Same-engine: every engine, every slice length, strict equality with
  // that engine's own one-shot run.
  for (unsigned E = 0; E < NumEngines; ++E) {
    EngineId Id = static_cast<EngineId>(E);
    EngineObservation OneShot = observeEngine(Sys, Sys.Prog, Entry, Id, Limits);
    for (uint64_t S = 1; S <= MaxSlice; ++S)
      checkSliced(OneShot,
                  observeEngineSliced(Sys, Sys.Prog, Entry, {Id}, S, Limits),
                  Id,
                  std::string(engineName(Id)) + " slice=" + std::to_string(S),
                  R);
  }

  // Mixed rotations: every slice boundary is a cross-engine resume. The
  // final state is checked against the Switch reference with the usual
  // static masks (rotations containing a static engine run extra micro
  // steps, so their step counts are incomparable).
  const std::vector<EngineId> Rotations[] = {
      {EngineId::Switch, EngineId::Threaded},
      {EngineId::Threaded, EngineId::Dynamic3, EngineId::ThreadedTos},
      {EngineId::CallThreaded, EngineId::Model},
      {EngineId::Switch, EngineId::StaticGreedy},
      {EngineId::Dynamic3, EngineId::StaticOptimal, EngineId::Threaded},
  };
  for (const std::vector<EngineId> &Rot : Rotations) {
    const bool HasStatic =
        std::any_of(Rot.begin(), Rot.end(),
                    [](EngineId E) { return isStaticEngine(E); });
    std::string Label = "rotation";
    for (EngineId E : Rot)
      Label += std::string("-") + engineName(E);
    for (uint64_t S : {uint64_t(1), uint64_t(2), uint64_t(3), uint64_t(7)}) {
      ++R.Points;
      EngineObservation Obs =
          observeEngineSliced(Sys, Sys.Prog, Entry, Rot, S, Limits);
      std::string D = compareObservations(
          Ref, Obs, HasStatic ? EngineId::StaticGreedy : Rot[0]);
      if (!D.empty()) {
        ++R.Mismatches;
        if (R.FirstDivergence.empty())
          R.FirstDivergence = Label + " slice=" + std::to_string(S) + ": " + D;
      }
    }
  }
  return R;
}

namespace {

/// Continues a freshly restored context under \p E until the run leaves
/// StepLimit or \p Remaining is exhausted. A static engine restored at a
/// PC that is not a leader of its specialized program single-steps under
/// the reference engine until it can rejoin (the restore-side analogue of
/// VmSession's leader fallback — a foreign snapshot may have stopped
/// anywhere). \p BaseSteps is the work the snapshot had already retired;
/// the returned observation's step count includes it, making the result
/// comparable to a one-shot run.
EngineObservation continueRestored(EngineRunner &Runner, ExecContext &Ctx,
                                   Vm &Machine, EngineId E, uint32_t Pc,
                                   uint64_t Remaining, uint64_t BaseSteps) {
  uint64_t Steps = BaseSteps;
  RunOutcome O;
  for (;;) {
    EngineId Use = E;
    uint64_t Budget = Remaining;
    if (isStaticEngine(E) && !Runner.canEnter(E, Pc)) {
      Use = EngineId::Switch;
      Budget = 1; // one canonical step toward the next leader
    }
    Ctx.MaxSteps = std::min(Budget, Remaining);
    O = Runner.run(Ctx, Use, Pc);
    Steps += O.Steps;
    Remaining -= std::min(O.Steps, Remaining);
    if (O.Status != RunStatus::StepLimit || Remaining == 0)
      break;
    Pc = O.Fault.Pc;
    Ctx.Resume = true;
  }
  O.Steps = Steps;
  return snapshotObservation(Ctx, Machine, O);
}

/// Folds a failure into \p R.
void foldFailure(InjectReport &R, const std::string &Where,
                 const std::string &What) {
  ++R.Mismatches;
  if (R.FirstDivergence.empty())
    R.FirstDivergence = Where + ": " + What;
}

} // namespace

InjectReport sc::harness::sweepSnapshotBoundaries(const forth::System &Sys,
                                                  const std::string &Word,
                                                  const RunLimits &Limits,
                                                  uint64_t MaxCut) {
  InjectReport R;
  const uint32_t Entry = Sys.entryOf(Word);
  EngineRunner Runner(Sys.Prog);
  EngineObservation Ref =
      observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, Limits);

  for (unsigned E = 0; E < NumEngines; ++E) {
    EngineId Id = static_cast<EngineId>(E);
    EngineObservation OneShot = observeEngine(Sys, Sys.Prog, Entry, Id, Limits);
    const uint64_t Total = OneShot.Outcome.Steps;
    if (Total < 2)
      continue; // no interior boundary to snapshot at
    const uint64_t Cut =
        MaxCut && MaxCut < Total - 1 ? MaxCut : Total - 1;
    for (uint64_t K = 1; K <= Cut; ++K) {
      const std::string Where =
          std::string(engineName(Id)) + " cut=" + std::to_string(K);
      // Run K of the engine's own steps, then make the state durable.
      Vm CutVm = Sys.Machine;
      CutVm.resetOutput();
      CutVm.setAccessibleLimit(Limits.DataSpaceLimit);
      ExecContext CutCtx(Sys.Prog, CutVm);
      CutCtx.setStackCapacities(Limits.DsCapacity, Limits.RsCapacity);
      CutCtx.MaxSteps = K;
      RunOutcome O1 = Runner.run(CutCtx, Id, Entry);
      if (O1.Status != RunStatus::StepLimit)
        continue; // a static slice overshot its budget and finished
      CutCtx.Resume = true; // the sentinel is live; a resume must not re-seed
      snapshot::MachineState MS;
      MS.Pc = O1.Fault.Pc;
      MS.FuelRemaining =
          Limits.MaxSteps == UINT64_MAX ? UINT64_MAX : Limits.MaxSteps - O1.Steps;
      MS.StepsRetired = O1.Steps;
      MS.SlicesRetired = 1;
      const std::vector<uint8_t> Snap = snapshot::serialize(CutCtx, CutVm, MS);

      // Restore into a completely fresh context and machine, as a second
      // process would, and require serialize . restore to be the identity
      // on the bytes.
      ++R.Points;
      Vm Rvm(0);
      ExecContext Rctx(Sys.Prog, Rvm);
      snapshot::MachineState RMS;
      snapshot::SnapshotError Err =
          snapshot::restore(Snap.data(), Snap.size(), Sys.Prog, Rctx, Rvm, RMS);
      if (Err != snapshot::SnapshotError::None) {
        foldFailure(R, Where,
                    std::string("restore refused its own snapshot: ") +
                        snapshot::snapshotErrorName(Err));
        continue;
      }
      if (snapshot::serialize(Rctx, Rvm, RMS) != Snap) {
        foldFailure(R, Where, "re-serialization is not bit-identical");
        continue;
      }

      // Same-engine continuation must be indistinguishable from the
      // engine's own one-shot run (strict comparator).
      checkSliced(OneShot,
                  continueRestored(Runner, Rctx, Rvm, Id, RMS.Pc,
                                   RMS.FuelRemaining, RMS.StepsRetired),
                  Id, Where, R);

      // Cross-engine continuation: snapshots are engine-neutral, so a
      // second restore resumes under a rotated different engine; checked
      // against the Switch reference with static masks when either side
      // is static.
      const EngineId Other = static_cast<EngineId>(
          (E + 1 + K % (NumEngines - 1)) % NumEngines);
      Vm Xvm(0);
      ExecContext Xctx(Sys.Prog, Xvm);
      snapshot::MachineState XMS;
      Err = snapshot::restore(Snap.data(), Snap.size(), Sys.Prog, Xctx, Xvm,
                              XMS);
      SC_ASSERT(Err == snapshot::SnapshotError::None,
                "second restore of a snapshot that already restored");
      ++R.Points;
      if (Ref.Outcome.Status != RunStatus::Halted)
        ++R.Faults;
      EngineObservation Cont = continueRestored(
          Runner, Xctx, Xvm, Other, XMS.Pc, XMS.FuelRemaining, XMS.StepsRetired);
      const EngineId MaskId = isStaticEngine(Id) || isStaticEngine(Other)
                                  ? EngineId::StaticGreedy
                                  : Other;
      std::string D = compareObservations(Ref, Cont, MaskId);
      if (!D.empty())
        foldFailure(R,
                    Where + " resume-on-" + std::string(engineName(Other)), D);
    }
  }
  return R;
}

InjectReport sc::harness::fuzzSnapshots(const forth::System &Sys,
                                        const std::string &Word,
                                        uint64_t Rounds, uint64_t Seed,
                                        const RunLimits &Limits) {
  InjectReport R;
  const uint32_t Entry = Sys.entryOf(Word);
  EngineRunner Runner(Sys.Prog);
  EngineObservation Ref =
      observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, Limits);
  const uint64_t Total = Ref.Outcome.Steps;

  // Pool of genuine snapshots: the not-yet-started state plus a spread of
  // interior cut points, so mutations hit headers, stack sections, data
  // prefixes, and output sections alike.
  std::vector<std::vector<uint8_t>> Pool;
  {
    Vm FreshVm = Sys.Machine;
    FreshVm.resetOutput();
    FreshVm.setAccessibleLimit(Limits.DataSpaceLimit);
    ExecContext FreshCtx(Sys.Prog, FreshVm);
    FreshCtx.setStackCapacities(Limits.DsCapacity, Limits.RsCapacity);
    FreshCtx.MaxSteps = Limits.MaxSteps;
    snapshot::MachineState MS;
    MS.Pc = Entry;
    MS.FuelRemaining = Limits.MaxSteps;
    Pool.push_back(snapshot::serialize(FreshCtx, FreshVm, MS));
  }
  for (uint64_t K :
       {uint64_t(1), Total / 4, Total / 2, 3 * Total / 4, Total - 1}) {
    if (K == 0 || K >= Total)
      continue;
    Vm CutVm = Sys.Machine;
    CutVm.resetOutput();
    CutVm.setAccessibleLimit(Limits.DataSpaceLimit);
    ExecContext CutCtx(Sys.Prog, CutVm);
    CutCtx.setStackCapacities(Limits.DsCapacity, Limits.RsCapacity);
    CutCtx.MaxSteps = K;
    RunOutcome O = Runner.run(CutCtx, EngineId::Switch, Entry);
    if (O.Status != RunStatus::StepLimit)
      continue;
    CutCtx.Resume = true;
    snapshot::MachineState MS;
    MS.Pc = O.Fault.Pc;
    MS.FuelRemaining =
        Limits.MaxSteps == UINT64_MAX ? UINT64_MAX : Limits.MaxSteps - O.Steps;
    MS.StepsRetired = O.Steps;
    MS.SlicesRetired = 1;
    if (Pool.empty() || snapshot::serialize(CutCtx, CutVm, MS) != Pool.back())
      Pool.push_back(snapshot::serialize(CutCtx, CutVm, MS));
  }
  // Each genuine snapshot (written as v3) again as a v2 buffer: the same
  // layout under the byte-serial seal, so mutations hit both seals the
  // reader verifies. The version is a little-endian u32 at offset 4.
  for (size_t I = 0, Genuine = Pool.size(); I < Genuine; ++I) {
    std::vector<uint8_t> V2 = Pool[I];
    V2[4] = 2;
    snapshot::resealChecksum(V2);
    Pool.push_back(std::move(V2));
  }

  Rng Rand(Seed);
  for (uint64_t Round = 0; Round < Rounds; ++Round) {
    const std::vector<uint8_t> &Victim = Pool[Rand.below(Pool.size())];
    std::vector<uint8_t> M = Victim;
    switch (Rand.below(4)) {
    case 0: { // random byte flips
      const unsigned Flips = 1 + static_cast<unsigned>(Rand.below(8));
      for (unsigned F = 0; F < Flips; ++F)
        M[Rand.below(M.size())] ^= static_cast<uint8_t>(1 + Rand.below(255));
      break;
    }
    case 1: // truncation (possibly to nothing)
      M.resize(Rand.below(M.size()));
      break;
    case 2: { // junk extension
      const unsigned Extra = 1 + static_cast<unsigned>(Rand.below(16));
      for (unsigned X = 0; X < Extra; ++X)
        M.push_back(static_cast<uint8_t>(Rand.below(256)));
      break;
    }
    case 3: { // zeroed span (may be a no-op on already-zero bytes)
      const size_t Off = Rand.below(M.size());
      const size_t Len = std::min<size_t>(8, M.size() - Off);
      std::fill(M.begin() + Off, M.begin() + Off + Len, 0);
      break;
    }
    }

    // Both entry points must hold: the header decoder on its own, and the
    // full restore into fresh objects. Typed rejection or byte-identical
    // acceptance are the only legal outcomes; crashing or corrupting
    // state is what the sanitizer jobs would turn into a hard failure.
    ++R.Points;
    snapshot::SnapshotHeader H;
    (void)snapshot::readHeader(M.data(), M.size(), H);
    Vm V(0);
    ExecContext C(Sys.Prog, V);
    snapshot::MachineState MS;
    snapshot::SnapshotError Err =
        snapshot::restore(M.data(), M.size(), Sys.Prog, C, V, MS);
    if (Err == snapshot::SnapshotError::None && M != Victim)
      foldFailure(R, "fuzz round " + std::to_string(Round),
                  "restore accepted a corrupted snapshot");
  }
  return R;
}

EngineObservation sc::harness::replayTrace(const Code &Prog,
                                           const snapshot::ReplayTrace &T,
                                           EngineId E,
                                           snapshot::SnapshotError *OutErr) {
  EngineObservation Obs;
  Vm Machine(0);
  ExecContext Ctx(Prog, Machine);
  snapshot::MachineState MS;
  snapshot::SnapshotError Err = snapshot::restore(
      T.Checkpoint.data(), T.Checkpoint.size(), Prog, Ctx, Machine, MS);
  if (OutErr)
    *OutErr = Err;
  if (Err != snapshot::SnapshotError::None)
    return Obs;

  EngineRunner Runner(Prog);
  uint64_t Steps = MS.StepsRetired;
  uint32_t Pc = MS.Pc;
  // An empty schedule replays to the checkpoint itself: a preempted stop
  // at the restored PC.
  RunOutcome O;
  O.Status = RunStatus::StepLimit;
  O.Fault.Pc = Pc;
  for (uint64_t Budget : T.SliceBudgets) {
    EngineId Use = E;
    // Whole-slice leader fallback, exactly as VmSession schedules it, so
    // a replay is a deterministic function of (checkpoint, budgets,
    // engine).
    if (isStaticEngine(E) && !Runner.canEnter(E, Pc))
      Use = EngineId::Switch;
    Ctx.MaxSteps = Budget;
    O = Runner.run(Ctx, Use, Pc);
    Steps += O.Steps;
    if (O.Status != RunStatus::StepLimit)
      break;
    Pc = O.Fault.Pc;
    Ctx.Resume = true;
  }
  O.Steps = Steps;
  return snapshotObservation(Ctx, Machine, O);
}

InjectReport sc::harness::sweepSlicedFaults(const forth::System &Sys,
                                            const std::string &Word,
                                            const RunLimits &Limits,
                                            uint64_t SliceSteps) {
  InjectReport R;
  const uint32_t Entry = Sys.entryOf(Word);
  EngineObservation Full =
      observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, Limits);
  const uint64_t Total = Full.Outcome.Steps;

  auto CheckAllEngines = [&](const RunLimits &L, const std::string &Where) {
    for (unsigned E = 0; E < NumEngines; ++E) {
      EngineId Id = static_cast<EngineId>(E);
      checkSliced(observeEngine(Sys, Sys.Prog, Entry, Id, L),
                  observeEngineSliced(Sys, Sys.Prog, Entry, {Id}, SliceSteps,
                                      L),
                  Id, Where, R);
    }
  };

  // Step-limit axis: a preempted run must hit the overall budget at the
  // same point, with the same recorded fault, as an uninterrupted run.
  for (uint64_t M = 0; M <= Total; ++M) {
    RunLimits L = Limits;
    L.MaxSteps = M;
    CheckAllEngines(L, "MaxSteps=" + std::to_string(M));
  }

  // Capacity axis: overflow traps must land identically when the run is
  // preempted on the way there.
  auto Peak = [&](unsigned RunLimits::*Field, unsigned Cap) {
    return static_cast<unsigned>(
        bisectSmallest(0, Cap, [&](uint64_t C) {
          RunLimits L = Limits;
          L.*Field = static_cast<unsigned>(C);
          return sameResult(
              observeEngine(Sys, Sys.Prog, Entry, EngineId::Switch, L), Full);
        }));
  };
  const unsigned PeakDs = Peak(&RunLimits::DsCapacity, Limits.DsCapacity);
  for (unsigned C = 0; C < PeakDs; ++C) {
    RunLimits L = Limits;
    L.DsCapacity = C;
    CheckAllEngines(L, "DsCapacity=" + std::to_string(C));
  }
  const unsigned PeakRs = Peak(&RunLimits::RsCapacity, Limits.RsCapacity);
  for (unsigned C = 0; C < PeakRs; ++C) {
    RunLimits L = Limits;
    L.RsCapacity = C;
    CheckAllEngines(L, "RsCapacity=" + std::to_string(C));
  }
  return R;
}
