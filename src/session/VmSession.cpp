//===-- session/VmSession.cpp - Supervised preemptible execution ----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "session/VmSession.h"

#include "dispatch/EngineRegistry.h"
#include "prepare/PrepareCache.h"
#include "support/Assert.h"

#include <algorithm>

using namespace sc;
using namespace sc::session;
using namespace sc::vm;

const char *sc::session::stopKindName(StopKind K) {
  switch (K) {
  case StopKind::Halted:
    return "halted";
  case StopKind::Fault:
    return "fault";
  case StopKind::FuelExhausted:
    return "fuel-exhausted";
  case StopKind::DeadlineExpired:
    return "deadline-expired";
  case StopKind::Cancelled:
    return "cancelled";
  case StopKind::Preempted:
    return "preempted";
  case StopKind::Quarantined:
    return "quarantined";
  }
  sc::unreachable("bad stop kind");
}

const char *sc::session::confirmationName(Confirmation C) {
  switch (C) {
  case Confirmation::Confirmed:
    return "confirmed";
  case Confirmation::Refuted:
    return "refuted";
  case Confirmation::Inconclusive:
    return "inconclusive";
  }
  sc::unreachable("bad confirmation");
}

Confirmation sc::session::confirmFault(const prepare::PreparedCode &PC,
                                       const SliceSnapshot &Before,
                                       uint32_t Pc,
                                       const RunOutcome &Observed,
                                       uint64_t ReplayBudget) {
  // Only real guest faults are confirmable claims.
  if (Observed.Status == RunStatus::Halted ||
      Observed.Status == RunStatus::StepLimit)
    return Confirmation::Refuted;

  Vm Machine = Before.Machine;
  ExecContext Ctx(PC.program(), Machine);
  Ctx.DsCapacity = Before.DsCapacity;
  Ctx.RsCapacity = Before.RsCapacity;
  Ctx.DS = Before.DS;
  Ctx.RS = Before.RS;
  Ctx.DsDepth = Before.DsDepth;
  Ctx.RsDepth = Before.RsDepth;
  engine::RunOptions Opts;
  Opts.Entry = Pc;
  Opts.MaxSteps = ReplayBudget;
  Opts.Resume = Before.Resume;
  const RunOutcome Replay =
      engine::runEngine(engine::referenceEngine(), PC.program(), Ctx, Opts);
  if (Replay.Status == RunStatus::StepLimit)
    return Confirmation::Inconclusive;
  if (Replay.Status != Observed.Status)
    return Confirmation::Refuted;
  // Static flavors may defer an overflow past absorbed manipulations, so
  // the exact fault point is not comparable; the fault class is.
  const bool Static = engine::isStaticEngine(PC.Engine);
  if (!Static && Replay.Fault != Observed.Fault)
    return Confirmation::Refuted;
  return Confirmation::Confirmed;
}

bool QuarantineRegistry::isQuarantined(uint64_t Identity) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Set.count(Identity) != 0;
}

void QuarantineRegistry::add(uint64_t Identity) {
  std::lock_guard<std::mutex> Lock(Mu);
  Set.insert(Identity);
}

void QuarantineRegistry::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Set.clear();
}

size_t QuarantineRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Set.size();
}

QuarantineRegistry &sc::session::globalQuarantine() {
  static QuarantineRegistry R;
  return R;
}

VmSession::VmSession(std::shared_ptr<const prepare::PreparedCode> Prepared,
                     Vm &Machine, SessionPolicy P)
    : PC(std::move(Prepared)), Policy(P), Ctx(PC->program(), Machine) {
  SC_ASSERT(PC != nullptr, "session over a null program");
  SC_ASSERT(Policy.SliceSteps > 0, "slices must make progress");
}

uint64_t VmSession::replayBudget() const {
  return Policy.ReplayBudgetSteps ? Policy.ReplayBudgetSteps
                                  : Policy.SliceSteps * 8 + 1024;
}

SliceSnapshot VmSession::snapshot() const {
  SliceSnapshot S;
  S.Machine = *Ctx.Machine;
  S.DS = Ctx.DS;
  S.RS = Ctx.RS;
  S.DsDepth = Ctx.DsDepth;
  S.RsDepth = Ctx.RsDepth;
  S.DsCapacity = Ctx.DsCapacity;
  S.RsCapacity = Ctx.RsCapacity;
  S.Resume = Ctx.Resume;
  return S;
}

void VmSession::reset() {
  Ctx.DsDepth = 0;
  Ctx.RsDepth = 0;
  Ctx.DsHighWater = 0;
  Ctx.RsHighWater = 0;
  Ctx.Resume = false;
  // A reset starts a fresh guest run: inherited progress and checkpoints
  // describe a run that no longer exists. Buffers keep their capacity so
  // a recycled session does not re-allocate.
  ProgressSteps = 0;
  ProgressSlices = 0;
  TierHeatSteps = 0;
  TierRungIdx = 0;
  SlicesSinceCheckpoint = 0;
  HasCheckpoint = false;
  RestoredPc = 0;
  LastCheckpoint.clear();
  Trace.Checkpoint.clear();
  Trace.SliceBudgets.clear();
}

uint64_t VmSession::fuelRemaining() const {
  if (Policy.FuelSteps == UINT64_MAX)
    return UINT64_MAX;
  return FuelUsed >= Policy.FuelSteps ? 0 : Policy.FuelSteps - FuelUsed;
}

snapshot::MachineState VmSession::machineState(uint32_t Pc) const {
  snapshot::MachineState MS;
  MS.Pc = Pc;
  MS.FuelRemaining = fuelRemaining();
  MS.StepsRetired = ProgressSteps;
  MS.SlicesRetired = ProgressSlices;
  // Heat can never be below the job's own retired steps; the max covers
  // callers that run without a tier controller (noteTierState never
  // called) so a restore still seeds a sensible heat.
  MS.HeatSteps = std::max(TierHeatSteps, ProgressSteps);
  MS.TierRung = TierRungIdx;
  return MS;
}

std::vector<uint8_t> VmSession::checkpoint(uint32_t Pc) const {
  std::vector<uint8_t> Out;
  snapshot::serializeInto(Out, Ctx, *Ctx.Machine, machineState(Pc),
                          PC->ProgramIdentity);
  return Out;
}

void VmSession::writeCheckpoint(uint32_t Pc) {
  snapshot::serializeInto(LastCheckpoint, Ctx, *Ctx.Machine, machineState(Pc),
                          PC->ProgramIdentity);
  HasCheckpoint = true;
  SlicesSinceCheckpoint = 0;
  ++Stats.Checkpoints;
  if (Policy.RecordTrace) {
    // The flight recorder starts over at every durable point: replay is
    // "last checkpoint plus the schedule executed after it".
    Trace.Checkpoint = LastCheckpoint;
    Trace.SliceBudgets.clear();
  }
}

snapshot::SnapshotError VmSession::restoreFrom(const uint8_t *Data, size_t N,
                                               snapshot::MachineState *Out) {
  snapshot::MachineState MS;
  const snapshot::SnapshotError E =
      snapshot::restore(Data, N, PC->program(), Ctx, *Ctx.Machine, MS);
  if (E != snapshot::SnapshotError::None)
    return E;
  ++Stats.Restores;
  // The snapshot's remaining fuel becomes this session's whole budget.
  Policy.FuelSteps = MS.FuelRemaining;
  FuelUsed = 0;
  ProgressSteps = MS.StepsRetired;
  ProgressSlices = MS.SlicesRetired;
  TierHeatSteps = MS.HeatSteps;
  TierRungIdx = MS.TierRung;
  RestoredPc = MS.Pc;
  ConfirmedFaults = 0;
  SlicesSinceCheckpoint = 0;
  HasCheckpoint = true;
  // The restored state is now the durable baseline (crash recovery calls
  // this with Data == LastCheckpoint.data(): skip the self-copy).
  if (Data != LastCheckpoint.data())
    LastCheckpoint.assign(Data, Data + N);
  if (Policy.RecordTrace) {
    Trace.Checkpoint = LastCheckpoint;
    Trace.SliceBudgets.clear();
  }
  if (Out)
    *Out = MS;
  return snapshot::SnapshotError::None;
}

RunOutcome VmSession::runSlice(uint32_t Pc) {
  if (engine::isStaticEngine(PC->Engine)) {
    const bool Enterable = prepare::canEnterAt(*PC, Pc);
    if (!Enterable) {
      // Snapshots are engine-neutral, so a restored PC may come from a
      // stream engine's stop and need not be a safe entry point of the
      // specialized translation. Run this slice under the reference
      // engine — its stops are resumable everywhere — and rejoin the
      // specialized code at the next boundary that is a leader.
      ++Stats.LeaderFallbacks;
      engine::RunOptions Opts;
      Opts.Entry = Pc;
      Opts.MaxSteps = Ctx.MaxSteps;
      Opts.Resume = Ctx.Resume;
      return engine::runEngine(engine::referenceEngine(), PC->program(), Ctx,
                               Opts);
    }
  }
  return prepare::runPrepared(*PC, Ctx, Pc);
}

void VmSession::refuel(uint64_t Steps) {
  if (Policy.FuelSteps == UINT64_MAX)
    return;
  const uint64_t Room = UINT64_MAX - Policy.FuelSteps;
  Policy.FuelSteps += std::min(Steps, Room);
}

void VmSession::resetFuel(uint64_t Steps) {
  Policy.FuelSteps = Steps;
  FuelUsed = 0;
}

void VmSession::migrateTo(std::shared_ptr<const prepare::PreparedCode> NewPC) {
  SC_ASSERT(NewPC != nullptr, "migration to a null artifact");
  SC_ASSERT(NewPC->SourceIdentity == PC->SourceIdentity,
            "migration must stay on the same program content");
  if (NewPC == PC)
    return;
  PC = std::move(NewPC);
  // Everything else in the context — stacks, resume flag, fuel, progress
  // accounting, checkpoints — is engine-neutral canonical state; only
  // the program pointer names the artifact being executed.
  Ctx.Prog = &PC->program();
  ++Stats.Migrations;
}

SessionResult VmSession::run(const std::string &Word) {
  return run(PC->entryOf(Word));
}

SessionResult VmSession::run(uint32_t Entry) {
  return run(Entry, UINT64_MAX);
}

SessionResult VmSession::run(uint32_t Entry, uint64_t MaxSlices) {
  SC_ASSERT(MaxSlices > 0, "a dispatch must run at least one slice");
  SessionResult R;
  if (globalQuarantine().isQuarantined(PC->SourceIdentity)) {
    ++Stats.QuarantineRejections;
    R.Stop = StopKind::Quarantined;
    R.ResumePc = Entry;
    return R;
  }

  const bool HasDeadline = Policy.Deadline.count() > 0;
  const auto DeadlineAt = std::chrono::steady_clock::now() + Policy.Deadline;

  uint32_t Pc = Entry;
  bool SlicedStop = false; // at least one slice ended in StepLimit
  FaultInfo LastStop{};
  SliceSnapshot Before; // filled per slice only when ConfirmFaults is on
  const bool WantCheckpoints =
      Policy.CheckpointEverySlices > 0 || Policy.RecordTrace;
  for (;;) {
    // Supervision decisions happen only here, between slices, where the
    // resume contract guarantees canonical machine state. Checkpoints
    // come first so every dispatch that reaches a boundary has a durable
    // restart point, whatever stop follows.
    if (WantCheckpoints &&
        (!HasCheckpoint ||
         (Policy.CheckpointEverySlices &&
          SlicesSinceCheckpoint >= Policy.CheckpointEverySlices)))
      writeCheckpoint(Pc);
    if (CancelFlag.load(std::memory_order_relaxed)) {
      ++Stats.Cancellations;
      R.Stop = StopKind::Cancelled;
      break;
    }
    if (HasDeadline && std::chrono::steady_clock::now() >= DeadlineAt) {
      ++Stats.DeadlineHits;
      R.Stop = StopKind::DeadlineExpired;
      break;
    }
    const uint64_t FuelLeft =
        Policy.FuelSteps == UINT64_MAX
            ? UINT64_MAX
            : (FuelUsed >= Policy.FuelSteps ? 0 : Policy.FuelSteps - FuelUsed);
    if (FuelLeft == 0) {
      ++Stats.FuelExhausted;
      R.Stop = StopKind::FuelExhausted;
      break;
    }

    // Snapshot only when fault confirmation is on: the default slice
    // loop must not allocate (the session_overhead bench asserts this).
    if (Policy.ConfirmFaults)
      Before = snapshot();

    Ctx.MaxSteps = std::min(Policy.SliceSteps, FuelLeft);
    if (Policy.RecordTrace)
      Trace.SliceBudgets.push_back(Ctx.MaxSteps);
    const RunOutcome O = runSlice(Pc);
    ++Stats.Slices;
    ++R.Slices;
    ++SlicesSinceCheckpoint;
    ++ProgressSlices;
    Stats.StepsExecuted += O.Steps;
    ProgressSteps += O.Steps;
    if (Policy.FuelSteps != UINT64_MAX)
      FuelUsed += O.Steps; // static safe-point overshoot is charged too
    R.Outcome.Steps += O.Steps;

    if (O.Status == RunStatus::Halted) {
      R.Stop = StopKind::Halted;
      R.Outcome.Status = RunStatus::Halted;
      R.ResumePc = Pc;
      return R;
    }
    if (O.Status == RunStatus::StepLimit) {
      Pc = O.Fault.Pc;
      LastStop = O.Fault;
      SlicedStop = true;
      Ctx.Resume = true; // the sentinel survives the preempted slice
      if (R.Slices >= MaxSlices) {
        // Bounded dispatch for an external scheduler. Deliberately ticks
        // no counter: a scheduler-driven session must aggregate the same
        // SessionCounters as an unbounded run of the same guest.
        R.Stop = StopKind::Preempted;
        break;
      }
      continue;
    }

    // A real guest fault.
    R.Stop = StopKind::Fault;
    R.Outcome.Status = O.Status;
    R.Outcome.Fault = O.Fault;
    R.ResumePc = Pc;
    if (Policy.ConfirmFaults) {
      ++Stats.FallbackReplays;
      R.Replayed = true;
      R.Verdict = confirmFault(*PC, Before, Pc, O, replayBudget());
      switch (R.Verdict) {
      case Confirmation::Confirmed:
        ++Stats.FaultsConfirmed;
        ++ConfirmedFaults;
        break;
      case Confirmation::Refuted:
        ++Stats.FaultsRefuted;
        break;
      case Confirmation::Inconclusive:
        ++Stats.ReplaysInconclusive;
        break;
      }
      if (Policy.QuarantineAfter != 0 &&
          ConfirmedFaults >= Policy.QuarantineAfter &&
          R.Verdict == Confirmation::Confirmed) {
        globalQuarantine().add(PC->SourceIdentity);
        ++Stats.Quarantines;
        R.Quarantined = true;
      }
    }
    return R;
  }

  // One of the resumable supervision stops.
  R.Resumable = true;
  R.ResumePc = Pc;
  R.Outcome.Status = RunStatus::StepLimit;
  if (SlicedStop)
    R.Outcome.Fault = LastStop;
  else
    R.Outcome.Fault.Pc = Pc;
  return R;
}

std::unique_ptr<VmSession> sc::session::restoreSession(
    const uint8_t *Data, size_t N, const Code &Prog, prepare::EngineId Engine,
    Vm &Machine, SessionPolicy Policy, prepare::PrepareCache &Cache,
    snapshot::SnapshotError *Err) {
  auto Fail = [&](snapshot::SnapshotError E) {
    if (Err)
      *Err = E;
    return nullptr;
  };
  // Validate before preparing anything: a hostile buffer must be able to
  // do nothing more than return an error code.
  snapshot::SnapshotHeader H;
  if (snapshot::SnapshotError E = snapshot::readHeader(Data, N, H);
      E != snapshot::SnapshotError::None)
    return Fail(E);
  // The translation is keyed by content, not by this process's pointers:
  // an artifact prepared from any Code with the snapshot's content will
  // do, whichever object it was prepared from.
  std::shared_ptr<const prepare::PreparedCode> PC =
      Cache.findByIdentity(H.CodeIdentity, Engine);
  if (!PC) {
    if (Prog.identity() != H.CodeIdentity)
      return Fail(snapshot::SnapshotError::CodeMismatch);
    PC = Cache.getOrPrepare(Prog, Engine);
  }
  auto Sess = std::make_unique<VmSession>(std::move(PC), Machine, Policy);
  if (snapshot::SnapshotError E = Sess->restoreFrom(Data, N);
      E != snapshot::SnapshotError::None)
    return Fail(E);
  if (Err)
    *Err = snapshot::SnapshotError::None;
  return Sess;
}
