//===-- session/VmSession.h - Supervised preemptible execution -*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A supervised execution session over a prepared program. VmSession runs
/// a PreparedCode in bounded slices and makes every supervision decision
/// at the slice boundaries, where the resume contract of docs/TRAPS.md
/// guarantees canonical machine state: all stack items in memory, exact
/// depths, and a fault PC that any engine may resume from. The engine hot
/// loops stay completely untouched — a slice is an ordinary run with
/// ExecContext::MaxSteps set to the slice size.
///
/// Supervision axes, all per-policy:
///
///   - fuel: a total guest-step budget across the session's runs;
///   - deadline: a wall-clock bound checked between slices (an infinite
///     guest loop terminates within one slice of the deadline);
///   - cancellation: a thread-safe flag observed between slices;
///   - fault fallback: on a real guest fault, optionally replay the
///     faulting slice under the canonical switch engine and classify the
///     fault as confirmed / refuted / inconclusive; after a configured
///     number of confirmed faults the program is quarantined process-wide
///     and further sessions refuse to run it.
///
/// Every decision ticks a metrics::SessionCounters field, surfaced by
/// forth_run's session summary and the session_overhead bench.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SESSION_VMSESSION_H
#define SC_SESSION_VMSESSION_H

#include "metrics/Counters.h"
#include "prepare/Prepare.h"
#include "snapshot/Snapshot.h"
#include "vm/ExecContext.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

namespace sc::prepare {
class PrepareCache;
} // namespace sc::prepare

namespace sc::session {

/// Why a session run returned to the caller.
enum class StopKind : uint8_t {
  Halted,          ///< guest executed Halt: normal completion
  Fault,           ///< guest trapped; SessionResult::Outcome has the fault
  FuelExhausted,   ///< the session's step budget ran out (resumable)
  DeadlineExpired, ///< the wall-clock deadline passed (resumable)
  Cancelled,       ///< cancel() observed at a slice boundary (resumable)
  Preempted,       ///< bounded dispatch hit its slice cap (resumable)
  Quarantined,     ///< the program is quarantined; nothing was executed
};

const char *stopKindName(StopKind K);

/// Verdict of a fallback replay of a faulting slice under the canonical
/// switch engine.
enum class Confirmation : uint8_t {
  Confirmed,    ///< the replay reproduced the fault
  Refuted,      ///< the replay disagreed (halted, ran on, or differed)
  Inconclusive, ///< the replay hit its own step budget
};

const char *confirmationName(Confirmation C);

/// Supervision policy. The defaults run unsupervised except for slicing:
/// no fuel limit, no deadline, no fault fallback.
struct SessionPolicy {
  /// Maximum guest steps per engine entry. Supervision latency — how
  /// stale a cancel or deadline can be before the session notices — is
  /// bounded by one slice (plus the static engines' safe-point
  /// overshoot, itself bounded by the longest basic block).
  uint64_t SliceSteps = 4096;
  /// Total guest-step budget across every run() of this session.
  uint64_t FuelSteps = UINT64_MAX;
  /// Wall-clock budget per run() call; zero means none.
  std::chrono::nanoseconds Deadline{0};
  /// Replay faulting slices under the switch engine for confirmation.
  /// Costs a machine snapshot before every slice, so it is off by
  /// default (the default slice loop performs no allocation at all).
  bool ConfirmFaults = false;
  /// Quarantine the program process-wide after this many confirmed
  /// faults in this session; zero disables quarantining.
  unsigned QuarantineAfter = 0;
  /// Step budget for a confirmation replay; zero derives one generous
  /// enough for any slice: SliceSteps * 8 + 1024 (a static slice may
  /// legitimately overshoot SliceSteps to reach a safe point, and the
  /// switch replay of a static slice executes the unspecialized
  /// instruction count).
  uint64_t ReplayBudgetSteps = 0;
  /// Write a durable checkpoint (snapshot::serialize of the full machine
  /// state) every this many slices, plus once at the first slice boundary
  /// of a run that has none yet — so a crash-recovered job always has a
  /// checkpoint to restart from. Zero disables checkpointing; the default
  /// slice loop then stays allocation-free (checkpointing reuses one
  /// buffer, so a steady cadence stops allocating once sizes stabilize).
  uint64_t CheckpointEverySlices = 0;
  /// Record the slice-budget schedule since the last checkpoint into a
  /// snapshot::ReplayTrace, making any stop time-travel replayable
  /// (harness::replayTrace re-runs checkpoint + schedule under any
  /// engine). Implies an entry checkpoint even when CheckpointEverySlices
  /// is zero. Costs a checkpoint copy per checkpoint; off by default.
  bool RecordTrace = false;
};

/// Everything a run() reports.
struct SessionResult {
  StopKind Stop = StopKind::Halted;
  /// Aggregated outcome: Steps accumulates across slices; Status/Fault
  /// describe the final stop (StepLimit for the resumable StopKinds).
  vm::RunOutcome Outcome;
  uint64_t Slices = 0;  ///< engine entries this run() made
  uint32_t ResumePc = 0; ///< where a resumable stop may continue
  /// True for FuelExhausted / DeadlineExpired / Cancelled / Preempted:
  /// calling
  /// run(ResumePc) again (after refuelling / extending / resetCancel())
  /// continues the guest exactly where it stopped.
  bool Resumable = false;
  /// Fallback replay verdict; meaningful only when Replayed is set.
  bool Replayed = false;
  Confirmation Verdict = Confirmation::Inconclusive;
  /// This run() pushed the program over the quarantine threshold.
  bool Quarantined = false;
};

/// Machine state captured before a slice so a faulting slice can be
/// replayed under the reference engine. Public so tests can drive
/// confirmFault directly (including the refuted branch, which a healthy
/// engine never produces).
struct SliceSnapshot {
  /// Full copy: data space, accessibility limit, output. Constructed
  /// empty (zero data space) so an unused snapshot costs nothing; the
  /// supervision loop must stay allocation-free when ConfirmFaults is
  /// off (the session_overhead bench asserts this).
  vm::Vm Machine{0};
  std::vector<vm::Cell> DS, RS;
  unsigned DsDepth = 0, RsDepth = 0;
  unsigned DsCapacity = 0, RsCapacity = 0;
  bool Resume = false;
};

/// Pure fallback check: replays one slice from \p Before at \p Pc under
/// the canonical switch engine and classifies \p Observed (the faulting
/// outcome a specialized engine reported for that slice). For static
/// flavors only the fault class is compared — manipulation absorption
/// can legitimately move an overflow point — while stream flavors must
/// match FaultInfo field for field. Outcomes that are not real faults
/// (Halted, StepLimit) are refuted by definition.
Confirmation confirmFault(const prepare::PreparedCode &PC,
                          const SliceSnapshot &Before, uint32_t Pc,
                          const vm::RunOutcome &Observed,
                          uint64_t ReplayBudget);

/// Process-wide registry of programs whose faults were confirmed often
/// enough to stop running them. Keyed on Code::identity() — the content
/// hash — NOT on the object's address or version stamp: a quarantine
/// names *what the program says*, so it must survive a checkpoint being
/// restored over a recompiled Code in this or another process, and a
/// recycled address must never inherit a dead program's quarantine.
/// (Pointer+version keying, which this registry used before snapshots
/// existed, got the aliasing half right and the restore half wrong.)
/// Thread-safe.
class QuarantineRegistry {
public:
  bool isQuarantined(uint64_t Identity) const;
  void add(uint64_t Identity);
  /// Drops every entry (tests isolate themselves with this).
  void clear();
  size_t size() const;

private:
  mutable std::mutex Mu;
  std::set<uint64_t> Set;
};

/// The registry every session consults.
QuarantineRegistry &globalQuarantine();

/// A supervised session over one prepared program and one machine. Not
/// itself thread-safe except for cancel(); one thread runs, any thread
/// cancels. Sessions over EngineId::CallThreaded inherit that flavor's
/// non-reentrancy (static VM registers): never run two concurrently.
class VmSession {
public:
  VmSession(std::shared_ptr<const prepare::PreparedCode> PC, vm::Vm &Machine,
            SessionPolicy Policy = {});

  /// Runs the guest from instruction index \p Entry (an index into the
  /// prepared program; resolve names with the word overload) until it
  /// halts, faults, or a supervision limit stops it.
  SessionResult run(uint32_t Entry);
  /// Same, resolving \p Word through the prepared snapshot's word table.
  SessionResult run(const std::string &Word);
  /// Bounded dispatch for external schedulers: like run(Entry), but
  /// returns StopKind::Preempted (resumable at ResumePc) once \p
  /// MaxSlices slices have executed without another stop intervening.
  /// Deliberately ticks no extra counter, so N bounded dispatches
  /// aggregate the same SessionCounters as one unbounded run.
  SessionResult run(uint32_t Entry, uint64_t MaxSlices);

  /// Requests cancellation; the running thread stops at the next slice
  /// boundary. Callable from any thread, any number of times.
  void cancel() { CancelFlag.store(true, std::memory_order_relaxed); }
  /// Clears a previous cancel so the session can resume.
  void resetCancel() { CancelFlag.store(false, std::memory_order_relaxed); }

  /// Restores the context to a fresh guest run: empty stacks, cleared
  /// resume flag. Fuel already burned stays burned.
  void reset();

  /// Grants \p Steps more fuel (saturating).
  void refuel(uint64_t Steps);

  /// Replaces the fuel budget outright: the total becomes \p Steps and
  /// the burned tally restarts at zero. For recycling a session into a
  /// logically new job (the execution service's job free list), where
  /// "fuel already burned stays burned" is exactly wrong — the new job
  /// paid for its own budget. Only meaningful between runs.
  void resetFuel(uint64_t Steps);

  /// Swaps the session onto another prepared artifact of the *same
  /// program content* (SourceIdentity must match) — the adaptive tier
  /// controller's engine-promotion hook. Legal only between runs or at a
  /// resumable stop, where the TRAPS.md contract leaves canonical state
  /// any engine can resume from; the next run(ResumePc) continues the
  /// guest under the new engine. Callers must not hand a fused artifact
  /// to a mid-run session: fusion remaps instruction indices, so a
  /// resume PC from the unfused program is meaningless there (the
  /// identity check cannot catch this — fusion preserves content).
  void migrateTo(std::shared_ptr<const prepare::PreparedCode> NewPC);

  /// Serializes the session's current state into a fresh snapshot,
  /// resumable at \p Pc (a resumable stop's SessionResult::ResumePc).
  /// Carries the session's remaining fuel and retired step/slice tallies,
  /// so a session restored from it reports exactly like this one would.
  std::vector<uint8_t> checkpoint(uint32_t Pc) const;

  /// The last policy-written checkpoint (empty until one is taken; see
  /// SessionPolicy::CheckpointEverySlices). This is what crash recovery
  /// restarts from: everything after it died with the worker.
  const std::vector<uint8_t> &lastCheckpoint() const { return LastCheckpoint; }

  /// Restores a snapshot into this session: stacks, data space, output,
  /// fuel, and retired-progress accounting all roll back (or forward) to
  /// the snapshot. The snapshot must be keyed on this session's program
  /// content — snapshot::SnapshotError::CodeMismatch otherwise — but may
  /// have been taken under any engine, in any process. On success the
  /// buffer becomes this session's lastCheckpoint() and the caller
  /// continues with run(restoredPc()). On error the session is untouched.
  snapshot::SnapshotError restoreFrom(const uint8_t *Data, size_t N,
                                      snapshot::MachineState *Out = nullptr);
  snapshot::SnapshotError restoreFrom(const std::vector<uint8_t> &Snap,
                                      snapshot::MachineState *Out = nullptr) {
    return restoreFrom(Snap.data(), Snap.size(), Out);
  }

  /// Where the state installed by the last successful restoreFrom()
  /// resumes. Meaningless before any restore.
  uint32_t restoredPc() const { return RestoredPc; }

  /// Records the tier the session is currently running on so checkpoints
  /// carry it (the sc-snap v2+ sidecar): \p HeatSteps is the controller's
  /// accumulated heat for this program's identity, \p Rung the ladder
  /// index. Callers without a tier controller never call this; the
  /// sidecar then carries the session's own retired steps as heat.
  void noteTierState(uint64_t HeatSteps, uint32_t Rung) {
    TierHeatSteps = HeatSteps;
    TierRungIdx = Rung;
  }
  /// Sidecar values as restored / last noted (zero when cold).
  uint64_t tierHeatSteps() const { return TierHeatSteps; }
  uint32_t tierRung() const { return TierRungIdx; }

  /// The flight recorder: last checkpoint plus the slice budgets issued
  /// since (empty unless SessionPolicy::RecordTrace).
  const snapshot::ReplayTrace &trace() const { return Trace; }

  const metrics::SessionCounters &counters() const { return Stats; }
  const SessionPolicy &policy() const { return Policy; }
  vm::ExecContext &context() { return Ctx; }
  const prepare::PreparedCode &prepared() const { return *PC; }

private:
  uint64_t replayBudget() const;
  uint64_t fuelRemaining() const;
  /// The caller-tracked part of a checkpoint resumable at \p Pc.
  snapshot::MachineState machineState(uint32_t Pc) const;
  SliceSnapshot snapshot() const;
  void writeCheckpoint(uint32_t Pc);
  vm::RunOutcome runSlice(uint32_t Pc);

  std::shared_ptr<const prepare::PreparedCode> PC;
  SessionPolicy Policy;
  vm::ExecContext Ctx;
  std::atomic<bool> CancelFlag{false};
  metrics::SessionCounters Stats;
  uint64_t FuelUsed = 0;
  unsigned ConfirmedFaults = 0;

  /// Retired-progress accounting carried in checkpoints: guest steps and
  /// slices completed by this job across its whole life, including
  /// progress inherited through restoreFrom. A supervisor that restores
  /// a crashed job reports these instead of double-counting re-executed
  /// slices.
  uint64_t ProgressSteps = 0;
  uint64_t ProgressSlices = 0;

  /// Tier sidecar carried into checkpoints (see noteTierState).
  uint64_t TierHeatSteps = 0;
  uint32_t TierRungIdx = 0;

  std::vector<uint8_t> LastCheckpoint; ///< buffer reused across checkpoints
  uint64_t SlicesSinceCheckpoint = 0;
  bool HasCheckpoint = false;
  uint32_t RestoredPc = 0;
  snapshot::ReplayTrace Trace;
};

/// Rebuilds a runnable session from a shipped snapshot, cross-process
/// style: \p Prog is the restoring side's own Code object (content must
/// match the snapshot's recorded identity), \p Engine is whatever flavor
/// this side wants — snapshots are engine-neutral. The prepared artifact
/// comes from \p Cache by content identity when any session here already
/// prepared this program (PrepareCache::findByIdentity), falling back to
/// a fresh getOrPrepare. Returns nullptr and sets \p Err on rejection.
/// Continue with run(session->restoredPc()).
std::unique_ptr<VmSession>
restoreSession(const uint8_t *Data, size_t N, const vm::Code &Prog,
               prepare::EngineId Engine, vm::Vm &Machine,
               SessionPolicy Policy, prepare::PrepareCache &Cache,
               snapshot::SnapshotError *Err = nullptr);

} // namespace sc::session

#endif // SC_SESSION_VMSESSION_H
