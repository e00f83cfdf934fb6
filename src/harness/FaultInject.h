//===-- harness/FaultInject.h - Systematic fault injection -----*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault-injection campaigns over every engine in the
/// project. Four injection axes:
///
///   - sweepStepLimit: force RunStatus::StepLimit at every execution
///     point of a program and require all stream engines to report an
///     identical machine state (PC, opcode, depths) at each point.
///   - shrinkCapacities: run under every stack capacity below the
///     program's true peak (and every interesting data-space limit) to
///     force each overflow / BadMemAccess class, again requiring
///     identical FaultInfo across engines.
///   - mutateAndCompare: point-mutate verified bytecode, keep mutants
///     that still pass Code::verify (the oracle), and require identical
///     outcomes across all engines.
///   - sweepSliceBoundaries / sweepSlicedFaults: run preempted — the
///     step budget expires every few steps and execution resumes at the
///     recorded fault PC, possibly on a different engine — and require
///     the sliced run to be observationally identical to one-shot
///     execution (the resume contract of docs/TRAPS.md).
///
/// The comparator is a pure function over observations so tests can
/// tamper with one observation and prove a desynced engine is caught.
///
//===----------------------------------------------------------------------===//

#ifndef SC_HARNESS_FAULTINJECT_H
#define SC_HARNESS_FAULTINJECT_H

#include "dispatch/EngineRegistry.h"
#include "forth/Forth.h"
#include "snapshot/Snapshot.h"
#include "vm/RunResult.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sc::harness {

/// Engines under differential test — the canonical registry enumeration
/// (Switch is the reference implementation the comparator trusts).
using EngineId = engine::EngineId;
inline constexpr unsigned NumEngines = engine::NumEngineIds;

// Re-exported (not wrapped): argument-dependent lookup on EngineId finds
// the engine:: originals anyway, and a wrapper would make unqualified
// calls ambiguous.
using engine::engineName;

/// Static engines execute transformed code: step counts (micros and
/// removed manipulations change the count) and therefore StepLimit stop
/// points legitimately differ from the stream engines, so the comparator
/// masks those fields for them (see docs/TRAPS.md). Return-stack values
/// are compared exactly for every engine: calls push canonical original
/// instruction indices even in specialized code.
using engine::isStaticEngine;

/// Injectable resource limits for one observed run.
struct RunLimits {
  unsigned DsCapacity = vm::ExecContext::StackCells;
  unsigned RsCapacity = vm::ExecContext::StackCells;
  uint64_t MaxSteps = UINT64_MAX;
  /// Accessible data-space limit in bytes (Vm::setAccessibleLimit);
  /// SIZE_MAX leaves the machine's full data space addressable.
  size_t DataSpaceLimit = static_cast<size_t>(-1);
};

/// Everything observable about one engine run.
struct EngineObservation {
  vm::RunOutcome Outcome;
  std::vector<vm::Cell> DS; ///< final data stack, bottom first
  std::vector<vm::Cell> RS; ///< final return stack, bottom first
  std::string Out;          ///< everything the program printed
  unsigned DsHighWater = 0; ///< sampled watermark (lower bound on peak)
  unsigned RsHighWater = 0;
};

/// Runs instruction \p Entry of \p Prog under engine \p E against a copy
/// of \p Sys's machine state, with \p Limits applied.
EngineObservation observeEngine(const forth::System &Sys,
                                const vm::Code &Prog, uint32_t Entry,
                                EngineId E, const RunLimits &Limits = {});

/// Preempted execution: runs \p Entry in slices of at most \p SliceSteps
/// steps, re-entering at the recorded fault PC after every StepLimit
/// stop (with ExecContext::Resume set so the return-stack sentinel is
/// not re-seeded). Slice i runs under Rotation[i % Rotation.size()]; a
/// static engine asked to resume at a PC that is not a basic-block
/// leader hands that slice to the Switch engine instead (stream stop
/// points need not be leaders). \p Limits.MaxSteps bounds the *total*
/// step budget across slices. The result is indistinguishable from a
/// one-shot run on the same engine except for the watermarks, which a
/// sliced run samples at every slice boundary.
EngineObservation observeEngineSliced(const forth::System &Sys,
                                      const vm::Code &Prog, uint32_t Entry,
                                      const std::vector<EngineId> &Rotation,
                                      uint64_t SliceSteps,
                                      const RunLimits &Limits = {});

/// Pure comparator: empty string when \p Got (produced by \p GotId) is
/// consistent with the reference observation \p Ref, else a readable
/// divergence description. Static engines are compared with step counts
/// and StepLimit stop points masked; everything else — including
/// return-stack values — is compared exactly.
std::string compareObservations(const EngineObservation &Ref,
                                const EngineObservation &Got, EngineId GotId);

/// Strict same-engine comparator for sliced-vs-one-shot runs: every
/// field except the watermarks (which sliced runs sample at more points)
/// must match, with no static masks — a sliced run and a one-shot run of
/// the *same* engine take identical paths. Empty string on agreement.
std::string compareSlicedObservation(const EngineObservation &OneShot,
                                     const EngineObservation &Sliced,
                                     EngineId Id);

/// Renders an observation for divergence messages.
std::string describeObservation(const EngineObservation &O);

/// Aggregate result of one injection campaign.
struct InjectReport {
  uint64_t Points = 0;         ///< injection points exercised
  uint64_t Faults = 0;         ///< reference runs that ended in a trap
  uint64_t Mismatches = 0;     ///< comparator failures
  std::string FirstDivergence; ///< first failure, for the test log
  bool ok() const { return Mismatches == 0; }
};

/// Step-limit sweep: runs \p Word to completion once under \p Limits,
/// then replays it with MaxSteps = 0..completion, requiring all six
/// stream engines to agree on the full outcome (including the resume PC
/// and trap-time depths) at every point. Static engines are excluded:
/// their step counts are not comparable.
InjectReport sweepStepLimit(const forth::System &Sys, const std::string &Word,
                            const RunLimits &Limits = {});

/// Capacity shrink: determines the true data/return stack peaks of
/// \p Word by bisection, then replays it at every capacity below each
/// peak (forcing StackOverflow / RStackOverflow at the deepest point)
/// and at data-space limits below the program's reach (forcing
/// BadMemAccess), requiring identical FaultInfo everywhere.
/// \p IncludeStatic adds the two static engines; callers enable it only
/// for programs whose overflow point is not deferrable by manipulation
/// absorption (e.g. literal pushes - see docs/TRAPS.md).
InjectReport shrinkCapacities(const forth::System &Sys,
                              const std::string &Word,
                              const RunLimits &Limits = {},
                              bool IncludeStatic = false);

/// Mutation fuzz: applies \p Rounds random point mutations to the
/// program's instruction stream (seeded by \p Seed); mutants that still
/// pass Code::verify are run across all engines, requiring identical
/// outcomes (static engines are skipped for mutants that hit the step
/// budget). A default budget of 100k steps applies when \p Limits leaves
/// MaxSteps unlimited, because verified mutants may still diverge.
InjectReport mutateAndCompare(const forth::System &Sys,
                              const std::string &Word, uint64_t Rounds,
                              uint64_t Seed, const RunLimits &Limits = {});

/// Slice-boundary sweep: proves sliced == one-shot. Runs \p Word once to
/// completion, then replays it under every engine with every slice
/// length 1..min(total steps, \p MaxSlice; 0 means no cap), requiring
/// strict equality with that engine's one-shot observation. Finally runs
/// a set of mixed-engine rotations (including stream->static resumes)
/// and checks each against the Switch reference with the usual static
/// masks.
InjectReport sweepSliceBoundaries(const forth::System &Sys,
                                  const std::string &Word,
                                  const RunLimits &Limits = {},
                                  uint64_t MaxSlice = 0);

/// Sliced fault matrix: re-runs the step-limit and stack-capacity fault
/// campaigns with execution cut into \p SliceSteps-step slices and
/// requires the final observation — FaultInfo included — to be
/// identical to the corresponding one-shot run, engine by engine. A
/// preempted-and-resumed run must trap exactly like an uninterrupted
/// one.
InjectReport sweepSlicedFaults(const forth::System &Sys,
                               const std::string &Word,
                               const RunLimits &Limits = {},
                               uint64_t SliceSteps = 3);

/// Snapshot-boundary sweep: proves checkpoint/restore == one-shot. For
/// every engine, runs \p Word once uninterrupted, then for every slice
/// boundary k (1..total-1 own steps, capped by \p MaxCut when nonzero):
/// runs k steps, serializes the machine, restores the bytes into a
/// completely fresh ExecContext and Vm (cross-process style: nothing is
/// shared with the original run), and
///
///   - re-serializes immediately, requiring byte-for-byte identity
///     (serialize . restore is the identity on valid snapshots);
///   - continues the restored state under the same engine, requiring
///     strict field-for-field equality with the one-shot run; and
///   - continues a second restore under a rotated *different* engine —
///     snapshots are engine-neutral — checked against the Switch
///     reference (static masks apply when either engine is static, and a
///     static engine restored at a non-leader PC routes slices to Switch
///     until it can rejoin, mirroring VmSession).
///
/// Faulting words exercise snapshot-under-fault: the continuation must
/// reproduce the original fault field for field.
InjectReport sweepSnapshotBoundaries(const forth::System &Sys,
                                     const std::string &Word,
                                     const RunLimits &Limits = {},
                                     uint64_t MaxCut = 0);

/// Mutation fuzz over valid snapshots: builds a pool of genuine
/// serialized states of \p Word (several cut points, each as written (v3)
/// and resealed as v2 so both seals are exercised), then \p Rounds
/// times corrupts a copy — random byte flips, truncations, junk
/// extensions, zeroed spans — and feeds it to restore(). Every mutant
/// must either be rejected with a typed SnapshotError or be byte-for-
/// byte identical to its uncorrupted original; anything else (or any
/// crash, which the sanitizer jobs would catch) is a mismatch.
InjectReport fuzzSnapshots(const forth::System &Sys, const std::string &Word,
                           uint64_t Rounds, uint64_t Seed,
                           const RunLimits &Limits = {});

/// Time-travel replay: restores \p T's checkpoint and re-executes its
/// recorded slice-budget schedule under \p E (with the static-leader
/// fallback of sliced observation). The trace pins the entire schedule,
/// so the outcome is a deterministic function of (checkpoint, budgets,
/// engine): replaying a faulting job's trace reproduces its fault. On a
/// restore error returns an empty observation and sets \p OutErr.
/// Outcome.Steps includes the steps the checkpoint had already retired,
/// so a full-trace replay is comparable to a one-shot observation.
EngineObservation replayTrace(const vm::Code &Prog,
                              const snapshot::ReplayTrace &T, EngineId E,
                              snapshot::SnapshotError *OutErr = nullptr);

/// Exact data-stack peak of \p Word by capacity bisection: the smallest
/// DsCapacity under which the run still reproduces the unconstrained
/// outcome. Complements ExecContext::DsHighWater, which is only sampled
/// at run boundaries and traps.
unsigned measureDsHighWater(const forth::System &Sys, const std::string &Word,
                            const RunLimits &Limits = {});

} // namespace sc::harness

#endif // SC_HARNESS_FAULTINJECT_H
