//===-- snapshot/Snapshot.h - Durable machine-state snapshots --*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the canonical machine state into a versioned,
/// length-prefixed, checksummed binary format, and its hardened inverse.
///
/// The resume contract (docs/TRAPS.md, "Preemption and resume") guarantees
/// that at every slice boundary each engine has reconciled its stack cache:
/// cached items written back, exact depths in ExecContext, a resumable PC
/// in the stop's FaultInfo. A snapshot is exactly that canonical state made
/// durable — both stacks to their live depths, the data space, the output
/// buffer, capacities and watermarks, fuel, and the Resume flag — keyed on
/// the program's content identity so it can be restored in another process
/// over a recompiled Code object.
///
/// What a snapshot deliberately does NOT contain:
///  - Prepared/threaded streams and static-cache translations. These are
///    pure functions of the Code (Titzer's in-place-interpretation
///    argument: side structures derivable from code are not state);
///    restore re-prepares through prepare::PrepareCache.
///  - The Code itself. Snapshots key on Code::identity(); shipping the
///    program is the caller's (already-solved) problem.
///  - Engine choice. The canonical state is engine-neutral, so a restored
///    job can resume under any engine in the registry.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SNAPSHOT_SNAPSHOT_H
#define SC_SNAPSHOT_SNAPSHOT_H

#include "vm/ExecContext.h"

#include <cstdint>
#include <vector>

namespace sc::snapshot {

/// Typed rejection reasons. restore() never crashes, asserts, or touches
/// its outputs on failure: hostile bytes get a diagnosis, not UB.
enum class SnapshotError : uint8_t {
  None = 0,
  Truncated,        ///< buffer ends before the advertised layout does
  BadMagic,         ///< not a snapshot at all
  BadFormatVersion, ///< a format this build does not speak
  BadLength,        ///< total-length or a section length disagrees
  BadChecksum,      ///< trailing seal mismatch (bit rot, torn write)
  BadFieldValue,    ///< a field is internally inconsistent (depth vs
                    ///< section size, HERE out of range, PC out of code)
  DepthExceedsCapacity, ///< stored stack depth above stored capacity
  LimitExceeded,        ///< capacities/data space/output above RestoreLimits
  CodeMismatch,         ///< snapshot was taken over a different program
};

/// Human-readable name for a SnapshotError.
const char *snapshotErrorName(SnapshotError E);

/// Caps a restore is willing to allocate for, so a 16-byte hostile header
/// cannot demand a terabyte of stacks. Defaults are far above anything the
/// project's own machines use.
struct RestoreLimits {
  uint32_t MaxStackCells = 1u << 24;     ///< per stack, in cells
  uint64_t MaxDataSpaceBytes = 1u << 30; ///< data-space allocation
  uint64_t MaxOutputBytes = 1u << 30;    ///< output buffer
};

/// Caller-tracked execution position and accounting. The PC lives outside
/// ExecContext by design (engines take it as an argument and report stops
/// through FaultInfo), and the supervision layers keep fuel and retired
/// step/slice tallies; a resumable snapshot must carry all of them so a
/// restored job continues — and reports — exactly as the original would
/// have.
struct MachineState {
  uint32_t Pc = 0;
  uint64_t FuelRemaining = UINT64_MAX; ///< steps the job may still execute
  uint64_t StepsRetired = 0;           ///< steps completed before the snapshot
  uint64_t SlicesRetired = 0;          ///< slices completed before the snapshot
  /// Tier sidecar (sc-snap v2 on). HeatSteps is the TierController heat the
  /// program's identity had earned when the snapshot was taken — it can
  /// exceed StepsRetired because heat accumulates across jobs of the same
  /// code. TierRung is the promotion-ladder rung the job was running on.
  /// A migrating adopter seeds its own controller from these so the job
  /// resumes on its earned tier instead of resetting cold. v1 snapshots
  /// restore with both zero.
  uint64_t HeatSteps = 0;
  uint32_t TierRung = 0;
};

/// Decoded fixed-size header, for inspection tools. readHeader() fills it
/// only after the whole buffer (including checksum) has validated.
struct SnapshotHeader {
  uint32_t FormatVersion = 0;
  uint64_t TotalBytes = 0;
  uint64_t CodeIdentity = 0;
  uint64_t CodeVersion = 0;
  MachineState MS;
  uint8_t Resume = 0;
  uint32_t DsCapacity = 0;
  uint32_t RsCapacity = 0;
  uint32_t DsDepth = 0;
  uint32_t RsDepth = 0;
  uint32_t DsHighWater = 0;
  uint32_t RsHighWater = 0;
  uint64_t Here = 0;
  uint64_t AccessibleLimit = 0; ///< UINT64_MAX = uncapped
  uint64_t DataSpaceBytes = 0;  ///< allocated size
  uint64_t DataPrefixBytes = 0; ///< non-zero-trimmed bytes on the wire
  uint64_t OutputBytes = 0;
};

/// Serializes the canonical state of \p Ctx / \p Machine into \p Out
/// (replacing its contents; capacity is reused across checkpoints so a
/// steady-cadence checkpointer stops allocating once sizes stabilize).
/// \p Ctx.Prog must be set: the snapshot is keyed on its identity() and
/// version(). \p MS supplies the caller-tracked position and accounting.
void serializeInto(std::vector<uint8_t> &Out, const vm::ExecContext &Ctx,
                   const vm::Vm &Machine, const MachineState &MS);

/// As above, keyed on \p CodeIdentity instead of hashing Ctx.Prog: a
/// caller that already holds the identity of the program Ctx.Prog runs
/// (VmSession, from its PreparedCode) skips a full content hash per
/// checkpoint. The bytes equal the other overload's when \p CodeIdentity
/// is Ctx.Prog->identity().
void serializeInto(std::vector<uint8_t> &Out, const vm::ExecContext &Ctx,
                   const vm::Vm &Machine, const MachineState &MS,
                   uint64_t CodeIdentity);

/// Convenience wrapper returning a fresh buffer.
std::vector<uint8_t> serialize(const vm::ExecContext &Ctx,
                               const vm::Vm &Machine, const MachineState &MS);

/// Validates the buffer layout end to end — magic, format version, total
/// length, section lengths, checksum, field consistency — and decodes the
/// header. Performs no allocation proportional to the claimed sizes, so it
/// is safe on arbitrary bytes. Returns None and fills \p H on success.
SnapshotError readHeader(const uint8_t *Data, size_t N, SnapshotHeader &H);

/// Restores a snapshot into \p Ctx / \p Machine, which may be completely
/// fresh objects (a default ExecContext bound to Prog/Machine and a Vm of
/// any size — everything is resized to match the snapshot). \p Prog is the
/// program the restored state will run; its identity() must equal the
/// snapshot's recorded identity or the restore is refused with
/// CodeMismatch. Code::version() is recorded in the header for inspection
/// but deliberately NOT enforced: it is a process-local stamp, and any
/// content change moves the identity anyway (docs/TRAPS.md). On any error
/// the outputs are untouched. On success \p MS receives the position and
/// accounting, Ctx.MaxSteps holds the remaining fuel, and Ctx.Resume is
/// restored, so `runEngine(..., MS.Pc)` continues the original run.
SnapshotError restore(const uint8_t *Data, size_t N, const vm::Code &Prog,
                      vm::ExecContext &Ctx, vm::Vm &Machine, MachineState &MS,
                      const RestoreLimits &Limits = RestoreLimits());

/// The checksum restore() verifies over the \p N bytes before the trailing
/// checksum field, by the seal of the buffer's own format version (bytes
/// 4..8): byte-serial FNV-1a 64 for v1 and v2, the four-lane word seal
/// for v3 (see Snapshot.cpp). Exposed with resealChecksum() for hostile-
/// input tests that must craft *sealed* corruptions — a flipped depth
/// field alone only ever reaches BadChecksum; rewriting the seal lets a
/// test prove the inner typed rejections (DepthExceedsCapacity, ...) fire.
uint64_t snapshotChecksum(const uint8_t *Data, size_t N);

/// Recomputes and rewrites the trailing checksum of \p Snap in place, by
/// the seal of the buffer's own format version. Testing support only; no
/// production path ever reseals.
void resealChecksum(std::vector<uint8_t> &Snap);

/// A faulting job's flight recorder: the last durable checkpoint plus the
/// exact slice-budget schedule executed after it. Together they make the
/// fault mechanically re-derivable — time-travel replay restores the
/// checkpoint and re-runs the recorded budgets under any engine
/// (harness::replayTrace), strengthening confirm/refute verdicts beyond
/// the single-engine replay of PR 4.
struct ReplayTrace {
  std::vector<uint8_t> Checkpoint;
  std::vector<uint64_t> SliceBudgets;
};

} // namespace sc::snapshot

#endif // SC_SNAPSHOT_SNAPSHOT_H
