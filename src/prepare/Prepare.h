//===-- prepare/Prepare.h - Prepare-once, run-many translation -*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's engines assume threaded code is produced once and executed
/// many times. This subsystem splits the two phases: prepareCode()
/// translates a Code into an immutable PreparedCode for one engine flavor
/// — handler addresses resolved through the engine's one-time label-table
/// export, static branch operands pre-scaled to threaded offsets, and
/// (optionally) superinstruction fusion baked in — and runPrepared()
/// executes it against any ExecContext, arbitrarily many times. It is the
/// only way into the engines: engine::runEngine runs a caller's handle,
/// or a temporary one that translates the caller's program in place
/// (no snapshot) for that single run.
///
/// A PreparedCode snapshots the program it was translated from, so later
/// mutation of the source Code cannot desynchronize stream and program;
/// cache invalidation is PrepareCache's job (keyed on Code::version()).
///
//===----------------------------------------------------------------------===//

#ifndef SC_PREPARE_PREPARE_H
#define SC_PREPARE_PREPARE_H

#include "dispatch/EngineRegistry.h"
#include "regvm/RegVm.h"
#include "staticcache/StaticSpec.h"
#include "vm/ExecContext.h"

#include <memory>
#include <string>
#include <vector>

namespace sc::prepare {

/// The engine flavors a Code can be prepared for — the canonical registry
/// enumeration. Every registry engine is preparable: most get a
/// translated [dispatch, operand] stream, Switch and Model dispatch on
/// the snapshot directly, and the static flavors carry a SpecProgram. One
/// prepared artifact serves exactly one flavor (their stream formats
/// differ: label addresses, function pointers, opcode indices, or
/// specialized handlers).
using EngineId = engine::EngineId;
inline constexpr unsigned NumEngineIds = engine::NumEngineIds;

/// Knobs for the prepare pass.
struct PrepareOptions {
  /// Run superinstruction fusion (src/superinst) over the program before
  /// translating, so fused streams are cached instead of rebuilt. Off by
  /// default: fusion changes instruction indices and step counts, so
  /// fused and unfused runs are not step-for-step comparable.
  bool FuseSuperinstructions = false;
};

/// An immutable, engine-specific translation of one Code. Safe to share
/// across threads and ExecContexts (the stream and snapshot are read-only
/// after prepare) — except for EngineId::CallThreaded, whose VM registers
/// live in static storage, making the *run* non-reentrant.
struct PreparedCode {
  EngineId Engine = EngineId::Switch;
  /// Code::version() of the source at prepare time; PrepareCache compares
  /// it to detect mutation.
  uint64_t SourceVersion = 0;
  /// Code::identity() of the source at prepare time: the process-neutral
  /// content hash that snapshots and the quarantine registry key on.
  /// Precomputed here so supervision paths never pay the hash per run.
  uint64_t SourceIdentity = 0;
  /// Code::identity() of program(), the key a checkpoint of this stream
  /// carries: SourceIdentity, unless fusion rewrote the program, in which
  /// case the fused program is hashed once here instead of at every
  /// checkpoint.
  uint64_t ProgramIdentity = 0;
  /// Address of the source Code. Never dereferenced after prepare — the
  /// source may have been mutated or destroyed; only the snapshot below
  /// is executed.
  const vm::Code *Source = nullptr;
  /// Number of superinstruction pairs fused (0 unless fusion was on).
  uint64_t FusedPairs = 0;
  /// Wall-clock nanoseconds spent preparing (translation + fusion +
  /// static compilation).
  uint64_t PrepareNs = 0;

  /// The program the stream executes: a copy of the source, fused when
  /// requested (engine::runEngine's handle-less temporary borrows the
  /// caller's Code instead). runPrepared points ExecContext::Prog here
  /// for the duration of the run.
  const vm::Code &program() const { return *Snapshot; }

  /// Entry instruction index of word \p Name in program(). Use this
  /// rather than indices derived from the source: fusion remaps indices.
  uint32_t entryOf(const std::string &Name) const;

  /// The prepared [dispatch, operand] stream (empty for Switch).
  const vm::Cell *stream() const { return Stream.data(); }

  /// The specialized program (static engines only).
  const staticcache::SpecProgram *spec() const { return Spec.get(); }

  /// The register-IR program (EngineId::RegVm only).
  const regvm::RegProgram *reg() const { return Reg.get(); }

  std::shared_ptr<const vm::Code> Snapshot;
  std::vector<vm::Cell> Stream;
  std::shared_ptr<const staticcache::SpecProgram> Spec;
  std::shared_ptr<const regvm::RegProgram> Reg;
};

/// Translates \p Prog once for \p Engine. Counts one stream translation
/// (vm::streamTranslationCounter) for every flavor except Switch, which
/// has no stream.
std::shared_ptr<const PreparedCode>
prepareCode(const vm::Code &Prog, EngineId Engine,
            const PrepareOptions &Opts = PrepareOptions());

/// Runs \p PC against \p Ctx from instruction index \p Entry (an index
/// into PC.program(); resolve word names with PC.entryOf()). Temporarily
/// points Ctx.Prog at the snapshot and restores it before returning.
vm::RunOutcome runPrepared(const PreparedCode &PC, vm::ExecContext &Ctx,
                           uint32_t Entry);

/// True when \p PC's engine can legally start or resume at instruction
/// index \p Pc of PC.program(). Stream engines enter anywhere; the
/// transformed flavors only at positions their translation mapped — the
/// static caches' state-0 entries (OrigToSpec) and regvm's basic-block
/// leaders (OrigToReg). Callers choosing a resume engine (VmSession's
/// slice loop, the harness's rotation sweeps) must consult this instead
/// of poking at spec()/reg() directly.
bool canEnterAt(const PreparedCode &PC, uint32_t Pc);

} // namespace sc::prepare

#endif // SC_PREPARE_PREPARE_H
