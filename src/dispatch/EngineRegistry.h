//===-- dispatch/EngineRegistry.h - The one engine table -------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth about the project's engines: one table
/// mapping engine name <-> EngineId, with capability flags. Every
/// consumer that used to keep its own engine list — the forth_run CLI,
/// the differential fuzzer, the injection harness, the bench binaries,
/// the session layer's fallback selection — iterates or queries this
/// table instead (a test greps the tree to keep it that way).
///
/// Every engine runs through one entry point,
///
///   runEngine(Id, Prog, Ctx, RunOptions{Entry, MaxSteps, Resume,
///                                       Prepared})
///
/// which installs the step budget and resume flag into the context and
/// executes a prepare::PreparedCode through prepare::runPrepared. With a
/// prepared handle the run reuses its translation; without one it
/// translates the caller's Code for this run only and discards the
/// translation, so a caller that runs the same Code repeatedly should
/// hold a handle (or a PrepareCache).
///
/// EngineId is the canonical engine enumeration; prepare::EngineId and
/// harness::EngineId are aliases of it.
///
//===----------------------------------------------------------------------===//

#ifndef SC_DISPATCH_ENGINEREGISTRY_H
#define SC_DISPATCH_ENGINEREGISTRY_H

#include "vm/ExecContext.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace sc::prepare {
struct PreparedCode;
} // namespace sc::prepare

namespace sc::engine {

/// Every engine in the project, in reference order (Switch is the
/// reference implementation the differential harness compares against).
enum class EngineId : uint8_t {
  Switch,        ///< giant switch (Fig. 2); the canonical reference
  Threaded,      ///< direct threading, labels-as-values (Fig. 8)
  CallThreaded,  ///< call threading, static VM registers (Fig. 3)
  ThreadedTos,   ///< direct threading + TOS register (Fig. 12)
  Dynamic3,      ///< 3-state dynamic stack cache (Section 4)
  Model,         ///< value-level dynamic-cache model with shadow checks
  StaticGreedy,  ///< static cache, greedy single-pass codegen (Section 5)
  StaticOptimal, ///< static cache, two-pass optimal codegen
  RegVm,         ///< register-IR translation, stack dissolved per block
};
inline constexpr unsigned NumEngineIds = 9;

/// TierRank value excluding an engine from the adaptive promotion
/// ladder (Model: a shadow-checked specification that allocates per run,
/// never a performance tier).
inline constexpr uint8_t NoTierRank = 0xff;

/// What an engine can and cannot do; drives caller policy (comparison
/// masking, reentrancy guards, fallback selection) without per-engine
/// switches.
struct EngineCaps {
  /// prepareCode() produces a reusable artifact for this engine (all of
  /// them today; kept explicit so callers ask the table, not a list).
  bool Prepared = true;
  /// A StepLimit stop leaves canonical state resumable at Fault.Pc on
  /// any engine (docs/TRAPS.md). True for every engine; static flavors
  /// additionally require the resume PC to be a basic-block leader of
  /// their specialized code (query PreparedCode::spec()->OrigToSpec).
  bool Resumable = true;
  /// Executes transformed code: step counts and StepLimit stop points
  /// are not comparable against the stream engines, and differential
  /// comparators mask those fields.
  bool Static = false;
  /// Safe to run concurrently on distinct ExecContexts. CallThreaded
  /// keeps its VM registers in static storage and is not.
  bool Reentrant = true;
  /// One of the paper's four reference dispatch techniques.
  bool Reference = false;
  /// Position in the adaptive promotion ladder: rank 0 is the cold
  /// start (prepare cost near zero), higher ranks are adopted as a code
  /// object proves hot and its re-preparation cost amortizes. Ranks are
  /// unique across the table; NoTierRank excludes the engine from
  /// tiering entirely. Query promotionLadder(), not this field.
  uint8_t TierRank = NoTierRank;
};

/// The per-engine knobs the normalized entry point folds together.
struct RunOptions {
  uint32_t Entry = 0;              ///< instruction index to start from
  uint64_t MaxSteps = UINT64_MAX;  ///< guest-step budget for this run
  bool Resume = false;             ///< re-entry: keep the entry sentinel
  /// Reuse this prepared translation (must be for the same engine and
  /// program). Null translates the program for this run only.
  const prepare::PreparedCode *Prepared = nullptr;
};

/// One row of the registry.
struct EngineInfo {
  EngineId Id = EngineId::Switch;
  const char *Name = nullptr;  ///< canonical CLI/report name
  const char *Alias = nullptr; ///< alternate CLI spelling, or null
  EngineCaps Caps;
};

/// The registry row for \p E.
const EngineInfo &engineInfo(EngineId E);

/// All engines, reference order. \p Count receives NumEngineIds.
const EngineInfo *allEngines(size_t &Count);

/// Looks an engine up by canonical name or alias; null when unknown.
const EngineInfo *findEngine(std::string_view Name);

/// Canonical engine name (engineInfo(E).Name).
const char *engineName(EngineId E);

/// Runs \p Prog under engine \p E with the normalized options. Installs
/// Opts.MaxSteps / Opts.Resume into \p Ctx and runs Opts.Prepared, or a
/// temporary translation of \p Prog itself (no snapshot copy, no
/// identity hash), through prepare::runPrepared. Ctx.Prog points at the
/// prepared program for the duration of the run and is restored before
/// returning. Defined in prepare/Prepare.cpp, beside runPrepared.
vm::RunOutcome runEngine(EngineId E, const vm::Code &Prog,
                         vm::ExecContext &Ctx, const RunOptions &Opts);

/// The canonical reference engine every fallback/replay decision uses
/// (the row flagged Reference with exactly-comparable step counts).
EngineId referenceEngine();

/// The capability-aware promotion ladder: every tier-ranked engine in
/// ascending TierRank order — the spine the adaptive tier controller
/// climbs (cold start at the front, hottest flavor at the back). With
/// \p RequireReentrant, flavors that cannot run concurrently on
/// distinct contexts (call threading's static VM registers) are
/// dropped: a multi-worker scheduler must never promote into them.
std::vector<EngineId> promotionLadder(bool RequireReentrant);

/// True for the flavors that execute transformed code — the statically
/// specialized caches and the register-IR backend — whose step counts
/// and StepLimit stop points differential comparators mask
/// (engineInfo(E).Caps.Static, constexpr-friendly for array sizing).
inline constexpr bool isStaticEngine(EngineId E) {
  return E == EngineId::StaticGreedy || E == EngineId::StaticOptimal ||
         E == EngineId::RegVm;
}

} // namespace sc::engine

#endif // SC_DISPATCH_ENGINEREGISTRY_H
