//===-- metrics/Counters.h - Engine execution counters ---------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-run execution counters every engine and trace simulator can fill:
/// per-opcode dispatch counts, cache overflow/underflow events, a
/// cache-state occupancy histogram, reconcile traffic (spills, fills and
/// register moves), and trap counts. Below them, the always-on counter
/// sets of the prepare, session and tier layers, and the field-table
/// machinery every always-on set is declared with.
///
/// Collection is gated behind the SC_STATS compile-time flag; with it off
/// the SC_IF_STATS(...) instrumentation sites compile to nothing, so the
/// hot dispatch loops are untouched. An engine only records into
/// ExecContext::Stats when the caller installed a Counters object there,
/// so even stats-enabled builds pay one predictable branch per site.
///
//===----------------------------------------------------------------------===//

#ifndef SC_METRICS_COUNTERS_H
#define SC_METRICS_COUNTERS_H

#include "metrics/Json.h"
#include "vm/Opcode.h"
#include "vm/RunResult.h"

#include <concepts>
#include <cstdint>
#include <string>

namespace sc::metrics {

/// True when the build collects execution counters (SC_STATS).
constexpr bool statsEnabled() {
#ifdef SC_STATS
  return true;
#else
  return false;
#endif
}

/// Wraps an instrumentation site. The arguments are compiled only when
/// SC_STATS is on; otherwise the site disappears entirely.
#ifdef SC_STATS
#define SC_IF_STATS(...)                                                       \
  do {                                                                         \
    __VA_ARGS__;                                                               \
  } while (0)
#else
#define SC_IF_STATS(...)                                                       \
  do {                                                                         \
  } while (0)
#endif

/// Number of cache-occupancy buckets (cached depths 0..3; the project's
/// caches keep at most two items in registers, bucket 3 is headroom).
inline constexpr unsigned OccupancyStates = 4;

/// Execution counters for one engine or simulator run.
struct Counters {
  /// Dispatches per opcode, indexed by static_cast<unsigned>(Opcode).
  uint64_t Dispatch[vm::NumOpcodes] = {};
  /// Dispatches observed with 0..3 stack items cached in registers.
  /// Non-caching engines land everything in bucket 0.
  uint64_t Occupancy[OccupancyStates] = {};
  /// Dispatches whose stack effect would exceed the cache capacity
  /// (a spill is needed before or after the instruction).
  uint64_t CacheOverflows = 0;
  /// Dispatches needing more cached items than the cache holds
  /// (a fill from memory is needed).
  uint64_t CacheUnderflows = 0;
  /// Reconcile traffic: cached items written back to the memory stack.
  uint64_t ReconcileLoads = 0;  ///< memory-stack cells loaded into registers
  uint64_t ReconcileStores = 0; ///< register items spilled to the memory stack
  uint64_t ReconcileMoves = 0;  ///< register-to-register shuffles
  /// Run terminations per RunStatus (Halted counts as a "trap" bucket
  /// too, so the sum equals the number of runs recorded).
  uint64_t Traps[vm::NumRunStatuses] = {};

  void reset() { *this = Counters(); }

  /// Sum of Dispatch over all opcodes.
  uint64_t totalDispatch() const;

  /// True when every field is zero (what an SC_STATS=off run leaves).
  bool allZero() const;

  /// Field-for-field accumulation (for aggregating across runs).
  Counters &operator+=(const Counters &O);

  friend bool operator==(const Counters &, const Counters &) = default;
};

/// Records one dispatch in a non-caching engine (occupancy bucket 0).
inline void noteDispatch(Counters &C, vm::Opcode Op) {
  ++C.Dispatch[static_cast<unsigned>(Op)];
  ++C.Occupancy[0];
}

/// Records one dispatch in a caching engine with \p CachedDepth items in
/// registers out of a cache of \p Capacity registers. Derives cache
/// underflow (instruction needs more cached items than present) and
/// overflow (result would exceed capacity) from the opcode's static
/// stack effect.
inline void noteCachedDispatch(Counters &C, vm::Opcode Op,
                               unsigned CachedDepth, unsigned Capacity) {
  ++C.Dispatch[static_cast<unsigned>(Op)];
  ++C.Occupancy[CachedDepth < OccupancyStates ? CachedDepth
                                              : OccupancyStates - 1];
  const vm::StackEffect E = vm::opInfo(Op).Data;
  if (E.In > CachedDepth)
    ++C.CacheUnderflows;
  else if (CachedDepth - E.In + E.Out > Capacity)
    ++C.CacheOverflows;
}

/// Records the way a run ended.
inline void noteTrap(Counters &C, vm::RunStatus S) {
  ++C.Traps[static_cast<unsigned>(S)];
}

//===----------------------------------------------------------------------===//
// Always-on counter sets
//===----------------------------------------------------------------------===//
//
// Each always-on counter set (the three below, sched::TenantCounters,
// service::ServiceStats and service::ClientStats) is declared once, as an
// X-macro field table: TABLE(X) expands X(Member, "json_key") per
// counter, in JSON key order. SC_COUNTER_SET(Set, TABLE) expands inside
// the struct body to one zero-initialised uint64_t member per entry and
// to forEachCounter, the table walk that the generic operator+= and
// toJson below (and PrepareCache's atomic reads) are written against.

#define SC_COUNTER_MEMBER(Member, Key) uint64_t Member = 0;
#define SC_COUNTER_VISIT(Member, Key) Fn(Key, &Self::Member);
#define SC_COUNTER_SET(Set, TABLE)                                             \
  TABLE(SC_COUNTER_MEMBER)                                                     \
  /** Calls Fn(json_key, &Set::Member) once per counter, in table order. */   \
  template <typename F> static void forEachCounter(F &&Fn) {                   \
    using Self = Set;                                                          \
    TABLE(SC_COUNTER_VISIT)                                                    \
  }

/// Base of every counter set (CRTP); supplies the generic accumulation.
template <typename Set> struct CounterSet {
  /// Field-for-field accumulation (aggregating across runs or clients).
  friend Set &operator+=(Set &A, const Set &B) {
    Set::forEachCounter(
        [&](const char *, uint64_t Set::*M) { A.*M += B.*M; });
    return A;
  }
};

/// Appends every counter of \p C to the object \p Obj under its table
/// key, in table order, and returns it.
template <typename Set>
  requires std::derived_from<Set, CounterSet<Set>>
Json toJson(const Set &C, Json Obj = Json::object()) {
  Set::forEachCounter([&](const char *Key, uint64_t Set::*M) {
    Obj.set(Key, Json::number(C.*M));
  });
  return Obj;
}

/// Translation-cache counters for the prepare subsystem (src/prepare):
/// how often a (Code, engine) translation was served from cache versus
/// built, plus version-stamp invalidations and the number of stream
/// translations actually performed. Unlike Counters these are always
/// maintained — they tick once per prepare/lookup, not per instruction.
/// Content-identity lookups (findByIdentity, the restore/tier path) are
/// counted apart from the getOrPrepare pair, so each pair independently
/// satisfies hits + misses == lookups once writers quiesce.
#define SC_PREPARE_COUNTERS(X)                                                 \
  X(Hits, "hits")                   /* getOrPrepare served from cache */       \
  X(Misses, "misses")               /* getOrPrepare that had to prepare */     \
  X(Invalidations, "invalidations") /* dropped: Code::version moved */         \
  X(Translations, "translations")   /* prepared streams actually built */      \
  X(IdentityHits, "identity_hits")  /* findByIdentity found an entry */        \
  X(IdentityMisses, "identity_misses") /* findByIdentity found none */

struct PrepareCounters : CounterSet<PrepareCounters> {
  SC_COUNTER_SET(PrepareCounters, SC_PREPARE_COUNTERS)
};

/// Supervision counters for the session layer (src/session): one tick
/// per slice-boundary decision a VmSession makes. Like PrepareCounters
/// these are always maintained — they are far off the per-instruction
/// hot paths, so they cost nothing SC_STATS would save.
#define SC_SESSION_COUNTERS(X)                                                 \
  X(Slices, "slices")                 /* engine entries (incl. replays) */     \
  X(StepsExecuted, "steps_executed")  /* guest steps across all slices */      \
  X(FuelExhausted, "fuel_exhausted")  /* runs stopped by the fuel budget */    \
  X(DeadlineHits, "deadline_hits")    /* runs stopped by the deadline */       \
  X(Cancellations, "cancellations")   /* runs stopped by cancel() */           \
  X(FallbackReplays, "fallback_replays") /* fault replays, reference engine */ \
  X(FaultsConfirmed, "faults_confirmed") /* replays reproducing the fault */   \
  X(FaultsRefuted, "faults_refuted")     /* replays disagreeing with it */     \
  X(ReplaysInconclusive, "replays_inconclusive") /* hit the replay budget */   \
  X(Quarantines, "quarantines")       /* programs quarantined here */          \
  X(QuarantineRejections, "quarantine_rejections") /* runs refused */          \
  X(Checkpoints, "checkpoints")       /* durable snapshots written */          \
  X(Restores, "restores")             /* successful restoreFrom() calls */     \
  X(LeaderFallbacks, "leader_fallbacks") /* slices sent to the reference */    \
                                         /* engine: restored PC was not a */   \
                                         /* static translation's entry */      \
  X(Migrations, "migrations") /* migrateTo() swaps at slice boundaries */

struct SessionCounters : CounterSet<SessionCounters> {
  SC_COUNTER_SET(SessionCounters, SC_SESSION_COUNTERS)
};

/// Human-readable multi-line rendering (forth_run session summary).
std::string formatSessionCounters(const SessionCounters &C);

/// Promotion-ladder traffic for one adaptive tier controller
/// (src/tier). Always maintained, like PrepareCounters: one tick per
/// tiering decision, far off the per-instruction hot paths.
#define SC_TIER_COUNTERS(X)                                                    \
  X(Promotions, "promotions") /* hotter artifacts handed to a caller */        \
  X(Demotions, "demotions")   /* identities pinned cold (confirmed faults) */  \
  X(PrepareRequests, "prepare_requests") /* re-preparations asked for */       \
  X(Prepares, "prepares")                /* re-preparations completed */       \
  X(PrepareNs, "prepare_ns")             /* wall-clock ns re-preparing */

struct TierCounters : CounterSet<TierCounters> {
  SC_COUNTER_SET(TierCounters, SC_TIER_COUNTERS)
};

/// Human-readable one-line rendering (forth_run --adaptive summary).
std::string formatTierCounters(const TierCounters &C);

/// Serializes \p C as a JSON object: total and per-opcode (mnemonic-keyed,
/// nonzero only) dispatch counts, occupancy, cache events, reconcile
/// traffic and traps.
Json countersToJson(const Counters &C);

/// Human-readable multi-line rendering (forth_run --stats).
std::string formatCounters(const Counters &C);

} // namespace sc::metrics

#endif // SC_METRICS_COUNTERS_H
