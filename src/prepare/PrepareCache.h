//===-- prepare/PrepareCache.h - Shared translation cache ------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide cache of PreparedCode artifacts keyed on (Code
/// identity, engine flavor, fusion flag), validated against the Code's
/// version stamp. Concurrent sessions running the same program share one
/// translation: the cache mutex is held across prepare, so a (Code,
/// engine) pair is translated exactly once no matter how many threads
/// race on the first run.
///
/// Keying on the Code pointer alone would be unsound — addresses are
/// recycled — which is why Code::version() stamps are process-unique:
/// a cached entry whose version differs from the live object's (stale
/// entry at a recycled address, or genuine mutation) never validates.
///
//===----------------------------------------------------------------------===//

#ifndef SC_PREPARE_PREPARECACHE_H
#define SC_PREPARE_PREPARECACHE_H

#include "metrics/Counters.h"
#include "prepare/Prepare.h"

#include <cstddef>
#include <mutex>
#include <unordered_map>

namespace sc::prepare {

/// Translation cache with hit/miss/invalidation counters.
///
/// Thread-safety contract: every method may be called concurrently from
/// any number of threads. The map is guarded by a mutex (held across
/// prepare, so racing first lookups share one translation); the counters
/// are one PrepareCounters whose fields are ticked and read through
/// std::atomic_ref with relaxed ordering, so counters() is cheap, never
/// blocks behind an in-flight prepare, and returns a value-consistent
/// snapshot of each counter — but not a point-in-time-consistent
/// snapshot across counters (a concurrent getOrPrepare may have ticked
/// Misses and not yet Translations).
/// Aggregate invariants only hold once the writers have quiesced, and
/// then per lookup family: Hits + Misses == getOrPrepare calls, and
/// IdentityHits + IdentityMisses == findByIdentity calls (identity
/// lookups used to tick the shared Hits on success and nothing on
/// miss, which made the aggregate unreconcilable under mixed lookups).
/// A version-bump invalidation ticks Invalidations exactly once no
/// matter how many threads race on the stale entry: the first
/// getOrPrepare to take the mutex erases and re-prepares it, and the
/// rest see the fresh entry. The PreparedCode artifacts handed out are
/// immutable and safe to run from any thread (CallThreaded excepted; see
/// PreparedCode).
class PrepareCache {
public:
  /// Returns the cached PreparedCode for (\p Prog, \p Engine, fusion
  /// flag), preparing and inserting it on miss. A cached entry whose
  /// SourceVersion no longer matches \p Prog.version() counts as an
  /// invalidation and is re-prepared in place.
  std::shared_ptr<const PreparedCode>
  getOrPrepare(const vm::Code &Prog, EngineId Engine,
               const PrepareOptions &Opts = PrepareOptions());

  /// Looks up a live entry by *content identity* instead of object
  /// address: the restore path's key. A shipped snapshot names the
  /// program it ran over by Code::identity(), and the restoring process
  /// holds its own Code object at its own address — but if any session
  /// here already prepared a program with that content, the translation
  /// is reusable verbatim. The recorded SourceIdentity was hashed from
  /// the exact content the entry's snapshot executes, so a match is
  /// self-validating; no version check is needed or wanted (versions are
  /// process-local). Returns nullptr on miss; the caller falls back to
  /// getOrPrepare with its own Code object. Linear scan under the lock —
  /// restores are rare next to runs.
  std::shared_ptr<const PreparedCode>
  findByIdentity(uint64_t Identity, EngineId Engine, bool Fused = false) const;

  /// Relaxed-read snapshot of the counters (see the class contract for
  /// what "snapshot" means under concurrent writers).
  metrics::PrepareCounters counters() const;

  /// Number of live entries.
  size_t size() const;

private:
  struct Key {
    const vm::Code *Prog;
    EngineId Engine;
    bool Fused;
    bool operator==(const Key &O) const {
      return Prog == O.Prog && Engine == O.Engine && Fused == O.Fused;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      size_t H = std::hash<const void *>()(K.Prog);
      H ^= (static_cast<size_t>(K.Engine) * 2 +
            static_cast<size_t>(K.Fused)) *
           0x9e3779b97f4a7c15ull;
      return H;
    }
  };

  mutable std::mutex Mu; ///< guards Map only; counters are atomic
  std::unordered_map<Key, std::shared_ptr<const PreparedCode>, KeyHash> Map;
  /// Accessed only through std::atomic_ref. mutable: const lookups
  /// (findByIdentity) tick it.
  mutable metrics::PrepareCounters Counts;
};

/// The process-wide cache shared by every session.
PrepareCache &globalPrepareCache();

} // namespace sc::prepare

#endif // SC_PREPARE_PREPARECACHE_H
