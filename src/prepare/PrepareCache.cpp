//===-- prepare/PrepareCache.cpp - Shared translation cache ---------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "prepare/PrepareCache.h"

#include <atomic>

using namespace sc;
using namespace sc::prepare;

namespace {

static_assert(alignof(metrics::PrepareCounters) >=
                  std::atomic_ref<uint64_t>::required_alignment,
              "PrepareCounters fields must be atomic_ref-able");

void tick(uint64_t &Counter) {
  std::atomic_ref<uint64_t>(Counter).fetch_add(1, std::memory_order_relaxed);
}

} // namespace

std::shared_ptr<const PreparedCode>
PrepareCache::getOrPrepare(const vm::Code &Prog, EngineId Engine,
                           const PrepareOptions &Opts) {
  const Key K{&Prog, Engine, Opts.FuseSuperinstructions};
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(K);
  if (It != Map.end()) {
    if (It->second->SourceVersion == Prog.version()) {
      tick(Counts.Hits);
      return It->second;
    }
    // Stale: the Code mutated (or the address was recycled by a new
    // Code) since this entry was prepared.
    tick(Counts.Invalidations);
    Map.erase(It);
  }
  tick(Counts.Misses);
  tick(Counts.Translations);
  // Deliberately prepared under the lock: concurrent first runs of the
  // same program must share one translation, and prepare is fast
  // relative to the runs it amortizes over.
  auto PC = prepareCode(Prog, Engine, Opts);
  Map.emplace(K, PC);
  return PC;
}

std::shared_ptr<const PreparedCode>
PrepareCache::findByIdentity(uint64_t Identity, EngineId Engine,
                             bool Fused) const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &[K, PC] : Map) {
    if (K.Engine != Engine || K.Fused != Fused)
      continue;
    // No version validation: even if the source Code object mutated
    // after this entry was prepared, the entry still executes the exact
    // content its SourceIdentity was hashed from, which is exactly what
    // an identity-keyed restore asks for.
    if (PC->SourceIdentity == Identity) {
      tick(Counts.IdentityHits);
      return PC;
    }
  }
  tick(Counts.IdentityMisses);
  return nullptr;
}

metrics::PrepareCounters PrepareCache::counters() const {
  metrics::PrepareCounters C;
  metrics::PrepareCounters::forEachCounter(
      [&](const char *, uint64_t metrics::PrepareCounters::*M) {
        C.*M = std::atomic_ref<uint64_t>(Counts.*M).load(
            std::memory_order_relaxed);
      });
  return C;
}

size_t PrepareCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}

PrepareCache &sc::prepare::globalPrepareCache() {
  static PrepareCache Cache;
  return Cache;
}
