//===-- dispatch/EngineRegistry.cpp - The one engine table ----------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
//
// The only place in the tree where engine names are spelled out.
// registry_tests greps the sources to keep it that way. The per-engine
// entry points are enumerated once, in prepare::runPrepared.
//
//===----------------------------------------------------------------------===//

#include "dispatch/EngineRegistry.h"

#include "support/Assert.h"

#include <algorithm>

using namespace sc;
using namespace sc::engine;
using namespace sc::vm;

namespace {

constexpr EngineCaps referenceCaps(uint8_t Rank) {
  EngineCaps C;
  C.Reference = true;
  C.TierRank = Rank;
  return C;
}

constexpr EngineCaps cachingCaps(uint8_t Rank) {
  EngineCaps C;
  C.TierRank = Rank;
  return C;
}

constexpr EngineCaps staticCaps(uint8_t Rank) {
  EngineCaps C;
  C.Static = true;
  C.TierRank = Rank;
  return C;
}

// Tier ranks order the promotion ladder by prepare cost vs. steady-state
// speed: the switch engine needs no stream at all (free cold start),
// the threaded flavors pay one linear translation, the dynamic cache
// adds register residency, and the static flavors pay a whole-program
// specialization that only hot code amortizes. Call threading sits
// between switch and direct threading (the paper's Fig. 3 ordering) and
// drops out of reentrancy-requiring ladders via its capability flag.
const EngineInfo Registry[NumEngineIds] = {
    {EngineId::Switch, "switch", nullptr, referenceCaps(0)},
    {EngineId::Threaded, "threaded", nullptr, referenceCaps(2)},
    {EngineId::CallThreaded, "call-threaded", nullptr,
     [] {
       EngineCaps C = referenceCaps(1);
       C.Reentrant = false; // VM registers live in static storage
       return C;
     }()},
    {EngineId::ThreadedTos, "threaded-tos", nullptr, referenceCaps(3)},
    {EngineId::Dynamic3, "dynamic3", nullptr, cachingCaps(4)},
    {EngineId::Model, "model", nullptr, cachingCaps(NoTierRank)},
    {EngineId::StaticGreedy, "static-greedy", "static", staticCaps(5)},
    {EngineId::StaticOptimal, "static-optimal", nullptr, staticCaps(6)},
    {EngineId::RegVm, "regvm", nullptr, staticCaps(7)},
};

} // namespace

const EngineInfo &sc::engine::engineInfo(EngineId E) {
  const unsigned I = static_cast<unsigned>(E);
  SC_ASSERT(I < NumEngineIds, "bad EngineId");
  SC_ASSERT(Registry[I].Id == E, "registry rows out of order");
  return Registry[I];
}

const EngineInfo *sc::engine::allEngines(size_t &Count) {
  Count = NumEngineIds;
  return Registry;
}

const EngineInfo *sc::engine::findEngine(std::string_view Name) {
  for (const EngineInfo &Row : Registry)
    if (Name == Row.Name || (Row.Alias && Name == Row.Alias))
      return &Row;
  return nullptr;
}

const char *sc::engine::engineName(EngineId E) { return engineInfo(E).Name; }

std::vector<EngineId> sc::engine::promotionLadder(bool RequireReentrant) {
  std::vector<EngineId> Ladder;
  for (const EngineInfo &Row : Registry) {
    if (Row.Caps.TierRank == NoTierRank)
      continue;
    if (RequireReentrant && !Row.Caps.Reentrant)
      continue;
    Ladder.push_back(Row.Id);
  }
  std::sort(Ladder.begin(), Ladder.end(), [](EngineId A, EngineId B) {
    return engineInfo(A).Caps.TierRank < engineInfo(B).Caps.TierRank;
  });
  SC_ASSERT(!Ladder.empty() &&
                engineInfo(Ladder.front()).Caps.TierRank == 0,
            "the ladder must start at the rank-0 cold engine");
  return Ladder;
}

EngineId sc::engine::referenceEngine() {
  // The reference row with exactly comparable step counts; Switch by
  // construction (the comparator and the session fallback rely on it).
  static_assert(static_cast<unsigned>(EngineId::Switch) == 0,
                "Switch must stay the reference engine");
  return Registry[0].Id;
}
