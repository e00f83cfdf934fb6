//===-- metrics/Counters.cpp - Engine execution counters ------------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "metrics/Counters.h"

#include "metrics/Json.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace sc;
using namespace sc::metrics;

uint64_t Counters::totalDispatch() const {
  uint64_t Sum = 0;
  for (uint64_t D : Dispatch)
    Sum += D;
  return Sum;
}

bool Counters::allZero() const { return *this == Counters(); }

Counters &Counters::operator+=(const Counters &O) {
  for (unsigned I = 0; I < vm::NumOpcodes; ++I)
    Dispatch[I] += O.Dispatch[I];
  for (unsigned I = 0; I < OccupancyStates; ++I)
    Occupancy[I] += O.Occupancy[I];
  CacheOverflows += O.CacheOverflows;
  CacheUnderflows += O.CacheUnderflows;
  ReconcileLoads += O.ReconcileLoads;
  ReconcileStores += O.ReconcileStores;
  ReconcileMoves += O.ReconcileMoves;
  for (unsigned I = 0; I < vm::NumRunStatuses; ++I)
    Traps[I] += O.Traps[I];
  return *this;
}

std::string sc::metrics::formatSessionCounters(const SessionCounters &C) {
  std::string Out;
  char Buf[160];
  auto Line = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Out += Buf;
  };
  Line("slices: %llu (steps: %llu)\n",
       static_cast<unsigned long long>(C.Slices),
       static_cast<unsigned long long>(C.StepsExecuted));
  Line("stops: fuel %llu, deadline %llu, cancel %llu\n",
       static_cast<unsigned long long>(C.FuelExhausted),
       static_cast<unsigned long long>(C.DeadlineHits),
       static_cast<unsigned long long>(C.Cancellations));
  Line("fallback replays: %llu (confirmed %llu, refuted %llu, "
       "inconclusive %llu)\n",
       static_cast<unsigned long long>(C.FallbackReplays),
       static_cast<unsigned long long>(C.FaultsConfirmed),
       static_cast<unsigned long long>(C.FaultsRefuted),
       static_cast<unsigned long long>(C.ReplaysInconclusive));
  Line("quarantines: %llu (runs rejected: %llu)\n",
       static_cast<unsigned long long>(C.Quarantines),
       static_cast<unsigned long long>(C.QuarantineRejections));
  Line("checkpoints: %llu (restores: %llu, leader fallbacks: %llu)\n",
       static_cast<unsigned long long>(C.Checkpoints),
       static_cast<unsigned long long>(C.Restores),
       static_cast<unsigned long long>(C.LeaderFallbacks));
  if (C.Migrations)
    Line("migrations: %llu\n", static_cast<unsigned long long>(C.Migrations));
  return Out;
}

std::string sc::metrics::formatTierCounters(const TierCounters &C) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "tier: %llu promotions, %llu demotions, "
                "%llu/%llu prepares (%.3f ms)\n",
                static_cast<unsigned long long>(C.Promotions),
                static_cast<unsigned long long>(C.Demotions),
                static_cast<unsigned long long>(C.Prepares),
                static_cast<unsigned long long>(C.PrepareRequests),
                static_cast<double>(C.PrepareNs) / 1e6);
  return Buf;
}

Json sc::metrics::countersToJson(const Counters &C) {
  Json Obj = Json::object();
  Obj.set("total_dispatch", Json::number(C.totalDispatch()));

  Json PerOp = Json::object();
  for (unsigned I = 0; I < vm::NumOpcodes; ++I)
    if (C.Dispatch[I])
      PerOp.set(vm::mnemonic(static_cast<vm::Opcode>(I)),
                Json::number(C.Dispatch[I]));
  Obj.set("dispatch", std::move(PerOp));

  Json Occ = Json::array();
  for (unsigned I = 0; I < OccupancyStates; ++I)
    Occ.push(Json::number(C.Occupancy[I]));
  Obj.set("occupancy", std::move(Occ));

  Obj.set("cache_overflows", Json::number(C.CacheOverflows));
  Obj.set("cache_underflows", Json::number(C.CacheUnderflows));
  Obj.set("reconcile_loads", Json::number(C.ReconcileLoads));
  Obj.set("reconcile_stores", Json::number(C.ReconcileStores));
  Obj.set("reconcile_moves", Json::number(C.ReconcileMoves));

  Json Traps = Json::object();
  for (unsigned I = 0; I < vm::NumRunStatuses; ++I)
    if (C.Traps[I])
      Traps.set(vm::runStatusName(static_cast<vm::RunStatus>(I)),
                Json::number(C.Traps[I]));
  Obj.set("traps", std::move(Traps));
  return Obj;
}

std::string sc::metrics::formatCounters(const Counters &C) {
  std::string Out;
  char Buf[160];
  auto Line = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Out += Buf;
  };

  Line("dispatches: %llu\n",
       static_cast<unsigned long long>(C.totalDispatch()));

  // Per-opcode counts, most frequent first.
  std::vector<unsigned> Idx;
  for (unsigned I = 0; I < vm::NumOpcodes; ++I)
    if (C.Dispatch[I])
      Idx.push_back(I);
  std::sort(Idx.begin(), Idx.end(), [&](unsigned A, unsigned B) {
    if (C.Dispatch[A] != C.Dispatch[B])
      return C.Dispatch[A] > C.Dispatch[B];
    return A < B;
  });
  for (unsigned I : Idx)
    Line("  %-8s %llu\n", vm::mnemonic(static_cast<vm::Opcode>(I)),
         static_cast<unsigned long long>(C.Dispatch[I]));

  Line("occupancy (cached depth 0..%u):", OccupancyStates - 1);
  for (unsigned I = 0; I < OccupancyStates; ++I)
    Line(" %llu", static_cast<unsigned long long>(C.Occupancy[I]));
  Out += '\n';
  Line("cache overflows: %llu, underflows: %llu\n",
       static_cast<unsigned long long>(C.CacheOverflows),
       static_cast<unsigned long long>(C.CacheUnderflows));
  Line("reconcile loads/stores/moves: %llu/%llu/%llu\n",
       static_cast<unsigned long long>(C.ReconcileLoads),
       static_cast<unsigned long long>(C.ReconcileStores),
       static_cast<unsigned long long>(C.ReconcileMoves));
  for (unsigned I = 0; I < vm::NumRunStatuses; ++I)
    if (C.Traps[I])
      Line("ended %s: %llu\n",
           vm::runStatusName(static_cast<vm::RunStatus>(I)),
           static_cast<unsigned long long>(C.Traps[I]));
  return Out;
}
