//===-- tests/prepare_tests.cpp - Prepare-once translation tests ----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The prepare/run split must be invisible to the guest: running a
/// PreparedCode through a held handle has to produce the same outcome,
/// stacks, output and fault as a handle-less engine::runEngine of the
/// same engine (which prepares a temporary artifact) — on clean runs and
/// on runs driven into every fault class by RunLimits. On top of that
/// behavioural contract this suite pins the resource contracts: the
/// PrepareCache translates once per (Code, engine) and invalidates on
/// mutation; one PreparedCode is shareable across concurrent
/// ExecContexts; warm prepared runs perform zero heap allocations and
/// zero stream translations; and a handle-less run translates once.
///
//===----------------------------------------------------------------------===//

#include "dispatch/EngineRegistry.h"
#include "forth/Forth.h"
#include "harness/FaultInject.h"
#include "prepare/Prepare.h"
#include "prepare/PrepareCache.h"
#include "vm/Translate.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

using namespace sc;
using namespace sc::vm;

//===----------------------------------------------------------------------===//
// Allocation counting: replace the global allocator with a counted
// malloc so tests can assert that a warm loop allocates nothing. The
// counter only ever increments; tests compare deltas.
//===----------------------------------------------------------------------===//

static std::atomic<uint64_t> GlobalAllocCount{0};

void *operator new(std::size_t Sz) {
  GlobalAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) { return ::operator new(Sz); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

uint64_t allocCount() {
  return GlobalAllocCount.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Shared plumbing
//===----------------------------------------------------------------------===//

// The stream-comparable flavors this suite sweeps. Model is preparable
// too (snapshot-only) but is exercised by registry_tests: its value-level
// interpretation allocates per run, which would trip the resource
// contracts below.
constexpr prepare::EngineId AllPrepareEngines[] = {
    prepare::EngineId::Switch,        prepare::EngineId::Threaded,
    prepare::EngineId::CallThreaded,  prepare::EngineId::ThreadedTos,
    prepare::EngineId::Dynamic3,      prepare::EngineId::StaticGreedy,
    prepare::EngineId::StaticOptimal,
};

/// prepare::EngineId and harness::EngineId are both aliases of the
/// registry's canonical enumeration; the handle-less run compared against
/// a prepare flavor is the flavor itself.
harness::EngineId legacyIdFor(prepare::EngineId E) { return E; }

/// observeEngine's twin for the prepared path: same fresh-copy setup,
/// but execution goes through runPrepared on \p PC.
harness::EngineObservation observePrepared(const forth::System &Sys,
                                           const prepare::PreparedCode &PC,
                                           uint32_t Entry,
                                           const harness::RunLimits &Limits) {
  Vm Copy = Sys.Machine;
  Copy.resetOutput();
  Copy.setAccessibleLimit(Limits.DataSpaceLimit);
  ExecContext Ctx(Sys.Prog, Copy);
  Ctx.MaxSteps = Limits.MaxSteps;
  Ctx.setStackCapacities(Limits.DsCapacity, Limits.RsCapacity);
  RunOutcome O = prepare::runPrepared(PC, Ctx, Entry);

  harness::EngineObservation Obs;
  Obs.Outcome = O;
  Obs.DS.assign(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  Obs.RS.assign(Ctx.RS.begin(), Ctx.RS.begin() + Ctx.RsDepth);
  Obs.Out = Copy.Out;
  Obs.DsHighWater = Ctx.DsHighWater;
  Obs.RsHighWater = Ctx.RsHighWater;
  return Obs;
}

/// Prepared and legacy runs use the *same* engine, so everything must be
/// bit-identical — including step counts and return-stack contents that
/// cross-engine comparisons have to mask.
void expectIdentical(const harness::EngineObservation &Legacy,
                     const harness::EngineObservation &Prepared,
                     prepare::EngineId E, const std::string &What) {
  const char *Name = engine::engineName(E);
  EXPECT_EQ(Legacy.Outcome.Status, Prepared.Outcome.Status)
      << Name << ": " << What;
  EXPECT_EQ(Legacy.Outcome.Steps, Prepared.Outcome.Steps)
      << Name << ": " << What;
  EXPECT_EQ(Legacy.Outcome.Fault, Prepared.Outcome.Fault)
      << Name << ": " << What << "\nlegacy:   "
      << harness::describeObservation(Legacy) << "\nprepared: "
      << harness::describeObservation(Prepared);
  EXPECT_EQ(Legacy.DS, Prepared.DS) << Name << ": " << What;
  EXPECT_EQ(Legacy.RS, Prepared.RS) << Name << ": " << What;
  EXPECT_EQ(Legacy.Out, Prepared.Out) << Name << ": " << What;
  EXPECT_EQ(Legacy.DsHighWater, Prepared.DsHighWater) << Name << ": " << What;
  EXPECT_EQ(Legacy.RsHighWater, Prepared.RsHighWater) << Name << ": " << What;
}

//===----------------------------------------------------------------------===//
// Prepared == legacy, clean runs, all engines x all workloads
//===----------------------------------------------------------------------===//

TEST(PrepareEquality, AllEnginesAllWorkloads) {
  size_t N;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    uint32_t Entry = Sys->entryOf(W[I].Entry);
    for (prepare::EngineId E : AllPrepareEngines) {
      auto PC = prepare::prepareCode(Sys->Prog, E);
      harness::EngineObservation Legacy =
          harness::observeEngine(*Sys, Sys->Prog, Entry, legacyIdFor(E), {});
      harness::EngineObservation Prepared =
          observePrepared(*Sys, *PC, Entry, {});
      expectIdentical(Legacy, Prepared, E, W[I].Name);
      EXPECT_EQ(Prepared.Out, W[I].Expected)
          << engine::engineName(E) << " on " << W[I].Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Prepared == legacy under fault-driving limits
//===----------------------------------------------------------------------===//

TEST(PrepareEquality, FaultOutcomesMatchLegacy) {
  // Each limit set drives a different fault class: step-limit traps at
  // several depths, data/return-stack overflow, and a data-space limit
  // that turns stores into memory traps.
  const harness::RunLimits LimitSets[] = {
      {harness::RunLimits().DsCapacity, harness::RunLimits().RsCapacity, 0,
       static_cast<size_t>(-1)},
      {harness::RunLimits().DsCapacity, harness::RunLimits().RsCapacity, 1,
       static_cast<size_t>(-1)},
      {harness::RunLimits().DsCapacity, harness::RunLimits().RsCapacity, 137,
       static_cast<size_t>(-1)},
      {4, harness::RunLimits().RsCapacity, UINT64_MAX,
       static_cast<size_t>(-1)},
      {harness::RunLimits().DsCapacity, 2, UINT64_MAX,
       static_cast<size_t>(-1)},
      {harness::RunLimits().DsCapacity, harness::RunLimits().RsCapacity,
       UINT64_MAX, 64},
  };

  size_t N;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I) {
    auto Sys = forth::loadOrDie(W[I].Source);
    uint32_t Entry = Sys->entryOf(W[I].Entry);
    for (prepare::EngineId E : AllPrepareEngines) {
      auto PC = prepare::prepareCode(Sys->Prog, E);
      for (const harness::RunLimits &L : LimitSets) {
        harness::EngineObservation Legacy =
            harness::observeEngine(*Sys, Sys->Prog, Entry, legacyIdFor(E), L);
        harness::EngineObservation Prepared =
            observePrepared(*Sys, *PC, Entry, L);
        std::string What = std::string(W[I].Name) + " limits{steps=" +
                           std::to_string(L.MaxSteps) +
                           " ds=" + std::to_string(L.DsCapacity) +
                           " rs=" + std::to_string(L.RsCapacity) + "}";
        expectIdentical(Legacy, Prepared, E, What);
      }
    }
  }
}

TEST(PrepareEquality, FullStepLimitSweep) {
  // The harness's sweepStepLimit idea, applied to the prepared path:
  // at EVERY truncation point 0..completion the prepared run must stop
  // in exactly the state the legacy run stops in (same resume PC via
  // the fault record, same trap-time depths).
  // Calls, branches and loops, so truncation lands on every dispatch
  // kind (including mid-call with a live return stack).
  auto Sys = forth::loadOrDie(
      ": aux dup 0 < if 0 swap - then 1 + ; "
      ": main 0 10 0 do i aux + loop . 0 begin 1 + dup 4 = until drop ;");
  uint32_t Entry = Sys->entryOf("main");

  harness::EngineObservation Free =
      harness::observeEngine(*Sys, Sys->Prog, Entry,
                             harness::EngineId::Switch, {});
  ASSERT_EQ(Free.Outcome.Status, RunStatus::Halted);

  for (prepare::EngineId E : AllPrepareEngines) {
    auto PC = prepare::prepareCode(Sys->Prog, E);
    for (uint64_t Limit = 0; Limit <= Free.Outcome.Steps + 2; ++Limit) {
      harness::RunLimits L;
      L.MaxSteps = Limit;
      harness::EngineObservation Legacy =
          harness::observeEngine(*Sys, Sys->Prog, Entry, legacyIdFor(E), L);
      harness::EngineObservation Prepared =
          observePrepared(*Sys, *PC, Entry, L);
      expectIdentical(Legacy, Prepared, E,
                      "step limit " + std::to_string(Limit));
    }
  }
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion baked into the prepared artifact
//===----------------------------------------------------------------------===//

TEST(PrepareFusion, FusedStreamMatchesGuestVisibleState) {
  size_t N;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  auto Sys = forth::loadOrDie(W[0].Source);
  uint32_t Entry = Sys->entryOf(W[0].Entry);

  prepare::PrepareOptions Fused;
  Fused.FuseSuperinstructions = true;
  for (prepare::EngineId E :
       {prepare::EngineId::Threaded, prepare::EngineId::Dynamic3}) {
    auto Plain = prepare::prepareCode(Sys->Prog, E);
    auto PC = prepare::prepareCode(Sys->Prog, E, Fused);
    EXPECT_GT(PC->FusedPairs, 0u) << "fusion found nothing to combine";

    // Fusion remaps instruction indices, so the entry must come from the
    // prepared artifact, and steps/RS are not comparable — but the
    // guest-visible results (status, output, data stack) must agree.
    harness::EngineObservation A = observePrepared(*Sys, *Plain, Entry, {});
    harness::EngineObservation B =
        observePrepared(*Sys, *PC, PC->entryOf(W[0].Entry), {});
    EXPECT_EQ(A.Outcome.Status, B.Outcome.Status);
    EXPECT_GT(A.Outcome.Steps, B.Outcome.Steps)
        << "fused run should dispatch fewer instructions";
    EXPECT_EQ(A.Out, B.Out);
    EXPECT_EQ(A.DS, B.DS);
  }
}

//===----------------------------------------------------------------------===//
// PrepareCache: exactly-once translation, invalidation on mutation
//===----------------------------------------------------------------------===//

TEST(PrepareCacheTest, HitsMissesAndInvalidation) {
  auto Sys = forth::loadOrDie(": main 1 2 + . ;");
  prepare::PrepareCache Cache;

  auto A = Cache.getOrPrepare(Sys->Prog, prepare::EngineId::Threaded);
  auto B = Cache.getOrPrepare(Sys->Prog, prepare::EngineId::Threaded);
  EXPECT_EQ(A.get(), B.get()) << "second lookup must reuse the artifact";
  metrics::PrepareCounters C = Cache.counters();
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Invalidations, 0u);
  EXPECT_EQ(C.Translations, 1u);
  EXPECT_EQ(Cache.size(), 1u);

  // A different engine flavor is a different entry, not a hit.
  Cache.getOrPrepare(Sys->Prog, prepare::EngineId::Dynamic3);
  C = Cache.counters();
  EXPECT_EQ(C.Misses, 2u);
  EXPECT_EQ(Cache.size(), 2u);

  // Mutating the program bumps its version; the cached translation must
  // be detected as stale and rebuilt, never served.
  uint64_t OldVersion = Sys->Prog.version();
  Sys->Prog.touch();
  EXPECT_NE(Sys->Prog.version(), OldVersion);
  auto D = Cache.getOrPrepare(Sys->Prog, prepare::EngineId::Threaded);
  EXPECT_NE(D.get(), A.get()) << "stale artifact served after mutation";
  EXPECT_EQ(D->SourceVersion, Sys->Prog.version());
  C = Cache.counters();
  EXPECT_EQ(C.Invalidations, 1u);
  EXPECT_EQ(C.Misses, 3u);
  EXPECT_EQ(C.Translations, 3u);

  // The rebuilt artifact is now current again.
  auto E = Cache.getOrPrepare(Sys->Prog, prepare::EngineId::Threaded);
  EXPECT_EQ(E.get(), D.get());
  EXPECT_EQ(Cache.counters().Hits, 2u);
}

TEST(PrepareCacheTest, CompilerMutationInvalidates) {
  // Loading more source into a System emits into the same Code object;
  // the version stamp must move so cached translations of the old
  // program cannot be replayed against the new one.
  auto Sys = forth::loadOrDie(": main 40 2 + . ;");
  prepare::PrepareCache Cache;
  auto A = Cache.getOrPrepare(Sys->Prog, prepare::EngineId::ThreadedTos);

  ASSERT_TRUE(Sys->load(": extra 7 . ;"));
  auto B = Cache.getOrPrepare(Sys->Prog, prepare::EngineId::ThreadedTos);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(Cache.counters().Invalidations, 1u);

  harness::EngineObservation Obs =
      observePrepared(*Sys, *B, Sys->entryOf("main"), {});
  EXPECT_EQ(Obs.Outcome.Status, RunStatus::Halted);
  EXPECT_EQ(Obs.Out, "42 ");
}

//===----------------------------------------------------------------------===//
// One PreparedCode shared by concurrent ExecContexts
//===----------------------------------------------------------------------===//

TEST(PrepareSharing, TwoThreadsOnePreparedCode) {
  size_t N;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  auto Sys = forth::loadOrDie(W[0].Source);
  uint32_t Entry = Sys->entryOf(W[0].Entry);

  // CallThreaded is excluded by contract: its VM registers live in
  // static storage (see PreparedCode's doc comment).
  for (prepare::EngineId E :
       {prepare::EngineId::Threaded, prepare::EngineId::ThreadedTos,
        prepare::EngineId::Dynamic3, prepare::EngineId::StaticGreedy}) {
    auto PC = prepare::prepareCode(Sys->Prog, E);
    harness::EngineObservation Ref = observePrepared(*Sys, *PC, Entry, {});

    harness::EngineObservation Got[2];
    std::thread T0([&] { Got[0] = observePrepared(*Sys, *PC, Entry, {}); });
    std::thread T1([&] { Got[1] = observePrepared(*Sys, *PC, Entry, {}); });
    T0.join();
    T1.join();
    for (const harness::EngineObservation &O : Got)
      expectIdentical(Ref, O, E, "concurrent shared PreparedCode");
  }
}

//===----------------------------------------------------------------------===//
// Resource contracts: warm runs allocate nothing and translate nothing
//===----------------------------------------------------------------------===//

/// A compute-only word: printing would append to Vm::Out and the string
/// growth would show up as (legitimate) allocations, hiding what these
/// tests measure — allocations made by the engines themselves.
constexpr const char *SilentSrc =
    ": main 0 500 0 do i + loop 1000 begin 1- dup 0= until drop drop ;";

TEST(PrepareResources, WarmPreparedRunsDoNotAllocateOrTranslate) {
  auto Sys = forth::loadOrDie(SilentSrc);
  uint32_t Entry = Sys->entryOf("main");

  for (prepare::EngineId E : AllPrepareEngines) {
    auto PC = prepare::prepareCode(Sys->Prog, E);
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    // Warm-up: lets resize-on-demand scratch (e.g. the TOS engine's
    // shadow stack) reach its steady-state size.
    ASSERT_EQ(prepare::runPrepared(*PC, Ctx, Entry).Status,
              RunStatus::Halted);

    const uint64_t Allocs0 = allocCount();
    const uint64_t Trans0 = vm::streamTranslations();
    for (int I = 0; I < 5; ++I)
      prepare::runPrepared(*PC, Ctx, Entry);
    EXPECT_EQ(allocCount() - Allocs0, 0u)
        << engine::engineName(E) << ": warm prepared runs allocated";
    EXPECT_EQ(vm::streamTranslations() - Trans0, 0u)
        << engine::engineName(E) << ": warm prepared runs re-translated";
  }
}

TEST(PrepareResources, HandlelessRunsTranslateOnceAndRestoreProg) {
  // Without a prepared handle, engine::runEngine prepares a temporary
  // artifact: exactly one translation per run (none for switch, which
  // dispatches off the program), and Ctx.Prog is put back afterwards,
  // whatever program the context was bound to.
  auto Sys = forth::loadOrDie(SilentSrc);
  auto Other = forth::loadOrDie(": main ;");
  uint32_t Entry = Sys->entryOf("main");

  for (prepare::EngineId E : AllPrepareEngines) {
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Other->Prog, Copy);
    const uint64_t Trans0 = vm::streamTranslations();
    for (int I = 0; I < 5; ++I) {
      engine::RunOptions Opts;
      Opts.Entry = Entry;
      EXPECT_EQ(engine::runEngine(E, Sys->Prog, Ctx, Opts).Status,
                RunStatus::Halted) << engine::engineName(E);
      EXPECT_EQ(Ctx.Prog, &Other->Prog)
          << engine::engineName(E) << ": Ctx.Prog not restored";
    }
    EXPECT_EQ(vm::streamTranslations() - Trans0,
              E == prepare::EngineId::Switch ? 0u : 5u) << engine::engineName(E)
        << ": a handle-less run should translate exactly once";
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Cache counter accounting under concurrency and mixed lookup families
//===----------------------------------------------------------------------===//

TEST(PrepareCacheTest, IdentityLookupCounters) {
  // Regression: identity lookups used to tick the shared Hits counter on
  // success and nothing on a miss, so Hits + Misses stopped matching the
  // getOrPrepare call count the moment a tier controller polled the
  // cache. Each family now balances on its own.
  auto Sys = forth::loadOrDie(": main 1 2 + . ;");
  prepare::PrepareCache Cache;
  auto PC = Cache.getOrPrepare(Sys->Prog, engine::EngineId::Threaded);
  ASSERT_NE(PC, nullptr);
  const uint64_t Id = PC->SourceIdentity;

  EXPECT_NE(Cache.findByIdentity(Id, engine::EngineId::Threaded), nullptr);
  // Wrong engine, wrong fusion flavor, unknown identity: all misses.
  EXPECT_EQ(Cache.findByIdentity(Id, engine::EngineId::StaticOptimal),
            nullptr);
  EXPECT_EQ(Cache.findByIdentity(Id, engine::EngineId::Threaded,
                                 /*Fused=*/true),
            nullptr);
  EXPECT_EQ(Cache.findByIdentity(Id + 1, engine::EngineId::Threaded),
            nullptr);

  const metrics::PrepareCounters C = Cache.counters();
  EXPECT_EQ(C.IdentityHits, 1u);
  EXPECT_EQ(C.IdentityMisses, 3u);
  // The getOrPrepare family is untouched by identity traffic.
  EXPECT_EQ(C.Hits, 0u);
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Translations, 1u);
}

TEST(PrepareCacheTest, ConcurrentMixedLookupCounters) {
  // The adaptive tiering path hammers the cache from scheduler workers
  // (getOrPrepare at promotion) and the controller (findByIdentity at
  // poll) at once. The lock is held across the prepare, which makes the
  // exactly-once properties structural even under a race: one miss and
  // one translation per first lookup, one invalidation per version bump
  // no matter how many threads observe the stale entry.
  auto Sys = forth::loadOrDie(": main 10 0 do i . loop ;");
  prepare::PrepareCache Cache;
  constexpr unsigned Racers = 8;

  // Phase 1: every thread races the very first lookup of one key.
  std::vector<std::shared_ptr<const prepare::PreparedCode>> Got(Racers);
  {
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I < Racers; ++I)
      Ts.emplace_back([&, I] {
        Got[I] = Cache.getOrPrepare(Sys->Prog, engine::EngineId::Threaded);
      });
    for (std::thread &T : Ts)
      T.join();
  }
  for (unsigned I = 1; I < Racers; ++I)
    EXPECT_EQ(Got[I], Got[0]) << "racing first lookups must share one "
                                 "translation";
  {
    const metrics::PrepareCounters C = Cache.counters();
    EXPECT_EQ(C.Translations, 1u);
    EXPECT_EQ(C.Misses, 1u);
    EXPECT_EQ(C.Hits, Racers - 1);
    EXPECT_EQ(C.IdentityHits + C.IdentityMisses, 0u);
  }

  // Phase 2: bump the version, then race re-preparation against
  // identity polls of the superseded artifact.
  const uint64_t OldId = Got[0]->SourceIdentity;
  Sys->Prog.touch();
  constexpr unsigned Preps = 4, Polls = 4;
  {
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I < Preps; ++I)
      Ts.emplace_back([&] {
        EXPECT_NE(Cache.getOrPrepare(Sys->Prog, engine::EngineId::Threaded),
                  nullptr);
      });
    for (unsigned I = 0; I < Polls; ++I)
      Ts.emplace_back([&] {
        // May hit (stale entry still cached) or miss (already evicted):
        // either way it must land in exactly one identity counter.
        (void)Cache.findByIdentity(OldId, engine::EngineId::Threaded);
      });
    for (std::thread &T : Ts)
      T.join();
  }
  const metrics::PrepareCounters C = Cache.counters();
  EXPECT_EQ(C.Invalidations, 1u) << "a version bump invalidates exactly "
                                    "once, however many threads see it";
  EXPECT_EQ(C.Misses, 2u);
  EXPECT_EQ(C.Translations, C.Misses);
  EXPECT_EQ(C.Hits + C.Misses, Racers + Preps);
  EXPECT_EQ(C.IdentityHits + C.IdentityMisses, Polls);
}
