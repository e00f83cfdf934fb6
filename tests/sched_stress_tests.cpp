//===-- tests/sched_stress_tests.cpp - Scheduler concurrency stress -------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency stress for the SessionScheduler, sized to stay meaningful
/// under ThreadSanitizer (CI runs this binary in the TSan job). Four
/// storms: mixed tenants submitting/recycling jobs across engines while
/// a reader thread snapshots counters; cross-thread cancellation of
/// spinning guests; a deadline storm where every job expires; and a
/// drain racing live submitters mid-flight. The assertions are about
/// states and conservation (every admitted job reaches Done, counters
/// add up), not timing; TSan supplies the data-race oracle.
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "prepare/PrepareCache.h"
#include "sched/SessionScheduler.h"
#include "service/Client.h"
#include "service/Service.h"
#include "tier/TierController.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

using namespace sc;
using namespace sc::sched;

namespace {

constexpr const char *ComputeSrc = R"(
variable acc
: sq dup * ;
: step acc @ + acc ! ;
: main 0 acc ! 9 0 do i sq step loop acc @ . ;
)";

constexpr const char *FaultSrc = ": main 5 0 do i drop loop 7 0 / . ;";

constexpr const char *SpinSrc = ": main begin 1 drop again ;";

/// Engines the stress rotates through: the reference four (including
/// the non-reentrant call-threaded flavor, which exercises the
/// scheduler's serialization guard) plus one of each caching family.
std::vector<engine::EngineId> stressEngines() {
  std::vector<engine::EngineId> Out;
  size_t N = 0;
  const engine::EngineInfo *E = engine::allEngines(N);
  for (size_t I = 0; I < N; ++I)
    if (E[I].Id != engine::EngineId::Model) // value-level model: too slow
      Out.push_back(E[I].Id);
  return Out;
}

} // namespace

TEST(SchedStress, MixedTenantsRecycleJobsUnderLoad) {
  std::unique_ptr<forth::System> Compute = forth::loadOrDie(ComputeSrc);
  std::unique_ptr<forth::System> Faulty = forth::loadOrDie(FaultSrc);
  prepare::PrepareCache Cache;
  SchedConfig Cfg;
  Cfg.Workers = 4;
  Cfg.SliceSteps = 64; // many slice boundaries -> many scheduling points
  Cfg.Cache = &Cache;
  SessionScheduler S(Cfg);

  const std::vector<engine::EngineId> Engines = stressEngines();
  constexpr unsigned NumTenants = 6;
  constexpr unsigned JobsPerTenant = 4;
  constexpr unsigned Rounds = 3;

  struct TenantRig {
    TenantId T = 0;
    std::vector<Job *> Jobs;
  };
  std::vector<TenantRig> Rigs(NumTenants);
  for (unsigned TI = 0; TI < NumTenants; ++TI) {
    TenantConfig TC;
    TC.QuantumSteps = 64u << (TI % 3); // uneven fair-queuing quanta
    TC.QueueCapacity = JobsPerTenant;
    TC.OnFull = TI % 2 ? Backpressure::Wait : Backpressure::Reject;
    Rigs[TI].T = S.addTenant("t" + std::to_string(TI), TC);
    for (unsigned JI = 0; JI < JobsPerTenant; ++JI) {
      forth::System &Sys = (TI + JI) % 3 == 0 ? *Faulty : *Compute;
      JobSpec Spec;
      Spec.Entry = Sys.entryOf("main");
      Rigs[TI].Jobs.push_back(
          S.createJob(Rigs[TI].T, Sys.Prog,
                      Engines[(TI * JobsPerTenant + JI) % Engines.size()],
                      Sys.Machine, Spec));
    }
  }

  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    while (!Done.load(std::memory_order_relaxed)) {
      const SchedSnapshot Snap = S.snapshot();
      (void)snapshotToJson(Snap);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> Drivers;
  std::atomic<uint64_t> Admitted{0};
  for (unsigned TI = 0; TI < NumTenants; ++TI) {
    Drivers.emplace_back([&, TI] {
      for (unsigned R = 0; R < Rounds; ++R) {
        for (Job *J : Rigs[TI].Jobs) {
          if (R > 0)
            S.rearm(J);
          // A Reject tenant may bounce when its own jobs still occupy
          // the queue; retry until admitted.
          while (S.submit(J) != SubmitResult::Admitted)
            std::this_thread::yield();
          Admitted.fetch_add(1, std::memory_order_relaxed);
        }
        for (Job *J : Rigs[TI].Jobs)
          S.wait(J);
      }
    });
  }
  for (std::thread &T : Drivers)
    T.join();
  Done.store(true, std::memory_order_relaxed);
  Reader.join();
  S.drain();

  uint64_t Completed = 0, Faults = 0;
  const SchedSnapshot Snap = S.snapshot();
  for (const TenantCounters &T : Snap.Tenants) {
    Completed += T.Completed;
    Faults += T.Faults;
    EXPECT_EQ(T.QueueDepth, 0u);
  }
  EXPECT_EQ(Completed, Admitted.load());
  EXPECT_EQ(Completed, uint64_t(NumTenants) * JobsPerTenant * Rounds);
  EXPECT_GT(Faults, 0u); // the faulting tenants really faulted
  for (const TenantRig &R : Rigs)
    for (Job *J : R.Jobs)
      EXPECT_EQ(J->state(), JobState::Done);
}

TEST(SchedStress, CancellationStorm) {
  std::unique_ptr<forth::System> Spin = forth::loadOrDie(SpinSrc);
  prepare::PrepareCache Cache;
  SchedConfig Cfg;
  Cfg.Workers = 4;
  Cfg.SliceSteps = 256;
  Cfg.Cache = &Cache;
  SessionScheduler S(Cfg);

  std::vector<Job *> Jobs;
  for (unsigned TI = 0; TI < 3; ++TI) {
    const TenantId T = S.addTenant("t" + std::to_string(TI));
    for (unsigned JI = 0; JI < 4; ++JI) {
      JobSpec Spec;
      Spec.Entry = Spin->entryOf("main");
      Job *J = S.createJob(T, Spin->Prog, engine::EngineId::Threaded,
                           Spin->Machine, Spec);
      ASSERT_EQ(S.submit(J), SubmitResult::Admitted);
      Jobs.push_back(J);
    }
  }

  // Cancel from several threads, interleaved with the dispatch storm.
  std::vector<std::thread> Cancellers;
  for (unsigned C = 0; C < 3; ++C)
    Cancellers.emplace_back([&, C] {
      for (size_t I = C; I < Jobs.size(); I += 3) {
        std::this_thread::sleep_for(std::chrono::microseconds(50 * I));
        Jobs[I]->cancel();
      }
    });
  for (std::thread &T : Cancellers)
    T.join();
  S.drain();

  for (Job *J : Jobs) {
    EXPECT_EQ(J->state(), JobState::Done);
    EXPECT_EQ(J->result().Stop, session::StopKind::Cancelled);
    EXPECT_TRUE(J->result().Resumable);
  }
}

TEST(SchedStress, DeadlineStorm) {
  std::unique_ptr<forth::System> Spin = forth::loadOrDie(SpinSrc);
  prepare::PrepareCache Cache;
  SchedConfig Cfg;
  Cfg.Workers = 4;
  Cfg.SliceSteps = 512;
  Cfg.Cache = &Cache;
  SessionScheduler S(Cfg);

  std::vector<Job *> Jobs;
  for (unsigned TI = 0; TI < 4; ++TI) {
    const TenantId T = S.addTenant("t" + std::to_string(TI));
    for (unsigned JI = 0; JI < 3; ++JI) {
      JobSpec Spec;
      Spec.Entry = Spin->entryOf("main");
      Spec.Deadline = std::chrono::milliseconds(1 + (TI * 3 + JI) % 7);
      Job *J = S.createJob(T, Spin->Prog, engine::EngineId::Switch,
                           Spin->Machine, Spec);
      ASSERT_EQ(S.submit(J), SubmitResult::Admitted);
      Jobs.push_back(J);
    }
  }
  S.drain();

  uint64_t Hits = 0;
  for (Job *J : Jobs) {
    EXPECT_EQ(J->state(), JobState::Done);
    EXPECT_EQ(J->result().Stop, session::StopKind::DeadlineExpired);
    ++Hits;
  }
  const SchedSnapshot Snap = S.snapshot();
  uint64_t Counted = 0;
  for (const TenantCounters &T : Snap.Tenants)
    Counted += T.DeadlineHits;
  EXPECT_EQ(Counted, Hits);
}

TEST(SchedStress, DrainMidFlightRacesSubmitters) {
  std::unique_ptr<forth::System> Sys = forth::loadOrDie(ComputeSrc);
  prepare::PrepareCache Cache;
  SchedConfig Cfg;
  Cfg.Workers = 2;
  Cfg.SliceSteps = 64;
  Cfg.Cache = &Cache;
  SessionScheduler S(Cfg);

  constexpr unsigned NumTenants = 3;
  std::vector<TenantId> Ts;
  for (unsigned TI = 0; TI < NumTenants; ++TI) {
    TenantConfig TC;
    TC.QueueCapacity = 4;
    TC.OnFull = Backpressure::Wait;
    Ts.push_back(S.addTenant("t" + std::to_string(TI), TC));
  }

  std::vector<std::vector<Job *>> Admitted(NumTenants);
  std::atomic<unsigned> AdmittedCount{0};
  std::vector<std::thread> Submitters;
  for (unsigned TI = 0; TI < NumTenants; ++TI) {
    Submitters.emplace_back([&, TI] {
      for (;;) {
        JobSpec Spec;
        Spec.Entry = Sys->entryOf("main");
        Job *J = S.createJob(Ts[TI], Sys->Prog, engine::EngineId::Dynamic3,
                             Sys->Machine, Spec);
        const SubmitResult R = S.submit(J);
        if (R == SubmitResult::Closed)
          return; // the drain shut the door mid-flight
        if (R == SubmitResult::Admitted) {
          Admitted[TI].push_back(J);
          AdmittedCount.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  // Drain on an event, not after a fixed sleep: once the first job is
  // in, the submitters are mid-flight however slow the build (a sleep
  // could end before anything was admitted under a sanitizer).
  while (AdmittedCount.load(std::memory_order_acquire) == 0)
    std::this_thread::yield();
  S.drain(); // races the submitters: whatever got in must finish
  for (std::thread &T : Submitters)
    T.join();

  size_t Total = 0;
  for (const std::vector<Job *> &Js : Admitted) {
    Total += Js.size();
    for (Job *J : Js) {
      EXPECT_EQ(J->state(), JobState::Done);
      EXPECT_EQ(J->result().Stop, session::StopKind::Halted);
    }
  }
  EXPECT_GT(Total, 0u);

  // The scheduler accepts work again after reopen().
  S.reopen();
  JobSpec Spec;
  Spec.Entry = Sys->entryOf("main");
  Job *J = S.createJob(Ts[0], Sys->Prog, engine::EngineId::Dynamic3,
                       Sys->Machine, Spec);
  ASSERT_EQ(S.submit(J), SubmitResult::Admitted);
  S.wait(J);
  EXPECT_EQ(J->result().Stop, session::StopKind::Halted);
}

TEST(SchedStress, CrashRecoveryStorm) {
  // Seeded hard-kill storm: each bounded dispatch is doomed with
  // probability 1/3, discarding its whole effect and restarting the job
  // from its last checkpoint — under four workers, so recovery races
  // dispatch, settlement and the counter reader (TSan runs this).
  // Whatever the interleaving, completion must be exactly-once: every
  // job reaches Done with the same final state an uncrashed run
  // produces, with nothing duplicated and nothing lost.
  std::unique_ptr<forth::System> Compute = forth::loadOrDie(ComputeSrc);
  std::unique_ptr<forth::System> Faulty = forth::loadOrDie(FaultSrc);

  // The uncrashed reference: one supervised run of the compute program.
  std::string RefOut;
  {
    vm::Vm M = Compute->Machine;
    M.resetOutput();
    session::VmSession Ref(
        prepare::prepareCode(Compute->Prog, engine::EngineId::Switch), M);
    EXPECT_EQ(Ref.run(Compute->entryOf("main")).Stop,
              session::StopKind::Halted);
    RefOut = M.Out;
  }

  prepare::PrepareCache Cache;
  SchedConfig Cfg;
  Cfg.Workers = 4;
  Cfg.SliceSteps = 64;
  Cfg.Cache = &Cache;
  Cfg.CheckpointEverySlices = 2;
  Cfg.CrashOneIn = 3;
  Cfg.CrashSeed = 0xdeadfa11;
  SessionScheduler S(Cfg);

  const std::vector<engine::EngineId> Engines = stressEngines();
  constexpr unsigned NumTenants = 4;
  constexpr unsigned JobsPerTenant = 4;
  constexpr unsigned Rounds = 2;

  std::vector<TenantId> Ts;
  std::vector<Job *> Jobs;
  std::vector<bool> IsFaulty;
  for (unsigned TI = 0; TI < NumTenants; ++TI) {
    TenantConfig TC;
    TC.QueueCapacity = JobsPerTenant;
    TC.OnFull = Backpressure::Wait;
    Ts.push_back(S.addTenant("t" + std::to_string(TI), TC));
    for (unsigned JI = 0; JI < JobsPerTenant; ++JI) {
      const bool Fault = (TI + JI) % 4 == 0;
      forth::System &Sys = Fault ? *Faulty : *Compute;
      JobSpec Spec;
      Spec.Entry = Sys.entryOf("main");
      Jobs.push_back(
          S.createJob(Ts[TI], Sys.Prog,
                      Engines[(TI * JobsPerTenant + JI) % Engines.size()],
                      Sys.Machine, Spec));
      IsFaulty.push_back(Fault);
    }
  }

  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    while (!Done.load(std::memory_order_relaxed)) {
      (void)snapshotToJson(S.snapshot());
      std::this_thread::yield();
    }
  });

  for (unsigned R = 0; R < Rounds; ++R) {
    for (Job *J : Jobs) {
      if (R > 0) {
        J->machine().resetOutput(); // exactly-once: no leftover output
        S.rearm(J);
      }
      while (S.submit(J) != SubmitResult::Admitted)
        std::this_thread::yield();
    }
    for (Job *J : Jobs)
      S.wait(J);

    for (size_t I = 0; I < Jobs.size(); ++I) {
      EXPECT_EQ(Jobs[I]->state(), JobState::Done);
      if (IsFaulty[I]) {
        EXPECT_EQ(Jobs[I]->result().Stop, session::StopKind::Fault)
            << "job " << I;
        EXPECT_EQ(Jobs[I]->result().Outcome.Status, vm::RunStatus::DivByZero)
            << "job " << I;
      } else {
        EXPECT_EQ(Jobs[I]->result().Stop, session::StopKind::Halted)
            << "job " << I;
        // Recovery re-executed some slices, but the rolled-back output
        // means the printed result appears exactly once.
        EXPECT_EQ(Jobs[I]->machine().Out, RefOut) << "job " << I;
      }
    }
  }
  Done.store(true, std::memory_order_relaxed);
  Reader.join();
  S.drain();

  uint64_t Crashes = 0, Recoveries = 0, Submitted = 0, Completed = 0;
  for (const TenantCounters &T : S.snapshot().Tenants) {
    Crashes += T.Crashes;
    Recoveries += T.Recoveries;
    Submitted += T.Submitted;
    Completed += T.Completed;
    EXPECT_EQ(T.QueueDepth, 0u);
  }
  // 64 admitted dispatches minimum at 1/3 doom probability: the odds of
  // a crash-free storm are astronomically small.
  EXPECT_GT(Crashes, 0u);
  EXPECT_EQ(Crashes, Recoveries); // every murder was recovered from
  EXPECT_EQ(Completed, Submitted);
  EXPECT_EQ(Completed, uint64_t(NumTenants) * JobsPerTenant * Rounds);
}

TEST(SchedStress, TierPromotionStorm) {
  // Adaptive tiering under everything at once: four workers promoting
  // hot programs mid-run while cancellation, deadlines and seeded
  // crash-injection recovery race the controller's background worker
  // and the counter reader (TSan runs this). Faulting jobs start on a
  // seeded-hot tier so a confirmed fault must demote; compute heat
  // accumulates across rounds so promotions must happen; spinning jobs
  // preempt every slice, hammering the migration poll.
  std::unique_ptr<forth::System> Compute = forth::loadOrDie(ComputeSrc);
  std::unique_ptr<forth::System> Faulty = forth::loadOrDie(FaultSrc);
  std::unique_ptr<forth::System> Spin = forth::loadOrDie(SpinSrc);

  prepare::PrepareCache Cache;
  tier::TierPolicy TP;
  TP.PromoteSteps = 256; // tiny: this storm is about churn, not policy
  TP.Background = true;  // the scheduler asserts this
  tier::TierController TC(TP, &Cache);
  // The faulting program enters already promoted: its confirmed fault
  // is then a deterministic demotion.
  TC.seedSteps(Faulty->Prog.identity(), 1u << 20);

  SchedConfig Cfg;
  Cfg.Workers = 4;
  Cfg.SliceSteps = 64;
  Cfg.Cache = &Cache;
  Cfg.Tier = &TC;
  Cfg.CheckpointEverySlices = 2;
  Cfg.CrashOneIn = 5;
  Cfg.CrashSeed = 0x7e11aced;
  SessionScheduler S(Cfg);

  constexpr unsigned ComputeJobs = 4, FaultJobs = 3, CancelJobs = 4,
                     DeadlineJobs = 3, Rounds = 3;
  const TenantId Hot = S.addTenant("hot");
  const TenantId Bad = S.addTenant("bad");
  const TenantId Cut = S.addTenant("cut");
  const TenantId Due = S.addTenant("due");

  std::vector<Job *> Recycled; // compute + faulty: resubmitted per round
  std::vector<bool> IsFaulty;
  for (unsigned I = 0; I < ComputeJobs; ++I) {
    JobSpec Spec;
    Spec.Entry = Compute->entryOf("main");
    Recycled.push_back(S.createJob(Hot, Compute->Prog,
                                   engine::EngineId::Switch,
                                   Compute->Machine, Spec));
    IsFaulty.push_back(false);
  }
  for (unsigned I = 0; I < FaultJobs; ++I) {
    JobSpec Spec;
    Spec.Entry = Faulty->entryOf("main");
    Spec.ConfirmFaults = true; // demotion requires a confirmed verdict
    Recycled.push_back(S.createJob(Bad, Faulty->Prog,
                                   engine::EngineId::Switch,
                                   Faulty->Machine, Spec));
    IsFaulty.push_back(true);
  }
  std::vector<Job *> Cancelled;
  for (unsigned I = 0; I < CancelJobs; ++I) {
    JobSpec Spec;
    Spec.Entry = Spin->entryOf("main");
    Cancelled.push_back(S.createJob(Cut, Spin->Prog,
                                    engine::EngineId::Threaded,
                                    Spin->Machine, Spec));
    ASSERT_EQ(S.submit(Cancelled.back()), SubmitResult::Admitted);
  }
  std::vector<Job *> Expiring;
  for (unsigned I = 0; I < DeadlineJobs; ++I) {
    JobSpec Spec;
    Spec.Entry = Spin->entryOf("main");
    Spec.Deadline = std::chrono::milliseconds(1 + I * 2);
    Expiring.push_back(S.createJob(Due, Spin->Prog,
                                   engine::EngineId::Switch, Spin->Machine,
                                   Spec));
    ASSERT_EQ(S.submit(Expiring.back()), SubmitResult::Admitted);
  }

  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    while (!Done.load(std::memory_order_relaxed)) {
      (void)snapshotToJson(S.snapshot());
      std::this_thread::yield();
    }
  });
  std::thread Canceller([&] {
    for (size_t I = 0; I < Cancelled.size(); ++I) {
      std::this_thread::sleep_for(std::chrono::microseconds(100 * (I + 1)));
      Cancelled[I]->cancel();
    }
  });

  for (unsigned R = 0; R < Rounds; ++R) {
    // Let the background worker finish every queued translation first:
    // the rearm path's fresh-entry adoption then promotes
    // deterministically once the heat is there.
    TC.flush();
    for (Job *J : Recycled) {
      if (R > 0) {
        J->machine().resetOutput();
        S.rearm(J);
      }
      while (S.submit(J) != SubmitResult::Admitted)
        std::this_thread::yield();
    }
    for (Job *J : Recycled)
      S.wait(J);
    for (size_t I = 0; I < Recycled.size(); ++I)
      EXPECT_EQ(Recycled[I]->result().Stop, IsFaulty[I]
                                                ? session::StopKind::Fault
                                                : session::StopKind::Halted)
          << "job " << I << " round " << R;
  }
  Canceller.join();
  Done.store(true, std::memory_order_relaxed);
  Reader.join();
  S.drain();

  for (Job *J : Cancelled)
    EXPECT_EQ(J->result().Stop, session::StopKind::Cancelled);
  for (Job *J : Expiring)
    EXPECT_EQ(J->result().Stop, session::StopKind::DeadlineExpired);

  // The compute identity retired ComputeJobs * Rounds runs of heat:
  // far past PromoteSteps, so the controller must have promoted, and
  // the seeded-hot faulting program must have been pinned cold by its
  // confirmed fault.
  const metrics::TierCounters TCounts = TC.counters();
  EXPECT_GT(TCounts.Promotions, 0u);
  EXPECT_GT(TCounts.Demotions, 0u);
  EXPECT_TRUE(TC.isPinned(Faulty->Prog.identity()));
  uint64_t Demotions = 0;
  for (const TenantCounters &T : S.snapshot().Tenants)
    Demotions += T.TierDemotions;
  EXPECT_GT(Demotions, 0u);
  EXPECT_EQ(TC.desiredTier(Faulty->Prog.identity()), 0u);
}

//===----------------------------------------------------------------------===//
// Service chaos storm (the TSan tier of the chaos differential)
//===----------------------------------------------------------------------===//

TEST(SchedStress, ServiceChaosStorm) {
  // The whole service stack under every fault source at once: transport
  // storm (drop/dup/truncate/reorder/delay on both directions of every
  // connection), seeded scheduler crash injection, and a thread killing
  // and rebuilding shards mid-job — with concurrent retrying clients.
  // TSan supplies the race oracle; the assertions supply exactly-once:
  // every job completes once, with the result a clean single-session
  // run produces.
  using namespace sc::service;

  // Clean reference for the one program the storm runs.
  std::string RefOut;
  uint64_t RefSteps = 0;
  ServiceConfig Cfg;
  {
    auto Sys = forth::loadOrDie(ComputeSrc);
    prepare::PrepareCache Cache;
    auto PC = Cache.getOrPrepare(Sys->Prog, engine::EngineId::Switch);
    vm::Vm M = Sys->Machine;
    session::SessionPolicy Pol;
    Pol.SliceSteps = Cfg.SliceSteps;
    session::VmSession Ref(PC, M, Pol);
    const session::SessionResult R = Ref.run(Sys->entryOf("main"));
    EXPECT_EQ(R.Stop, session::StopKind::Halted);
    RefOut = M.Out;
    RefSteps = R.Outcome.Steps;
  }

  Cfg.Shards = 2;
  Cfg.WorkersPerShard = 2;
  Cfg.CrashOneIn = 60;
  Cfg.CrashSeed = 0x57072;
  ServiceFrontEnd FE(Cfg);

  std::mutex HostMu;
  std::vector<std::thread> ServerThreads;
  std::atomic<uint64_t> Conns{0};
  const ChaosConfig Storm = ChaosConfig::storm(0x57072);
  auto Connector = [&]() -> std::unique_ptr<Channel> {
    auto [Cli, Srv] = makeLocalPair();
    const uint64_t N = Conns.fetch_add(1) + 1;
    ChaosConfig SC = Storm;
    SC.Seed = Storm.Seed ^ (0x9e3779b97f4a7c15ULL * N);
    auto S = std::make_unique<ChaosChannel>(std::move(Srv), SC);
    ChaosConfig CC = Storm;
    CC.Seed = Storm.Seed ^ (0xbf58476d1ce4e5b9ULL * N);
    auto C = std::make_unique<ChaosChannel>(std::move(Cli), CC);
    std::lock_guard<std::mutex> L(HostMu);
    ServerThreads.emplace_back(
        [&FE, Ch = std::move(S)]() mutable { serveChannel(FE, *Ch); });
    return C;
  };

  constexpr uint64_t Jobs = 36;
  constexpr unsigned ClientThreads = 3;
  std::atomic<uint64_t> Done{0};
  std::atomic<bool> StopKills{false};
  std::thread Killer([&] {
    for (unsigned K = 0; K < 4 && !StopKills.load(); ++K) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      FE.killShard(K % Cfg.Shards);
    }
  });

  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < ClientThreads; ++W)
    Workers.emplace_back([&, W] {
      RetryPolicy Pol;
      Pol.JitterSeed = 0x5701 + W;
      Pol.MaxAttempts = 60;
      Pol.AttemptTimeoutNs = 100'000'000;
      ServiceClient Client(Connector, Pol);
      const std::string Tenant = "storm-" + std::to_string(W);
      for (uint64_t I = W; I < Jobs; I += ClientThreads) {
        const JobTicket Ticket{Tenant, I + 1};
        Frame Resp;
        int Rounds = 0;
        while (!Client.submit(Ticket, ComputeSrc, "main", 0, Resp))
          ASSERT_LT(++Rounds, 50) << "submit wedged";
        ASSERT_NE(Resp.Type, FrameType::Error);
        ASSERT_TRUE(Client.awaitResult(Ticket, Resp, 120'000'000'000ULL));
        EXPECT_EQ(Resp.Stop,
                  static_cast<uint8_t>(session::StopKind::Halted));
        EXPECT_EQ(Resp.Steps, RefSteps) << I;
        EXPECT_EQ(Resp.Output, RefOut) << I;
        Done.fetch_add(1);
      }
    });
  for (std::thread &T : Workers)
    T.join();
  StopKills.store(true);
  Killer.join();
  FE.shutdown();

  EXPECT_EQ(Done.load(), Jobs);
  const ServiceStats Stats = FE.statsSnapshot();
  EXPECT_EQ(Stats.Submitted, Jobs);
  EXPECT_EQ(Stats.Completed, Jobs);

  std::lock_guard<std::mutex> L(HostMu);
  for (std::thread &T : ServerThreads)
    T.join();
}

//===----------------------------------------------------------------------===//
// Migration storm (the TSan tier of live migration)
//===----------------------------------------------------------------------===//

TEST(SchedStress, MigrationStorm) {
  // Live migration with every mover running at once: the cross-shard
  // rebalancer marking victims, a canceller racing it, shards dying and
  // rebuilding under BOTH processes, and migrator threads extracting
  // jobs mid-flight and adopting them on a second front end. TSan is
  // the race oracle; the assertions are conservation — every submitted
  // job reaches exactly one Result at the source, and the migration
  // counters balance.
  using namespace sc::service;

  ServiceConfig Cfg;
  Cfg.Shards = 2;
  Cfg.WorkersPerShard = 2;
  Cfg.SliceSteps = 64;
  Cfg.CheckpointEverySlices = 1;
  Cfg.MaxInFlightPerTenant = 64;
  Cfg.TenantQueueCapacity = 64;
  Cfg.Rebalance = true;
  Cfg.RebalanceHighWater = 2;
  Cfg.RebalanceMinGap = 1;
  Cfg.RebalanceBatch = 4;
  ServiceFrontEnd Src(Cfg), Dst(Cfg);

  constexpr uint64_t Jobs = 32;
  const std::string Tenant = "storm"; // one tenant: maximum shard skew
  constexpr const char *LongSrc =
      R"(variable acc : main 0 acc ! 600 0 do i acc @ + acc ! loop acc @ . ;)";

  auto Req = [&](FrameType T, uint64_t Token) {
    Frame F;
    F.Type = T;
    F.RequestId = Token;
    F.Tenant = Tenant;
    F.Token = Token;
    return F;
  };

  for (uint64_t I = 0; I < Jobs; ++I) {
    Frame F = Req(FrameType::SubmitReq, I + 1);
    F.Source = LongSrc;
    F.Word = "main";
    int Rounds = 0;
    while (Src.handle(F).Type != FrameType::SubmitAck) {
      ASSERT_LT(++Rounds, 100000) << "submit wedged";
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  std::atomic<bool> Stop{false};
  std::thread Killer([&] {
    for (int K = 0; K < 6 && !Stop.load(); ++K) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      Src.killShard(K % Cfg.Shards);
      Dst.killShard((K + 1) % Cfg.Shards);
    }
  });
  std::thread Canceller([&] {
    for (uint64_t I = 0; I < Jobs && !Stop.load(); I += 5) {
      Src.handle(Req(FrameType::CancelReq, I + 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // FE-level migration drivers on disjoint token sets.
  std::vector<std::thread> Migrators;
  for (unsigned W = 0; W < 2; ++W)
    Migrators.emplace_back([&, W] {
      for (uint64_t I = W; I < Jobs; I += 2) {
        const JobTicket T{Tenant, I + 1};
        Frame Offer;
        if (!Src.extractForMigration(T, Offer))
          continue; // finished, cancelled, or shut down first
        auto Abandon = [&] {
          while (!Src.abandonMigration(T))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        };
        const Frame A = Dst.handle(Offer);
        if (A.Type != FrameType::MigrateAccept || A.Accepted != 1) {
          Abandon();
          continue;
        }
        for (;;) {
          const Frame C = Dst.handle(Req(FrameType::MigrateCommit, I + 1));
          if (C.Type == FrameType::Result) {
            Src.completeMigration(T, C);
            break;
          }
          if (C.Type != FrameType::Pending) {
            Abandon(); // definitive refusal: re-admit locally
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  for (std::thread &T : Migrators)
    T.join();
  Stop.store(true);
  Canceller.join();
  Killer.join();

  // Every ticket settles to exactly one Result at the source.
  for (uint64_t I = 0; I < Jobs; ++I) {
    Frame R;
    for (int Spin = 0;; ++Spin) {
      R = Src.handle(Req(FrameType::PollReq, I + 1));
      if (R.Type == FrameType::Result)
        break;
      ASSERT_EQ(R.Type, FrameType::Pending) << I;
      ASSERT_LT(Spin, 100000) << "job " << I + 1 << " wedged";
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  Dst.shutdown();
  Src.shutdown();

  const ServiceStats SS = Src.statsSnapshot();
  const ServiceStats DS = Dst.statsSnapshot();
  EXPECT_EQ(SS.Submitted, Jobs);
  EXPECT_EQ(SS.Completed, Jobs);
  EXPECT_EQ(SS.MigratedOut,
            DS.MigratedIn + SS.MigrationsAbandoned);
}
