//===-- bench/service_rebalance.cpp - Cross-shard rebalancing payoff ------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What live cross-shard migration buys: a deliberately skewed load —
/// every job from one tenant, so static placement pins the whole queue
/// to one shard while the other idles — run twice through an identical
/// service, rebalancing off and on.
///
/// The payoff measured is ADMISSION CAPACITY, deliberately not parallel
/// speedup (that depends on spare cores the CI host may not have). The
/// service has a tight per-shard high-water mark; traffic arrives as
/// open-loop bursts sized to the WHOLE service's capacity, and each job
/// gets a bounded patience window of submit retries before it counts as
/// shed. With rebalancing off, a burst can only land on the hot shard's
/// half of the capacity and the rest is refused while the other shard
/// idles; with rebalancing on, the drain at slice boundaries exports
/// live jobs across the gap mid-burst, so the same burst is absorbed.
/// Reported per phase: submit→result p50/p99 over admitted jobs,
/// completed-job throughput, and the shed rate (jobs refused for their
/// whole patience window / jobs offered).
///
/// Self-asserted, exit nonzero on violation (scripts/check.sh
/// --bench-smoke runs this binary) — every correctness gate holds
/// BEFORE any number is reported:
///
///   - every Result frame equals, field for field, a plain
///     single-session reference run (exactly-once across every move);
///   - every admitted job completes exactly once (Submitted ==
///     Completed == admitted);
///   - the off phase never rebalanced; the on phase did, and it shed
///     strictly less of the offered load than the off phase.
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "metrics/Reporter.h"
#include "metrics/Timing.h"
#include "prepare/PrepareCache.h"
#include "service/Service.h"
#include "session/VmSession.h"
#include "support/Table.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace sc;
using namespace sc::service;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "service_rebalance: FAIL: %s\n", Msg.c_str());
  std::exit(1);
}

/// Long enough to retire many slices at the bench's slice budget, so
/// running jobs cross checkpoint boundaries and are live-movable — the
/// case the rebalancer exists for, not just queue shuffling.
constexpr const char *JobSrc =
    R"(variable acc : main 0 acc ! 6000 0 do i acc @ + acc ! loop acc @ . ;)";

struct Reference {
  uint8_t Stop = 0;
  uint8_t Status = 0;
  uint64_t Steps = 0;
  uint64_t Slices = 0;
  std::string Output;
};

Reference referenceRun(uint64_t SliceSteps) {
  std::unique_ptr<forth::System> Sys = forth::loadOrDie(JobSrc);
  prepare::PrepareCache Cache;
  auto PC = Cache.getOrPrepare(Sys->Prog, engine::EngineId{});
  vm::Vm Machine = Sys->Machine;
  session::SessionPolicy Pol;
  Pol.SliceSteps = SliceSteps;
  session::VmSession S(PC, Machine, Pol);
  const session::SessionResult R = S.run(Sys->entryOf("main"));
  return {static_cast<uint8_t>(R.Stop),
          static_cast<uint8_t>(R.Outcome.Status), R.Outcome.Steps, R.Slices,
          Machine.Out};
}

struct PhaseResult {
  uint64_t P50Ns = 0, P99Ns = 0, WallNs = 0;
  uint64_t Offered = 0;  ///< jobs presented to the service
  uint64_t Admitted = 0; ///< jobs that got a SubmitAck within patience
  uint64_t Shed = 0;     ///< jobs refused for their whole patience window
  ServiceStats Stats;
};

/// One phase: \p Jobs identical jobs for ONE tenant, offered by
/// \p Threads drivers as synchronized open-loop bursts of \p Burst jobs
/// every \p BurstGapNs. Each job is retried for a bounded patience
/// window; a job still refused at the end of its window is SHED — the
/// driver moves on, exactly like a caller honoring Reject{RetryAfterNs}
/// until its own deadline. Correctness gates run inline; numbers come
/// back only if they all held.
PhaseResult runPhase(const char *Name, const ServiceConfig &Cfg,
                     uint64_t Jobs, unsigned Threads, uint64_t Burst,
                     uint64_t BurstGapNs, const Reference &Ref) {
  constexpr unsigned Patience = 30;
  constexpr uint64_t RetryNs = 2'000'000;
  ServiceFrontEnd FE(Cfg);
  std::atomic<uint64_t> Next{0}, Admitted{0}, Shed{0};
  std::vector<std::vector<uint64_t>> Lats(Threads);
  std::vector<std::thread> Workers;
  const uint64_t WallStart = nowNs();
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      struct InFlightJob {
        uint64_t Token;
        uint64_t Start;
      };
      std::vector<InFlightJob> Pending;
      auto Drain = [&] {
        for (const InFlightJob &P : Pending) {
          Frame Poll;
          Poll.Type = FrameType::PollReq;
          Poll.RequestId = P.Token;
          Poll.Tenant = "hot";
          Poll.Token = P.Token;
          Frame R;
          for (int Spin = 0;; ++Spin) {
            R = FE.handle(Poll);
            if (R.Type == FrameType::Result)
              break;
            if (R.Type != FrameType::Pending || Spin > 100'000)
              die(std::string(Name) + ": job wedged or errored");
            // Jobs take seconds; a tight poll would only contend the
            // front-end lock the dispatchers need.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          if (R.Stop != Ref.Stop || R.Status != Ref.Status ||
              R.Steps != Ref.Steps || R.Slices != Ref.Slices ||
              R.Output != Ref.Output)
            die(std::string(Name) + ": result differs from the reference");
          Lats[W].push_back(nowNs() - P.Start);
        }
        Pending.clear();
      };
      uint64_t CurBurst = 0;
      for (;;) {
        const uint64_t I = Next.fetch_add(1);
        if (I >= Jobs)
          break;
        // Synchronized open-loop arrivals: job I belongs to burst
        // I/Burst, released BurstGapNs after the previous one. Harvest
        // this driver's admitted jobs from earlier bursts first — their
        // results must be drained (and their capacity freed) before the
        // next wave lands, and the drain's polls keep the service's
        // sweep cadence alive through the quiet gap.
        if (I / Burst != CurBurst) {
          Drain();
          CurBurst = I / Burst;
        }
        const uint64_t ReleaseAt = WallStart + CurBurst * BurstGapNs;
        while (nowNs() < ReleaseAt)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        Frame Sub;
        Sub.Type = FrameType::SubmitReq;
        Sub.RequestId = I + 1;
        Sub.Tenant = "hot";
        Sub.Token = I + 1;
        Sub.Source = JobSrc;
        Sub.Word = "main";
        const uint64_t Start = nowNs();
        bool Landed = false;
        for (unsigned Try = 0; Try < Patience; ++Try) {
          const Frame A = FE.handle(Sub);
          if (A.Type == FrameType::SubmitAck) {
            Landed = true;
            break;
          }
          if (A.Type != FrameType::Reject)
            die(std::string(Name) + ": submit answered " +
                frameTypeName(A.Type));
          std::this_thread::sleep_for(std::chrono::nanoseconds(RetryNs));
        }
        if (Landed) {
          Admitted.fetch_add(1);
          Pending.push_back({I + 1, Start});
        } else {
          Shed.fetch_add(1);
        }
      }
      Drain();
    });
  for (std::thread &T : Workers)
    T.join();
  const uint64_t WallNs = nowNs() - WallStart;
  FE.shutdown();

  const ServiceStats S = FE.statsSnapshot();
  if (S.Submitted != Admitted.load() || S.Completed != Admitted.load())
    die(std::string(Name) + ": admission/completion is not exactly-once");
  if (Admitted.load() + Shed.load() != Jobs)
    die(std::string(Name) + ": offered jobs neither admitted nor shed");

  std::vector<uint64_t> All;
  for (auto &L : Lats)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());
  PhaseResult R;
  R.WallNs = WallNs;
  R.P50Ns = metrics::percentileOf(All, 50);
  R.P99Ns = metrics::percentileOf(All, 99);
  R.Offered = Jobs;
  R.Admitted = Admitted.load();
  R.Shed = Shed.load();
  R.Stats = S;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  metrics::MetricsReporter Reporter("service_rebalance");
  Reporter.parseArgs(Argc, Argv);
  const bool Smoke = std::getenv("SC_BENCH_SMOKE") != nullptr;
  const unsigned Threads = 4;
  // Each burst is sized to the WHOLE service (both shards' high-water
  // marks), so absorbing one requires using the shard the skewed hash
  // never picks.
  const uint64_t Burst = 24;
  const uint64_t Bursts = Smoke ? 3 : 8;
  const uint64_t Jobs = Burst * Bursts;
  const uint64_t BurstGapNs = 2'500'000'000ULL;

  // Identical service either way: two shards, one worker each, and a
  // tight per-shard high-water mark. Under the fully skewed load every
  // submit lands on one shard, so the off phase saturates at
  // ShardHighWater live jobs while the other shard idles; the on phase
  // exports live jobs across the gap, which opens admission on the hot
  // shard mid-burst.
  ServiceConfig Base;
  Base.Shards = 2;
  Base.WorkersPerShard = 1;
  Base.SliceSteps = 256;
  Base.CheckpointEverySlices = 2;
  Base.MaxInFlightPerTenant = 64;
  Base.TenantQueueCapacity = 64;
  Base.ShardHighWater = 12;

  const Reference Ref = referenceRun(Base.SliceSteps);

  ServiceConfig Off = Base;
  const PhaseResult R0 = runPhase("rebalance-off", Off, Jobs, Threads, Burst,
                                  BurstGapNs, Ref);
  if (R0.Stats.Rebalanced != 0)
    die("rebalance-off: the rebalancer fired with Rebalance=false");

  // Hysteresis matters: a tiny gap threshold makes the rebalancer
  // ping-pong jobs between shards (every move makes the target the new
  // hottest), burning slice-boundary cancels for nothing. Batch at most
  // half the gap so a sweep cannot overshoot the balance point.
  ServiceConfig On = Base;
  On.Rebalance = true;
  On.RebalanceHighWater = 4;
  On.RebalanceMinGap = 4;
  On.RebalanceBatch = 4;
  const PhaseResult R1 = runPhase("rebalance-on", On, Jobs, Threads, Burst,
                                  BurstGapNs, Ref);
  if (R1.Stats.Rebalanced == 0)
    die("rebalance-on: the rebalancer never fired on a fully skewed load");
  // The whole point: the same bursts that overflow a statically placed
  // shard fit once live jobs can move. The margin is structural (half
  // of every burst has nowhere to go in the off phase), so a strict
  // comparison is safe to assert even on a noisy host.
  if (R1.Shed >= R0.Shed)
    die("rebalance-on: shed as much as or more of the offered load than "
        "rebalance-off");

  const auto ShedRate = [](const PhaseResult &R) {
    return static_cast<double>(R.Shed) / static_cast<double>(R.Offered);
  };

  Table T;
  T.addRow({"phase", "offered", "admitted", "shed rate", "p50 ms", "p99 ms",
            "done/s", "rebalanced"});
  const auto Row = [&](const char *Name, const PhaseResult &R) {
    T.row()
        .cell(Name)
        .integer(static_cast<long long>(R.Offered))
        .integer(static_cast<long long>(R.Admitted))
        .num(ShedRate(R), 3)
        .num(R.P50Ns / 1e6)
        .num(R.P99Ns / 1e6)
        .num(R.WallNs ? static_cast<double>(R.Admitted) * 1e9 /
                            static_cast<double>(R.WallNs)
                      : 0.0,
             1)
        .integer(static_cast<long long>(R.Stats.Rebalanced));
  };
  Row("off", R0);
  Row("on", R1);
  T.print();
  std::printf("\nself-check: exactly-once and field-for-field equality held "
              "in both phases; on-phase moved %llu jobs across shards and "
              "shed %llu/%llu vs %llu/%llu off\n",
              static_cast<unsigned long long>(R1.Stats.Rebalanced),
              static_cast<unsigned long long>(R1.Shed),
              static_cast<unsigned long long>(R1.Offered),
              static_cast<unsigned long long>(R0.Shed),
              static_cast<unsigned long long>(R0.Offered));

  Reporter.addTable("service_rebalance", T, metrics::EntryKind::Timing);
  metrics::Json V = metrics::Json::object();
  V.set("offered", metrics::Json::number(Jobs));
  V.set("off_admitted", metrics::Json::number(R0.Admitted));
  V.set("off_shed_rate", metrics::Json::number(ShedRate(R0)));
  V.set("off_p50_ns", metrics::Json::number(R0.P50Ns));
  V.set("off_p99_ns", metrics::Json::number(R0.P99Ns));
  V.set("off_wall_ns", metrics::Json::number(R0.WallNs));
  V.set("on_admitted", metrics::Json::number(R1.Admitted));
  V.set("on_shed_rate", metrics::Json::number(ShedRate(R1)));
  V.set("on_p50_ns", metrics::Json::number(R1.P50Ns));
  V.set("on_p99_ns", metrics::Json::number(R1.P99Ns));
  V.set("on_wall_ns", metrics::Json::number(R1.WallNs));
  V.set("rebalanced", metrics::Json::number(R1.Stats.Rebalanced));
  Reporter.addValues("rebalancing", metrics::EntryKind::Info, std::move(V));
  if (Reporter.enabled() && !Reporter.write())
    return 1;
  return 0;
}
