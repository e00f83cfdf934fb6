//===-- bench/service_latency.cpp - Service end-to-end latency ------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution service's end-to-end numbers, measured over in-process
/// channels so the loopback stack is out of the loop: submit→result
/// latency (p50/p99) and throughput for a fleet of concurrent clients,
/// in three phases:
///
///   clean       the happy path — no faults anywhere;
///   chaos       ChaosConfig::storm on both directions of every
///               connection, scheduler crash injection, and shard kills
///               mid-job;
///   saturation  caps tightened far below the offered load, so
///               admission must shed.
///
/// Self-asserted, exit nonzero on violation (scripts/check.sh
/// --bench-smoke runs this binary):
///
///   - clean and chaos: every Result frame equals, field for field, a
///     plain single-session reference run — the chaos differential from
///     the service contract — and the service counters show
///     exactly-once admission and completion;
///   - chaos: the storm actually stormed (client retries > 0);
///   - saturation: at least one Reject frame was served (the service
///     sheds rather than queueing unboundedly), and every job still
///     completes exactly once afterwards (no deadlock, no loss).
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "metrics/Reporter.h"
#include "metrics/Timing.h"
#include "prepare/PrepareCache.h"
#include "service/Client.h"
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
  std::fprintf(stderr, "service_latency: FAIL: %s\n", Msg.c_str());
  std::exit(1);
}

constexpr const char *VariantSrcs[] = {
    ": main 0 25 0 do i + loop . ;",
    ": main 1 12 0 do dup + loop . ;",
    R"(variable acc : main 0 acc ! 16 0 do i i * acc @ + acc ! loop acc @ . ;)",
    ": main 7 begin dup 100 < while dup + repeat . ;",
};
constexpr unsigned NumVariants =
    sizeof(VariantSrcs) / sizeof(VariantSrcs[0]);

struct Reference {
  uint8_t Stop = 0;
  uint8_t Status = 0;
  uint64_t Steps = 0;
  uint64_t Slices = 0;
  std::string Output;
};

Reference referenceRun(const char *Src, uint64_t SliceSteps) {
  std::unique_ptr<forth::System> Sys = forth::loadOrDie(Src);
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

/// serveChannel threads over local pairs; one per client connection.
class LocalHost {
public:
  LocalHost(ServiceFrontEnd &FE, ChaosConfig Chaos) : FE(FE), Chaos(Chaos) {}
  ~LocalHost() {
    for (std::thread &T : Threads)
      T.join();
  }

  std::unique_ptr<Channel> connect() {
    auto [Cli, Srv] = makeLocalPair();
    std::unique_ptr<Channel> S = std::move(Srv), C = std::move(Cli);
    std::lock_guard<std::mutex> L(Mu);
    const uint64_t N = ++Conns;
    if (Chaos.enabled()) {
      ChaosConfig SC = Chaos;
      SC.Seed = Chaos.Seed ^ (0x517cc1b727220a95ULL * N);
      S = std::make_unique<ChaosChannel>(std::move(S), SC);
      ChaosConfig CC = Chaos;
      CC.Seed = Chaos.Seed ^ (0x2545f4914f6cdd1dULL * N);
      C = std::make_unique<ChaosChannel>(std::move(C), CC);
    }
    Threads.emplace_back(
        [this, Ch = std::move(S)]() mutable { serveChannel(FE, *Ch); });
    return C;
  }

private:
  ServiceFrontEnd &FE;
  ChaosConfig Chaos;
  std::mutex Mu;
  uint64_t Conns = 0;
  std::vector<std::thread> Threads;
};

struct PhaseResult {
  uint64_t P50Ns = 0, P99Ns = 0, WallNs = 0;
  uint64_t Retries = 0, Rejects = 0;
  ServiceStats Stats;
};

/// Runs \p Jobs short jobs through a fresh service with \p Cfg and
/// asserts the exactly-once + reference-equality contract. \p Chaos
/// wraps both directions of every connection; \p Kills > 0 adds a shard
/// killer. \p Burst > 1 makes each worker submit that many jobs
/// back-to-back before polling any of them (the saturation shape).
PhaseResult runPhase(const char *Name, ServiceConfig Cfg, uint64_t Jobs,
                     unsigned ClientThreads, ChaosConfig Chaos,
                     uint64_t Kills, uint64_t Burst,
                     const std::vector<Reference> &Refs) {
  ServiceFrontEnd FE(Cfg);
  LocalHost Host(FE, Chaos);
  std::atomic<uint64_t> NextJob{0}, Done{0};
  std::atomic<uint64_t> Retries{0}, Rejects{0};
  std::atomic<bool> Stop{false};

  std::thread Killer;
  if (Kills)
    Killer = std::thread([&] {
      for (uint64_t K = 0; K < Kills && !Stop.load(); ++K) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        if (Done.load() >= Jobs)
          break;
        FE.killShard(static_cast<unsigned>(K % Cfg.Shards));
      }
    });

  const uint64_t WallStart = nowNs();
  std::vector<std::vector<uint64_t>> Lats(ClientThreads);
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < ClientThreads; ++W)
    Workers.emplace_back([&, W] {
      RetryPolicy Pol;
      Pol.JitterSeed = 0x5eedULL + W;
      if (Chaos.enabled()) {
        Pol.MaxAttempts = 40;
        Pol.AttemptTimeoutNs = 100'000'000;
      }
      ServiceClient Client([&Host] { return Host.connect(); }, Pol);
      const std::string Tenant = "tenant-" + std::to_string(W);
      std::vector<uint64_t> Pending, Starts;
      auto Drain = [&] {
        for (size_t P = 0; P < Pending.size(); ++P) {
          Frame Resp;
          if (!Client.awaitResult(JobTicket{Tenant, Pending[P] + 1}, Resp,
                                  120'000'000'000ULL))
            die(std::string(Name) + ": job never produced a result");
          const Reference &Ref = Refs[Pending[P] % NumVariants];
          if (Resp.Stop != Ref.Stop || Resp.Status != Ref.Status ||
              Resp.Steps != Ref.Steps || Resp.Slices != Ref.Slices ||
              Resp.Output != Ref.Output)
            die(std::string(Name) + ": result differs from reference");
          Lats[W].push_back(nowNs() - Starts[P]);
          Done.fetch_add(1);
        }
        Pending.clear();
        Starts.clear();
      };
      for (;;) {
        const uint64_t I = NextJob.fetch_add(1);
        if (I >= Jobs)
          break;
        const uint64_t Start = nowNs();
        Frame Resp;
        // Submit until admitted; Rejects consume client retry budget,
        // so a full call() failure just means "ask again".
        while (!Client.submit(JobTicket{Tenant, I + 1},
                              VariantSrcs[I % NumVariants], "main", 0, Resp))
          if (nowNs() - Start > 60'000'000'000ULL)
            die(std::string(Name) + ": submit wedged for 60s");
        if (Resp.Type == FrameType::Error)
          die(std::string(Name) + ": submit answered with an error frame");
        Pending.push_back(I);
        Starts.push_back(Start);
        if (Pending.size() >= Burst)
          Drain();
      }
      Drain();
      Retries.fetch_add(Client.clientStats().Retries);
      Rejects.fetch_add(Client.clientStats().Rejects);
    });
  for (std::thread &T : Workers)
    T.join();
  const uint64_t WallNs = nowNs() - WallStart;
  Stop.store(true);
  if (Killer.joinable())
    Killer.join();
  FE.shutdown();

  const ServiceStats S = FE.statsSnapshot();
  if (S.Submitted != Jobs || S.Completed != Jobs)
    die(std::string(Name) + ": admission/completion is not exactly-once");

  std::vector<uint64_t> All;
  for (auto &L : Lats)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());
  PhaseResult R;
  R.WallNs = WallNs;
  R.P50Ns = metrics::percentileOf(All, 50);
  R.P99Ns = metrics::percentileOf(All, 99);
  R.Retries = Retries.load();
  R.Rejects = Rejects.load();
  R.Stats = S;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  metrics::MetricsReporter Reporter("service_latency");
  Reporter.parseArgs(Argc, Argv);
  const bool Smoke = std::getenv("SC_BENCH_SMOKE") != nullptr;
  const uint64_t Jobs = Smoke ? 160 : 1200;
  const unsigned Clients = 4;

  std::vector<Reference> Refs;
  ServiceConfig Base;
  for (unsigned V = 0; V < NumVariants; ++V)
    Refs.push_back(referenceRun(VariantSrcs[V], Base.SliceSteps));

  // Phase 1: clean. The latency/throughput numbers of record.
  const PhaseResult Clean =
      runPhase("clean", Base, Jobs, Clients, ChaosConfig{}, 0, 1, Refs);

  // Phase 2: chaos. Same workload; the numbers show what the retry
  // machinery costs, the asserts show it loses nothing.
  ServiceConfig ChaosCfg = Base;
  ChaosCfg.CrashOneIn = 150;
  const PhaseResult Chaos =
      runPhase("chaos", ChaosCfg, Smoke ? 120 : 400, Clients,
               ChaosConfig::storm(0xbadcafe), 5, 1, Refs);
  if (Chaos.Retries == 0)
    die("chaos: the storm injected nothing (no client retries)");
  if (Chaos.Stats.ShardKills == 0)
    die("chaos: no shard was killed");

  // Phase 3: saturation. Caps far below the offered burst: admission
  // must shed with Reject frames, and the backlog must still drain to
  // exactly-once completion.
  ServiceConfig Tight = Base;
  Tight.Shards = 1;
  Tight.MaxInFlightPerTenant = 2;
  Tight.TenantQueueCapacity = 2;
  Tight.ShardHighWater = 4;
  const PhaseResult Sat =
      runPhase("saturation", Tight, Smoke ? 64 : 256, Clients, ChaosConfig{},
               0, 8, Refs);
  if (Sat.Stats.totalRejected() == 0)
    die("saturation: overload produced zero Reject frames");
  if (Sat.Rejects == 0)
    die("saturation: no client ever honored a Reject");

  Table T;
  T.addRow({"phase", "jobs", "p50 ms", "p99 ms", "jobs/s", "retries",
            "rejected"});
  const auto Row = [&](const char *Name, uint64_t N, const PhaseResult &R) {
    T.row()
        .cell(Name)
        .integer(static_cast<long long>(N))
        .num(R.P50Ns / 1e6)
        .num(R.P99Ns / 1e6)
        .num(R.WallNs ? static_cast<double>(N) * 1e9 /
                            static_cast<double>(R.WallNs)
                      : 0.0, 0)
        .integer(static_cast<long long>(R.Retries))
        .integer(static_cast<long long>(R.Stats.totalRejected()));
  };
  Row("clean", Jobs, Clean);
  Row("chaos", Smoke ? 120 : 400, Chaos);
  Row("saturation", Smoke ? 64 : 256, Sat);
  T.print();
  std::printf("\nself-check: exactly-once held in all phases; chaos "
              "differential clean; saturation shed %llu frames\n",
              static_cast<unsigned long long>(Sat.Stats.totalRejected()));

  Reporter.addTable("service_latency", T, metrics::EntryKind::Timing);
  metrics::Json V = metrics::Json::object();
  V.set("clean_p50_ns", metrics::Json::number(Clean.P50Ns));
  V.set("clean_p99_ns", metrics::Json::number(Clean.P99Ns));
  V.set("chaos_p50_ns", metrics::Json::number(Chaos.P50Ns));
  V.set("chaos_p99_ns", metrics::Json::number(Chaos.P99Ns));
  V.set("chaos_retries", metrics::Json::number(Chaos.Retries));
  V.set("chaos_shard_kills", metrics::Json::number(Chaos.Stats.ShardKills));
  V.set("chaos_jobs_recovered",
        metrics::Json::number(Chaos.Stats.JobsRecovered));
  V.set("saturation_rejected",
        metrics::Json::number(Sat.Stats.totalRejected()));
  V.set("saturation_shed_rate",
        metrics::Json::number(
            static_cast<double>(Sat.Stats.totalRejected()) /
            static_cast<double>(Sat.Stats.Submitted + Sat.Stats.Duplicates +
                                Sat.Stats.totalRejected())));
  Reporter.addValues("service_summary", metrics::EntryKind::Info,
                     std::move(V));
  if (!Reporter.write())
    return 1;
  return 0;
}
