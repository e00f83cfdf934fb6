//===-- tools/loadgen.cpp - Service load generator ------------------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a stream of short jobs through the execution service and
/// reports end-to-end p50/p99 latency, throughput, and shed rate into
/// the metrics JSON pipeline (--json, same schema every bench uses).
///
/// Two transports: the default in-process mode runs clients and server
/// loops over makeLocalPair() channels (no kernel sockets, so the tool
/// measures the service, not the loopback stack); --tcp self-hosts a
/// ServiceServer on an ephemeral port and connects real sockets.
///
/// --chaos turns the run into a correctness probe: every connection is
/// wrapped in ChaosConfig::storm (both directions), the schedulers run
/// with CrashOneIn injection, and a background thread kills and rebuilds
/// shards mid-job. The tool is self-asserting either way — every job's
/// Result frame must match, field for field, a plain single-session
/// reference run of the same program, and the service counters must
/// show exactly-once admission and completion (Submitted == Completed
/// == jobs). A violation aborts with exit code 1, so CI can run this
/// binary directly (scripts/check.sh --service-smoke does).
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "metrics/Reporter.h"
#include "metrics/Timing.h"
#include "prepare/PrepareCache.h"
#include "service/Client.h"
#include "service/Server.h"
#include "service/Service.h"
#include "session/VmSession.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/// Distinct short programs so per-job results differ — a cross-wired
/// result (job A handed job B's answer) is caught, not masked.
constexpr const char *VariantSrcs[] = {
    ": main 0 25 0 do i + loop . ;",
    ": main 1 12 0 do dup + loop . ;",
    R"(variable acc : main 0 acc ! 16 0 do i i * acc @ + acc ! loop acc @ . ;)",
    ": main 40 0 do i 3 mod drop loop 42 . ;",
    ": main 7 begin dup 100 < while dup + repeat . ;",
    ": main 30 0 do i i - drop loop 9 9 * . ;",
};
constexpr unsigned NumVariants =
    sizeof(VariantSrcs) / sizeof(VariantSrcs[0]);

/// What one job's Result frame must say, taken from a plain VmSession
/// run of the variant at the same slice budget the service uses.
struct Reference {
  uint8_t Stop = 0;
  uint8_t Status = 0;
  uint64_t Steps = 0;
  uint64_t Slices = 0;
  std::string Output;
};

Reference referenceRun(const char *Src, engine::EngineId E,
                       uint64_t SliceSteps) {
  std::unique_ptr<forth::System> Sys = forth::loadOrDie(Src);
  prepare::PrepareCache Cache;
  auto PC = Cache.getOrPrepare(Sys->Prog, E);
  vm::Vm Machine = Sys->Machine;
  session::SessionPolicy Pol;
  Pol.SliceSteps = SliceSteps;
  session::VmSession S(PC, Machine, Pol);
  const session::SessionResult R = S.run(Sys->entryOf("main"));
  Reference Ref;
  Ref.Stop = static_cast<uint8_t>(R.Stop);
  Ref.Status = static_cast<uint8_t>(R.Outcome.Status);
  Ref.Steps = R.Outcome.Steps;
  Ref.Slices = R.Slices;
  Ref.Output = Machine.Out;
  return Ref;
}

struct Options {
  uint64_t Jobs = 2000;
  unsigned Tenants = 4;
  unsigned Clients = 4;
  unsigned Shards = 2;
  unsigned WorkersPerShard = 1;
  /// Jobs each client keeps in flight before draining results. > 1
  /// builds the backlog the rebalancer and the migrators feed on.
  unsigned Burst = 1;
  uint8_t Engine = 0;
  uint64_t Seed = 0x10adULL;
  bool Tcp = false;
  bool Chaos = false;
  /// Skew the whole load onto one tenant (one shard) and turn the
  /// cross-shard rebalancer on; the run fails unless it fired.
  bool Migrate = false;
  /// Host a second front end and drive live cross-process migration
  /// against it while the load runs.
  bool Peer = false;
  uint64_t MaxKills = 6;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: loadgen [--jobs N] [--tenants T] [--clients C] [--shards S]\n"
      "               [--workers W] [--burst B] [--engine E] [--seed X]\n"
      "               [--kills K] [--tcp] [--chaos] [--migrate] [--peer]\n"
      "               [--json <path>]\n");
  std::exit(2);
}

uint64_t parseNum(const char *S) {
  char *End = nullptr;
  const unsigned long long V = std::strtoull(S, &End, 0);
  if (!End || *End)
    usage();
  return V;
}

/// Hosts serveChannel() threads for in-process connections, so the
/// client-side Connector looks identical to the TCP one.
class LocalHost {
public:
  LocalHost(ServiceFrontEnd &FE, ChaosConfig Chaos) : FE(FE), Chaos(Chaos) {}
  ~LocalHost() { join(); }

  std::unique_ptr<Channel> connect() {
    auto [ClientEnd, ServerEnd] = makeLocalPair();
    std::unique_ptr<Channel> Srv = std::move(ServerEnd);
    std::unique_ptr<Channel> Cli = std::move(ClientEnd);
    std::lock_guard<std::mutex> L(Mu);
    const uint64_t N = ++Conns;
    if (Chaos.enabled()) {
      ChaosConfig Sc = Chaos;
      Sc.Seed = Chaos.Seed ^ (0x517cc1b727220a95ULL * N);
      Srv = std::make_unique<ChaosChannel>(std::move(Srv), Sc);
      ChaosConfig Cc = Chaos;
      Cc.Seed = Chaos.Seed ^ (0x2545f4914f6cdd1dULL * N);
      Cli = std::make_unique<ChaosChannel>(std::move(Cli), Cc);
    }
    Threads.emplace_back(
        [this, S = std::move(Srv)]() mutable { serveChannel(FE, *S); });
    return Cli;
  }

  /// Waits for every server loop to exit (their channels must be closed
  /// or destroyed by then — each client dropping its end does that).
  void join() {
    std::lock_guard<std::mutex> L(Mu);
    for (std::thread &T : Threads)
      if (T.joinable())
        T.join();
    Threads.clear();
  }

private:
  ServiceFrontEnd &FE;
  ChaosConfig Chaos;
  std::mutex Mu;
  uint64_t Conns = 0;
  std::vector<std::thread> Threads;
};

std::atomic<uint64_t> JobsDone{0};
std::atomic<bool> Failed{false};

void fail(const char *Fmt, uint64_t A, uint64_t B) {
  std::fprintf(stderr, "loadgen: FAIL: ");
  std::fprintf(stderr, Fmt, static_cast<unsigned long long>(A),
               static_cast<unsigned long long>(B));
  std::fprintf(stderr, "\n");
  Failed.store(true);
}

struct WorkerOut {
  std::vector<uint64_t> LatenciesNs;
  ClientStats Stats;
};

void runWorker(const Options &Opt, ServiceClient::Connector Connect,
               const std::vector<Reference> &Refs,
               std::atomic<uint64_t> &NextJob, unsigned WorkerIdx,
               WorkerOut &Out) {
  RetryPolicy Pol;
  Pol.JitterSeed = Opt.Seed ^ (0x9e3779b97f4a7c15ULL * (WorkerIdx + 1));
  if (Opt.Chaos) {
    // Under the storm most attempts need company; spend retries, not
    // failures.
    Pol.MaxAttempts = 40;
    Pol.AttemptTimeoutNs = 100'000'000;
  }
  ServiceClient Client(std::move(Connect), Pol);
  struct InFlightJob {
    uint64_t Index;
    uint64_t Start;
  };
  std::vector<InFlightJob> Pending;
  auto Drain = [&]() -> bool {
    for (const InFlightJob &P : Pending) {
      const JobTicket Ticket{"tenant-" + std::to_string(P.Index % Opt.Tenants),
                             P.Index + 1};
      Frame Resp;
      if (!Client.awaitResult(Ticket, Resp, 120'000'000'000ULL)) {
        fail("job %llu: no result within 120s", P.Index, 0);
        return false;
      }
      const Reference &Ref = Refs[P.Index % NumVariants];
      if (Resp.Stop != Ref.Stop)
        fail("job %llu: stop %llu differs from reference", P.Index, Resp.Stop);
      if (Resp.Status != Ref.Status)
        fail("job %llu: status %llu differs from reference", P.Index,
             Resp.Status);
      if (Resp.Steps != Ref.Steps)
        fail("job %llu: steps %llu differ from reference", P.Index,
             Resp.Steps);
      if (Resp.Slices != Ref.Slices)
        fail("job %llu: slices %llu differ from reference", P.Index,
             Resp.Slices);
      if (Resp.Output != Ref.Output)
        fail("job %llu: output differs from reference (%llu bytes)", P.Index,
             Resp.Output.size());
      Out.LatenciesNs.push_back(nowNs() - P.Start);
      JobsDone.fetch_add(1);
    }
    Pending.clear();
    return true;
  };
  for (;;) {
    const uint64_t I = NextJob.fetch_add(1);
    if (I >= Opt.Jobs || Failed.load())
      break;
    const JobTicket Ticket{"tenant-" + std::to_string(I % Opt.Tenants),
                           I + 1};
    const unsigned V = static_cast<unsigned>(I % NumVariants);
    const uint64_t Start = nowNs();

    // Admission loop: a Reject is the service telling us to come back,
    // not a failure — the idempotency ticket makes blind re-submission
    // safe. Give up only after a wall-clock bound (something is wedged).
    Frame Resp;
    bool Admitted = false;
    while (!Admitted && !Failed.load()) {
      if (Client.submit(Ticket, VariantSrcs[V], "main", Opt.Engine, Resp))
        Admitted = true;
      else if (nowNs() - Start > 60'000'000'000ULL) {
        fail("job %llu: submit wedged for 60s", I, 0);
        return;
      }
    }
    if (Failed.load())
      return;
    if (Resp.Type == FrameType::Error) {
      fail("job %llu: submit got error %llu", I,
           static_cast<uint64_t>(Resp.Err));
      return;
    }
    Pending.push_back({I, Start});
    if (Pending.size() >= Opt.Burst && !Drain())
      return;
  }
  if (!Drain())
    return;
  Out.Stats = Client.clientStats();
}

} // namespace

int main(int Argc, char **Argv) {
  metrics::MetricsReporter Reporter("loadgen");
  Reporter.parseArgs(Argc, Argv);

  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Val = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage();
      return Argv[++I];
    };
    if (!std::strcmp(A, "--jobs"))
      Opt.Jobs = parseNum(Val());
    else if (!std::strcmp(A, "--tenants"))
      Opt.Tenants = static_cast<unsigned>(parseNum(Val()));
    else if (!std::strcmp(A, "--clients"))
      Opt.Clients = static_cast<unsigned>(parseNum(Val()));
    else if (!std::strcmp(A, "--shards"))
      Opt.Shards = static_cast<unsigned>(parseNum(Val()));
    else if (!std::strcmp(A, "--workers"))
      Opt.WorkersPerShard = static_cast<unsigned>(parseNum(Val()));
    else if (!std::strcmp(A, "--burst"))
      Opt.Burst = static_cast<unsigned>(parseNum(Val()));
    else if (!std::strcmp(A, "--engine"))
      Opt.Engine = static_cast<uint8_t>(parseNum(Val()));
    else if (!std::strcmp(A, "--seed"))
      Opt.Seed = parseNum(Val());
    else if (!std::strcmp(A, "--kills"))
      Opt.MaxKills = parseNum(Val());
    else if (!std::strcmp(A, "--tcp"))
      Opt.Tcp = true;
    else if (!std::strcmp(A, "--chaos"))
      Opt.Chaos = true;
    else if (!std::strcmp(A, "--migrate"))
      Opt.Migrate = true;
    else if (!std::strcmp(A, "--peer"))
      Opt.Peer = true;
    else
      usage();
  }
  if (!Opt.Jobs || !Opt.Tenants || !Opt.Clients || !Opt.Shards)
    usage();
  if (Opt.Migrate)
    Opt.Tenants = 1; // the skew the rebalancer exists for
  if ((Opt.Migrate || Opt.Peer) && Opt.Burst < 8)
    Opt.Burst = 8; // a backlog, so jobs are catchable in flight
  if (!Opt.Burst)
    usage();

  ServiceConfig Cfg;
  Cfg.Shards = Opt.Shards;
  Cfg.WorkersPerShard = Opt.WorkersPerShard;
  if (Opt.Chaos) {
    Cfg.CrashOneIn = 150;
    Cfg.CrashSeed = Opt.Seed;
  }
  if (Opt.Migrate || Opt.Peer) {
    // Room for the whole burst of the one hot tenant.
    Cfg.MaxInFlightPerTenant =
        std::max<uint64_t>(Cfg.MaxInFlightPerTenant,
                           uint64_t{Opt.Clients} * Opt.Burst);
    Cfg.TenantQueueCapacity =
        std::max<uint64_t>(Cfg.TenantQueueCapacity,
                           2 * Cfg.MaxInFlightPerTenant);
  }
  if (Opt.Migrate) {
    Cfg.Rebalance = true;
    Cfg.RebalanceHighWater = 2;
    Cfg.RebalanceMinGap = 1;
    Cfg.RebalanceBatch = 8;
  }
  ServiceFrontEnd FE(Cfg);

  // --peer: a second, independent front end adopting live jobs.
  std::unique_ptr<ServiceFrontEnd> PeerFE;
  std::unique_ptr<LocalHost> PeerHost;

  std::vector<Reference> Refs;
  for (unsigned V = 0; V < NumVariants; ++V)
    Refs.push_back(referenceRun(
        VariantSrcs[V], static_cast<engine::EngineId>(Opt.Engine),
        Cfg.SliceSteps));

  const ChaosConfig Chaos =
      Opt.Chaos ? ChaosConfig::storm(Opt.Seed) : ChaosConfig{};

  if (Opt.Peer) {
    PeerFE = std::make_unique<ServiceFrontEnd>(Cfg);
    PeerHost = std::make_unique<LocalHost>(*PeerFE, Chaos);
  }

  // Transport: both modes expose only a Connector to the workers.
  std::unique_ptr<LocalHost> Host;
  std::unique_ptr<ServiceServer> Server;
  ServiceClient::Connector Connect;
  if (Opt.Tcp) {
    Server = std::make_unique<ServiceServer>(FE, 0, Chaos);
    if (!Server->port()) {
      std::fprintf(stderr, "loadgen: cannot bind a TCP listener\n");
      return 1;
    }
    const uint16_t Port = Server->port();
    auto ConnSeq = std::make_shared<std::atomic<uint64_t>>(0);
    Connect = [Port, Chaos, ConnSeq]() -> std::unique_ptr<Channel> {
      std::unique_ptr<Channel> Ch = connectTcp(Port);
      if (!Ch || !Chaos.enabled())
        return Ch;
      ChaosConfig Cc = Chaos;
      Cc.Seed = Chaos.Seed ^ (0xd6e8feb86659fd93ULL *
                              (ConnSeq->fetch_add(1) + 1));
      return std::make_unique<ChaosChannel>(std::move(Ch), Cc);
    };
  } else {
    Host = std::make_unique<LocalHost>(FE, Chaos);
    Connect = [&Host]() { return Host->connect(); };
  }

  // Chaos kill thread: takes a shard down mid-job every few milliseconds
  // until the budget is spent, round-robin so every shard gets hit.
  std::thread Killer;
  if (Opt.Chaos && Opt.MaxKills)
    Killer = std::thread([&FE, &Opt] {
      for (uint64_t K = 0; K < Opt.MaxKills; ++K) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        if (JobsDone.load() >= Opt.Jobs || Failed.load())
          break;
        FE.killShard(static_cast<unsigned>(K % Opt.Shards));
      }
    });

  std::atomic<uint64_t> NextJob{0};

  // --peer: migrator threads chase the submitters through the token
  // space and live-migrate whatever they can catch in flight. A job the
  // migrator misses (already finished) is MigrateOutcome::RanLocally —
  // correct either way; the ledger check below wants some catches.
  std::vector<std::thread> Migrators;
  if (Opt.Peer)
    for (unsigned M = 0; M < 2; ++M)
      Migrators.emplace_back([&Opt, &FE, &PeerHost, &NextJob, M] {
        RetryPolicy Pol;
        Pol.JitterSeed = Opt.Seed ^ (0x7f4a7c159e3779b9ULL * (M + 1));
        if (Opt.Chaos) {
          Pol.MaxAttempts = 40;
          Pol.AttemptTimeoutNs = 100'000'000;
        }
        ServiceClient PeerClient([&PeerHost] { return PeerHost->connect(); },
                                 Pol);
        for (uint64_t I = M; I < Opt.Jobs; I += 2) {
          if (Failed.load())
            return;
          while (NextJob.load() <= I && !Failed.load())
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          const JobTicket T{"tenant-" + std::to_string(I % Opt.Tenants),
                            I + 1};
          MigrateOutcome O = migrateJob(FE, PeerClient, T);
          // A torn migration stays escrowed; keep committing until the
          // peer serves the result or refuses definitively, then
          // complete or abandon — never both, never neither.
          while (O == MigrateOutcome::Torn && !Failed.load()) {
            Frame Result;
            if (PeerClient.commitMigration(T, Result, 30'000'000'000ULL)) {
              FE.completeMigration(T, Result);
              O = MigrateOutcome::Completed;
            } else if ((Result.Type == FrameType::Error &&
                        (Result.Err == ServiceError::UnknownMigration ||
                         Result.Err == ServiceError::Shutdown)) ||
                       Result.Type == FrameType::Reject) {
              while (!FE.abandonMigration(T))
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              O = MigrateOutcome::Abandoned;
            }
          }
        }
      });

  std::vector<WorkerOut> Outs(Opt.Clients);
  std::vector<std::thread> Workers;
  const uint64_t WallStart = nowNs();
  for (unsigned W = 0; W < Opt.Clients; ++W)
    Workers.emplace_back(runWorker, std::cref(Opt), Connect, std::cref(Refs),
                         std::ref(NextJob), W, std::ref(Outs[W]));
  for (std::thread &T : Workers)
    T.join();
  const uint64_t WallNs = nowNs() - WallStart;
  for (std::thread &T : Migrators)
    T.join();
  if (Killer.joinable())
    Killer.join();

  FE.shutdown();
  if (Server)
    Server->stop();
  Host.reset(); // drops nothing itself; joins server loops (clients gone)
  if (PeerFE)
    PeerFE->shutdown();
  PeerHost.reset(); // migrator clients are gone; joins peer server loops

  if (Failed.load()) {
    std::fprintf(stderr, "loadgen: FAILED\n");
    return 1;
  }

  // Exactly-once, service side: every job admitted once, completed once,
  // regardless of how many Submit frames the chaos transport delivered.
  const ServiceStats S = FE.statsSnapshot();
  if (S.Submitted != Opt.Jobs)
    fail("admitted %llu jobs, expected %llu", S.Submitted, Opt.Jobs);
  if (S.Completed != Opt.Jobs)
    fail("completed %llu jobs, expected %llu", S.Completed, Opt.Jobs);
  if (Opt.Migrate && !S.Rebalanced)
    fail("--migrate: the rebalancer never fired (%llu moves)", S.Rebalanced,
         0);
  ServiceStats PS;
  if (PeerFE) {
    PS = PeerFE->statsSnapshot();
    // Every extraction resolved exactly one way: adopted by the peer or
    // abandoned back home. An unbalanced ledger is a lost (or doubled)
    // job.
    if (S.MigratedOut != PS.MigratedIn + S.MigrationsAbandoned)
      fail("--peer: migration ledger unbalanced: %llu out != %llu in"
           " + abandoned",
           S.MigratedOut, PS.MigratedIn + S.MigrationsAbandoned);
    if (!PS.MigratedIn)
      fail("--peer: the peer adopted no jobs (%llu offered)", S.MigratedOut,
           0);
  }
  if (Failed.load())
    return 1;

  std::vector<uint64_t> Lat;
  ClientStats CS;
  for (const WorkerOut &O : Outs) {
    Lat.insert(Lat.end(), O.LatenciesNs.begin(), O.LatenciesNs.end());
    CS += O.Stats;
  }
  std::sort(Lat.begin(), Lat.end());
  const uint64_t P50 = metrics::percentileOf(Lat, 50);
  const uint64_t P90 = metrics::percentileOf(Lat, 90);
  const uint64_t P99 = metrics::percentileOf(Lat, 99);
  const uint64_t SubmitFrames = S.Submitted + S.Duplicates + S.totalRejected();
  const double ShedRate =
      SubmitFrames ? static_cast<double>(S.totalRejected()) /
                         static_cast<double>(SubmitFrames)
                   : 0.0;
  const double JobsPerSec =
      WallNs ? static_cast<double>(Opt.Jobs) * 1e9 / static_cast<double>(WallNs)
             : 0.0;

  std::printf("loadgen: %" PRIu64 " jobs, %u tenants, %u clients, %u shards"
              " (%s%s)\n",
              Opt.Jobs, Opt.Tenants, Opt.Clients, Opt.Shards,
              Opt.Tcp ? "tcp" : "local", Opt.Chaos ? ", chaos" : "");
  std::printf("  latency     p50 %.3f ms   p90 %.3f ms   p99 %.3f ms\n",
              P50 / 1e6, P90 / 1e6, P99 / 1e6);
  std::printf("  throughput  %.0f jobs/s over %.3f s\n", JobsPerSec,
              WallNs / 1e9);
  std::printf("  shedding    %" PRIu64 " rejects / %" PRIu64
              " submit frames (%.2f%%): busy %" PRIu64 ", saturated %" PRIu64
              ", degraded %" PRIu64 ", closed %" PRIu64 "\n",
              S.totalRejected(), SubmitFrames, ShedRate * 100,
              S.RejectedBusy, S.RejectedSaturated, S.RejectedDegraded,
              S.RejectedClosed);
  std::printf("  exactly-once: %" PRIu64 " admitted, %" PRIu64
              " duplicates attached, %" PRIu64 " completed, %" PRIu64
              " shard kills, %" PRIu64 " jobs recovered, %" PRIu64
              " recycled\n",
              S.Submitted, S.Duplicates, S.Completed, S.ShardKills,
              S.JobsRecovered, S.JobsRecycled);
  std::printf("  client      %" PRIu64 " attempts, %" PRIu64 " retries, %"
              PRIu64 " reconnects, %" PRIu64 " timeouts, %" PRIu64
              " rejects honored, %" PRIu64 " stale replies dropped\n",
              CS.Attempts, CS.Retries, CS.Reconnects, CS.Timeouts, CS.Rejects,
              CS.StaleReplies);
  if (Opt.Migrate || Opt.Peer)
    std::printf("  migration   %" PRIu64 " rebalanced across shards, %" PRIu64
                " migrated out, %" PRIu64 " adopted by peer, %" PRIu64
                " abandoned\n",
                S.Rebalanced, S.MigratedOut, PS.MigratedIn,
                S.MigrationsAbandoned);

  if (Reporter.enabled()) {
    metrics::Json Conf = metrics::Json::object();
    Conf.set("jobs", metrics::Json::number(Opt.Jobs));
    Conf.set("tenants", metrics::Json::number(uint64_t{Opt.Tenants}));
    Conf.set("clients", metrics::Json::number(uint64_t{Opt.Clients}));
    Conf.set("shards", metrics::Json::number(uint64_t{Opt.Shards}));
    Conf.set("engine", metrics::Json::number(uint64_t{Opt.Engine}));
    Conf.set("transport", metrics::Json::string(Opt.Tcp ? "tcp" : "local"));
    Conf.set("chaos", metrics::Json::number(uint64_t{Opt.Chaos}));
    Reporter.addValues("config", metrics::EntryKind::Info, std::move(Conf));

    metrics::Json LatJ = metrics::Json::object();
    LatJ.set("p50_ns", metrics::Json::number(P50));
    LatJ.set("p90_ns", metrics::Json::number(P90));
    LatJ.set("p99_ns", metrics::Json::number(P99));
    LatJ.set("jobs_per_sec", metrics::Json::number(JobsPerSec));
    LatJ.set("wall_ns", metrics::Json::number(WallNs));
    Reporter.addValues("latency", metrics::EntryKind::Timing, std::move(LatJ));

    metrics::Json Shed = metrics::Json::object();
    Shed.set("shed_rate", metrics::Json::number(ShedRate));
    Shed.set("rejected_busy", metrics::Json::number(S.RejectedBusy));
    Shed.set("rejected_saturated", metrics::Json::number(S.RejectedSaturated));
    Shed.set("rejected_degraded", metrics::Json::number(S.RejectedDegraded));
    Shed.set("rejected_closed", metrics::Json::number(S.RejectedClosed));
    Shed.set("submitted", metrics::Json::number(S.Submitted));
    Shed.set("duplicates", metrics::Json::number(S.Duplicates));
    Shed.set("completed", metrics::Json::number(S.Completed));
    Shed.set("shard_kills", metrics::Json::number(S.ShardKills));
    Shed.set("jobs_recovered", metrics::Json::number(S.JobsRecovered));
    Shed.set("jobs_recycled", metrics::Json::number(S.JobsRecycled));
    Reporter.addValues("service", metrics::EntryKind::Info, std::move(Shed));

    metrics::Json Cli = metrics::Json::object();
    Cli.set("attempts", metrics::Json::number(CS.Attempts));
    Cli.set("retries", metrics::Json::number(CS.Retries));
    Cli.set("reconnects", metrics::Json::number(CS.Reconnects));
    Cli.set("timeouts", metrics::Json::number(CS.Timeouts));
    Cli.set("rejects", metrics::Json::number(CS.Rejects));
    Cli.set("stale_replies", metrics::Json::number(CS.StaleReplies));
    Cli.set("decode_errors", metrics::Json::number(CS.DecodeErrors));
    Reporter.addValues("client", metrics::EntryKind::Info, std::move(Cli));

    if (Opt.Migrate || Opt.Peer) {
      metrics::Json Mig = metrics::Json::object();
      Mig.set("rebalanced", metrics::Json::number(S.Rebalanced));
      Mig.set("migrated_out", metrics::Json::number(S.MigratedOut));
      Mig.set("peer_migrated_in", metrics::Json::number(PS.MigratedIn));
      Mig.set("migrations_abandoned",
              metrics::Json::number(S.MigrationsAbandoned));
      Reporter.addValues("migration", metrics::EntryKind::Info,
                         std::move(Mig));
    }
    if (!Reporter.write())
      return 1;
  }
  std::printf("loadgen: OK\n");
  return 0;
}
