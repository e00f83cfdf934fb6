//===-- perfbench/src/main.cpp - The repository benchmark -----------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   scbench --workload W --seed N --seconds S --trace 0|1 [--spans-out F]
///
/// Drives the system through its two public entry points and checks every
/// result against an independent reference:
///
///   library  engine::runEngine(E, Prog, Ctx, {Entry}) with no prepared
///            handle, the path forth_run takes by default, under every
///            engine of promotionLadder(false) (run_ms.<engine>: the
///            fastest of many rounds over the workload's programs);
///   service  ServiceClient submit + awaitResult over serveChannel on
///            in-process channels, closed loop, two clients on two
///            tenants hashed onto different shards, ServiceConfig{} and
///            RetryPolicy{} defaults, every servable engine
///            (promotionLadder(true)).
///
/// Workloads (W):
///
///   paper-suite  the four Fig. 20 programs; guest execution (and with it
///                the per-slice checkpoints) is nearly all of job time;
///   fresh-code   every job a seeded medium program the service has never
///                seen: every cache misses. Fixed job count, not duration.
///
/// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
/// again with spans around every layer call, replays its inputs through
/// each layer's public functions, and prints per-layer metrics plus the
/// share of job time they account for. The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. Any wrong result
/// or failed cross-check makes the exit code nonzero.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Layers.h"
#include "ServicePhase.h"
#include "Stats.h"

#include "forth/Forth.h"
#include "service/Service.h"
#include "support/Rng.h"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace sc;
using namespace sc::bench;

namespace {

const service::ServiceConfig Defaults;
const uint64_t SliceSteps = Defaults.SliceSteps;
const uint64_t Cadence = Defaults.CheckpointEverySlices;

/// Share of the first segment given to the library phase; later segments
/// give it whatever the service jobs leave of --seconds.
constexpr double LibraryShare = 0.4;
/// Setups per run; setup_s reports their median.
constexpr unsigned SetupRepeats = 15;
/// Jobs per fresh-code front end: a fixed count, since resident memory
/// grows with every new program (about 2.5 MiB each).
constexpr size_t FreshJobs = 240;
/// Fresh front ends per fresh-code run, each serving FreshJobs programs
/// it has never seen: more measured work at the same peak memory.
constexpr unsigned FreshFrontEnds = 4;
/// Library-phase sample of a fresh-code catalog.
constexpr size_t FreshLibraryPrograms = 48;
/// The measured run alternates library rounds and service jobs in this
/// many segments, so both phases sample the whole run's timeline.
constexpr unsigned Segments = 8;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string SpansOut;
};

int usage() {
  std::fprintf(stderr,
               "usage: scbench --workload paper-suite|fresh-code "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    const bool HasValue = I + 1 < Argc;
    if (!std::strcmp(Argv[I], "--workload") && HasValue)
      A.Workload = Argv[++I];
    else if (!std::strcmp(Argv[I], "--seed") && HasValue)
      A.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (!std::strcmp(Argv[I], "--seconds") && HasValue)
      A.Seconds = static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    else if (!std::strcmp(Argv[I], "--trace") && HasValue)
      A.Trace = std::strcmp(Argv[++I], "0") != 0;
    else if (!std::strcmp(Argv[I], "--spans-out") && HasValue)
      A.SpansOut = Argv[++I];
    else
      return false;
  }
  return (A.Workload == "paper-suite" || A.Workload == "fresh-code") &&
         A.Seconds > 0;
}

/// Independent streams per purpose, all from the one workload seed.
uint64_t subSeed(uint64_t Seed, uint64_t Purpose) {
  return Rng(Seed ^ (Purpose * 0xd1b54a32d192ed03ULL)).next();
}

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// Everything a workload feeds the system, derived from the seed.
struct Workload {
  Catalog Cat;
  std::vector<JobSpec> Pairs; ///< distinct pairs the service sees
  std::vector<JobSpec> Jobs;  ///< measured submissions, in order
  unsigned Segments = 1;      ///< equal consecutive parts of Jobs
  /// Front ends the segments are spread over, in equal consecutive
  /// groups; each one after the first is built when its group starts.
  unsigned FrontEnds = 1;
  bool WarmUp = true;
  std::vector<uint32_t> LibraryProgs;
};

std::unique_ptr<Workload> makeWorkload(const Args &A) {
  auto W = std::make_unique<Workload>();
  const std::vector<engine::EngineId> Servable = engine::promotionLadder(true);
  Rng Order(subSeed(A.Seed, 1));
  if (A.Workload == "paper-suite") {
    W->Cat.Programs = paperSuite();
    for (uint32_t P = 0; P < W->Cat.Programs.size(); ++P)
      for (const engine::EngineId E : Servable)
        W->Pairs.push_back(JobSpec{P, E});
    // Whole passes over every pair, each in its own seeded order and its
    // own segment: one pass per five seconds of the run, one when traced.
    const unsigned Passes = A.Trace ? 1 : std::max(1u, A.Seconds / 5);
    W->Segments = Passes;
    for (unsigned Pass = 0; Pass < Passes; ++Pass) {
      std::vector<JobSpec> P = W->Pairs;
      shuffle(P, Order);
      W->Jobs.insert(W->Jobs.end(), P.begin(), P.end());
    }
  } else {
    W->FrontEnds = A.Trace ? 1 : FreshFrontEnds;
    const size_t N = FreshJobs * W->FrontEnds;
    // Every servable engine gets an equal share of the jobs, dealt in a
    // seeded order: the seed moves which program meets which engine, not
    // the engine mix, whose slowest engine sets job_ms.tail.
    std::vector<engine::EngineId> Engines;
    for (size_t I = 0; I < N; ++I)
      Engines.push_back(Servable[I % Servable.size()]);
    shuffle(Engines, Order);
    for (size_t I = 0; I < N; ++I) {
      W->Cat.Programs.push_back(generateProgram(subSeed(A.Seed, 1000 + I),
                                                "fresh" + std::to_string(I)));
      W->Jobs.push_back(JobSpec{static_cast<uint32_t>(I), Engines[I]});
    }
    W->Pairs = W->Jobs;
    W->WarmUp = false;
    W->Segments = A.Trace ? 1 : Segments;
  }
  const size_t Lib = A.Workload == "fresh-code" ? FreshLibraryPrograms
                                                : W->Cat.Programs.size();
  for (uint32_t P = 0; P < std::min(Lib, W->Cat.Programs.size()); ++P)
    W->LibraryProgs.push_back(P);
  return W;
}

/// Computes the references. False if a paper program's reference output
/// disagrees with its pinned checksum.
bool computeRefs(Catalog &C) {
  bool Ok = true;
  C.Refs.clear();
  for (const Program &P : C.Programs) {
    C.Refs.push_back(referenceRun(P, SliceSteps));
    if (!P.Expected.empty() && C.Refs.back().Output != P.Expected) {
      std::fprintf(stderr, "perfbench: %s prints \"%s\", expected \"%s\"\n",
                   P.Name.c_str(), C.Refs.back().Output.c_str(),
                   P.Expected.c_str());
      Ok = false;
    }
  }
  return Ok;
}

struct Tally {
  uint64_t Attempted = 0, Failed = 0;
  bool CrossChecks = true;
  void fail(const std::string &Why) {
    std::printf("CHECK FAILED: %s\n", Why.c_str());
    CrossChecks = false;
  }
};

//===----------------------------------------------------------------------===//
// Library phase
//===----------------------------------------------------------------------===//

/// The library entry point: engine::runEngine with no prepared handle,
/// over the workload's library programs, compiled once up front.
class Library {
public:
  explicit Library(const Workload &W) : W(W) {
    for (uint32_t P : W.LibraryProgs)
      Systems.push_back(forth::loadOrDie(W.Cat.Programs[P].Source));
  }

  /// Rounds of "every library program once" per engine until \p BudgetNs
  /// is spent (at least one); appends one sample (ms) per engine and round
  /// to \p Samples, in ladder order.
  void run(const std::vector<engine::EngineId> &Ladder, uint64_t BudgetNs,
           std::vector<std::vector<double>> &Samples, Tally &T) const {
    const uint64_t Start = nowNs();
    do {
      for (size_t E = 0; E < Ladder.size(); ++E)
        Samples[E].push_back(round(Ladder[E], T));
    } while (nowNs() - Start < BudgetNs);
  }

private:
  double round(engine::EngineId E, Tally &T) const {
    uint64_t Ns = 0;
    for (size_t I = 0; I < Systems.size(); ++I) {
      const forth::System &Sys = *Systems[I];
      const Program &P = W.Cat.Programs[W.LibraryProgs[I]];
      const Expect &Ref = W.Cat.Refs[W.LibraryProgs[I]];
      vm::Vm M = Sys.Machine;
      vm::ExecContext Ctx(Sys.Prog, M);
      engine::RunOptions Opts;
      Opts.Entry = Sys.entryOf(P.Entry);
      const uint64_t T0 = nowNs();
      const vm::RunOutcome O = engine::runEngine(E, Sys.Prog, Ctx, Opts);
      Ns += nowNs() - T0;
      ++T.Attempted;
      const bool Ok =
          static_cast<uint8_t>(O.Status) == Ref.Status && M.Out == Ref.Output &&
          (engine::engineInfo(E).Caps.Static || O.Steps == Ref.Steps);
      if (!Ok) {
        ++T.Failed;
        std::fprintf(stderr, "perfbench: library run of %s on %s is wrong\n",
                     P.Name.c_str(), engine::engineName(E));
      }
    }
    return static_cast<double>(Ns) / 1e6;
  }

  const Workload &W;
  std::vector<std::unique_ptr<forth::System>> Systems;
};

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void printResult(const std::vector<Metric> &Ms, const Tally &T) {
  std::printf("\n%-40s %16s %-8s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric &M : Ms)
    std::printf("%-40s %16.6f %-8s %8llu  %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), static_cast<unsigned long long>(M.Samples),
                M.Note.c_str());
  const bool Correct = T.Failed == 0 && T.CrossChecks;
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(T.Attempted);
  J += ", \"failed\": " + std::to_string(T.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(Ms[I].Value) ? Ms[I].Value : 0.0);
    J += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

std::vector<double> latenciesMs(const PhaseResult &R) {
  std::vector<double> V;
  for (const JobRecord &J : R.Jobs)
    V.push_back(static_cast<double>(J.End - J.Start) / 1e6);
  return V;
}

//===----------------------------------------------------------------------===//
// --trace 0: end-to-end metrics
//===----------------------------------------------------------------------===//

int runEndToEnd(const Args &A) {
  Tally T;
  // The inputs and their references are the benchmark's own work, made
  // once and outside set-up.
  const std::unique_ptr<Workload> W = makeWorkload(A);
  if (!computeRefs(W->Cat))
    T.fail("reference output differs from the pinned checksum");

  // Set-up, several times over: compiling the library programs, a front
  // end over a fresh translation cache, and the warm-up that fills its
  // program, prepare and job-pool caches (fresh-code has none: its users
  // pay those costs on every job). The last set-up is kept.
  std::vector<double> SetupS;
  std::unique_ptr<Library> Lib;
  std::unique_ptr<ServiceRig> Rig;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    Rig.reset();
    Lib.reset();
    // Hand the previous set-up's memory back, so peak_rss_mb sees one
    // set-up, not the allocator's leftovers from several.
    malloc_trim(0);
    const uint64_t T0 = nowNs();
    Lib = std::make_unique<Library>(*W);
    Rig = std::make_unique<ServiceRig>(W->Cat, /*Traced=*/false);
    if (W->WarmUp && !Rig->warmUp(W->Pairs))
      T.fail("a warm-up job failed");
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }

  // The measured run: segments of library rounds, each followed by its
  // share of the service jobs.
  const std::vector<engine::EngineId> Ladder = engine::promotionLadder(false);
  std::vector<std::vector<double>> LibMs(Ladder.size());
  const size_t Per = W->Jobs.size() / W->Segments;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(A.Seconds * 1e9);
  PhaseResult R;
  uint64_t PeakKb = 0; // once the first front end has served its jobs
  for (unsigned Seg = 0; Seg < W->Segments; ++Seg) {
    if (Seg && Seg % (W->Segments / W->FrontEnds) == 0) {
      // The next front end reuses the memory the previous one freed: the
      // first-touch cost of fresh memory, which a virtual machine's host
      // makes erratic, is paid once per run, not once per front end. How
      // much of it the allocator manages to reuse varies, so the peak is
      // taken before the first front end goes.
      if (!PeakKb)
        PeakKb = peakRssKb();
      Rig.reset();
      Rig = std::make_unique<ServiceRig>(W->Cat, /*Traced=*/false);
    }
    // Library rounds fill what the service jobs leave of --seconds: an
    // equal part of the time left per segment, less the service time a
    // segment has taken so far (before the first, the service's share).
    const uint64_t Now = nowNs();
    const double Left = Now < Deadline ? static_cast<double>(Deadline - Now) /
                                             (W->Segments - Seg)
                                       : 0;
    const double Service = Seg ? static_cast<double>(R.WallNs) / Seg
                               : (1.0 - LibraryShare) * Left;
    Lib->run(Ladder, static_cast<uint64_t>(std::max(0.0, Left - Service)),
             LibMs, T);
    const auto B = W->Jobs.begin() + static_cast<std::ptrdiff_t>(Seg * Per);
    const PhaseResult Part = Rig->run(std::vector<JobSpec>(B, B + Per));
    R.Jobs.insert(R.Jobs.end(), Part.Jobs.begin(), Part.Jobs.end());
    R.WallNs += Part.WallNs;
    R.Failed += Part.Failed;
    R.Stats.Submitted += Part.Stats.Submitted;
    R.Stats.Completed += Part.Stats.Completed;
  }
  T.Attempted += R.Jobs.size();
  T.Failed += R.Failed;
  if (R.Stats.Submitted != R.Jobs.size() || R.Stats.Completed != R.Jobs.size())
    T.fail("service admitted " + std::to_string(R.Stats.Submitted) +
           " and completed " + std::to_string(R.Stats.Completed) + " of " +
           std::to_string(R.Jobs.size()) + " jobs");
  Rig.reset();

  const std::vector<double> Lat = latenciesMs(R);
  const Tail Tl = tailOf(Lat);
  const uint64_t N = R.Jobs.size();
  std::vector<Metric> Ms;
  char Note[128];
  std::snprintf(Note, sizeof(Note), "median of %u set-ups", SetupRepeats);
  Ms.push_back({"setup_s", median(SetupS), "s", SetupRepeats, Note});
  Ms.push_back({"jobs_per_s", R.jobsPerSecond(), "1/s", N,
                "closed loop, 2 clients"});
  Ms.push_back({"job_ms.p50", median(Lat), "ms", N, "submit to Result"});
  std::snprintf(Note, sizeof(Note), "p%.2f, 10 samples beyond it",
                Tl.Percentile);
  Ms.push_back({"job_ms.tail", Tl.Value, "ms", N, Note});
  Ms.push_back({"completed_share",
                N ? static_cast<double>(N - R.Failed) / static_cast<double>(N)
                  : 0,
                "ratio", N, "correct Results / jobs attempted"});
  Ms.push_back({"peak_rss_mb",
                static_cast<double>(PeakKb ? PeakKb : peakRssKb()) / 1024.0,
                "MB", 1, "getrusage ru_maxrss, first front end"});
  // The fastest round, not the median: on a shared host the median round
  // moves with neighbours' load far more than the fastest one does.
  for (size_t E = 0; E < Ladder.size(); ++E) {
    std::snprintf(Note, sizeof(Note), "fastest round; median round %.4f ms",
                  median(LibMs[E]));
    Ms.push_back({std::string("run_ms.") + engine::engineName(Ladder[E]),
                  *std::min_element(LibMs[E].begin(), LibMs[E].end()), "ms",
                  LibMs[E].size(), Note});
  }
  std::printf("workload %s seed %llu seconds %u: %zu service jobs, %zu "
              "library rounds\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, static_cast<size_t>(N), LibMs.front().size());
  printResult(Ms, T);
  return T.Failed == 0 && T.CrossChecks ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// --trace 1: per-layer metrics
//===----------------------------------------------------------------------===//

struct Pass {
  PhaseResult R;
  uint64_t PrepareMisses = 0, PrepareHits = 0;
  double DispatchP50Ns = 0, DispatchP99Ns = 0;
  uint64_t RssGrowthKb = 0;
};

Pass runPass(const Workload &W, bool Traced) {
  Pass P;
  const uint64_t Rss0 = currentRssKb();
  ServiceRig Rig(W.Cat, Traced);
  if (W.WarmUp)
    Rig.warmUp(W.Pairs);
  P.R = Rig.run(W.Jobs);
  const metrics::PrepareCounters C = Rig.cache().counters();
  P.PrepareMisses = C.Misses;
  P.PrepareHits = C.Hits;
  P.DispatchP50Ns = Rig.dispatchNs("p50_dispatch_ns");
  P.DispatchP99Ns = Rig.dispatchNs("p99_dispatch_ns");
  const uint64_t Peak = peakRssKb();
  P.RssGrowthKb = Peak > Rss0 ? Peak - Rss0 : 0;
  return P;
}

/// The exact-count contract of one pass.
void checkPass(const char *Name, const Workload &W, const Pass &P,
               const LayerCosts &L, Tally &T) {
  const PhaseResult &R = P.R;
  const std::string N = Name;
  T.Attempted += R.Jobs.size();
  T.Failed += R.Failed;
  if (R.Jobs.size() != W.Jobs.size() || R.Stats.Submitted != W.Jobs.size() ||
      R.Stats.Completed != W.Jobs.size())
    T.fail(N + ": Submitted " + std::to_string(R.Stats.Submitted) +
           ", Completed " + std::to_string(R.Stats.Completed) + ", attempted " +
           std::to_string(R.Jobs.size()) + ", listed " +
           std::to_string(W.Jobs.size()));
  uint64_t Slices = 0;
  for (const JobRecord &J : R.Jobs) {
    Slices += J.Slices;
    const JobSpec &S = W.Jobs[J.Index];
    const PairCost &PC = L.Pairs.at(PairKey{S.Prog, S.Engine});
    if (PC.Slices != J.Slices)
      T.fail(N + ": a job reported " + std::to_string(J.Slices) +
             " slices, its replay " + std::to_string(PC.Slices));
    if (J.Slices && PC.Checkpoints != 1 + (J.Slices - 1) / Cadence)
      T.fail(N + ": " + std::to_string(PC.Checkpoints) + " checkpoints for " +
             std::to_string(J.Slices) + " slices at cadence " +
             std::to_string(Cadence));
  }
  if (Slices != R.Tenants.Slices)
    T.fail(N + ": Results carry " + std::to_string(Slices) +
           " slices, the scheduler counted " +
           std::to_string(R.Tenants.Slices));
  std::set<std::pair<uint32_t, uint8_t>> Distinct;
  for (const JobSpec &S : W.Pairs)
    Distinct.insert({S.Prog, static_cast<uint8_t>(S.Engine)});
  for (const JobSpec &S : W.Jobs)
    Distinct.insert({S.Prog, static_cast<uint8_t>(S.Engine)});
  if (P.PrepareMisses != Distinct.size())
    T.fail(N + ": " + std::to_string(P.PrepareMisses) +
           " prepare misses for " + std::to_string(Distinct.size()) +
           " distinct (program, engine) pairs");
}

void writeSpans(const std::string &Path, const Args &A, const PhaseResult &R) {
  std::ofstream F(Path);
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return;
  }
  F << "{\"workload\": \"" << A.Workload << "\", \"seed\": " << A.Seed
    << ", \"spans\": [\n";
  bool First = true;
  const auto Emit = [&](const std::string &Name, const std::string &Id,
                        const std::string &Parent, uint64_t Start,
                        uint64_t End) {
    F << (First ? "" : ",\n") << "{\"name\": \"" << Name << "\", \"id\": \""
      << Id << "\", \"parent\": \"" << Parent << "\", \"start_ns\": " << Start
      << ", \"end_ns\": " << End << "}";
    First = false;
  };
  std::map<uint64_t, std::string> RpcParent; // request id -> job span
  for (const JobRecord &J : R.Jobs) {
    const std::string Id = "job-" + std::to_string(J.Client) + "-" +
                           std::to_string(J.Token);
    Emit("client.job", Id, "", J.Start, J.End);
    for (const RpcSpan &S : R.Rpcs)
      if (S.Client == J.Client && S.Start >= J.Start && S.End <= J.End)
        RpcParent[S.Req] = Id;
  }
  for (const RpcSpan &S : R.Rpcs)
    Emit("client.rpc", "rpc-" + std::to_string(S.Req), RpcParent[S.Req],
         S.Start, S.End);
  for (const ServerSpan &S : R.Server) {
    const std::string Parent = "rpc-" + std::to_string(S.Req);
    const bool Submit = S.Type == service::FrameType::SubmitReq;
    uint64_t T = S.Start;
    Emit("wire.decode", Parent + "-decode", Parent, T, T + S.DecodeNs);
    T += S.DecodeNs;
    Emit(Submit ? "service.handle.submit" : "service.handle.poll",
         Parent + "-handle", Parent, T, T + S.HandleNs);
    T += S.HandleNs;
    Emit("wire.encode", Parent + "-encode", Parent, T, T + S.EncodeNs);
  }
  F << "\n]}\n";
}

int runTraced(const Args &A) {
  Tally T;
  std::unique_ptr<Workload> W = makeWorkload(A);
  if (!computeRefs(W->Cat))
    T.fail("reference output differs from the pinned checksum");

  // Traced, untraced, traced again: two traced runs whose counts must
  // agree exactly, and throughput with and without spans compared between
  // the last two, which both find the process's memory already faulted in
  // (the first pass pays that, and its growth is what it reports).
  const Pass First = runPass(*W, true);
  const Pass Plain = runPass(*W, false);
  const Pass Traced = runPass(*W, true);

  const LayerCosts L = measureLayers(W->Cat, W->Pairs, SliceSteps, Cadence);
  checkPass("traced", *W, First, L, T);
  checkPass("untraced", *W, Plain, L, T);
  checkPass("traced again", *W, Traced, L, T);
  if (First.R.Tenants.Slices != Traced.R.Tenants.Slices ||
      First.PrepareMisses != Traced.PrepareMisses ||
      First.R.Stats.Submitted != Traced.R.Stats.Submitted ||
      First.R.Stats.Completed != Traced.R.Stats.Completed)
    T.fail("the two traced runs disagree on an exact count");

  Catalog Paper;
  Paper.Programs = paperSuite();
  computeRefs(Paper);
  const std::vector<engine::EngineId> Ladder = engine::promotionLadder(false);
  const auto NsPerStep = engineNsPerStep(Paper, Ladder);

  // Attribution over the second traced run: per job, count x unit cost
  // for every layer on the blocking path (submit RPC, execution, final
  // poll RPC); what is left is unattributed.
  const PhaseResult &R = Traced.R;
  const double Jobs = static_cast<double>(std::max<size_t>(1, R.Jobs.size()));
  std::map<std::pair<uint32_t, uint64_t>, std::vector<const ServerSpan *>>
      ByJob;
  std::vector<double> SubmitUs, PollUs, EncodeNs, DecodeNs;
  for (const ServerSpan &S : R.Server) {
    ByJob[{S.Client, S.Token}].push_back(&S);
    (S.Type == service::FrameType::SubmitReq ? SubmitUs : PollUs)
        .push_back(static_cast<double>(S.HandleNs) / 1e3);
    EncodeNs.push_back(static_cast<double>(S.EncodeNs));
    DecodeNs.push_back(static_cast<double>(S.DecodeNs));
  }
  const std::vector<double> CliEncode = encodeSamplesNs(R.SampleRequests);
  const std::vector<double> CliDecode = decodeSamplesNs(R.SampleReplies);
  const double CliWireNs = 2 * (median(CliEncode) + median(CliDecode));
  EncodeNs.insert(EncodeNs.end(), CliEncode.begin(), CliEncode.end());
  DecodeNs.insert(DecodeNs.end(), CliDecode.begin(), CliDecode.end());

  const double Recycled =
      R.Stats.Submitted ? static_cast<double>(R.Stats.JobsRecycled) /
                              static_cast<double>(R.Stats.Submitted)
                        : 0;
  const double SchedNs =
      1e3 * (Recycled * L.RecycleUs + (1 - Recycled) * L.CreateUs);
  std::set<uint32_t> WarmProgs;
  std::set<std::pair<uint32_t, engine::EngineId>> WarmPairs;
  if (W->WarmUp)
    for (const JobSpec &S : W->Pairs) {
      WarmProgs.insert(S.Prog);
      WarmPairs.insert({S.Prog, S.Engine});
    }
  double SumLat = 0, SEngine = 0, SSession = 0, SSnap = 0, SSched = 0,
         SForth = 0, SPrep = 0, SService = 0, SWire = 0, Ckpts = 0,
         PollWait = 0;
  for (const JobRecord &J : R.Jobs) {
    const JobSpec &S = W->Jobs[J.Index];
    const PairCost &PC = L.Pairs.at(PairKey{S.Prog, S.Engine});
    const double Lat = static_cast<double>(J.End - J.Start);
    SumLat += Lat;
    PollWait += Lat - static_cast<double>(J.RpcNs);
    Ckpts += static_cast<double>(PC.Checkpoints);
    const double Forth = WarmProgs.count(S.Prog) ? 0 : 1e3 * L.CompileUs;
    const double Prep =
        WarmPairs.count({S.Prog, S.Engine})
            ? 0
            : 1e3 * L.PrepareUs[static_cast<unsigned>(S.Engine)];
    double Handle = 0, Wire = CliWireNs;
    for (const ServerSpan *Sp : ByJob[{J.Client, J.Token}])
      if (Sp->Type == service::FrameType::SubmitReq ||
          Sp->RespType == service::FrameType::Result) {
        Handle += static_cast<double>(Sp->HandleNs);
        Wire += static_cast<double>(Sp->DecodeNs + Sp->EncodeNs);
      }
    SEngine += PC.OneShotNs;
    SSession += static_cast<double>(PC.Slices) * L.SliceNs;
    SSnap += static_cast<double>(PC.Checkpoints) * L.SerializeUs * 1e3;
    SSched += SchedNs;
    SForth += Forth;
    SPrep += Prep;
    SService += std::max(0.0, Handle - Forth - Prep - SchedNs);
    SWire += Wire;
  }
  SumLat = std::max(SumLat, 1.0);
  const double Attributed = (SEngine + SSession + SSnap + SSched + SForth +
                             SPrep + SService + SWire) /
                            SumLat;

  std::vector<Metric> Ms;
  for (size_t P = 0; P < Paper.Programs.size(); ++P)
    for (size_t E = 0; E < Ladder.size(); ++E)
      Ms.push_back({std::string("engine.") + engine::engineName(Ladder[E]) +
                        "." + Paper.Programs[P].Name + ".ns_per_step",
                    NsPerStep[P][E], "ns", 2,
                    "one-shot runPrepared / reference steps"});
  for (const engine::EngineId E : Ladder)
    Ms.push_back({std::string("prepare.") + engine::engineName(E) + ".us",
                  L.PrepareUs[static_cast<unsigned>(E)], "us", L.Sampled,
                  "prepareCode, mean per program"});
  const uint64_t Lookups = Traced.PrepareHits + Traced.PrepareMisses;
  Ms.push_back({"prepare.hit_ratio",
                Lookups ? static_cast<double>(Traced.PrepareHits) /
                              static_cast<double>(Lookups)
                        : 0,
                "ratio", Lookups, "service PrepareCache over the run"});
  Ms.push_back({"forth.compile_us", L.CompileUs, "us",
                W->Cat.Programs.size(), "System + load, mean per program"});
  Ms.push_back({"session.slice_ns", L.SliceNs, "ns", L.Pairs.size(),
                "VmSession::run minus one-shot, per slice"});
  Ms.push_back({"session.slices_per_job",
                static_cast<double>(R.Tenants.Slices) / Jobs, "count",
                R.Jobs.size(), "scheduler tenant counters"});
  Ms.push_back({"snapshot.serialize_us", L.SerializeUs, "us", L.Sampled,
                "mid-run state"});
  Ms.push_back(
      {"snapshot.restore_us", L.RestoreUs, "us", L.Sampled, "mid-run state"});
  Ms.push_back({"snapshot.bytes", L.SnapshotBytes, "bytes", L.Sampled,
                "median mid-run snapshot"});
  Ms.push_back({"snapshot.checkpoints_per_job", Ckpts / Jobs, "count",
                R.Jobs.size(), "VmSession counters at the service cadence"});
  Ms.push_back({"sched.job_create_us", L.CreateUs, "us", L.Sampled,
                "createJob, translation cached"});
  Ms.push_back(
      {"sched.job_recycle_us", L.RecycleUs, "us", L.Sampled, "recycle"});
  Ms.push_back({"sched.recycled_share", Recycled, "ratio", R.Stats.Submitted,
                "ServiceStats JobsRecycled / Submitted"});
  Ms.push_back({"sched.dispatches_per_job",
                static_cast<double>(R.Tenants.Dispatches) / Jobs, "count",
                R.Jobs.size(), "scheduler tenant counters"});
  Ms.push_back({"sched.dispatch_us.p50", Traced.DispatchP50Ns / 1e3, "us",
                R.Tenants.Dispatches,
                "slowest shard, log2 buckets"});
  Ms.push_back({"sched.dispatch_us.p99", Traced.DispatchP99Ns / 1e3, "us",
                R.Tenants.Dispatches,
                "slowest shard, log2 buckets"});
  Ms.push_back({"service.handle_us.submit", median(SubmitUs), "us",
                SubmitUs.size(), "ServiceFrontEnd::handle"});
  Ms.push_back({"service.handle_us.poll", median(PollUs), "us", PollUs.size(),
                "ServiceFrontEnd::handle"});
  Ms.push_back({"service.polls_per_job",
                static_cast<double>(R.Stats.Polls) / Jobs, "count",
                R.Jobs.size(), "ServiceStats"});
  std::set<uint32_t> Progs;
  for (const JobSpec &S : W->Jobs)
    Progs.insert(S.Prog);
  for (const JobSpec &S : W->Pairs)
    Progs.insert(S.Prog);
  Ms.push_back({"service.rss_kb_per_program",
                static_cast<double>(First.RssGrowthKb) /
                    static_cast<double>(std::max<size_t>(1, Progs.size())),
                "KiB", Progs.size(), "peak RSS growth / distinct programs"});
  Ms.push_back({"wire.encode_ns", median(EncodeNs), "ns", EncodeNs.size(),
                "encodeFrame, both ends"});
  Ms.push_back({"wire.decode_ns", median(DecodeNs), "ns", DecodeNs.size(),
                "decodeFrame, both ends"});
  Ms.push_back({"wire.bytes_per_job",
                static_cast<double>(R.WireBytes) / Jobs, "bytes",
                R.Jobs.size(), "client channel, both directions"});
  std::vector<double> Rpc;
  for (const RpcSpan &S : R.Rpcs)
    Rpc.push_back(static_cast<double>(S.End - S.Start) / 1e3);
  Ms.push_back({"client.rpc_us", median(Rpc), "us", Rpc.size(),
                "wrapped channel, send to reply"});
  Ms.push_back({"client.attempts_per_job",
                static_cast<double>(R.ClientAttempts) / Jobs, "count",
                R.Jobs.size(), "clientStats"});
  Ms.push_back({"client.poll_wait_us_per_job", PollWait / Jobs / 1e3, "us",
                R.Jobs.size(), "job latency minus RPC spans"});
  Ms.push_back({"attributed_share", Attributed, "ratio", R.Jobs.size(),
                "sum of layer self time / sum of job latency"});
  const double PlainRate = Plain.R.jobsPerSecond();
  Ms.push_back({"trace_overhead",
                PlainRate ? 1.0 - R.jobsPerSecond() / PlainRate : 0, "ratio",
                R.Jobs.size(), "1 - traced / untraced jobs_per_s"});
  const std::pair<const char *, double> Shares[] = {
      {"engine", SEngine},   {"session", SSession}, {"snapshot", SSnap},
      {"sched", SSched},     {"forth", SForth},     {"prepare", SPrep},
      {"service", SService}, {"wire", SWire}};
  for (const auto &[Name, Sum] : Shares)
    Ms.push_back({std::string("share.") + Name, Sum / SumLat, "ratio",
                  R.Jobs.size(), "share of service job time"});
  Ms.push_back({"share.unattributed", 1.0 - Attributed, "ratio",
                R.Jobs.size(),
                "scheduler wake-ups, poll granularity, channel transfer"});

  std::printf("workload %s seed %llu: traced passes of %zu jobs; untraced "
              "%.1f jobs/s, traced %.1f jobs/s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              W->Jobs.size(), PlainRate, R.jobsPerSecond());
  std::printf("attribution of service job time: snapshot %.1f%%, engine "
              "%.1f%%, session %.1f%%, other layers %.1f%%, unattributed "
              "%.1f%%\n",
              100 * SSnap / SumLat, 100 * SEngine / SumLat,
              100 * SSession / SumLat,
              100 * (Attributed - (SSnap + SEngine + SSession) / SumLat),
              100 * (1 - Attributed));
  std::printf("(while checkpoints dominate, an engine speed-up moves "
              "run_ms.<engine> but barely job_ms.*)\n");
  if (!A.SpansOut.empty())
    writeSpans(A.SpansOut, A, R);
  printResult(Ms, T);
  return T.Failed == 0 && T.CrossChecks ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return usage();
  return A.Trace ? runTraced(A) : runEndToEnd(A);
}
