//===-- bench/prepare_amortization.cpp - Prepare-once amortization --------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the prepare/run split buys: the cost of running a word
/// through engine::runEngine without a prepared handle (which prepares a
/// temporary translation on every call) against running a PreparedCode
/// served by a PrepareCache (translated once, then looked up). Reported
/// per engine across programs from a handful of instructions
/// (translation dominates) up to the four paper workloads (execution
/// dominates), together with the one-time prepare cost and the run count
/// at which it has paid for itself.
///
/// The deterministic claims are self-asserted, not just reported: the
/// warm loop must perform ZERO stream translations and the cache must
/// hold exactly one translation per (program, engine) — any violation
/// exits nonzero, which fails scripts/check.sh --bench-smoke.
///
//===----------------------------------------------------------------------===//

#include "dispatch/EngineRegistry.h"
#include "forth/Forth.h"
#include "metrics/Reporter.h"
#include "metrics/Timing.h"
#include "prepare/Prepare.h"
#include "prepare/PrepareCache.h"
#include "support/Table.h"
#include "vm/Translate.h"
#include "workloads/Workloads.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace sc;
using namespace sc::vm;

namespace {

struct Program {
  std::string Name;
  std::unique_ptr<forth::System> Sys;
  uint32_t Entry;
};

/// The measured spread: two tiny synthetic words where per-run
/// translation is a large fraction of total cost, plus the four paper
/// workloads where execution dominates and amortization matters less.
std::vector<Program> loadPrograms() {
  std::vector<Program> Out;
  auto Add = [&Out](std::string Name, std::string_view Src) {
    Program P;
    P.Name = std::move(Name);
    P.Sys = forth::loadOrDie(Src);
    P.Entry = P.Sys->entryOf("main");
    Out.push_back(std::move(P));
  };
  Add("tiny", ": main 1 2 + drop ;");
  Add("loop100", ": main 0 100 0 do i + loop drop ;");
  size_t N;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I)
    Add(W[I].Name, W[I].Source);
  return Out;
}

/// Streamless flavors dispatch on the snapshot directly, so their cold
/// runs perform no stream translations.
bool isStreamless(prepare::EngineId E) {
  return E == prepare::EngineId::Switch || E == prepare::EngineId::Model;
}

} // namespace

int main(int argc, char **argv) {
  metrics::MetricsReporter Rep("prepare_amortization");
  Rep.parseArgs(argc, argv);
  std::printf("==== Prepare-once amortization ====\n");
  std::printf("cold: runEngine without a handle (prepare every run)\n"
              "warm: PrepareCache::getOrPrepare + runPrepared (translate "
              "once)\n\n");

  const int Reps = metrics::smokeAdjustedReps(9);
  int Failures = 0;

  std::vector<Program> Programs = loadPrograms();
  for (const Program &P : Programs) {
    // Inner batch per timed repetition: tiny programs need batching for
    // the clock to resolve anything.
    const int Inner = P.Sys->Prog.size() < 64 ? 64 : 4;

    std::printf("%s (%u insts, batch %d):\n",
                P.Name.c_str(), static_cast<unsigned>(P.Sys->Prog.size()),
                Inner);
    Table T;
    T.addRow({"  engine", "cold ns/run", "warm ns/run", "speedup",
              "prepare ns", "breakeven runs"});

    size_t NumE;
    const engine::EngineInfo *AllE = engine::allEngines(NumE);
    for (size_t EI = 0; EI < NumE; ++EI) {
      const prepare::EngineId E = AllE[EI].Id;
      if (E == engine::EngineId::Model)
        continue; // streamless and shadow-checked: nothing to amortize

      Vm Copy = P.Sys->Machine;
      ExecContext Ctx(P.Sys->Prog, Copy);

      // --- cold: translate (or re-specialize) + run, every call ------
      auto ColdOnce = [&] {
        for (int I = 0; I < Inner; ++I) {
          Copy.resetOutput();
          engine::RunOptions Opts;
          Opts.Entry = P.Entry;
          RunOutcome O = engine::runEngine(E, P.Sys->Prog, Ctx, Opts);
          if (O.Status != RunStatus::Halted) {
            std::fprintf(stderr, "FAIL: %s cold run faulted on %s\n",
                         engine::engineName(E), P.Name.c_str());
            ++Failures;
          }
        }
      };
      ColdOnce(); // warm caches/branch predictors once
      const uint64_t ColdTrans0 = vm::streamTranslations();
      metrics::TimingStats Cold = metrics::timeRuns(ColdOnce, Reps, 0);
      const uint64_t ColdTrans = vm::streamTranslations() - ColdTrans0;

      // --- warm: prepare once, look up + run thereafter --------------
      prepare::PrepareCache Cache;
      prepare::PrepareOptions Opts;
      auto WarmOnce = [&] {
        for (int I = 0; I < Inner; ++I) {
          Copy.resetOutput();
          auto PC = Cache.getOrPrepare(P.Sys->Prog, E, Opts);
          RunOutcome O = prepare::runPrepared(*PC, Ctx, P.Entry);
          if (O.Status != RunStatus::Halted) {
            std::fprintf(stderr, "FAIL: %s warm run faulted on %s\n",
                         engine::engineName(E), P.Name.c_str());
            ++Failures;
          }
        }
      };
      WarmOnce(); // the one translation happens here
      const uint64_t WarmTrans0 = vm::streamTranslations();
      metrics::TimingStats Warm = metrics::timeRuns(WarmOnce, Reps, 0);
      const uint64_t WarmTrans = vm::streamTranslations() - WarmTrans0;

      // --- deterministic contracts (self-asserted) -------------------
      const metrics::PrepareCounters C = Cache.counters();
      if (WarmTrans != 0) {
        std::fprintf(stderr,
                     "FAIL: %s warm loop performed %llu translations on %s "
                     "(want 0)\n",
                     engine::engineName(E),
                     static_cast<unsigned long long>(WarmTrans),
                     P.Name.c_str());
        ++Failures;
      }
      if (C.Translations != 1 || C.Misses != 1 || C.Invalidations != 0) {
        std::fprintf(stderr,
                     "FAIL: %s cache on %s: translations=%llu misses=%llu "
                     "(want exactly 1 each)\n",
                     engine::engineName(E), P.Name.c_str(),
                     static_cast<unsigned long long>(C.Translations),
                     static_cast<unsigned long long>(C.Misses));
        ++Failures;
      }
      // Every cold call of a stream flavor must have re-translated.
      const uint64_t WantColdTrans =
          isStreamless(E)
              ? 0
              : static_cast<uint64_t>(Reps) * static_cast<uint64_t>(Inner);
      if (ColdTrans != WantColdTrans) {
        std::fprintf(stderr,
                     "FAIL: %s cold loop performed %llu translations on %s "
                     "(want %llu)\n",
                     engine::engineName(E),
                     static_cast<unsigned long long>(ColdTrans),
                     P.Name.c_str(),
                     static_cast<unsigned long long>(WantColdTrans));
        ++Failures;
      }

      const double ColdNs = Cold.MinNs / Inner;
      const double WarmNs = Warm.MinNs / Inner;
      const auto PC = Cache.getOrPrepare(P.Sys->Prog, E, Opts);
      const double PrepNs = static_cast<double>(PC->PrepareNs);
      const double Saved = ColdNs - WarmNs;
      // Runs until the one-time prepare has paid for itself. "-" when
      // warm is not measurably cheaper (execution-dominated programs).
      std::string Breakeven =
          Saved > 0 ? std::to_string(
                          static_cast<uint64_t>(std::ceil(PrepNs / Saved)))
                    : "-";

      auto Row = T.row();
      Row.cell(std::string("  ") + engine::engineName(E))
          .num(ColdNs, 1)
          .num(WarmNs, 1)
          .num(WarmNs > 0 ? ColdNs / WarmNs : 0.0, 2)
          .num(PrepNs, 0)
          .cell(Breakeven);

      const std::string Base = P.Name + "_" + engine::engineName(E);
      metrics::Json TimingV = metrics::Json::object();
      TimingV.set("cold_ns_per_run", metrics::Json::number(ColdNs));
      TimingV.set("warm_ns_per_run", metrics::Json::number(WarmNs));
      TimingV.set("prepare_ns", metrics::Json::number(PrepNs));
      Rep.addValues(Base + "_timing", metrics::EntryKind::Timing,
                    std::move(TimingV));

      metrics::Json ExactV = metrics::Json::object();
      ExactV.set("warm_translations",
                 metrics::Json::number(static_cast<double>(WarmTrans)));
      ExactV.set("cold_translations_per_run",
                 metrics::Json::number(isStreamless(E) ? 0.0 : 1.0));
      ExactV.set("cache_translations",
                 metrics::Json::number(static_cast<double>(C.Translations)));
      ExactV.set("cache_misses",
                 metrics::Json::number(static_cast<double>(C.Misses)));
      Rep.addValues(Base + "_translations", metrics::EntryKind::Exact,
                    std::move(ExactV));
    }
    T.print();
    std::printf("\n");
    Rep.addTable(P.Name + "_amortization", T, metrics::EntryKind::Info);
  }

  if (Failures) {
    std::fprintf(stderr,
                 "prepare_amortization: %d contract violations\n", Failures);
    return 1;
  }
  std::printf("all deterministic contracts held: warm loops performed zero "
              "translations,\nexactly one translation cached per (program, "
              "engine).\n");
  return Rep.write() ? 0 : 1;
}
