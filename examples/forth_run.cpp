//===-- examples/forth_run.cpp - Forth runner CLI --------------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command line Forth runner:
///
///   forth_run [--engine E | --adaptive] [--word W] [--repeat N]
///             [--prepare] [--trace] [--stats] [--disasm] file.fs
///
/// E is any engine name (or alias) known to the EngineRegistry; run with
/// no arguments for the current list. W defaults to "main". With --trace,
/// per-program Fig. 20-style statistics are printed after the run. With
/// --stats (in a -DSC_STATS=ON build), the engine execution counters -
/// per-opcode dispatch counts, cache overflow/underflow totals,
/// occupancy and reconcile traffic - are printed after the run.
///
/// --disasm skips execution and prints the register-IR translation next
/// to the stack code it came from, one original instruction per line:
/// dissolved stack manipulations, absorbed literals and deferred limit
/// checks are all visible. The right column is the same rendering
/// tests/regvm_tests asserts against.
///
/// --repeat N runs the word N times; --prepare routes the runs through
/// the PrepareCache (translate once, then look up) instead of preparing
/// a temporary translation on every run. A summary of stream
/// translations performed and cache traffic goes to stderr, making the
/// amortization visible from the command line.
///
/// --deadline MS, --fuel N, --slice N and --fallback run the word under
/// a supervised VmSession (implying the prepare path): execution happens
/// in bounded slices, a wall-clock deadline or step-fuel budget stops a
/// runaway program at the next slice boundary, and --fallback replays a
/// faulting slice under the canonical switch engine to confirm or refute
/// the fault. The session counters are printed to stderr afterwards.
///
/// --checkpoint FILE and --restore FILE make a session durable across
/// invocations (both imply a supervised session): --checkpoint writes the
/// machine state of a resumable stop (fuel exhausted, deadline, ...) to
/// FILE as a versioned snapshot; --restore starts from a snapshot written
/// earlier — by any engine: snapshots are engine-neutral — and continues
/// at its recorded PC. A corrupt or mismatched snapshot is refused with a
/// typed error. tools/snapshot_inspect dumps a snapshot's header.
///
/// --adaptive replaces the fixed engine choice with a TierController:
/// the run starts on the promotion ladder's cold tier and climbs to
/// hotter engines as the program accumulates steps (--tier-threshold N
/// sets the steps each rung costs). Mutually exclusive with --engine —
/// adaptive tiering chooses the engine itself. Implies a supervised
/// session (migration happens at slice boundaries); combined with
/// --restore, the snapshot's retired-step count seeds the controller so
/// the run resumes on the tier it had already earned. Combined with
/// --workers, the scheduler's jobs share one background controller. The
/// tier summary goes to stderr after the run.
///
/// --workers N runs the word through a SessionScheduler instead: each of
/// --tenants T tenants (default 2) gets its own job (a machine copy plus
/// a supervised session), the fleet is recycled --repeat times, and the
/// scheduler's counter snapshot — per-tenant dispatches, slices, steps
/// and p50/p99 dispatch latency — goes to stderr. The deadline, fuel,
/// slice and fallback switches apply per job. Stdout carries the first
/// tenant's final-run output.
///
//===----------------------------------------------------------------------===//

#include "dispatch/EngineRegistry.h"
#include "forth/Forth.h"
#include "metrics/Counters.h"
#include "prepare/Prepare.h"
#include "prepare/PrepareCache.h"
#include "regvm/RegVm.h"
#include "sched/SessionScheduler.h"
#include "session/VmSession.h"
#include "snapshot/Snapshot.h"
#include "tier/TierController.h"
#include "trace/Capture.h"
#include "trace/Simulators.h"
#include "vm/FaultDiag.h"
#include "vm/Translate.h"

#include <chrono>
#include <cstdlib>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace sc;
using namespace sc::vm;

static int usage() {
  // The engine list comes from the registry so new engines show up here
  // without touching this file.
  std::string Engines;
  size_t N;
  const engine::EngineInfo *Info = engine::allEngines(N);
  for (size_t I = 0; I < N; ++I) {
    if (I)
      Engines += " | ";
    Engines += Info[I].Name;
  }
  std::fprintf(
      stderr,
      "usage: forth_run [--engine E | --adaptive] [--word W] [--repeat N]\n"
      "                 [--prepare] [--tier-threshold N]\n"
      "                 [--deadline MS] [--fuel N] [--slice N] [--fallback]\n"
      "                 [--checkpoint FILE] [--restore FILE]\n"
      "                 [--workers N] [--tenants N] [--trace] [--stats]\n"
      "                 [--disasm] file.fs\n"
      "  E: %s\n"
      "     (default: threaded)\n"
      "  --adaptive    start cold and promote to hotter engines as the\n"
      "                word gets hot (exclusive with --engine)\n"
      "  --tier-threshold N  guest steps per promotion rung (implies\n"
      "                      --adaptive)\n"
      "  --repeat N    run the word N times (default 1)\n"
      "  --prepare     translate once via the PrepareCache, then reuse\n"
      "  --deadline MS stop a runaway run after MS milliseconds\n"
      "  --fuel N      stop after N guest steps (resumable budget)\n"
      "  --slice N     guest steps per supervised slice (default 4096)\n"
      "  --fallback    replay a faulting slice under the reference engine\n"
      "  --checkpoint FILE  write a snapshot of a resumable stop to FILE\n"
      "  --restore FILE     resume from a snapshot written earlier\n"
      "                     (with --fuel N: grant N more steps on top of\n"
      "                      the budget the snapshot carries)\n"
      "  (--deadline/--fuel/--slice/--fallback/--checkpoint/--restore run\n"
      "   a supervised session)\n"
      "  --workers N   run the word on a session scheduler with N workers\n"
      "  --tenants N   number of scheduler tenants (default 2)\n"
      "  --disasm      print the stack code and its register-IR\n"
      "                translation side by side instead of running\n"
      "  --stats needs a -DSC_STATS=ON build\n",
      Engines.c_str());
  return 2;
}

int main(int Argc, char **Argv) {
  std::string EngineName =
      engine::engineName(engine::EngineId::Threaded); // CLI default
  std::string WordName = "main";
  std::string FileName;
  bool WantTrace = false;
  bool WantStats = false;
  bool WantDisasm = false;
  bool WantPrepare = false;
  bool UseSession = false;
  bool WantFallback = false;
  bool Adaptive = false;
  bool EngineExplicit = false;
  unsigned long long TierThreshold = 0; // 0: TierPolicy default
  long Repeat = 1;
  long DeadlineMs = 0;
  long Workers = 0; // 0: no scheduler
  long TenantsN = 2;
  std::string CheckpointFile;
  std::string RestoreFile;
  unsigned long long FuelSteps = 0; // 0: unlimited
  unsigned long long SliceSteps = 4096;

  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--engine") && I + 1 < Argc) {
      EngineName = Argv[++I];
      EngineExplicit = true;
    } else if (!std::strcmp(Argv[I], "--adaptive")) {
      Adaptive = true;
      UseSession = true;
    } else if (!std::strcmp(Argv[I], "--tier-threshold") && I + 1 < Argc) {
      TierThreshold = std::strtoull(Argv[++I], nullptr, 10);
      Adaptive = true;
      UseSession = true;
    } else if (!std::strcmp(Argv[I], "--word") && I + 1 < Argc)
      WordName = Argv[++I];
    else if (!std::strcmp(Argv[I], "--repeat") && I + 1 < Argc)
      Repeat = std::strtol(Argv[++I], nullptr, 10);
    else if (!std::strcmp(Argv[I], "--prepare"))
      WantPrepare = true;
    else if (!std::strcmp(Argv[I], "--deadline") && I + 1 < Argc) {
      DeadlineMs = std::strtol(Argv[++I], nullptr, 10);
      UseSession = true;
    } else if (!std::strcmp(Argv[I], "--fuel") && I + 1 < Argc) {
      FuelSteps = std::strtoull(Argv[++I], nullptr, 10);
      UseSession = true;
    } else if (!std::strcmp(Argv[I], "--slice") && I + 1 < Argc) {
      SliceSteps = std::strtoull(Argv[++I], nullptr, 10);
      UseSession = true;
    } else if (!std::strcmp(Argv[I], "--fallback")) {
      WantFallback = true;
      UseSession = true;
    } else if (!std::strcmp(Argv[I], "--checkpoint") && I + 1 < Argc) {
      CheckpointFile = Argv[++I];
      UseSession = true;
    } else if (!std::strcmp(Argv[I], "--restore") && I + 1 < Argc) {
      RestoreFile = Argv[++I];
      UseSession = true;
    } else if (!std::strcmp(Argv[I], "--workers") && I + 1 < Argc)
      Workers = std::strtol(Argv[++I], nullptr, 10);
    else if (!std::strcmp(Argv[I], "--tenants") && I + 1 < Argc)
      TenantsN = std::strtol(Argv[++I], nullptr, 10);
    else if (!std::strcmp(Argv[I], "--trace"))
      WantTrace = true;
    else if (!std::strcmp(Argv[I], "--stats"))
      WantStats = true;
    else if (!std::strcmp(Argv[I], "--disasm"))
      WantDisasm = true;
    else if (Argv[I][0] == '-')
      return usage();
    else
      FileName = Argv[I];
  }
  if (SliceSteps == 0 || DeadlineMs < 0 || Workers < 0 || TenantsN < 1)
    return usage();
  if (FileName.empty())
    return usage();
  if (Adaptive && EngineExplicit) {
    // Reject instead of silently letting one flag win: an explicit
    // engine and adaptive tiering contradict each other.
    std::fprintf(stderr,
                 "forth_run: --engine and --adaptive are mutually exclusive "
                 "(adaptive tiering chooses the engine itself; drop one)\n");
    return 2;
  }
  if (Adaptive && TierThreshold == 0)
    TierThreshold = tier::TierPolicy().PromoteSteps;

  std::ifstream In(FileName);
  if (!In) {
    std::fprintf(stderr, "forth_run: cannot open %s\n", FileName.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  forth::System Sys;
  if (!Sys.load(Buf.str())) {
    std::fprintf(stderr, "forth_run: %s: %s\n", FileName.c_str(),
                 Sys.error().c_str());
    return 1;
  }
  std::string VerifyErr;
  if (!Sys.Prog.verify(&VerifyErr)) {
    std::fprintf(stderr, "forth_run: %s: %s\n", FileName.c_str(),
                 VerifyErr.c_str());
    return 1;
  }
  if (!Sys.Prog.findWord(WordName)) {
    std::fprintf(stderr, "forth_run: word '%s' is not defined\n",
                 WordName.c_str());
    return 1;
  }

  if (WantDisasm) {
    // No execution: translate for the register backend and show the
    // stack program next to what survived of it.
    const auto PC =
        prepare::prepareCode(Sys.Prog, engine::EngineId::RegVm);
    std::fputs(regvm::disasmSideBySide(Sys.Prog, *PC->reg()).c_str(),
               stdout);
    return 0;
  }

  Vm Machine = Sys.Machine; // run against a copy, like runIsolated
  Machine.resetOutput();
  ExecContext Ctx(Sys.Prog, Machine);
  metrics::Counters Stats;
  if (WantStats) {
    if (!metrics::statsEnabled())
      std::fprintf(stderr, "forth_run: this build has SC_STATS off; "
                           "--stats will print nothing useful\n");
    Ctx.Stats = &Stats;
  }
  if (Repeat < 1)
    return usage();
  const engine::EngineInfo *Engine = engine::findEngine(EngineName);
  if (!Engine)
    return usage();
  const prepare::EngineId PrepId = Engine->Id;
  RunOutcome O;
  uint32_t Entry = Sys.entryOf(WordName);

  std::unique_ptr<tier::TierController> Tier;
  if (Adaptive) {
    tier::TierPolicy TP;
    TP.PromoteSteps = TierThreshold;
    // Under a scheduler, re-preparation must stay off the dispatch path;
    // the single-session path prepares inline at poll points instead
    // (deterministic, and there is no dispatch path to protect).
    TP.Background = Workers > 0;
    Tier = std::make_unique<tier::TierController>(TP);
  }

  // The scheduler path: the word becomes one job per tenant, and the
  // fleet is recycled --repeat times through a fixed worker pool.
  if (Workers > 0) {
    sched::SchedConfig SchedCfg;
    SchedCfg.Workers = static_cast<unsigned>(Workers);
    SchedCfg.SliceSteps = SliceSteps;
    SchedCfg.Tier = Tier.get();
    sched::SessionScheduler Sched(SchedCfg);
    sched::JobSpec Spec;
    Spec.Entry = Entry;
    Spec.FuelSteps = FuelSteps ? FuelSteps : UINT64_MAX;
    Spec.Deadline = std::chrono::milliseconds(DeadlineMs);
    Spec.ConfirmFaults = WantFallback;
    std::vector<sched::Job *> Jobs;
    for (long T = 0; T < TenantsN; ++T)
      Jobs.push_back(Sched.createJob(
          Sched.addTenant("tenant-" + std::to_string(T)), Sys.Prog,
          Engine->Id, Machine, Spec));
    const auto S0 = std::chrono::steady_clock::now();
    for (long R = 0; R < Repeat; ++R) {
      for (sched::Job *J : Jobs) {
        if (R) {
          J->machine().resetOutput(); // keep only the final run's output
          Sched.rearm(J);
        }
        if (Sched.submit(J) != sched::SubmitResult::Admitted) {
          std::fprintf(stderr, "forth_run: scheduler refused a job\n");
          return 1;
        }
      }
      for (sched::Job *J : Jobs)
        Sched.wait(J);
    }
    const double SchedNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - S0)
            .count());
    Sched.drain();

    const sched::SchedSnapshot Snap = Sched.snapshot();
    std::fprintf(stderr,
                 "( scheduler: %u workers, %lld tenants, %llu dispatches, "
                 "%llu steps in %.0f ns )\n",
                 Snap.Workers, static_cast<long long>(TenantsN),
                 static_cast<unsigned long long>(Snap.totalDispatches()),
                 static_cast<unsigned long long>(Snap.totalSteps()),
                 SchedNs);
    std::fprintf(stderr, "( dispatch latency: p50 %.0f ns, p99 %.0f ns )\n",
                 Snap.latencyPercentileNs(0.50),
                 Snap.latencyPercentileNs(0.99));
    for (const sched::TenantCounters &TC : Snap.Tenants)
      std::fprintf(
          stderr,
          "(   %s: %llu dispatches, %llu slices, %llu steps, "
          "%llu preemptions )\n",
          TC.Name.c_str(), static_cast<unsigned long long>(TC.Dispatches),
          static_cast<unsigned long long>(TC.Slices),
          static_cast<unsigned long long>(TC.Steps),
          static_cast<unsigned long long>(TC.Preemptions));
    if (Tier) {
      std::fputs(metrics::formatTierCounters(Tier->counters()).c_str(),
                 stderr);
      for (sched::Job *J : Jobs)
        std::fprintf(stderr, "(   tenant %u finished on tier %u: %s )\n",
                     J->tenant(), J->tier(),
                     engine::engineName(J->session().prepared().Engine));
    }

    std::fputs(Jobs[0]->machine().Out.c_str(), stdout);
    int Rc = 0;
    for (sched::Job *J : Jobs) {
      const session::SessionResult &R = J->result();
      if (R.Stop == session::StopKind::Halted)
        continue;
      std::fprintf(stderr,
                   "forth_run: tenant %u stop: %s after %llu steps%s\n",
                   J->tenant(), session::stopKindName(R.Stop),
                   static_cast<unsigned long long>(R.Outcome.Steps),
                   R.Resumable ? " (resumable)" : "");
      Rc = R.Resumable || R.Stop == session::StopKind::Quarantined ? 3 : 1;
    }
    return Rc;
  }

  // The supervised session implies the prepare path: it runs a
  // PreparedCode in slices and owns its own ExecContext.
  std::unique_ptr<session::VmSession> Sess;
  session::SessionResult SessRes;
  unsigned TierNow = 0;
  if (UseSession) {
    session::SessionPolicy Pol;
    Pol.SliceSteps = SliceSteps;
    Pol.FuelSteps = FuelSteps ? FuelSteps : UINT64_MAX;
    Pol.Deadline = std::chrono::milliseconds(DeadlineMs);
    Pol.ConfirmFaults = WantFallback;
    if (!RestoreFile.empty()) {
      std::ifstream Rf(RestoreFile, std::ios::binary);
      if (!Rf) {
        std::fprintf(stderr, "forth_run: cannot open %s\n",
                     RestoreFile.c_str());
        return 1;
      }
      const std::vector<uint8_t> Bytes(
          (std::istreambuf_iterator<char>(Rf)), std::istreambuf_iterator<char>());
      // The snapshot carries the remaining budget; an explicit --fuel on
      // top grants that many steps more (a fuel-exhausted snapshot would
      // otherwise be unresumable from here).
      prepare::EngineId RestoreEngine = PrepId;
      if (Tier) {
        // Resume on the tier the job had earned, not the cold rung: the
        // header's retired-step count seeds the controller before the
        // tier is chosen.
        snapshot::SnapshotHeader H;
        if (snapshot::readHeader(Bytes.data(), Bytes.size(), H) ==
            snapshot::SnapshotError::None)
          Tier->seedSteps(H.CodeIdentity, H.MS.StepsRetired);
        // The restored PC is an unfused instruction index, so the fused
        // top rung is out of reach until the next fresh entry.
        RestoreEngine =
            Tier->acquire(Sys.Prog, &TierNow, /*AllowFused=*/false)->Engine;
      }
      snapshot::SnapshotError Err;
      Sess = session::restoreSession(Bytes.data(), Bytes.size(), Sys.Prog,
                                     RestoreEngine, Machine, Pol,
                                     prepare::globalPrepareCache(), &Err);
      if (!Sess) {
        std::fprintf(stderr, "forth_run: cannot restore %s: %s\n",
                     RestoreFile.c_str(), snapshot::snapshotErrorName(Err));
        return 1;
      }
      if (FuelSteps)
        Sess->refuel(FuelSteps);
      Entry = Sess->restoredPc();
    } else {
      auto PC = Tier ? Tier->acquire(Sys.Prog, &TierNow)
                     : prepare::globalPrepareCache().getOrPrepare(Sys.Prog,
                                                                  PrepId);
      if (Tier)
        Entry = PC->entryOf(WordName);
      Sess = std::make_unique<session::VmSession>(std::move(PC), Machine, Pol);
    }
    if (WantStats)
      Sess->context().Stats = &Stats;
  }
  ExecContext *ActiveCtx = Sess ? &Sess->context() : &Ctx;

  const uint64_t Trans0 = vm::streamTranslations();
  const auto T0 = std::chrono::steady_clock::now();
  for (long R = 0; R < Repeat; ++R) {
    if (R)
      Machine.resetOutput(); // keep only the final run's output
    if (UseSession) {
      if (R) {
        Sess->reset();
        if (Tier) {
          // Fresh entry: adopt whatever tier the word has earned, the
          // fused top rung included (the entry is re-resolved through
          // the artifact's own word table).
          unsigned NewTier;
          auto Hot = Tier->acquire(Sys.Prog, &NewTier);
          Sess->migrateTo(std::move(Hot));
          TierNow = NewTier;
          Entry = Sess->prepared().entryOf(WordName);
        }
      }
      if (Tier) {
        // Bounded dispatches with a migration poll between them: the
        // session changes engines only at these slice boundaries.
        uint64_t Steps = 0, Slices = 0;
        for (;;) {
          SessRes = Sess->run(Entry, 32);
          Steps += SessRes.Outcome.Steps;
          Slices += SessRes.Slices;
          Tier->recordSteps(Sys.Prog, TierNow, SessRes.Outcome.Steps);
          if (SessRes.Stop != session::StopKind::Preempted)
            break;
          Entry = SessRes.ResumePc;
          unsigned NewTier;
          if (auto Hot = Tier->pollMigration(Sys.Prog.identity(), TierNow,
                                             &NewTier)) {
            Sess->migrateTo(std::move(Hot));
            TierNow = NewTier;
          }
        }
        SessRes.Outcome.Steps = Steps;
        SessRes.Slices = Slices;
      } else {
        SessRes = Sess->run(Entry);
      }
      O = SessRes.Outcome;
      if (SessRes.Stop != session::StopKind::Halted)
        break;
    } else if (WantPrepare) {
      auto PC = prepare::globalPrepareCache().getOrPrepare(Sys.Prog, PrepId);
      O = prepare::runPrepared(*PC, Ctx, Entry);
    } else {
      engine::RunOptions Opts;
      Opts.Entry = Entry;
      O = engine::runEngine(Engine->Id, Sys.Prog, Ctx, Opts);
    }
    if (O.Status != RunStatus::Halted)
      break;
  }
  if (Repeat > 1 || WantPrepare) {
    const double ElapsedNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    std::fprintf(stderr,
                 "( %ld run%s in %.0f ns (%.0f ns/run), %llu stream "
                 "translation%s )\n",
                 Repeat, Repeat == 1 ? "" : "s", ElapsedNs,
                 ElapsedNs / static_cast<double>(Repeat),
                 static_cast<unsigned long long>(vm::streamTranslations() -
                                                 Trans0),
                 vm::streamTranslations() - Trans0 == 1 ? "" : "s");
    if (WantPrepare) {
      metrics::PrepareCounters C =
          prepare::globalPrepareCache().counters();
      std::fprintf(stderr,
                   "( prepare cache: %llu hits, %llu misses, %llu "
                   "invalidations )\n",
                   static_cast<unsigned long long>(C.Hits),
                   static_cast<unsigned long long>(C.Misses),
                   static_cast<unsigned long long>(C.Invalidations));
    }
  }

  if (UseSession) {
    std::fputs(metrics::formatSessionCounters(Sess->counters()).c_str(),
               stderr);
    if (Tier) {
      std::fputs(metrics::formatTierCounters(Tier->counters()).c_str(),
                 stderr);
      std::fprintf(stderr, "( final tier %u: %s )\n", TierNow,
                   engine::engineName(Sess->prepared().Engine));
    }
    if (SessRes.Replayed)
      std::fprintf(stderr, "( fallback replay: %s )\n",
                   session::confirmationName(SessRes.Verdict));
    if (!CheckpointFile.empty()) {
      if (SessRes.Resumable) {
        const std::vector<uint8_t> Snap = Sess->checkpoint(SessRes.ResumePc);
        std::ofstream Cf(CheckpointFile,
                         std::ios::binary | std::ios::trunc);
        if (!Cf.write(reinterpret_cast<const char *>(Snap.data()),
                      static_cast<std::streamsize>(Snap.size()))) {
          std::fprintf(stderr, "forth_run: cannot write %s\n",
                       CheckpointFile.c_str());
          return 1;
        }
        std::fprintf(stderr,
                     "( checkpoint: %llu bytes to %s, resumable at pc %u )\n",
                     static_cast<unsigned long long>(Snap.size()),
                     CheckpointFile.c_str(), SessRes.ResumePc);
      } else {
        std::fprintf(stderr,
                     "forth_run: no checkpoint written (%s is not a "
                     "resumable stop)\n",
                     session::stopKindName(SessRes.Stop));
      }
    }
    if (SessRes.Resumable || SessRes.Stop == session::StopKind::Quarantined) {
      // A supervision stop, not a guest outcome: the guest state is
      // canonical and resumable at ResumePc.
      std::fputs(Machine.Out.c_str(), stdout);
      std::fprintf(stderr,
                   "forth_run: session stop: %s after %llu steps "
                   "(resumable at pc %u)\n",
                   session::stopKindName(SessRes.Stop),
                   static_cast<unsigned long long>(O.Steps), SessRes.ResumePc);
      return 3;
    }
  }

  std::fputs(Machine.Out.c_str(), stdout);
  if (O.Status != RunStatus::Halted) {
    std::fprintf(stderr, "forth_run: %s\n",
                 describeFault(Sys.Prog, O, *ActiveCtx).c_str());
    return 1;
  }
  if (ActiveCtx->DsDepth > 0) {
    std::fprintf(stderr, "( stack:");
    for (unsigned I = 0; I < ActiveCtx->DsDepth; ++I)
      std::fprintf(stderr, " %lld",
                   static_cast<long long>(ActiveCtx->DS[I]));
    std::fprintf(stderr, " )\n");
  }

  if (WantTrace) {
    trace::Trace T = trace::captureTrace(Sys, WordName);
    trace::ProgramStats S = trace::fig20Stats(T);
    std::fprintf(stderr,
                 "instructions %llu, stack loads/inst %.2f, sp updates/inst "
                 "%.2f, calls/inst %.3f\n",
                 static_cast<unsigned long long>(S.Insts), S.LoadsPerInst,
                 S.SpUpdatesPerInst, S.CallsPerInst);
  }
  if (WantStats)
    std::fputs(metrics::formatCounters(Stats).c_str(), stderr);
  return 0;
}
