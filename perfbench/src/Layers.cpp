//===-- perfbench/src/Layers.cpp - Per-layer unit costs -------------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Stats.h"

#include "forth/Forth.h"
#include "prepare/Prepare.h"
#include "sched/SessionScheduler.h"
#include "service/Protocol.h"
#include "session/VmSession.h"
#include "snapshot/Snapshot.h"

#include <memory>

using namespace sc;
using namespace sc::bench;

namespace {

/// Programs per catalog whose prepare, snapshot and job-pool costs are
/// sampled (a fresh-code catalog holds hundreds).
constexpr size_t CostSample = 16;

/// Repeats \p Timed (which returns the nanoseconds it measured) at least
/// three times and until 3 ms of samples accumulated, capped at 200.
template <typename F> std::vector<double> sample(F Timed) {
  std::vector<double> V;
  double Total = 0;
  while (V.size() < 3 || (Total < 3e6 && V.size() < 200)) {
    V.push_back(Timed());
    Total += V.back();
  }
  return V;
}

double minOf(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

std::unique_ptr<forth::System> compile(const Program &P, double *Ns) {
  const uint64_t T0 = nowNs();
  auto Sys = std::make_unique<forth::System>();
  const bool Ok = Sys->load(P.Source);
  if (Ns)
    *Ns = static_cast<double>(nowNs() - T0);
  if (!Ok) {
    std::fprintf(stderr, "perfbench: %s does not compile: %s\n",
                 P.Name.c_str(), Sys->error().c_str());
    std::exit(1);
  }
  return Sys;
}

/// One whole-program runPrepared on a fresh machine copy (the copy is not
/// timed). Returns nanoseconds; \p Out receives the outcome.
double oneShot(const forth::System &Sys, const prepare::PreparedCode &PC,
               uint32_t Entry, vm::RunOutcome *Out) {
  vm::Vm M = Sys.Machine;
  vm::ExecContext Ctx(PC.program(), M);
  const uint64_t T0 = nowNs();
  const vm::RunOutcome O = prepare::runPrepared(PC, Ctx, Entry);
  const double Ns = static_cast<double>(nowNs() - T0);
  if (Out)
    *Out = O;
  return Ns;
}

} // namespace

LayerCosts sc::bench::measureLayers(const Catalog &C,
                                    const std::vector<JobSpec> &Pairs,
                                    uint64_t SliceSteps, uint64_t Cadence) {
  LayerCosts L;
  std::map<uint32_t, std::vector<engine::EngineId>> ByProg;
  for (const JobSpec &J : Pairs) {
    auto &V = ByProg[J.Prog];
    if (std::find(V.begin(), V.end(), J.Engine) == V.end())
      V.push_back(J.Engine);
  }
  const std::vector<engine::EngineId> All = engine::promotionLadder(false);

  std::vector<double> Compile, Serialize, Restore, Bytes, Create, Recycle;
  std::vector<double> Prep[engine::NumEngineIds];
  double ExtraNs = 0;
  uint64_t ExtraSlices = 0;
  size_t Sampled = 0;

  prepare::PrepareCache SchedCache;
  sched::SchedConfig SC;
  SC.Workers = 1;
  SC.SliceSteps = SliceSteps;
  SC.Cache = &SchedCache;
  sched::SessionScheduler Sched(SC);
  const sched::TenantId Tenant = Sched.addTenant("replay");

  for (const auto &[P, Engines] : ByProg) {
    const Program &Pr = C.Programs[P];
    std::unique_ptr<forth::System> Sys;
    Compile.push_back(median(sample([&] {
      double Ns = 0;
      Sys = compile(Pr, &Ns);
      return Ns;
    })));
    const bool Sample = Sampled++ < CostSample;

    if (Sample)
      for (const engine::EngineId E : All)
        Prep[static_cast<unsigned>(E)].push_back(median(sample([&] {
          const uint64_t T0 = nowNs();
          const auto PC = prepare::prepareCode(Sys->Prog, E);
          return static_cast<double>(nowNs() - T0);
        })));

    session::SessionPolicy Pol;
    Pol.SliceSteps = SliceSteps;
    for (const engine::EngineId E : Engines) {
      const auto PC = prepare::prepareCode(Sys->Prog, E);
      const uint32_t Entry = PC->entryOf(Pr.Entry);
      PairCost &PCost = L.Pairs[PairKey{P, E}];
      std::vector<double> One, Sess;
      vm::RunOutcome O;
      double Total = 0;
      while (One.size() < 3 || (Total < 6e6 && One.size() < 200)) {
        One.push_back(oneShot(*Sys, *PC, Entry, &O));
        vm::Vm M = Sys->Machine;
        session::VmSession S(PC, M, Pol);
        const uint64_t T0 = nowNs();
        const session::SessionResult R = S.run(Entry);
        Sess.push_back(static_cast<double>(nowNs() - T0));
        Total += One.back() + Sess.back();
        PCost.Slices = R.Slices;
      }
      PCost.OneShotNs = minOf(One);
      PCost.SessionNs = minOf(Sess);
      PCost.Steps = O.Steps;
      ExtraNs += std::max(0.0, PCost.SessionNs - PCost.OneShotNs);
      ExtraSlices += PCost.Slices;

      vm::Vm M = Sys->Machine;
      session::SessionPolicy CPol = Pol;
      CPol.CheckpointEverySlices = Cadence;
      session::VmSession S(PC, M, CPol);
      S.run(Entry);
      PCost.Checkpoints = S.counters().Checkpoints;
    }

    if (!Sample)
      continue;

    // Snapshot costs on a mid-run state: halfway through the program.
    {
      vm::Vm M = Sys->Machine;
      session::SessionPolicy FPol = Pol;
      FPol.FuelSteps = std::max<uint64_t>(1, C.Refs[P].Steps / 2);
      session::VmSession S(
          prepare::prepareCode(Sys->Prog, engine::referenceEngine()), M, FPol);
      const session::SessionResult R = S.run(Pr.Entry);
      snapshot::MachineState MS;
      MS.Pc = R.ResumePc;
      std::vector<uint8_t> Snap;
      Serialize.push_back(median(sample([&] {
        const uint64_t T0 = nowNs();
        Snap = snapshot::serialize(S.context(), M, MS);
        return static_cast<double>(nowNs() - T0);
      })));
      Bytes.push_back(static_cast<double>(Snap.size()));
      vm::Vm M2(0);
      vm::ExecContext Ctx2(Sys->Prog, M2);
      Restore.push_back(median(sample([&] {
        snapshot::MachineState Out;
        const uint64_t T0 = nowNs();
        const snapshot::SnapshotError E =
            snapshot::restore(Snap.data(), Snap.size(), Sys->Prog, Ctx2, M2,
                              Out);
        const double Ns = static_cast<double>(nowNs() - T0);
        if (E != snapshot::SnapshotError::None) {
          std::fprintf(stderr, "perfbench: restore of %s failed: %s\n",
                       Pr.Name.c_str(), snapshot::snapshotErrorName(E));
          std::exit(1);
        }
        return Ns;
      })));
    }

    // Job-pool costs: createJob with the translation already cached (its
    // own work: machine copy plus session), then recycle of that job.
    {
      const engine::EngineId E = Engines.front();
      SchedCache.getOrPrepare(Sys->Prog, E);
      sched::JobSpec Spec;
      Spec.Entry = Sys->entryOf(Pr.Entry);
      sched::Job *J = nullptr;
      uint64_t T0 = nowNs();
      J = Sched.createJob(Tenant, Sys->Prog, E, Sys->Machine, Spec);
      Create.push_back(static_cast<double>(nowNs() - T0));
      Recycle.push_back(median(sample([&] {
        const uint64_t R0 = nowNs();
        Sched.recycle(J, Sys->Machine, Spec);
        return static_cast<double>(nowNs() - R0);
      })));
    }
  }

  for (unsigned I = 0; I < engine::NumEngineIds; ++I)
    L.PrepareUs[I] = mean(Prep[I]) / 1e3;
  L.CompileUs = mean(Compile) / 1e3;
  L.SliceNs = ExtraSlices ? ExtraNs / static_cast<double>(ExtraSlices) : 0;
  L.SerializeUs = median(Serialize) / 1e3;
  L.RestoreUs = median(Restore) / 1e3;
  L.SnapshotBytes = median(Bytes);
  L.CreateUs = median(Create) / 1e3;
  L.RecycleUs = median(Recycle) / 1e3;
  L.Sampled = Serialize.size();
  return L;
}

std::vector<std::vector<double>>
sc::bench::engineNsPerStep(const Catalog &C,
                           const std::vector<engine::EngineId> &Ladder) {
  std::vector<std::vector<double>> Out;
  for (size_t P = 0; P < C.Programs.size(); ++P) {
    const auto Sys = compile(C.Programs[P], nullptr);
    std::vector<double> Row;
    for (const engine::EngineId E : Ladder) {
      const auto PC = prepare::prepareCode(Sys->Prog, E);
      const uint32_t Entry = PC->entryOf(C.Programs[P].Entry);
      const double Ns = std::min(oneShot(*Sys, *PC, Entry, nullptr),
                                 oneShot(*Sys, *PC, Entry, nullptr));
      Row.push_back(Ns / static_cast<double>(C.Refs[P].Steps));
    }
    Out.push_back(std::move(Row));
  }
  return Out;
}

std::vector<double> sc::bench::decodeSamplesNs(
    const std::vector<std::vector<uint8_t>> &Frames) {
  std::vector<double> V;
  for (const auto &F : Frames) {
    service::Frame Out;
    const uint64_t T0 = nowNs();
    service::decodeFrame(F, Out);
    V.push_back(static_cast<double>(nowNs() - T0));
  }
  return V;
}

std::vector<double> sc::bench::encodeSamplesNs(
    const std::vector<std::vector<uint8_t>> &Frames) {
  std::vector<double> V;
  for (const auto &F : Frames) {
    service::Frame In;
    if (service::decodeFrame(F, In) != service::ServiceError::None)
      continue;
    const uint64_t T0 = nowNs();
    const std::vector<uint8_t> Bytes = service::encodeFrame(In);
    V.push_back(static_cast<double>(nowNs() - T0));
  }
  return V;
}
