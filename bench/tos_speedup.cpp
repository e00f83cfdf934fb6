//===-- bench/tos_speedup.cpp - Section 6: TOS-in-register speedup --------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper measures wall-clock speedup from keeping the top of stack in
/// a register: 11% on prims2x and 7% on cross (R3000; the other two
/// programs ran too fast to time). We time plain direct threading against
/// the TOS variant on all four workloads. Modern out-of-order cores hide
/// much of the memory traffic, so expect a smaller (possibly noisy)
/// effect than on a 1995 in-order machine; the simulated load/store
/// reduction (Fig. 21) is the architecture-independent statement.
///
//===----------------------------------------------------------------------===//

#include "bench/GBenchJson.h"
#include "dispatch/EngineRegistry.h"
#include "forth/Forth.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

using namespace sc;
using namespace sc::vm;

namespace {

std::vector<std::unique_ptr<forth::System>> &loadedSystems() {
  static auto Systems = [] {
    std::vector<std::unique_ptr<forth::System>> Out;
    size_t N;
    const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
    for (size_t I = 0; I < N; ++I)
      Out.push_back(forth::loadOrDie(W[I].Source));
    return Out;
  }();
  return Systems;
}

void runWorkload(benchmark::State &State, size_t Idx, engine::EngineId K) {
  forth::System &Sys = *loadedSystems()[Idx];
  uint32_t Entry = Sys.entryOf("main");
  // The scratch machine is reset outside the measured region: copying the
  // Vm (data space) and building the ExecContext (two 16K-cell stacks)
  // inside the timed loop used to be charged to the engine.
  Vm Copy = Sys.Machine;
  uint64_t Insts = 0;
  for (auto _ : State) {
    State.PauseTiming();
    Copy = Sys.Machine;
    ExecContext Ctx(Sys.Prog, Copy);
    State.ResumeTiming();
    engine::RunOptions Opts;
    Opts.Entry = Entry;
    RunOutcome O = engine::runEngine(K, Sys.Prog, Ctx, Opts);
    benchmark::DoNotOptimize(O.Steps);
    Insts += O.Steps;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}

#define SC_TOS_BENCH(Idx, Name)                                                \
  void BM_##Name##_threaded(benchmark::State &S) {                            \
    runWorkload(S, Idx, engine::EngineId::Threaded);                           \
  }                                                                            \
  void BM_##Name##_tos(benchmark::State &S) {                                 \
    runWorkload(S, Idx, engine::EngineId::ThreadedTos);                        \
  }                                                                            \
  BENCHMARK(BM_##Name##_threaded)->MinTime(sc::bench::benchMinTime(0.2));     \
  BENCHMARK(BM_##Name##_tos)->MinTime(sc::bench::benchMinTime(0.2));

SC_TOS_BENCH(0, compile)
SC_TOS_BENCH(1, gray)
SC_TOS_BENCH(2, prims2x)
SC_TOS_BENCH(3, cross)
#undef SC_TOS_BENCH

} // namespace

SC_GBENCH_JSON_MAIN("tos_speedup")
