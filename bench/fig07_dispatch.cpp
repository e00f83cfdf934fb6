//===-- bench/fig07_dispatch.cpp - Figure 7: dispatch cost ----------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 7 reports per-dispatch cycle counts on the R3000/R4000: direct
/// threading 3-4/5-7, switch 12-13/18-19, call threading 9-10/17-18 (and
/// the text explains call threading usually loses to switch because the
/// VM registers live in memory). On a modern superscalar machine the
/// absolute numbers differ wildly; the *ordering* - direct threading
/// fastest, switch and call threading clearly slower - is the
/// reproducible shape. We run a dispatch-dominated program (straight-line
/// cheap primitives) and report ns per executed VM instruction.
///
//===----------------------------------------------------------------------===//

#include "bench/GBenchJson.h"
#include "dispatch/EngineRegistry.h"
#include "forth/Forth.h"

#include <benchmark/benchmark.h>

using namespace sc;
using namespace sc::vm;

namespace {

/// A program dominated by dispatch: blocks of 1+ in a counted loop.
forth::System &dispatchProgram() {
  static auto Sys = [] {
    std::string Block = ": blk ";
    for (int I = 0; I < 50; ++I)
      Block += "1+ ";
    Block += "; : main 0 20000 0 do blk loop drop ;";
    return forth::loadOrDie(Block);
  }();
  return *Sys;
}

void runEngineBench(benchmark::State &State, engine::EngineId K) {
  forth::System &Sys = dispatchProgram();
  uint32_t Entry = Sys.entryOf("main");
  // Scratch machine reset outside the measured region (see tos_speedup).
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
  State.counters["ns/inst"] = benchmark::Counter(
      static_cast<double>(Insts), benchmark::Counter::kIsRate |
                                      benchmark::Counter::kInvert);
}

void BM_DirectThreading(benchmark::State &State) {
  runEngineBench(State, engine::EngineId::Threaded);
}
void BM_Switch(benchmark::State &State) {
  runEngineBench(State, engine::EngineId::Switch);
}
void BM_CallThreading(benchmark::State &State) {
  runEngineBench(State, engine::EngineId::CallThreaded);
}

BENCHMARK(BM_DirectThreading)->MinTime(sc::bench::benchMinTime(0.2));
BENCHMARK(BM_Switch)->MinTime(sc::bench::benchMinTime(0.2));
BENCHMARK(BM_CallThreading)->MinTime(sc::bench::benchMinTime(0.2));

} // namespace

SC_GBENCH_JSON_MAIN("fig07_dispatch")
