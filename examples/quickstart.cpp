//===-- examples/quickstart.cpp - Five-minute tour -------------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shortest useful tour of the library:
///   1. compile a Forth program,
///   2. run it under several dispatch techniques,
///   3. statically stack-cache it and run the specialized code,
///   4. replay its trace through the paper's cache simulators.
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "staticcache/StaticEngine.h"
#include "staticcache/StaticSpec.h"
#include "trace/Capture.h"
#include "trace/Simulators.h"

#include <cstdio>

using namespace sc;
using namespace sc::vm;

int main() {
  // 1. A small Forth program: sum of the first 1000 squares.
  const char *Source =
      ": squares  0 1001 1 do i dup * + loop ; "
      ": main     squares . cr ;";
  auto Sys = forth::loadOrDie(Source);

  // 2. Run it under the four reference dispatch techniques.
  std::printf("-- engines --\n");
  for (auto K : {engine::EngineId::Switch, engine::EngineId::Threaded,
                 engine::EngineId::CallThreaded,
                 engine::EngineId::ThreadedTos}) {
    forth::RunReport R = Sys->runIsolated("main", K);
    std::printf("%-14s -> %s (%llu instructions): %s",
                engine::engineName(K), runStatusName(R.Outcome.Status),
                static_cast<unsigned long long>(R.Outcome.Steps),
                R.Output.c_str());
  }

  // ...and under the 3-state dynamically stack-cached engine (Fig. 13).
  {
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    engine::RunOptions Opts;
    Opts.Entry = Sys->entryOf("main");
    RunOutcome O =
        engine::runEngine(engine::EngineId::Dynamic3, Sys->Prog, Ctx, Opts);
    std::printf("%-14s -> %s (%llu instructions): %s", "dynamic-3state",
                runStatusName(O.Status),
                static_cast<unsigned long long>(O.Steps), Copy.Out.c_str());
  }

  // 3. Static stack caching: the compiler tracks the cache state, stack
  // manipulations disappear from the instruction stream.
  staticcache::SpecProgram SP = staticcache::compileStatic(Sys->Prog);
  {
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    RunOutcome O =
        staticcache::runStaticEngine(SP, Ctx, Sys->entryOf("main"));
    std::printf("%-14s -> %s (%llu instructions, %llu manipulations "
                "removed): %s",
                "static-cached", runStatusName(O.Status),
                static_cast<unsigned long long>(O.Steps),
                static_cast<unsigned long long>(SP.ManipsRemoved),
                Copy.Out.c_str());
  }

  // 4. Replay the trace through the paper's evaluation machinery.
  trace::Trace T = trace::captureTrace(*Sys, "main");
  std::printf("\n-- argument access overhead (cycles/instruction, the "
              "paper's cost model) --\n");
  std::printf("no caching         : %.3f\n",
              trace::simulateConstantK(T, 0).accessPerInst());
  std::printf("TOS in register    : %.3f\n",
              trace::simulateConstantK(T, 1).accessPerInst());
  std::printf("dynamic, 4 regs    : %.3f\n",
              trace::simulateDynamic(T, {4, 3}).accessPerInst());
  std::printf("static, 4 regs     : %.3f (plus %.0f%% of dispatches "
              "eliminated)\n",
              trace::simulateStatic(T, {4, 2, true}).accessPerInst(),
              100.0 *
                  (1.0 - static_cast<double>(
                             trace::simulateStatic(T, {4, 2, true}).Dispatches) /
                             static_cast<double>(T.size())));
  return 0;
}
