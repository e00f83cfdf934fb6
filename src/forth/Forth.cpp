//===-- forth/Forth.cpp - Forth system facade -----------------------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"

#include "support/Assert.h"

#include <cstdio>

using namespace sc;
using namespace sc::forth;
using namespace sc::vm;

uint32_t System::entryOf(const std::string &Name) const {
  const Word *W = Prog.findWord(Name);
  SC_ASSERT(W, "word not found");
  return W->Entry;
}

RunReport System::runIsolated(const std::string &Name, engine::EngineId E,
                              uint64_t MaxSteps) const {
  const Word *W = Prog.findWord(Name);
  SC_ASSERT(W, "word not found");
  Vm Copy = Machine; // isolate data space and output
  Copy.resetOutput();
  ExecContext Ctx(Prog, Copy);
  engine::RunOptions Opts;
  Opts.Entry = W->Entry;
  Opts.MaxSteps = MaxSteps;
  RunReport R;
  R.Outcome = engine::runEngine(E, Prog, Ctx, Opts);
  R.Output = Copy.Out;
  R.DS.assign(Ctx.DS.begin(), Ctx.DS.begin() + Ctx.DsDepth);
  return R;
}

RunOutcome System::runInPlace(const std::string &Name, engine::EngineId E,
                              uint64_t MaxSteps) {
  const Word *W = Prog.findWord(Name);
  SC_ASSERT(W, "word not found");
  ExecContext Ctx(Prog, Machine);
  engine::RunOptions Opts;
  Opts.Entry = W->Entry;
  Opts.MaxSteps = MaxSteps;
  return engine::runEngine(E, Prog, Ctx, Opts);
}

std::unique_ptr<System> sc::forth::loadOrDie(std::string_view Src) {
  auto Sys = std::make_unique<System>();
  if (!Sys->load(Src)) {
    std::fprintf(stderr, "forth load error: %s\n", Sys->error().c_str());
    sc::fatalError("loadOrDie failed");
  }
  std::string VerifyErr;
  if (!Sys->Prog.verify(&VerifyErr)) {
    std::fprintf(stderr, "code verify error: %s\n", VerifyErr.c_str());
    sc::fatalError("loadOrDie produced malformed code");
  }
  return Sys;
}
