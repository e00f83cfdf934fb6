//===-- dispatch/SwitchEngine.cpp - Switch dispatch (Fig. 2) --------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "dispatch/Engines.h"
#include "dispatch/SwitchEngineImpl.h"

using namespace sc;
using namespace sc::vm;

RunOutcome sc::dispatch::runSwitchEngine(ExecContext &Ctx, uint32_t Entry) {
  NullTracer Tr;
  return runSwitchImpl(Ctx, Entry, Tr);
}
