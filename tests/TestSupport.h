//===-- tests/TestSupport.h - Registry-driven test plumbing ----*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the engine suites. Engine parameters come from the
/// registry, so a new engine is covered without editing a test.
/// ctest embeds gtest's "GetParam() = ..." text in each test name, so a
/// parameter that holds a pointer needs a printer: gtest's default output
/// for it is an address, which differs from build to build (the
/// test_names_stable case checks this). The printers below cover the
/// pointer and engine parameters the suites share.
///
//===----------------------------------------------------------------------===//

#ifndef SC_TESTS_TESTSUPPORT_H
#define SC_TESTS_TESTSUPPORT_H

#include "dispatch/EngineRegistry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

namespace sc::engine {

/// gtest printer: an engine prints as its canonical registry name.
inline void PrintTo(EngineId E, std::ostream *OS) { *OS << engineName(E); }

} // namespace sc::engine

namespace sc::workloads {

/// gtest printer: a workload prints as its name.
inline void PrintTo(const WorkloadInfo *W, std::ostream *OS) {
  *OS << W->Name;
}

} // namespace sc::workloads

namespace sc::tests {

/// The registry rows for which \p Keep holds, in table order.
template <typename Pred>
std::vector<engine::EngineId> registryEngines(Pred Keep) {
  std::vector<engine::EngineId> Out;
  size_t N = 0;
  const engine::EngineInfo *E = engine::allEngines(N);
  for (size_t I = 0; I < N; ++I)
    if (Keep(E[I]))
      Out.push_back(E[I].Id);
  return Out;
}

/// Every registry row, in table order.
inline std::vector<engine::EngineId> registryEngines() {
  return registryEngines([](const engine::EngineInfo &) { return true; });
}

/// The paper's four reference dispatch techniques (Caps.Reference).
inline std::vector<engine::EngineId> referenceEngines() {
  return registryEngines(
      [](const engine::EngineInfo &Row) { return Row.Caps.Reference; });
}

/// gtest instance name for an engine: its registry alias when it has one
/// (so static-greedy keeps the short name it had before the registry),
/// else its name, with '-' spelled '_' because gtest names allow only
/// alphanumerics and underscores.
inline std::string engineTestName(engine::EngineId E) {
  const engine::EngineInfo &Row = engine::engineInfo(E);
  std::string N = Row.Alias ? Row.Alias : Row.Name;
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

/// engineTestName as a gtest name generator for EngineId parameters.
inline std::string
engineParamName(const ::testing::TestParamInfo<engine::EngineId> &Info) {
  return engineTestName(Info.param);
}

/// Runs \p E on Ctx.Prog from instruction \p Entry through the one engine
/// entry point, honouring the step budget already set in Ctx.MaxSteps.
inline vm::RunOutcome runFrom(engine::EngineId E, vm::ExecContext &Ctx,
                              uint32_t Entry) {
  engine::RunOptions Opts;
  Opts.Entry = Entry;
  Opts.MaxSteps = Ctx.MaxSteps;
  return engine::runEngine(E, *Ctx.Prog, Ctx, Opts);
}

} // namespace sc::tests

#endif // SC_TESTS_TESTSUPPORT_H
