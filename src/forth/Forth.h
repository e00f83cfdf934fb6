//===-- forth/Forth.h - Forth system facade --------------------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The convenient top-level entry point: a System bundles a Vm, a Code, a
/// persistent top-level context and a Compiler. Load Forth source, then
/// run words under any engine. runIsolated executes against a copy of the
/// machine state so repeated runs (e.g. differential engine tests and
/// trace capture) see identical initial conditions.
///
//===----------------------------------------------------------------------===//

#ifndef SC_FORTH_FORTH_H
#define SC_FORTH_FORTH_H

#include "dispatch/EngineRegistry.h"
#include "forth/Compiler.h"
#include "vm/Code.h"
#include "vm/ExecContext.h"
#include "vm/Vm.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sc::forth {

/// Result of an isolated word execution.
struct RunReport {
  vm::RunOutcome Outcome;
  std::string Output;         ///< everything the program printed
  std::vector<vm::Cell> DS;   ///< final data stack, bottom first
};

/// A complete Forth system: data space, code, compiler, top-level stack.
class System {
public:
  vm::Vm Machine;
  vm::Code Prog;
  vm::ExecContext Top;
  Compiler Comp;

  System() : Top(Prog, Machine), Comp(Prog, Machine, Top) {}
  System(const System &) = delete;
  System &operator=(const System &) = delete;

  /// Loads (compiles + interprets) Forth source. Returns false and sets
  /// error() on failure.
  bool load(std::string_view Src) { return Comp.compileSource(Src); }

  /// Last error message from load().
  const std::string &error() const { return Comp.errorMessage(); }

  /// Entry index of word \p Name; asserts that the word exists.
  uint32_t entryOf(const std::string &Name) const;

  /// Runs word \p Name with engine \p E against a *copy* of the machine
  /// state (data space, output); the System itself is unchanged.
  RunReport runIsolated(const std::string &Name, engine::EngineId E,
                        uint64_t MaxSteps = UINT64_MAX) const;
};

/// Builds a System from source, aborting on compile errors (for tests,
/// benchmarks and workloads whose sources are known-good). Returns a
/// unique_ptr because System is not movable.
std::unique_ptr<System> loadOrDie(std::string_view Src);

} // namespace sc::forth

#endif // SC_FORTH_FORTH_H
