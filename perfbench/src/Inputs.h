//===-- perfbench/src/Inputs.h - Seeded benchmark inputs -------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs each benchmark workload feeds the system, and the
/// independent reference every result is checked against. Generated
/// programs come from a seed only; the system under test receives nothing
/// but their source text.
///
//===----------------------------------------------------------------------===//

#ifndef SC_PERFBENCH_INPUTS_H
#define SC_PERFBENCH_INPUTS_H

#include "dispatch/EngineRegistry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sc::bench {

/// One guest program: its source text and entry word.
struct Program {
  std::string Name;
  std::string Source;
  std::string Entry = "main";
  /// Output the program is known to print (the Fig. 20 checksums); empty
  /// for generated programs, whose reference comes from a reference run.
  std::string Expected;
};

/// The four Fig. 20 programs, in the paper's order.
std::vector<Program> paperSuite();

/// A seeded medium-size program (55,000-75,000 guest steps) mixing nested
/// loops, calls between colon definitions, variables and stack shuffles.
/// Every program halts without faulting and prints a checksum of its
/// variables. \p Seed fully determines the text; drafts outside the size
/// band are redrawn.
Program generateProgram(uint64_t Seed, const std::string &Name);

/// What a correct run of a program reports, as an sc-wire Result would
/// carry it.
struct Expect {
  uint8_t Stop = 0;   ///< session::StopKind
  uint8_t Status = 0; ///< vm::RunStatus
  uint64_t Steps = 0;
  uint64_t Slices = 0;
  std::string Output;
};

/// Runs \p P under engine::referenceEngine() in a plain VmSession at
/// \p SliceSteps with no checkpoints: the oracle for every service Result
/// and library run. Exits the process if \p P does not compile.
Expect referenceRun(const Program &P, uint64_t SliceSteps);

/// Whether a result matches its reference. Stop, Status and Output always
/// count; Steps and Slices only for engines without EngineCaps::Static.
bool matches(const Expect &Ref, engine::EngineId E, uint8_t Stop,
             uint8_t Status, uint64_t Steps, uint64_t Slices,
             const std::string &Output);

} // namespace sc::bench

#endif // SC_PERFBENCH_INPUTS_H
