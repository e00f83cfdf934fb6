//===-- dispatch/Engines.h - The four reference engines --------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's three dispatch techniques (Section 2.1) plus the simplest
/// form of stack caching (Section 2.3, "keeping the top of stack in a
/// register"), each as a complete engine over the same instruction set:
///
///  * switch dispatch       - giant switch (the paper's Fig. 2)
///  * direct threading      - GNU C labels-as-values (Fig. 8)
///  * direct call threading - VM registers in static variables (Fig. 3)
///  * threading + TOS       - top-of-stack in a register (Fig. 12; the
///                            "constant 1 item" scheme)
///
/// All engines execute the same verified Code against an ExecContext and
/// must produce identical observable results; the test suite checks this
/// differentially on every workload. Callers select an engine by
/// engine::EngineId and run it through engine::runEngine; the entry
/// points below are what prepare::prepareCode and prepare::runPrepared
/// are built from.
///
//===----------------------------------------------------------------------===//

#ifndef SC_DISPATCH_ENGINES_H
#define SC_DISPATCH_ENGINES_H

#include "vm/ExecContext.h"

namespace sc::dispatch {

/// Switch dispatch (Fig. 2): one big switch in a loop; virtual machine
/// registers live in locals. It dispatches straight off Ctx.Prog, so it
/// needs no prepared stream: prepare::runPrepared calls it on the
/// prepared snapshot, and the Forth compiler calls it on snippets it
/// interprets at compile time.
vm::RunOutcome runSwitchEngine(vm::ExecContext &Ctx, uint32_t Entry);

/// \name Prepared-stream entry points
///
/// A prepared stream is the engine's [dispatch, operand] two-cell form
/// with static branch/call operands pre-resolved to threaded offsets
/// (vm::translateStream). The prepare subsystem (src/prepare) translates
/// once per (Code, engine) and reuses the stream across runs and
/// contexts. The handler tables hold one dispatch cell per opcode —
/// label addresses for the computed-goto engines, primitive function
/// pointers for call threading — obtained from a one-time call into the
/// engine core (the classic "run the engine in table-export mode" trick)
/// and cached by the engine for the life of the process.
/// @{

/// The direct-threading handler table.
const vm::Cell *threadedHandlers();

/// The TOS-in-register handler table.
const vm::Cell *threadedTosHandlers();

/// The call-threading primitive table.
const vm::Cell *callThreadedHandlers();

/// Runs a stream produced with threadedHandlers(). \p Ctx.Prog must be
/// the program the stream was translated from.
vm::RunOutcome runThreadedPrepared(vm::ExecContext &Ctx, uint32_t Entry,
                                   const vm::Cell *Stream);

/// Runs a stream produced with threadedTosHandlers().
vm::RunOutcome runThreadedTosPrepared(vm::ExecContext &Ctx, uint32_t Entry,
                                      const vm::Cell *Stream);

/// Runs a stream produced with callThreadedHandlers(). Not reentrant:
/// the VM registers live in static storage.
vm::RunOutcome runCallThreadedPrepared(vm::ExecContext &Ctx, uint32_t Entry,
                                       const vm::Cell *Stream);

/// @}

} // namespace sc::dispatch

#endif // SC_DISPATCH_ENGINES_H
