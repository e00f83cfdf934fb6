//===-- dynamic/Dynamic3Engine.h - 3-state dynamic engine ------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 13 machine made executable: dynamic stack caching
/// with two registers and three states (0, 1 or 2 top-of-stack items in
/// registers), per-state dispatch tables and table-lookup dispatch as in
/// Figure 19. Frequent primitives have hand-specialized copies per state;
/// infrequent ones exist only in state 0, and the other states' table
/// entries point to spill shims that flush the cache and re-dispatch -
/// the paper's "generate a transition into a state for which the
/// instruction is implemented" (Section 5, applied dynamically).
///
//===----------------------------------------------------------------------===//

#ifndef SC_DYNAMIC_DYNAMIC3ENGINE_H
#define SC_DYNAMIC_DYNAMIC3ENGINE_H

#include "vm/ExecContext.h"

namespace sc::dynamic {

/// Runs a prepared stream on the 3-state dynamically cached computed-goto
/// engine, observably equivalent to the reference engines. The stream is
/// [opcode index, operand] per instruction with static branch operands
/// pre-scaled to threaded offsets (vm::translateStream with null
/// handlers). This engine dispatches by opcode through per-state tables,
/// so the stream carries no addresses and one translation serves every
/// ExecContext. \p Ctx.Prog must be the program the stream was
/// translated from.
vm::RunOutcome runDynamic3Prepared(vm::ExecContext &Ctx, uint32_t Entry,
                                   const vm::Cell *Stream);

} // namespace sc::dynamic

#endif // SC_DYNAMIC_DYNAMIC3ENGINE_H
