//===-- staticcache/StaticEngine.h - Specialized code engine ---*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes the output of the static stack-caching pass with plain direct
/// threading: the cache state was resolved at compile time, so dispatch is
/// a single indirect goto with no per-state tables - the paper's key
/// performance argument for static over dynamic caching (Section 5).
///
//===----------------------------------------------------------------------===//

#ifndef SC_STATICCACHE_STATICENGINE_H
#define SC_STATICCACHE_STATICENGINE_H

#include "staticcache/StaticSpec.h"
#include "vm/ExecContext.h"

namespace sc::staticcache {

/// Runs specialized program \p SP against \p Ctx, starting at the
/// *original* instruction index \p OrigEntry (must be a basic-block
/// leader, e.g. a word entry). Translates \p SP into a stream for this
/// run only. This is the way to run a SpecProgram compiled with
/// non-default StaticOptions; the registry's static flavors run through
/// engine::runEngine like every other engine.
vm::RunOutcome runStaticEngine(const SpecProgram &SP, vm::ExecContext &Ctx,
                               uint32_t OrigEntry);

/// True if specialized handler index \p Handler carries a branch-target
/// operand (a spec index): a state copy of a branch-like VM opcode.
/// Micro-instructions never carry branch targets.
inline bool specIsBranchLike(unsigned Handler) {
  return Handler < 4 * vm::NumOpcodes &&
         vm::isBranchLike(static_cast<vm::Opcode>(Handler % vm::NumOpcodes));
}

/// The specialized engine's handler label table (one dispatch cell per
/// handler index), obtained from a one-time call into the engine core.
const vm::Cell *staticHandlerCells();

/// Translates \p SP into a prepared two-cell stream [handler, operand]
/// with branch-target operands pre-scaled to threaded offsets. \p Out
/// must hold 2 * SP.Insts.size() cells; \p Handlers comes from
/// staticHandlerCells(). Bumps vm::streamTranslationCounter().
void translateSpecStream(const SpecProgram &SP, const vm::Cell *Handlers,
                         vm::Cell *Out);

/// Runs a stream produced with translateSpecStream() over \p SP.
/// \p Ctx.Prog must be the original program \p SP was compiled from.
vm::RunOutcome runStaticPrepared(const SpecProgram &SP, vm::ExecContext &Ctx,
                                 uint32_t OrigEntry, const vm::Cell *Stream);

} // namespace sc::staticcache

#endif // SC_STATICCACHE_STATICENGINE_H
