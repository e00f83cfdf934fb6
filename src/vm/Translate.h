//===-- vm/Translate.h - Code -> prepared stream translation ---*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one translation step every threaded engine shares: turning a Code
/// into the uniform two-cell [dispatch, operand] stream. The prepared
/// form pre-resolves static branch/call targets to *threaded offsets*
/// (2 * instruction index), so taken branches load the operand straight
/// into the instruction pointer instead of rescaling with Base + 2*T on
/// every transfer. Only Exit still rescales (its return address is
/// guest-writable and must stay in instruction-index units on the return
/// stack; see SC_JUMP_DYN in dispatch/InstBodies.inc).
///
/// A process-wide translation counter lives here too, so benches and CI
/// can prove that a warm (cached) run performs zero translations while
/// a run without a prepared handle performs one.
///
//===----------------------------------------------------------------------===//

#ifndef SC_VM_TRANSLATE_H
#define SC_VM_TRANSLATE_H

#include "vm/Code.h"

#include <atomic>

namespace sc::vm {

/// Process-wide count of Code/SpecProgram -> stream translations, bumped
/// by every engine's translation step (a temporary per-run prepare and a
/// held one alike). Always maintained — it is one relaxed add per *translation*,
/// not per instruction, so it costs nothing on the execution hot path.
inline std::atomic<uint64_t> &streamTranslationCounter() {
  static std::atomic<uint64_t> Counter{0};
  return Counter;
}

/// Reads the translation counter.
inline uint64_t streamTranslations() {
  return streamTranslationCounter().load(std::memory_order_relaxed);
}

/// Records one completed translation.
inline void noteStreamTranslation() {
  streamTranslationCounter().fetch_add(1, std::memory_order_relaxed);
}

/// Translates \p Prog into a prepared two-cell stream. \p Out must hold
/// 2 * Prog.size() cells. Cell 2i holds Handlers[opcode] when \p Handlers
/// is non-null (direct/call threading) or the raw opcode index when it is
/// null (table-lookup dispatch); cell 2i+1 holds the operand, pre-scaled
/// to a threaded offset for branch-like instructions.
inline void translateStream(const Code &Prog, const Cell *Handlers,
                            Cell *Out) {
  const size_t N = Prog.Insts.size();
  for (size_t I = 0; I < N; ++I) {
    const Inst &In = Prog.Insts[I];
    const unsigned Op = static_cast<unsigned>(In.Op);
    Out[2 * I] = Handlers ? Handlers[Op] : static_cast<Cell>(Op);
    Out[2 * I + 1] = isBranchLike(In.Op) ? In.Operand * 2 : In.Operand;
  }
  noteStreamTranslation();
}

} // namespace sc::vm

#endif // SC_VM_TRANSLATE_H
