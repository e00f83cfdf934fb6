//===-- superinst/Superinst.h - Superinstruction combining -----*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 2.2's other lever on interpreter performance: "Combining
/// often-used instruction sequences into one instruction is a popular
/// technique, as well as specializing an instruction for a frequent
/// constant argument (eliminating the argument fetch)". This pass does
/// both at once: adjacent `lit x` + consumer pairs become single
/// superinstructions carrying x as their operand (`lit+`, `lit-`,
/// `lit<`, `lit=`, `lit@`, `lit!`), chosen from the measured opcode mix
/// of the benchmark programs (bench/instruction_frequency). A pair is
/// only fused when no branch targets its second instruction.
///
/// The combined code runs on every engine in the project unchanged -
/// superinstructions are ordinary opcodes with static stack effects, so
/// the stack-caching machinery composes with them, which is exactly the
/// paper's point that semantic content and argument-access optimization
/// are independent axes.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPERINST_SUPERINST_H
#define SC_SUPERINST_SUPERINST_H

#include "vm/Code.h"

namespace sc::superinst {

/// Result of the combining pass.
struct CombineResult {
  vm::Code Combined;
  uint64_t PairsCombined = 0; ///< static pair sites fused
};

/// Returns \p Prog with every fusable `lit` + consumer pair replaced by
/// one superinstruction; branch targets and the word table are remapped.
CombineResult combineSuperinstructions(const vm::Code &Prog);

} // namespace sc::superinst

#endif // SC_SUPERINST_SUPERINST_H
