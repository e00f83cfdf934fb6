//===-- regvm/RegVm.h - Register-IR translation and engine -----*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A prepare-time translation from stack Code to a register-based IR, and
/// a direct-threaded interpreter for it: the logical endpoint of the
/// paper's stack-caching line. Where the static cache keeps the top one
/// or two stack items in machine registers and reconciles cache states at
/// block boundaries, this pass lifts the idea to unbounded state: an
/// abstract-stack walk over each basic block maps every intermediate
/// stack slot to a virtual register, dissolves pure stack manipulations
/// (dup/swap/over/drop become slot renames or disappear), folds literals
/// into three-operand instructions, and reconciles the abstract state
/// back to the architectural data stack at every control-flow join —
/// exactly the static cache's state-0-at-joins rule, with the "cache"
/// grown to the whole block-local stack.
///
/// Contracts (see docs/TRAPS.md):
///   - Every block entry is canonical: register state exists only
///     between two control transfers, so StepLimit stops (taken only at
///     entries, like the static engines' safe points) and faults always
///     leave ExecContext with fully architectural stacks.
///   - Stack-limit checks that the dissolved ops would have performed
///     are emitted as explicit check instructions at their original
///     program positions (eliminated only when a prior check in the same
///     block dominates them), so trap order, trap PC and trap-time stack
///     contents are bit-identical to the reference engine — the regvm
///     flavor never defers an overflow.
///   - FaultInfo PCs are mapped back to original instruction indices
///     through RegToOrig (the SpecToOrig analogue); Exit return addresses
///     are validated against OrigToReg like the static engines validate
///     against OrigToSpec.
///
//===----------------------------------------------------------------------===//

#ifndef SC_REGVM_REGVM_H
#define SC_REGVM_REGVM_H

#include "vm/Code.h"
#include "vm/ExecContext.h"
#include "vm/RunResult.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sc::regvm {

/// Register-IR operations. One handler per row; the threaded stream
/// stores the handler's label address, so this enum is also the handler
/// index space (NumRegOps entries).
enum RegOp : uint16_t {
  // Deferred stack-limit checks for dissolved/folded ops: W1 = threshold,
  // trap PC and spill plan come from the instruction's side tables.
  RvCheckU, ///< trap StackUnderflow unless entry depth >= W1
  RvCheckO, ///< trap StackOverflow if entry depth + W1 > capacity
  // Three-operand ALU: W1 = destination register, W2/W3 = operand slots.
  RvAdd,
  RvSub,
  RvMul,
  RvDiv,
  RvMod,
  RvAnd,
  RvOr,
  RvXor,
  RvLshift,
  RvRshift,
  RvMin,
  RvMax,
  RvEq,
  RvNe,
  RvLt,
  RvGt,
  RvLe,
  RvGe,
  RvULt,
  // Two-operand ALU: W1 = destination register, W2 = operand slot.
  RvNegate,
  RvInvert,
  RvAbs,
  RvOnePlus,
  RvOneMinus,
  RvTwoStar,
  RvTwoSlash,
  RvCells,
  RvZeroEq,
  RvZeroNe,
  RvZeroLt,
  RvZeroGt,
  // Data space: W1 = destination (loads), W2 = address, W3 = value.
  RvFetch,
  RvCFetch,
  RvStore,
  RvCStore,
  RvPlusStore,
  // Output: W2 = value / address, W3 = length.
  RvEmit,
  RvDot,
  RvCr,
  RvSpace,
  RvType,
  // Return stack (always architectural): W1 = destination, W2/W3 = values.
  RvToR,
  RvRFrom,
  RvRFetch,
  RvDoSetup,
  RvLoopI,
  RvLoopJ,
  RvUnloop,
  // Control (each spills the abstract state before transferring): W1 =
  // target register-instruction index (pre-scaled in the stream), W2 =
  // condition / step slot, or the original return address for RvCall.
  RvBranch,
  RvQBranch,
  RvLoopBr,
  RvPlusLoopBr,
  RvCall,
  RvExit,
  RvHalt,
  RvSync, ///< spill at a fall-through join, no transfer
};

/// Number of RegOp handlers (RvSync is the last row).
inline constexpr unsigned NumRegOps = RvSync + 1;

/// Invalid index sentinel for OrigToReg/EntryOrig (mirrors
/// staticcache::InvalidSpec).
inline constexpr uint32_t InvalidReg = UINT32_MAX;

/// "No spill needed" sentinel for the per-instruction flush-plan ids:
/// either the trap site cannot be reached with live registers or the
/// abstract state is the identity (all slots already architectural).
inline constexpr uint32_t NoFlush = UINT32_MAX;

/// Operand-slot descriptor encoding, stored in RegInst::W2/W3 and in
/// flush plans. Low two bits are the kind, the rest the index:
///   tag 0: virtual register index
///   tag 1: constant-pool index (folded literal)
///   tag 2: architectural cell, index counts down from the entry TOS
enum class SlotTag : uint8_t { Reg = 0, Const = 1, Mem = 2 };

inline vm::Cell encodeSlot(SlotTag T, uint64_t Idx) {
  return static_cast<vm::Cell>((Idx << 2) | static_cast<uint64_t>(T));
}

/// True for the RegOps whose W1 is a branch target that the stream
/// translation pre-scales to a threaded offset.
inline bool regIsBranchLike(uint16_t H) {
  return H == RvBranch || H == RvQBranch || H == RvLoopBr ||
         H == RvPlusLoopBr || H == RvCall;
}

/// One register-IR instruction.
struct RegInst {
  uint16_t Handler = RvHalt; ///< RegOp
  vm::Cell W1 = 0;
  vm::Cell W2 = 0;
  vm::Cell W3 = 0;
};

/// A register-IR translation of one Code, plus the side tables the
/// engine and the fault contract need. Immutable after compile.
struct RegProgram {
  std::vector<RegInst> Insts;

  /// Per instruction: the original instruction index it derives from
  /// (the SpecToOrig analogue; checks map to the op whose check they
  /// carry, spills to the join they reconcile).
  std::vector<uint32_t> RegToOrig;
  /// Per instruction: flush plan describing the abstract state before
  /// the op consumes its inputs (return-stack and deferred-check traps
  /// fire here), or NoFlush.
  std::vector<uint32_t> PreFlush;
  /// Per instruction: flush plan after inputs are consumed and before
  /// results are produced (DivByZero/BadMemAccess fire here; control ops
  /// use it as their block-end spill), or NoFlush.
  std::vector<uint32_t> PostFlush;
  /// Per instruction: the original leader PC when this instruction is a
  /// canonical block entry (the resume PC a StepLimit stop reports),
  /// InvalidReg otherwise.
  std::vector<uint32_t> EntryOrig;

  /// Per original PC: entry instruction index when the PC is a basic-
  /// block leader (the only legal entry points), InvalidReg otherwise.
  std::vector<uint32_t> OrigToReg;

  /// Folded literals referenced by Const slots.
  std::vector<vm::Cell> ConstPool;
  /// Flush plans, deduplicated: [cells-consumed, slot-count, slots...].
  /// Executing a plan pops cells-consumed entry cells and stores the
  /// evaluated slots in their place (bottom first).
  std::vector<vm::Cell> FlushPool;

  uint32_t MaxRegs = 0;       ///< register file cells one run needs
  uint32_t MaxFlushSlots = 0; ///< scratch cells the widest plan needs
  uint32_t OrigInsts = 0;     ///< size of the translated program

  // Prepare-time statistics (the SC_STATS runtime counters cover
  // dispatches; these describe what the translation achieved).
  uint32_t ManipsDissolved = 0; ///< stack-manipulation ops with no handler
  uint32_t LitsAbsorbed = 0;    ///< literals folded into operand slots
  uint32_t ConstsFolded = 0;    ///< ALU ops evaluated at translate time
  uint32_t RegsMaterialized = 0; ///< values assigned to virtual registers
  uint32_t ChecksEmitted = 0;    ///< RvCheckU/RvCheckO instructions
  uint32_t ChecksEliminated = 0; ///< checks a dominating check covered
  uint32_t SyncsEmitted = 0;     ///< RvSync spills at fall-through joins
};

/// True when register-instruction index \p I is a canonical block entry.
inline bool isRegEntry(const RegProgram &RP, uint64_t I) {
  return I < RP.EntryOrig.size() && RP.EntryOrig[I] != InvalidReg;
}

/// Translates \p Prog to register IR. The program should satisfy
/// Code::verify (callers prepare only verified programs); translation
/// itself never executes anything.
RegProgram compileRegProgram(const vm::Code &Prog);

/// The engine's handler label table (one-time; same pattern as
/// staticHandlerCells).
const vm::Cell *regHandlerCells();

/// Renders \p RP into a threaded stream of 4 cells per instruction:
/// [handler, W1, W2, W3], with branch-like W1 pre-scaled by 4. \p Out
/// must hold 4 * RP.Insts.size() cells. Counts one stream translation.
void translateRegStream(const RegProgram &RP, const vm::Cell *Handlers,
                        vm::Cell *Out);

/// Runs prepared stream \p Stream (see translateRegStream) against
/// \p Ctx from original instruction index \p OrigEntry, which must be a
/// block leader (OrigToReg[OrigEntry] != InvalidReg).
vm::RunOutcome runRegPrepared(const RegProgram &RP, vm::ExecContext &Ctx,
                              uint32_t OrigEntry, const vm::Cell *Stream);

/// Human-readable dump of the register IR (one instruction per line,
/// with entry markers, operand slots and flush plans decoded).
std::string disasmReg(const RegProgram &RP);

/// Two-column dump: every original instruction on the left, the
/// register instructions it translated to on the right. \p Prog must be
/// the program \p RP was compiled from.
std::string disasmSideBySide(const vm::Code &Prog, const RegProgram &RP);

} // namespace sc::regvm

#endif // SC_REGVM_REGVM_H
