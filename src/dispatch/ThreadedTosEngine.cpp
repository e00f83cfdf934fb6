//===-- dispatch/ThreadedTosEngine.cpp - Threading + TOS reg (Fig. 12) ----===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct threading with the top of stack kept in a (hopefully) machine
/// register: the "constant 1 item in registers" scheme of Section 2.3,
/// which the paper measures at 7%-11% wall-clock speedup on an R3000.
///
/// Stack layout: with logical depth D, items 0..D-2 (bottom to
/// next-on-top) live in Buf[1..D-1], the top item lives in the local Tos,
/// and Sp == Buf + D. Buf[0] is a junk slot: pushing onto an empty stack
/// writes the (meaningless) Tos there and popping the last item reloads
/// junk into Tos, so push and pop stay branch-free.
///
/// Split prepare/run like ThreadedEngine: the core runs a pre-translated
/// stream with pre-scaled branch offsets and exports its label table; the
/// shadow stack buffer is pooled in ExecContext::TosScratch instead of
/// being heap-allocated per run. Stale buffer contents are harmless:
/// every slot read is below the live depth (or the junk slot, whose value
/// never escapes), so reuse cannot change observable behavior.
///
//===----------------------------------------------------------------------===//

#include "dispatch/Engines.h"

#include "metrics/Counters.h"
#include "support/Assert.h"
#include "vm/ArithOps.h"
#include "vm/Translate.h"

#include <cstddef>

using namespace sc;
using namespace sc::vm;

namespace {

/// Executes prepared stream \p Stream from instruction index \p Entry;
/// with \p HandlersOut non-null, exports the label table instead (see
/// threadedCore). noinline prevents label-address-splitting clones.
__attribute__((noinline)) RunOutcome threadedTosCore(ExecContext *CtxPtr,
                                                     uint32_t Entry,
                                                     const Cell *Stream,
                                                     Cell *HandlersOut) {
  static const void *const Labels[NumOpcodes] = {
#define SC_OPCODE_LABEL(Name, Mn, DI, DO, RI, RO, HasOp, Kind) &&L_##Name,
      SC_FOR_EACH_OPCODE(SC_OPCODE_LABEL)
#undef SC_OPCODE_LABEL
  };
  if (HandlersOut) {
    for (unsigned I = 0; I < NumOpcodes; ++I)
      HandlersOut[I] = reinterpret_cast<Cell>(Labels[I]);
    return {RunStatus::Halted, 0};
  }

  ExecContext &Ctx = *CtxPtr;
  const Code &Prog = *Ctx.Prog;
  const UCell CodeSize = Prog.Insts.size();
  SC_ASSERT(Entry < CodeSize, "entry out of range");

  Vm &TheVm = *Ctx.Machine;
  const Cell *Base = Stream;
  const Cell *Ip = Base + 2 * Entry;
  const Cell *W = Ip;
  Cell *RStack = Ctx.RS.data();
  const unsigned DsCap = Ctx.DsCapacity;
  const unsigned RsCap = Ctx.RsCapacity;
  unsigned Rsp = Ctx.RsDepth;
  uint64_t StepsLeft = Ctx.MaxSteps;
  uint64_t Steps = 0;
  RunStatus St = RunStatus::Halted;
  Cell FaultAddr = 0;
  bool HasFaultAddr = false;

  // TOS-cached data stack (see file comment for the layout), pooled in
  // the context so repeat runs reuse the same backing store.
  const size_t BufCells = DsCap + 1 + ExecContext::StackSlackCells;
  if (Ctx.TosScratch.size() < BufCells)
    Ctx.TosScratch.resize(BufCells, 0);
  Cell *StackBase = Ctx.TosScratch.data();
  Cell *Sp = StackBase + Ctx.DsDepth;
  Cell Tos = 0;
  Cell PopTmp = 0;
  {
    unsigned D = Ctx.DsDepth;
    for (unsigned J = 0; J + 1 < D; ++J)
      StackBase[1 + J] = Ctx.DS[J];
    if (D > 0)
      Tos = Ctx.DS[D - 1];
  }

  // Seed the sentinel return address unless this call resumes an
  // interrupted run (Ctx.Resume), which already carries it.
  if (!Ctx.Resume) {
    if (Rsp >= RsCap) {
      SC_IF_STATS(if (Ctx.Stats)
                    metrics::noteTrap(*Ctx.Stats, RunStatus::RStackOverflow));
      return makeFault(RunStatus::RStackOverflow, 0, Entry,
                       Prog.Insts[Entry].Op, Ctx.DsDepth, Rsp);
    }
    RStack[Rsp++] = 0;
  }

#define SC_NEXT                                                                \
  {                                                                            \
    if (StepsLeft == 0) {                                                      \
      St = RunStatus::StepLimit;                                               \
      goto Done;                                                               \
    }                                                                          \
    --StepsLeft;                                                               \
    ++Steps;                                                                   \
    W = Ip;                                                                    \
    Ip += 2;                                                                   \
    SC_IF_STATS(if (Ctx.Stats) metrics::noteCachedDispatch(                    \
                    *Ctx.Stats, Prog.Insts[(W - Base) / 2].Op,                 \
                    Sp > StackBase ? 1u : 0u, 1u));                            \
    goto *reinterpret_cast<void *>(W[0]);                                      \
  }

#define SC_CASE(Name) L_##Name:
#define SC_END SC_NEXT
#define SC_OPERAND (W[1])
#define SC_NEXTIP ((W - Base) / 2 + 1)
  // Static branch operands are pre-scaled threaded offsets; Exit's
  // guest-supplied return address still needs the * 2.
#define SC_JUMP(T)                                                             \
  {                                                                            \
    Ip = Base + static_cast<UCell>(T);                                         \
    SC_NEXT;                                                                   \
  }
#define SC_JUMP_DYN(T)                                                         \
  {                                                                            \
    Ip = Base + 2 * static_cast<UCell>(T);                                     \
    SC_NEXT;                                                                   \
  }
#define SC_CODE_SIZE CodeSize
#define SC_TRAP(S)                                                             \
  {                                                                            \
    St = RunStatus::S;                                                         \
    goto Done;                                                                 \
  }
#define SC_HALT                                                                \
  {                                                                            \
    St = RunStatus::Halted;                                                    \
    goto Done;                                                                 \
  }
#define SC_TRAP_MEM(A)                                                         \
  {                                                                            \
    FaultAddr = (A);                                                           \
    HasFaultAddr = true;                                                       \
    SC_TRAP(BadMemAccess);                                                     \
  }
#define SC_NEED(N)                                                             \
  if (Sp - StackBase < static_cast<ptrdiff_t>(N))                              \
  SC_TRAP(StackUnderflow)
#define SC_ROOM(N)                                                             \
  if (Sp - StackBase + static_cast<ptrdiff_t>(N) >                             \
      static_cast<ptrdiff_t>(DsCap))                                           \
  SC_TRAP(StackOverflow)
#define SC_PUSH(X)                                                             \
  {                                                                            \
    *Sp++ = Tos;                                                               \
    Tos = (X);                                                                 \
  }
#define SC_POPV (PopTmp = Tos, Tos = *--Sp, PopTmp)
#define SC_RNEED(N)                                                            \
  if (Rsp < static_cast<unsigned>(N))                                          \
  SC_TRAP(RStackUnderflow)
#define SC_RROOM(N)                                                            \
  if (Rsp + static_cast<unsigned>(N) > RsCap)                                  \
  SC_TRAP(RStackOverflow)
#define SC_RPUSH(X) RStack[Rsp++] = (X)
#define SC_RPOPV (RStack[--Rsp])
#define SC_RPEEK(I) (RStack[Rsp - 1 - (I)])
#define SC_VMREF TheVm
#define SC_RTRAFFIC(S, L, M) ((void)0)

  SC_NEXT;

#include "dispatch/InstBodies.inc"

Done:
#undef SC_NEXT
#undef SC_CASE
#undef SC_END
#undef SC_OPERAND
#undef SC_NEXTIP
#undef SC_JUMP
#undef SC_JUMP_DYN
#undef SC_CODE_SIZE
#undef SC_TRAP
#undef SC_HALT
#undef SC_NEED
#undef SC_ROOM
#undef SC_PUSH
#undef SC_POPV
#undef SC_RNEED
#undef SC_RROOM
#undef SC_RPUSH
#undef SC_RPOPV
#undef SC_RPEEK
#undef SC_VMREF
#undef SC_RTRAFFIC
#undef SC_TRAP_MEM

  {
    unsigned D = static_cast<unsigned>(Sp - StackBase);
    for (unsigned J = 0; J + 1 < D; ++J)
      Ctx.DS[J] = StackBase[1 + J];
    if (D > 0)
      Ctx.DS[D - 1] = Tos;
    Ctx.DsDepth = D;
  }
  Ctx.RsDepth = Rsp;
  Ctx.noteHighWater();
  SC_IF_STATS(if (Ctx.Stats) metrics::noteTrap(*Ctx.Stats, St));
  if (St == RunStatus::Halted)
    return {St, Steps};
  // W still addresses the trapping instruction; StepLimit bails out of the
  // dispatch before updating W, so Ip is the resume point.
  const uint32_t FaultPc = static_cast<uint32_t>(
      (St == RunStatus::StepLimit ? Ip - Base : W - Base) / 2);
  return makeFault(St, Steps, FaultPc,
                   FaultPc < CodeSize ? Prog.Insts[FaultPc].Op : Opcode::Halt,
                   Ctx.DsDepth, Rsp, FaultAddr, HasFaultAddr);
}

} // namespace

const Cell *sc::dispatch::threadedTosHandlers() {
  static Cell Tab[NumOpcodes];
  static const bool Ready = [] {
    threadedTosCore(nullptr, 0, nullptr, Tab);
    return true;
  }();
  (void)Ready;
  return Tab;
}

vm::RunOutcome sc::dispatch::runThreadedTosPrepared(ExecContext &Ctx,
                                                    uint32_t Entry,
                                                    const Cell *Stream) {
  SC_ASSERT(Ctx.Prog && Ctx.Machine, "unbound ExecContext");
  return threadedTosCore(&Ctx, Entry, Stream, nullptr);
}
