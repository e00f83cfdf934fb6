//===-- dispatch/ThreadedEngine.cpp - Direct threading (Fig. 8) -----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct threading using GNU C labels-as-values, the paper's recommended
/// technique: every instruction is translated to the address of its
/// handler and dispatch is a single indirect goto. Threaded code uses a
/// uniform two-cell layout (handler address, operand) so that a virtual
/// instruction index maps to threaded index * 2.
///
/// The engine is split prepare/run: the core executes an already
/// translated stream whose static branch operands are threaded offsets
/// (taken branches do Ip = Base + T with no rescale), and exports its
/// label table on demand so translation happens outside the core, once
/// per program, in src/prepare.
///
//===----------------------------------------------------------------------===//

#include "dispatch/Engines.h"

#include "metrics/Counters.h"
#include "support/Assert.h"
#include "vm/ArithOps.h"
#include "vm/Translate.h"

using namespace sc;
using namespace sc::vm;

namespace {

/// Executes prepared stream \p Stream (2 * Ctx->Prog->size() cells) from
/// instruction index \p Entry. When \p HandlersOut is non-null, fills it
/// with the label table instead of running; \p Ctx may then be null.
/// noinline keeps the compiler from cloning the function, which would
/// give the export and execution paths distinct label addresses.
__attribute__((noinline)) RunOutcome threadedCore(ExecContext *CtxPtr,
                                                  uint32_t Entry,
                                                  const Cell *Stream,
                                                  Cell *HandlersOut) {
  // Handler addresses, one per opcode. GNU extension: labels as values.
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
  const Cell *W = Ip; // current instruction (operand at W[1])
  Cell *Stack = Ctx.DS.data();
  Cell *RStack = Ctx.RS.data();
  const unsigned DsCap = Ctx.DsCapacity;
  const unsigned RsCap = Ctx.RsCapacity;
  unsigned Dsp = Ctx.DsDepth;
  unsigned Rsp = Ctx.RsDepth;
  uint64_t StepsLeft = Ctx.MaxSteps;
  uint64_t Steps = 0;
  RunStatus St = RunStatus::Halted;
  Cell FaultAddr = 0;
  bool HasFaultAddr = false;

  // Seed the sentinel return address unless this call resumes an
  // interrupted run (Ctx.Resume), which already carries it.
  if (!Ctx.Resume) {
    if (Rsp >= RsCap) {
      Ctx.DsDepth = Dsp;
      Ctx.RsDepth = Rsp;
      SC_IF_STATS(if (Ctx.Stats)
                    metrics::noteTrap(*Ctx.Stats, RunStatus::RStackOverflow));
      return makeFault(RunStatus::RStackOverflow, 0, Entry,
                       Prog.Insts[Entry].Op, Dsp, Rsp);
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
    SC_IF_STATS(if (Ctx.Stats) metrics::noteDispatch(                          \
                    *Ctx.Stats, Prog.Insts[(W - Base) / 2].Op));               \
    goto *reinterpret_cast<void *>(W[0]);                                      \
  }

#define SC_CASE(Name) L_##Name:
#define SC_END SC_NEXT
#define SC_OPERAND (W[1])
#define SC_NEXTIP ((W - Base) / 2 + 1)
  // Static branch operands are pre-scaled threaded offsets; only Exit's
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
  if (Dsp < static_cast<unsigned>(N))                                          \
  SC_TRAP(StackUnderflow)
#define SC_ROOM(N)                                                             \
  if (Dsp + static_cast<unsigned>(N) > DsCap)                                  \
  SC_TRAP(StackOverflow)
#define SC_PUSH(X) Stack[Dsp++] = (X)
#define SC_POPV (Stack[--Dsp])
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

  SC_NEXT; // dispatch the first instruction

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

  Ctx.DsDepth = Dsp;
  Ctx.RsDepth = Rsp;
  Ctx.noteHighWater();
  SC_IF_STATS(if (Ctx.Stats) metrics::noteTrap(*Ctx.Stats, St));
  if (St == RunStatus::Halted)
    return {St, Steps};
  // W still addresses the instruction whose body trapped; on StepLimit
  // the dispatch bailed out before updating W, so Ip is the resume point.
  const uint32_t FaultPc = static_cast<uint32_t>(
      (St == RunStatus::StepLimit ? Ip - Base : W - Base) / 2);
  return makeFault(St, Steps, FaultPc,
                   FaultPc < CodeSize ? Prog.Insts[FaultPc].Op : Opcode::Halt,
                   Dsp, Rsp, FaultAddr, HasFaultAddr);
}

} // namespace

const Cell *sc::dispatch::threadedHandlers() {
  static Cell Tab[NumOpcodes];
  static const bool Ready = [] {
    threadedCore(nullptr, 0, nullptr, Tab);
    return true;
  }();
  (void)Ready;
  return Tab;
}

vm::RunOutcome sc::dispatch::runThreadedPrepared(ExecContext &Ctx,
                                                 uint32_t Entry,
                                                 const Cell *Stream) {
  SC_ASSERT(Ctx.Prog && Ctx.Machine, "unbound ExecContext");
  return threadedCore(&Ctx, Entry, Stream, nullptr);
}
