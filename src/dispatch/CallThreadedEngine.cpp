//===-- dispatch/CallThreadedEngine.cpp - Call threading (Fig. 3) ---------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct call threading: every primitive is a separate function and the
/// engine loop calls through a function-pointer array. As in the paper,
/// the virtual machine registers (instruction pointer, stack pointers)
/// must live in static storage, which is precisely why this technique
/// loses: every primitive pays loads/stores for them. Not reentrant.
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

/// The virtual machine registers of the call-threaded engine. Static
/// storage on purpose: each primitive is a separate function, so the
/// registers cannot live in locals (the paper's point about this method).
struct GlobalRegs {
  const Cell *Base = nullptr;
  const Cell *Ip = nullptr;
  const Cell *W = nullptr;
  Cell *Stack = nullptr;
  Cell *RStack = nullptr;
  unsigned Dsp = 0;
  unsigned Rsp = 0;
  unsigned DsCap = 0;
  unsigned RsCap = 0;
  UCell CodeSize = 0;
  Vm *TheVm = nullptr;
  RunStatus St = RunStatus::Halted;
  bool Running = false;
  uint64_t Steps = 0;
  uint64_t StepsLeft = 0;
  Cell FaultAddr = 0;
  bool HasFaultAddr = false;
};

GlobalRegs G;

#define SC_CASE(Name) void prim_##Name() {
#define SC_END }
#define SC_OPERAND (G.W[1])
#define SC_NEXTIP ((G.W - G.Base) / 2 + 1)
// Static branch operands in the prepared stream are pre-scaled threaded
// offsets; Exit's guest-supplied return address still needs the * 2.
#define SC_JUMP(T)                                                             \
  {                                                                            \
    G.Ip = G.Base + static_cast<UCell>(T);                                     \
    return;                                                                    \
  }
#define SC_JUMP_DYN(T)                                                         \
  {                                                                            \
    G.Ip = G.Base + 2 * static_cast<UCell>(T);                                 \
    return;                                                                    \
  }
#define SC_CODE_SIZE (G.CodeSize)
#define SC_TRAP(S)                                                             \
  {                                                                            \
    G.St = RunStatus::S;                                                       \
    G.Running = false;                                                         \
    return;                                                                    \
  }
#define SC_HALT                                                                \
  {                                                                            \
    G.St = RunStatus::Halted;                                                  \
    G.Running = false;                                                         \
    return;                                                                    \
  }
#define SC_NEED(N)                                                             \
  if (G.Dsp < static_cast<unsigned>(N))                                        \
  SC_TRAP(StackUnderflow)
#define SC_TRAP_MEM(A)                                                         \
  {                                                                            \
    G.FaultAddr = (A);                                                         \
    G.HasFaultAddr = true;                                                     \
    SC_TRAP(BadMemAccess);                                                     \
  }
#define SC_ROOM(N)                                                             \
  if (G.Dsp + static_cast<unsigned>(N) > G.DsCap)                              \
  SC_TRAP(StackOverflow)
#define SC_PUSH(X) G.Stack[G.Dsp++] = (X)
#define SC_POPV (G.Stack[--G.Dsp])
#define SC_RNEED(N)                                                            \
  if (G.Rsp < static_cast<unsigned>(N))                                        \
  SC_TRAP(RStackUnderflow)
#define SC_RROOM(N)                                                            \
  if (G.Rsp + static_cast<unsigned>(N) > G.RsCap)                              \
  SC_TRAP(RStackOverflow)
#define SC_RPUSH(X) G.RStack[G.Rsp++] = (X)
#define SC_RPOPV (G.RStack[--G.Rsp])
#define SC_RPEEK(I) (G.RStack[G.Rsp - 1 - (I)])
#define SC_VMREF (*G.TheVm)
#define SC_RTRAFFIC(S, L, M) ((void)0)

#include "dispatch/InstBodies.inc"

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

using PrimFn = void (*)();

const PrimFn PrimTable[NumOpcodes] = {
#define SC_OPCODE_FN(Name, Mn, DI, DO, RI, RO, HasOp, Kind) &prim_##Name,
    SC_FOR_EACH_OPCODE(SC_OPCODE_FN)
#undef SC_OPCODE_FN
};

} // namespace

const Cell *sc::dispatch::callThreadedHandlers() {
  static Cell Tab[NumOpcodes];
  static const bool Ready = [] {
    for (unsigned I = 0; I < NumOpcodes; ++I)
      Tab[I] = static_cast<Cell>(reinterpret_cast<uintptr_t>(PrimTable[I]));
    return true;
  }();
  (void)Ready;
  return Tab;
}

RunOutcome sc::dispatch::runCallThreadedPrepared(ExecContext &Ctx,
                                                 uint32_t Entry,
                                                 const Cell *Stream) {
  SC_ASSERT(Ctx.Prog && Ctx.Machine, "unbound ExecContext");
  const Code &Prog = *Ctx.Prog;
  const UCell CodeSize = Prog.Insts.size();
  SC_ASSERT(Entry < CodeSize, "entry out of range");

  if (!Ctx.Resume && Ctx.RsDepth >= Ctx.RsCapacity) {
    SC_IF_STATS(if (Ctx.Stats)
                  metrics::noteTrap(*Ctx.Stats, RunStatus::RStackOverflow));
    return makeFault(RunStatus::RStackOverflow, 0, Entry,
                     Prog.Insts[Entry].Op, Ctx.DsDepth, Ctx.RsDepth);
  }

  // The registers are static storage (the technique's defining cost), so a
  // faulted or aborted previous run could leave stale values behind; reset
  // the whole block before seeding it for this run.
  G = GlobalRegs();
  G.Base = Stream;
  G.Ip = G.Base + 2 * Entry;
  G.W = G.Ip;
  G.Stack = Ctx.DS.data();
  G.RStack = Ctx.RS.data();
  G.Dsp = Ctx.DsDepth;
  G.Rsp = Ctx.RsDepth;
  G.DsCap = Ctx.DsCapacity;
  G.RsCap = Ctx.RsCapacity;
  G.CodeSize = CodeSize;
  G.TheVm = Ctx.Machine;
  G.St = RunStatus::Halted;
  G.Running = true;
  G.Steps = 0;
  G.StepsLeft = Ctx.MaxSteps;
  // Seed the sentinel return address unless this call resumes an
  // interrupted run (Ctx.Resume), which already carries it.
  if (!Ctx.Resume)
    G.RStack[G.Rsp++] = 0;

  while (G.Running) {
    if (G.StepsLeft == 0) {
      G.St = RunStatus::StepLimit;
      break;
    }
    --G.StepsLeft;
    ++G.Steps;
    G.W = G.Ip;
    G.Ip += 2;
    SC_IF_STATS(if (Ctx.Stats) metrics::noteDispatch(
                    *Ctx.Stats, Prog.Insts[(G.W - G.Base) / 2].Op));
    reinterpret_cast<PrimFn>(static_cast<uintptr_t>(G.W[0]))();
  }

  Ctx.DsDepth = G.Dsp;
  Ctx.RsDepth = G.Rsp;
  Ctx.noteHighWater();
  SC_IF_STATS(if (Ctx.Stats) metrics::noteTrap(*Ctx.Stats, G.St));
  if (G.St == RunStatus::Halted)
    return {G.St, G.Steps};
  // G.W still addresses the instruction whose primitive trapped; StepLimit
  // is raised in the loop before G.W is updated, so G.Ip is the resume
  // point.
  const uint32_t FaultPc = static_cast<uint32_t>(
      (G.St == RunStatus::StepLimit ? G.Ip - G.Base : G.W - G.Base) / 2);
  return makeFault(G.St, G.Steps, FaultPc,
                   FaultPc < CodeSize ? Prog.Insts[FaultPc].Op : Opcode::Halt,
                   G.Dsp, G.Rsp, G.FaultAddr, G.HasFaultAddr);
}
