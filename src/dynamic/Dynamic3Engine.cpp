//===-- dynamic/Dynamic3Engine.cpp - 3-state dynamic engine ---------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic stack caching with the Figure 13 three-state machine:
///
///   state 0: no stack items in registers
///   state 1: TOS in R0
///   state 2: TOS in R1, second item in R0
///
/// The cache state is represented by nothing but the (real) program
/// counter: every handler is compiled for one entry state and dispatches
/// the next instruction through the table of its exit state (Figure 19's
/// table-lookup dispatch). Hot primitives have specialized copies for all
/// three states; rare primitives exist only in state 0 and are reached
/// through shims that spill the registers - the "leave out rare
/// state/instruction combinations" strategy.
///
//===----------------------------------------------------------------------===//

#include "dynamic/Dynamic3Engine.h"

#include "metrics/Counters.h"
#include "vm/ArithOps.h"
#include "vm/Translate.h"
#include "support/Assert.h"

using namespace sc;
using namespace sc::vm;

vm::RunOutcome sc::dynamic::runDynamic3Prepared(ExecContext &Ctx,
                                                uint32_t Entry,
                                                const Cell *Stream) {
  SC_ASSERT(Ctx.Prog && Ctx.Machine, "unbound ExecContext");
  const Code &Prog = *Ctx.Prog;
  const UCell CodeSize = Prog.Insts.size();
  SC_ASSERT(Entry < CodeSize, "entry out of range");

  // Generic (state 0, memory-only) handlers exist for every opcode.
  static const void *const Generic[NumOpcodes] = {
#define SC_OPCODE_LABEL(Name, Mn, DI, DO, RI, RO, HasOp, Kind) &&G_##Name,
      SC_FOR_EACH_OPCODE(SC_OPCODE_LABEL)
#undef SC_OPCODE_LABEL
  };

  // Per-state dispatch tables; filled below, hot entries overridden with
  // specialized handlers.
  const void *Tab0[NumOpcodes];
  const void *Tab1[NumOpcodes];
  const void *Tab2[NumOpcodes];
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    Tab0[I] = Generic[I];
    Tab1[I] = &&Shim1;
    Tab2[I] = &&Shim2;
  }
#define SC_HOT(Name)                                                           \
  do {                                                                         \
    unsigned Idx = static_cast<unsigned>(Opcode::Name);                        \
    Tab0[Idx] = &&S0_##Name;                                                   \
    Tab1[Idx] = &&S1_##Name;                                                   \
    Tab2[Idx] = &&S2_##Name;                                                   \
  } while (0)
  SC_HOT(Lit);
  SC_HOT(Add);
  SC_HOT(Sub);
  SC_HOT(Mul);
  SC_HOT(And);
  SC_HOT(Or);
  SC_HOT(Xor);
  SC_HOT(Eq);
  SC_HOT(Ne);
  SC_HOT(Lt);
  SC_HOT(Gt);
  SC_HOT(Le);
  SC_HOT(Ge);
  SC_HOT(ULt);
  SC_HOT(OnePlus);
  SC_HOT(OneMinus);
  SC_HOT(ZeroEq);
  SC_HOT(ZeroNe);
  SC_HOT(ZeroGt);
  SC_HOT(Cells);
  SC_HOT(Dup);
  SC_HOT(Drop);
  SC_HOT(Swap);
  SC_HOT(Over);
  SC_HOT(Nip);
  SC_HOT(Fetch);
  SC_HOT(Store);
  SC_HOT(CFetch);
  SC_HOT(CStore);
  SC_HOT(QBranch);
  SC_HOT(Branch);
  SC_HOT(Call);
  SC_HOT(Exit);
  SC_HOT(ToR);
  SC_HOT(RFrom);
  SC_HOT(RFetch);
  SC_HOT(LoopI);
  SC_HOT(LoopBr);
  SC_HOT(LitAdd);
  SC_HOT(LitSub);
  SC_HOT(LitLt);
  SC_HOT(LitEq);
  SC_HOT(LitFetch);
  SC_HOT(LitStore);
#undef SC_HOT

  Vm &TheVm = *Ctx.Machine;
  const Cell *Base = Stream;
  const Cell *Ip = Base + 2 * Entry;
  const Cell *W = Ip;
  Cell *Stack = Ctx.DS.data();
  Cell *RStack = Ctx.RS.data();
  unsigned Dsp = Ctx.DsDepth; // memory part of the data stack
  unsigned Rsp = Ctx.RsDepth;
  const unsigned DsCap = Ctx.DsCapacity;
  const unsigned RsCap = Ctx.RsCapacity;
  Cell R0 = 0, R1 = 0;   // the stack cache registers
  unsigned ExitState = 0; // cache state at trap time, for write-back
  uint64_t StepsLeft = Ctx.MaxSteps;
  uint64_t Steps = 0;
  RunStatus St = RunStatus::Halted;
  Cell PopTmp = 0;
  Cell FaultAddr = 0;
  bool HasFaultAddr = false;

  // Seed the sentinel return address unless this call resumes an
  // interrupted run (Ctx.Resume), which already carries it. A resumed
  // run re-enters in cache state 0 — dynamic caching is per-run state,
  // and every StepLimit stop writes the cached items back to memory.
  if (!Ctx.Resume) {
    if (Rsp >= RsCap) {
      SC_IF_STATS(if (Ctx.Stats)
                    metrics::noteTrap(*Ctx.Stats, RunStatus::RStackOverflow));
      return makeFault(RunStatus::RStackOverflow, 0, Entry,
                       Prog.Insts[Entry].Op, Ctx.DsDepth, Rsp);
    }
    RStack[Rsp++] = 0;
  }

  // Dispatch macros: one per exit state. The cache state lives purely in
  // which table the next instruction is fetched through.
#define STEP_GUARD(State)                                                      \
  if (StepsLeft == 0) {                                                        \
    ExitState = (State);                                                       \
    St = RunStatus::StepLimit;                                                 \
    goto Done;                                                                 \
  }                                                                            \
  --StepsLeft;                                                                 \
  ++Steps;
#define STATS_DISPATCH(State)                                                  \
  SC_IF_STATS(if (Ctx.Stats) metrics::noteCachedDispatch(                      \
                  *Ctx.Stats, static_cast<Opcode>(W[0]), (State), 2u))
#define NEXT0                                                                  \
  {                                                                            \
    STEP_GUARD(0)                                                              \
    W = Ip;                                                                    \
    Ip += 2;                                                                   \
    STATS_DISPATCH(0);                                                         \
    goto *Tab0[W[0]];                                                          \
  }
#define NEXT1                                                                  \
  {                                                                            \
    STEP_GUARD(1)                                                              \
    W = Ip;                                                                    \
    Ip += 2;                                                                   \
    STATS_DISPATCH(1);                                                         \
    goto *Tab1[W[0]];                                                          \
  }
#define NEXT2                                                                  \
  {                                                                            \
    STEP_GUARD(2)                                                              \
    W = Ip;                                                                    \
    Ip += 2;                                                                   \
    STATS_DISPATCH(2);                                                         \
    goto *Tab2[W[0]];                                                          \
  }
#define TRAPS(State, Status)                                                   \
  {                                                                            \
    ExitState = (State);                                                       \
    St = RunStatus::Status;                                                    \
    goto Done;                                                                 \
  }
#define TRAPMEM(State, A)                                                      \
  {                                                                            \
    FaultAddr = (A);                                                           \
    HasFaultAddr = true;                                                       \
    TRAPS(State, BadMemAccess);                                                \
  }
  // Depth checks: NEEDMEMk(State, n) requires n items in the memory part
  // (the cached items of the state are implicitly present).
#define NEEDMEM(State, N)                                                      \
  if (Dsp < static_cast<unsigned>(N))                                          \
  TRAPS(State, StackUnderflow)
#define ROOMK(State, CachedK, N)                                               \
  if (Dsp + (CachedK) + static_cast<unsigned>(N) > DsCap)                      \
  TRAPS(State, StackOverflow)
#define RNEEDK(State, N)                                                       \
  if (Rsp < static_cast<unsigned>(N))                                          \
  TRAPS(State, RStackUnderflow)
#define RROOMK(State, N)                                                       \
  if (Rsp + static_cast<unsigned>(N) > RsCap)                                  \
  TRAPS(State, RStackOverflow)
  // Static branch operands in the prepared stream are pre-scaled threaded
  // offsets (JUMPk); Exit's guest-supplied return address is still an
  // instruction index and rescales through JUMPDYNk.
#define JUMP0(T)                                                               \
  {                                                                            \
    Ip = Base + static_cast<UCell>(T);                                         \
    NEXT0;                                                                     \
  }
#define JUMP1(T)                                                               \
  {                                                                            \
    Ip = Base + static_cast<UCell>(T);                                         \
    NEXT1;                                                                     \
  }
#define JUMP2(T)                                                               \
  {                                                                            \
    Ip = Base + static_cast<UCell>(T);                                         \
    NEXT2;                                                                     \
  }
#define JUMPDYN0(T)                                                            \
  {                                                                            \
    Ip = Base + 2 * static_cast<UCell>(T);                                     \
    NEXT0;                                                                     \
  }
#define JUMPDYN1(T)                                                            \
  {                                                                            \
    Ip = Base + 2 * static_cast<UCell>(T);                                     \
    NEXT1;                                                                     \
  }
#define JUMPDYN2(T)                                                            \
  {                                                                            \
    Ip = Base + 2 * static_cast<UCell>(T);                                     \
    NEXT2;                                                                     \
  }

  NEXT0; // enter in state 0

  // --- Spill shims: rare op in a cached state -> flush, redo in state 0.
Shim1:
  Stack[Dsp++] = R0;
  SC_IF_STATS(if (Ctx.Stats) ++Ctx.Stats->ReconcileStores);
  goto *Tab0[W[0]];
Shim2:
  Stack[Dsp++] = R0;
  Stack[Dsp++] = R1;
  SC_IF_STATS(if (Ctx.Stats) Ctx.Stats->ReconcileStores += 2);
  goto *Tab0[W[0]];

  // --- Specialized copies ---------------------------------------------------

S0_Lit:
  ROOMK(0, 0, 1);
  R0 = W[1];
  NEXT1;
S1_Lit:
  ROOMK(1, 1, 1);
  R1 = W[1];
  NEXT2;
S2_Lit:
  // Overflow: spill the deepest cached item, keep the cache full (the
  // "full followup state" minimizes cache/memory traffic).
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = W[1];
  NEXT2;

  // Binary operations: ( A B -- A op B ).
#define SC_BIN3(Name, EXPR)                                                    \
  S0_##Name: {                                                                 \
    NEEDMEM(0, 2);                                                             \
    Cell B = Stack[--Dsp];                                                     \
    Cell A = Stack[--Dsp];                                                     \
    (void)A;                                                                   \
    (void)B;                                                                   \
    R0 = (EXPR);                                                               \
    NEXT1;                                                                     \
  }                                                                            \
  S1_##Name: {                                                                 \
    NEEDMEM(1, 1);                                                             \
    Cell B = R0;                                                               \
    Cell A = Stack[--Dsp];                                                     \
    (void)A;                                                                   \
    (void)B;                                                                   \
    R0 = (EXPR);                                                               \
    NEXT1;                                                                     \
  }                                                                            \
  S2_##Name: {                                                                 \
    Cell B = R1;                                                               \
    Cell A = R0;                                                               \
    (void)A;                                                                   \
    (void)B;                                                                   \
    R0 = (EXPR);                                                               \
    NEXT1;                                                                     \
  }

  SC_BIN3(Add, arithAdd(A, B))
  SC_BIN3(Sub, arithSub(A, B))
  SC_BIN3(Mul, arithMul(A, B))
  SC_BIN3(And, A &B)
  SC_BIN3(Or, A | B)
  SC_BIN3(Xor, A ^ B)
  SC_BIN3(Eq, boolCell(A == B))
  SC_BIN3(Ne, boolCell(A != B))
  SC_BIN3(Lt, boolCell(A < B))
  SC_BIN3(Gt, boolCell(A > B))
  SC_BIN3(Le, boolCell(A <= B))
  SC_BIN3(Ge, boolCell(A >= B))
  SC_BIN3(ULt, arithULt(A, B))
#undef SC_BIN3

  // Unary operations: ( A -- f(A) ) stay in their state.
#define SC_UN3(Name, EXPR)                                                     \
  S0_##Name: {                                                                 \
    NEEDMEM(0, 1);                                                             \
    Cell A = Stack[--Dsp];                                                     \
    R0 = (EXPR);                                                               \
    NEXT1;                                                                     \
  }                                                                            \
  S1_##Name: {                                                                 \
    Cell A = R0;                                                               \
    R0 = (EXPR);                                                               \
    NEXT1;                                                                     \
  }                                                                            \
  S2_##Name: {                                                                 \
    Cell A = R1;                                                               \
    R1 = (EXPR);                                                               \
    NEXT2;                                                                     \
  }

  SC_UN3(OnePlus, arithOnePlus(A))
  SC_UN3(OneMinus, arithOneMinus(A))
  SC_UN3(ZeroEq, boolCell(A == 0))
  SC_UN3(ZeroNe, boolCell(A != 0))
  SC_UN3(ZeroGt, boolCell(A > 0))
  SC_UN3(Cells, arithCells(A))
#undef SC_UN3

S0_Dup:
  // ( a -- a a ): cache the copy; a itself stays in memory as the second.
  // The copy raises the logical depth even though Dsp is unchanged, so the
  // overflow check must not be skipped (sliced runs re-enter in state 0 and
  // would otherwise defer the trap past where the other engines raise it).
  NEEDMEM(0, 1);
  ROOMK(0, 0, 1);
  R0 = Stack[Dsp - 1];
  NEXT1;
S1_Dup:
  ROOMK(1, 1, 1);
  R1 = R0;
  NEXT2;
S2_Dup:
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0; // overflow: spill the deepest cached item
  R0 = R1;
  NEXT2;

S0_Drop:
  NEEDMEM(0, 1);
  --Dsp;
  NEXT0;
S1_Drop:
  NEXT0;
S2_Drop:
  NEXT1;

S0_Swap : {
  // ( a b -- b a ): load both, exchanged, into the cache.
  NEEDMEM(0, 2);
  Cell B = Stack[--Dsp];
  Cell A = Stack[--Dsp];
  R0 = B; // new second item
  R1 = A; // new TOS
  NEXT2;
}
S1_Swap:
  NEEDMEM(1, 1);
  R1 = Stack[--Dsp]; // new TOS = old second; old TOS stays in R0 as second
  NEXT2;
S2_Swap : {
  Cell T = R0;
  R0 = R1;
  R1 = T;
  NEXT2;
}

S0_Over:
  // ( a b -- a b a ): cache b as second (R0) and the a-copy as TOS (R1);
  // a itself stays in memory as the third item. Net logical growth is one
  // item (two cached, one consumed from memory), so check room like Dup.
  NEEDMEM(0, 2);
  ROOMK(0, 0, 1);
  R0 = Stack[Dsp - 1];
  R1 = Stack[Dsp - 2];
  --Dsp;
  NEXT2;
S1_Over:
  NEEDMEM(1, 1);
  ROOMK(1, 1, 1);
  R1 = Stack[Dsp - 1]; // a copied on top; a itself stays in memory
  NEXT2;
S2_Over : {
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0; // spill a (it remains the third item)
  Cell T = R0;
  R0 = R1;
  R1 = T;
  NEXT2;
}

S0_Nip : {
  NEEDMEM(0, 2);
  Cell B = Stack[--Dsp];
  --Dsp;
  R0 = B;
  NEXT1;
}
S1_Nip:
  NEEDMEM(1, 1);
  --Dsp;
  NEXT1;
S2_Nip:
  R0 = R1;
  NEXT1;

S0_Fetch : {
  NEEDMEM(0, 1);
  Cell Addr = Stack[--Dsp];
  if (!TheVm.validRange(Addr, CellBytes))
    TRAPMEM(0, Addr);
  R0 = TheVm.loadCell(Addr);
  NEXT1;
}
S1_Fetch:
  // On a bad address the reference engine has already consumed it.
  if (!TheVm.validRange(R0, CellBytes))
    TRAPMEM(0, R0);
  R0 = TheVm.loadCell(R0);
  NEXT1;
S2_Fetch:
  if (!TheVm.validRange(R1, CellBytes))
    TRAPMEM(1, R1);
  R1 = TheVm.loadCell(R1);
  NEXT2;

S0_Store : {
  NEEDMEM(0, 2);
  Cell Addr = Stack[--Dsp];
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(Addr, CellBytes))
    TRAPMEM(0, Addr);
  TheVm.storeCell(Addr, V);
  NEXT0;
}
S1_Store : {
  NEEDMEM(1, 1);
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(R0, CellBytes))
    TRAPMEM(0, R0);
  TheVm.storeCell(R0, V);
  NEXT0;
}
S2_Store:
  if (!TheVm.validRange(R1, CellBytes))
    TRAPMEM(0, R1);
  TheVm.storeCell(R1, R0);
  NEXT0;

S0_CFetch : {
  NEEDMEM(0, 1);
  Cell Addr = Stack[--Dsp];
  if (!TheVm.validRange(Addr, 1))
    TRAPMEM(0, Addr);
  R0 = TheVm.loadByte(Addr);
  NEXT1;
}
S1_CFetch:
  if (!TheVm.validRange(R0, 1))
    TRAPMEM(0, R0);
  R0 = TheVm.loadByte(R0);
  NEXT1;
S2_CFetch:
  if (!TheVm.validRange(R1, 1))
    TRAPMEM(1, R1);
  R1 = TheVm.loadByte(R1);
  NEXT2;

S0_CStore : {
  NEEDMEM(0, 2);
  Cell Addr = Stack[--Dsp];
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(Addr, 1))
    TRAPMEM(0, Addr);
  TheVm.storeByte(Addr, V);
  NEXT0;
}
S1_CStore : {
  NEEDMEM(1, 1);
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(R0, 1))
    TRAPMEM(0, R0);
  TheVm.storeByte(R0, V);
  NEXT0;
}
S2_CStore:
  if (!TheVm.validRange(R1, 1))
    TRAPMEM(0, R1);
  TheVm.storeByte(R1, R0);
  NEXT0;

S0_QBranch : {
  NEEDMEM(0, 1);
  Cell Flag = Stack[--Dsp];
  if (Flag == 0)
    JUMP0(W[1]);
  NEXT0;
}
S1_QBranch:
  if (R0 == 0)
    JUMP0(W[1]);
  NEXT0;
S2_QBranch:
  if (R1 == 0)
    JUMP1(W[1]);
  NEXT1;

S0_Branch:
  JUMP0(W[1]);
S1_Branch:
  JUMP1(W[1]);
S2_Branch:
  JUMP2(W[1]);

  // Calls and returns preserve the cache state: dynamic caching needs no
  // calling convention (Section 4).
S0_Call:
  RROOMK(0, 1);
  RStack[Rsp++] = static_cast<Cell>((W - Base) / 2 + 1);
  JUMP0(W[1]);
S1_Call:
  RROOMK(1, 1);
  RStack[Rsp++] = static_cast<Cell>((W - Base) / 2 + 1);
  JUMP1(W[1]);
S2_Call:
  RROOMK(2, 1);
  RStack[Rsp++] = static_cast<Cell>((W - Base) / 2 + 1);
  JUMP2(W[1]);

S0_Exit : {
  RNEEDK(0, 1);
  Cell Ret = RStack[--Rsp];
  if (static_cast<UCell>(Ret) >= CodeSize)
    TRAPS(0, BadMemAccess);
  JUMPDYN0(Ret);
}
S1_Exit : {
  RNEEDK(1, 1);
  Cell Ret = RStack[--Rsp];
  if (static_cast<UCell>(Ret) >= CodeSize)
    TRAPS(1, BadMemAccess);
  JUMPDYN1(Ret);
}
S2_Exit : {
  RNEEDK(2, 1);
  Cell Ret = RStack[--Rsp];
  if (static_cast<UCell>(Ret) >= CodeSize)
    TRAPS(2, BadMemAccess);
  JUMPDYN2(Ret);
}

S0_ToR:
  NEEDMEM(0, 1);
  RROOMK(0, 1);
  RStack[Rsp++] = Stack[--Dsp];
  NEXT0;
S1_ToR:
  RROOMK(1, 1);
  RStack[Rsp++] = R0;
  NEXT0;
S2_ToR:
  RROOMK(2, 1);
  RStack[Rsp++] = R1;
  NEXT1;

S0_RFrom:
  RNEEDK(0, 1);
  ROOMK(0, 0, 1);
  R0 = RStack[--Rsp];
  NEXT1;
S1_RFrom:
  RNEEDK(1, 1);
  ROOMK(1, 1, 1);
  R1 = RStack[--Rsp];
  NEXT2;
S2_RFrom:
  RNEEDK(2, 1);
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = RStack[--Rsp];
  NEXT2;

S0_RFetch:
  RNEEDK(0, 1);
  ROOMK(0, 0, 1);
  R0 = RStack[Rsp - 1];
  NEXT1;
S1_RFetch:
  RNEEDK(1, 1);
  ROOMK(1, 1, 1);
  R1 = RStack[Rsp - 1];
  NEXT2;
S2_RFetch:
  RNEEDK(2, 1);
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = RStack[Rsp - 1];
  NEXT2;

S0_LoopI:
  RNEEDK(0, 1);
  ROOMK(0, 0, 1);
  R0 = RStack[Rsp - 1];
  NEXT1;
S1_LoopI:
  RNEEDK(1, 1);
  ROOMK(1, 1, 1);
  R1 = RStack[Rsp - 1];
  NEXT2;
S2_LoopI:
  RNEEDK(2, 1);
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = RStack[Rsp - 1];
  NEXT2;

  // (loop) touches only the return stack: one copy per state, all alike.
#define SC_LOOPBR(State, NextMacro)                                            \
  {                                                                            \
    RNEEDK(State, 2);                                                          \
    Cell Index = RStack[Rsp - 1] + 1;                                          \
    if (Index != RStack[Rsp - 2]) {                                            \
      RStack[Rsp - 1] = Index;                                                 \
      Ip = Base + static_cast<UCell>(W[1]);                                    \
    } else {                                                                   \
      Rsp -= 2;                                                                \
    }                                                                          \
    NextMacro;                                                                 \
  }
S0_LoopBr:
  SC_LOOPBR(0, NEXT0)
S1_LoopBr:
  SC_LOOPBR(1, NEXT1)
S2_LoopBr:
  SC_LOOPBR(2, NEXT2)
#undef SC_LOOPBR


  // --- Superinstructions: lit + consumer pairs in one dispatch ---------------

#define SC_DLIT(Name, EXPR)                                                    \
  S0_##Name: {                                                                 \
    if (Dsp < 1) { /* materialize the literal, as unfused code would */       \
      R0 = W[1];                                                               \
      TRAPS(1, StackUnderflow);                                                \
    }                                                                          \
    Cell A = Stack[--Dsp];                                                     \
    Cell N = W[1];                                                             \
    (void)A;                                                                   \
    (void)N;                                                                   \
    R0 = (EXPR);                                                               \
    NEXT1;                                                                     \
  }                                                                            \
  S1_##Name: {                                                                 \
    Cell A = R0;                                                               \
    Cell N = W[1];                                                             \
    (void)A;                                                                   \
    (void)N;                                                                   \
    R0 = (EXPR);                                                               \
    NEXT1;                                                                     \
  }                                                                            \
  S2_##Name: {                                                                 \
    Cell A = R1;                                                               \
    Cell N = W[1];                                                             \
    (void)A;                                                                   \
    (void)N;                                                                   \
    R1 = (EXPR);                                                               \
    NEXT2;                                                                     \
  }

  SC_DLIT(LitAdd, arithAdd(A, N))
  SC_DLIT(LitSub, arithSub(A, N))
  SC_DLIT(LitLt, boolCell(A < N))
  SC_DLIT(LitEq, boolCell(A == N))
#undef SC_DLIT

S0_LitFetch:
  ROOMK(0, 0, 1);
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(0, W[1]);
  R0 = TheVm.loadCell(W[1]);
  NEXT1;
S1_LitFetch:
  ROOMK(1, 1, 1);
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(1, W[1]);
  R1 = TheVm.loadCell(W[1]);
  NEXT2;
S2_LitFetch:
  ROOMK(2, 2, 1);
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(2, W[1]);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = TheVm.loadCell(W[1]);
  NEXT2;

S0_LitStore : {
  if (Dsp < 1) { // materialize the address, as unfused code would
    R0 = W[1];
    TRAPS(1, StackUnderflow);
  }
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(0, W[1]);
  TheVm.storeCell(W[1], V);
  NEXT0;
}
S1_LitStore:
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(0, W[1]);
  TheVm.storeCell(W[1], R0);
  NEXT0;
S2_LitStore:
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(1, W[1]);
  TheVm.storeCell(W[1], R1);
  NEXT1;

  // --- Generic state-0 handlers for every opcode -----------------------------

#define SC_CASE(Name) G_##Name:
#define SC_END NEXT0
#define SC_OPERAND (W[1])
#define SC_NEXTIP ((W - Base) / 2 + 1)
#define SC_JUMP(T) JUMP0(T)
#define SC_JUMP_DYN(T) JUMPDYN0(T)
#define SC_CODE_SIZE CodeSize
#define SC_TRAP(S) TRAPS(0, S)
#define SC_TRAP_MEM(A) TRAPMEM(0, A)
#define SC_HALT TRAPS(0, Halted)
#define SC_NEED(N) NEEDMEM(0, N)
#define SC_ROOM(N) ROOMK(0, 0, N)
#define SC_PUSH(X) Stack[Dsp++] = (X)
#define SC_POPV (Stack[--Dsp])
#define SC_RNEED(N) RNEEDK(0, N)
#define SC_RROOM(N) RROOMK(0, N)
#define SC_RPUSH(X) RStack[Rsp++] = (X)
#define SC_RPOPV (RStack[--Rsp])
#define SC_RPEEK(I) (RStack[Rsp - 1 - (I)])
#define SC_VMREF TheVm
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

Done:
#undef STEP_GUARD
#undef STATS_DISPATCH
#undef NEXT0
#undef NEXT1
#undef NEXT2
#undef TRAPS
#undef NEEDMEM
#undef ROOMK
#undef RNEEDK
#undef RROOMK
#undef JUMP0
#undef JUMP1
#undef JUMP2
#undef JUMPDYN0
#undef JUMPDYN1
#undef JUMPDYN2
#undef TRAPMEM
  (void)PopTmp;
  // Write the cached items back to the flat stack.
  if (ExitState >= 1)
    Stack[Dsp++] = R0;
  if (ExitState == 2)
    Stack[Dsp++] = R1;
  SC_IF_STATS(if (Ctx.Stats) {
    Ctx.Stats->ReconcileStores += ExitState;
    metrics::noteTrap(*Ctx.Stats, St);
  });
  Ctx.DsDepth = Dsp;
  Ctx.RsDepth = Rsp;
  Ctx.noteHighWater();
  if (St == RunStatus::Halted)
    return {St, Steps};
  // The fault depths are the post-flush (logical) depths, matching the
  // reference engines. W still addresses the trapping instruction; the
  // step guard fires before W is updated, so Ip is the resume point.
  const uint32_t FaultPc = static_cast<uint32_t>(
      (St == RunStatus::StepLimit ? Ip - Base : W - Base) / 2);
  return makeFault(St, Steps, FaultPc,
                   FaultPc < CodeSize ? Prog.Insts[FaultPc].Op : Opcode::Halt,
                   Dsp, Rsp, FaultAddr, HasFaultAddr);
}
