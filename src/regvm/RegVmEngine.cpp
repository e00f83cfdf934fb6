//===-- regvm/RegVmEngine.cpp - Threaded register-IR interpreter ----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
//
// Direct-threaded execution of the register IR (see RegTranslate.cpp).
// Virtual registers live in a pooled scratch array; the architectural
// data stack pointer is frozen between control transfers, so entry cells
// are addressed Dsp-relative and every trap/exit first executes the
// instruction's flush plan to restore the canonical stack the reference
// engine would hold at that point. Structure mirrors staticCore: one
// noinline function exporting its handler labels once, a prepared stream
// of pre-resolved label addresses with pre-scaled branch targets, and
// StepLimit stops taken only at canonical block entries.
//
//===----------------------------------------------------------------------===//

#include "regvm/RegVm.h"

#include "metrics/Counters.h"
#include "support/Assert.h"
#include "vm/ArithOps.h"
#include "vm/Translate.h"

using namespace sc;
using namespace sc::regvm;
using namespace sc::vm;

namespace {

/// Executes prepared register stream \p Stream (4 * RPP->Insts.size()
/// cells, see translateRegStream) from original entry \p OrigEntry. When
/// \p HandlersOut is non-null, fills it with the handler label table and
/// returns without running; \p RPP and \p CtxPtr may then be null.
/// noinline keeps the compiler from cloning the function, which would
/// give the export and execution paths distinct label addresses.
__attribute__((noinline)) RunOutcome
regCore(const RegProgram *RPP, ExecContext *CtxPtr, uint32_t OrigEntry,
        const Cell *Stream, Cell *HandlersOut) {
  // Handler label table, indexed by RegOp.
  static const void *const Labels[NumRegOps] = {
      &&H_CheckU,  &&H_CheckO,    &&H_Add,    &&H_Sub,      &&H_Mul,
      &&H_Div,     &&H_Mod,       &&H_And,    &&H_Or,       &&H_Xor,
      &&H_Lshift,  &&H_Rshift,    &&H_Min,    &&H_Max,      &&H_Eq,
      &&H_Ne,      &&H_Lt,        &&H_Gt,     &&H_Le,       &&H_Ge,
      &&H_ULt,     &&H_Negate,    &&H_Invert, &&H_Abs,      &&H_OnePlus,
      &&H_OneMinus, &&H_TwoStar,  &&H_TwoSlash, &&H_Cells,  &&H_ZeroEq,
      &&H_ZeroNe,  &&H_ZeroLt,    &&H_ZeroGt, &&H_Fetch,    &&H_CFetch,
      &&H_Store,   &&H_CStore,    &&H_PlusStore, &&H_Emit,  &&H_Dot,
      &&H_Cr,      &&H_Space,     &&H_Type,   &&H_ToR,      &&H_RFrom,
      &&H_RFetch,  &&H_DoSetup,   &&H_LoopI,  &&H_LoopJ,    &&H_Unloop,
      &&H_Branch,  &&H_QBranch,   &&H_LoopBr, &&H_PlusLoopBr, &&H_Call,
      &&H_Exit,    &&H_Halt,      &&H_Sync,
  };

  if (HandlersOut) {
    for (unsigned I = 0; I < NumRegOps; ++I)
      HandlersOut[I] = reinterpret_cast<Cell>(Labels[I]);
    return {RunStatus::Halted, 0};
  }

  const RegProgram &RP = *RPP;
  ExecContext &Ctx = *CtxPtr;
  SC_ASSERT(Ctx.Prog && Ctx.Machine, "unbound ExecContext");
  SC_ASSERT(OrigEntry < RP.OrigToReg.size(), "entry out of range");
  const UCell RegSize = RP.Insts.size();
  const UCell OrigSize = Ctx.Prog->Insts.size();
  // Entry must be a block leader; resumed runs re-enter at StepLimit
  // stops, which the engine only takes at canonical entries (see RDNEXT).
  const uint32_t Entry = RP.OrigToReg[OrigEntry];
  SC_ASSERT(Entry < RegSize, "entry is not a block leader");

  const uint32_t *R2O = RP.RegToOrig.data();
  const uint32_t *O2R = RP.OrigToReg.data();
  const uint32_t *EO = RP.EntryOrig.data();
  const uint32_t *PreF = RP.PreFlush.data();
  const uint32_t *PostF = RP.PostFlush.data();
  const Cell *CPool = RP.ConstPool.data();
  const Cell *FPool = RP.FlushPool.data();

  // Register file + flush scratch, pooled in the context so repeat runs
  // allocate nothing.
  const size_t NeedScratch =
      static_cast<size_t>(RP.MaxRegs) + RP.MaxFlushSlots;
  if (Ctx.RegScratch.size() < NeedScratch)
    Ctx.RegScratch.resize(NeedScratch);
  Cell *Regs = Ctx.RegScratch.data();
  Cell *FScratch = Regs + RP.MaxRegs;

  Vm &TheVm = *Ctx.Machine;
  const Cell *Base = Stream;
  const Cell *Ip = Base + 4 * Entry;
  const Cell *W = Ip;
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
  // Pending spill at trap time: flush-plan id (NoFlush when the stack is
  // already canonical), plus the original PC to report.
  uint32_t TrapPc = OrigEntry;
  uint32_t TrapFlush = NoFlush;

  // Seed the sentinel return address unless this call resumes an
  // interrupted run (Ctx.Resume), which already carries it.
  if (!Ctx.Resume) {
    if (Rsp >= RsCap) {
      SC_IF_STATS(if (Ctx.Stats)
                    metrics::noteTrap(*Ctx.Stats, RunStatus::RStackOverflow));
      return makeFault(RunStatus::RStackOverflow, 0, OrigEntry,
                       Ctx.Prog->Insts[OrigEntry].Op, Dsp, Rsp);
    }
    RStack[Rsp++] = 0;
  }

// Operand-slot decode (see SlotTag): tag 2 = architectural cell below
// the frozen entry TOS, tag 1 = constant pool, tag 0 = virtual register.
#define RVAL(D)                                                                \
  ((D) & 2 ? Stack[Dsp - 1 - (static_cast<UCell>(D) >> 2)]                     \
           : ((D) & 1 ? CPool[static_cast<UCell>(D) >> 2]                      \
                      : Regs[static_cast<UCell>(D) >> 2]))

// Executes flush plan \p Id: evaluates every slot first (a plan may read
// the entry cells it is about to overwrite), then rewrites the stack.
#define RFLUSH(Id)                                                             \
  {                                                                            \
    const Cell *P = FPool + (Id);                                              \
    const unsigned FD = static_cast<unsigned>(P[0]);                           \
    const unsigned FN = static_cast<unsigned>(P[1]);                           \
    for (unsigned J = 0; J < FN; ++J)                                          \
      FScratch[J] = RVAL(P[2 + J]);                                            \
    Dsp -= FD;                                                                 \
    for (unsigned J = 0; J < FN; ++J)                                          \
      Stack[Dsp + J] = FScratch[J];                                            \
    Dsp += FN;                                                                 \
    SC_IF_STATS(if (Ctx.Stats) Ctx.Stats->ReconcileStores += FN);              \
  }

// StepLimit stops are deferred to canonical block entries — the only
// positions a later run (on this or any other engine) can re-enter.
// When the budget runs out elsewhere, execution continues with StepsLeft
// pinned at zero until the next entry; Steps keeps counting, so the
// overshoot is visible in the outcome and bounded by the longest block.
#define RDNEXT                                                                 \
  {                                                                            \
    if (StepsLeft == 0) {                                                      \
      const UCell NextIdx = static_cast<UCell>((Ip - Base) / 4);               \
      if (NextIdx < RegSize && EO[NextIdx] != InvalidReg) {                    \
        TrapPc = EO[NextIdx];                                                  \
        TrapFlush = NoFlush;                                                   \
        St = RunStatus::StepLimit;                                             \
        goto Done;                                                             \
      }                                                                        \
    } else {                                                                   \
      --StepsLeft;                                                             \
    }                                                                          \
    ++Steps;                                                                   \
    W = Ip;                                                                    \
    Ip += 4;                                                                   \
    SC_IF_STATS(if (Ctx.Stats)                                                 \
                  metrics::noteDispatch(                                       \
                      *Ctx.Stats,                                              \
                      Ctx.Prog->Insts[R2O[(W - Base) / 4]].Op));               \
    goto *reinterpret_cast<void *>(W[0]);                                      \
  }
#define RTRAP_AT(Status, Flush)                                                \
  {                                                                            \
    TrapPc = R2O[(W - Base) / 4];                                              \
    TrapFlush = (Flush);                                                       \
    St = RunStatus::Status;                                                    \
    goto Done;                                                                 \
  }
// Pre-input trap (limit checks): spill the state before the op's pops.
#define RTRAP_PRE(Status) RTRAP_AT(Status, PreF[(W - Base) / 4])
// Post-input trap (div-by-zero, bad memory): inputs already consumed.
#define RTRAP_POST(Status) RTRAP_AT(Status, PostF[(W - Base) / 4])
#define RTRAPMEM_POST(A)                                                       \
  {                                                                            \
    FaultAddr = (A);                                                           \
    HasFaultAddr = true;                                                       \
    RTRAP_POST(BadMemAccess);                                                  \
  }
// Happy-path spill on a control transfer (or fall-through sync).
#define RSPILL_POST                                                            \
  {                                                                            \
    const uint32_t PlanId = PostF[(W - Base) / 4];                             \
    if (PlanId != NoFlush)                                                     \
      RFLUSH(PlanId);                                                          \
  }
// Branch operands in the prepared stream are pre-scaled threaded
// offsets; Exit's guest-supplied return address maps through OrigToReg
// and rescales through RJUMPIDX.
#define RJUMP(T)                                                               \
  {                                                                            \
    Ip = Base + static_cast<UCell>(T);                                         \
    RDNEXT;                                                                    \
  }
#define RJUMPIDX(T)                                                            \
  {                                                                            \
    Ip = Base + 4 * static_cast<UCell>(T);                                     \
    RDNEXT;                                                                    \
  }

  RDNEXT;

  // --- Deferred stack-limit checks (entry depth is frozen mid-block) -------

H_CheckU:
  if (Dsp < static_cast<unsigned>(W[1]))
    RTRAP_PRE(StackUnderflow);
  RDNEXT;
H_CheckO:
  if (Dsp + static_cast<unsigned>(W[1]) > DsCap)
    RTRAP_PRE(StackOverflow);
  RDNEXT;

  // --- Three-operand ALU ----------------------------------------------------

#define RV_BIN(Name, EXPR)                                                     \
  H_##Name: {                                                                  \
    const Cell A = RVAL(W[2]);                                                 \
    const Cell B = RVAL(W[3]);                                                 \
    (void)A;                                                                   \
    (void)B;                                                                   \
    Regs[static_cast<UCell>(W[1])] = (EXPR);                                   \
    RDNEXT;                                                                    \
  }

  RV_BIN(Add, arithAdd(A, B))
  RV_BIN(Sub, arithSub(A, B))
  RV_BIN(Mul, arithMul(A, B))
  RV_BIN(And, A &B)
  RV_BIN(Or, A | B)
  RV_BIN(Xor, A ^ B)
  RV_BIN(Lshift, arithLshift(A, B))
  RV_BIN(Rshift, arithRshift(A, B))
  RV_BIN(Min, A < B ? A : B)
  RV_BIN(Max, A > B ? A : B)
  RV_BIN(Eq, boolCell(A == B))
  RV_BIN(Ne, boolCell(A != B))
  RV_BIN(Lt, boolCell(A < B))
  RV_BIN(Gt, boolCell(A > B))
  RV_BIN(Le, boolCell(A <= B))
  RV_BIN(Ge, boolCell(A >= B))
  RV_BIN(ULt, arithULt(A, B))
#undef RV_BIN

  // Division and modulo trap after consuming their operands, exactly like
  // the reference engine; the post-input plan restores that stack.
#define RV_DIVMOD(Name, EXPR)                                                  \
  H_##Name: {                                                                  \
    const Cell A = RVAL(W[2]);                                                 \
    const Cell B = RVAL(W[3]);                                                 \
    if (B == 0)                                                                \
      RTRAP_POST(DivByZero);                                                   \
    Regs[static_cast<UCell>(W[1])] = (EXPR);                                   \
    RDNEXT;                                                                    \
  }

  RV_DIVMOD(Div, arithDiv(A, B))
  RV_DIVMOD(Mod, arithMod(A, B))
#undef RV_DIVMOD

  // --- Two-operand ALU ------------------------------------------------------

#define RV_UN(Name, EXPR)                                                      \
  H_##Name: {                                                                  \
    const Cell A = RVAL(W[2]);                                                 \
    Regs[static_cast<UCell>(W[1])] = (EXPR);                                   \
    RDNEXT;                                                                    \
  }

  RV_UN(Negate, arithNegate(A))
  RV_UN(Invert, ~A)
  RV_UN(Abs, arithAbs(A))
  RV_UN(OnePlus, arithOnePlus(A))
  RV_UN(OneMinus, arithOneMinus(A))
  RV_UN(TwoStar, arithTwoStar(A))
  RV_UN(TwoSlash, A >> 1)
  RV_UN(Cells, arithCells(A))
  RV_UN(ZeroEq, boolCell(A == 0))
  RV_UN(ZeroNe, boolCell(A != 0))
  RV_UN(ZeroLt, boolCell(A < 0))
  RV_UN(ZeroGt, boolCell(A > 0))
#undef RV_UN

  // --- Data space -----------------------------------------------------------

H_Fetch: {
  const Cell Addr = RVAL(W[2]);
  if (!TheVm.validRange(Addr, CellBytes))
    RTRAPMEM_POST(Addr);
  Regs[static_cast<UCell>(W[1])] = TheVm.loadCell(Addr);
  RDNEXT;
}
H_CFetch: {
  const Cell Addr = RVAL(W[2]);
  if (!TheVm.validRange(Addr, 1))
    RTRAPMEM_POST(Addr);
  Regs[static_cast<UCell>(W[1])] = TheVm.loadByte(Addr);
  RDNEXT;
}
H_Store: {
  const Cell Addr = RVAL(W[2]);
  const Cell V = RVAL(W[3]);
  if (!TheVm.validRange(Addr, CellBytes))
    RTRAPMEM_POST(Addr);
  TheVm.storeCell(Addr, V);
  RDNEXT;
}
H_CStore: {
  const Cell Addr = RVAL(W[2]);
  const Cell V = RVAL(W[3]);
  if (!TheVm.validRange(Addr, 1))
    RTRAPMEM_POST(Addr);
  TheVm.storeByte(Addr, V);
  RDNEXT;
}
H_PlusStore: {
  const Cell Addr = RVAL(W[2]);
  const Cell V = RVAL(W[3]);
  if (!TheVm.validRange(Addr, CellBytes))
    RTRAPMEM_POST(Addr);
  TheVm.storeCell(Addr,
                  static_cast<Cell>(static_cast<UCell>(TheVm.loadCell(Addr)) +
                                    static_cast<UCell>(V)));
  RDNEXT;
}

  // --- Output ---------------------------------------------------------------

H_Emit:
  TheVm.emitChar(RVAL(W[2]));
  RDNEXT;
H_Dot:
  TheVm.printNumber(RVAL(W[2]));
  RDNEXT;
H_Cr:
  TheVm.emitChar('\n');
  RDNEXT;
H_Space:
  TheVm.emitChar(' ');
  RDNEXT;
H_Type: {
  const Cell Addr = RVAL(W[2]);
  const Cell Len = RVAL(W[3]);
  if (Len < 0 || !TheVm.validRange(Addr, Len))
    RTRAPMEM_POST(Addr);
  TheVm.typeRange(Addr, Len);
  RDNEXT;
}

  // --- Return stack (always architectural) ----------------------------------

H_ToR:
  if (Rsp >= RsCap)
    RTRAP_PRE(RStackOverflow);
  RStack[Rsp++] = RVAL(W[2]);
  RDNEXT;
H_RFrom:
  if (Rsp < 1)
    RTRAP_PRE(RStackUnderflow);
  Regs[static_cast<UCell>(W[1])] = RStack[--Rsp];
  RDNEXT;
H_RFetch:
  if (Rsp < 1)
    RTRAP_PRE(RStackUnderflow);
  Regs[static_cast<UCell>(W[1])] = RStack[Rsp - 1];
  RDNEXT;
H_DoSetup: {
  if (Rsp + 2 > RsCap)
    RTRAP_PRE(RStackOverflow);
  const Cell Limit = RVAL(W[2]);
  const Cell Index = RVAL(W[3]);
  RStack[Rsp++] = Limit;
  RStack[Rsp++] = Index;
  RDNEXT;
}
H_LoopI:
  if (Rsp < 1)
    RTRAP_PRE(RStackUnderflow);
  Regs[static_cast<UCell>(W[1])] = RStack[Rsp - 1];
  RDNEXT;
H_LoopJ:
  if (Rsp < 3)
    RTRAP_PRE(RStackUnderflow);
  Regs[static_cast<UCell>(W[1])] = RStack[Rsp - 3];
  RDNEXT;
H_Unloop:
  if (Rsp < 2)
    RTRAP_PRE(RStackUnderflow);
  Rsp -= 2;
  RDNEXT;

  // --- Control transfers: operand slots are evaluated before the spill
  // (the spill may rewrite the entry cells a slot points at).

H_Branch:
  RSPILL_POST;
  RJUMP(W[1]);
H_QBranch: {
  const Cell Flag = RVAL(W[2]);
  RSPILL_POST;
  if (Flag == 0)
    RJUMP(W[1]);
  RDNEXT;
}
H_LoopBr: {
  if (Rsp < 2)
    RTRAP_PRE(RStackUnderflow);
  RSPILL_POST;
  const Cell Index = RStack[Rsp - 1] + 1;
  if (Index != RStack[Rsp - 2]) {
    RStack[Rsp - 1] = Index;
    RJUMP(W[1]);
  }
  Rsp -= 2;
  RDNEXT;
}
H_PlusLoopBr: {
  if (Rsp < 2)
    RTRAP_PRE(RStackUnderflow);
  const Cell N = RVAL(W[2]);
  RSPILL_POST;
  const Cell Index = RStack[Rsp - 1];
  const Cell Limit = RStack[Rsp - 2];
  const __int128 D = static_cast<__int128>(Index) - Limit;
  const __int128 D2 = D + N;
  const bool Crossed = (D < 0 && D2 >= 0) || (D >= 0 && D2 < 0);
  if (!Crossed) {
    RStack[Rsp - 1] =
        static_cast<Cell>(static_cast<UCell>(Index) + static_cast<UCell>(N));
    RJUMP(W[1]);
  }
  Rsp -= 2;
  RDNEXT;
}

  // Calls push canonical return addresses — original instruction indices,
  // exactly what the stream engines push — so the return stack is fully
  // comparable across engines and survives a mid-run engine switch. The
  // instruction after a call is always a block leader, so the orig index
  // maps back through OrigToReg on exit; a guest-forged return address
  // (>r then exit) naming a non-leader has no entry and traps
  // BadMemAccess (see docs/TRAPS.md).

H_Call:
  if (Rsp >= RsCap)
    RTRAP_PRE(RStackOverflow);
  RSPILL_POST;
  RStack[Rsp++] = W[2];
  RJUMP(W[1]);
H_Exit: {
  if (Rsp < 1)
    RTRAP_PRE(RStackUnderflow);
  RSPILL_POST;
  const Cell Ret = RStack[--Rsp];
  if (static_cast<UCell>(Ret) >= OrigSize || O2R[Ret] == InvalidReg)
    RTRAP_AT(BadMemAccess, NoFlush); // already spilled; depth is canonical
  RJUMPIDX(O2R[Ret]);
}
H_Halt:
  RSPILL_POST;
  TrapFlush = NoFlush;
  St = RunStatus::Halted;
  goto Done;
H_Sync:
  RSPILL_POST;
  RDNEXT;

Done:
  if (TrapFlush != NoFlush)
    RFLUSH(TrapFlush);
#undef RVAL
#undef RFLUSH
#undef RDNEXT
#undef RTRAP_AT
#undef RTRAP_PRE
#undef RTRAP_POST
#undef RTRAPMEM_POST
#undef RSPILL_POST
#undef RJUMP
#undef RJUMPIDX
  SC_IF_STATS(if (Ctx.Stats) metrics::noteTrap(*Ctx.Stats, St));
  Ctx.DsDepth = Dsp;
  Ctx.RsDepth = Rsp;
  Ctx.noteHighWater();
  if (St == RunStatus::Halted)
    return {St, Steps};
  // TrapPc is already an original program counter: the trapping
  // instruction's RegToOrig entry, or the resume leader on StepLimit.
  // Depths are post-spill, matching the canonical contract.
  return makeFault(St, Steps, TrapPc,
                   TrapPc < OrigSize ? Ctx.Prog->Insts[TrapPc].Op
                                     : Opcode::Halt,
                   Dsp, Rsp, FaultAddr, HasFaultAddr);
}

} // namespace

const Cell *sc::regvm::regHandlerCells() {
  static Cell Tab[NumRegOps];
  static const bool Ready = [] {
    regCore(nullptr, nullptr, 0, nullptr, Tab);
    return true;
  }();
  (void)Ready;
  return Tab;
}

void sc::regvm::translateRegStream(const RegProgram &RP, const Cell *Handlers,
                                   Cell *Out) {
  const size_t N = RP.Insts.size();
  for (size_t I = 0; I < N; ++I) {
    const RegInst &In = RP.Insts[I];
    SC_ASSERT(In.Handler < NumRegOps, "bad handler index");
    Out[4 * I] = Handlers[In.Handler];
    Out[4 * I + 1] = regIsBranchLike(In.Handler) ? In.W1 * 4 : In.W1;
    Out[4 * I + 2] = In.W2;
    Out[4 * I + 3] = In.W3;
  }
  vm::noteStreamTranslation();
}

vm::RunOutcome sc::regvm::runRegPrepared(const RegProgram &RP,
                                         ExecContext &Ctx, uint32_t OrigEntry,
                                         const Cell *Stream) {
  return regCore(&RP, &Ctx, OrigEntry, Stream, nullptr);
}
