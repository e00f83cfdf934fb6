//===-- staticcache/StaticEngine.cpp - Specialized code engine ------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "staticcache/StaticEngine.h"

#include "metrics/Counters.h"
#include "vm/ArithOps.h"
#include "vm/Translate.h"
#include "support/Assert.h"

using namespace sc;
using namespace sc::staticcache;
using namespace sc::vm;

#ifdef SC_STATS
/// Decodes the handler index of the specialized instruction about to be
/// dispatched: VM opcodes count as (cached) dispatches, micro-instructions
/// count as reconcile traffic. The duplication state ES3 holds two logical
/// items in one register; it reports cached depth 2.
static void noteStaticDispatch(sc::metrics::Counters &C,
                               const SpecProgram &SP, UCell SpecIdx) {
  const unsigned H = SP.Insts[SpecIdx].Handler;
  if (H < 4 * NumOpcodes) {
    const unsigned State = H / NumOpcodes;
    sc::metrics::noteCachedDispatch(C, static_cast<Opcode>(H % NumOpcodes),
                                    State == 3 ? 2u : State, 2u);
    return;
  }
  switch (H - 4 * NumOpcodes) {
  case MSpill0:
  case MSpill1:
  case MSpill0Under:
  case MSpill1Under:
  case MSpill0Dup:
  case MSpill1Dup:
    ++C.ReconcileStores;
    break;
  case MFillTos:
  case MFillSnd0:
  case MFillSnd1:
    ++C.ReconcileLoads;
    break;
  default: // MXchg, MMove01, MMove10, MMove10Deep
    ++C.ReconcileMoves;
    break;
  }
}
#endif

namespace {

/// Executes prepared spec stream \p Stream (2 * SPP->Insts.size() cells,
/// see translateSpecStream) from original entry \p OrigEntry. When
/// \p HandlersOut is non-null, fills it with the handler label table and
/// returns without running; \p SPP and \p CtxPtr may then be null.
/// noinline keeps the compiler from cloning the function, which would
/// give the export and execution paths distinct label addresses.
__attribute__((noinline)) RunOutcome
staticCore(const SpecProgram *SPP, ExecContext *CtxPtr, uint32_t OrigEntry,
           const Cell *Stream, Cell *HandlersOut) {
  // Label table: generic state-0 copies for every opcode, specialized
  // copies for hot (state, op) pairs, micro-instructions, and a trap for
  // combinations the pass never emits.
  static const void *const GenericLabels[NumOpcodes] = {
#define SC_OPCODE_LABEL(Name, Mn, DI, DO, RI, RO, HasOp, Kind) &&G_##Name,
      SC_FOR_EACH_OPCODE(SC_OPCODE_LABEL)
#undef SC_OPCODE_LABEL
  };
  const void *Labels[NumHandlers];
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    Labels[I] = GenericLabels[I];
    Labels[NumOpcodes + I] = &&BadHandler;
    Labels[2 * NumOpcodes + I] = &&BadHandler;
    Labels[3 * NumOpcodes + I] = &&BadHandler;
  }
#define SC_SPEC(State, Name)                                                   \
  Labels[(State)*NumOpcodes + static_cast<unsigned>(Opcode::Name)] =           \
      &&S##State##_##Name
#define SC_SPEC3(Name)                                                         \
  do {                                                                         \
    SC_SPEC(0, Name);                                                          \
    SC_SPEC(1, Name);                                                          \
    SC_SPEC(2, Name);                                                          \
  } while (0)
  SC_SPEC3(Lit);
  SC_SPEC3(Add);
  SC_SPEC3(Sub);
  SC_SPEC3(Mul);
  SC_SPEC3(Div);
  SC_SPEC3(Mod);
  SC_SPEC3(And);
  SC_SPEC3(Or);
  SC_SPEC3(Xor);
  SC_SPEC3(Lshift);
  SC_SPEC3(Rshift);
  SC_SPEC3(Min);
  SC_SPEC3(Max);
  SC_SPEC3(Eq);
  SC_SPEC3(Ne);
  SC_SPEC3(Lt);
  SC_SPEC3(Gt);
  SC_SPEC3(Le);
  SC_SPEC3(Ge);
  SC_SPEC3(ULt);
  SC_SPEC3(Negate);
  SC_SPEC3(Invert);
  SC_SPEC3(Abs);
  SC_SPEC3(OnePlus);
  SC_SPEC3(OneMinus);
  SC_SPEC3(TwoStar);
  SC_SPEC3(TwoSlash);
  SC_SPEC3(Cells);
  SC_SPEC3(ZeroEq);
  SC_SPEC3(ZeroNe);
  SC_SPEC3(ZeroLt);
  SC_SPEC3(ZeroGt);
  SC_SPEC3(Fetch);
  SC_SPEC3(CFetch);
  SC_SPEC3(Store);
  SC_SPEC3(CStore);
  SC_SPEC3(PlusStore);
  SC_SPEC3(ToR);
  SC_SPEC3(RFrom);
  SC_SPEC3(RFetch);
  SC_SPEC3(LoopI);
  SC_SPEC3(Over);
  SC_SPEC3(Emit);
  SC_SPEC3(Dot);
  SC_SPEC3(Cr);
  SC_SPEC3(Space);
  SC_SPEC3(TypeOp);
  SC_SPEC3(DoSetup);
  // Control transfers: state 0 uses the generic copy; the cached-state
  // copies spill internally ("the branch performs the transition").
  SC_SPEC(1, QBranch);
  SC_SPEC(2, QBranch);
  SC_SPEC(1, Branch);
  SC_SPEC(2, Branch);
  SC_SPEC(1, Call);
  SC_SPEC(2, Call);
  SC_SPEC(1, Exit);
  SC_SPEC(2, Exit);
  SC_SPEC(1, LoopBr);
  SC_SPEC(2, LoopBr);
  SC_SPEC(1, PlusLoopBr);
  SC_SPEC(2, PlusLoopBr);
  SC_SPEC(1, Halt);
  SC_SPEC(2, Halt);
  // Duplication-state (ES3) copies: both top items in R0.
  SC_SPEC(3, Lit);
  SC_SPEC(3, Add);
  SC_SPEC(3, Sub);
  SC_SPEC(3, Mul);
  SC_SPEC(3, Div);
  SC_SPEC(3, Mod);
  SC_SPEC(3, And);
  SC_SPEC(3, Or);
  SC_SPEC(3, Xor);
  SC_SPEC(3, Lshift);
  SC_SPEC(3, Rshift);
  SC_SPEC(3, Min);
  SC_SPEC(3, Max);
  SC_SPEC(3, Eq);
  SC_SPEC(3, Ne);
  SC_SPEC(3, Lt);
  SC_SPEC(3, Gt);
  SC_SPEC(3, Le);
  SC_SPEC(3, Ge);
  SC_SPEC(3, ULt);
  SC_SPEC(3, Negate);
  SC_SPEC(3, Invert);
  SC_SPEC(3, Abs);
  SC_SPEC(3, OnePlus);
  SC_SPEC(3, OneMinus);
  SC_SPEC(3, TwoStar);
  SC_SPEC(3, TwoSlash);
  SC_SPEC(3, Cells);
  SC_SPEC(3, ZeroEq);
  SC_SPEC(3, ZeroNe);
  SC_SPEC(3, ZeroLt);
  SC_SPEC(3, ZeroGt);
  SC_SPEC(3, Fetch);
  SC_SPEC(3, CFetch);
  SC_SPEC(3, Store);
  SC_SPEC(3, CStore);
  SC_SPEC(3, PlusStore);
  SC_SPEC(3, ToR);
  SC_SPEC(3, RFrom);
  SC_SPEC(3, RFetch);
  SC_SPEC(3, LoopI);
  SC_SPEC(3, Over);
  SC_SPEC(3, Emit);
  SC_SPEC(3, Dot);
  SC_SPEC(3, TypeOp);
  SC_SPEC(3, DoSetup);
  SC_SPEC(3, QBranch);
  SC_SPEC(3, Branch);
  SC_SPEC(3, Call);
  SC_SPEC(3, Exit);
  SC_SPEC(3, LoopBr);
  SC_SPEC(3, PlusLoopBr);
  SC_SPEC(3, Halt);
  // Superinstruction copies (Section 2.2 composed with Section 5).
  SC_SPEC3(LitAdd);
  SC_SPEC3(LitSub);
  SC_SPEC3(LitLt);
  SC_SPEC3(LitEq);
  SC_SPEC3(LitFetch);
  SC_SPEC3(LitStore);
  SC_SPEC(3, LitAdd);
  SC_SPEC(3, LitSub);
  SC_SPEC(3, LitLt);
  SC_SPEC(3, LitEq);
  SC_SPEC(3, LitFetch);
  SC_SPEC(3, LitStore);
#undef SC_SPEC3
#undef SC_SPEC
  Labels[4 * NumOpcodes + MSpill0] = &&M_Spill0;
  Labels[4 * NumOpcodes + MSpill1] = &&M_Spill1;
  Labels[4 * NumOpcodes + MSpill0Under] = &&M_Spill0Under;
  Labels[4 * NumOpcodes + MSpill1Under] = &&M_Spill1Under;
  Labels[4 * NumOpcodes + MSpill0Dup] = &&M_Spill0Dup;
  Labels[4 * NumOpcodes + MSpill1Dup] = &&M_Spill1Dup;
  Labels[4 * NumOpcodes + MXchg] = &&M_Xchg;
  Labels[4 * NumOpcodes + MMove01] = &&M_Move01;
  Labels[4 * NumOpcodes + MMove10] = &&M_Move10;
  Labels[4 * NumOpcodes + MMove10Deep] = &&M_Move10Deep;
  Labels[4 * NumOpcodes + MFillTos] = &&M_FillTos;
  Labels[4 * NumOpcodes + MFillSnd0] = &&M_FillSnd0;
  Labels[4 * NumOpcodes + MFillSnd1] = &&M_FillSnd1;

  if (HandlersOut) {
    for (unsigned I = 0; I < NumHandlers; ++I)
      HandlersOut[I] = reinterpret_cast<Cell>(Labels[I]);
    return {RunStatus::Halted, 0};
  }

  const SpecProgram &SP = *SPP;
  ExecContext &Ctx = *CtxPtr;
  SC_ASSERT(Ctx.Prog && Ctx.Machine, "unbound ExecContext");
  SC_ASSERT(OrigEntry < SP.OrigToSpec.size(), "entry out of range");
  const UCell SpecSize = SP.Insts.size();
  const UCell OrigSize = Ctx.Prog->Insts.size();
  // Entry must be a canonical (state-0) block entry: word entries always
  // are, and resumed runs re-enter at StepLimit stops, which the engine
  // only takes at canonical entries (see DNEXT below).
  const uint32_t Entry = SP.OrigToSpec[OrigEntry];
  SC_ASSERT(Entry < SpecSize, "entry is not a canonical block entry");
  // Orig<->spec maps, needed on the control paths: calls push canonical
  // (original-index) return addresses and exits map them back.
  const uint32_t *S2O = SP.SpecToOrig.data();
  const uint32_t *O2S = SP.OrigToSpec.data();

  Vm &TheVm = *Ctx.Machine;
  const Cell *Base = Stream;
  const Cell *Ip = Base + 2 * Entry;
  const Cell *W = Ip;
  Cell *Stack = Ctx.DS.data();
  Cell *RStack = Ctx.RS.data();
  const unsigned DsCap = Ctx.DsCapacity;
  const unsigned RsCap = Ctx.RsCapacity;
  unsigned Dsp = Ctx.DsDepth;
  unsigned Rsp = Ctx.RsDepth;
  Cell R0 = 0, R1 = 0;
  // Cache shape at trap time, for write-back:
  // 0 = empty, 1 = [t:r0], 2 = [t:r1 r0], 3 = [t:r1], 4 = [t:r0 r0].
  unsigned ExitState = 0;
  uint64_t StepsLeft = Ctx.MaxSteps;
  uint64_t Steps = 0;
  RunStatus St = RunStatus::Halted;
  Cell FaultAddr = 0;
  bool HasFaultAddr = false;

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

  // Plain direct threading: the pass resolved the state statically, so
  // dispatch needs no table and no state variable.
  //
  // StepLimit stops are deferred to safe points — positions where the
  // cache state is 0 AND the next specialized instruction is a canonical
  // block entry — because those are the only positions a later run can
  // re-enter (specialized code cannot be entered mid-block). When the
  // budget runs out elsewhere, execution continues with StepsLeft pinned
  // at zero until the next safe point; Steps keeps counting, so the
  // overshoot is visible in the outcome. The overshoot is bounded by the
  // longest basic block: every loop contains a leader-targeting branch,
  // so a pinned run reaches a safe point in at most one block's worth of
  // instructions.
#define DNEXT(State)                                                           \
  {                                                                            \
    if (StepsLeft == 0) {                                                      \
      if ((State) == 0 &&                                                      \
          isCanonicalEntry(SP, static_cast<UCell>((Ip - Base) / 2))) {         \
        ExitState = 0;                                                         \
        St = RunStatus::StepLimit;                                             \
        goto Done;                                                             \
      }                                                                        \
    } else {                                                                   \
      --StepsLeft;                                                             \
    }                                                                          \
    ++Steps;                                                                   \
    W = Ip;                                                                    \
    Ip += 2;                                                                   \
    SC_IF_STATS(if (Ctx.Stats) noteStaticDispatch(                             \
                    *Ctx.Stats, SP, static_cast<UCell>((W - Base) / 2)));      \
    goto *reinterpret_cast<void *>(W[0]);                                      \
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
  // offsets (DJUMP); Exit's guest-supplied return address is still a
  // spec-index and rescales through DJUMPDYN.
#define DJUMP(State, T)                                                        \
  {                                                                            \
    Ip = Base + static_cast<UCell>(T);                                         \
    DNEXT(State);                                                              \
  }
#define DJUMPDYN(State, T)                                                     \
  {                                                                            \
    Ip = Base + 2 * static_cast<UCell>(T);                                     \
    DNEXT(State);                                                              \
  }

  DNEXT(0);

BadHandler:
  sc::unreachable("specialized handler missing for emitted combination");

  // --- Micro-instructions ----------------------------------------------------

M_Spill0:
  Stack[Dsp++] = R0;
  DNEXT(0);
M_Spill1:
  Stack[Dsp++] = R1;
  DNEXT(0);
M_Spill0Under:
  Stack[Dsp++] = R0;
  DNEXT(3); // TOS remains in R1
M_Spill1Under:
  Stack[Dsp++] = R1;
  DNEXT(1); // TOS remains in R0
M_Spill0Dup:
  Stack[Dsp++] = R0;
  DNEXT(1); // the duplicate stays in R0
M_Spill1Dup:
  Stack[Dsp++] = R1;
  DNEXT(3);
M_Xchg : {
  Cell T = R0;
  R0 = R1;
  R1 = T;
  DNEXT(2);
}
M_Move01:
  R1 = R0;
  DNEXT(2);
M_Move10:
  R0 = R1;
  DNEXT(1);
M_Move10Deep:
  R0 = R1;
  DNEXT(2);
M_FillTos:
  NEEDMEM(0, 1);
  R0 = Stack[--Dsp];
  DNEXT(1);
M_FillSnd0:
  NEEDMEM(3, 1);
  R0 = Stack[--Dsp];
  DNEXT(2);
M_FillSnd1:
  NEEDMEM(1, 1);
  R1 = Stack[--Dsp];
  DNEXT(2);

  // --- Specialized copies ---------------------------------------------------

S0_Lit:
  ROOMK(0, 0, 1);
  R0 = W[1];
  DNEXT(1);
S1_Lit:
  ROOMK(1, 1, 1);
  R1 = W[1];
  DNEXT(2);
S2_Lit:
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = W[1];
  DNEXT(2);

#define SC_SBIN(Name, EXPR)                                                    \
  S0_##Name: {                                                                 \
    NEEDMEM(0, 2);                                                             \
    Cell B = Stack[--Dsp];                                                     \
    Cell A = Stack[--Dsp];                                                     \
    (void)A;                                                                   \
    (void)B;                                                                   \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }                                                                            \
  S1_##Name: {                                                                 \
    NEEDMEM(1, 1);                                                             \
    Cell B = R0;                                                               \
    Cell A = Stack[--Dsp];                                                     \
    (void)A;                                                                   \
    (void)B;                                                                   \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }                                                                            \
  S2_##Name: {                                                                 \
    Cell B = R1;                                                               \
    Cell A = R0;                                                               \
    (void)A;                                                                   \
    (void)B;                                                                   \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }                                                                            \
  S3_##Name: {                                                                 \
    Cell B = R0;                                                               \
    Cell A = R0;                                                               \
    (void)A;                                                                   \
    (void)B;                                                                   \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }

  SC_SBIN(Add, arithAdd(A, B))
  SC_SBIN(Sub, arithSub(A, B))
  SC_SBIN(Mul, arithMul(A, B))
  SC_SBIN(And, A &B)
  SC_SBIN(Or, A | B)
  SC_SBIN(Xor, A ^ B)
  SC_SBIN(Lshift, arithLshift(A, B))
  SC_SBIN(Rshift, arithRshift(A, B))
  SC_SBIN(Min, A < B ? A : B)
  SC_SBIN(Max, A > B ? A : B)
  SC_SBIN(Eq, boolCell(A == B))
  SC_SBIN(Ne, boolCell(A != B))
  SC_SBIN(Lt, boolCell(A < B))
  SC_SBIN(Gt, boolCell(A > B))
  SC_SBIN(Le, boolCell(A <= B))
  SC_SBIN(Ge, boolCell(A >= B))
  SC_SBIN(ULt, arithULt(A, B))
#undef SC_SBIN

  // Division and modulo trap after consuming their operands, exactly like
  // the reference engine.
#define SC_SDIVMOD(Name, EXPR)                                                 \
  S0_##Name: {                                                                 \
    NEEDMEM(0, 2);                                                             \
    Cell B = Stack[--Dsp];                                                     \
    Cell A = Stack[--Dsp];                                                     \
    if (B == 0)                                                                \
      TRAPS(0, DivByZero);                                                     \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }                                                                            \
  S1_##Name: {                                                                 \
    NEEDMEM(1, 1);                                                             \
    Cell B = R0;                                                               \
    Cell A = Stack[--Dsp];                                                     \
    if (B == 0)                                                                \
      TRAPS(0, DivByZero);                                                     \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }                                                                            \
  S2_##Name: {                                                                 \
    Cell B = R1;                                                               \
    Cell A = R0;                                                               \
    if (B == 0)                                                                \
      TRAPS(0, DivByZero);                                                     \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }                                                                            \
  S3_##Name: {                                                                 \
    Cell B = R0;                                                               \
    Cell A = R0;                                                               \
    if (B == 0)                                                                \
      TRAPS(0, DivByZero);                                                     \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }

  SC_SDIVMOD(Div, arithDiv(A, B))
  SC_SDIVMOD(Mod, arithMod(A, B))
#undef SC_SDIVMOD

#define SC_SUN(Name, EXPR)                                                     \
  S0_##Name: {                                                                 \
    NEEDMEM(0, 1);                                                             \
    Cell A = Stack[--Dsp];                                                     \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }                                                                            \
  S1_##Name: {                                                                 \
    Cell A = R0;                                                               \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }                                                                            \
  S2_##Name: {                                                                 \
    Cell A = R1;                                                               \
    R1 = (EXPR);                                                               \
    DNEXT(2);                                                                  \
  }                                                                            \
  S3_##Name: {                                                                 \
    Cell A = R0;                                                               \
    R1 = (EXPR);                                                               \
    DNEXT(2);                                                                  \
  }

  SC_SUN(Negate, arithNegate(A))
  SC_SUN(Invert, ~A)
  SC_SUN(Abs, arithAbs(A))
  SC_SUN(OnePlus, arithOnePlus(A))
  SC_SUN(OneMinus, arithOneMinus(A))
  SC_SUN(TwoStar, arithTwoStar(A))
  SC_SUN(TwoSlash, A >> 1)
  SC_SUN(Cells, arithCells(A))
  SC_SUN(ZeroEq, boolCell(A == 0))
  SC_SUN(ZeroNe, boolCell(A != 0))
  SC_SUN(ZeroLt, boolCell(A < 0))
  SC_SUN(ZeroGt, boolCell(A > 0))
#undef SC_SUN

S0_Fetch : {
  NEEDMEM(0, 1);
  Cell Addr = Stack[--Dsp];
  if (!TheVm.validRange(Addr, CellBytes))
    TRAPMEM(0, Addr);
  R0 = TheVm.loadCell(Addr);
  DNEXT(1);
}
S1_Fetch:
  if (!TheVm.validRange(R0, CellBytes))
    TRAPMEM(0, R0);
  R0 = TheVm.loadCell(R0);
  DNEXT(1);
S2_Fetch:
  if (!TheVm.validRange(R1, CellBytes))
    TRAPMEM(1, R1);
  R1 = TheVm.loadCell(R1);
  DNEXT(2);

S0_CFetch : {
  NEEDMEM(0, 1);
  Cell Addr = Stack[--Dsp];
  if (!TheVm.validRange(Addr, 1))
    TRAPMEM(0, Addr);
  R0 = TheVm.loadByte(Addr);
  DNEXT(1);
}
S1_CFetch:
  if (!TheVm.validRange(R0, 1))
    TRAPMEM(0, R0);
  R0 = TheVm.loadByte(R0);
  DNEXT(1);
S2_CFetch:
  if (!TheVm.validRange(R1, 1))
    TRAPMEM(1, R1);
  R1 = TheVm.loadByte(R1);
  DNEXT(2);

S0_Store : {
  NEEDMEM(0, 2);
  Cell Addr = Stack[--Dsp];
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(Addr, CellBytes))
    TRAPMEM(0, Addr);
  TheVm.storeCell(Addr, V);
  DNEXT(0);
}
S1_Store : {
  NEEDMEM(1, 1);
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(R0, CellBytes))
    TRAPMEM(0, R0);
  TheVm.storeCell(R0, V);
  DNEXT(0);
}
S2_Store:
  if (!TheVm.validRange(R1, CellBytes))
    TRAPMEM(0, R1);
  TheVm.storeCell(R1, R0);
  DNEXT(0);

S0_CStore : {
  NEEDMEM(0, 2);
  Cell Addr = Stack[--Dsp];
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(Addr, 1))
    TRAPMEM(0, Addr);
  TheVm.storeByte(Addr, V);
  DNEXT(0);
}
S1_CStore : {
  NEEDMEM(1, 1);
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(R0, 1))
    TRAPMEM(0, R0);
  TheVm.storeByte(R0, V);
  DNEXT(0);
}
S2_CStore:
  if (!TheVm.validRange(R1, 1))
    TRAPMEM(0, R1);
  TheVm.storeByte(R1, R0);
  DNEXT(0);

S0_PlusStore : {
  NEEDMEM(0, 2);
  Cell Addr = Stack[--Dsp];
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(Addr, CellBytes))
    TRAPMEM(0, Addr);
  TheVm.storeCell(Addr, static_cast<Cell>(
                            static_cast<UCell>(TheVm.loadCell(Addr)) +
                            static_cast<UCell>(V)));
  DNEXT(0);
}
S1_PlusStore : {
  NEEDMEM(1, 1);
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(R0, CellBytes))
    TRAPMEM(0, R0);
  TheVm.storeCell(R0, static_cast<Cell>(
                          static_cast<UCell>(TheVm.loadCell(R0)) +
                          static_cast<UCell>(V)));
  DNEXT(0);
}
S2_PlusStore:
  if (!TheVm.validRange(R1, CellBytes))
    TRAPMEM(0, R1);
  TheVm.storeCell(R1, static_cast<Cell>(
                          static_cast<UCell>(TheVm.loadCell(R1)) +
                          static_cast<UCell>(R0)));
  DNEXT(0);

S0_ToR:
  NEEDMEM(0, 1);
  RROOMK(0, 1);
  RStack[Rsp++] = Stack[--Dsp];
  DNEXT(0);
S1_ToR:
  RROOMK(1, 1);
  RStack[Rsp++] = R0;
  DNEXT(0);
S2_ToR:
  RROOMK(2, 1);
  RStack[Rsp++] = R1;
  DNEXT(1);

S0_RFrom:
  RNEEDK(0, 1);
  ROOMK(0, 0, 1);
  R0 = RStack[--Rsp];
  DNEXT(1);
S1_RFrom:
  RNEEDK(1, 1);
  ROOMK(1, 1, 1);
  R1 = RStack[--Rsp];
  DNEXT(2);
S2_RFrom:
  RNEEDK(2, 1);
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = RStack[--Rsp];
  DNEXT(2);

S0_RFetch:
  RNEEDK(0, 1);
  ROOMK(0, 0, 1);
  R0 = RStack[Rsp - 1];
  DNEXT(1);
S1_RFetch:
  RNEEDK(1, 1);
  ROOMK(1, 1, 1);
  R1 = RStack[Rsp - 1];
  DNEXT(2);
S2_RFetch:
  RNEEDK(2, 1);
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = RStack[Rsp - 1];
  DNEXT(2);

S0_LoopI:
  RNEEDK(0, 1);
  ROOMK(0, 0, 1);
  R0 = RStack[Rsp - 1];
  DNEXT(1);
S1_LoopI:
  RNEEDK(1, 1);
  ROOMK(1, 1, 1);
  R1 = RStack[Rsp - 1];
  DNEXT(2);
S2_LoopI:
  RNEEDK(2, 1);
  ROOMK(2, 2, 1);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = RStack[Rsp - 1];
  DNEXT(2);

S0_Over:
  NEEDMEM(0, 2);
  R0 = Stack[Dsp - 1];
  R1 = Stack[Dsp - 2];
  --Dsp;
  DNEXT(2);
S1_Over:
  NEEDMEM(1, 1);
  ROOMK(1, 1, 1);
  R1 = Stack[Dsp - 1];
  DNEXT(2);
S2_Over : {
  ROOMK(2, 2, 1);
  Cell T = R0;
  Stack[Dsp++] = T;
  R0 = R1;
  R1 = T;
  DNEXT(2);
}

S0_Emit:
  NEEDMEM(0, 1);
  TheVm.emitChar(Stack[--Dsp]);
  DNEXT(0);
S1_Emit:
  TheVm.emitChar(R0);
  DNEXT(0);
S2_Emit:
  TheVm.emitChar(R1);
  DNEXT(1);

S0_Dot:
  NEEDMEM(0, 1);
  TheVm.printNumber(Stack[--Dsp]);
  DNEXT(0);
S1_Dot:
  TheVm.printNumber(R0);
  DNEXT(0);
S2_Dot:
  TheVm.printNumber(R1);
  DNEXT(1);

S0_Cr:
  TheVm.emitChar('\n');
  DNEXT(0);
S1_Cr:
  TheVm.emitChar('\n');
  DNEXT(1);
S2_Cr:
  TheVm.emitChar('\n');
  DNEXT(2);

S0_Space:
  TheVm.emitChar(' ');
  DNEXT(0);
S1_Space:
  TheVm.emitChar(' ');
  DNEXT(1);
S2_Space:
  TheVm.emitChar(' ');
  DNEXT(2);

S0_TypeOp : {
  NEEDMEM(0, 2);
  Cell Len = Stack[--Dsp];
  Cell Addr = Stack[--Dsp];
  if (Len < 0 || !TheVm.validRange(Addr, Len))
    TRAPMEM(0, Addr);
  TheVm.typeRange(Addr, Len);
  DNEXT(0);
}
S1_TypeOp : {
  NEEDMEM(1, 1);
  Cell Len = R0;
  Cell Addr = Stack[--Dsp];
  if (Len < 0 || !TheVm.validRange(Addr, Len))
    TRAPMEM(0, Addr);
  TheVm.typeRange(Addr, Len);
  DNEXT(0);
}
S2_TypeOp : {
  Cell Len = R1;
  Cell Addr = R0;
  if (Len < 0 || !TheVm.validRange(Addr, Len))
    TRAPMEM(0, Addr);
  TheVm.typeRange(Addr, Len);
  DNEXT(0);
}

S0_DoSetup : {
  NEEDMEM(0, 2);
  RROOMK(0, 2);
  Cell Index = Stack[--Dsp];
  Cell Limit = Stack[--Dsp];
  RStack[Rsp++] = Limit;
  RStack[Rsp++] = Index;
  DNEXT(0);
}
S1_DoSetup:
  NEEDMEM(1, 1);
  RROOMK(1, 2);
  RStack[Rsp++] = Stack[--Dsp]; // limit (below the cached index)
  RStack[Rsp++] = R0;           // index
  DNEXT(0);
S2_DoSetup:
  RROOMK(2, 2);
  RStack[Rsp++] = R0; // limit
  RStack[Rsp++] = R1; // index
  DNEXT(0);

  // --- Control transfers: the cached-state copies reconcile to the
  // canonical (empty) state themselves.

S1_QBranch:
  if (R0 == 0)
    DJUMP(0, W[1]);
  DNEXT(0);
S2_QBranch:
  Stack[Dsp++] = R0; // the remaining item returns to memory
  if (R1 == 0)
    DJUMP(0, W[1]);
  DNEXT(0);

S1_Branch:
  Stack[Dsp++] = R0;
  DJUMP(0, W[1]);
S2_Branch:
  Stack[Dsp++] = R0;
  Stack[Dsp++] = R1;
  DJUMP(0, W[1]);

  // Calls push canonical return addresses — original instruction indices,
  // exactly what the stream engines push — so the return stack is fully
  // comparable across engines and survives a mid-run engine switch. The
  // instruction after a call is always a block leader (Code::computeLeaders),
  // so the orig index maps back through OrigToSpec on exit. A guest-forged
  // return address (>r then exit) naming a non-leader has no specialized
  // entry and traps BadMemAccess (see docs/TRAPS.md).

S1_Call:
  RROOMK(1, 1);
  Stack[Dsp++] = R0;
  RStack[Rsp++] = static_cast<Cell>(S2O[(W - Base) / 2] + 1);
  DJUMP(0, W[1]);
S2_Call:
  RROOMK(2, 1);
  Stack[Dsp++] = R0;
  Stack[Dsp++] = R1;
  RStack[Rsp++] = static_cast<Cell>(S2O[(W - Base) / 2] + 1);
  DJUMP(0, W[1]);

S1_Exit : {
  RNEEDK(1, 1);
  Stack[Dsp++] = R0;
  Cell Ret = RStack[--Rsp];
  if (static_cast<UCell>(Ret) >= OrigSize || O2S[Ret] == InvalidSpec)
    TRAPS(0, BadMemAccess);
  DJUMPDYN(0, O2S[Ret]);
}
S2_Exit : {
  RNEEDK(2, 1);
  Stack[Dsp++] = R0;
  Stack[Dsp++] = R1;
  Cell Ret = RStack[--Rsp];
  if (static_cast<UCell>(Ret) >= OrigSize || O2S[Ret] == InvalidSpec)
    TRAPS(0, BadMemAccess);
  DJUMPDYN(0, O2S[Ret]);
}

#define SC_SLOOPBR(PRE)                                                        \
  {                                                                            \
    PRE;                                                                       \
    Cell Index = RStack[Rsp - 1] + 1;                                          \
    if (Index != RStack[Rsp - 2]) {                                            \
      RStack[Rsp - 1] = Index;                                                 \
      DJUMP(0, W[1]);                                                          \
    }                                                                          \
    Rsp -= 2;                                                                  \
    DNEXT(0);                                                                  \
  }
S1_LoopBr:
  RNEEDK(1, 2);
  SC_SLOOPBR(Stack[Dsp++] = R0)
S2_LoopBr:
  RNEEDK(2, 2);
  SC_SLOOPBR(Stack[Dsp++] = R0; Stack[Dsp++] = R1)
#undef SC_SLOOPBR

#define SC_SPLUSLOOP(NEXPR, PRE)                                               \
  {                                                                            \
    Cell N = (NEXPR);                                                          \
    PRE;                                                                       \
    Cell Index = RStack[Rsp - 1];                                              \
    Cell Limit = RStack[Rsp - 2];                                              \
    __int128 D = static_cast<__int128>(Index) - Limit;                         \
    __int128 D2 = D + N;                                                       \
    bool Crossed = (D < 0 && D2 >= 0) || (D >= 0 && D2 < 0);                   \
    if (!Crossed) {                                                            \
      RStack[Rsp - 1] = static_cast<Cell>(static_cast<UCell>(Index) +          \
                                          static_cast<UCell>(N));              \
      DJUMP(0, W[1]);                                                          \
    }                                                                          \
    Rsp -= 2;                                                                  \
    DNEXT(0);                                                                  \
  }
S1_PlusLoopBr:
  RNEEDK(1, 2);
  SC_SPLUSLOOP(R0, (void)0)
S2_PlusLoopBr:
  RNEEDK(2, 2);
  SC_SPLUSLOOP(R1, Stack[Dsp++] = R0)
#undef SC_SPLUSLOOP

S1_Halt:
  TRAPS(1, Halted);
S2_Halt:
  TRAPS(2, Halted);


  // --- Duplication-state (ES3) copies: TOS and second item both in R0 ---

S3_Lit:
  ROOMK(4, 2, 1);
  Stack[Dsp++] = R0; // spill the deeper duplicate
  R1 = W[1];
  DNEXT(2);

S3_Fetch:
  if (!TheVm.validRange(R0, CellBytes))
    TRAPMEM(1, R0);
  R1 = TheVm.loadCell(R0);
  DNEXT(2);
S3_CFetch:
  if (!TheVm.validRange(R0, 1))
    TRAPMEM(1, R0);
  R1 = TheVm.loadByte(R0);
  DNEXT(2);

S3_Store:
  // ( x addr -- ) with x == addr == R0.
  if (!TheVm.validRange(R0, CellBytes))
    TRAPMEM(0, R0);
  TheVm.storeCell(R0, R0);
  DNEXT(0);
S3_CStore:
  if (!TheVm.validRange(R0, 1))
    TRAPMEM(0, R0);
  TheVm.storeByte(R0, R0);
  DNEXT(0);
S3_PlusStore:
  if (!TheVm.validRange(R0, CellBytes))
    TRAPMEM(0, R0);
  TheVm.storeCell(R0, static_cast<Cell>(
                          static_cast<UCell>(TheVm.loadCell(R0)) +
                          static_cast<UCell>(R0)));
  DNEXT(0);

S3_ToR:
  RROOMK(4, 1);
  RStack[Rsp++] = R0;
  DNEXT(1);
S3_RFrom:
  RNEEDK(4, 1);
  ROOMK(4, 2, 1);
  Stack[Dsp++] = R0;
  R1 = RStack[--Rsp];
  DNEXT(2);
S3_RFetch:
  RNEEDK(4, 1);
  ROOMK(4, 2, 1);
  Stack[Dsp++] = R0;
  R1 = RStack[Rsp - 1];
  DNEXT(2);
S3_LoopI:
  RNEEDK(4, 1);
  ROOMK(4, 2, 1);
  Stack[Dsp++] = R0;
  R1 = RStack[Rsp - 1];
  DNEXT(2);

S3_Over:
  // ( a b -- a b a ) with a == b == R0: spill one copy, TOS copy to R1.
  ROOMK(4, 2, 1);
  Stack[Dsp++] = R0;
  R1 = R0;
  DNEXT(2);

S3_Emit:
  TheVm.emitChar(R0);
  DNEXT(1);
S3_Dot:
  TheVm.printNumber(R0);
  DNEXT(1);
S3_TypeOp : {
  // ( addr u -- ) with addr == u == R0.
  if (R0 < 0 || !TheVm.validRange(R0, R0))
    TRAPMEM(0, R0);
  TheVm.typeRange(R0, R0);
  DNEXT(0);
}
S3_DoSetup:
  RROOMK(4, 2);
  RStack[Rsp++] = R0; // limit
  RStack[Rsp++] = R0; // index
  DNEXT(0);

S3_QBranch:
  Stack[Dsp++] = R0; // the surviving duplicate returns to memory
  if (R0 == 0)
    DJUMP(0, W[1]);
  DNEXT(0);
S3_Branch:
  Stack[Dsp++] = R0;
  Stack[Dsp++] = R0;
  DJUMP(0, W[1]);
S3_Call:
  RROOMK(4, 1);
  Stack[Dsp++] = R0;
  Stack[Dsp++] = R0;
  RStack[Rsp++] = static_cast<Cell>(S2O[(W - Base) / 2] + 1);
  DJUMP(0, W[1]);
S3_Exit : {
  RNEEDK(4, 1);
  Stack[Dsp++] = R0;
  Stack[Dsp++] = R0;
  Cell Ret = RStack[--Rsp];
  if (static_cast<UCell>(Ret) >= OrigSize || O2S[Ret] == InvalidSpec)
    TRAPS(0, BadMemAccess);
  DJUMPDYN(0, O2S[Ret]);
}
S3_LoopBr : {
  RNEEDK(4, 2);
  Stack[Dsp++] = R0;
  Stack[Dsp++] = R0;
  Cell Index = RStack[Rsp - 1] + 1;
  if (Index != RStack[Rsp - 2]) {
    RStack[Rsp - 1] = Index;
    DJUMP(0, W[1]);
  }
  Rsp -= 2;
  DNEXT(0);
}
S3_PlusLoopBr : {
  RNEEDK(4, 2);
  Cell N = R0;
  Stack[Dsp++] = R0;
  Cell Index = RStack[Rsp - 1];
  Cell Limit = RStack[Rsp - 2];
  __int128 D = static_cast<__int128>(Index) - Limit;
  __int128 D2 = D + N;
  bool Crossed = (D < 0 && D2 >= 0) || (D >= 0 && D2 < 0);
  if (!Crossed) {
    RStack[Rsp - 1] = static_cast<Cell>(static_cast<UCell>(Index) +
                                        static_cast<UCell>(N));
    DJUMP(0, W[1]);
  }
  Rsp -= 2;
  DNEXT(0);
}
S3_Halt:
  TRAPS(4, Halted);


  // --- Superinstruction copies: lit + consumer in one dispatch ---------------

#define SC_SLIT(Name, EXPR)                                                    \
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
    DNEXT(1);                                                                  \
  }                                                                            \
  S1_##Name: {                                                                 \
    Cell A = R0;                                                               \
    Cell N = W[1];                                                             \
    (void)A;                                                                   \
    (void)N;                                                                   \
    R0 = (EXPR);                                                               \
    DNEXT(1);                                                                  \
  }                                                                            \
  S2_##Name: {                                                                 \
    Cell A = R1;                                                               \
    Cell N = W[1];                                                             \
    (void)A;                                                                   \
    (void)N;                                                                   \
    R1 = (EXPR);                                                               \
    DNEXT(2);                                                                  \
  }                                                                            \
  S3_##Name: {                                                                 \
    Cell A = R0;                                                               \
    Cell N = W[1];                                                             \
    (void)A;                                                                   \
    (void)N;                                                                   \
    R1 = (EXPR);                                                               \
    DNEXT(2);                                                                  \
  }

  SC_SLIT(LitAdd, arithAdd(A, N))
  SC_SLIT(LitSub, arithSub(A, N))
  SC_SLIT(LitLt, boolCell(A < N))
  SC_SLIT(LitEq, boolCell(A == N))
#undef SC_SLIT

S0_LitFetch:
  ROOMK(0, 0, 1);
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(0, W[1]);
  R0 = TheVm.loadCell(W[1]);
  DNEXT(1);
S1_LitFetch:
  ROOMK(1, 1, 1);
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(1, W[1]);
  R1 = TheVm.loadCell(W[1]);
  DNEXT(2);
S2_LitFetch:
  ROOMK(2, 2, 1);
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(2, W[1]);
  Stack[Dsp++] = R0;
  R0 = R1;
  R1 = TheVm.loadCell(W[1]);
  DNEXT(2);
S3_LitFetch:
  ROOMK(4, 2, 1);
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(4, W[1]);
  Stack[Dsp++] = R0;
  R1 = TheVm.loadCell(W[1]);
  DNEXT(2);

S0_LitStore : {
  if (Dsp < 1) { // materialize the address, as unfused code would
    R0 = W[1];
    TRAPS(1, StackUnderflow);
  }
  Cell V = Stack[--Dsp];
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(0, W[1]);
  TheVm.storeCell(W[1], V);
  DNEXT(0);
}
S1_LitStore:
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(0, W[1]);
  TheVm.storeCell(W[1], R0);
  DNEXT(0);
S2_LitStore:
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(1, W[1]);
  TheVm.storeCell(W[1], R1);
  DNEXT(1);
S3_LitStore:
  if (!TheVm.validRange(W[1], CellBytes))
    TRAPMEM(1, W[1]);
  TheVm.storeCell(W[1], R0);
  DNEXT(1);

  // --- Generic state-0 copies for every opcode -------------------------------

#define SC_CASE(Name) G_##Name:
#define SC_END DNEXT(0)
#define SC_OPERAND (W[1])
  // Calls push canonical (original-index) return addresses; Exit bounds-
  // checks against the original program and maps back through OrigToSpec,
  // trapping on addresses with no specialized entry (non-leaders).
#define SC_NEXTIP (S2O[(W - Base) / 2] + 1)
#define SC_JUMP(T) DJUMP(0, T)
#define SC_JUMP_DYN(T)                                                         \
  {                                                                            \
    const uint32_t SpecTarget = O2S[static_cast<UCell>(T)];                    \
    if (SpecTarget == InvalidSpec)                                             \
      TRAPS(0, BadMemAccess);                                                  \
    DJUMPDYN(0, SpecTarget);                                                   \
  }
#define SC_CODE_SIZE OrigSize
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
#undef SC_TRAP_MEM
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

Done:
#undef DNEXT
#undef TRAPS
#undef TRAPMEM
#undef NEEDMEM
#undef ROOMK
#undef RNEEDK
#undef RROOMK
#undef DJUMP
#undef DJUMPDYN
  switch (ExitState) {
  case 0:
    break;
  case 1:
    Stack[Dsp++] = R0;
    break;
  case 2:
    Stack[Dsp++] = R0;
    Stack[Dsp++] = R1;
    break;
  case 3:
    Stack[Dsp++] = R1;
    break;
  case 4:
    Stack[Dsp++] = R0;
    Stack[Dsp++] = R0;
    break;
  default:
    sc::unreachable("bad trap exit state");
  }
  SC_IF_STATS(if (Ctx.Stats) {
    // Write-back stores: states 2 and 4 flush two items, 1 and 3 one.
    Ctx.Stats->ReconcileStores +=
        ExitState == 0 ? 0u : (ExitState == 2 || ExitState == 4 ? 2u : 1u);
    metrics::noteTrap(*Ctx.Stats, St);
  });
  Ctx.DsDepth = Dsp;
  Ctx.RsDepth = Rsp;
  Ctx.noteHighWater();
  if (St == RunStatus::Halted)
    return {St, Steps};
  // Map the specialized trap position back to the original program
  // counter so faults read like every other engine's. W addresses the
  // trapping specialized instruction; on StepLimit, Ip is the resume
  // point. Depths are post-write-back, matching the canonical contract.
  const UCell SpecPc =
      (St == RunStatus::StepLimit ? Ip - Base : W - Base) / 2;
  const uint32_t FaultPc = SpecPc < SP.SpecToOrig.size()
                               ? SP.SpecToOrig[SpecPc]
                               : static_cast<uint32_t>(SpecPc);
  return makeFault(St, Steps, FaultPc,
                   FaultPc < OrigSize ? Ctx.Prog->Insts[FaultPc].Op
                                      : Opcode::Halt,
                   Dsp, Rsp, FaultAddr, HasFaultAddr);
}

} // namespace

const Cell *sc::staticcache::staticHandlerCells() {
  static Cell Tab[NumHandlers];
  static const bool Ready = [] {
    staticCore(nullptr, nullptr, 0, nullptr, Tab);
    return true;
  }();
  (void)Ready;
  return Tab;
}

void sc::staticcache::translateSpecStream(const SpecProgram &SP,
                                          const Cell *Handlers, Cell *Out) {
  const size_t N = SP.Insts.size();
  for (size_t I = 0; I < N; ++I) {
    const SpecInst &In = SP.Insts[I];
    SC_ASSERT(In.Handler < NumHandlers, "bad handler index");
    Out[2 * I] = Handlers[In.Handler];
    Out[2 * I + 1] =
        specIsBranchLike(In.Handler) ? In.Operand * 2 : In.Operand;
  }
  vm::noteStreamTranslation();
}

vm::RunOutcome sc::staticcache::runStaticPrepared(const SpecProgram &SP,
                                                  ExecContext &Ctx,
                                                  uint32_t OrigEntry,
                                                  const Cell *Stream) {
  return staticCore(&SP, &Ctx, OrigEntry, Stream, nullptr);
}

vm::RunOutcome sc::staticcache::runStaticEngine(const SpecProgram &SP,
                                                ExecContext &Ctx,
                                                uint32_t OrigEntry) {
  std::vector<Cell> Stream(2 * SP.Insts.size());
  translateSpecStream(SP, staticHandlerCells(), Stream.data());
  return staticCore(&SP, &Ctx, OrigEntry, Stream.data(), nullptr);
}
