//===-- superinst/Superinst.cpp - Superinstruction combining --------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "superinst/Superinst.h"

#include "support/Assert.h"

using namespace sc;
using namespace sc::superinst;
using namespace sc::vm;

/// The consumer half of a fusable pair, or Nop if not fusable.
static Opcode fusedOpcode(Opcode Consumer) {
  switch (Consumer) {
  case Opcode::Add:
    return Opcode::LitAdd;
  case Opcode::Sub:
    return Opcode::LitSub;
  case Opcode::Lt:
    return Opcode::LitLt;
  case Opcode::Eq:
    return Opcode::LitEq;
  case Opcode::Fetch:
    return Opcode::LitFetch;
  case Opcode::Store:
    return Opcode::LitStore;
  default:
    return Opcode::Nop;
  }
}

CombineResult
sc::superinst::combineSuperinstructions(const Code &Prog) {
  std::vector<bool> Leaders = Prog.computeLeaders();
  CombineResult R;
  Code &Out = R.Combined;
  Out.Insts.clear(); // drop the constructor's Halt; slot 0 is copied below

  std::vector<uint32_t> OldToNew(Prog.Insts.size(), 0);
  std::vector<std::pair<uint32_t, uint32_t>> Patches; // new idx, old target

  for (uint32_t I = 0; I < Prog.Insts.size(); ++I) {
    OldToNew[I] = static_cast<uint32_t>(Out.Insts.size());
    const Inst &In = Prog.Insts[I];
    if (In.Op == Opcode::Lit && I + 1 < Prog.Insts.size() &&
        !Leaders[I + 1]) {
      Opcode Fused = fusedOpcode(Prog.Insts[I + 1].Op);
      if (Fused != Opcode::Nop) {
        Out.Insts.push_back(Inst(Fused, In.Operand));
        OldToNew[I + 1] = OldToNew[I]; // nothing may target it anyway
        ++R.PairsCombined;
        ++I; // consume the pair
        continue;
      }
    }
    if (isBranchLike(In.Op))
      Patches.push_back({static_cast<uint32_t>(Out.Insts.size()),
                         static_cast<uint32_t>(In.Operand)});
    Out.Insts.push_back(In);
  }

  for (const auto &[NewIdx, OldTarget] : Patches)
    Out.Insts[NewIdx].Operand = OldToNew[OldTarget];

  for (const Word &W : Prog.Words) {
    Word NW = W;
    NW.Entry = OldToNew[W.Entry];
    NW.End = W.End < OldToNew.size()
                 ? OldToNew[W.End]
                 : static_cast<uint32_t>(Out.Insts.size());
    Out.Words.push_back(NW);
  }
  SC_ASSERT(Out.Insts.size() >= 1 && Out.Insts[0].Op == Opcode::Halt,
            "instruction 0 must remain the Halt slot");
  return R;
}
