//===-- forth/Compiler.cpp - Forth compiler / evaluator -------------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "forth/Compiler.h"

#include "dispatch/Engines.h"
#include "support/Assert.h"

using namespace sc;
using namespace sc::forth;
using namespace sc::vm;

/// Primitives the user may not name directly: they carry operands the
/// compiler must synthesize, or are internal machinery.
static bool isHiddenPrimitive(Opcode Op) {
  switch (Op) {
  case Opcode::Lit:
  case Opcode::Branch:
  case Opcode::QBranch:
  case Opcode::LoopBr:
  case Opcode::PlusLoopBr:
  case Opcode::Call:
  case Opcode::Halt:
  case Opcode::DoSetup:
  // Superinstructions are synthesized by the combining pass only.
  case Opcode::LitAdd:
  case Opcode::LitSub:
  case Opcode::LitLt:
  case Opcode::LitEq:
  case Opcode::LitFetch:
  case Opcode::LitStore:
    return true;
  default:
    return false;
  }
}

Compiler::Compiler(Code &C, Vm &V, ExecContext &Top)
    : Prog(C), Machine(V), Top(Top) {
  SC_ASSERT(Top.Prog == &C && Top.Machine == &V,
            "top-level context must be bound to the same code and vm");
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    if (isHiddenPrimitive(Op))
      continue;
    DictEntry E;
    E.K = DictEntry::Kind::Prim;
    E.Op = Op;
    Dict[mnemonic(Op)] = E;
  }
}

const DictEntry *Compiler::lookup(const std::string &Name) const {
  auto It = Dict.find(Name);
  return It == Dict.end() ? nullptr : &It->second;
}

bool Compiler::fail(const std::string &Msg) {
  Error = "line " + std::to_string(Lex ? Lex->line() : 0) + ": " + Msg;
  return false;
}

bool Compiler::popTop(Cell &V, const char *Who) {
  if (Top.DsDepth == 0)
    return fail(std::string(Who) + ": top-level stack is empty");
  V = Top.pop();
  return true;
}

Cell Compiler::internString(const std::string &S) {
  Cell Addr = Machine.allot(static_cast<Cell>(S.size()) + 1);
  if (!S.empty())
    Machine.writeBytes(Addr, S.data(), S.size());
  return Addr;
}

bool Compiler::execSnippet(const std::vector<Inst> &Insts) {
  uint32_t Saved = Prog.size();
  for (const Inst &In : Insts)
    Prog.Insts.push_back(In);
  Prog.emit(Opcode::Halt);
  Top.RsDepth = 0; // the top level has no persistent return stack
  RunOutcome Outcome = dispatch::runSwitchEngine(Top, Saved);
  Prog.Insts.resize(Saved);
  if (Outcome.Status != RunStatus::Halted)
    return fail(std::string("interpretation failed: ") +
                runStatusName(Outcome.Status));
  return true;
}

bool Compiler::ctrlPop(CtrlItem::Kind K, CtrlItem &Out, const char *Who) {
  if (CtrlStack.empty() || CtrlStack.back().K != K)
    return fail(std::string(Who) + ": unbalanced control structure");
  Out = std::move(CtrlStack.back());
  CtrlStack.pop_back();
  return true;
}

Compiler::CtrlItem *Compiler::findLoop() {
  for (auto It = CtrlStack.rbegin(); It != CtrlStack.rend(); ++It)
    if (It->K == CtrlItem::Kind::Loop)
      return &*It;
  return nullptr;
}

bool Compiler::compileSource(std::string_view Src) {
  Lexer L(Src);
  Lex = &L;
  std::string Raw, Lower;
  bool Ok = true;
  while (Ok && L.next(Raw)) {
    Lower = Raw;
    toLower(Lower);
    if (Lower == "\\") {
      L.skipLine();
      continue;
    }
    if (Lower == "(") {
      std::string Ignored;
      if (!L.readUntil(')', Ignored)) {
        Ok = fail("unterminated ( comment");
        break;
      }
      continue;
    }
    Ok = Compiling ? compileToken(Raw, Lower) : interpretToken(Raw, Lower);
  }
  Lex = nullptr;
  if (Ok && Compiling)
    return fail("unterminated definition of '" + CurrentName + "'");
  return Ok;
}

bool Compiler::compileToken(const std::string &Raw, const std::string &Lower) {
  // --- Definition terminator -------------------------------------------
  if (Lower == ";") {
    if (!CtrlStack.empty())
      return fail("';' with unbalanced control structure");
    Prog.emit(Opcode::Exit);
    Word W;
    W.Name = CurrentName;
    W.Entry = CurrentEntry;
    W.End = Prog.size();
    Prog.Words.push_back(W);
    DictEntry E;
    E.K = DictEntry::Kind::Colon;
    E.Entry = CurrentEntry;
    Dict[CurrentName] = E;
    Compiling = false;
    return true;
  }

  // --- Control flow ------------------------------------------------------
  if (Lower == "if") {
    CtrlStack.push_back({CtrlItem::Kind::Orig,
                         Prog.emit(Opcode::QBranch, 0), {}});
    return true;
  }
  if (Lower == "else") {
    uint32_t Jmp = Prog.emit(Opcode::Branch, 0);
    CtrlItem If;
    if (!ctrlPop(CtrlItem::Kind::Orig, If, "ELSE"))
      return false;
    Prog.Insts[If.Index].Operand = Prog.size();
    Prog.touch();
    CtrlStack.push_back({CtrlItem::Kind::Orig, Jmp, {}});
    return true;
  }
  if (Lower == "then") {
    CtrlItem If;
    if (!ctrlPop(CtrlItem::Kind::Orig, If, "THEN"))
      return false;
    Prog.Insts[If.Index].Operand = Prog.size();
    Prog.touch();
    return true;
  }
  if (Lower == "begin") {
    CtrlStack.push_back({CtrlItem::Kind::Dest, Prog.size(), {}});
    return true;
  }
  if (Lower == "until") {
    CtrlItem Dest;
    if (!ctrlPop(CtrlItem::Kind::Dest, Dest, "UNTIL"))
      return false;
    Prog.emit(Opcode::QBranch, Dest.Index);
    return true;
  }
  if (Lower == "again") {
    CtrlItem Dest;
    if (!ctrlPop(CtrlItem::Kind::Dest, Dest, "AGAIN"))
      return false;
    Prog.emit(Opcode::Branch, Dest.Index);
    return true;
  }
  if (Lower == "while") {
    CtrlItem Dest;
    if (!ctrlPop(CtrlItem::Kind::Dest, Dest, "WHILE"))
      return false;
    CtrlStack.push_back({CtrlItem::Kind::Orig,
                         Prog.emit(Opcode::QBranch, 0), {}});
    CtrlStack.push_back(Dest); // dest stays on top for REPEAT
    return true;
  }
  if (Lower == "repeat") {
    CtrlItem Dest, Orig;
    if (!ctrlPop(CtrlItem::Kind::Dest, Dest, "REPEAT"))
      return false;
    if (!ctrlPop(CtrlItem::Kind::Orig, Orig, "REPEAT"))
      return false;
    Prog.emit(Opcode::Branch, Dest.Index);
    Prog.Insts[Orig.Index].Operand = Prog.size();
    Prog.touch();
    return true;
  }
  if (Lower == "do") {
    Prog.emit(Opcode::DoSetup);
    CtrlStack.push_back({CtrlItem::Kind::Loop, Prog.size(), {}});
    return true;
  }
  if (Lower == "loop" || Lower == "+loop") {
    CtrlItem LoopItem;
    if (!ctrlPop(CtrlItem::Kind::Loop, LoopItem, "LOOP"))
      return false;
    Prog.emit(Lower == "loop" ? Opcode::LoopBr : Opcode::PlusLoopBr,
              LoopItem.Index);
    for (uint32_t Leave : LoopItem.Leaves)
      Prog.Insts[Leave].Operand = Prog.size();
    Prog.touch();
    return true;
  }
  if (Lower == "leave") {
    CtrlItem *LoopItem = findLoop();
    if (!LoopItem)
      return fail("LEAVE outside DO..LOOP");
    Prog.emit(Opcode::Unloop);
    LoopItem->Leaves.push_back(Prog.emit(Opcode::Branch, 0));
    return true;
  }
  if (Lower == "recurse") {
    Prog.emit(Opcode::Call, CurrentEntry);
    return true;
  }

  // --- Literals and strings ---------------------------------------------
  if (Lower == ".\"") {
    std::string S;
    if (!Lex->readUntil('"', S))
      return fail("unterminated .\" string");
    Cell Addr = internString(S);
    Prog.emit(Opcode::Lit, Addr);
    Prog.emit(Opcode::Lit, static_cast<Cell>(S.size()));
    Prog.emit(Opcode::TypeOp);
    return true;
  }
  if (Lower == "s\"") {
    std::string S;
    if (!Lex->readUntil('"', S))
      return fail("unterminated s\" string");
    Cell Addr = internString(S);
    Prog.emit(Opcode::Lit, Addr);
    Prog.emit(Opcode::Lit, static_cast<Cell>(S.size()));
    return true;
  }
  if (Lower == "[char]") {
    std::string C;
    if (!Lex->next(C) || C.empty())
      return fail("[CHAR] needs a character");
    Prog.emit(Opcode::Lit, static_cast<unsigned char>(C[0]));
    return true;
  }

  // --- Dictionary and numbers --------------------------------------------
  if (const DictEntry *E = lookup(Lower)) {
    switch (E->K) {
    case DictEntry::Kind::Prim:
      Prog.emit(E->Op);
      return true;
    case DictEntry::Kind::Colon:
      Prog.emit(Opcode::Call, E->Entry);
      return true;
    case DictEntry::Kind::Variable:
    case DictEntry::Kind::Constant:
      Prog.emit(Opcode::Lit, E->Value);
      return true;
    }
    sc::unreachable("bad DictEntry kind");
  }
  int64_t Num;
  if (parseNumber(Raw, Num)) {
    Prog.emit(Opcode::Lit, Num);
    return true;
  }
  return fail("undefined word '" + Raw + "'");
}

bool Compiler::interpretToken(const std::string &Raw,
                              const std::string &Lower) {
  if (Lower == ":") {
    std::string Name;
    if (!Lex->next(Name) || Name.empty())
      return fail("':' needs a name");
    toLower(Name);
    CurrentName = Name;
    CurrentEntry = Prog.size();
    Compiling = true;
    return true;
  }
  if (Lower == "variable" || Lower == "create") {
    std::string Name;
    if (!Lex->next(Name) || Name.empty())
      return fail(Lower + " needs a name");
    toLower(Name);
    Machine.align();
    DictEntry E;
    E.K = DictEntry::Kind::Variable;
    E.Value = Lower == "variable" ? Machine.allot(CellBytes) : Machine.here();
    Dict[Name] = E;
    return true;
  }
  if (Lower == "constant") {
    std::string Name;
    if (!Lex->next(Name) || Name.empty())
      return fail("CONSTANT needs a name");
    toLower(Name);
    Cell V;
    if (!popTop(V, "CONSTANT"))
      return false;
    DictEntry E;
    E.K = DictEntry::Kind::Constant;
    E.Value = V;
    Dict[Name] = E;
    return true;
  }
  if (Lower == "allot") {
    Cell N;
    if (!popTop(N, "ALLOT"))
      return false;
    if (N < 0)
      return fail("ALLOT with negative size");
    Machine.allot(N);
    return true;
  }
  if (Lower == ",") {
    Cell V;
    if (!popTop(V, "','"))
      return false;
    Machine.align();
    Machine.storeCell(Machine.allot(CellBytes), V);
    return true;
  }
  if (Lower == "c,") {
    Cell V;
    if (!popTop(V, "'c,'"))
      return false;
    Machine.storeByte(Machine.allot(1), V);
    return true;
  }
  if (Lower == "here") {
    Top.push(Machine.here());
    return true;
  }
  if (Lower == "char") {
    std::string C;
    if (!Lex->next(C) || C.empty())
      return fail("CHAR needs a character");
    Top.push(static_cast<unsigned char>(C[0]));
    return true;
  }
  if (Lower == "s\"") {
    std::string S;
    if (!Lex->readUntil('"', S))
      return fail("unterminated s\" string");
    Cell Addr = internString(S);
    Top.push(Addr);
    Top.push(static_cast<Cell>(S.size()));
    return true;
  }

  if (const DictEntry *E = lookup(Lower)) {
    switch (E->K) {
    case DictEntry::Kind::Prim:
      return execSnippet({Inst(E->Op)});
    case DictEntry::Kind::Colon:
      return execSnippet({Inst(Opcode::Call, E->Entry)});
    case DictEntry::Kind::Variable:
    case DictEntry::Kind::Constant:
      Top.push(E->Value);
      return true;
    }
    sc::unreachable("bad DictEntry kind");
  }
  int64_t Num;
  if (parseNumber(Raw, Num)) {
    Top.push(Num);
    return true;
  }
  return fail("undefined word '" + Raw + "'");
}
