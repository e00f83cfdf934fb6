//===-- prepare/Prepare.cpp - Prepare-once, run-many translation ----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "prepare/Prepare.h"

#include "dispatch/Engines.h"
#include "dynamic/Dynamic3Engine.h"
#include "dynamic/ModelInterpreter.h"
#include "regvm/RegVm.h"
#include "staticcache/StaticEngine.h"
#include "superinst/Superinst.h"
#include "support/Assert.h"
#include "vm/Translate.h"

#include <chrono>

using namespace sc;
using namespace sc::prepare;
using namespace sc::vm;

uint32_t PreparedCode::entryOf(const std::string &Name) const {
  const Word *W = Snapshot->findWord(Name);
  SC_ASSERT(W, "entryOf: unknown word");
  return W->Entry;
}

namespace {

/// Fills PC.Stream with the two-cell translation of its snapshot.
void translateInto(PreparedCode &PC, const Cell *Handlers) {
  PC.Stream.resize(2 * static_cast<size_t>(PC.program().size()));
  translateStream(PC.program(), Handlers, PC.Stream.data());
}

} // namespace

std::shared_ptr<const PreparedCode>
sc::prepare::prepareCode(const Code &Prog, EngineId Engine,
                         const PrepareOptions &Opts) {
  const auto T0 = std::chrono::steady_clock::now();
  auto PC = std::make_shared<PreparedCode>();
  PC->Engine = Engine;
  PC->Source = &Prog;
  PC->SourceVersion = Prog.version();
  PC->SourceIdentity = Prog.identity();

  if (Opts.FuseSuperinstructions) {
    superinst::CombineResult R = superinst::combineSuperinstructions(Prog);
    PC->FusedPairs = R.PairsCombined;
    PC->Snapshot = std::make_shared<const Code>(std::move(R.Combined));
  } else {
    PC->Snapshot = std::make_shared<const Code>(Prog);
  }
  const Code &Snap = *PC->Snapshot;

  switch (Engine) {
  case EngineId::Switch:
  case EngineId::Model:
    break; // dispatch on the snapshot directly; nothing to translate
  case EngineId::Threaded:
    translateInto(*PC, dispatch::threadedHandlers());
    break;
  case EngineId::CallThreaded:
    translateInto(*PC, dispatch::callThreadedHandlers());
    break;
  case EngineId::ThreadedTos:
    translateInto(*PC, dispatch::threadedTosHandlers());
    break;
  case EngineId::Dynamic3:
    // Dispatches by opcode index: the stream carries no handlers.
    translateInto(*PC, nullptr);
    break;
  case EngineId::StaticGreedy:
  case EngineId::StaticOptimal: {
    staticcache::StaticOptions SO;
    SO.TwoPassOptimal = Engine == EngineId::StaticOptimal;
    auto Spec = std::make_shared<const staticcache::SpecProgram>(
        staticcache::compileStatic(Snap, SO));
    PC->Stream.resize(2 * Spec->Insts.size());
    staticcache::translateSpecStream(*Spec, staticcache::staticHandlerCells(),
                                     PC->Stream.data());
    PC->Spec = std::move(Spec);
    break;
  }
  case EngineId::RegVm: {
    auto Reg = std::make_shared<const regvm::RegProgram>(
        regvm::compileRegProgram(Snap));
    PC->Stream.resize(4 * Reg->Insts.size());
    regvm::translateRegStream(*Reg, regvm::regHandlerCells(),
                              PC->Stream.data());
    PC->Reg = std::move(Reg);
    break;
  }
  }

  PC->PrepareNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  return PC;
}

vm::RunOutcome sc::prepare::runPrepared(const PreparedCode &PC,
                                        ExecContext &Ctx, uint32_t Entry) {
  SC_ASSERT(Ctx.Machine, "unbound ExecContext");
  // Engines read the program for fault reporting (and the switch engine
  // for dispatch); it must be the snapshot the stream was built from.
  const Code *Saved = Ctx.Prog;
  Ctx.Prog = &PC.program();
  RunOutcome O;
  switch (PC.Engine) {
  case EngineId::Switch:
    O = dispatch::runSwitchEngine(Ctx, Entry);
    break;
  case EngineId::Threaded:
    O = dispatch::runThreadedPrepared(Ctx, Entry, PC.stream());
    break;
  case EngineId::CallThreaded:
    O = dispatch::runCallThreadedPrepared(Ctx, Entry, PC.stream());
    break;
  case EngineId::ThreadedTos:
    O = dispatch::runThreadedTosPrepared(Ctx, Entry, PC.stream());
    break;
  case EngineId::Dynamic3:
    O = dynamic::runDynamic3Prepared(Ctx, Entry, PC.stream());
    break;
  case EngineId::Model:
    O = dynamic::runModelInterpreter(Ctx, Entry,
                                     dynamic::referenceModelConfig())
            .Outcome;
    break;
  case EngineId::StaticGreedy:
  case EngineId::StaticOptimal:
    O = staticcache::runStaticPrepared(*PC.spec(), Ctx, Entry, PC.stream());
    break;
  case EngineId::RegVm:
    O = regvm::runRegPrepared(*PC.reg(), Ctx, Entry, PC.stream());
    break;
  }
  Ctx.Prog = Saved;
  return O;
}

bool sc::prepare::canEnterAt(const PreparedCode &PC, uint32_t Pc) {
  if (PC.Spec)
    return Pc < PC.Spec->OrigToSpec.size() &&
           PC.Spec->OrigToSpec[Pc] != staticcache::InvalidSpec;
  if (PC.Reg)
    return Pc < PC.Reg->OrigToReg.size() &&
           PC.Reg->OrigToReg[Pc] != regvm::InvalidReg;
  return true;
}
