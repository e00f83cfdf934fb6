//===-- perfbench/src/Inputs.cpp - Seeded benchmark inputs ----------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "forth/Forth.h"
#include "prepare/Prepare.h"
#include "session/VmSession.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>

using namespace sc;
using namespace sc::bench;

std::vector<Program> sc::bench::paperSuite() {
  size_t N = 0;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  std::vector<Program> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(Program{W[I].Name, W[I].Source, W[I].Entry, W[I].Expected});
  return Out;
}

namespace {

/// Emits a stack-effect-checked body for a ( a b -- c ) colon definition.
/// The generator tracks the data-stack depth so every program is safe
/// (no underflow, no overflow, no division) on every engine.
class BodyGen {
public:
  BodyGen(Rng &R, unsigned Callable) : R(R), Callable(Callable) {}

  std::string body() {
    Depth = 2;
    const unsigned Ops = 6 + R.below(8);
    for (unsigned I = 0; I < Ops; ++I)
      step();
    while (Depth > 1)
      binary();
    return Text;
  }

private:
  void emit(const std::string &T) {
    Text += ' ';
    Text += T;
  }
  void binary() {
    static const char *const Ops[] = {"+", "-", "*", "xor", "and", "or",
                                      "min", "max"};
    emit(Ops[R.below(8)]);
    --Depth;
  }

  void step() {
    static const char *const Unary[] = {"1+", "1-", "2*", "2/",
                                        "negate", "abs", "invert"};
    switch (R.below(12)) {
    case 0:
    case 1:
      if (Depth >= 2)
        return binary();
      [[fallthrough]];
    case 2:
      return emit(Unary[R.below(7)]);
    case 3:
      if (Depth < 4) {
        emit(std::to_string(1 + R.below(99)));
        ++Depth;
        return;
      }
      return binary();
    case 4: // shuffles that keep or grow the depth
      if (Depth >= 3)
        return emit("rot");
      if (Depth >= 2 && Depth < 4) {
        emit(R.chance(1, 2) ? "over" : "tuck");
        ++Depth;
        return;
      }
      if (Depth < 4) {
        emit("dup");
        ++Depth;
        return;
      }
      return emit("swap");
    case 5: // shuffles that keep or shrink the depth
      if (Depth >= 2) {
        static const char *const Shrink[] = {"swap", "nip", "drop"};
        const unsigned K = static_cast<unsigned>(R.below(3));
        emit(Shrink[K]);
        if (K)
          --Depth;
        return;
      }
      return emit(Unary[R.below(7)]);
    case 6:
      if (Depth == 2) {
        emit("2dup");
        Depth += 2;
        return;
      }
      if (Depth > 2)
        return binary();
      return emit(Unary[R.below(7)]);
    case 7: // bounded modulus and shifts: never a division by zero
      emit(std::to_string(2 + R.below(12)));
      emit(R.chance(1, 2) ? "mod" : (R.chance(1, 2) ? "lshift" : "rshift"));
      return;
    case 8: // variable traffic
      if (Depth >= 2) {
        emit(std::string("v") + static_cast<char>('a' + R.below(3)));
        emit("+!");
        --Depth;
        return;
      }
      if (Depth < 4) {
        emit(std::string("v") + static_cast<char>('a' + R.below(3)));
        emit("@");
        ++Depth;
      }
      return;
    case 9: // call an earlier definition
      if (Callable && Depth >= 2) {
        emit("f" + std::to_string(R.below(Callable)));
        --Depth;
        return;
      }
      return emit(Unary[R.below(7)]);
    case 10: // a two-armed conditional that keeps the depth
      emit("dup");
      emit(std::to_string(1 + R.below(3)));
      emit("and if");
      emit(Unary[R.below(7)]);
      emit("else");
      emit(Unary[R.below(7)]);
      emit("then");
      return;
    default: // a counted inner loop
      emit(std::to_string(2 + R.below(4)));
      emit("0 do i");
      emit(R.chance(1, 2) ? "+" : "xor");
      emit("loop");
      return;
    }
  }

  Rng &R;
  unsigned Callable;
  unsigned Depth = 2;
  std::string Text;
};

/// A generated program before its loop counts are final: the colon
/// definitions are fixed, the main loop's trip counts can be rescaled.
struct Draft {
  std::string Defs;
  std::string Top;
  uint64_t Outer = 1, Inner = 1;
  bool Extra = false;
  uint64_t Mask = 3;

  std::string render() const {
    std::string Src = Defs;
    Src += ": main 0 va ! 0 vb ! 1 vc ! " + std::to_string(Outer) +
           " 0 do " + std::to_string(Inner) + " 0 do i j " + Top + " va +!";
    if (Extra)
      Src += " j i f0 vb @ xor vb !";
    Src += " loop va @ " + std::to_string(Mask) +
           " and vc +! loop va @ . vb @ . vc @ . cr ;\n";
    return Src;
  }
};

Draft draft(Rng &R) {
  Draft D;
  const unsigned Defs = 3 + R.below(3);
  D.Defs = "variable va variable vb variable vc\n";
  for (unsigned I = 0; I < Defs; ++I)
    D.Defs += ": f" + std::to_string(I) + BodyGen(R, I).body() + " ;\n";
  D.Top = "f" + std::to_string(Defs - 1);
  D.Outer = 20 + R.below(20);
  D.Inner = 20 + R.below(20);
  D.Extra = R.chance(1, 2);
  D.Mask = 3 + R.below(7);
  return D;
}

/// Guest steps of one run of \p Src under the reference engine; 0 when it
/// does not compile, faults, or runs past \p Limit.
uint64_t stepsOf(const std::string &Src, uint64_t Limit) {
  forth::System Sys;
  if (!Sys.load(Src))
    return 0;
  // A throwaway system: run on its machine in place.
  vm::ExecContext Ctx(Sys.Prog, Sys.Machine);
  engine::RunOptions Opts;
  Opts.Entry = Sys.entryOf("main");
  Opts.MaxSteps = Limit;
  const vm::RunOutcome O =
      engine::runEngine(engine::referenceEngine(), Sys.Prog, Ctx, Opts);
  return O.Status == vm::RunStatus::Halted ? O.Steps : 0;
}

} // namespace

Program sc::bench::generateProgram(uint64_t Seed, const std::string &Name) {
  // Every program lands in a narrow size band, so the work a catalog
  // represents hardly depends on the seed: a draft's inner trip count is
  // rescaled toward the band, and a draft that will not fit is redrawn.
  const uint64_t Lo = 55'000;
  const uint64_t Hi = 75'000;
  Rng R(Rng(Seed ^ 0x243f6a8885a308d3ULL).next());
  for (;;) {
    Draft D = draft(R);
    for (int Try = 0; Try < 4; ++Try) {
      const uint64_t Steps = stepsOf(D.render(), 8 * Hi);
      if (Steps == 0)
        break;
      if (Steps >= Lo && Steps <= Hi)
        return Program{Name, D.render(), "main", ""};
      D.Inner = std::max<uint64_t>(1, D.Inner * (Lo + Hi) / 2 / Steps);
    }
  }
}

Expect sc::bench::referenceRun(const Program &P, uint64_t SliceSteps) {
  forth::System Sys;
  if (!Sys.load(P.Source)) {
    std::fprintf(stderr, "perfbench: %s does not compile: %s\n",
                 P.Name.c_str(), Sys.error().c_str());
    std::exit(1);
  }
  session::SessionPolicy Pol;
  Pol.SliceSteps = SliceSteps;
  // The system is discarded afterwards, so the session runs on its
  // machine in place.
  session::VmSession S(
      prepare::prepareCode(Sys.Prog, engine::referenceEngine()), Sys.Machine,
      Pol);
  const session::SessionResult R = S.run(P.Entry);
  return Expect{static_cast<uint8_t>(R.Stop),
                static_cast<uint8_t>(R.Outcome.Status), R.Outcome.Steps,
                R.Slices, Sys.Machine.Out};
}

bool sc::bench::matches(const Expect &Ref, engine::EngineId E, uint8_t Stop,
                        uint8_t Status, uint64_t Steps, uint64_t Slices,
                        const std::string &Output) {
  if (Stop != Ref.Stop || Status != Ref.Status || Output != Ref.Output)
    return false;
  if (engine::engineInfo(E).Caps.Static)
    return true;
  return Steps == Ref.Steps && Slices == Ref.Slices;
}
