//===-- tests/torture_tests.cpp - Self-checking Forth torture suite -------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-checking Forth program in the style of the ANS Forth test
/// harness: dozens of assertions over the whole instruction set,
/// executed on every engine in the project. A single failure count comes
/// back on the stack; all engines must report zero. This complements the
/// per-feature unit tests with one deep integration pass whose ground
/// truth lives in the guest program itself.
///
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "forth/Forth.h"
#include "staticcache/StaticEngine.h"
#include "staticcache/StaticSpec.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::vm;

namespace {

const char TortureSrc[] = R"fs(
variable fails
: check ( f -- ) 0= if 1 fails +! then ;

: t-arith
  2 3 + 5 = check
  10 4 - 6 = check
  7 6 * 42 = check
  42 5 / 8 = check
  42 5 mod 2 = check
  -42 negate 42 = check
  -7 abs 7 = check
  0 invert -1 = check
  5 3 min 3 = check
  5 3 max 5 = check
  41 1+ 42 = check
  43 1- 42 = check
  21 2* 42 = check
  84 2/ 42 = check
  5 cells 40 = check ;

: t-logic
  12 10 and 8 = check
  12 10 or 14 = check
  12 10 xor 6 = check
  1 5 lshift 32 = check
  32 5 rshift 1 = check
  -1 60 rshift 15 = check ;

: t-compare
  1 2 < check
  2 1 > check
  3 3 = check
  3 4 <> check
  3 3 <= check
  3 3 >= check
  0 0= check
  1 0<> check
  -1 0< check
  1 0> check
  -1 1 u< 0= check
  1 -1 u< check ;

: t-stack
  1 2 swap 1 = check 2 = check
  5 dup = check
  1 2 over + + 4 = check
  1 2 3 rot 1 = check drop drop
  1 2 nip 2 = check
  1 2 tuck + + 5 = check
  1 2 2dup + + + 6 = check
  1 2 3 2drop 1 = check ;

: t-rstack
  42 >r r> 42 = check
  7 >r r@ r> + 14 = check ;

variable v1
create arr 8 cells allot
: t-memory
  123 v1 ! v1 @ 123 = check
  7 v1 +! v1 @ 130 = check
  65 arr c! arr c@ 65 = check
  8 0 do i i * arr i cells + ! loop
  0 8 0 do arr i cells + @ + loop 140 = check ;

: t-control
  0 1 if drop 1 then check
  0 0 if else drop 1 then check
  0 begin 1+ dup 5 >= until 5 = check
  0 begin dup 5 < while 1+ repeat 5 = check
  0 10 0 do 1+ loop 10 = check
  0 10 0 do 1+ 2 +loop 5 = check
  0 10 0 do 1+ dup 3 = if leave then loop 3 = check
  0 3 0 do 3 0 do 1+ loop loop 9 = check
  0 3 1 do 3 1 do i j * + loop loop 9 = check ;

: fact dup 2 < if drop 1 else dup 1- recurse * then ;
: fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ;
: t-calls
  5 fact 120 = check
  10 fib 55 = check ;

: t-strings
  s" hello" 5 = check drop
  [char] a 97 = check ;

: main
  0 fails !
  t-arith t-logic t-compare t-stack t-rstack
  t-memory t-control t-calls t-strings
  fails @ ;
)fs";

TEST(Torture, AllEnginesPassEveryAssertion) {
  auto Sys = forth::loadOrDie(TortureSrc);

  for (engine::EngineId K : tests::referenceEngines()) {
    auto R = Sys->runIsolated("main", K);
    ASSERT_EQ(R.Outcome.Status, RunStatus::Halted) << engine::engineName(K);
    ASSERT_EQ(R.DS.size(), 1u) << engine::engineName(K);
    EXPECT_EQ(R.DS[0], 0) << engine::engineName(K)
                          << ": guest assertions failed";
  }
  {
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    RunOutcome O = tests::runFrom(engine::EngineId::Dynamic3, Ctx,
                                  Sys->entryOf("main"));
    ASSERT_EQ(O.Status, RunStatus::Halted);
    ASSERT_EQ(Ctx.DsDepth, 1u);
    EXPECT_EQ(Ctx.DS[0], 0) << "dynamic3: guest assertions failed";
  }
  for (bool Optimal : {false, true}) {
    staticcache::StaticOptions Opts;
    Opts.TwoPassOptimal = Optimal;
    staticcache::SpecProgram SP = staticcache::compileStatic(Sys->Prog, Opts);
    Vm Copy = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Copy);
    RunOutcome O = staticcache::runStaticEngine(SP, Ctx, Sys->entryOf("main"));
    ASSERT_EQ(O.Status, RunStatus::Halted) << "static optimal=" << Optimal;
    ASSERT_EQ(Ctx.DsDepth, 1u);
    EXPECT_EQ(Ctx.DS[0], 0) << "static (optimal=" << Optimal
                            << "): guest assertions failed";
  }
}

} // namespace
