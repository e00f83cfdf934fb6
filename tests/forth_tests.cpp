//===-- tests/forth_tests.cpp - Forth front end tests ---------------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "forth/Lexer.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::forth;
using namespace sc::vm;

namespace {

// --- Lexer ----------------------------------------------------------------

TEST(Lexer, SplitsOnWhitespace) {
  Lexer L("one  two\tthree\nfour");
  std::string T;
  ASSERT_TRUE(L.next(T));
  EXPECT_EQ(T, "one");
  ASSERT_TRUE(L.next(T));
  EXPECT_EQ(T, "two");
  ASSERT_TRUE(L.next(T));
  EXPECT_EQ(T, "three");
  EXPECT_EQ(L.line(), 1u);
  ASSERT_TRUE(L.next(T));
  EXPECT_EQ(T, "four");
  EXPECT_EQ(L.line(), 2u);
  EXPECT_FALSE(L.next(T));
}

TEST(Lexer, ReadUntilSkipsOneLeadingSpace) {
  Lexer L(".\"  hello\" rest");
  std::string T;
  ASSERT_TRUE(L.next(T));
  std::string S;
  ASSERT_TRUE(L.readUntil('"', S));
  EXPECT_EQ(S, " hello") << "only one separating space is eaten";
  ASSERT_TRUE(L.next(T));
  EXPECT_EQ(T, "rest");
}

TEST(Lexer, ReadUntilMissingDelimiterFails) {
  Lexer L("( never closed");
  std::string T, S;
  ASSERT_TRUE(L.next(T));
  EXPECT_FALSE(L.readUntil(')', S));
}

TEST(Lexer, SkipLine) {
  Lexer L("\\ comment here\nnext");
  std::string T;
  ASSERT_TRUE(L.next(T));
  L.skipLine();
  ASSERT_TRUE(L.next(T));
  EXPECT_EQ(T, "next");
}

TEST(Lexer, ParseNumberDecimal) {
  int64_t V;
  EXPECT_TRUE(parseNumber("123", V));
  EXPECT_EQ(V, 123);
  EXPECT_TRUE(parseNumber("-45", V));
  EXPECT_EQ(V, -45);
  EXPECT_TRUE(parseNumber("0", V));
  EXPECT_EQ(V, 0);
}

TEST(Lexer, ParseNumberHex) {
  int64_t V;
  EXPECT_TRUE(parseNumber("$ff", V));
  EXPECT_EQ(V, 255);
  EXPECT_TRUE(parseNumber("-$10", V));
  EXPECT_EQ(V, -16);
}

TEST(Lexer, ParseNumberRejectsGarbage) {
  int64_t V;
  EXPECT_FALSE(parseNumber("", V));
  EXPECT_FALSE(parseNumber("-", V));
  EXPECT_FALSE(parseNumber("12x", V));
  EXPECT_FALSE(parseNumber("$", V));
  EXPECT_FALSE(parseNumber("dup", V));
}

// --- Compiler: helpers ------------------------------------------------------

std::vector<Cell> runWord(const char *Src, const char *Name = "main") {
  auto Sys = loadOrDie(Src);
  RunReport R = Sys->runIsolated(Name, engine::EngineId::Switch);
  EXPECT_EQ(R.Outcome.Status, RunStatus::Halted);
  return R.DS;
}

std::string runOutput(const char *Src, const char *Name = "main") {
  auto Sys = loadOrDie(Src);
  RunReport R = Sys->runIsolated(Name, engine::EngineId::Switch);
  EXPECT_EQ(R.Outcome.Status, RunStatus::Halted);
  return R.Output;
}

// --- Compiler: basics -------------------------------------------------------

TEST(Compiler, Arithmetic) {
  EXPECT_EQ(runWord(": main 2 3 + 4 * ;"), (std::vector<Cell>{20}));
}

TEST(Compiler, StackManipulation) {
  EXPECT_EQ(runWord(": main 1 2 swap ;"), (std::vector<Cell>{2, 1}));
  EXPECT_EQ(runWord(": main 1 2 over ;"), (std::vector<Cell>{1, 2, 1}));
  EXPECT_EQ(runWord(": main 1 2 3 rot ;"), (std::vector<Cell>{2, 3, 1}));
  EXPECT_EQ(runWord(": main 1 2 nip ;"), (std::vector<Cell>{2}));
  EXPECT_EQ(runWord(": main 1 2 tuck ;"), (std::vector<Cell>{2, 1, 2}));
  EXPECT_EQ(runWord(": main 5 dup ;"), (std::vector<Cell>{5, 5}));
  EXPECT_EQ(runWord(": main 1 2 2dup ;"), (std::vector<Cell>{1, 2, 1, 2}));
  EXPECT_EQ(runWord(": main 1 2 3 2drop ;"), (std::vector<Cell>{1}));
}

TEST(Compiler, Comparisons) {
  EXPECT_EQ(runWord(": main 1 2 < 2 1 < ;"), (std::vector<Cell>{-1, 0}));
  EXPECT_EQ(runWord(": main 3 3 = ;"), (std::vector<Cell>{-1}));
  EXPECT_EQ(runWord(": main 0 0= ;"), (std::vector<Cell>{-1}));
  EXPECT_EQ(runWord(": main -5 0< ;"), (std::vector<Cell>{-1}));
}

TEST(Compiler, Division) {
  EXPECT_EQ(runWord(": main 7 2 / ;"), (std::vector<Cell>{3}));
  EXPECT_EQ(runWord(": main 7 2 mod ;"), (std::vector<Cell>{1}));
  EXPECT_EQ(runWord(": main -7 2 / ;"), (std::vector<Cell>{-3}));
}

TEST(Compiler, IfElseThen) {
  EXPECT_EQ(runWord(": main 1 if 10 else 20 then ;"),
            (std::vector<Cell>{10}));
  EXPECT_EQ(runWord(": main 0 if 10 else 20 then ;"),
            (std::vector<Cell>{20}));
  EXPECT_EQ(runWord(": main 0 if 10 then 99 ;"), (std::vector<Cell>{99}));
}

TEST(Compiler, BeginUntil) {
  EXPECT_EQ(runWord(": main 0 begin 1+ dup 5 >= until ;"),
            (std::vector<Cell>{5}));
}

TEST(Compiler, BeginWhileRepeat) {
  EXPECT_EQ(runWord(": main 0 10 begin dup 0> while swap 1+ swap 1- repeat "
                    "drop ;"),
            (std::vector<Cell>{10}));
}

TEST(Compiler, DoLoop) {
  EXPECT_EQ(runWord(": main 0 5 0 do 1+ loop ;"), (std::vector<Cell>{5}));
  EXPECT_EQ(runWord(": main 0 5 0 do i + loop ;"), (std::vector<Cell>{10}));
}

TEST(Compiler, NestedDoLoopWithJ) {
  // sum of i*j over i,j in 0..2
  EXPECT_EQ(runWord(": main 0 3 0 do 3 0 do i j * + loop loop ;"),
            (std::vector<Cell>{9}));
}

TEST(Compiler, PlusLoop) {
  EXPECT_EQ(runWord(": main 0 10 0 do 1+ 2 +loop ;"), (std::vector<Cell>{5}));
  // downward +LOOP
  EXPECT_EQ(runWord(": main 0 0 10 do 1+ -1 +loop ;"),
            (std::vector<Cell>{11}));
}

TEST(Compiler, Leave) {
  EXPECT_EQ(runWord(": main 0 10 0 do 1+ dup 3 = if leave then loop ;"),
            (std::vector<Cell>{3}));
}

TEST(Compiler, ColonCallsColon) {
  EXPECT_EQ(runWord(": sq dup * ; : main 7 sq ;"), (std::vector<Cell>{49}));
}

TEST(Compiler, Recurse) {
  EXPECT_EQ(runWord(": fact dup 1 <= if drop 1 else dup 1- recurse * then ; "
                    ": main 6 fact ;"),
            (std::vector<Cell>{720}));
}

TEST(Compiler, ExitLeavesWordEarly) {
  EXPECT_EQ(runWord(": w 1 exit 2 ; : main w ;"), (std::vector<Cell>{1}));
}

TEST(Compiler, VariablesAndStore) {
  EXPECT_EQ(runWord("variable x : main 42 x ! x @ ;"),
            (std::vector<Cell>{42}));
}

TEST(Compiler, PlusStore) {
  EXPECT_EQ(runWord("variable x : main 40 x ! 2 x +! x @ ;"),
            (std::vector<Cell>{42}));
}

TEST(Compiler, Constants) {
  EXPECT_EQ(runWord("42 constant answer : main answer 1+ ;"),
            (std::vector<Cell>{43}));
}

TEST(Compiler, CreateAllotComma) {
  EXPECT_EQ(runWord("create tbl 10 , 20 , 30 , "
                    ": main tbl 2 cells + @ tbl @ + ;"),
            (std::vector<Cell>{40}));
}

TEST(Compiler, CharAndBytes) {
  EXPECT_EQ(runWord("create buf 4 allot "
                    ": main [char] a buf c! buf c@ ;"
                    " \\ trailing"),
            (std::vector<Cell>{'a'}));
}

TEST(Compiler, BracketChar) {
  EXPECT_EQ(runWord(": main [char] Z ;"), (std::vector<Cell>{'Z'}));
}

TEST(Compiler, ReturnStackWords) {
  EXPECT_EQ(runWord(": main 5 >r 10 r@ + r> + ;"), (std::vector<Cell>{20}));
}

TEST(Compiler, DotQuoteAndEmit) {
  EXPECT_EQ(runOutput(": main .\" hi\" 33 emit cr ;"), "hi!\n");
}

TEST(Compiler, SQuoteType) {
  EXPECT_EQ(runOutput(": main s\" abc\" type ;"), "abc");
}

TEST(Compiler, DotPrintsNumbers) {
  EXPECT_EQ(runOutput(": main 1 2 + . -3 . ;"), "3 -3 ");
}

TEST(Compiler, SpaceAndCr) {
  EXPECT_EQ(runOutput(": main [char] a emit space [char] b emit cr ;"),
            "a b\n");
}

TEST(Compiler, NopDoesNothing) {
  EXPECT_EQ(runWord(": main 1 nop 2 nop + ;"), (std::vector<Cell>{3}));
}

TEST(Compiler, CommentsIgnored) {
  EXPECT_EQ(runWord(": main ( this is a comment ) 1 \\ line comment\n 2 + ;"),
            (std::vector<Cell>{3}));
}

TEST(Compiler, CaseInsensitiveLookup) {
  EXPECT_EQ(runWord(": Main 2 DUP + ;"), (std::vector<Cell>{4}));
}

TEST(Compiler, RedefinitionShadowsForLaterUses) {
  EXPECT_EQ(runWord(": w 1 ; : probe w ; : w 2 ; : main probe w ;"),
            (std::vector<Cell>{1, 2}));
}

TEST(Compiler, TopLevelInterpretation) {
  // interpret-state computation feeding CONSTANT
  EXPECT_EQ(runWord("2 3 + constant five : main five ;"),
            (std::vector<Cell>{5}));
}

TEST(Compiler, TopLevelColonExecution) {
  EXPECT_EQ(runWord(": six 6 ; six constant s : main s ;"),
            (std::vector<Cell>{6}));
}

// --- Compiler: error cases ---------------------------------------------------

TEST(CompilerErrors, UndefinedWord) {
  System Sys;
  EXPECT_FALSE(Sys.load(": main bogus ;"));
  EXPECT_NE(Sys.error().find("undefined word 'bogus'"), std::string::npos);
}

TEST(CompilerErrors, UnterminatedDefinition) {
  System Sys;
  EXPECT_FALSE(Sys.load(": main 1 2 +"));
  EXPECT_NE(Sys.error().find("unterminated definition"), std::string::npos);
}

TEST(CompilerErrors, UnbalancedThen) {
  System Sys;
  EXPECT_FALSE(Sys.load(": main then ;"));
  EXPECT_NE(Sys.error().find("unbalanced"), std::string::npos);
}

TEST(CompilerErrors, UnbalancedAtSemicolon) {
  System Sys;
  EXPECT_FALSE(Sys.load(": main 1 if ;"));
  EXPECT_NE(Sys.error().find("unbalanced"), std::string::npos);
}

TEST(CompilerErrors, LeaveOutsideLoop) {
  System Sys;
  EXPECT_FALSE(Sys.load(": main leave ;"));
  EXPECT_NE(Sys.error().find("LEAVE"), std::string::npos);
}

TEST(CompilerErrors, ConstantNeedsValue) {
  System Sys;
  EXPECT_FALSE(Sys.load("constant nothing"));
  EXPECT_NE(Sys.error().find("stack is empty"), std::string::npos);
}

TEST(CompilerErrors, UnterminatedString) {
  System Sys;
  EXPECT_FALSE(Sys.load(": main .\" oops ;"));
  EXPECT_NE(Sys.error().find("unterminated"), std::string::npos);
}

TEST(CompilerErrors, ErrorMentionsLine) {
  System Sys;
  EXPECT_FALSE(Sys.load("\n\n: main bogus ;"));
  EXPECT_NE(Sys.error().find("line 3"), std::string::npos) << Sys.error();
}

TEST(CompilerErrors, TopLevelTrapReported) {
  System Sys;
  EXPECT_FALSE(Sys.load("drop")); // top-level stack empty
  EXPECT_NE(Sys.error().find("underflow"), std::string::npos) << Sys.error();
}

// --- Runtime traps -----------------------------------------------------------

TEST(RuntimeTraps, DivByZero) {
  auto Sys = loadOrDie(": main 1 0 / ;");
  RunReport R = Sys->runIsolated("main", engine::EngineId::Switch);
  EXPECT_EQ(R.Outcome.Status, RunStatus::DivByZero);
}

TEST(RuntimeTraps, StackUnderflow) {
  auto Sys = loadOrDie(": main + ;");
  RunReport R = Sys->runIsolated("main", engine::EngineId::Switch);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StackUnderflow);
}

TEST(RuntimeTraps, BadMemAccess) {
  auto Sys = loadOrDie(": main 0 @ ;");
  RunReport R = Sys->runIsolated("main", engine::EngineId::Switch);
  EXPECT_EQ(R.Outcome.Status, RunStatus::BadMemAccess);
}

TEST(RuntimeTraps, StepLimit) {
  auto Sys = loadOrDie(": main begin again ;");
  RunReport R = Sys->runIsolated("main", engine::EngineId::Switch, 1000);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StepLimit);
  EXPECT_EQ(R.Outcome.Steps, 1000u);
}

TEST(RuntimeTraps, CorruptReturnAddressCaught) {
  auto Sys = loadOrDie(": main 123456 >r ;");
  RunReport R = Sys->runIsolated("main", engine::EngineId::Switch);
  EXPECT_EQ(R.Outcome.Status, RunStatus::BadMemAccess);
}

TEST(RuntimeTraps, RStackUnderflow) {
  auto Sys = loadOrDie(": main r> r> drop drop ;");
  RunReport R = Sys->runIsolated("main", engine::EngineId::Switch);
  EXPECT_EQ(R.Outcome.Status, RunStatus::RStackUnderflow);
}

TEST(RuntimeTraps, IsolationKeepsSystemClean) {
  auto Sys = loadOrDie("variable x 1 x ! : main 99 x ! ;");
  (void)Sys->runIsolated("main", engine::EngineId::Switch);
  const DictEntry *E = Sys->Comp.lookup("x");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(Sys->Machine.loadCell(E->Value), 1)
      << "runIsolated must not mutate the system's data space";
}

} // namespace
