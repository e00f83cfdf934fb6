//===-- tests/registry_tests.cpp - The one engine table -------------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The EngineRegistry contract: the table is complete and internally
/// consistent, name lookup round-trips, the capability flags match what
/// the engines actually are, and the one entry point gives the same run
/// with and without a prepared handle. The grep tests scan the source
/// tree to keep the registry the ONLY place that spells an engine name
/// (any hand-maintained engine list elsewhere would need a quoted name
/// literal and fails the scan) and to reject reintroduction of deleted
/// spellings: the old registry forwarders, the pre-JobTicket raw-pair
/// alias, the second engine enumeration and the single-shot entry
/// family that predated prepare::runPrepared.
///
//===----------------------------------------------------------------------===//

#include "dispatch/EngineRegistry.h"
#include "forth/Forth.h"
#include "prepare/PrepareCache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace sc;
using namespace sc::vm;

namespace {

/// Arithmetic, branches, calls, memory traffic and output: every engine
/// family has something to chew on, in a few hundred steps.
constexpr const char *ProgramSrc = R"(
variable acc
: sq dup * ;
: step acc @ + acc ! ;
: main
  0 acc !
  8 0 do i sq step loop
  acc @ .
  4 begin dup 0 > while dup step 1 - repeat drop
  acc @ . ;
)";

struct RunObservation {
  RunOutcome Outcome;
  std::string Out;
};

RunObservation runOnce(forth::System &Sys, engine::EngineId E,
                       const prepare::PreparedCode *Prepared) {
  Vm Machine = Sys.Machine;
  ExecContext Ctx(Sys.Prog, Machine);
  engine::RunOptions Opts;
  Opts.Entry = Sys.entryOf("main");
  Opts.Prepared = Prepared;
  RunObservation Obs;
  Obs.Outcome = engine::runEngine(E, Sys.Prog, Ctx, Opts);
  Obs.Out = Machine.Out;
  return Obs;
}

} // namespace

TEST(Registry, TableIsCompleteAndConsistent) {
  size_t N = 0;
  const engine::EngineInfo *E = engine::allEngines(N);
  ASSERT_EQ(N, engine::NumEngineIds);
  std::set<std::string> Names;
  for (size_t I = 0; I < N; ++I) {
    EXPECT_EQ(static_cast<size_t>(E[I].Id), I) << "rows out of order";
    ASSERT_NE(E[I].Name, nullptr);
    EXPECT_TRUE(Names.insert(E[I].Name).second)
        << "duplicate engine name " << E[I].Name;
    if (E[I].Alias) {
      EXPECT_TRUE(Names.insert(E[I].Alias).second)
          << "alias collides: " << E[I].Alias;
    }
    // engineInfo and the table agree.
    EXPECT_EQ(&engine::engineInfo(E[I].Id), &E[I]);
    EXPECT_STREQ(engine::engineName(E[I].Id), E[I].Name);
  }
}

TEST(Registry, LookupRoundTrips) {
  size_t N = 0;
  const engine::EngineInfo *E = engine::allEngines(N);
  for (size_t I = 0; I < N; ++I) {
    const engine::EngineInfo *ByName = engine::findEngine(E[I].Name);
    ASSERT_NE(ByName, nullptr) << E[I].Name;
    EXPECT_EQ(ByName->Id, E[I].Id);
    if (E[I].Alias) {
      const engine::EngineInfo *ByAlias = engine::findEngine(E[I].Alias);
      ASSERT_NE(ByAlias, nullptr) << E[I].Alias;
      EXPECT_EQ(ByAlias->Id, E[I].Id);
    }
  }
  EXPECT_EQ(engine::findEngine("no-such-engine"), nullptr);
  EXPECT_EQ(engine::findEngine(""), nullptr);
}

TEST(Registry, CapabilityFlagsMatchTheEngines) {
  using engine::EngineId;
  size_t N = 0;
  const engine::EngineInfo *E = engine::allEngines(N);
  for (size_t I = 0; I < N; ++I) {
    const engine::EngineCaps &C = E[I].Caps;
    // Everything today prepares and resumes; keep that explicit so a
    // future engine that cannot has to say so here.
    EXPECT_TRUE(C.Prepared) << E[I].Name;
    EXPECT_TRUE(C.Resumable) << E[I].Name;
    EXPECT_EQ(C.Static, engine::isStaticEngine(E[I].Id)) << E[I].Name;
    // The paper's four reference dispatch techniques, in table order.
    EXPECT_EQ(C.Reference, static_cast<size_t>(E[I].Id) < 4) << E[I].Name;
    // Call threading keeps VM registers in static storage.
    EXPECT_EQ(C.Reentrant, E[I].Id != EngineId::CallThreaded) << E[I].Name;
  }
  EXPECT_EQ(engine::referenceEngine(), EngineId::Switch);
}

TEST(Registry, LegacyAndPreparedPathsAgree) {
  std::unique_ptr<forth::System> Sys = forth::loadOrDie(ProgramSrc);
  prepare::PrepareCache Cache;
  size_t N = 0;
  const engine::EngineInfo *E = engine::allEngines(N);
  for (size_t I = 0; I < N; ++I) {
    const RunObservation Legacy = runOnce(*Sys, E[I].Id, nullptr);
    const auto PC = Cache.getOrPrepare(Sys->Prog, E[I].Id);
    const RunObservation Prepared = runOnce(*Sys, E[I].Id, PC.get());
    EXPECT_EQ(Legacy.Outcome.Status, RunStatus::Halted) << E[I].Name;
    EXPECT_EQ(Prepared.Outcome.Status, RunStatus::Halted) << E[I].Name;
    EXPECT_EQ(Legacy.Outcome.Steps, Prepared.Outcome.Steps) << E[I].Name;
    EXPECT_EQ(Legacy.Out, Prepared.Out) << E[I].Name;
  }
}

TEST(Registry, RunOptionsStepLimitAndResume) {
  std::unique_ptr<forth::System> Sys = forth::loadOrDie(ProgramSrc);
  const uint32_t Entry = Sys->entryOf("main");
  for (engine::EngineId E :
       {engine::EngineId::Switch, engine::EngineId::Threaded,
        engine::EngineId::Dynamic3}) {
    const RunObservation Whole = runOnce(*Sys, E, nullptr);

    Vm Machine = Sys->Machine;
    ExecContext Ctx(Sys->Prog, Machine);
    engine::RunOptions Opts;
    Opts.Entry = Entry;
    Opts.MaxSteps = 7;
    uint64_t Total = 0;
    RunOutcome O = engine::runEngine(E, Sys->Prog, Ctx, Opts);
    unsigned Hops = 0;
    while (O.Status == RunStatus::StepLimit) {
      Total += O.Steps;
      Opts.Entry = O.Fault.Pc;
      Opts.Resume = true;
      O = engine::runEngine(E, Sys->Prog, Ctx, Opts);
      ++Hops;
      ASSERT_LT(Hops, 100000u) << "no forward progress";
    }
    Total += O.Steps;
    EXPECT_EQ(O.Status, RunStatus::Halted) << engine::engineName(E);
    EXPECT_EQ(Total, Whole.Outcome.Steps) << engine::engineName(E);
    EXPECT_EQ(Machine.Out, Whole.Out) << engine::engineName(E);
    EXPECT_GT(Hops, 0u);
  }
}

//===----------------------------------------------------------------------===//
// The grep test: no engine-name literal outside the registry.
//===----------------------------------------------------------------------===//

TEST(Registry, NoEngineNameLiteralsOutsideTheRegistry) {
#ifndef SC_SOURCE_DIR
  GTEST_SKIP() << "SC_SOURCE_DIR not defined";
#else
  namespace fs = std::filesystem;
  const fs::path Root(SC_SOURCE_DIR);
  ASSERT_TRUE(fs::exists(Root / "src")) << "bad SC_SOURCE_DIR " << Root;

  // The banned spellings come from the table itself, so a renamed or new
  // engine is covered automatically. A match requires the full quoted
  // literal ("switch", not the word switch in a comment or a longer
  // string), which is exactly the shape a hand-maintained list needs.
  std::vector<std::string> Banned;
  size_t N = 0;
  const engine::EngineInfo *E = engine::allEngines(N);
  for (size_t I = 0; I < N; ++I) {
    Banned.push_back('"' + std::string(E[I].Name) + '"');
    if (E[I].Alias)
      Banned.push_back('"' + std::string(E[I].Alias) + '"');
  }

  const fs::path Registry =
      Root / "src" / "dispatch" / "EngineRegistry.cpp";
  unsigned Scanned = 0;
  for (const char *Dir : {"src", "bench", "examples", "tools", "tests"}) {
    for (const fs::directory_entry &Entry :
         fs::recursive_directory_iterator(Root / Dir)) {
      if (!Entry.is_regular_file())
        continue;
      const fs::path &P = Entry.path();
      const std::string Ext = P.extension().string();
      if (Ext != ".cpp" && Ext != ".h" && Ext != ".inc")
        continue;
      if (fs::equivalent(P, Registry))
        continue; // the one place engine names may be spelled
      if (P.filename() == "registry_tests.cpp")
        continue; // its comments quote a name to document the scan
      ++Scanned;
      std::ifstream In(P);
      ASSERT_TRUE(In.good()) << P;
      std::stringstream Buf;
      Buf << In.rdbuf();
      const std::string Text = Buf.str();
      for (const std::string &B : Banned)
        EXPECT_EQ(Text.find(B), std::string::npos)
            << P << " spells engine-name literal " << B
            << "; query the registry instead";
    }
  }
  EXPECT_GT(Scanned, 50u) << "scan missed the tree";
#endif
}

TEST(Registry, DeprecatedForwardersStayDeleted) {
#ifndef SC_SOURCE_DIR
  GTEST_SKIP() << "SC_SOURCE_DIR not defined";
#else
  namespace fs = std::filesystem;
  const fs::path Root(SC_SOURCE_DIR);
  ASSERT_TRUE(fs::exists(Root / "src")) << "bad SC_SOURCE_DIR " << Root;

  // Deleted spellings must not creep back in: the old registry
  // forwarders, the pre-JobTicket raw-pair alias, the reference-subset
  // enumeration beside engine::EngineId, and the single-shot entry family
  // (with its header and the context scratch it translated into) that
  // engine::runEngine replaced with prepare::runPrepared.
  const char *const Banned[] = {
      "dispatch::engineName(",
      "dispatch::runEngine(",
      "prepare::engineIdName(",
      "TenantTokenPair",
      "EngineKind",
      "engineIdOf",
      "StreamScratch",
      "EnginesInternal.h",
      "runThreadedEngine",
      "runThreadedTosEngine",
      "runCallThreadedEngine",
      "runDynamic3Engine",
      "runRegEngine",
  };

  unsigned Scanned = 0;
  for (const char *Dir : {"src", "bench", "examples", "tools", "tests"}) {
    for (const fs::directory_entry &Entry :
         fs::recursive_directory_iterator(Root / Dir)) {
      if (!Entry.is_regular_file())
        continue;
      const fs::path &P = Entry.path();
      const std::string Ext = P.extension().string();
      if (Ext != ".cpp" && Ext != ".h" && Ext != ".inc")
        continue;
      const std::string File = P.filename().string();
      if (File == "registry_tests.cpp")
        continue; // this file spells the banned literals by necessity
      ++Scanned;
      std::ifstream In(P);
      ASSERT_TRUE(In.good()) << P;
      std::stringstream Buf;
      Buf << In.rdbuf();
      const std::string Text = Buf.str();
      for (const char *B : Banned)
        EXPECT_EQ(Text.find(B), std::string::npos)
            << P << " reintroduces deleted spelling " << B;
    }
  }
  EXPECT_GT(Scanned, 50u) << "scan missed the tree";
#endif
}
