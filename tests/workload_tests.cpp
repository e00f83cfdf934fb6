//===-- tests/workload_tests.cpp - Benchmark program tests ----------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the behaviour of the four benchmark programs: they load, halt,
/// print their golden checksums, and every engine agrees on them.
///
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "forth/Forth.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::workloads;
using sc::engine::EngineId;

namespace {

class WorkloadTest : public ::testing::TestWithParam<const WorkloadInfo *> {};

std::vector<const WorkloadInfo *> allWorkloadPtrs() {
  size_t N;
  const WorkloadInfo *W = allWorkloads(N);
  std::vector<const WorkloadInfo *> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(&W[I]);
  return Out;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, WorkloadTest, ::testing::ValuesIn(allWorkloadPtrs()),
    [](const ::testing::TestParamInfo<const WorkloadInfo *> &Info) {
      return std::string(Info.param->Name);
    });

TEST_P(WorkloadTest, LoadsAndVerifies) {
  forth::System Sys;
  ASSERT_TRUE(Sys.load(GetParam()->Source)) << Sys.error();
  std::string Err;
  EXPECT_TRUE(Sys.Prog.verify(&Err)) << Err;
  EXPECT_NE(Sys.Prog.findWord(GetParam()->Entry), nullptr);
}

TEST_P(WorkloadTest, GoldenChecksumOnReferenceEngine) {
  auto Sys = forth::loadOrDie(GetParam()->Source);
  auto R = Sys->runIsolated(GetParam()->Entry, EngineId::Switch);
  EXPECT_EQ(R.Outcome.Status, vm::RunStatus::Halted);
  EXPECT_EQ(R.Output, GetParam()->Expected);
  EXPECT_TRUE(R.DS.empty()) << "workloads must leave a clean stack";
}

TEST_P(WorkloadTest, AllEnginesAgree) {
  auto Sys = forth::loadOrDie(GetParam()->Source);
  auto Ref = Sys->runIsolated(GetParam()->Entry, EngineId::Switch);
  for (EngineId K : tests::referenceEngines()) {
    auto R = Sys->runIsolated(GetParam()->Entry, K);
    EXPECT_EQ(R.Outcome.Status, Ref.Outcome.Status) << engine::engineName(K);
    EXPECT_EQ(R.Outcome.Steps, Ref.Outcome.Steps) << engine::engineName(K);
    EXPECT_EQ(R.Output, Ref.Output) << engine::engineName(K);
  }
}

TEST_P(WorkloadTest, SubstantialInstructionCount) {
  auto Sys = forth::loadOrDie(GetParam()->Source);
  auto R = Sys->runIsolated(GetParam()->Entry, EngineId::Switch);
  EXPECT_GT(R.Outcome.Steps, 1000000u)
      << "workloads must be big enough for meaningful statistics";
}

TEST(Workloads, FindByName) {
  EXPECT_NE(findWorkload("compile"), nullptr);
  EXPECT_NE(findWorkload("gray"), nullptr);
  EXPECT_NE(findWorkload("prims2x"), nullptr);
  EXPECT_NE(findWorkload("cross"), nullptr);
  EXPECT_EQ(findWorkload("nope"), nullptr);
}

TEST(Workloads, ThereAreFour) {
  size_t N;
  allWorkloads(N);
  EXPECT_EQ(N, 4u);
}

} // namespace
