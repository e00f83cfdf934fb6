//===-- tests/snapshot_tests.cpp - Snapshots, recovery, time travel -------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable-snapshot subsystem end to end. Format layer: round-trip
/// bit identity, exhaustive truncation, and typed rejection of every
/// corruption class — unsealed flips stop at the checksum, resealed
/// flips reach the inner validators, and oversized claims are refused
/// before any allocation. Differential layer: snapshot-at-every-slice-
/// boundary equals one-shot across all registry engines, including
/// cross-engine restores and snapshot-under-fault, plus a mutation fuzz
/// over valid snapshots. Session layer: policy checkpoints, restore into
/// fresh sessions (any engine, static leader fallback included), content
/// identity surviving recompiles — the quarantine and PrepareCache
/// regressions live here too. Scheduler layer: deterministic crash
/// recovery is field-for-field equal to an uncrashed baseline. Replay
/// layer: a recorded trace reproduces its fault under every engine.
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "harness/FaultInject.h"
#include "prepare/PrepareCache.h"
#include "sched/SessionScheduler.h"
#include "session/VmSession.h"
#include "snapshot/Snapshot.h"
#include "staticcache/StaticSpec.h"
#include "TestSupport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace sc;
using namespace sc::vm;
using namespace sc::session;
using namespace sc::snapshot;

namespace {

/// Calls, branches, arithmetic, memory traffic and output in a few
/// hundred steps (the session_tests slice workhorse): every engine's
/// cache states and reconciliations appear at some boundary.
constexpr const char *SliceProgramSrc = R"(
variable acc
: sq dup * ;
: tri dup sq swap + ;
: step acc @ + acc ! ;
: main
  0 acc !
  7 0 do i tri step loop
  acc @ .
  5 begin dup 0 > while dup sq step 1 - repeat drop
  acc @ . ;
)";

/// Faults with DivByZero after some real work, so checkpoints land
/// before the trap and the continuation must still reproduce it.
constexpr const char *FaultProgramSrc = R"(
: burn 6 0 do i drop loop ;
: main burn 10 3 - 3 - 4 - 1 swap / . ;
)";

constexpr prepare::EngineId AllPrepareEngines[] = {
    prepare::EngineId::Switch,        prepare::EngineId::Threaded,
    prepare::EngineId::CallThreaded,  prepare::EngineId::ThreadedTos,
    prepare::EngineId::Dynamic3,      prepare::EngineId::StaticGreedy,
    prepare::EngineId::StaticOptimal,
};

/// A session over a fresh prepared translation of \p Sys's program.
struct SessionFixture {
  std::unique_ptr<forth::System> Sys;
  Vm Machine; // session-owned copy; the System stays pristine
  std::shared_ptr<const prepare::PreparedCode> PC;
  std::unique_ptr<VmSession> S;

  SessionFixture(const char *Src, prepare::EngineId E,
                 SessionPolicy Policy = {}) {
    Sys = forth::loadOrDie(Src);
    Machine = Sys->Machine;
    Machine.resetOutput();
    PC = prepare::prepareCode(Sys->Prog, E);
    S = std::make_unique<VmSession>(PC, Machine, Policy);
  }
};

/// A genuine mid-run snapshot: runs "main" for \p Slices bounded slices
/// of \p SliceSteps under \p E and checkpoints the preempted stop.
std::vector<uint8_t> cutCheckpoint(SessionFixture &F, uint64_t SliceSteps,
                                   uint64_t Slices, uint32_t *OutPc = nullptr) {
  SessionResult R = F.S->run(F.Sys->entryOf("main"), Slices);
  EXPECT_EQ(R.Stop, StopKind::Preempted);
  EXPECT_TRUE(R.Resumable);
  (void)SliceSteps;
  if (OutPc)
    *OutPc = R.ResumePc;
  return F.S->checkpoint(R.ResumePc);
}

void put32(std::vector<uint8_t> &B, size_t Off, uint32_t V) {
  ASSERT_LE(Off + 4, B.size());
  std::memcpy(B.data() + Off, &V, 4);
}

void put64(std::vector<uint8_t> &B, size_t Off, uint64_t V) {
  ASSERT_LE(Off + 8, B.size());
  std::memcpy(B.data() + Off, &V, 8);
}

SnapshotError headerErr(const std::vector<uint8_t> &B) {
  SnapshotHeader H;
  return readHeader(B.data(), B.size(), H);
}

// Fixed header offsets of the sc-snap v1 layout (see snapshot/Snapshot.cpp).
constexpr size_t OffVersion = 4;
constexpr size_t OffTotal = 8;
constexpr size_t OffIdentity = 16;
constexpr size_t OffPc = 32;
constexpr size_t OffResume = 36;
constexpr size_t OffDsCapacity = 64;
constexpr size_t OffDsDepth = 72;
constexpr size_t OffHere = 88;
constexpr size_t OffDataSpace = 104;
// v2 tier sidecar (see snapshot/Snapshot.cpp).
constexpr size_t OffHeatSteps = 112;
constexpr size_t OffTierRung = 120;

} // namespace

//===----------------------------------------------------------------------===//
// Format layer
//===----------------------------------------------------------------------===//

TEST(SnapshotFormat, RoundTripBitIdentity) {
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch,
                   SessionPolicy{.SliceSteps = 8});
  uint32_t Pc = 0;
  const std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 3, &Pc);
  ASSERT_FALSE(Snap.empty());

  SnapshotHeader H;
  ASSERT_EQ(readHeader(Snap.data(), Snap.size(), H), SnapshotError::None);
  EXPECT_EQ(H.FormatVersion, 3u); // the v3 writer (word seal)
  EXPECT_EQ(H.TotalBytes, Snap.size());
  EXPECT_EQ(H.CodeIdentity, F.Sys->Prog.identity());
  EXPECT_EQ(H.CodeVersion, F.Sys->Prog.version());
  EXPECT_EQ(H.MS.Pc, Pc);
  EXPECT_EQ(H.Resume, 1u); // three slices in: the sentinel is live
  EXPECT_EQ(H.MS.StepsRetired, 8u * 3u);
  EXPECT_EQ(H.MS.SlicesRetired, 3u);

  // Restore into completely fresh objects and re-serialize: the bytes
  // must be identical — no drift through trimming, watermarks, or fuel.
  Vm M2(0);
  ExecContext C2;
  MachineState MS;
  ASSERT_EQ(restore(Snap.data(), Snap.size(), F.Sys->Prog, C2, M2, MS),
            SnapshotError::None);
  EXPECT_EQ(MS.Pc, Pc);
  EXPECT_EQ(MS.StepsRetired, H.MS.StepsRetired);
  const std::vector<uint8_t> Again = serialize(C2, M2, MS);
  EXPECT_EQ(Again, Snap);
}

TEST(SnapshotFormat, EveryTruncationRejected) {
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch,
                   SessionPolicy{.SliceSteps = 8});
  const std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 2);
  SnapshotHeader H;
  EXPECT_EQ(readHeader(nullptr, 0, H), SnapshotError::Truncated);
  for (size_t N = 0; N < Snap.size(); ++N)
    EXPECT_NE(readHeader(Snap.data(), N, H), SnapshotError::None)
        << "prefix of " << N << " bytes accepted";
}

TEST(SnapshotFormat, UnsealedCorruptionStopsAtTheRightLayer) {
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch,
                   SessionPolicy{.SliceSteps = 8});
  const std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 2);

  {
    std::vector<uint8_t> B = Snap; // not a snapshot at all
    B[0] ^= 0xFF;
    EXPECT_EQ(headerErr(B), SnapshotError::BadMagic);
  }
  {
    std::vector<uint8_t> B = Snap; // future format: refused pre-checksum,
    put32(B, OffVersion, 999);     // its seal is unknown to this reader
    EXPECT_EQ(headerErr(B), SnapshotError::BadFormatVersion);
  }
  {
    std::vector<uint8_t> B = Snap; // length lies about the buffer
    put64(B, OffTotal, Snap.size() + 8);
    EXPECT_EQ(headerErr(B), SnapshotError::BadLength);
  }
  {
    std::vector<uint8_t> B = Snap; // any payload flip: checksum catches it
    B[OffDsDepth] ^= 0x01;
    EXPECT_EQ(headerErr(B), SnapshotError::BadChecksum);
    B = Snap;
    B[B.size() - 12] ^= 0x40; // inside the trailing sections
    EXPECT_EQ(headerErr(B), SnapshotError::BadChecksum);
  }
}

TEST(SnapshotFormat, SealedCorruptionReachesTypedValidators) {
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch,
                   SessionPolicy{.SliceSteps = 8});
  const std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 2);
  SnapshotHeader H;
  ASSERT_EQ(readHeader(Snap.data(), Snap.size(), H), SnapshotError::None);

  {
    std::vector<uint8_t> B = Snap; // depth above capacity
    put32(B, OffDsDepth, H.DsCapacity + 1);
    resealChecksum(B);
    EXPECT_EQ(headerErr(B), SnapshotError::DepthExceedsCapacity);
  }
  {
    std::vector<uint8_t> B = Snap; // Resume is a strict 0/1
    B[OffResume] = 2;
    resealChecksum(B);
    EXPECT_EQ(headerErr(B), SnapshotError::BadFieldValue);
  }
  {
    std::vector<uint8_t> B = Snap; // HERE below the reserved first cell
    put64(B, OffHere, 0);
    resealChecksum(B);
    EXPECT_EQ(headerErr(B), SnapshotError::BadFieldValue);
  }

  // Oversized claims parse fine but must be refused by restore() before
  // any allocation is sized by them.
  Vm M2(0);
  ExecContext C2;
  MachineState MS;
  {
    std::vector<uint8_t> B = Snap; // a terabyte of stack, says the header
    put32(B, OffDsCapacity, 0x7fffffffu);
    resealChecksum(B);
    EXPECT_EQ(headerErr(B), SnapshotError::None);
    EXPECT_EQ(restore(B.data(), B.size(), F.Sys->Prog, C2, M2, MS),
              SnapshotError::LimitExceeded);
  }
  {
    std::vector<uint8_t> B = Snap; // data space beyond RestoreLimits
    put64(B, OffDataSpace, uint64_t(1) << 40);
    put64(B, OffHere, uint64_t(1) << 39); // keep HERE internally consistent
    resealChecksum(B);
    EXPECT_EQ(headerErr(B), SnapshotError::None);
    EXPECT_EQ(restore(B.data(), B.size(), F.Sys->Prog, C2, M2, MS),
              SnapshotError::LimitExceeded);
  }
  {
    std::vector<uint8_t> B = Snap; // PC outside the program
    put32(B, OffPc, F.Sys->Prog.size() + 100);
    resealChecksum(B);
    EXPECT_EQ(headerErr(B), SnapshotError::None);
    EXPECT_EQ(restore(B.data(), B.size(), F.Sys->Prog, C2, M2, MS),
              SnapshotError::BadFieldValue);
  }
  {
    std::vector<uint8_t> B = Snap; // keyed on a different program
    put64(B, OffIdentity, H.CodeIdentity ^ 1);
    resealChecksum(B);
    EXPECT_EQ(headerErr(B), SnapshotError::None);
    EXPECT_EQ(restore(B.data(), B.size(), F.Sys->Prog, C2, M2, MS),
              SnapshotError::CodeMismatch);
  }

  // None of the rejected restores may have touched the outputs.
  EXPECT_EQ(M2.dataSpaceSize(), 0u);
  EXPECT_EQ(C2.DsDepth, 0u);
}

TEST(SnapshotFormat, TierSidecarRoundTripsAndV1ReadsAsZero) {
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch,
                   SessionPolicy{.SliceSteps = 8});
  const std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 2);
  SnapshotHeader H;
  ASSERT_EQ(readHeader(Snap.data(), Snap.size(), H), SnapshotError::None);
  EXPECT_EQ(H.FormatVersion, 3u);

  // A nonzero sidecar survives the sealed buffer bit-exactly.
  std::vector<uint8_t> Hot = Snap;
  put64(Hot, OffHeatSteps, 0x1122334455667788ULL);
  put32(Hot, OffTierRung, 5);
  resealChecksum(Hot);
  ASSERT_EQ(readHeader(Hot.data(), Hot.size(), H), SnapshotError::None);
  EXPECT_EQ(H.MS.HeatSteps, 0x1122334455667788ULL);
  EXPECT_EQ(H.MS.TierRung, 5u);

  // Hand-downgrade to sc-snap v1 — strip the 16 sidecar bytes, patch
  // version and total length, reseal. A pre-migration buffer must still
  // parse, with the sidecar reading as zero...
  std::vector<uint8_t> V1 = Hot;
  V1.erase(V1.begin() + 112, V1.begin() + 128);
  put32(V1, OffVersion, 1);
  put64(V1, OffTotal, V1.size());
  resealChecksum(V1);
  ASSERT_EQ(readHeader(V1.data(), V1.size(), H), SnapshotError::None);
  EXPECT_EQ(H.FormatVersion, 1u);
  EXPECT_EQ(H.MS.HeatSteps, 0u);
  EXPECT_EQ(H.MS.TierRung, 0u);

  // ...and still restore and run to the same completion as the v2 one.
  auto RunFrom = [&](const std::vector<uint8_t> &Bytes) {
    Vm M(0);
    VmSession S(F.PC, M, {});
    EXPECT_EQ(S.restoreFrom(Bytes, nullptr), SnapshotError::None);
    SessionResult R = S.run(S.restoredPc());
    EXPECT_EQ(R.Stop, StopKind::Halted);
    return M.Out;
  };
  EXPECT_EQ(RunFrom(V1), RunFrom(Snap));
}

/// An sc-snap v2 buffer written by the last v2 writer (byte-serial
/// FNV-1a seal): SliceProgramSrc under the switch engine, preempted
/// after 14 slices of 8 steps. It must keep restoring and running now
/// that the writer seals v3.
constexpr uint8_t V2Fixture[] = {
    0x53, 0x43, 0x53, 0x4e, 0x02, 0x00, 0x00, 0x00, 0xd1, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x99, 0xe4, 0x2d, 0xdc, 0x91, 0x60, 0xf7, 0x02,
    0x2e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0x70, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x10, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x70, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x46, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd6, 0xe8, 0xd6,
    0x5b, 0xc1, 0x9f, 0x03, 0x28,
};

TEST(SnapshotFormat, V2FixtureRestoresAndRunsToTheSameResult) {
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch,
                   SessionPolicy{.SliceSteps = 8});
  const std::vector<uint8_t> V2(std::begin(V2Fixture), std::end(V2Fixture));
  SnapshotHeader H;
  ASSERT_EQ(readHeader(V2.data(), V2.size(), H), SnapshotError::None);
  EXPECT_EQ(H.FormatVersion, 2u);
  EXPECT_EQ(H.CodeIdentity, F.Sys->Prog.identity());
  EXPECT_EQ(H.MS.StepsRetired, 8u * 14u);

  // The uninterrupted run, and the fixture's continuation in a fresh
  // session: same stop, same total steps, same output.
  const SessionResult Whole = F.S->run(F.Sys->entryOf("main"));
  ASSERT_EQ(Whole.Stop, StopKind::Halted);
  Vm M(0);
  VmSession S(F.PC, M, SessionPolicy{.SliceSteps = 8});
  MachineState MS;
  ASSERT_EQ(S.restoreFrom(V2, &MS), SnapshotError::None);
  const SessionResult Rest = S.run(S.restoredPc());
  EXPECT_EQ(Rest.Stop, StopKind::Halted);
  EXPECT_EQ(MS.StepsRetired + Rest.Outcome.Steps, Whole.Outcome.Steps);
  EXPECT_EQ(M.Out, F.Machine.Out);

  // A checkpoint of the restored state is written as v3.
  const std::vector<uint8_t> Again = S.checkpoint(S.restoredPc());
  ASSERT_EQ(readHeader(Again.data(), Again.size(), H), SnapshotError::None);
  EXPECT_EQ(H.FormatVersion, 3u);
}

/// The v3 seal folds each lane's high half down after every multiply.
/// Without the fold, flipping bit 63 of two words in one lane cancels:
/// the flip reaches bit 63 of the product and nothing else. Every such
/// pair past the magic/version and length words must be caught.
TEST(SnapshotFormat, V3SealCatchesPairedBit63FlipsInOneLane) {
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch,
                   SessionPolicy{.SliceSteps = 8});
  const std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 3);
  ASSERT_EQ(headerErr(Snap), SnapshotError::None);
  const size_t Words = Snap.size() / 8;
  unsigned Pairs = 0;
  for (size_t A = 2; A < Words; ++A)
    for (size_t B = A + 4; B < Words; B += 4) {
      std::vector<uint8_t> M = Snap;
      M[A * 8 + 7] ^= 0x80;
      M[B * 8 + 7] ^= 0x80;
      EXPECT_EQ(headerErr(M), SnapshotError::BadChecksum)
          << "bit-63 flips in words " << A << " and " << B;
      ++Pairs;
    }
  EXPECT_GT(Pairs, 20u);
}

TEST(SnapshotFormat, CodeMismatchAcrossPrograms) {
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch,
                   SessionPolicy{.SliceSteps = 8});
  const std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 2);
  auto Other = forth::loadOrDie(FaultProgramSrc);
  Vm M2(0);
  ExecContext C2;
  MachineState MS;
  EXPECT_EQ(restore(Snap.data(), Snap.size(), Other->Prog, C2, M2, MS),
            SnapshotError::CodeMismatch);
}

TEST(SnapshotFormat, IdentitySurvivesRecompileVersionDoesNot) {
  auto A = forth::loadOrDie(SliceProgramSrc);
  auto B = forth::loadOrDie(SliceProgramSrc);
  EXPECT_EQ(A->Prog.identity(), B->Prog.identity());
  EXPECT_NE(A->Prog.version(), B->Prog.version()); // process-local stamp

  // A checkpoint taken over A restores over B: cross-process shipping in
  // miniature (same content, different object, different version).
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch,
                   SessionPolicy{.SliceSteps = 8});
  const std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 2);
  Vm M2(0);
  ExecContext C2;
  MachineState MS;
  EXPECT_EQ(restore(Snap.data(), Snap.size(), B->Prog, C2, M2, MS),
            SnapshotError::None);
}

//===----------------------------------------------------------------------===//
// Differential layer: snapshot/restore == one-shot, all engines
//===----------------------------------------------------------------------===//

TEST(SnapshotDifferential, EveryBoundaryEveryEngine) {
  auto Sys = forth::loadOrDie(SliceProgramSrc);
  harness::InjectReport R = harness::sweepSnapshotBoundaries(*Sys, "main");
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
  EXPECT_GT(R.Points, 0u);
}

TEST(SnapshotDifferential, SnapshotUnderFault) {
  // Checkpoints taken on the way into a DivByZero: every continuation —
  // same engine or rotated — must reproduce the fault field for field.
  auto Sys = forth::loadOrDie(FaultProgramSrc);
  harness::InjectReport R = harness::sweepSnapshotBoundaries(*Sys, "main");
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
  EXPECT_GT(R.Faults, 0u);
}

TEST(SnapshotDifferential, MutationFuzzOverValidSnapshots) {
  auto Sys = forth::loadOrDie(SliceProgramSrc);
  harness::InjectReport R =
      harness::fuzzSnapshots(*Sys, "main", 300, 0xBADC0DEull);
  EXPECT_TRUE(R.ok()) << R.FirstDivergence;
  EXPECT_EQ(R.Points, 300u);
}

//===----------------------------------------------------------------------===//
// Touched-bytes bound: the Vm's invariant against a full-arena oracle
//===----------------------------------------------------------------------===//

/// Stores zeros, a byte above every earlier store, the arena's last cell
/// and last byte, and interns a string (compile-time writeBytes) and
/// types it, with loops between the stores so slice boundaries fall
/// between them. \p ArenaBytes is the System's data-space size.
std::string storeHeavySrc(size_t ArenaBytes) {
  const std::string LastCell = std::to_string(ArenaBytes - CellBytes);
  const std::string LastByte = std::to_string(ArenaBytes - 1);
  const std::string Mid = std::to_string(ArenaBytes / 2);
  const std::string High = std::to_string(ArenaBytes / 4 * 3);
  return "variable v\n"
         ": spin 20 0 do i v @ + v ! loop ;\n"
         ": main 0 v ! 0 " + Mid + " ! spin 3 " + High + " c! spin\n"
         "  s\" touched\" type spin\n"
         "  7 " + LastCell + " ! spin 9 " + LastByte + " c! spin\n"
         "  " + LastCell + " @ . 0 " + LastCell + " ! spin\n"
         "  0 " + LastByte + " c! 5 " + Mid + " c! spin v @ . ;\n";
}

/// The trimmed data prefix as a byte scan over the whole arena finds it.
size_t fullArenaPrefix(const Vm &M) {
  const uint8_t *P = M.memData();
  size_t N = M.dataSpaceSize();
  while (N > 0 && P[N - 1] == 0)
    --N;
  return N;
}

/// A copy of \p M whose touched bound is the whole arena: rewriting the
/// top byte with its own value raises the bound and changes no byte.
Vm fullyTouched(const Vm &M) {
  Vm C = M;
  const Cell Top = static_cast<Cell>(M.dataSpaceSize()) - 1;
  C.storeByte(Top, M.loadByte(Top));
  return C;
}

void expectSameVm(const Vm &Got, const Vm &Want, const std::string &Where) {
  ASSERT_EQ(Got.dataSpaceSize(), Want.dataSpaceSize()) << Where;
  EXPECT_EQ(std::memcmp(Got.memData(), Want.memData(), Want.dataSpaceSize()),
            0)
      << Where;
  EXPECT_EQ(Got.touchedBound(), Want.touchedBound()) << Where;
  EXPECT_EQ(Got.here(), Want.here()) << Where;
  EXPECT_EQ(Got.accessibleLimit(), Want.accessibleLimit()) << Where;
  EXPECT_EQ(Got.Out, Want.Out) << Where;
}

/// One slice boundary: the invariant holds, the checkpoint equals the
/// serialization of a fully-touched copy byte for byte (and trims to the
/// full-arena scan's prefix), and same-size assignment between this state
/// and \p Prev equals a full copy in both directions.
void checkBoundary(SessionFixture &F, uint32_t Pc, const Vm &Prev,
                   const std::string &Where) {
  const Vm &M = F.Machine;
  const uint8_t *P = M.memData();
  ASSERT_LE(M.touchedBound(), M.dataSpaceSize()) << Where;
  const uint8_t *NonZero =
      std::find_if(P + M.touchedBound(), P + M.dataSpaceSize(),
                   [](uint8_t B) { return B != 0; });
  EXPECT_EQ(NonZero, P + M.dataSpaceSize())
      << Where << ": non-zero byte at " << (NonZero - P) << " above bound "
      << M.touchedBound();

  const std::vector<uint8_t> Ckpt = F.S->checkpoint(Pc);
  SnapshotHeader H;
  ASSERT_EQ(readHeader(Ckpt.data(), Ckpt.size(), H), SnapshotError::None)
      << Where;
  EXPECT_EQ(H.DataPrefixBytes, fullArenaPrefix(M)) << Where;
  EXPECT_EQ(H.CodeIdentity, F.PC->program().identity()) << Where;
  MachineState MS;
  MS.Pc = Pc;
  EXPECT_EQ(serialize(F.S->context(), M, MS),
            serialize(F.S->context(), fullyTouched(M), MS))
      << Where;

  Vm Up = Prev; // the earlier, lower bound receives the later state
  Up = M;
  expectSameVm(Up, Vm(M), Where + " (later into earlier)");
  Vm Down = M; // and the other way round
  Down = Prev;
  expectSameVm(Down, Vm(Prev), Where + " (earlier into later)");
}

class TouchedBoundTest : public ::testing::TestWithParam<engine::EngineId> {};

INSTANTIATE_TEST_SUITE_P(Engines, TouchedBoundTest,
                         ::testing::ValuesIn(tests::registryEngines()),
                         tests::engineParamName);

/// Runs each Fig. 20 program and the store-heavy program in slices under
/// the engine and checks the bound at several boundaries of each.
TEST_P(TouchedBoundTest, CheckpointsMatchAFullArenaScan) {
  const engine::EngineId E = GetParam();
  std::vector<std::pair<std::string, std::string>> Programs; // name, source
  size_t N = 0;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  for (size_t I = 0; I < N; ++I)
    Programs.emplace_back(W[I].Name, W[I].Source);
  Programs.emplace_back("store-heavy",
                        storeHeavySrc(forth::loadOrDie(SliceProgramSrc)
                                          ->Machine.dataSpaceSize()));

  for (const auto &[Name, Src] : Programs) {
    // Total steps under this engine, then about eight slices of them.
    uint64_t Total = 0;
    {
      SessionFixture Once(Src.c_str(), E);
      const SessionResult R = Once.S->run(Once.Sys->entryOf("main"));
      ASSERT_EQ(R.Stop, StopKind::Halted) << Name;
      Total = R.Outcome.Steps;
    }
    SessionFixture F(Src.c_str(), E,
                     SessionPolicy{.SliceSteps = std::max<uint64_t>(
                                       1, Total / 8)});
    Vm Prev = F.Machine;
    const size_t StartBound = F.Machine.touchedBound();
    uint32_t Pc = F.Sys->entryOf("main");
    unsigned Boundaries = 0;
    for (;;) {
      const SessionResult R = F.S->run(Pc, 1);
      if (R.Stop != StopKind::Preempted) {
        ASSERT_EQ(R.Stop, StopKind::Halted) << Name;
        break;
      }
      Pc = R.ResumePc;
      checkBoundary(F, Pc, Prev,
                    Name + " boundary " + std::to_string(++Boundaries));
      Prev = F.Machine;
    }
    EXPECT_GE(Boundaries, 4u) << Name;
    if (Name == "store-heavy") {
      // The last cell was written: the bound reached the top of the
      // arena, while the trimmed prefix came back down.
      EXPECT_EQ(F.Machine.touchedBound(), F.Machine.dataSpaceSize());
      EXPECT_GT(F.Machine.touchedBound(), StartBound);
      EXPECT_LT(fullArenaPrefix(F.Machine), F.Machine.dataSpaceSize());
      EXPECT_NE(F.Machine.Out.find("touched"), std::string::npos);
    }
  }
}

//===----------------------------------------------------------------------===//
// Session layer: policy checkpoints, restore, identity keying
//===----------------------------------------------------------------------===//

TEST(SessionCheckpoint, CadenceAndRestoreResumesExactly) {
  auto Ref = [] {
    auto Sys = forth::loadOrDie(SliceProgramSrc);
    return harness::observeEngine(*Sys, Sys->Prog, Sys->entryOf("main"),
                                  harness::EngineId::Switch);
  }();
  ASSERT_EQ(Ref.Outcome.Status, RunStatus::Halted);

  SessionPolicy P;
  P.SliceSteps = 8;
  P.CheckpointEverySlices = 2;
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Threaded, P);
  SessionResult R1 = F.S->run(F.Sys->entryOf("main"));
  ASSERT_EQ(R1.Stop, StopKind::Halted);
  EXPECT_EQ(F.Machine.Out, Ref.Out);
  EXPECT_EQ(R1.Outcome.Steps, Ref.Outcome.Steps);
  EXPECT_GT(F.S->counters().Checkpoints, 0u);
  ASSERT_FALSE(F.S->lastCheckpoint().empty());

  // Restore the last policy checkpoint into a second session over a
  // fresh machine; running it must finish the job with the retired and
  // remaining work summing exactly to the uninterrupted total.
  Vm M2(0);
  auto S2 = std::make_unique<VmSession>(F.PC, M2, P);
  MachineState MS;
  ASSERT_EQ(S2->restoreFrom(F.S->lastCheckpoint(), &MS), SnapshotError::None);
  EXPECT_EQ(S2->counters().Restores, 1u);
  SessionResult R2 = S2->run(S2->restoredPc());
  ASSERT_EQ(R2.Stop, StopKind::Halted);
  EXPECT_EQ(M2.Out, Ref.Out);
  EXPECT_GT(MS.StepsRetired, 0u);
  EXPECT_EQ(MS.StepsRetired + R2.Outcome.Steps, Ref.Outcome.Steps)
      << "retired + resumed steps must equal the one-shot total";
}

TEST(SessionCheckpoint, CrossEngineRestoreRotation) {
  auto RefSys = forth::loadOrDie(SliceProgramSrc);
  harness::EngineObservation Ref = harness::observeEngine(
      *RefSys, RefSys->Prog, RefSys->entryOf("main"), harness::EngineId::Switch);
  ASSERT_EQ(Ref.Outcome.Status, RunStatus::Halted);

  constexpr size_t N = sizeof(AllPrepareEngines) / sizeof(AllPrepareEngines[0]);
  for (size_t I = 0; I < N; ++I) {
    const prepare::EngineId From = AllPrepareEngines[I];
    const prepare::EngineId To = AllPrepareEngines[(I + 1) % N];
    SessionPolicy P;
    P.SliceSteps = 8;
    SessionFixture F(SliceProgramSrc, From, P);
    const std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 3);

    prepare::PrepareCache Cache;
    Vm M2(0);
    SnapshotError Err = SnapshotError::None;
    std::unique_ptr<VmSession> S2 =
        restoreSession(Snap.data(), Snap.size(), F.Sys->Prog, To, M2, P, Cache,
                       &Err);
    ASSERT_NE(S2, nullptr) << snapshotErrorName(Err);
    SessionResult R = S2->run(S2->restoredPc());
    ASSERT_EQ(R.Stop, StopKind::Halted)
        << "restore " << engine::engineName(From) << " -> "
        << engine::engineName(To);
    EXPECT_EQ(M2.Out, Ref.Out);
    // Step accounting is only cross-comparable between stream flavors
    // (static step counts are incomparable by design).
    if (!engine::isStaticEngine(From) && !engine::isStaticEngine(To)) {
      SnapshotHeader H;
      ASSERT_EQ(readHeader(Snap.data(), Snap.size(), H), SnapshotError::None);
      EXPECT_EQ(H.MS.StepsRetired + R.Outcome.Steps, Ref.Outcome.Steps)
          << engine::engineName(From) << " -> " << engine::engineName(To);
    }
  }
}

TEST(SessionCheckpoint, StaticRestoreAtNonLeaderFallsBackToSwitch) {
  // Find a boundary whose PC is not a basic-block leader of the static
  // translation, checkpoint there, and restore under StaticGreedy: the
  // session must route slices to Switch until it can rejoin.
  auto Probe = forth::loadOrDie(SliceProgramSrc);
  auto StaticPC =
      prepare::prepareCode(Probe->Prog, prepare::EngineId::StaticGreedy);
  ASSERT_NE(StaticPC->spec(), nullptr);
  const auto &OrigToSpec = StaticPC->spec()->OrigToSpec;

  SessionPolicy P;
  P.SliceSteps = 1; // every step is a boundary
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Switch, P);
  SessionResult R = F.S->run(F.Sys->entryOf("main"), 1);
  while (R.Stop == StopKind::Preempted &&
         OrigToSpec[R.ResumePc] != staticcache::InvalidSpec)
    R = F.S->run(R.ResumePc, 1);
  ASSERT_EQ(R.Stop, StopKind::Preempted) << "no non-leader boundary found";
  const std::vector<uint8_t> Snap = F.S->checkpoint(R.ResumePc);

  prepare::PrepareCache Cache;
  Vm M2(0);
  SessionPolicy P2;
  P2.SliceSteps = 8;
  SnapshotError Err = SnapshotError::None;
  std::unique_ptr<VmSession> S2 =
      restoreSession(Snap.data(), Snap.size(), F.Sys->Prog,
                     prepare::EngineId::StaticGreedy, M2, P2, Cache, &Err);
  ASSERT_NE(S2, nullptr) << snapshotErrorName(Err);
  SessionResult R2 = S2->run(S2->restoredPc());
  ASSERT_EQ(R2.Stop, StopKind::Halted);
  EXPECT_GE(S2->counters().LeaderFallbacks, 1u);

  harness::EngineObservation Ref = harness::observeEngine(
      *Probe, Probe->Prog, Probe->entryOf("main"), harness::EngineId::Switch);
  EXPECT_EQ(M2.Out, Ref.Out);
}

TEST(SessionCheckpoint, RestoreErrorLeavesSessionUntouched) {
  SessionPolicy P;
  P.SliceSteps = 8;
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Threaded, P);
  std::vector<uint8_t> Snap = cutCheckpoint(F, 8, 2);
  Snap[Snap.size() / 2] ^= 0x10; // unsealed: checksum must catch it

  // A real machine copy (not a restore target): the session must stay
  // able to run the program from scratch after the rejected restore.
  Vm M2 = F.Sys->Machine;
  M2.resetOutput();
  auto S2 = std::make_unique<VmSession>(F.PC, M2, P);
  EXPECT_EQ(S2->restoreFrom(Snap), SnapshotError::BadChecksum);
  EXPECT_EQ(S2->counters().Restores, 0u);

  // The untouched session still runs the program from scratch, correctly.
  harness::EngineObservation Ref = harness::observeEngine(
      *F.Sys, F.Sys->Prog, F.Sys->entryOf("main"), harness::EngineId::Switch);
  SessionResult R = S2->run(F.Sys->entryOf("main"));
  ASSERT_EQ(R.Stop, StopKind::Halted);
  EXPECT_EQ(M2.Out, Ref.Out);
}

TEST(SessionCheckpoint, PrepareCacheFindsArtifactsByContentIdentity) {
  auto A = forth::loadOrDie(SliceProgramSrc);
  auto B = forth::loadOrDie(SliceProgramSrc); // recompile: new version stamp
  prepare::PrepareCache Cache;
  auto Prepared = Cache.getOrPrepare(A->Prog, prepare::EngineId::Threaded);
  ASSERT_NE(Prepared, nullptr);

  // The recompiled program's identity resolves to the same artifact —
  // restoreSession relies on this to avoid re-translating on restore.
  auto Found =
      Cache.findByIdentity(B->Prog.identity(), prepare::EngineId::Threaded);
  EXPECT_EQ(Found.get(), Prepared.get());
  // Same content, different flavor: a miss, not a wrong hit.
  EXPECT_EQ(Cache.findByIdentity(B->Prog.identity(),
                                 prepare::EngineId::Dynamic3),
            nullptr);
}

TEST(SessionCheckpoint, QuarantineKeyedOnContentIdentity) {
  globalQuarantine().clear();
  auto A = forth::loadOrDie(FaultProgramSrc);
  globalQuarantine().add(A->Prog.identity());

  // A recompile of the same source (fresh object, fresh version) is the
  // same program as far as quarantine is concerned...
  SessionFixture F(FaultProgramSrc, prepare::EngineId::Threaded);
  SessionResult R = F.S->run(F.Sys->entryOf("main"));
  EXPECT_EQ(R.Stop, StopKind::Quarantined);
  EXPECT_EQ(R.Outcome.Steps, 0u); // nothing executed

  // ...while a different program is not, even in the same process.
  SessionFixture G(SliceProgramSrc, prepare::EngineId::Threaded);
  SessionResult R2 = G.S->run(G.Sys->entryOf("main"));
  EXPECT_EQ(R2.Stop, StopKind::Halted);
  globalQuarantine().clear();
}

//===----------------------------------------------------------------------===//
// Scheduler layer: deterministic crash recovery
//===----------------------------------------------------------------------===//

namespace {

/// Everything a job's outcome exposes, flattened for field-for-field
/// comparison between a crashed and an uncrashed run.
struct JobFacts {
  StopKind Stop;
  RunStatus Status;
  uint64_t Steps;
  uint64_t Slices;
  FaultInfo Fault;
  uint32_t ResumePc;
  bool Resumable;
  std::string Out;
};

std::vector<JobFacts> runFleet(uint64_t CrashEveryDispatches,
                               sched::SchedSnapshot &OutSnap) {
  auto Compute = forth::loadOrDie(SliceProgramSrc);
  auto Faulty = forth::loadOrDie(FaultProgramSrc);
  prepare::PrepareCache Cache;

  sched::SchedConfig Cfg;
  Cfg.Workers = 1; // sequential: execution order is the submission order
  Cfg.Policy = sched::SchedPolicy::Fifo;
  Cfg.SliceSteps = 16;
  Cfg.FifoDispatchSlices = 2; // several dispatches per job -> several dooms
  Cfg.Cache = &Cache;
  Cfg.CheckpointEverySlices = 2;
  Cfg.CrashEveryDispatches = CrashEveryDispatches;
  sched::SessionScheduler S(Cfg);

  const sched::TenantId T0 = S.addTenant("alpha");
  const sched::TenantId T1 = S.addTenant("beta");
  struct Plan {
    sched::TenantId T;
    forth::System *Sys;
    engine::EngineId E;
  };
  const Plan Plans[] = {
      {T0, Compute.get(), engine::EngineId::Threaded},
      {T1, Faulty.get(), engine::EngineId::Dynamic3},
      {T0, Compute.get(), engine::EngineId::StaticGreedy},
      {T1, Compute.get(), engine::EngineId::Switch},
  };

  std::vector<sched::Job *> Jobs;
  for (const Plan &P : Plans) {
    sched::JobSpec Spec;
    Spec.Entry = P.Sys->entryOf("main");
    Jobs.push_back(S.createJob(P.T, P.Sys->Prog, P.E, P.Sys->Machine, Spec));
  }
  for (sched::Job *J : Jobs)
    EXPECT_EQ(S.submit(J), sched::SubmitResult::Admitted);
  S.drain();

  std::vector<JobFacts> Facts;
  for (sched::Job *J : Jobs) {
    const SessionResult &R = J->result();
    Facts.push_back({R.Stop, R.Outcome.Status, R.Outcome.Steps, R.Slices,
                     R.Outcome.Fault, R.ResumePc, R.Resumable,
                     J->machine().Out});
  }
  OutSnap = S.snapshot();
  S.shutdown();
  return Facts;
}

} // namespace

TEST(CrashRecovery, RecoveredRunEqualsUncrashedBaseline) {
  sched::SchedSnapshot Base, Crashed;
  const std::vector<JobFacts> A = runFleet(0, Base);
  const std::vector<JobFacts> B = runFleet(3, Crashed);
  ASSERT_EQ(A.size(), B.size());

  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Stop, B[I].Stop) << "job " << I;
    EXPECT_EQ(A[I].Status, B[I].Status) << "job " << I;
    EXPECT_EQ(A[I].Steps, B[I].Steps) << "job " << I;
    EXPECT_EQ(A[I].Slices, B[I].Slices) << "job " << I;
    EXPECT_EQ(A[I].ResumePc, B[I].ResumePc) << "job " << I;
    EXPECT_EQ(A[I].Resumable, B[I].Resumable) << "job " << I;
    EXPECT_TRUE(A[I].Fault == B[I].Fault) << "job " << I;
    EXPECT_EQ(A[I].Out, B[I].Out) << "job " << I;
  }
  // The faulting job really faulted, identically, in both worlds.
  EXPECT_EQ(A[1].Stop, StopKind::Fault);
  EXPECT_EQ(A[1].Status, RunStatus::DivByZero);

  uint64_t BaseCrashes = 0, Crashes = 0, Recoveries = 0, Submitted = 0,
           Completed = 0;
  for (const auto &T : Base.Tenants)
    BaseCrashes += T.Crashes;
  for (const auto &T : Crashed.Tenants) {
    Crashes += T.Crashes;
    Recoveries += T.Recoveries;
    Submitted += T.Submitted;
    Completed += T.Completed;
  }
  EXPECT_EQ(BaseCrashes, 0u);
  EXPECT_GT(Crashes, 0u);
  EXPECT_GT(Recoveries, 0u);
  EXPECT_EQ(Completed, Submitted); // exactly once, despite the murders
}

//===----------------------------------------------------------------------===//
// Replay layer: time travel
//===----------------------------------------------------------------------===//

TEST(TimeTravel, TraceReplayReproducesFaultUnderEveryEngine) {
  SessionPolicy P;
  P.SliceSteps = 6;
  P.RecordTrace = true;
  SessionFixture F(FaultProgramSrc, prepare::EngineId::Switch, P);
  SessionResult R = F.S->run(F.Sys->entryOf("main"));
  ASSERT_EQ(R.Stop, StopKind::Fault);
  ASSERT_EQ(R.Outcome.Status, RunStatus::DivByZero);
  ASSERT_FALSE(F.S->trace().Checkpoint.empty());
  ASSERT_FALSE(F.S->trace().SliceBudgets.empty());

  harness::EngineObservation Ref = harness::observeEngine(
      *F.Sys, F.Sys->Prog, F.Sys->entryOf("main"), harness::EngineId::Switch);
  ASSERT_EQ(Ref.Outcome.Status, RunStatus::DivByZero);

  for (prepare::EngineId E : AllPrepareEngines) {
    SnapshotError Err = SnapshotError::None;
    harness::EngineObservation Obs =
        harness::replayTrace(F.Sys->Prog, F.S->trace(), E, &Err);
    ASSERT_EQ(Err, SnapshotError::None) << engine::engineName(E);
    const std::string Why = harness::compareObservations(Ref, Obs, E);
    EXPECT_TRUE(Why.empty()) << engine::engineName(E) << ": " << Why;
  }

  // Determinism: the same trace replays to the same observation.
  harness::EngineObservation X =
      harness::replayTrace(F.Sys->Prog, F.S->trace(),
                           harness::EngineId::Dynamic3);
  harness::EngineObservation Y =
      harness::replayTrace(F.Sys->Prog, F.S->trace(),
                           harness::EngineId::Dynamic3);
  EXPECT_EQ(harness::describeObservation(X), harness::describeObservation(Y));
}

TEST(TimeTravel, SameEngineReplayIsExact) {
  SessionPolicy P;
  P.SliceSteps = 6;
  P.RecordTrace = true;
  SessionFixture F(FaultProgramSrc, prepare::EngineId::Dynamic3, P);
  SessionResult R = F.S->run(F.Sys->entryOf("main"));
  ASSERT_EQ(R.Stop, StopKind::Fault);

  harness::EngineObservation Ref = harness::observeEngine(
      *F.Sys, F.Sys->Prog, F.Sys->entryOf("main"), harness::EngineId::Dynamic3);
  harness::EngineObservation Obs = harness::replayTrace(
      F.Sys->Prog, F.S->trace(), harness::EngineId::Dynamic3);
  const std::string Why = harness::compareSlicedObservation(
      Ref, Obs, harness::EngineId::Dynamic3);
  EXPECT_TRUE(Why.empty()) << Why;
}

TEST(TimeTravel, ReplayFromMidRunCheckpointCompletes) {
  // A halting job recorded with a checkpoint cadence: the trace holds a
  // MID-RUN checkpoint plus only the budgets issued after it, and the
  // replay must still land on the identical final state.
  SessionPolicy P;
  P.SliceSteps = 8;
  P.CheckpointEverySlices = 4;
  P.RecordTrace = true;
  SessionFixture F(SliceProgramSrc, prepare::EngineId::Threaded, P);
  SessionResult R = F.S->run(F.Sys->entryOf("main"));
  ASSERT_EQ(R.Stop, StopKind::Halted);
  ASSERT_GT(F.S->counters().Checkpoints, 1u); // cadence fired mid-run

  harness::EngineObservation Ref = harness::observeEngine(
      *F.Sys, F.Sys->Prog, F.Sys->entryOf("main"), harness::EngineId::Switch);
  harness::EngineObservation Obs = harness::replayTrace(
      F.Sys->Prog, F.S->trace(), harness::EngineId::Switch);
  ASSERT_EQ(Obs.Outcome.Status, RunStatus::Halted);
  EXPECT_EQ(Obs.Out, Ref.Out);
  EXPECT_EQ(Obs.Outcome.Steps, Ref.Outcome.Steps)
      << "retired + replayed steps must equal the one-shot total";
}
