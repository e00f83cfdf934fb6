//===-- bench/snapshot_overhead.cpp - Checkpoint and restore cost ---------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what durability costs: serializing the canonical machine
/// state (snapshot::serializeInto with a reused buffer, the steady-state
/// checkpoint path), restoring it into a live context, and the end-to-end
/// cost of running the paper workloads under every checkpoint cadence
/// (CheckpointEverySlices in {0, 1, 4, 16, 64}) against the same session
/// with checkpointing off. The EXPERIMENTS.md methodology reads the
/// cadence sweep as a cost-per-durability curve: cadence 0 is the
/// allocation-free baseline, cadence 1 the worst case.
///
/// The deterministic claims are self-asserted, not just reported, and a
/// violation exits nonzero (failing scripts/check.sh --bench-smoke):
///
///   - restore(serialize(state)) re-serializes to the identical bytes;
///   - a corrupted snapshot is rejected with a typed error, never
///     restored, and never crashes;
///   - under every cadence the run's output and step count equal the
///     cadence-0 run (checkpointing must not perturb execution);
///   - a checkpoint costs what the job wrote, not its arena: the same
///     guest state run in a 1 MiB and in a 64 MiB data space serializes
///     to the same bytes (bar the recorded arena size and the seal), and
///     the 64 MiB serialize takes at most 4x the 1 MiB one. A whole-arena
///     scan scales with the 64x size; the 4x margin keeps the gate
///     independent of machine load.
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "metrics/Reporter.h"
#include "metrics/Timing.h"
#include "prepare/Prepare.h"
#include "session/VmSession.h"
#include "snapshot/Snapshot.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace sc;
using namespace sc::vm;

namespace {

constexpr uint64_t Cadences[] = {0, 1, 4, 16, 64};
/// The session default: the cadence sweep measures checkpointing against
/// realistic slices, not against an artificially boundary-heavy run.
constexpr uint64_t BenchSliceSteps = 4096;

/// The big arena of the arena-size contract, and the serialize-time ratio
/// it may cost over the program's own 1 MiB arena.
constexpr size_t BigArenaBytes = size_t(64) << 20;
constexpr double ArenaRatioCap = 4.0;
/// Serializations per timed repetition in that contract: one takes about
/// a microsecond, so a batch keeps the clock's resolution out of it.
constexpr int ArenaBatch = 64;
/// sc-snap header field holding the data-space allocation size.
constexpr size_t ArenaSizeOffset = 104;

/// True when \p A and \p B are the same snapshot but for the recorded
/// arena size and the trailing seal that covers it.
bool sameButArena(const std::vector<uint8_t> &A,
                  const std::vector<uint8_t> &B) {
  if (A.size() != B.size() || A.size() < ArenaSizeOffset + 16)
    return false;
  for (size_t I = 0; I + 8 < A.size(); ++I)
    if ((I < ArenaSizeOffset || I >= ArenaSizeOffset + 8) && A[I] != B[I])
      return false;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  metrics::MetricsReporter Rep("snapshot_overhead");
  Rep.parseArgs(argc, argv);
  std::printf("==== Snapshot serialize/restore overhead ====\n");
  std::printf("serialize: snapshot::serializeInto, buffer reused "
              "(steady-state checkpoint path)\n"
              "restore: snapshot::restore into a live context\n"
              "cadence N: full sessioned run checkpointing every N slices "
              "(0 = off)\n\n");

  const int Reps = metrics::smokeAdjustedReps(7);
  int Failures = 0;

  size_t N;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  Table T;
  T.addRow({"workload", "steps", "snap bytes", "serialize ns", "restore ns",
            "run ns/c0", "ns/c1", "ns/c16", "ckpts/c16", "64MiB/1MiB"});

  for (size_t WI = 0; WI < N; ++WI) {
    std::unique_ptr<forth::System> Sys = forth::loadOrDie(W[WI].Source);
    const uint32_t Entry = Sys->entryOf("main");
    auto PC = prepare::prepareCode(Sys->Prog, prepare::EngineId::Threaded);

    // --- a genuine mid-run state to serialize ---------------------------
    session::SessionPolicy CutPol;
    CutPol.SliceSteps = 64;
    Vm CutVm = Sys->Machine;
    CutVm.resetOutput();
    session::VmSession Cut(PC, CutVm, CutPol);
    session::SessionResult CutR = Cut.run(Entry, 4);
    const uint32_t CutPc =
        CutR.Stop == session::StopKind::Preempted ? CutR.ResumePc : Entry;
    const std::vector<uint8_t> Snap = Cut.checkpoint(CutPc);

    // --- serialize / restore microbenchmarks ----------------------------
    snapshot::MachineState MS;
    MS.Pc = CutPc;
    std::vector<uint8_t> Reused;
    auto SerializeOnce = [&] {
      snapshot::serializeInto(Reused, Cut.context(), CutVm, MS);
    };
    SerializeOnce(); // warm-up: size the reused buffer
    const double SerNs = metrics::timeRuns(SerializeOnce, Reps, 0).MinNs;

    Vm RestVm(0);
    ExecContext RestCtx;
    snapshot::MachineState RestMS;
    auto RestoreOnce = [&] {
      if (snapshot::restore(Snap.data(), Snap.size(), Sys->Prog, RestCtx,
                            RestVm, RestMS) != snapshot::SnapshotError::None) {
        std::fprintf(stderr, "FAIL: restore rejected a genuine snapshot of "
                             "%s\n",
                     W[WI].Name);
        ++Failures;
      }
    };
    RestoreOnce();
    const double ResNs = metrics::timeRuns(RestoreOnce, Reps, 0).MinNs;

    // --- contract: round-trip bit identity ------------------------------
    const std::vector<uint8_t> Again =
        snapshot::serialize(RestCtx, RestVm, RestMS);
    if (Again != Snap) {
      std::fprintf(stderr, "FAIL: %s snapshot did not round-trip "
                           "bit-identically (%zu vs %zu bytes)\n",
                   W[WI].Name, Again.size(), Snap.size());
      ++Failures;
    }

    // --- contract: corruption is rejected with a typed error ------------
    {
      std::vector<uint8_t> Bad = Snap;
      Bad[Bad.size() / 2] ^= 0x20;
      snapshot::SnapshotHeader H;
      if (snapshot::readHeader(Bad.data(), Bad.size(), H) ==
          snapshot::SnapshotError::None) {
        std::fprintf(stderr, "FAIL: corrupted %s snapshot was accepted\n",
                     W[WI].Name);
        ++Failures;
      }
    }

    // --- contract: checkpoint cost follows the touched bytes -----------
    // The program's compiled data space moved into a 64 MiB arena, then
    // the same four slices: the same guest state in a 64x larger arena.
    double ArenaRatio = 0;
    {
      Vm BigVm(BigArenaBytes);
      BigVm.restoreDataSpace(BigArenaBytes, Sys->Machine.memData(),
                             Sys->Machine.touchedBound(), Sys->Machine.here(),
                             Sys->Machine.accessibleLimit());
      session::VmSession Big(PC, BigVm, CutPol);
      session::SessionResult BigR = Big.run(Entry, 4);
      const uint32_t BigPc =
          BigR.Stop == session::StopKind::Preempted ? BigR.ResumePc : Entry;
      if (BigPc != CutPc || !sameButArena(Big.checkpoint(BigPc), Snap)) {
        std::fprintf(stderr, "FAIL: %s snapshot in a 64 MiB arena differs "
                             "from the 1 MiB one\n",
                     W[WI].Name);
        ++Failures;
      }
      std::vector<uint8_t> BigReused;
      auto SerializeBatch = [&](session::VmSession &S, const Vm &M,
                                std::vector<uint8_t> &Buf) {
        for (int I = 0; I < ArenaBatch; ++I)
          snapshot::serializeInto(Buf, S.context(), M, MS);
      };
      const double SmallNs =
          metrics::timeRuns([&] { SerializeBatch(Cut, CutVm, Reused); },
                            Reps)
              .MinNs;
      const double BigNs =
          metrics::timeRuns([&] { SerializeBatch(Big, BigVm, BigReused); },
                            Reps)
              .MinNs;
      ArenaRatio = BigNs / (SmallNs > 0 ? SmallNs : 1);
      if (ArenaRatio > ArenaRatioCap) {
        std::fprintf(stderr,
                     "FAIL: %s serialize in a 64 MiB arena took %.1fx the "
                     "1 MiB one (cap %.0fx)\n",
                     W[WI].Name, ArenaRatio, ArenaRatioCap);
        ++Failures;
      }
    }

    // --- cadence sweep: durability vs run time --------------------------
    double CadNs[sizeof(Cadences) / sizeof(Cadences[0])] = {};
    uint64_t CadCkpts[sizeof(Cadences) / sizeof(Cadences[0])] = {};
    uint64_t BaseSteps = 0;
    std::string BaseOut;
    for (size_t CI = 0; CI < sizeof(Cadences) / sizeof(Cadences[0]); ++CI) {
      session::SessionPolicy Pol;
      Pol.SliceSteps = BenchSliceSteps;
      Pol.CheckpointEverySlices = Cadences[CI];
      Vm SessVm = Sys->Machine;
      session::VmSession S(PC, SessVm, Pol);

      uint64_t LastSteps = 0;
      auto RunOnce = [&] {
        SessVm.resetOutput();
        S.reset();
        session::SessionResult R = S.run(Entry);
        LastSteps = R.Outcome.Steps;
        if (R.Stop != session::StopKind::Halted) {
          std::fprintf(stderr, "FAIL: %s stopped (%s) at cadence %llu\n",
                       W[WI].Name, stopKindName(R.Stop),
                       static_cast<unsigned long long>(Cadences[CI]));
          ++Failures;
        }
      };
      RunOnce(); // warm-up, and the contract sample
      const uint64_t CkptsBefore = S.counters().Checkpoints;
      if (CI == 0) {
        BaseSteps = LastSteps;
        BaseOut = SessVm.Out;
      } else if (LastSteps != BaseSteps || SessVm.Out != BaseOut) {
        std::fprintf(stderr,
                     "FAIL: cadence %llu perturbed %s (steps %llu vs %llu)\n",
                     static_cast<unsigned long long>(Cadences[CI]), W[WI].Name,
                     static_cast<unsigned long long>(LastSteps),
                     static_cast<unsigned long long>(BaseSteps));
        ++Failures;
      }
      CadNs[CI] = metrics::timeRuns(RunOnce, Reps, 0).MinNs;
      // Checkpoints per single run (counters accumulate across runs).
      const uint64_t TotalRuns = 1 + static_cast<uint64_t>(Reps);
      CadCkpts[CI] = Cadences[CI] == 0
                         ? 0
                         : (S.counters().Checkpoints - CkptsBefore) /
                               (TotalRuns > 1 ? TotalRuns - 1 : 1);
    }

    auto Row = T.row();
    Row.cell(W[WI].Name)
        .num(static_cast<double>(BaseSteps), 0)
        .num(static_cast<double>(Snap.size()), 0)
        .num(SerNs, 0)
        .num(ResNs, 0)
        .num(CadNs[0], 0)
        .num(CadNs[1], 0)
        .num(CadNs[3], 0)
        .num(static_cast<double>(CadCkpts[3]), 0)
        .num(ArenaRatio, 2);

    metrics::Json V = metrics::Json::object();
    V.set("snapshot_bytes",
          metrics::Json::number(static_cast<double>(Snap.size())));
    V.set("serialize_ns", metrics::Json::number(SerNs));
    V.set("restore_ns", metrics::Json::number(ResNs));
    V.set("arena_64mib_serialize_ratio", metrics::Json::number(ArenaRatio));
    for (size_t CI = 0; CI < sizeof(Cadences) / sizeof(Cadences[0]); ++CI)
      V.set("run_ns_cadence" + std::to_string(Cadences[CI]),
            metrics::Json::number(CadNs[CI]));
    Rep.addValues(std::string(W[WI].Name) + "_snapshot",
                  metrics::EntryKind::Timing, std::move(V));

    metrics::Json C = metrics::Json::object();
    C.set("round_trip_bit_identity", metrics::Json::number(1.0));
    C.set("corruption_rejected", metrics::Json::number(1.0));
    C.set("arena_size_independent", metrics::Json::number(1.0));
    C.set("steps", metrics::Json::number(static_cast<double>(BaseSteps)));
    Rep.addValues(std::string(W[WI].Name) + "_snapshot_contract",
                  metrics::EntryKind::Exact, std::move(C));
  }

  T.print();
  std::printf("\n");
  Rep.addTable("snapshot_overhead", T, metrics::EntryKind::Info);

  if (Failures) {
    std::fprintf(stderr, "snapshot_overhead: %d contract violations\n",
                 Failures);
    return 1;
  }
  Rep.write();
  return 0;
}
