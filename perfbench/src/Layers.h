//===-- perfbench/src/Layers.h - Per-layer unit costs ----------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's replay: feeds a workload's programs through each
/// layer's public entry points one at a time — forth compile,
/// prepareCode, runPrepared, VmSession::run, snapshot serialize/restore,
/// SessionScheduler::createJob/recycle, encodeFrame/decodeFrame — and
/// times each call from outside. Multiplied by the counts the service run
/// reported, these unit costs attribute job time to layers.
///
//===----------------------------------------------------------------------===//

#ifndef SC_PERFBENCH_LAYERS_H
#define SC_PERFBENCH_LAYERS_H

#include "ServicePhase.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace sc::bench {

/// Costs and counts of one (program, engine) pair.
struct PairCost {
  double OneShotNs = 0; ///< prepare::runPrepared, whole program, one entry
  double SessionNs = 0; ///< VmSession::run at the service slice, no checkpoints
  uint64_t Steps = 0;   ///< guest steps the engine reported
  uint64_t Slices = 0;  ///< session slices at the service slice size
  /// VmSession::counters().Checkpoints of a run at the service cadence.
  uint64_t Checkpoints = 0;
};

using PairKey = std::pair<uint32_t, engine::EngineId>;

struct LayerCosts {
  std::map<PairKey, PairCost> Pairs;
  /// prepareCode wall time per engine (index: EngineId), mean over the
  /// measured programs, in microseconds.
  double PrepareUs[engine::NumEngineIds] = {};
  double CompileUs = 0;   ///< forth::System + load, mean per program
  double SliceNs = 0;     ///< session cost per slice beyond the engine run
  double SerializeUs = 0; ///< snapshot::serialize of a mid-run state
  double RestoreUs = 0;   ///< snapshot::restore of the same bytes
  double SnapshotBytes = 0;
  double CreateUs = 0;  ///< SessionScheduler::createJob, translation cached
  double RecycleUs = 0; ///< SessionScheduler::recycle
  /// Programs whose prepare, snapshot and job-pool costs were measured.
  size_t Sampled = 0;
};

/// Measures every pair in \p Pairs plus the per-program costs of \p C at
/// the service's slice size and checkpoint cadence. Programs are compiled
/// one at a time, so memory stays flat however large the catalog is.
LayerCosts measureLayers(const Catalog &C, const std::vector<JobSpec> &Pairs,
                         uint64_t SliceSteps, uint64_t Cadence);

/// One-shot runPrepared nanoseconds per reference-engine guest step for
/// every engine of promotionLadder(false) on every program of \p C.
/// Indexed [program][ladder position].
std::vector<std::vector<double>>
engineNsPerStep(const Catalog &C, const std::vector<engine::EngineId> &Ladder);

/// decodeFrame / encodeFrame nanoseconds, one sample per raw frame.
std::vector<double>
decodeSamplesNs(const std::vector<std::vector<uint8_t>> &Frames);
std::vector<double>
encodeSamplesNs(const std::vector<std::vector<uint8_t>> &Frames);

} // namespace sc::bench

#endif // SC_PERFBENCH_LAYERS_H
