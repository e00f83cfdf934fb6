//===-- metrics/Timing.h - Warmed-up repetition timing ---------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-rolled timing helper for the non-Google-Benchmark benches
/// (static_codegen_ablation, superinst_extension): runs warmup passes
/// first, then times N repetitions and reports both the minimum and the
/// median, so cold-cache noise neither skews the number (warmup) nor
/// hides run-to-run variance (median alongside min).
///
//===----------------------------------------------------------------------===//

#ifndef SC_METRICS_TIMING_H
#define SC_METRICS_TIMING_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace sc::metrics {

/// Result of timeRuns: nanoseconds per repetition.
struct TimingStats {
  double MinNs = 0;
  double MedianNs = 0;
  int Reps = 0;
};

/// Median of \p Samples (sorted in place).
inline double medianOf(std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2]
               : (Samples[N / 2 - 1] + Samples[N / 2]) / 2.0;
}

/// The \p P-th percentile (P in 0..100) of \p Sorted, which must be in
/// ascending order: the element at index (N-1)*P/100, rounded down by
/// integer division. 0 when \p Sorted is empty.
inline uint64_t percentileOf(const std::vector<uint64_t> &Sorted,
                             unsigned P) {
  if (Sorted.empty())
    return 0;
  return Sorted[(Sorted.size() - 1) * P / 100];
}

/// Runs \p Fn \p Warmup times unmeasured, then \p Reps measured times.
template <typename F>
TimingStats timeRuns(F &&Fn, int Reps = 7, int Warmup = 2) {
  using Clock = std::chrono::steady_clock;
  for (int I = 0; I < Warmup; ++I)
    Fn();
  std::vector<double> Samples;
  Samples.reserve(static_cast<size_t>(Reps));
  for (int I = 0; I < Reps; ++I) {
    auto T0 = Clock::now();
    Fn();
    auto T1 = Clock::now();
    Samples.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
            .count()));
  }
  TimingStats S;
  S.Reps = Reps;
  S.MinNs = *std::min_element(Samples.begin(), Samples.end());
  S.MedianNs = medianOf(Samples);
  return S;
}

/// True when SC_BENCH_SMOKE is set in the environment: benches shrink
/// their repetition counts so CI's perf-smoke job finishes quickly.
bool benchSmokeMode();

/// \p Full normally, a small constant in smoke mode.
int smokeAdjustedReps(int Full);

} // namespace sc::metrics

#endif // SC_METRICS_TIMING_H
