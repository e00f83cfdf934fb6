//===-- perfbench/src/Stats.h - Timing, summaries and reporting -*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers shared by the benchmark phases: a monotonic clock,
/// order statistics, process memory, and the metric list the benchmark
/// prints at the end of a run.
///
//===----------------------------------------------------------------------===//

#ifndef SC_PERFBENCH_STATS_H
#define SC_PERFBENCH_STATS_H

#include "metrics/Timing.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

namespace sc::bench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median of \p V (0 when empty). Takes a copy: callers keep their order.
inline double median(std::vector<double> V) { return metrics::medianOf(V); }

inline double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

/// The highest percentile that still has at least ten samples beyond it:
/// the sample with exactly ten larger ones, and the percentile it sits at.
/// Falls back to the maximum when there are ten samples or fewer.
struct Tail {
  double Value = 0;
  double Percentile = 100;
};
inline Tail tailOf(std::vector<double> V) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  if (N <= 10) {
    T.Value = V.back();
    return T;
  }
  T.Value = V[N - 11];
  T.Percentile = 100.0 * static_cast<double>(N - 10) / static_cast<double>(N);
  return T;
}

/// Peak resident set of this process so far, in KiB.
inline uint64_t peakRssKb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_maxrss);
}

/// Current resident set of this process, in KiB (0 if unreadable).
inline uint64_t currentRssKb() {
  unsigned long long Size = 0, Resident = 0;
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  const int Got = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (Got != 2)
    return 0;
  return Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

/// One reported metric. Samples and Note are printed in the human-readable
/// table only; the final JSON line carries value and unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0;
  std::string Note;
};

} // namespace sc::bench

#endif // SC_PERFBENCH_STATS_H
