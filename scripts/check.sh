#!/usr/bin/env bash
# Full verification: configure, build, run all tests, run every benchmark.
# Usage: scripts/check.sh [build-dir]
#        scripts/check.sh --sanitize[=kinds] [build-dir]
#        scripts/check.sh --bench-smoke [build-dir]
#
# --sanitize builds with ASan+UBSan (SC_SANITIZE=address,undefined), runs
# the test suite plus a fuzz pass, and skips the benchmarks (sanitized
# timings are meaningless). --sanitize=thread builds with TSan instead
# (default build dir build-tsan), which exercises the concurrent
# PrepareCache and VmSession cancellation paths.
#
# --bench-smoke builds with -DSC_STATS=ON, runs the whole bench suite in
# smoke mode (SC_BENCH_SMOKE=1: reduced iterations) through
# scripts/bench.sh, producing BENCH_results.json and running the
# comparator self-check. This is what CI's perf-smoke job runs.
#
# --service-smoke builds only the loadgen tool in an existing (or fresh)
# build dir and drives the execution service end to end: a clean local
# run, a local run under transport chaos plus shard kills, a real-
# socket run under the same storm, and the rebalancer and cross-process
# migration, alone and racing each other under chaos. loadgen
# self-asserts exactly-once delivery and field-for-field result equality
# against unchaosed reference runs, so any drop/duplicate/corruption
# that leaks through fails the script. CI runs this in the release and TSan legs.
set -euo pipefail

MODE=full
SAN_KINDS=address,undefined
case "${1:-}" in
--sanitize)
  MODE=sanitize
  shift
  ;;
--sanitize=*)
  MODE=sanitize
  SAN_KINDS="${1#--sanitize=}"
  shift
  ;;
--bench-smoke)
  MODE=bench-smoke
  shift
  ;;
--service-smoke)
  MODE=service-smoke
  shift
  ;;
esac

if [ "$MODE" = bench-smoke ]; then
  BUILD="${1:-build-stats}"
  cmake -B "$BUILD" -G Ninja -DSC_STATS=ON
  cmake --build "$BUILD"
  ctest --test-dir "$BUILD" --output-on-failure
  # The amortization bench self-asserts its deterministic contracts
  # (warm runs perform ZERO stream translations; exactly one translation
  # cached per program/engine) and exits nonzero on violation. Run it
  # explicitly so a contract break fails fast with its own message, then
  # run the whole suite for the roll-up.
  echo "==== prepare amortization contracts"
  SC_BENCH_SMOKE=1 "$BUILD"/bench/prepare_amortization > /dev/null
  echo "warm-path contracts held (zero warm translations)"
  # Likewise self-asserting: sessioned runs must match one-shot output
  # and step counts exactly, and the steady-state slice loop must
  # perform zero heap allocations.
  echo "==== session overhead contracts"
  SC_BENCH_SMOKE=1 "$BUILD"/bench/session_overhead > /dev/null
  echo "session contracts held (zero-alloc slice loop, exact slice counts)"
  # Scheduler contracts: scheduled jobs reproduce the sequential step
  # count, the steady-state rearm/submit/dispatch loop allocates
  # nothing, and multi-worker throughput scales (on multi-core hosts).
  echo "==== scheduler throughput contracts"
  SC_BENCH_SMOKE=1 "$BUILD"/bench/sched_throughput > /dev/null
  echo "scheduler contracts held (zero-alloc dispatch loop)"
  # Snapshot contracts: restore(serialize(state)) is bit-identical, a
  # corrupted snapshot is rejected with a typed error, and checkpoint
  # cadences never perturb a run's output or step count.
  echo "==== snapshot overhead contracts"
  SC_BENCH_SMOKE=1 "$BUILD"/bench/snapshot_overhead > /dev/null
  echo "snapshot contracts held (bit-identical round trip, typed rejection)"
  # Adaptive tiering contracts: the adaptive config's output matches
  # every fixed ladder engine byte-for-byte, the hot program settles on
  # the top tier while cold churn stays on rung 0, and the steady-state
  # round beats the best single fixed engine.
  echo "==== adaptive tiering contracts"
  SC_BENCH_SMOKE=1 "$BUILD"/bench/adaptive_tiering > /dev/null
  echo "tiering contracts held (exact output, adaptive beats best fixed)"
  # Register-backend contracts: every ladder engine reproduces the
  # reference output on every workload, and the register backend retires
  # at least 25% fewer dispatches per guest step than the reference on
  # the manipulation-heavy loop (this is an SC_STATS build, so the
  # dispatch counters are live).
  echo "==== register-backend comparison contracts"
  SC_BENCH_SMOKE=1 "$BUILD"/bench/regvm_comparison > /dev/null
  echo "register-backend contracts held (exact output, >=25% fewer dispatches per step on manip code)"
  # Rebalancing contracts: every migrated result is field-for-field the
  # unmigrated run's, admission/completion is exactly-once in both
  # phases, and rebalancing-on sheds strictly less of the skewed burst
  # load than rebalancing-off (the shed-rate win is structural: half of
  # every burst has nowhere to go when live jobs cannot move).
  echo "==== cross-shard rebalancing contracts"
  SC_BENCH_SMOKE=1 "$BUILD"/bench/service_rebalance > /dev/null
  echo "rebalancing contracts held (exactly-once across moves, lower shed rate than static placement)"
  "$(dirname "$0")"/bench.sh --smoke --self-check "$BUILD"
elif [ "$MODE" = service-smoke ]; then
  BUILD="${1:-build}"
  cmake -B "$BUILD" -G Ninja
  cmake --build "$BUILD" --target loadgen
  # Sized so the chaos runs see real shard kills and checkpoint
  # recoveries while the whole mode stays under a couple of minutes.
  echo "==== service smoke: clean local run"
  "$BUILD"/tools/loadgen --jobs 1500 --clients 6 > /dev/null
  echo "clean run held (exactly-once, field-for-field vs reference)"
  echo "==== service smoke: local run under chaos + shard kills"
  "$BUILD"/tools/loadgen --jobs 1500 --clients 6 --chaos > /dev/null
  echo "chaos run held (retries masked drops, kills recovered)"
  echo "==== service smoke: TCP run under chaos + shard kills"
  "$BUILD"/tools/loadgen --jobs 600 --clients 4 --tcp --chaos > /dev/null
  echo "socket chaos run held (torn frames rejected, results exact)"
  echo "==== service smoke: skewed load with cross-shard rebalancing"
  "$BUILD"/tools/loadgen --jobs 900 --migrate > /dev/null
  echo "rebalanced run held (rebalancer fired, exactly-once across moves)"
  echo "==== service smoke: live cross-process migration to a peer"
  "$BUILD"/tools/loadgen --jobs 900 --peer > /dev/null
  echo "peer run held (migration ledger balanced, results exact)"
  echo "==== service smoke: cross-process migration under chaos + kills"
  "$BUILD"/tools/loadgen --jobs 400 --clients 3 --peer --chaos > /dev/null
  echo "chaos migration held (torn commits resolved exactly once)"
  echo "==== service smoke: rebalancing and peer migration racing under chaos"
  "$BUILD"/tools/loadgen --jobs 400 --clients 3 --migrate --peer --chaos > /dev/null
  echo "rebalance + migration race held (every record settled exactly once)"
elif [ "$MODE" = sanitize ]; then
  if [ "$SAN_KINDS" = thread ]; then
    BUILD="${1:-build-tsan}"
  else
    BUILD="${1:-build-san}"
  fi
  cmake -B "$BUILD" -G Ninja -DSC_SANITIZE="$SAN_KINDS"
  cmake --build "$BUILD"
  ctest --test-dir "$BUILD" --output-on-failure
  "$BUILD"/examples/fuzz_engines 500 1
else
  BUILD="${1:-build}"
  cmake -B "$BUILD" -G Ninja
  cmake --build "$BUILD"
  ctest --test-dir "$BUILD" --output-on-failure
  for b in "$BUILD"/bench/*; do
    [ -x "$b" ] && "$b"
  done
fi
