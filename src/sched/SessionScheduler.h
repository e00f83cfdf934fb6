//===-- sched/SessionScheduler.h - Multi-tenant session scheduler -* C++ *-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-tenant scheduler over supervised VmSessions. N tenants submit
/// jobs (a prepared program + a machine + a supervision spec); a fixed
/// pool of worker threads executes them in bounded dispatches of
/// VmSession::run(Entry, MaxSlices), so every scheduling decision
/// happens at a slice boundary where the guest state is canonical and
/// resumable. The engine hot loops are untouched; preempting a job is
/// nothing more than returning from a bounded dispatch and requeueing.
///
/// Scheduling policy (SchedConfig::Policy):
///
///   - Drr: deficit round-robin over guest-step budgets. Each tenant
///     holds a step deficit; selection credits QuantumSteps when the
///     deficit cannot cover one slice, the dispatch budget is
///     Deficit / SliceSteps slices, and the steps actually executed are
///     debited afterwards. Tenants with expensive programs therefore get
///     the same cumulative guest-step share as tenants with cheap ones.
///   - Fifo: global submission order, one job at a time to completion
///     (dispatches stay bounded so deadlines and cancellation are still
///     honored; a preempted job resumes at the head of its tenant's
///     queue). With one worker this reproduces sequential execution
///     field for field — the determinism tests pin that down.
///
/// Admission control is per tenant and bounded: QueueCapacity jobs may
/// wait per tenant, and a full queue either rejects the submit
/// (Backpressure::Reject) or blocks the submitting thread until space
/// frees up (Backpressure::Wait). Drain closes admission and waits for
/// the queues to empty; shutdown stops the workers afterwards.
///
/// The steady-state dispatch path allocates nothing: tenant queues and
/// the run ring are pre-reserved at tenant creation, createJob() is the
/// only allocating call (it builds the machine copy and the session),
/// and submit()/rearm() recycle a finished job without touching the
/// heap. bench/sched_throughput asserts this with a counted allocator.
///
/// Counters are plain integers written under the scheduler lock, which
/// every writer (admission, settle, recovery, the worker loop) already
/// holds: per-tenant dispatch/slice/step/fault totals, admission traffic,
/// worker occupancy, and a 32-bucket log2-nanosecond histogram of
/// dispatch latencies from which snapshot() derives p50/p99. snapshot()
/// copies them under the same lock, so a snapshot is consistent across
/// counters.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SCHED_SESSIONSCHEDULER_H
#define SC_SCHED_SESSIONSCHEDULER_H

#include "metrics/Counters.h"
#include "metrics/Json.h"
#include "prepare/PrepareCache.h"
#include "session/VmSession.h"
#include "support/Assert.h"
#include "support/Rng.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace sc::tier {
class TierController;
} // namespace sc::tier

namespace sc::sched {

using TenantId = uint32_t;

/// How a full tenant queue treats a new submission.
enum class Backpressure : uint8_t {
  Reject, ///< submit() returns SubmitResult::Rejected immediately
  Wait,   ///< submit() blocks until the queue has space (or admission closes)
};

/// Global scheduling discipline.
enum class SchedPolicy : uint8_t {
  Drr,  ///< deficit round-robin over guest-step budgets (fair share)
  Fifo, ///< global submission order, run to completion (deterministic)
};

struct SchedConfig {
  /// Worker threads in the pool.
  unsigned Workers = 2;
  /// Guest steps per slice, shared by every session the scheduler
  /// creates; also the unit the DRR deficit is measured against.
  uint64_t SliceSteps = 4096;
  /// Slices per bounded dispatch under Fifo (supervision latency bound;
  /// Drr derives its budget from the tenant deficit instead).
  uint64_t FifoDispatchSlices = 32;
  SchedPolicy Policy = SchedPolicy::Drr;
  /// Translation cache shared by every job; defaults to the process-wide
  /// cache. Must outlive the scheduler.
  prepare::PrepareCache *Cache = nullptr;
  /// Adaptive tiering: when set, createJob ignores its engine argument
  /// and every job starts on the controller's cold tier, reports its
  /// retired steps after each bounded dispatch, and is migrated to
  /// hotter engines at slice boundaries as its program earns them. The
  /// controller must be running in background mode (TierPolicy::
  /// Background) so re-preparation happens off the dispatch path — the
  /// scheduler only ever polls for finished translations under its
  /// lock, never translates there. Confirmed faults on a promoted job
  /// demote its program cold. Must outlive the scheduler.
  tier::TierController *Tier = nullptr;
  /// Durable checkpoint cadence handed to every session the scheduler
  /// creates (SessionPolicy::CheckpointEverySlices). Zero keeps the
  /// dispatch path checkpoint-free (and allocation-free).
  uint64_t CheckpointEverySlices = 0;
  /// Crash injection, cooperative flavor: every Nth bounded dispatch is
  /// doomed — the worker completes the dispatch at an ordinary slice
  /// boundary, then behaves as if it died there: the dispatch's entire
  /// effect on the job is discarded and the job restarts from its last
  /// checkpoint. Deterministic (a shared dispatch counter), so a Fifo
  /// one-worker run with crashes is comparable field-for-field to an
  /// uncrashed baseline. Zero disables. Requires checkpointing.
  uint64_t CrashEveryDispatches = 0;
  /// Crash injection, stress flavor: each dispatch is doomed with
  /// probability 1/N from a seeded generator — the hard-kill storm the
  /// TSan job runs, exercising recovery under multi-worker races. Zero
  /// disables; ignored when CrashEveryDispatches is set.
  uint64_t CrashOneIn = 0;
  uint64_t CrashSeed = 0x5eed;
};

struct TenantConfig {
  /// DRR quantum: guest steps credited when the tenant comes up for
  /// selection with an empty deficit. Larger quanta mean longer turns.
  uint64_t QuantumSteps = 4096;
  /// Bounded admission: jobs that may sit queued at once. Zero is legal
  /// and means "admit nothing": every submit is Rejected immediately,
  /// under Backpressure::Wait too (waiting for space that can never
  /// exist would block forever) — the fully-shedding tenant a service
  /// uses to quarantine a noisy client without deregistering it.
  size_t QueueCapacity = 16;
  Backpressure OnFull = Backpressure::Reject;
};

/// Supervision spec for one job. The scheduler checks Deadline between
/// bounded dispatches (and before the first), so an expired job stops
/// within one dispatch of the deadline without the session ever seeing a
/// wall clock; fuel is enforced inside the session at slice granularity.
struct JobSpec {
  uint32_t Entry = 0;
  uint64_t FuelSteps = UINT64_MAX;
  /// Relative deadline, armed at submit(); zero means none.
  std::chrono::nanoseconds Deadline{0};
  bool ConfirmFaults = false;
};

enum class JobState : uint8_t {
  Idle,    ///< created or rearmed, not submitted
  Queued,  ///< admitted, waiting for a worker
  Running, ///< a worker is inside a bounded dispatch
  Done,    ///< finished; result() is valid
};

const char *jobStateName(JobState S);

/// One schedulable unit: a supervised session over its own machine copy.
/// Created by SessionScheduler::createJob (the allocating call) and
/// owned by the scheduler; a finished job can be rearmed and resubmitted
/// without allocation. Not thread-safe except cancel() and state().
class Job {
public:
  JobState state() const { return State.load(std::memory_order_acquire); }
  TenantId tenant() const { return Tenant; }

  /// Requests cancellation; a running session stops at the next slice
  /// boundary, a queued one stops at the head of its next dispatch
  /// before executing any guest step. Callable from any thread.
  void cancel();

  /// Aggregated result across every bounded dispatch of this job:
  /// Outcome.Steps and Slices accumulate, everything else describes the
  /// final stop. Valid once state() == Done.
  const session::SessionResult &result() const { return Aggregate; }
  /// The session's supervision counters (accumulate across rearms).
  const metrics::SessionCounters &counters() const { return Sess->counters(); }
  const vm::Vm &machine() const { return *Machine; }
  /// Owner-side access between runs (e.g. resetOutput() before a rearm);
  /// only safe while the job is Idle or Done.
  vm::Vm &machine() { return *Machine; }
  session::VmSession &session() { return *Sess; }
  /// The job's current rung on the adaptive ladder (0 without a tier
  /// controller). Only safe to read while the job is Idle or Done.
  unsigned tier() const { return TierIdx; }

private:
  friend class SessionScheduler;
  Job() = default;

  TenantId Tenant = 0;
  JobSpec Spec;
  /// The source program, kept for hotness reporting under adaptive
  /// tiering (null without a controller). Must outlive the job.
  const vm::Code *Prog = nullptr;
  unsigned TierIdx = 0; ///< current rung; workers update under Mu
  std::unique_ptr<vm::Vm> Machine;
  std::unique_ptr<session::VmSession> Sess;
  std::atomic<JobState> State{JobState::Idle};
  /// Armed absolute deadline; time_point{} when none.
  std::chrono::steady_clock::time_point DeadlineAt{};
  /// Where the next dispatch enters (Spec.Entry, then ResumePc).
  uint32_t NextEntry = 0;
  /// Global admission stamp (Fifo ordering key).
  uint64_t Seq = 0;
  session::SessionResult Aggregate;
};

enum class SubmitResult : uint8_t {
  Admitted,
  Rejected, ///< queue full under Backpressure::Reject
  Closed,   ///< admission closed by drain()/shutdown()
};

/// Per-tenant counters (see metrics/Counters.h for the field-table form).
#define SC_TENANT_COUNTERS(X)                                                  \
  X(Submitted, "submitted")     /* jobs admitted */                            \
  X(Rejected, "rejected")       /* submissions bounced by backpressure */      \
  X(Dispatches, "dispatches")   /* bounded dispatches executed */              \
  X(Slices, "slices")           /* engine entries across all dispatches */     \
  X(Steps, "steps")             /* guest steps across all dispatches */        \
  X(Preemptions, "preemptions") /* dispatches that hit their slice budget */   \
  X(Completed, "completed")     /* jobs finished (any stop kind) */            \
  X(Faults, "faults")           /* jobs finished with StopKind::Fault */       \
  X(DeadlineHits, "deadline_hits")     /* jobs stopped by their deadline */    \
  X(Cancellations, "cancellations")    /* jobs stopped by cancel() */          \
  X(Crashes, "crashes")          /* dispatches killed by fault injection */    \
  X(Recoveries, "recoveries")    /* jobs restarted from a checkpoint */        \
  X(TierPromotions, "tier_promotions") /* jobs migrated to a hotter engine */  \
  X(TierDemotions, "tier_demotions")   /* programs pinned cold after a */      \
                                       /* confirmed fault on a promoted tier */\
  X(QueueDepth, "queue_depth")   /* live gauge, filled in by snapshot() */

struct TenantCounters : metrics::CounterSet<TenantCounters> {
  std::string Name;
  SC_COUNTER_SET(TenantCounters, SC_TENANT_COUNTERS)
};

inline constexpr unsigned LatencyBuckets = 32;

struct SchedSnapshot {
  std::vector<TenantCounters> Tenants;
  unsigned Workers = 0;
  uint64_t BusyWorkers = 0; ///< live gauge at snapshot time
  /// Dispatch wall-clock latencies, bucket i counting latencies in
  /// [2^i, 2^(i+1)) nanoseconds (bucket 31 is open-ended).
  uint64_t Latency[LatencyBuckets] = {};

  uint64_t totalSteps() const;
  uint64_t totalDispatches() const;
  /// Percentile over the latency histogram, resolved to the upper bucket
  /// bound in nanoseconds (0 when the histogram is empty). \p P in [0,1].
  double latencyPercentileNs(double P) const;
};

/// Serializes a snapshot for the sc-bench-v1 metrics pipeline: flat
/// totals, p50/p99 dispatch latency, and one object per tenant.
metrics::Json snapshotToJson(const SchedSnapshot &S);

/// The scheduler. Construction spawns the worker pool; destruction
/// shuts it down (cancelling whatever still runs). Public methods are
/// thread-safe unless noted.
class SessionScheduler {
public:
  explicit SessionScheduler(SchedConfig Config = {});
  ~SessionScheduler();

  SessionScheduler(const SessionScheduler &) = delete;
  SessionScheduler &operator=(const SessionScheduler &) = delete;

  /// Registers a tenant and pre-reserves its queue (allocates; do it at
  /// setup, not in the dispatch steady state).
  TenantId addTenant(std::string Name, TenantConfig Config = {});

  /// Builds a job: copies \p ProtoMachine, prepares \p Prog for \p E
  /// through the shared cache, and wraps both in a supervised session.
  /// The allocating call — everything after it is reusable.
  Job *createJob(TenantId T, const vm::Code &Prog, engine::EngineId E,
                 const vm::Vm &ProtoMachine, JobSpec Spec);

  /// Admits an Idle job to its tenant's queue, arming its deadline.
  /// Zero-alloc. Blocks only under Backpressure::Wait on a full queue.
  SubmitResult submit(Job *J);

  /// Resets a Done job for resubmission: fresh stacks, cleared resume
  /// and cancel flags, aggregate result zeroed. Guest data space and
  /// session counters persist (fuel already burned stays burned).
  /// Zero-alloc. Caller must ensure no worker still touches the job.
  void rearm(Job *J);

  /// Recycles a Done (or Idle) job into a logically brand-new one over
  /// the *same program and engine*: machine state replaced by a copy of
  /// \p ProtoMachine, session progress/checkpoints cleared, fuel budget
  /// reset to Spec.FuelSteps, spec replaced. The execution service's job
  /// free list uses this to serve unbounded job streams from a bounded
  /// job pool (createJob allocates a 1 MiB-class machine per call and
  /// the scheduler never frees jobs). Not available under adaptive
  /// tiering. Caller must ensure no worker still touches the job.
  void recycle(Job *J, const vm::Vm &ProtoMachine, JobSpec Spec);

  /// Restores a serialized sc-snap checkpoint into an Idle job: session
  /// state, resume entry, and reported aggregate all roll to the
  /// snapshot, exactly as crash recovery does for the scheduler's own
  /// checkpoints. The service's shard-rebuild path pushes harvested
  /// checkpoints from a killed shard's jobs into fresh jobs with this.
  /// Returns the snapshot layer's verdict; on error the job is unchanged
  /// and still Idle.
  snapshot::SnapshotError adoptCheckpoint(Job *J, const uint8_t *Data,
                                          size_t N);

  /// Blocks until \p J reaches Done. The job must have been submitted.
  void wait(Job *J);

  /// Closes admission and blocks until every admitted job is Done.
  /// Workers stay alive; reopen() admits again.
  void drain();
  /// Reopens admission after a drain.
  void reopen();

  /// Drains, then stops and joins the workers. Idempotent; the
  /// destructor calls it. A job that can never stop (no fuel, no
  /// deadline, guest loops forever) must be cancelled first or
  /// shutdown waits forever — supervision is policy, not magic.
  void shutdown();

  /// Counter snapshot, copied under the scheduler lock (which every
  /// counter update already holds), so it is consistent across counters.
  SchedSnapshot snapshot() const;

  const SchedConfig &config() const { return Cfg; }
  prepare::PrepareCache &cache() { return *Cfg.Cache; }

private:
  /// Fixed-capacity ring; never reallocates after reserve().
  template <typename T> struct Ring {
    std::vector<T> Buf;
    size_t Head = 0, Count = 0;
    void reserve(size_t N) { Buf.assign(N, T{}); }
    bool empty() const { return Count == 0; }
    bool full() const { return Count == Buf.size(); }
    size_t size() const { return Count; }
    T &at(size_t I) { return Buf[(Head + I) % Buf.size()]; }
    void pushBack(T V) {
      SC_ASSERT(!full(), "ring overflow");
      Buf[(Head + Count) % Buf.size()] = V;
      ++Count;
    }
    void pushFront(T V) {
      SC_ASSERT(!full(), "ring overflow");
      Head = (Head + Buf.size() - 1) % Buf.size();
      Buf[Head] = V;
      ++Count;
    }
    T popFront() {
      SC_ASSERT(!empty(), "ring underflow");
      T V = Buf[Head];
      Head = (Head + 1) % Buf.size();
      --Count;
      return V;
    }
  };

  struct TenantState {
    /// Name and counters; QueueDepth is left zero and read off Queue by
    /// snapshot().
    TenantCounters Counts;
    TenantConfig Cfg;
    Ring<Job *> Queue;
    uint64_t Deficit = 0;
    bool InRunRing = false;
  };

  void workerLoop();
  /// Picks the next tenant index to serve; Mu held. Returns false when
  /// the run ring is empty.
  bool selectTenant(size_t &OutIdx);
  /// Executes one bounded dispatch of \p J; Mu NOT held.
  session::SessionResult dispatch(Job *J, uint64_t MaxSlices);
  /// Folds a dispatch result into the job and decides requeue vs
  /// completion; Mu held.
  void settle(Job *J, TenantState &TS, const session::SessionResult &R);
  void finish(Job *J, TenantState &TS, session::StopKind Stop);
  /// Crash recovery: discards the in-flight state of \p J (its doomed
  /// dispatch's result is never settled), rolls the session and the
  /// aggregate back to the last checkpoint, and requeues; Mu held.
  void recover(Job *J, TenantState &TS);
  /// Records one dispatch latency in the histogram; Mu held.
  void noteLatency(uint64_t Ns);

  SchedConfig Cfg;

  mutable std::mutex Mu;
  std::condition_variable WorkCv;  ///< workers: run ring non-empty / stop
  std::condition_variable DoneCv;  ///< waiters: job done / queues empty
  std::condition_variable AdmitCv; ///< submitters: queue space freed

  std::deque<TenantState> Tenants;   // Mu
  Ring<uint32_t> RunRing;            // Mu: tenants with queued jobs
  std::deque<std::unique_ptr<Job>> Jobs; // Mu (growth only in createJob)
  std::vector<std::thread> Pool;
  uint64_t NextSeq = 0;   // Mu
  uint64_t CrashClock = 0; // Mu: dispatches since start (fault injection)
  Rng CrashRng{1};         // Mu: hard-kill doom decisions
  uint64_t Pending = 0;   // Mu: admitted jobs not yet Done
  bool AdmissionOpen = true; // Mu
  bool Stopping = false;     // Mu
  bool Stopped = false;      // Mu (workers joined)

  uint64_t BusyWorkers = 0;               // Mu
  uint64_t Latency[LatencyBuckets] = {};  // Mu
  /// Serializes dispatches of non-reentrant engine flavors
  /// (EngineCaps::Reentrant == false, i.e. call-threaded code's static
  /// VM registers): at most one such dispatch runs at a time.
  std::mutex NonReentrantMu;
};

} // namespace sc::sched

#endif // SC_SCHED_SESSIONSCHEDULER_H
