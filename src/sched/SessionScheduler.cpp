//===-- sched/SessionScheduler.cpp - Multi-tenant session scheduler -------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "sched/SessionScheduler.h"

#include "dispatch/EngineRegistry.h"
#include "support/Assert.h"
#include "tier/TierController.h"
#include "vm/Code.h"

#include <algorithm>
#include <bit>
#include <cmath>

using namespace sc;
using namespace sc::sched;

const char *sc::sched::jobStateName(JobState S) {
  switch (S) {
  case JobState::Idle:
    return "idle";
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Done:
    return "done";
  }
  sc::unreachable("bad job state");
}

void Job::cancel() {
  // The session checks the flag before the first slice of every
  // dispatch, so a queued job stops before executing any guest step.
  Sess->cancel();
}

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

uint64_t SchedSnapshot::totalSteps() const {
  uint64_t N = 0;
  for (const TenantCounters &T : Tenants)
    N += T.Steps;
  return N;
}

uint64_t SchedSnapshot::totalDispatches() const {
  uint64_t N = 0;
  for (const TenantCounters &T : Tenants)
    N += T.Dispatches;
  return N;
}

double SchedSnapshot::latencyPercentileNs(double P) const {
  uint64_t Total = 0;
  for (uint64_t C : Latency)
    Total += C;
  if (Total == 0)
    return 0.0;
  // Rank of the sample holding the percentile, counted from 1. The
  // floating target `Acc >= P * Total` used here before had an edge at
  // the bottom: P == 0 (or small enough that the target rounded below
  // one sample) returned bucket 0's upper bound even when bucket 0 was
  // empty, because an accumulator of zero already satisfied `0 >= 0`.
  // Clamping the rank into [1, Total] lands every P on a bucket that
  // actually holds a sample, and keeps P == 1 from walking past the end.
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(P * static_cast<double>(Total)));
  Rank = std::clamp<uint64_t>(Rank, 1, Total);
  uint64_t Acc = 0;
  for (unsigned I = 0; I < LatencyBuckets; ++I) {
    Acc += Latency[I];
    if (Acc >= Rank)
      return std::ldexp(1.0, static_cast<int>(I) + 1);
  }
  // Unreachable (Rank <= Total and the buckets sum to Total), but keep
  // the top bucket's open-ended bound as a defensive answer.
  return std::ldexp(1.0, LatencyBuckets);
}

metrics::Json sc::sched::snapshotToJson(const SchedSnapshot &S) {
  metrics::Json O = metrics::Json::object();
  O.set("workers", metrics::Json::number(static_cast<uint64_t>(S.Workers)));
  O.set("busy_workers", metrics::Json::number(S.BusyWorkers));
  O.set("total_steps", metrics::Json::number(S.totalSteps()));
  O.set("total_dispatches", metrics::Json::number(S.totalDispatches()));
  O.set("p50_dispatch_ns", metrics::Json::number(S.latencyPercentileNs(0.5)));
  O.set("p99_dispatch_ns", metrics::Json::number(S.latencyPercentileNs(0.99)));
  metrics::Json Ts = metrics::Json::array();
  for (const TenantCounters &T : S.Tenants) {
    metrics::Json J = metrics::Json::object();
    J.set("name", metrics::Json::string(T.Name));
    Ts.push(metrics::toJson(T, std::move(J)));
  }
  O.set("tenants", std::move(Ts));
  return O;
}

//===----------------------------------------------------------------------===//
// Construction / teardown
//===----------------------------------------------------------------------===//

SessionScheduler::SessionScheduler(SchedConfig Config) : Cfg(Config) {
  SC_ASSERT(Cfg.Workers > 0, "a scheduler needs at least one worker");
  SC_ASSERT(Cfg.SliceSteps > 0, "slices must make progress");
  SC_ASSERT(Cfg.FifoDispatchSlices > 0, "a dispatch must run at least one slice");
  SC_ASSERT((!Cfg.CrashEveryDispatches && !Cfg.CrashOneIn) ||
                Cfg.CheckpointEverySlices > 0,
            "crash injection needs checkpoints to recover from");
  if (!Cfg.Cache)
    Cfg.Cache = &prepare::globalPrepareCache();
  SC_ASSERT(!Cfg.Tier || Cfg.Tier->policy().Background,
            "a scheduler's tier controller must re-prepare in the "
            "background, never on the dispatch path");
  CrashRng = Rng(Cfg.CrashSeed ? Cfg.CrashSeed : 1);
  Pool.reserve(Cfg.Workers);
  for (unsigned I = 0; I < Cfg.Workers; ++I)
    Pool.emplace_back([this] { workerLoop(); });
}

SessionScheduler::~SessionScheduler() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    AdmissionOpen = false;
    // Cancel whatever is still admitted so the shutdown drain terminates
    // even for guests that would never stop on their own.
    for (const std::unique_ptr<Job> &J : Jobs) {
      const JobState S = J->state();
      if (S == JobState::Queued || S == JobState::Running)
        J->cancel();
    }
  }
  shutdown();
}

TenantId SessionScheduler::addTenant(std::string Name, TenantConfig Config) {
  // QueueCapacity == 0 is a legal degenerate: an admit-nothing tenant
  // whose every submit is Rejected (see TenantConfig). The ring below
  // still reserves worker headroom so requeues of in-flight jobs —
  // impossible for such a tenant, but harmless — could never overflow.
  SC_ASSERT(Config.QuantumSteps > 0, "a DRR quantum must credit something");
  std::lock_guard<std::mutex> Lock(Mu);
  SC_ASSERT(!Stopping, "addTenant after shutdown");
  Tenants.emplace_back();
  TenantState &TS = Tenants.back();
  TS.Counts.Name = std::move(Name);
  TS.Cfg = Config;
  // QueueCapacity bounds *waiting* jobs at admission; each worker can
  // additionally hold one in-flight job it may requeue on preemption, so
  // the ring needs that much headroom to never overflow.
  TS.Queue.reserve(Config.QueueCapacity + Cfg.Workers);
  // Re-reserve the run ring for the new tenant count, preserving order.
  Ring<uint32_t> Grown;
  Grown.reserve(Tenants.size());
  while (!RunRing.empty())
    Grown.pushBack(RunRing.popFront());
  RunRing = std::move(Grown);
  return static_cast<TenantId>(Tenants.size() - 1);
}

Job *SessionScheduler::createJob(TenantId T, const vm::Code &Prog,
                                 engine::EngineId E, const vm::Vm &ProtoMachine,
                                 JobSpec Spec) {
  // Shared cache: the first job for (Prog, E) prepares, every later one
  // (any tenant, any thread) reuses the translation. Under adaptive
  // tiering the controller picks the engine instead — the tier the
  // program has earned so far, never fused (Spec.Entry and every resume
  // PC are unfused instruction indices).
  std::unique_ptr<Job> J(new Job());
  std::shared_ptr<const prepare::PreparedCode> PC;
  if (Cfg.Tier) {
    PC = Cfg.Tier->acquire(Prog, &J->TierIdx, /*AllowFused=*/false);
    J->Prog = &Prog;
  } else {
    PC = Cfg.Cache->getOrPrepare(Prog, E);
  }
  J->Tenant = T;
  J->Spec = Spec;
  J->Machine = std::make_unique<vm::Vm>(ProtoMachine);
  session::SessionPolicy Pol;
  Pol.SliceSteps = Cfg.SliceSteps;
  Pol.FuelSteps = Spec.FuelSteps;
  Pol.ConfirmFaults = Spec.ConfirmFaults;
  Pol.CheckpointEverySlices = Cfg.CheckpointEverySlices;
  // Pol.Deadline stays zero: the scheduler enforces deadlines between
  // bounded dispatches so the session never reads a wall clock.
  J->Sess = std::make_unique<session::VmSession>(std::move(PC), *J->Machine,
                                                 Pol);
  J->NextEntry = Spec.Entry;
  Job *Raw = J.get();
  std::lock_guard<std::mutex> Lock(Mu);
  SC_ASSERT(T < Tenants.size(), "createJob for an unknown tenant");
  Jobs.push_back(std::move(J));
  return Raw;
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

SubmitResult SessionScheduler::submit(Job *J) {
  SC_ASSERT(J->state() == JobState::Idle, "submit of a non-idle job");
  std::unique_lock<std::mutex> Lock(Mu);
  TenantState &TS = Tenants[J->Tenant];
  for (;;) {
    if (!AdmissionOpen || Stopping)
      return SubmitResult::Closed;
    if (TS.Queue.size() < TS.Cfg.QueueCapacity)
      break;
    // A zero-capacity tenant rejects under Backpressure::Wait too:
    // space can never free up, so waiting would deadlock the submitter.
    if (TS.Cfg.OnFull == Backpressure::Reject || TS.Cfg.QueueCapacity == 0) {
      ++TS.Counts.Rejected;
      return SubmitResult::Rejected;
    }
    AdmitCv.wait(Lock);
  }
  J->Seq = NextSeq++;
  J->DeadlineAt = J->Spec.Deadline.count() > 0
                      ? std::chrono::steady_clock::now() + J->Spec.Deadline
                      : std::chrono::steady_clock::time_point{};
  J->State.store(JobState::Queued, std::memory_order_release);
  TS.Queue.pushBack(J);
  ++TS.Counts.Submitted;
  ++Pending;
  if (!TS.InRunRing) {
    RunRing.pushBack(J->Tenant);
    TS.InRunRing = true;
  }
  WorkCv.notify_one();
  return SubmitResult::Admitted;
}

void SessionScheduler::rearm(Job *J) {
  SC_ASSERT(J->state() == JobState::Done, "rearm of a job that is not done");
  J->Sess->reset();
  J->Sess->resetCancel();
  J->Aggregate = session::SessionResult{};
  J->NextEntry = J->Spec.Entry;
  if (Cfg.Tier && J->Prog) {
    // Fresh-entry adoption: a rearmed job restarts at Spec.Entry, so any
    // tier its program earned while it was parked can be taken now.
    unsigned NewTier;
    if (auto Hot = Cfg.Tier->pollMigration(J->Sess->prepared().SourceIdentity,
                                           J->TierIdx, &NewTier)) {
      J->Sess->migrateTo(std::move(Hot));
      J->TierIdx = NewTier;
    }
  }
  J->State.store(JobState::Idle, std::memory_order_release);
}

void SessionScheduler::recycle(Job *J, const vm::Vm &ProtoMachine,
                               JobSpec Spec) {
  const JobState S = J->state();
  SC_ASSERT(S == JobState::Done || S == JobState::Idle,
            "recycle of a live job");
  SC_ASSERT(!Cfg.Tier, "recycle is not tier-aware; use rearm");
  // The session stays bound to its prepared program, so a recycled job
  // serves the same (program, engine) pair — the service's free lists
  // key on exactly that. Machine state is replaced wholesale: data
  // space, accessibility limit, and accumulated output all become the
  // proto's, and the fuel budget belongs to the new job alone.
  *J->Machine = ProtoMachine;
  J->Sess->reset();
  J->Sess->resetCancel();
  J->Sess->resetFuel(Spec.FuelSteps);
  J->Spec = Spec;
  J->Aggregate = session::SessionResult{};
  J->NextEntry = Spec.Entry;
  J->State.store(JobState::Idle, std::memory_order_release);
}

snapshot::SnapshotError SessionScheduler::adoptCheckpoint(Job *J,
                                                          const uint8_t *Data,
                                                          size_t N) {
  SC_ASSERT(J->state() == JobState::Idle,
            "adoptCheckpoint into a non-idle job");
  snapshot::MachineState MS;
  const snapshot::SnapshotError E = J->Sess->restoreFrom(Data, N, &MS);
  if (E != snapshot::SnapshotError::None)
    return E;
  // Same accounting as recover(): the job resumes at the snapshot's PC
  // and reports the snapshot's retired progress, so work re-executed
  // after a shard rebuild is reported exactly once.
  J->NextEntry = MS.Pc;
  J->Aggregate = session::SessionResult{};
  J->Aggregate.Outcome.Steps = MS.StepsRetired;
  J->Aggregate.Slices = MS.SlicesRetired;
  if (Cfg.Tier && MS.HeatSteps) {
    // The v2 sidecar carries the heat the program had earned wherever
    // the snapshot was taken. Credit only the shortfall: a re-adoption
    // on the same controller (or a controller that already knows this
    // identity) must not double-count.
    const uint64_t Identity = J->Sess->prepared().SourceIdentity;
    const uint64_t Known = Cfg.Tier->heatSteps(Identity);
    if (MS.HeatSteps > Known)
      Cfg.Tier->seedSteps(Identity, MS.HeatSteps - Known);
    // Take the earned tier right now if its translation is ready; the
    // job is idle, so any rung (up to the migratable cap) is enterable.
    unsigned NewTier;
    if (auto Hot = Cfg.Tier->pollMigration(Identity, J->TierIdx, &NewTier)) {
      J->Sess->migrateTo(std::move(Hot));
      J->TierIdx = NewTier;
    }
  }
  return snapshot::SnapshotError::None;
}

void SessionScheduler::wait(Job *J) {
  std::unique_lock<std::mutex> Lock(Mu);
  DoneCv.wait(Lock, [&] { return J->state() == JobState::Done; });
}

void SessionScheduler::drain() {
  std::unique_lock<std::mutex> Lock(Mu);
  AdmissionOpen = false;
  AdmitCv.notify_all();
  DoneCv.wait(Lock, [&] { return Pending == 0; });
}

void SessionScheduler::reopen() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Stopping)
    AdmissionOpen = true;
  AdmitCv.notify_all();
}

void SessionScheduler::shutdown() {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    AdmissionOpen = false;
    AdmitCv.notify_all();
    DoneCv.wait(Lock, [&] { return Pending == 0; });
    Stopping = true;
    WorkCv.notify_all();
  }
  for (std::thread &T : Pool)
    if (T.joinable())
      T.join();
  std::lock_guard<std::mutex> Lock(Mu);
  Stopped = true;
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

bool SessionScheduler::selectTenant(size_t &OutIdx) {
  if (RunRing.empty())
    return false;
  size_t Pos = 0;
  if (Cfg.Policy == SchedPolicy::Fifo) {
    // Global submission order: serve the tenant whose head job was
    // admitted first. Ring members always have a non-empty queue.
    uint64_t Best = UINT64_MAX;
    for (size_t I = 0; I < RunRing.size(); ++I) {
      TenantState &TS = Tenants[RunRing.at(I)];
      const uint64_t Seq = TS.Queue.at(0)->Seq;
      if (Seq < Best) {
        Best = Seq;
        Pos = I;
      }
    }
  }
  std::swap(RunRing.at(0), RunRing.at(Pos));
  OutIdx = RunRing.popFront();
  Tenants[OutIdx].InRunRing = false;
  return true;
}

session::SessionResult SessionScheduler::dispatch(Job *J, uint64_t MaxSlices) {
  const engine::EngineCaps Caps =
      engine::engineInfo(J->Sess->prepared().Engine).Caps;
  if (!Caps.Reentrant) {
    // Call-threaded code keeps its VM registers in static storage; the
    // resume contract makes them canonical again at every slice
    // boundary, so serializing whole dispatches is sufficient.
    std::lock_guard<std::mutex> Lock(NonReentrantMu);
    return J->Sess->run(J->NextEntry, MaxSlices);
  }
  return J->Sess->run(J->NextEntry, MaxSlices);
}

void SessionScheduler::settle(Job *J, TenantState &TS,
                              const session::SessionResult &R) {
  // Fold into the aggregate: steps and slices accumulate, the final
  // stop's fields win (so a Halted aggregate is field-for-field what one
  // unbounded VmSession::run would have returned).
  const uint64_t Steps = J->Aggregate.Outcome.Steps + R.Outcome.Steps;
  const uint64_t Slices = J->Aggregate.Slices + R.Slices;
  J->Aggregate = R;
  J->Aggregate.Outcome.Steps = Steps;
  J->Aggregate.Slices = Slices;

  if (R.Stop == session::StopKind::Preempted) {
    ++TS.Counts.Preemptions;
    J->NextEntry = R.ResumePc;
    if (Cfg.Tier) {
      // A preemption is a slice boundary with canonical resumable state:
      // the one place a live job may change engines. Poll-only — a null
      // result means the hotter translation is not ready yet, and the
      // job just keeps running its current tier.
      unsigned NewTier;
      if (auto Hot = Cfg.Tier->pollMigration(J->Sess->prepared().SourceIdentity,
                                             J->TierIdx, &NewTier)) {
        J->Sess->migrateTo(std::move(Hot));
        J->TierIdx = NewTier;
        ++TS.Counts.TierPromotions;
      }
    }
    J->State.store(JobState::Queued, std::memory_order_release);
    if (Cfg.Policy == SchedPolicy::Fifo)
      TS.Queue.pushFront(J); // resumes at the head: run to completion
    else
      TS.Queue.pushBack(J); // yields the tenant queue to its siblings
    return;
  }
  finish(J, TS, R.Stop);
}

void SessionScheduler::finish(Job *J, TenantState &TS,
                              session::StopKind Stop) {
  TenantCounters &St = TS.Counts;
  ++St.Completed;
  switch (Stop) {
  case session::StopKind::Fault:
    ++St.Faults;
    break;
  case session::StopKind::DeadlineExpired:
    ++St.DeadlineHits;
    break;
  case session::StopKind::Cancelled:
    ++St.Cancellations;
    break;
  default:
    break;
  }
  J->State.store(JobState::Done, std::memory_order_release);
  SC_ASSERT(Pending > 0, "finishing a job that was never pending");
  --Pending;
  DoneCv.notify_all();
}

void SessionScheduler::recover(Job *J, TenantState &TS) {
  ++TS.Counts.Recoveries;
  const std::vector<uint8_t> &Ckpt = J->Sess->lastCheckpoint();
  if (!Ckpt.empty()) {
    // Roll the session — stacks, data space, output, fuel — and the
    // job's reported aggregate back to the durable point. Re-executed
    // slices are thereby reported exactly once: a recovered job's final
    // result is field-for-field the uncrashed result.
    snapshot::MachineState MS;
    const snapshot::SnapshotError E = J->Sess->restoreFrom(Ckpt, &MS);
    SC_ASSERT(E == snapshot::SnapshotError::None,
              "a checkpoint this scheduler wrote failed to restore");
    J->NextEntry = MS.Pc;
    J->Aggregate.Outcome.Steps = MS.StepsRetired;
    J->Aggregate.Slices = MS.SlicesRetired;
  }
  // else: the doomed dispatch died before its session ever reached a
  // slice boundary (e.g. a quarantine rejection) — nothing executed,
  // nothing to roll back; the job just goes around again.
  J->State.store(JobState::Queued, std::memory_order_release);
  if (Cfg.Policy == SchedPolicy::Fifo)
    TS.Queue.pushFront(J);
  else
    TS.Queue.pushBack(J);
}

void SessionScheduler::noteLatency(uint64_t Ns) {
  unsigned B = Ns == 0 ? 0 : static_cast<unsigned>(std::bit_width(Ns)) - 1;
  if (B >= LatencyBuckets)
    B = LatencyBuckets - 1;
  ++Latency[B];
}

void SessionScheduler::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    WorkCv.wait(Lock, [&] { return Stopping || !RunRing.empty(); });
    if (Stopping)
      return; // shutdown drained first, so the ring is empty
    size_t TIdx;
    if (!selectTenant(TIdx))
      continue;
    TenantState &TS = Tenants[TIdx];
    Job *J = TS.Queue.popFront();
    AdmitCv.notify_all(); // a waiting-queue slot freed

    // Scheduler-level deadline, checked before any guest step of this
    // dispatch. The synthesized result mirrors the session's resumable
    // deadline stop (the aggregate keeps the steps already executed).
    if (J->DeadlineAt != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() >= J->DeadlineAt) {
      session::SessionResult R;
      R.Stop = session::StopKind::DeadlineExpired;
      R.Resumable = true;
      R.ResumePc = J->NextEntry;
      R.Outcome.Status = vm::RunStatus::StepLimit;
      R.Outcome.Fault.Pc = J->NextEntry;
      settle(J, TS, R);
      if (!TS.Queue.empty() && !TS.InRunRing) {
        RunRing.pushBack(static_cast<uint32_t>(TIdx));
        TS.InRunRing = true;
        WorkCv.notify_one();
      }
      continue;
    }

    uint64_t MaxSlices;
    if (Cfg.Policy == SchedPolicy::Drr) {
      // Deficit round-robin over guest steps: credit a quantum when the
      // deficit cannot cover one slice, spend it in whole slices.
      if (TS.Deficit < Cfg.SliceSteps)
        TS.Deficit += TS.Cfg.QuantumSteps;
      MaxSlices = std::max<uint64_t>(1, TS.Deficit / Cfg.SliceSteps);
    } else {
      MaxSlices = Cfg.FifoDispatchSlices;
    }

    // Fault injection decides the worker's fate before it runs, under
    // the lock, so the doomed-dispatch sequence is a deterministic
    // function of the dispatch order (and with Fifo + one worker, of
    // the submission order alone).
    bool Doomed = false;
    if (Cfg.CrashEveryDispatches)
      Doomed = ++CrashClock % Cfg.CrashEveryDispatches == 0;
    else if (Cfg.CrashOneIn)
      Doomed = CrashRng.below(Cfg.CrashOneIn) == 0;

    J->State.store(JobState::Running, std::memory_order_release);
    ++BusyWorkers;
    Lock.unlock();

    const auto T0 = std::chrono::steady_clock::now();
    const session::SessionResult R = dispatch(J, MaxSlices);
    const auto T1 = std::chrono::steady_clock::now();

    Lock.lock();
    noteLatency(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
            .count()));
    --BusyWorkers;
    // The dispatch physically happened even when the worker then "dies":
    // executed steps burned CPU, so traffic counters and the DRR debit
    // are charged either way. Only the *effect on the job* is lost.
    TenantCounters &St = TS.Counts;
    ++St.Dispatches;
    St.Slices += R.Slices;
    St.Steps += R.Outcome.Steps;
    if (Cfg.Policy == SchedPolicy::Drr)
      TS.Deficit -= std::min(TS.Deficit, R.Outcome.Steps);
    if (Cfg.Tier && J->Prog) {
      // Hotness reporting: cheap map update; any re-preparation it
      // triggers runs on the controller's background worker.
      Cfg.Tier->recordSteps(*J->Prog, J->TierIdx, R.Outcome.Steps);
      // Stamp the session's tier sidecar so the next checkpoint carries
      // the earned heat and rung — a migrating adopter seeds from them.
      J->Sess->noteTierState(
          Cfg.Tier->heatSteps(J->Sess->prepared().SourceIdentity), J->TierIdx);
      if (R.Stop == session::StopKind::Fault && R.Replayed &&
          R.Verdict == session::Confirmation::Confirmed && J->TierIdx > 0) {
        // A confirmed fault on a promoted tier: pin the program cold so
        // tiering stops churning it (quarantine handles repeat
        // offenders process-wide).
        Cfg.Tier->demote(J->Sess->prepared().SourceIdentity);
        ++St.TierDemotions;
      }
    }
    if (Doomed) {
      // The worker dies at the slice boundary that ended this dispatch:
      // R is never settled, as if the crash had taken it.
      ++St.Crashes;
      recover(J, TS);
    } else {
      settle(J, TS, R);
    }
    if (!TS.Queue.empty() && !TS.InRunRing) {
      RunRing.pushBack(static_cast<uint32_t>(TIdx));
      TS.InRunRing = true;
      WorkCv.notify_one();
    }
  }
}

SchedSnapshot SessionScheduler::snapshot() const {
  SchedSnapshot S;
  S.Workers = Cfg.Workers;
  std::lock_guard<std::mutex> Lock(Mu);
  S.BusyWorkers = BusyWorkers;
  std::copy(std::begin(Latency), std::end(Latency), S.Latency);
  S.Tenants.reserve(Tenants.size());
  for (const TenantState &TS : Tenants) {
    S.Tenants.push_back(TS.Counts);
    S.Tenants.back().QueueDepth = TS.Queue.size();
  }
  return S;
}
