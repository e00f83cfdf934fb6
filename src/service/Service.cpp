//===-- service/Service.cpp - Sharded execution front end -----------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "dispatch/EngineRegistry.h"
#include "forth/Forth.h"
#include "service/Channel.h"
#include "snapshot/Snapshot.h"
#include "support/Assert.h"
#include "vm/Code.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace sc;
using namespace sc::service;

//===----------------------------------------------------------------------===//
// Internal structures
//===----------------------------------------------------------------------===//

/// One compiled program, shared by every job submitted with the same
/// source text. The System owns the Code and the proto machine (data
/// space as the compiler left it) that every job copies.
struct ServiceFrontEnd::Program {
  std::unique_ptr<forth::System> Sys;
  uint64_t Identity = 0;   ///< Code content hash (free-list/rebuild key)
  std::string Source;      ///< the text it compiled from (MigrateOffer
                           ///< ships it so a peer can recompile)
};

namespace {

/// Where a JobRecord is in its life; DESIGN.md §14 tabulates the
/// transitions.
enum class Phase : uint8_t {
  Live,       ///< J runs (or waits) on Shard
  Moving,     ///< live, but the rebalancer's cancel is draining it;
              ///< sweepShard re-places it on MoveTarget once it settles
  Extracting, ///< extractForMigration owns the settling job; sweep keeps
              ///< its hands off
  Escrowed,   ///< migrated out to a peer: no job here, EscrowCkpt kept
              ///< until completeMigration / abandonMigration
  Done,       ///< Result is final
};

} // namespace

/// The service-side life of one JobTicket: where the job lives, what it
/// would take to rebuild it, and — once finished — its final Result
/// frame. Records are never deleted (they ARE the idempotency memory);
/// the sched::Job underneath is recycled the moment the result is
/// harvested.
struct ServiceFrontEnd::JobRecord {
  JobTicket Ticket;
  unsigned Shard = 0;
  sched::Job *J = nullptr; ///< set exactly while Live, Moving or Extracting
  size_t LiveSlot = 0;     ///< index in LiveRecs[Shard] while J is set
  Program *Prog = nullptr;
  uint8_t Engine = 0;
  sched::JobSpec Spec; ///< for re-creation after a shard kill
  std::string Word;    ///< entry word name (travels with an offer)
  /// The client's cancel; independent of the phase, re-applied to every
  /// job the record is given.
  bool CancelRequested = false;
  Phase Ph = Phase::Live;
  unsigned MoveTarget = 0;          ///< Moving: the shard it drains to
  std::vector<uint8_t> EscrowCkpt;  ///< Escrowed: extract's checkpoint,
                                    ///< kept so a torn migration can be
                                    ///< abandoned
  Frame Result;                     ///< Done: the final Result frame

  /// True when J settled because the service's own cancel (rebalance,
  /// extraction or shard kill) drained it — not a real completion.
  bool drainedByService() const {
    return J->result().Stop == session::StopKind::Cancelled &&
           !CancelRequested;
  }
};

/// One job a peer offered us: everything needed to admit it, parked
/// inert until MigrateCommit activates it. The offer/commit split is
/// what makes a torn migration safe — before the commit lands, nothing
/// has executed here and the source may abandon freely.
struct ServiceFrontEnd::Adoption {
  Frame Offer;           ///< full MigrateOffer payload
  bool Activated = false; ///< commit landed; the job lives in Records
};

//===----------------------------------------------------------------------===//
// Construction / teardown
//===----------------------------------------------------------------------===//

const char *sc::service::serviceConfigErrorName(ServiceConfigError E) {
  switch (E) {
  case ServiceConfigError::None:
    return "None";
  case ServiceConfigError::NoShards:
    return "NoShards";
  case ServiceConfigError::NoCheckpointCadence:
    return "NoCheckpointCadence";
  case ServiceConfigError::QueueBelowInFlightCap:
    return "QueueBelowInFlightCap";
  }
  return "?";
}

ServiceConfigError
sc::service::validateServiceConfig(const ServiceConfig &Cfg) {
  if (Cfg.Shards == 0)
    return ServiceConfigError::NoShards;
  if (Cfg.CheckpointEverySlices == 0)
    return ServiceConfigError::NoCheckpointCadence;
  if (Cfg.TenantQueueCapacity < Cfg.MaxInFlightPerTenant)
    return ServiceConfigError::QueueBelowInFlightCap;
  return ServiceConfigError::None;
}

ServiceFrontEnd::ServiceFrontEnd(ServiceConfig Config) : Cfg(Config) {
  // A hostile config must not abort the process: build no shards and
  // answer every request with Error{BadConfig} instead.
  ConfigErr = validateServiceConfig(Cfg);
  if (ConfigErr != ServiceConfigError::None)
    return;
  if (!Cfg.Cache)
    Cfg.Cache = &prepare::globalPrepareCache();
  Shards.resize(Cfg.Shards);
  ShardDown.assign(Cfg.Shards, 0);
  ShardMigrationsIn.assign(Cfg.Shards, 0);
  ShardMigrationsOut.assign(Cfg.Shards, 0);
  ShardTenants.resize(Cfg.Shards);
  FreeJobs.resize(Cfg.Shards);
  LiveRecs.resize(Cfg.Shards);
  for (unsigned S = 0; S < Cfg.Shards; ++S)
    buildShard(S);
}

ServiceFrontEnd::~ServiceFrontEnd() { shutdown(); }

void ServiceFrontEnd::buildShard(unsigned S) {
  sched::SchedConfig SC;
  SC.Workers = Cfg.WorkersPerShard;
  SC.SliceSteps = Cfg.SliceSteps;
  SC.Policy = Cfg.Policy;
  SC.Cache = Cfg.Cache;
  SC.CheckpointEverySlices = Cfg.CheckpointEverySlices;
  SC.CrashEveryDispatches = Cfg.CrashEveryDispatches;
  SC.CrashOneIn = Cfg.CrashOneIn;
  // Decorrelate the shards' doom draws so one seed does not crash every
  // shard in lockstep.
  SC.CrashSeed = Cfg.CrashSeed + 0x9e3779b97f4a7c15ULL * S;
  Shards[S] = std::make_unique<sched::SessionScheduler>(SC);
  ShardTenants[S].clear();
  FreeJobs[S].clear();
}

unsigned ServiceFrontEnd::shardOf(const std::string &Tenant) const {
  if (Cfg.Shards == 0)
    return 0; // invalid config: no shards exist anyway
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const char C : Tenant) {
    H ^= static_cast<uint8_t>(C);
    H *= 0x100000001b3ULL;
  }
  return static_cast<unsigned>(H % Cfg.Shards);
}

sched::TenantId ServiceFrontEnd::shardTenant(unsigned S,
                                             const std::string &Tenant) {
  auto It = ShardTenants[S].find(Tenant);
  if (It != ShardTenants[S].end())
    return It->second;
  sched::TenantConfig TC;
  TC.QueueCapacity = Cfg.TenantQueueCapacity;
  TC.OnFull = sched::Backpressure::Reject;
  const sched::TenantId T = Shards[S]->addTenant(Tenant, TC);
  ShardTenants[S].emplace(Tenant, T);
  return T;
}

//===----------------------------------------------------------------------===//
// Frame builders
//===----------------------------------------------------------------------===//

Frame ServiceFrontEnd::errorFrame(const Frame &Req, ServiceError E,
                                  std::string Detail) {
  ++Stats.Errors;
  Frame F;
  F.Type = FrameType::Error;
  F.RequestId = Req.RequestId;
  F.Err = E;
  F.Detail = std::move(Detail);
  return F;
}

Frame ServiceFrontEnd::rejectFrame(const Frame &Req, RejectCode Code) {
  switch (Code) {
  case RejectCode::TenantBusy:
    ++Stats.RejectedBusy;
    break;
  case RejectCode::ShardSaturated:
    ++Stats.RejectedSaturated;
    break;
  case RejectCode::ShardDegraded:
    ++Stats.RejectedDegraded;
    break;
  case RejectCode::AdmissionClosed:
    ++Stats.RejectedClosed;
    break;
  }
  Frame F;
  F.Type = FrameType::Reject;
  F.RequestId = Req.RequestId;
  F.Code = Code;
  F.RetryAfterNs = Cfg.RetryAfterNs;
  return F;
}

Frame ServiceFrontEnd::resultFrame(const Frame &Req,
                                   const JobRecord &R) const {
  Frame F = R.Result;
  F.RequestId = Req.RequestId;
  return F;
}

Frame ServiceFrontEnd::pendingFrame(const Frame &Req,
                                    const JobRecord &R) const {
  Frame F;
  F.Type = FrameType::Pending;
  F.RequestId = Req.RequestId;
  F.Token = Req.Token;
  F.JobStateVal = R.J && !ShardDown[R.Shard]
                      ? static_cast<uint8_t>(R.J->state())
                      : static_cast<uint8_t>(sched::JobState::Queued);
  return F;
}

//===----------------------------------------------------------------------===//
// Record lifecycle: admit, release, settle
//===----------------------------------------------------------------------===//

namespace {

/// The Result frame of a job that settled (Token and RequestId are
/// stamped by settle).
Frame harvest(const sched::Job &J) {
  const session::SessionResult &A = J.result();
  Frame F;
  F.Type = FrameType::Result;
  F.Stop = static_cast<uint8_t>(A.Stop);
  F.Status = static_cast<uint8_t>(A.Outcome.Status);
  F.Steps = A.Outcome.Steps;
  F.Slices = A.Slices;
  F.Output = J.machine().Out;
  return F;
}

} // namespace

sched::SubmitResult ServiceFrontEnd::admit(JobRecord &R, unsigned S,
                                           const std::vector<uint8_t> &Ckpt) {
  SC_ASSERT(!ShardDown[S] && !ShuttingDown, "admitting onto a dead shard");
  SC_ASSERT(!R.J, "record still owns a job");
  const sched::TenantId T = shardTenant(S, R.Ticket.Tenant);
  sched::Job *J = obtainJob(S, *R.Prog,
                            static_cast<engine::EngineId>(R.Engine), T,
                            R.Spec);
  if (!Ckpt.empty()) {
    // Offers are validated against the program before they are accepted
    // and every other checkpoint was harvested here, so this cannot fail.
    const snapshot::SnapshotError E =
        Shards[S]->adoptCheckpoint(J, Ckpt.data(), Ckpt.size());
    SC_ASSERT(E == snapshot::SnapshotError::None,
              "a validated checkpoint failed to restore");
  }
  const sched::SubmitResult SR = Shards[S]->submit(J);
  if (SR != sched::SubmitResult::Admitted) {
    // The job never ran: park it for the next submission of this
    // (program, engine, tenant) instead of leaking it.
    FreeJobs[S][FreeKey{R.Prog->Identity, R.Engine, T}].push_back(J);
    return SR;
  }
  if (R.CancelRequested)
    J->cancel();
  R.J = J;
  R.Shard = S;
  R.LiveSlot = LiveRecs[S].size();
  LiveRecs[S].push_back(&R);
  if (R.Ph != Phase::Extracting)
    R.Ph = Phase::Live;
  return SR;
}

void ServiceFrontEnd::placeRecord(JobRecord &R, unsigned To,
                                  const std::vector<uint8_t> &Ckpt) {
  const sched::SubmitResult SR = admit(R, To, Ckpt);
  SC_ASSERT(SR == sched::SubmitResult::Admitted,
            "re-admission cannot bounce: queue capacity covers the "
            "in-flight cap");
}

ServiceFrontEnd::JobRecord *
ServiceFrontEnd::admitNew(const Frame &Job, Program &P, unsigned S,
                          const std::vector<uint8_t> &Ckpt,
                          RejectCode &Bounce) {
  const vm::Word *W = P.Sys->Prog.findWord(Job.Word);
  SC_ASSERT(W, "admitting an unvalidated entry word");
  auto Rec = std::make_unique<JobRecord>();
  Rec->Ticket = Job.ticket();
  Rec->Prog = &P;
  Rec->Engine = Job.Engine;
  Rec->Spec.Entry = W->Entry;
  Rec->Spec.FuelSteps = Job.FuelSteps;
  Rec->Spec.Deadline = std::chrono::nanoseconds(Job.DeadlineNs);
  Rec->Word = Job.Word;
  const sched::SubmitResult SR = admit(*Rec, S, Ckpt);
  if (SR != sched::SubmitResult::Admitted) {
    Bounce = SR == sched::SubmitResult::Rejected ? RejectCode::ShardSaturated
                                                 : RejectCode::AdmissionClosed;
    return nullptr;
  }
  ++InFlight[Job.Tenant];
  JobRecord *Raw = Rec.get();
  Records.emplace(Raw->Ticket, std::move(Rec));
  return Raw;
}

void ServiceFrontEnd::release(JobRecord &R) {
  const unsigned S = R.Shard;
  FreeJobs[S][FreeKey{R.Prog->Identity, R.Engine,
                      ShardTenants[S].at(R.Ticket.Tenant)}]
      .push_back(R.J);
  R.J = nullptr;
  std::vector<JobRecord *> &Recs = LiveRecs[S];
  Recs[R.LiveSlot] = Recs.back();
  Recs[R.LiveSlot]->LiveSlot = R.LiveSlot;
  Recs.pop_back();
}

void ServiceFrontEnd::settle(JobRecord &R, Frame Result) {
  Result.Type = FrameType::Result;
  Result.RequestId = 0;
  Result.Token = R.Ticket.Token;
  R.Result = std::move(Result);
  R.Ph = Phase::Done;
  R.EscrowCkpt = {};
  SC_ASSERT(InFlight[R.Ticket.Tenant] > 0, "in-flight underflow");
  --InFlight[R.Ticket.Tenant];
  ++Stats.Completed;
}

//===----------------------------------------------------------------------===//
// Harvest / job pool
//===----------------------------------------------------------------------===//

void ServiceFrontEnd::sweepShard(unsigned S) {
  SC_ASSERT(!ShardDown[S], "sweep of a dying shard");
  std::vector<JobRecord *> &Recs = LiveRecs[S];
  for (size_t I = 0; I < Recs.size();) {
    JobRecord &R = *Recs[I];
    // An extracting record's settling belongs to the extract loop;
    // harvesting it here would race its checkpoint grab.
    if (R.Ph == Phase::Extracting ||
        R.J->state() != sched::JobState::Done) {
      ++I;
      continue;
    }
    if (R.Ph == Phase::Moving && R.drainedByService() && !ShuttingDown) {
      // Not a real completion: the rebalancer's cancel drained this job
      // at its slice boundary. Re-admit it from its checkpoint on the
      // chosen target (or back here if that shard died meanwhile) —
      // adoptCheckpoint restores retired-step accounting, so the final
      // result is field-for-field the unmigrated run's.
      const unsigned To = ShardDown[R.MoveTarget] ? S : R.MoveTarget;
      const std::vector<uint8_t> Ckpt = R.J->session().lastCheckpoint();
      release(R);
      placeRecord(R, To, Ckpt);
      if (To != S) {
        ++Stats.Rebalanced;
        ++ShardMigrationsOut[S];
        ++ShardMigrationsIn[To];
      }
      continue; // release moved another record into slot I
    }
    settle(R, harvest(*R.J));
    release(R);
  }
}

void ServiceFrontEnd::maybeRebalance() {
  if (!Cfg.Rebalance || ShuttingDown || Cfg.Shards < 2)
    return;
  // Effective live count: jobs already marked to move count against
  // their TARGET, not their current home. The raw count would keep the
  // gap wide for the whole drain window (a mark only clears at the
  // victim's next slice boundary), and this runs on every submit and
  // poll — without the correction each call marks another batch and the
  // entire queue ping-pongs between shards.
  std::vector<uint64_t> Eff(Cfg.Shards);
  for (unsigned S = 0; S < Cfg.Shards; ++S)
    Eff[S] = LiveRecs[S].size();
  for (unsigned S = 0; S < Cfg.Shards; ++S)
    for (const JobRecord *R : LiveRecs[S])
      if (R->Ph == Phase::Moving && R->MoveTarget != S && Eff[S] > 0) {
        --Eff[S];
        ++Eff[R->MoveTarget];
      }
  // Hottest and coldest live shard by effective live-job count.
  unsigned Hot = Cfg.Shards, Cold = Cfg.Shards;
  for (unsigned S = 0; S < Cfg.Shards; ++S) {
    if (ShardDown[S])
      continue;
    if (Hot == Cfg.Shards || Eff[S] > Eff[Hot])
      Hot = S;
    if (Cold == Cfg.Shards || Eff[S] < Eff[Cold])
      Cold = S;
  }
  if (Hot == Cfg.Shards || Hot == Cold)
    return;
  const uint64_t HighWater =
      Cfg.RebalanceHighWater
          ? Cfg.RebalanceHighWater
          : std::max<uint64_t>(4, Cfg.ShardHighWater / 4);
  if (Eff[Hot] < HighWater)
    return;
  if (Eff[Hot] < Eff[Cold] + Cfg.RebalanceMinGap)
    return;
  // Mark victims: cancel drains each at its next slice boundary, and
  // sweepShard moves it when it settles. Only plain live jobs qualify —
  // never one a client cancelled, one already moving, or one
  // mid-extraction. Cap the batch at half the gap — each move swings the
  // gap by two, so more would overshoot the balance point and invite a
  // reverse move.
  const uint64_t Batch =
      std::min<uint64_t>(Cfg.RebalanceBatch, (Eff[Hot] - Eff[Cold]) / 2);
  uint64_t Marked = 0;
  for (JobRecord *R : LiveRecs[Hot]) {
    if (Marked >= Batch)
      break;
    if (R->Ph != Phase::Live || R->CancelRequested)
      continue;
    R->Ph = Phase::Moving;
    R->MoveTarget = Cold;
    R->J->cancel();
    ++Marked;
  }
}

ServiceFrontEnd::Program *
ServiceFrontEnd::getProgram(const std::string &Source, std::string &Err) {
  auto It = Programs.find(Source);
  if (It != Programs.end())
    return It->second.get();
  auto Sys = std::make_unique<forth::System>();
  if (!Sys->load(Source)) {
    Err = Sys->error();
    return nullptr;
  }
  auto P = std::make_unique<Program>();
  P->Identity = Sys->Prog.identity();
  P->Sys = std::move(Sys);
  P->Source = Source;
  Program *Raw = P.get();
  Programs.emplace(Source, std::move(P));
  return Raw;
}

ServiceFrontEnd::Program *ServiceFrontEnd::validateJob(const Frame &Req,
                                                       Frame &Err) {
  if (Req.Engine >= engine::NumEngineIds) {
    Err = errorFrame(Req, ServiceError::BadEngine, "engine id out of range");
    return nullptr;
  }
  const auto E = static_cast<engine::EngineId>(Req.Engine);
  if (!engine::engineInfo(E).Caps.Reentrant) {
    Err = errorFrame(Req, ServiceError::BadEngine,
                     std::string(engine::engineName(E)) +
                         " is not reentrant; a sharded service cannot "
                         "serialize it process-wide");
    return nullptr;
  }
  std::string CompileErr;
  Program *P = getProgram(Req.Source, CompileErr);
  if (!P) {
    Err = errorFrame(Req, ServiceError::CompileFailed, CompileErr);
    return nullptr;
  }
  if (!P->Sys->Prog.findWord(Req.Word)) {
    Err = errorFrame(Req, ServiceError::BadWord, "no such word: " + Req.Word);
    return nullptr;
  }
  return P;
}

sched::Job *ServiceFrontEnd::obtainJob(unsigned S, Program &P,
                                       engine::EngineId E, sched::TenantId T,
                                       sched::JobSpec Spec) {
  auto It = FreeJobs[S].find(
      FreeKey{P.Identity, static_cast<uint8_t>(E), T});
  if (It != FreeJobs[S].end() && !It->second.empty()) {
    sched::Job *J = It->second.back();
    It->second.pop_back();
    Shards[S]->recycle(J, P.Sys->Machine, Spec);
    ++Stats.JobsRecycled;
    return J;
  }
  return Shards[S]->createJob(T, P.Sys->Prog, E, P.Sys->Machine, Spec);
}

//===----------------------------------------------------------------------===//
// Request handlers
//===----------------------------------------------------------------------===//

Frame ServiceFrontEnd::handle(const Frame &Req) {
  std::unique_lock<std::mutex> Lock(Mu);
  if (ConfigErr != ServiceConfigError::None)
    return errorFrame(Req, ServiceError::BadConfig,
                      std::string("invalid service config: ") +
                          serviceConfigErrorName(ConfigErr));
  switch (Req.Type) {
  case FrameType::SubmitReq:
    return submitReq(Req);
  case FrameType::PollReq:
    return pollReq(Req);
  case FrameType::CancelReq:
    return cancelReq(Req);
  case FrameType::StatsReq: {
    Frame F;
    F.Type = FrameType::StatsReply;
    F.RequestId = Req.RequestId;
    F.StatsJson = statsDocument().dump();
    return F;
  }
  case FrameType::MigrateOffer:
    return migrateOfferReq(Req);
  case FrameType::MigrateCommit:
    return migrateCommitReq(Req);
  default:
    // A well-formed frame of a response type is not a request; answer
    // with a typed refusal instead of dropping the connection.
    return errorFrame(Req, ServiceError::BadFrameType,
                      std::string("not a request: ") +
                          frameTypeName(Req.Type));
  }
}

Frame ServiceFrontEnd::submitReq(const Frame &Req) {
  const JobTicket Key = Req.ticket();
  const unsigned S = shardOf(Req.Tenant);

  // Idempotency first: a duplicate attaches to the existing job no
  // matter what state admission is in — a retry of an already-admitted
  // job must never bounce off a cap its first copy already holds.
  if (!ShardDown[S] && !ShuttingDown) {
    sweepShard(S);
    maybeRebalance();
  }
  auto RecIt = Records.find(Key);
  if (RecIt != Records.end()) {
    JobRecord &R = *RecIt->second;
    ++Stats.Duplicates;
    if (R.Ph == Phase::Done)
      return resultFrame(Req, R);
    Frame F;
    F.Type = FrameType::SubmitAck;
    F.RequestId = Req.RequestId;
    F.Token = Req.Token;
    F.Duplicate = 1;
    F.Shard = R.Shard;
    return F;
  }

  if (ShuttingDown)
    return rejectFrame(Req, RejectCode::AdmissionClosed);
  if (ShardDown[S])
    return rejectFrame(Req, RejectCode::ShardDegraded);
  if (InFlight[Req.Tenant] >= Cfg.MaxInFlightPerTenant)
    return rejectFrame(Req, RejectCode::TenantBusy);
  if (LiveRecs[S].size() >= Cfg.ShardHighWater)
    return rejectFrame(Req, RejectCode::ShardDegraded);

  Frame Err;
  Program *P = validateJob(Req, Err);
  if (!P)
    return Err;
  RejectCode Bounce;
  if (!admitNew(Req, *P, S, {}, Bounce))
    return rejectFrame(Req, Bounce);
  ++Stats.Submitted;

  Frame F;
  F.Type = FrameType::SubmitAck;
  F.RequestId = Req.RequestId;
  F.Token = Req.Token;
  F.Duplicate = 0;
  F.Shard = S;
  return F;
}

Frame ServiceFrontEnd::pollRecord(const Frame &Req, JobRecord &R) {
  if (R.Ph != Phase::Done && !ShardDown[R.Shard]) {
    sweepShard(R.Shard);
    maybeRebalance();
  }
  if (R.Ph == Phase::Done)
    return resultFrame(Req, R);
  return pendingFrame(Req, R);
}

Frame ServiceFrontEnd::pollReq(const Frame &Req) {
  ++Stats.Polls;
  auto It = Records.find(Req.ticket());
  if (It == Records.end())
    return errorFrame(Req, ServiceError::UnknownJob,
                      "no job for this ticket");
  return pollRecord(Req, *It->second);
}

Frame ServiceFrontEnd::cancelReq(const Frame &Req) {
  ++Stats.Cancels;
  auto It = Records.find(Req.ticket());
  if (It == Records.end())
    return errorFrame(Req, ServiceError::UnknownJob,
                      "no job for this ticket");
  JobRecord &R = *It->second;
  if (R.Ph == Phase::Done)
    return resultFrame(Req, R); // finished first; cancellation lost the race
  R.CancelRequested = true;
  if (R.J && !ShardDown[R.Shard])
    R.J->cancel();
  // else: the shard is mid-rebuild (killShard re-applies the flag to the
  // revived job) or the job is escrowed (admit re-applies it if the
  // migration is abandoned).
  return pendingFrame(Req, R);
}

//===----------------------------------------------------------------------===//
// Cross-process migration, adopter side
//===----------------------------------------------------------------------===//

Frame ServiceFrontEnd::migrateOfferReq(const Frame &Req) {
  if (ShuttingDown)
    return errorFrame(Req, ServiceError::Shutdown,
                      "service is shutting down");
  const JobTicket Key = Req.ticket();

  // A duplicate offer for an adoption the commit already activated (the
  // first accept was lost in transit): the job runs — or already ran —
  // here, so just re-accept. This must precede the ownership check
  // below, because activation moved the ticket into Records.
  auto ActIt = Adoptions.find(Key);
  if (ActIt != Adoptions.end() && ActIt->second->Activated) {
    Frame F;
    F.Type = FrameType::MigrateAccept;
    F.RequestId = Req.RequestId;
    F.Token = Req.Token;
    F.Accepted = 1;
    return F;
  }

  // A ticket we already own — a local job, a finished result, or a job
  // we ourselves migrated out — can never be adopted: two owners of one
  // ticket is exactly the double-execution migration must exclude.
  if (Records.count(Key))
    return errorFrame(Req, ServiceError::MigrateRefused,
                      "ticket already owned here: " + Key.str());

  Frame Err;
  Program *P = validateJob(Req, Err);
  if (!P)
    return Err;

  // Validate the snapshot NOW, against the program we just compiled: a
  // commit must never discover the offer was garbage after the source
  // already stopped running the job.
  if (!Req.Snapshot.empty()) {
    snapshot::SnapshotHeader H;
    const snapshot::SnapshotError SE =
        snapshot::readHeader(Req.Snapshot.data(), Req.Snapshot.size(), H);
    if (SE != snapshot::SnapshotError::None)
      return errorFrame(Req, ServiceError::BadSnapshot,
                        std::string("snapshot rejected: ") +
                            snapshot::snapshotErrorName(SE));
    if (H.CodeIdentity != P->Identity)
      return errorFrame(Req, ServiceError::BadSnapshot,
                        "snapshot is for a different program");
  }

  // Capacity check with the same valves as Submit, but answered softly:
  // an offer refused for capacity is retryable on another peer, so it is
  // a MigrateAccept{Accepted=0} with a backoff hint, not an error.
  const unsigned S = shardOf(Req.Tenant);
  if (ShardDown[S] || LiveRecs[S].size() >= Cfg.ShardHighWater ||
      InFlight[Req.Tenant] >= Cfg.MaxInFlightPerTenant) {
    Frame F;
    F.Type = FrameType::MigrateAccept;
    F.RequestId = Req.RequestId;
    F.Token = Req.Token;
    F.Accepted = 0;
    F.RetryAfterNs = Cfg.RetryAfterNs;
    return F;
  }

  // Park the offer inert; nothing executes until the commit.
  auto A = std::make_unique<Adoption>();
  A->Offer = Req;
  if (ActIt != Adoptions.end())
    ActIt->second = std::move(A); // re-offer refreshes the parked state
  else
    Adoptions.emplace(Key, std::move(A));

  Frame F;
  F.Type = FrameType::MigrateAccept;
  F.RequestId = Req.RequestId;
  F.Token = Req.Token;
  F.Accepted = 1;
  return F;
}

Frame ServiceFrontEnd::activateAdoption(const Frame &Req, Adoption &A) {
  const Frame &O = A.Offer;
  const unsigned S = shardOf(O.Tenant);
  if (ShardDown[S] || LiveRecs[S].size() >= Cfg.ShardHighWater)
    return rejectFrame(Req, RejectCode::ShardDegraded);
  if (InFlight[O.Tenant] >= Cfg.MaxInFlightPerTenant)
    return rejectFrame(Req, RejectCode::TenantBusy);

  // Everything was validated at offer time; the program cache makes
  // getProgram a lookup.
  std::string CompileErr;
  Program *P = getProgram(O.Source, CompileErr);
  SC_ASSERT(P, "offer-validated program failed to compile at commit");
  RejectCode Bounce;
  JobRecord *R = admitNew(O, *P, S, O.Snapshot, Bounce);
  if (!R)
    return rejectFrame(Req, Bounce);
  ++Stats.MigratedIn;
  ++ShardMigrationsIn[S];
  A.Activated = true;
  return pendingFrame(Req, *R);
}

Frame ServiceFrontEnd::migrateCommitReq(const Frame &Req) {
  auto AIt = Adoptions.find(Req.ticket());
  if (AIt == Adoptions.end())
    return errorFrame(Req, ServiceError::UnknownMigration,
                      "no adoption for ticket " + Req.ticket().str() +
                          "; the offer was lost — abandon and run locally");
  Adoption &A = *AIt->second;
  if (!A.Activated) {
    if (ShuttingDown) {
      Adoptions.erase(AIt);
      return errorFrame(Req, ServiceError::Shutdown,
                        "service is shutting down");
    }
    Frame F = activateAdoption(Req, A);
    if (!A.Activated) {
      // Definitive refusal (admission bounced it). Erase the parked
      // adoption so a delayed duplicate of this commit finds nothing to
      // activate: the source will read our refusal, abandon, and resume
      // the job locally — a late activation here would run it twice.
      Adoptions.erase(AIt);
    }
    return F;
  }
  // Commit retry after activation: idempotent — a poll of the adopted
  // job, Pending until done, then the cached Result forever.
  auto RIt = Records.find(Req.ticket());
  SC_ASSERT(RIt != Records.end(), "activated adoption lost its record");
  return pollRecord(Req, *RIt->second);
}

metrics::Json ServiceFrontEnd::statsDocument() const {
  metrics::Json O = metrics::Json::object();
  O.set("service", metrics::toJson(Stats));
  metrics::Json Sh = metrics::Json::array();
  for (unsigned S = 0; S < Cfg.Shards; ++S) {
    metrics::Json J = sched::snapshotToJson(Shards[S]->snapshot());
    J.set("down", metrics::Json::number(static_cast<uint64_t>(ShardDown[S])));
    J.set("live_jobs",
          metrics::Json::number(static_cast<uint64_t>(LiveRecs[S].size())));
    J.set("migrations_in", metrics::Json::number(ShardMigrationsIn[S]));
    J.set("migrations_out", metrics::Json::number(ShardMigrationsOut[S]));
    Sh.push(std::move(J));
  }
  O.set("shards", std::move(Sh));
  return O;
}

ServiceStats ServiceFrontEnd::statsSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

metrics::Json ServiceFrontEnd::statsJson() const {
  if (ConfigErr != ServiceConfigError::None) {
    metrics::Json O = metrics::Json::object();
    O.set("config_error",
          metrics::Json::string(serviceConfigErrorName(ConfigErr)));
    return O;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  return statsDocument();
}

//===----------------------------------------------------------------------===//
// Chaos: shard kill + rebuild
//===----------------------------------------------------------------------===//

void ServiceFrontEnd::killShard(unsigned S) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (ShuttingDown || S >= Shards.size() || ShardDown[S])
      return;
    ShardDown[S] = 1;
    ++Stats.ShardKills;
    // Kill: abandon every in-flight dispatch at its next slice boundary.
    // Progress past the last durable checkpoint is lost — that is the
    // point — and cancel is how a cooperative scheduler stops quickly.
    for (JobRecord *R : LiveRecs[S])
      R->J->cancel();
  }

  // Wait out the victims without holding the service lock: the other
  // shards keep serving while this one dies.
  Shards[S]->drain();

  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<JobRecord *, std::vector<uint8_t>>> Revived;
  for (JobRecord *R : LiveRecs[S]) {
    if (!R->drainedByService()) {
      // Finished (or was genuinely cancelled by its client) before the
      // kill took effect: the result is real, keep it.
      settle(*R, harvest(*R->J));
    } else {
      // A revive discards a rebalance mark (Moving → Live): that cancel
      // died with the shard, so the revived job just runs here and the
      // rebalancer re-marks it if the skew persists. An extraction keeps
      // its claim; its loop cancels the revived job again.
      Revived.emplace_back(R, R->J->session().lastCheckpoint());
    }
    // The job dies with the shard — no free-listing into a dead scheduler.
    R->J = nullptr;
  }
  LiveRecs[S].clear();

  // Restart: a brand-new scheduler (workers, queues, counters all
  // fresh), then every surviving job re-created from its checkpoint
  // (empty: restart from the beginning).
  buildShard(S);
  ShardDown[S] = 0;
  for (auto &[R, Ckpt] : Revived) {
    placeRecord(*R, S, Ckpt);
    ++Stats.JobsRecovered;
  }
}

//===----------------------------------------------------------------------===//
// Cross-process migration, source side
//===----------------------------------------------------------------------===//

bool ServiceFrontEnd::extractForMigration(const JobTicket &T, Frame &Offer) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Records.find(T);
    if (It == Records.end())
      return false;
    JobRecord &R = *It->second;
    if (ShuttingDown || R.CancelRequested ||
        (R.Ph != Phase::Live && R.Ph != Phase::Moving))
      return false;
    // Extraction supersedes a rebalance mark: the job leaves the process
    // instead, and an abandon brings it back plain live.
    R.Ph = Phase::Extracting;
    if (!ShardDown[R.Shard])
      R.J->cancel();
  }

  // Wait for the victim to settle at its slice boundary without holding
  // the service lock: the shard keeps serving everyone else meanwhile.
  for (;;) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      JobRecord &R = *Records.at(T);
      if (R.Ph == Phase::Done) {
        // killShard harvested it mid-extract: it finished for real (or
        // its client cancelled); the result is already in the record.
        return false;
      }
      if (ShuttingDown) {
        R.Ph = Phase::Live;
        return false;
      }
      if (!ShardDown[R.Shard]) {
        if (R.J->state() != sched::JobState::Done) {
          // Re-issue the cancel: a shard kill between polls revives the
          // job without it.
          R.J->cancel();
        } else if (!R.drainedByService()) {
          // Finished for real (or client-cancelled) before our cancel
          // landed: nothing to migrate; normal harvest takes over.
          R.Ph = Phase::Live;
          return false;
        } else {
          // Settled at a boundary: package it. adoptCheckpoint on the
          // adopter restores the retired-step accounting, so the final
          // result is field-for-field the unmigrated run's.
          std::vector<uint8_t> Ckpt = R.J->session().lastCheckpoint();
          const unsigned S = R.Shard;
          release(R);
          if (Ckpt.size() > MaxStringBytes) {
            // Too big for an sc-wire string: not migratable; resume it
            // locally as if never touched.
            R.Ph = Phase::Live;
            placeRecord(R, S, Ckpt);
            return false;
          }
          Offer = Frame();
          Offer.Type = FrameType::MigrateOffer;
          Offer.setTicket(T);
          Offer.DeadlineNs = static_cast<uint64_t>(R.Spec.Deadline.count());
          Offer.FuelSteps = R.Spec.FuelSteps;
          Offer.Engine = R.Engine;
          Offer.Source = R.Prog->Source;
          Offer.Word = R.Word;
          Offer.Snapshot = Ckpt;
          R.Ph = Phase::Escrowed;
          R.EscrowCkpt = std::move(Ckpt);
          // Heat travels in the snapshot sidecar too, but the explicit
          // fields let an adopter seed its ladder before first dispatch.
          if (!R.EscrowCkpt.empty()) {
            snapshot::SnapshotHeader H;
            if (snapshot::readHeader(R.EscrowCkpt.data(),
                                     R.EscrowCkpt.size(),
                                     H) == snapshot::SnapshotError::None) {
              Offer.HeatSteps = H.MS.HeatSteps;
              Offer.TierRung = H.MS.TierRung;
            }
          }
          // InFlight stays held: the tenant still owns this job until
          // completeMigration / abandonMigration resolves it.
          ++Stats.MigratedOut;
          ++ShardMigrationsOut[S];
          return true;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void ServiceFrontEnd::completeMigration(const JobTicket &T,
                                        const Frame &Result) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Records.find(T);
  SC_ASSERT(It != Records.end(), "completeMigration for an unknown ticket");
  JobRecord &R = *It->second;
  SC_ASSERT(R.Ph == Phase::Escrowed,
            "completeMigration on a job that is not migrated out");
  settle(R, Result);
}

bool ServiceFrontEnd::abandonMigration(const JobTicket &T) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Records.find(T);
  if (It == Records.end())
    return false;
  JobRecord &R = *It->second;
  if (R.Ph != Phase::Escrowed)
    return false;
  if (ShuttingDown || ShardDown[R.Shard])
    return false; // caller retries once the shard is back
  const std::vector<uint8_t> Ckpt = std::move(R.EscrowCkpt);
  R.EscrowCkpt.clear();
  placeRecord(R, R.Shard, Ckpt);
  ++Stats.MigrationsAbandoned;
  ++ShardMigrationsIn[R.Shard];
  return true;
}

void ServiceFrontEnd::shutdown() {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    if (ShuttingDown || Shards.empty())
      return;
    // Let any in-progress killShard finish rebuilding before the gates
    // close; its revived jobs are then drained like any others.
    while (std::find(ShardDown.begin(), ShardDown.end(), 1) !=
           ShardDown.end()) {
      Lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      Lock.lock();
    }
    ShuttingDown = true;
    for (unsigned S = 0; S < Cfg.Shards; ++S)
      for (JobRecord *R : LiveRecs[S])
        R->J->cancel();
  }
  for (unsigned S = 0; S < Cfg.Shards; ++S)
    Shards[S]->shutdown();
  std::lock_guard<std::mutex> Lock(Mu);
  // Harvest the stragglers so post-shutdown polls still serve results.
  for (unsigned S = 0; S < Cfg.Shards; ++S)
    sweepShard(S);
}

//===----------------------------------------------------------------------===//
// Connection loop
//===----------------------------------------------------------------------===//

void sc::service::serveChannel(ServiceFrontEnd &FE, Channel &Ch) {
  FrameBuffer FB;
  std::vector<uint8_t> Raw;
  uint8_t Buf[16384];
  for (;;) {
    ServiceError StreamErr;
    while (FB.next(Raw, StreamErr)) {
      Frame Req;
      Frame Resp;
      const ServiceError DE = decodeFrame(Raw, Req);
      if (DE != ServiceError::None) {
        // A sealed-length frame that fails validation: the request never
        // happened; tell the client with a typed Error naming whatever
        // request id survived the corruption.
        Resp.Type = FrameType::Error;
        Resp.RequestId = peekRequestId(Raw.data(), Raw.size());
        Resp.Err = DE;
        Resp.Detail = serviceErrorName(DE);
      } else {
        Resp = FE.handle(Req);
      }
      if (!Ch.send(encodeFrame(Resp)))
        return;
    }
    if (StreamErr != ServiceError::None)
      return; // poisoned prefix: nothing to resync on, drop the link
    const int64_t N = Ch.recv(Buf, sizeof(Buf), 0);
    if (N <= 0)
      return;
    FB.feed(Buf, static_cast<size_t>(N));
  }
}
