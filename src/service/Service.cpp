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

/// The service-side life of one JobTicket: where the job lives, what it
/// would take to rebuild it, and — once finished — its final Result
/// frame. Records are never deleted (they ARE the idempotency memory);
/// the sched::Job underneath is recycled the moment the result is
/// harvested.
struct ServiceFrontEnd::JobRecord {
  JobTicket Ticket;
  unsigned Shard = 0;
  sched::Job *J = nullptr; ///< null once harvested or migrated out
  Program *Prog = nullptr;
  uint8_t Engine = 0;
  sched::JobSpec Spec; ///< for re-creation after a shard kill
  std::string Word;    ///< entry word name (travels with an offer)
  bool CancelRequested = false;
  bool DoneHarvested = false;
  /// Cross-shard rebalancing: set by maybeRebalance together with a
  /// cancel; sweepShard executes the move once the victim settles at its
  /// slice boundary.
  bool MoveRequested = false;
  unsigned MoveTarget = 0;
  /// Cross-process migration: ExtractPending while extractForMigration
  /// owns the settling job (sweep keeps its hands off); MigratedOut once
  /// the job left for a peer (polls answer Pending until
  /// completeMigration / abandonMigration resolves it).
  bool ExtractPending = false;
  bool MigratedOut = false;
  std::vector<uint8_t> EscrowCkpt; ///< extract's checkpoint, kept so a
                                   ///< torn migration can be abandoned
  Frame Result; ///< valid once DoneHarvested
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
  ShardLive.assign(Cfg.Shards, 0);
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

//===----------------------------------------------------------------------===//
// Harvest / job pool
//===----------------------------------------------------------------------===//

void ServiceFrontEnd::sweepShard(unsigned S) {
  SC_ASSERT(!ShardDown[S], "sweep of a dying shard");
  std::vector<JobRecord *> &Recs = LiveRecs[S];
  for (size_t I = 0; I < Recs.size();) {
    JobRecord *R = Recs[I];
    if (R->ExtractPending) {
      // extractForMigration owns this record's settling; harvesting it
      // here would race the extract loop's checkpoint grab.
      ++I;
      continue;
    }
    if (R->J->state() != sched::JobState::Done) {
      ++I;
      continue;
    }
    const session::SessionResult &A = R->J->result();
    if (R->MoveRequested && !R->CancelRequested &&
        A.Stop == session::StopKind::Cancelled && !ShuttingDown) {
      // Not a real completion: the rebalancer's cancel drained this job
      // at its slice boundary. Re-admit it from its checkpoint on the
      // chosen target (or back here if that shard died meanwhile) —
      // adoptCheckpoint restores retired-step accounting, so the final
      // result is field-for-field the unmigrated run's.
      const unsigned To = ShardDown[R->MoveTarget] ? S : R->MoveTarget;
      const std::vector<uint8_t> Ckpt = R->J->session().lastCheckpoint();
      FreeJobs[S][FreeKey{R->Prog->Identity, R->Engine,
                          ShardTenants[S].at(R->Ticket.Tenant)}]
          .push_back(R->J);
      R->J = nullptr;
      R->MoveRequested = false;
      SC_ASSERT(ShardLive[S] > 0, "shard-live underflow");
      --ShardLive[S];
      placeRecord(*R, To, Ckpt);
      if (To != S) {
        ++Stats.Rebalanced;
        ++ShardMigrationsOut[S];
        ++ShardMigrationsIn[To];
      }
      Recs[I] = Recs.back();
      Recs.pop_back();
      continue;
    }
    R->Result.Type = FrameType::Result;
    R->Result.Token = R->Ticket.Token;
    R->Result.Stop = static_cast<uint8_t>(A.Stop);
    R->Result.Status = static_cast<uint8_t>(A.Outcome.Status);
    R->Result.Steps = A.Outcome.Steps;
    R->Result.Slices = A.Slices;
    R->Result.Output = R->J->machine().Out;
    R->DoneHarvested = true;
    FreeJobs[S][FreeKey{R->Prog->Identity, R->Engine,
                        ShardTenants[S].at(R->Ticket.Tenant)}]
        .push_back(R->J);
    R->J = nullptr;
    R->MoveRequested = false;
    SC_ASSERT(InFlight[R->Ticket.Tenant] > 0, "in-flight underflow");
    --InFlight[R->Ticket.Tenant];
    SC_ASSERT(ShardLive[S] > 0, "shard-live underflow");
    --ShardLive[S];
    ++Stats.Completed;
    Recs[I] = Recs.back();
    Recs.pop_back();
  }
}

void ServiceFrontEnd::placeRecord(JobRecord &R, unsigned To,
                                  const std::vector<uint8_t> &Ckpt) {
  SC_ASSERT(!ShardDown[To] && !ShuttingDown, "placing a job on a dead shard");
  SC_ASSERT(!R.J, "record still owns a job");
  const sched::TenantId T = shardTenant(To, R.Ticket.Tenant);
  sched::Job *J = obtainJob(To, *R.Prog,
                            static_cast<engine::EngineId>(R.Engine), T,
                            R.Spec);
  if (!Ckpt.empty()) {
    const snapshot::SnapshotError E =
        Shards[To]->adoptCheckpoint(J, Ckpt.data(), Ckpt.size());
    SC_ASSERT(E == snapshot::SnapshotError::None,
              "a checkpoint the service harvested failed to restore");
  }
  const sched::SubmitResult SR = Shards[To]->submit(J);
  SC_ASSERT(SR == sched::SubmitResult::Admitted,
            "migration re-admission cannot bounce: queue capacity covers "
            "the in-flight cap");
  if (R.CancelRequested)
    J->cancel();
  R.J = J;
  R.Shard = To;
  LiveRecs[To].push_back(&R);
  ++ShardLive[To];
}

void ServiceFrontEnd::maybeRebalance() {
  if (!Cfg.Rebalance || ShuttingDown || Cfg.Shards < 2)
    return;
  // Effective live count: jobs already marked to move count against
  // their TARGET, not their current home. Raw ShardLive would keep the
  // gap wide for the whole drain window (a mark only clears at the
  // victim's next slice boundary), and this runs on every submit and
  // poll — without the correction each call marks another batch and the
  // entire queue ping-pongs between shards.
  std::vector<uint64_t> Eff(ShardLive.begin(), ShardLive.end());
  for (unsigned S = 0; S < Cfg.Shards; ++S)
    for (const JobRecord *R : LiveRecs[S])
      if (R->MoveRequested && R->MoveTarget != S && Eff[S] > 0) {
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
  // sweepShard moves it when it settles. Never touch jobs a client
  // cancelled, jobs already moving, or jobs mid-extraction. Cap the
  // batch at half the gap — each move swings the gap by two, so more
  // would overshoot the balance point and invite a reverse move.
  const uint64_t Batch =
      std::min<uint64_t>(Cfg.RebalanceBatch, (Eff[Hot] - Eff[Cold]) / 2);
  uint64_t Marked = 0;
  for (JobRecord *R : LiveRecs[Hot]) {
    if (Marked >= Batch)
      break;
    if (R->CancelRequested || R->MoveRequested || R->ExtractPending || !R->J)
      continue;
    R->MoveRequested = true;
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
    if (R.DoneHarvested)
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
  if (ShardLive[S] >= Cfg.ShardHighWater)
    return rejectFrame(Req, RejectCode::ShardDegraded);

  if (Req.Engine >= engine::NumEngineIds)
    return errorFrame(Req, ServiceError::BadEngine,
                      "engine id out of range");
  const auto E = static_cast<engine::EngineId>(Req.Engine);
  if (!engine::engineInfo(E).Caps.Reentrant)
    return errorFrame(Req, ServiceError::BadEngine,
                      std::string(engine::engineName(E)) +
                          " is not reentrant; a sharded service cannot "
                          "serialize it process-wide");

  std::string CompileErr;
  Program *P = getProgram(Req.Source, CompileErr);
  if (!P)
    return errorFrame(Req, ServiceError::CompileFailed, CompileErr);
  const vm::Word *W = P->Sys->Prog.findWord(Req.Word);
  if (!W)
    return errorFrame(Req, ServiceError::BadWord,
                      "no such word: " + Req.Word);

  sched::JobSpec Spec;
  Spec.Entry = W->Entry;
  Spec.FuelSteps = Req.FuelSteps;
  Spec.Deadline = std::chrono::nanoseconds(Req.DeadlineNs);
  const sched::TenantId T = shardTenant(S, Req.Tenant);
  sched::Job *J = obtainJob(S, *P, E, T, Spec);

  const sched::SubmitResult SR = Shards[S]->submit(J);
  if (SR != sched::SubmitResult::Admitted) {
    // The job never ran: park it for the next submission of this
    // (program, engine, tenant) instead of leaking it.
    FreeJobs[S][FreeKey{P->Identity, Req.Engine, T}].push_back(J);
    return rejectFrame(Req, SR == sched::SubmitResult::Rejected
                                ? RejectCode::ShardSaturated
                                : RejectCode::AdmissionClosed);
  }

  auto Rec = std::make_unique<JobRecord>();
  Rec->Ticket = Key;
  Rec->Shard = S;
  Rec->J = J;
  Rec->Prog = P;
  Rec->Engine = Req.Engine;
  Rec->Spec = Spec;
  Rec->Word = Req.Word;
  LiveRecs[S].push_back(Rec.get());
  Records.emplace(Key, std::move(Rec));
  ++InFlight[Req.Tenant];
  ++ShardLive[S];
  ++Stats.Submitted;

  Frame F;
  F.Type = FrameType::SubmitAck;
  F.RequestId = Req.RequestId;
  F.Token = Req.Token;
  F.Duplicate = 0;
  F.Shard = S;
  return F;
}

Frame ServiceFrontEnd::pollReq(const Frame &Req) {
  ++Stats.Polls;
  auto It = Records.find(Req.ticket());
  if (It == Records.end())
    return errorFrame(Req, ServiceError::UnknownJob,
                      "no job for this ticket");
  JobRecord &R = *It->second;
  if (!R.DoneHarvested && !ShardDown[R.Shard]) {
    sweepShard(R.Shard);
    maybeRebalance();
  }
  if (R.DoneHarvested)
    return resultFrame(Req, R);
  Frame F;
  F.Type = FrameType::Pending;
  F.RequestId = Req.RequestId;
  F.Token = Req.Token;
  // While the shard is being rebuilt the job is logically queued.
  F.JobStateVal = R.J && !ShardDown[R.Shard]
                      ? static_cast<uint8_t>(R.J->state())
                      : static_cast<uint8_t>(sched::JobState::Queued);
  return F;
}

Frame ServiceFrontEnd::cancelReq(const Frame &Req) {
  ++Stats.Cancels;
  auto It = Records.find(Req.ticket());
  if (It == Records.end())
    return errorFrame(Req, ServiceError::UnknownJob,
                      "no job for this ticket");
  JobRecord &R = *It->second;
  if (R.DoneHarvested)
    return resultFrame(Req, R); // finished first; cancellation lost the race
  R.CancelRequested = true;
  if (R.J && !ShardDown[R.Shard])
    R.J->cancel();
  // else: the shard is mid-rebuild; killShard re-applies the flag to the
  // revived job.
  Frame F;
  F.Type = FrameType::Pending;
  F.RequestId = Req.RequestId;
  F.Token = Req.Token;
  F.JobStateVal = static_cast<uint8_t>(sched::JobState::Queued);
  return F;
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

  if (Req.Engine >= engine::NumEngineIds)
    return errorFrame(Req, ServiceError::BadEngine,
                      "engine id out of range");
  const auto E = static_cast<engine::EngineId>(Req.Engine);
  if (!engine::engineInfo(E).Caps.Reentrant)
    return errorFrame(Req, ServiceError::BadEngine,
                      std::string(engine::engineName(E)) +
                          " is not reentrant; a sharded service cannot "
                          "serialize it process-wide");

  std::string CompileErr;
  Program *P = getProgram(Req.Source, CompileErr);
  if (!P)
    return errorFrame(Req, ServiceError::CompileFailed, CompileErr);
  if (!P->Sys->Prog.findWord(Req.Word))
    return errorFrame(Req, ServiceError::BadWord,
                      "no such word: " + Req.Word);

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
  if (ShardDown[S] || ShardLive[S] >= Cfg.ShardHighWater ||
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
  const JobTicket Key = O.ticket();
  const unsigned S = shardOf(O.Tenant);
  if (ShardDown[S] || ShardLive[S] >= Cfg.ShardHighWater)
    return rejectFrame(Req, RejectCode::ShardDegraded);
  if (InFlight[O.Tenant] >= Cfg.MaxInFlightPerTenant)
    return rejectFrame(Req, RejectCode::TenantBusy);

  // Everything below was validated at offer time; the program cache
  // makes getProgram a lookup.
  std::string CompileErr;
  Program *P = getProgram(O.Source, CompileErr);
  SC_ASSERT(P, "offer-validated program failed to compile at commit");
  const vm::Word *W = P->Sys->Prog.findWord(O.Word);
  SC_ASSERT(W, "offer-validated word vanished at commit");

  sched::JobSpec Spec;
  Spec.Entry = W->Entry;
  Spec.FuelSteps = O.FuelSteps;
  Spec.Deadline = std::chrono::nanoseconds(O.DeadlineNs);
  const sched::TenantId T = shardTenant(S, O.Tenant);
  sched::Job *J = obtainJob(S, *P, static_cast<engine::EngineId>(O.Engine),
                            T, Spec);
  if (!O.Snapshot.empty()) {
    const snapshot::SnapshotError SE = Shards[S]->adoptCheckpoint(
        J, O.Snapshot.data(), O.Snapshot.size());
    SC_ASSERT(SE == snapshot::SnapshotError::None,
              "offer-validated snapshot failed to restore at commit");
  }
  const sched::SubmitResult SR = Shards[S]->submit(J);
  if (SR != sched::SubmitResult::Admitted) {
    FreeJobs[S][FreeKey{P->Identity, O.Engine, T}].push_back(J);
    return rejectFrame(Req, SR == sched::SubmitResult::Rejected
                                ? RejectCode::ShardSaturated
                                : RejectCode::AdmissionClosed);
  }

  auto Rec = std::make_unique<JobRecord>();
  Rec->Ticket = Key;
  Rec->Shard = S;
  Rec->J = J;
  Rec->Prog = P;
  Rec->Engine = O.Engine;
  Rec->Spec = Spec;
  Rec->Word = O.Word;
  LiveRecs[S].push_back(Rec.get());
  Records.emplace(Key, std::move(Rec));
  ++InFlight[O.Tenant];
  ++ShardLive[S];
  ++Stats.MigratedIn;
  ++ShardMigrationsIn[S];
  A.Activated = true;

  Frame F;
  F.Type = FrameType::Pending;
  F.RequestId = Req.RequestId;
  F.Token = O.Token;
  F.JobStateVal = static_cast<uint8_t>(sched::JobState::Queued);
  return F;
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
  // Commit retry after activation: idempotent — poll the adopted job and
  // return Pending until done, then the cached Result forever.
  auto RIt = Records.find(Req.ticket());
  SC_ASSERT(RIt != Records.end(), "activated adoption lost its record");
  JobRecord &R = *RIt->second;
  if (!R.DoneHarvested && !ShardDown[R.Shard])
    sweepShard(R.Shard);
  if (R.DoneHarvested)
    return resultFrame(Req, R);
  Frame F;
  F.Type = FrameType::Pending;
  F.RequestId = Req.RequestId;
  F.Token = Req.Token;
  F.JobStateVal = R.J && !ShardDown[R.Shard]
                      ? static_cast<uint8_t>(R.J->state())
                      : static_cast<uint8_t>(sched::JobState::Queued);
  return F;
}

metrics::Json ServiceFrontEnd::statsDocument() const {
  metrics::Json O = metrics::Json::object();
  metrics::Json Svc = metrics::Json::object();
  Svc.set("submitted", metrics::Json::number(Stats.Submitted));
  Svc.set("duplicates", metrics::Json::number(Stats.Duplicates));
  Svc.set("completed", metrics::Json::number(Stats.Completed));
  Svc.set("polls", metrics::Json::number(Stats.Polls));
  Svc.set("cancels", metrics::Json::number(Stats.Cancels));
  Svc.set("rejected_busy", metrics::Json::number(Stats.RejectedBusy));
  Svc.set("rejected_saturated",
          metrics::Json::number(Stats.RejectedSaturated));
  Svc.set("rejected_degraded",
          metrics::Json::number(Stats.RejectedDegraded));
  Svc.set("rejected_closed", metrics::Json::number(Stats.RejectedClosed));
  Svc.set("errors", metrics::Json::number(Stats.Errors));
  Svc.set("shard_kills", metrics::Json::number(Stats.ShardKills));
  Svc.set("jobs_recovered", metrics::Json::number(Stats.JobsRecovered));
  Svc.set("jobs_recycled", metrics::Json::number(Stats.JobsRecycled));
  Svc.set("rebalanced", metrics::Json::number(Stats.Rebalanced));
  Svc.set("migrated_out", metrics::Json::number(Stats.MigratedOut));
  Svc.set("migrated_in", metrics::Json::number(Stats.MigratedIn));
  Svc.set("migrations_abandoned",
          metrics::Json::number(Stats.MigrationsAbandoned));
  O.set("service", std::move(Svc));
  metrics::Json Sh = metrics::Json::array();
  for (unsigned S = 0; S < Cfg.Shards; ++S) {
    metrics::Json J = sched::snapshotToJson(Shards[S]->snapshot());
    J.set("down", metrics::Json::number(static_cast<uint64_t>(ShardDown[S])));
    J.set("live_jobs", metrics::Json::number(ShardLive[S]));
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
  struct Revive {
    JobRecord *R;
    std::vector<uint8_t> Ckpt; ///< empty: restart from the beginning
  };
  std::vector<Revive> Revived;
  for (JobRecord *R : LiveRecs[S]) {
    const session::SessionResult &A = R->J->result();
    if (A.Stop != session::StopKind::Cancelled || R->CancelRequested) {
      // Finished (or was genuinely cancelled by its client) before the
      // kill took effect: the result is real, keep it. The job itself
      // dies with the shard — no free-listing into a dead scheduler.
      R->Result.Type = FrameType::Result;
      R->Result.Token = R->Ticket.Token;
      R->Result.Stop = static_cast<uint8_t>(A.Stop);
      R->Result.Status = static_cast<uint8_t>(A.Outcome.Status);
      R->Result.Steps = A.Outcome.Steps;
      R->Result.Slices = A.Slices;
      R->Result.Output = R->J->machine().Out;
      R->DoneHarvested = true;
      R->J = nullptr;
      --InFlight[R->Ticket.Tenant];
      --ShardLive[S];
      ++Stats.Completed;
      continue;
    }
    // A revive discards the migration mark: the rebalance/extract cancel
    // died with the shard, so the revived job just runs here (the
    // extract loop re-issues its cancel; the rebalancer re-marks if the
    // skew persists).
    R->MoveRequested = false;
    Revived.push_back(Revive{R, R->J->session().lastCheckpoint()});
    R->J = nullptr;
  }
  LiveRecs[S].clear();

  // Restart: a brand-new scheduler (workers, queues, counters all
  // fresh), then every surviving job re-created from its checkpoint.
  buildShard(S);
  for (Revive &V : Revived) {
    JobRecord *R = V.R;
    const sched::TenantId T = shardTenant(S, R->Ticket.Tenant);
    Program &P = *R->Prog;
    sched::Job *J = Shards[S]->createJob(
        T, P.Sys->Prog, static_cast<engine::EngineId>(R->Engine),
        P.Sys->Machine, R->Spec);
    if (!V.Ckpt.empty()) {
      const snapshot::SnapshotError E =
          Shards[S]->adoptCheckpoint(J, V.Ckpt.data(), V.Ckpt.size());
      SC_ASSERT(E == snapshot::SnapshotError::None,
                "a checkpoint the service harvested failed to restore");
    }
    const sched::SubmitResult SR = Shards[S]->submit(J);
    SC_ASSERT(SR == sched::SubmitResult::Admitted,
              "rebuild re-admission cannot bounce: queue capacity covers "
              "the in-flight cap");
    if (R->CancelRequested)
      J->cancel();
    R->J = J;
    LiveRecs[S].push_back(R);
    ++Stats.JobsRecovered;
  }
  ShardDown[S] = 0;
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
    if (ShuttingDown || R.DoneHarvested || R.MigratedOut ||
        R.ExtractPending || R.CancelRequested || !R.J)
      return false;
    R.ExtractPending = true;
    if (!ShardDown[R.Shard])
      R.J->cancel();
  }

  // Wait for the victim to settle at its slice boundary without holding
  // the service lock: the shard keeps serving everyone else meanwhile.
  for (;;) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      JobRecord &R = *Records.at(T);
      if (ShuttingDown) {
        R.ExtractPending = false;
        return false;
      }
      if (!R.J) {
        // killShard harvested it mid-extract: it finished for real (or
        // its client cancelled); the result is already in the record.
        R.ExtractPending = false;
        return false;
      }
      if (!ShardDown[R.Shard]) {
        if (R.J->state() != sched::JobState::Done) {
          // Re-issue the cancel: a shard kill between polls revives the
          // job without it.
          R.J->cancel();
        } else if (R.J->result().Stop != session::StopKind::Cancelled ||
                   R.CancelRequested) {
          // Finished for real (or client-cancelled) before our cancel
          // landed: nothing to migrate; normal harvest takes over.
          R.ExtractPending = false;
          return false;
        } else {
          // Settled at a boundary: package it. adoptCheckpoint on the
          // adopter restores the retired-step accounting, so the final
          // result is field-for-field the unmigrated run's.
          std::vector<uint8_t> Ckpt = R.J->session().lastCheckpoint();
          const unsigned S = R.Shard;
          FreeJobs[S][FreeKey{R.Prog->Identity, R.Engine,
                              ShardTenants[S].at(T.Tenant)}]
              .push_back(R.J);
          R.J = nullptr;
          auto &Recs = LiveRecs[S];
          Recs.erase(std::find(Recs.begin(), Recs.end(), &R));
          SC_ASSERT(ShardLive[S] > 0, "shard-live underflow");
          --ShardLive[S];
          if (Ckpt.size() > MaxStringBytes) {
            // Too big for an sc-wire string: not migratable; resume it
            // locally as if never touched.
            placeRecord(R, S, Ckpt);
            R.ExtractPending = false;
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
          R.ExtractPending = false;
          R.MigratedOut = true;
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
  SC_ASSERT(R.MigratedOut && !R.DoneHarvested,
            "completeMigration on a job that is not migrated out");
  R.Result = Result;
  R.Result.Type = FrameType::Result;
  R.Result.RequestId = 0;
  R.Result.Token = T.Token;
  R.DoneHarvested = true;
  R.EscrowCkpt.clear();
  R.EscrowCkpt.shrink_to_fit();
  SC_ASSERT(InFlight[T.Tenant] > 0, "in-flight underflow");
  --InFlight[T.Tenant];
  ++Stats.Completed;
}

bool ServiceFrontEnd::abandonMigration(const JobTicket &T) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Records.find(T);
  if (It == Records.end())
    return false;
  JobRecord &R = *It->second;
  if (!R.MigratedOut || R.DoneHarvested)
    return false;
  if (ShuttingDown || ShardDown[R.Shard])
    return false; // caller retries once the shard is back
  const std::vector<uint8_t> Ckpt = std::move(R.EscrowCkpt);
  R.EscrowCkpt.clear();
  R.MigratedOut = false;
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
