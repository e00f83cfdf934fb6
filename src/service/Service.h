//===-- service/Service.h - Sharded execution front end --------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The networked execution service's brain: ServiceFrontEnd maps the
/// sc-wire request frames onto a fleet of SessionScheduler shards (one
/// per core in production; configurable here) with tenant→shard
/// hashing. The transport layer (Server.h) is a thin loop around
/// handle(); everything stateful lives here, so the in-process tests
/// and the TCP server exercise identical logic.
///
/// Contracts:
///
///   - Exactly-once: Submit is idempotent on (tenant, token). A
///     duplicate — a client retry after a lost ack, or a transport-
///     duplicated frame — attaches to the existing job (SubmitAck with
///     Duplicate=1, or the final Result if it already finished) and
///     never creates a second execution.
///   - Overload protection: admission is refused *explicitly*, never
///     queued unboundedly. Per-tenant in-flight caps (TenantBusy),
///     per-tenant bounded scheduler queues (ShardSaturated), a
///     per-shard live-job high water (ShardDegraded), and a
///     drain/shutdown gate (AdmissionClosed) each produce a Reject
///     frame with a retry-after hint. Shedding is shard-by-shard by
///     construction: one saturated or down shard rejects only the
///     tenants hashed onto it.
///   - Crash recovery: killShard() kills a shard mid-job — in-flight
///     dispatch progress beyond the last durable checkpoint is lost —
///     and rebuilds it from scratch, re-creating every live job from
///     its harvested sc-snap checkpoint (SessionScheduler::
///     adoptCheckpoint). Re-executed slices are reported exactly once,
///     so results after a kill are field-for-field what an unkilled run
///     produces. Scheduler-internal crash injection (CrashOneIn)
///     composes with this.
///   - Bounded memory: finished jobs are recycled into per-shard free
///     lists keyed on (program identity, engine); an unbounded job
///     stream runs on a bounded job pool whose size tracks peak
///     concurrency, not total jobs served.
///
/// Non-reentrant engine flavors (call threading's static VM registers)
/// are refused with ServiceError::BadEngine: their dispatches would
/// need process-wide serialization across shards, which is exactly the
/// scalability collapse a sharded service exists to avoid.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SERVICE_SERVICE_H
#define SC_SERVICE_SERVICE_H

#include "metrics/Json.h"
#include "sched/SessionScheduler.h"
#include "service/Protocol.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sc::forth {
class System;
} // namespace sc::forth

namespace sc::service {

class Channel;

struct ServiceConfig {
  /// Scheduler shards. Production sizing is one per core; tests pin
  /// small counts for determinism.
  unsigned Shards = 2;
  unsigned WorkersPerShard = 1;
  uint64_t SliceSteps = 4096;
  /// Durable checkpoint cadence per job (slices). Must be nonzero for
  /// killShard()/crash injection to have anything to recover from.
  uint64_t CheckpointEverySlices = 4;
  /// Bounded admission queue per tenant per shard (Backpressure::
  /// Reject). Must be >= MaxInFlightPerTenant so a shard rebuild can
  /// always re-admit every live job it harvested.
  size_t TenantQueueCapacity = 64;
  /// Live (submitted, unfinished) jobs one tenant may hold at once
  /// before Submit gets Reject{TenantBusy}.
  uint64_t MaxInFlightPerTenant = 32;
  /// Live jobs one shard may hold across all its tenants before Submit
  /// gets Reject{ShardDegraded} — the graceful-degradation valve that
  /// protects running jobs instead of collapsing the shard.
  uint64_t ShardHighWater = 256;
  /// Backoff hint carried in every Reject frame.
  uint64_t RetryAfterNs = 2'000'000;
  sched::SchedPolicy Policy = sched::SchedPolicy::Drr;
  /// Pass-through scheduler crash injection (chaos tests).
  uint64_t CrashEveryDispatches = 0;
  uint64_t CrashOneIn = 0;
  uint64_t CrashSeed = 0x5eed;
  /// Shared translation cache; null = the process-wide cache.
  prepare::PrepareCache *Cache = nullptr;

  /// Live cross-shard rebalancing: when a shard's live-job count crosses
  /// RebalanceHighWater while another shard idles, up to RebalanceBatch
  /// of the hot shard's jobs are drained at their next slice boundary
  /// and re-admitted on the coldest shard via the checkpoint +
  /// adoptCheckpoint path (exactly-once; results are field-for-field the
  /// unmigrated run's). Off by default: moving jobs costs a cancel +
  /// restore round trip, which only pays off under skew.
  bool Rebalance = false;
  /// Live jobs at which a shard counts as hot; 0 derives a default of
  /// max(4, ShardHighWater / 4).
  uint64_t RebalanceHighWater = 0;
  /// Minimum hot-minus-cold live-job gap before a move is worth it.
  uint64_t RebalanceMinGap = 4;
  /// Jobs marked for migration per rebalance pass.
  uint64_t RebalanceBatch = 4;
};

/// Typed rejection for an invalid ServiceConfig. A hostile or buggy
/// config must not be able to abort a server process: the front end
/// reports one of these (constructor result state + every request
/// answered with Error{BadConfig}) instead of tripping an assert.
enum class ServiceConfigError : uint8_t {
  None = 0,
  NoShards,             ///< Shards == 0
  NoCheckpointCadence,  ///< CheckpointEverySlices == 0: the kill/recover
                        ///< and migration contracts need checkpoints
  QueueBelowInFlightCap, ///< TenantQueueCapacity < MaxInFlightPerTenant:
                         ///< a shard rebuild could not re-admit its jobs
};

const char *serviceConfigErrorName(ServiceConfigError E);

/// Validates \p Cfg without constructing anything.
ServiceConfigError validateServiceConfig(const ServiceConfig &Cfg);

/// Control-plane counters, snapshotted under the service lock.
struct ServiceStats {
  uint64_t Submitted = 0;  ///< jobs admitted (first time, not duplicates)
  uint64_t Duplicates = 0; ///< Submit frames that attached to a live or
                           ///< finished job instead of creating one
  uint64_t Completed = 0;  ///< results harvested from shards
  uint64_t Polls = 0;
  uint64_t Cancels = 0;
  uint64_t RejectedBusy = 0;      ///< Reject{TenantBusy}
  uint64_t RejectedSaturated = 0; ///< Reject{ShardSaturated}
  uint64_t RejectedDegraded = 0;  ///< Reject{ShardDegraded} (incl. down)
  uint64_t RejectedClosed = 0;    ///< Reject{AdmissionClosed}
  uint64_t Errors = 0;            ///< Error frames returned
  uint64_t ShardKills = 0;        ///< killShard() invocations
  uint64_t JobsRecovered = 0;     ///< jobs rebuilt from checkpoints
  uint64_t JobsRecycled = 0;      ///< free-list reuses (vs createJob)
  uint64_t Rebalanced = 0;        ///< cross-shard live-migration moves
  uint64_t MigratedOut = 0;       ///< jobs extracted for a peer process
  uint64_t MigratedIn = 0;        ///< adopted jobs activated by commit
  uint64_t MigrationsAbandoned = 0; ///< extracted jobs re-adopted locally

  uint64_t totalRejected() const {
    return RejectedBusy + RejectedSaturated + RejectedDegraded +
           RejectedClosed;
  }
};

class ServiceFrontEnd {
public:
  explicit ServiceFrontEnd(ServiceConfig Config = {});
  ~ServiceFrontEnd();

  ServiceFrontEnd(const ServiceFrontEnd &) = delete;
  ServiceFrontEnd &operator=(const ServiceFrontEnd &) = delete;

  /// Answers one request frame. Thread-safe; this is the only entry the
  /// transport loop calls. Unknown/response-typed requests get a typed
  /// Error frame, never a crash. The response echoes Req.RequestId.
  Frame handle(const Frame &Req);

  /// The shard tenant \p Tenant hashes onto (FNV-1a, stable).
  unsigned shardOf(const std::string &Tenant) const;

  /// Chaos: kills shard \p S mid-job and rebuilds it. Every live job on
  /// the shard loses its in-flight progress, is re-created on the fresh
  /// scheduler, and resumes from its last durable checkpoint (from the
  /// program start when none was written yet). Jobs that managed to
  /// finish before the kill took effect keep their real results.
  /// Submissions racing the kill see Reject{ShardDegraded}. Blocks
  /// until the shard is serving again. No-op on an already-dying shard
  /// or after shutdown().
  void killShard(unsigned S);

  /// Closes admission, cancels whatever still runs, drains every shard,
  /// and harvests all results — polls keep working afterwards, submits
  /// get Reject{AdmissionClosed}. Idempotent; the destructor calls it.
  void shutdown();

  /// \name Cross-process migration, source side
  /// The driver (Client.h's migrateJob) runs extract → MigrateOffer →
  /// MigrateCommit against the peer, then completeMigration with the
  /// peer's Result — or abandonMigration if the peer never adopted.
  /// @{

  /// Drains job \p T at its next slice boundary and packages it as a
  /// MigrateOffer frame (program text, sc-snap checkpoint, tier heat).
  /// Blocks until the job settles. On success the job no longer runs
  /// here — the record stays, answering polls with Pending, until
  /// completeMigration or abandonMigration resolves it. Returns false
  /// (and keeps the job running locally) if the ticket is unknown, the
  /// job finished or was client-cancelled first, it is already migrated,
  /// or the service is shutting down.
  bool extractForMigration(const JobTicket &T, Frame &Offer);

  /// Lands the peer's final \p Result on the extracted job \p T: the
  /// record completes exactly as if it had run locally (polls return the
  /// result, Completed ticks once). The source must call exactly one of
  /// completeMigration / abandonMigration per successful extract, and
  /// only completeMigration after a successful commit — committing and
  /// also resuming locally would execute the job twice.
  void completeMigration(const JobTicket &T, const Frame &Result);

  /// Aborts a torn migration: re-admits the extracted job \p T on its
  /// home shard from the escrowed checkpoint. Safe whenever the peer
  /// answered UnknownMigration (the offer was lost; nothing executed
  /// remotely). Returns false if the shard is mid-kill (retry) or the
  /// ticket is not in the extracted state.
  bool abandonMigration(const JobTicket &T);

  /// @}

  /// The constructor's config validation result. Anything but None means
  /// the front end built no shards and answers every request with
  /// Error{BadConfig}.
  ServiceConfigError configError() const { return ConfigErr; }

  ServiceStats statsSnapshot() const;

  /// The full dashboard: service counters plus one scheduler snapshot
  /// per shard (sched::snapshotToJson), as carried by StatsReply.
  metrics::Json statsJson() const;

  const ServiceConfig &config() const { return Cfg; }

private:
  struct Program;
  struct JobRecord;
  struct Adoption;

  Frame submitReq(const Frame &Req);
  Frame pollReq(const Frame &Req);
  Frame cancelReq(const Frame &Req);
  Frame migrateOfferReq(const Frame &Req);
  Frame migrateCommitReq(const Frame &Req);

  /// The stats dashboard document StatsReply carries; Mu held.
  metrics::Json statsDocument() const;

  Frame errorFrame(const Frame &Req, ServiceError E, std::string Detail);
  Frame rejectFrame(const Frame &Req, RejectCode Code);
  Frame resultFrame(const Frame &Req, const JobRecord &R) const;

  /// Compiles (or fetches) the program for \p Source; Mu held.
  Program *getProgram(const std::string &Source, std::string &Err);
  /// Harvests finished jobs on shard \p S into their records and the
  /// free list, and executes pending cross-shard moves; Mu held, shard
  /// must be up.
  void sweepShard(unsigned S);
  /// Takes a job for (program, engine, tenant) from shard \p S's free
  /// list or creates one; Mu held.
  sched::Job *obtainJob(unsigned S, Program &P, engine::EngineId E,
                        sched::TenantId T, sched::JobSpec Spec);
  sched::TenantId shardTenant(unsigned S, const std::string &Tenant);
  void buildShard(unsigned S);

  /// Marks up to RebalanceBatch jobs on the hottest shard for migration
  /// to the coldest (cancel now; the move happens in sweepShard when
  /// each victim settles at its slice boundary). Mu held; no-op unless
  /// Cfg.Rebalance and the hot/cold gap justifies a move.
  void maybeRebalance();
  /// Re-admits record \p R (whose job has settled and been released) on
  /// shard \p To from checkpoint \p Ckpt (empty = fresh start). Mu held;
  /// the target shard must be up and accepting. Updates shard
  /// bookkeeping but no counters.
  void placeRecord(JobRecord &R, unsigned To,
                   const std::vector<uint8_t> &Ckpt);
  /// Activates the inert adoption \p A (Mu held): admits the job as if
  /// submitted here, restoring its snapshot. Returns the reply frame.
  Frame activateAdoption(const Frame &Req, Adoption &A);

  ServiceConfig Cfg;
  ServiceConfigError ConfigErr = ServiceConfigError::None;

  mutable std::mutex Mu;
  std::vector<std::unique_ptr<sched::SessionScheduler>> Shards;
  std::vector<uint8_t> ShardDown; ///< 1 while killShard rebuilds it
  std::vector<uint64_t> ShardLive;
  /// Per shard: jobs that migrated onto / off this shard (both the
  /// cross-shard rebalancer and cross-process adoption/extraction).
  std::vector<uint64_t> ShardMigrationsIn;
  std::vector<uint64_t> ShardMigrationsOut;
  /// Per shard: tenant name → scheduler tenant id.
  std::vector<std::map<std::string, sched::TenantId>> ShardTenants;
  /// Per shard: (program identity, engine, scheduler tenant) → idle
  /// recycled jobs (a job's tenant binding is fixed at creation).
  using FreeKey = std::tuple<uint64_t, uint8_t, sched::TenantId>;
  std::vector<std::map<FreeKey, std::vector<sched::Job *>>> FreeJobs;
  /// Per shard: records whose job is still live (sweep scans these).
  std::vector<std::vector<JobRecord *>> LiveRecs;
  std::map<std::string, std::unique_ptr<Program>> Programs; // by source
  std::map<JobTicket, std::unique_ptr<JobRecord>> Records;
  /// Jobs offered to us by a peer, keyed by ticket: inert after
  /// MigrateOffer, activated (admitted into Records) by MigrateCommit.
  std::map<JobTicket, std::unique_ptr<Adoption>> Adoptions;
  std::map<std::string, uint64_t> InFlight; // per tenant, across shards
  ServiceStats Stats;
  bool ShuttingDown = false;
};

/// Serves one connection: reassembles frames from \p Ch, answers each
/// through \p FE, returns when the peer closes (or the stream poisons —
/// a torn frame prefix is unrecoverable, the peer must reconnect).
/// Decodable-but-invalid frames get typed Error responses inline.
void serveChannel(ServiceFrontEnd &FE, Channel &Ch);

} // namespace sc::service

#endif // SC_SERVICE_SERVICE_H
