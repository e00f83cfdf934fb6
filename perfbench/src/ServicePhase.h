//===-- perfbench/src/ServicePhase.h - Closed-loop clients -----*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the execution service the way a client uses it: two
/// ServiceClients, each on its own in-process connection and its own
/// tenant (hashed onto different shards), submit and await jobs in a
/// closed loop against a ServiceFrontEnd built with the shipped defaults.
///
/// Untraced, every connection is served by the library's serveChannel.
/// Traced, the rig serves connections with its own loop over the same
/// calls in the same order (FrameBuffer::next, decodeFrame,
/// ServiceFrontEnd::handle, encodeFrame) and times each one, and every
/// client channel is wrapped so each RPC shows as a span. Spans stay in
/// memory until the phase ends.
///
//===----------------------------------------------------------------------===//

#ifndef SC_PERFBENCH_SERVICEPHASE_H
#define SC_PERFBENCH_SERVICEPHASE_H

#include "Inputs.h"

#include "prepare/PrepareCache.h"
#include "service/Client.h"
#include "service/Service.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sc::bench {

/// One service job: a catalog program on one engine.
struct JobSpec {
  uint32_t Prog = 0;
  engine::EngineId Engine = engine::EngineId::Switch;
};

/// A workload's programs and their reference results (JobSpec::Prog
/// indexes both).
struct Catalog {
  std::vector<Program> Programs;
  std::vector<Expect> Refs;
};

/// Server-side timing of one request, taken in the rig's own serve loop.
struct ServerSpan {
  uint32_t Client = 0;
  uint64_t Token = 0;
  uint64_t Req = 0; ///< request id: links the span to the client RPC
  service::FrameType Type = service::FrameType::SubmitReq;
  service::FrameType RespType = service::FrameType::Error;
  uint64_t Start = 0;
  uint64_t DecodeNs = 0, HandleNs = 0, EncodeNs = 0;
};

/// Client-side span of one RPC: from handing the request to the channel
/// until the last reply bytes arrived.
struct RpcSpan {
  uint32_t Client = 0;
  uint64_t Req = 0;
  uint64_t Start = 0, End = 0;
};

/// One measured job as the client saw it.
struct JobRecord {
  uint32_t Index = 0; ///< position in the phase's job list
  uint32_t Client = 0;
  uint64_t Token = 0;
  uint64_t Start = 0, End = 0;
  uint64_t RpcNs = 0;  ///< time inside RPC spans (traced runs only)
  uint64_t Slices = 0; ///< as reported by the Result frame
  bool Ok = false;
};

/// Scheduler counters summed over every tenant of every shard.
struct TenantTotals {
  uint64_t Slices = 0, Dispatches = 0;
};

struct PhaseResult {
  std::vector<JobRecord> Jobs;
  uint64_t WallNs = 0;
  uint64_t Failed = 0;
  /// Deltas over the measured phase, from the public snapshots (Stats:
  /// Submitted, Completed, Polls and JobsRecycled).
  service::ServiceStats Stats;
  TenantTotals Tenants;
  uint64_t ClientAttempts = 0; ///< frames the clients sent (ClientStats)
  /// Traced runs only.
  std::vector<ServerSpan> Server;
  std::vector<RpcSpan> Rpcs;
  uint64_t WireBytes = 0;
  std::vector<std::vector<uint8_t>> SampleRequests, SampleReplies;

  double jobsPerSecond() const {
    return WallNs ? static_cast<double>(Jobs.size()) * 1e9 /
                        static_cast<double>(WallNs)
                  : 0;
  }
};

/// A ServiceFrontEnd with the default config over a benchmark-owned
/// PrepareCache, two connected clients, and the threads serving them.
class ServiceRig {
public:
  ServiceRig(const Catalog &C, bool Traced);
  ~ServiceRig();
  ServiceRig(const ServiceRig &) = delete;
  ServiceRig &operator=(const ServiceRig &) = delete;

  static constexpr unsigned Clients = 2;

  /// Fills the program, prepare and job-pool caches: every client
  /// submits every pair once, with one slice of fuel, enough to compile,
  /// prepare and pool a job (each ends FuelExhausted). False if any
  /// warm-up job went wrong.
  bool warmUp(const std::vector<JobSpec> &Pairs);

  /// Runs \p Jobs closed-loop: each client takes the next job once its
  /// previous one returned, until the list is done.
  PhaseResult run(const std::vector<JobSpec> &Jobs);

  prepare::PrepareCache &cache() { return Cache; }

  /// The slowest shard's dispatch latency percentile (\p Key is
  /// "p50_dispatch_ns" or "p99_dispatch_ns"), over the front end's life.
  double dispatchNs(const char *Key) const;

private:
  struct Connection;
  struct ClientSide;

  std::unique_ptr<service::Channel> connect(uint32_t Client);
  /// Sums of the scheduler's per-tenant counters, read from
  /// ServiceFrontEnd::statsJson().
  TenantTotals tenantTotals() const;
  bool runOne(uint32_t Client, const JobSpec &J, uint64_t FuelSteps,
              JobRecord &Rec);

  const Catalog &Cat;
  const bool Traced;
  prepare::PrepareCache Cache;
  std::unique_ptr<service::ServiceFrontEnd> FE;
  std::mutex ConnMu;
  std::vector<std::unique_ptr<Connection>> Conns;
  std::vector<std::unique_ptr<ClientSide>> Sides;
};

} // namespace sc::bench

#endif // SC_PERFBENCH_SERVICEPHASE_H
