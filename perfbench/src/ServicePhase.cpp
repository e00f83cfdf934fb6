//===-- perfbench/src/ServicePhase.cpp - Closed-loop service clients ------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "ServicePhase.h"

#include "Stats.h"

#include "metrics/Json.h"
#include "service/Channel.h"
#include "session/VmSession.h"

#include <atomic>
#include <cstdio>
#include <thread>

using namespace sc;
using namespace sc::bench;
using namespace sc::service;

namespace {

/// How long a client waits for one job before counting it failed.
constexpr uint64_t AwaitDeadlineNs = 60'000'000'000ULL;
/// Whole frames kept per client and direction for the wire-cost replay.
constexpr size_t SampleFrames = 512;

/// The client half of a traced connection: RPC spans, byte counts and a
/// sample of whole frames. Written only by the owning client's thread.
struct ClientTrace {
  std::vector<RpcSpan> Rpcs;
  uint32_t Client = 0;
  bool Open = false;
  uint64_t OpenReq = 0, OpenStart = 0, LastRecvEnd = 0;
  uint64_t RpcTotalNs = 0;
  uint64_t Bytes = 0;
  FrameBuffer Replies;
  std::vector<std::vector<uint8_t>> SampleRequests, SampleReplies;

  /// Closes the RPC in flight, if any, at the end of its last reply read.
  void finish() {
    if (!Open)
      return;
    const uint64_t End = std::max(LastRecvEnd, OpenStart);
    Rpcs.push_back(RpcSpan{Client, OpenReq, OpenStart, End});
    RpcTotalNs += End - OpenStart;
    Open = false;
  }
};

/// Wraps a client channel and records one span per RPC. The client is
/// synchronous, so an RPC runs from one send to the last read before the
/// next send (or before ClientTrace::finish()).
class TimingChannel : public Channel {
public:
  TimingChannel(std::unique_ptr<Channel> Inner, ClientTrace &T)
      : Inner(std::move(Inner)), T(T) {}

  bool send(const uint8_t *Data, size_t N) override {
    T.finish();
    T.Open = true;
    T.OpenReq = peekRequestId(Data, N);
    T.OpenStart = nowNs();
    T.LastRecvEnd = T.OpenStart;
    T.Bytes += N;
    if (T.SampleRequests.size() < SampleFrames)
      T.SampleRequests.emplace_back(Data, Data + N);
    return Inner->send(Data, N);
  }

  int64_t recv(uint8_t *Buf, size_t N, uint64_t TimeoutNs) override {
    const int64_t Got = Inner->recv(Buf, N, TimeoutNs);
    if (Got > 0) {
      T.LastRecvEnd = nowNs();
      T.Bytes += static_cast<uint64_t>(Got);
      if (T.SampleReplies.size() < SampleFrames) {
        T.Replies.feed(Buf, static_cast<size_t>(Got));
        std::vector<uint8_t> Raw;
        ServiceError Err;
        while (T.Replies.next(Raw, Err))
          if (T.SampleReplies.size() < SampleFrames)
            T.SampleReplies.push_back(Raw);
      }
    }
    return Got;
  }

  void close() override { Inner->close(); }

private:
  std::unique_ptr<Channel> Inner;
  ClientTrace &T;
};

} // namespace

struct ServiceRig::Connection {
  uint32_t Client = 0;
  std::unique_ptr<Channel> Server;
  std::mutex Mu;
  std::vector<ServerSpan> Spans; // guarded by Mu
  std::thread Thread;
};

struct ServiceRig::ClientSide {
  std::string Tenant;
  uint64_t NextToken = 0;
  ClientTrace Trace;
  std::unique_ptr<ServiceClient> Client;
};

namespace {

/// serveChannel's loop, call for call, with each step timed.
void tracedServe(ServiceFrontEnd &FE, Channel &Ch, uint32_t Client,
                 std::mutex &Mu, std::vector<ServerSpan> &Spans) {
  FrameBuffer FB;
  std::vector<uint8_t> Raw;
  uint8_t Buf[16384];
  for (;;) {
    ServiceError StreamErr;
    for (;;) {
      ServerSpan S;
      S.Client = Client;
      S.Start = nowNs();
      if (!FB.next(Raw, StreamErr))
        break;
      Frame Req;
      Frame Resp;
      const ServiceError DE = decodeFrame(Raw, Req);
      const uint64_t Decoded = nowNs();
      if (DE != ServiceError::None) {
        Resp.Type = FrameType::Error;
        Resp.RequestId = peekRequestId(Raw.data(), Raw.size());
        Resp.Err = DE;
        Resp.Detail = serviceErrorName(DE);
      } else {
        Resp = FE.handle(Req);
      }
      const uint64_t Handled = nowNs();
      const std::vector<uint8_t> Out = encodeFrame(Resp);
      const uint64_t Encoded = nowNs();
      S.Token = Req.Token;
      S.Req = Resp.RequestId;
      S.Type = Req.Type;
      S.RespType = Resp.Type;
      S.DecodeNs = Decoded - S.Start;
      S.HandleNs = Handled - Decoded;
      S.EncodeNs = Encoded - Handled;
      {
        std::lock_guard<std::mutex> L(Mu);
        Spans.push_back(S);
      }
      if (!Ch.send(Out))
        return;
    }
    if (StreamErr != ServiceError::None)
      return;
    const int64_t N = Ch.recv(Buf, sizeof(Buf), 0);
    if (N <= 0)
      return;
    FB.feed(Buf, static_cast<size_t>(N));
  }
}

ServiceStats minus(const ServiceStats &A, const ServiceStats &B) {
  ServiceStats D;
  D.Submitted = A.Submitted - B.Submitted;
  D.Completed = A.Completed - B.Completed;
  D.Polls = A.Polls - B.Polls;
  D.JobsRecycled = A.JobsRecycled - B.JobsRecycled;
  return D;
}

uint64_t field(const metrics::Json &O, const char *Name) {
  const metrics::Json *F = O.find(Name);
  return F && F->isNumber() ? static_cast<uint64_t>(F->asInt()) : 0;
}

} // namespace

ServiceRig::ServiceRig(const Catalog &C, bool Traced) : Cat(C), Traced(Traced) {
  ServiceConfig Cfg;
  Cfg.Cache = &Cache;
  FE = std::make_unique<ServiceFrontEnd>(Cfg);
  // One tenant per client, each hashed onto a shard of its own.
  std::vector<std::string> Tenants;
  std::vector<unsigned> Used;
  for (unsigned K = 0; Tenants.size() < Clients; ++K) {
    const std::string Name = "client-" + std::to_string(K);
    const unsigned S = FE->shardOf(Name);
    if (std::find(Used.begin(), Used.end(), S) != Used.end() &&
        Used.size() < Cfg.Shards)
      continue;
    Used.push_back(S);
    Tenants.push_back(Name);
  }
  for (uint32_t I = 0; I < Clients; ++I) {
    auto Side = std::make_unique<ClientSide>();
    Side->Tenant = Tenants[I];
    Side->Trace.Client = I;
    Side->Client = std::make_unique<ServiceClient>(
        [this, I] { return connect(I); }, RetryPolicy{});
    Sides.push_back(std::move(Side));
  }
}

ServiceRig::~ServiceRig() {
  for (auto &S : Sides)
    S->Client.reset(); // closes the client ends
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (auto &C : Conns)
      C->Server->close();
  }
  for (auto &C : Conns)
    if (C->Thread.joinable())
      C->Thread.join();
  FE->shutdown();
}

std::unique_ptr<Channel> ServiceRig::connect(uint32_t Client) {
  auto [Cli, Srv] = makeLocalPair();
  auto Conn = std::make_unique<Connection>();
  Conn->Client = Client;
  Conn->Server = std::move(Srv);
  Connection &C = *Conn;
  C.Thread = std::thread([this, &C] {
    if (Traced)
      tracedServe(*FE, *C.Server, C.Client, C.Mu, C.Spans);
    else
      serveChannel(*FE, *C.Server);
  });
  {
    std::lock_guard<std::mutex> L(ConnMu);
    Conns.push_back(std::move(Conn));
  }
  if (!Traced)
    return std::move(Cli);
  return std::make_unique<TimingChannel>(std::move(Cli),
                                         Sides[Client]->Trace);
}

bool ServiceRig::runOne(uint32_t Client, const JobSpec &J, uint64_t FuelSteps,
                        JobRecord &Rec) {
  ClientSide &S = *Sides[Client];
  const Program &P = Cat.Programs[J.Prog];
  Rec.Client = Client;
  Rec.Token = ++S.NextToken;
  const JobTicket T(S.Tenant, Rec.Token);
  S.Trace.finish();
  const uint64_t Rpc0 = S.Trace.RpcTotalNs;
  Rec.Start = nowNs();
  Frame Resp;
  bool Ok = S.Client->submit(T, P.Source, P.Entry,
                             static_cast<uint8_t>(J.Engine), Resp, FuelSteps);
  Ok = Ok && Resp.Type == FrameType::SubmitAck &&
       S.Client->awaitResult(T, Resp, AwaitDeadlineNs) &&
       Resp.Type == FrameType::Result;
  Rec.End = nowNs();
  S.Trace.finish();
  Rec.RpcNs = S.Trace.RpcTotalNs - Rpc0;
  if (Ok) {
    Rec.Slices = Resp.Slices;
    Ok = FuelSteps != UINT64_MAX
             ? Resp.Stop ==
                   static_cast<uint8_t>(session::StopKind::FuelExhausted)
             : matches(Cat.Refs[J.Prog], J.Engine, Resp.Stop, Resp.Status,
                       Resp.Steps, Resp.Slices, Resp.Output);
  }
  if (!Ok)
    std::fprintf(stderr,
                 "perfbench: job %s on %s failed (frame %s, stop %u, "
                 "status %u, output \"%s\")\n",
                 P.Name.c_str(), engine::engineName(J.Engine),
                 frameTypeName(Resp.Type), Resp.Stop, Resp.Status,
                 Resp.Output.c_str());
  Rec.Ok = Ok;
  return Ok;
}

bool ServiceRig::warmUp(const std::vector<JobSpec> &Pairs) {
  const uint64_t FuelSteps = ServiceConfig().SliceSteps;
  std::atomic<bool> Ok{true};
  std::vector<std::thread> Threads;
  for (uint32_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (const JobSpec &J : Pairs) {
        JobRecord Rec;
        if (!runOne(C, J, FuelSteps, Rec))
          Ok = false;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  return Ok;
}

PhaseResult ServiceRig::run(const std::vector<JobSpec> &Jobs) {
  PhaseResult R;
  const ServiceStats Stats0 = FE->statsSnapshot();
  const TenantTotals Tenants0 = tenantTotals();
  std::vector<uint64_t> Attempts0;
  for (auto &S : Sides) {
    Attempts0.push_back(S->Client->clientStats().Attempts);
    S->Trace.Rpcs.clear();
    S->Trace.Bytes = 0;
  }
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (auto &C : Conns) {
      std::lock_guard<std::mutex> CL(C->Mu);
      C->Spans.clear();
    }
  }

  std::atomic<size_t> Next{0};
  std::vector<std::vector<JobRecord>> PerClient(Clients);
  const uint64_t Start = nowNs();
  std::vector<std::thread> Threads;
  for (uint32_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (;;) {
        const size_t I = Next.fetch_add(1);
        if (I >= Jobs.size())
          return;
        JobRecord Rec;
        Rec.Index = static_cast<uint32_t>(I);
        runOne(C, Jobs[I], UINT64_MAX, Rec);
        PerClient[C].push_back(Rec);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  uint64_t LastEnd = Start;
  for (auto &V : PerClient)
    for (const JobRecord &Rec : V) {
      R.Jobs.push_back(Rec);
      LastEnd = std::max(LastEnd, Rec.End);
      R.Failed += Rec.Ok ? 0 : 1;
    }
  std::sort(R.Jobs.begin(), R.Jobs.end(),
            [](const JobRecord &A, const JobRecord &B) {
              return A.Index < B.Index;
            });
  R.WallNs = LastEnd - Start;
  R.Stats = minus(FE->statsSnapshot(), Stats0);
  const TenantTotals Tenants1 = tenantTotals();
  R.Tenants.Slices = Tenants1.Slices - Tenants0.Slices;
  R.Tenants.Dispatches = Tenants1.Dispatches - Tenants0.Dispatches;
  for (uint32_t C = 0; C < Clients; ++C)
    R.ClientAttempts +=
        Sides[C]->Client->clientStats().Attempts - Attempts0[C];
  if (Traced) {
    for (auto &S : Sides) {
      ClientTrace &T = S->Trace;
      R.Rpcs.insert(R.Rpcs.end(), T.Rpcs.begin(), T.Rpcs.end());
      R.WireBytes += T.Bytes;
      R.SampleRequests.insert(R.SampleRequests.end(), T.SampleRequests.begin(),
                              T.SampleRequests.end());
      R.SampleReplies.insert(R.SampleReplies.end(), T.SampleReplies.begin(),
                             T.SampleReplies.end());
    }
    std::lock_guard<std::mutex> L(ConnMu);
    for (auto &C : Conns) {
      std::lock_guard<std::mutex> CL(C->Mu);
      R.Server.insert(R.Server.end(), C->Spans.begin(), C->Spans.end());
    }
  }
  return R;
}

TenantTotals ServiceRig::tenantTotals() const {
  TenantTotals T;
  const metrics::Json Doc = FE->statsJson();
  const metrics::Json *Shards = Doc.find("shards");
  if (!Shards)
    return T;
  for (size_t S = 0; S < Shards->size(); ++S) {
    const metrics::Json *Ts = Shards->at(S).find("tenants");
    if (!Ts)
      continue;
    for (size_t I = 0; I < Ts->size(); ++I) {
      const metrics::Json &X = Ts->at(I);
      T.Slices += field(X, "slices");
      T.Dispatches += field(X, "dispatches");
    }
  }
  return T;
}

double ServiceRig::dispatchNs(const char *Key) const {
  const metrics::Json Doc = FE->statsJson();
  const metrics::Json *Shards = Doc.find("shards");
  double Worst = 0;
  for (size_t S = 0; Shards && S < Shards->size(); ++S)
    if (const metrics::Json *V = Shards->at(S).find(Key))
      Worst = std::max(Worst, V->asDouble());
  return Worst;
}
