//===-- service/Client.cpp - Retrying service client ----------------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include "service/Service.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace sc;
using namespace sc::service;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

ServiceClient::ServiceClient(Connector Connect, RetryPolicy Policy)
    : Connect(std::move(Connect)), Policy(Policy), Jitter(Policy.JitterSeed) {
  // Ids only need to be unique within this client's reply stream, but a
  // random start keeps two clients sharing a chaos transport from ever
  // colliding in tests that splice streams together.
  NextRequestId = Jitter.next() | 1;
}

ServiceClient::~ServiceClient() = default;

bool ServiceClient::ensureConnected() {
  if (Ch)
    return true;
  Ch = Connect();
  if (!Ch)
    return false;
  FB.reset();
  return true;
}

void ServiceClient::dropConnection() {
  if (!Ch)
    return;
  Ch.reset();
  FB.reset();
  ++Stats.Reconnects;
}

int ServiceClient::awaitReply(uint64_t Id, Frame &Resp, uint64_t TimeoutNs) {
  const uint64_t Start = nowNs();
  uint8_t Buf[16384];
  std::vector<uint8_t> Raw;
  for (;;) {
    ServiceError StreamErr;
    while (FB.next(Raw, StreamErr)) {
      Frame F;
      if (decodeFrame(Raw, F) != ServiceError::None) {
        // A sealed frame that fails validation: a reply corrupted in
        // flight. Skip it — the length prefix was sane, so the stream
        // itself is still in sync.
        ++Stats.DecodeErrors;
        continue;
      }
      if (F.RequestId != Id) {
        // The answer to a duplicated or reordered earlier attempt.
        // Delivering it would hand the caller a stale state snapshot
        // (e.g. a Pending from before the job finished); drop it.
        ++Stats.StaleReplies;
        continue;
      }
      Resp = std::move(F);
      return 1;
    }
    if (StreamErr != ServiceError::None)
      return -1; // torn prefix: reconnect is the only resync
    const uint64_t Elapsed = nowNs() - Start;
    if (Elapsed >= TimeoutNs)
      return 0;
    const int64_t N = Ch->recv(Buf, sizeof(Buf), TimeoutNs - Elapsed);
    if (N == 0)
      return -1; // peer gone
    if (N < 0)
      return 0; // timed out waiting
    FB.feed(Buf, static_cast<size_t>(N));
  }
}

void ServiceClient::backoff(unsigned Attempt, uint64_t HintNs,
                            uint64_t BudgetNs) {
  const unsigned Shift = std::min(Attempt, 20u);
  uint64_t Window =
      std::min(Policy.MaxBackoffNs, Policy.InitialBackoffNs << Shift);
  if (HintNs)
    Window = std::min(std::max(HintNs, Policy.InitialBackoffNs),
                      Policy.MaxBackoffNs);
  // Equal-parts jitter: [Window/2, Window]. De-synchronizes a herd of
  // clients that all got shed at the same instant.
  uint64_t Sleep = Window / 2 + Jitter.below(Window / 2 + 1);
  if (BudgetNs)
    Sleep = std::min(Sleep, BudgetNs);
  if (Sleep)
    std::this_thread::sleep_for(std::chrono::nanoseconds(Sleep));
}

bool ServiceClient::call(const Frame &Req, Frame &Resp,
                         uint64_t OpDeadlineNs) {
  ++Stats.Calls;
  const uint64_t Start = nowNs();
  const auto Remaining = [&]() -> uint64_t {
    if (!OpDeadlineNs)
      return UINT64_MAX;
    const uint64_t Elapsed = nowNs() - Start;
    return Elapsed >= OpDeadlineNs ? 0 : OpDeadlineNs - Elapsed;
  };
  Frame Attempt = Req;
  bool SawReject = false;
  Frame LastReject;
  for (unsigned A = 0; A < Policy.MaxAttempts; ++A) {
    if (A)
      ++Stats.Retries;
    if (Remaining() == 0)
      break;
    if (!ensureConnected()) {
      backoff(A, 0, Remaining());
      continue;
    }
    Attempt.RequestId = NextRequestId++;
    ++Stats.Attempts;
    if (!Ch->send(encodeFrame(Attempt))) {
      dropConnection();
      backoff(A, 0, Remaining());
      continue;
    }
    const uint64_t Timeout =
        std::min(Policy.AttemptTimeoutNs, std::max<uint64_t>(Remaining(), 1));
    const int R = awaitReply(Attempt.RequestId, Resp, Timeout);
    if (R < 0) {
      dropConnection();
      backoff(A, 0, Remaining());
      continue;
    }
    if (R == 0) {
      // No reply in time. The request may or may not have been acted on
      // — which is exactly why Submit carries an idempotency token.
      ++Stats.Timeouts;
      backoff(A, 0, Remaining());
      continue;
    }
    if (Resp.Type == FrameType::Reject) {
      ++Stats.Rejects;
      SawReject = true;
      LastReject = Resp;
      backoff(A, Resp.RetryAfterNs, Remaining());
      continue;
    }
    if (Resp.Type == FrameType::Error && isDecodeError(Resp.Err)) {
      // The server could not decode our frame: it never acted, retry.
      backoff(A, 0, Remaining());
      continue;
    }
    return true;
  }
  ++Stats.Failures;
  if (SawReject)
    Resp = LastReject; // let the caller see shedding, not just silence
  return false;
}

bool ServiceClient::submit(const JobTicket &T, const std::string &Source,
                           const std::string &Word, uint8_t Engine,
                           Frame &Resp, uint64_t FuelSteps,
                           uint64_t OpDeadlineNs) {
  Frame Req;
  Req.Type = FrameType::SubmitReq;
  Req.setTicket(T);
  Req.Source = Source;
  Req.Word = Word;
  Req.Engine = Engine;
  Req.FuelSteps = FuelSteps;
  // Deadline propagation: the job inherits the client's patience, so
  // the scheduler stops work whose requester has already walked away.
  Req.DeadlineNs = OpDeadlineNs;
  return call(Req, Resp, OpDeadlineNs);
}

bool ServiceClient::pollUntilResult(const Frame &Req, Frame &Resp,
                                    uint64_t OpDeadlineNs) {
  const uint64_t Start = nowNs();
  for (;;) {
    uint64_t Budget = 0;
    if (OpDeadlineNs) {
      const uint64_t Elapsed = nowNs() - Start;
      if (Elapsed >= OpDeadlineNs)
        return false;
      Budget = OpDeadlineNs - Elapsed;
    }
    if (!call(Req, Resp, Budget))
      return false;
    if (Resp.Type == FrameType::Result)
      return true;
    if (Resp.Type != FrameType::Pending)
      return false; // a typed refusal (Error or Reject); Resp says why
    const uint64_t Sleep =
        Policy.PollIntervalNs / 2 + Jitter.below(Policy.PollIntervalNs / 2 + 1);
    std::this_thread::sleep_for(std::chrono::nanoseconds(Sleep));
  }
}

bool ServiceClient::awaitResult(const JobTicket &T, Frame &Resp,
                                uint64_t OpDeadlineNs) {
  Frame Req;
  Req.Type = FrameType::PollReq;
  Req.setTicket(T);
  return pollUntilResult(Req, Resp, OpDeadlineNs);
}

bool ServiceClient::cancel(const JobTicket &T, Frame &Resp) {
  Frame Req;
  Req.Type = FrameType::CancelReq;
  Req.setTicket(T);
  return call(Req, Resp);
}

bool ServiceClient::stats(Frame &Resp) {
  Frame Req;
  Req.Type = FrameType::StatsReq;
  return call(Req, Resp);
}

//===----------------------------------------------------------------------===//
// Migration driver
//===----------------------------------------------------------------------===//

bool ServiceClient::offerMigration(const Frame &Offer, Frame &Resp,
                                   uint64_t OpDeadlineNs) {
  Frame Req = Offer;
  Req.Type = FrameType::MigrateOffer;
  if (!call(Req, Resp, OpDeadlineNs))
    return false;
  return Resp.Type == FrameType::MigrateAccept && Resp.Accepted == 1;
}

bool ServiceClient::commitMigration(const JobTicket &T, Frame &Resp,
                                    uint64_t OpDeadlineNs) {
  // MigrateCommit is idempotent on the ticket: the first one activates,
  // every later one polls. So this is awaitResult with commit frames —
  // re-sending never double-runs the job.
  Frame Req;
  Req.Type = FrameType::MigrateCommit;
  Req.setTicket(T);
  return pollUntilResult(Req, Resp, OpDeadlineNs);
}

MigrateOutcome sc::service::migrateJob(ServiceFrontEnd &Source,
                                       ServiceClient &Peer, const JobTicket &T,
                                       uint64_t OpDeadlineNs) {
  Frame Offer;
  if (!Source.extractForMigration(T, Offer))
    return MigrateOutcome::RanLocally;

  // The job is now escrowed on the source: nothing runs anywhere until
  // either the peer's commit activates it or abandonMigration re-admits
  // it locally. Abandon is safe up to (and including) a definitively
  // refused commit, because an inert adoption never executes.
  const auto Abandon = [&]() -> MigrateOutcome {
    for (int Tries = 0; Tries < 1000; ++Tries) {
      if (Source.abandonMigration(T))
        return MigrateOutcome::Abandoned;
      // Home shard mid-kill (or shutdown racing us): wait it out.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return MigrateOutcome::Torn;
  };

  Frame Resp;
  if (!Peer.offerMigration(Offer, Resp, OpDeadlineNs)) {
    // Refused, errored, or silent. Even if the offer actually landed and
    // only the accept was lost, the adoption is inert — no commit will
    // ever come from anyone but us — so abandoning is safe.
    return Abandon();
  }

  Frame Result;
  if (Peer.commitMigration(T, Result, OpDeadlineNs)) {
    Source.completeMigration(T, Result);
    return MigrateOutcome::Completed;
  }
  // A definitive refusal means the peer provably did not activate the
  // job: UnknownMigration (offer lost), Shutdown (gates closed before
  // activation), or a Reject (admission bounced it). All safe to
  // abandon. Anything else — transport silence after commits started
  // flowing — is ambiguous: the job may be running remotely, so the only
  // safe move is to leave it escrowed and let the caller retry.
  if ((Result.Type == FrameType::Error &&
       (Result.Err == ServiceError::UnknownMigration ||
        Result.Err == ServiceError::Shutdown)) ||
      Result.Type == FrameType::Reject)
    return Abandon();
  return MigrateOutcome::Torn;
}
