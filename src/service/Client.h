//===-- service/Client.h - Retrying service client -------------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the exactly-once contract. ServiceClient speaks
/// sc-wire over any Channel factory (TCP, a local pair, a chaos-wrapped
/// anything) and owns every unreliability concern so callers see a
/// plain request/response API:
///
///   - bounded retries with jittered exponential backoff (full jitter:
///     a uniformly random fraction of the doubling window, so a
///     thundering herd of retriers de-synchronizes itself);
///   - per-attempt timeouts and reconnection on any transport failure;
///   - request-id matching: every attempt carries a fresh id, and a
///     reply bearing any other id — the stale answer to a duplicated or
///     reordered earlier attempt — is discarded, not delivered;
///   - Reject handling: the server's retry-after hint caps the next
///     backoff, and Rejects consume retry budget like failures do;
///   - deadline propagation: an operation deadline bounds the *total*
///     time across all attempts, and submit() forwards the remaining
///     budget in the frame so the server stops jobs whose client has
///     already given up.
///
/// Retrying a Submit is safe by construction: the JobTicket key makes
/// the server attach duplicates to the original job, so "at least once"
/// transport delivery composes into exactly-once execution.
///
/// migrateJob() drives a live cross-process migration end to end:
/// extract from the source front end, MigrateOffer/MigrateCommit against
/// the peer, and exactly one of completeMigration / abandonMigration so
/// the job finishes exactly once no matter where the handshake tears.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SERVICE_CLIENT_H
#define SC_SERVICE_CLIENT_H

#include "service/Channel.h"
#include "service/Protocol.h"
#include "support/Rng.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace sc::service {

struct RetryPolicy {
  /// Attempts per call() — transport failures, timeouts, and Rejects
  /// all consume one. The call fails once the budget is gone.
  unsigned MaxAttempts = 10;
  uint64_t InitialBackoffNs = 500'000;  ///< first retry's window
  uint64_t MaxBackoffNs = 50'000'000;   ///< backoff growth cap
  uint64_t AttemptTimeoutNs = 250'000'000; ///< reply wait per attempt
  /// Polling cadence for awaitResult (between Pending answers).
  uint64_t PollIntervalNs = 200'000;
  uint64_t JitterSeed = 0x5eed;
};

/// What a call() spent; cumulative across calls. One client = one
/// logical caller (not thread-safe; make a client per thread).
struct ClientStats {
  uint64_t Calls = 0;
  uint64_t Attempts = 0;     ///< frames sent (>= Calls)
  uint64_t Retries = 0;      ///< attempts after the first
  uint64_t Reconnects = 0;   ///< channel rebuilds
  uint64_t Timeouts = 0;     ///< attempts that waited out AttemptTimeoutNs
  uint64_t Rejects = 0;      ///< Reject frames honored
  uint64_t StaleReplies = 0; ///< mismatched-request-id frames discarded
  uint64_t DecodeErrors = 0; ///< undecodable reply frames discarded
  uint64_t Failures = 0;     ///< calls that exhausted their budget
};

class ServiceClient {
public:
  using Connector = std::function<std::unique_ptr<Channel>()>;

  /// \p Connect builds a fresh channel to the service; it is invoked
  /// lazily and again after every transport failure.
  explicit ServiceClient(Connector Connect, RetryPolicy Policy = {});
  ~ServiceClient();

  /// Sends \p Req (Tenant/Token/payload fields as the caller set them;
  /// RequestId is overwritten per attempt) and delivers the matched
  /// reply into \p Resp. Retries transport failures, timeouts, decode-
  /// level Error replies, and Rejects within the budget; \p OpDeadlineNs
  /// (0 = none) bounds the whole affair. False when the budget or the
  /// deadline ran out — \p Resp then holds the last Reject if overload
  /// was the reason, so callers can distinguish shedding from silence.
  bool call(const Frame &Req, Frame &Resp, uint64_t OpDeadlineNs = 0);

  /// Submit sugar. Forwards the remaining operation deadline (when one
  /// is set) in the frame's DeadlineNs, propagating the client's
  /// patience to the scheduler's per-job deadline enforcement.
  bool submit(const JobTicket &T, const std::string &Source,
              const std::string &Word, uint8_t Engine, Frame &Resp,
              uint64_t FuelSteps = UINT64_MAX, uint64_t OpDeadlineNs = 0);

  /// Polls until Result (true), a non-retryable Error (false, Resp is
  /// the Error), or the deadline/budget runs dry (false).
  bool awaitResult(const JobTicket &T, Frame &Resp,
                   uint64_t OpDeadlineNs = 0);

  bool cancel(const JobTicket &T, Frame &Resp);
  bool stats(Frame &Resp);

  /// Sends a prepared MigrateOffer frame (from ServiceFrontEnd::
  /// extractForMigration). True only when the peer adopted the job
  /// (MigrateAccept with Accepted=1); \p Resp holds the reply either
  /// way, so a refusal's retry hint or typed error is inspectable.
  bool offerMigration(const Frame &Offer, Frame &Resp,
                      uint64_t OpDeadlineNs = 0);

  /// Activates the adopted job and polls the idempotent MigrateCommit
  /// until the peer hands back the final Result (true). False on a
  /// typed refusal (Resp is the Error/Reject — UnknownMigration means
  /// the offer was lost and abandoning is safe) or a spent deadline.
  bool commitMigration(const JobTicket &T, Frame &Resp,
                       uint64_t OpDeadlineNs = 0);

  const ClientStats &clientStats() const { return Stats; }
  const RetryPolicy &policy() const { return Policy; }

private:
  bool ensureConnected();
  void dropConnection();
  /// Waits for the reply to \p Id on the current channel. 1 = matched
  /// reply in \p Resp, 0 = timeout, -1 = transport dead.
  int awaitReply(uint64_t Id, Frame &Resp, uint64_t TimeoutNs);
  void backoff(unsigned Attempt, uint64_t HintNs, uint64_t BudgetNs);

  Connector Connect;
  RetryPolicy Policy;
  std::unique_ptr<Channel> Ch;
  FrameBuffer FB;
  Rng Jitter;
  uint64_t NextRequestId;
  ClientStats Stats;
};

class ServiceFrontEnd;

/// How a migrateJob() drive ended. Every outcome leaves the job with
/// exactly one owner; only Torn leaves it parked on the source (escrowed
/// checkpoint, polls answer Pending) for a later retry.
enum class MigrateOutcome {
  Completed,  ///< peer ran it; result landed via completeMigration
  RanLocally, ///< not extractable (job finished or was cancelled first);
              ///< it completes on the source like any other job
  Abandoned,  ///< peer refused or lost the offer; re-adopted locally
  Torn,       ///< no definitive answer within the deadline; the job
              ///< stays escrowed — retry migrateJob or abandon later
};

/// Drives one job's live migration: extract it from \p Source at its
/// next slice boundary, offer + commit it to the peer behind \p Peer,
/// then resolve the source record (completeMigration on success,
/// abandonMigration whenever that is provably safe). Abandon only ever
/// happens before a commit could have activated the job remotely, so no
/// tear can execute the job twice. \p OpDeadlineNs (0 = none) bounds
/// each peer call, not the whole drive.
MigrateOutcome migrateJob(ServiceFrontEnd &Source, ServiceClient &Peer,
                          const JobTicket &T, uint64_t OpDeadlineNs = 0);

} // namespace sc::service

#endif // SC_SERVICE_CLIENT_H
