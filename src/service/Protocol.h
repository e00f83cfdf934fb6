//===-- service/Protocol.h - Execution-service wire protocol ---*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "sc-wire" binary protocol of the networked execution service:
/// length-prefixed, checksummed, versioned frames, in the same hardened
/// style as the sc-snap snapshot format (src/snapshot). Every frame is
///
///   [ 0.. 4) magic "SCW1"
///   [ 4.. 8) u32 format version (1 for the PR 9 frame types, 2 for the
///            migration family — see below)
///   [ 8..12) u32 total frame length in bytes (length prefix)
///   [12..13) u8  frame type
///   [13..16) reserved, written zero
///   [16..24) u64 request id (echoed verbatim in the response, so a
///            client can match replies to retries and discard the stale
///            duplicates a lossy transport produces)
///   [24..  ) type-specific payload (strings are u32 length + bytes)
///   [last 8) u64 FNV-1a checksum over every preceding byte
///
/// decodeFrame() never crashes, asserts, or allocates proportionally to
/// hostile length fields: every truncation, corruption, or inconsistency
/// gets a typed ServiceError (the frame-fuzz tests mutate every frame
/// type and require exactly that). FrameBuffer reassembles frames from
/// an arbitrarily fragmented byte stream (TCP) using the length prefix.
///
/// Request/response pairs (docs/SERVICE.md has the full contract):
///
///   Submit        -> SubmitAck | Reject | Result | Error
///   Poll          -> Result | Pending | Error
///   Cancel        -> Pending | Result | Error
///   Stats         -> StatsReply
///   MigrateOffer  -> MigrateAccept | Error          (v2)
///   MigrateCommit -> Pending | Result | Reject | Error  (v2)
///
/// Submit is idempotent on a JobTicket (tenant, token): a retried or
/// duplicated Submit frame attaches to the existing job instead of
/// creating a second one — the exactly-once keystone. The migration
/// family inherits the same discipline: a re-sent MigrateOffer for a
/// known ticket re-accepts it, and MigrateCommit is idempotent — the
/// first commit activates the adopted job, every retry polls it, and a
/// commit after completion returns the identical cached Result. Version
/// negotiation is per frame: both sides keep speaking the v1 types in
/// byte-identical v1 frames (a v1-only peer is unaffected until it sees
/// a migration frame, which it rejects as BadVersion), and the v2 types
/// must carry version 2 — a migration frame stamped v1 is BadVersion.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SERVICE_PROTOCOL_H
#define SC_SERVICE_PROTOCOL_H

#include "service/JobTicket.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sc::service {

/// Typed rejection reasons for hostile or malformed bytes, plus the
/// request-level error codes an Error frame carries. Decode-level values
/// mirror snapshot::SnapshotError; request-level values describe a
/// well-formed frame the service refuses to act on.
enum class ServiceError : uint8_t {
  None = 0,
  // --- decode level: the bytes are not a valid frame -------------------
  Truncated,      ///< buffer ends before the advertised layout does
  BadMagic,       ///< not an sc-wire frame at all
  BadVersion,     ///< a protocol version this build does not speak
  BadLength,      ///< length prefix or a string length disagrees
  BadChecksum,    ///< trailing FNV-1a mismatch (corruption in flight)
  BadFrameType,   ///< unknown frame type byte
  BadFieldValue,  ///< a field is internally inconsistent (enum out of
                  ///< range, flag not 0/1)
  Oversized,      ///< frame or string above the protocol caps
  // --- request level: valid frame, refused request ---------------------
  UnknownJob,     ///< Poll/Cancel for a (tenant, token) never submitted
  CompileFailed,  ///< the submitted program does not compile
  BadWord,        ///< the entry word does not exist in the program
  BadEngine,      ///< engine id out of range or not servable (an engine
                  ///< whose dispatches cannot run concurrently across
                  ///< shards is refused, not serialized process-wide)
  Shutdown,       ///< the service is shutting down
  BadSnapshot,      ///< a MigrateOffer's snapshot bytes failed to validate
  MigrateRefused,   ///< the adopter refuses this ticket outright (e.g. it
                    ///< already owns a live job with the same ticket)
  UnknownMigration, ///< MigrateCommit for a ticket never offered here —
                    ///< the offer was lost; the source may safely abandon
                    ///< and resume the job locally (nothing was executed)
  BadConfig,        ///< the front end was built over an invalid
                    ///< ServiceConfig and refuses all requests
};

const char *serviceErrorName(ServiceError E);

/// True for the decode-level values: the bytes themselves were bad, so a
/// client should treat the request as never-delivered (retryable).
bool isDecodeError(ServiceError E);

enum class FrameType : uint8_t {
  SubmitReq = 1, ///< submit a job (idempotent on tenant+token)
  PollReq = 2,   ///< ask for a job's result
  CancelReq = 3, ///< request cancellation of a job
  StatsReq = 4,  ///< ask for the service counter snapshot
  SubmitAck = 5, ///< job admitted (or duplicate of a live job)
  Reject = 6,    ///< overload backpressure: try again later
  Result = 7,    ///< final job result (exactly one per token)
  Pending = 8,   ///< poll answer: not done yet
  Error = 9,     ///< typed refusal (ServiceError + detail)
  StatsReply = 10, ///< service counters as a JSON document
  // --- protocol v2: live migration (frames below carry version 2) ------
  MigrateOffer = 11,  ///< ship a job: ticket, program, snapshot, heat
  MigrateAccept = 12, ///< offer answer: adopted (inert until commit) or
                      ///< refused-for-capacity with a retry hint
  MigrateCommit = 13, ///< activate the adopted job; idempotent on the
                      ///< ticket (replies Pending until done, then the
                      ///< cached Result forever)
};

const char *frameTypeName(FrameType T);

/// True for the frame types introduced by protocol v2; these are encoded
/// with format version 2 and rejected as BadVersion when stamped v1.
inline bool isMigrateFrame(FrameType T) {
  return T == FrameType::MigrateOffer || T == FrameType::MigrateAccept ||
         T == FrameType::MigrateCommit;
}

/// Why a Submit was shed. Carried in a Reject frame together with a
/// retry-after hint — the 429 of the protocol.
enum class RejectCode : uint8_t {
  TenantBusy = 1,      ///< per-tenant in-flight cap reached
  ShardSaturated = 2,  ///< the tenant's shard admission queue is full
  ShardDegraded = 3,   ///< the shard is over its in-flight high water
                       ///< and sheds new work to protect live jobs
  AdmissionClosed = 4, ///< drain/shutdown in progress
};

/// Protocol caps: a hostile 12-byte prefix cannot demand unbounded
/// allocation. Program sources and outputs above these are refused.
inline constexpr uint32_t MaxFrameBytes = 1u << 22;
inline constexpr uint32_t MaxStringBytes = 1u << 20;

/// Bytes of the fixed prefix (magic..request id); a stream reader needs
/// this many bytes to learn the total frame length.
inline constexpr size_t FramePrefixBytes = 24;

/// One decoded frame: the type tag plus every payload field any type
/// uses (unused fields keep their defaults; encode writes only the
/// fields of Type, decode fills only those).
struct Frame {
  FrameType Type = FrameType::SubmitReq;
  uint64_t RequestId = 0;

  // SubmitReq
  std::string Tenant;       ///< tenant key (also Poll/Cancel)
  uint64_t Token = 0;       ///< client-chosen job token (idempotency key)
  uint64_t DeadlineNs = 0;  ///< job deadline, relative; 0 = none
  uint64_t FuelSteps = UINT64_MAX; ///< guest-step budget
  uint8_t Engine = 0;       ///< engine::EngineId as u8
  std::string Source;       ///< Forth program text
  std::string Word;         ///< entry word name

  // SubmitAck
  uint8_t Duplicate = 0; ///< 1 when the token named an existing job
  uint32_t Shard = 0;    ///< shard the job lives on

  // Reject
  RejectCode Code = RejectCode::TenantBusy;
  uint64_t RetryAfterNs = 0; ///< server's backoff hint

  // Result
  uint8_t Stop = 0;    ///< session::StopKind as u8
  uint8_t Status = 0;  ///< vm::RunStatus as u8
  uint64_t Steps = 0;  ///< guest steps retired
  uint64_t Slices = 0; ///< engine entries
  std::string Output;  ///< everything the program printed

  // Pending
  uint8_t JobStateVal = 0; ///< sched::JobState as u8

  // Error
  ServiceError Err = ServiceError::None;
  std::string Detail;

  // StatsReply
  std::string StatsJson;

  // MigrateOffer (also reuses Tenant/Token/DeadlineNs/FuelSteps/Engine/
  // Source/Word from SubmitReq — an offer is a submit plus state)
  std::vector<uint8_t> Snapshot; ///< sc-snap bytes; empty = never ran,
                                 ///< the adopter starts the job fresh
  uint64_t HeatSteps = 0;        ///< tier heat earned at the source
  uint32_t TierRung = 0;         ///< ladder rung the job ran on

  // MigrateAccept
  uint8_t Accepted = 0; ///< 1 = adopted (inert until commit), 0 = refused
                        ///< for capacity; RetryAfterNs hints the backoff

  /// The job identity of any job-addressed frame (Tenant/Token fields).
  JobTicket ticket() const { return JobTicket(Tenant, Token); }
  void setTicket(const JobTicket &T) {
    Tenant = T.Tenant;
    Token = T.Token;
  }
};

/// Serializes \p F into a sealed wire frame (length prefix and checksum
/// written). Asserts (debug) if a string exceeds MaxStringBytes.
std::vector<uint8_t> encodeFrame(const Frame &F);

/// Validates \p Data end to end — magic, version, length prefix, string
/// lengths, enum ranges, checksum — and decodes into \p Out. On any
/// error \p Out is untouched and the typed reason is returned; hostile
/// bytes get a diagnosis, never UB (the frame fuzz tests pin this).
ServiceError decodeFrame(const uint8_t *Data, size_t N, Frame &Out);
ServiceError decodeFrame(const std::vector<uint8_t> &Data, Frame &Out);

/// The checksum decodeFrame verifies: FNV-1a 64 over all bytes before
/// the trailing checksum field. Exposed with resealFrame() so hostile-
/// input tests can craft *sealed* corruptions that reach the inner typed
/// rejections instead of stopping at BadChecksum.
uint64_t frameChecksum(const uint8_t *Data, size_t N);

/// Recomputes and rewrites the trailing checksum of \p F in place.
/// Testing support only; no production path ever reseals.
void resealFrame(std::vector<uint8_t> &F);

/// Best-effort request id of a frame too corrupt to decode: the raw
/// field if at least the fixed prefix is present, else 0. Lets an Error
/// response still name the request it answers when possible.
uint64_t peekRequestId(const uint8_t *Data, size_t N);

/// Reassembles whole frames from an arbitrarily fragmented byte stream.
/// feed() appends bytes; next() extracts the next complete frame's raw
/// bytes. A malformed prefix (bad magic/version/oversized length) poisons
/// the stream — with no trustworthy length there is nothing to resync on,
/// exactly like a real torn TCP write — and next() reports the typed
/// error until reset().
class FrameBuffer {
public:
  void feed(const uint8_t *Data, size_t N);
  void feed(const std::vector<uint8_t> &Data) { feed(Data.data(), Data.size()); }

  /// True: \p Out holds the raw bytes of one complete frame (still to be
  /// decodeFrame()d). False: no complete frame buffered; \p Err is None
  /// when more bytes may complete one, else the poison reason.
  bool next(std::vector<uint8_t> &Out, ServiceError &Err);

  /// Drops all buffered bytes and clears any poison (reconnect).
  void reset();

  size_t buffered() const { return Buf.size() - Pos; }

private:
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
  ServiceError Poison = ServiceError::None;
};

} // namespace sc::service

#endif // SC_SERVICE_PROTOCOL_H
