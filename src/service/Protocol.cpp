//===-- service/Protocol.cpp - Execution-service wire protocol ------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/Assert.h"

#include <cstring>

using namespace sc;
using namespace sc::service;

namespace {

constexpr uint8_t Magic[4] = {'S', 'C', 'W', '1'};
constexpr uint32_t FormatVersionV1 = 1;
constexpr uint32_t FormatVersionV2 = 2;
constexpr size_t ChecksumBytes = 8;
constexpr size_t MinFrameBytes = FramePrefixBytes + ChecksumBytes;

/// Per-frame version negotiation: the PR 9 types stay byte-identical v1
/// frames (a v1-only peer keeps working until it meets a migration
/// frame), the migration family is v2-only.
uint32_t versionFor(FrameType T) {
  return isMigrateFrame(T) ? FormatVersionV2 : FormatVersionV1;
}

//===----------------------------------------------------------------------===//
// Little-endian writer (same conventions as src/snapshot)
//===----------------------------------------------------------------------===//

void put32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (I * 8)));
}

void put64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (I * 8)));
}

void putStr(std::vector<uint8_t> &Out, const std::string &S) {
  SC_ASSERT(S.size() <= MaxStringBytes, "string exceeds the protocol cap");
  put32(Out, static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

void putBlob(std::vector<uint8_t> &Out, const std::vector<uint8_t> &B) {
  SC_ASSERT(B.size() <= MaxStringBytes, "blob exceeds the protocol cap");
  put32(Out, static_cast<uint32_t>(B.size()));
  Out.insert(Out.end(), B.begin(), B.end());
}

uint32_t get32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

uint64_t get64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = V << 8 | P[I];
  return V;
}

/// Bounds-checked cursor over the payload region. Every read either
/// succeeds or sets Err — no read past End, ever.
struct Reader {
  const uint8_t *P;
  const uint8_t *End;
  ServiceError Err = ServiceError::None;

  bool need(size_t N) {
    if (Err != ServiceError::None)
      return false;
    if (static_cast<size_t>(End - P) < N) {
      Err = ServiceError::BadLength; // payload shorter than its type needs
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!need(1))
      return 0;
    return *P++;
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = get32(P);
    P += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = get64(P);
    P += 8;
    return V;
  }
  std::string str() {
    const uint32_t N = u32();
    if (Err != ServiceError::None)
      return {};
    if (N > MaxStringBytes) {
      Err = ServiceError::Oversized;
      return {};
    }
    if (!need(N))
      return {};
    std::string S(reinterpret_cast<const char *>(P), N);
    P += N;
    return S;
  }
  std::vector<uint8_t> blob() {
    const uint32_t N = u32();
    if (Err != ServiceError::None)
      return {};
    if (N > MaxStringBytes) {
      Err = ServiceError::Oversized;
      return {};
    }
    if (!need(N))
      return {};
    std::vector<uint8_t> B(P, P + N);
    P += N;
    return B;
  }
  bool done() const { return Err == ServiceError::None && P == End; }
};

} // namespace

const char *sc::service::serviceErrorName(ServiceError E) {
  switch (E) {
  case ServiceError::None:
    return "ok";
  case ServiceError::Truncated:
    return "truncated frame";
  case ServiceError::BadMagic:
    return "bad magic";
  case ServiceError::BadVersion:
    return "unsupported protocol version";
  case ServiceError::BadLength:
    return "inconsistent length field";
  case ServiceError::BadChecksum:
    return "checksum mismatch";
  case ServiceError::BadFrameType:
    return "unknown frame type";
  case ServiceError::BadFieldValue:
    return "inconsistent field value";
  case ServiceError::Oversized:
    return "frame exceeds protocol cap";
  case ServiceError::UnknownJob:
    return "unknown job token";
  case ServiceError::CompileFailed:
    return "program failed to compile";
  case ServiceError::BadWord:
    return "unknown entry word";
  case ServiceError::BadEngine:
    return "engine not servable";
  case ServiceError::Shutdown:
    return "service shutting down";
  case ServiceError::BadSnapshot:
    return "snapshot failed to validate";
  case ServiceError::MigrateRefused:
    return "migration refused";
  case ServiceError::UnknownMigration:
    return "unknown migration ticket";
  case ServiceError::BadConfig:
    return "invalid service configuration";
  }
  sc::unreachable("bad service error");
}

bool sc::service::isDecodeError(ServiceError E) {
  switch (E) {
  case ServiceError::Truncated:
  case ServiceError::BadMagic:
  case ServiceError::BadVersion:
  case ServiceError::BadLength:
  case ServiceError::BadChecksum:
  case ServiceError::BadFrameType:
  case ServiceError::BadFieldValue:
  case ServiceError::Oversized:
    return true;
  default:
    return false;
  }
}

const char *sc::service::frameTypeName(FrameType T) {
  switch (T) {
  case FrameType::SubmitReq:
    return "submit";
  case FrameType::PollReq:
    return "poll";
  case FrameType::CancelReq:
    return "cancel";
  case FrameType::StatsReq:
    return "stats";
  case FrameType::SubmitAck:
    return "submit-ack";
  case FrameType::Reject:
    return "reject";
  case FrameType::Result:
    return "result";
  case FrameType::Pending:
    return "pending";
  case FrameType::Error:
    return "error";
  case FrameType::StatsReply:
    return "stats-reply";
  case FrameType::MigrateOffer:
    return "migrate-offer";
  case FrameType::MigrateAccept:
    return "migrate-accept";
  case FrameType::MigrateCommit:
    return "migrate-commit";
  }
  sc::unreachable("bad frame type");
}

uint64_t sc::service::frameChecksum(const uint8_t *Data, size_t N) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I < N; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::vector<uint8_t> sc::service::encodeFrame(const Frame &F) {
  std::vector<uint8_t> Out;
  Out.reserve(64 + F.Tenant.size() + F.Source.size() + F.Word.size() +
              F.Output.size() + F.Detail.size() + F.StatsJson.size() +
              F.Snapshot.size());
  Out.insert(Out.end(), Magic, Magic + 4);
  put32(Out, versionFor(F.Type));
  put32(Out, 0); // length prefix, patched below
  Out.push_back(static_cast<uint8_t>(F.Type));
  Out.push_back(0);
  Out.push_back(0);
  Out.push_back(0);
  put64(Out, F.RequestId);

  switch (F.Type) {
  case FrameType::SubmitReq:
    putStr(Out, F.Tenant);
    put64(Out, F.Token);
    put64(Out, F.DeadlineNs);
    put64(Out, F.FuelSteps);
    Out.push_back(F.Engine);
    putStr(Out, F.Source);
    putStr(Out, F.Word);
    break;
  case FrameType::PollReq:
  case FrameType::CancelReq:
    putStr(Out, F.Tenant);
    put64(Out, F.Token);
    break;
  case FrameType::StatsReq:
    break;
  case FrameType::SubmitAck:
    put64(Out, F.Token);
    Out.push_back(F.Duplicate);
    put32(Out, F.Shard);
    break;
  case FrameType::Reject:
    Out.push_back(static_cast<uint8_t>(F.Code));
    put64(Out, F.RetryAfterNs);
    break;
  case FrameType::Result:
    put64(Out, F.Token);
    Out.push_back(F.Stop);
    Out.push_back(F.Status);
    put64(Out, F.Steps);
    put64(Out, F.Slices);
    putStr(Out, F.Output);
    break;
  case FrameType::Pending:
    put64(Out, F.Token);
    Out.push_back(F.JobStateVal);
    break;
  case FrameType::Error:
    Out.push_back(static_cast<uint8_t>(F.Err));
    putStr(Out, F.Detail);
    break;
  case FrameType::StatsReply:
    putStr(Out, F.StatsJson);
    break;
  case FrameType::MigrateOffer:
    putStr(Out, F.Tenant);
    put64(Out, F.Token);
    put64(Out, F.DeadlineNs);
    put64(Out, F.FuelSteps);
    Out.push_back(F.Engine);
    putStr(Out, F.Source);
    putStr(Out, F.Word);
    put64(Out, F.HeatSteps);
    put32(Out, F.TierRung);
    putBlob(Out, F.Snapshot);
    break;
  case FrameType::MigrateAccept:
    put64(Out, F.Token);
    Out.push_back(F.Accepted);
    put64(Out, F.RetryAfterNs);
    break;
  case FrameType::MigrateCommit:
    putStr(Out, F.Tenant);
    put64(Out, F.Token);
    break;
  }

  const uint32_t Total = static_cast<uint32_t>(Out.size() + ChecksumBytes);
  SC_ASSERT(Total <= MaxFrameBytes, "frame exceeds the protocol cap");
  for (int I = 0; I < 4; ++I)
    Out[8 + I] = static_cast<uint8_t>(Total >> (I * 8));
  put64(Out, frameChecksum(Out.data(), Out.size()));
  return Out;
}

ServiceError sc::service::decodeFrame(const uint8_t *Data, size_t N,
                                      Frame &Out) {
  if (N < MinFrameBytes)
    return ServiceError::Truncated;
  if (std::memcmp(Data, Magic, 4) != 0)
    return ServiceError::BadMagic;
  const uint32_t Version = get32(Data + 4);
  if (Version != FormatVersionV1 && Version != FormatVersionV2)
    return ServiceError::BadVersion;
  const uint32_t Total = get32(Data + 8);
  if (Total > MaxFrameBytes)
    return ServiceError::Oversized;
  if (Total < MinFrameBytes || Total != N)
    return Total > N ? ServiceError::Truncated : ServiceError::BadLength;
  if (frameChecksum(Data, N - ChecksumBytes) != get64(Data + N - ChecksumBytes))
    return ServiceError::BadChecksum;
  if (Data[13] != 0 || Data[14] != 0 || Data[15] != 0)
    return ServiceError::BadFieldValue; // reserved bytes must be zero

  const uint8_t TypeByte = Data[12];
  if (TypeByte < static_cast<uint8_t>(FrameType::SubmitReq) ||
      TypeByte > static_cast<uint8_t>(FrameType::MigrateCommit))
    return ServiceError::BadFrameType;
  // Version negotiation: a migration frame stamped v1 is a peer speaking
  // a protocol it does not have — reject it the same way a v1 build
  // rejects the unknown version, so both sides see BadVersion.
  if (isMigrateFrame(static_cast<FrameType>(TypeByte)) &&
      Version < FormatVersionV2)
    return ServiceError::BadVersion;

  Frame F;
  F.Type = static_cast<FrameType>(TypeByte);
  F.RequestId = get64(Data + 16);

  Reader R{Data + FramePrefixBytes, Data + N - ChecksumBytes};
  switch (F.Type) {
  case FrameType::SubmitReq:
    F.Tenant = R.str();
    F.Token = R.u64();
    F.DeadlineNs = R.u64();
    F.FuelSteps = R.u64();
    F.Engine = R.u8();
    F.Source = R.str();
    F.Word = R.str();
    break;
  case FrameType::PollReq:
  case FrameType::CancelReq:
    F.Tenant = R.str();
    F.Token = R.u64();
    break;
  case FrameType::StatsReq:
    break;
  case FrameType::SubmitAck:
    F.Token = R.u64();
    F.Duplicate = R.u8();
    F.Shard = R.u32();
    if (R.Err == ServiceError::None && F.Duplicate > 1)
      R.Err = ServiceError::BadFieldValue;
    break;
  case FrameType::Reject: {
    const uint8_t C = R.u8();
    F.RetryAfterNs = R.u64();
    if (R.Err == ServiceError::None &&
        (C < static_cast<uint8_t>(RejectCode::TenantBusy) ||
         C > static_cast<uint8_t>(RejectCode::AdmissionClosed)))
      R.Err = ServiceError::BadFieldValue;
    F.Code = static_cast<RejectCode>(C);
    break;
  }
  case FrameType::Result:
    F.Token = R.u64();
    F.Stop = R.u8();
    F.Status = R.u8();
    F.Steps = R.u64();
    F.Slices = R.u64();
    F.Output = R.str();
    // StopKind and RunStatus are validated against their enum ranges so
    // a corrupted Result cannot smuggle an out-of-range discriminant
    // into a switch downstream.
    if (R.Err == ServiceError::None && (F.Stop > 6 || F.Status > 7))
      R.Err = ServiceError::BadFieldValue;
    break;
  case FrameType::Pending:
    F.Token = R.u64();
    F.JobStateVal = R.u8();
    if (R.Err == ServiceError::None && F.JobStateVal > 3)
      R.Err = ServiceError::BadFieldValue;
    break;
  case FrameType::Error: {
    const uint8_t E = R.u8();
    F.Detail = R.str();
    if (R.Err == ServiceError::None &&
        E > static_cast<uint8_t>(ServiceError::BadConfig))
      R.Err = ServiceError::BadFieldValue;
    F.Err = static_cast<ServiceError>(E);
    break;
  }
  case FrameType::StatsReply:
    F.StatsJson = R.str();
    break;
  case FrameType::MigrateOffer:
    F.Tenant = R.str();
    F.Token = R.u64();
    F.DeadlineNs = R.u64();
    F.FuelSteps = R.u64();
    F.Engine = R.u8();
    F.Source = R.str();
    F.Word = R.str();
    F.HeatSteps = R.u64();
    F.TierRung = R.u32();
    F.Snapshot = R.blob();
    // The rung indexes a promotion ladder (at most one rung per engine);
    // anything bigger is a corrupted or hostile field, not a ladder any
    // build of this project ever had.
    if (R.Err == ServiceError::None && F.TierRung > 31)
      R.Err = ServiceError::BadFieldValue;
    break;
  case FrameType::MigrateAccept:
    F.Token = R.u64();
    F.Accepted = R.u8();
    F.RetryAfterNs = R.u64();
    if (R.Err == ServiceError::None && F.Accepted > 1)
      R.Err = ServiceError::BadFieldValue;
    break;
  case FrameType::MigrateCommit:
    F.Tenant = R.str();
    F.Token = R.u64();
    break;
  }

  if (R.Err != ServiceError::None)
    return R.Err;
  if (!R.done())
    return ServiceError::BadLength; // trailing junk inside the seal
  Out = std::move(F);
  return ServiceError::None;
}

ServiceError sc::service::decodeFrame(const std::vector<uint8_t> &Data,
                                      Frame &Out) {
  return decodeFrame(Data.data(), Data.size(), Out);
}

void sc::service::resealFrame(std::vector<uint8_t> &F) {
  SC_ASSERT(F.size() >= MinFrameBytes, "too short to reseal");
  const uint64_t Sum = frameChecksum(F.data(), F.size() - ChecksumBytes);
  for (int I = 0; I < 8; ++I)
    F[F.size() - ChecksumBytes + I] = static_cast<uint8_t>(Sum >> (I * 8));
}

uint64_t sc::service::peekRequestId(const uint8_t *Data, size_t N) {
  return N >= FramePrefixBytes ? get64(Data + 16) : 0;
}

//===----------------------------------------------------------------------===//
// FrameBuffer
//===----------------------------------------------------------------------===//

void FrameBuffer::feed(const uint8_t *Data, size_t N) {
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (Pos > 4096 && Pos * 2 > Buf.size()) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Pos));
    Pos = 0;
  }
  Buf.insert(Buf.end(), Data, Data + N);
}

bool FrameBuffer::next(std::vector<uint8_t> &Out, ServiceError &Err) {
  Err = Poison;
  if (Poison != ServiceError::None)
    return false;
  const size_t Avail = Buf.size() - Pos;
  if (Avail < 12)
    return false; // need magic + version + length
  const uint8_t *P = Buf.data() + Pos;
  if (std::memcmp(P, Magic, 4) != 0) {
    Err = Poison = ServiceError::BadMagic;
    return false;
  }
  const uint32_t Version = get32(P + 4);
  if (Version != FormatVersionV1 && Version != FormatVersionV2) {
    Err = Poison = ServiceError::BadVersion;
    return false;
  }
  const uint32_t Total = get32(P + 8);
  if (Total > MaxFrameBytes || Total < MinFrameBytes) {
    Err = Poison = Total > MaxFrameBytes ? ServiceError::Oversized
                                         : ServiceError::BadLength;
    return false;
  }
  if (Avail < Total)
    return false; // more bytes may still arrive
  Out.assign(P, P + Total);
  Pos += Total;
  return true;
}

void FrameBuffer::reset() {
  Buf.clear();
  Pos = 0;
  Poison = ServiceError::None;
}
