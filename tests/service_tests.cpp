//===-- tests/service_tests.cpp - Execution service contracts -------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The networked execution service, pinned layer by layer:
///
///   - sc-wire framing: encode/decode roundtrips for every frame type,
///     typed rejection of every corruption class, and a mutation fuzz
///     over every frame type (the fuzzSnapshots pattern): any mutant
///     must draw a typed ServiceError or decode cleanly — never crash,
///     and never pass validation with a stale seal;
///   - FrameBuffer: reassembly from arbitrary fragmentation, and prefix
///     poisoning on garbage;
///   - ServiceFrontEnd: idempotent submit (exactly-once), typed request
///     errors, per-tenant and per-shard overload shedding (429-style
///     Rejects, shard by shard), cancellation, stats;
///   - crash recovery: killShard mid-job resumes from checkpoints with
///     exactly-once accounting;
///   - the chaos differential: a run over storm-chaosed channels with
///     scheduler crash injection and shard kills produces Result frames
///     field-for-field equal to an unchaosed run;
///   - ServiceClient: retries mask frame loss; the TCP server serves
///     real sockets.
///
//===----------------------------------------------------------------------===//

#include "forth/Forth.h"
#include "harness/FaultInject.h"
#include "prepare/PrepareCache.h"
#include "service/Client.h"
#include "service/Server.h"
#include "service/Service.h"
#include "session/VmSession.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace sc;
using namespace sc::service;

namespace {

//===----------------------------------------------------------------------===//
// sc-wire framing
//===----------------------------------------------------------------------===//

/// One fully-populated frame per type, with distinctive field values so
/// a cross-wired decode cannot pass by accident.
Frame sampleFrame(FrameType T) {
  Frame F;
  F.Type = T;
  F.RequestId = 0x1122334455667788ULL;
  switch (T) {
  case FrameType::SubmitReq:
    F.Tenant = "tenant-7";
    F.Token = 42;
    F.DeadlineNs = 5'000'000'000ULL;
    F.FuelSteps = 123456;
    F.Engine = 3;
    F.Source = ": main 1 2 + . ;";
    F.Word = "main";
    break;
  case FrameType::PollReq:
  case FrameType::CancelReq:
    F.Tenant = "tenant-7";
    F.Token = 42;
    break;
  case FrameType::StatsReq:
    break;
  case FrameType::SubmitAck:
    F.Duplicate = 1;
    F.Shard = 5;
    break;
  case FrameType::Reject:
    F.Code = RejectCode::ShardDegraded;
    F.RetryAfterNs = 2'000'000;
    break;
  case FrameType::Result:
    F.Stop = 1;
    F.Status = 2;
    F.Steps = 999;
    F.Slices = 7;
    F.Output = "3 ";
    break;
  case FrameType::Pending:
    F.JobStateVal = 2;
    break;
  case FrameType::Error:
    F.Err = ServiceError::UnknownJob;
    F.Detail = "no such job";
    break;
  case FrameType::StatsReply:
    F.StatsJson = "{\"submitted\": 3}";
    break;
  case FrameType::MigrateOffer:
    F.Tenant = "tenant-7";
    F.Token = 42;
    F.DeadlineNs = 5'000'000'000ULL;
    F.FuelSteps = 123456;
    F.Engine = 3;
    F.Source = ": main 1 2 + . ;";
    F.Word = "main";
    F.HeatSteps = 0xfeedbeef;
    F.TierRung = 2;
    F.Snapshot = {0x5c, 0x73, 0x6e, 0x61, 0x01, 0x00, 0xff, 0x7f};
    break;
  case FrameType::MigrateAccept:
    F.Token = 42;
    F.Accepted = 1;
    F.RetryAfterNs = 3'000'000;
    break;
  case FrameType::MigrateCommit:
    F.Tenant = "tenant-7";
    F.Token = 42;
    break;
  }
  return F;
}

const FrameType AllTypes[] = {
    FrameType::SubmitReq,    FrameType::PollReq,       FrameType::CancelReq,
    FrameType::StatsReq,     FrameType::SubmitAck,     FrameType::Reject,
    FrameType::Result,       FrameType::Pending,       FrameType::Error,
    FrameType::StatsReply,   FrameType::MigrateOffer,  FrameType::MigrateAccept,
    FrameType::MigrateCommit};

void expectSameFrame(const Frame &A, const Frame &B) {
  EXPECT_EQ(A.Type, B.Type);
  EXPECT_EQ(A.RequestId, B.RequestId);
  EXPECT_EQ(A.Tenant, B.Tenant);
  EXPECT_EQ(A.Token, B.Token);
  EXPECT_EQ(A.DeadlineNs, B.DeadlineNs);
  EXPECT_EQ(A.FuelSteps, B.FuelSteps);
  EXPECT_EQ(A.Engine, B.Engine);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.Word, B.Word);
  EXPECT_EQ(A.Duplicate, B.Duplicate);
  EXPECT_EQ(A.Shard, B.Shard);
  EXPECT_EQ(A.Code, B.Code);
  EXPECT_EQ(A.RetryAfterNs, B.RetryAfterNs);
  EXPECT_EQ(A.Stop, B.Stop);
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Slices, B.Slices);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.JobStateVal, B.JobStateVal);
  EXPECT_EQ(A.Err, B.Err);
  EXPECT_EQ(A.Detail, B.Detail);
  EXPECT_EQ(A.StatsJson, B.StatsJson);
  EXPECT_EQ(A.Snapshot, B.Snapshot);
  EXPECT_EQ(A.HeatSteps, B.HeatSteps);
  EXPECT_EQ(A.TierRung, B.TierRung);
  EXPECT_EQ(A.Accepted, B.Accepted);
}

TEST(Wire, RoundtripEveryFrameType) {
  for (FrameType T : AllTypes) {
    const Frame F = sampleFrame(T);
    const std::vector<uint8_t> Bytes = encodeFrame(F);
    Frame Back;
    ASSERT_EQ(decodeFrame(Bytes, Back), ServiceError::None)
        << frameTypeName(T);
    expectSameFrame(F, Back);
  }
}

TEST(Wire, TypedRejections) {
  const std::vector<uint8_t> Good = encodeFrame(sampleFrame(FrameType::SubmitReq));
  Frame Out;

  // Too short for even the fixed prefix.
  EXPECT_EQ(decodeFrame(Good.data(), 10, Out), ServiceError::Truncated);

  // Wrong magic.
  std::vector<uint8_t> M = Good;
  M[0] ^= 0xff;
  EXPECT_EQ(decodeFrame(M, Out), ServiceError::BadMagic);

  // Unknown version.
  std::vector<uint8_t> V = Good;
  V[4] = 99;
  EXPECT_EQ(decodeFrame(V, Out), ServiceError::BadVersion);

  // Length prefix above the protocol cap.
  std::vector<uint8_t> O = Good;
  O[8] = 0xff;
  O[9] = 0xff;
  O[10] = 0xff;
  O[11] = 0x7f;
  EXPECT_EQ(decodeFrame(O, Out), ServiceError::Oversized);

  // Length prefix larger than the buffer (a fragment).
  std::vector<uint8_t> T = Good;
  T[8] = static_cast<uint8_t>(Good.size() + 8);
  EXPECT_EQ(decodeFrame(T, Out), ServiceError::Truncated);

  // Flipped payload byte with a stale seal.
  std::vector<uint8_t> C = Good;
  C[30] ^= 1;
  EXPECT_EQ(decodeFrame(C, Out), ServiceError::BadChecksum);

  // Unknown frame type, properly resealed.
  std::vector<uint8_t> F = Good;
  F[12] = 77;
  resealFrame(F);
  EXPECT_EQ(decodeFrame(F, Out), ServiceError::BadFrameType);

  // Nonzero reserved bytes, properly resealed.
  std::vector<uint8_t> R = Good;
  R[13] = 1;
  resealFrame(R);
  EXPECT_EQ(decodeFrame(R, Out), ServiceError::BadFieldValue);

  // Out-of-range enum (SubmitAck.Duplicate = 2), properly resealed.
  std::vector<uint8_t> E = encodeFrame(sampleFrame(FrameType::SubmitAck));
  E[32] = 2; // Duplicate follows the u64 token in the payload
  resealFrame(E);
  EXPECT_EQ(decodeFrame(E, Out), ServiceError::BadFieldValue);

  // An untouched frame still decodes (the mutations copied).
  EXPECT_EQ(decodeFrame(Good, Out), ServiceError::None);
}

/// Per-frame version negotiation: the migration family is the protocol's
/// v2 extension; everything that existed before still goes out
/// byte-identical v1, and a migration frame stamped v1 is a peer
/// speaking a protocol it does not have.
TEST(Wire, MigrateFrameVersioning) {
  Frame Out;
  // Legacy frames stay v1 on the wire; migrate frames carry v2.
  for (FrameType T : AllTypes) {
    const std::vector<uint8_t> B = encodeFrame(sampleFrame(T));
    const uint32_t Version = static_cast<uint32_t>(B[4]) |
                             (static_cast<uint32_t>(B[5]) << 8) |
                             (static_cast<uint32_t>(B[6]) << 16) |
                             (static_cast<uint32_t>(B[7]) << 24);
    EXPECT_EQ(Version, isMigrateFrame(T) ? 2u : 1u) << frameTypeName(T);
  }

  // A migrate frame downgraded to v1 (and properly resealed, so this is
  // not a checksum rejection) draws BadVersion.
  for (FrameType T : {FrameType::MigrateOffer, FrameType::MigrateAccept,
                      FrameType::MigrateCommit}) {
    std::vector<uint8_t> B = encodeFrame(sampleFrame(T));
    B[4] = 1;
    resealFrame(B);
    EXPECT_EQ(decodeFrame(B, Out), ServiceError::BadVersion)
        << frameTypeName(T);
  }

  // A legacy frame stamped v2 still decodes: v2 only *adds* frame types.
  std::vector<uint8_t> Up = encodeFrame(sampleFrame(FrameType::PollReq));
  Up[4] = 2;
  resealFrame(Up);
  EXPECT_EQ(decodeFrame(Up, Out), ServiceError::None);

  // Hostile field values inside a well-sealed migrate frame are typed.
  Frame Rung = sampleFrame(FrameType::MigrateOffer);
  Rung.TierRung = 32; // no ladder this project ever had is that tall
  EXPECT_EQ(decodeFrame(encodeFrame(Rung), Out), ServiceError::BadFieldValue);
  Frame Acc = sampleFrame(FrameType::MigrateAccept);
  Acc.Accepted = 2; // not a boolean
  EXPECT_EQ(decodeFrame(encodeFrame(Acc), Out), ServiceError::BadFieldValue);
}

TEST(Wire, PeekRequestId) {
  const Frame F = sampleFrame(FrameType::PollReq);
  std::vector<uint8_t> Bytes = encodeFrame(F);
  EXPECT_EQ(peekRequestId(Bytes.data(), Bytes.size()), F.RequestId);
  // Corrupt payload: the id is still recoverable from the fixed prefix.
  Bytes.back() ^= 0xff;
  EXPECT_EQ(peekRequestId(Bytes.data(), Bytes.size()), F.RequestId);
  EXPECT_EQ(peekRequestId(Bytes.data(), 8), 0u);
}

/// The fuzzSnapshots pattern over sc-wire: mutate every frame type many
/// times — byte flips, truncations, junk extensions, zeroed spans — and
/// require a typed error or a clean decode, never a crash. Unsealed
/// mutants (any change under a now-stale checksum) must never decode.
TEST(Wire, MutationFuzzEveryFrameType) {
  Rng R(0xF0420ULL);
  uint64_t Rejected = 0, Accepted = 0;
  for (FrameType T : AllTypes) {
    const std::vector<uint8_t> Orig = encodeFrame(sampleFrame(T));
    for (int Round = 0; Round < 400; ++Round) {
      std::vector<uint8_t> Mut = Orig;
      const unsigned Kind = static_cast<unsigned>(R.below(4));
      switch (Kind) {
      case 0: // flip 1..4 bytes
        for (uint64_t I = 0, N = 1 + R.below(4); I < N; ++I)
          Mut[R.below(Mut.size())] ^=
              static_cast<uint8_t>(1 + R.below(255));
        break;
      case 1: // truncate
        Mut.resize(R.below(Mut.size()));
        break;
      case 2: // extend with junk
        for (uint64_t I = 0, N = 1 + R.below(16); I < N; ++I)
          Mut.push_back(static_cast<uint8_t>(R.below(256)));
        break;
      case 3: { // zero a span
        const size_t At = R.below(Mut.size());
        const size_t Len = 1 + R.below(Mut.size() - At);
        std::fill(Mut.begin() + At, Mut.begin() + At + Len, 0);
        break;
      }
      }
      const bool Resealed = R.chance(1, 2);
      if (Resealed && Mut.size() >= 32)
        resealFrame(Mut);
      Frame Out;
      const ServiceError E = decodeFrame(Mut, Out);
      if (E == ServiceError::None) {
        // Only a resealed mutant (or an identity mutation) may pass; a
        // stale seal passing validation would make the checksum theater.
        EXPECT_TRUE(Resealed || Mut == Orig) << frameTypeName(T);
        ++Accepted;
      } else {
        ++Rejected;
      }
    }
  }
  // The fuzz must actually exercise both sides of the contract.
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Accepted, 0u);
}

TEST(Wire, FrameBufferReassemblesFragmentedStream) {
  std::vector<uint8_t> Stream;
  std::vector<Frame> Sent;
  for (FrameType T :
       {FrameType::SubmitReq, FrameType::Result, FrameType::StatsReply}) {
    Sent.push_back(sampleFrame(T));
    const std::vector<uint8_t> B = encodeFrame(Sent.back());
    Stream.insert(Stream.end(), B.begin(), B.end());
  }
  // Feed a byte at a time: reassembly must not care about fragmentation.
  FrameBuffer FB;
  std::vector<Frame> Got;
  for (uint8_t Byte : Stream) {
    FB.feed(&Byte, 1);
    std::vector<uint8_t> Raw;
    ServiceError Err;
    while (FB.next(Raw, Err)) {
      Frame F;
      ASSERT_EQ(decodeFrame(Raw, F), ServiceError::None);
      Got.push_back(F);
    }
    ASSERT_EQ(Err, ServiceError::None);
  }
  ASSERT_EQ(Got.size(), Sent.size());
  for (size_t I = 0; I < Sent.size(); ++I)
    expectSameFrame(Sent[I], Got[I]);
  EXPECT_EQ(FB.buffered(), 0u);
}

TEST(Wire, FrameBufferPoisonsOnGarbagePrefix) {
  FrameBuffer FB;
  const uint8_t Junk[FramePrefixBytes] = {'n', 'o', 'p', 'e'};
  FB.feed(Junk, sizeof(Junk));
  std::vector<uint8_t> Raw;
  ServiceError Err;
  EXPECT_FALSE(FB.next(Raw, Err));
  EXPECT_EQ(Err, ServiceError::BadMagic);
  // Poison sticks: even good bytes after it are untrusted.
  const std::vector<uint8_t> Good = encodeFrame(sampleFrame(FrameType::PollReq));
  FB.feed(Good);
  EXPECT_FALSE(FB.next(Raw, Err));
  EXPECT_EQ(Err, ServiceError::BadMagic);
  // reset() is the reconnect: the stream is trustworthy again.
  FB.reset();
  FB.feed(Good);
  EXPECT_TRUE(FB.next(Raw, Err));
  EXPECT_EQ(Raw, Good);
}

//===----------------------------------------------------------------------===//
// ServiceFrontEnd request handling
//===----------------------------------------------------------------------===//

constexpr const char *ComputeSrc =
    R"(variable acc : main 0 acc ! 16 0 do i i * acc @ + acc ! loop acc @ . ;)";
constexpr const char *SpinSrc = ": main begin 1 drop again ;";
/// ComputeSrc's loop 2000 times over: about 26k guest steps, some 400
/// slice boundaries at 64-step slices. Checkpoints cost what a job wrote,
/// so a job's time in flight is its guest work; this one stays in flight
/// long enough for the rebalancer's marks to land on running jobs.
constexpr const char *RebalanceSrc =
    R"(variable acc : main 0 acc ! 2000 0 do i i * acc @ + acc ! loop acc @ . ;)";

Frame submitFrame(const std::string &Tenant, uint64_t Token,
                  const char *Source, uint64_t ReqId = 1,
                  uint8_t Engine = 0) {
  Frame F;
  F.Type = FrameType::SubmitReq;
  F.RequestId = ReqId;
  F.Tenant = Tenant;
  F.Token = Token;
  F.Source = Source;
  F.Word = "main";
  F.Engine = Engine;
  return F;
}

Frame pollFrame(const std::string &Tenant, uint64_t Token,
                uint64_t ReqId = 2) {
  Frame F;
  F.Type = FrameType::PollReq;
  F.RequestId = ReqId;
  F.Tenant = Tenant;
  F.Token = Token;
  return F;
}

/// Polls until Result (bounded), asserting on anything unexpected.
Frame awaitResult(ServiceFrontEnd &FE, const std::string &Tenant,
                  uint64_t Token) {
  for (int Spin = 0; Spin < 100000; ++Spin) {
    const Frame R = FE.handle(pollFrame(Tenant, Token));
    if (R.Type == FrameType::Result)
      return R;
    EXPECT_EQ(R.Type, FrameType::Pending);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ADD_FAILURE() << "job " << Tenant << "/" << Token << " never finished";
  return Frame{};
}

struct Reference {
  uint8_t Stop, Status;
  uint64_t Steps, Slices;
  std::string Output;
};

Reference referenceRun(const char *Src, uint64_t SliceSteps) {
  auto Sys = forth::loadOrDie(Src);
  prepare::PrepareCache Cache;
  auto PC = Cache.getOrPrepare(Sys->Prog, engine::EngineId{});
  vm::Vm Machine = Sys->Machine;
  session::SessionPolicy Pol;
  Pol.SliceSteps = SliceSteps;
  session::VmSession S(PC, Machine, Pol);
  const session::SessionResult R = S.run(Sys->entryOf("main"));
  return {static_cast<uint8_t>(R.Stop),
          static_cast<uint8_t>(R.Outcome.Status), R.Outcome.Steps, R.Slices,
          Machine.Out};
}

TEST(Service, SubmitRunsAndMatchesReference) {
  ServiceConfig Cfg;
  ServiceFrontEnd FE(Cfg);
  const Frame Ack = FE.handle(submitFrame("alice", 1, ComputeSrc, 11));
  ASSERT_EQ(Ack.Type, FrameType::SubmitAck);
  EXPECT_EQ(Ack.RequestId, 11u);
  EXPECT_EQ(Ack.Duplicate, 0u);
  EXPECT_EQ(Ack.Shard, FE.shardOf("alice"));

  const Frame R = awaitResult(FE, "alice", 1);
  const Reference Ref = referenceRun(ComputeSrc, Cfg.SliceSteps);
  EXPECT_EQ(R.Stop, Ref.Stop);
  EXPECT_EQ(R.Status, Ref.Status);
  EXPECT_EQ(R.Steps, Ref.Steps);
  EXPECT_EQ(R.Slices, Ref.Slices);
  EXPECT_EQ(R.Output, Ref.Output);
  FE.shutdown();
  EXPECT_EQ(FE.statsSnapshot().Completed, 1u);
}

TEST(Service, SubmitIsIdempotentOnTenantToken) {
  ServiceFrontEnd FE;
  ASSERT_EQ(FE.handle(submitFrame("a", 7, ComputeSrc)).Type,
            FrameType::SubmitAck);
  // A duplicate while live either attaches (SubmitAck{Duplicate=1}) or,
  // if the job already finished, serves the final Result directly.
  const Frame Dup = FE.handle(submitFrame("a", 7, ComputeSrc));
  if (Dup.Type == FrameType::SubmitAck)
    EXPECT_EQ(Dup.Duplicate, 1u);
  else
    EXPECT_EQ(Dup.Type, FrameType::Result);
  const Frame R1 = awaitResult(FE, "a", 7);

  // After completion every further duplicate serves the same Result.
  const Frame Dup2 = FE.handle(submitFrame("a", 7, ComputeSrc, 99));
  ASSERT_EQ(Dup2.Type, FrameType::Result);
  EXPECT_EQ(Dup2.RequestId, 99u);
  EXPECT_EQ(Dup2.Steps, R1.Steps);
  EXPECT_EQ(Dup2.Output, R1.Output);

  const ServiceStats S = FE.statsSnapshot();
  EXPECT_EQ(S.Submitted, 1u);
  EXPECT_EQ(S.Duplicates, 2u);
  EXPECT_EQ(S.Completed, 1u);
  FE.shutdown();
}

TEST(Service, TypedRequestErrors) {
  ServiceFrontEnd FE;
  // Poll/Cancel for a never-submitted token.
  EXPECT_EQ(FE.handle(pollFrame("ghost", 1)).Err, ServiceError::UnknownJob);
  Frame C = pollFrame("ghost", 1);
  C.Type = FrameType::CancelReq;
  EXPECT_EQ(FE.handle(C).Err, ServiceError::UnknownJob);

  // A program that does not compile.
  const Frame E1 = FE.handle(submitFrame("a", 1, ": main unknown-word ;"));
  ASSERT_EQ(E1.Type, FrameType::Error);
  EXPECT_EQ(E1.Err, ServiceError::CompileFailed);
  EXPECT_FALSE(E1.Detail.empty());

  // A missing entry word.
  Frame BadWord = submitFrame("a", 2, ": other 1 . ;");
  BadWord.Word = "main";
  const Frame E2 = FE.handle(BadWord);
  ASSERT_EQ(E2.Type, FrameType::Error);
  EXPECT_EQ(E2.Err, ServiceError::BadWord);

  // An engine id out of range.
  Frame BadEng = submitFrame("a", 3, ComputeSrc);
  BadEng.Engine = 250;
  EXPECT_EQ(FE.handle(BadEng).Err, ServiceError::BadEngine);

  // A response-typed frame is not a request.
  Frame NotReq = sampleFrame(FrameType::Result);
  EXPECT_EQ(FE.handle(NotReq).Err, ServiceError::BadFrameType);

  // Failed submits must not count as admissions or leak in-flight slots.
  EXPECT_EQ(FE.statsSnapshot().Submitted, 0u);
  FE.shutdown();
}

TEST(Service, NonReentrantEngineRefused) {
  int NonReentrant = -1;
  for (unsigned E = 0; E < engine::NumEngineIds; ++E)
    if (!engine::engineInfo(static_cast<engine::EngineId>(E)).Caps.Reentrant) {
      NonReentrant = static_cast<int>(E);
      break;
    }
  if (NonReentrant < 0)
    GTEST_SKIP() << "every engine is reentrant in this build";
  ServiceFrontEnd FE;
  Frame F = submitFrame("a", 1, ComputeSrc);
  F.Engine = static_cast<uint8_t>(NonReentrant);
  const Frame R = FE.handle(F);
  ASSERT_EQ(R.Type, FrameType::Error);
  EXPECT_EQ(R.Err, ServiceError::BadEngine);
  FE.shutdown();
}

TEST(Service, PerTenantInFlightCapSheds) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxInFlightPerTenant = 2;
  ServiceFrontEnd FE(Cfg);
  // Two spins fill the tenant's cap; the third must be shed with the
  // 429-style Reject carrying the configured retry-after hint.
  ASSERT_EQ(FE.handle(submitFrame("t", 1, SpinSrc)).Type,
            FrameType::SubmitAck);
  ASSERT_EQ(FE.handle(submitFrame("t", 2, SpinSrc)).Type,
            FrameType::SubmitAck);
  const Frame R = FE.handle(submitFrame("t", 3, SpinSrc));
  ASSERT_EQ(R.Type, FrameType::Reject);
  EXPECT_EQ(R.Code, RejectCode::TenantBusy);
  EXPECT_EQ(R.RetryAfterNs, Cfg.RetryAfterNs);

  // A different tenant is not affected by t's cap.
  ASSERT_EQ(FE.handle(submitFrame("u", 1, ComputeSrc)).Type,
            FrameType::SubmitAck);

  // Cancel the spins; both must finish Cancelled, freeing the cap.
  for (uint64_t Tok : {1, 2}) {
    Frame C = pollFrame("t", Tok);
    C.Type = FrameType::CancelReq;
    FE.handle(C);
  }
  for (uint64_t Tok : {1, 2}) {
    const Frame Done = awaitResult(FE, "t", Tok);
    EXPECT_EQ(Done.Stop, static_cast<uint8_t>(session::StopKind::Cancelled));
  }
  EXPECT_EQ(FE.handle(submitFrame("t", 3, ComputeSrc)).Type,
            FrameType::SubmitAck);
  awaitResult(FE, "t", 3);
  awaitResult(FE, "u", 1);
  const ServiceStats S = FE.statsSnapshot();
  EXPECT_EQ(S.RejectedBusy, 1u);
  EXPECT_EQ(S.Cancels, 2u);
  FE.shutdown();
}

TEST(Service, ShardHighWaterShedsPerShard) {
  ServiceConfig Cfg;
  Cfg.Shards = 2;
  Cfg.MaxInFlightPerTenant = 100;
  Cfg.TenantQueueCapacity = 100;
  Cfg.ShardHighWater = 1;
  ServiceFrontEnd FE(Cfg);
  // Find two tenants on different shards.
  std::string A = "a", B;
  for (int I = 0; B.empty(); ++I) {
    std::string T = "b" + std::to_string(I);
    if (FE.shardOf(T) != FE.shardOf(A))
      B = T;
  }
  ASSERT_EQ(FE.handle(submitFrame(A, 1, SpinSrc)).Type, FrameType::SubmitAck);
  // A's shard is at its high water: more work there is shed...
  const Frame R = FE.handle(submitFrame(A, 2, ComputeSrc));
  ASSERT_EQ(R.Type, FrameType::Reject);
  EXPECT_EQ(R.Code, RejectCode::ShardDegraded);
  // ...but the sibling shard keeps admitting: degradation is per shard.
  ASSERT_EQ(FE.handle(submitFrame(B, 1, ComputeSrc)).Type,
            FrameType::SubmitAck);
  awaitResult(FE, B, 1);

  Frame C = pollFrame(A, 1);
  C.Type = FrameType::CancelReq;
  FE.handle(C);
  awaitResult(FE, A, 1);
  FE.shutdown();
}

TEST(Service, ShutdownClosesAdmissionButServesResults) {
  ServiceFrontEnd FE;
  ASSERT_EQ(FE.handle(submitFrame("a", 1, ComputeSrc)).Type,
            FrameType::SubmitAck);
  const Frame R1 = awaitResult(FE, "a", 1);
  FE.shutdown();
  // Admission is closed with a typed Reject...
  const Frame R = FE.handle(submitFrame("a", 2, ComputeSrc));
  ASSERT_EQ(R.Type, FrameType::Reject);
  EXPECT_EQ(R.Code, RejectCode::AdmissionClosed);
  // ...but completed results stay pollable (the client may still be
  // retrying its poll through a flaky link).
  const Frame Again = FE.handle(pollFrame("a", 1));
  ASSERT_EQ(Again.Type, FrameType::Result);
  EXPECT_EQ(Again.Output, R1.Output);
  // Idempotent.
  FE.shutdown();
}

TEST(Service, StatsReplyCarriesParsableJson) {
  ServiceFrontEnd FE;
  ASSERT_EQ(FE.handle(submitFrame("a", 1, ComputeSrc)).Type,
            FrameType::SubmitAck);
  awaitResult(FE, "a", 1);
  Frame Req;
  Req.Type = FrameType::StatsReq;
  Req.RequestId = 5;
  const Frame R = FE.handle(Req);
  ASSERT_EQ(R.Type, FrameType::StatsReply);
  metrics::Json Doc;
  ASSERT_TRUE(metrics::Json::parse(R.StatsJson, Doc, nullptr)) << R.StatsJson;
  // And the convenience accessor agrees with the wire form.
  const metrics::Json Direct = FE.statsJson();
  EXPECT_FALSE(Direct.dump().empty());
  FE.shutdown();
}

//===----------------------------------------------------------------------===//
// Crash recovery and the chaos differential
//===----------------------------------------------------------------------===//

TEST(Service, KillShardRecoversLiveJobsExactlyOnce) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  ServiceFrontEnd FE(Cfg);
  const Reference Ref = referenceRun(ComputeSrc, Cfg.SliceSteps);
  // A fleet of jobs, killed under them repeatedly while they run.
  constexpr uint64_t Jobs = 24;
  for (uint64_t I = 0; I < Jobs; ++I)
    ASSERT_EQ(FE.handle(submitFrame("t", I + 1, ComputeSrc)).Type,
              FrameType::SubmitAck);
  FE.killShard(0);
  FE.killShard(0);
  for (uint64_t I = 0; I < Jobs; ++I) {
    const Frame R = awaitResult(FE, "t", I + 1);
    EXPECT_EQ(R.Stop, Ref.Stop) << I;
    EXPECT_EQ(R.Status, Ref.Status) << I;
    EXPECT_EQ(R.Steps, Ref.Steps) << I;
    EXPECT_EQ(R.Slices, Ref.Slices) << I;
    EXPECT_EQ(R.Output, Ref.Output) << I;
  }
  const ServiceStats S = FE.statsSnapshot();
  EXPECT_EQ(S.Submitted, Jobs);
  EXPECT_EQ(S.Completed, Jobs);
  EXPECT_EQ(S.ShardKills, 2u);
  FE.shutdown();
}

TEST(Service, CancelSurvivesShardKill) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  ServiceFrontEnd FE(Cfg);
  ASSERT_EQ(FE.handle(submitFrame("t", 1, SpinSrc)).Type,
            FrameType::SubmitAck);
  Frame C = pollFrame("t", 1);
  C.Type = FrameType::CancelReq;
  FE.handle(C);
  // The kill rebuilds the job from its checkpoint; the user's cancel
  // must be re-applied to the revived job, or it would spin forever.
  FE.killShard(0);
  const Frame R = awaitResult(FE, "t", 1);
  EXPECT_EQ(R.Stop, static_cast<uint8_t>(session::StopKind::Cancelled));
  FE.shutdown();
}

/// Faults injected over a run, summed across every channel of it.
struct FaultTally {
  std::mutex Mu;
  ChaosChannel::Injected Sum;
};

/// A ChaosChannel that adds the faults it injected to a FaultTally when
/// it is destroyed (a client drops its channel on every reconnect).
class TalliedChaosChannel : public ChaosChannel {
public:
  TalliedChaosChannel(std::unique_ptr<Channel> Inner, ChaosConfig Config,
                      FaultTally &Tally)
      : ChaosChannel(std::move(Inner), Config), Tally(Tally) {}
  ~TalliedChaosChannel() override {
    const Injected I = injected();
    std::lock_guard<std::mutex> L(Tally.Mu);
    Tally.Sum.Drops += I.Drops;
    Tally.Sum.Dups += I.Dups;
    Tally.Sum.Truncations += I.Truncations;
    Tally.Sum.Reorders += I.Reorders;
    Tally.Sum.Delays += I.Delays;
  }

private:
  FaultTally &Tally;
};

/// Drives \p Jobs jobs through clients over chaos-wrapped local
/// channels and returns every Result frame, keyed by token. Tenants
/// cycle through \p TenantCount names; 1 concentrates the whole load on
/// one shard (the skew the rebalancer exists for). \p StatsOut, when
/// set, receives the post-shutdown service counters. Every job runs
/// \p Source.
std::map<uint64_t, Frame>
chaosRun(ServiceConfig Cfg, ChaosConfig Chaos, uint64_t Kills, uint64_t Jobs,
         unsigned ClientThreads, unsigned TenantCount = 3,
         ServiceStats *StatsOut = nullptr, bool Pipeline = false,
         const char *Source = ComputeSrc) {
  ServiceFrontEnd FE(Cfg);
  std::vector<std::thread> ServerThreads;
  std::mutex HostMu;
  std::atomic<uint64_t> Conns{0};
  FaultTally Faults;
  auto Connector = [&]() -> std::unique_ptr<Channel> {
    auto [Cli, Srv] = makeLocalPair();
    std::unique_ptr<Channel> S = std::move(Srv), C = std::move(Cli);
    const uint64_t N = Conns.fetch_add(1) + 1;
    if (Chaos.enabled()) {
      ChaosConfig SC = Chaos;
      SC.Seed = Chaos.Seed ^ (0x9e3779b97f4a7c15ULL * N);
      S = std::make_unique<TalliedChaosChannel>(std::move(S), SC, Faults);
      ChaosConfig CC = Chaos;
      CC.Seed = Chaos.Seed ^ (0xbf58476d1ce4e5b9ULL * N);
      C = std::make_unique<TalliedChaosChannel>(std::move(C), CC, Faults);
    }
    std::lock_guard<std::mutex> L(HostMu);
    ServerThreads.emplace_back(
        [&FE, Ch = std::move(S)]() mutable { serveChannel(FE, *Ch); });
    return C;
  };

  std::atomic<uint64_t> Done{0};
  std::atomic<bool> Stop{false};
  std::thread Killer;
  if (Kills)
    Killer = std::thread([&] {
      for (uint64_t K = 0; K < Kills && !Stop.load(); ++K) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        FE.killShard(static_cast<unsigned>(K % Cfg.Shards));
      }
    });

  std::mutex ResMu;
  std::map<uint64_t, Frame> Results;
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < ClientThreads; ++W)
    Workers.emplace_back([&, W] {
      RetryPolicy Pol;
      Pol.JitterSeed = 0xc0ffee + W;
      Pol.MaxAttempts = 40;
      Pol.AttemptTimeoutNs = 100'000'000;
      ServiceClient Client(Connector, Pol);
      const std::string Tenant =
          "tenant-" + std::to_string(W % TenantCount);
      auto SubmitOne = [&](uint64_t Token) {
        const JobTicket Ticket{Tenant, Token};
        Frame Resp;
        const uint64_t Start =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
        while (!Client.submit(Ticket, Source, "main", 0, Resp)) {
          const uint64_t Now =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
          ASSERT_LT(Now - Start, 120'000'000'000ULL) << "submit wedged";
        }
        ASSERT_NE(Resp.Type, FrameType::Error);
      };
      auto AwaitOne = [&](uint64_t Token) {
        const JobTicket Ticket{Tenant, Token};
        Frame Resp;
        ASSERT_TRUE(Client.awaitResult(Ticket, Resp, 120'000'000'000ULL));
        std::lock_guard<std::mutex> L(ResMu);
        Results.emplace(Token, Resp);
        Done.fetch_add(1);
      };
      if (Pipeline) {
        // Submit everything first: the backlog is the skew that makes
        // the rebalancer fire, and is impossible with one-at-a-time.
        for (uint64_t I = W; I < Jobs; I += ClientThreads)
          SubmitOne(I + 1);
        for (uint64_t I = W; I < Jobs; I += ClientThreads)
          AwaitOne(I + 1);
      } else {
        for (uint64_t I = W; I < Jobs; I += ClientThreads) {
          SubmitOne(I + 1);
          AwaitOne(I + 1);
        }
      }
    });
  for (std::thread &T : Workers)
    T.join();
  Stop.store(true);
  if (Killer.joinable())
    Killer.join();
  FE.shutdown();

  const ServiceStats S = FE.statsSnapshot();
  EXPECT_EQ(S.Submitted, Jobs);
  EXPECT_EQ(S.Completed, Jobs);
  if (StatsOut)
    *StatsOut = S;

  {
    std::lock_guard<std::mutex> L(HostMu);
    // Workers are gone, so their channels are destroyed and every server
    // loop has seen its stream close.
    for (std::thread &T : ServerThreads)
      T.join();
  }
  // Every channel is destroyed now, so the tally is complete: the storm
  // must actually have stormed, each enabled fault class at least once.
  const ChaosChannel::Injected &I = Faults.Sum;
  EXPECT_TRUE(!Chaos.DropPerMille || I.Drops) << "no frame dropped";
  EXPECT_TRUE(!Chaos.DupPerMille || I.Dups) << "no frame duplicated";
  EXPECT_TRUE(!Chaos.TruncatePerMille || I.Truncations) << "no write torn";
  EXPECT_TRUE(!Chaos.ReorderPerMille || I.Reorders) << "no frame reordered";
  EXPECT_TRUE(!Chaos.DelayPerMille || I.Delays) << "no frame delayed";
  return Results;
}

/// The service contract's headline: a run under transport storm, crash
/// injection, and shard kills is field-for-field equal to a clean run.
TEST(Service, ChaosDifferentialFieldForField) {
  constexpr uint64_t Jobs = 48;
  ServiceConfig Clean;
  const std::map<uint64_t, Frame> Baseline =
      chaosRun(Clean, ChaosConfig{}, 0, Jobs, 3);
  ASSERT_EQ(Baseline.size(), Jobs);

  ServiceConfig Stormy;
  Stormy.CrashOneIn = 120;
  const std::map<uint64_t, Frame> Stormed =
      chaosRun(Stormy, ChaosConfig::storm(0xD1CEULL), 4, Jobs, 3);
  ASSERT_EQ(Stormed.size(), Jobs);

  for (const auto &[Token, Ref] : Baseline) {
    const Frame &Got = Stormed.at(Token);
    EXPECT_EQ(Got.Stop, Ref.Stop) << Token;
    EXPECT_EQ(Got.Status, Ref.Status) << Token;
    EXPECT_EQ(Got.Steps, Ref.Steps) << Token;
    EXPECT_EQ(Got.Slices, Ref.Slices) << Token;
    EXPECT_EQ(Got.Output, Ref.Output) << Token;
  }
}

//===----------------------------------------------------------------------===//
// Client retries and the TCP front door
//===----------------------------------------------------------------------===//

TEST(Client, RetriesMaskFrameLoss) {
  ServiceFrontEnd FE;
  std::vector<std::thread> ServerThreads;
  std::mutex HostMu;
  std::atomic<uint64_t> Conns{0};
  ChaosConfig Lossy;
  Lossy.Seed = 0x10551;
  Lossy.DropPerMille = 250; // drops only: no reconnects needed
  auto Connector = [&]() -> std::unique_ptr<Channel> {
    auto [Cli, Srv] = makeLocalPair();
    const uint64_t N = Conns.fetch_add(1) + 1;
    ChaosConfig SC = Lossy;
    SC.Seed = Lossy.Seed ^ (31 * N);
    auto S = std::make_unique<ChaosChannel>(std::move(Srv), SC);
    ChaosConfig CC = Lossy;
    CC.Seed = Lossy.Seed ^ (77 * N);
    auto C = std::make_unique<ChaosChannel>(std::move(Cli), CC);
    std::lock_guard<std::mutex> L(HostMu);
    ServerThreads.emplace_back(
        [&FE, Ch = std::move(S)]() mutable { serveChannel(FE, *Ch); });
    return C;
  };
  {
    RetryPolicy Pol;
    Pol.MaxAttempts = 30;
    Pol.AttemptTimeoutNs = 50'000'000;
    ServiceClient Client(Connector, Pol);
    for (uint64_t I = 0; I < 20; ++I) {
      const JobTicket T{"t", I + 1};
      Frame Resp;
      ASSERT_TRUE(Client.submit(T, ComputeSrc, "main", 0, Resp));
      ASSERT_TRUE(Client.awaitResult(T, Resp, 60'000'000'000ULL));
      EXPECT_EQ(Resp.Type, FrameType::Result);
    }
    // A 25%-loss channel cannot serve 40+ calls without retrying.
    EXPECT_GT(Client.clientStats().Retries, 0u);
  }
  FE.shutdown();
  std::lock_guard<std::mutex> L(HostMu);
  for (std::thread &T : ServerThreads)
    T.join();
}

TEST(Server, ServesRealSockets) {
  ServiceFrontEnd FE;
  ServiceServer Srv(FE, 0);
  ASSERT_NE(Srv.port(), 0) << "could not bind a loopback listener";
  const uint16_t Port = Srv.port();
  ServiceClient Client([Port] { return connectTcp(Port); });
  const JobTicket T{"tcp-tenant", 1};
  Frame Resp;
  ASSERT_TRUE(Client.submit(T, ComputeSrc, "main", 0, Resp));
  EXPECT_EQ(Resp.Type, FrameType::SubmitAck);
  ASSERT_TRUE(Client.awaitResult(T, Resp, 60'000'000'000ULL));
  const Reference Ref = referenceRun(ComputeSrc, FE.config().SliceSteps);
  EXPECT_EQ(Resp.Steps, Ref.Steps);
  EXPECT_EQ(Resp.Output, Ref.Output);
  ASSERT_TRUE(Client.stats(Resp));
  ASSERT_EQ(Resp.Type, FrameType::StatsReply);
  metrics::Json Doc;
  EXPECT_TRUE(metrics::Json::parse(Resp.StatsJson, Doc, nullptr));
  Srv.stop();
  FE.shutdown();
}

/// A server fed raw garbage must answer with typed Error frames and
/// poison-or-survive, never crash — the transport-level complement of
/// the decode fuzz.
TEST(Server, HostileBytesGetTypedErrors) {
  ServiceFrontEnd FE;
  ServiceServer Srv(FE, 0);
  ASSERT_NE(Srv.port(), 0);
  // A sealed-but-invalid frame first: decodable prefix, typed answer.
  {
    auto Ch = connectTcp(Srv.port());
    ASSERT_NE(Ch, nullptr);
    std::vector<uint8_t> Bad = encodeFrame(sampleFrame(FrameType::SubmitReq));
    Bad[12 + 12] ^= 0x55; // corrupt payload, stale seal
    ASSERT_TRUE(Ch->send(Bad));
    FrameBuffer FB;
    uint8_t Buf[4096];
    Frame Err;
    bool GotReply = false;
    for (int Spin = 0; Spin < 100 && !GotReply; ++Spin) {
      const int64_t N = Ch->recv(Buf, sizeof(Buf), 1'000'000'000ULL);
      ASSERT_GT(N, 0);
      FB.feed(Buf, static_cast<size_t>(N));
      std::vector<uint8_t> Raw;
      ServiceError SE;
      while (FB.next(Raw, SE)) {
        ASSERT_EQ(decodeFrame(Raw, Err), ServiceError::None);
        GotReply = true;
      }
    }
    ASSERT_TRUE(GotReply);
    EXPECT_EQ(Err.Type, FrameType::Error);
    EXPECT_EQ(Err.Err, ServiceError::BadChecksum);
  }
  // Pure garbage: the server poisons the stream and hangs up; the
  // service must still be alive for the next well-behaved client.
  {
    auto Ch = connectTcp(Srv.port());
    ASSERT_NE(Ch, nullptr);
    const uint8_t Junk[64] = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_TRUE(Ch->send(Junk, sizeof(Junk)));
    uint8_t Buf[256];
    // Drain whatever Error frame precedes the hangup; expect EOF soon.
    for (int Spin = 0; Spin < 100; ++Spin) {
      const int64_t N = Ch->recv(Buf, sizeof(Buf), 1'000'000'000ULL);
      if (N <= 0)
        break;
    }
  }
  ServiceClient Client([&Srv] { return connectTcp(Srv.port()); });
  const JobTicket T{"survivor", 1};
  Frame Resp;
  ASSERT_TRUE(Client.submit(T, ComputeSrc, "main", 0, Resp));
  ASSERT_TRUE(Client.awaitResult(T, Resp, 60'000'000'000ULL));
  Srv.stop();
  FE.shutdown();
}

//===----------------------------------------------------------------------===//
// Live migration: cross-shard rebalancing and cross-process adoption
//===----------------------------------------------------------------------===//

/// A few thousand guest steps: short enough for the every-boundary
/// sweep below, long enough that an extraction issued right after submit
/// usually catches the job queued or mid-flight.
constexpr const char *MigrateSrc =
    R"(variable acc : main 0 acc ! 600 0 do i acc @ + acc ! loop acc @ . ;)";
/// MigrateSrc's loop 100 times longer (about 420k guest steps, some 6500
/// slices at 64 steps). Multi-job tests whose precondition is "some job is
/// still in flight when the rebalancer or a migrator reaches it" use this
/// one: a job's time in flight is its guest work now that checkpoints
/// cost what it wrote.
constexpr const char *LongMigrateSrc =
    R"(variable acc : main 0 acc ! 60000 0 do i acc @ + acc ! loop acc @ . ;)";
/// A 1000 x 1000 loop nest, about 7M guest steps. A single job that must
/// still be in flight across a test's control calls runs this: one run
/// takes tens of milliseconds, two orders of magnitude more than the
/// longest submit-to-extract gap seen with the programs above.
constexpr const char *HoldSrc =
    R"(variable acc : main 0 acc ! 1000 0 do 1000 0 do i acc @ + acc ! loop loop acc @ . ;)";

Frame commitFrame(const JobTicket &T, uint64_t ReqId = 9) {
  Frame F;
  F.Type = FrameType::MigrateCommit;
  F.RequestId = ReqId;
  F.setTicket(T);
  return F;
}

/// A ServiceClient wired to \p Host over in-process channels (optionally
/// chaos-wrapped), plus the server threads serving them. Destroy after
/// the last use of Client; the destructor closes the client side and
/// joins the server loops.
struct LocalPeer {
  ServiceFrontEnd &Host;
  ChaosConfig Chaos;
  std::mutex Mu;
  std::vector<std::thread> Servers;
  std::atomic<uint64_t> Conns{0};
  std::unique_ptr<ServiceClient> Client;

  explicit LocalPeer(ServiceFrontEnd &FE, ChaosConfig CC = {},
                     RetryPolicy Pol = {})
      : Host(FE), Chaos(CC) {
    Client =
        std::make_unique<ServiceClient>([this] { return connect(); }, Pol);
  }
  std::unique_ptr<Channel> connect() {
    auto [Cli, Srv] = makeLocalPair();
    std::unique_ptr<Channel> S = std::move(Srv), C = std::move(Cli);
    const uint64_t N = Conns.fetch_add(1) + 1;
    if (Chaos.enabled()) {
      ChaosConfig SC = Chaos;
      SC.Seed = Chaos.Seed ^ (0x9e3779b97f4a7c15ULL * N);
      S = std::make_unique<ChaosChannel>(std::move(S), SC);
      ChaosConfig CC = Chaos;
      CC.Seed = Chaos.Seed ^ (0xbf58476d1ce4e5b9ULL * N);
      C = std::make_unique<ChaosChannel>(std::move(C), CC);
    }
    std::lock_guard<std::mutex> L(Mu);
    Servers.emplace_back(
        [this, Ch = std::move(S)]() mutable { serveChannel(Host, *Ch); });
    return C;
  }
  ~LocalPeer() {
    Client.reset(); // hang up so every server loop sees EOF
    std::lock_guard<std::mutex> L(Mu);
    for (std::thread &T : Servers)
      T.join();
  }
};

void expectSameResult(const Frame &Got, const Frame &Ref,
                      const std::string &Tag) {
  EXPECT_EQ(Got.Stop, Ref.Stop) << Tag;
  EXPECT_EQ(Got.Status, Ref.Status) << Tag;
  EXPECT_EQ(Got.Steps, Ref.Steps) << Tag;
  EXPECT_EQ(Got.Slices, Ref.Slices) << Tag;
  EXPECT_EQ(Got.Output, Ref.Output) << Tag;
}

/// A commit that went silent after the offer was accepted leaves the job
/// escrowed (MigrateOutcome::Torn). The resolution protocol: keep
/// re-committing (idempotent) until the peer serves the Result or a
/// definitive refusal, then complete or abandon — never both.
void resolveTorn(ServiceFrontEnd &Source, ServiceClient &Peer,
                 const JobTicket &T, bool &Completed) {
  for (;;) {
    Frame Result;
    if (Peer.commitMigration(T, Result, 30'000'000'000ULL)) {
      Source.completeMigration(T, Result);
      Completed = true;
      return;
    }
    if ((Result.Type == FrameType::Error &&
         (Result.Err == ServiceError::UnknownMigration ||
          Result.Err == ServiceError::Shutdown)) ||
        Result.Type == FrameType::Reject) {
      while (!Source.abandonMigration(T))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      Completed = false;
      return;
    }
    // Transport silence again; the commit stays retryable forever.
  }
}

/// The tentpole differential: for every reentrant registry engine and a
/// sweep of slice-boundary placements, a job extracted mid-flight,
/// shipped over sc-wire, adopted by a second front end, and completed
/// there is field-for-field the job that never moved.
TEST(Migration, MigratedEqualsOneShotEveryEngineEveryBoundary) {
  // Foundation (the harness's slice sweep): sliced == one-shot for this
  // program, so any divergence below is migration's fault.
  {
    auto Sys = forth::loadOrDie(MigrateSrc);
    const harness::InjectReport R =
        harness::sweepSliceBoundaries(*Sys, "main", {}, 8);
    EXPECT_TRUE(R.ok()) << R.FirstDivergence;
  }

  std::vector<engine::EngineId> Engines;
  for (unsigned E = 0; E < engine::NumEngineIds; ++E)
    if (engine::engineInfo(static_cast<engine::EngineId>(E)).Caps.Reentrant)
      Engines.push_back(static_cast<engine::EngineId>(E));
  ASSERT_FALSE(Engines.empty());

  unsigned Migrated = 0, Total = 0;
  for (uint64_t SliceSteps : {37ULL, 211ULL}) {
    ServiceConfig Cfg;
    Cfg.Shards = 1;
    Cfg.SliceSteps = SliceSteps;
    Cfg.CheckpointEverySlices = 1;
    for (engine::EngineId E : Engines) {
      const auto Eng = static_cast<uint8_t>(E);
      const std::string Tag = std::string(engine::engineName(E)) + "/slice" +
                              std::to_string(SliceSteps);
      // The job that never moves.
      ServiceFrontEnd Ref(Cfg);
      ASSERT_EQ(Ref.handle(submitFrame("mig", 1, MigrateSrc, 1, Eng)).Type,
                FrameType::SubmitAck)
          << Tag;
      const Frame R0 = awaitResult(Ref, "mig", 1);
      Ref.shutdown();

      // The same job, extracted and adopted across "processes".
      ServiceFrontEnd Src(Cfg), Dst(Cfg);
      {
        LocalPeer Peer(Dst);
        ASSERT_EQ(Src.handle(submitFrame("mig", 1, MigrateSrc, 1, Eng)).Type,
                  FrameType::SubmitAck)
            << Tag;
        const JobTicket T{"mig", 1};
        const MigrateOutcome O = migrateJob(Src, *Peer.Client, T);
        EXPECT_NE(O, MigrateOutcome::Torn) << Tag;
        ++Total;
        Migrated += O == MigrateOutcome::Completed;
        const Frame R1 = awaitResult(Src, "mig", 1);
        expectSameResult(R1, R0, Tag);
        if (O == MigrateOutcome::Completed) {
          EXPECT_EQ(Src.statsSnapshot().MigratedOut, 1u) << Tag;
          EXPECT_EQ(Dst.statsSnapshot().MigratedIn, 1u) << Tag;
        }
      }
      Dst.shutdown();
      Src.shutdown();
      EXPECT_EQ(Src.statsSnapshot().Completed, 1u) << Tag;
    }
  }
  // The matrix must actually migrate, not just fall back to RanLocally.
  EXPECT_GT(Migrated * 2, Total) << Migrated << "/" << Total;
}

/// MigrateCommit's idempotency matrix, frame by frame at the front-end
/// level: duplicate commits poll; post-completion commits serve the
/// cached Result; a commit for a never-offered ticket is typed
/// UnknownMigration; a duplicate offer re-accepts.
TEST(Migration, TornCommitRetryAndAbandonMatrix) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.SliceSteps = 64;
  Cfg.CheckpointEverySlices = 1;

  // The unmigrated reference.
  ServiceFrontEnd Ref(Cfg);
  ASSERT_EQ(Ref.handle(submitFrame("t", 1, HoldSrc)).Type,
            FrameType::SubmitAck);
  const Frame R0 = awaitResult(Ref, "t", 1);
  Ref.shutdown();

  ServiceFrontEnd Src(Cfg), Dst(Cfg);
  const JobTicket T{"t", 1};
  ASSERT_EQ(Src.handle(submitFrame("t", 1, HoldSrc)).Type,
            FrameType::SubmitAck);

  Frame Offer;
  ASSERT_TRUE(Src.extractForMigration(T, Offer));
  EXPECT_EQ(Offer.Type, FrameType::MigrateOffer);
  EXPECT_EQ(Offer.Source, std::string(HoldSrc));

  // While escrowed the source still answers polls — with Pending.
  EXPECT_EQ(Src.handle(pollFrame("t", 1)).Type, FrameType::Pending);

  // Offer, then a duplicate offer (the accept was "lost"): re-accepted.
  Frame A1 = Dst.handle(Offer);
  ASSERT_EQ(A1.Type, FrameType::MigrateAccept);
  EXPECT_EQ(A1.Accepted, 1u);
  Frame A2 = Dst.handle(Offer);
  ASSERT_EQ(A2.Type, FrameType::MigrateAccept);
  EXPECT_EQ(A2.Accepted, 1u);

  // First commit activates; repeated commits are polls. Drive to Result.
  Frame C = Dst.handle(commitFrame(T));
  ASSERT_TRUE(C.Type == FrameType::Pending || C.Type == FrameType::Result)
      << frameTypeName(C.Type);
  for (int Spin = 0; C.Type != FrameType::Result && Spin < 100000; ++Spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    C = Dst.handle(commitFrame(T));
    ASSERT_TRUE(C.Type == FrameType::Pending || C.Type == FrameType::Result)
        << frameTypeName(C.Type);
  }
  ASSERT_EQ(C.Type, FrameType::Result);
  expectSameResult(C, R0, "adopted");

  // A re-offer of the activated adoption still just re-accepts.
  Frame A3 = Dst.handle(Offer);
  ASSERT_EQ(A3.Type, FrameType::MigrateAccept);
  EXPECT_EQ(A3.Accepted, 1u);

  // Commit-after-completion: the cached Result, forever.
  const Frame C2 = Dst.handle(commitFrame(T, 77));
  ASSERT_EQ(C2.Type, FrameType::Result);
  EXPECT_EQ(C2.RequestId, 77u);
  expectSameResult(C2, C, "cached");

  // Land the result at the source: polls serve it, Completed ticks once.
  Src.completeMigration(T, C);
  const Frame R1 = Src.handle(pollFrame("t", 1));
  ASSERT_EQ(R1.Type, FrameType::Result);
  expectSameResult(R1, R0, "completed");

  // A commit for a ticket never offered here: typed, safe to abandon.
  const Frame U = Dst.handle(commitFrame(JobTicket{"ghost", 9}));
  ASSERT_EQ(U.Type, FrameType::Error);
  EXPECT_EQ(U.Err, ServiceError::UnknownMigration);

  // The abandon path: extract, never offer, re-admit locally.
  ASSERT_EQ(Src.handle(submitFrame("t", 2, HoldSrc)).Type,
            FrameType::SubmitAck);
  const JobTicket T2{"t", 2};
  Frame Offer2;
  ASSERT_TRUE(Src.extractForMigration(T2, Offer2));
  EXPECT_FALSE(Src.abandonMigration(JobTicket{"t", 99})); // not escrowed
  ASSERT_TRUE(Src.abandonMigration(T2));
  EXPECT_FALSE(Src.abandonMigration(T2)); // once
  const Frame R2 = awaitResult(Src, "t", 2);
  expectSameResult(R2, R0, "abandoned");

  const ServiceStats SS = Src.statsSnapshot();
  EXPECT_EQ(SS.MigratedOut, 2u);
  EXPECT_EQ(SS.MigrationsAbandoned, 1u);
  EXPECT_EQ(SS.Completed, 2u);
  EXPECT_EQ(Dst.statsSnapshot().MigratedIn, 1u);
  Dst.shutdown();
  Src.shutdown();
}

/// A commit whose activation is definitively refused (admission bounced
/// it) must erase the parked adoption, so a delayed duplicate commit
/// cannot activate the job after the source already resumed it locally —
/// the double-execution hole in a torn migration.
TEST(Migration, RejectedActivationErasesTheAdoption) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.SliceSteps = 64;
  Cfg.CheckpointEverySlices = 1;
  ServiceFrontEnd Src(Cfg);

  ServiceConfig PeerCfg = Cfg;
  PeerCfg.MaxInFlightPerTenant = 1;
  ServiceFrontEnd Dst(PeerCfg);

  const JobTicket T{"t", 7};
  ASSERT_EQ(Src.handle(submitFrame("t", 7, HoldSrc)).Type,
            FrameType::SubmitAck);
  Frame Offer;
  ASSERT_TRUE(Src.extractForMigration(T, Offer));
  Frame A = Dst.handle(Offer);
  ASSERT_EQ(A.Type, FrameType::MigrateAccept);
  ASSERT_EQ(A.Accepted, 1u);

  // Between offer and commit the peer's tenant fills up.
  ASSERT_EQ(Dst.handle(submitFrame("t", 1, SpinSrc)).Type,
            FrameType::SubmitAck);

  const Frame C1 = Dst.handle(commitFrame(T));
  ASSERT_EQ(C1.Type, FrameType::Reject);
  EXPECT_EQ(C1.Code, RejectCode::TenantBusy);

  // The delayed duplicate finds nothing to activate.
  const Frame C2 = Dst.handle(commitFrame(T));
  ASSERT_EQ(C2.Type, FrameType::Error);
  EXPECT_EQ(C2.Err, ServiceError::UnknownMigration);

  // The source reads the refusal, abandons, and the job completes
  // exactly once, locally.
  ASSERT_TRUE(Src.abandonMigration(T));
  ServiceConfig RefCfg = Cfg;
  ServiceFrontEnd Ref(RefCfg);
  ASSERT_EQ(Ref.handle(submitFrame("t", 7, HoldSrc)).Type,
            FrameType::SubmitAck);
  expectSameResult(awaitResult(Src, "t", 7), awaitResult(Ref, "t", 7),
                   "after refused commit");
  Ref.shutdown();
  EXPECT_EQ(Dst.statsSnapshot().MigratedIn, 0u);

  // Clean up the peer's spin job.
  Frame Cancel = pollFrame("t", 1);
  Cancel.Type = FrameType::CancelReq;
  Dst.handle(Cancel);
  awaitResult(Dst, "t", 1);
  Dst.shutdown();
  Src.shutdown();
}

/// Every hostile offer draws a typed error at OFFER time — a commit must
/// never discover the offer was garbage after the source stopped running
/// the job.
TEST(Migration, HostileOffersGetTypedErrors) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  ServiceFrontEnd FE(Cfg);

  Frame Good = sampleFrame(FrameType::MigrateOffer);
  Good.Source = MigrateSrc;
  Good.Word = "main";
  Good.Engine = 0;
  Good.Snapshot.clear();

  // Engine id out of range / non-reentrant.
  Frame BadEng = Good;
  BadEng.Engine = 250;
  EXPECT_EQ(FE.handle(BadEng).Err, ServiceError::BadEngine);
  for (unsigned E = 0; E < engine::NumEngineIds; ++E)
    if (!engine::engineInfo(static_cast<engine::EngineId>(E))
             .Caps.Reentrant) {
      Frame NonRe = Good;
      NonRe.Engine = static_cast<uint8_t>(E);
      EXPECT_EQ(FE.handle(NonRe).Err, ServiceError::BadEngine);
    }

  // A program that does not compile; a missing word.
  Frame NoCompile = Good;
  NoCompile.Source = ": main unknown-word ;";
  EXPECT_EQ(FE.handle(NoCompile).Err, ServiceError::CompileFailed);
  Frame NoWord = Good;
  NoWord.Word = "nope";
  EXPECT_EQ(FE.handle(NoWord).Err, ServiceError::BadWord);

  // Snapshot garbage, and a valid-looking snapshot for another program.
  Frame BadSnap = Good;
  BadSnap.Snapshot = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  EXPECT_EQ(FE.handle(BadSnap).Err, ServiceError::BadSnapshot);

  // A ticket the service already owns can never be adopted.
  ASSERT_EQ(FE.handle(submitFrame("owned", 3, ComputeSrc)).Type,
            FrameType::SubmitAck);
  awaitResult(FE, "owned", 3);
  Frame Owned = Good;
  Owned.Tenant = "owned";
  Owned.Token = 3;
  EXPECT_EQ(FE.handle(Owned).Err, ServiceError::MigrateRefused);

  // Capacity refusal is soft: Accepted=0 plus a backoff hint, because
  // the source can retry the offer elsewhere.
  ServiceConfig Tiny = Cfg;
  Tiny.MaxInFlightPerTenant = 1;
  ServiceFrontEnd Small(Tiny);
  ASSERT_EQ(Small.handle(submitFrame("tenant-7", 1, SpinSrc)).Type,
            FrameType::SubmitAck);
  const Frame Busy = Small.handle(Good);
  ASSERT_EQ(Busy.Type, FrameType::MigrateAccept);
  EXPECT_EQ(Busy.Accepted, 0u);
  EXPECT_EQ(Busy.RetryAfterNs, Tiny.RetryAfterNs);
  Frame Cancel = pollFrame("tenant-7", 1);
  Cancel.Type = FrameType::CancelReq;
  Small.handle(Cancel);
  awaitResult(Small, "tenant-7", 1);
  Small.shutdown();
  FE.shutdown();
}

/// The cross-shard rebalancer: a single hot tenant piles every job onto
/// one shard; with rebalancing on, queued jobs drain onto the idle shard
/// at their slice boundaries — and every result is still field-for-field
/// the unbalanced run's (exactly-once across the move).
TEST(Service, RebalancerDrainsHotShardExactlyOnce) {
  ServiceConfig Cfg;
  Cfg.Shards = 2;
  Cfg.SliceSteps = 64;
  Cfg.CheckpointEverySlices = 1;
  Cfg.MaxInFlightPerTenant = 64;
  Cfg.TenantQueueCapacity = 64;

  constexpr uint64_t Jobs = 16;

  // Reference: same config, rebalancing off.
  ServiceConfig Off = Cfg;
  ServiceFrontEnd Ref(Off);
  for (uint64_t I = 0; I < Jobs; ++I)
    ASSERT_EQ(Ref.handle(submitFrame("hot", I + 1, LongMigrateSrc)).Type,
              FrameType::SubmitAck);
  std::map<uint64_t, Frame> Baseline;
  for (uint64_t I = 0; I < Jobs; ++I)
    Baseline.emplace(I + 1, awaitResult(Ref, "hot", I + 1));
  Ref.shutdown();
  EXPECT_EQ(Ref.statsSnapshot().Rebalanced, 0u);

  ServiceConfig On = Cfg;
  On.Rebalance = true;
  On.RebalanceHighWater = 2;
  On.RebalanceMinGap = 1;
  On.RebalanceBatch = 8;
  ServiceFrontEnd FE(On);
  for (uint64_t I = 0; I < Jobs; ++I)
    ASSERT_EQ(FE.handle(submitFrame("hot", I + 1, LongMigrateSrc)).Type,
              FrameType::SubmitAck);
  for (uint64_t I = 0; I < Jobs; ++I)
    expectSameResult(awaitResult(FE, "hot", I + 1), Baseline.at(I + 1),
                     "job " + std::to_string(I + 1));
  FE.shutdown();

  const ServiceStats S = FE.statsSnapshot();
  EXPECT_EQ(S.Submitted, Jobs);
  EXPECT_EQ(S.Completed, Jobs);
  EXPECT_GT(S.Rebalanced, 0u);

  // The per-shard dashboard books every move exactly once on each side.
  const metrics::Json Doc = FE.statsJson();
  const metrics::Json *Shards = Doc.find("shards");
  ASSERT_NE(Shards, nullptr);
  ASSERT_EQ(Shards->size(), 2u);
  uint64_t In = 0, Out = 0;
  for (size_t I = 0; I < Shards->size(); ++I) {
    const metrics::Json *MI = Shards->at(I).find("migrations_in");
    const metrics::Json *MO = Shards->at(I).find("migrations_out");
    ASSERT_NE(MI, nullptr);
    ASSERT_NE(MO, nullptr);
    In += static_cast<uint64_t>(MI->asInt());
    Out += static_cast<uint64_t>(MO->asInt());
  }
  EXPECT_EQ(In, S.Rebalanced);
  EXPECT_EQ(Out, S.Rebalanced);
  const metrics::Json *Svc = Doc.find("service");
  ASSERT_NE(Svc, nullptr);
  ASSERT_NE(Svc->find("rebalanced"), nullptr);
  EXPECT_EQ(static_cast<uint64_t>(Svc->find("rebalanced")->asInt()),
            S.Rebalanced);
}

/// The chaos differential extended across the rebalancer: a skewed load
/// under transport storm, crash injection, shard kills AND live
/// cross-shard migration produces Result frames field-for-field equal to
/// a clean, rebalancing-off run.
TEST(Service, ChaosRebalanceDifferential) {
  constexpr uint64_t Jobs = 48;
  ServiceConfig Clean;
  Clean.Shards = 3;
  Clean.SliceSteps = 64;
  Clean.CheckpointEverySlices = 1;
  const std::map<uint64_t, Frame> Baseline =
      chaosRun(Clean, ChaosConfig{}, 0, Jobs, 3, 1, nullptr,
               /*Pipeline=*/true, RebalanceSrc);
  ASSERT_EQ(Baseline.size(), Jobs);

  ServiceConfig Stormy = Clean;
  Stormy.CrashOneIn = 120;
  Stormy.Rebalance = true;
  Stormy.RebalanceHighWater = 4;
  Stormy.RebalanceMinGap = 2;
  Stormy.RebalanceBatch = 4;
  ServiceStats Stats;
  const std::map<uint64_t, Frame> Stormed =
      chaosRun(Stormy, ChaosConfig::storm(0xBA1A4CEULL), 4, Jobs, 3, 1,
               &Stats, /*Pipeline=*/true, RebalanceSrc);
  ASSERT_EQ(Stormed.size(), Jobs);
  EXPECT_GT(Stats.Rebalanced, 0u);

  for (const auto &[Token, Ref] : Baseline)
    expectSameResult(Stormed.at(Token), Ref, std::to_string(Token));
}

/// A rebalance mark must not outlive an extraction. The rebalancer
/// marks a job, extractForMigration takes it, abandonMigration brings it
/// home: the record must come back plain live, so the rebalancer still
/// counts it on its real shard and can move it again. (A stale mark hid
/// it from the rebalancer and booked it against the cold shard.)
TEST(Service, AbandonedExtractionClearsTheRebalanceMark) {
  // Job 1 runs HoldSrc: it outlives the control steps below by a wide
  // margin.
  ServiceConfig Cfg;
  Cfg.Shards = 2;
  Cfg.SliceSteps = 256;
  Cfg.CheckpointEverySlices = 1;

  ServiceFrontEnd Ref(Cfg);
  ASSERT_EQ(Ref.handle(submitFrame("hot", 1, HoldSrc)).Type,
            FrameType::SubmitAck);
  const Frame R0 = awaitResult(Ref, "hot", 1);
  Ref.shutdown();

  ServiceConfig On = Cfg;
  On.Rebalance = true;
  On.RebalanceHighWater = 2;
  On.RebalanceMinGap = 2;
  On.RebalanceBatch = 8; // at least the live count; half the gap caps it
  ServiceFrontEnd FE(On);
  const unsigned Hot = FE.shardOf("hot");
  std::string Cold = "cold-0";
  for (unsigned I = 1; FE.shardOf(Cold) == Hot; ++I)
    Cold = "cold-" + std::to_string(I);

  // Job 1 (under test) and a spinner live on the hot shard.
  ASSERT_EQ(FE.handle(submitFrame("hot", 1, HoldSrc)).Type,
            FrameType::SubmitAck);
  ASSERT_EQ(FE.handle(submitFrame("hot", 2, SpinSrc)).Type,
            FrameType::SubmitAck);
  // This poll rebalances: a gap of 2 marks one job, the oldest — job 1.
  ASSERT_EQ(FE.handle(pollFrame("hot", 1)).Type, FrameType::Pending);
  // Extract the marked job before any sweep can move it, then abandon.
  const JobTicket T1{"hot", 1};
  Frame Offer;
  ASSERT_TRUE(FE.extractForMigration(T1, Offer));
  ASSERT_TRUE(FE.abandonMigration(T1));
  // Take the spinner out of the candidates (cancel does not sweep).
  Frame Cancel = pollFrame("hot", 2);
  Cancel.Type = FrameType::CancelReq;
  ASSERT_EQ(FE.handle(Cancel).Type, FrameType::Pending);
  // A submit on the cold shard rebalances without sweeping the hot one:
  // 2 live jobs against 0, and job 1 is the only one that may move.
  ASSERT_EQ(FE.handle(submitFrame(Cold, 1, ComputeSrc)).Type,
            FrameType::SubmitAck);
  // Duplicate submits sweep the hot shard; once job 1 settles at its
  // slice boundary it is re-admitted on the cold shard.
  Frame Ack;
  for (int Spin = 0; Spin < 100000; ++Spin) {
    Ack = FE.handle(submitFrame("hot", 1, HoldSrc));
    if (Ack.Type != FrameType::SubmitAck || Ack.Shard != Hot)
      break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(Ack.Type, FrameType::SubmitAck)
      << "job 1 finished where it was: the rebalancer never moved it";
  EXPECT_EQ(Ack.Shard, FE.shardOf(Cold));
  EXPECT_EQ(Ack.Duplicate, 1u);

  expectSameResult(awaitResult(FE, "hot", 1), R0, "moved after abandon");
  EXPECT_EQ(awaitResult(FE, "hot", 2).Stop,
            static_cast<uint8_t>(session::StopKind::Cancelled));
  awaitResult(FE, Cold, 1);
  FE.shutdown();
  const ServiceStats S = FE.statsSnapshot();
  EXPECT_EQ(S.MigratedOut, 1u);
  EXPECT_EQ(S.MigrationsAbandoned, 1u);
  EXPECT_GE(S.Rebalanced, 1u);
  EXPECT_EQ(S.Completed, 3u);
}

/// Cross-process migration under chaos: jobs extracted from a crashing
/// source and adopted by a peer over storm-chaosed channels — with
/// shards killed under BOTH processes mid-migration — still complete
/// exactly once, field-for-field equal to a clean run.
TEST(Migration, CrossProcessChaosDifferential) {
  constexpr uint64_t Jobs = 24;
  ServiceConfig Cfg;
  Cfg.Shards = 2;
  Cfg.SliceSteps = 64;
  Cfg.CheckpointEverySlices = 1;
  Cfg.MaxInFlightPerTenant = 64;
  Cfg.TenantQueueCapacity = 64;

  // Clean unmigrated baseline.
  std::map<uint64_t, Frame> Baseline;
  {
    ServiceFrontEnd Ref(Cfg);
    for (uint64_t I = 0; I < Jobs; ++I)
      ASSERT_EQ(Ref.handle(submitFrame("mig", I + 1, LongMigrateSrc)).Type,
                FrameType::SubmitAck);
    for (uint64_t I = 0; I < Jobs; ++I)
      Baseline.emplace(I + 1, awaitResult(Ref, "mig", I + 1));
    Ref.shutdown();
  }

  ServiceConfig SrcCfg = Cfg;
  SrcCfg.CrashOneIn = 150;
  ServiceFrontEnd Src(SrcCfg), Dst(Cfg);
  uint64_t Completed = 0;
  {
    RetryPolicy Pol;
    Pol.MaxAttempts = 40;
    Pol.AttemptTimeoutNs = 100'000'000;
    // A ServiceClient is not thread-safe: each migrator gets its own
    // client and connections.
    LocalPeer PeerA(Dst, ChaosConfig::storm(0x51DE0ULL), Pol);
    LocalPeer PeerB(Dst, ChaosConfig::storm(0x51DE1ULL), Pol);
    ServiceClient *PeerClients[2] = {PeerA.Client.get(), PeerB.Client.get()};

    for (uint64_t I = 0; I < Jobs; ++I)
      ASSERT_EQ(Src.handle(submitFrame("mig", I + 1, LongMigrateSrc)).Type,
                FrameType::SubmitAck);

    std::atomic<bool> Stop{false};
    std::thread Killer([&] {
      for (int K = 0; K < 4 && !Stop.load(); ++K) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        Src.killShard(K % Cfg.Shards);
        Dst.killShard((K + 1) % Cfg.Shards);
      }
    });

    std::mutex CountMu;
    std::vector<std::thread> Migrators;
    for (unsigned W = 0; W < 2; ++W)
      Migrators.emplace_back([&, W] {
        for (uint64_t I = W; I < Jobs; I += 2) {
          const JobTicket T{"mig", I + 1};
          MigrateOutcome O = migrateJob(Src, *PeerClients[W], T);
          bool DidComplete = O == MigrateOutcome::Completed;
          if (O == MigrateOutcome::Torn)
            resolveTorn(Src, *PeerClients[W], T, DidComplete);
          std::lock_guard<std::mutex> L(CountMu);
          Completed += DidComplete;
        }
      });
    for (std::thread &T : Migrators)
      T.join();
    Stop.store(true);
    Killer.join();

    std::map<uint64_t, Frame> Results;
    for (uint64_t I = 0; I < Jobs; ++I)
      Results.emplace(I + 1, awaitResult(Src, "mig", I + 1));
    for (const auto &[Token, Ref] : Baseline)
      expectSameResult(Results.at(Token), Ref, std::to_string(Token));
  }
  Dst.shutdown();
  Src.shutdown();

  const ServiceStats SS = Src.statsSnapshot();
  const ServiceStats DS = Dst.statsSnapshot();
  EXPECT_EQ(SS.Completed, Jobs);
  EXPECT_EQ(SS.MigratedOut, Completed + SS.MigrationsAbandoned);
  EXPECT_EQ(DS.MigratedIn, Completed);
  // The storm must not have degraded the test into all-local runs.
  EXPECT_GT(SS.MigratedOut, 0u);
}

/// A hostile or buggy config must not be able to abort a server: the
/// front end builds nothing, reports the typed reason, and answers every
/// request with Error{BadConfig}.
TEST(Service, HostileConfigGetsTypedErrorNotAbort) {
  struct Case {
    ServiceConfig Cfg;
    ServiceConfigError Want;
  };
  std::vector<Case> Cases;
  {
    Case C;
    C.Cfg.Shards = 0;
    C.Want = ServiceConfigError::NoShards;
    Cases.push_back(C);
  }
  {
    Case C;
    C.Cfg.CheckpointEverySlices = 0;
    C.Want = ServiceConfigError::NoCheckpointCadence;
    Cases.push_back(C);
  }
  {
    Case C;
    C.Cfg.TenantQueueCapacity = 4;
    C.Cfg.MaxInFlightPerTenant = 32;
    C.Want = ServiceConfigError::QueueBelowInFlightCap;
    Cases.push_back(C);
  }

  EXPECT_EQ(validateServiceConfig(ServiceConfig{}), ServiceConfigError::None);
  for (const Case &C : Cases) {
    EXPECT_EQ(validateServiceConfig(C.Cfg), C.Want);
    ServiceFrontEnd FE(C.Cfg);
    EXPECT_EQ(FE.configError(), C.Want);
    const Frame E = FE.handle(submitFrame("t", 1, ComputeSrc));
    ASSERT_EQ(E.Type, FrameType::Error) << serviceConfigErrorName(C.Want);
    EXPECT_EQ(E.Err, ServiceError::BadConfig);
    EXPECT_NE(E.Detail.find(serviceConfigErrorName(C.Want)),
              std::string::npos)
        << E.Detail;
    // Stats and shutdown must not trip over the missing shards either.
    const metrics::Json Doc = FE.statsJson();
    ASSERT_TRUE(Doc.has("config_error"));
    EXPECT_EQ(Doc.find("config_error")->asString(),
              serviceConfigErrorName(C.Want));
    FE.killShard(0); // no-op, not a crash
    FE.shutdown();
  }
}

} // namespace
