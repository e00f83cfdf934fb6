//===-- snapshot/Snapshot.cpp - Durable machine-state snapshots -----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
//
// Format "sc-snap v3", all integers little-endian:
//
//   [  0..  4) magic "SCSN"
//   [  4..  8) u32 format version (3; v1 and v2 still restore)
//   [  8.. 16) u64 total snapshot length in bytes (length prefix)
//   [ 16.. 24) u64 Code::identity() of the executed program
//   [ 24.. 32) u64 Code::version() (informational; restore keys on identity)
//   [ 32.. 36) u32 PC
//   [ 36.. 37) u8  Resume flag (0/1)
//   [ 37.. 40) reserved, written zero
//   [ 40.. 48) u64 fuel remaining (steps)
//   [ 48.. 56) u64 steps retired before the snapshot
//   [ 56.. 64) u64 slices retired before the snapshot
//   [ 64.. 88) u32 x6: DsCapacity RsCapacity DsDepth RsDepth
//                       DsHighWater RsHighWater
//   [ 88.. 96) u64 HERE
//   [ 96..104) u64 accessible limit (UINT64_MAX = uncapped)
//   [104..112) u64 data-space allocation size
//   v2 and v3 (the tier sidecar; v1 headers end at 112):
//   [112..120) u64 tier heat (TierController steps earned by the identity)
//   [120..124) u32 tier rung (promotion-ladder index the job ran on)
//   [124..128) reserved, written zero
//   [hdr..   ) four sections, each u64 length + payload:
//                data-stack cells to the exact depth,
//                return-stack cells to the exact depth,
//                data-space prefix up to the last non-zero byte,
//                output buffer
//   [ last 8 ) u64 checksum over every preceding byte (the seal)
//
// v3 keeps v2's layout byte for byte and changes only the seal. v1 and v2
// seal with byte-serial FNV-1a 64. v3 seals with FNV-1a over 64-bit
// little-endian words in four interleaved lanes (word I feeds lane I % 4,
// so the four multiply chains overlap), folding each lane's high half
// into its low half after every multiply; a zero-padded tail word, the
// length and the four lanes then fold into one value. Without the fold a
// flip of bit 63 only ever reaches bit 63 of the product, so two such
// flips in one lane would cancel.
//
// serialize always writes v3. readHeader/restore accept v1 and v2 buffers
// (from older builds), verify each by its own version's seal, and report
// a zero sidecar for v1.
//
//===----------------------------------------------------------------------===//

#include "snapshot/Snapshot.h"

#include "support/Assert.h"

#include <bit>
#include <cstring>

using namespace sc;
using namespace sc::snapshot;

namespace {

constexpr uint8_t Magic[4] = {'S', 'C', 'S', 'N'};
constexpr uint32_t FormatVersion = 3;
constexpr uint32_t MinFormatVersion = 1;
constexpr size_t HeaderBytesV1 = 112;
constexpr size_t HeaderBytesV2 = 128;
constexpr size_t ChecksumBytes = 8;
// Smallest speakable buffer: a v1 header + four empty length-prefixed
// sections + checksum. Per-version minima are re-checked after the
// version field parses.
constexpr size_t MinBytes = HeaderBytesV1 + 4 * 8 + ChecksumBytes;

size_t headerBytesFor(uint32_t Version) {
  return Version >= 2 ? HeaderBytesV2 : HeaderBytesV1;
}

//===----------------------------------------------------------------------===//
// Little-endian writer
//===----------------------------------------------------------------------===//

void put32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (I * 8)));
}

void put64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (I * 8)));
}

void putBytes(std::vector<uint8_t> &Out, const void *Src, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Src);
  Out.insert(Out.end(), P, P + N);
}

void patch64(std::vector<uint8_t> &Out, size_t Off, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out[Off + I] = static_cast<uint8_t>(V >> (I * 8));
}

//===----------------------------------------------------------------------===//
// Bounds-checked little-endian reader
//===----------------------------------------------------------------------===//

uint32_t get32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

uint64_t get64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap64(V);
  return V;
}

/// The trailing-zero-trimmed prefix of the data space: everything after it
/// is zero by construction, so restore recreates the full arena from it.
/// Every byte at or above the Vm's touched bound is zero, so the scan
/// starts there and steps down a word at a time once it is aligned.
size_t dataPrefixLength(const vm::Vm &Machine) {
  const uint8_t *P = Machine.memData();
  size_t N = Machine.touchedBound();
  while (N % 8 != 0 && P[N - 1] == 0)
    --N;
  if (N % 8 == 0) {
    while (N >= 8 && get64(P + N - 8) == 0)
      N -= 8;
    while (N > 0 && P[N - 1] == 0)
      --N;
  }
  return N;
}

} // namespace

const char *sc::snapshot::snapshotErrorName(SnapshotError E) {
  switch (E) {
  case SnapshotError::None:
    return "ok";
  case SnapshotError::Truncated:
    return "truncated buffer";
  case SnapshotError::BadMagic:
    return "bad magic";
  case SnapshotError::BadFormatVersion:
    return "unsupported format version";
  case SnapshotError::BadLength:
    return "inconsistent length field";
  case SnapshotError::BadChecksum:
    return "checksum mismatch";
  case SnapshotError::BadFieldValue:
    return "inconsistent field value";
  case SnapshotError::DepthExceedsCapacity:
    return "stack depth exceeds capacity";
  case SnapshotError::LimitExceeded:
    return "state size exceeds restore limits";
  case SnapshotError::CodeMismatch:
    return "snapshot is for a different program";
  }
  return "unknown snapshot error";
}

namespace {

constexpr uint64_t FnvBasis = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

/// The v1/v2 seal: FNV-1a 64, one byte per multiply.
uint64_t byteSeal(const uint8_t *Data, size_t N) {
  uint64_t H = FnvBasis;
  for (size_t I = 0; I < N; ++I) {
    H ^= Data[I];
    H *= FnvPrime;
  }
  return H;
}

/// One v3 step. For a fixed lane state it is a bijection of the word (and
/// for a fixed word, of the state), so a difference in one word always
/// survives into the seal.
uint64_t mixWord(uint64_t H, uint64_t W) {
  H = (H ^ W) * FnvPrime;
  return H ^ (H >> 32);
}

/// The v3 seal (see the format comment).
uint64_t wordSeal(const uint8_t *Data, size_t N) {
  uint64_t L[4] = {FnvBasis, FnvBasis ^ 1, FnvBasis ^ 2, FnvBasis ^ 3};
  size_t I = 0;
  for (; N - I >= 32; I += 32) {
    L[0] = mixWord(L[0], get64(Data + I));
    L[1] = mixWord(L[1], get64(Data + I + 8));
    L[2] = mixWord(L[2], get64(Data + I + 16));
    L[3] = mixWord(L[3], get64(Data + I + 24));
  }
  unsigned Lane = 0;
  for (; N - I >= 8; I += 8, ++Lane)
    L[Lane] = mixWord(L[Lane], get64(Data + I));
  if (I < N) {
    uint8_t Tail[8] = {};
    std::memcpy(Tail, Data + I, N - I);
    L[Lane] = mixWord(L[Lane], get64(Tail));
  }
  uint64_t H = mixWord(FnvBasis, N);
  for (uint64_t V : L)
    H = mixWord(H, V);
  return H;
}

} // namespace

uint64_t sc::snapshot::snapshotChecksum(const uint8_t *Data, size_t N) {
  return N >= 8 && get32(Data + 4) >= 3 ? wordSeal(Data, N)
                                        : byteSeal(Data, N);
}

void sc::snapshot::resealChecksum(std::vector<uint8_t> &Snap) {
  SC_ASSERT(Snap.size() >= MinBytes, "buffer too small to reseal");
  patch64(Snap, Snap.size() - ChecksumBytes,
          snapshotChecksum(Snap.data(), Snap.size() - ChecksumBytes));
}

void sc::snapshot::serializeInto(std::vector<uint8_t> &Out,
                                 const vm::ExecContext &Ctx,
                                 const vm::Vm &Machine,
                                 const MachineState &MS) {
  SC_ASSERT(Ctx.Prog, "serialize needs a bound program for the identity key");
  serializeInto(Out, Ctx, Machine, MS, Ctx.Prog->identity());
}

void sc::snapshot::serializeInto(std::vector<uint8_t> &Out,
                                 const vm::ExecContext &Ctx,
                                 const vm::Vm &Machine, const MachineState &MS,
                                 uint64_t CodeIdentity) {
  SC_ASSERT(Ctx.Prog, "serialize needs a bound program for the version");
  SC_ASSERT(Ctx.DsDepth <= Ctx.DsCapacity && Ctx.RsDepth <= Ctx.RsCapacity,
            "serialize at a non-canonical state");

  const size_t Prefix = dataPrefixLength(Machine);
  Out.clear();
  Out.reserve(MinBytes + (Ctx.DsDepth + Ctx.RsDepth) * sizeof(vm::Cell) +
              Prefix + Machine.Out.size());

  putBytes(Out, Magic, sizeof(Magic));
  put32(Out, FormatVersion);
  const size_t TotalOff = Out.size();
  put64(Out, 0); // total length, patched below
  put64(Out, CodeIdentity);
  put64(Out, Ctx.Prog->version());
  put32(Out, MS.Pc);
  Out.push_back(Ctx.Resume ? 1 : 0);
  Out.push_back(0);
  Out.push_back(0);
  Out.push_back(0);
  put64(Out, MS.FuelRemaining);
  put64(Out, MS.StepsRetired);
  put64(Out, MS.SlicesRetired);
  put32(Out, Ctx.DsCapacity);
  put32(Out, Ctx.RsCapacity);
  put32(Out, Ctx.DsDepth);
  put32(Out, Ctx.RsDepth);
  put32(Out, Ctx.DsHighWater);
  put32(Out, Ctx.RsHighWater);
  put64(Out, static_cast<uint64_t>(Machine.here()));
  put64(Out, static_cast<uint64_t>(Machine.accessibleLimit()));
  put64(Out, Machine.dataSpaceSize());
  put64(Out, MS.HeatSteps);
  put32(Out, MS.TierRung);
  put32(Out, 0); // reserved
  SC_ASSERT(Out.size() == HeaderBytesV2, "snapshot header layout drifted");

  put64(Out, Ctx.DsDepth * sizeof(vm::Cell));
  putBytes(Out, Ctx.DS.data(), Ctx.DsDepth * sizeof(vm::Cell));
  put64(Out, Ctx.RsDepth * sizeof(vm::Cell));
  putBytes(Out, Ctx.RS.data(), Ctx.RsDepth * sizeof(vm::Cell));
  put64(Out, Prefix);
  putBytes(Out, Machine.memData(), Prefix);
  put64(Out, Machine.Out.size());
  putBytes(Out, Machine.Out.data(), Machine.Out.size());

  patch64(Out, TotalOff, Out.size() + ChecksumBytes);
  put64(Out, snapshotChecksum(Out.data(), Out.size()));
}

std::vector<uint8_t> sc::snapshot::serialize(const vm::ExecContext &Ctx,
                                             const vm::Vm &Machine,
                                             const MachineState &MS) {
  std::vector<uint8_t> Out;
  serializeInto(Out, Ctx, Machine, MS);
  return Out;
}

SnapshotError sc::snapshot::readHeader(const uint8_t *Data, size_t N,
                                       SnapshotHeader &H) {
  // Layout gates first, cheapest to most expensive; no field is trusted
  // before the check that makes reading it safe.
  if (N < sizeof(Magic))
    return SnapshotError::Truncated;
  if (std::memcmp(Data, Magic, sizeof(Magic)) != 0)
    return SnapshotError::BadMagic;
  if (N < 8)
    return SnapshotError::Truncated;
  const uint32_t Version = get32(Data + 4);
  if (Version < MinFormatVersion || Version > FormatVersion)
    return SnapshotError::BadFormatVersion;
  if (N < headerBytesFor(Version) + 4 * 8 + ChecksumBytes)
    return SnapshotError::Truncated;
  const uint64_t Total = get64(Data + 8);
  if (Total != N)
    return SnapshotError::BadLength;
  const uint64_t Sum = get64(Data + N - ChecksumBytes);
  if (Sum != snapshotChecksum(Data, N - ChecksumBytes))
    return SnapshotError::BadChecksum;

  SnapshotHeader R;
  R.FormatVersion = Version;
  R.TotalBytes = Total;
  R.CodeIdentity = get64(Data + 16);
  R.CodeVersion = get64(Data + 24);
  R.MS.Pc = get32(Data + 32);
  R.Resume = Data[36];
  R.MS.FuelRemaining = get64(Data + 40);
  R.MS.StepsRetired = get64(Data + 48);
  R.MS.SlicesRetired = get64(Data + 56);
  R.DsCapacity = get32(Data + 64);
  R.RsCapacity = get32(Data + 68);
  R.DsDepth = get32(Data + 72);
  R.RsDepth = get32(Data + 76);
  R.DsHighWater = get32(Data + 80);
  R.RsHighWater = get32(Data + 84);
  R.Here = get64(Data + 88);
  R.AccessibleLimit = get64(Data + 96);
  R.DataSpaceBytes = get64(Data + 104);
  if (Version >= 2) {
    R.MS.HeatSteps = get64(Data + 112);
    R.MS.TierRung = get32(Data + 120);
  }

  // Walk the sections. The buffer is sealed (length + checksum verified),
  // so an overrun here means the lengths are inconsistent, not that the
  // transport truncated: BadLength, never a wild read.
  const size_t End = N - ChecksumBytes;
  size_t Cursor = headerBytesFor(Version);
  uint64_t Sections[4];
  for (uint64_t &S : Sections) {
    if (End - Cursor < 8)
      return SnapshotError::BadLength;
    S = get64(Data + Cursor);
    Cursor += 8;
    if (S > End - Cursor)
      return SnapshotError::BadLength;
    Cursor += S;
  }
  if (Cursor != End)
    return SnapshotError::BadLength;
  R.DataPrefixBytes = Sections[2];
  R.OutputBytes = Sections[3];

  // Internal consistency.
  if (R.Resume > 1)
    return SnapshotError::BadFieldValue;
  if (R.DsDepth > R.DsCapacity || R.RsDepth > R.RsCapacity)
    return SnapshotError::DepthExceedsCapacity;
  if (R.DsHighWater > R.DsCapacity || R.RsHighWater > R.RsCapacity)
    return SnapshotError::BadFieldValue;
  if (Sections[0] != uint64_t(R.DsDepth) * sizeof(vm::Cell) ||
      Sections[1] != uint64_t(R.RsDepth) * sizeof(vm::Cell))
    return SnapshotError::BadFieldValue;
  if (R.DataPrefixBytes > R.DataSpaceBytes)
    return SnapshotError::BadFieldValue;
  const uint64_t HereCeiling =
      R.DataSpaceBytes > vm::CellBytes ? R.DataSpaceBytes : vm::CellBytes;
  if (R.Here < vm::CellBytes || R.Here > HereCeiling)
    return SnapshotError::BadFieldValue;

  H = R;
  return SnapshotError::None;
}

SnapshotError sc::snapshot::restore(const uint8_t *Data, size_t N,
                                    const vm::Code &Prog, vm::ExecContext &Ctx,
                                    vm::Vm &Machine, MachineState &MS,
                                    const RestoreLimits &Limits) {
  SnapshotHeader H;
  if (SnapshotError E = readHeader(Data, N, H); E != SnapshotError::None)
    return E;

  // Key check: the identity is a content hash, so it holds across
  // processes, copies, and recompiles of the same source — exactly the
  // cases a shipped checkpoint must survive — while any mutation of the
  // program (which would also bump version()) moves it.
  if (H.CodeIdentity != Prog.identity())
    return SnapshotError::CodeMismatch;
  if (H.MS.Pc >= Prog.size())
    return SnapshotError::BadFieldValue;

  // Allocation guards: nothing sized by the snapshot is allocated until
  // the sizes have cleared the caller's limits.
  if (H.DsCapacity > Limits.MaxStackCells ||
      H.RsCapacity > Limits.MaxStackCells)
    return SnapshotError::LimitExceeded;
  if (H.DataSpaceBytes > Limits.MaxDataSpaceBytes)
    return SnapshotError::LimitExceeded;
  if (H.OutputBytes > Limits.MaxOutputBytes)
    return SnapshotError::LimitExceeded;

  const uint8_t *DsCells = Data + headerBytesFor(H.FormatVersion) + 8;
  const uint8_t *RsCells = DsCells + H.DsDepth * sizeof(vm::Cell) + 8;
  const uint8_t *DataPrefix = RsCells + H.RsDepth * sizeof(vm::Cell) + 8;
  const uint8_t *Output = DataPrefix + H.DataPrefixBytes + 8;

  Ctx.Prog = &Prog;
  Ctx.Machine = &Machine;
  Ctx.DsDepth = 0;
  Ctx.RsDepth = 0;
  Ctx.DsHighWater = 0;
  Ctx.RsHighWater = 0;
  // Cells above the live depths are dead: no engine reads one before
  // writing it, so they are left as they are rather than zero-filled.
  Ctx.setStackCapacities(H.DsCapacity, H.RsCapacity);
  if (H.DsDepth)
    std::memcpy(Ctx.DS.data(), DsCells, H.DsDepth * sizeof(vm::Cell));
  if (H.RsDepth)
    std::memcpy(Ctx.RS.data(), RsCells, H.RsDepth * sizeof(vm::Cell));
  Ctx.DsDepth = H.DsDepth;
  Ctx.RsDepth = H.RsDepth;
  Ctx.DsHighWater = H.DsHighWater;
  Ctx.RsHighWater = H.RsHighWater;
  Ctx.MaxSteps = H.MS.FuelRemaining;
  Ctx.Resume = H.Resume != 0;

  Machine.restoreDataSpace(H.DataSpaceBytes, DataPrefix, H.DataPrefixBytes,
                           static_cast<vm::Cell>(H.Here),
                           H.AccessibleLimit == UINT64_MAX
                               ? static_cast<size_t>(-1)
                               : static_cast<size_t>(H.AccessibleLimit));
  Machine.Out.assign(reinterpret_cast<const char *>(Output), H.OutputBytes);

  MS = H.MS;
  return SnapshotError::None;
}
