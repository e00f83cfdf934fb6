//===-- vm/Vm.h - Machine state outside the stacks -------------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parts of the machine that live outside the engines: byte-addressable
/// data space (Forth's HERE/ALLOT arena) and the output sink. Engines
/// mutate a Vm through the inline accessors here; all accesses are bounds
/// checked so a buggy guest program cannot corrupt the host.
///
/// The Vm also keeps a touched-bytes bound under one invariant: every
/// arena byte at or above touchedBound() is zero. Every write raises it
/// (storeCell/storeByte/writeBytes, behind a branch that is not taken
/// once the bound covers a program's working set), so what lives beside
/// the running program — checkpoints, restores, recycled copies — costs
/// what the program wrote, not the 1 MiB it could have written.
///
//===----------------------------------------------------------------------===//

#ifndef SC_VM_VM_H
#define SC_VM_VM_H

#include "support/Assert.h"
#include "vm/Cell.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

namespace sc::vm {

/// Data space plus output sink. One Vm instance is shared by a program's
/// compile time (the front end allocates variables here) and run time.
class Vm {
  std::vector<uint8_t> Mem;
  Cell Here = CellBytes; // address 0 is reserved as a guaranteed trap
  size_t AccessibleLimit = static_cast<size_t>(-1); // run-time access cap
  size_t Touched = 0; // every Mem byte at index >= Touched is zero

  void touch(size_t End) {
    if (End > Touched) [[unlikely]]
      Touched = End;
  }

public:
  /// Output accumulated by Emit/Dot/TypeOp/...
  std::string Out;

  explicit Vm(size_t DataSpaceBytes = 1u << 20) : Mem(DataSpaceBytes, 0) {}

  Vm(const Vm &) = default;
  Vm(Vm &&) = default;
  Vm &operator=(Vm &&) = default;

  /// Same-size assignment (the scheduler's job recycling) copies only the
  /// bytes below \p Src's bound and clears only what this Vm had touched
  /// above it; the result equals a full copy because both arenas are zero
  /// beyond their bounds.
  Vm &operator=(const Vm &Src) {
    if (this == &Src)
      return *this;
    if (Mem.size() == Src.Mem.size()) {
      if (Src.Touched)
        std::memcpy(Mem.data(), Src.Mem.data(), Src.Touched);
      if (Touched > Src.Touched)
        std::memset(Mem.data() + Src.Touched, 0, Touched - Src.Touched);
    } else {
      Mem = Src.Mem;
    }
    Touched = Src.Touched;
    Here = Src.Here;
    AccessibleLimit = Src.AccessibleLimit;
    Out = Src.Out;
    return *this;
  }

  size_t dataSpaceSize() const { return Mem.size(); }

  /// Bytes of data space guest accesses may touch: the allocation size,
  /// optionally capped by setAccessibleLimit.
  size_t accessibleSize() const {
    return Mem.size() < AccessibleLimit ? Mem.size() : AccessibleLimit;
  }

  /// Caps the data space visible to guest loads/stores without
  /// reallocating. FaultInject shrinks this below an allocated address to
  /// force BadMemAccess deterministically; compile-time allot() is
  /// unaffected.
  void setAccessibleLimit(size_t Bytes) { AccessibleLimit = Bytes; }

  /// Current allocation pointer (Forth HERE).
  Cell here() const { return Here; }

  /// Allocates \p Bytes of data space and returns the start address.
  /// Asserts on exhaustion (allocation happens at compile time only).
  Cell allot(Cell Bytes) {
    SC_ASSERT(Bytes >= 0, "negative allot");
    SC_ASSERT(static_cast<size_t>(Here + Bytes) <= Mem.size(),
              "data space exhausted");
    Cell Addr = Here;
    Here += Bytes;
    return Addr;
  }

  /// Aligns HERE up to a cell boundary.
  void align() { Here = (Here + CellBytes - 1) & ~(CellBytes - 1); }

  /// True if [Addr, Addr+Bytes) is a valid data-space range.
  bool validRange(Cell Addr, Cell Bytes) const {
    return Addr >= CellBytes && static_cast<UCell>(Addr) +
                                        static_cast<UCell>(Bytes) <=
                                    accessibleSize();
  }

  /// Loads a cell; caller must have checked validRange(Addr, CellBytes).
  Cell loadCell(Cell Addr) const {
    Cell V;
    std::memcpy(&V, Mem.data() + Addr, sizeof(Cell));
    return V;
  }

  /// Stores a cell; caller must have checked validRange(Addr, CellBytes).
  void storeCell(Cell Addr, Cell V) {
    touch(static_cast<size_t>(Addr) + sizeof(Cell));
    std::memcpy(Mem.data() + Addr, &V, sizeof(Cell));
  }

  /// Loads a byte; caller must have checked validRange(Addr, 1).
  Cell loadByte(Cell Addr) const { return Mem[static_cast<size_t>(Addr)]; }

  /// Stores the low byte of \p V; caller must have checked the range.
  void storeByte(Cell Addr, Cell V) {
    touch(static_cast<size_t>(Addr) + 1);
    Mem[static_cast<size_t>(Addr)] = static_cast<uint8_t>(V);
  }

  /// Copies a host byte string into data space at \p Addr.
  void writeBytes(Cell Addr, const void *Src, size_t N) {
    SC_ASSERT(validRange(Addr, static_cast<Cell>(N)), "writeBytes range");
    touch(static_cast<size_t>(Addr) + N);
    std::memcpy(Mem.data() + Addr, Src, N);
  }

  /// Reads \p N bytes of data space as a host string (for tests and Io).
  std::string readBytes(Cell Addr, size_t N) const {
    SC_ASSERT(validRange(Addr, static_cast<Cell>(N)), "readBytes range");
    return std::string(reinterpret_cast<const char *>(Mem.data() + Addr), N);
  }

  /// --- Output helpers used by the Io opcodes -----------------------------

  void emitChar(Cell C) { Out.push_back(static_cast<char>(C)); }

  void printNumber(Cell V) {
    Out += std::to_string(V);
    Out.push_back(' ');
  }

  void typeRange(Cell Addr, Cell Len) {
    Out.append(reinterpret_cast<const char *>(Mem.data() + Addr),
               static_cast<size_t>(Len));
  }

  /// Resets run-time state (output) but keeps compile-time allocations.
  void resetOutput() { Out.clear(); }

  /// --- Snapshot support --------------------------------------------------

  /// Raw data-space bytes, for serialization. Guest code never sees this;
  /// the snapshot writer trims the trailing zero run so an almost-empty
  /// 1 MiB arena costs a few hundred bytes on the wire.
  const uint8_t *memData() const { return Mem.data(); }

  /// The touched-bytes bound: every data-space byte at or above it is
  /// zero. Writes only raise it, restores and assignments reset it, and it
  /// never exceeds dataSpaceSize(); the bytes below it may be zero too.
  size_t touchedBound() const { return Touched; }

  /// The raw access cap, uncombined with the allocation size (contrast
  /// accessibleSize()). size_t(-1) means uncapped; snapshots must round-
  /// trip the distinction so a restored FaultInject run keeps its trap.
  size_t accessibleLimit() const { return AccessibleLimit; }

  /// Rebuilds the data space from a snapshot: \p Bytes of space with the
  /// first \p N bytes copied from \p Prefix and the rest zeroed, HERE and
  /// the access cap installed verbatim. Validation (prefix fits, HERE in
  /// range) is the deserializer's job; this just installs checked values.
  void restoreDataSpace(size_t Bytes, const uint8_t *Prefix, size_t N,
                        Cell NewHere, size_t Limit) {
    SC_ASSERT(N <= Bytes, "snapshot prefix exceeds data space");
    if (Mem.size() == Bytes) {
      if (Touched > N)
        std::memset(Mem.data() + N, 0, Touched - N);
    } else {
      Mem.assign(Bytes, 0);
    }
    if (N)
      std::memcpy(Mem.data(), Prefix, N);
    Touched = N;
    Here = NewHere;
    AccessibleLimit = Limit;
  }
};

} // namespace sc::vm

#endif // SC_VM_VM_H
