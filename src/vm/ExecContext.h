//===-- vm/ExecContext.h - Engine-independent machine state ----*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state an engine runs against: code, data space, both stacks and an
/// instruction budget. Every engine in this project (switch, threaded,
/// call-threaded, TOS-cached, dynamically cached, statically cached) takes
/// an ExecContext so they can be compared and differentially tested.
///
//===----------------------------------------------------------------------===//

#ifndef SC_VM_EXECCONTEXT_H
#define SC_VM_EXECCONTEXT_H

#include "vm/Cell.h"
#include "vm/Code.h"
#include "vm/RunResult.h"
#include "vm/Vm.h"

#include <cstdint>
#include <vector>

namespace sc::metrics {
struct Counters;
} // namespace sc::metrics

namespace sc::vm {

/// Machine state shared by all engines. The data and return stacks live
/// here so that the host can seed arguments, inspect results, and resume
/// across engine invocations (the Forth top-level evaluator does this).
struct ExecContext {
  /// Default capacity of each stack, in cells.
  static constexpr unsigned StackCells = 16384;

  /// Physical slack allocated beyond the logical capacity. Statically
  /// cached code keeps up to two logical stack items in registers; an
  /// absorbed stack manipulation can therefore briefly represent a depth
  /// up to two cells past the capacity before the (deferred) overflow
  /// trap fires. The slack makes that deferral memory-safe; logical
  /// overflow checks still use the exact capacity. See docs/TRAPS.md.
  static constexpr unsigned StackSlackCells = 2;

  const Code *Prog = nullptr;
  Vm *Machine = nullptr;

  /// Logical stack capacities, injectable per run (FaultInject shrinks
  /// them to force each overflow class deterministically).
  unsigned DsCapacity = StackCells;
  unsigned RsCapacity = StackCells;

  std::vector<Cell> DS = std::vector<Cell>(StackCells + StackSlackCells);
  std::vector<Cell> RS = std::vector<Cell>(StackCells + StackSlackCells);
  unsigned DsDepth = 0;
  unsigned RsDepth = 0;

  /// Deepest depth observed at a sampling point: run entry/exit, traps,
  /// and host pushes. A guaranteed lower bound on the true peak (engines
  /// do not instrument every push); harness::measureDsHighWater computes
  /// the exact peak by capacity bisection.
  unsigned DsHighWater = 0;
  unsigned RsHighWater = 0;

  /// Instruction budget; engines stop with RunStatus::StepLimit when it is
  /// exhausted. Defaults to effectively unlimited.
  uint64_t MaxSteps = UINT64_MAX;

  /// Caller-managed resume flag. When false (a fresh run), engines seed
  /// the return stack with the sentinel return address 0 so the entry
  /// word's Exit lands on the Halt at instruction 0. When true, the
  /// sentinel is already on the return stack from the interrupted run
  /// and engines enter without checking or pushing anything: re-entering
  /// at a StepLimit stop's Fault.Pc then continues the original run
  /// exactly (see docs/TRAPS.md, "Preemption and resume"). Engines never
  /// clear the flag; sliced drivers set it once after the first slice.
  bool Resume = false;

  /// Execution counters, filled by engines when non-null and the build
  /// has SC_STATS. Never touched otherwise (zero-cost when off).
  metrics::Counters *Stats = nullptr;

  /// Pooled scratch buffers, owned by the context so repeated runs reuse
  /// storage instead of heap-allocating per run. TosScratch holds the TOS
  /// engine's shadow stack buffer; RegScratch holds the register-VM's
  /// virtual register file plus flush scratch. Both grow on demand and
  /// are never shrunk.
  std::vector<Cell> TosScratch;
  std::vector<Cell> RegScratch;

  ExecContext() = default;
  ExecContext(const Code &C, Vm &V) : Prog(&C), Machine(&V) {}

  /// Re-sizes the logical stack capacities. Existing cells up to the live
  /// depth are preserved; the live depth must fit the new capacities.
  /// Watermarks above a shrunken capacity describe depths that can no
  /// longer occur, so they are clamped to the new limits.
  void setStackCapacities(unsigned Ds, unsigned Rs) {
    SC_ASSERT(DsDepth <= Ds && RsDepth <= Rs, "capacity below live depth");
    DsCapacity = Ds;
    RsCapacity = Rs;
    if (DsHighWater > Ds)
      DsHighWater = Ds;
    if (RsHighWater > Rs)
      RsHighWater = Rs;
    DS.resize(Ds + StackSlackCells);
    RS.resize(Rs + StackSlackCells);
  }

  /// Records the current depths into the high-watermarks.
  void noteHighWater() {
    if (DsDepth > DsHighWater)
      DsHighWater = DsDepth;
    if (RsDepth > RsHighWater)
      RsHighWater = RsDepth;
  }

  /// Pushes \p V onto the data stack (host-side convenience).
  void push(Cell V) {
    SC_ASSERT(DsDepth < DsCapacity, "host push overflow");
    DS[DsDepth++] = V;
    if (DsDepth > DsHighWater)
      DsHighWater = DsDepth;
  }

  /// Pops the data stack (host-side convenience).
  Cell pop() {
    SC_ASSERT(DsDepth > 0, "host pop underflow");
    return DS[--DsDepth];
  }
};

} // namespace sc::vm

#endif // SC_VM_EXECCONTEXT_H
