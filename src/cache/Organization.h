//===-- cache/Organization.h - Cache organizations -------------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache organizations of Section 3.5 / Figure 18: which set of cache
/// states is allowed. Each organization can enumerate its states and
/// report its cardinality in closed form; the test suite checks that the
/// two agree and that the closed forms reproduce Figure 18 exactly.
///
///   minimal            : one state per item count            -> n+1
///   overflow move opt. : rotations of the minimal layout     -> n^2+1
///   arbitrary shuffles : injective item->register maps       -> sum n!/(n-d)!
///   n+1 stack items    : any map of <=n+1 items to n regs -> sum n^d
///   one duplication    : minimal + one duplicated item       -> C(n+2,3)+n+1
///   two stacks         : minimal data + <=2 return items     -> 3n
///
/// The two-stack organization has a different state space (a pair of
/// depths); it is provided separately as TwoStackOrganization.
///
//===----------------------------------------------------------------------===//

#ifndef SC_CACHE_ORGANIZATION_H
#define SC_CACHE_ORGANIZATION_H

#include "cache/CacheState.h"

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

namespace sc::cache {

/// Which organization; used to construct one by kind.
enum class OrgKind {
  Minimal,
  OverflowMoveOpt,
  ArbitraryShuffle,
  NPlusOneItems,
  OneDuplication,
};

/// A set of allowed cache states over a fixed register file.
class Organization {
  unsigned NumRegs_;
  mutable std::unordered_set<uint64_t> MemberCache; // lazily built
  mutable bool MemberCacheBuilt = false;

public:
  explicit Organization(unsigned NumRegs) : NumRegs_(NumRegs) {
    SC_ASSERT(NumRegs >= 1 && NumRegs <= MaxCacheRegs, "bad register count");
  }
  virtual ~Organization();

  unsigned numRegs() const { return NumRegs_; }
  virtual const char *name() const = 0;

  /// Calls \p Fn once per allowed state.
  virtual void enumerate(
      const std::function<void(const CacheState &)> &Fn) const = 0;

  /// Number of allowed states, in closed form (no enumeration).
  virtual uint64_t countStates() const = 0;

  /// Membership test. The default builds a hash set from enumerate() on
  /// first use; subclasses with cheap closed-form tests override it.
  virtual bool contains(const CacheState &S) const;
};

/// Creates the organization \p K with \p NumRegs registers.
std::unique_ptr<Organization> makeOrganization(OrgKind K, unsigned NumRegs);

/// Display name for an OrgKind (matches Figure 18's row labels).
const char *orgKindName(OrgKind K);

/// --- Closed forms (Figure 18's rightmost column) --------------------------

uint64_t minimalStateCount(unsigned N);            // n+1
uint64_t overflowMoveOptStateCount(unsigned N);    // n^2+1
uint64_t arbitraryShuffleStateCount(unsigned N);   // sum_{d=0..n} n!/(n-d)!
uint64_t nPlusOneItemsStateCount(unsigned N);      // sum_{d=0..n+1} n^d
uint64_t oneDuplicationStateCount(unsigned N);     // C(n+2,3) + n + 1
uint64_t twoStackStateCount(unsigned N);           // 3n

/// --- Two-stack organization (separate state space) -------------------------

/// State of the combined data/return cache: how many items of each stack
/// are held in the shared register file.
struct TwoStackState {
  uint8_t DataDepth = 0;
  uint8_t RetDepth = 0;
  friend bool operator==(TwoStackState A, TwoStackState B) {
    return A.DataDepth == B.DataDepth && A.RetDepth == B.RetDepth;
  }
};

/// The minimal-organization pair of caches of Fig. 18's "two stacks" row:
/// up to two return-stack items share the registers with the data stack.
class TwoStackOrganization {
  unsigned NumRegs_;

public:
  explicit TwoStackOrganization(unsigned NumRegs) : NumRegs_(NumRegs) {}
  unsigned numRegs() const { return NumRegs_; }
  bool contains(TwoStackState S) const {
    return S.RetDepth <= 2 && S.DataDepth + S.RetDepth <= NumRegs_;
  }
  std::vector<TwoStackState> allStates() const;
  uint64_t countStates() const { return twoStackStateCount(NumRegs_); }
};

} // namespace sc::cache

#endif // SC_CACHE_ORGANIZATION_H
