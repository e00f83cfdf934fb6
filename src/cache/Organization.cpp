//===-- cache/Organization.cpp - Cache organizations ----------------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "cache/Organization.h"

#include "support/Assert.h"

using namespace sc;
using namespace sc::cache;

Organization::~Organization() = default;

bool Organization::contains(const CacheState &S) const {
  if (!MemberCacheBuilt) {
    enumerate([this](const CacheState &St) {
      MemberCache.insert(St.encode());
    });
    MemberCacheBuilt = true;
  }
  return MemberCache.count(S.encode()) != 0;
}

// --- Closed forms -----------------------------------------------------------

uint64_t sc::cache::minimalStateCount(unsigned N) { return N + 1; }

uint64_t sc::cache::overflowMoveOptStateCount(unsigned N) {
  return static_cast<uint64_t>(N) * N + 1;
}

uint64_t sc::cache::arbitraryShuffleStateCount(unsigned N) {
  // sum over d of the number of injective maps from d items to N regs.
  uint64_t Total = 0, Perm = 1;
  for (unsigned D = 0; D <= N; ++D) {
    Total += Perm;
    Perm *= (N - D); // P(N, D+1) = P(N, D) * (N - D)
  }
  return Total;
}

uint64_t sc::cache::nPlusOneItemsStateCount(unsigned N) {
  uint64_t Total = 0, Pow = 1;
  for (unsigned D = 0; D <= N + 1; ++D) {
    Total += Pow;
    Pow *= N;
  }
  return Total;
}

uint64_t sc::cache::oneDuplicationStateCount(unsigned N) {
  // minimal states plus one dup-pair choice for every cached depth
  // m in [2, N+1]: sum C(m,2) = C(N+2,3).
  uint64_t N64 = N;
  return (N64 + 2) * (N64 + 1) * N64 / 6 + N64 + 1;
}

uint64_t sc::cache::twoStackStateCount(unsigned N) { return 3ull * N; }

// --- Concrete organizations --------------------------------------------------

namespace {

/// One state per number of cached items; fixed bottom-anchored layout.
class MinimalOrg final : public Organization {
public:
  using Organization::Organization;
  const char *name() const override { return "minimal"; }

  void enumerate(
      const std::function<void(const CacheState &)> &Fn) const override {
    for (unsigned D = 0; D <= numRegs(); ++D)
      Fn(CacheState::minimal(D));
  }

  uint64_t countStates() const override {
    return minimalStateCount(numRegs());
  }

  bool contains(const CacheState &S) const override {
    return S.depth() <= numRegs() && S.isMinimal();
  }
};

/// Rotated minimal layouts: on overflow only the bottom item is stored
/// and its register is reused for the top, avoiding the move avalanche
/// (Section 3.3, second solution).
class OverflowMoveOptOrg final : public Organization {
public:
  using Organization::Organization;
  const char *name() const override { return "overflow move opt."; }

  void enumerate(
      const std::function<void(const CacheState &)> &Fn) const override {
    Fn(CacheState::minimal(0));
    unsigned N = numRegs();
    for (unsigned D = 1; D <= N; ++D)
      for (unsigned B = 0; B < N; ++B) {
        CacheState S;
        for (unsigned I = 0; I < D; ++I)
          S.pushReg(0); // placeholder, overwritten below
        for (unsigned I = 0; I < D; ++I)
          S.setReg(I, static_cast<RegId>((B + (D - 1 - I)) % N));
        Fn(S);
      }
  }

  uint64_t countStates() const override {
    return overflowMoveOptStateCount(numRegs());
  }

  bool contains(const CacheState &S) const override {
    unsigned D = S.depth(), N = numRegs();
    if (D == 0)
      return true;
    if (D > N)
      return false;
    unsigned B = S.reg(D - 1); // register of the deepest cached item
    for (unsigned I = 0; I < D; ++I)
      if (S.reg(I) != (B + (D - 1 - I)) % N)
        return false;
    return true;
  }
};

/// Any injective assignment of cached items to registers (Section 3.4's
/// "extreme form" for shuffle instructions).
class ArbitraryShuffleOrg final : public Organization {
public:
  using Organization::Organization;
  const char *name() const override { return "arbitrary shuffles"; }

  void enumerate(
      const std::function<void(const CacheState &)> &Fn) const override {
    CacheState S;
    enumerateFrom(S, 0, Fn);
  }

  uint64_t countStates() const override {
    return arbitraryShuffleStateCount(numRegs());
  }

  bool contains(const CacheState &S) const override {
    return S.depth() <= numRegs() && !S.hasDuplicate();
  }

private:
  void enumerateFrom(
      CacheState &S, uint32_t UsedMask,
      const std::function<void(const CacheState &)> &Fn) const {
    Fn(S);
    if (S.depth() == numRegs())
      return;
    for (unsigned R = 0; R < numRegs(); ++R) {
      if (UsedMask & (1u << R))
        continue;
      S.pushReg(static_cast<RegId>(R));
      enumerateFrom(S, UsedMask | (1u << R), Fn);
      S.popTop();
    }
  }
};

/// Up to n+1 items in n registers, any order, any duplication (Fig. 18's
/// "n+1 stack items" row).
class NPlusOneOrg final : public Organization {
public:
  using Organization::Organization;
  const char *name() const override { return "n+1 stack items"; }

  void enumerate(
      const std::function<void(const CacheState &)> &Fn) const override {
    CacheState S;
    enumerateFrom(S, Fn);
  }

  uint64_t countStates() const override {
    return nPlusOneItemsStateCount(numRegs());
  }

  bool contains(const CacheState &S) const override {
    if (S.depth() > numRegs() + 1)
      return false;
    for (unsigned I = 0; I < S.depth(); ++I)
      if (S.reg(I) >= numRegs())
        return false;
    return true;
  }

private:
  void enumerateFrom(
      CacheState &S,
      const std::function<void(const CacheState &)> &Fn) const {
    Fn(S);
    if (S.depth() == numRegs() + 1)
      return;
    for (unsigned R = 0; R < numRegs(); ++R) {
      S.pushReg(static_cast<RegId>(R));
      enumerateFrom(S, Fn);
      S.popTop();
    }
  }
};

/// Minimal organization extended with one (arbitrary) duplication of a
/// stack item (Fig. 17 generalized; Fig. 18's "one duplication" row).
///
/// A duplication state with m cached stack items is defined by the pair
/// of positions i < j that share a register: the m positions use the
/// m-1 distinct registers in bottom-anchored canonical order once
/// position j is deleted, and Slots[j] == Slots[i].
class OneDuplicationOrg final : public Organization {
public:
  using Organization::Organization;
  const char *name() const override { return "one duplication"; }

  void enumerate(
      const std::function<void(const CacheState &)> &Fn) const override {
    unsigned N = numRegs();
    for (unsigned D = 0; D <= N; ++D)
      Fn(CacheState::minimal(D));
    for (unsigned M = 2; M <= N + 1; ++M)
      for (unsigned I = 0; I + 1 < M; ++I)
        for (unsigned J = I + 1; J < M; ++J)
          Fn(makeDupState(M, I, J));
  }

  uint64_t countStates() const override {
    return oneDuplicationStateCount(numRegs());
  }

private:
  CacheState makeDupState(unsigned M, unsigned I, unsigned J) const {
    // Canonical layout of the m-1 distinct items with position J removed,
    // then duplicate position I's register into position J.
    CacheState S;
    unsigned Distinct = M - 1;
    unsigned Next = Distinct; // registers are assigned top-down
    for (unsigned P = 0; P < M; ++P) {
      if (P == J) {
        S.insertAt(P, 0); // patched below, after I's register is known
        continue;
      }
      S.insertAt(P, static_cast<RegId>(--Next + 0));
    }
    // Renumber: canonical bottom-anchored means deepest distinct item has
    // register 0; the loop above assigned Distinct-1..0 in top-down order
    // over the non-J positions, which is exactly that.
    S.setReg(J, S.reg(I));
    return S;
  }
};

} // namespace

std::unique_ptr<Organization> sc::cache::makeOrganization(OrgKind K,
                                                          unsigned NumRegs) {
  switch (K) {
  case OrgKind::Minimal:
    return std::make_unique<MinimalOrg>(NumRegs);
  case OrgKind::OverflowMoveOpt:
    return std::make_unique<OverflowMoveOptOrg>(NumRegs);
  case OrgKind::ArbitraryShuffle:
    return std::make_unique<ArbitraryShuffleOrg>(NumRegs);
  case OrgKind::NPlusOneItems:
    return std::make_unique<NPlusOneOrg>(NumRegs);
  case OrgKind::OneDuplication:
    return std::make_unique<OneDuplicationOrg>(NumRegs);
  }
  sc::unreachable("bad OrgKind");
}

const char *sc::cache::orgKindName(OrgKind K) {
  switch (K) {
  case OrgKind::Minimal:
    return "minimal";
  case OrgKind::OverflowMoveOpt:
    return "overflow move opt.";
  case OrgKind::ArbitraryShuffle:
    return "arbitrary shuffles";
  case OrgKind::NPlusOneItems:
    return "n+1 stack items";
  case OrgKind::OneDuplication:
    return "one duplication";
  }
  sc::unreachable("bad OrgKind");
}

std::vector<TwoStackState> TwoStackOrganization::allStates() const {
  std::vector<TwoStackState> Out;
  for (unsigned R = 0; R <= 2 && R <= NumRegs_; ++R)
    for (unsigned D = 0; D + R <= NumRegs_; ++D)
      Out.push_back(TwoStackState{static_cast<uint8_t>(D),
                                  static_cast<uint8_t>(R)});
  return Out;
}
