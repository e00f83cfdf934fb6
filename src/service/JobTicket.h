//===-- service/JobTicket.h - The service's job identity -------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one vocabulary type naming a job across the whole service surface.
///
/// A job is identified by (tenant, client token): the tenant names the
/// admission domain, the token is the client's idempotency key. PR 9
/// threaded that identity through the front end, the client, and loadgen
/// as an ad-hoc `(std::string, uint64_t)` pair; migration makes the
/// identity travel between shards and between processes, so it becomes a
/// first-class value — hashable (shard selection and map keys), printable
/// (logs and errors), and wire-encodable (the Tenant/Token fields every
/// job-addressed sc-wire frame already carries are exactly a JobTicket).
///
//===----------------------------------------------------------------------===//

#ifndef SC_SERVICE_JOBTICKET_H
#define SC_SERVICE_JOBTICKET_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

namespace sc::service {

/// Identifies one job: the tenant it belongs to plus the client-chosen
/// idempotency token. Value type; totally ordered (map key), hashable
/// (unordered containers, shard selection), printable (str()). On the
/// wire it is the Tenant/Token field pair of any job-addressed frame.
struct JobTicket {
  std::string Tenant;
  uint64_t Token = 0;

  JobTicket() = default;
  JobTicket(std::string Tenant, uint64_t Token)
      : Tenant(std::move(Tenant)), Token(Token) {}

  friend bool operator==(const JobTicket &A, const JobTicket &B) {
    return A.Token == B.Token && A.Tenant == B.Tenant;
  }
  friend bool operator!=(const JobTicket &A, const JobTicket &B) {
    return !(A == B);
  }
  friend bool operator<(const JobTicket &A, const JobTicket &B) {
    if (A.Tenant != B.Tenant)
      return A.Tenant < B.Tenant;
    return A.Token < B.Token;
  }

  /// FNV-1a over the tenant name folded with the token. Stable across
  /// processes (no pointers, no per-process salt): both sides of a
  /// migration agree on a ticket's hash.
  uint64_t hash() const {
    uint64_t H = 1469598103934665603ull;
    for (unsigned char C : Tenant) {
      H ^= C;
      H *= 1099511628211ull;
    }
    for (int I = 0; I < 8; ++I) {
      H ^= static_cast<uint8_t>(Token >> (I * 8));
      H *= 1099511628211ull;
    }
    return H;
  }

  /// "tenant#token", the service's canonical spelling in logs and error
  /// detail strings.
  std::string str() const { return Tenant + "#" + std::to_string(Token); }
};

} // namespace sc::service

template <> struct std::hash<sc::service::JobTicket> {
  size_t operator()(const sc::service::JobTicket &T) const noexcept {
    return static_cast<size_t>(T.hash());
  }
};

#endif // SC_SERVICE_JOBTICKET_H
