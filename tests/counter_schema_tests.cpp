//===-- tests/counter_schema_tests.cpp - One counter schema ---------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
//
// Every always-on counter set is declared once, as an X-macro field table
// (metrics/Counters.h), from which the struct, operator+= and toJson are
// generated. These tests pin each table against an independent list of
// (JSON key, member) pairs in the order the hand-written serializers used
// to emit them, and pin the key lists of the two JSON documents the
// benchmark pipeline reads (the scheduler snapshot and the service stats
// block).
//
//===----------------------------------------------------------------------===//

#include "metrics/Counters.h"
#include "sched/SessionScheduler.h"
#include "service/Client.h"
#include "service/Service.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace sc;

namespace {

template <typename Set>
using Schema = std::vector<std::pair<std::string, uint64_t Set::*>>;

/// Sets every field of a Set to a distinct value through \p Expected's
/// member pointers, then checks that toJson emits exactly \p Expected's
/// keys, in order, each with its field's value, and that += adds every
/// field.
template <typename Set> void checkSchema(const Schema<Set> &Expected) {
  size_t Visited = 0;
  Set::forEachCounter([&](const char *, uint64_t Set::*) { ++Visited; });
  EXPECT_EQ(Visited, Expected.size()) << "table and expected list differ";

  Set A, B;
  for (size_t I = 0; I < Expected.size(); ++I) {
    A.*Expected[I].second = I + 1;
    B.*Expected[I].second = 1000 * (I + 1);
  }
  const metrics::Json J = metrics::toJson(A);
  ASSERT_TRUE(J.isObject());
  ASSERT_EQ(J.members().size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I) {
    EXPECT_EQ(J.members()[I].first, Expected[I].first) << "position " << I;
    EXPECT_EQ(J.members()[I].second.asInt(), static_cast<int64_t>(I + 1))
        << Expected[I].first;
  }

  A += B;
  for (size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(A.*Expected[I].second, 1001 * (I + 1)) << Expected[I].first;
}

std::vector<std::string> keysOf(const metrics::Json &Obj) {
  std::vector<std::string> Keys;
  for (const auto &[K, V] : Obj.members())
    Keys.push_back(K);
  return Keys;
}

} // namespace

TEST(CounterSchema, PrepareCounters) {
  using S = metrics::PrepareCounters;
  static_assert(sizeof(S) == 6 * sizeof(uint64_t),
                "a field outside the table");
  checkSchema<S>({{"hits", &S::Hits},
                  {"misses", &S::Misses},
                  {"invalidations", &S::Invalidations},
                  {"translations", &S::Translations},
                  {"identity_hits", &S::IdentityHits},
                  {"identity_misses", &S::IdentityMisses}});
}

TEST(CounterSchema, SessionCounters) {
  using S = metrics::SessionCounters;
  static_assert(sizeof(S) == 15 * sizeof(uint64_t),
                "a field outside the table");
  checkSchema<S>({{"slices", &S::Slices},
                  {"steps_executed", &S::StepsExecuted},
                  {"fuel_exhausted", &S::FuelExhausted},
                  {"deadline_hits", &S::DeadlineHits},
                  {"cancellations", &S::Cancellations},
                  {"fallback_replays", &S::FallbackReplays},
                  {"faults_confirmed", &S::FaultsConfirmed},
                  {"faults_refuted", &S::FaultsRefuted},
                  {"replays_inconclusive", &S::ReplaysInconclusive},
                  {"quarantines", &S::Quarantines},
                  {"quarantine_rejections", &S::QuarantineRejections},
                  {"checkpoints", &S::Checkpoints},
                  {"restores", &S::Restores},
                  {"leader_fallbacks", &S::LeaderFallbacks},
                  {"migrations", &S::Migrations}});
}

TEST(CounterSchema, TierCounters) {
  using S = metrics::TierCounters;
  static_assert(sizeof(S) == 5 * sizeof(uint64_t),
                "a field outside the table");
  checkSchema<S>({{"promotions", &S::Promotions},
                  {"demotions", &S::Demotions},
                  {"prepare_requests", &S::PrepareRequests},
                  {"prepares", &S::Prepares},
                  {"prepare_ns", &S::PrepareNs}});
}

TEST(CounterSchema, TenantCounters) {
  using S = sched::TenantCounters;
  static_assert(sizeof(S) == sizeof(std::string) + 15 * sizeof(uint64_t),
                "a field outside the table");
  checkSchema<S>({{"submitted", &S::Submitted},
                  {"rejected", &S::Rejected},
                  {"dispatches", &S::Dispatches},
                  {"slices", &S::Slices},
                  {"steps", &S::Steps},
                  {"preemptions", &S::Preemptions},
                  {"completed", &S::Completed},
                  {"faults", &S::Faults},
                  {"deadline_hits", &S::DeadlineHits},
                  {"cancellations", &S::Cancellations},
                  {"crashes", &S::Crashes},
                  {"recoveries", &S::Recoveries},
                  {"tier_promotions", &S::TierPromotions},
                  {"tier_demotions", &S::TierDemotions},
                  {"queue_depth", &S::QueueDepth}});
}

TEST(CounterSchema, ServiceStats) {
  using S = service::ServiceStats;
  static_assert(sizeof(S) == 17 * sizeof(uint64_t),
                "a field outside the table");
  checkSchema<S>({{"submitted", &S::Submitted},
                  {"duplicates", &S::Duplicates},
                  {"completed", &S::Completed},
                  {"polls", &S::Polls},
                  {"cancels", &S::Cancels},
                  {"rejected_busy", &S::RejectedBusy},
                  {"rejected_saturated", &S::RejectedSaturated},
                  {"rejected_degraded", &S::RejectedDegraded},
                  {"rejected_closed", &S::RejectedClosed},
                  {"errors", &S::Errors},
                  {"shard_kills", &S::ShardKills},
                  {"jobs_recovered", &S::JobsRecovered},
                  {"jobs_recycled", &S::JobsRecycled},
                  {"rebalanced", &S::Rebalanced},
                  {"migrated_out", &S::MigratedOut},
                  {"migrated_in", &S::MigratedIn},
                  {"migrations_abandoned", &S::MigrationsAbandoned}});
}

TEST(CounterSchema, ClientStats) {
  using S = service::ClientStats;
  static_assert(sizeof(S) == 9 * sizeof(uint64_t),
                "a field outside the table");
  checkSchema<S>({{"calls", &S::Calls},
                  {"attempts", &S::Attempts},
                  {"retries", &S::Retries},
                  {"reconnects", &S::Reconnects},
                  {"timeouts", &S::Timeouts},
                  {"rejects", &S::Rejects},
                  {"stale_replies", &S::StaleReplies},
                  {"decode_errors", &S::DecodeErrors},
                  {"failures", &S::Failures}});
}

// The key lists below are what the hand-written serializers emitted
// before the field tables existed; perfbench and the sc-bench-v1
// pipeline read these documents by key.

TEST(CounterSchemaGolden, SchedSnapshotKeys) {
  sched::SchedConfig Cfg;
  Cfg.Workers = 1;
  sched::SessionScheduler S(Cfg);
  S.addTenant("t0");
  const metrics::Json J = sched::snapshotToJson(S.snapshot());
  EXPECT_EQ(keysOf(J),
            (std::vector<std::string>{"workers", "busy_workers", "total_steps",
                                      "total_dispatches", "p50_dispatch_ns",
                                      "p99_dispatch_ns", "tenants"}));
  const metrics::Json *Ts = J.find("tenants");
  ASSERT_TRUE(Ts && Ts->isArray());
  ASSERT_EQ(Ts->size(), 1u);
  EXPECT_EQ(keysOf(Ts->at(0)),
            (std::vector<std::string>{
                "name", "submitted", "rejected", "dispatches", "slices",
                "steps", "preemptions", "completed", "faults",
                "deadline_hits", "cancellations", "crashes", "recoveries",
                "tier_promotions", "tier_demotions", "queue_depth"}));
  EXPECT_EQ(Ts->at(0).find("name")->asString(), "t0");
}

TEST(CounterSchemaGolden, ServiceStatsBlockKeys) {
  service::ServiceFrontEnd FE;
  const metrics::Json J = FE.statsJson();
  const metrics::Json *Svc = J.find("service");
  ASSERT_TRUE(Svc && Svc->isObject());
  EXPECT_EQ(keysOf(*Svc),
            (std::vector<std::string>{
                "submitted", "duplicates", "completed", "polls", "cancels",
                "rejected_busy", "rejected_saturated", "rejected_degraded",
                "rejected_closed", "errors", "shard_kills", "jobs_recovered",
                "jobs_recycled", "rebalanced", "migrated_out", "migrated_in",
                "migrations_abandoned"}));
}
