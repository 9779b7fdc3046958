#include "src/service/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/cube/partials.hpp"
#include "src/net/topology.hpp"
#include "src/obs/metrics.hpp"
#include "src/query/parser.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::service {
namespace {

constexpr Value kBound = 1000;

struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  QueryService svc;
  std::vector<Value> mirror;  // ground truth the simulator also holds

  explicit Fixture(ServiceConfig cfg = {}, std::uint64_t seed = 11)
      : net(net::make_grid(6, 6), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        svc(query::Deployment{net, tree, kBound}, cfg) {
    mirror.resize(36);
    for (NodeId u = 0; u < 36; ++u) {
      mirror[u] = static_cast<Value>((u * 53) % 300);
    }
    net.set_one_item_per_node(mirror);
  }

  /// Drifts node `u` by `delta` (clamped to the model) and returns the
  /// update record.
  SensorUpdate drift(NodeId u, Value delta) {
    const Value v =
        std::clamp<Value>(mirror[u] + delta, 0, kBound);
    mirror[u] = v;
    return SensorUpdate{u, v};
  }

  double exact(const std::string& agg, Value lo, Value hi) const {
    RangeStats rs;
    for (const Value v : mirror) {
      if (v >= lo && v <= hi) rs.observe(v);
    }
    if (agg == "COUNT") return static_cast<double>(rs.count);
    if (agg == "SUM") return static_cast<double>(rs.sum);
    if (agg == "MIN") return static_cast<double>(rs.min);
    if (agg == "MAX") return static_cast<double>(rs.max);
    return static_cast<double>(rs.sum) / static_cast<double>(rs.count);
  }
};

/// Mark + install + Σ query bits of a snapshot.
std::uint64_t ledger_bits(const TelemetrySnapshot& snap) {
  std::uint64_t bits = snap.mark_bits_on_air + snap.install_bits_on_air;
  for (const auto& [id, qc] : snap.queries) bits += qc.bits_on_air;
  return bits;
}

/// Bits and messages in the service ledger: mark + install + Σ query.
std::pair<std::uint64_t, std::uint64_t> ledger(const QueryService& svc) {
  const TelemetrySnapshot snap = svc.telemetry_snapshot();
  std::uint64_t bits = snap.mark_bits_on_air + snap.install_bits_on_air;
  std::uint64_t messages = snap.mark_messages + snap.install_messages;
  for (const auto& [id, qc] : snap.queries) {
    bits += qc.bits_on_air;
    messages += qc.messages;
  }
  return {bits, messages};
}

TEST(QueryService, OneShotQueriesAnswerAtAdmission) {
  Fixture f;
  const auto r = f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 50 AND 250");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().continuous);
  ASSERT_TRUE(r.value().answer.has_value());
  const Answer& a = *r.value().answer;
  EXPECT_DOUBLE_EQ(a.value, f.exact("SUM", 50, 250));
  EXPECT_TRUE(a.exact);
  EXPECT_FALSE(a.from_cache);
  EXPECT_EQ(f.svc.live_queries(), 0u);  // one-shots do not register
}

TEST(QueryService, AdmissionForwardsPinnedDiagnostics) {
  Fixture f;
  const auto bad_parse = f.svc.submit("SELECT COUNT(v) FROM s EVERY 0 EPOCHS");
  ASSERT_FALSE(bad_parse.ok());
  EXPECT_NE(bad_parse.error().find(
                "EVERY interval must be a positive whole number of epochs"),
            std::string::npos);
  const auto inverted =
      f.svc.submit("SELECT COUNT(v) FROM s WHERE v BETWEEN 50 AND 10");
  ASSERT_FALSE(inverted.ok());
  EXPECT_NE(inverted.error().find(
                "WHERE range is empty (lower bound exceeds upper bound)"),
            std::string::npos);
  const auto empty = f.svc.submit("SELECT COUNT(v) FROM s WHERE v > 1000");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.error().find("WHERE range selects no representable value"),
            std::string::npos);
  EXPECT_EQ(f.svc.live_queries(), 0u);
}

TEST(QueryService, PoisonedTextInABatchLosesOnlyItself) {
  ServiceConfig cfg;
  cfg.threads = 2;
  Fixture f{cfg};
  std::string poisoned = "SELECT SUM(v) FROM s WHERE v > 1";
  poisoned.append(400, '0');  // no double holds it
  const std::string huge = "100000000000000000000";  // no Value holds it
  const auto r = f.svc.submit_batch({
      "SELECT COUNT(v) FROM s",
      poisoned,
      "SELECT MAX(v) FROM s WHERE v < " + huge,
      "SELECT COUNT(v) FROM s WHERE v > " + huge,
      "SELECT AVG(v) FROM s WHERE v BETWEEN 20 AND 260",
  });
  ASSERT_EQ(r.size(), 5u);
  ASSERT_FALSE(r[1].ok());
  EXPECT_NE(r[1].error().find("numeric literal out of range"),
            std::string::npos);
  ASSERT_FALSE(r[3].ok());
  EXPECT_NE(r[3].error().find("WHERE range selects no representable value"),
            std::string::npos);
  ASSERT_TRUE(r[0].ok() && r[2].ok() && r[4].ok());
  EXPECT_DOUBLE_EQ(r[0].value().answer->value, 36.0);
  EXPECT_DOUBLE_EQ(r[2].value().answer->value, f.exact("MAX", 0, kBound));
  EXPECT_DOUBLE_EQ(r[4].value().answer->value, f.exact("AVG", 20, 260));
  // Ids go to admitted texts only.
  EXPECT_EQ(r[2].value().id, r[0].value().id + 1);
  EXPECT_EQ(r[4].value().id, r[2].value().id + 1);
}

TEST(QueryService, ContinuousQueriesAnswerOnTheirSchedule) {
  Fixture f;
  const auto r = f.svc.submit("SELECT COUNT(v) FROM s EVERY 2 EPOCHS");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().continuous);
  EXPECT_FALSE(r.value().answer.has_value());
  EXPECT_EQ(f.svc.live_queries(), 1u);

  EXPECT_TRUE(f.svc.run_epoch({}).empty());   // epoch 1: not due
  const auto due = f.svc.run_epoch({});       // epoch 2: due
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, r.value().id);
  EXPECT_EQ(due[0].epoch, 2u);
  EXPECT_DOUBLE_EQ(due[0].value, 36.0);
  EXPECT_TRUE(f.svc.run_epoch({}).empty());   // epoch 3
  EXPECT_EQ(f.svc.run_epoch({}).size(), 1u);  // epoch 4
}

TEST(QueryService, CancelStopsAContinuousQuery) {
  Fixture f;
  const auto r = f.svc.submit("SELECT COUNT(v) FROM s EVERY 1 EPOCHS");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(f.svc.run_epoch({}).size(), 1u);
  EXPECT_TRUE(f.svc.cancel(r.value().id));
  EXPECT_FALSE(f.svc.cancel(r.value().id));  // already gone
  EXPECT_TRUE(f.svc.run_epoch({}).empty());
  EXPECT_EQ(f.svc.live_queries(), 0u);
}

TEST(QueryService, UpdatesFlowIntoAnswers) {
  Fixture f;
  f.svc.submit("SELECT SUM(v) FROM s EVERY 1 EPOCHS").value();
  std::vector<SensorUpdate> batch{f.drift(3, 4), f.drift(17, -4)};
  const auto answers = f.svc.run_epoch(batch);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 0, kBound));
}

TEST(QueryService, UpdateBatchesAreValidatedAgainstTheDriftModel) {
  Fixture f;
  const Value v0 = f.mirror[0];
  // Too-large jump violates max_delta.
  const std::vector<SensorUpdate> jump{{0, v0 + 5}};
  EXPECT_THROW(f.svc.run_epoch(jump), PreconditionError);
  // Two updates for one node in one epoch.
  Fixture g;
  const std::vector<SensorUpdate> dup{{0, g.mirror[0] + 1},
                                      {0, g.mirror[0] + 2}};
  EXPECT_THROW(g.svc.run_epoch(dup), PreconditionError);
}

TEST(QueryService, CacheServesTolerantContinuousQueries) {
  Fixture f;
  // Whole-domain AVG with a loose tolerance: after the first collection the
  // cache's drift bound (staleness * max_delta) stays inside epsilon for
  // several epochs, so due answers come from the cache with zero traffic.
  f.svc.submit("SELECT AVG(v) FROM s EVERY 1 EPOCHS ERROR 0.2").value();
  auto first = f.svc.run_epoch({});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_FALSE(first[0].from_cache);

  const auto msgs_before = f.net.summary().total_messages;
  for (std::uint32_t e = 0; e < 3; ++e) {
    std::vector<SensorUpdate> batch{f.drift(5, 2)};
    const auto answers = f.svc.run_epoch(batch);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_TRUE(answers[0].from_cache);
    EXPECT_GT(answers[0].error_bound, 0.0);
    // The deterministic bound must contain the true current answer.
    EXPECT_LE(std::abs(answers[0].value - f.exact("AVG", 0, kBound)),
              answers[0].error_bound);
  }
  // Cache hits cost only the dirty marks, never a collection wave.
  EXPECT_LT(f.net.summary().total_messages - msgs_before, 3u * 36u);
  EXPECT_EQ(f.svc.telemetry().cache_hits, 3u);
}

TEST(QueryService, SharedGroupsCollectOncePerEpoch) {
  Fixture f;
  // Eight exact subscribers over the same region: one wave serves all.
  for (int i = 0; i < 8; ++i) {
    f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 "
                 "EVERY 1 EPOCHS")
        .value();
  }
  f.svc.run_epoch({});
  EXPECT_EQ(f.svc.plan_stats().stats_waves, 1u);
  const std::vector<SensorUpdate> batch{f.drift(2, 1)};
  const auto answers = f.svc.run_epoch(batch);
  EXPECT_EQ(answers.size(), 8u);
  EXPECT_EQ(f.svc.plan_stats().stats_waves, 2u);
  for (const Answer& a : answers) {
    EXPECT_DOUBLE_EQ(a.value, f.exact("SUM", 20, 200));
  }
}

TEST(QueryService, EmptySelectionsAreFlagged) {
  Fixture f;
  const auto r = f.svc.submit("SELECT MIN(v) FROM s WHERE v BETWEEN 990 AND 1000");
  ASSERT_TRUE(r.ok());
  const Answer& a = *r.value().answer;
  EXPECT_TRUE(a.empty_selection);
  EXPECT_DOUBLE_EQ(a.value, 0.0);
}

TEST(QueryService, DistinctAndMedianRouteAroundTheStatsPath) {
  Fixture f;
  const auto distinct = f.svc.submit("SELECT COUNT_DISTINCT(v) FROM s");
  ASSERT_TRUE(distinct.ok());
  std::vector<Value> seen;
  for (const Value v : f.mirror) {
    if (std::find(seen.begin(), seen.end(), v) == seen.end())
      seen.push_back(v);
  }
  EXPECT_DOUBLE_EQ(distinct.value().answer->value,
                   static_cast<double>(seen.size()));

  const auto median = f.svc.submit("SELECT MEDIAN(v) FROM s");
  ASSERT_TRUE(median.ok());
  std::vector<Value> sorted = f.mirror;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(median.value().answer->value,
                   static_cast<double>(sorted[17]));
}

TEST(QueryService, SharedModeShipsFewerBitsThanNaive) {
  // The tentpole claim in miniature: overlapping continuous queries cost
  // far fewer bits under shared aggregation than under per-query execution.
  ServiceConfig naive_cfg;
  naive_cfg.share_aggregation = false;
  naive_cfg.use_cache = false;
  Fixture shared{};
  Fixture naive{naive_cfg};
  const std::vector<std::string> workload{
      "SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
      "SELECT MIN(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
  };
  for (const auto& q : workload) {
    ASSERT_TRUE(shared.svc.submit(q).ok());
    ASSERT_TRUE(naive.svc.submit(q).ok());
  }
  for (int e = 0; e < 6; ++e) {
    const std::vector<SensorUpdate> su{shared.drift(7, 2)};
    const std::vector<SensorUpdate> nu{naive.drift(7, 2)};
    const auto sa = shared.svc.run_epoch(su);
    const auto na = naive.svc.run_epoch(nu);
    ASSERT_EQ(sa.size(), na.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_DOUBLE_EQ(sa[i].value, na[i].value);  // same exact answers
    }
  }
  const auto shared_bits = shared.net.summary(true).total_bits;
  const auto naive_bits = naive.net.summary(true).total_bits;
  EXPECT_LT(shared_bits * 2, naive_bits);
}

TEST(QueryService, TelemetrySnapshotAttributesCostsToQueriesAndGroups) {
  Fixture f;
  const auto tolerant =
      f.svc.submit("SELECT AVG(v) FROM s EVERY 1 EPOCHS ERROR 0.2").value();
  const auto exact =
      f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 "
                   "EVERY 1 EPOCHS")
          .value();
  f.svc.run_epoch({});
  for (int e = 0; e < 3; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(5, 2)};
    f.svc.run_epoch(batch);
  }

  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();

  // The tolerant whole-domain query pays its first collection, then rides
  // the cache; the exact ranged query pays a fresh wave every epoch.
  const QueryCost& tc = snap.queries.at(tolerant.id);
  EXPECT_EQ(tc.answers, 4u);
  EXPECT_EQ(tc.fresh, 1u);
  EXPECT_EQ(tc.cache_hits, 3u);
  EXPECT_GT(tc.bits_on_air, 0u);
  EXPECT_GT(tc.bound_slack, 0.0);
  const QueryCost& ec = snap.queries.at(exact.id);
  EXPECT_EQ(ec.answers, 4u);
  EXPECT_EQ(ec.fresh, 4u);
  EXPECT_EQ(ec.cache_hits, 0u);
  EXPECT_DOUBLE_EQ(ec.bound_slack, 0.0);
  EXPECT_GT(ec.bits_on_air, tc.bits_on_air);

  // Cache hit accounting is consistent end to end: engine totals, the
  // cache's own counters, and the per-query ledgers all agree.
  EXPECT_EQ(snap.totals.cache_hits, 3u);
  EXPECT_EQ(snap.cache.hits, 3u);
  EXPECT_EQ(snap.cache.hits, tc.cache_hits + ec.cache_hits);
  EXPECT_GT(snap.cache.misses + snap.cache.absent, 0u);

  // Two distinct regions -> two groups, each with one live subscriber, and
  // every group's collections were paid by its subscribers' fresh answers.
  ASSERT_EQ(snap.groups.size(), 2u);
  std::uint64_t group_collections = 0;
  for (const auto& [gid, gc] : snap.groups) {
    EXPECT_EQ(gc.subscribers, 1u);
    group_collections += gc.collections;
  }
  EXPECT_EQ(group_collections, snap.plan.stats_waves);

  // Marginal-cost conservation: per-query bits plus the service-level mark
  // and install buckets account for every bit the network charged.
  const std::uint64_t total_bits = f.net.summary(true).total_bits;
  // The ranged group's install broadcast sits in the install bucket and in
  // its group's ledger, not in any query's.
  EXPECT_GT(snap.install_bits_on_air, 0u);
  for (const auto& [gid, gc] : snap.groups) {
    EXPECT_GT(gc.bits_on_air, 0u);
  }
  std::uint64_t fresh_bits = 0;
  for (const auto& [id, qc] : snap.queries) fresh_bits += qc.bits_on_air;
  EXPECT_GT(fresh_bits, 0u);
  EXPECT_EQ(snap.mark_bits_on_air + snap.install_bits_on_air + fresh_bits,
            total_bits);
}

TEST(QueryService, AttributedBitsPlusMarksEqualNetworkTotal) {
  Fixture f;
  // Whole-domain groups only: no install broadcasts, so the install bucket
  // holds just the admissions' schedule announcements, and query bits plus
  // mark-wave bits plus it must reproduce the network total exactly.
  f.svc.submit("SELECT SUM(v) FROM s EVERY 1 EPOCHS").value();
  f.svc.submit("SELECT COUNT(v) FROM s EVERY 2 EPOCHS").value();
  const auto admitted = f.net.summary(true);
  for (int e = 0; e < 4; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(11, 2)};
    f.svc.run_epoch(batch);
  }
  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  std::uint64_t attributed = snap.mark_bits_on_air + snap.install_bits_on_air;
  std::uint64_t attributed_msgs = snap.mark_messages + snap.install_messages;
  for (const auto& [id, qc] : snap.queries) {
    attributed += qc.bits_on_air;
    attributed_msgs += qc.messages;
  }
  const auto total = f.net.summary(true);
  EXPECT_EQ(snap.install_bits_on_air, admitted.total_bits);
  EXPECT_EQ(snap.install_messages, admitted.total_messages);
  EXPECT_EQ(attributed, total.total_bits);
  EXPECT_EQ(attributed_msgs, total.total_messages);
}

TEST(QueryService, PushesLeaveTheMarkBucketAsAPlainMarkWave) {
  // Standing groups are pushed beside the marks. The mark bucket must still
  // hold exactly what a bare tracker's marks cost on the same updates (the
  // check servicebench's traced twin makes), the images must go to the
  // groups' subscribers, and a re-subscription must not change that.
  Fixture f;
  sim::Network bare_net(net::make_grid(6, 6), /*master_seed=*/11);
  bare_net.set_one_item_per_node(f.mirror);
  cube::DirtyTracker bare(bare_net, f.svc.tree());
  const QueryId exact =
      f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 "
                   "EVERY 1 EPOCHS")
          .value()
          .id;
  QueryId tolerant =
      f.svc.submit("SELECT COUNT(v) FROM s EVERY 2 EPOCHS ERROR 0.5")
          .value()
          .id;
  for (std::uint32_t e = 1; e <= 8; ++e) {
    if (e == 5) {  // re-enrol at another phase
      ASSERT_TRUE(f.svc.cancel(tolerant));
      tolerant =
          f.svc.submit("SELECT COUNT(v) FROM s EVERY 2 EPOCHS ERROR 0.5")
              .value()
              .id;
    }
    const std::vector<SensorUpdate> batch{f.drift(e, 3), f.drift(30 - e, -2)};
    std::vector<NodeId> touched;
    for (const SensorUpdate& u : batch) {
      bare_net.update_item(u.node, 0, u.value);
      touched.push_back(u.node);
    }
    bare.note_updates(touched, e);
    for (const Answer& a : f.svc.run_epoch(batch)) {
      if (a.id == exact) {
        EXPECT_DOUBLE_EQ(a.value, f.exact("SUM", 20, 200));
      }
    }
  }
  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  EXPECT_EQ(snap.mark_bits_on_air, bare_net.summary(true).total_bits);
  EXPECT_EQ(snap.mark_messages, bare_net.summary(true).total_messages);
  EXPECT_GT(snap.plan.push_messages, 0u);
  EXPECT_EQ(snap.plan.stats_convergecasts, 0u);  // no pull at all
  EXPECT_GT(snap.queries.at(exact).bits_on_air, 0u);
  // The whole-domain COUNT never moves, so the cache answers it and its
  // pushes go unread.
  EXPECT_GT(snap.totals.pushed_unread_image_bits, 0u);
  EXPECT_EQ(ledger_bits(snap), f.net.summary(true).total_bits);
}

TEST(QueryService, CubePushesStandingSlotsBesideTheMarks) {
  // With the cube, a standing stats plan's cells and standing residue slots
  // are pushed. The first serve pulls (the nodes learn the geometry from
  // it, and the schedules ride that install), and so does the first serve
  // that installs a standing residue slot; after that, every due slot rides
  // the marks and no collect() sends. The mark bucket holds exactly what a
  // bare tracker's marks cost, a re-subscription's schedule goes to the
  // install bucket, and the answers stay exact.
  ServiceConfig cfg;
  cfg.use_cube = true;
  Fixture f{cfg};
  sim::Network bare_net(net::make_grid(6, 6), /*master_seed=*/11);
  bare_net.set_one_item_per_node(f.mirror);
  cube::DirtyTracker bare(bare_net, f.svc.tree());
  const QueryId sum =
      f.svc.submit("SELECT SUM(v) FROM s EVERY 1 EPOCHS").value().id;
  const QueryId count =
      f.svc.submit("SELECT COUNT(v) FROM s WHERE v BETWEEN 40 AND 260 "
                   "EVERY 2 EPOCHS")
          .value()
          .id;
  QueryId tolerant =
      f.svc.submit("SELECT MAX(v) FROM s WHERE v BETWEEN 0 AND 499 "
                   "EVERY 1 EPOCHS ERROR 0.3")
          .value()
          .id;
  std::uint64_t installs = 0;
  for (std::uint32_t e = 1; e <= 8; ++e) {
    if (e == 5) {  // re-enrol at another phase
      installs = f.svc.telemetry_snapshot().install_bits_on_air;
      ASSERT_TRUE(f.svc.cancel(tolerant));
      tolerant = f.svc.submit("SELECT MAX(v) FROM s WHERE v BETWEEN 0 AND "
                              "499 EVERY 2 EPOCHS ERROR 0.3")
                     .value()
                     .id;
    }
    const std::vector<SensorUpdate> batch{f.drift(e, 3), f.drift(30 - e, -2)};
    std::vector<NodeId> touched;
    for (const SensorUpdate& u : batch) {
      bare_net.update_item(u.node, 0, u.value);
      touched.push_back(u.node);
    }
    bare.note_updates(touched, e);
    for (const Answer& a : f.svc.run_epoch(batch)) {
      if (a.id == sum) {
        EXPECT_DOUBLE_EQ(a.value, f.exact("SUM", 0, kBound));
      }
      if (a.id == count) {
        EXPECT_DOUBLE_EQ(a.value, f.exact("COUNT", 40, 260));
      }
    }
  }
  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  EXPECT_EQ(snap.mark_bits_on_air, bare_net.summary(true).total_bits);
  EXPECT_EQ(snap.mark_messages, bare_net.summary(true).total_messages);
  EXPECT_EQ(snap.cube.refresh_waves, 2u);  // epoch 1, and the residue's
  EXPECT_GT(snap.cube.standing_refreshed, 1u);
  EXPECT_GT(snap.install_bits_on_air, installs);
  EXPECT_EQ(ledger(f.svc), std::pair(f.net.summary(true).total_bits,
                                     f.net.summary(true).total_messages));
}

TEST(QueryService, CubePushesStandingDistinctSlotsBesideTheMarks) {
  // A continuous approximate COUNT_DISTINCT in cube mode, over a cell (its
  // HLL twin) and over an unaligned range (standing sketch slots). The
  // first due epoch pulls: the geometry install carries the schedule and
  // names the twin's cell, and the standing slot is installed then. Every
  // later epoch pushes the sketch slots beside the marks and runs no
  // refresh wave. Each answer equals a one-shot HLL of the store's
  // geometry, the ledger matches the air, and every pushed HLL image was
  // read.
  struct Case {
    Value lo;
    Value hi;
    bool twin_only;  // a single cell: no standing slot
  };
  for (const Case c : {Case{0, 499, true}, Case{30, 270, false}}) {
    SCOPED_TRACE(testing::Message() << c.lo << ".." << c.hi);
    ServiceConfig cfg;
    cfg.use_cube = true;
    cfg.cube_distinct_registers = 64;
    Fixture f{cfg};
    const auto oracle = [&] {
      sketch::Hll h =
          sketch::Hll::make_by_registers(
              64, {.width = sketch::packed_width_for(f.mirror.size() + 1),
                   .sparse = true})
              .value();
      for (const Value v : f.mirror) {
        if (v >= c.lo && v <= c.hi) {
          h.add(static_cast<std::uint64_t>(v), cube::kHllSalt);
        }
      }
      return h.estimate();
    };
    const QueryId id =
        f.svc
            .submit("SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN " +
                    std::to_string(c.lo) + " AND " + std::to_string(c.hi) +
                    " EVERY 1 EPOCHS ERROR 0.15")
            .value()
            .id;
    std::uint64_t waves = 0;
    for (std::uint32_t e = 1; e <= 8; ++e) {
      const std::vector<SensorUpdate> batch{f.drift(e, 3),
                                            f.drift(20 + e, -4)};
      const std::vector<Answer> answers = f.svc.run_epoch(batch);
      ASSERT_EQ(answers.size(), 1u);
      EXPECT_EQ(answers[0].id, id);
      EXPECT_DOUBLE_EQ(answers[0].value, oracle()) << "epoch " << e;
      const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
      if (e == 1) waves = snap.cube.refresh_waves;
      EXPECT_EQ(snap.cube.refresh_waves, waves) << "epoch " << e;
      EXPECT_EQ(ledger(f.svc), std::pair(f.net.summary(true).total_bits,
                                         f.net.summary(true).total_messages));
    }
    const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
    EXPECT_EQ(waves, 1u);
    EXPECT_EQ(snap.cube.standing_installs == 0, c.twin_only);
    EXPECT_GT(snap.cube.push_messages, 0u);
    EXPECT_GT(snap.cube.push_image_bits, 0u);
    EXPECT_GT(snap.cube.hll_delta_image_bits, 0u);
    EXPECT_EQ(snap.totals.pushed_unread_image_bits, 0u);
  }
}

TEST(QueryService, ALostCubeInstallFailsItsEpochAndTheRetryReinstalls) {
  // The cube's first serve broadcasts its geometry install. Under 30% loss
  // a node misses it: the epoch throws with the install charged, so mark +
  // install + Σ query bits still equal the network total. A lossless retry
  // sends the install again and answers exactly.
  ServiceConfig cfg;
  cfg.use_cube = true;
  Fixture f{cfg};
  const QueryId id = f.svc
                         .submit("SELECT SUM(v) FROM s WHERE v BETWEEN 77 "
                                 "AND 901 EVERY 1 EPOCHS")
                         .value()
                         .id;
  f.net.set_message_loss(0.3);
  EXPECT_THROW(f.svc.run_epoch({}), ProtocolError);
  EXPECT_EQ(f.svc.telemetry_snapshot().cube.geometry_installs, 1u);
  EXPECT_GT(f.net.summary(true).total_bits, 0u);
  EXPECT_EQ(ledger(f.svc), std::pair(f.net.summary(true).total_bits,
                                     f.net.summary(true).total_messages));
  f.net.set_message_loss(0.0);
  const std::vector<Answer> answers = f.svc.run_epoch({});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, id);
  EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 77, 901));
  EXPECT_EQ(f.svc.telemetry_snapshot().cube.geometry_installs, 2u);
  EXPECT_EQ(ledger(f.svc), std::pair(f.net.summary(true).total_bits,
                                     f.net.summary(true).total_messages));
}

TEST(QueryService, ALostScheduleFailsItsEpochAndItsMarksGoWithTheNext) {
  // A cancel empties a pushed group's schedule, and the announcement before
  // the next epoch is lost: that epoch throws before its wave, with the
  // announcement charged. The next lossless epoch, with no update, sends
  // the schedule again and the failed epoch's marks, so the exact
  // subscriber reads its drifted readings.
  Fixture f;
  const QueryId exact =
      f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 "
                   "EVERY 1 EPOCHS")
          .value()
          .id;
  const QueryId other =
      f.svc.submit("SELECT COUNT(v) FROM s WHERE v BETWEEN 100 AND 280 "
                   "EVERY 1 EPOCHS")
          .value()
          .id;
  ASSERT_EQ(f.svc.run_epoch({}).size(), 2u);
  ASSERT_TRUE(f.svc.cancel(other));
  const auto installs = f.svc.telemetry_snapshot().install_bits_on_air;
  f.net.set_message_loss(1.0);
  const std::vector<SensorUpdate> batch{f.drift(1, 3), f.drift(2, -4)};
  EXPECT_THROW(f.svc.run_epoch(batch), ProtocolError);
  const auto total = f.net.summary(true);
  EXPECT_EQ(ledger(f.svc), std::pair(total.total_bits, total.total_messages));
  EXPECT_GT(f.svc.telemetry_snapshot().install_bits_on_air, installs);

  f.net.set_message_loss(0.0);
  const auto answers = f.svc.run_epoch({});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, exact);
  EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 20, 200));
  const auto after = f.net.summary(true);
  EXPECT_EQ(ledger(f.svc), std::pair(after.total_bits, after.total_messages));
}

TEST(QueryService, MultiplexedWaveSplitsBitsExactlyAmongGroups) {
  Fixture f;
  // Two overlapping ranged groups (one with two subscribers) and one
  // whole-domain group, all exact: every due group goes fresh in the same
  // epoch and rides the same wave.
  f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 "
               "EVERY 1 EPOCHS").value();
  f.svc.submit("SELECT COUNT(v) FROM s WHERE v BETWEEN 100 AND 280 "
               "EVERY 1 EPOCHS").value();
  f.svc.submit("SELECT MAX(v) FROM s WHERE v BETWEEN 100 AND 280 "
               "EVERY 2 EPOCHS").value();
  f.svc.submit("SELECT SUM(v) FROM s EVERY 2 EPOCHS").value();
  const auto admitted = f.net.summary(true);
  EXPECT_GT(admitted.total_bits, 0u);  // two ranged groups paid their installs

  for (int e = 0; e < 4; ++e) {
    const SimTime t0 = f.net.now();
    const std::vector<SensorUpdate> batch{f.drift(7, 3), f.drift(29, -3)};
    f.svc.run_epoch(batch);
    // One mark wave plus one collection convergecast, never more.
    EXPECT_LE(f.net.now() - t0, 3 * f.tree.height() + 2);
  }

  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  const auto total = f.net.summary(true);
  ASSERT_EQ(snap.groups.size(), 3u);

  // Admission shipped the installs and nothing else.
  EXPECT_EQ(snap.install_bits_on_air, admitted.total_bits);
  EXPECT_EQ(snap.install_messages, admitted.total_messages);

  // Query side: shares, marks and installs cover the network exactly.
  std::uint64_t query_bits = snap.mark_bits_on_air + snap.install_bits_on_air;
  std::uint64_t query_msgs = snap.mark_messages + snap.install_messages;
  for (const auto& [id, qc] : snap.queries) {
    query_bits += qc.bits_on_air;
    query_msgs += qc.messages;
  }
  EXPECT_EQ(query_bits, total.total_bits);
  EXPECT_EQ(query_msgs, total.total_messages);

  // Group side: installs sit in the group ledger, so groups plus marks do.
  std::uint64_t group_bits = snap.mark_bits_on_air;
  std::uint64_t group_msgs = snap.mark_messages;
  std::uint64_t collections = 0;
  for (const auto& [gid, gc] : snap.groups) {
    group_bits += gc.bits_on_air;
    group_msgs += gc.messages;
    collections += gc.collections;
    EXPECT_GT(gc.bits_on_air, 0u);
  }
  EXPECT_EQ(group_bits, total.total_bits);
  EXPECT_EQ(group_msgs, total.total_messages);
  EXPECT_EQ(collections, snap.plan.stats_waves);
  // Whole-domain group: due at epochs 2 and 4; ranged groups every epoch.
  EXPECT_EQ(collections, 4u + 4u + 2u);
}

TEST(QueryService, CubeModeAnswersMatchTheNaiveOracle) {
  ServiceConfig cube_cfg;
  cube_cfg.use_cube = true;
  cube_cfg.use_cache = false;
  ServiceConfig naive_cfg;
  naive_cfg.share_aggregation = false;
  naive_cfg.use_cache = false;
  Fixture c{cube_cfg};
  Fixture n{naive_cfg};
  const std::vector<std::string> workload{
      "SELECT SUM(v) FROM s EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s EVERY 1 EPOCHS",
      "SELECT MIN(v) FROM s EVERY 1 EPOCHS",
      "SELECT MAX(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 50 AND 250 EVERY 2 EPOCHS",
  };
  for (const auto& q : workload) {
    ASSERT_TRUE(c.svc.submit(q).ok());
    ASSERT_TRUE(n.svc.submit(q).ok());
  }
  for (int e = 0; e < 6; ++e) {
    const NodeId u = static_cast<NodeId>((e * 5) % 36);
    const Value delta = (e % 2 == 0) ? 2 : -2;
    const std::vector<SensorUpdate> cu{c.drift(u, delta)};
    const std::vector<SensorUpdate> nu{n.drift(u, delta)};
    const auto ca = c.svc.run_epoch(cu);
    const auto na = n.svc.run_epoch(nu);
    ASSERT_EQ(ca.size(), na.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      // Exact queries: the cube-composed answer is byte-identical to the
      // per-query tree collection, fresh or bracket-served.
      EXPECT_DOUBLE_EQ(ca[i].value, na[i].value) << "epoch " << e;
      EXPECT_EQ(ca[i].exact, na[i].exact);
    }
  }
  // One-shots route through the cube too.
  const auto co = c.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 50 AND 250");
  const auto no = n.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 50 AND 250");
  EXPECT_DOUBLE_EQ(co.value().answer->value, no.value().answer->value);
  EXPECT_GT(c.svc.telemetry().cube_fresh_answers, 0u);
}

TEST(QueryService, CubeModeShipsFewerBitsOnRepeatedWholeDomainQueries) {
  // The PR 10 claim in miniature: whole-domain continuous queries ride one
  // incrementally-fresh root cell instead of paying a collection each.
  ServiceConfig cube_cfg;
  cube_cfg.use_cube = true;
  cube_cfg.use_cache = false;
  ServiceConfig naive_cfg;
  naive_cfg.share_aggregation = false;
  naive_cfg.use_cache = false;
  Fixture c{cube_cfg};
  Fixture n{naive_cfg};
  const std::vector<std::string> workload{
      "SELECT SUM(v) FROM s EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s EVERY 1 EPOCHS",
      "SELECT MIN(v) FROM s EVERY 1 EPOCHS",
      "SELECT AVG(v) FROM s EVERY 1 EPOCHS",
  };
  for (const auto& q : workload) {
    ASSERT_TRUE(c.svc.submit(q).ok());
    ASSERT_TRUE(n.svc.submit(q).ok());
  }
  for (int e = 0; e < 6; ++e) {
    const std::vector<SensorUpdate> cu{c.drift(13, 2)};
    const std::vector<SensorUpdate> nu{n.drift(13, 2)};
    const auto ca = c.svc.run_epoch(cu);
    const auto na = n.svc.run_epoch(nu);
    ASSERT_EQ(ca.size(), na.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_DOUBLE_EQ(ca[i].value, na[i].value);
    }
  }
  EXPECT_LT(c.net.summary(true).total_bits * 2,
            n.net.summary(true).total_bits);
  const TelemetrySnapshot snap = c.svc.telemetry_snapshot();
  EXPECT_GT(snap.cube.refresh_waves, 0u);
  EXPECT_GT(snap.cube.cell_edges_skipped, 0u);
}

TEST(QueryService, CubeStaleBracketsServeTolerantQueriesWithZeroBits) {
  ServiceConfig cfg;
  cfg.use_cube = true;
  cfg.use_cache = false;  // isolate tier 2: no result-cache hits
  Fixture f{cfg};
  // A standing plan's cells are pushed, so they are fresh whenever it is
  // due; a one-shot reads the cells as they are. An exact one-shot
  // refreshes the root cell, and the tolerant ones after the drift are
  // answered from its bracket.
  const auto first = f.svc.submit("SELECT AVG(v) FROM s").value();
  ASSERT_TRUE(first.answer.has_value());
  EXPECT_TRUE(first.answer->exact);

  const auto msgs_before = f.net.summary().total_messages;
  for (int e = 0; e < 3; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(5, 2)};
    EXPECT_TRUE(f.svc.run_epoch(batch).empty());
    const auto a =
        f.svc.submit("SELECT AVG(v) FROM s ERROR 0.2").value().answer;
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(a->from_cache);
    EXPECT_GT(a->error_bound, 0.0);
    EXPECT_LE(std::abs(a->value - f.exact("AVG", 0, kBound)), a->error_bound);
  }
  EXPECT_EQ(f.svc.telemetry().cube_stale_answers, 3u);
  // Stale serves never touch the air: only the dirty marks cost messages.
  EXPECT_LT(f.net.summary().total_messages - msgs_before, 3u * 36u);
}

TEST(QueryService, CubeStaleServesCountOnlyServedBrackets) {
  ServiceConfig cfg;
  cfg.use_cube = true;
  cfg.use_cache = false;  // every tolerant answer is a bracket or fresh
  Fixture f{cfg};
  // One-shots (a standing plan's cells are pushed fresh): a loose tolerance
  // the whole-domain bracket meets, and a tight one the ranged cell's
  // bracket exists for but misses, so it goes fresh each time.
  const char* tight =
      "SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND 499 ERROR 0.0001";
  ASSERT_EQ(f.svc.submit_batch({"SELECT AVG(v) FROM s",
                                "SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND "
                                "499"})
                .size(),
            2u);
  const query::CostedPlan plan =
      f.svc.planner().plan(query::parse_query(tight)).value();
  for (int e = 0; e < 4; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(5, 2), f.drift(20, -3)};
    f.svc.run_epoch(batch);
    const auto br = f.svc.cube()->stale_bracket(
        plan, query::AggregateKind::kSum, f.svc.epoch());
    ASSERT_TRUE(br.has_value());
    EXPECT_GT(br->bound, cube::tolerance_for(0.0001, br->value));
    for (const auto& r :
         f.svc.submit_batch({"SELECT AVG(v) FROM s ERROR 0.2", tight})) {
      ASSERT_TRUE(r.ok());
    }
  }
  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  EXPECT_EQ(snap.totals.cube_stale_answers, 4u);
  EXPECT_EQ(snap.totals.cube_fresh_answers, 2u + 4u);
}

TEST(QueryService, CubeBracketOfAKeyThatGoesFreshIsNotServed) {
  ServiceConfig cfg;
  cfg.use_cube = true;
  cfg.use_cache = false;
  Fixture f{cfg};
  // [0, 499] is one cube cell. The tolerant query's bracket fits each
  // epoch, but the exact query on the same region sends the key fresh, so
  // both answer exactly and no bracket counts as served.
  const char* tolerant =
      "SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND 499 EVERY 1 EPOCHS "
      "ERROR 0.5";
  f.svc.submit(tolerant).value();
  f.svc.submit("SELECT MAX(v) FROM s WHERE v BETWEEN 0 AND 499 "
               "EVERY 1 EPOCHS")
      .value();
  f.svc.run_epoch({});
  const query::CostedPlan plan =
      f.svc.planner().plan(query::parse_query(tolerant)).value();
  for (int e = 0; e < 3; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(5, 2)};
    const auto br = f.svc.cube()->stale_bracket(
        plan, query::AggregateKind::kSum, f.svc.epoch() + 1);
    ASSERT_TRUE(br.has_value());
    EXPECT_LE(br->bound, cube::tolerance_for(0.5, br->value));
    const auto answers = f.svc.run_epoch(batch);
    ASSERT_EQ(answers.size(), 2u);
    EXPECT_TRUE(answers[0].exact);
    EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 0, 499));
  }
  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  EXPECT_EQ(snap.totals.cube_stale_answers, 0u);
  EXPECT_EQ(snap.totals.cube_fresh_answers, 2u * 4u);
}

TEST(QueryService, CubeAnswersExactlyWhenAFreshServeIsFree) {
  ServiceConfig cfg;
  cfg.use_cube = true;
  cfg.use_cache = false;
  Fixture f{cfg};
  // The first answer refreshes the cell; with no drift the cell stays
  // exact, so later serves cost nothing and need no drift bracket.
  f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND 499 "
               "EVERY 1 EPOCHS ERROR 0.2").value();
  f.svc.run_epoch({});
  const auto bits = f.net.summary(true).total_bits;
  for (int e = 0; e < 3; ++e) {
    const auto answers = f.svc.run_epoch({});
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_TRUE(answers[0].exact);
    EXPECT_EQ(answers[0].error_bound, 0.0);
    EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 0, 499));
  }
  EXPECT_EQ(f.net.summary(true).total_bits, bits);
  EXPECT_EQ(f.svc.telemetry().cube_stale_answers, 0u);
}

TEST(QueryService, CubeModeAttributedBitsPlusMarksEqualNetworkTotal) {
  ServiceConfig cfg;
  cfg.use_cube = true;
  cfg.cube_distinct_registers = 64;
  Fixture f{cfg};
  // Ranged cells, unaligned residues (stats and sketch-carrying), a
  // distinct subscriber, a repeat riding its twin, and the lazy geometry
  // install paid by the first fresh serve.
  for (const char* q : {
           "SELECT SUM(v) FROM s EVERY 1 EPOCHS",
           "SELECT COUNT(v) FROM s WHERE v BETWEEN 0 AND 499 EVERY 1 EPOCHS",
           "SELECT MAX(v) FROM s WHERE v BETWEEN 40 AND 260 EVERY 1 EPOCHS",
           "SELECT SUM(v) FROM s WHERE v BETWEEN 90 AND 280 EVERY 2 EPOCHS",
           "SELECT MIN(v) FROM s WHERE v BETWEEN 40 AND 260 EVERY 1 EPOCHS",
           "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 30 AND 270 "
           "EVERY 1 EPOCHS ERROR 0.15",
       }) {
    ASSERT_TRUE(f.svc.submit(q).ok()) << q;
  }
  EXPECT_EQ(f.net.summary(true).total_bits, 0u);  // admission ships nothing
  for (int e = 0; e < 5; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(11, 2), f.drift(23, -4)};
    f.svc.run_epoch(batch);
  }
  // A one-shot is a batch of one.
  ASSERT_TRUE(
      f.svc.submit("SELECT AVG(v) FROM s WHERE v BETWEEN 10 AND 190").ok());
  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  EXPECT_EQ(snap.cube.geometry_installs, 1u);
  EXPECT_GT(snap.cube.cells_refreshed, 0u);
  EXPECT_GT(snap.cube.residues_run, 0u);
  EXPECT_GT(snap.totals.distinct_answers + snap.totals.cube_fresh_answers, 0u);
  // At most one cell wave per epoch, plus the one-shot's.
  EXPECT_LE(snap.cube.refresh_waves, 5u + 1u);
  std::uint64_t attributed = snap.mark_bits_on_air;
  std::uint64_t attributed_msgs = snap.mark_messages;
  for (const auto& [id, qc] : snap.queries) {
    attributed += qc.bits_on_air;
    attributed_msgs += qc.messages;
  }
  const auto total = f.net.summary(true);
  EXPECT_EQ(attributed, total.total_bits);
  EXPECT_EQ(attributed_msgs, total.total_messages);
}

TEST(QueryService, CubePlansEachDueQueryAtMostOncePerEpoch) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "needs the obs registry";
  ServiceConfig cfg;
  cfg.use_cube = true;
  Fixture f{cfg};
  const std::vector<std::string> queries{
      "SELECT SUM(v) FROM s EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s WHERE v BETWEEN 40 AND 260 EVERY 1 EPOCHS",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 40 AND 260 EVERY 1 EPOCHS "
      "ERROR 0.1",
      "SELECT MAX(v) FROM s WHERE v BETWEEN 0 AND 499 EVERY 2 EPOCHS",
  };
  for (const auto& q : queries) ASSERT_TRUE(f.svc.submit(q).ok());
  obs::Registry& reg = obs::Registry::global();
  const auto plans = [&reg] {
    return reg.snapshot().value("query.plans");
  };
  for (int e = 0; e < 4; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(7, 3)};
    const std::uint64_t before = plans();
    const auto answers = f.svc.run_epoch(batch);
    EXPECT_LE(plans() - before, answers.size());
  }
}

TEST(QueryService, CubeServesDistinctFromMaintainedSketches) {
  ServiceConfig cube_cfg;
  cube_cfg.use_cube = true;
  cube_cfg.cube_distinct_registers = 64;
  cube_cfg.use_cache = false;
  ServiceConfig naive_cfg;
  naive_cfg.share_aggregation = false;
  naive_cfg.use_cache = false;
  Fixture c{cube_cfg};
  Fixture n{naive_cfg};
  // ERROR 0.15 sizes the plan to the cube's 64 registers, so the query is
  // cube-eligible; the maintained sketches replicate the one-shot
  // protocol's geometry, making the estimates byte-identical.
  const char* q = "SELECT COUNT_DISTINCT(v) FROM s ERROR 0.15";
  const auto ca = c.svc.submit(q);
  const auto na = n.svc.submit(q);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(na.ok());
  EXPECT_DOUBLE_EQ(ca.value().answer->value, na.value().answer->value);
  EXPECT_EQ(c.svc.telemetry().cube_fresh_answers, 1u);
}

TEST(QueryService, AggregatesOverABoundedDegreeTree) {
  // A geometric deployment whose BFS root adopts all 14 of its neighbours:
  // the service runs on its own tree, capped at Δ children per node, and
  // leaves the given tree alone.
  const double n = 49.0;
  Xoshiro256 layout(1);
  sim::Network net(
      net::make_random_geometric(
          49, std::sqrt(4.0 * std::log(n) / (std::numbers::pi * n)), layout)
          .graph,
      /*master_seed=*/3);
  const net::SpanningTree given = net::bfs_tree(net.graph(), 0);
  ASSERT_EQ(given.children[0].size(), 14u);
  std::vector<Value> readings(49);
  for (NodeId u = 0; u < 49; ++u) readings[u] = static_cast<Value>(u * 7);
  net.set_one_item_per_node(readings);
  QueryService svc(query::Deployment{net, given, kBound}, ServiceConfig{});

  const net::SpanningTree& tree = svc.tree();
  EXPECT_TRUE(net::validate_tree(net.graph(), tree));
  EXPECT_EQ(tree.root, given.root);
  EXPECT_LE(tree.height(), given.height());
  for (const auto& children : tree.children) {
    EXPECT_LE(children.size(), net::kAggregationFanIn);
  }
  EXPECT_EQ(given.children[0].size(), 14u);
  const auto r = svc.submit("SELECT SUM(v) FROM s");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().answer->value, 7.0 * 48 * 49 / 2);

  // A grid's BFS tree is narrow already: the service's tree keeps every
  // depth and the fan-in bound, and relays no more nodes.
  Fixture grid;
  const net::SpanningTree& leafy = grid.svc.tree();
  EXPECT_TRUE(net::validate_tree(grid.net.graph(), leafy));
  EXPECT_EQ(leafy.depth, grid.tree.depth);
  const auto relays = [](const net::SpanningTree& t) {
    return std::count_if(t.children.begin(), t.children.end(),
                         [](const auto& c) { return !c.empty(); });
  };
  EXPECT_LT(relays(leafy), relays(grid.tree));
  for (const auto& children : leafy.children) {
    EXPECT_LE(children.size(), net::kAggregationFanIn);
  }
}

/// Subscribes `text` (EVERY 2 EPOCHS) and runs it once on lossless links.
/// The next epoch drifts the readings, losslessly: the subscriber is not
/// due, so only marks travel. The one after, due and with nothing new to
/// mark, loses a message of the subscriber's own wave: the failed wave is
/// charged to the subscriber, so the ledger still equals the network
/// total, and a lossless retry answers exact() and keeps it so.
void expect_failed_wave_charged(Fixture& f, const std::string& text,
                                const std::function<double()>& exact) {
  SCOPED_TRACE(text);
  const QueryId id = f.svc.submit(text).value().id;
  f.svc.run_epoch({});
  ASSERT_EQ(f.svc.run_epoch({}).size(), 1u);
  std::vector<SensorUpdate> batch;
  for (NodeId u = 0; u < 18; ++u) batch.push_back(f.drift(u, 3));
  ASSERT_TRUE(f.svc.run_epoch(batch).empty());
  const std::uint64_t paid =
      f.svc.telemetry_snapshot().queries.at(id).bits_on_air;
  f.net.set_message_loss(0.3);
  EXPECT_THROW(f.svc.run_epoch({}), ProtocolError);
  const auto total = f.net.summary(true);
  EXPECT_EQ(ledger(f.svc), std::pair(total.total_bits, total.total_messages));
  EXPECT_GT(f.svc.telemetry_snapshot().queries.at(id).bits_on_air, paid);

  f.net.set_message_loss(0.0);
  ASSERT_TRUE(f.svc.run_epoch({}).empty());
  const auto answers = f.svc.run_epoch({});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_DOUBLE_EQ(answers[0].value, exact());
  const auto after = f.net.summary(true);
  EXPECT_EQ(ledger(f.svc), std::pair(after.total_bits, after.total_messages));
}

TEST(QueryService, FailedExecutorWaveIsChargedToItsQuery) {
  ServiceConfig naive;
  naive.share_aggregation = false;
  Fixture n{naive};
  expect_failed_wave_charged(
      n, "SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 2 EPOCHS",
      [&] { return n.exact("SUM", 20, 200); });
  Fixture f;  // shared mode: a MEDIAN still runs the executor
  expect_failed_wave_charged(f, "SELECT MEDIAN(v) FROM s EVERY 2 EPOCHS", [&] {
    std::vector<Value> sorted = f.mirror;
    std::sort(sorted.begin(), sorted.end());
    return static_cast<double>(sorted[17]);
  });
}

/// The bundle path's two backends, each with the result cache on.
struct BundleBackend {
  const char* name;
  bool use_cube;
  friend void PrintTo(const BundleBackend& b, std::ostream* os) {
    *os << b.name;
  }
};

class BundlePath : public ::testing::TestWithParam<BundleBackend> {
 protected:
  static ServiceConfig config() {
    ServiceConfig cfg;
    cfg.use_cube = GetParam().use_cube;
    return cfg;
  }
};

TEST_P(BundlePath, ExactSubscriberForcesFreshCollectionForTheKey) {
  Fixture f{config()};
  // One ranged region, a tolerant subscriber first and an exact one second:
  // the exact one sends the key fresh each due epoch, and the tolerant one
  // then rides that collection instead of its cache hit.
  const auto tolerant =
      f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 260 "
                   "EVERY 1 EPOCHS ERROR 0.5")
          .value();
  const auto exact =
      f.svc.submit("SELECT COUNT(v) FROM s WHERE v BETWEEN 20 AND 260 "
                   "EVERY 1 EPOCHS")
          .value();
  for (int e = 0; e < 4; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(9, 3), f.drift(22, -2)};
    const auto answers = f.svc.run_epoch(batch);
    ASSERT_EQ(answers.size(), 2u);
    for (const Answer& a : answers) {
      EXPECT_FALSE(a.from_cache);
      EXPECT_TRUE(a.exact);
      EXPECT_EQ(a.error_bound, 0.0);
    }
    EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 20, 260));
    EXPECT_DOUBLE_EQ(answers[1].value, f.exact("COUNT", 20, 260));
  }
  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  // Some tolerant probe found its entry, and no entry was ever served.
  EXPECT_GT(snap.cache.probes,
            snap.cache.misses + snap.cache.expired + snap.cache.absent);
  EXPECT_EQ(snap.cache.hits, 0u);
  // The key's first due query pays its share; the other rides for free.
  EXPECT_EQ(snap.queries.at(tolerant.id).fresh, 4u);
  EXPECT_GT(snap.queries.at(tolerant.id).bits_on_air, 0u);
  EXPECT_EQ(snap.queries.at(exact.id).bits_on_air, 0u);
  // Query bits, mark bits and the group's install cover the network.
  std::uint64_t attributed = snap.mark_bits_on_air + snap.install_bits_on_air;
  for (const auto& [id, qc] : snap.queries) attributed += qc.bits_on_air;
  EXPECT_EQ(attributed, f.net.summary(true).total_bits);
}

TEST_P(BundlePath, FailedWaveIsChargedToItsPayer) {
  Fixture f{config()};
  expect_failed_wave_charged(
      f, "SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 2 EPOCHS",
      [&] { return f.exact("SUM", 20, 200); });
}

TEST_P(BundlePath, FailedOneShotPullIsChargedToItsQuery) {
  // One-shots are never pushed: a ranged one-shot SUM on the scheduler is
  // pulled by collect_stats_batch(), on the cube by its batch's collect().
  // A lost message fails the admission's serve, and its wave is still
  // charged, so the ledger equals the network total; a lossless retry of
  // the same text is exact. The text runs once losslessly first, so that
  // its group (or the cube's geometry) is installed and the lossy serve is
  // the pull alone.
  Fixture f{config()};
  f.svc.submit("SELECT COUNT(v) FROM s EVERY 1 EPOCHS").value();
  const std::string text = "SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200";
  EXPECT_DOUBLE_EQ(f.svc.submit(text).value().answer->value,
                   f.exact("SUM", 20, 200));
  const std::vector<SensorUpdate> batch{f.drift(7, 3), f.drift(30, -4)};
  ASSERT_EQ(f.svc.run_epoch(batch).size(), 1u);
  f.net.set_message_loss(0.3);
  EXPECT_THROW((void)f.svc.submit(text), ProtocolError);
  const auto total = f.net.summary(true);
  EXPECT_EQ(ledger(f.svc), std::pair(total.total_bits, total.total_messages));

  f.net.set_message_loss(0.0);
  const auto retry = f.svc.submit(text).value();
  ASSERT_TRUE(retry.answer.has_value());
  EXPECT_DOUBLE_EQ(retry.answer->value, f.exact("SUM", 20, 200));
  const auto after = f.net.summary(true);
  EXPECT_EQ(ledger(f.svc), std::pair(after.total_bits, after.total_messages));
}

TEST_P(BundlePath, CacheEvictionBetweenProbeAndAnswerIsHarmless) {
  // With room for one entry, the exact subscriber's fresh store evicts the
  // whole-domain entry the tolerant subscriber's probe approved. Stores
  // wait until every answer of the serve is out, so the hit still serves.
  ServiceConfig cfg = config();
  cfg.cache_capacity = 1;
  Fixture f{cfg};
  f.svc.submit("SELECT SUM(v) FROM s WHERE v < 100 EVERY 1 EPOCHS").value();
  f.svc.submit("SELECT COUNT(v) FROM s EVERY 1 EPOCHS ERROR 0.5").value();
  std::uint64_t from_cache = 0;
  for (int e = 0; e < 4; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(4, 2)};
    const auto answers = f.svc.run_epoch(batch);
    ASSERT_EQ(answers.size(), 2u);
    EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 0, 99));
    EXPECT_DOUBLE_EQ(answers[1].value, 36.0);
    for (const Answer& a : answers) from_cache += a.from_cache ? 1 : 0;
  }
  EXPECT_GT(from_cache, 0u);
  EXPECT_EQ(f.svc.cache().counters().hits, from_cache);
  EXPECT_EQ(f.svc.telemetry().cache_hits, from_cache);
}

TEST_P(BundlePath, SubmitBatchServesOneShotsInOneServe) {
  // Ranged and whole-domain keys, the ranged key twice, and a MEDIAN and a
  // COUNT_DISTINCT between them.
  const std::vector<std::string> texts{
      "SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 260",
      "SELECT COUNT(v) FROM s",
      "SELECT MEDIAN(v) FROM s",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 20 AND 260 ERROR 0.5",
      "SELECT COUNT_DISTINCT(v) FROM s",
      "SELECT MAX(v) FROM s WHERE v < 100",
      "SELECT MIN(v) FROM s ERROR 0.2",
  };
  Fixture batch{config()};
  Fixture twin{config()};
  const auto admitted = batch.svc.submit_batch(texts);
  std::vector<Answer> one_by_one;
  for (const std::string& t : texts) {
    one_by_one.push_back(*twin.svc.submit(t).value().answer);
  }
  ASSERT_EQ(admitted.size(), texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE(texts[i]);
    const Answer& a = *admitted[i].value().answer;
    EXPECT_DOUBLE_EQ(a.value, one_by_one[i].value);
    EXPECT_LE(a.error_bound, one_by_one[i].error_bound);
    // Every key is cold, so every bundle one-shot's key goes fresh.
    if (i != 2 && i != 4) {
      EXPECT_TRUE(a.exact);
      EXPECT_FALSE(a.from_cache);
      EXPECT_EQ(a.error_bound, 0.0);
    }
  }

  // The batch's bundle one-shots take one serve; the twin takes several.
  if (GetParam().use_cube) {
    const cube::CubeStats& b = batch.svc.cube()->stats();
    const cube::CubeStats& t = twin.svc.cube()->stats();
    EXPECT_EQ(b.refresh_waves, 1u);
    EXPECT_LE(b.residue_waves, 1u);
    EXPECT_GT(t.refresh_waves + t.residue_waves,
              b.refresh_waves + b.residue_waves);
  } else {
    EXPECT_EQ(batch.svc.plan_stats().stats_convergecasts, 1u);
    EXPECT_GT(twin.svc.plan_stats().stats_convergecasts, 1u);
  }
  const auto total = batch.net.summary(true);
  EXPECT_LE(total.total_bits, twin.net.summary(true).total_bits);
  // Query bits and the groups' installs cover the network exactly.
  const TelemetrySnapshot snap = batch.svc.telemetry_snapshot();
  EXPECT_EQ(snap.install_bits_on_air > 0, !GetParam().use_cube);
  std::uint64_t attributed = snap.install_bits_on_air;
  std::uint64_t attributed_msgs = snap.install_messages;
  for (const auto& [id, qc] : snap.queries) {
    attributed += qc.bits_on_air;
    attributed_msgs += qc.messages;
  }
  EXPECT_EQ(attributed, total.total_bits);
  EXPECT_EQ(attributed_msgs, total.total_messages);
}

/// Every service configuration, for behaviour that must not depend on it.
struct ServiceMode {
  const char* name;
  bool share_aggregation;
  bool use_cache;
  bool use_cube;
  friend void PrintTo(const ServiceMode& m, std::ostream* os) {
    *os << m.name;
  }
};

class EmptySelection : public ::testing::TestWithParam<ServiceMode> {
 protected:
  static ServiceConfig config() {
    ServiceConfig cfg;
    cfg.share_aggregation = GetParam().share_aggregation;
    cfg.use_cache = GetParam().use_cache;
    cfg.use_cube = GetParam().use_cube;
    return cfg;
  }
};

TEST_P(EmptySelection, OneShotsAnswerFlaggedEmpty) {
  Fixture f{config()};  // every reading is below 300
  for (const char* text :
       {"SELECT MEDIAN(v) FROM s WHERE v BETWEEN 900 AND 950",
        "SELECT QUANTILE(v, 0.9) FROM s WHERE v > 900",
        "SELECT MEDIAN(v) FROM s WHERE v > 900 ERROR 0.2",
        "SELECT MIN(v) FROM s WHERE v > 900",
        "SELECT MAX(v) FROM s WHERE v > 900",
        "SELECT AVG(v) FROM s WHERE v > 900",
        "SELECT AVG(v) FROM s WHERE v > 900 ERROR 0.2"}) {
    SCOPED_TRACE(text);
    const auto r = f.svc.submit(text);
    ASSERT_TRUE(r.ok()) << r.error();
    const Answer& a = *r.value().answer;
    EXPECT_TRUE(a.empty_selection);
    EXPECT_DOUBLE_EQ(a.value, 0.0);
  }
  const Answer count =
      *f.svc.submit("SELECT COUNT(v) FROM s WHERE v > 900").value().answer;
  EXPECT_FALSE(count.empty_selection);
  EXPECT_DOUBLE_EQ(count.value, 0.0);
}

TEST_P(EmptySelection, StandingSubscribersKeepTheEpochsOtherAnswers) {
  Fixture f{config()};
  const std::vector<std::string> texts{
      "SELECT MEDIAN(v) FROM s WHERE v > 900 EVERY 1 EPOCHS",
      "SELECT MIN(v) FROM s WHERE v > 900 EVERY 1 EPOCHS",
      "SELECT AVG(v) FROM s WHERE v > 900 EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s EVERY 1 EPOCHS",
      "SELECT MEDIAN(v) FROM s EVERY 1 EPOCHS",
  };
  for (const std::string& t : texts) ASSERT_TRUE(f.svc.submit(t).ok()) << t;
  for (NodeId u = 0; u < 3; ++u) {
    const std::vector<Answer> answers = f.svc.run_epoch({{f.drift(u, 2)}});
    ASSERT_EQ(answers.size(), texts.size());
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(answers[i].empty_selection) << texts[i];
    }
    EXPECT_DOUBLE_EQ(answers[3].value, 36.0);
    std::vector<Value> sorted = f.mirror;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_FALSE(answers[4].empty_selection);
    EXPECT_DOUBLE_EQ(answers[4].value,
                     static_cast<double>(sorted[(sorted.size() + 1) / 2 - 1]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, EmptySelection,
    ::testing::Values(ServiceMode{"naive", false, false, false},
                      ServiceMode{"shared", true, false, false},
                      ServiceMode{"shared_cache", true, true, false},
                      ServiceMode{"cube", true, false, true},
                      ServiceMode{"cube_cache", true, true, true}),
    [](const ::testing::TestParamInfo<ServiceMode>& info) {
      return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    WithCache, BundlePath,
    ::testing::Values(BundleBackend{"shared", false},
                      BundleBackend{"cube", true}),
    [](const ::testing::TestParamInfo<BundleBackend>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sensornet::service
