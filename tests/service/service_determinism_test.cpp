// Thread-count invariance of the query service.
//
// submit_batch's parse/plan stage runs on the work-stealing farm; everything
// that talks to the network is serialized in submission order. The contract:
// the full answer stream — ids, epochs, values, bounds, flags — and the
// network's bit meter are byte-identical at any thread count, including
// under register/cancel churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/net/topology.hpp"
#include "src/service/engine.hpp"

namespace sensornet::service {
namespace {

constexpr Value kBound = 1000;

struct ScenarioResult {
  std::vector<Answer> answers;
  std::vector<std::string> errors;
  std::uint64_t total_bits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t pricing_passes = 0;  // cube scenario only
};

/// A fixed mixed scenario: batch admission (some malformed), epochs of
/// drifting updates, and mid-stream register/cancel churn.
ScenarioResult run_scenario(unsigned threads) {
  sim::Network net(net::make_grid(6, 6), /*master_seed=*/21);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  std::vector<Value> values(36);
  for (NodeId u = 0; u < 36; ++u) {
    values[u] = static_cast<Value>((u * 41) % 500);
  }
  net.set_one_item_per_node(values);

  ServiceConfig cfg;
  cfg.threads = threads;
  QueryService svc(query::Deployment{net, tree, kBound}, cfg);

  ScenarioResult run;
  const auto note = [&](const std::vector<Result<Admission>>& results) {
    for (const auto& r : results) {
      if (!r.ok()) {
        run.errors.push_back(r.error());
      } else if (r.value().answer) {
        run.answers.push_back(*r.value().answer);
      }
    }
  };

  note(svc.submit_batch({
      "SELECT SUM(v) FROM s WHERE v BETWEEN 50 AND 400 EVERY 1 EPOCHS "
      "ERROR 0.1",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 50 AND 400 EVERY 2 EPOCHS "
      "ERROR 0.1",
      "SELECT COUNT(v) FROM s EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s WHERE v BETWEEN 400 AND 200 EVERY 1 EPOCHS",
      "SELECT MAX(v) FROM s WHERE v >= 100 EVERY 3 EPOCHS",
      "SELECT MIN(v) FROM s",  // one-shot rides the batch
  }));

  QueryId cancelled = 0;
  for (std::uint32_t e = 1; e <= 8; ++e) {
    std::vector<SensorUpdate> batch;
    for (NodeId u = 0; u < 36; u += 5) {
      const Value delta = (e + u) % 2 == 0 ? 3 : -3;
      const Value v = std::clamp<Value>(values[u] + delta, 0, kBound);
      values[u] = v;
      batch.push_back(SensorUpdate{u, v});
    }
    for (const Answer& a : svc.run_epoch(batch)) run.answers.push_back(a);
    if (e == 3) {
      // Churn: a new subscriber joins the shared region, another leaves.
      const auto joined = svc.submit(
          "SELECT COUNT(v) FROM s WHERE v BETWEEN 50 AND 400 EVERY 1 EPOCHS");
      cancelled = joined.value().id;
    }
    if (e == 5) svc.cancel(cancelled);
  }

  run.total_bits = net.summary(true).total_bits;
  run.cache_hits = svc.telemetry().cache_hits;
  return run;
}

bool answers_identical(const Answer& a, const Answer& b) {
  return a.id == b.id && a.epoch == b.epoch && a.value == b.value &&
         a.error_bound == b.error_bound && a.exact == b.exact &&
         a.from_cache == b.from_cache &&
         a.empty_selection == b.empty_selection;
}

TEST(ServiceDeterminism, AnswerStreamInvariantAcrossThreadCounts) {
  const ScenarioResult base = run_scenario(1);
  EXPECT_FALSE(base.answers.empty());
  EXPECT_EQ(base.errors.size(), 1u);  // the inverted BETWEEN range
  for (const unsigned threads : {2u, 8u}) {
    const ScenarioResult other = run_scenario(threads);
    ASSERT_EQ(other.answers.size(), base.answers.size()) << threads;
    for (std::size_t i = 0; i < base.answers.size(); ++i) {
      EXPECT_TRUE(answers_identical(base.answers[i], other.answers[i]))
          << "answer " << i << " at threads=" << threads;
    }
    EXPECT_EQ(other.errors, base.errors) << threads;
    EXPECT_EQ(other.total_bits, base.total_bits) << threads;
    EXPECT_EQ(other.cache_hits, base.cache_hits) << threads;
  }
}

/// A cube service with 64-register HLL twins: submit_batch bursts (whose
/// plans price the cube on farm workers, right after the store changed),
/// drift, epochs and more bursts.
ScenarioResult run_cube_scenario(unsigned threads) {
  sim::Network net(net::make_grid(10, 10), /*master_seed=*/33);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  std::vector<Value> values(100);
  for (NodeId u = 0; u < 100; ++u) {
    values[u] = static_cast<Value>((u * 53) % 700);
  }
  net.set_one_item_per_node(values);

  ServiceConfig cfg;
  cfg.threads = threads;
  cfg.use_cube = true;
  cfg.cube_distinct_registers = 64;
  QueryService svc(query::Deployment{net, tree, kBound}, cfg);

  ScenarioResult run;
  const auto burst = [&](const std::vector<std::string>& texts) {
    for (const auto& r : svc.submit_batch(texts)) {
      if (!r.ok()) {
        run.errors.push_back(r.error());
      } else if (r.value().answer) {
        run.answers.push_back(*r.value().answer);
      }
    }
  };
  burst({
      "SELECT SUM(v) FROM s EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s WHERE v BETWEEN 0 AND 499 EVERY 2 EPOCHS",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 100 AND 580 EVERY 1 EPOCHS "
      "ERROR 0.2",
      "SELECT COUNT_DISTINCT(v) FROM s EVERY 1 EPOCHS ERROR 0.15",
      "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 60 AND 700 "
      "EVERY 2 EPOCHS ERROR 0.15",
      "SELECT MAX(v) FROM s WHERE v BETWEEN 730 AND 900",
      "SELECT MIN(v) FROM s WHERE v BETWEEN 37 AND 612",
  });
  for (std::uint32_t e = 1; e <= 8; ++e) {
    std::vector<SensorUpdate> batch;
    for (NodeId u = e % 3; u < 100; u += 7) {
      const Value delta = (e + u) % 2 == 0 ? 4 : -4;
      const Value v = std::clamp<Value>(values[u] + delta, 0, kBound);
      values[u] = v;
      batch.push_back(SensorUpdate{u, v});
    }
    for (const Answer& a : svc.run_epoch(batch)) run.answers.push_back(a);
    const std::string lo = std::to_string(e * 40);
    const std::string hi = std::to_string(500 + e * 37);
    burst({
        "SELECT SUM(v) FROM s WHERE v BETWEEN " + lo + " AND " + hi,
        "SELECT COUNT(v) FROM s WHERE v BETWEEN 250 AND " + hi,
        "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN " + lo +
            " AND 900 ERROR 0.15",
        "SELECT AVG(v) FROM s WHERE v BETWEEN " + lo + " AND 750",
    });
  }
  run.total_bits = net.summary(true).total_bits;
  run.pricing_passes = svc.telemetry_snapshot().cube.pricing_passes;
  return run;
}

TEST(ServiceDeterminism, CubeAnswerStreamInvariantAcrossThreadCounts) {
  const ScenarioResult base = run_cube_scenario(1);
  EXPECT_GT(base.answers.size(), 40u);
  EXPECT_TRUE(base.errors.empty());
  for (const unsigned threads : {2u, 8u}) {
    const ScenarioResult other = run_cube_scenario(threads);
    ASSERT_EQ(other.answers.size(), base.answers.size()) << threads;
    for (std::size_t i = 0; i < base.answers.size(); ++i) {
      EXPECT_TRUE(answers_identical(base.answers[i], other.answers[i]))
          << "answer " << i << " at threads=" << threads;
    }
    EXPECT_EQ(other.errors, base.errors) << threads;
    EXPECT_EQ(other.total_bits, base.total_bits) << threads;
    // One pricing pass per store generation, whichever worker builds it.
    EXPECT_EQ(other.pricing_passes, base.pricing_passes) << threads;
  }
}

}  // namespace
}  // namespace sensornet::service
