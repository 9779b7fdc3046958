#include "src/query/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <string_view>

#include "src/common/error.hpp"
#include "src/common/mathutil.hpp"
#include "src/net/topology.hpp"
#include "src/query/lexer.hpp"
#include "src/query/parser.hpp"

namespace sensornet::query {
namespace {

struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  Executor exec;

  explicit Fixture(const ValueSet& xs, Value max_value = 1 << 16)
      : net(net::make_grid(4, (xs.size() + 3) / 4), 1),
        tree(net::bfs_tree(net.graph(), 0)),
        exec(Deployment{net, tree, max_value}) {
    for (NodeId u = 0; u < net.node_count(); ++u) {
      if (u < xs.size()) net.set_items(u, {xs[u]});
    }
  }
};

TEST(Executor, CountAndSum) {
  Fixture f({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_DOUBLE_EQ(f.exec.run("SELECT COUNT(v) FROM sensors").value, 8.0);
  EXPECT_DOUBLE_EQ(f.exec.run("SELECT SUM(v) FROM sensors").value, 36.0);
  EXPECT_DOUBLE_EQ(f.exec.run("SELECT AVG(v) FROM sensors").value, 4.5);
}

TEST(Executor, MinMax) {
  Fixture f({15, 3, 99, 27});
  EXPECT_DOUBLE_EQ(f.exec.run("SELECT MIN(v) FROM sensors").value, 3.0);
  EXPECT_DOUBLE_EQ(f.exec.run("SELECT MAX(v) FROM sensors").value, 99.0);
}

TEST(Executor, MedianExact) {
  const ValueSet xs{10, 20, 30, 40, 50, 60, 70};
  Fixture f(xs);
  const auto res = f.exec.run("SELECT MEDIAN(v) FROM sensors");
  EXPECT_DOUBLE_EQ(res.value, static_cast<double>(reference_median(xs)));
  EXPECT_TRUE(res.is_exact);
}

TEST(Executor, QuantileExact) {
  ValueSet xs(20);
  for (std::size_t i = 0; i < 20; ++i) xs[i] = static_cast<Value>(i * 5);
  Fixture f(xs);
  const auto res = f.exec.run("SELECT QUANTILE(v, 0.25) FROM sensors");
  // k = 5 -> 5th smallest = 20.
  EXPECT_DOUBLE_EQ(res.value, 20.0);
}

TEST(Executor, WhereFilterApplies) {
  Fixture f({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_DOUBLE_EQ(
      f.exec.run("SELECT COUNT(v) FROM sensors WHERE v < 5").value, 4.0);
  EXPECT_DOUBLE_EQ(
      f.exec.run("SELECT COUNT(v) FROM sensors WHERE v >= 5").value, 4.0);
  EXPECT_DOUBLE_EQ(
      f.exec.run("SELECT COUNT(v) FROM sensors WHERE v <= 5").value, 5.0);
  EXPECT_DOUBLE_EQ(
      f.exec.run("SELECT MIN(v) FROM sensors WHERE v > 3").value, 4.0);
}

TEST(Executor, FilterClearedBetweenQueries) {
  Fixture f({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_DOUBLE_EQ(
      f.exec.run("SELECT COUNT(v) FROM sensors WHERE v < 3").value, 2.0);
  EXPECT_DOUBLE_EQ(f.exec.run("SELECT COUNT(v) FROM sensors").value, 8.0);
}

TEST(Executor, MedianWithWhere) {
  const ValueSet xs{1, 2, 3, 4, 100, 200, 300, 400};
  Fixture f(xs);
  const auto res =
      f.exec.run("SELECT MEDIAN(v) FROM sensors WHERE v >= 100");
  EXPECT_DOUBLE_EQ(res.value, 200.0);
}

TEST(Executor, CountDistinctExactAndApprox) {
  ValueSet xs(16);
  for (std::size_t i = 0; i < 16; ++i) xs[i] = static_cast<Value>(i % 4);
  Fixture f(xs);
  const auto exact = f.exec.run("SELECT COUNT_DISTINCT(v) FROM sensors");
  EXPECT_DOUBLE_EQ(exact.value, 4.0);
  EXPECT_TRUE(exact.is_exact);
  const auto approx =
      f.exec.run("SELECT COUNT_DISTINCT(v) FROM sensors ERROR 0.2");
  EXPECT_FALSE(approx.is_exact);
  EXPECT_NEAR(approx.value, 4.0, 3.0);
}

TEST(Executor, EveryWhereFormMatchesTheTruthOverThePlansRegion) {
  // Readings below 60 with repeats, a bound of 64: the last WHERE reaches
  // past the bound, and every answer is the truth over the region the
  // planner canonicalized.
  constexpr Value kBound = 64;
  ValueSet xs(48);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<Value>(i * 13 % 60);
  }
  Fixture f(xs, kBound);
  const Planner planner(kBound);
  for (const char* where :
       {"v < 20", "v <= 20", "v > 20", "v >= 20", "v BETWEEN 10 AND 40",
        "v BETWEEN 30 AND 1000"}) {
    const std::string tail = std::string(" FROM sensors WHERE ") + where;
    const RegionSignature region =
        planner.plan(parse_query("SELECT COUNT(v)" + tail)).value().region;
    ValueSet in;
    for (const Value x : xs) {
      if (x >= region.lo && x <= region.hi) in.push_back(x);
    }
    ASSERT_FALSE(in.empty()) << where;
    std::sort(in.begin(), in.end());
    Value sum = 0;
    for (const Value x : in) sum += x;
    const std::set<Value> distinct(in.begin(), in.end());
    // MEDIAN's twice_k = N: the ceil(N/2)-th smallest.
    const std::pair<const char*, double> cases[] = {
        {"COUNT(v)", static_cast<double>(in.size())},
        {"MIN(v)", static_cast<double>(in.front())},
        {"SUM(v)", static_cast<double>(sum)},
        {"MEDIAN(v)", static_cast<double>(in[(in.size() + 1) / 2 - 1])},
        {"COUNT_DISTINCT(v)", static_cast<double>(distinct.size())}};
    for (const auto& [agg, truth] : cases) {
      const std::string text = std::string("SELECT ") + agg + tail;
      SCOPED_TRACE(text);
      const auto r = f.exec.run(text);
      EXPECT_TRUE(r.is_exact);
      EXPECT_DOUBLE_EQ(r.value, truth);
    }
  }
}

TEST(Executor, WholeDomainCountKeepsItsCost) {
  // No WHERE: the filter broadcast is its 1-bit "filtered?" flag alone.
  ValueSet xs(48);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<Value>(i * 13 % 60);
  }
  Fixture f(xs, /*max_value=*/64);
  EXPECT_EQ(f.exec.run("SELECT COUNT(v) FROM sensors").total_bits, 394u);
}

TEST(Executor, ApproxCount) {
  ValueSet xs(64, 7);
  Fixture f(xs);
  const auto res = f.exec.run("SELECT COUNT(v) FROM sensors ERROR 0.1");
  EXPECT_FALSE(res.is_exact);
  EXPECT_NEAR(res.value, 64.0, 24.0);
}

TEST(Executor, ApproxSumAndAvg) {
  ValueSet xs(64, 100);  // sum = 6400, avg = 100
  Fixture f(xs, /*max_value=*/128);
  const auto sum = f.exec.run("SELECT SUM(v) FROM sensors ERROR 0.05");
  EXPECT_FALSE(sum.is_exact);
  EXPECT_NEAR(sum.value, 6400.0, 1600.0);
  const auto avg = f.exec.run("SELECT AVG(v) FROM sensors ERROR 0.05");
  EXPECT_FALSE(avg.is_exact);
  EXPECT_NEAR(avg.value, 100.0, 40.0);
}

TEST(Executor, ApproxSumRespectsWhere) {
  ValueSet xs;
  for (int i = 0; i < 32; ++i) xs.push_back(10);
  for (int i = 0; i < 32; ++i) xs.push_back(1000);
  Fixture f(xs, /*max_value=*/1024);
  const auto res =
      f.exec.run("SELECT SUM(v) FROM sensors WHERE v < 100 ERROR 0.05");
  // Only the 32 tens: truth 320 (vs 32320 unfiltered).
  EXPECT_NEAR(res.value, 320.0, 120.0);
}

TEST(Executor, ApproxMedianRunsAndIsClose) {
  ValueSet xs(64);
  for (std::size_t i = 0; i < 64; ++i) {
    xs[i] = static_cast<Value>(i * 1000);
  }
  Fixture f(xs, /*max_value=*/65536);
  const auto res = f.exec.run(
      "SELECT MEDIAN(v) FROM sensors ERROR 0.05 CONFIDENCE 0.75");
  EXPECT_FALSE(res.is_exact);
  // beta = 0.05 on X = 65536 plus rank noise: generous envelope.
  EXPECT_NEAR(res.value, 31500.0, 16000.0);
}

TEST(Executor, AccountingWindowIsPerQuery) {
  Fixture f({1, 2, 3, 4});
  const auto a = f.exec.run("SELECT COUNT(v) FROM sensors");
  const auto b = f.exec.run("SELECT COUNT(v) FROM sensors");
  EXPECT_GT(a.max_node_bits, 0u);
  // Same query, same cost window (not cumulative).
  EXPECT_EQ(a.max_node_bits, b.max_node_bits);
  EXPECT_GT(a.messages, 0u);
}

TEST(Executor, EmptySelectionIsFlagged) {
  // Every strategy answers an empty selection instead of throwing: the
  // exact ones where they learn the count, MEDIAN ... ERROR where its first
  // approximate COUNT sets no register, AVG ... ERROR where its count is 0.
  Fixture f({1, 2, 3, 4});
  for (const char* text :
       {"SELECT MIN(v) FROM sensors WHERE v > 100",
        "SELECT MAX(v) FROM sensors WHERE v > 100",
        "SELECT AVG(v) FROM sensors WHERE v > 100",
        "SELECT MEDIAN(v) FROM sensors WHERE v > 100",
        "SELECT QUANTILE(v, 0.9) FROM sensors WHERE v > 100",
        "SELECT MEDIAN(v) FROM sensors WHERE v > 100 ERROR 0.2",
        "SELECT AVG(v) FROM sensors WHERE v > 100 ERROR 0.2"}) {
    SCOPED_TRACE(text);
    const auto r = f.exec.run(text);
    EXPECT_TRUE(r.empty_selection);
    EXPECT_DOUBLE_EQ(r.value, 0.0);
    EXPECT_EQ(r.is_exact, std::string_view(text).find("ERROR") ==
                              std::string_view::npos);
  }
  const auto count = f.exec.run("SELECT COUNT(v) FROM sensors WHERE v > 100");
  EXPECT_FALSE(count.empty_selection);
  EXPECT_DOUBLE_EQ(count.value, 0.0);
  EXPECT_FALSE(f.exec.run("SELECT MEDIAN(v) FROM sensors").empty_selection);
}

TEST(Executor, EmptyApproxMedianStopsAtItsFirstCount) {
  // The WHERE broadcast and one approximate COUNT wave, whose registers
  // all come back zero: one message per tree edge, then two.
  ValueSet xs(64);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<Value>(i);
  Fixture f(xs, /*max_value=*/4096);
  const auto r =
      f.exec.run("SELECT MEDIAN(v) FROM sensors WHERE v > 4000 ERROR 0.1");
  EXPECT_TRUE(r.empty_selection);
  const std::uint64_t edges = f.net.node_count() - 1;
  EXPECT_EQ(r.messages, 3 * edges);
  // A non-empty selection still runs its stages.
  const auto full =
      f.exec.run("SELECT MEDIAN(v) FROM sensors WHERE v > 10 ERROR 0.1");
  EXPECT_FALSE(full.empty_selection);
  EXPECT_GT(full.messages, 10 * r.messages);
}

TEST(Executor, PlannerErrorNamesItsPositionOnce) {
  Fixture f({1, 2, 3, 4});
  try {
    f.exec.run("SELECT MEDIAN(v) FROM sensors WHERE v > 100000");
    FAIL() << "a WHERE past the value bound must not plan";
  } catch (const QueryError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what,
              "WHERE range selects no representable value (at offset 0)");
    EXPECT_EQ(e.position(), 0u);
  }
}

TEST(Executor, PlanLineSurfaced) {
  Fixture f({1, 2, 3, 4});
  EXPECT_NE(f.exec.run("SELECT MEDIAN(v) FROM sensors").plan.find("fig1"),
            std::string::npos);
}

}  // namespace
}  // namespace sensornet::query
