// PrunedCountingService against Fact 2.1's TreeCountingService: the same
// counts and extremes on random trees and multisets, the same Fig. 1 runs,
// and never more bits at any node.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/det_median.hpp"
#include "src/net/topology.hpp"
#include "src/proto/counting_service.hpp"

namespace sensornet::proto {
namespace {

/// One random deployment: a tree shape, per-node multisets (some nodes
/// empty, some with several items) and an optional filter.
struct Case {
  std::string name;
  net::Graph graph{1};
  net::SpanningTree tree;
  std::vector<ValueSet> items;
  std::optional<WindowView> filter;  // the WHERE-filtered view

  const LocalItemView& view() const {
    return filter ? static_cast<const LocalItemView&>(*filter)
                  : raw_item_view();
  }
  ValueWindow where() const {
    return filter ? filter->window() : ValueWindow{};
  }

  /// A fresh network holding this case's items.
  sim::Network network() const {
    sim::Network net(graph, /*master_seed=*/3);
    for (NodeId u = 0; u < net.node_count(); ++u) net.set_items(u, items[u]);
    return net;
  }

  /// The items the view exposes, sorted.
  ValueSet visible() const {
    sim::Network net = network();
    ValueSet all;
    for (NodeId u = 0; u < net.node_count(); ++u) {
      const ValueSet mine = view().items(net, u);
      all.insert(all.end(), mine.begin(), mine.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }
};

Case draw_case(Xoshiro256& rng, std::size_t max_nodes) {
  Case c;
  const std::size_t n = 1 + rng.next_below(max_nodes);
  switch (rng.next_below(4)) {
    case 0: {
      const std::size_t rows = 1 + rng.next_below(4);
      c.name = "grid";
      c.graph = net::make_grid(rows, (n + rows - 1) / rows);
      break;
    }
    case 1:
      c.name = "line";
      c.graph = net::make_line(n);
      break;
    case 2:  // a BFS tree of the complete graph is a star
      c.name = "star";
      c.graph = net::make_complete(n);
      break;
    default:
      c.name = "geometric";
      c.graph = net::make_random_geometric(n, 0.35, rng).graph;
  }
  const NodeId nodes = static_cast<NodeId>(c.graph.node_count());
  c.tree = net::bfs_tree(c.graph, static_cast<NodeId>(rng.next_below(nodes)));

  // Value shapes: all equal, a narrow range (many ties) or a wide one.
  const std::uint64_t shape = rng.next_below(3);
  const Value common = static_cast<Value>(rng.next_below(50));
  const std::uint64_t width = shape == 1 ? 6 : 1000;
  c.items.resize(nodes);
  for (ValueSet& mine : c.items) {
    const std::uint64_t k = rng.next_below(4);  // 0..3 items
    for (std::uint64_t i = 0; i < k; ++i) {
      mine.push_back(shape == 0 ? common
                                : static_cast<Value>(rng.next_below(width)));
    }
  }
  if (rng.next_bool(0.4)) {
    const Value lo = static_cast<Value>(rng.next_below(width));
    c.filter.emplace(
        ValueWindow{lo, lo + static_cast<Value>(rng.next_below(width))});
    c.name += "+filter";
  }
  c.name += " n=" + std::to_string(nodes);
  return c;
}

/// Every predicate op, with thresholds around and beyond [min, max],
/// half-unit ones included.
std::vector<Predicate> probe_predicates(Xoshiro256& rng, const ValueSet& xs) {
  const Value lo = xs.empty() ? 0 : xs.front();
  const Value hi = xs.empty() ? 10 : xs.back();
  std::vector<Predicate> out{Predicate::always_true()};
  for (int i = 0; i < 12; ++i) {
    const std::int64_t t2 =
        2 * lo - 3 +
        static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(2 * (hi - lo) + 7)));
    out.push_back(Predicate::less_than_half_units(t2));
    out.push_back(Predicate::less_than(t2 / 2));
    out.push_back(Predicate::greater_equal(t2 / 2));
  }
  for (const Value y : {lo - 1, lo, hi, hi + 1}) {
    out.push_back(Predicate::less_than(y));
    out.push_back(Predicate::greater_equal(y));
  }
  return out;
}

TEST(PrunedCountingService, CountsAndExtremesMatchTheTreeService) {
  Xoshiro256 rng(7);
  for (int t = 0; t < 120; ++t) {
    const Case c = draw_case(rng, 40);
    SCOPED_TRACE(c.name);
    const ValueSet xs = c.visible();
    sim::Network ref_net = c.network();
    sim::Network net = c.network();
    TreeCountingService ref(ref_net, c.tree, c.view());
    PrunedCountingService svc(net, c.tree, c.where());
    EXPECT_EQ(svc.min_value(), ref.min_value());
    EXPECT_EQ(svc.max_value(), ref.max_value());
    EXPECT_EQ(svc.count_all(), xs.size());
    for (const Predicate& p : probe_predicates(rng, xs)) {
      EXPECT_EQ(svc.count(p), ref.count(p)) << p.to_string();
    }
  }
}

TEST(PrunedCountingService, SelectionsMatchAndNoNodePaysMore) {
  Xoshiro256 rng(11);
  std::uint64_t ref_total = 0, total = 0, pruned = 0;
  int cases = 0;
  while (cases < 60) {
    const Case c = draw_case(rng, 12);
    const ValueSet xs = c.visible();
    if (xs.empty()) continue;
    ++cases;
    SCOPED_TRACE(c.name);
    const auto n = static_cast<std::int64_t>(xs.size());
    for (std::int64_t twice_k = 1; twice_k <= 2 * n; ++twice_k) {
      SCOPED_TRACE(testing::Message() << "twice_k " << twice_k);
      // One whole selection per service, as the executor runs it: COUNT
      // for N, then Fig. 1.
      sim::Network ref_net = c.network();
      TreeCountingService ref(ref_net, c.tree, c.view());
      ASSERT_EQ(ref.count_all(), xs.size());
      const auto want = core::deterministic_order_statistic(ref, twice_k);

      sim::Network net = c.network();
      PrunedCountingService svc(net, c.tree, c.where());
      ASSERT_EQ(svc.count_all(), xs.size());
      const auto got = core::deterministic_order_statistic(svc, twice_k);
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_EQ(got.countp_calls, want.countp_calls);
      EXPECT_EQ(got.value, xs[static_cast<std::size_t>((twice_k + 1) / 2 - 1)]);

      const auto ref_stats = ref_net.all_stats();
      const auto stats = net.all_stats();
      for (NodeId u = 0; u < net.node_count(); ++u) {
        EXPECT_LE(stats[u].bits(true), ref_stats[u].bits(true)) << "node " << u;
        ref_total += ref_stats[u].bits(true);
        total += stats[u].bits(true);
        // A leaf whose subtree is one value never straddles a pivot: the
        // summary request is all it hears.
        const bool one_value = c.view().items(net, u).size() == 1;
        if (u != c.tree.root && c.tree.children[u].empty() && one_value) {
          EXPECT_EQ(stats[u].messages_received, 1u) << "node " << u;
        }
      }
      pruned += svc.edges_pruned();
    }
  }
  EXPECT_LT(total, ref_total);
  EXPECT_GT(pruned, 0u);
}

TEST(PrunedCountingService, SetUpIsOneWaveAndOutsidePivotsAreFree) {
  sim::Network net(net::make_grid(3, 3), 1);
  net.set_one_item_per_node({5, 2, 9, 2, 7, 1, 8, 3, 6});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 4);
  PrunedCountingService svc(net, tree);
  EXPECT_EQ(svc.count_all(), 9u);
  EXPECT_EQ(*svc.min_value(), 1);
  EXPECT_EQ(*svc.max_value(), 9);
  EXPECT_EQ(svc.waves(), 1u);
  const std::uint64_t messages = net.summary().total_messages;
  EXPECT_EQ(messages, 2u * 8u);  // one request and one summary per edge

  // A pivot outside [min, max] is answered at the root, every root edge
  // served from its kept summary.
  EXPECT_EQ(svc.count(Predicate::less_than(1)), 0u);
  EXPECT_EQ(svc.count(Predicate::greater_equal(0)), 9u);
  EXPECT_EQ(net.summary().total_messages, messages);
  EXPECT_EQ(svc.edges_pruned(), 2u * tree.children[4].size());

  // A pivot inside the range descends only where it cuts.
  EXPECT_EQ(svc.count(Predicate::less_than(5)), 4u);
  EXPECT_LT(net.summary().total_messages - messages, 2u * 8u);
}

TEST(PrunedCountingService, EmptyInputHasNoExtremes) {
  sim::Network net(net::make_line(4), 1);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  PrunedCountingService svc(net, tree);
  EXPECT_EQ(svc.count_all(), 0u);
  EXPECT_FALSE(svc.min_value().has_value());
  EXPECT_FALSE(svc.max_value().has_value());
  EXPECT_EQ(svc.count(Predicate::less_than(3)), 0u);
  EXPECT_EQ(svc.waves(), 2u);
}

/// Fig. 1 over `svc` against Fig. 1 over TreeCountingService on the
/// filtered view: the same value (the sorted view's rank), iterations and
/// COUNTP calls.
void expect_same_selection(const Case& c, const ValueSet& xs,
                           std::int64_t twice_k,
                           PrunedCountingService& svc) {
  sim::Network ref_net = c.network();
  TreeCountingService ref(ref_net, c.tree, c.view());
  const auto want = core::deterministic_order_statistic(ref, twice_k);
  ASSERT_EQ(svc.count_all(), xs.size());
  const auto got = core::deterministic_order_statistic(svc, twice_k);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.countp_calls, want.countp_calls);
  EXPECT_EQ(got.value, xs[static_cast<std::size_t>((twice_k + 1) / 2 - 1)]);
}

TEST(PrunedCountingService, WindowedSelectionsMatchFig1OnTheFilteredView) {
  // Random trees whose WHERE window leaves raw items outside it.
  Xoshiro256 rng(23);
  std::uint64_t resummaries = 0;
  int cases = 0;
  while (cases < 50) {
    Case c = draw_case(rng, 24);
    const Value lo = static_cast<Value>(rng.next_below(400));
    c.filter.emplace(
        ValueWindow{lo, lo + static_cast<Value>(rng.next_below(600))});
    const ValueSet xs = c.visible();
    std::size_t raw = 0;
    for (const ValueSet& mine : c.items) raw += mine.size();
    if (xs.empty() || raw == xs.size()) continue;
    ++cases;
    SCOPED_TRACE(c.name);
    const auto n = static_cast<std::int64_t>(xs.size());
    for (std::int64_t twice_k = 1; twice_k <= 2 * n; ++twice_k) {
      SCOPED_TRACE(testing::Message() << "twice_k " << twice_k);
      sim::Network net = c.network();
      PrunedCountingService svc(net, c.tree, c.where());
      expect_same_selection(c, xs, twice_k, svc);
      resummaries += svc.resummaries();
    }
  }
  EXPECT_GT(resummaries, 0u);
}

TEST(PrunedCountingService, DeepTreesResummarizeMoreThanOnce) {
  // Long lines and sparse geometric graphs: one selection narrows its
  // summaries at least twice, and still runs Fig. 1's pivots.
  Xoshiro256 rng(29);
  for (const bool line : {true, false}) {
    for (int t = 0; t < 3; ++t) {
      Case c;
      const std::size_t n = 60 + rng.next_below(40);
      c.graph = line ? net::make_line(n)
                     : net::make_random_geometric(n, 0.2, rng).graph;
      c.name = (line ? "line n=" : "geometric n=") + std::to_string(n);
      c.tree = net::bfs_tree(c.graph, static_cast<NodeId>(rng.next_below(n)));
      c.items.resize(n);
      for (ValueSet& mine : c.items) {
        for (auto k = 1 + rng.next_below(3); k > 0; --k) {
          mine.push_back(static_cast<Value>(rng.next_below(5000)));
        }
      }
      c.filter.emplace(ValueWindow{500, 4200});
      SCOPED_TRACE(c.name);
      const ValueSet xs = c.visible();
      const auto size = static_cast<std::int64_t>(xs.size());
      std::uint64_t most = 0;
      for (const std::int64_t twice_k :
           {std::int64_t{1}, size / 5, size, 2 * size - 3, 2 * size}) {
        SCOPED_TRACE(testing::Message() << "twice_k " << twice_k);
        sim::Network net = c.network();
        PrunedCountingService svc(net, c.tree, c.where());
        expect_same_selection(c, xs, twice_k, svc);
        most = std::max(most, svc.resummaries());
      }
      EXPECT_GE(most, 2u);
    }
  }
}

TEST(PrunedCountingService, SkippedChildKeepsTheSummariesBelowIt) {
  // Root 0 has leaves 3..10 holding {0, 1000} and child 1 {50, 60}, whose
  // child 2 holds {52, 58}. The re-summary over [40, 70) keeps node 1's
  // summary (wholly inside) without a message; the pivot 55 then straddles
  // both node 1 and node 2, so node 1 needs the summary of node 2 it kept
  // from the first wave.
  net::Graph g(11);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  for (NodeId leaf = 3; leaf < 11; ++leaf) g.add_edge(0, leaf);
  g.compact();
  sim::Network net(g, 1);
  net.set_items(1, {50, 60});
  net.set_items(2, {52, 58});
  for (NodeId leaf = 3; leaf < 11; ++leaf) net.set_items(leaf, {0, 1000});
  const net::SpanningTree tree = net::bfs_tree(g, 0);
  ASSERT_EQ(tree.parent[2], 1u);

  PrunedCountingService svc(net, tree);
  EXPECT_EQ(svc.count_all(), 20u);
  EXPECT_EQ(svc.count(Predicate::less_than(40)), 8u);
  EXPECT_EQ(svc.count(Predicate::less_than(70)), 12u);
  EXPECT_EQ(svc.resummaries(), 0u);
  const auto node1_before = net.all_stats()[1].messages_received;
  // The bracket [40, 70) holds 4 of 20 items: re-summarize first.
  EXPECT_EQ(svc.count(Predicate::less_than(55)), 10u);
  EXPECT_EQ(svc.resummaries(), 1u);
  // Node 1 heard only the COUNTP request and node 2's count.
  EXPECT_EQ(net.all_stats()[1].messages_received - node1_before, 2u);
  // Reused and later pivots keep counting right over the narrowed view.
  EXPECT_EQ(svc.count(Predicate::greater_equal(55)), 10u);
  EXPECT_EQ(svc.count(Predicate::less_than(59)), 11u);
  EXPECT_EQ(svc.count(Predicate::less_than_half_units(103)), 9u);
  // A pivot outside the held window takes the first summary again.
  EXPECT_EQ(svc.count(Predicate::less_than(500)), 12u);
  EXPECT_EQ(svc.count(Predicate::less_than(1001)), 20u);
}

TEST(PrunedCountingService, AnsweredPivotsCostNoWave) {
  sim::Network net(net::make_grid(3, 3), 1);
  net.set_one_item_per_node({5, 2, 9, 2, 7, 1, 8, 3, 6});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 4);
  PrunedCountingService svc(net, tree);
  EXPECT_EQ(svc.count(Predicate::less_than_half_units(9)), 4u);  // x < 4.5
  const std::uint32_t waves = svc.waves();
  const std::uint64_t bits = net.summary(true).total_bits;
  // x < 5 is the same count as x < 4.5 on integers; x >= 5 its complement.
  EXPECT_EQ(svc.count(Predicate::less_than(5)), 4u);
  EXPECT_EQ(svc.count(Predicate::greater_equal(5)), 5u);
  EXPECT_EQ(svc.waves(), waves);
  EXPECT_EQ(net.summary(true).total_bits, bits);
}

TEST(SubtreeSummary, RoundTripsAndFolds) {
  SubtreeSummary a;
  for (const Value x : {7, 3, 12}) a.observe(x);
  EXPECT_EQ(a, (SubtreeSummary{3, 3, 12}));
  SubtreeSummary b;
  b.observe(40);
  a.fold(b);
  a.fold(SubtreeSummary{});
  EXPECT_EQ(a, (SubtreeSummary{4, 3, 40}));
  for (const SubtreeSummary& s : {a, SubtreeSummary{}}) {
    BitWriter w;
    s.encode(w);
    BitReader r(w.bytes().data(), w.bit_count());
    EXPECT_EQ(SubtreeSummary::decode(r), s);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

}  // namespace
}  // namespace sensornet::proto
