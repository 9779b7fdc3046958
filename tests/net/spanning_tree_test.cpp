#include "src/net/spanning_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/net/topology.hpp"
#include "src/proto/counting_service.hpp"
#include "src/sim/network.hpp"

namespace sensornet::net {
namespace {

TEST(SpanningTree, BfsOnLine) {
  const Graph g = make_line(5);
  const SpanningTree t = bfs_tree(g, 0);
  EXPECT_TRUE(validate_tree(g, t));
  EXPECT_EQ(t.height(), 4u);
  EXPECT_EQ(t.depth[4], 4u);
  EXPECT_EQ(t.parent[4], 3u);
}

TEST(SpanningTree, BfsFromMiddle) {
  const Graph g = make_line(5);
  const SpanningTree t = bfs_tree(g, 2);
  EXPECT_TRUE(validate_tree(g, t));
  EXPECT_EQ(t.height(), 2u);
  EXPECT_EQ(t.children[2].size(), 2u);
}

TEST(SpanningTree, BfsOnCompleteIsStar) {
  const Graph g = make_complete(8);
  const SpanningTree t = bfs_tree(g, 3);
  EXPECT_TRUE(validate_tree(g, t));
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.max_degree(), 7u);
}

TEST(SpanningTree, DisconnectedThrows) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(bfs_tree(g.compact(), 0), ProtocolError);
}

TEST(SpanningTree, CappedBfsBoundsDegree) {
  const Graph g = make_complete(64);
  const SpanningTree t = capped_bfs_tree(g, 0, 3);
  EXPECT_TRUE(validate_tree(g, t));
  EXPECT_LE(t.max_degree(), 4u);  // 3 children + 1 parent
  EXPECT_GT(t.height(), 1u);      // necessarily deeper than the star
}

TEST(SpanningTree, CappedBfsTooTightThrows) {
  // A star graph cannot be spanned with max_children == 1 from a leaf... the
  // hub itself can only adopt 1 child, stranding the rest.
  Graph star(5);
  for (NodeId u = 1; u < 5; ++u) star.add_edge(0, u);
  EXPECT_THROW(capped_bfs_tree(star.compact(), 1, 1), ProtocolError);
}

TEST(SpanningTree, CappedMatchesBfsWhenCapLoose) {
  const Graph g = make_grid(4, 4);
  const SpanningTree bfs = bfs_tree(g, 0);
  const SpanningTree capped = capped_bfs_tree(g, 0, 4);
  EXPECT_TRUE(validate_tree(g, capped));
  EXPECT_EQ(bfs.height(), capped.height());
}

TEST(SpanningTree, ValidateCatchesCorruption) {
  const Graph g = make_grid(3, 3);
  SpanningTree t = bfs_tree(g, 0);
  ASSERT_TRUE(validate_tree(g, t));

  SpanningTree bad_parent = t;
  bad_parent.parent[8] = 8;  // self-parent, not a graph edge
  EXPECT_FALSE(validate_tree(g, bad_parent));

  SpanningTree bad_depth = t;
  bad_depth.depth[4] += 1;
  EXPECT_FALSE(validate_tree(g, bad_depth));

  SpanningTree missing_child = t;
  missing_child.children[t.parent[8]].clear();
  EXPECT_FALSE(validate_tree(g, missing_child));
}

/// servicebench's geometric deployment: n nodes at radius
/// sqrt(4 ln n / (pi n)), connected w.h.p.
Graph geometric(std::size_t n, std::uint64_t seed) {
  const double nn = static_cast<double>(n);
  const double radius = std::sqrt(4.0 * std::log(nn) / (std::numbers::pi * nn));
  Xoshiro256 rng(seed);
  return make_random_geometric(n, radius, rng).graph;
}

std::size_t widest_fan_in(const SpanningTree& t) {
  std::size_t widest = 0;
  for (const auto& c : t.children) widest = std::max(widest, c.size());
  return widest;
}

std::size_t internal_nodes(const SpanningTree& t) {
  return static_cast<std::size_t>(
      std::count_if(t.children.begin(), t.children.end(),
                    [](const auto& c) { return !c.empty(); }));
}

/// aggregation_tree's base, by its documented rule: the given tree when no
/// node has more than Δ children, else the first capped BFS tree no taller.
SpanningTree aggregation_base(const Graph& g, const SpanningTree& given) {
  for (unsigned cap = kAggregationFanIn; cap < widest_fan_in(given); ++cap) {
    try {
      SpanningTree t = capped_bfs_tree(g, given.root, cap);
      if (t.height() <= given.height()) return t;
    } catch (const ProtocolError&) {
    }
  }
  return given;
}

TEST(AggregationTree, CapsServicebenchsGeometricDeploymentAtDelta) {
  // servicebench's standing_cube layout: its BFS root adopts all 21 of its
  // neighbours, and capped BFS at Δ keeps the height.
  const Graph g = geometric(2048, 0x6e0de5);
  const SpanningTree bfs = bfs_tree(g, 0);
  ASSERT_EQ(widest_fan_in(bfs), 21u);
  const SpanningTree t = aggregation_tree(g, bfs);
  EXPECT_TRUE(validate_tree(g, t));
  EXPECT_LE(widest_fan_in(t), kAggregationFanIn);
  EXPECT_EQ(t.height(), bfs.height());
  EXPECT_LT(internal_nodes(t),
            internal_nodes(capped_bfs_tree(g, 0, kAggregationFanIn)));
}

TEST(AggregationTree, NeverWidensOrGrowsARandomGeometricTree) {
  int at_delta = 0;
  for (const std::size_t n : {64u, 256u, 1024u, 2048u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " seed " << seed);
      const Graph g = geometric(n, seed);
      const SpanningTree bfs = bfs_tree(g, 0);
      const SpanningTree t = aggregation_tree(g, bfs);
      EXPECT_TRUE(validate_tree(g, t));
      EXPECT_EQ(t.root, bfs.root);
      EXPECT_LE(t.height(), bfs.height());
      EXPECT_LE(widest_fan_in(t), widest_fan_in(bfs));
      // Whenever capped BFS at Δ keeps the height, the rule takes it.
      bool delta_fits = false;
      try {
        delta_fits = capped_bfs_tree(g, 0, kAggregationFanIn).height() <=
                     bfs.height();
      } catch (const ProtocolError&) {
      }
      if (delta_fits) {
        EXPECT_LE(widest_fan_in(t), kAggregationFanIn);
        ++at_delta;
      }
    }
  }
  EXPECT_GT(at_delta, 0);
}

TEST(AggregationTree, LeafyTreeKeepsDepthsFanInAndNeverAddsRelays) {
  // Grids, lines and random geometric graphs of n = 64 to 2,048: the leafy
  // tree of aggregation_tree's base is valid, keeps every node's depth and
  // the fan-in bound, and has no more internal nodes than the base.
  std::vector<Graph> graphs{make_grid(48, 48), make_grid(5, 7), make_line(9)};
  for (const std::size_t n : {64u, 256u, 1024u, 2048u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
      graphs.push_back(geometric(n, seed));
    }
  }
  int fewer = 0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "graph " << i);
    const Graph& g = graphs[i];
    const SpanningTree base = aggregation_base(g, bfs_tree(g, 0));
    const SpanningTree t = aggregation_tree(g, bfs_tree(g, 0));
    ASSERT_TRUE(validate_tree(g, t));
    EXPECT_EQ(t.depth, base.depth);
    EXPECT_LE(widest_fan_in(t),
              std::max<std::size_t>(kAggregationFanIn, widest_fan_in(base)));
    EXPECT_LE(internal_nodes(t), internal_nodes(base));
    fewer += internal_nodes(t) < internal_nodes(base) ? 1 : 0;
  }
  EXPECT_GE(fewer, 24);  // every random geometric graph, at least
}

TEST(AggregationTree, NeverTallerNeverWiderALineStaysALine) {
  for (const Graph& g : {make_grid(48, 48), make_grid(5, 7), make_line(9)}) {
    for (const NodeId root : {NodeId{0}, NodeId{4}}) {
      const SpanningTree given = bfs_tree(g, root);
      ASSERT_LE(widest_fan_in(given), kAggregationFanIn);
      const SpanningTree t = aggregation_tree(g, given);
      EXPECT_TRUE(validate_tree(g, t));
      EXPECT_EQ(t.depth, given.depth);
      EXPECT_LE(widest_fan_in(t), kAggregationFanIn);
    }
  }
  const Graph line = make_line(9);
  for (const NodeId root : {NodeId{0}, NodeId{4}}) {
    const SpanningTree given = bfs_tree(line, root);
    EXPECT_EQ(aggregation_tree(line, given).parent, given.parent);
  }
}

TEST(AggregationTree, KeepsTheGivenTreeWhenNoCapSpans) {
  // Rooted at its hub, a star strands a leaf at every cap below n - 1, and
  // its one layer has one parent to cover it.
  constexpr std::size_t kLeaves = 12;
  Graph star(kLeaves + 1);
  for (NodeId u = 1; u <= kLeaves; ++u) star.add_edge(0, u);
  const Graph g = star.compact();
  const SpanningTree given = bfs_tree(g, 0);
  SpanningTree t;
  EXPECT_NO_THROW(t = aggregation_tree(g, given));
  EXPECT_EQ(t.parent, given.parent);
  EXPECT_EQ(t.children, given.children);
}

/// Edges dirtied by one update set: the union of the updated nodes' paths
/// to the root, as a mark wave sends them.
std::size_t dirty_edges(const SpanningTree& t, const std::vector<NodeId>& set) {
  std::vector<bool> marked(t.node_count(), false);
  std::size_t edges = 0;
  for (NodeId v : set) {
    for (; v != t.root && !marked[v]; v = t.parent[v]) {
      marked[v] = true;
      ++edges;
    }
  }
  return edges;
}

TEST(AggregationTree, ALeafyGridTreeDirtiesFewerEdges) {
  // servicebench's 48x48 grid: BFS from a corner is a comb whose teeth are
  // the columns. Each drift batch is a fixed seeded set; the model's
  // expected dirty edges per batch, sum over v of P(subtree(v) drifts), are
  // in the comments.
  constexpr std::size_t kSide = 48;
  const Graph g = make_grid(kSide, kSide);
  const SpanningTree comb = bfs_tree(g, 0);
  const SpanningTree leafy = aggregation_tree(g, comb);
  ASSERT_EQ(comb.children[1], (std::vector<NodeId>{2, kSide + 1}));
  // Sums each tree's dirty edges over 64 batches: every node of `drifts`
  // joins a batch with probability 1 / `odds`.
  const auto totals = [&](auto&& drifts, std::uint64_t odds) {
    Xoshiro256 rng(34);
    std::pair<std::size_t, std::size_t> sum{0, 0};
    for (int batch = 0; batch < 64; ++batch) {
      std::vector<NodeId> set;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (drifts(v / kSide, v % kSide) && rng.next_below(odds) == 0) {
          set.push_back(v);
        }
      }
      sum.first += dirty_edges(comb, set);
      sum.second += dirty_edges(leafy, set);
    }
    return sum;
  };
  // Independent 1/8 drift: 1,967.6 edges on the comb, 1,239.2 on the leafy
  // tree.
  const auto iid = totals([](std::size_t, std::size_t) { return true; }, 8);
  EXPECT_LE(static_cast<double>(iid.second),
            0.65 * static_cast<double>(iid.first));
  // Every 4th row drifting at 1/2: 1,967.1 against 1,143.7.
  const auto rows =
      totals([](std::size_t r, std::size_t) { return r % 4 == 0; }, 2);
  EXPECT_LT(rows.second, rows.first);
  // Every 4th column at 1/2 is the trade's cost: the columns are exactly
  // the comb's teeth, so the comb wins, 596.0 against 884.3.
  const auto columns =
      totals([](std::size_t, std::size_t c) { return c % 4 == 0; }, 2);
  EXPECT_LT(columns.first, columns.second);
}

TEST(AggregationTree, NoCountWaveCostsTheBusiestNodeMore) {
  // One COUNT convergecast (Fact 2.1) on the returned tree against BFS, on
  // graphs of several sizes, so kAggregationFanIn is not tuned to one.
  for (const std::size_t n : {256u, 1024u, 2048u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " seed " << seed);
      const Graph g = geometric(n, seed);
      const SpanningTree bfs = bfs_tree(g, 0);
      const SpanningTree capped = aggregation_tree(g, bfs);
      const auto busiest = [&](const SpanningTree& tree) {
        sim::Network net(g, seed);
        net.set_one_item_per_node(ValueSet(n, 7));
        proto::TreeCountingService svc(net, tree);
        EXPECT_EQ(svc.count_all(), n);
        return net.summary(/*include_headers=*/true).max_node_bits;
      };
      EXPECT_LE(busiest(capped), busiest(bfs));
    }
  }
}

class TreeOverTopologies : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(TreeOverTopologies, BfsTreeValidates) {
  Xoshiro256 rng(9);
  const Graph g = make_topology(GetParam(), 100, rng);
  const SpanningTree t = bfs_tree(g, 0);
  EXPECT_TRUE(validate_tree(g, t));
  // BFS trees give shortest-path depths: height <= node count.
  EXPECT_LT(t.height(), g.node_count());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, TreeOverTopologies,
                         ::testing::Values(TopologyKind::kLine,
                                           TopologyKind::kRing,
                                           TopologyKind::kGrid,
                                           TopologyKind::kComplete,
                                           TopologyKind::kBalancedTree,
                                           TopologyKind::kGeometric),
                         [](const auto& info) {
                           std::string n = topology_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

}  // namespace
}  // namespace sensornet::net
