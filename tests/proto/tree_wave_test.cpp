#include "src/proto/tree_wave.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/common/mathutil.hpp"
#include "src/common/workload.hpp"
#include "src/net/topology.hpp"
#include "src/proto/aggregations.hpp"

namespace sensornet::proto {
namespace {

sim::Network make_loaded_network(const net::Graph& g, std::uint64_t seed) {
  sim::Network net(g, seed);
  Xoshiro256 rng(seed);
  ValueSet xs(g.node_count());
  for (auto& x : xs) x = static_cast<Value>(rng.next_below(1000));
  net.set_one_item_per_node(xs);
  return net;
}

TEST(TreeWave, SingleNodeNetworkNeedsNoMessages) {
  sim::Network net(net::make_line(1), 1);
  net.set_items(0, {42});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 0);
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), 1u);
  EXPECT_EQ(net.summary().total_messages, 0u);
}

TEST(TreeWave, CountsOverLine) {
  sim::Network net = make_loaded_network(net::make_line(10), 3);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), 10u);
}

TEST(TreeWave, CountPredicateFilters) {
  sim::Network net(net::make_line(5), 1);
  net.set_one_item_per_node({1, 5, 10, 15, 20});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::less_than(10)}), 2u);
  TreeWave<CountAgg> wave2(tree, 2);
  EXPECT_EQ(wave2.execute(net, {Predicate::greater_equal(15)}), 2u);
}

TEST(TreeWave, MultisetItemsPerNode) {
  sim::Network net(net::make_line(3), 1);
  net.set_items(0, {1, 2, 3});
  net.set_items(1, {});
  net.set_items(2, {4, 4});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 1);
  TreeWave<CountAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), 5u);
}

TEST(TreeWave, MinMaxWithEmptySubtrees) {
  sim::Network net(net::make_line(4), 1);
  net.set_items(0, {});
  net.set_items(1, {17});
  net.set_items(2, {});
  net.set_items(3, {9});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<MinAgg> min_wave(tree, 1);
  const auto min = min_wave.execute(net, {Predicate::always_true()});
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(*min, 9);
  TreeWave<MaxAgg> max_wave(tree, 2);
  const auto max = max_wave.execute(net, {Predicate::always_true()});
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(*max, 17);
}

TEST(TreeWave, MinMaxAllEmptyReturnsNullopt) {
  sim::Network net(net::make_line(3), 1);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<MinAgg> wave(tree, 1);
  EXPECT_FALSE(wave.execute(net, {Predicate::always_true()}).has_value());
}

TEST(TreeWave, SumMatchesLocalSum) {
  sim::Network net = make_loaded_network(net::make_grid(4, 4), 7);
  std::uint64_t expected = 0;
  for (NodeId u = 0; u < 16; ++u) {
    expected += static_cast<std::uint64_t>(net.items(u)[0]);
  }
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 5);
  TreeWave<SumAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), expected);
}

TEST(TreeWave, CollectReturnsSortedMultiset) {
  sim::Network net(net::make_line(4), 1);
  net.set_one_item_per_node({30, 10, 20, 10});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 2);
  TreeWave<CollectAgg> wave(tree, 1);
  const ValueSet all = wave.execute(net, {Predicate::always_true()});
  EXPECT_EQ(all, (ValueSet{10, 10, 20, 30}));
}

TEST(TreeWave, DistinctSetDeduplicates) {
  sim::Network net(net::make_line(5), 1);
  net.set_one_item_per_node({7, 7, 3, 7, 3});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<DistinctSetAgg> wave(tree, 1);
  const ValueSet d = wave.execute(net, {Predicate::always_true()});
  EXPECT_EQ(d, (ValueSet{3, 7}));
}

TEST(TreeWave, RootsGiveSameAnswer) {
  sim::Network net = make_loaded_network(net::make_grid(5, 5), 11);
  std::uint64_t expected = 0;
  for (NodeId u = 0; u < 25; ++u) {
    expected += static_cast<std::uint64_t>(net.items(u)[0]);
  }
  for (const NodeId root : {0u, 12u, 24u}) {
    const net::SpanningTree tree = net::bfs_tree(net.graph(), root);
    TreeWave<SumAgg> wave(tree, root);
    EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), expected);
  }
}

TEST(TreeWave, PerNodeBitsBoundedOnBoundedDegreeTree) {
  // On a line, a COUNT wave costs every node O(log N) bits: one request,
  // one response per tree edge it touches.
  sim::Network net = make_loaded_network(net::make_line(64), 13);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 1);
  wave.execute(net, {Predicate::always_true()});
  const auto summary = net.summary();
  // request <= ~2 bits, response <= ~2*log2(64)+O(loglog): generous cap 64.
  EXPECT_LE(summary.max_node_bits, 64u);
}

TEST(TreeWave, RoundsEqualTwiceTreeHeight) {
  sim::Network net = make_loaded_network(net::make_line(16), 17);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 1);
  wave.execute(net, {Predicate::always_true()});
  EXPECT_EQ(net.now(), 2 * tree.height());
}

class WaveOverTopologies : public ::testing::TestWithParam<net::TopologyKind> {
};

TEST_P(WaveOverTopologies, CountAgreesWithGroundTruth) {
  Xoshiro256 topo_rng(23);
  const net::Graph g = net::make_topology(GetParam(), 60, topo_rng);
  sim::Network net = make_loaded_network(g, 29);
  std::size_t expected = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    expected += sensornet::rank_below(net.items(u), 500);
  }
  const net::SpanningTree tree = net::bfs_tree(g, 0);
  TreeWave<CountAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::less_than(500)}), expected);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, WaveOverTopologies,
                         ::testing::Values(net::TopologyKind::kLine,
                                           net::TopologyKind::kRing,
                                           net::TopologyKind::kGrid,
                                           net::TopologyKind::kComplete,
                                           net::TopologyKind::kBalancedTree,
                                           net::TopologyKind::kGeometric),
                         [](const auto& info) {
                           std::string n = net::topology_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// ---- EdgeWave: the engine under a policy that prunes -----------------------

/// Counts the nodes outside the pruned subtrees. Edges are named by their
/// child node; `pruned` edges are never descended.
struct PruningCount {
  const net::SpanningTree& tree;
  std::vector<NodeId> pruned;
  std::vector<std::uint64_t> count;
  std::vector<std::uint8_t> heard;  // nodes that received a request

  PruningCount(const net::SpanningTree& t, std::vector<NodeId> prune)
      : tree(t),
        pruned(std::move(prune)),
        count(t.node_count(), 0),
        heard(t.node_count(), 0) {}

  void on_request(NodeId node, BitReader& r) {
    EXPECT_TRUE(r.read_bit());
    heard[node] = 1;
  }

  void fan_out(Fanout& out) {
    count[out.node()] = 1;
    for (const NodeId child : tree.children[out.node()]) {
      if (std::find(pruned.begin(), pruned.end(), child) != pruned.end()) {
        continue;
      }
      BitWriter w;
      w.write_bit(true);
      out.send(child, std::move(w));
    }
  }

  void on_response(NodeId node, NodeId /*child*/, BitReader& r) {
    count[node] += decode_uint(r);
  }

  void respond(NodeId node, BitWriter& w) { encode_uint(w, count[node]); }
};

/// Every node of the subtree rooted at `u`.
std::vector<NodeId> subtree_of(const net::SpanningTree& tree, NodeId u) {
  std::vector<NodeId> out{u};
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (const NodeId c : tree.children[out[i]]) out.push_back(c);
  }
  return out;
}

TEST(EdgeWave, PrunedEdgesCarryNoMessageAndTheWaveFinishes) {
  sim::Network net(net::make_grid(6, 6), 3);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  // One edge at the root, and a depth-3 edge under another root child.
  ASSERT_GE(tree.children[tree.root].size(), 2u);
  const NodeId shallow = tree.children[tree.root].front();
  const std::vector<NodeId> other =
      subtree_of(tree, tree.children[tree.root].back());
  const auto deep_it = std::find_if(
      other.begin(), other.end(), [&](NodeId u) { return tree.depth[u] == 3; });
  ASSERT_NE(deep_it, other.end());
  const NodeId deep = *deep_it;
  PruningCount policy(tree, {shallow, deep});
  EdgeWave<PruningCount> wave(tree, 9, policy);
  wave.execute(net);

  std::vector<std::uint8_t> cut(tree.node_count(), 0);
  for (const NodeId top : {shallow, deep}) {
    for (const NodeId u : subtree_of(tree, top)) cut[u] = 1;
  }
  const auto kept = static_cast<std::uint64_t>(
      std::count(cut.begin(), cut.end(), 0));
  EXPECT_EQ(policy.count[tree.root], kept);
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    if (u == tree.root) continue;
    EXPECT_EQ(policy.heard[u], cut[u] ? 0 : 1) << u;
    if (cut[u]) {
      EXPECT_EQ(net.stats(u).messages_received, 0u) << u;
    }
  }
  // One request and one response per descended edge.
  EXPECT_EQ(net.summary().total_messages, 2 * (kept - 1));

  // Pruning every edge at the root: a silent wave that still finishes.
  sim::Network quiet(net::make_grid(6, 6), 3);
  PruningCount none(tree, tree.children[tree.root]);
  EdgeWave<PruningCount> silent(tree, 10, none);
  silent.execute(quiet);
  EXPECT_EQ(none.count[tree.root], 1u);
  EXPECT_EQ(quiet.summary().total_messages, 0u);
}

/// A one-bit message injected ahead of the wave's own traffic.
void inject(sim::Network& net, NodeId from, NodeId to, std::uint32_t session,
            std::uint16_t kind) {
  BitWriter w;
  w.write_bit(true);
  net.send(sim::Message::make(from, to, session, kind, std::move(w)));
}

TEST(EdgeWave, RejectsWhatAWellFormedWaveNeverDelivers) {
  const net::Graph g = net::make_grid(4, 4);
  const net::SpanningTree tree = net::bfs_tree(g, 0);
  const NodeId child = tree.children[tree.root].front();
  const NodeId grandchild = tree.children[child].front();
  const auto run = [&](NodeId from, NodeId to, std::uint32_t session,
                       std::uint16_t kind) {
    sim::Network net(g, 5);
    if (from != kNoNode) inject(net, from, to, session, kind);
    PruningCount policy(tree, {});
    EdgeWave<PruningCount> wave(tree, 7, policy);
    wave.execute(net);
    return policy.count[tree.root];
  };
  // The wave alone runs clean.
  EXPECT_EQ(run(kNoNode, kNoNode, 0, 0), 16u);
  // A message for another session.
  EXPECT_THROW(run(tree.root, child, 8, Fanout::kRequestKind), ProtocolError);
  // A response from a node that is not a child of its receiver.
  EXPECT_THROW(run(child, grandchild, 7, Fanout::kResponseKind),
               ProtocolError);
  // A second request to a node.
  EXPECT_THROW(run(tree.root, child, 7, Fanout::kRequestKind), ProtocolError);
  // An unknown message kind.
  EXPECT_THROW(run(tree.root, child, 7, 3), ProtocolError);
}

}  // namespace
}  // namespace sensornet::proto
