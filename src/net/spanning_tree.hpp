// Spanning trees for broadcast-convergecast aggregation.
//
// Fact 2.1's O(log N) *individual* bound needs a bounded-degree spanning
// tree ("bounded degree is required to maintain low individual communication
// complexity" — Section 2.2), so alongside the plain BFS tree we provide a
// child-capped construction; the EXP-ABL bench contrasts the two. The query
// service applies the cap: its SharedPlanScheduler aggregates over
// aggregation_tree(), the tree it is handed with no node adopting more than
// kAggregationFanIn children, rebuilt as a leafy tree of the same depths.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/types.hpp"
#include "src/net/graph.hpp"

namespace sensornet::net {

/// Rooted spanning tree: parent pointers, children lists, depths.
struct SpanningTree {
  NodeId root = 0;
  std::vector<NodeId> parent;                 // kNoNode at the root
  std::vector<std::vector<NodeId>> children;  // sorted by id
  std::vector<std::uint32_t> depth;           // root has depth 0

  std::size_t node_count() const { return parent.size(); }

  /// Longest root-to-leaf path (edges).
  std::size_t height() const;

  /// Maximum tree degree: children count plus one for the parent link.
  std::size_t max_degree() const;
};

/// Breadth-first spanning tree from `root`. Throws if the graph is
/// disconnected.
SpanningTree bfs_tree(const Graph& graph, NodeId root);

/// BFS-like spanning tree where no node adopts more than `max_children`
/// children (the root included). Nodes left stranded when all their
/// neighbors' quotas are exhausted cause a ProtocolError — callers pick a
/// cap that the topology supports (e.g. any cap >= 2 on a complete graph).
SpanningTree capped_bfs_tree(const Graph& graph, NodeId root,
                             unsigned max_children);

/// Δ, the fan-in cap of the shared aggregation tree. A node's bits per
/// wave grow with its children, so the widest node sets the individual
/// cost. Measured on servicebench's 2,048-node geometric standing_cube
/// deployment (BFS root: 21 children, height 20; every cap below keeps
/// height 20; 3 s runs, seeds 1-7), the busiest node's bits per epoch / bits
/// per answer against BFS:
///   cap 8: -31..-33% / -0.1..+0.04%     cap 6: -34..-35% / -0.1..+0.4%
///   cap 5: -44..-47% / -0.3..-5.4%      cap 4: -46..-49% / +0.75..+1.5%
///   cap 3: -48..-53% / +2.5..+12.9%
/// Below 5 the deeper subtrees cost more bits per answer than the busiest
/// node saves; above 5 the busiest node keeps most of its load.
inline constexpr unsigned kAggregationFanIn = 5;

/// The tree to aggregate over in place of `given`: a base rebuilt as a
/// leafy tree. The base is `given` when no node has more than
/// kAggregationFanIn children, else the first of capped_bfs_tree(graph,
/// given.root, cap) for cap = kAggregationFanIn, ..., up to below
/// `given`'s widest fan-in, that spans the graph and is no taller than
/// `given`; `given` again when no cap does. In the leafy tree every node
/// keeps its base depth, and each depth layer d takes its parents from its
/// graph neighbours at depth d - 1 by greedy set cover: the parent that
/// covers the most uncovered nodes goes first (lower id on a tie) and
/// takes at most max(kAggregationFanIn, the base's widest fan-in) of them,
/// the ones with the fewest other open parents first; a layer the greedy
/// cannot cover keeps the base's parents.
///
/// Each tree edge whose subtree changed pays a message per epoch (a mark,
/// a push or a pull), so the tree's shape sets most of the standing cost.
/// On servicebench's 48x48 grid, BFS from a corner is a comb (48 leaves,
/// every column a 47-node chain); the leafy tree keeps every depth and
/// relays through 1,175 nodes, not 2,256. Under an independent 1/8 drift
/// the expected dirty edges, the sum over v of 1 - (7/8)^|subtree(v)|,
/// fall from 1,967.6 to 1,239.2, and with every 4th row drifting at 1/2
/// from 1,967.1 to 1,143.7. Every 4th column at 1/2 is the trade's cost:
/// those columns are the comb's teeth (596.0 against 884.3). servicebench,
/// 3 s, seeds 1-5, against the comb or the capped BFS tree: bits per
/// answer -25.5..-26.0% on standing_shared, -15.3..-15.8% on standing_cube
/// and -10.7..-12.3% on oneshot_churn, with equal air rounds. The leafy
/// pass takes 0.85-1.1 ms on the 2,048-node geometric deployment (about
/// three BFS builds).
SpanningTree aggregation_tree(const Graph& graph, const SpanningTree& given);

/// Checks structural soundness: every non-root has a parent that is a graph
/// neighbor, children lists mirror parents, depths increment, all nodes
/// reachable from the root exactly once.
bool validate_tree(const Graph& graph, const SpanningTree& tree);

}  // namespace sensornet::net
