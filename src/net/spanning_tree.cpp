#include "src/net/spanning_tree.hpp"

#include <algorithm>
#include <deque>

#include "src/common/error.hpp"

namespace sensornet::net {

std::size_t SpanningTree::height() const {
  std::uint32_t h = 0;
  for (const auto d : depth) h = std::max(h, d);
  return h;
}

std::size_t SpanningTree::max_degree() const {
  std::size_t best = 0;
  for (NodeId u = 0; u < parent.size(); ++u) {
    const std::size_t deg = children[u].size() + (parent[u] == kNoNode ? 0 : 1);
    best = std::max(best, deg);
  }
  return best;
}

namespace {

SpanningTree init_tree(std::size_t n, NodeId root) {
  SpanningTree t;
  t.root = root;
  t.parent.assign(n, kNoNode);
  t.children.assign(n, {});
  t.depth.assign(n, 0);
  return t;
}

void sort_children(SpanningTree& t) {
  for (auto& c : t.children) std::sort(c.begin(), c.end());
}

}  // namespace

SpanningTree bfs_tree(const Graph& graph, NodeId root) {
  SENSORNET_EXPECTS(root < graph.node_count());
  const std::size_t n = graph.node_count();
  SpanningTree t = init_tree(n, root);
  std::vector<bool> seen(n, false);
  std::deque<NodeId> queue{root};
  seen[root] = true;
  std::size_t visited = 1;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const NodeId v : graph.neighbors(u)) {
      if (seen[v]) continue;
      seen[v] = true;
      ++visited;
      t.parent[v] = u;
      t.depth[v] = t.depth[u] + 1;
      t.children[u].push_back(v);
      queue.push_back(v);
    }
  }
  if (visited != n) throw ProtocolError("bfs_tree: graph is disconnected");
  sort_children(t);
  return t;
}

SpanningTree capped_bfs_tree(const Graph& graph, NodeId root,
                             unsigned max_children) {
  SENSORNET_EXPECTS(root < graph.node_count());
  SENSORNET_EXPECTS(max_children >= 1);
  const std::size_t n = graph.node_count();
  SpanningTree t = init_tree(n, root);
  std::vector<bool> seen(n, false);
  std::deque<NodeId> queue{root};
  seen[root] = true;
  std::size_t visited = 1;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const NodeId v : graph.neighbors(u)) {
      if (seen[v]) continue;
      if (t.children[u].size() >= max_children) break;  // quota exhausted
      seen[v] = true;
      ++visited;
      t.parent[v] = u;
      t.depth[v] = t.depth[u] + 1;
      t.children[u].push_back(v);
      queue.push_back(v);
    }
  }
  if (visited != n) {
    throw ProtocolError(
        "capped_bfs_tree: cap too small to span this graph from this root");
  }
  sort_children(t);
  return t;
}

std::optional<SpanningTree> aggregation_tree(const Graph& graph,
                                             const SpanningTree& given) {
  std::size_t widest = 0;
  for (const auto& c : given.children) widest = std::max(widest, c.size());
  if (widest <= kAggregationFanIn) return std::nullopt;
  // A cap of `widest` itself would narrow nothing.
  for (unsigned cap = kAggregationFanIn; cap < widest; ++cap) {
    try {
      SpanningTree t = capped_bfs_tree(graph, given.root, cap);
      if (t.height() <= given.height()) return t;
    } catch (const ProtocolError&) {
      // This cap strands a node; try a looser one.
    }
  }
  return std::nullopt;
}

bool validate_tree(const Graph& graph, const SpanningTree& tree) {
  const std::size_t n = graph.node_count();
  if (tree.parent.size() != n || tree.children.size() != n ||
      tree.depth.size() != n) {
    return false;
  }
  if (tree.root >= n || tree.parent[tree.root] != kNoNode) return false;
  if (tree.depth[tree.root] != 0) return false;
  std::size_t child_links = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (u != tree.root) {
      const NodeId p = tree.parent[u];
      if (p == kNoNode || p >= n) return false;
      if (!graph.has_edge(u, p)) return false;
      if (tree.depth[u] != tree.depth[p] + 1) return false;
      // u must appear in its parent's children list exactly once
      const auto& siblings = tree.children[p];
      if (std::count(siblings.begin(), siblings.end(), u) != 1) return false;
    }
    child_links += tree.children[u].size();
    for (const NodeId c : tree.children[u]) {
      if (c >= n || tree.parent[c] != u) return false;
    }
  }
  // n-1 parent/child links and connectivity via depths => spanning tree.
  return child_links == n - 1;
}

}  // namespace sensornet::net
