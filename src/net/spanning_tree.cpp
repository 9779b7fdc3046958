#include "src/net/spanning_tree.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <span>
#include <utility>

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

std::size_t widest_fan_in(const SpanningTree& t) {
  std::size_t widest = 0;
  for (const auto& c : t.children) widest = std::max(widest, c.size());
  return widest;
}

/// `base` rebuilt as a leafy tree (see aggregation_tree), each parent
/// taking at most `max_children` children.
SpanningTree leafy_tree(const Graph& graph, const SpanningTree& base,
                        unsigned max_children) {
  SENSORNET_EXPECTS(max_children >= 1);
  const std::size_t n = base.node_count();
  // Every node's graph neighbours one layer up, its candidate parents, as
  // one flat list; and how many candidate children each node has.
  std::vector<std::size_t> up_at(n + 1);
  std::vector<NodeId> ups;
  ups.reserve(graph.edge_count());
  std::vector<std::uint32_t> downs(n, 0);
  std::vector<std::vector<NodeId>> layers(base.height() + 1);
  for (NodeId v = 0; v < n; ++v) {
    up_at[v] = ups.size();
    const std::uint32_t dv = base.depth[v];
    for (const NodeId u : graph.neighbors(v)) {
      if (base.depth[u] + 1 == dv) {
        ups.push_back(u);
        ++downs[u];
      }
    }
    layers[dv].push_back(v);
  }
  up_at[n] = ups.size();
  const auto up = [&](NodeId v) {
    return std::span(ups).subspan(up_at[v], up_at[v + 1] - up_at[v]);
  };

  SpanningTree t = init_tree(n, base.root);
  t.depth = base.depth;
  // Per layer: a candidate parent's uncovered children (0 once taken), a
  // child's parents still open.
  std::vector<std::uint32_t> uncovered(n, 0);
  std::vector<std::uint32_t> options(n, 0);
  // Max-heap on coverage, then the lower id; a key is an upper bound, as
  // coverage only falls, so a popped key that is still exact is the best.
  const auto key = [](std::uint32_t coverage, NodeId u) {
    return (std::uint64_t{coverage} << 32) | (0xffffffffu - u);
  };
  std::vector<std::uint64_t> heap;
  std::vector<NodeId> kids;
  for (std::size_t d = 1; d < layers.size(); ++d) {
    for (const NodeId u : layers[d - 1]) {
      uncovered[u] = downs[u];
      if (uncovered[u] > 0) {
        heap.push_back(key(std::min(uncovered[u], max_children), u));
      }
    }
    for (const NodeId v : layers[d]) {
      options[v] = static_cast<std::uint32_t>(up(v).size());
    }
    std::make_heap(heap.begin(), heap.end());
    std::size_t assigned = 0;
    while (assigned < layers[d].size() && !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      const std::uint64_t top = heap.back();
      heap.pop_back();
      const auto u = static_cast<NodeId>(0xffffffffu - (top & 0xffffffffu));
      const std::uint32_t coverage = std::min(uncovered[u], max_children);
      if (coverage == 0) continue;
      if (key(coverage, u) < top) {
        heap.push_back(key(coverage, u));
        std::push_heap(heap.begin(), heap.end());
        continue;
      }
      // Take u: the children with the fewest other parents first.
      kids.clear();
      for (const NodeId v : graph.neighbors(u)) {
        if (base.depth[v] == d && t.parent[v] == kNoNode) kids.push_back(v);
      }
      std::sort(kids.begin(), kids.end(), [&](NodeId a, NodeId b) {
        return std::pair(options[a], a) < std::pair(options[b], b);
      });
      for (std::size_t i = 0; i < kids.size(); ++i) {
        const NodeId v = kids[i];
        if (i >= coverage) {
          --options[v];  // u is full
          continue;
        }
        t.parent[v] = u;
        ++assigned;
        for (const NodeId w : up(v)) {
          if (uncovered[w] > 0) --uncovered[w];
        }
      }
      uncovered[u] = 0;
    }
    heap.clear();
    // A child left with no open parent: the layer keeps the base's parents.
    if (assigned < layers[d].size()) {
      for (const NodeId v : layers[d]) t.parent[v] = base.parent[v];
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (v != t.root) t.children[t.parent[v]].push_back(v);
  }
  return t;  // children come out sorted: v ascends
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

SpanningTree aggregation_tree(const Graph& graph, const SpanningTree& given) {
  const std::size_t widest = widest_fan_in(given);
  const SpanningTree* base = &given;
  std::optional<SpanningTree> capped;
  // A cap of `widest` itself would narrow nothing.
  for (unsigned cap = kAggregationFanIn; cap < widest && !capped; ++cap) {
    try {
      SpanningTree t = capped_bfs_tree(graph, given.root, cap);
      if (t.height() <= given.height()) capped = std::move(t);
    } catch (const ProtocolError&) {
      // This cap strands a node; try a looser one.
    }
  }
  if (capped) base = &*capped;
  return leafy_tree(
      graph, *base,
      static_cast<unsigned>(std::max<std::size_t>(kAggregationFanIn,
                                                  widest_fan_in(*base))));
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
