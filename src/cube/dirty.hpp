// Coalesced dirty-mark propagation over the spanning tree (extracted from
// the PR 8 shared-plan scheduler so the multiresolution cube can piggyback
// on the same wave).
//
// Sensors that change push a 1-bit dirty mark up the tree once per epoch
// (each node forwards at most one mark per epoch, so a batch costs at most
// one message per distinct root-path edge). Every interior node then knows,
// per child edge, the epoch of the last change below it — the freshness
// oracle that lets any incremental collection (cube::PartialStore's
// collections for scheduler groups and cube cells) skip subtrees that have
// not changed since their cached partial was taken. Edges are named by their
// child node: edge c is parent(c) -> c. Once a mark wave drains, the epoch
// the parent heard on edge c is exactly c's own subtree change epoch, so the
// tracker keeps one epoch per node.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/sim/network.hpp"

namespace sensornet::cube {

class DirtyTracker {
 public:
  /// Epochs are 1-based; 0 is "never changed".
  static constexpr std::uint32_t kNever = 0;
  /// "No cached partial" sentinel used by every consumer of the tracker.
  static constexpr std::uint32_t kInvalidEpoch =
      std::numeric_limits<std::uint32_t>::max();

  DirtyTracker(sim::Network& net, const net::SpanningTree& tree);

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  /// Records one epoch's sensor-update batch: stamps the updated nodes and
  /// ships coalesced dirty marks up the tree (bits metered). Must be called
  /// after the updates are applied to the network and before collections of
  /// the same epoch.
  void note_updates(std::span<const NodeId> updated, std::uint32_t epoch);

  /// Epoch of the last change at or below the node.
  std::uint32_t subtree_changed_epoch(NodeId node) const {
    return subtree_changed_epoch_[node];
  }

  /// True when nothing at or below edge `child` changed after `have` (the
  /// epoch a cached partial was taken at) — the partial is still exact.
  bool edge_fresh(NodeId child, std::uint32_t have) const {
    return have != kInvalidEpoch && subtree_changed_epoch_[child] <= have;
  }

  std::uint64_t mark_messages() const { return mark_messages_; }

  /// The tree the marks run up.
  const net::SpanningTree& tree() const { return tree_; }

  /// Bumped by every note_updates() that changed a node: readers that cache
  /// what edge_fresh() says (the cube's pricing table) key it on this.
  std::uint64_t generation() const { return generation_; }

 private:
  class MarkWave;

  sim::Network& net_;
  const net::SpanningTree& tree_;
  std::vector<std::uint32_t> subtree_changed_epoch_;
  std::uint64_t mark_messages_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace sensornet::cube
