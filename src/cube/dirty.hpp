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
// child node: edge c is parent(c) -> c, and the tracker keeps, per node, the
// epoch its parent last heard a mark on that edge (the root's own entry is
// the last change anywhere).
//
// A *fused wave* carries cargo beside the marks: the images of the slots
// pushed this epoch (cube::PartialStore::Push). It is a level-slotted
// convergecast: the node at depth d sends in round D - d + 1, where D is the
// depth of the deepest node that sends, so every child has sent before its
// parent does (the mark wave's rounds are counted the same way, from its
// deepest mark). A node sends one message when its subtree changed this
// epoch or the cargo says the edge owes images; the message is the mark bit
// (1: changed this epoch) and then the cargo. With no cargo each mark
// climbs as soon as it is noted, with no slotting.
//
// Loss contract. A link-layer acknowledgement tells each sender whether its
// message arrived; the simulator's delivery of the message (observed by
// the wave's handler) stands in for it, and it costs no bits. A sender whose
// mark or fused message was lost keeps the mark owed and sends it again at
// the next note_updates(), updates or not, where its parent stamps the edge
// with that epoch. note_updates() throws ProtocolError after a wave that
// lost a message (its bits are spent and metered). Until the owed marks
// arrive, an edge's stamp may lag the change below it; the epoch that threw
// answers nothing, and the next one that delivers every mark sees every
// change again. Both ends of an edge must agree on a fused wave's cargo:
// its owners broadcast their push schedules (cube/schedule.hpp), and an
// epoch whose schedule broadcast some node missed runs no wave at all —
// its owner throws ProtocolError, the updated nodes owe their marks to the
// next note_updates() (defer_updates()), and that one runs only after a
// broadcast every node heard. On lossless links the contract costs
// nothing.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/common/bitio.hpp"
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

  /// What a fused wave carries after each message's mark bit.
  class Cargo {
   public:
    /// True when edge `child` must carry images this epoch even if nothing
    /// below it changes in this epoch. Asked once per node, before any
    /// message is sent.
    virtual bool owes(NodeId child) const = 0;
    /// Appends edge `child`'s images to its message; `changed` is the mark
    /// bit the message carries.
    virtual void write(NodeId child, bool changed, BitWriter& w) = 0;
    /// The parent reads them, after the edge's stamp took the mark.
    virtual void read(NodeId child, bool changed, BitReader& r) = 0;

   protected:
    ~Cargo() = default;
  };

  DirtyTracker(sim::Network& net, const net::SpanningTree& tree);

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  /// Records one epoch's sensor-update batch: ships coalesced dirty marks
  /// up the tree (bits metered), with the marks owed from a lossy epoch.
  /// With `cargo`, runs the fused wave instead. Must be called after the
  /// updates are applied to the network and before collections of the same
  /// epoch; epochs strictly increase. Throws ProtocolError when a message
  /// was lost (see the file comment).
  void note_updates(std::span<const NodeId> updated, std::uint32_t epoch,
                    Cargo* cargo = nullptr);

  /// Records an epoch that runs no wave (its announcement was lost, see
  /// service/shared_plan.hpp): the updated nodes owe their marks to the
  /// next note_updates(), as if their marks had been lost.
  void defer_updates(std::span<const NodeId> updated, std::uint32_t epoch);

  /// Epoch of the last change at or below the node that its parent heard
  /// (the root: that it heard or saw).
  std::uint32_t subtree_changed_epoch(NodeId node) const {
    return stamp_[node];
  }

  /// True when nothing at or below edge `child` changed after `have` (the
  /// epoch a cached partial was taken at), as far as the parent heard — the
  /// partial is still exact.
  bool edge_fresh(NodeId child, std::uint32_t have) const {
    return have != kInvalidEpoch && stamp_[child] <= have;
  }

  /// Messages that carried a set mark bit.
  std::uint64_t mark_messages() const { return mark_messages_; }

  /// The tree the marks run up.
  const net::SpanningTree& tree() const { return tree_; }

  /// Bumped by every note_updates() that changed a node: readers that cache
  /// what edge_fresh() says (the cube's pricing table) key it on this.
  std::uint64_t generation() const { return generation_; }

 private:
  class Wave;

  sim::Network& net_;
  const net::SpanningTree& tree_;
  std::vector<std::uint32_t> stamp_;
  // Per-node wave state, reused across epochs (epochs strictly increase, so
  // a stale entry never equals the current epoch): the epoch the node's
  // subtree last changed as the node knows it, it last sent, and its message
  // last arrived.
  std::vector<std::uint32_t> changed_;
  std::vector<std::uint32_t> sent_;
  std::vector<std::uint32_t> delivered_;
  std::vector<NodeId> owed_;  // senders whose last message was lost
  std::vector<std::vector<NodeId>> by_depth_;  // fused wave: senders per level
  std::uint32_t last_epoch_ = kNever;
  std::uint64_t mark_messages_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace sensornet::cube
