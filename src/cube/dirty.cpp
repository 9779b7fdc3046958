#include "src/cube/dirty.hpp"

#include <utility>

#include "src/common/error.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/message.hpp"

namespace sensornet::cube {

namespace {

constexpr std::uint32_t kMarkSession = 0x7F00;
constexpr std::uint16_t kMarkKind = 1;

}  // namespace

/// One epoch's messages up the tree: marks alone, or a fused wave's marks
/// and cargo. The handler is where a message's arrival is observed, which
/// stands in for its link-layer acknowledgement.
class DirtyTracker::Wave final : public sim::ProtocolHandler {
 public:
  Wave(DirtyTracker& tracker, std::uint32_t epoch, Cargo* cargo)
      : tracker_(tracker), epoch_(epoch), cargo_(cargo) {}

  /// Notes that the node's subtree changed this epoch. A non-root node that
  /// had not noted it yet sends its mark: at once when marks travel alone,
  /// in its level's slot on a fused wave.
  void subtree_changed(sim::Network& net, NodeId node) {
    DirtyTracker& t = tracker_;
    if (node == t.tree_.root) {
      t.stamp_[node] = epoch_;  // the root hears (or sees) it
      return;
    }
    if (t.changed_[node] == epoch_) return;  // coalesced
    t.changed_[node] = epoch_;
    if (cargo_ == nullptr) {
      send(net, node);
    } else {
      t.by_depth_[t.tree_.depth[node]].push_back(node);
    }
  }

  /// Sends the node's one message of the epoch to its parent.
  void send(sim::Network& net, NodeId node) {
    DirtyTracker& t = tracker_;
    t.sent_[node] = epoch_;
    senders_.push_back(node);
    const bool changed = t.changed_[node] == epoch_;
    BitWriter w;
    w.write_bit(changed);
    if (cargo_ != nullptr) cargo_->write(node, changed, w);
    if (changed) ++t.mark_messages_;
    net.send(sim::Message::make(node, t.tree_.parent[node], kMarkSession,
                                kMarkKind, std::move(w)));
  }

  void on_message(sim::Network& net, NodeId receiver,
                  const sim::Message& msg) override {
    SENSORNET_EXPECTS(msg.session == kMarkSession && msg.kind == kMarkKind);
    DirtyTracker& t = tracker_;
    const NodeId child = msg.from;
    t.delivered_[child] = epoch_;
    BitReader r = msg.reader();
    const bool changed = r.read_bit();
    if (changed) {
      t.stamp_[child] = epoch_;
      subtree_changed(net, receiver);
    }
    if (cargo_ != nullptr) cargo_->read(child, changed, r);
    if (r.remaining() != 0) throw WireFormatError("mark: trailing bits");
  }

  /// After the network drained: every sender whose message did not arrive
  /// owes its mark. Returns true when one was lost.
  bool settle() {
    bool lost = false;
    for (const NodeId u : senders_) {
      if (tracker_.delivered_[u] == epoch_) continue;
      tracker_.owed_.push_back(u);
      lost = true;
    }
    senders_.clear();
    return lost;
  }

 private:
  DirtyTracker& tracker_;
  std::uint32_t epoch_;
  Cargo* cargo_;
  std::vector<NodeId> senders_;  // since the last settle()
};

DirtyTracker::DirtyTracker(sim::Network& net, const net::SpanningTree& tree)
    : net_(net),
      tree_(tree),
      stamp_(tree.node_count(), kNever),
      changed_(tree.node_count(), kNever),
      sent_(tree.node_count(), kNever),
      delivered_(tree.node_count(), kNever),
      by_depth_(tree.height() + 1) {
  SENSORNET_EXPECTS(net.node_count() == tree.node_count());
}

void DirtyTracker::defer_updates(std::span<const NodeId> updated,
                                 std::uint32_t epoch) {
  SENSORNET_EXPECTS(epoch != kNever && epoch != kInvalidEpoch);
  SENSORNET_EXPECTS(epoch > last_epoch_);
  last_epoch_ = epoch;
  for (const NodeId u : updated) {
    SENSORNET_EXPECTS(u < tree_.node_count());
    owed_.push_back(u);
  }
}

void DirtyTracker::note_updates(std::span<const NodeId> updated,
                                std::uint32_t epoch, Cargo* cargo) {
  SENSORNET_EXPECTS(epoch != kNever && epoch != kInvalidEpoch);
  SENSORNET_EXPECTS(epoch > last_epoch_);
  last_epoch_ = epoch;
  const std::vector<NodeId> owed = std::move(owed_);
  owed_.clear();
  if (updated.empty() && owed.empty() && cargo == nullptr) return;
  if (!updated.empty() || !owed.empty()) ++generation_;

  Wave wave(*this, epoch, cargo);
  const SimTime t0 = net_.now();
  bool lost = false;
  for (std::vector<NodeId>& level : by_depth_) level.clear();
  // The updated nodes, and those owing a mark they lost, changed.
  for (const std::span<const NodeId> nodes : {updated, std::span(owed)}) {
    for (const NodeId u : nodes) {
      SENSORNET_EXPECTS(u < tree_.node_count());
      wave.subtree_changed(net_, u);
    }
  }
  if (cargo == nullptr) {
    net_.run(wave);
    lost = wave.settle();
  } else {
    // Level-slotted: the deepest level sends first, and a parent that
    // hears a change below joins its own level's slot.
    for (NodeId u = 0; u < tree_.node_count(); ++u) {
      if (u != tree_.root && cargo->owes(u)) {
        by_depth_[tree_.depth[u]].push_back(u);
      }
    }
    for (std::size_t d = by_depth_.size() - 1; d > 0; --d) {
      if (by_depth_[d].empty()) continue;
      for (const NodeId u : by_depth_[d]) {
        if (sent_[u] != epoch) wave.send(net_, u);
      }
      by_depth_[d].clear();
      net_.run(wave);
      lost = wave.settle() || lost;
    }
  }
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("mark.wave", "service", t0, net_.now() - t0, 0, "epoch",
                  epoch, "updated", updated.size());
  }
  if (lost) {
    throw ProtocolError("DirtyTracker: a mark was lost; its sender owes it");
  }
}

}  // namespace sensornet::cube
