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

class DirtyTracker::MarkWave final : public sim::ProtocolHandler {
 public:
  MarkWave(DirtyTracker& tracker, std::uint32_t epoch,
           std::vector<std::uint32_t>& forwarded_epoch)
      : tracker_(tracker), epoch_(epoch), forwarded_epoch_(forwarded_epoch) {}

  void emit_mark(sim::Network& net, NodeId node) {
    if (node == tracker_.tree_.root) return;
    if (forwarded_epoch_[node] == epoch_) return;  // coalesced
    forwarded_epoch_[node] = epoch_;
    BitWriter w;
    w.write_bit(true);
    net.send(sim::Message::make(node, tracker_.tree_.parent[node],
                                kMarkSession, kMarkKind, std::move(w)));
    ++tracker_.mark_messages_;
  }

  void on_message(sim::Network& net, NodeId receiver,
                  const sim::Message& msg) override {
    SENSORNET_EXPECTS(msg.session == kMarkSession && msg.kind == kMarkKind);
    tracker_.subtree_changed_epoch_[receiver] = epoch_;
    emit_mark(net, receiver);
  }

 private:
  DirtyTracker& tracker_;
  std::uint32_t epoch_;
  std::vector<std::uint32_t>& forwarded_epoch_;
};

DirtyTracker::DirtyTracker(sim::Network& net, const net::SpanningTree& tree)
    : net_(net),
      tree_(tree),
      subtree_changed_epoch_(tree.node_count(), kNever) {
  SENSORNET_EXPECTS(net.node_count() == tree.node_count());
}

void DirtyTracker::note_updates(std::span<const NodeId> updated,
                                std::uint32_t epoch) {
  SENSORNET_EXPECTS(epoch != kNever && epoch != kInvalidEpoch);
  if (updated.empty()) return;
  ++generation_;
  // Per-epoch coalescing state: one vector reused across epochs would also
  // work, but a mark wave touches only the updated nodes' root paths, so a
  // fresh zeroed vector per batch keeps the logic obvious. (Epoch 0 is
  // reserved as "never", so zero-initialization is the coalesced-for-no-one
  // state.)
  std::vector<std::uint32_t> forwarded(tree_.node_count(), kNever);
  MarkWave wave(*this, epoch, forwarded);
  const SimTime t0 = net_.now();
  for (const NodeId u : updated) {
    SENSORNET_EXPECTS(u < tree_.node_count());
    subtree_changed_epoch_[u] = epoch;
    wave.emit_mark(net_, u);
  }
  net_.run(wave);
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("mark.wave", "service", t0, net_.now() - t0, 0, "epoch",
                  epoch, "updated", updated.size());
  }
}

}  // namespace sensornet::cube
