#include "src/proto/tree_broadcast.hpp"

#include <utility>

#include "src/common/error.hpp"

namespace sensornet::proto {

TreeBroadcast::TreeBroadcast(const net::SpanningTree& tree,
                             std::uint32_t session, Apply apply)
    : tree_(tree), session_(session), apply_(std::move(apply)) {}

std::size_t TreeBroadcast::execute(sim::Network& net, BitWriter&& payload) {
  SENSORNET_EXPECTS(net.node_count() == tree_.node_count());
  const auto bits = static_cast<std::uint32_t>(payload.bit_count());
  const sim::Payload slab(payload.bytes().data(), payload.bytes().size());
  apply_(net, tree_.root, BitReader(slab.data(), bits));
  applied_ = 1;
  forward(net, tree_.root, slab, bits);
  net.run(*this);
  return applied_;
}

void TreeBroadcast::on_message(sim::Network& net, NodeId receiver,
                               const sim::Message& msg) {
  if (msg.session != session_ || msg.kind != kBroadcastKind) {
    throw ProtocolError("TreeBroadcast: unexpected message");
  }
  apply_(net, receiver, msg.reader());
  ++applied_;
  forward(net, receiver, msg.payload, msg.payload_bits);
}

void TreeBroadcast::forward(sim::Network& net, NodeId node,
                            const sim::Payload& payload,
                            std::uint32_t payload_bits) {
  for (const NodeId child : tree_.children[node]) {
    net.send(sim::Message::with_payload(node, child, session_, kBroadcastKind,
                                        payload, payload_bits));
  }
}

}  // namespace sensornet::proto
