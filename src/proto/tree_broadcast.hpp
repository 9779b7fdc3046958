// Root-to-all dissemination over the spanning tree.
//
// Fig. 4 line 3.1 broadcasts the intermediate result mu-hat so every node can
// locally decide whether it stays active and how to rescale (lines 3.2-3.3).
// The payload is applied through a callback *at each node as the message
// arrives* — session state is only ever installed by bits that traveled.
#pragma once

#include <cstddef>
#include <functional>

#include "src/net/spanning_tree.hpp"
#include "src/sim/network.hpp"

namespace sensornet::proto {

class TreeBroadcast final : public sim::ProtocolHandler {
 public:
  /// Called once per node with a reader over the broadcast payload.
  using Apply =
      std::function<void(sim::Network&, NodeId, BitReader)>;

  TreeBroadcast(const net::SpanningTree& tree, std::uint32_t session,
                Apply apply);

  /// Floods the payload down the tree (applying it at the root without any
  /// wire cost) and runs the network to quiescence. Returns how many nodes
  /// applied it, the root included: under loss, fewer than the tree's.
  std::size_t execute(sim::Network& net, BitWriter&& payload);

  void on_message(sim::Network& net, NodeId receiver,
                  const sim::Message& msg) override;

 private:
  static constexpr std::uint16_t kBroadcastKind = 3;

  /// Forwards one shared payload slab to every child — the fan-out copies
  /// only bump a refcount.
  void forward(sim::Network& net, NodeId node, const sim::Payload& payload,
               std::uint32_t payload_bits);

  const net::SpanningTree& tree_;
  std::uint32_t session_;
  Apply apply_;
  std::size_t applied_ = 0;  // nodes that applied the payload
};

}  // namespace sensornet::proto
