// Broadcast-convergecast waves over a spanning tree.
//
// One wave = the root floods a request down the tree; every node computes a
// local partial aggregate from its (view of its) items; leaves answer
// immediately and internal nodes fold children's partials into their own
// before answering — the TAG-style in-network aggregation that Fact 2.1
// builds on.
//
// EdgeWave<Policy> is the one state machine behind every such wave in the
// library: it routes requests and responses, counts each node's outstanding
// children, detects the end of the wave and rejects anything a well-formed
// wave never delivers. The policy owns the payloads and decides, per child
// edge, whether to send a request or to serve the edge without a message
// (from a cached partial, or by pruning a subtree known to contribute
// nothing). There are three policies: TreeWave<Spec>'s Descend, the
// always-descend policy over an AggregationSpec, which carries the
// library's one-shot protocols; PrunedCountingService's Wave, whose COUNTP
// and re-summary waves descend only into subtrees that straddle the pivot
// or the window's ends; and
// cube::PartialStore's Collect, the multiplexed stats collection behind
// stats groups, cube cells and the cube's pruned residues.
//
// Individual communication per wave: each node sends/receives one request
// per tree edge it touches and one response, so a node of tree-degree d pays
// d * (|request| + |partial|) bits — with bounded-degree trees and O(log N)
// partials this is Fact 2.1's O(log N) per node.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/proto/item_view.hpp"
#include "src/sim/network.hpp"

namespace sensornet::proto {

/// A node's child edges while it fans out. EdgeWave hands one to its policy,
/// which sends a request on every edge it descends; the wave then waits for
/// exactly that many responses.
class Fanout {
 public:
  Fanout(sim::Network& net, NodeId node, std::uint32_t session,
         std::uint32_t& pending)
      : net_(net), node_(node), session_(session), pending_(pending) {}

  sim::Network& net() const { return net_; }
  NodeId node() const { return node_; }

  /// Sends `w` as the request on the edge to `child`.
  void send(NodeId child, BitWriter&& w) {
    net_.send(sim::Message::make(node_, child, session_, kRequestKind,
                                 std::move(w)));
    ++pending_;
  }

  /// Sends a shared payload slab: one encode serves every child (identical
  /// wire bits, no per-child re-encode).
  void send(NodeId child, const sim::Payload& slab, std::uint32_t bits) {
    net_.send(sim::Message::with_payload(node_, child, session_, kRequestKind,
                                         slab, bits));
    ++pending_;
  }

  static constexpr std::uint16_t kRequestKind = 1;
  static constexpr std::uint16_t kResponseKind = 2;

 private:
  sim::Network& net_;
  NodeId node_;
  std::uint32_t session_;
  std::uint32_t& pending_;
};

/// What a policy must provide to ride EdgeWave. The root starts without a
/// request, so the policy seeds the root's state before execute().
template <typename P>
concept EdgePolicy = requires(P& p, NodeId node, BitReader& r, BitWriter& w,
                              Fanout& out) {
  { p.on_request(node, r) };         // a non-root node learned its request
  { p.fan_out(out) };                // descend, serve or prune each edge
  { p.on_response(node, node, r) };  // (node, child): a child answered
  { p.respond(node, w) };            // a non-root node's response payload
};

template <EdgePolicy P>
class EdgeWave final : public sim::ProtocolHandler {
 public:
  /// The tree and policy must outlive the wave.
  EdgeWave(const net::SpanningTree& tree, std::uint32_t session, P& policy)
      : tree_(tree), policy_(policy), session_(session) {}

  /// Runs one complete wave. Throws ProtocolError when the network drains
  /// before the root has heard from every child it asked (a lost message).
  void execute(sim::Network& net) {
    SENSORNET_EXPECTS(net.node_count() == tree_.node_count());
    phase_.assign(tree_.node_count(), kIdle);
    pending_.assign(tree_.node_count(), 0);
    start(net, tree_.root);
    net.run(*this);
    if (phase_[tree_.root] != kAnswered) {
      throw ProtocolError("EdgeWave: wave drained without a root result");
    }
  }

  void on_message(sim::Network& net, NodeId receiver,
                  const sim::Message& msg) override {
    if (msg.session != session_) {
      throw ProtocolError("EdgeWave: message for a foreign session");
    }
    BitReader r = msg.reader();
    if (msg.kind == Fanout::kRequestKind) {
      if (phase_[receiver] != kIdle || tree_.parent[receiver] != msg.from) {
        throw ProtocolError("EdgeWave: second or misrouted request");
      }
      policy_.on_request(receiver, r);
      start(net, receiver);
    } else if (msg.kind == Fanout::kResponseKind) {
      const NodeId child = msg.from;
      if (child >= tree_.node_count() || tree_.parent[child] != receiver ||
          phase_[child] != kAnswered || pending_[receiver] == 0) {
        throw ProtocolError("EdgeWave: unexpected response");
      }
      phase_[child] = kConsumed;
      policy_.on_response(receiver, child, r);
      if (--pending_[receiver] == 0) finish(net, receiver);
    } else {
      throw ProtocolError("EdgeWave: unknown message kind");
    }
  }

 private:
  enum Phase : std::uint8_t { kIdle, kActive, kAnswered, kConsumed };

  void start(sim::Network& net, NodeId node) {
    phase_[node] = kActive;
    Fanout out(net, node, session_, pending_[node]);
    policy_.fan_out(out);
    if (pending_[node] == 0) finish(net, node);
  }

  /// Every descended child answered: report to the parent (the root keeps
  /// its result in the policy).
  void finish(sim::Network& net, NodeId node) {
    phase_[node] = kAnswered;
    if (node == tree_.root) return;
    BitWriter w;
    policy_.respond(node, w);
    net.send(sim::Message::make(node, tree_.parent[node], session_,
                                Fanout::kResponseKind, std::move(w)));
  }

  const net::SpanningTree& tree_;
  P& policy_;
  std::uint32_t session_;
  std::vector<Phase> phase_;
  std::vector<std::uint32_t> pending_;
};

/// What a type must provide to ride TreeWave.
template <typename A>
concept AggregationSpec = requires(BitWriter& w, BitReader& r,
                                   const typename A::Request& req,
                                   typename A::Partial& acc,
                                   const typename A::Partial& in,
                                   sim::Network& net, NodeId id,
                                   const LocalItemView& view) {
  { A::encode_request(w, req) };
  { A::decode_request(r) } -> std::same_as<typename A::Request>;
  { A::encode_partial(w, in, req) };
  { A::decode_partial(r, req) } -> std::same_as<typename A::Partial>;
  { A::local(net, id, req, view) } -> std::same_as<typename A::Partial>;
  { A::combine(acc, in, req) };
};

/// The always-descend wave: every node forwards the request to every child
/// and folds their partials into its own.
template <AggregationSpec A>
class TreeWave {
 public:
  using Request = typename A::Request;
  using Partial = typename A::Partial;

  /// The tree and view must outlive the wave.
  TreeWave(const net::SpanningTree& tree, std::uint32_t session,
           const LocalItemView& view = raw_item_view())
      : policy_{tree, view, {}}, wave_(tree, session, policy_) {}

  /// Runs one complete wave; returns the root's aggregate.
  Partial execute(sim::Network& net, const Request& request) {
    // clear+resize instead of assign: Partial may be move-only (e.g. the
    // LogLog sketch), and assign requires a copyable prototype.
    policy_.state.clear();
    policy_.state.resize(policy_.tree.node_count());
    policy_.state[policy_.tree.root].request = request;
    wave_.execute(net);
    return std::move(*policy_.state[policy_.tree.root].acc);
  }

 private:
  struct NodeState {
    std::optional<Request> request;
    std::optional<Partial> acc;
  };

  struct Descend {
    const net::SpanningTree& tree;
    const LocalItemView& view;
    std::vector<NodeState> state;

    void on_request(NodeId node, BitReader& r) {
      state[node].request = A::decode_request(r);
    }

    /// Computes the local contribution and forwards the request, encoded
    /// once, to every child.
    void fan_out(Fanout& out) {
      NodeState& st = state[out.node()];
      st.acc = A::local(out.net(), out.node(), *st.request, view);
      const auto& children = tree.children[out.node()];
      if (children.empty()) return;
      BitWriter w;
      A::encode_request(w, *st.request);
      const auto bits = static_cast<std::uint32_t>(w.bit_count());
      const sim::Payload slab(w.bytes().data(), w.bytes().size());
      for (const NodeId child : children) out.send(child, slab, bits);
    }

    void on_response(NodeId node, NodeId /*child*/, BitReader& r) {
      NodeState& st = state[node];
      Partial in = A::decode_partial(r, *st.request);
      A::combine(*st.acc, in, *st.request);
    }

    void respond(NodeId node, BitWriter& w) {
      A::encode_partial(w, *state[node].acc, *state[node].request);
    }
  };

  Descend policy_;
  EdgeWave<Descend> wave_;
};

}  // namespace sensornet::proto
