#include "src/proto/counting_service.hpp"

#include <algorithm>
#include <limits>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/proto/aggregations.hpp"
#include "src/proto/tree_wave.hpp"

namespace sensornet::proto {

TreeCountingService::TreeCountingService(sim::Network& net,
                                         const net::SpanningTree& tree,
                                         const LocalItemView& view)
    : net_(net), tree_(tree), view_(view) {}

std::uint64_t TreeCountingService::count(const Predicate& pred) {
  TreeWave<CountAgg> wave(tree_, next_session_++, view_);
  return wave.execute(net_, CountAgg::Request{pred});
}

std::optional<Value> TreeCountingService::min_value() {
  TreeWave<MinAgg> wave(tree_, next_session_++, view_);
  return wave.execute(net_, MinAgg::Request{Predicate::always_true()});
}

std::optional<Value> TreeCountingService::max_value() {
  TreeWave<MaxAgg> wave(tree_, next_session_++, view_);
  return wave.execute(net_, MaxAgg::Request{Predicate::always_true()});
}

// ---- SubtreeSummary -----------------------------------------------------------

void SubtreeSummary::observe(Value x) { fold(SubtreeSummary{1, x, x}); }

void SubtreeSummary::fold(const SubtreeSummary& other) {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
}

void SubtreeSummary::encode(BitWriter& w) const {
  encode_uint(w, count);
  if (count == 0) return;
  SENSORNET_EXPECTS(min >= 0 && max >= min);
  encode_uint(w, static_cast<std::uint64_t>(min));
  encode_uint(w, static_cast<std::uint64_t>(max - min));
}

SubtreeSummary SubtreeSummary::decode(BitReader& r) {
  SubtreeSummary s;
  s.count = decode_uint(r);
  if (s.count == 0) return s;
  constexpr auto kMaxValue =
      static_cast<std::uint64_t>(std::numeric_limits<Value>::max());
  const std::uint64_t min = decode_uint(r);
  const std::uint64_t span = decode_uint(r);
  if (min > kMaxValue || span > kMaxValue - min) {
    throw WireFormatError("subtree summary: value out of range");
  }
  s.min = static_cast<Value>(min);
  s.max = static_cast<Value>(min + span);
  return s;
}

// ---- PrunedCountingService ----------------------------------------------------

/// The one EdgeWave policy behind both wave kinds. A TRUE request is the
/// summary wave (COUNTP(TRUE) itself is read off the root's summary); any
/// other predicate is a pruned COUNTP wave.
struct PrunedCountingService::Wave {
  Wave(PrunedCountingService& service, const Predicate& root_request)
      : svc(service),
        request(service.tree_.node_count(), Predicate::always_true()),
        summary(service.tree_.node_count()),
        count(service.tree_.node_count(), 0) {
    request[service.tree_.root] = root_request;
  }

  bool summarizing(NodeId node) const {
    return request[node].op() == Predicate::Op::kTrue;
  }

  void on_request(NodeId node, BitReader& r) {
    request[node] = Predicate::decode(r);
  }

  void fan_out(Fanout& out) {
    const NodeId node = out.node();
    const Predicate& pred = request[node];
    const auto& children = svc.tree_.children[node];
    std::optional<sim::Payload> slab;  // the request, encoded once
    std::uint32_t bits = 0;
    const auto descend = [&](NodeId child) {
      if (!slab) {
        BitWriter w;
        pred.encode(w);
        bits = static_cast<std::uint32_t>(w.bit_count());
        slab.emplace(w.bytes().data(), w.bytes().size());
      }
      out.send(child, *slab, bits);
    };
    const ValueSet items = svc.view_.items(out.net(), node);
    if (summarizing(node)) {
      for (const Value x : items) summary[node].observe(x);
      for (const NodeId child : children) descend(child);
      return;
    }
    count[node] = static_cast<std::uint64_t>(
        std::count_if(items.begin(), items.end(),
                      [&](Value x) { return pred.matches(x); }));
    for (const NodeId child : children) {
      // Our predicates are monotone in x, so a subtree whose extremes
      // agree on the predicate agrees throughout.
      const SubtreeSummary& s = svc.held_[child];
      const bool lo = s.count > 0 && pred.matches(s.min);
      const bool hi = s.count > 0 && pred.matches(s.max);
      if (lo != hi) {
        descend(child);
        continue;
      }
      if (lo) count[node] += s.count;
      ++svc.edges_pruned_;
    }
  }

  void on_response(NodeId node, NodeId child, BitReader& r) {
    if (summarizing(node)) {
      svc.held_[child] = SubtreeSummary::decode(r);
      summary[node].fold(svc.held_[child]);
    } else {
      count[node] += decode_uint(r);
    }
  }

  void respond(NodeId node, BitWriter& w) {
    if (summarizing(node)) {
      summary[node].encode(w);
    } else {
      encode_uint(w, count[node]);
    }
  }

  PrunedCountingService& svc;
  std::vector<Predicate> request;        // per node, as it decoded it
  std::vector<SubtreeSummary> summary;   // summary-wave accumulators
  std::vector<std::uint64_t> count;      // COUNTP accumulators
};

PrunedCountingService::PrunedCountingService(sim::Network& net,
                                             const net::SpanningTree& tree,
                                             const LocalItemView& view)
    : net_(net), tree_(tree), view_(view) {}

const SubtreeSummary& PrunedCountingService::root_summary() {
  if (held_.empty()) {
    held_.resize(tree_.node_count());
    Wave policy(*this, Predicate::always_true());
    EdgeWave<Wave> wave(tree_, next_session_++, policy);
    wave.execute(net_);
    held_[tree_.root] = policy.summary[tree_.root];
  }
  return held_[tree_.root];
}

std::uint64_t PrunedCountingService::count(const Predicate& pred) {
  const SubtreeSummary& root = root_summary();
  if (pred.op() == Predicate::Op::kTrue) return root.count;
  Wave policy(*this, pred);
  EdgeWave<Wave> wave(tree_, next_session_++, policy);
  wave.execute(net_);
  return policy.count[tree_.root];
}

std::optional<Value> PrunedCountingService::min_value() {
  const SubtreeSummary& root = root_summary();
  if (root.count == 0) return std::nullopt;
  return root.min;
}

std::optional<Value> PrunedCountingService::max_value() {
  const SubtreeSummary& root = root_summary();
  if (root.count == 0) return std::nullopt;
  return root.max;
}

}  // namespace sensornet::proto
