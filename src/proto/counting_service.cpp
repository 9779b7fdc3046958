#include "src/proto/counting_service.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <tuple>

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

// ---- ValueWindow --------------------------------------------------------------

void ValueWindow::encode(BitWriter& w) const {
  SENSORNET_EXPECTS(lo >= 0 && (!hi || *hi >= lo));
  encode_uint(w, static_cast<std::uint64_t>(lo));
  w.write_bit(hi.has_value());
  if (hi) encode_uint(w, static_cast<std::uint64_t>(*hi - lo));
}

ValueWindow ValueWindow::decode(BitReader& r) {
  constexpr auto kMaxValue =
      static_cast<std::uint64_t>(std::numeric_limits<Value>::max());
  ValueWindow window;
  const std::uint64_t lo = decode_uint(r);
  if (lo > kMaxValue) throw WireFormatError("value window: lo out of range");
  window.lo = static_cast<Value>(lo);
  if (r.read_bit()) {
    const std::uint64_t span = decode_uint(r);
    if (span > kMaxValue - lo) {
      throw WireFormatError("value window: hi out of range");
    }
    window.hi = static_cast<Value>(lo + span);
  }
  return window;
}

ValueSet WindowView::items(sim::Network& net, NodeId node) const {
  ValueSet out;
  for (const Value x : net.items(node)) {
    if (window_.contains(x)) out.push_back(x);
  }
  return out;
}

// ---- PrunedCountingService ----------------------------------------------------

namespace {

bool covers(const ValueWindow& window, const SubtreeSummary& s) {
  return window.contains(s.min) && window.contains(s.max);
}

bool misses(const ValueWindow& window, const SubtreeSummary& s) {
  return s.count == 0 || s.max < window.lo ||
         (window.hi && s.min > *window.hi);
}

/// The integer key of x < t/2: for integral x it is x < ceil(t/2).
Value pivot_key(std::int64_t threshold2) {
  return threshold2 / 2 + (threshold2 % 2 == 1 ? 1 : 0);
}

}  // namespace

/// The one EdgeWave policy behind both wave kinds: a summary wave (its
/// requests are windows) or a pruned COUNTP wave (its requests predicates).
struct PrunedCountingService::Wave {
  /// A summary wave over `window`.
  Wave(PrunedCountingService& service, const ValueWindow& window,
       bool descend_all_edges)
      : svc(service),
        descend_all(descend_all_edges),
        summary(service.tree_.node_count()) {
    svc.window_[svc.tree_.root] = window;
  }
  /// A COUNTP wave for `pred`.
  Wave(PrunedCountingService& service, const Predicate& pred)
      : svc(service),
        request(service.tree_.node_count(), pred),
        count(service.tree_.node_count(), 0) {}

  bool summarizing() const { return request.empty(); }

  void on_request(NodeId node, BitReader& r) {
    if (summarizing()) {
      svc.window_[node] = ValueWindow::decode(r);
    } else {
      request[node] = Predicate::decode(r);
    }
  }

  void fan_out(Fanout& out) {
    const NodeId node = out.node();
    const ValueWindow& window = svc.window_[node];
    std::optional<sim::Payload> slab;  // the request, encoded once
    std::uint32_t bits = 0;
    const auto descend = [&](NodeId child) {
      if (!slab) {
        BitWriter w;
        if (summarizing()) {
          window.encode(w);
        } else {
          request[node].encode(w);
        }
        bits = static_cast<std::uint32_t>(w.bit_count());
        slab.emplace(w.bytes().data(), w.bytes().size());
      }
      out.send(child, *slab, bits);
    };
    const auto items = out.net().items(node);
    if (summarizing()) {
      for (const Value x : items) {
        if (window.contains(x)) summary[node].observe(x);
      }
      for (const NodeId child : svc.tree_.children[node]) {
        // Update the kept summaries edge by edge: one that is not re-asked
        // keeps describing the subtree below it, whose own kept summaries
        // stay valid too.
        SubtreeSummary& s = svc.held_[child];
        if (descend_all || (!misses(window, s) && !covers(window, s))) {
          descend(child);
        } else if (misses(window, s)) {
          s = SubtreeSummary{};
        } else {
          summary[node].fold(s);
        }
      }
      return;
    }
    const Predicate& pred = request[node];
    count[node] = static_cast<std::uint64_t>(
        std::count_if(items.begin(), items.end(), [&](Value x) {
          return window.contains(x) && pred.matches(x);
        }));
    for (const NodeId child : svc.tree_.children[node]) {
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
    if (summarizing()) {
      svc.held_[child] = SubtreeSummary::decode(r);
      summary[node].fold(svc.held_[child]);
    } else {
      count[node] += decode_uint(r);
    }
  }

  void respond(NodeId node, BitWriter& w) {
    if (summarizing()) {
      summary[node].encode(w);
    } else {
      encode_uint(w, count[node]);
    }
  }

  PrunedCountingService& svc;
  bool descend_all = false;
  std::vector<Predicate> request;        // COUNTP: per node, as it decoded it
  std::vector<SubtreeSummary> summary;   // summary-wave accumulators
  std::vector<std::uint64_t> count;      // COUNTP accumulators
};

PrunedCountingService::PrunedCountingService(sim::Network& net,
                                             const net::SpanningTree& tree,
                                             const ValueWindow& where)
    : net_(net),
      tree_(tree),
      where_(where),
      held_(tree.node_count()),
      window_(tree.node_count()) {
  SENSORNET_EXPECTS(where_.lo >= 0 && (!where_.hi || *where_.hi >= where_.lo));
}

void PrunedCountingService::summarize(std::optional<Value> a,
                                      std::optional<Value> b,
                                      std::uint64_t c_a, std::uint64_t c_b,
                                      bool descend_all) {
  ValueWindow window = where_;
  if (a) window.lo = std::max(window.lo, *a);
  if (b) window.hi = std::min(window.hi.value_or(*b - 1), *b - 1);
  Wave policy(*this, window, descend_all);
  EdgeWave<Wave> wave(tree_, next_session_++, policy);
  wave.execute(net_);
  held_[tree_.root] = policy.summary[tree_.root];
  if (where_summary_) {
    if (held_[tree_.root].count != c_b - c_a) {
      throw ProtocolError("re-summary disagrees with the answered pivots");
    }
    ++resummaries_;
  }
  bracket_lo_ = a;
  bracket_hi_ = b;
  below_ = c_a;
}

const SubtreeSummary& PrunedCountingService::where_summary() {
  if (!where_summary_) {
    summarize(std::nullopt, std::nullopt, 0, 0, /*descend_all=*/true);
    where_summary_ = held_[tree_.root];
  }
  return *where_summary_;
}

std::uint64_t PrunedCountingService::count_below(const Predicate& pred,
                                                 Value key) {
  const std::uint64_t n = where_summary().count;
  if ((bracket_lo_ && key <= *bracket_lo_) ||
      (bracket_hi_ && key >= *bracket_hi_)) {
    // Outside the held window: take the first summary again.
    summarize(std::nullopt, std::nullopt, 0, n, /*descend_all=*/true);
  }
  // The nearest answered pivots around key (none: the domain's ends).
  std::optional<Value> a, b;
  std::uint64_t c_a = 0, c_b = n;
  const auto above = answered_.upper_bound(key);
  if (above != answered_.end()) std::tie(b, c_b) = *above;
  if (above != answered_.begin()) std::tie(a, c_a) = *std::prev(above);
  const std::uint64_t bracket = c_b - c_a;
  if (bracket > 0 && static_cast<double>(bracket) <=
                         kResummaryShare *
                             static_cast<double>(held_[tree_.root].count)) {
    summarize(a, b, c_a, c_b, /*descend_all=*/false);
  }
  Wave policy(*this, pred);
  EdgeWave<Wave> wave(tree_, next_session_++, policy);
  wave.execute(net_);
  const std::uint64_t c = policy.count[tree_.root];
  return below_ + (pred.op() == Predicate::Op::kLess
                       ? c
                       : held_[tree_.root].count - c);
}

std::uint64_t PrunedCountingService::count(const Predicate& pred) {
  const std::uint64_t n = where_summary().count;
  if (pred.op() == Predicate::Op::kTrue) return n;
  const Value key = pivot_key(pred.threshold2());
  auto it = answered_.find(key);
  if (it == answered_.end()) {
    it = answered_.emplace(key, count_below(pred, key)).first;
  }
  return pred.op() == Predicate::Op::kLess ? it->second : n - it->second;
}

std::optional<Value> PrunedCountingService::min_value() {
  const SubtreeSummary& where = where_summary();
  if (where.count == 0) return std::nullopt;
  return where.min;
}

std::optional<Value> PrunedCountingService::max_value() {
  const SubtreeSummary& where = where_summary();
  if (where.count == 0) return std::nullopt;
  return where.max;
}

}  // namespace sensornet::proto
