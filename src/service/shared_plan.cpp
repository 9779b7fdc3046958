#include "src/service/shared_plan.hpp"

#include <algorithm>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/core/count_distinct.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/item_view.hpp"
#include "src/proto/tree_broadcast.hpp"

namespace sensornet::service {

namespace {

/// Mirrors the scheduler's cumulative stats into registry gauges (last
/// write wins, so the gauge always shows the current cumulative value).
/// Called after every wave — cold path relative to the wave itself.
void mirror_plan_stats(const SharedPlanStats& s) {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge_set(reg.gauge("svc.plan.stats_waves"), s.stats_waves);
  reg.gauge_set(reg.gauge("svc.plan.distinct_waves"), s.distinct_waves);
  reg.gauge_set(reg.gauge("svc.plan.edges_descended"), s.edges_descended);
  reg.gauge_set(reg.gauge("svc.plan.edges_skipped"), s.edges_skipped);
  reg.gauge_set(reg.gauge("svc.plan.mark_messages"), s.mark_messages);
  reg.gauge_set(reg.gauge("svc.plan.groups_created"), s.groups_created);
}

constexpr std::uint32_t kInvalidEpoch = cube::DirtyTracker::kInvalidEpoch;
constexpr std::uint16_t kRequestKind = 1;
constexpr std::uint16_t kResponseKind = 2;

using cube::child_index;
using cube::decode_range_stats;
using cube::encode_range_stats;

}  // namespace

// ---- group state ----------------------------------------------------------

struct SharedPlanScheduler::Group {
  query::AggregateFamily family = query::AggregateFamily::kStats;
  query::RegionSignature region;
  unsigned registers = 0;  // distinct family: 0 = exact union wave
  std::uint32_t session = 0;

  // Incremental stats state: the parent-side cache of each child edge's
  // subtree bundle and the epoch it was collected at (kInvalidEpoch when
  // the edge has never been collected). Indexed [node][child_index].
  std::vector<std::vector<StatsBundle>> child_partial;
  std::vector<std::vector<std::uint32_t>> child_partial_epoch;

  StatsBundle root_bundle;
  double distinct_estimate = 0.0;
  std::uint32_t last_collect_epoch = kInvalidEpoch;
};

// ---- local evaluation -----------------------------------------------------

/// Distinct-family item filter: exposes only readings inside the group's
/// region. The region was installed at every node by the group-creation
/// broadcast, so this is node-local state, not root-side fiat.
class SharedPlanScheduler::RegionView final : public proto::LocalItemView {
 public:
  explicit RegionView(const query::RegionSignature& region) : region_(region) {}

  ValueSet items(sim::Network& net, NodeId node) const override {
    ValueSet out;
    for (const Value v : net.items(node)) {
      if (v >= region_.lo && v <= region_.hi) out.push_back(v);
    }
    return out;
  }

 private:
  query::RegionSignature region_;
};

StatsBundle SharedPlanScheduler::local_bundle(NodeId node,
                                              const Group& g) const {
  StatsBundle b;
  if (g.region.whole_domain) {
    // Membership is static over the whole domain: the margins collapse and
    // one RangeStats describes all three regions.
    for (const Value v : net_.items(node)) b.core.observe(v);
    b.inner = b.core;
    b.outer = b.core;
    return b;
  }
  const Value margin =
      static_cast<Value>(horizon_epochs_) * max_delta_;
  const Value lo = g.region.lo;
  const Value hi = g.region.hi;
  for (const Value v : net_.items(node)) {
    if (v >= lo && v <= hi) b.core.observe(v);
    if (v >= lo + margin && v <= hi - margin) b.inner.observe(v);
    if (v >= lo - margin && v <= hi + margin) b.outer.observe(v);
  }
  return b;
}

// ---- dirty-mark propagation ----------------------------------------------

void SharedPlanScheduler::note_updates(std::span<const NodeId> updated,
                                       std::uint32_t epoch) {
  dirty_.note_updates(updated, epoch);
  stats_.mark_messages = dirty_.mark_messages();
  mirror_plan_stats(stats_);
}

// ---- wire images -----------------------------------------------------------

void encode_stats_image(BitWriter& w, const StatsBundle& b,
                        bool whole_domain) {
  encode_range_stats(w, b.core);
  if (whole_domain) return;
  encode_range_stats(w, b.inner);
  encode_range_stats(w, b.outer);
}

StatsBundle decode_stats_image(BitReader& r, bool whole_domain) {
  StatsBundle b;
  b.core = decode_range_stats(r);
  if (whole_domain) {
    b.inner = b.core;
    b.outer = b.core;
  } else {
    b.inner = decode_range_stats(r);
    b.outer = decode_range_stats(r);
  }
  return b;
}

void decode_stats_request(BitReader& r, std::vector<std::uint8_t>& mask) {
  bool any = false;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = r.read_bit();
    any = any || mask[i];
  }
  if (!any) throw WireFormatError("stats request: empty group mask");
}

void decode_stats_response(BitReader& r,
                           const std::vector<std::uint8_t>& mask,
                           const std::vector<std::uint8_t>& whole_domain,
                           std::vector<StatsBundle>& images) {
  SENSORNET_EXPECTS(mask.size() == whole_domain.size());
  images.clear();
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) images.push_back(decode_stats_image(r, whole_domain[i]));
  }
  if (r.remaining() != 0) {
    throw WireFormatError("stats response: trailing bits");
  }
}

// ---- multiplexed stats collection ------------------------------------------

/// One convergecast for k stats groups (see the file comment for the wire
/// format). Per node it keeps only the mask of the request it received and
/// its count of outstanding responses.
class SharedPlanScheduler::BatchWave final : public sim::ProtocolHandler {
 public:
  BatchWave(SharedPlanScheduler& sched, std::vector<Group*> groups,
            std::uint32_t epoch)
      : sched_(sched),
        groups_(std::move(groups)),  // ascending id == wire order
        k_(groups_.size()),
        epoch_(epoch),
        session_(groups_.front()->session),
        whole_domain_(k_),
        pending_(sched.tree_.node_count(), 0),
        requested_(sched.tree_.node_count() * k_, 0),
        mask_(k_),
        shares_(k_) {
    for (std::size_t i = 0; i < k_; ++i) {
      whole_domain_[i] = groups_[i]->region.whole_domain;
    }
  }

  /// Runs the collection, stores each group's root bundle and returns the
  /// groups' shares of the wave, in batch order.
  std::vector<WaveShare> execute(sim::Network& net) {
    const NodeId root = sched_.tree_.root;
    std::fill_n(requested_.begin() + root * k_, k_, 1);
    activate(net, root);
    net.run(*this);
    SENSORNET_EXPECTS(pending_[root] == 0);
    for (std::size_t i = 0; i < k_; ++i) {
      groups_[i]->root_bundle = subtree_bundle(root, i);
      shares_[i].collected = true;
    }
    return shares_;
  }

  void on_message(sim::Network& net, NodeId receiver,
                  const sim::Message& msg) override {
    SENSORNET_EXPECTS(msg.session == session_);
    BitReader r = msg.reader();
    if (msg.kind == kRequestKind) {
      decode_stats_request(r, mask_);
      std::copy(mask_.begin(), mask_.end(), requested_.begin() + receiver * k_);
      activate(net, receiver);
      return;
    }
    SENSORNET_EXPECTS(msg.kind == kResponseKind);
    const std::size_t ci = child_index(sched_.tree_, receiver, msg.from);
    // Nothing but this response refreshes the edge, so its mask is still
    // the one the request carried.
    stale_groups(receiver, ci);
    decode_stats_response(r, mask_, whole_domain_, images_);
    auto image = images_.begin();
    for (std::size_t i = 0; i < k_; ++i) {
      if (!mask_[i]) continue;
      groups_[i]->child_partial[receiver][ci] = *image++;
      groups_[i]->child_partial_epoch[receiver][ci] = epoch_;
    }
    SENSORNET_EXPECTS(pending_[receiver] > 0);
    if (--pending_[receiver] == 0) respond(net, receiver);
  }

 private:
  /// Sets mask_ to the groups active at `node` whose partial for child edge
  /// `ci` is stale; returns how many there are.
  std::size_t stale_groups(NodeId node, std::size_t ci) {
    std::size_t carried = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      mask_[i] = requested_[node * k_ + i] &&
                 !sched_.dirty_.edge_fresh(
                     node, ci, groups_[i]->child_partial_epoch[node][ci]);
      carried += mask_[i] ? 1 : 0;
    }
    return carried;
  }

  /// Group i's bundle over the node's subtree: its local bundle plus every
  /// child partial (each fresh, or refreshed by this wave).
  StatsBundle subtree_bundle(NodeId node, std::size_t i) const {
    const Group& g = *groups_[i];
    StatsBundle b = sched_.local_bundle(node, g);
    for (std::size_t ci = 0; ci < g.child_partial[node].size(); ++ci) {
      b.combine(g.child_partial[node][ci]);
    }
    return b;
  }

  /// Charges one message's `overhead` bits (header, plus the mask on a
  /// request) to the `carried` groups set in `mask`: equal shares, the
  /// remainder and the message itself to the lowest carried group.
  void charge_overhead(const std::vector<std::uint8_t>& mask,
                       std::size_t carried, std::uint64_t overhead) {
    std::size_t first = k_;
    for (std::size_t i = 0; i < k_; ++i) {
      if (!mask[i]) continue;
      if (first == k_) first = i;
      shares_[i].bits += overhead / carried;
    }
    shares_[first].bits += overhead % carried;
    ++shares_[first].messages;
  }

  /// Serves clean child edges from the parent-side partials and sends one
  /// request per child edge that is stale for at least one active group.
  void activate(sim::Network& net, NodeId node) {
    const auto& kids = sched_.tree_.children[node];
    const auto active_count = static_cast<std::size_t>(
        std::count(requested_.begin() + node * k_,
                   requested_.begin() + (node + 1) * k_, 1));
    obs::TraceRing& ring = obs::TraceRing::global();
    for (std::size_t ci = 0; ci < kids.size(); ++ci) {
      const std::size_t carried = stale_groups(node, ci);
      sched_.stats_.edges_skipped += active_count - carried;
      if (carried == 0) {
        if (ring.enabled()) {
          ring.instant("edge.cached", "service", net.now(), 0, "node", node,
                       "child", kids[ci]);
        }
        continue;
      }
      if (ring.enabled()) {
        ring.instant("edge.descend", "service", net.now(), 0, "node", node,
                     "child", kids[ci]);
      }
      BitWriter w;
      for (const auto bit : mask_) w.write_bit(bit != 0);
      charge_overhead(mask_, carried, w.bit_count() + sim::kHeaderBits);
      net.send(sim::Message::make(node, kids[ci], session_, kRequestKind,
                                  std::move(w)));
      ++pending_[node];
      sched_.stats_.edges_descended += carried;
    }
    if (pending_[node] == 0) respond(net, node);
  }

  void respond(sim::Network& net, NodeId node) {
    if (node == sched_.tree_.root) return;  // root keeps the result
    std::copy_n(requested_.begin() + node * k_, k_, mask_.begin());
    BitWriter w;
    std::size_t carried = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      if (!mask_[i]) continue;
      const std::size_t before = w.bit_count();
      encode_stats_image(w, subtree_bundle(node, i), whole_domain_[i]);
      shares_[i].bits += w.bit_count() - before;
      ++carried;
    }
    charge_overhead(mask_, carried, sim::kHeaderBits);
    net.send(sim::Message::make(node, sched_.tree_.parent[node], session_,
                                kResponseKind, std::move(w)));
  }

  SharedPlanScheduler& sched_;
  std::vector<Group*> groups_;
  std::size_t k_;
  std::uint32_t epoch_;
  std::uint32_t session_;
  std::vector<std::uint8_t> whole_domain_;
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint8_t> requested_;  // [node * k + i]: request names i
  std::vector<std::uint8_t> mask_;       // scratch: one message's mask
  std::vector<StatsBundle> images_;      // scratch: one response's images
  std::vector<WaveShare> shares_;
};

// ---- scheduler ------------------------------------------------------------

SharedPlanScheduler::SharedPlanScheduler(sim::Network& net,
                                         const net::SpanningTree& tree,
                                         Value max_value_bound,
                                         Value max_delta,
                                         std::uint32_t horizon_epochs)
    : net_(net),
      tree_(tree),
      max_value_bound_(max_value_bound),
      max_delta_(max_delta),
      horizon_epochs_(horizon_epochs),
      dirty_(net, tree) {
  SENSORNET_EXPECTS(max_value_bound >= 0 && max_delta >= 0);
}

SharedPlanScheduler::~SharedPlanScheduler() = default;

GroupId SharedPlanScheduler::ensure_stats_group(
    const query::RegionSignature& region) {
  const auto key = std::make_pair(region, 0u);
  if (const auto it = stats_index_.find(key); it != stats_index_.end()) {
    return it->second;
  }
  const auto id = static_cast<GroupId>(groups_.size());
  auto g = std::make_unique<Group>();
  g->family = query::AggregateFamily::kStats;
  g->region = region;
  g->session = next_session_++;
  g->child_partial.resize(tree_.node_count());
  g->child_partial_epoch.resize(tree_.node_count());
  for (NodeId u = 0; u < tree_.node_count(); ++u) {
    g->child_partial[u].resize(tree_.children[u].size());
    g->child_partial_epoch[u].assign(tree_.children[u].size(), kInvalidEpoch);
  }
  if (!region.whole_domain) {
    // Nodes must learn the region and margin they bracket — paid once per
    // group, amortized over every subscriber and epoch.
    proto::TreeBroadcast install(
        tree_, next_session_++,
        [](sim::Network&, NodeId, BitReader) { /* region noted */ });
    BitWriter w;
    encode_uint(w, static_cast<std::uint64_t>(region.lo));
    encode_uint(w, static_cast<std::uint64_t>(region.hi - region.lo));
    encode_uint(w, static_cast<std::uint64_t>(horizon_epochs_) *
                       static_cast<std::uint64_t>(max_delta_));
    install.execute(net_, std::move(w));
  }
  groups_.push_back(std::move(g));
  stats_index_.emplace(key, id);
  ++stats_.groups_created;
  return id;
}

GroupId SharedPlanScheduler::ensure_distinct_group(
    const query::RegionSignature& region, unsigned registers) {
  const auto key = std::make_pair(region, registers);
  if (const auto it = distinct_index_.find(key); it != distinct_index_.end()) {
    return it->second;
  }
  const auto id = static_cast<GroupId>(groups_.size());
  auto g = std::make_unique<Group>();
  g->family = query::AggregateFamily::kDistinct;
  g->region = region;
  g->registers = registers;
  g->session = next_session_++;
  if (!region.whole_domain) {
    proto::TreeBroadcast install(
        tree_, next_session_++,
        [](sim::Network&, NodeId, BitReader) { /* region noted */ });
    BitWriter w;
    encode_uint(w, static_cast<std::uint64_t>(region.lo));
    encode_uint(w, static_cast<std::uint64_t>(region.hi - region.lo));
    install.execute(net_, std::move(w));
  }
  groups_.push_back(std::move(g));
  distinct_index_.emplace(key, id);
  ++stats_.groups_created;
  return id;
}

std::vector<WaveShare> SharedPlanScheduler::collect_stats_batch(
    std::span<const GroupId> groups, std::uint32_t epoch) {
  std::vector<WaveShare> out(groups.size());
  std::vector<Group*> batch;
  std::vector<std::size_t> slot;  // batch entry -> index into `groups`
  for (std::size_t j = 0; j < groups.size(); ++j) {
    SENSORNET_EXPECTS(groups[j] < groups_.size());
    SENSORNET_EXPECTS(j == 0 || groups[j - 1] < groups[j]);  // wire order
    Group& g = *groups_[groups[j]];
    SENSORNET_EXPECTS(g.family == query::AggregateFamily::kStats);
    if (g.last_collect_epoch == epoch) continue;  // idempotent
    batch.push_back(&g);
    slot.push_back(j);
  }
  if (batch.empty()) return out;

  const SimTime t0 = net_.now();
  const std::vector<WaveShare> shares =
      BatchWave(*this, batch, epoch).execute(net_);
  obs::TraceRing& ring = obs::TraceRing::global();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i]->last_collect_epoch = epoch;
    out[slot[i]] = shares[i];
    if (ring.enabled()) {
      ring.complete("collect.stats", "service", t0, net_.now() - t0, 0,
                    "group", groups[slot[i]], "epoch", epoch);
    }
  }
  stats_.stats_waves += batch.size();
  mirror_plan_stats(stats_);
  return out;
}

const StatsBundle& SharedPlanScheduler::collect_stats(GroupId group,
                                                      std::uint32_t epoch) {
  collect_stats_batch(std::span(&group, 1), epoch);
  return groups_[group]->root_bundle;
}

EdgePartial SharedPlanScheduler::edge_partial(GroupId group, NodeId node,
                                              std::size_t ci) const {
  SENSORNET_EXPECTS(group < groups_.size());
  const Group& g = *groups_[group];
  SENSORNET_EXPECTS(g.family == query::AggregateFamily::kStats);
  return EdgePartial{g.child_partial[node][ci],
                     g.child_partial_epoch[node][ci]};
}

double SharedPlanScheduler::collect_distinct(GroupId group,
                                             std::uint32_t epoch) {
  SENSORNET_EXPECTS(group < groups_.size());
  Group& g = *groups_[group];
  SENSORNET_EXPECTS(g.family == query::AggregateFamily::kDistinct);
  if (g.last_collect_epoch == epoch) return g.distinct_estimate;
  const RegionView view(g.region);
  const proto::LocalItemView& item_view =
      g.region.whole_domain ? proto::raw_item_view()
                            : static_cast<const proto::LocalItemView&>(view);
  const SimTime t0 = net_.now();
  if (g.registers == 0) {
    g.distinct_estimate = static_cast<double>(
        core::exact_count_distinct(net_, tree_, item_view).distinct);
  } else {
    g.distinct_estimate =
        core::approx_count_distinct(net_, tree_, g.registers,
                                    proto::EstimatorKind::kHyperLogLog,
                                    item_view)
            .estimate;
  }
  g.last_collect_epoch = epoch;
  ++stats_.distinct_waves;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("collect.distinct", "service", t0, net_.now() - t0, 0,
                  "group", group, "epoch", epoch);
  }
  mirror_plan_stats(stats_);
  return g.distinct_estimate;
}

}  // namespace sensornet::service
