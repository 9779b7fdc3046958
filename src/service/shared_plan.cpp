#include "src/service/shared_plan.hpp"

#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/core/count_distinct.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/counting_service.hpp"
#include "src/proto/tree_broadcast.hpp"

namespace sensornet::service {

namespace {

constexpr std::uint32_t kInvalidEpoch = cube::DirtyTracker::kInvalidEpoch;

}  // namespace

// ---- group state ----------------------------------------------------------

struct SharedPlanScheduler::Group {
  query::AggregateFamily family = query::AggregateFamily::kStats;
  query::RegionSignature region;
  unsigned registers = 0;  // distinct family: 0 = exact union wave
  std::uint32_t session = 0;
  cube::SlotId slot = 0;  // stats family: the group's partial-store slot

  // Distinct family: last estimate and the epoch it was collected at.
  double distinct_estimate = 0.0;
  std::uint32_t last_collect_epoch = kInvalidEpoch;
};

// ---- dirty-mark propagation ----------------------------------------------

void SharedPlanScheduler::note_updates(std::span<const NodeId> updated,
                                       std::uint32_t epoch) {
  dirty_.note_updates(updated, epoch);
}

// ---- scheduler ------------------------------------------------------------

SharedPlanScheduler::SharedPlanScheduler(sim::Network& net,
                                         const net::SpanningTree& tree,
                                         Value max_value_bound,
                                         Value max_delta,
                                         std::uint32_t horizon_epochs)
    : net_(net),
      capped_tree_(net::aggregation_tree(net.graph(), tree)),
      tree_(capped_tree_ ? *capped_tree_ : tree),
      max_value_bound_(max_value_bound),
      max_delta_(max_delta),
      horizon_epochs_(horizon_epochs),
      dirty_(net, tree_),
      store_(net, tree_, dirty_,
             static_cast<Value>(horizon_epochs) * max_delta) {
  SENSORNET_EXPECTS(max_value_bound >= 0 && max_delta >= 0);
}

SharedPlanScheduler::~SharedPlanScheduler() = default;

GroupId SharedPlanScheduler::ensure_stats_group(
    const query::RegionSignature& region) {
  if (const auto it = stats_index_.find(region); it != stats_index_.end()) {
    return it->second;
  }
  const GroupId id = add_group(query::AggregateFamily::kStats, region, 0);
  stats_index_.emplace(region, id);
  return id;
}

GroupId SharedPlanScheduler::ensure_distinct_group(
    const query::RegionSignature& region, unsigned registers) {
  const auto key = std::make_pair(region, registers);
  if (const auto it = distinct_index_.find(key); it != distinct_index_.end()) {
    return it->second;
  }
  const GroupId id =
      add_group(query::AggregateFamily::kDistinct, region, registers);
  distinct_index_.emplace(key, id);
  return id;
}

GroupId SharedPlanScheduler::add_group(query::AggregateFamily family,
                                       const query::RegionSignature& region,
                                       unsigned registers) {
  const auto id = static_cast<GroupId>(groups_.size());
  auto g = std::make_unique<Group>();
  g->family = family;
  g->region = region;
  g->registers = registers;
  g->session = next_session_++;
  const bool stats = family == query::AggregateFamily::kStats;
  if (stats) g->slot = store_.add_slot(region, g->session);
  if (!region.whole_domain) {
    // Nodes must learn the region (and a stats group the margin it
    // brackets) — paid once per group, amortized over every subscriber
    // and epoch.
    proto::TreeBroadcast install(
        tree_, next_session_++,
        [](sim::Network&, NodeId, BitReader) { /* region noted */ });
    BitWriter w;
    encode_uint(w, static_cast<std::uint64_t>(region.lo));
    encode_uint(w, static_cast<std::uint64_t>(region.hi - region.lo));
    if (stats) {
      encode_uint(w, static_cast<std::uint64_t>(horizon_epochs_) *
                         static_cast<std::uint64_t>(max_delta_));
    }
    install.execute(net_, std::move(w));
  }
  groups_.push_back(std::move(g));
  return id;
}

void SharedPlanScheduler::collect_stats_batch(std::span<const GroupId> groups,
                                              std::uint32_t epoch,
                                              std::vector<WaveShare>& shares) {
  // Slots are added in group order, so ascending groups are ascending slots.
  std::vector<cube::SlotId> slots;
  slots.reserve(groups.size());
  for (const GroupId id : groups) {
    SENSORNET_EXPECTS(id < groups_.size());
    const Group& g = *groups_[id];
    SENSORNET_EXPECTS(g.family == query::AggregateFamily::kStats);
    slots.push_back(g.slot);
  }
  const SimTime t0 = net_.now();
  store_.collect(slots, epoch, shares);
  std::uint64_t collected = 0;
  std::uint64_t messages = 0;  // the shares split the wave's messages
  for (const WaveShare& s : shares) {
    collected += s.collected ? 1 : 0;
    messages += s.messages;
  }
  if (collected == 0) return;
  obs::TraceRing& ring = obs::TraceRing::global();
  for (std::size_t j = 0; j < groups.size(); ++j) {
    if (shares[j].collected && ring.enabled()) {
      ring.complete("collect.stats", "service", t0, net_.now() - t0, 0,
                    "group", groups[j], "epoch", epoch);
    }
  }
  stats_.stats_waves += collected;
  stats_.stats_convergecasts += messages > 0 ? 1 : 0;
}

SharedPlanStats SharedPlanScheduler::stats() const {
  SharedPlanStats s = stats_;
  s.edges_descended = store_.edges_descended();
  s.edges_skipped = store_.edges_skipped();
  s.delta_image_bits = store_.delta_image_bits();
  s.delta_image_full_bits = store_.delta_image_full_bits();
  s.mark_messages = dirty_.mark_messages();
  s.groups_created = groups_.size();
  return s;
}

const StatsBundle& SharedPlanScheduler::collect_stats(GroupId group,
                                                      std::uint32_t epoch) {
  std::vector<WaveShare> shares;
  collect_stats_batch(std::span(&group, 1), epoch, shares);
  return store_.root(groups_[group]->slot);
}

EdgePartial SharedPlanScheduler::edge_partial(GroupId group,
                                              NodeId child) const {
  SENSORNET_EXPECTS(group < groups_.size());
  const Group& g = *groups_[group];
  SENSORNET_EXPECTS(g.family == query::AggregateFamily::kStats);
  SENSORNET_EXPECTS(child < tree_.node_count() && child != tree_.root);
  if (!store_.has_edges(g.slot)) return EdgePartial{{}, kInvalidEpoch};
  return EdgePartial{store_.edge_bundle(g.slot, child),
                     store_.edge_epoch(g.slot, child)};
}

double SharedPlanScheduler::collect_distinct(GroupId group,
                                             std::uint32_t epoch) {
  SENSORNET_EXPECTS(group < groups_.size());
  Group& g = *groups_[group];
  SENSORNET_EXPECTS(g.family == query::AggregateFamily::kDistinct);
  if (g.last_collect_epoch == epoch) return g.distinct_estimate;
  // Every node learned the region at the group's install.
  const proto::WindowView view({g.region.lo, g.region.hi});
  const SimTime t0 = net_.now();
  if (g.registers == 0) {
    g.distinct_estimate = static_cast<double>(
        core::exact_count_distinct(net_, tree_, view).distinct);
  } else {
    g.distinct_estimate =
        core::approx_count_distinct(net_, tree_, g.registers,
                                    proto::EstimatorKind::kHyperLogLog,
                                    view)
            .estimate;
  }
  g.last_collect_epoch = epoch;
  ++stats_.distinct_waves;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("collect.distinct", "service", t0, net_.now() - t0, 0,
                  "group", group, "epoch", epoch);
  }
  return g.distinct_estimate;
}

}  // namespace sensornet::service
