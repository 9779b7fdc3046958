#include "src/service/shared_plan.hpp"

#include <algorithm>
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

  bool install_held = false;  // its install waits for announce()
};

// ---- dirty marks and pushes ------------------------------------------------

void SharedPlanScheduler::note_updates(std::span<const NodeId> updated,
                                       std::uint32_t epoch) {
  std::vector<GroupShare> pushed;
  note_updates(updated, epoch, pushed);
}

void SharedPlanScheduler::note_updates(std::span<const NodeId> updated,
                                       std::uint32_t epoch,
                                       cube::DirtyTracker::Cargo& cargo) {
  SENSORNET_EXPECTS(schedules_.due(epoch).empty());
  dirty_.note_updates(updated, epoch, &cargo);
}

void SharedPlanScheduler::note_updates(std::span<const NodeId> updated,
                                       std::uint32_t epoch,
                                       std::vector<GroupShare>& pushed) {
  pushed.clear();
  std::vector<cube::SlotId> slots;  // ascending, as groups are
  for (const GroupId id : schedules_.due(epoch)) {
    pushed.emplace_back().group = id;
    slots.push_back(groups_[id]->slot);
  }
  if (slots.empty()) {
    dirty_.note_updates(updated, epoch);
    return;
  }
  const SimTime t0 = net_.now();
  cube::PartialStore::Push push(store_, slots, epoch);
  // Charged as sent: a wave that loses a message has still spent its bits.
  const auto take_shares = [&] {
    for (std::size_t j = 0; j < pushed.size(); ++j) {
      pushed[j].share = push.shares()[j];
      pushed[j].image_bits = push.image_bits()[j];
      stats_.push_image_bits += push.image_bits()[j];
    }
    stats_.push_messages += push.messages();
  };
  try {
    dirty_.note_updates(updated, epoch, &push);
  } catch (...) {
    take_shares();
    throw;
  }
  push.finish();
  take_shares();
  stats_.stats_waves += pushed.size();
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    for (const GroupShare& g : pushed) {
      ring.complete("push.stats", "service", t0, net_.now() - t0, 0, "group",
                    g.group, "epoch", epoch);
    }
  }
}

// ---- subscriptions --------------------------------------------------------

void SharedPlanScheduler::subscribe(GroupId group, std::uint32_t period,
                                    std::uint32_t phase) {
  SENSORNET_EXPECTS(group < groups_.size());
  SENSORNET_EXPECTS(groups_[group]->family == query::AggregateFamily::kStats);
  schedules_.subscribe(group, period, phase);
}

void SharedPlanScheduler::unsubscribe(GroupId group, std::uint32_t period,
                                      std::uint32_t phase) {
  schedules_.unsubscribe(group, period, phase);
}

void SharedPlanScheduler::hold_installs() { holding_ = true; }

void SharedPlanScheduler::announce(std::vector<GroupShare>& shares) {
  holding_ = false;
  shares.clear();
  std::vector<GroupId> held;
  for (GroupId id = 0; id < groups_.size(); ++id) {
    Group& g = *groups_[id];
    if (g.install_held) held.push_back(id);
    g.install_held = false;
  }
  const bool changed = schedules_.changed();
  // Broadcasts `w`, made of `entries` (a group and the bits it wrote), and
  // charges it: each group its own bits on every copy, and an even split of
  // the rest (header, count), the remainder and the messages to the first.
  // Returns true when every node heard it.
  using Entries = std::vector<std::pair<GroupId, std::uint64_t>>;
  const auto broadcast = [&](BitWriter&& w, const Entries& entries) {
    const auto before = net_.summary(/*include_headers=*/true);
    std::size_t heard = 0;
    proto::TreeBroadcast announcement(
        tree_, next_session_++,
        [&heard](sim::Network&, NodeId, BitReader) { ++heard; });
    announcement.execute(net_, std::move(w));
    const auto after = net_.summary(/*include_headers=*/true);
    const std::uint64_t copies = after.total_messages - before.total_messages;
    std::uint64_t rest = after.total_bits - before.total_bits;
    for (const auto& [id, bits] : entries) rest -= bits * copies;
    for (std::size_t j = 0; j < entries.size(); ++j) {
      GroupShare& g = shares.emplace_back();
      g.group = entries[j].first;
      g.share.bits = entries[j].second * copies + rest / entries.size() +
                     (j == 0 ? rest % entries.size() : 0);
      g.share.messages = j == 0 ? copies : 0;
    }
    return heard == tree_.node_count();
  };
  // Installs go out one broadcast each, as ensure_*_group() sends them;
  // the schedules ride the last one (a message of its own kind), or go
  // alone when the batch installed nothing.
  const bool ride = !held.empty() && changed;
  for (std::size_t j = 0; j + (ride ? 1 : 0) < held.size(); ++j) {
    BitWriter w;
    write_install(*groups_[held[j]], w);
    const std::uint64_t bits = w.bit_count();
    broadcast(std::move(w), {{held[j], bits}});
  }
  if (!changed) return;
  BitWriter w;
  Entries entries;
  if (ride) {
    write_install(*groups_[held.back()], w);
    entries.emplace_back(held.back(), w.bit_count());
  }
  schedules_.write_changes(w, entries);
  const bool heard = broadcast(std::move(w), entries);
  schedules_.heard(heard);
  if (!heard) throw ProtocolError("SharedPlanScheduler: a schedule was lost");
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
  if (family == query::AggregateFamily::kStats) {
    g->slot = store_.add_slot(region, g->session);
  }
  // Nodes must learn the region (and a stats group the margin it brackets)
  // — paid once per group, amortized over every subscriber and epoch.
  if (!region.whole_domain && holding_) {
    g->install_held = true;
  } else if (!region.whole_domain) {
    proto::TreeBroadcast install(
        tree_, next_session_++,
        [](sim::Network&, NodeId, BitReader) { /* region noted */ });
    BitWriter w;
    write_install(*g, w);
    install.execute(net_, std::move(w));
  }
  groups_.push_back(std::move(g));
  return id;
}

void SharedPlanScheduler::write_install(const Group& g, BitWriter& w) const {
  encode_uint(w, static_cast<std::uint64_t>(g.region.lo));
  encode_uint(w, static_cast<std::uint64_t>(g.region.hi - g.region.lo));
  if (g.family == query::AggregateFamily::kStats) {
    encode_uint(w, static_cast<std::uint64_t>(horizon_epochs_) *
                       static_cast<std::uint64_t>(max_delta_));
  }
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
