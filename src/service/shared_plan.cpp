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
  bool installed = false;     // every node heard its install
};

// ---- dirty marks and pushes ------------------------------------------------

void SharedPlanScheduler::note_updates(std::span<const NodeId> updated,
                                       std::uint32_t epoch,
                                       cube::DirtyTracker::Cargo* cargo) {
  dirty_.note_updates(updated, epoch, cargo);
}

std::unique_ptr<cube::PartialStore::Push> SharedPlanScheduler::push(
    std::uint32_t epoch) {
  push_groups_.clear();
  std::vector<cube::SlotId> slots;  // ascending, as groups are
  for (const GroupId id : schedules_.due(epoch)) {
    if (!groups_[id]->installed) continue;  // pulled: see the file comment
    push_groups_.push_back(id);
    slots.push_back(groups_[id]->slot);
  }
  if (slots.empty()) return nullptr;
  push_t0_ = net_.now();
  push_epoch_ = epoch;
  return std::make_unique<cube::PartialStore::Push>(store_, slots, epoch);
}

void SharedPlanScheduler::pushed(cube::PartialStore::Push& push,
                                 bool delivered) {
  for (const std::uint64_t bits : push.image_bits()) {
    stats_.push_image_bits += bits;
  }
  stats_.push_messages += push.messages();
  if (!delivered) return;
  push.finish();
  stats_.stats_waves += push.slots().size();
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    for (const GroupId id : push_groups_) {
      ring.complete("push.stats", "service", push_t0_, net_.now() - push_t0_,
                    0, "group", id, "epoch", push_epoch_);
    }
  }
}

// ---- subscriptions --------------------------------------------------------

cube::SlotId SharedPlanScheduler::subscribe(GroupId group,
                                            std::uint32_t period,
                                            std::uint32_t phase) {
  SENSORNET_EXPECTS(group < groups_.size());
  SENSORNET_EXPECTS(groups_[group]->family == query::AggregateFamily::kStats);
  schedules_.subscribe(group, period, phase);
  return groups_[group]->slot;
}

void SharedPlanScheduler::unsubscribe(GroupId group, std::uint32_t period,
                                      std::uint32_t phase) {
  schedules_.unsubscribe(group, period, phase);
}

void SharedPlanScheduler::hold_installs() { holding_ = true; }

bool SharedPlanScheduler::broadcast(BitWriter&& w, const Entries& entries,
                                    std::vector<GroupShare>& shares) {
  const auto before = net_.summary(/*include_headers=*/true);
  proto::TreeBroadcast announcement(tree_, next_session_++,
                                    [](sim::Network&, NodeId, BitReader) {});
  const std::size_t heard = announcement.execute(net_, std::move(w));
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
}

bool SharedPlanScheduler::install(GroupId id, std::vector<GroupShare>& shares,
                                  bool with_schedules) {
  Group& g = *groups_[id];
  BitWriter w;
  write_install(g, w);
  Entries entries{{id, w.bit_count()}};
  if (with_schedules) schedules_.write_changes(w, entries);
  g.installed = broadcast(std::move(w), entries, shares);
  if (with_schedules) schedules_.heard(g.installed);
  return g.installed;
}

void SharedPlanScheduler::install_lost(std::span<const GroupId> groups,
                                       std::vector<WaveShare>& costs) {
  costs.assign(groups.size(), WaveShare{});
  bool heard = true;
  for (std::size_t j = 0; j < groups.size(); ++j) {
    if (groups_[groups[j]]->installed) continue;
    std::vector<GroupShare> shares;
    heard &= install(groups[j], shares, /*with_schedules=*/false);
    costs[j] = shares.front().share;
  }
  if (!heard) throw ProtocolError("SharedPlanScheduler: an install was lost");
}

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
  // Installs go out one broadcast each, as ensure_*_group() sends them;
  // the schedules ride the last one (a message of its own kind), or go
  // alone when the batch installed nothing. Every broadcast is sent and
  // charged before a lost one throws.
  bool heard = true;
  for (std::size_t j = 0; j < held.size(); ++j) {
    heard &= install(held[j], shares, changed && j + 1 == held.size());
  }
  if (changed && held.empty()) {
    BitWriter w;
    Entries entries;
    schedules_.write_changes(w, entries);
    const bool all = broadcast(std::move(w), entries, shares);
    schedules_.heard(all);
    heard &= all;
  }
  if (!heard) {
    throw ProtocolError("SharedPlanScheduler: an install or a schedule was lost");
  }
}

// ---- scheduler ------------------------------------------------------------

SharedPlanScheduler::SharedPlanScheduler(sim::Network& net,
                                         const net::SpanningTree& tree,
                                         Value max_value_bound,
                                         Value max_delta,
                                         std::uint32_t horizon_epochs)
    : net_(net),
      tree_(net::aggregation_tree(net.graph(), tree)),
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
  install_now(id);
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
  install_now(id);
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
  g->installed = region.whole_domain;
  g->install_held = !g->installed && holding_;
  groups_.push_back(std::move(g));
  return id;
}

void SharedPlanScheduler::install_now(GroupId id) {
  if (groups_[id]->install_held) return;
  std::vector<WaveShare> costs;
  install_lost(std::span(&id, 1), costs);
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
  // A group whose install was lost is installed again first; the copies
  // are its share of the serve.
  shares.clear();
  std::vector<WaveShare> installs;
  const auto add_installs = [&] {
    shares.resize(groups.size());
    for (std::size_t j = 0; j < groups.size(); ++j) {
      shares[j].bits += installs[j].bits;
      shares[j].messages += installs[j].messages;
    }
  };
  try {
    install_lost(groups, installs);
    store_.collect(slots, epoch, shares);
  } catch (const ProtocolError&) {
    add_installs();
    throw;
  }
  add_installs();
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
  std::vector<WaveShare> installs;
  install_lost(std::span(&group, 1), installs);
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
