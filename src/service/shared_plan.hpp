// Shared-aggregation scheduler: one in-network collection per epoch per
// (region, aggregate-family) group, no matter how many queries subscribe.
//
// TAG/TinyDB lineage: continuous queries over the same region should ride
// one spanning-tree aggregation, not re-run it per client. The scheduler
// keeps one *group* per distinct (region, family) key:
//
//   kStats    — COUNT/SUM/AVG/MIN/MAX share one stats-bundle wave (the
//               bundle also carries the result cache's inner/outer margins)
//   kDistinct — COUNT_DISTINCT queries share one set-union / HLL wave per
//               (region, registers) key
//
// Collections are *incremental*. Sensors that change push a coalesced 1-bit
// dirty mark up the tree (cube::DirtyTracker — shared with the
// multiresolution cube, which rides the same wave), so every interior node
// knows, per child edge, the epoch of the last change below it. A
// collection wave then descends only into subtrees that changed since the
// group's cached partial for that edge — unchanged subtrees are answered
// from the parent-side cache without a single message. A fully quiescent
// network collects for free.
//
// Collections are *multiplexed*. Stats groups are slots of one
// cube::PartialStore, and every stats group that must be collected fresh in
// an epoch rides one convergecast (collect_stats_batch); a single
// collect_stats() is the k = 1 case. The k-bit request mask, the response
// images and the per-group cost split are documented once, in
// cube/partials.hpp.
//
// The scheduler aggregates over net::aggregation_tree() of the tree it is
// handed: that tree itself when no node has more than net::kAggregationFanIn
// children, else a rebuilt one capped at that fan-in (Fact 2.1's O(log N)
// individual bound needs a bounded-degree tree; on a geometric deployment a
// BFS root adopts all its radio neighbours and alone sets the busiest node's
// bits). Its mark wave, its stats waves and every consumer of dirty() run on
// that one tree, tree().
//
// The scheduler assumes the service's deployment discipline: lossless links
// (a lost message makes the collection throw ProtocolError) and one wave on
// the shared simulated medium at a time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/cube/dirty.hpp"
#include "src/cube/partials.hpp"
#include "src/cube/stats.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/query/plan.hpp"
#include "src/service/result_cache.hpp"
#include "src/sim/network.hpp"

namespace sensornet::service {

using GroupId = std::uint32_t;

/// Scheduler telemetry — the sharing/incrementality story in numbers.
struct SharedPlanStats {
  std::uint64_t stats_waves = 0;       // stats-group collections executed
  /// Multiplexed stats convergecasts that sent anything: one per
  /// collect_stats_batch() call, however many groups rode it.
  std::uint64_t stats_convergecasts = 0;
  std::uint64_t distinct_waves = 0;    // distinct collections executed
  std::uint64_t edges_descended = 0;   // (group, edge) pairs requested
  std::uint64_t edges_skipped = 0;     // child partials served from cache
  /// Bits of the delta images stats waves sent on stale edges, and of the
  /// same images had they been coded in full (see cube/partials.hpp).
  std::uint64_t delta_image_bits = 0;
  std::uint64_t delta_image_full_bits = 0;
  std::uint64_t mark_messages = 0;     // dirty-mark messages shipped
  std::uint64_t groups_created = 0;
};

/// One group's share of a multiplexed stats wave (see cube::WaveShare).
using cube::WaveShare;

/// A parent-side cache entry: a stats group's subtree bundle for one edge
/// and the epoch it was taken at (kInvalidEpoch: never collected).
struct EdgePartial {
  StatsBundle bundle;
  std::uint32_t epoch = 0;
};

class SharedPlanScheduler {
 public:
  /// `horizon_epochs` sets the bundle's inner/outer margin to
  /// horizon * max_delta — entries stay bracketing for that many epochs.
  SharedPlanScheduler(sim::Network& net, const net::SpanningTree& tree,
                      Value max_value_bound, Value max_delta,
                      std::uint32_t horizon_epochs);
  ~SharedPlanScheduler();

  SharedPlanScheduler(const SharedPlanScheduler&) = delete;
  SharedPlanScheduler& operator=(const SharedPlanScheduler&) = delete;

  /// Returns the stats group for `region`, creating it on first use. A new
  /// group pays one region-install broadcast (nodes must learn the range
  /// and margin they aggregate over — those bits are metered like any
  /// others).
  GroupId ensure_stats_group(const query::RegionSignature& region);

  /// The distinct-family analogue; `registers` == 0 selects the exact
  /// set-union wave, otherwise a hashed-HLL wave of that many registers.
  GroupId ensure_distinct_group(const query::RegionSignature& region,
                                unsigned registers);

  /// Records one epoch's sensor-update batch: stamps the updated nodes and
  /// ships coalesced dirty marks up the tree (bits metered). Must be called
  /// after the updates are applied to the network and before collections of
  /// the same epoch.
  void note_updates(std::span<const NodeId> updated, std::uint32_t epoch);

  /// Collects every listed stats group (strictly ascending ids) in one
  /// multiplexed convergecast — see the file comment. Groups already
  /// collected this epoch are skipped; if none is left, nothing is sent.
  /// Fills `shares` with each group's share of the wave, aligned with
  /// `groups`, also when the wave throws: a wave that loses a message has
  /// still spent its bits.
  void collect_stats_batch(std::span<const GroupId> groups,
                           std::uint32_t epoch, std::vector<WaveShare>& shares);

  /// One shared stats collection — the k = 1 batch; idempotent within an
  /// epoch (the second call returns the cached root bundle without touching
  /// the network).
  const StatsBundle& collect_stats(GroupId group, std::uint32_t epoch);

  /// A stats group's parent-side partial for edge `child` (named by its
  /// child node).
  EdgePartial edge_partial(GroupId group, NodeId child) const;

  /// One shared distinct collection; idempotent within an epoch. Returns
  /// the estimate (exact count for register-less groups).
  double collect_distinct(GroupId group, std::uint32_t epoch);

  /// The freshness oracle behind every incremental consumer (this
  /// scheduler's stats waves, the cube's cell refreshes).
  const cube::DirtyTracker& dirty() const { return dirty_; }

  /// The tree every wave runs on (see the file comment); the given tree
  /// itself when it is narrow enough.
  const net::SpanningTree& tree() const { return tree_; }

  /// The wave counts, plus the store's edge and delta-image counters and
  /// the tracker's mark messages read when called (a failed wave's
  /// messages included).
  SharedPlanStats stats() const;

 private:
  struct Group;

  /// Creates a group and pays its region-install broadcast unless the
  /// region is the whole domain.
  GroupId add_group(query::AggregateFamily family,
                    const query::RegionSignature& region, unsigned registers);

  sim::Network& net_;
  /// net::aggregation_tree's capped tree, when the given tree is wider than
  /// the cap; tree_ names it then, so it is declared first.
  std::optional<net::SpanningTree> capped_tree_;
  const net::SpanningTree& tree_;
  Value max_value_bound_;
  Value max_delta_;
  std::uint32_t horizon_epochs_;

  /// Per-node dirty tracking, physically resident at nodes (extracted to
  /// cube::DirtyTracker in PR 10 so the cube can share the mark wave).
  cube::DirtyTracker dirty_;
  /// One slot per stats group, in group order.
  cube::PartialStore store_;

  std::vector<std::unique_ptr<Group>> groups_;
  std::map<query::RegionSignature, GroupId> stats_index_;
  std::map<std::pair<query::RegionSignature, unsigned>, GroupId>
      distinct_index_;  // keyed by (region, registers)

  std::uint32_t next_session_ = 0x7000;
  SharedPlanStats stats_;  // the wave counts; stats() adds the rest
};

}  // namespace sensornet::service
