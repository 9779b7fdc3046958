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
// Standing groups are *pushed*, not pulled. A stats group with continuous
// subscribers (subscribe()) is due in every epoch in which one of them is;
// the nodes learn each group's schedule (cube::PushSchedules: its
// subscribers' (period, phase) pairs, less those another pair implies)
// from announce(), one broadcast
// that carries every schedule that changed since the last one and rides an
// admission batch's last group install when it has one. In an epoch
// where pushed groups are due, note_updates() runs the fused wave: every
// dirty edge, and every edge whose partial went stale in an earlier epoch,
// carries its mark bit and the due groups' delta images up in one message,
// with no request (cube::PartialStore::Push). The groups' partials are then
// fresh, so that epoch's collect_stats_batch() sends nothing for them. The
// pull remains for one-shots and for groups the nodes do not push.
//
// The scheduler aggregates over net::aggregation_tree() of the tree it is
// handed, a tree it owns: the given tree, capped at net::kAggregationFanIn
// children when it is wider (Fact 2.1's O(log N) individual bound needs a
// bounded-degree tree; on a geometric deployment a BFS root adopts all its
// radio neighbours and alone sets the busiest node's bits), rebuilt as a
// leafy tree of the same depths (every edge whose subtree changed pays a
// message per epoch, and a leafy tree has fewer such edges; see
// net/spanning_tree.hpp). Its mark wave, its stats waves and every consumer
// of dirty() run on that one tree, tree().
//
// The scheduler assumes the service's deployment discipline: lossless links
// (a lost message makes the collection throw ProtocolError) and one wave on
// the shared simulated medium at a time. A lost mark or push fails its
// epoch, and so does a lost schedule announcement, which announce() sends
// again before any push (cube/dirty.hpp's loss contract). Group installs
// count their hearers, as the cube's do (cube/cube.hpp): a lost one is
// charged, throws ProtocolError from ensure_*_group() or announce(), and
// leaves its group uninstalled; the group's next collection or push
// installs it again before its wave, and fails in turn if that copy is
// lost.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/types.hpp"
#include "src/cube/dirty.hpp"
#include "src/cube/partials.hpp"
#include "src/cube/schedule.hpp"
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
  /// Fused-wave messages that carried pushed images, and the images' bits.
  std::uint64_t push_messages = 0;
  std::uint64_t push_image_bits = 0;
};

/// One group's share of a multiplexed stats wave (see cube::WaveShare).
using cube::WaveShare;

/// One group's share of a wave or broadcast the scheduler ran for several
/// groups: a push (its images, and the headers of messages that carried no
/// mark) or an announcement.
struct GroupShare {
  GroupId group = 0;
  WaveShare share;
  std::uint64_t image_bits = 0;  // a push's images alone
};

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
  /// others), or rides the next announce() while installs are held. Throws
  /// ProtocolError when a node missed the install: the group exists, and
  /// its next collection or push installs it again first.
  GroupId ensure_stats_group(const query::RegionSignature& region);

  /// The distinct-family analogue; `registers` == 0 selects the exact
  /// set-union wave, otherwise a hashed-HLL wave of that many registers.
  GroupId ensure_distinct_group(const query::RegionSignature& region,
                                unsigned registers);

  /// Enrols a continuous subscriber of a stats group, due in every epoch e
  /// with e % period == phase (phase < period). The nodes push the group
  /// once they hear its schedule (announce()).
  void subscribe(GroupId group, std::uint32_t period, std::uint32_t phase);
  /// Withdraws one subscribe() of the same arguments.
  void unsubscribe(GroupId group, std::uint32_t period, std::uint32_t phase);

  /// Holds the installs of the groups created from now on until the next
  /// announce(), so that its schedules can ride the last of them (an
  /// admission batch's). The held groups must not be collected before it.
  void hold_installs();

  /// Broadcasts the held installs, one each as ensure_*_group() would, and
  /// in one message the schedule of every stats group whose schedule
  /// changed since the nodes last heard it — riding the last install, or
  /// alone when none is held. Sends nothing when there is neither. Ends
  /// hold_installs(). Sets `shares` to each group's share of the
  /// broadcasts (they sum exactly to their bits and messages), also when
  /// it throws. Throws ProtocolError, after sending every broadcast, when
  /// a node missed the schedules or an install (the broadcast's handler
  /// sees every arrival); the next announce() sends the schedules again,
  /// and note_updates() must not run before one returns, or a node could
  /// push by a schedule the others do not hold. A group whose install was
  /// lost is installed again by its next collection or push.
  void announce(std::vector<GroupShare>& shares);

  /// Records one epoch's sensor-update batch: stamps the updated nodes and
  /// ships coalesced dirty marks up the tree (bits metered), fused with the
  /// pushes of the announced groups due this epoch. Must be called after
  /// the updates are applied to the network and before collections of the
  /// same epoch. Sets `pushed` to each pushed group's share, also when the
  /// wave throws (a lost message: see cube/dirty.hpp); the rest of the
  /// wave's bits are the marks'. A due group whose install was lost is
  /// installed again first, in its share; if that copy is lost too, the
  /// epoch throws before its wave and the updated nodes owe their marks to
  /// the next one.
  void note_updates(std::span<const NodeId> updated, std::uint32_t epoch,
                    std::vector<GroupShare>& pushed);
  /// The same, for callers that charge no group.
  void note_updates(std::span<const NodeId> updated, std::uint32_t epoch);
  /// The same with another store's push as the wave's cargo (the cube's,
  /// see cube::Cube::push); no stats group of this scheduler may be due.
  void note_updates(std::span<const NodeId> updated, std::uint32_t epoch,
                    cube::DirtyTracker::Cargo& cargo);
  /// Records an epoch whose announce() threw: it runs no wave, and the
  /// updated nodes owe their marks to the next note_updates().
  void defer_updates(std::span<const NodeId> updated, std::uint32_t epoch) {
    dirty_.defer_updates(updated, epoch);
  }

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

  /// The tree every wave runs on (see the file comment), built from the
  /// given one.
  const net::SpanningTree& tree() const { return tree_; }

  /// The wave counts, plus the store's edge and delta-image counters and
  /// the tracker's mark messages read when called (a failed wave's
  /// messages included).
  SharedPlanStats stats() const;

 private:
  struct Group;

  /// Creates a group: installed when its region is the whole domain, else
  /// held (hold_installs()) or left for install_now().
  GroupId add_group(query::AggregateFamily family,
                    const query::RegionSignature& region, unsigned registers);
  /// Pays a new group's region-install broadcast unless it is held.
  void install_now(GroupId id);
  /// Installs again each of `groups` whose install was lost, one broadcast
  /// each; `costs` gets each one's cost, aligned with `groups`. Throws
  /// ProtocolError, after sending them all, when a copy was lost.
  void install_lost(std::span<const GroupId> groups,
                    std::vector<WaveShare>& costs);
  /// Broadcasts a group's install, with the changed schedules riding it
  /// when `with_schedules`, appends its shares, and marks the group
  /// installed when every node heard it, as it returns.
  bool install(GroupId id, std::vector<GroupShare>& shares,
               bool with_schedules);
  /// Broadcasts `w`, made of `entries` (a group and the bits it wrote), and
  /// appends its shares: each group its own bits on every copy, and an even
  /// split of the rest (header, count), the remainder and the messages to
  /// the first. Returns true when every node heard it.
  using Entries = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  bool broadcast(BitWriter&& w, const Entries& entries,
                 std::vector<GroupShare>& shares);
  /// A group's install payload: its region, and a stats group's margin.
  void write_install(const Group& g, BitWriter& w) const;

  sim::Network& net_;
  /// net::aggregation_tree of the given tree; dirty_ and store_ hold it.
  const net::SpanningTree tree_;
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

  cube::PushSchedules schedules_;  // of the stats groups, by group id
  std::uint32_t next_session_ = 0x7000;
  bool holding_ = false;  // installs wait for announce()
  SharedPlanStats stats_;  // the wave counts; stats() adds the rest
};

}  // namespace sensornet::service
