// Exact counting primitives as an abstract service.
//
// The paper's algorithms are "completely indifferent to the underlying
// communication mechanism": they only assume protocols for MIN, MAX and
// COUNT(P) exist (Section 2.2). CountingService is that assumption as an
// interface; the median drivers in src/core are written against it, and the
// tree and single-hop implementations plug in underneath.
//
// Two tree implementations: TreeCountingService is Fact 2.1 verbatim (one
// full wave per call) and serves the paper experiments, apx_median2 and the
// baselines, so their ledgers show the paper's costs. PrunedCountingService
// serves the query executor's exact MEDIAN/QUANTILE: one summary wave, then
// COUNTP waves that descend only into subtrees straddling the pivot.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/proto/item_view.hpp"
#include "src/proto/predicate.hpp"
#include "src/sim/network.hpp"

namespace sensornet::proto {

class CountingService {
 public:
  virtual ~CountingService() = default;

  /// Exact number of items satisfying `pred` (one COUNTP invocation).
  virtual std::uint64_t count(const Predicate& pred) = 0;

  /// Smallest / largest item (empty when no node holds an item).
  virtual std::optional<Value> min_value() = 0;
  virtual std::optional<Value> max_value() = 0;

  /// The network the service runs on (for accounting).
  virtual sim::Network& network() = 0;

  /// COUNT(X) == COUNTP(TRUE).
  std::uint64_t count_all() { return count(Predicate::always_true()); }
};

/// Fact 2.1's implementation: one broadcast-convergecast wave per query over
/// a spanning tree.
class TreeCountingService final : public CountingService {
 public:
  /// `tree` and `view` must outlive the service.
  TreeCountingService(sim::Network& net, const net::SpanningTree& tree,
                      const LocalItemView& view = raw_item_view());

  std::uint64_t count(const Predicate& pred) override;
  std::optional<Value> min_value() override;
  std::optional<Value> max_value() override;
  sim::Network& network() override { return net_; }

  /// Waves issued so far (each costs one session id).
  std::uint32_t waves() const { return next_session_; }

 private:
  sim::Network& net_;
  const net::SpanningTree& tree_;
  const LocalItemView& view_;
  std::uint32_t next_session_ = 0;
};

/// A subtree's (count, min, max) over a view: the summary wave's partial.
/// `min` and `max` mean nothing when `count` is 0.
struct SubtreeSummary {
  std::uint64_t count = 0;
  Value min = 0;
  Value max = 0;

  void observe(Value x);
  void fold(const SubtreeSummary& other);

  /// Wire format: count, then (when count > 0) min and max - min, all
  /// Elias-delta coded. Never longer than the COUNT, MIN and MAX partials
  /// of Fact 2.1's three waves together.
  void encode(BitWriter& w) const;
  /// Throws WireFormatError on a truncated image or on a min or min + span
  /// past the Value range.
  static SubtreeSummary decode(BitReader& r);

  bool operator==(const SubtreeSummary&) const = default;
};

/// Fact 2.1's primitives over a spanning tree, pruned by subtree summaries.
/// The first call runs one summary wave: every node reports its subtree's
/// (count, min, max) and each parent keeps its children's. COUNT(TRUE),
/// MIN and MAX are then read off the root's summary, and a COUNTP request
/// goes only to children whose subtree straddles the predicate: a child
/// whose subtree matches wholly is added from its kept count, one that is
/// empty or matches nothing is skipped. Counts equal TreeCountingService's,
/// and no node pays more bits than under it for the same calls.
///
/// The summaries describe the items when the first call ran: the view must
/// not change over the service's life (one service per selection).
class PrunedCountingService final : public CountingService {
 public:
  /// `tree` and `view` must outlive the service.
  PrunedCountingService(sim::Network& net, const net::SpanningTree& tree,
                        const LocalItemView& view = raw_item_view());

  std::uint64_t count(const Predicate& pred) override;
  std::optional<Value> min_value() override;
  std::optional<Value> max_value() override;
  sim::Network& network() override { return net_; }

  /// Waves issued so far, the summary wave included.
  std::uint32_t waves() const { return next_session_; }
  /// Child edges of COUNTP waves served from a kept summary, without a
  /// message.
  std::uint64_t edges_pruned() const { return edges_pruned_; }

 private:
  struct Wave;

  /// The root's summary, after running the summary wave on first use.
  const SubtreeSummary& root_summary();

  sim::Network& net_;
  const net::SpanningTree& tree_;
  const LocalItemView& view_;
  /// held_[v]: v's subtree summary as v's parent keeps it (the root's own
  /// for the root); empty until the summary wave ran.
  std::vector<SubtreeSummary> held_;
  std::uint32_t next_session_ = 0;
  std::uint64_t edges_pruned_ = 0;
};

}  // namespace sensornet::proto
