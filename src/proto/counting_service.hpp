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
// serves the query executor's exact MEDIAN/QUANTILE: a summary wave over the
// WHERE, COUNTP waves that descend only into subtrees straddling the pivot,
// and re-summaries over the bracket the search has certified.
#pragma once

#include <cstdint>
#include <map>
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

/// A subtree's (count, min, max) inside a window: the summary wave's
/// partial.
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

/// A closed value window [lo, hi] (unbounded above when `hi` is absent):
/// the part of the value domain a summary request covers. Readings are
/// non-negative, so the default window holds every item.
struct ValueWindow {
  Value lo = 0;
  std::optional<Value> hi;

  bool contains(Value x) const { return x >= lo && (!hi || x <= *hi); }

  /// Wire format (a summary wave's whole request): lo, a has-hi bit, then
  /// (when set) hi - lo; lo and the span Elias-delta coded. Requires
  /// 0 <= lo <= hi.
  void encode(BitWriter& w) const;
  /// Throws WireFormatError on a truncated image or on a lo or lo + span
  /// past the Value range.
  static ValueWindow decode(BitReader& r);

  bool operator==(const ValueWindow&) const = default;
};

/// The readings inside one window: what a node that learned a WHERE (from
/// a filter broadcast or a group install) aggregates.
class WindowView final : public LocalItemView {
 public:
  explicit WindowView(const ValueWindow& window) : window_(window) {}

  ValueSet items(sim::Network& net, NodeId node) const override;
  const ValueWindow& window() const { return window_; }

 private:
  ValueWindow window_;
};

/// Fact 2.1's primitives over a spanning tree, pruned by subtree summaries
/// that narrow with the search.
///
/// A summary wave sends a ValueWindow down the tree: every node it reaches
/// summarizes its raw items inside the window, reports its subtree's
/// (count, min, max) and each parent keeps its children's. The first call
/// runs one over the WHERE region (so the WHERE needs no broadcast of its
/// own); COUNT(TRUE), MIN and MAX are read off the root's summary. A
/// COUNTP request goes only to children whose summary straddles the
/// predicate: a child whose subtree matches wholly is added from its kept
/// count, one that is empty or matches nothing is skipped. Each node counts
/// its items against the window of the last summary request it received.
///
/// Every answered x < y pivot is recorded with its count (a repeated one is
/// answered from the record, without a wave). A new pivot falls between the
/// nearest answered ones, [a, b) with counts c_a and c_b; when 0 < c_b - c_a
/// <= kResummaryShare of the items the held summaries describe, one
/// re-summary over [a, b) runs first and COUNTP(x < y) is c_a plus the
/// count inside the window. A re-summary descends only into children whose
/// held summary straddles a or b; a child wholly inside keeps its summary
/// (its items all lie in the new window), one wholly outside is dropped,
/// neither with a message. The first summary is the re-summary that
/// descends every edge; a pivot outside the held window (never asked by
/// Fig. 1, whose pivots nest) re-runs it. Counts equal TreeCountingService's
/// over the WHERE-filtered items, and no node pays more bits than under it
/// for Fig. 1's calls.
///
/// The summaries describe the items when they were taken: readings must
/// not change over the service's life (one service per selection).
class PrunedCountingService final : public CountingService {
 public:
  /// Re-summarize once the bracket around a new pivot holds at most this
  /// share of the items the held summaries describe.
  static constexpr double kResummaryShare = 0.25;

  /// `tree` must outlive the service; `where` selects the items counted.
  PrunedCountingService(sim::Network& net, const net::SpanningTree& tree,
                        const ValueWindow& where = {});

  std::uint64_t count(const Predicate& pred) override;
  std::optional<Value> min_value() override;
  std::optional<Value> max_value() override;
  sim::Network& network() override { return net_; }

  /// Waves issued so far, summary waves included.
  std::uint32_t waves() const { return next_session_; }
  /// Child edges of COUNTP waves served from a kept summary, without a
  /// message.
  std::uint64_t edges_pruned() const { return edges_pruned_; }
  /// Summary waves after the first.
  std::uint64_t resummaries() const { return resummaries_; }

 private:
  struct Wave;

  /// The root's summary of the WHERE, after the first summary wave.
  const SubtreeSummary& where_summary();
  /// |{x < key}| over the WHERE, from a (re-summary and) COUNTP wave.
  std::uint64_t count_below(const Predicate& pred, Value key);
  /// One summary wave over WHERE ∩ [a, b) (an absent end is unbounded),
  /// where the answered pivots put c_a items below a and c_b below b.
  void summarize(std::optional<Value> a, std::optional<Value> b,
                 std::uint64_t c_a, std::uint64_t c_b, bool descend_all);

  sim::Network& net_;
  const net::SpanningTree& tree_;
  ValueWindow where_;
  std::optional<SubtreeSummary> where_summary_;
  /// held_[v]: v's subtree summary as v's parent keeps it (the root's own
  /// for the root), over the parent's window.
  std::vector<SubtreeSummary> held_;
  /// window_[v]: the window of the last summary request v received.
  std::vector<ValueWindow> window_;
  /// Answered pivots: key -> |{x < key}| over the WHERE.
  std::map<Value, std::uint64_t> answered_;
  /// The held window is WHERE ∩ [bracket_lo_, bracket_hi_), with
  /// below_ items under it.
  std::optional<Value> bracket_lo_, bracket_hi_;
  std::uint64_t below_ = 0;
  std::uint32_t next_session_ = 0;
  std::uint64_t edges_pruned_ = 0;
  std::uint64_t resummaries_ = 0;
};

}  // namespace sensornet::proto
