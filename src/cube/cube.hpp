// Multiresolution aggregation cube.
//
// The cube slices the value domain [0, max_value_bound] into dyadic cells:
// level l has 2^l cells, cell (l, i) covering
//
//   [ floor(i * (B+1) / 2^l),  floor((i+1) * (B+1) / 2^l) - 1 ]
//
// so cell boundaries nest (cell (l, i) is exactly the union of its two
// children (l+1, 2i) and (l+1, 2i+1)) and level 0 is the whole domain. Every
// cell maintains a per-subtree partial aggregate at each tree node: a
// PASS-style StatsBundle (COUNT/SUM/MIN/MAX over the cell, its margin-shrunk
// inner and margin-grown outer companions) and, when configured, an HLL
// sketch for COUNT_DISTINCT. Each cell is one slot of a cube::PartialStore
// (see partials.hpp for the per-edge partials, edges named by their child
// node, and the wire format). A refresh descends only into subtrees that
// changed since the cached partial was taken (the same coalesced dirty marks
// the shared-plan scheduler rides), so a quiescent network refreshes for
// free.
//
// The planner sees the cube through the query::CubeCatalog interface —
// geometry plus a deterministic bit-cost model — and decomposes a range
// query into the fewest covering cells plus *residue* collections for the
// unaligned ends. A residue is a one-shot slot of the same store
// (PartialStore::collect_once): a range no node has installed, collected by
// the same multiplexed wave as the cells. Its edge is pruned when
// PartialStore::provably_empty() finds a containing cell whose cached
// partial shows an empty outer region and the dirty tracker proves nothing
// below changed since — the subtree's items are literally identical, so the
// prune is exact, not approximate.
//
// Serves are batched per epoch: claim() queues each fresh plan (pricing its
// cells at 0 for the plans planned after it), and serve_claimed() brings
// the union of the batch's cells up to date in ONE multiplexed collect(),
// then collects every distinct residue of the batch in ONE collect_once()
// wave (sketch-carrying residues in a second), pruned against the fresh
// cells. serve() is the batch of one.
//
// Answers composed from fresh cells + residues are byte-identical to a
// whole-tree collection: cell regions partition the query range, stats
// combine losslessly, and HLL partials replicate the oracle's exact sketch
// geometry (salt 1, width for node_count+1 ranks), so register-max merges
// reproduce the oracle's registers bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/types.hpp"
#include "src/cube/dirty.hpp"
#include "src/cube/partials.hpp"
#include "src/cube/stats.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/query/aggregate.hpp"
#include "src/query/plan.hpp"
#include "src/sim/network.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::cube {

struct CubeConfig {
  /// Resolution levels; the finest level has 2^(levels-1) cells and must
  /// not out-resolve the domain ((1 << (levels-1)) <= max_value_bound + 1).
  unsigned levels = 4;
  /// HLL registers of the COUNT_DISTINCT partials; 0 = stats only.
  unsigned distinct_registers = 0;
  /// Drift model: a reading moves by at most this much per epoch.
  Value max_delta = 4;
  /// Margin horizon baked into cell bundles (M = horizon * max_delta);
  /// ranged cells bracket up to this staleness, and the planner amortizes
  /// refresh costs over it.
  std::uint32_t horizon_epochs = 8;
};

/// Cumulative cube telemetry, mirrored into obs gauges after every serve.
struct CubeStats {
  std::uint64_t refresh_waves = 0;    // cell collect() waves that ran
  std::uint64_t cells_refreshed = 0;  // cells those waves brought up to date
  std::uint64_t cell_edges_descended = 0;
  std::uint64_t cell_edges_skipped = 0;  // served from cached partials
  std::uint64_t residue_waves = 0;       // multiplexed residue waves
  std::uint64_t residues_run = 0;        // residues those waves collected
  std::uint64_t residue_edges_descended = 0;  // per (residue, edge)
  std::uint64_t residue_edges_pruned = 0;     // subtrees proven empty
  std::uint64_t fresh_serves = 0;
  std::uint64_t stale_serves = 0;  // brackets served (note_stale_serve)
  std::uint64_t geometry_installs = 0;  // lazy one-time broadcast
};

/// One fresh serve's composition: the exact bundle over the plan's region
/// at the serve epoch, plus the merged distinct estimate when asked for.
struct ServeResult {
  StatsBundle bundle;
  double distinct_estimate = 0.0;
  bool has_distinct = false;
  std::size_t cells_used = 0;
  std::size_t residues_run = 0;
  /// This plan's share of its batch's bits on air: the wave shares of every
  /// cell and residue it claimed first, plus the geometry install when it is
  /// the cube's first fresh serve. Over a batch the shares sum to the bits
  /// and messages the batch put on the air.
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;
};

class Cube final : public query::CubeCatalog {
 public:
  /// `dirty` is the shared freshness oracle (typically owned by the
  /// scheduler); it must outlive the cube, and its note_updates() must run
  /// each epoch before serves of that epoch.
  Cube(sim::Network& net, const net::SpanningTree& tree, Value max_value_bound,
       const DirtyTracker& dirty, CubeConfig config);
  ~Cube() override;

  Cube(const Cube&) = delete;
  Cube& operator=(const Cube&) = delete;

  // ---- query::CubeCatalog (the planner's window) -------------------------
  unsigned levels() const override { return config_.levels; }
  Value domain_bound() const override { return max_value_bound_; }
  query::RegionSignature cell_region(query::CubeCellRef ref) const override {
    return store_.region(slot(ref));
  }
  unsigned distinct_registers() const override {
    return config_.distinct_registers;
  }
  std::uint64_t cell_refresh_bits(query::CubeCellRef ref) const override;
  std::uint64_t residue_collect_bits(
      const query::RegionSignature& region) const override;
  std::uint64_t tree_collect_bits(
      const query::RegionSignature& region) const override;
  std::uint32_t refresh_amortization() const override {
    return config_.horizon_epochs;
  }

  // ---- serving -----------------------------------------------------------
  /// Queues a plan for the next serve_claimed() and returns its position
  /// in the batch; every step that is not a cube cell runs as a residue.
  /// Until then cell_refresh_bits() prices the plan's cells at 0: they will
  /// be fresh when the batch is served, so a plan planned after this one
  /// reuses them for free.
  std::size_t claim(const query::CostedPlan& plan);

  /// Serves every claimed plan at `epoch` and clears the claims: one
  /// collect() over the union of their cells (ascending slot order), one
  /// collect_once() over their distinct residues as one-shot slots —
  /// approx-distinct plans' sketch-carrying residues ride a second — each
  /// pruned per edge against the now-fresh cells, then each plan's exact
  /// bundle (plus the HLL estimate for approx-distinct plans). Results come
  /// in claim order. The cube's first serve pays a one-time geometry install
  /// broadcast. Throws ProtocolError when a message is lost; the claims are
  /// cleared anyway.
  std::vector<ServeResult> serve_claimed(std::uint32_t epoch);

  /// The batch of one: claim(plan), then serve_claimed(epoch). Requires no
  /// pending claims.
  ServeResult serve(const query::CostedPlan& plan, std::uint32_t epoch);

  /// Zero-bit composition of per-cell drift brackets at each cell's own
  /// staleness (see BracketComposer; a cell at its refresh epoch is exact).
  /// Returns nullopt when the plan has non-cell steps, a cell was never
  /// refreshed, a ranged cell is staler than the horizon, or the aggregate
  /// is not bracketable from stats bundles.
  std::optional<BracketedAnswer> stale_bracket(const query::CostedPlan& plan,
                                               query::AggregateKind agg,
                                               std::uint32_t now_epoch) const;

  /// Counts one stale_bracket() answer the caller served, in
  /// CubeStats::stale_serves.
  void note_stale_serve();

  const CubeStats& stats() const { return stats_; }
  std::size_t cell_count() const { return store_.slot_count(); }
  /// The cells' partials: slot cell_ordinal(ref) is cell `ref`.
  const PartialStore& cells() const { return store_; }
  /// Row-major cell numbering: level 0 first, 2^l cells per level.
  static std::size_t cell_ordinal(query::CubeCellRef ref) {
    return ((std::size_t{1} << ref.level) - 1) + ref.index;
  }

 private:
  /// Cell `ref`'s store slot: slots are numbered by cell_ordinal.
  SlotId slot(query::CubeCellRef ref) const {
    SENSORNET_EXPECTS(ref.level < config_.levels &&
                      ref.index < (1u << ref.level));
    return static_cast<SlotId>(cell_ordinal(ref));
  }
  /// The lazy geometry install broadcast; returns what it cost.
  WaveShare install_geometry();
  /// One multiplexed residue wave over `ranges` (none: nothing is sent),
  /// pruned against the fresh cells; charges range i's wave share to plan
  /// owners[i] in `out`.
  PartialStore::OnceCollection collect_residues(
      const std::vector<query::RegionSignature>& ranges, bool sketch,
      const std::vector<std::size_t>& owners, std::vector<ServeResult>& out);
  void mirror_stats() const;

  /// Estimated wire bits of one descend-and-respond edge for a region
  /// (request + response, headers included).
  std::uint64_t edge_cost_bits(bool whole_domain, bool carries_region) const;
  std::uint64_t count_stale_edges(SlotId s, NodeId node) const;
  std::uint64_t count_residue_edges(NodeId node,
                                    const query::RegionSignature& region)
      const;

  sim::Network& net_;
  const net::SpanningTree& tree_;
  Value max_value_bound_;
  CubeConfig config_;
  PartialStore store_;  // one slot per cell
  std::vector<query::CostedPlan> claimed_;  // the pending batch
  std::vector<std::uint8_t> cell_claimed_;  // per slot: claimed this batch
  bool geometry_installed_ = false;
  std::uint32_t next_residue_session_;
  CubeStats stats_;
};

}  // namespace sensornet::cube
