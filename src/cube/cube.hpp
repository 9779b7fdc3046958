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
// inner and margin-grown outer companions). Each cell is one stats slot of a
// cube::PartialStore (see partials.hpp for the per-edge partials, edges
// named by their child node, and the wire format). A refresh descends only
// into subtrees that changed since the cached partial was taken (the same
// coalesced dirty marks the shared-plan scheduler rides), so a quiescent
// network refreshes for free.
//
// Every store slot is a (region, sketch) pair, the key the service uses for
// its bundles. A cell is a stats slot and sends no HLL bits. When an
// approximate COUNT_DISTINCT plan claims a cell (only when the cube is
// configured with distinct_registers), the cell gains an HLL-only *twin*
// slot: same region, its image the HLL alone. Only the plans that read a
// sketch make sketches travel.
//
// The planner sees the cube through the query::CubeCatalog interface —
// geometry plus a deterministic bit-cost model — and decomposes a range
// query into the fewest covering cells plus *residue* collections for the
// unaligned ends. Prices come from a pricing table built in one pass over
// the tree per store generation (PartialStore::generation(): every slot
// added or released, every collect() wave, every note_updates()): each
// stats slot's stale edges, and per edge the regions that prune it for a
// residue. A price is then a count over the table, and one sweep prices
// all of a cover's residue arcs (residue_collect_bits_all).
//
// A residue of a standing (continuous) plan becomes a *standing slot* of
// the same store: installed once by a broadcast of its
// region, then kept fresh incrementally in the same collect() as the cells
// (its request is one mask bit, and only stale edges are descended). A
// standing slot no plan has claimed for horizon_epochs epochs frees its
// per-edge partials; a later claim installs it afresh. A one-shot plan's
// residue rides the standing slot of its key when one is installed, and is
// otherwise a one-shot slot (PartialStore::collect_once): a range no node
// has installed, whose request carries the range. Its edge is pruned when
// PartialStore::provably_empty() finds a containing stats slot whose cached
// partial shows an empty outer region and the dirty tracker proves nothing
// below changed since — the subtree's items are literally identical, so the
// prune is exact, not approximate.
//
// Serves are batched per epoch: claim() queues each fresh plan (pricing its
// slots at 0 for the plans planned after it), and serve_claimed() installs
// the batch's new standing slots in one broadcast, brings the union of the
// batch's slots up to date in ONE multiplexed collect(), then collects
// every distinct one-shot residue of the batch in ONE collect_once() wave
// (sketch residues in a second), pruned against the fresh slots. serve()
// is the one-shot batch of one.
//
// Standing plans' slots are *pushed*, through the same push()/pushed()
// pair as the shared-plan scheduler's standing groups (see
// service/shared_plan.hpp), so the service drives both owners through one
// path. subscribe() enrols a standing plan's slots on the plan's schedule
// (cube::PushSchedules): a stats plan's cells and its residues' standing
// slots, an approx-distinct
// plan's HLL twins and its residues' standing sketch slots. The schedules
// ride the geometry install when they precede it, and announce()
// broadcasts later changes. In an epoch where enrolled slots are due,
// push() is the cargo of the fused mark wave (cube::PartialStore::Push):
// every dirty edge, and every edge such a slot's partial went stale on
// earlier, carries the due slots' delta images, stats or HLL, with no
// request. A slot is pushed only once the nodes can name it: after the
// geometry install, for a standing slot after its own install, and for a
// twin after an announcement that named its cell; a standing slot with a
// subscriber is not retired. Pushed slots are fresh when the epoch's plans
// are priced, so those plans cost 0 and skip their drift brackets;
// one-shots still read the cells as they are, brackets included. One-shot
// residues stay wave-scoped (collect_once).
//
// Installs are checked for loss: the geometry install and a standing-slot
// install count their hearers, and one that a node missed leaves the
// geometry or the slots uninstalled and fails its serve with ProtocolError
// (charged); the next serve sends it again.
//
// Answers composed from fresh slots + residues are byte-identical to a
// whole-tree collection: slot regions partition the query range, stats
// combine losslessly, and HLL partials replicate the oracle's exact sketch
// geometry (salt 1, width for node_count+1 ranks), so register-max merges
// reproduce the oracle's registers bit for bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/types.hpp"
#include "src/cube/dirty.hpp"
#include "src/cube/partials.hpp"
#include "src/cube/schedule.hpp"
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

/// Cumulative cube telemetry. stats() reads the store's edge and delta-image
/// counters when it is called, and a wave that loses a message charges its
/// bits and residue edges as it throws, so all of these count a failed wave
/// too; the wave, refresh and residue counts count completed waves.
struct CubeStats {
  std::uint64_t refresh_waves = 0;    // slot collect() waves that ran
  std::uint64_t cells_refreshed = 0;  // cells (and twins) brought up to date
  // (slot, edge) pairs of the collect() waves, standing slots included.
  std::uint64_t cell_edges_descended = 0;
  std::uint64_t cell_edges_skipped = 0;  // served from cached partials
  // Delta images of those waves' stats and sketch slots, and the same
  // images coded in full (PartialStore's counters).
  std::uint64_t delta_image_bits = 0;
  std::uint64_t delta_image_full_bits = 0;
  std::uint64_t hll_delta_image_bits = 0;
  std::uint64_t hll_delta_image_full_bits = 0;
  std::uint64_t residue_waves = 0;       // one-shot residue waves
  std::uint64_t residues_run = 0;        // residues those waves collected
  std::uint64_t residue_edges_descended = 0;  // per (residue, edge)
  std::uint64_t residue_edges_pruned = 0;     // subtrees proven empty
  std::uint64_t standing_refreshed = 0;  // standing slots collected
  // Fused-wave messages that carried cube slots' images (stats and HLL),
  // and the images' bits.
  std::uint64_t push_messages = 0;
  std::uint64_t push_image_bits = 0;
  std::uint64_t standing_installs = 0;   // standing slots installed
  std::uint64_t standing_retired = 0;    // ... and freed after the horizon
  std::uint64_t fresh_serves = 0;
  std::uint64_t geometry_installs = 0;  // lazy broadcasts, lost ones too
  // Bits on air by what sent them; they sum to every bit the cube sent.
  std::uint64_t cell_bits = 0;      // cell and twin shares of collect()
                                    // and of pushes
  std::uint64_t standing_bits = 0;  // standing slots' shares of both
  std::uint64_t once_bits = 0;      // one-shot residue waves
  std::uint64_t install_bits = 0;   // geometry and standing-slot installs
  // Pricing-table builds (one tree pass each), and the distinct store
  // generations prices were read at; the table is built once per
  // generation, so the first never exceeds the second.
  std::uint64_t pricing_passes = 0;
  std::uint64_t pricing_generations = 0;
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
  /// slot and residue it claimed first, plus the geometry install when it is
  /// the cube's first fresh serve and the install of the batch's new
  /// standing slots when it owns the first of them. Over a batch the shares
  /// sum to the bits and messages the batch put on the air.
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;
};

class Cube final : public query::CubeCatalog {
 public:
  /// `dirty` is the shared freshness oracle (typically owned by the
  /// scheduler); it must outlive the cube, and its note_updates() must run
  /// each epoch before serves of that epoch. The cube's waves run on
  /// `dirty.tree()`, the tree its marks run up: `tree` itself, or the
  /// scheduler's aggregation tree over it (SharedPlanScheduler::tree()),
  /// which spans the same nodes from the same root.
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
  /// The prices read the pricing table of the store's current generation,
  /// building it first if the store changed since the last build. Any
  /// number of threads may price at once while no one mutates the cube: the
  /// build runs under a lock, once per generation.
  std::uint64_t cell_refresh_bits(query::CubeCellRef ref) const override;
  std::uint64_t residue_collect_bits(
      const query::RegionSignature& region) const override;
  std::vector<std::uint64_t> residue_collect_bits_all(
      std::span<const Value> pos, Value domain_bound) const override;
  std::uint64_t tree_collect_bits(
      const query::RegionSignature& region) const override;
  std::uint32_t refresh_amortization() const override {
    return config_.horizon_epochs;
  }

  // ---- serving -----------------------------------------------------------
  /// Queues a plan for the next serve_claimed() and returns its position
  /// in the batch. Each cell step reads the cell's slot (its HLL twin for an
  /// approx-distinct plan); each residue step of a `standing` plan reads
  /// the standing slot of its (region, sketch) key, created on first claim.
  /// A one-shot plan's residue reads that slot when it is installed and
  /// otherwise runs as a one-shot residue. Until the batch is served,
  /// cell_refresh_bits() and residue_collect_bits() price the claimed
  /// slots at 0: they will be fresh, so a plan planned after this one
  /// reuses them for free.
  std::size_t claim(const query::CostedPlan& plan, bool standing = false);

  /// Serves every claimed plan at `epoch` and clears the claims: one
  /// broadcast installs the batch's new standing slots, one collect() brings
  /// the union of their slots up to the epoch (ascending slot order), one
  /// collect_once() runs their distinct one-shot residues — approx-distinct
  /// plans' sketch residues ride a second — each pruned per edge against
  /// the now-fresh slots, then each plan gets its exact bundle (or, for an
  /// approx-distinct plan, the HLL estimate alone). Results come in claim
  /// order. The cube's first serve pays a one-time geometry install
  /// broadcast. Standing slots unclaimed for horizon_epochs are then freed.
  /// Throws ProtocolError when a message is lost, an install's included
  /// (the geometry or the slots stay uninstalled, and the next serve
  /// installs them); the claims are cleared anyway, and `out` already holds
  /// each plan's bits and messages of every wave sent, the failed one
  /// included.
  void serve_claimed(std::uint32_t epoch, std::vector<ServeResult>& out);

  /// The one-shot batch of one: claim(plan), then serve_claimed(epoch).
  /// Requires no pending claims.
  ServeResult serve(const query::CostedPlan& plan, std::uint32_t epoch);

  // ---- push (see the file comment) ---------------------------------------
  /// Enrols a standing plan's slots for push on its schedule (due in every
  /// epoch e with e % period == phase): the slots its claim reads — cells
  /// (an approx-distinct plan's HLL twins) and its residues' standing
  /// slots — created on first use. Returns them, ascending.
  std::vector<SlotId> subscribe(const query::CostedPlan& plan,
                                std::uint32_t period, std::uint32_t phase);
  /// Withdraws one subscribe() of the slots it returned.
  void unsubscribe(std::span<const SlotId> slots, std::uint32_t period,
                   std::uint32_t phase);
  /// Broadcasts, in one message, the slot schedules that changed since the
  /// nodes last heard them (PushSchedules' wire format, then the names of
  /// the slots in it the nodes cannot name yet; see write_schedules());
  /// sends nothing when none did, or before the geometry install, which
  /// they then ride. Sets
  /// `cost` to what it sent, also when it throws ProtocolError because a
  /// node missed it: the next announce() sends it again, and no push may
  /// run before one returns.
  void announce(WaveShare& cost);
  /// The cargo of `epoch`'s fused wave (DirtyTracker::note_updates): the
  /// slots the announced schedules make due that the nodes can push — the
  /// geometry installed and, for a standing slot or a twin, its region or
  /// its cell heard — or null when there is none.
  std::unique_ptr<PartialStore::Push> push(std::uint32_t epoch);
  /// After the push's wave, also one that threw: counts its shares in
  /// cell_bits and standing_bits, and when `delivered`, finishes it (its
  /// slots are fresh at the epoch, so the epoch's serve sends nothing for
  /// them).
  void pushed(PartialStore::Push& push, bool delivered);

  /// Zero-bit composition of per-cell drift brackets at each cell's own
  /// staleness (see BracketComposer; a cell at its refresh epoch is exact).
  /// Returns nullopt when the plan has non-cell steps, a cell was never
  /// refreshed, a ranged cell is staler than the horizon, or the aggregate
  /// is not bracketable from stats bundles.
  std::optional<BracketedAnswer> stale_bracket(const query::CostedPlan& plan,
                                               query::AggregateKind agg,
                                               std::uint32_t now_epoch) const;

  CubeStats stats() const;
  std::size_t cell_count() const {
    return (std::size_t{1} << config_.levels) - 1;
  }
  /// The cube's slots: slot cell_ordinal(ref) is cell `ref`; HLL twins and
  /// standing slots follow the cells in the order they were first claimed.
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
  /// What the cube tracks per store slot.
  struct SlotState {
    bool claimed = false;    // read by the pending batch
    bool standing = false;   // a standing residue slot
    // The nodes can name it: every node heard a standing slot's region (its
    // install) or a twin's cell (a schedule announcement).
    bool installed = false;
    std::uint32_t last_read = 0;  // the last epoch a batch read it
  };
  /// A claimed plan and, per step, the slot it reads (kNoSlot: a one-shot
  /// residue).
  struct Claim {
    query::CostedPlan plan;
    std::vector<SlotId> reads;
  };
  static constexpr SlotId kNoSlot = static_cast<SlotId>(-1);

  SlotId add_slot(const query::RegionSignature& region, bool sketch);
  /// True for an approx-distinct plan, which reads sketch slots (checked
  /// against the cube's registers).
  bool reads_sketches(const query::CostedPlan& plan) const;
  /// The slot a claimed step reads, creating a twin or standing slot on
  /// first use.
  SlotId slot_for(const query::PlanStep& step, bool sketch, bool standing);
  /// The installed standing slot of a (region, sketch) key, or kNoSlot.
  SlotId installed_standing(const query::RegionSignature& region,
                            bool sketch) const;
  /// One tree broadcast of `payload` on `session`; returns what it cost.
  /// Sets `heard`, when given, to the number of nodes that heard it.
  WaveShare broadcast(std::uint32_t session, BitWriter payload,
                      std::size_t* heard = nullptr);
  /// The lazy geometry install broadcast, charged to `payer`. Throws
  /// ProtocolError when a node missed it: the geometry stays uninstalled.
  void install_geometry(ServeResult& payer);
  /// One broadcast of the regions of `slots`, new standing slots, charged
  /// to `payer`. Throws ProtocolError when a node missed it: the slots stay
  /// uninstalled.
  void install_standing(const std::vector<SlotId>& slots, ServeResult& payer);
  /// Writes the schedules that changed (PushSchedules::write_changes), then
  /// for each written slot the nodes cannot name yet, when the cube keeps
  /// distinct partials: one bit, set for a twin, and a twin's cell ordinal
  /// (encode_uint); a standing slot's region comes with its install.
  /// Returns false, writing nothing, when no schedule changed.
  bool write_schedules(BitWriter& w);
  /// Ends the broadcast of the last write_schedules(): when every node heard
  /// it, the schedules are the nodes' and its twins are named.
  void heard_schedules(bool every_node);
  /// Frees the standing slots no batch has read for horizon_epochs and no
  /// subscriber keeps pushed.
  void retire_standing(std::uint32_t epoch);
  /// One multiplexed residue wave over `ranges` (none: nothing is sent),
  /// pruned against the fresh slots; charges range i's wave share to plan
  /// owners[i] in `out`, and the wave's bits and edges to the stats, also
  /// when the wave fails.
  PartialStore::OnceCollection collect_residues(
      const std::vector<query::RegionSignature>& ranges, bool sketch,
      const std::vector<std::size_t>& owners, std::vector<ServeResult>& out);

  /// Estimated wire bits of one descend-and-respond edge for a region
  /// (request + response, headers included).
  std::uint64_t edge_cost_bits(bool whole_domain, bool carries_region) const;

  /// A region's [lo, hi] ends.
  struct Span {
    Value lo = 0;
    Value hi = 0;
  };
  /// The cost model's view of the store at one generation. A collect()
  /// descends an edge for a slot iff every edge on its root path, itself
  /// included, is stale for the slot. A one-shot residue prunes an edge iff
  /// an edge on its root path, itself included, is fresh with an empty
  /// outer region for a stats slot whose region contains the residue
  /// (PartialStore::provably_empty). So each edge keeps those slots'
  /// maximal regions along its root path, its *prune list*, and a residue
  /// descends it iff no region on the list contains the residue. Edges
  /// share lists: each distinct list is kept once, with the number of edges
  /// that carry it (the same list may appear twice when two sets of slots
  /// have the same maximal regions).
  struct PruneList {
    std::vector<Span> regions;  // maximal, ascending lo (and so hi)
    std::uint64_t edges = 0;
  };
  /// The maximal regions of the slots set in a `words`-word slot bitset.
  std::vector<Span> maximal_regions(const std::uint64_t* bits,
                                    std::size_t words) const;
  struct Pricing {
    std::vector<std::uint64_t> stale_edges;  // per stats slot
    std::vector<PruneList> lists;
    /// Edges a one-shot residue over [lo, hi] descends.
    std::uint64_t residue_edges(Value lo, Value hi) const;
  };
  /// The table of the store's current generation, built on first use.
  const Pricing& pricing() const;
  /// One tree pass over the store into pricing_.
  void build_pricing() const;
  /// A slot's collect() price: 0 when claimed, else its stale edges.
  std::uint64_t slot_refresh_bits(SlotId s) const;

  sim::Network& net_;
  const net::SpanningTree& tree_;
  Value max_value_bound_;
  const DirtyTracker& dirty_;
  CubeConfig config_;
  PartialStore store_;  // cells, then twins and standing slots
  std::vector<SlotState> slot_state_;  // per slot
  std::vector<SlotId> twin_;           // per cell: its HLL twin or kNoSlot
  // Standing slots by (region, sketch) key.
  std::map<std::pair<query::RegionSignature, bool>, SlotId> standing_;
  std::vector<Claim> claimed_;  // the pending batch
  PushSchedules schedules_;     // of the pushed slots, by slot id
  std::vector<SlotId> naming_;  // twins the last write_schedules() named
  bool geometry_installed_ = false;
  std::uint32_t next_residue_session_;
  CubeStats stats_;  // all but the store's and the pricing counters
  std::vector<NodeId> preorder_;  // the non-root nodes, parents first
  // The pricing table and the generation it was built at (kUnpriced: none
  // yet), published with release/acquire; builds hold pricing_mutex_.
  static constexpr std::uint64_t kUnpriced = ~std::uint64_t{0};
  mutable std::mutex pricing_mutex_;
  mutable Pricing pricing_;
  mutable std::atomic<std::uint64_t> priced_at_{kUnpriced};
  mutable std::atomic<std::uint64_t> last_read_at_{kUnpriced};
  mutable std::atomic<std::uint64_t> pricing_passes_{0};
  mutable std::atomic<std::uint64_t> pricing_generations_{0};
};

}  // namespace sensornet::cube
