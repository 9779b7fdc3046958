// Per-edge partial store and its multiplexed collection wave.
//
// A *slot* is one maintained (region, sketch) pair: a shared-plan stats
// group, a cube cell, a cell's HLL twin or a standing cube residue (Meliou
// et al. treat them all as the same object). For every tree edge a slot
// keeps the subtree partial last collected below that edge, stamped with
// the epoch it was taken at. A stats slot's partial is a StatsBundle; a
// sketch slot (stores built with HLL registers only) keeps an HLL and
// nothing else, so a stats slot carries no HLL bits even in a store that
// keeps sketches. Edges are named by their child node: edge c is the edge
// parent(c) -> c, and its partial sits at the parent.
//
// collect() brings any set of slots up to an epoch in ONE convergecast that
// descends only edges whose partial is stale for at least one slot (the
// DirtyTracker proves every other edge's subtree unchanged since its partial
// was taken). Wire format, for k slots in ascending slot order:
//
//   request  (u -> c)   k-bit mask, then one resync bit. Mask bit i is set
//                       iff slot i is active at u and its partial for edge c
//                       is stale. An all-zero mask is never sent (the edge
//                       is served from the partials).
//   response (c -> u)   the images of the masked slots, concatenated in slot
//                       order: a stats slot's stats image, a sketch slot's
//                       HLL image alone — each full, or a delta image
//                       (below). A full HLL image is Hll::encode.
//
// A stats image is the bundle's core as one RangeStats
// (encode_range_stats). A whole-domain image ends there: its margins
// collapse onto the core. A ranged image then sends its margins as
// encode_uint deltas against the core, which inner ⊆ core ⊆ outer keeps
// non-negative:
//
//   inner   core.count - inner.count; if the inner is non-empty,
//           core.sum - inner.sum, inner.min - core.min, core.max - inner.max
//   outer   outer.count - core.count; if the outer is non-empty,
//           outer.sum - core.sum, then core.min - outer.min and
//           outer.max - core.max — or, when the core is empty, outer.min
//           and outer.max - outer.min in full
//
// Only readings within the margin of the region's ends move the deltas off
// zero, so a ranged image costs little more than its core. The decoder
// rejects (WireFormatError) any delta that would underflow, overflow or
// leave the core's span.
//
// A *delta image* codes a stats slot's bundle against its baseline: the
// image of the same slot that edge last carried. It sends, as zigzag
// encode_int changes against the baseline,
//
//   core     count - old.count; if the core is non-empty, sum - old.sum.
//            When both are 0, one bit: did anything else move? If not, the
//            image ends here (3 bits; 2 with an empty core, and a
//            whole-domain image with an empty core sends no bit at all).
//            Then, if the core is non-empty, min - old.min and max - old.max
//            — or, when the old core was empty, min and max - min in full
//            (encode_uint)
//
// A whole-domain image ends there: its margins collapse onto the core. A
// ranged image then sends its margins, the inner and then the outer. A
// margin *rides* the core when it moved exactly as the core did, in all
// four fields. When both cores are non-empty and |count change| + |sum
// change| is at most the store's margin, each margin that is non-empty in
// the baseline first sends one bit: 1 means it rode, and nothing more is
// sent for it. Otherwise (bit 0, a margin empty in the baseline, or a
// larger core move: no bit at all) the margin is coded as a RangeStats
// against its old self:
//
//   count - old.count; if the range is non-empty, sum - old.sum, then
//   min - old.min and max - old.max — or, when the old range was empty,
//   min and max - min in full (encode_uint)
//
// Both ends decide whether the bits are there from the baseline and the
// core they both hold, so the ride needs no side information. Between two
// collections a stale subtree's bundle mostly holds still or moves by a
// reading drifting inside the region, so a delta image costs a few bits.
// Every change must fit in ±(2^63 - 1) (the encoder checks it). The decoder
// rejects (WireFormatError) a change or a ride that would underflow or
// overflow a count or a sum, leave [0, Value max], set max below min, or
// break inner ⊆ core ⊆ outer, and a ride that empties its margin. (A
// margin empty in the baseline has no ride bit, so it cannot ride.)
//
// A sketch slot's delta image lists the registers that changed against its
// baseline HLL, which fixes the geometry, so it has no header:
//
//   the number of changed registers (encode_uint), then per changed
//   register in ascending bucket order its bucket gap (encode_uint: the
//   first one's bucket, then each bucket minus the previous one) and its
//   rank change (zigzag encode_int)
//
// An unchanged HLL costs one bit. The decoder rejects (WireFormatError) a
// count above m, a bucket at or past m, a repeated bucket (a later gap of
// 0), a change of 0, and a rank leaving [0, rank_cap]; the rebuilt HLL is
// canonical (Hll::set_register), so it encodes exactly as the child's.
//
// Baseline invariant: a node keeps its last image per slot, and its parent
// holds the same image as that edge's partial. (The simulator keeps one
// copy: the parent's edge partial is the child's baseline too, so no
// per-node memory is added.) A child answers a masked slot with a delta
// image iff the edge holds a partial for the slot and the request's resync
// bit is clear; otherwise — a cold edge, or resync — it sends the full
// image. Both ends apply the same rule. The invariant holds on lossless
// links; a lost message can leave the child's copy ahead of the parent's
// partial. So when a wave fails, the parent marks each (slot, edge) whose
// request went down unanswered, and sets the resync bit on any later
// request on that edge that names a marked slot; the response clears the
// marks. A released slot has no partials, so its next collection sends
// full images (the reinstall broadcast resets the nodes' copies).
//
// At k = 1 the request is the bits 1 and resync, and the response one image.
// A node forms a slot's subtree partial when it responds, from its local
// partial and its edges' partials, so the wave keeps no per-node
// accumulator. Each node knows every slot's region and kind: the owner of
// the store installs them (the cube broadcasts its geometry and each
// standing residue's region once).
//
// collect_once() runs the same wave over *one-shot slots*: ranges no node
// has installed (the cube's one-shot residues). Each is a wave-scoped slot,
// never added to the store: its edge partials live for the wave, so a node
// forms its image from them exactly as above, and the slot dies with the
// wave. Its request also carries the ranges, and an edge whose subtree the
// installed slots prove empty for a range (provably_empty()) is pruned
// instead of served from a partial; a pruned edge holds no partial and adds
// nothing.
//
//   request  (u -> c)   k-bit mask, then (lo, hi - lo) as encode_uint pairs
//                       for the masked ranges, in range order.
//   response (c -> u)   as above: the masked ranges' images in order —
//                       stats images, or HLL images alone on a sketch wave.
//
// k and whether the ranges are sketch entries are fixed per wave (its
// session), so at k = 1 a one-shot request is the bit 1 and one range. A
// one-shot slot has no baseline: its images are always full, and its
// request carries no resync bit. Every response on the service path is
// read by decode_stats_response().
//
// Each wave's bits are split among the slots it carried (WaveShare,
// ShareLedger), so a caller can charge every bit on the air to the query
// that made it travel.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/types.hpp"
#include "src/cube/dirty.hpp"
#include "src/cube/stats.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/query/plan.hpp"
#include "src/sim/network.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::cube {

using SlotId = std::uint32_t;

/// The oracle's hash salt: a fresh approx-counting service issues its first
/// (and, per query, only) wave with salt 1, so HLL partials use the same
/// constant to reproduce its registers exactly.
inline constexpr std::uint64_t kHllSalt = 1;

/// One slot's share of a multiplexed wave: the response image bits it
/// encoded plus an even split of the header and mask bits of every message
/// that carried it (remainder to the lowest carried slot, which also counts
/// the message). Shares sum exactly to the wave's bits and messages on air.
struct WaveShare {
  std::uint64_t bits = 0;  // payload + header bits
  std::uint64_t messages = 0;
  /// False when the slot was already collected this epoch: it rode nothing
  /// and owes nothing.
  bool collected = false;
};

/// Splits one multiplexed wave's bits and messages among its k entries
/// (installed or one-shot slots): bits encoded for one entry alone go to
/// that entry, and a message's shared overhead (header, mask) is split
/// evenly among the entries it carries — the remainder, and the message
/// itself, to the lowest. The shares therefore sum exactly to the wave's
/// bits on air.
class ShareLedger {
 public:
  explicit ShareLedger(std::size_t k) : shares_(k) {}

  void add(std::size_t i, std::uint64_t bits) { shares_[i].bits += bits; }
  /// Charges one message's `overhead` bits to the entries set in `mask`
  /// (at least one).
  void charge(const std::vector<std::uint8_t>& mask, std::uint64_t overhead);

  std::vector<WaveShare>& shares() { return shares_; }

 private:
  std::vector<WaveShare> shares_;
};

/// What one entry's image holds on the wire: a stats image, whole-domain or
/// ranged, or — for a sketch entry — its HLL alone.
enum class ImageShape : std::uint8_t { kRanged, kWholeDomain, kHll };

/// Wire images (see the file comment). Masks are one flag byte per slot
/// (nonzero = set). A ranged bundle must nest (inner ⊆ core ⊆ outer:
/// counts, sums and min/max rails); the encoder checks it. The decoder
/// throws WireFormatError on a truncated image or an inconsistent delta.
void encode_stats_image(BitWriter& w, const StatsBundle& b, bool whole_domain);
StatsBundle decode_stats_image(BitReader& r, bool whole_domain);
/// The length of encode_stats_image(b, whole_domain), without writing it.
std::uint64_t stats_image_bits(const StatsBundle& b, bool whole_domain);

/// Delta images of `b` against `base`, the slot's previous image on the same
/// edge (see the file comment); `margin` is the store's (ranged margins ride
/// core moves up to it). Both bundles of a ranged image must nest; the
/// encoder checks `b`. The decoder throws WireFormatError on a truncated
/// image, a change or ride out of range or a bundle that does not nest.
void encode_stats_delta(BitWriter& w, const StatsBundle& base,
                        const StatsBundle& b, bool whole_domain, Value margin);
StatsBundle decode_stats_delta(BitReader& r, const StatsBundle& base,
                               bool whole_domain, Value margin);

/// The delta image of `h` against `base`, the sketch slot's previous HLL on
/// the same edge (see the file comment). Both must have one geometry. The
/// decoder throws WireFormatError on a truncated or out-of-range image.
void encode_hll_delta(BitWriter& w, const sketch::Hll& base,
                      const sketch::Hll& h);
sketch::Hll decode_hll_delta(BitReader& r, const sketch::Hll& base);

/// A collect() request: `mask` (k flags, at least one set), then the resync
/// bit.
void encode_stats_request(BitWriter& w, const std::vector<std::uint8_t>& mask,
                          bool resync);

/// Reads a collect() request of k = mask.size() slots into `mask` and
/// returns its resync bit. Throws WireFormatError on an empty mask,
/// truncation or trailing bits.
bool decode_stats_request(BitReader& r, std::vector<std::uint8_t>& mask);

/// A one-shot request: `mask` (k flags, at least one set) and the ranges of
/// the masked slots (`ranges` has k entries; unmasked ones are ignored).
void encode_residue_request(BitWriter& w, const std::vector<std::uint8_t>& mask,
                            std::span<const query::RegionSignature> ranges);

/// Reads a one-shot request of k = mask.size() ranges into `mask` and the
/// masked entries of `ranges` (resized to k), deriving whole_domain from
/// `domain_bound`. Throws WireFormatError on an empty mask, a range outside
/// [0, domain_bound], truncation or trailing bits.
void decode_residue_request(BitReader& r, Value domain_bound,
                            std::vector<std::uint8_t>& mask,
                            std::vector<query::RegionSignature>& ranges);

/// An entry's baseline on one edge: the image that edge last carried for the
/// slot — a bundle for a stats entry, an HLL for a sketch entry — or neither
/// (the image is full).
struct Baseline {
  const StatsBundle* bundle = nullptr;
  const sketch::Hll* hll = nullptr;
};

/// Reads a response: the images of the slots set in `mask`, in slot order,
/// shaped by `shapes` (both of size k). Stats images land in `images` and
/// HLL images in `sketches`, each in slot order; a masked kHll entry needs
/// `geometry` and `sketches`, and its HLL must have the geometry's shape.
/// An entry whose `baselines` entry holds the pointer of its shape is a
/// delta image against it, read with the store's `margin`; with no
/// `baselines` (or no pointer) the image is full. Throws WireFormatError on
/// a truncated or corrupt image, a sketch of another geometry, or trailing
/// bits. (Out-parameters let a wave reuse its buffers across messages.)
void decode_stats_response(BitReader& r, const std::vector<std::uint8_t>& mask,
                           const std::vector<ImageShape>& shapes,
                           std::vector<StatsBundle>& images,
                           const sketch::Hll* geometry = nullptr,
                           std::vector<sketch::Hll>* sketches = nullptr,
                           std::span<const Baseline> baselines = {},
                           Value margin = 0);

class PartialStore {
 public:
  /// `margin` sets ranged bundles' inner/outer margin, and the largest core
  /// move their delta images' margins may ride. `hll_registers` > 0
  /// lets sketch slots and waves keep HLLs in the oracle's exact geometry
  /// (salt kHllSalt, width for node_count + 1 ranks). Tree, network and
  /// tracker must outlive the store.
  PartialStore(sim::Network& net, const net::SpanningTree& tree,
               const DirtyTracker& dirty, Value margin,
               unsigned hll_registers = 0);

  /// Adds a slot over `region`; its waves carry `session`. A `sketch` slot
  /// (sketch-keeping stores only) keeps an HLL per partial and no stats.
  /// Costs no bits and no per-edge memory until its first collection.
  SlotId add_slot(const query::RegionSignature& region, std::uint32_t session,
                  bool sketch = false);

  /// Frees the slot's per-edge partials and root, as if it had never been
  /// collected; its next collect() descends every edge.
  void release(SlotId s);

  /// Collects every listed slot (strictly ascending ids) in one multiplexed
  /// convergecast, on the first collected slot's session. Slots already
  /// collected this epoch are skipped; if none is left, nothing is sent.
  /// Sets `shares` to each slot's share of the wave, aligned with `slots`.
  /// Throws ProtocolError when a message is lost; `shares` then hold every
  /// bit and message the wave sent, edges whose responses arrived keep
  /// their new partials, so a retry re-descends only the rest, and its
  /// requests on edges left unanswered carry resync.
  void collect(std::span<const SlotId> slots, std::uint32_t epoch,
               std::vector<WaveShare>& shares);

  /// What collect_once() gathered, per range in order: its bundle over the
  /// whole tree (stats waves) or its HLL (sketch waves) and its share of
  /// the wave; and over all (range, edge) pairs, how many were requested
  /// and how many were pruned as provably empty.
  struct OnceCollection {
    std::vector<StatsBundle> bundles;
    std::vector<sketch::Hll> hlls;
    std::vector<WaveShare> shares;
    std::uint64_t edges_descended = 0;
    std::uint64_t edges_pruned = 0;
  };

  /// Collects the one-shot slots `ranges` (at least one) into `got` in one
  /// multiplexed convergecast on `session`, pruning each edge that
  /// provably_empty() clears for a range; requests are decoded against
  /// `domain_bound`. Images are HLLs alone when `sketch` (sketch-keeping
  /// stores only). Keeps no state. Throws ProtocolError when a message is
  /// lost; `got` then holds the wave's shares and edge counts so far.
  void collect_once(std::span<const query::RegionSignature> ranges,
                    bool sketch, Value domain_bound, std::uint32_t session,
                    OnceCollection& got);

  /// The stats slots whose region contains `region` and that hold edge
  /// partials: the only slots provably_empty() can consult for it. Taken
  /// once per range, not once per edge.
  std::vector<SlotId> containing_slots(
      const query::RegionSignature& region) const;

  /// True when one of `containing` (containing_slots() of a region) holds a
  /// fresh partial for edge `child` with an empty outer region: the subtree
  /// below the edge holds nothing in the region, exactly (the DirtyTracker
  /// certifies its items are unchanged since the partial was taken).
  bool provably_empty(NodeId child, std::span<const SlotId> containing) const;

  /// Changes whenever what edge_fresh() or provably_empty() may answer
  /// does: bumped by add_slot(), release() and every collect() wave (it
  /// rewrites edge partials), and by the tracker's note_updates(). Readers
  /// that cache a pass over the store (the cube's pricing table) key it on
  /// this.
  std::uint64_t generation() const {
    return generation_ + dirty_.generation();
  }

  std::size_t slot_count() const { return slots_.size(); }
  const query::RegionSignature& region(SlotId s) const {
    return slots_[s].region;
  }
  /// True for a sketch (HLL-only) slot.
  bool sketch(SlotId s) const { return slots_[s].sketch; }
  /// Epoch of the slot's last collection (DirtyTracker::kInvalidEpoch:
  /// never collected).
  std::uint32_t epoch(SlotId s) const { return slots_[s].epoch; }
  /// A stats slot's bundle over the whole tree at its last collection.
  const StatsBundle& root(SlotId s) const { return slots_[s].root; }
  /// A sketch slot's HLL at its last collection.
  const sketch::Hll& root_hll(SlotId s) const { return *slots_[s].root_hll; }

  /// True once the slot holds per-edge partials (after its first collect).
  bool has_edges(SlotId s) const { return !slots_[s].edge_epoch.empty(); }
  /// Epoch of edge c's partial (kInvalidEpoch: none).
  std::uint32_t edge_epoch(SlotId s, NodeId child) const {
    const Slot& slot = slots_[s];
    return slot.edge_epoch.empty() ? DirtyTracker::kInvalidEpoch
                                   : slot.edge_epoch[child];
  }
  /// Edge c's partial bundle; requires has_edges(s) and a stats slot.
  const StatsBundle& edge_bundle(SlotId s, NodeId child) const {
    return slots_[s].edge_bundle[child];
  }
  /// Per edge (by child node), the epoch of its partial: edge_epoch() of
  /// every edge at once; empty until has_edges(s).
  std::span<const std::uint32_t> edge_epochs(SlotId s) const {
    return slots_[s].edge_epoch;
  }
  /// Per edge of a stats slot, nonzero when its partial bundle's outer
  /// region is empty (a byte per edge, so a pass over many edges reads
  /// little); empty until has_edges(s), and always for a sketch slot.
  std::span<const std::uint8_t> edge_outer_empty(SlotId s) const {
    return slots_[s].edge_outer_empty;
  }
  /// Edge c's partial HLL; requires a sketch slot whose edge holds one.
  const sketch::Hll& edge_hll(SlotId s, NodeId child) const {
    return *slots_[s].edge_hll[child];
  }
  /// True when edge c's partial is still exact.
  bool edge_fresh(SlotId s, NodeId child) const {
    return dirty_.edge_fresh(child, edge_epoch(s, child));
  }

  /// Node-local evaluation over `region` with the store's margin / sketch
  /// geometry.
  StatsBundle local_bundle(NodeId node,
                           const query::RegionSignature& region) const;
  sketch::Hll local_hll(NodeId node,
                        const query::RegionSignature& region) const;
  sketch::Hll empty_hll() const;
  std::uint8_t hll_width() const { return hll_width_; }

  /// Cumulative (slot, edge) pairs requested / served from partials.
  std::uint64_t edges_descended() const { return edges_descended_; }
  std::uint64_t edges_skipped() const { return edges_skipped_; }
  /// Cumulative bits of the stats slots' delta images sent, and of the same
  /// images had they been coded in full.
  std::uint64_t delta_image_bits() const { return delta_image_bits_; }
  std::uint64_t delta_image_full_bits() const {
    return delta_image_full_bits_;
  }
  /// The same for the sketch slots' HLL delta images (full: wire_bits()).
  std::uint64_t hll_delta_image_bits() const { return hll_delta_image_bits_; }
  std::uint64_t hll_delta_image_full_bits() const {
    return hll_delta_image_full_bits_;
  }
  /// True while a request naming the slot went down edge c and its response
  /// has not arrived: the next request on c carries resync.
  bool edge_unanswered(SlotId s, NodeId child) const {
    const Slot& slot = slots_[s];
    return !slot.edge_unanswered.empty() && slot.edge_unanswered[child] != 0;
  }

 private:
  struct Slot {
    query::RegionSignature region;
    std::uint32_t session = 0;
    bool sketch = false;
    std::uint32_t epoch = DirtyTracker::kInvalidEpoch;
    StatsBundle root;                     // stats slots
    std::optional<sketch::Hll> root_hll;  // sketch slots
    // Per-edge partials indexed by child node, sized at the first collect:
    // bundles for a stats slot, HLLs for a sketch slot.
    std::vector<std::uint32_t> edge_epoch;
    std::vector<StatsBundle> edge_bundle;
    std::vector<std::uint8_t> edge_outer_empty;  // ... outer.count == 0
    std::vector<std::optional<sketch::Hll>> edge_hll;
    // The slot's unanswered-request marks per edge, sized at the first
    // failed collect.
    std::vector<std::uint8_t> edge_unanswered;
  };
  class Collect;

  /// Sizes the slot's per-edge arrays for the tree, every edge without a
  /// partial.
  void size_edges(Slot& slot) const;
  /// The slot's partial over the node's subtree: its local partial plus
  /// every edge partial below the node (an edge without one, pruned from a
  /// one-shot wave, adds nothing).
  StatsBundle subtree_bundle(const Slot& slot, NodeId node) const;
  sketch::Hll subtree_hll(const Slot& slot, NodeId node) const;
  /// Sets the slot's root bundle or HLL from its partials at the root.
  void take_root(Slot& slot) const;

  sim::Network& net_;
  const net::SpanningTree& tree_;
  const DirtyTracker& dirty_;
  Value margin_;
  unsigned hll_registers_;
  std::uint8_t hll_width_ = 0;
  std::vector<Slot> slots_;
  std::uint64_t generation_ = 0;  // the store's own share of generation()
  std::uint64_t edges_descended_ = 0;
  std::uint64_t edges_skipped_ = 0;
  std::uint64_t delta_image_bits_ = 0;
  std::uint64_t delta_image_full_bits_ = 0;
  std::uint64_t hll_delta_image_bits_ = 0;
  std::uint64_t hll_delta_image_full_bits_ = 0;
};

}  // namespace sensornet::cube
