// PartialStore's multiplexed collection. collect_once (the one-shot slots)
// runs directly on random ranges, with and without sketches, against
// oracles computed from every node's items: the root bundles and HLLs are
// exact, the wave's shares account for every bit on the air, the installed
// slots are left as they were, and an edge that a fresh containing slot
// proves empty sends no message. collect() mixes stats slots and HLL-only
// sketch slots: a stats slot sends no HLL bits, a sketch slot reproduces
// the oracle's registers, and the shares sum to the wave. Stale edges send
// delta images against the parent's partial — stats deltas, or the changed
// registers of an HLL — and stay exact (a rebuilt edge HLL encodes as the
// child's); after a lost message the retry resyncs the unanswered edges
// with full images, and a released slot starts over from full images.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/cube/dirty.hpp"
#include "src/cube/partials.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"

namespace sensornet::cube {
namespace {

constexpr Value kBound = 1000;
constexpr Value kMargin = 32;
constexpr unsigned kRegisters = 64;

/// PartialStore::collect, returning the wave's shares.
std::vector<WaveShare> collect(PartialStore& store,
                               std::span<const SlotId> slots,
                               std::uint32_t epoch) {
  std::vector<WaveShare> shares;
  store.collect(slots, epoch, shares);
  return shares;
}

/// PartialStore::collect_once, returning what it gathered.
PartialStore::OnceCollection collect_once(
    PartialStore& store, std::span<const query::RegionSignature> ranges,
    bool sketch, Value domain_bound, std::uint32_t session) {
  PartialStore::OnceCollection got;
  store.collect_once(ranges, sketch, domain_bound, session, got);
  return got;
}

/// An 8x8 grid whose nodes hold one to three readings each.
struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  DirtyTracker dirty;
  PartialStore store;

  Fixture(std::uint64_t seed, unsigned registers)
      : net(net::make_grid(8, 8), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        dirty(net, tree),
        store(net, tree, dirty, kMargin, registers) {
    Xoshiro256 rng(seed);
    for (NodeId u = 0; u < net.node_count(); ++u) {
      ValueSet items(1 + rng.next_below(3));
      for (Value& v : items) {
        v = static_cast<Value>(rng.next_below(kBound + 1));
      }
      net.set_items(u, items);
    }
  }

  /// The oracle bundle: every node's local bundle, combined.
  StatsBundle oracle_bundle(const query::RegionSignature& region) const {
    StatsBundle b;
    for (NodeId u = 0; u < net.node_count(); ++u) {
      b.combine(store.local_bundle(u, region));
    }
    return b;
  }

  /// The oracle HLL: every item in the range, added once.
  sketch::Hll oracle_hll(const query::RegionSignature& region) const {
    sketch::Hll h = store.empty_hll();
    for (NodeId u = 0; u < net.node_count(); ++u) {
      for (const Value v : net.items(u)) {
        if (v >= region.lo && v <= region.hi) {
          h.add(static_cast<std::uint64_t>(v), kHllSalt);
        }
      }
    }
    return h;
  }

  std::uint64_t subtree_size(NodeId node) const {
    std::uint64_t size = 1;
    for (const NodeId child : tree.children[node]) size += subtree_size(child);
    return size;
  }
};

query::RegionSignature range_of(Value lo, Value hi) {
  return query::RegionSignature{lo, hi, lo == 0 && hi == kBound};
}

/// One to five random ranges, a whole-domain one now and then.
std::vector<query::RegionSignature> random_ranges(Xoshiro256& rng) {
  std::vector<query::RegionSignature> ranges(1 + rng.next_below(5));
  for (auto& r : ranges) {
    if (rng.next_below(6) == 0) {
      r = range_of(0, kBound);
      continue;
    }
    const auto lo = static_cast<Value>(rng.next_below(kBound + 1));
    const auto hi =
        lo + static_cast<Value>(
                 rng.next_below(static_cast<std::uint64_t>(kBound - lo) + 1));
    r = range_of(lo, hi);
  }
  return ranges;
}

TEST(CollectOnce, RootsEqualTheOraclesAndSharesSumToTheWave) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const unsigned registers : {0u, kRegisters}) {
      Fixture f(seed, registers);
      Xoshiro256 rng(seed * 31 + registers);
      std::uint32_t session = 0x7C00;
      for (const bool sketch : {false, true}) {
        if (sketch && registers == 0) continue;
        const auto ranges = random_ranges(rng);
        const sim::CommSummary before = f.net.summary(true);
        const PartialStore::OnceCollection got =
            collect_once(f.store, ranges, sketch, kBound, session++);
        const sim::CommSummary after = f.net.summary(true);

        // A sketch wave's images are the HLLs alone.
        ASSERT_EQ(got.bundles.size(), sketch ? 0u : ranges.size());
        ASSERT_EQ(got.shares.size(), ranges.size());
        ASSERT_EQ(got.hlls.size(), sketch ? ranges.size() : 0u);
        std::uint64_t bits = 0;
        std::uint64_t messages = 0;
        for (std::size_t i = 0; i < ranges.size(); ++i) {
          if (sketch) {
            EXPECT_TRUE(got.hlls[i] == f.oracle_hll(ranges[i]))
                << "seed " << seed << " range " << i;
          } else {
            EXPECT_EQ(got.bundles[i], f.oracle_bundle(ranges[i]))
                << "seed " << seed << " range " << i;
          }
          bits += got.shares[i].bits;
          messages += got.shares[i].messages;
        }
        EXPECT_EQ(bits, after.total_bits - before.total_bits);
        EXPECT_EQ(messages, after.total_messages - before.total_messages);
        // No slot is installed: nothing can be pruned.
        EXPECT_EQ(got.edges_pruned, 0u);
        EXPECT_EQ(got.edges_descended,
                  ranges.size() * (f.tree.node_count() - 1));
      }
    }
  }
}

TEST(CollectOnce, LeavesTheInstalledSlotsUntouched) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fixture f(seed, kRegisters);
    Xoshiro256 rng(seed);
    // Each range as a stats slot and as an HLL-only sketch slot.
    std::vector<SlotId> slots;
    for (const auto& region : random_ranges(rng)) {
      for (const bool sketch : {false, true}) {
        slots.push_back(f.store.add_slot(
            region, 0x7800 + static_cast<std::uint32_t>(slots.size()),
            sketch));
      }
    }
    // Drift one reading between two collections so edge epochs differ.
    collect(f.store, slots, 1);
    f.net.update_item(63, 0, f.net.items(63)[0] / 2);
    const std::vector<NodeId> touched{63};
    f.dirty.note_updates(touched, 2);
    collect(f.store, slots, 2);

    struct Snapshot {
      std::uint32_t epoch;
      StatsBundle root;
      std::optional<sketch::Hll> root_hll;
      std::vector<std::uint32_t> edge_epoch;
      std::vector<StatsBundle> edge_bundle;
    };
    const auto snapshot = [&f](SlotId s) {
      Snapshot snap{f.store.epoch(s), f.store.root(s), {}, {}, {}};
      if (f.store.sketch(s)) snap.root_hll = f.store.root_hll(s).clone();
      for (NodeId c = 0; c < f.tree.node_count(); ++c) {
        snap.edge_epoch.push_back(f.store.edge_epoch(s, c));
        if (!f.store.sketch(s)) {
          snap.edge_bundle.push_back(f.store.edge_bundle(s, c));
        }
      }
      return snap;
    };
    std::vector<Snapshot> before;
    for (const SlotId s : slots) before.push_back(snapshot(s));
    const std::uint64_t descended = f.store.edges_descended();
    const std::uint64_t skipped = f.store.edges_skipped();

    std::uint32_t session = 0x7C00;
    for (const bool sketch : {false, true}) {
      const auto ranges = random_ranges(rng);
      const auto got = collect_once(f.store, ranges, sketch, kBound, session++);
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (sketch) {
          EXPECT_TRUE(got.hlls[i] == f.oracle_hll(ranges[i]));
        } else {
          EXPECT_EQ(got.bundles[i], f.oracle_bundle(ranges[i]));
        }
      }
    }

    EXPECT_EQ(f.store.slot_count(), slots.size());
    EXPECT_EQ(f.store.edges_descended(), descended);
    EXPECT_EQ(f.store.edges_skipped(), skipped);
    for (std::size_t j = 0; j < slots.size(); ++j) {
      const Snapshot after = snapshot(slots[j]);
      EXPECT_EQ(after.epoch, before[j].epoch);
      EXPECT_EQ(after.root, before[j].root);
      EXPECT_EQ(after.root_hll.has_value(), before[j].root_hll.has_value());
      if (after.root_hll) {
        EXPECT_TRUE(*after.root_hll == *before[j].root_hll);
      }
      EXPECT_EQ(after.edge_epoch, before[j].edge_epoch);
      EXPECT_EQ(after.edge_bundle, before[j].edge_bundle);
    }
  }
}

TEST(CollectOnce, AFreshEmptyContainingSlotPrunesTheEdge) {
  for (const bool sketch : {false, true}) {
    Fixture f(5, kRegisters);
    // The subtree below `empty` reads 900, out of the slot's outer region
    // [0, 499 + kMargin]; every other reading lies inside it.
    const NodeId empty = f.tree.children[f.tree.root].front();
    std::vector<NodeId> below{empty};
    for (std::size_t i = 0; i < below.size(); ++i) {
      for (const NodeId c : f.tree.children[below[i]]) below.push_back(c);
    }
    std::vector<std::uint8_t> in_subtree(f.tree.node_count(), 0);
    for (const NodeId u : below) in_subtree[u] = 1;
    for (NodeId u = 0; u < f.tree.node_count(); ++u) {
      f.net.set_items(u, ValueSet{in_subtree[u]
                                      ? Value{900}
                                      : static_cast<Value>((u * 37) % 500)});
    }
    const SlotId slot = f.store.add_slot(range_of(0, 499), 0x7800);
    collect(f.store, std::vector<SlotId>{slot}, 1);
    const query::RegionSignature residue = range_of(100, 300);
    ASSERT_TRUE(f.store.provably_empty(empty,
                                       f.store.containing_slots(residue)));

    const sim::CommSummary before = f.net.summary(true);
    const auto got =
        collect_once(f.store, std::vector{residue}, sketch, kBound, 0x7C00);
    const sim::CommSummary after = f.net.summary(true);
    // The pruned edge sent no request, so nothing below it answered.
    const std::uint64_t reached = f.tree.node_count() - f.subtree_size(empty);
    EXPECT_EQ(got.edges_pruned, 1u);
    EXPECT_EQ(got.edges_descended, reached - 1);
    EXPECT_EQ(after.total_messages - before.total_messages, 2 * (reached - 1));
    if (sketch) {
      EXPECT_TRUE(got.hlls[0] == f.oracle_hll(residue));
    } else {
      EXPECT_EQ(got.bundles[0], f.oracle_bundle(residue));
    }

    // A reading below the edge changes: the proof lapses and the edge is
    // collected again, still exactly.
    f.net.update_item(below.back(), 0, 200);
    const std::vector<NodeId> touched{below.back()};
    f.dirty.note_updates(touched, 2);
    EXPECT_FALSE(f.store.provably_empty(empty,
                                        f.store.containing_slots(residue)));
    const auto again =
        collect_once(f.store, std::vector{residue}, sketch, kBound, 0x7C01);
    EXPECT_GT(again.edges_descended, got.edges_descended);
    if (sketch) {
      EXPECT_TRUE(again.hlls[0] == f.oracle_hll(residue));
    } else {
      EXPECT_EQ(again.bundles[0], f.oracle_bundle(residue));
    }
  }
}

/// One epoch of drift: `count` random nodes take a new random reading; the
/// dirty tracker hears of each.
void drift(Fixture& f, Xoshiro256& rng, std::size_t count,
           std::uint32_t epoch) {
  std::vector<NodeId> touched;
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(f.net.node_count()));
    f.net.update_item(u, 0, static_cast<Value>(rng.next_below(kBound + 1)));
    touched.push_back(u);
  }
  f.dirty.note_updates(touched, epoch);
}

TEST(Collect, AStatsSlotSendsNoHllBitsInASketchKeepingStore) {
  // The same stats slots over the same drift, in a store that keeps
  // sketches and in one that does not: every collect sends the same bits.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Fixture with(seed, kRegisters);
    Fixture without(seed, 0);
    Xoshiro256 rng(seed);
    std::vector<SlotId> slots;
    for (const auto& region : random_ranges(rng)) {
      const auto session = 0x7800 + static_cast<std::uint32_t>(slots.size());
      slots.push_back(with.store.add_slot(region, session));
      ASSERT_EQ(without.store.add_slot(region, session), slots.back());
    }
    Xoshiro256 drift_with(seed + 1), drift_without(seed + 1);
    for (std::uint32_t epoch = 1; epoch <= 4; ++epoch) {
      if (epoch > 1) {
        drift(with, drift_with, 5, epoch);
        drift(without, drift_without, 5, epoch);
      }
      collect(with.store, slots, epoch);
      collect(without.store, slots, epoch);
      EXPECT_EQ(with.net.summary(true).total_bits,
                without.net.summary(true).total_bits)
          << "seed " << seed << " epoch " << epoch;
      for (const SlotId s : slots) {
        EXPECT_EQ(with.store.root(s), with.oracle_bundle(with.store.region(s)));
      }
    }
  }
}

TEST(Collect, AMixedWaveIsExactAndItsSharesSumToTheWave) {
  // Stats and HLL-only sketch slots ride one wave; over incremental drift
  // the stats roots equal the oracle bundles, the sketch roots reproduce
  // the oracle's registers, and the shares account for every bit.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fixture f(seed, kRegisters);
    Xoshiro256 rng(seed * 7);
    std::vector<SlotId> slots;
    for (const auto& region : random_ranges(rng)) {
      slots.push_back(f.store.add_slot(
          region, 0x7800 + static_cast<std::uint32_t>(slots.size()),
          rng.next_below(2) == 0));
    }
    for (std::uint32_t epoch = 1; epoch <= 5; ++epoch) {
      if (epoch > 1) drift(f, rng, 4, epoch);
      const sim::CommSummary before = f.net.summary(true);
      const std::vector<WaveShare> shares = collect(f.store, slots, epoch);
      const sim::CommSummary after = f.net.summary(true);
      std::uint64_t bits = 0;
      std::uint64_t messages = 0;
      for (const WaveShare& share : shares) {
        EXPECT_TRUE(share.collected);
        bits += share.bits;
        messages += share.messages;
      }
      EXPECT_EQ(bits, after.total_bits - before.total_bits);
      EXPECT_EQ(messages, after.total_messages - before.total_messages);
      for (const SlotId s : slots) {
        const query::RegionSignature& region = f.store.region(s);
        if (f.store.sketch(s)) {
          EXPECT_TRUE(f.store.root_hll(s) == f.oracle_hll(region))
              << "seed " << seed << " epoch " << epoch << " slot " << s;
        } else {
          EXPECT_EQ(f.store.root(s), f.oracle_bundle(region))
              << "seed " << seed << " epoch " << epoch << " slot " << s;
        }
      }
    }
  }
}

TEST(Collect, AReleasedSlotIsCollectedAfreshAndExactly) {
  Fixture f(3, kRegisters);
  Fixture cold(3, kRegisters);  // the same slots, never collected
  const SlotId stats = f.store.add_slot(range_of(100, 700), 0x7800);
  const SlotId hll = f.store.add_slot(range_of(100, 700), 0x7801, true);
  ASSERT_EQ(cold.store.add_slot(range_of(100, 700), 0x7800), stats);
  ASSERT_EQ(cold.store.add_slot(range_of(100, 700), 0x7801, true), hll);
  const std::vector<SlotId> slots{stats, hll};
  collect(f.store, slots, 1);
  const std::uint64_t descended = f.store.edges_descended();
  for (const SlotId s : slots) {
    f.store.release(s);
    EXPECT_FALSE(f.store.has_edges(s));
    EXPECT_EQ(f.store.epoch(s), DirtyTracker::kInvalidEpoch);
  }
  // A released slot proves nothing empty, and its next collect descends
  // every edge again with full images: the bits of a first collection, no
  // delta image.
  EXPECT_TRUE(f.store.containing_slots(range_of(200, 300)).empty());
  const std::uint64_t bits = f.net.summary(true).total_bits;
  collect(f.store, slots, 2);
  collect(cold.store, slots, 2);
  EXPECT_EQ(f.store.edges_descended() - descended,
            2 * (f.tree.node_count() - 1));
  EXPECT_EQ(f.net.summary(true).total_bits - bits,
            cold.net.summary(true).total_bits);
  EXPECT_EQ(f.store.delta_image_bits(), 0u);
  EXPECT_EQ(f.store.hll_delta_image_bits(), 0u);
  EXPECT_EQ(f.store.root(stats), f.oracle_bundle(range_of(100, 700)));
  EXPECT_TRUE(f.store.root_hll(hll) == f.oracle_hll(range_of(100, 700)));
}

/// One epoch of small drift: `count` random nodes move their first reading
/// by at most 8, within [0, kBound].
void nudge(Fixture& f, Xoshiro256& rng, std::size_t count,
           std::uint32_t epoch) {
  std::vector<NodeId> touched;
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(f.net.node_count()));
    const Value v =
        f.net.items(u)[0] + 8 - static_cast<Value>(rng.next_below(17));
    f.net.update_item(u, 0, std::clamp<Value>(v, 0, kBound));
    touched.push_back(u);
  }
  f.dirty.note_updates(touched, epoch);
}

/// Stats, whole-domain stats and HLL-only slots over overlapping ranges.
std::vector<SlotId> mixed_slots(Fixture& f) {
  std::vector<SlotId> slots;
  slots.push_back(f.store.add_slot(range_of(100, 700), 0x7800));
  slots.push_back(f.store.add_slot(range_of(0, kBound), 0x7801));
  slots.push_back(f.store.add_slot(range_of(300, 900), 0x7802));
  slots.push_back(f.store.add_slot(range_of(100, 700), 0x7803, true));
  return slots;
}

void expect_exact_roots(const Fixture& f, std::span<const SlotId> slots) {
  for (const SlotId s : slots) {
    const query::RegionSignature& region = f.store.region(s);
    if (f.store.sketch(s)) {
      EXPECT_TRUE(f.store.root_hll(s) == f.oracle_hll(region)) << "slot " << s;
    } else {
      EXPECT_EQ(f.store.root(s), f.oracle_bundle(region)) << "slot " << s;
    }
  }
}

/// The full and the delta image of a stats slot's subtree bundle at `child`
/// (as the oracle computes it) against the edge's partial.
struct ImageSizes {
  std::size_t full = 0;
  std::size_t delta = 0;
};

/// The nodes of `child`'s subtree.
std::vector<NodeId> subtree(const Fixture& f, NodeId child) {
  std::vector<NodeId> below{child};
  for (std::size_t i = 0; i < below.size(); ++i) {
    for (const NodeId c : f.tree.children[below[i]]) below.push_back(c);
  }
  return below;
}

/// A sketch slot's HLL over `child`'s subtree, as the oracle computes it.
sketch::Hll subtree_hll(const Fixture& f, SlotId s, NodeId child) {
  sketch::Hll h = f.store.empty_hll();
  for (const NodeId u : subtree(f, child)) {
    h.merge(f.store.local_hll(u, f.store.region(s))).value();
  }
  return h;
}

std::vector<std::uint8_t> encoded(const sketch::Hll& h) {
  BitWriter w;
  h.encode(w);
  return {w.bytes().begin(), w.bytes().end()};
}

ImageSizes image_sizes(const Fixture& f, SlotId s, NodeId child) {
  StatsBundle b;
  for (const NodeId u : subtree(f, child)) {
    b.combine(f.store.local_bundle(u, f.store.region(s)));
  }
  const bool whole = f.store.region(s).whole_domain;
  BitWriter full;
  encode_stats_image(full, b, whole);
  BitWriter delta;
  encode_stats_delta(delta, f.store.edge_bundle(s, child), b, whole, kMargin);
  return {full.bit_count(), delta.bit_count()};
}

TEST(Collect, StaleEdgesSendDeltaImagesAndStayExact) {
  // Repeated rounds of small drift on a mixed stats and HLL wave: the first
  // collect is cold (full images only); every later one sends delta images
  // on its stale edges, shorter in sum than the same images in full, and
  // every root stays exact.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Fixture f(seed, kRegisters);
    Xoshiro256 rng(seed * 13);
    const std::vector<SlotId> slots = mixed_slots(f);
    collect(f.store, slots, 1);
    EXPECT_EQ(f.store.delta_image_bits(), 0u);
    EXPECT_EQ(f.store.delta_image_full_bits(), 0u);
    expect_exact_roots(f, slots);
    for (std::uint32_t epoch = 2; epoch <= 10; ++epoch) {
      nudge(f, rng, 6, epoch);
      const std::uint64_t delta = f.store.delta_image_bits();
      const sim::CommSummary before = f.net.summary(true);
      const std::vector<WaveShare> shares = collect(f.store, slots, epoch);
      const sim::CommSummary after = f.net.summary(true);
      EXPECT_GT(f.store.delta_image_bits(), delta) << "epoch " << epoch;
      std::uint64_t bits = 0;
      for (const WaveShare& share : shares) bits += share.bits;
      EXPECT_EQ(bits, after.total_bits - before.total_bits);
      expect_exact_roots(f, slots);
    }
    EXPECT_LT(f.store.delta_image_bits(), f.store.delta_image_full_bits());
  }
}

TEST(Collect, ALostMessageResyncsTheUnansweredEdges) {
  // A wave loses messages and throws; its shares still sum to the bits and
  // messages it sent. Every edge it left unanswered is marked; the retry's
  // request on such an edge carries resync, so the child answers with full
  // images even though the edge holds a partial, and the roots come out
  // exact.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fixture f(seed, kRegisters);
    Xoshiro256 rng(seed * 17);
    const std::vector<SlotId> slots = mixed_slots(f);
    collect(f.store, slots, 1);
    nudge(f, rng, 40, 2);
    f.net.set_message_loss(0.2);
    const sim::CommSummary before = f.net.summary(true);
    std::vector<WaveShare> shares;
    EXPECT_THROW(f.store.collect(slots, 2, shares), ProtocolError);
    const sim::CommSummary after = f.net.summary(true);
    std::uint64_t bits = 0;
    std::uint64_t messages = 0;
    for (const WaveShare& share : shares) {
      bits += share.bits;
      messages += share.messages;
      EXPECT_FALSE(share.collected);
    }
    EXPECT_EQ(bits, after.total_bits - before.total_bits);
    EXPECT_EQ(messages, after.total_messages - before.total_messages);
    f.net.set_message_loss(0.0);

    // The deepest unanswered edge whose images differ in full and as
    // deltas, so the size on the wire tells which was sent.
    std::optional<NodeId> edge;
    for (NodeId c = 0; c < f.tree.node_count(); ++c) {
      if (!f.store.edge_unanswered(slots[0], c)) continue;
      bool telling = true;
      for (const SlotId s : slots) {
        EXPECT_TRUE(f.store.edge_unanswered(s, c));
        ASSERT_NE(f.store.edge_epoch(s, c), DirtyTracker::kInvalidEpoch);
        if (f.store.sketch(s)) continue;
        const ImageSizes sizes = image_sizes(f, s, c);
        telling = telling && sizes.full != sizes.delta;
      }
      if (telling) edge = c;
    }
    if (!edge) continue;
    // The sketch slot is marked too: it answers with its full HLL image.
    BitWriter hll_image;
    subtree_hll(f, slots[3], *edge).encode(hll_image);
    // Mask (4 bits) and resync bit, then every image in full.
    std::size_t expected = slots.size() + 1 + hll_image.bit_count();
    for (const SlotId s : slots) {
      if (!f.store.sketch(s)) expected += image_sizes(f, s, *edge).full;
    }

    f.net.watch_edge(f.tree.parent[*edge], *edge);
    collect(f.store, slots, 2);
    EXPECT_EQ(f.net.watched_edge_bits(), expected) << "seed " << seed;
    for (const SlotId s : slots) {
      EXPECT_FALSE(f.store.edge_unanswered(s, *edge));
    }
    expect_exact_roots(f, slots);
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

TEST(Collect, StaleSketchEdgesSendDeltaImagesAndStayExact) {
  // Sketch slots beside a stats slot over rounds of small drift: after the
  // cold first collect, every stale sketch edge is rebuilt from an HLL
  // delta image. Each edge HLL then encodes byte-identically to the child's
  // subtree HLL, the roots stay exact, and the delta images take fewer bits
  // than the same images in full.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Fixture f(seed, kRegisters);
    Xoshiro256 rng(seed * 19);
    const std::vector<SlotId> sketches{
        f.store.add_slot(range_of(100, 700), 0x7800, true),
        f.store.add_slot(range_of(0, kBound), 0x7801, true)};
    std::vector<SlotId> slots = sketches;
    slots.push_back(f.store.add_slot(range_of(300, 900), 0x7802));
    collect(f.store, slots, 1);
    EXPECT_EQ(f.store.hll_delta_image_bits(), 0u);
    EXPECT_EQ(f.store.hll_delta_image_full_bits(), 0u);
    for (std::uint32_t epoch = 2; epoch <= 10; ++epoch) {
      nudge(f, rng, 6, epoch);
      const std::uint64_t delta = f.store.hll_delta_image_bits();
      collect(f.store, slots, epoch);
      EXPECT_GT(f.store.hll_delta_image_bits(), delta) << "epoch " << epoch;
      for (const SlotId s : sketches) {
        for (NodeId c = 0; c < f.tree.node_count(); ++c) {
          if (c == f.tree.root) continue;
          ASSERT_EQ(encoded(f.store.edge_hll(s, c)),
                    encoded(subtree_hll(f, s, c)))
              << "seed " << seed << " epoch " << epoch << " edge " << c;
        }
      }
      expect_exact_roots(f, slots);
    }
    EXPECT_LT(f.store.hll_delta_image_bits(),
              f.store.hll_delta_image_full_bits());

    // Stale edges whose HLLs did not change: one bit per image.
    std::vector<NodeId> touched;
    for (NodeId u = 1; u < f.net.node_count(); u += 9) touched.push_back(u);
    f.dirty.note_updates(touched, 11);
    const std::uint64_t descended = f.store.edges_descended();
    const std::uint64_t delta = f.store.hll_delta_image_bits();
    collect(f.store, sketches, 11);
    const std::uint64_t images = f.store.edges_descended() - descended;
    EXPECT_GT(images, 0u);
    EXPECT_LE(f.store.hll_delta_image_bits() - delta, 2 * images);
    expect_exact_roots(f, sketches);
  }
  const Fixture g(5, kRegisters);
  const sketch::Hll h = g.oracle_hll(range_of(0, kBound));
  BitWriter unchanged;
  encode_hll_delta(unchanged, h, h);
  EXPECT_LE(unchanged.bit_count(), 2u);
}

TEST(Collect, ALostMessageResyncsTheUnansweredSketchEdges) {
  // A wave of one sketch slot loses messages and throws. The retry's
  // request on an edge left unanswered carries resync, so the child sends
  // its full HLL image although the edge holds a partial, and the root HLL
  // equals a one-shot oracle HLL.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fixture f(seed, kRegisters);
    Xoshiro256 rng(seed * 23);
    const SlotId s = f.store.add_slot(range_of(100, 700), 0x7800, true);
    const std::vector<SlotId> slots{s};
    collect(f.store, slots, 1);
    nudge(f, rng, 40, 2);
    f.net.set_message_loss(0.2);
    EXPECT_THROW(collect(f.store, slots, 2), ProtocolError);
    f.net.set_message_loss(0.0);

    // The deepest unanswered edge whose HLL image differs in full and as a
    // delta, so the size on the wire tells which was sent.
    std::optional<NodeId> edge;
    std::size_t full_bits = 0;
    for (NodeId c = 0; c < f.tree.node_count(); ++c) {
      if (!f.store.edge_unanswered(s, c)) continue;
      ASSERT_NE(f.store.edge_epoch(s, c), DirtyTracker::kInvalidEpoch);
      const sketch::Hll h = subtree_hll(f, s, c);
      BitWriter full;
      h.encode(full);
      BitWriter delta;
      encode_hll_delta(delta, f.store.edge_hll(s, c), h);
      if (full.bit_count() == delta.bit_count()) continue;
      edge = c;
      full_bits = full.bit_count();
    }
    if (!edge) continue;

    f.net.watch_edge(f.tree.parent[*edge], *edge);
    collect(f.store, slots, 2);
    // Mask (1 bit) and resync bit, then the full HLL image.
    EXPECT_EQ(f.net.watched_edge_bits(), 2 + full_bits) << "seed " << seed;
    EXPECT_FALSE(f.store.edge_unanswered(s, *edge));
    EXPECT_TRUE(f.store.root_hll(s) == f.oracle_hll(range_of(100, 700)))
        << "seed " << seed;
    EXPECT_EQ(encoded(f.store.root_hll(s)),
              encoded(f.oracle_hll(range_of(100, 700))));
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

}  // namespace
}  // namespace sensornet::cube
