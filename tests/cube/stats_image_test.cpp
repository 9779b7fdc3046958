// The stats image is the response of every ranged collection: a full core
// RangeStats, then the inner and outer as deltas against it. These tests
// round-trip images of bundles built the way collections build them —
// PartialStore::local_bundle per node, combined up the tree — over random
// regions and margins, and pin the image's size against the plain
// three-RangeStats encoding. A stale edge's delta image codes the bundle
// against the edge's previous one: the StatsDeltaImage tests round-trip
// pairs taken before and after drift, unrelated pairs, bundles on the
// Value rails and 10,000 random nested pairs (every proper prefix of an
// image rejected, every bit flip rejected or decoded to a well-formed
// bundle), and pin what an unchanged bundle and a riding margin cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/cube/partials.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"

namespace sensornet::cube {
namespace {

constexpr Value kBound = 1000;

/// A 6x6 grid whose nodes hold one to four readings each; readings at 0
/// and at the bound are common, so clamped margins see real data.
struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  DirtyTracker dirty;

  explicit Fixture(std::uint64_t seed)
      : net(net::make_grid(6, 6), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        dirty(net, tree) {
    Xoshiro256 rng(seed);
    for (NodeId u = 0; u < net.node_count(); ++u) {
      ValueSet items(1 + rng.next_below(4));
      for (Value& v : items) {
        switch (rng.next_below(8)) {
          case 0: v = 0; break;
          case 1: v = kBound; break;
          default: v = static_cast<Value>(rng.next_below(kBound + 1));
        }
      }
      net.set_items(u, items);
    }
  }

  /// Every node's subtree bundle over `region`, as a collection forms it
  /// when the node responds: its local bundle plus its children's.
  std::vector<StatsBundle> subtree_bundles(
      const PartialStore& store, const query::RegionSignature& region) const {
    std::vector<StatsBundle> out(net.node_count());
    fill(store, region, tree.root, out);
    return out;
  }

 private:
  void fill(const PartialStore& store, const query::RegionSignature& region,
            NodeId node, std::vector<StatsBundle>& out) const {
    out[node] = store.local_bundle(node, region);
    for (const NodeId child : tree.children[node]) {
      fill(store, region, child, out);
      out[node].combine(out[child]);
    }
  }
};

query::RegionSignature region_of(Value lo, Value hi) {
  return {lo, hi, lo == 0 && hi == kBound};
}

/// Encodes `b`, checks it decodes back exactly with no bits left over and
/// that stats_image_bits() measures it, and returns the image's length in
/// bits.
std::size_t round_trip(const StatsBundle& b, bool whole_domain) {
  BitWriter w;
  encode_stats_image(w, b, whole_domain);
  BitReader r(w.bytes().data(), w.bit_count());
  EXPECT_EQ(decode_stats_image(r, whole_domain), b);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(stats_image_bits(b, whole_domain), w.bit_count());
  return w.bit_count();
}

/// Codes `b` as a delta image against `base` at `margin`, checks it decodes
/// back exactly with no bits left over, and returns its length in bits.
std::size_t delta_round_trip(const StatsBundle& base, const StatsBundle& b,
                             bool whole_domain, Value margin) {
  BitWriter w;
  encode_stats_delta(w, base, b, whole_domain, margin);
  BitReader r(w.bytes().data(), w.bit_count());
  EXPECT_EQ(decode_stats_delta(r, base, whole_domain, margin), b);
  EXPECT_EQ(r.remaining(), 0u);
  return w.bit_count();
}

/// How often a pair moves one of its ranges between empty and non-empty.
struct Moves {
  int filled = 0;   // a range was empty in the baseline, is not now
  int emptied = 0;  // ... the reverse
};

void tally_moves(const StatsBundle& base, const StatsBundle& b, Moves& m) {
  for (const auto& [was, now] : {std::pair{&base.core, &b.core},
                                 std::pair{&base.inner, &b.inner},
                                 std::pair{&base.outer, &b.outer}}) {
    if (was->count == 0 && now->count > 0) ++m.filled;
    if (was->count > 0 && now->count == 0) ++m.emptied;
  }
}

/// Length of the same bundle as three plain RangeStats.
std::size_t three_stats_bits(const StatsBundle& b) {
  BitWriter w;
  encode_range_stats(w, b.core);
  encode_range_stats(w, b.inner);
  encode_range_stats(w, b.outer);
  return w.bit_count();
}

/// Which of the image's special shapes a bundle exercises.
struct Shapes {
  int empty_inner = 0;       // core non-empty, inner empty
  int empty_core = 0;        // core empty, outer non-empty
  int empty_outer = 0;       // nothing within the margin at all
  int full_margins = 0;      // inner and core non-empty, outer wider
};

void tally(const StatsBundle& b, Shapes& s) {
  if (b.core.count > 0 && b.inner.count == 0) ++s.empty_inner;
  if (b.core.count == 0 && b.outer.count > 0) ++s.empty_core;
  if (b.outer.count == 0) ++s.empty_outer;
  if (b.inner.count > 0 && b.outer.count > b.core.count) ++s.full_margins;
}

TEST(StatsImage, RandomRegionsAndMarginsRoundTrip) {
  // Per margin, the images of every sweep region together are no longer
  // than the plain encoding. (One image can be: see
  // AnEmptyInnerCanOutgrowThePlainEncoding.)
  Shapes shapes;
  for (const Value margin : {0, 1, 7, 32, 250}) {
    std::size_t delta_bits = 0;
    std::size_t plain_bits = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Fixture f(seed);
      Xoshiro256 rng(100 + seed);
      const PartialStore store(f.net, f.tree, f.dirty, margin);
      for (int t = 0; t < 30; ++t) {
        const auto lo = static_cast<Value>(rng.next_below(kBound + 1));
        const auto hi =
            lo + static_cast<Value>(rng.next_below(kBound - lo + 1));
        const query::RegionSignature region = region_of(lo, hi);
        SCOPED_TRACE(testing::Message() << "seed " << seed << " margin "
                                        << margin << " [" << lo << ", " << hi
                                        << "]");
        for (const StatsBundle& b : f.subtree_bundles(store, region)) {
          delta_bits += round_trip(b, region.whole_domain);
          plain_bits += three_stats_bits(b);
          tally(b, shapes);
        }
      }
    }
    EXPECT_LT(delta_bits, plain_bits) << "margin " << margin;
  }
  EXPECT_GT(shapes.empty_inner, 0);
  EXPECT_GT(shapes.empty_core, 0);
  EXPECT_GT(shapes.empty_outer, 0);
  EXPECT_GT(shapes.full_margins, 0);
}

TEST(StatsImage, EdgeShapesRoundTrip) {
  Fixture f(9);
  const PartialStore store(f.net, f.tree, f.dirty, 32);
  // Narrow regions, lo + m > hi - m: the inner region is empty.
  // Regions clamped at 0 and at the bound: the outer region is cut short.
  // Short gaps between readings: an empty core inside a non-empty outer.
  std::vector<query::RegionSignature> regions = {
      region_of(500, 520), region_of(0, 40),   region_of(0, 0),
      region_of(960, kBound), region_of(kBound, kBound), region_of(0, 63),
      region_of(937, kBound), region_of(1, kBound - 1)};
  for (Value lo = 0; lo + 3 <= kBound; lo += 97) {
    regions.push_back(region_of(lo, lo + 3));  // mostly gaps
  }
  Shapes shapes;
  for (const query::RegionSignature& region : regions) {
    SCOPED_TRACE(testing::Message() << "[" << region.lo << ", " << region.hi
                                    << "]");
    for (const StatsBundle& b : f.subtree_bundles(store, region)) {
      round_trip(b, region.whole_domain);
      tally(b, shapes);
    }
  }
  EXPECT_GT(shapes.empty_inner, 0);
  EXPECT_GT(shapes.empty_core, 0);
  EXPECT_GT(shapes.full_margins, 0);

  // Hand-built extremes: a reading at the largest Value, an outer that only
  // exists around an empty core, and an empty bundle.
  StatsBundle top;
  top.core.observe(std::numeric_limits<Value>::max());
  top.inner = top.core;
  top.outer = top.core;
  top.outer.observe(0);
  round_trip(top, false);
  StatsBundle gap;
  gap.outer.observe(3);
  gap.outer.observe(kBound);
  round_trip(gap, false);
  round_trip(StatsBundle{}, false);
}

TEST(StatsImage, AnEmptyInnerCanOutgrowThePlainEncoding) {
  // Seven readings at 0 in [0, 3] with margin 32: the inner region is
  // empty, so its count delta restates the core's count (8 bits) where the
  // plain encoding spent one bit on a zero count. The outer's count delta
  // wins back only 4 of those 7 bits: the image is 3 bits longer.
  StatsBundle b;
  for (int i = 0; i < 7; ++i) b.core.observe(0);
  b.outer = b.core;
  b.outer.observe(30);
  EXPECT_EQ(round_trip(b, false), three_stats_bits(b) + 3);
}

TEST(StatsImage, WholeDomainImageIsTheCoreRangeStats) {
  Fixture f(3);
  const PartialStore store(f.net, f.tree, f.dirty, 32);
  for (const StatsBundle& b :
       f.subtree_bundles(store, region_of(0, kBound))) {
    BitWriter image;
    encode_stats_image(image, b, true);
    BitWriter core;
    encode_range_stats(core, b.core);
    ASSERT_EQ(image.bit_count(), core.bit_count());
    EXPECT_TRUE(std::ranges::equal(image.bytes(), core.bytes()));
    round_trip(b, true);
  }
}

TEST(StatsImage, QuietMarginsCostOneBitPerDelta) {
  // At margin 0, inner == core == outer: each of them costs four zero
  // deltas of one bit (count, sum, min, max) on top of the core.
  Fixture f(5);
  const PartialStore store(f.net, f.tree, f.dirty, 0);
  const StatsBundle b = f.subtree_bundles(store, region_of(100, 900))[0];
  ASSERT_GT(b.core.count, 0u);
  ASSERT_EQ(b.inner, b.core);
  ASSERT_EQ(b.outer, b.core);
  BitWriter core;
  encode_range_stats(core, b.core);
  EXPECT_EQ(round_trip(b, false), core.bit_count() + 8);
}

TEST(StatsDeltaImage, PairsAcrossDriftRoundTrip) {
  // Each node's subtree bundle before and after a few readings drift by a
  // little, and against an unrelated node's old bundle: every pair decodes
  // to exactly the new bundle. Drift-sized moves cost less than the full
  // images they replace.
  Moves moves;
  for (const Value margin : {0, 7, 32}) {
    std::size_t delta_bits = 0;
    std::size_t full_bits = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Fixture f(seed);
      Xoshiro256 rng(200 + seed);
      const PartialStore store(f.net, f.tree, f.dirty, margin);
      for (int t = 0; t < 20; ++t) {
        const auto lo = t % 5 == 0
                            ? Value{0}
                            : static_cast<Value>(rng.next_below(kBound + 1));
        const auto hi =
            t % 5 == 0
                ? kBound
                : lo + static_cast<Value>(rng.next_below(kBound - lo + 1));
        const query::RegionSignature region = region_of(lo, hi);
        SCOPED_TRACE(testing::Message() << "seed " << seed << " margin "
                                        << margin << " [" << lo << ", " << hi
                                        << "]");
        const std::vector<StatsBundle> before =
            f.subtree_bundles(store, region);
        for (int d = 0; d < 6; ++d) {
          const auto u = static_cast<NodeId>(
              rng.next_below(f.net.node_count()));
          const Value v = f.net.items(u)[0] + 12 -
                          static_cast<Value>(rng.next_below(25));
          f.net.update_item(u, 0, std::clamp<Value>(v, 0, kBound));
        }
        const std::vector<StatsBundle> after = f.subtree_bundles(store, region);
        for (NodeId u = 0; u < f.net.node_count(); ++u) {
          delta_bits += delta_round_trip(before[u], after[u],
                                         region.whole_domain, margin);
          full_bits += round_trip(after[u], region.whole_domain);
          tally_moves(before[u], after[u], moves);
          const auto other =
              static_cast<NodeId>(rng.next_below(f.net.node_count()));
          delta_round_trip(before[other], after[u], region.whole_domain,
                           margin);
          tally_moves(before[other], after[u], moves);
        }
      }
    }
    EXPECT_LT(delta_bits, full_bits) << "margin " << margin;
  }
  EXPECT_GT(moves.filled, 0);
  EXPECT_GT(moves.emptied, 0);
}

TEST(StatsDeltaImage, ValueRailsRoundTrip) {
  // Every ordered pair of bundles whose readings sit at 0 and at the
  // largest Value, empty ones included, ranged and (margins collapsed)
  // whole-domain.
  constexpr Value kTop = std::numeric_limits<Value>::max();
  std::vector<StatsBundle> ranged;
  std::vector<StatsBundle> whole;
  for (const std::vector<Value>& core :
       {std::vector<Value>{}, {0}, {kTop}, {0, kTop}, {0, 0, 0}}) {
    StatsBundle b;
    for (const Value v : core) b.core.observe(v);
    b.inner = b.core;
    b.outer = b.core;
    whole.push_back(b);
    ranged.push_back(b);
    b.inner = RangeStats{};  // no reading surely inside
    ranged.push_back(b);
    if (b.core.count == 0 || b.core.min > 0) {
      b.outer.observe(0);  // an outer that reaches below the core
      ranged.push_back(b);
    }
  }
  // Margins up to the largest Value let the rails' margins ride the core.
  for (const Value margin : {Value{0}, Value{1}, kTop}) {
    for (const StatsBundle& base : ranged) {
      for (const StatsBundle& b : ranged) {
        delta_round_trip(base, b, false, margin);
      }
    }
    for (const StatsBundle& base : whole) {
      for (const StatsBundle& b : whole) {
        delta_round_trip(base, b, true, margin);
      }
    }
  }
}

TEST(StatsDeltaImage, AnUnchangedBundleCostsThreeBits) {
  // Zero count and sum changes (a bit each), then the bit that says
  // nothing else moved: 3 bits, ranged or whole-domain. An empty core has
  // no sum (2 bits), and an empty whole-domain core has nothing else that
  // could move (1 bit).
  Fixture f(5);
  const PartialStore store(f.net, f.tree, f.dirty, 32);
  const StatsBundle b = f.subtree_bundles(store, region_of(100, 900))[0];
  ASSERT_GT(b.inner.count, 0u);
  EXPECT_EQ(delta_round_trip(b, b, false, 32), 3u);
  const StatsBundle whole =
      f.subtree_bundles(store, region_of(0, kBound))[0];
  EXPECT_EQ(delta_round_trip(whole, whole, true, 32), 3u);
  EXPECT_EQ(delta_round_trip(StatsBundle{}, StatsBundle{}, false, 32), 2u);
  EXPECT_EQ(delta_round_trip(StatsBundle{}, StatsBundle{}, true, 32), 1u);
  // Read as whole-domain, an unchanged image of a ranged baseline still
  // collapses the margins onto the core.
  BitWriter w;
  encode_stats_delta(w, b, b, true, 32);
  BitReader r(w.bytes().data(), w.bit_count());
  const StatsBundle got = decode_stats_delta(r, b, true, 32);
  EXPECT_EQ(got.core, b.core);
  EXPECT_EQ(got.inner, b.core);
  EXPECT_EQ(got.outer, b.core);
}

TEST(StatsDeltaImage, MarginsThatMoveWithTheCoreCostOneBitEach) {
  // One reading well inside the region drifts up by 2: core, inner and
  // outer each gain 2 in sum. The core sends count 0 (1 bit), sum +2 (5
  // bits) and two zero rail changes (2 bits); each margin then rides on a
  // single bit. Coded as three independent changes it takes 24 bits.
  // The outer band holds two more readings, 90 and 900.
  const auto bundle = [](std::initializer_list<Value> core) {
    StatsBundle b;
    for (const Value v : core) b.core.observe(v);
    b.inner = b.core;
    b.outer = b.core;
    b.outer.observe(90);
    b.outer.observe(900);
    return b;
  };
  const StatsBundle base = bundle({200, 500, 800});
  EXPECT_EQ(delta_round_trip(base, bundle({200, 502, 800}), false, 32), 10u);
  // At a margin below the move there are no ride bits.
  EXPECT_EQ(delta_round_trip(base, bundle({200, 502, 800}), false, 1), 24u);
  // The core's max drifts by 2: the core sends count 0, sum +2, min 0 and
  // max +2 (12 bits); the inner rides (1 bit); the outer, whose max is 900,
  // declines (1 bit) and sends count 0, sum +2, min 0 and max 0 (8 bits).
  EXPECT_EQ(delta_round_trip(base, bundle({200, 500, 802}), false, 32), 22u);
}

/// The bundle of `readings` over [lo, hi] at `margin`, as local_bundle
/// forms it; over the whole domain the margins collapse onto the core.
StatsBundle bundle_over(const std::vector<Value>& readings, Value lo,
                        Value hi, Value margin, bool whole_domain) {
  StatsBundle b;
  for (const Value v : readings) {
    if (whole_domain || (v >= lo && v <= hi)) b.core.observe(v);
    if (v >= lo + margin && v <= hi - margin) b.inner.observe(v);
    if (v >= lo - margin && v <= hi + margin) b.outer.observe(v);
  }
  if (whole_domain) {
    b.inner = b.core;
    b.outer = b.core;
  }
  return b;
}

/// A random (base, next) pair of nested bundles over one region: a few
/// readings in [0, 200], each of which may drift by up to twice the margin,
/// leave or arrive; now and then nothing moves at all.
struct Pair {
  StatsBundle base;
  StatsBundle next;
  bool whole_domain = false;
  Value margin = 0;
};

Pair random_pair(Xoshiro256& rng) {
  constexpr std::array<Value, 5> kMargins = {0, 1, 4, 16, 64};
  Pair p;
  p.margin = kMargins[rng.next_below(kMargins.size())];
  p.whole_domain = rng.next_below(4) == 0;
  const auto lo = static_cast<Value>(rng.next_below(201));
  const auto hi = lo + static_cast<Value>(rng.next_below(201 - lo));
  std::vector<Value> readings(rng.next_below(9));
  for (Value& v : readings) v = static_cast<Value>(rng.next_below(201));
  p.base = bundle_over(readings, lo, hi, p.margin, p.whole_domain);
  if (rng.next_below(8) != 0) {
    const auto reach = static_cast<std::uint64_t>(2 * p.margin + 2);
    for (Value& v : readings) {
      if (rng.next_below(2) != 0) continue;
      v += static_cast<Value>(rng.next_below(2 * reach + 1)) -
           static_cast<Value>(reach);
      v = std::max<Value>(v, 0);
    }
    if (!readings.empty() && rng.next_below(6) == 0) readings.pop_back();
    if (rng.next_below(6) == 0) {
      readings.push_back(static_cast<Value>(rng.next_below(201)));
    }
  }
  p.next = bundle_over(readings, lo, hi, p.margin, p.whole_domain);
  return p;
}

/// What a pair exercises, for the coverage checks.
struct PairKinds {
  int unchanged = 0;
  int whole = 0;
  int filled = 0;        // the core was empty and is not now
  int emptied = 0;       // ... the reverse
  int rides = 0;         // a margin moved exactly as the core did
  int declined = 0;      // a margin that could have ridden and did not
  int large_moves = 0;   // both cores non-empty, moved past the margin
};

std::int64_t signed_change(std::uint64_t was, std::uint64_t now) {
  return static_cast<std::int64_t>(now) - static_cast<std::int64_t>(was);
}

void classify(const Pair& p, PairKinds& k) {
  const RangeStats& was = p.base.core;
  const RangeStats& now = p.next.core;
  k.unchanged += p.base == p.next ? 1 : 0;
  k.whole += p.whole_domain ? 1 : 0;
  k.filled += was.count == 0 && now.count > 0 ? 1 : 0;
  k.emptied += was.count > 0 && now.count == 0 ? 1 : 0;
  if (p.whole_domain || was.count == 0 || now.count == 0) return;
  const std::int64_t count = signed_change(was.count, now.count);
  const std::int64_t sum = signed_change(was.sum, now.sum);
  if (std::abs(count) + std::abs(sum) > p.margin) {
    ++k.large_moves;
    return;
  }
  for (const auto& [old, moved] : {std::pair{&p.base.inner, &p.next.inner},
                                   std::pair{&p.base.outer, &p.next.outer}}) {
    if (old->count == 0) continue;
    const bool rode =
        moved->count > 0 &&
        signed_change(old->count, moved->count) == count &&
        signed_change(old->sum, moved->sum) == sum &&
        moved->min - old->min == now.min - was.min &&
        moved->max - old->max == now.max - was.max;
    ++(rode ? k.rides : k.declined);
  }
}

TEST(StatsDeltaImage, RandomNestedPairsRoundTripAndRejectPrefixes) {
  // 10,000 random pairs, ranged and whole-domain: every delta image
  // decodes to exactly the new bundle, every proper prefix of it is a
  // WireFormatError, and inside a response one more bit is rejected too.
  Xoshiro256 rng(2024);
  PairKinds kinds;
  for (int t = 0; t < 10000; ++t) {
    const Pair p = random_pair(rng);
    classify(p, kinds);
    SCOPED_TRACE(testing::Message() << "pair " << t);
    BitWriter w;
    encode_stats_delta(w, p.base, p.next, p.whole_domain, p.margin);
    const std::size_t bits = w.bit_count();
    w.write_bit(false);  // a spare bit past the image
    const std::vector<std::uint8_t> bytes(w.bytes().begin(), w.bytes().end());
    BitReader exact(bytes.data(), bits);
    ASSERT_EQ(decode_stats_delta(exact, p.base, p.whole_domain, p.margin),
              p.next);
    EXPECT_EQ(exact.remaining(), 0u);
    for (std::size_t cut = 0; cut < bits; ++cut) {
      BitReader prefix(bytes.data(), cut);
      EXPECT_THROW(
          (void)decode_stats_delta(prefix, p.base, p.whole_domain, p.margin),
          WireFormatError);
    }
    const std::vector<std::uint8_t> mask = {1};
    const std::vector<ImageShape> shapes = {
        p.whole_domain ? ImageShape::kWholeDomain : ImageShape::kRanged};
    const std::array<Baseline, 1> baselines = {Baseline{.bundle = &p.base}};
    std::vector<StatsBundle> images;
    BitReader response(bytes.data(), bits);
    decode_stats_response(response, mask, shapes, images, nullptr, nullptr,
                          baselines, p.margin);
    EXPECT_EQ(images, std::vector<StatsBundle>{p.next});
    BitReader longer(bytes.data(), bits + 1);
    EXPECT_THROW(decode_stats_response(longer, mask, shapes, images, nullptr,
                                       nullptr, baselines, p.margin),
                 WireFormatError);
  }
  EXPECT_GT(kinds.unchanged, 1000);
  EXPECT_GT(kinds.whole, 1500);
  EXPECT_GT(kinds.filled, 100);
  EXPECT_GT(kinds.emptied, 100);
  EXPECT_GT(kinds.rides, 1000);
  EXPECT_GT(kinds.declined, 200);
  EXPECT_GT(kinds.large_moves, 500);
}

TEST(StatsDeltaImage, BitFlipsDecodeToWellFormedBundlesOrThrow) {
  // Every one-bit corruption of a valid delta image either throws
  // WireFormatError or decodes to a well-formed bundle: non-negative
  // readings, all-zero empty ranges, nested margins (ranged) or margins
  // collapsed onto the core (whole-domain).
  Xoshiro256 rng(77);
  for (int t = 0; t < 400; ++t) {
    const Pair p = random_pair(rng);
    BitWriter w;
    encode_stats_delta(w, p.base, p.next, p.whole_domain, p.margin);
    const std::size_t bits = w.bit_count();
    const std::vector<std::uint8_t> image(w.bytes().begin(), w.bytes().end());
    for (std::size_t flip = 0; flip < bits; ++flip) {
      std::vector<std::uint8_t> corrupted = image;
      corrupted[flip / 8] ^= static_cast<std::uint8_t>(0x80u >> (flip % 8));
      BitReader r(corrupted.data(), bits);
      StatsBundle b;
      try {
        b = decode_stats_delta(r, p.base, p.whole_domain, p.margin);
      } catch (const WireFormatError&) {
        continue;
      }
      for (const RangeStats* rs : {&b.core, &b.inner, &b.outer}) {
        if (rs->count == 0) {
          EXPECT_EQ(*rs, RangeStats{});
        } else {
          EXPECT_GE(rs->min, 0);
          EXPECT_GE(rs->max, rs->min);
        }
      }
      if (p.whole_domain) {
        EXPECT_EQ(b.inner, b.core);
        EXPECT_EQ(b.outer, b.core);
        continue;
      }
      EXPECT_LE(b.inner.count, b.core.count);
      EXPECT_LE(b.core.count, b.outer.count);
      EXPECT_LE(b.inner.sum, b.core.sum);
      EXPECT_LE(b.core.sum, b.outer.sum);
      if (b.inner.count > 0) {
        EXPECT_LE(b.core.min, b.inner.min);
        EXPECT_LE(b.inner.max, b.core.max);
      }
      if (b.core.count > 0) {
        EXPECT_LE(b.outer.min, b.core.min);
        EXPECT_LE(b.core.max, b.outer.max);
      }
    }
  }
}

}  // namespace
}  // namespace sensornet::cube
