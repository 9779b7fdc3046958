#include "src/service/shared_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/net/topology.hpp"

namespace sensornet::service {
namespace {

constexpr Value kBound = 1000;
constexpr Value kDelta = 4;
constexpr std::uint32_t kHorizon = 8;

/// What a collection must return: the bundle computed directly from the
/// installed items, no network involved.
StatsBundle direct_bundle(const sim::Network& net,
                          const query::RegionSignature& region) {
  StatsBundle b;
  const Value margin = static_cast<Value>(kHorizon) * kDelta;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    for (const Value v : net.items(u)) {
      if (region.whole_domain) {
        b.core.observe(v);
        continue;
      }
      if (v >= region.lo && v <= region.hi) b.core.observe(v);
      if (v >= region.lo + margin && v <= region.hi - margin)
        b.inner.observe(v);
      if (v >= region.lo - margin && v <= region.hi + margin)
        b.outer.observe(v);
    }
  }
  if (region.whole_domain) {
    b.inner = b.core;
    b.outer = b.core;
  }
  return b;
}

struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  SharedPlanScheduler sched;

  explicit Fixture(std::uint64_t seed = 7)
      : net(net::make_grid(8, 8), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        sched(net, tree, kBound, kDelta, kHorizon) {
    ValueSet vs(64);
    for (NodeId u = 0; u < 64; ++u) {
      vs[u] = static_cast<Value>((u * 37) % 200);
    }
    net.set_one_item_per_node(vs);
  }
};

/// One epoch of seeded drift: `count` random nodes (repeats collapse) move
/// by +-kDelta within [0, kBound]. Returns the new readings.
std::vector<std::pair<NodeId, Value>> random_drift(Xoshiro256& rng,
                                                   const sim::Network& net,
                                                   std::size_t count) {
  std::vector<std::pair<NodeId, Value>> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(net.node_count()));
    if (std::any_of(out.begin(), out.end(),
                    [u](const auto& p) { return p.first == u; })) {
      continue;
    }
    const Value old = net.items(u)[0];
    const Value v = rng.next_below(2) == 0 ? std::max<Value>(0, old - kDelta)
                                           : std::min(kBound, old + kDelta);
    out.emplace_back(u, v);
  }
  return out;
}

/// Writes `updates` into the fixture's network and ships the dirty marks.
void apply_drift(Fixture& f,
                 const std::vector<std::pair<NodeId, Value>>& updates,
                 std::uint32_t epoch) {
  std::vector<NodeId> touched;
  for (const auto& [u, v] : updates) {
    f.net.update_item(u, 0, v);
    touched.push_back(u);
  }
  f.sched.note_updates(touched, epoch);
}

/// A seeded mix of whole-domain and overlapping ranged regions.
std::vector<query::RegionSignature> random_regions(Xoshiro256& rng,
                                                   std::size_t count) {
  std::vector<query::RegionSignature> out;
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.next_below(3) == 0) {
      out.push_back({0, kBound, true});
      continue;
    }
    const auto lo = static_cast<Value>(rng.next_below(150));
    out.push_back({lo, lo + 20 + static_cast<Value>(rng.next_below(100)),
                   false});
  }
  return out;
}

TEST(SharedPlan, GroupsDeduplicateByRegion) {
  Fixture f;
  const query::RegionSignature a{10, 50, false};
  const query::RegionSignature b{10, 60, false};
  EXPECT_EQ(f.sched.ensure_stats_group(a), f.sched.ensure_stats_group(a));
  EXPECT_NE(f.sched.ensure_stats_group(a), f.sched.ensure_stats_group(b));
  // Distinct groups key on (region, registers): exact and approximate
  // subscribers cannot share a wave.
  EXPECT_EQ(f.sched.ensure_distinct_group(a, 64),
            f.sched.ensure_distinct_group(a, 64));
  EXPECT_NE(f.sched.ensure_distinct_group(a, 64),
            f.sched.ensure_distinct_group(a, 0));
  EXPECT_EQ(f.sched.stats().groups_created, 4u);
}

TEST(SharedPlan, CollectionMatchesDirectComputation) {
  Fixture f;
  for (const query::RegionSignature region :
       {query::RegionSignature{0, kBound, true},
        query::RegionSignature{30, 120, false}}) {
    const GroupId g = f.sched.ensure_stats_group(region);
    EXPECT_EQ(f.sched.collect_stats(g, 0), direct_bundle(f.net, region));
  }
}

TEST(SharedPlan, CollectIsIdempotentWithinEpoch) {
  Fixture f;
  const GroupId g =
      f.sched.ensure_stats_group(query::RegionSignature{0, kBound, true});
  f.sched.collect_stats(g, 0);
  const auto msgs = f.net.summary().total_messages;
  f.sched.collect_stats(g, 0);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
  EXPECT_EQ(f.sched.stats().stats_waves, 1u);
}

TEST(SharedPlan, QuiescentRecollectionIsFree) {
  Fixture f;
  const GroupId g =
      f.sched.ensure_stats_group(query::RegionSignature{0, kBound, true});
  const StatsBundle first = f.sched.collect_stats(g, 0);
  // Nothing changed: the next epoch's collection is answered entirely from
  // the parent-side partials — zero messages on the air.
  const auto msgs = f.net.summary().total_messages;
  const StatsBundle second = f.sched.collect_stats(g, 1);
  EXPECT_EQ(second, first);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
}

TEST(SharedPlan, ConvergecastCounterCountsWavesThatSend) {
  Fixture f;
  std::vector<GroupId> groups;
  for (const auto& region : {query::RegionSignature{0, kBound, true},
                             query::RegionSignature{10, 200, false},
                             query::RegionSignature{300, 900, false}}) {
    groups.push_back(f.sched.ensure_stats_group(region));
  }
  // Three groups ride one convergecast; each is one stats wave.
  f.sched.collect_stats_batch(groups, 0);
  EXPECT_EQ(f.sched.stats().stats_convergecasts, 1u);
  EXPECT_EQ(f.sched.stats().stats_waves, 3u);
  // A repeat within the epoch collects nothing and sends nothing.
  f.sched.collect_stats_batch(groups, 0);
  EXPECT_EQ(f.sched.stats().stats_convergecasts, 1u);
  // A quiescent epoch collects from the partials without a message.
  f.sched.collect_stats_batch(groups, 1);
  EXPECT_EQ(f.sched.stats().stats_waves, 6u);
  EXPECT_EQ(f.sched.stats().stats_convergecasts, 1u);
  // After a change, one group at a time takes one convergecast each.
  f.net.update_item(63, 0, f.net.items(63)[0] + kDelta);
  const std::vector<NodeId> touched{63};
  f.sched.note_updates(touched, 2);
  for (const GroupId g : groups) f.sched.collect_stats(g, 2);
  EXPECT_EQ(f.sched.stats().stats_convergecasts, 4u);
}

TEST(SharedPlan, IncrementalCollectionDescendsOnlyDirtySubtrees) {
  Fixture f;
  const query::RegionSignature whole{0, kBound, true};
  const GroupId g = f.sched.ensure_stats_group(whole);
  f.sched.collect_stats(g, 0);
  const auto full_descents = f.sched.stats().edges_descended;
  EXPECT_EQ(full_descents, 63u);  // first collection visits every edge

  // One sensor changes; only its root path (plus those nodes' request
  // edges) should be revisited.
  const NodeId changed = 63;
  f.net.update_item(changed, 0, f.net.items(changed)[0] + kDelta);
  const std::vector<NodeId> touched{changed};
  f.sched.note_updates(touched, 1);
  const StatsBundle b = f.sched.collect_stats(g, 1);
  EXPECT_EQ(b, direct_bundle(f.net, whole));
  // Exactly the changed node's root path is re-requested: one edge per
  // level, every other subtree served from the parent-side partials.
  const auto incremental = f.sched.stats().edges_descended - full_descents;
  EXPECT_EQ(incremental, f.tree.depth[changed]);
  EXPECT_GT(f.sched.stats().edges_skipped, 0u);
}

TEST(SharedPlan, MarksCoalescePerNodePerEpoch) {
  Fixture f;
  // Two sibling leaves under the same deep ancestor: their marks share the
  // common path, so total mark messages < sum of both depths.
  const std::vector<NodeId> touched{62, 63};
  f.sched.note_updates(touched, 1);
  const std::uint64_t depth_sum = f.tree.depth[62] + f.tree.depth[63];
  EXPECT_LT(f.sched.stats().mark_messages, depth_sum);
  EXPECT_GE(f.sched.stats().mark_messages, f.tree.depth[63]);
}

TEST(SharedPlan, RangedGroupPaysInstallBroadcastOnce) {
  Fixture f;
  const auto before = f.net.summary().total_messages;
  f.sched.ensure_stats_group(query::RegionSignature{30, 120, false});
  const auto after_first = f.net.summary().total_messages;
  EXPECT_EQ(after_first - before, 63u);  // one region install per node
  f.sched.ensure_stats_group(query::RegionSignature{30, 120, false});
  EXPECT_EQ(f.net.summary().total_messages, after_first);
}

TEST(SharedPlan, DistinctCollectionsAnswerOverTheRegion) {
  Fixture f;
  const query::RegionSignature region{0, 99, false};
  const GroupId g = f.sched.ensure_distinct_group(region, /*registers=*/0);
  std::uint64_t expected = 0;
  {
    std::vector<Value> seen;
    for (NodeId u = 0; u < f.net.node_count(); ++u) {
      for (const Value v : f.net.items(u)) {
        if (v >= region.lo && v <= region.hi &&
            std::find(seen.begin(), seen.end(), v) == seen.end()) {
          seen.push_back(v);
        }
      }
    }
    expected = seen.size();
  }
  EXPECT_DOUBLE_EQ(f.sched.collect_distinct(g, 0),
                   static_cast<double>(expected));
  // Idempotent within the epoch.
  const auto msgs = f.net.summary().total_messages;
  f.sched.collect_distinct(g, 0);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
  EXPECT_EQ(f.sched.stats().distinct_waves, 1u);
}

TEST(SharedPlan, BatchMatchesSequentialCollections) {
  int multi_group_runs = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    Fixture batch;
    Fixture seq;
    // Repeated regions map to one group.
    const auto regions = random_regions(rng, 1 + rng.next_below(5));
    std::vector<GroupId> ids;
    for (const auto& region : regions) {
      ids.push_back(batch.sched.ensure_stats_group(region));
      ASSERT_EQ(seq.sched.ensure_stats_group(region), ids.back());
    }
    std::vector<GroupId> distinct = ids;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    multi_group_runs += distinct.size() >= 2 ? 1 : 0;

    // Epochs 1-6 collect every group, in lockstep: a request carries all k
    // groups or none. Later epochs collect a random subset, so the groups'
    // partials age apart and requests carry partial masks.
    for (std::uint32_t epoch = 1; epoch <= 12; ++epoch) {
      SCOPED_TRACE(epoch);
      if (epoch > 1) {
        const auto updates =
            random_drift(rng, batch.net, 1 + rng.next_below(6));
        apply_drift(batch, updates, epoch);
        apply_drift(seq, updates, epoch);
      }
      const bool lockstep = epoch <= 6;
      std::vector<GroupId> chosen;
      for (const GroupId g : distinct) {
        if (lockstep || rng.next_below(2) == 0) chosen.push_back(g);
      }
      const auto b0 = batch.net.summary(true);
      const auto s0 = seq.net.summary(true);
      const SimTime bt0 = batch.net.now();
      const SimTime st0 = seq.net.now();
      const auto shares = batch.sched.collect_stats_batch(chosen, epoch);
      for (const GroupId g : chosen) seq.sched.collect_stats(g, epoch);
      const auto b1 = batch.net.summary(true);
      const auto s1 = seq.net.summary(true);

      // The shares sum to the wave exactly.
      ASSERT_EQ(shares.size(), chosen.size());
      WaveShare sum;
      for (const WaveShare& ws : shares) {
        EXPECT_TRUE(ws.collected);
        sum.bits += ws.bits;
        sum.messages += ws.messages;
      }
      EXPECT_EQ(sum.bits, b1.total_bits - b0.total_bits);
      EXPECT_EQ(sum.messages, b1.total_messages - b0.total_messages);

      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (!std::binary_search(chosen.begin(), chosen.end(), ids[i])) {
          continue;  // re-reading it would collect it
        }
        const StatsBundle& got = batch.sched.collect_stats(ids[i], epoch);
        EXPECT_EQ(got, seq.sched.collect_stats(ids[i], epoch));
        EXPECT_EQ(got, direct_bundle(batch.net, regions[i]));
      }
      for (const GroupId g : distinct) {
        for (NodeId u = 0; u < batch.tree.node_count(); ++u) {
          for (const NodeId child : batch.tree.children[u]) {
            const EdgePartial a = batch.sched.edge_partial(g, child);
            const EdgePartial b = seq.sched.edge_partial(g, child);
            EXPECT_EQ(a.bundle, b.bundle);
            EXPECT_EQ(a.epoch, b.epoch);
          }
        }
      }
      EXPECT_EQ(batch.sched.stats().edges_descended,
                seq.sched.stats().edges_descended);
      EXPECT_EQ(batch.sched.stats().edges_skipped,
                seq.sched.stats().edges_skipped);
      EXPECT_EQ(batch.sched.stats().stats_waves,
                seq.sched.stats().stats_waves);

      // In lockstep all groups descend the same dirty edges: one wave
      // undercuts k waves in bits and in time.
      if (!lockstep) {
        EXPECT_LE(batch.net.now() - bt0, seq.net.now() - st0);
      } else if (distinct.size() >= 2) {
        EXPECT_LT(b1.total_bits - b0.total_bits, s1.total_bits - s0.total_bits);
        EXPECT_LT(batch.net.now() - bt0, seq.net.now() - st0);
      } else {
        EXPECT_EQ(b1.total_bits - b0.total_bits, s1.total_bits - s0.total_bits);
        EXPECT_EQ(batch.net.now() - bt0, seq.net.now() - st0);
      }
    }
  }
  EXPECT_GE(multi_group_runs, 4);  // the seeds exercise real multiplexing
}

TEST(SharedPlan, SingleGroupBatchKeepsTheWireCost) {
  // The k = 1 wave over six drift epochs: the request's mask bit and resync
  // bit, cold full images at epoch 1, then temporal delta images on the
  // stale edges. The ranged total also pins the delta-coded margins of the
  // ranged image, and the margins that ride the core on one bit.
  for (const query::RegionSignature region :
       {query::RegionSignature{0, kBound, true},
        query::RegionSignature{30, 120, false}}) {
    Fixture f;
    Xoshiro256 rng(5);
    const GroupId g = f.sched.ensure_stats_group(region);
    const auto before = f.net.summary(true);
    for (std::uint32_t epoch = 1; epoch <= 6; ++epoch) {
      if (epoch > 1) apply_drift(f, random_drift(rng, f.net, 4), epoch);
      f.sched.collect_stats_batch(std::span(&g, 1), epoch);
    }
    const auto after = f.net.summary(true);
    const std::uint64_t bits = after.total_bits - before.total_bits;
    const std::uint64_t messages = after.total_messages - before.total_messages;
    if (region.whole_domain) {
      EXPECT_EQ(bits, 13076u);
      EXPECT_EQ(messages, 381u);
    } else {
      EXPECT_EQ(bits, 15447u);
      EXPECT_EQ(messages, 381u);
    }
  }
}

TEST(SharedPlan, BatchSkipsGroupsAlreadyCollected) {
  Fixture f;
  const GroupId whole =
      f.sched.ensure_stats_group(query::RegionSignature{0, kBound, true});
  const GroupId ranged =
      f.sched.ensure_stats_group(query::RegionSignature{30, 120, false});
  const auto msgs = f.net.summary().total_messages;
  EXPECT_TRUE(f.sched.collect_stats_batch({}, 1).empty());
  EXPECT_EQ(f.net.summary().total_messages, msgs);

  // `whole` was collected this epoch: the batch rides only `ranged`, as a
  // k = 1 wave over every edge.
  f.sched.collect_stats(whole, 1);
  const auto before = f.net.summary(true);
  const std::vector<GroupId> both{whole, ranged};
  const auto shares = f.sched.collect_stats_batch(both, 1);
  const auto after = f.net.summary(true);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_FALSE(shares[0].collected);
  EXPECT_EQ(shares[0].bits, 0u);
  EXPECT_TRUE(shares[1].collected);
  EXPECT_EQ(shares[1].bits, after.total_bits - before.total_bits);
  EXPECT_EQ(shares[1].messages, 2u * 63u);  // a request and a response per edge
  EXPECT_EQ(f.sched.stats().stats_waves, 2u);

  // Everything is collected now: nothing is sent.
  const auto shares_again = f.sched.collect_stats_batch(both, 1);
  EXPECT_EQ(f.net.summary(true).total_bits, after.total_bits);
  EXPECT_FALSE(shares_again[0].collected);
  EXPECT_FALSE(shares_again[1].collected);
}

TEST(SharedPlan, LostMessageFailsTheCollectionAndTheRetryIsExact) {
  Fixture f;
  const query::RegionSignature ranged{30, 120, false};
  const GroupId g = f.sched.ensure_stats_group(ranged);  // lossless install
  f.net.set_message_loss(0.3);
  EXPECT_THROW(f.sched.collect_stats(g, 1), ProtocolError);
  // The counters are read from the store: the failed wave's requests count.
  EXPECT_GT(f.sched.stats().edges_descended, 0u);
  f.net.set_message_loss(0.0);
  EXPECT_EQ(f.sched.collect_stats(g, 1), direct_bundle(f.net, ranged));
}

}  // namespace
}  // namespace sensornet::service
