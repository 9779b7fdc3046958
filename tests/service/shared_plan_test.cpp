#include "src/service/shared_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/cube/cube.hpp"
#include "src/net/topology.hpp"
#include "src/query/parser.hpp"
#include "src/query/planner.hpp"

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
  std::vector<WaveShare> shares;
  f.sched.collect_stats_batch(groups, 0, shares);
  EXPECT_EQ(f.sched.stats().stats_convergecasts, 1u);
  EXPECT_EQ(f.sched.stats().stats_waves, 3u);
  // A repeat within the epoch collects nothing and sends nothing.
  f.sched.collect_stats_batch(groups, 0, shares);
  EXPECT_EQ(f.sched.stats().stats_convergecasts, 1u);
  // A quiescent epoch collects from the partials without a message.
  f.sched.collect_stats_batch(groups, 1, shares);
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

TEST(SharedPlan, AggregatesOverACappedTreeThatTheCubeFollows) {
  // A geometric deployment whose BFS root adopts all 14 of its neighbours.
  const double n = 49.0;
  Xoshiro256 layout(1);
  const net::Graph graph =
      net::make_random_geometric(
          49, std::sqrt(4.0 * std::log(n) / (std::numbers::pi * n)), layout)
          .graph;
  const net::SpanningTree given = net::bfs_tree(graph, 0);
  ASSERT_EQ(given.children[0].size(), 14u);
  // Two identical deployments. One cube is handed the BFS tree, as a
  // caller that builds every layer from the deployment's tree does; the
  // other is handed the scheduler's. Both must run on the tree the
  // scheduler's marks run up.
  struct Rig {
    sim::Network net;
    SharedPlanScheduler sched;
    cube::Cube cube;
    Rig(const net::Graph& g, const net::SpanningTree& given, bool hand_given)
        : net(g, 7),
          sched(net, given, kBound, kDelta, kHorizon),
          cube(net, hand_given ? given : sched.tree(), kBound, sched.dirty(),
               cube::CubeConfig{.max_delta = kDelta,
                                .horizon_epochs = kHorizon}) {
      ValueSet vs(net.node_count());
      for (NodeId u = 0; u < vs.size(); ++u) {
        vs[u] = static_cast<Value>((u * 37) % 300);
      }
      net.set_one_item_per_node(vs);
    }
  };
  Rig handed_bfs(graph, given, true);
  Rig handed_capped(graph, given, false);

  const net::SpanningTree& tree = handed_bfs.sched.tree();
  EXPECT_NE(&tree, &given);
  EXPECT_EQ(&handed_bfs.sched.dirty().tree(), &tree);
  EXPECT_TRUE(net::validate_tree(graph, tree));
  EXPECT_LE(tree.height(), given.height());
  for (const auto& children : tree.children) {
    EXPECT_LE(children.size(), net::kAggregationFanIn);
  }

  Xoshiro256 rng(3);
  for (std::uint32_t epoch = 1; epoch <= 5; ++epoch) {
    const auto drift = random_drift(rng, handed_bfs.net, 6);
    for (Rig* r : {&handed_bfs, &handed_capped}) {
      std::vector<NodeId> touched;
      for (const auto& [u, v] : drift) {
        r->net.update_item(u, 0, v);
        touched.push_back(u);
      }
      r->sched.note_updates(touched, epoch);
      const query::Planner planner(kBound, &r->cube);
      for (const char* text :
           {"SELECT SUM(v) FROM s",
            "SELECT COUNT(v) FROM s WHERE v BETWEEN 40 AND 260"}) {
        const query::CostedPlan plan =
            planner.plan(query::parse_query(text)).value();
        EXPECT_EQ(r->cube.serve(plan, epoch).bundle.core,
                  direct_bundle(r->net, plan.region).core);
      }
    }
    EXPECT_EQ(handed_bfs.net.summary(true).total_bits,
              handed_capped.net.summary(true).total_bits);
  }
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
      std::vector<WaveShare> shares;
      batch.sched.collect_stats_batch(chosen, epoch, shares);
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
      std::vector<WaveShare> shares;
      f.sched.collect_stats_batch(std::span(&g, 1), epoch, shares);
    }
    const auto after = f.net.summary(true);
    const std::uint64_t bits = after.total_bits - before.total_bits;
    const std::uint64_t messages = after.total_messages - before.total_messages;
    if (region.whole_domain) {
      EXPECT_EQ(bits, 12988u);
      EXPECT_EQ(messages, 381u);
    } else {
      EXPECT_EQ(bits, 15277u);
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
  std::vector<WaveShare> shares;
  f.sched.collect_stats_batch({}, 1, shares);
  EXPECT_TRUE(shares.empty());
  EXPECT_EQ(f.net.summary().total_messages, msgs);

  // `whole` was collected this epoch: the batch rides only `ranged`, as a
  // k = 1 wave over every edge.
  f.sched.collect_stats(whole, 1);
  const auto before = f.net.summary(true);
  const std::vector<GroupId> both{whole, ranged};
  f.sched.collect_stats_batch(both, 1, shares);
  const auto after = f.net.summary(true);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_FALSE(shares[0].collected);
  EXPECT_EQ(shares[0].bits, 0u);
  EXPECT_TRUE(shares[1].collected);
  EXPECT_EQ(shares[1].bits, after.total_bits - before.total_bits);
  EXPECT_EQ(shares[1].messages, 2u * 63u);  // a request and a response per edge
  EXPECT_EQ(f.sched.stats().stats_waves, 2u);

  // Everything is collected now: nothing is sent.
  std::vector<WaveShare> shares_again;
  f.sched.collect_stats_batch(both, 1, shares_again);
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

/// Writes `updates` into the network and runs the epoch's fused wave:
/// returns the pushed groups' shares.
std::vector<GroupShare> push_drift(
    Fixture& f, const std::vector<std::pair<NodeId, Value>>& updates,
    std::uint32_t epoch) {
  std::vector<NodeId> touched;
  for (const auto& [u, v] : updates) {
    f.net.update_item(u, 0, v);
    touched.push_back(u);
  }
  std::vector<GroupShare> pushed;
  f.sched.note_updates(touched, epoch, pushed);
  return pushed;
}

std::pair<std::uint64_t, std::uint64_t> sum_shares(
    const std::vector<GroupShare>& shares) {
  std::pair<std::uint64_t, std::uint64_t> sum;
  for (const GroupShare& g : shares) {
    sum.first += g.share.bits;
    sum.second += g.share.messages;
  }
  return sum;
}

TEST(SharedPlan, PushedGroupsRideTheMarksAndTheirCollectionSendsNothing) {
  // Two fixtures fed the same drift: one pushes a whole-domain and a
  // ranged group every epoch, the other only marks. What the pushing wave
  // sends beyond its groups' shares is exactly the plain mark wave; the
  // pushed groups' collections then send nothing, and are exact.
  Fixture f;
  Fixture plain;
  const std::vector<query::RegionSignature> regions{{0, kBound, true},
                                                    {30, 120, false}};
  std::vector<GroupId> groups;
  for (const auto& region : regions) {
    groups.push_back(f.sched.ensure_stats_group(region));
    f.sched.subscribe(groups.back(), 1, 0);
    f.sched.subscribe(groups.back(), 2, 1);  // implied by (1, 0): not sent
  }
  std::vector<GroupShare> announced;
  const auto a0 = f.net.summary(true);
  f.sched.announce(announced);
  const auto a1 = f.net.summary(true);
  ASSERT_EQ(announced.size(), 2u);
  EXPECT_EQ(sum_shares(announced),
            std::pair(a1.total_bits - a0.total_bits,
                      a1.total_messages - a0.total_messages));
  f.sched.announce(announced);  // nothing changed: nothing is sent
  EXPECT_TRUE(announced.empty());
  EXPECT_EQ(f.net.summary(true).total_bits, a1.total_bits);

  Xoshiro256 rng(11);
  for (std::uint32_t epoch = 1; epoch <= 6; ++epoch) {
    const auto updates = random_drift(rng, f.net, 5);
    const auto p0 = plain.net.summary(true);
    apply_drift(plain, updates, epoch);
    const auto p1 = plain.net.summary(true);
    const auto f0 = f.net.summary(true);
    const std::vector<GroupShare> pushed = push_drift(f, updates, epoch);
    const auto f1 = f.net.summary(true);
    ASSERT_EQ(pushed.size(), 2u);
    const auto [bits, messages] = sum_shares(pushed);
    EXPECT_EQ(f1.total_bits - f0.total_bits - bits,
              p1.total_bits - p0.total_bits);
    EXPECT_EQ(f1.total_messages - f0.total_messages - messages,
              p1.total_messages - p0.total_messages);
    std::vector<WaveShare> shares;
    f.sched.collect_stats_batch(groups, epoch, shares);
    EXPECT_EQ(f.net.summary(true).total_bits, f1.total_bits);
    for (std::size_t j = 0; j < groups.size(); ++j) {
      EXPECT_TRUE(pushed[j].share.collected);
      EXPECT_EQ(f.sched.collect_stats(groups[j], epoch),
                direct_bundle(f.net, regions[j]));
    }
  }
  const SharedPlanStats st = f.sched.stats();
  EXPECT_EQ(st.mark_messages, plain.sched.stats().mark_messages);
  EXPECT_EQ(st.stats_waves, 12u);
  EXPECT_GT(st.push_messages, 0u);
  EXPECT_GT(st.push_image_bits, 0u);
  EXPECT_GT(st.delta_image_bits, 0u);
  EXPECT_LT(st.delta_image_bits, st.delta_image_full_bits);
}

TEST(SharedPlan, ADuePushCarriesEdgesThatWentStaleWhileNotDue) {
  // Due every even epoch; the readings drift only in odd ones, when the
  // group is not due and marks travel alone. Each push must bring up the
  // edges the marks left stale.
  Fixture f;
  const query::RegionSignature region{30, 120, false};
  const GroupId g = f.sched.ensure_stats_group(region);
  f.sched.subscribe(g, 2, 0);
  std::vector<GroupShare> announced;
  f.sched.announce(announced);
  Xoshiro256 rng(3);
  for (std::uint32_t epoch = 1; epoch <= 8; ++epoch) {
    const bool due = epoch % 2 == 0;
    const auto pushed = push_drift(
        f, due ? std::vector<std::pair<NodeId, Value>>{}
               : random_drift(rng, f.net, 6),
        epoch);
    ASSERT_EQ(pushed.size(), due ? 1u : 0u);
    if (!due) continue;
    const auto before = f.net.summary(true);
    EXPECT_EQ(f.sched.collect_stats(g, epoch), direct_bundle(f.net, region));
    EXPECT_EQ(f.net.summary(true).total_bits, before.total_bits);
  }
  // Unsubscribed, the group is pushed no more once the nodes hear of it.
  f.sched.unsubscribe(g, 2, 0);
  f.sched.announce(announced);
  ASSERT_EQ(announced.size(), 1u);
  EXPECT_TRUE(push_drift(f, {}, 10).empty());
}

TEST(SharedPlan, ALostPushFailsTheEpochAndTheNextLosslessOneIsExact) {
  // A line 0-1-2-3 reading 10 each, one pushed whole-domain group. Node 3
  // moves to 50 and its push is lost: the epoch throws with the push
  // charged to the group, and the next lossless epoch, with no update,
  // re-sends the owed mark and the images, so the group reads 80.
  sim::Network net(net::make_line(4), /*master_seed=*/1);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  net.set_one_item_per_node({10, 10, 10, 10});
  SharedPlanScheduler sched(net, tree, kBound, kDelta, kHorizon);
  const GroupId g = sched.ensure_stats_group({0, kBound, true});
  sched.subscribe(g, 1, 0);
  std::vector<GroupShare> shares;
  sched.announce(shares);
  sched.note_updates({}, 1, shares);  // cold edges: every node pushes
  EXPECT_EQ(sched.collect_stats(g, 1).core.sum, 40u);

  net.update_item(3, 0, 50);
  const std::vector<NodeId> touched{3};
  net.set_message_loss(1.0);
  const auto before = net.summary(true);
  EXPECT_THROW(sched.note_updates(touched, 2, shares), ProtocolError);
  const auto after = net.summary(true);
  net.set_message_loss(0.0);
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(after.total_messages - before.total_messages, 1u);
  // The mark's header and bit are the mark wave's; the image is the group's.
  EXPECT_EQ(shares[0].share.bits + sim::kHeaderBits + 1,
            after.total_bits - before.total_bits);

  sched.note_updates({}, 3, shares);
  const auto fresh = net.summary(true);
  EXPECT_EQ(sched.collect_stats(g, 3).core.sum, 80u);
  EXPECT_EQ(net.summary(true).total_bits, fresh.total_bits);
}

TEST(SharedPlan, ALostScheduleIsSentAgainBeforeAnyPush) {
  // The schedule broadcast is lost: announce() throws with its bits in the
  // shares, and the next announce() sends the schedule again. Only then do
  // the nodes push the group, and its collection sends nothing.
  sim::Network net(net::make_line(4), /*master_seed=*/1);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  net.set_one_item_per_node({10, 10, 10, 10});
  SharedPlanScheduler sched(net, tree, kBound, kDelta, kHorizon);
  const GroupId g = sched.ensure_stats_group({0, kBound, true});
  sched.subscribe(g, 1, 0);
  std::vector<GroupShare> shares;
  net.set_message_loss(1.0);
  EXPECT_THROW(sched.announce(shares), ProtocolError);
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares[0].share.bits, net.summary(true).total_bits);
  net.set_message_loss(0.0);

  const auto before = net.summary(true);
  sched.announce(shares);
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares[0].share.bits, net.summary(true).total_bits -
                                      before.total_bits);
  sched.announce(shares);  // heard: nothing left to send
  EXPECT_TRUE(shares.empty());
  sched.note_updates({}, 1, shares);
  ASSERT_EQ(shares.size(), 1u);  // cold edges: every node pushes
  const auto pushed = net.summary(true);
  EXPECT_EQ(sched.collect_stats(g, 1).core.sum, 40u);
  EXPECT_EQ(net.summary(true).total_bits, pushed.total_bits);
}

TEST(SharedPlan, ALostGroupInstallFailsItsServeAndTheRetryReinstalls) {
  // Group installs count their hearers. A lost one is charged, throws, and
  // leaves the group uninstalled; its next collection or push installs it
  // again before its wave, with the copy in the group's share. A lost
  // reinstall fails the push's epoch before its wave, and the epoch's marks
  // go with the next one.
  sim::Network net(net::make_line(4), /*master_seed=*/1);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  net.set_one_item_per_node({10, 20, 30, 40});
  SharedPlanScheduler sched(net, tree, kBound, kDelta, kHorizon);
  const query::RegionSignature pulled{15, 35, false};
  net.set_message_loss(1.0);
  EXPECT_THROW(sched.ensure_stats_group(pulled), ProtocolError);
  const std::uint64_t install_bits = net.summary(true).total_bits;
  EXPECT_GT(install_bits, 0u);
  net.set_message_loss(0.0);
  const GroupId g = sched.ensure_stats_group(pulled);  // no second install
  EXPECT_EQ(net.summary(true).total_bits, install_bits);

  std::vector<WaveShare> shares;
  sched.collect_stats_batch(std::span(&g, 1), 1, shares);
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares[0].bits, net.summary(true).total_bits - install_bits);
  EXPECT_GT(shares[0].bits, install_bits);  // the install, then the wave
  EXPECT_EQ(sched.collect_stats(g, 1).core.sum, 50u);
  sched.collect_stats_batch(std::span(&g, 1), 2, shares);
  EXPECT_EQ(shares[0].bits, 0u);  // installed: a quiescent epoch is free

  // A held install rides with the schedule and both are lost; the next
  // announce() sends the schedule alone, and the first push installs the
  // group before the wave.
  sched.hold_installs();
  const GroupId h = sched.ensure_stats_group({5, 25, false});
  sched.subscribe(h, 1, 0);
  std::vector<GroupShare> announced;
  net.set_message_loss(1.0);
  EXPECT_THROW(sched.announce(announced), ProtocolError);
  ASSERT_EQ(announced.size(), 2u);  // the install, and the schedule's bits
  net.set_message_loss(0.0);
  sched.announce(announced);
  ASSERT_EQ(announced.size(), 1u);  // the schedule alone

  // The push's reinstall is lost: the epoch fails before its wave.
  net.update_item(1, 0, 22);
  const std::vector<NodeId> touched{1};
  std::vector<GroupShare> pushed;
  const auto before_lost = net.summary(true);
  net.set_message_loss(1.0);
  EXPECT_THROW(sched.note_updates(touched, 3, pushed), ProtocolError);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0].share.bits,
            net.summary(true).total_bits - before_lost.total_bits);
  EXPECT_EQ(pushed[0].image_bits, 0u);
  net.set_message_loss(0.0);
  sched.note_updates({}, 4, pushed);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_GT(pushed[0].share.messages, 3u);  // the install's copies, then pushes
  EXPECT_EQ(sched.collect_stats(h, 4).core.sum, 32u);
  EXPECT_EQ(sched.collect_stats(g, 4).core.sum, 52u);  // the deferred mark
  const auto installed = net.summary(true);
  sched.note_updates({}, 5, pushed);  // installed: no copy goes again
  EXPECT_LT(net.summary(true).total_bits - installed.total_bits, install_bits);
}

}  // namespace
}  // namespace sensornet::service
