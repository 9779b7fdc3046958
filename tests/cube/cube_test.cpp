#include "src/cube/cube.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/count_distinct.hpp"
#include "src/net/topology.hpp"
#include "src/proto/item_view.hpp"
#include "src/query/parser.hpp"
#include "src/query/planner.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::cube {
namespace {

constexpr Value kBound = 1000;
constexpr Value kDelta = 4;     // CubeConfig default max_delta
constexpr std::uint32_t kHorizon = 8;  // CubeConfig default horizon_epochs

/// The oracle: core stats over `region` computed directly from the
/// installed items, no network involved.
RangeStats direct_core(const sim::Network& net,
                       const query::RegionSignature& region) {
  RangeStats rs;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    for (const Value v : net.items(u)) {
      if (region.whole_domain || (v >= region.lo && v <= region.hi)) {
        rs.observe(v);
      }
    }
  }
  return rs;
}

/// The distinct oracle: a one-shot HLL (salt kHllSalt, the cube's register
/// width) over the installed items in `region`.
double direct_distinct(const sim::Network& net,
                       const query::RegionSignature& region,
                       unsigned registers) {
  const auto width = static_cast<std::uint8_t>(sketch::packed_width_for(
      static_cast<std::uint64_t>(net.node_count()) + 1));
  sketch::Hll h =
      sketch::Hll::make_by_registers(registers,
                                     {.width = width, .sparse = true})
          .value();
  for (NodeId u = 0; u < net.node_count(); ++u) {
    for (const Value v : net.items(u)) {
      if (v >= region.lo && v <= region.hi) {
        h.add(static_cast<std::uint64_t>(v), kHllSalt);
      }
    }
  }
  return h.estimate();
}

/// Checks a fresh serve against the oracles: the exact core of a stats
/// plan, the one-shot HLL estimate of an approx-distinct plan (whose
/// composition carries no stats).
void expect_exact(const ServeResult& r, const query::CostedPlan& plan,
                  const sim::Network& net) {
  if (plan.strategy == query::Strategy::kApproxDistinct) {
    ASSERT_TRUE(r.has_distinct);
    EXPECT_EQ(r.distinct_estimate,
              direct_distinct(net, plan.region, plan.registers));
  } else {
    EXPECT_EQ(r.bundle.core, direct_core(net, plan.region));
  }
}

struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  DirtyTracker dirty;
  Cube cube;

  explicit Fixture(CubeConfig cfg = {}, std::uint64_t seed = 7)
      : net(net::make_grid(8, 8), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        dirty(net, tree),
        cube(net, tree, kBound, dirty, cfg) {
    ValueSet vs(64);
    for (NodeId u = 0; u < 64; ++u) {
      vs[u] = static_cast<Value>((u * 37) % 200);
    }
    net.set_one_item_per_node(vs);
  }

  query::CostedPlan plan_for(const std::string& text) {
    const query::Planner planner(kBound, &cube);
    return planner.plan(query::parse_query(text)).value();
  }
};

TEST(Cube, GeometryNestsAndConstructionShipsZeroBits) {
  Fixture f;
  // Construction is pure bookkeeping: the install broadcast is lazy.
  EXPECT_EQ(f.net.summary().total_messages, 0u);
  EXPECT_EQ(f.cube.cell_count(), 15u);  // 1 + 2 + 4 + 8
  // Level 0 is the whole domain; every cell is the union of its children.
  EXPECT_TRUE(f.cube.cell_region({0, 0}).whole_domain);
  for (unsigned level = 0; level + 1 < f.cube.levels(); ++level) {
    for (unsigned i = 0; i < (1u << level); ++i) {
      const auto parent = f.cube.cell_region({level, i});
      const auto left = f.cube.cell_region({level + 1, 2 * i});
      const auto right = f.cube.cell_region({level + 1, 2 * i + 1});
      EXPECT_EQ(parent.lo, left.lo);
      EXPECT_EQ(left.hi + 1, right.lo);
      EXPECT_EQ(parent.hi, right.hi);
    }
  }
}

TEST(Cube, ServeComposesTheExactAnswer) {
  Fixture f;
  for (const char* text :
       {"SELECT COUNT(v) FROM s", "SELECT MIN(v) FROM s",
        "SELECT SUM(v) FROM s WHERE v BETWEEN 30 AND 120",
        "SELECT MAX(v) FROM s WHERE v BETWEEN 0 AND 499",
        "SELECT COUNT(v) FROM s WHERE v BETWEEN 77 AND 901"}) {
    const query::CostedPlan plan = f.plan_for(text);
    const ServeResult r = f.cube.serve(plan, 0);
    EXPECT_EQ(r.bundle.core, direct_core(f.net, plan.region)) << text;
  }
}

TEST(Cube, FirstServePaysTheGeometryInstallOnce) {
  Fixture f;
  const query::CostedPlan plan = f.plan_for("SELECT COUNT(v) FROM s");
  f.cube.serve(plan, 0);
  EXPECT_EQ(f.cube.stats().geometry_installs, 1u);
  const auto msgs = f.net.summary().total_messages;
  EXPECT_GT(msgs, 0u);
  f.cube.serve(plan, 0);
  EXPECT_EQ(f.cube.stats().geometry_installs, 1u);
  // Same epoch: the cell is already fresh, so the re-serve is free.
  EXPECT_EQ(f.net.summary().total_messages, msgs);
}

TEST(Cube, QuiescentRefreshIsFree) {
  Fixture f;
  const query::CostedPlan plan = f.plan_for("SELECT SUM(v) FROM s");
  ASSERT_TRUE(plan.cube_served());
  f.cube.serve(plan, 0);
  const auto msgs = f.net.summary().total_messages;
  const auto descended = f.cube.stats().cell_edges_descended;
  // Nothing changed: epoch 1's refresh is answered entirely from the
  // parent-side partials.
  const ServeResult r = f.cube.serve(plan, 1);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
  EXPECT_EQ(f.cube.stats().cell_edges_descended, descended);
  EXPECT_EQ(r.bundle.core, direct_core(f.net, plan.region));
}

TEST(Cube, IncrementalRefreshDescendsOnlyTheDirtyPath) {
  Fixture f;
  const query::CostedPlan plan = f.plan_for("SELECT SUM(v) FROM s");
  ASSERT_EQ(plan.steps.size(), 1u);  // whole domain: the root cell alone
  ASSERT_EQ(plan.steps[0].kind, query::StepKind::kCubeCell);
  f.cube.serve(plan, 0);
  EXPECT_EQ(f.cube.stats().cell_edges_descended, 63u);

  const NodeId changed = 63;
  f.net.update_item(changed, 0, f.net.items(changed)[0] + kDelta);
  const std::vector<NodeId> touched{changed};
  f.dirty.note_updates(touched, 1);
  const ServeResult r = f.cube.serve(plan, 1);
  // Exactly the changed node's root path is revisited.
  EXPECT_EQ(f.cube.stats().cell_edges_descended, 63u + f.tree.depth[changed]);
  EXPECT_GT(f.cube.stats().cell_edges_skipped, 0u);
  EXPECT_EQ(r.bundle.core, direct_core(f.net, plan.region));
}

TEST(Cube, ResiduePrunesSubtreesProvablyEmptyForTheRange) {
  Fixture f;
  // Refresh the upper-half cell: items are all < 500, so every cached
  // partial records an empty outer region for [500, 1000].
  const query::CostedPlan upper =
      f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 500 AND 1000");
  const ServeResult first = f.cube.serve(upper, 0);
  EXPECT_EQ(first.bundle.core.count, 0u);
  ASSERT_GT(first.cells_used + first.residues_run, 0u);

  // A misaligned range inside the proven-empty region: the residue wave
  // prunes every root-child edge, so the collection is free — and exact.
  const auto msgs = f.net.summary().total_messages;
  const query::CostedPlan inner =
      f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 600 AND 700");
  const ServeResult r = f.cube.serve(inner, 0);
  EXPECT_EQ(r.bundle.core.count, 0u);
  EXPECT_GT(f.cube.stats().residue_edges_pruned, 0u);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
}

TEST(Cube, PruningStopsWhenTheSubtreeChanges) {
  Fixture f;
  const query::CostedPlan upper =
      f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 500 AND 1000");
  f.cube.serve(upper, 0);
  // A node's reading jumps into the range: its root path is dirty, so the
  // emptiness proof no longer covers it and the residue must look again.
  f.net.update_item(63, 0, 650);
  const std::vector<NodeId> touched{63};
  f.dirty.note_updates(touched, 1);
  const query::CostedPlan inner =
      f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 600 AND 700");
  const ServeResult r = f.cube.serve(inner, 1);
  EXPECT_EQ(r.bundle.core, direct_core(f.net, inner.region));
  EXPECT_EQ(r.bundle.core.count, 1u);
}

TEST(Cube, StaleBracketContainsTheDriftedTruth) {
  Fixture f;
  const query::CostedPlan plan = f.plan_for("SELECT SUM(v) FROM s");
  ASSERT_EQ(plan.steps.size(), 1u);
  f.cube.serve(plan, 0);

  // Drift every reading by at most kDelta per epoch for three epochs,
  // without telling the cube (no serve) — only the dirty tracker hears.
  std::vector<NodeId> all(64);
  for (NodeId u = 0; u < 64; ++u) all[u] = u;
  for (std::uint32_t e = 1; e <= 3; ++e) {
    for (NodeId u = 0; u < 64; ++u) {
      const Value v = f.net.items(u)[0];
      const Value moved = (u % 2 == 0) ? std::min<Value>(v + kDelta, kBound)
                                       : std::max<Value>(v - kDelta, 0);
      f.net.update_item(u, 0, moved);
    }
    f.dirty.note_updates(all, e);
  }

  const query::RegionSignature whole{0, kBound, true};
  const RangeStats truth = direct_core(f.net, whole);
  const auto check = [&](query::AggregateKind agg, double exact_now) {
    const auto br = f.cube.stale_bracket(plan, agg, 3);
    ASSERT_TRUE(br.has_value()) << agg_name(agg);
    EXPECT_LE(std::abs(exact_now - br->value), br->bound) << agg_name(agg);
  };
  check(query::AggregateKind::kSum, static_cast<double>(truth.sum));
  check(query::AggregateKind::kMin, static_cast<double>(truth.min));
  check(query::AggregateKind::kMax, static_cast<double>(truth.max));
  check(query::AggregateKind::kAvg,
        static_cast<double>(truth.sum) / static_cast<double>(truth.count));
  // Whole-domain membership is static: COUNT stays exact at any staleness.
  const auto count = f.cube.stale_bracket(plan, query::AggregateKind::kCount, 3);
  ASSERT_TRUE(count.has_value());
  EXPECT_TRUE(count->exact);
  EXPECT_EQ(count->value, 64.0);
  EXPECT_FALSE(
      f.cube.stale_bracket(plan, query::AggregateKind::kSum, 3)->exact);
}

TEST(Cube, StaleBracketAtARefreshEpochIsExact) {
  Fixture f;
  // [0, 499] is exactly cell (1, 0): a ranged cell, so its drift bracket
  // would span inner to outer at any drift above zero.
  const query::CostedPlan plan =
      f.plan_for("SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND 499");
  ASSERT_EQ(plan.steps.size(), 1u);
  ASSERT_EQ(plan.steps[0].kind, query::StepKind::kCubeCell);
  f.cube.serve(plan, 3);
  const RangeStats truth = direct_core(f.net, plan.region);
  for (const query::AggregateKind agg :
       {query::AggregateKind::kCount, query::AggregateKind::kSum,
        query::AggregateKind::kAvg, query::AggregateKind::kMin,
        query::AggregateKind::kMax}) {
    const auto br = f.cube.stale_bracket(plan, agg, 3);
    ASSERT_TRUE(br.has_value()) << agg_name(agg);
    EXPECT_TRUE(br->exact) << agg_name(agg);
    EXPECT_EQ(br->bound, 0.0) << agg_name(agg);
  }
  EXPECT_EQ(f.cube.stale_bracket(plan, query::AggregateKind::kSum, 3)->value,
            static_cast<double>(truth.sum));
  EXPECT_FALSE(
      f.cube.stale_bracket(plan, query::AggregateKind::kSum, 4)->exact);
}

TEST(Cube, StaleBracketOnARangedCellIsSoundWithinTheHorizon) {
  Fixture f;
  // [0, 499] is exactly cell (1, 0) for bound 1000.
  const query::CostedPlan plan =
      f.plan_for("SELECT MIN(v) FROM s WHERE v BETWEEN 0 AND 499");
  ASSERT_EQ(plan.steps.size(), 1u);
  ASSERT_EQ(plan.steps[0].kind, query::StepKind::kCubeCell);
  f.cube.serve(plan, 0);

  std::vector<NodeId> all(64);
  for (NodeId u = 0; u < 64; ++u) all[u] = u;
  for (NodeId u = 0; u < 64; ++u) {
    f.net.update_item(u, 0, std::max<Value>(f.net.items(u)[0] - kDelta, 0));
  }
  f.dirty.note_updates(all, 1);

  const RangeStats truth = direct_core(f.net, plan.region);
  for (const query::AggregateKind agg :
       {query::AggregateKind::kCount, query::AggregateKind::kSum,
        query::AggregateKind::kMin, query::AggregateKind::kMax}) {
    const auto br = f.cube.stale_bracket(plan, agg, 1);
    ASSERT_TRUE(br.has_value()) << agg_name(agg);
    const double exact_now =
        agg == query::AggregateKind::kCount ? static_cast<double>(truth.count)
        : agg == query::AggregateKind::kSum ? static_cast<double>(truth.sum)
        : agg == query::AggregateKind::kMin ? static_cast<double>(truth.min)
                                            : static_cast<double>(truth.max);
    EXPECT_LE(std::abs(exact_now - br->value), br->bound) << agg_name(agg);
  }

  // Past the margin horizon the ranged bracket is refused, not fudged.
  EXPECT_FALSE(f.cube
                   .stale_bracket(plan, query::AggregateKind::kSum,
                                  kHorizon + 1)
                   .has_value());
}

TEST(Cube, StaleBracketRefusesNonCellPlansAndColdCells) {
  Fixture f;
  query::CostedPlan tree_plan;
  tree_plan.region = {0, kBound, true};
  tree_plan.steps.push_back(
      {query::StepKind::kTreeCollect, tree_plan.region, {}, 0});
  EXPECT_FALSE(
      f.cube.stale_bracket(tree_plan, query::AggregateKind::kSum, 0)
          .has_value());

  // A cube-cell plan whose cell was never refreshed has nothing to bracket.
  const query::CostedPlan cold = f.plan_for("SELECT SUM(v) FROM s");
  ASSERT_EQ(cold.steps[0].kind, query::StepKind::kCubeCell);
  EXPECT_FALSE(
      f.cube.stale_bracket(cold, query::AggregateKind::kSum, 0).has_value());
}

/// The oracle's view of a ranged COUNT_DISTINCT: only in-range readings.
class RegionView final : public proto::LocalItemView {
 public:
  RegionView(Value lo, Value hi) : lo_(lo), hi_(hi) {}
  ValueSet items(sim::Network& net, NodeId node) const override {
    ValueSet out;
    for (const Value v : net.items(node)) {
      if (v >= lo_ && v <= hi_) out.push_back(v);
    }
    return out;
  }

 private:
  Value lo_;
  Value hi_;
};

TEST(Cube, DistinctEstimateIsByteIdenticalToTheTreeOracle) {
  CubeConfig cfg;
  cfg.distinct_registers = 64;
  Fixture f(cfg);
  // ERROR 0.15 sizes to 64 registers — the cube's own geometry, so the
  // plan is cube-eligible.
  const query::CostedPlan plan =
      f.plan_for("SELECT COUNT_DISTINCT(v) FROM s ERROR 0.15");
  ASSERT_EQ(plan.registers, 64u);
  const ServeResult r = f.cube.serve(plan, 0);
  ASSERT_TRUE(r.has_distinct);

  // Twin network, same seed and items, answered by the PR 3 hashed-HLL
  // tree protocol: the cube replicates its sketch geometry (salt, width),
  // so register-max merges reproduce the estimate bit for bit.
  Fixture twin(CubeConfig{});
  const auto oracle = core::approx_count_distinct(
      twin.net, twin.tree, 64, proto::EstimatorKind::kHyperLogLog,
      proto::raw_item_view());
  EXPECT_DOUBLE_EQ(r.distinct_estimate, oracle.estimate);
}

TEST(Cube, RangedDistinctComposesCellsAndResiduesExactly) {
  CubeConfig cfg;
  cfg.distinct_registers = 64;
  Fixture f(cfg);
  const query::CostedPlan plan = f.plan_for(
      "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 0 AND 99 ERROR 0.15");
  const ServeResult r = f.cube.serve(plan, 0);
  ASSERT_TRUE(r.has_distinct);

  Fixture twin(CubeConfig{});
  const RegionView view(0, 99);
  const auto oracle = core::approx_count_distinct(
      twin.net, twin.tree, 64, proto::EstimatorKind::kHyperLogLog, view);
  EXPECT_DOUBLE_EQ(r.distinct_estimate, oracle.estimate);
}

TEST(Cube, CostModelTracksActualRefreshState) {
  Fixture f;
  // Cold cube: refreshing the root cell must look at every edge.
  EXPECT_GT(f.cube.cell_refresh_bits({0, 0}), 0u);
  const query::CostedPlan plan = f.plan_for("SELECT COUNT(v) FROM s");
  f.cube.serve(plan, 0);
  // Fresh cell, quiescent network: the next refresh is free, and the
  // planner's cost model knows it.
  EXPECT_EQ(f.cube.cell_refresh_bits({0, 0}), 0u);
  // Tree collection always pays every edge, fresh partials or not.
  const query::RegionSignature whole{0, kBound, true};
  EXPECT_GT(f.cube.tree_collect_bits(whole), 0u);
  EXPECT_EQ(f.cube.tree_collect_bits(whole) % 63u, 0u);
}

/// One epoch of seeded drift: `count` random nodes (repeats collapse) move
/// by +-kDelta within [0, kBound]; the dirty tracker hears of each move.
template <class Deployment>
void drift(Deployment& f, Xoshiro256& rng, std::size_t count,
           std::uint32_t epoch) {
  std::vector<NodeId> touched;
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(f.net.node_count()));
    if (std::find(touched.begin(), touched.end(), u) != touched.end()) {
      continue;
    }
    const Value old = f.net.items(u)[0];
    f.net.update_item(u, 0,
                      rng.next_below(2) == 0 ? std::max<Value>(0, old - kDelta)
                                             : std::min(kBound, old + kDelta));
    touched.push_back(u);
  }
  f.dirty.note_updates(touched, epoch);
}

TEST(Cube, ServesKeepTheWireCost) {
  // Cell refreshes, pruned residues and HLL partials over six drift epochs,
  // every epoch's plans served as one batch: these totals pin the cube's
  // wire format (delta-coded ranged images, and temporal delta images of
  // stats and HLL partials on stale edges, included), its multiplexing and
  // its pruning. Stats cells carry no HLL; the distinct plan reads the
  // lower cell's HLL-only twin slot, which is cold at epoch 1 (its first
  // collect descends all 63 edges) and then rides the cells' stale edges.
  CubeConfig cfg;
  cfg.levels = 4;
  cfg.distinct_registers = 16;
  Fixture f(cfg);
  const auto before = f.net.summary(true);
  // Cells (1, 0) = [0, 499] and (1, 1) = [500, 1000]. Every reading is below
  // 200, so once the upper cell is fresh its partials prove the upper half
  // empty and the unaligned plans below prune their residue against it.
  const query::CostedPlan lower =
      f.plan_for("SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND 499");
  const query::CostedPlan upper =
      f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 500 AND 1000");
  for (const query::CostedPlan* plan : {&lower, &upper}) {
    ASSERT_EQ(plan->steps.size(), 1u);
    ASSERT_EQ(plan->steps[0].kind, query::StepKind::kCubeCell);
    f.cube.claim(*plan);
  }
  f.cube.serve_claimed(0);
  const query::CostedPlan residues =
      f.plan_for("SELECT MAX(v) FROM s WHERE v BETWEEN 0 AND 560");
  const query::CostedPlan distinct = f.plan_for(
      "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 0 AND 560 ERROR 0.3");
  ASSERT_EQ(distinct.registers, 16u);
  for (const query::CostedPlan* plan : {&residues, &distinct}) {
    ASSERT_EQ(plan->steps.size(), 2u);
    ASSERT_EQ(plan->steps[0].kind, query::StepKind::kCubeCell);
    ASSERT_EQ(plan->steps[1].kind, query::StepKind::kResidueCollect);
  }

  Xoshiro256 rng(5);
  const std::vector<const query::CostedPlan*> plans{&lower, &residues,
                                                    &distinct, &upper};
  for (std::uint32_t epoch = 1; epoch <= 6; ++epoch) {
    drift(f, rng, 4, epoch);
    // One collect refreshes both cells; the residues then meet the upper
    // cell's partials fresh, so both are pruned at the root's edges.
    for (const query::CostedPlan* plan : plans) f.cube.claim(*plan);
    const std::vector<ServeResult> served = f.cube.serve_claimed(epoch);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      expect_exact(served[i], *plans[i], f.net);
    }
  }
  const auto after = f.net.summary(true);
  const CubeStats& s = f.cube.stats();
  EXPECT_EQ(after.total_bits - before.total_bits, 29598u);
  EXPECT_EQ(after.total_messages - before.total_messages, 613u);
  EXPECT_EQ(s.cell_edges_descended, 500u);
  EXPECT_EQ(s.cell_edges_skipped, 116u);
  EXPECT_EQ(s.residue_edges_descended, 0u);
  EXPECT_EQ(s.residue_edges_pruned, 24u);
  EXPECT_EQ(s.refresh_waves, 7u);  // one per batch
  EXPECT_EQ(s.residue_waves, 12u);  // stats + sketch per drift epoch
}

/// `text` (over [0, 300]) planned as cell (2, 0) = [0, 249] plus the
/// residue [250, 300], whatever the cold cube's cost model would pick.
query::CostedPlan cover_plan(Fixture& f, const std::string& text) {
  query::CostedPlan plan = f.plan_for(text);
  query::PlanStep cell;
  cell.kind = query::StepKind::kCubeCell;
  cell.cell = {2, 0};
  cell.region = f.cube.cell_region(cell.cell);
  query::PlanStep residue;
  residue.kind = query::StepKind::kResidueCollect;
  residue.region = {cell.region.hi + 1, 300, false};
  plan.steps = {cell, residue};
  return plan;
}

constexpr const char* kStandingText =
    "SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND 300";
constexpr query::RegionSignature kResidue{250, 300, false};

TEST(Cube, StandingResidueIsInstalledOnceAndRefreshedIncrementally) {
  Fixture f;
  const query::CostedPlan plan = cover_plan(f, kStandingText);
  f.cube.claim(plan, /*standing=*/true);
  const ServeResult first = f.cube.serve_claimed(0).front();
  EXPECT_EQ(first.bundle.core, direct_core(f.net, plan.region));
  EXPECT_EQ(f.cube.stats().standing_installs, 1u);
  EXPECT_EQ(f.cube.stats().standing_refreshed, 1u);
  // No one-shot wave ran: the residue rode the cells' collect.
  EXPECT_EQ(f.cube.stats().residue_waves, 0u);
  EXPECT_EQ(f.cube.cells().slot_count(), f.cube.cell_count() + 1);
  // The store's bit split covers every bit the serve sent.
  const CubeStats& s = f.cube.stats();
  EXPECT_EQ(s.cell_bits + s.standing_bits + s.once_bits + s.install_bits,
            f.net.summary(true).total_bits);
  EXPECT_EQ(first.bits, f.net.summary(true).total_bits);

  // A quiescent repeat costs nothing, and the planner knows it.
  EXPECT_EQ(f.cube.residue_collect_bits(kResidue), 0u);
  const auto bits = f.net.summary(true).total_bits;
  f.cube.claim(plan, true);
  const ServeResult quiet = f.cube.serve_claimed(1).front();
  EXPECT_EQ(f.net.summary(true).total_bits, bits);
  EXPECT_EQ(quiet.bits, 0u);
  EXPECT_EQ(quiet.bundle.core, direct_core(f.net, plan.region));

  // A change descends only its root path, for the cell and the residue
  // slot alike, with no second install.
  const NodeId changed = 63;
  f.net.update_item(changed, 0, 270);
  const std::vector<NodeId> touched{changed};
  f.dirty.note_updates(touched, 2);
  EXPECT_GT(f.cube.residue_collect_bits(kResidue), 0u);
  const auto descended = f.cube.stats().cell_edges_descended;
  f.cube.claim(plan, true);
  const ServeResult moved = f.cube.serve_claimed(2).front();
  EXPECT_EQ(moved.bundle.core, direct_core(f.net, plan.region));
  EXPECT_EQ(f.cube.stats().cell_edges_descended - descended,
            2u * f.tree.depth[changed]);
  EXPECT_EQ(f.cube.stats().standing_installs, 1u);
}

TEST(Cube, OneShotResidueRidesAnInstalledStandingSlot) {
  Fixture f;
  const query::CostedPlan once = cover_plan(f, kStandingText);
  f.cube.claim(once, /*standing=*/true);
  f.cube.serve_claimed(0);
  // The same key served one-shot reads the installed slot: no range
  // travels, and nothing changed, so the serve is free and exact.
  const auto bits = f.net.summary(true).total_bits;
  const ServeResult r = f.cube.serve(once, 1);
  EXPECT_EQ(r.bundle.core, direct_core(f.net, once.region));
  EXPECT_EQ(f.net.summary(true).total_bits, bits);
  EXPECT_EQ(f.cube.stats().residue_waves, 0u);
}

TEST(Cube, StandingSlotRetiresAfterTheHorizonAndReinstalls) {
  Fixture f;
  const query::CostedPlan plan = cover_plan(f, kStandingText);
  f.cube.claim(plan, /*standing=*/true);
  f.cube.serve_claimed(0);
  const SlotId slot = static_cast<SlotId>(f.cube.cell_count());
  ASSERT_TRUE(f.cube.cells().has_edges(slot));
  const query::CostedPlan other = f.plan_for("SELECT COUNT(v) FROM s");
  // Within the horizon the slot keeps its partials...
  f.cube.serve(other, kHorizon);
  EXPECT_TRUE(f.cube.cells().has_edges(slot));
  EXPECT_EQ(f.cube.stats().standing_retired, 0u);
  // ... past it, unclaimed, it frees them.
  f.cube.serve(other, kHorizon + 1);
  EXPECT_FALSE(f.cube.cells().has_edges(slot));
  EXPECT_EQ(f.cube.stats().standing_retired, 1u);
  // A one-shot plan no longer reads it; a standing claim installs it again.
  EXPECT_GT(f.cube.residue_collect_bits(kResidue), 0u);
  f.cube.claim(plan, true);
  const ServeResult again = f.cube.serve_claimed(kHorizon + 2).front();
  EXPECT_EQ(again.bundle.core, direct_core(f.net, plan.region));
  EXPECT_EQ(f.cube.stats().standing_installs, 2u);
  EXPECT_EQ(f.cube.cells().slot_count(), f.cube.cell_count() + 1);
}

TEST(Cube, StandingDistinctReadsOnlyHllSlots) {
  CubeConfig cfg;
  cfg.distinct_registers = 64;
  Fixture f(cfg);
  const query::CostedPlan plan = cover_plan(
      f,
      "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 0 AND 300 ERROR 0.15");
  ASSERT_EQ(plan.strategy, query::Strategy::kApproxDistinct);
  f.cube.claim(plan, /*standing=*/true);
  const ServeResult r = f.cube.serve_claimed(0).front();
  expect_exact(r, plan, f.net);
  // The cell's HLL twin and the residue's HLL slot; the stats cell itself
  // was never collected.
  const PartialStore& store = f.cube.cells();
  ASSERT_EQ(store.slot_count(), f.cube.cell_count() + 2);
  for (SlotId s = 0; s < f.cube.cell_count(); ++s) {
    EXPECT_FALSE(store.has_edges(s));
  }
  for (SlotId s = static_cast<SlotId>(f.cube.cell_count());
       s < store.slot_count(); ++s) {
    EXPECT_TRUE(store.sketch(s));
    EXPECT_TRUE(store.has_edges(s));
  }
  // Drift, then an incremental refresh stays exact.
  Xoshiro256 rng(9);
  drift(f, rng, 5, 1);
  f.cube.claim(plan, true);
  expect_exact(f.cube.serve_claimed(1).front(), plan, f.net);
}

/// One seeded drift epoch's query mix for the batch differential: ranges
/// drawn over the whole domain (cells, unaligned residues, repeats) and one
/// COUNT_DISTINCT.
std::vector<std::string> random_texts(Xoshiro256& rng) {
  static const char* const kAggs[] = {"COUNT", "SUM", "MIN", "MAX", "AVG"};
  std::vector<std::string> texts;
  for (int i = 0; i < 7; ++i) {
    const auto lo = static_cast<Value>(rng.next_below(kBound));
    const auto hi = lo + static_cast<Value>(rng.next_below(kBound - lo + 1));
    std::string text = "SELECT ";
    text += kAggs[rng.next_below(5)];
    text += "(v) FROM s WHERE v BETWEEN ";
    text += std::to_string(lo);
    text += " AND ";
    text += std::to_string(hi);
    texts.push_back(text);
  }
  texts.push_back(texts[2]);  // a repeat rides the first one's cells
  std::string distinct = "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN ";
  distinct += std::to_string(rng.next_below(300));
  distinct += " AND 900 ERROR 0.3";
  texts.push_back(distinct);
  return texts;
}

TEST(Cube, BatchedServeMatchesPerPlanServes) {
  // The same plans, served as one batch per epoch on one deployment and one
  // serve() each, in order, on a twin: identical answers and cell partials,
  // and never more bits or rounds for the batch.
  CubeConfig cfg;
  cfg.distinct_registers = 16;
  for (const std::uint64_t seed : {3u, 8u, 21u}) {
    SCOPED_TRACE(seed);
    Fixture batched(cfg, seed);
    Fixture reference(cfg, seed);
    ValueSet spread(64);
    Xoshiro256 values(seed);
    for (Value& v : spread) v = static_cast<Value>(values.next_below(kBound));
    batched.net.set_one_item_per_node(spread);
    reference.net.set_one_item_per_node(spread);
    Xoshiro256 texts_rng(seed), drift_a(seed + 1), drift_b(seed + 1);
    for (std::uint32_t epoch = 0; epoch < 5; ++epoch) {
      if (epoch > 0) {
        drift(batched, drift_a, 6, epoch);
        drift(reference, drift_b, 6, epoch);
      }
      // Plans are made as the service makes them: each one after the
      // earlier ones claimed their cells.
      std::vector<query::CostedPlan> plans;
      for (const std::string& text : random_texts(texts_rng)) {
        plans.push_back(batched.plan_for(text));
        batched.cube.claim(plans.back());
      }
      const auto a0 = batched.net.summary(true);
      const SimTime ta = batched.net.now();
      const std::vector<ServeResult> got = batched.cube.serve_claimed(epoch);
      const SimTime batch_rounds = batched.net.now() - ta;
      const auto a1 = batched.net.summary(true);

      const auto b0 = reference.net.summary(true);
      const SimTime tb = reference.net.now();
      std::vector<ServeResult> want;
      for (const query::CostedPlan& plan : plans) {
        want.push_back(reference.cube.serve(plan, epoch));
      }
      const SimTime reference_rounds = reference.net.now() - tb;
      const auto b1 = reference.net.summary(true);

      ASSERT_EQ(got.size(), want.size());
      std::uint64_t attributed = 0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].bundle, want[i].bundle) << plans[i].description;
        expect_exact(got[i], plans[i], batched.net);
        EXPECT_EQ(got[i].has_distinct, want[i].has_distinct);
        EXPECT_EQ(got[i].distinct_estimate, want[i].distinct_estimate);
        attributed += got[i].bits;
      }
      const PartialStore& ca = batched.cube.cells();
      const PartialStore& cb = reference.cube.cells();
      for (SlotId s = 0; s < ca.slot_count(); ++s) {
        EXPECT_EQ(ca.epoch(s), cb.epoch(s));
        EXPECT_EQ(ca.root(s), cb.root(s));
      }
      EXPECT_EQ(attributed, a1.total_bits - a0.total_bits);
      EXPECT_LE(a1.total_bits - a0.total_bits, b1.total_bits - b0.total_bits);
      EXPECT_LE(a1.total_messages - a0.total_messages,
                b1.total_messages - b0.total_messages);
      EXPECT_LE(batch_rounds, reference_rounds);
    }
    // At most one cell wave per batch, and one residue wave per kind.
    EXPECT_LE(batched.cube.stats().refresh_waves, 5u);
    EXPECT_LE(batched.cube.stats().residue_waves, 10u);
    EXPECT_EQ(batched.cube.stats().cells_refreshed,
              reference.cube.stats().cells_refreshed);
    // The repeated text's residues ran once per batch.
    EXPECT_LT(batched.cube.stats().residues_run,
              reference.cube.stats().residues_run);
  }
}

// ---- pricing table vs the tree walks it replaced --------------------------

/// Edges a collect() of slot `s` descends below `node`: the stale ones whose
/// whole root path is stale.
std::uint64_t walk_stale_edges(const PartialStore& store,
                               const net::SpanningTree& tree, SlotId s,
                               NodeId node) {
  std::uint64_t edges = 0;
  for (const NodeId child : tree.children[node]) {
    if (store.edge_fresh(s, child)) continue;
    edges += 1 + walk_stale_edges(store, tree, s, child);
  }
  return edges;
}

/// Edges a one-shot residue descends below `node`: those no containing
/// slot proves empty, along the whole root path.
std::uint64_t walk_residue_edges(const PartialStore& store,
                                 const net::SpanningTree& tree, NodeId node,
                                 const std::vector<SlotId>& containing) {
  std::uint64_t edges = 0;
  for (const NodeId child : tree.children[node]) {
    if (store.provably_empty(child, containing)) continue;
    edges += 1 + walk_residue_edges(store, tree, child, containing);
  }
  return edges;
}

/// A cube over an arbitrary tree, with 16-register HLL twins and a short
/// horizon so standing slots retire and reinstall within a few epochs.
struct PricingRig {
  sim::Network net;
  net::SpanningTree tree;
  DirtyTracker dirty;
  Cube cube;
  // Per-edge cost of a collect() edge (whole domain, ranged), read off the
  // cold cube, where every edge of every cell is stale.
  std::uint64_t whole_edge_bits;
  std::uint64_t ranged_edge_bits;

  PricingRig(net::Graph graph, std::uint64_t seed)
      : net(std::move(graph), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        dirty(net, tree),
        cube(net, tree, kBound, dirty,
             CubeConfig{.distinct_registers = 16, .horizon_epochs = 2}),
        whole_edge_bits(cube.cell_refresh_bits({0, 0}) / edges()),
        ranged_edge_bits(cube.cell_refresh_bits({1, 0}) / edges()) {
    // Skewed readings: the upper cells' partials go empty on most edges.
    Xoshiro256 rng(seed);
    ValueSet vs(net.node_count());
    for (Value& v : vs) {
      v = static_cast<Value>(rng.next_below(4) == 0 ? rng.next_below(kBound + 1)
                                                    : rng.next_below(300));
    }
    net.set_one_item_per_node(vs);
  }

  std::uint64_t edges() const { return tree.node_count() - 1; }

  /// Today's prices from the tree walks.
  std::uint64_t walk_cell_bits(SlotId s) const {
    return walk_stale_edges(cube.cells(), tree, s, tree.root) *
           (cube.cells().region(s).whole_domain ? whole_edge_bits
                                                : ranged_edge_bits);
  }
  std::uint64_t walk_residue_bits(const query::RegionSignature& r) const {
    const PartialStore& store = cube.cells();
    // An installed standing stats slot of the region prices like a cell.
    for (auto s = static_cast<SlotId>(cube.cell_count());
         s < store.slot_count(); ++s) {
      if (!store.sketch(s) && store.has_edges(s) && store.region(s) == r) {
        return walk_cell_bits(s);
      }
    }
    return walk_residue_edges(store, tree, tree.root,
                              store.containing_slots(r)) *
           (cube.tree_collect_bits(r) / edges());
  }

  /// Every cell price, and every interval between the cover positions of
  /// `count` random regions (cell and standing-slot ends included), against
  /// the walks.
  void expect_walk_prices(Xoshiro256& rng, int count) const {
    for (unsigned level = 0; level < cube.levels(); ++level) {
      for (unsigned index = 0; index < (1u << level); ++index) {
        const query::CubeCellRef ref{level, index};
        EXPECT_EQ(cube.cell_refresh_bits(ref),
                  walk_cell_bits(static_cast<SlotId>(Cube::cell_ordinal(ref))))
            << "cell " << level << "." << index;
      }
    }
    const PartialStore& store = cube.cells();
    for (int i = 0; i < count; ++i) {
      const auto lo = static_cast<Value>(rng.next_below(kBound + 1));
      const auto hi = lo + static_cast<Value>(rng.next_below(kBound - lo + 1));
      std::vector<Value> pos{lo, hi + 1};
      for (SlotId s = 0; s < store.slot_count(); ++s) {
        for (const Value v : {store.region(s).lo, store.region(s).hi + 1}) {
          if (v > lo && v <= hi) pos.push_back(v);
        }
      }
      std::sort(pos.begin(), pos.end());
      pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
      const std::vector<std::uint64_t> all =
          cube.residue_collect_bits_all(pos, kBound);
      ASSERT_EQ(all.size(), pos.size() * pos.size());
      for (std::size_t a = 0; a < pos.size(); ++a) {
        for (std::size_t b = a + 1; b < pos.size(); ++b) {
          const query::RegionSignature r =
              query::interval_region(pos[a], pos[b], kBound);
          const std::uint64_t want = walk_residue_bits(r);
          EXPECT_EQ(all[a * pos.size() + b], want) << r.lo << ".." << r.hi;
          EXPECT_EQ(cube.residue_collect_bits(r), want) << r.lo << ".." << r.hi;
        }
      }
    }
  }

  /// One epoch: drift a few random nodes, then maybe serve a random batch.
  void step(Xoshiro256& rng, std::uint32_t epoch) {
    drift(*this, rng, 6, epoch);
    if (rng.next_below(3) == 0) return;  // an epoch nobody reads
    // A few fixed standing regions, so slots are re-read, retire and come
    // back; random one-shot ranges; a distinct plan over HLL twins.
    static const char* const kStanding[] = {
        "SELECT SUM(v) FROM s WHERE v BETWEEN 100 AND 580",
        "SELECT COUNT(v) FROM s WHERE v BETWEEN 730 AND 900",
        "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 60 AND 700 "
        "ERROR 0.3",
        "SELECT COUNT_DISTINCT(v) FROM s ERROR 0.3",  // the root cell's twin
    };
    const query::Planner planner(kBound, &cube);
    for (const char* text : kStanding) {
      if (rng.next_below(2) == 0) continue;
      cube.claim(planner.plan(query::parse_query(text)).value(), true);
    }
    for (const std::string& text : random_texts(rng)) {
      cube.claim(planner.plan(query::parse_query(text)).value());
    }
    cube.serve_claimed(epoch);
  }
};

TEST(Cube, PricingTableMatchesTreeWalk) {
  for (const bool geometric : {true, false}) {
    for (const std::uint64_t seed : {2u, 11u}) {
      SCOPED_TRACE(geometric ? "geometric" : "grid");
      SCOPED_TRACE(seed);
      Xoshiro256 topo(seed);
      PricingRig rig(geometric
                         ? net::make_random_geometric(150, 0.14, topo).graph
                         : net::make_grid(9, 11),
                     seed);
      Xoshiro256 rng(seed * 7 + 1);
      rig.expect_walk_prices(rng, 2);  // cold: nothing collected yet
      for (std::uint32_t epoch = 1; epoch <= 12; ++epoch) {
        rig.step(rng, epoch);
        rig.expect_walk_prices(rng, 3);
      }
      // The slots the steps made: a twin, standing stats and sketch slots;
      // and at least one standing slot retired.
      const PartialStore& store = rig.cube.cells();
      EXPECT_GT(store.slot_count(), rig.cube.cell_count() + 3);
      EXPECT_GT(rig.cube.stats().standing_retired, 0u);
      EXPECT_GT(rig.cube.stats().residue_edges_pruned, 0u);
      // One table per store generation priced at, however many prices.
      const CubeStats stats = rig.cube.stats();
      EXPECT_GT(stats.pricing_passes, 0u);
      EXPECT_EQ(stats.pricing_passes, stats.pricing_generations);
    }
  }
}

TEST(Cube, PricingTableIsRebuiltAfterTheStoreChanges) {
  PricingRig rig(net::make_grid(8, 8), 4);
  Xoshiro256 rng(4);
  const query::Planner planner(kBound, &rig.cube);
  rig.cube.serve(
      planner.plan(query::parse_query("SELECT SUM(v) FROM s")).value(), 1);
  rig.expect_walk_prices(rng, 2);
  EXPECT_EQ(rig.cube.cell_refresh_bits({0, 0}), 0u);
  const CubeStats priced = rig.cube.stats();
  // Pricing again at the same generation reuses the table.
  rig.expect_walk_prices(rng, 2);
  EXPECT_EQ(rig.cube.stats().pricing_passes, priced.pricing_passes);
  // Readings move and only the tracker hears: the stale table must not be
  // read, so the fresh whole-domain cell's price moves with them.
  std::vector<NodeId> touched;
  for (NodeId u = 0; u < rig.net.node_count(); u += 3) {
    rig.net.update_item(u, 0, std::min(kBound, rig.net.items(u)[0] + kDelta));
    touched.push_back(u);
  }
  rig.dirty.note_updates(touched, 2);
  EXPECT_GT(rig.cube.cell_refresh_bits({0, 0}), 0u);
  rig.expect_walk_prices(rng, 2);
  EXPECT_EQ(rig.cube.stats().pricing_passes, priced.pricing_passes + 1);
}

/// Every bit the cube sent, by what sent it.
std::uint64_t charged_bits(const CubeStats& s) {
  return s.cell_bits + s.standing_bits + s.once_bits + s.install_bits;
}

TEST(Cube, LostMessageFailsTheServeAndTheRetryIsExact) {
  Fixture f;
  // Install the geometry over lossless links first.
  f.cube.serve(f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 0 AND 499"),
               0);
  for (const char* text :
       {"SELECT SUM(v) FROM s",  // a cold cell refresh
        "SELECT SUM(v) FROM s WHERE v BETWEEN 77 AND 901"}) {  // residues
    SCOPED_TRACE(text);
    const query::CostedPlan plan = f.plan_for(text);
    f.net.set_message_loss(0.3);
    EXPECT_THROW(f.cube.serve(plan, 0), ProtocolError);
    // The counters are read from the store, the failed wave's edges included.
    EXPECT_EQ(f.cube.stats().cell_edges_descended,
              f.cube.cells().edges_descended());
    EXPECT_EQ(f.cube.stats().cell_edges_skipped,
              f.cube.cells().edges_skipped());
    // The failed wave's bits are charged too: the bits by sender still sum
    // to every bit on the air.
    EXPECT_EQ(charged_bits(f.cube.stats()), f.net.summary(true).total_bits);
    f.net.set_message_loss(0.0);
    EXPECT_EQ(f.cube.serve(plan, 0).bundle.core,
              direct_core(f.net, plan.region));
    EXPECT_EQ(charged_bits(f.cube.stats()), f.net.summary(true).total_bits);
  }
}

}  // namespace
}  // namespace sensornet::cube
