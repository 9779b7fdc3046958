// Microbenchmarks: Planner::plan over a warmed multiresolution cube
// (google-benchmark).
//
// A 2048-node geometric deployment with a 4-level cube keeping 64-register
// HLL twins, warmed by a few served plans (cells, twins, a standing
// residue). Each iteration plans one unaligned range, whose cover DP prices
// every cell and every residue arc: at one store generation
// (BM_PlanUnalignedRange), and right after a drift batch changed the store,
// so the plan pays for re-pricing it (BM_PlanAfterDrift; the drift itself is
// not timed).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.hpp"
#include "src/cube/cube.hpp"
#include "src/cube/dirty.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"
#include "src/query/parser.hpp"
#include "src/query/planner.hpp"
#include "src/sim/network.hpp"

namespace {

namespace sn = sensornet;

constexpr sn::Value kBound = 1000;
constexpr const char* kUnaligned =
    "SELECT SUM(v) FROM s WHERE v BETWEEN 137 AND 811";

/// The warmed deployment; built once per benchmark.
struct WarmCube {
  sn::Xoshiro256 rng{17};
  sn::sim::Network net;
  sn::net::SpanningTree tree;
  sn::cube::DirtyTracker dirty;
  sn::cube::Cube cube;
  sn::query::Planner planner;
  std::uint32_t epoch = 0;

  WarmCube()
      : net(sn::net::make_random_geometric(2048, 0.045, rng).graph, 17),
        tree(sn::net::bfs_tree(net.graph(), 0)),
        dirty(net, tree),
        cube(net, tree, kBound, dirty,
             sn::cube::CubeConfig{.levels = 4, .distinct_registers = 64}),
        planner(kBound, &cube) {
    // Skewed readings: most in the low quarter of the domain.
    sn::ValueSet vs(net.node_count());
    for (sn::Value& v : vs) {
      v = static_cast<sn::Value>(rng.next_below(4) == 0
                                     ? rng.next_below(kBound + 1)
                                     : rng.next_below(250));
    }
    net.set_one_item_per_node(vs);
    for (const char* text :
         {"SELECT SUM(v) FROM s", "SELECT COUNT(v) FROM s WHERE v BETWEEN 0 "
                                  "AND 499",
          "SELECT AVG(v) FROM s WHERE v BETWEEN 500 AND 1000",
          "SELECT COUNT_DISTINCT(v) FROM s ERROR 0.15",
          "SELECT SUM(v) FROM s WHERE v BETWEEN 100 AND 580"}) {
      cube.claim(plan(text), /*standing=*/true);
    }
    std::vector<sn::cube::ServeResult> served;
    cube.serve_claimed(epoch, served);
  }

  sn::query::CostedPlan plan(const char* text) const {
    return planner.plan(sn::query::parse_query(text)).value();
  }

  /// One epoch of sparse drift the tracker hears of.
  void drift() {
    std::vector<sn::NodeId> touched;
    for (int i = 0; i < 16; ++i) {
      const auto u = static_cast<sn::NodeId>(rng.next_below(net.node_count()));
      if (std::find(touched.begin(), touched.end(), u) != touched.end()) {
        continue;
      }
      const sn::Value old = net.items(u)[0];
      net.update_item(u, 0, old < kBound ? old + 1 : old - 1);
      touched.push_back(u);
    }
    dirty.note_updates(touched, ++epoch);
  }
};

void BM_PlanUnalignedRange(benchmark::State& state) {
  WarmCube w;
  const sn::query::Query q = sn::query::parse_query(kUnaligned);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.planner.plan(q));
  }
}
BENCHMARK(BM_PlanUnalignedRange);

void BM_PlanAfterDrift(benchmark::State& state) {
  WarmCube w;
  const sn::query::Query q = sn::query::parse_query(kUnaligned);
  for (auto _ : state) {
    state.PauseTiming();
    w.drift();
    state.ResumeTiming();
    benchmark::DoNotOptimize(w.planner.plan(q));
  }
}
BENCHMARK(BM_PlanAfterDrift);

}  // namespace

BENCHMARK_MAIN();
