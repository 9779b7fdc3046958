// EXP-T51 — Theorem 5.1 and its contrast: exact COUNT_DISTINCT communicates
// linearly in the distinct count (and the constructive 2SD reduction's cut
// bits grow linearly in n), while hashed-LogLog approximation is flat in D
// and lands within (1 +- 3.15/k) of the truth with ~99% probability.
// With --out PATH (optionally --json-only) it additionally emits
// BENCH_PR6.json: bits-on-the-wire per precision for the sketch layer
// (legacy flat register image vs sketch::Hll sparse/dense v1 wire format)
// and dense-merge throughput per packed width — the PR-6 acceptance
// numbers. It exits nonzero if a sparse image is not cheaper than the flat
// one, an estimate degrades, or the report cannot be written.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/trial_farm.hpp"
#include "src/core/count_distinct.hpp"
#include "src/core/disjointness.hpp"
#include "src/sketch/hll.hpp"
#include "src/sketch/registers.hpp"
#include "util/experiment.hpp"
#include "util/report.hpp"
#include "util/table.hpp"

namespace sensornet::bench {
namespace {

// Every table below runs its rows as farm cells. Cells draw randomness
// from trial_seed(table_seed, cell) — their own splitmix64-separated
// streams — instead of sharing one sequential generator, which is what
// makes the rows schedulable on any worker without changing a digit.
using Row = std::vector<std::string>;

void linear_vs_flat_table(TrialFarm& farm) {
  Table table({"N", "distinct D", "exact bits/node", "approx bits/node (m=64)",
               "exact/approx"});
  const std::size_t n = 1024;
  const std::vector<std::size_t> distinct{8, 64, 256, 1024};
  const auto rows = farm.map<Row>(distinct.size(), [&](std::size_t cell) {
    const std::size_t d = distinct[cell];
    Xoshiro256 rng(trial_seed(3, cell));
    const ValueSet xs = generate_with_distinct(n, d, 1 << 22, rng);
    std::uint64_t exact_bits = 0;
    std::uint64_t approx_bits = 0;
    {
      sim::Network net(net::make_line(n), 5);
      net.set_one_item_per_node(xs);
      const auto tree = net::bfs_tree(net.graph(), 0);
      exact_bits = core::exact_count_distinct(net, tree).max_node_bits;
    }
    {
      sim::Network net(net::make_line(n), 5);
      net.set_one_item_per_node(xs);
      const auto tree = net::bfs_tree(net.graph(), 0);
      approx_bits =
          core::approx_count_distinct(net, tree, 64,
                                      proto::EstimatorKind::kHyperLogLog)
              .max_node_bits;
    }
    return Row{std::to_string(n), std::to_string(d), fmt_bits(exact_bits),
               fmt_bits(approx_bits),
               fmt(static_cast<double>(exact_bits) /
                   static_cast<double>(approx_bits))};
  });
  for (const Row& row : rows) table.add_row(row);
  table.print();
}

void approx_accuracy_table(TrialFarm& farm) {
  // Paper: k^2 loglog n bits, within (1 +- 3.15/k) w.p. 99%.
  Table table({"k", "m = k^2", "tolerance 3.15/k", "trials",
               "within tolerance", "mean |rel err|"});
  const std::size_t n = 512;
  const std::size_t d = 300;
  const std::vector<unsigned> ks{4, 8, 16};
  const auto rows = farm.map<Row>(ks.size(), [&](std::size_t cell) {
    const unsigned k = ks[cell];
    const unsigned m = k * k;
    constexpr int kTrials = 20;
    Xoshiro256 rng(trial_seed(7, cell));
    int within = 0;
    double sum_err = 0;
    for (int t = 0; t < kTrials; ++t) {
      const ValueSet xs = generate_with_distinct(n, d, 1 << 24, rng);
      sim::Network net(net::make_line(n), 100 + t);
      net.set_one_item_per_node(xs);
      const auto tree = net::bfs_tree(net.graph(), 0);
      const auto res = core::approx_count_distinct(
          net, tree, m, proto::EstimatorKind::kHyperLogLog);
      const double rel =
          std::abs(res.estimate - static_cast<double>(d)) /
          static_cast<double>(d);
      sum_err += rel;
      if (rel <= 3.15 / k) ++within;
    }
    return Row{std::to_string(k), std::to_string(m), fmt(3.15 / k, 3),
               std::to_string(kTrials), std::to_string(within),
               fmt(sum_err / kTrials, 4)};
  });
  for (const Row& row : rows) table.add_row(row);
  table.print();
}

void reduction_table(TrialFarm& farm) {
  Table table({"per-side n", "instance", "declared", "cut bits",
               "cut bits / n", "max bits/node"});
  const std::vector<std::size_t> sides{16, 64, 256, 1024};
  const auto rows = farm.map<Row>(2 * sides.size(), [&](std::size_t cell) {
    const std::size_t per_side = sides[cell / 2];
    const bool disjoint = cell % 2 == 0;
    Xoshiro256 rng(trial_seed(11, cell));
    const auto inst = generate_disjointness(
        per_side, disjoint ? 0 : per_side / 4, 1 << 24, rng);
    const auto rep = core::solve_disjointness_via_count_distinct(
        inst.side_a, inst.side_b);
    return Row{std::to_string(per_side),
               disjoint ? "disjoint" : "overlapping",
               rep.declared_disjoint ? "disjoint" : "overlapping",
               fmt_bits(rep.cut_bits),
               fmt(static_cast<double>(rep.cut_bits) /
                   static_cast<double>(per_side)),
               fmt_bits(rep.max_node_bits)};
  });
  for (const Row& row : rows) table.add_row(row);
  table.print();
  std::cout << "(cut bits / n approaching a constant ~= value-entropy "
               "confirms the Omega(n) information flow across the A|B "
               "cut that Theorem 5.1's reduction forces.)\n\n";
}

// ---------------------------------------------------------------------------
// BENCH_PR6.json: sketch-layer wire cost + dense-merge throughput.
// ---------------------------------------------------------------------------

struct WireRow {
  unsigned precision = 0;
  unsigned m = 0;
  unsigned width = 0;
  std::uint64_t legacy_flat_bits = 0;   // the pre-Hll m*w register image
  std::uint64_t hll_dense_bits = 0;     // v1 header + packed dense body
  std::uint64_t hll_sparse_bits = 0;    // v1 image of an 8-distinct-item leaf
  double sparse_vs_legacy = 0.0;        // hll_sparse / legacy_flat
  double mean_abs_rel_err = 0.0;        // estimate quality at this precision
};

WireRow measure_wire(unsigned precision, int trials) {
  using sketch::Hll;
  WireRow row;
  row.precision = precision;
  row.m = 1u << precision;
  row.width = 6;
  row.legacy_flat_bits = static_cast<std::uint64_t>(row.m) * row.width;

  // Low-cardinality leaf: 8 distinct items, the regime sparse exists for.
  Hll leaf = Hll::make_by_registers(row.m).value();
  for (std::uint64_t v = 0; v < 8; ++v) leaf.add(v, 1);
  row.hll_sparse_bits = leaf.wire_bits();
  row.sparse_vs_legacy = static_cast<double>(row.hll_sparse_bits) /
                         static_cast<double>(row.legacy_flat_bits);

  // Saturated aggregate: the dense image every inner node converges to.
  constexpr std::uint64_t kTruth = 60000;
  double err_sum = 0;
  for (int t = 0; t < trials; ++t) {
    Hll full = Hll::make_by_registers(row.m).value();
    for (std::uint64_t v = 0; v < kTruth; ++v) {
      full.add(v, 100 + static_cast<std::uint64_t>(t));
    }
    row.hll_dense_bits = full.wire_bits();
    err_sum += std::abs(full.estimate() / static_cast<double>(kTruth) - 1.0);
  }
  row.mean_abs_rel_err = err_sum / trials;
  return row;
}

struct MergeRow {
  unsigned m = 0;
  unsigned width = 0;
  double ns_per_merge = 0.0;
  double ns_per_merge_legacy = 0.0;  // byte-per-register elementwise loop
  double speedup = 0.0;
};

MergeRow measure_dense_merge(unsigned m, unsigned width, int iters) {
  using Clock = std::chrono::steady_clock;
  using sketch::Hll;
  MergeRow row;
  row.m = m;
  row.width = width;
  Xoshiro256 rng(97);
  Hll a = Hll::make_by_registers(m, {.width = width, .sparse = false}).value();
  Hll b = Hll::make_by_registers(m, {.width = width, .sparse = false}).value();
  sketch::RegisterArray la(m, width);
  sketch::RegisterArray lb(m, width);
  for (unsigned i = 0; i < 4 * m; ++i) {
    const auto oa = sketch::random_observation(m, rng);
    a.observe(oa.bucket, oa.rank);
    la.observe(oa.bucket, oa.rank);
    const auto ob = sketch::random_observation(m, rng);
    b.observe(ob.bucket, ob.rank);
    lb.observe(ob.bucket, ob.rank);
  }
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    if (!a.merge(b).ok()) return row;
  }
  const auto t1 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    la.merge(lb);
  }
  const auto t2 = Clock::now();
  const auto ns = [](auto d) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  row.ns_per_merge = ns(t1 - t0) / iters;
  row.ns_per_merge_legacy = ns(t2 - t1) / iters;
  row.speedup = row.ns_per_merge > 0
                    ? row.ns_per_merge_legacy / row.ns_per_merge
                    : 0.0;
  return row;
}

/// Measures the BENCH_PR6 rows, gates their claims and writes the report.
/// The wire claims are bit arithmetic, so they are gated; merge ns/op is
/// timing, so only its sign is.
int write_bench_json(const std::string& path, unsigned threads) {
  std::vector<WireRow> wire;
  for (const unsigned p : {4u, 6u, 8u, 10u}) {
    wire.push_back(measure_wire(p, /*trials=*/5));
  }
  std::vector<MergeRow> merges;
  for (const unsigned w : {4u, 5u, 6u, 8u}) {
    merges.push_back(measure_dense_merge(1024, w, /*iters=*/20000));
  }
  bool sparse_always_cheaper = true;
  for (const auto& r : wire) {
    if (r.hll_sparse_bits >= r.legacy_flat_bits) sparse_always_cheaper = false;
  }
  double min_speedup = merges.empty() ? 0.0 : merges.front().speedup;
  for (const auto& r : merges) min_speedup = std::min(min_speedup, r.speedup);

  Gates gates;
  gates.gate(!wire.empty() && !merges.empty(), "empty wire or merge section");
  for (const auto& r : wire) {
    gates.gate(r.hll_sparse_bits < r.legacy_flat_bits,
               "sparse not cheaper at p=", r.precision);
    gates.gate(r.mean_abs_rel_err < 0.5, "estimate degraded at p=",
               r.precision);
  }
  for (const auto& r : merges) {
    gates.gate(r.ns_per_merge > 0, "no dense-merge time at width ", r.width);
  }

  write_report(path, [&](Json& j) {
    write_header(j, "BENCH_PR6", /*quick=*/false,
                 resolve_thread_count(threads));
    j.key("wire").array();
    for (const auto& r : wire) {
      j.object()
          .field("precision", r.precision)
          .field("registers", r.m)
          .field("width", r.width)
          .field("legacy_flat_bits", r.legacy_flat_bits)
          .field("hll_dense_bits", r.hll_dense_bits)
          .field("hll_sparse_bits_8_items", r.hll_sparse_bits)
          .field("sparse_vs_legacy_ratio", r.sparse_vs_legacy, 4)
          .field("mean_abs_rel_err", r.mean_abs_rel_err, 4)
          .end();
    }
    j.end().key("dense_merge").array();
    for (const auto& r : merges) {
      j.object()
          .field("registers", r.m)
          .field("width", r.width)
          .field("ns_per_merge", r.ns_per_merge, 2)
          .field("ns_per_merge_legacy", r.ns_per_merge_legacy, 2)
          .field("speedup", r.speedup, 3)
          .end();
    }
    j.end()
        .key("summary")
        .object()
        .field("sparse_cheaper_than_legacy_at_low_cardinality",
               sparse_always_cheaper)
        .field("dense_merge_min_speedup", min_speedup, 3)
        .end();
  });
  return gates.exit_code();
}

void run(unsigned threads) {
  print_banner(
      "EXP-T51", "Theorem 5.1 + Section 5",
      "exact COUNT_DISTINCT is linear in D (and the 2SD reduction moves "
      "Omega(n) bits across the cut); hashed-LogLog approximation is flat "
      "in D and within (1 +- 3.15/k) w.p. ~99%");
  TrialFarm farm(threads);
  linear_vs_flat_table(farm);
  approx_accuracy_table(farm);
  reduction_table(farm);
}

}  // namespace
}  // namespace sensornet::bench

int main(int argc, char** argv) {
  std::string out_path;
  bool json_only = false;
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--json-only") {
      json_only = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: exp_count_distinct [--out PATH] [--json-only] "
                   "[--threads N]\n";
      return 2;
    }
  }
  if (!json_only) sensornet::bench::run(threads);
  if (out_path.empty()) return 0;
  return sensornet::bench::write_bench_json(out_path, threads);
}
