// EXP — multiresolution aggregation cube: query-cost cliff vs pure tree
// collection (BENCH_PR10.json).
//
// Four lanes, one report:
//
//  1. Cached-range bits — an overlapping continuous-query lane (whole-domain
//     and dyadic-aligned ranges, a couple of unaligned stragglers) runs on
//     identical deployments three times: once with the cube enabled (cell
//     covers and the stragglers' standing residue slots kept incrementally
//     fresh off the dirty-mark wave, drift brackets for tolerant
//     subscribers), once in naive mode (every due query re-runs the
//     one-shot tree executor) and once on the shared scheduler plus result
//     cache without the cube — the cube's honest baseline. The claims
//     gated here: the cube ships at least 5x fewer total bits than naive,
//     and no more than shared + cache. The cube's bits are split into mark
//     waves, cell refreshes, standing residues, one-shot residues and
//     installs; the split must sum to the lane's total.
//
//  2. Oracle identity — every exact (ERROR-free) answer from the cube run
//     must be BYTE-identical (bit_cast of the double) to the naive
//     tree-collected answer for the same query at the same epoch; every
//     tolerant answer must contain the mirror-recomputed truth within its
//     deterministic bound. Violations are FATAL.
//
//  3. Region sweep — one-shot SUM over regions from a single cell to the
//     whole domain, aligned and unaligned. For each region: the cold cost
//     (first cube serve, geometry install included), the warm repeat cost
//     (cells fresh: zero for pure-cell covers, residue-only for unaligned
//     ends), and the pure tree-collection cost. This is the cost cliff the
//     planner's bit model navigates. One-shot residues run here, so this
//     lane keeps the prune path on the path: it must run a residue wave
//     and prune at least one provably empty residue edge.
//
//  4. Determinism — the cube lane replayed at 1/2/8 submit_batch workers;
//     an FNV-1a checksum over the full answer stream must be identical at
//     every count.
//
// A fifth mini-lane repeats the identity check for COUNT_DISTINCT: the
// cube's maintained HLL partials replicate the one-shot protocol's sketch
// geometry, so estimates must match bit for bit too. Its stale HLL edges
// send delta images, which must take fewer bits than the same images in
// full.
//
// The planner's prices come from the cube's pricing table, one tree pass
// per store generation: in the cached-range and distinct lanes the passes
// must not outnumber the generations prices were read at.
//
// The cached-range lane also records its air rounds (simulated time) per
// epoch. Every due query's cells and standing residues ride one
// multiplexed collect, and any one-shot residues one multiplexed residue
// wave, so an epoch may spend at most two convergecasts,
// 2 * (2 * tree height + 2) rounds, beyond its mark wave; more means
// serves ran one after another, and is FATAL.
//
// Usage: exp_cube [--quick] [--out PATH] [--threads N]
//   --quick    smaller deployment / fewer epochs (CI smoke lane)
//   --out      output JSON path (default: BENCH_PR10.json)
//   --threads  submit_batch farm workers; 0 = hardware concurrency
#include <algorithm>
#include <bit>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/trial_farm.hpp"
#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"
#include "src/service/engine.hpp"
#include "src/sim/network.hpp"
#include "util/report.hpp"
#include "util/service_lane.hpp"

namespace sensornet::bench {
namespace {

using service::Answer;
using service::QueryService;
using service::SensorUpdate;
using service::ServiceConfig;

struct Scale {
  unsigned grid_side;    // cached-range deployment is side x side
  std::uint32_t epochs;  // cached-range lane epochs
  unsigned sweep_side;   // region-sweep deployment
  unsigned distinct_side;
  std::uint32_t distinct_epochs;
};

constexpr Scale kFull = {24, 32, 16, 16, 10};
constexpr Scale kQuick = {12, 10, 10, 10, 6};

// ---------------------------------------------------------------------------
// Cached-range lane.
// ---------------------------------------------------------------------------
/// Whole-domain and dyadic-aligned regions dominate — the cube's home turf —
/// with two unaligned stragglers whose residues ride standing slots.
std::vector<ContinuousSpec> continuous_specs() {
  using query::AggregateKind;
  return {
      // Whole domain: one incrementally-fresh root cell serves them all.
      {AggregateKind::kCount, 0, kBound, 1, 0.0},
      {AggregateKind::kSum, 0, kBound, 2, 0.0},
      {AggregateKind::kSum, 0, kBound, 1, 0.1},
      {AggregateKind::kAvg, 0, kBound, 1, 0.1},
      {AggregateKind::kCount, 0, kBound, 1, 0.05},
      {AggregateKind::kSum, 0, kBound, 2, 0.2},
      {AggregateKind::kAvg, 0, kBound, 2, 0.15},
      // Dyadic-aligned ranges: exactly one maintained cell each.
      {AggregateKind::kSum, 0, 499, 2, 0.0},
      {AggregateKind::kCount, 0, 499, 1, 0.15},
      {AggregateKind::kAvg, 0, 499, 2, 0.15},
      {AggregateKind::kSum, 500, kBound, 1, 0.15},
      {AggregateKind::kCount, 250, 499, 1, 0.15},
      {AggregateKind::kSum, 750, kBound, 2, 0.2},
      // Unaligned stragglers: covers need residue ends.
      {AggregateKind::kSum, 100, 580, 4, 0.2},
      {AggregateKind::kCount, 730, 900, 4, 0.2},
  };
}

struct LaneRun : LaneTotals {
  std::vector<Answer> answers;  // flattened, epoch-major, admission order
  std::uint64_t bound_checked = 0;
  std::uint64_t bound_violations = 0;
  service::TelemetrySnapshot telemetry;
};

/// The service a cached-range run uses.
enum class Backend {
  kCube,         // cube + cache
  kNaive,        // raw per-query execution
  kSharedCache,  // shared scheduler + cache, no cube
};

/// Runs the cached-range scenario once. Deterministic for a fixed scale
/// regardless of `threads` — that invariance is lane 4.
LaneRun run_cached_lane(const Scale& s, unsigned threads, Backend backend) {
  const bool with_cube = backend == Backend::kCube;
  ServiceConfig cfg;
  cfg.threads = threads;
  cfg.use_cube = with_cube;
  cfg.share_aggregation = backend == Backend::kSharedCache;
  cfg.use_cache = backend != Backend::kNaive;
  LaneRun lane;
  static_cast<LaneTotals&>(lane) = run_service_lane(
      s.grid_side, s.epochs, cfg, continuous_specs(), "cached-range",
      [&lane, with_cube](const Answer& a, const ContinuousSpec& spec,
                         const std::vector<Value>& mirror, std::uint32_t e) {
        // Deterministic-bound soundness applies to the cube run only: in
        // naive mode a tolerant query runs a randomized approximation
        // protocol whose guarantee is statistical, not a drift bracket.
        if (with_cube && spec.error > 0.0) {
          ++lane.bound_checked;
          if (!within_bound(a, spec, mirror, e)) ++lane.bound_violations;
        }
        lane.answers.push_back(a);
      },
      [&lane](const QueryService& svc) {
        lane.telemetry = svc.telemetry_snapshot();
      });
  return lane;
}

/// Byte-compares the exact answers of a cube run against the naive oracle
/// run (same specs, same drift, same due schedule -> same answer order).
std::uint64_t count_oracle_mismatches(const LaneRun& cube,
                                      const LaneRun& naive) {
  if (cube.answers.size() != naive.answers.size()) {
    std::cerr << "FATAL: answer streams diverged in shape ("
              << cube.answers.size() << " vs " << naive.answers.size()
              << ")\n";
    std::exit(1);
  }
  const std::vector<ContinuousSpec> specs = continuous_specs();
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < cube.answers.size(); ++i) {
    const Answer& c = cube.answers[i];
    const Answer& n = naive.answers[i];
    const ContinuousSpec& spec = specs[c.id - 1];  // fresh service: ids 1..N
    if (spec.error > 0.0) continue;  // tolerant: bound-checked instead
    if (std::bit_cast<std::uint64_t>(c.value) !=
        std::bit_cast<std::uint64_t>(n.value)) {
      ++mismatches;
      std::cerr << "oracle mismatch: id=" << c.id << " epoch=" << c.epoch
                << " cube=" << std::setprecision(17) << c.value
                << " tree=" << n.value << "\n";
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Region-sweep lane.
// ---------------------------------------------------------------------------
/// One swept region; `warm`, when set, is a region the cube service serves
/// first (its bits not counted), so the region's one-shot residues meet a
/// fresh enclosing cell and prune against it.
struct SweepRegion {
  Value lo = 0, hi = 0;
  std::optional<std::pair<Value, Value>> warm = std::nullopt;
};

struct SweepRow {
  Value lo = 0, hi = 0;
  std::optional<std::pair<Value, Value>> warm;
  bool whole = false;
  std::uint64_t first_bits = 0;   // cold cube serve (geometry install incl.)
  std::uint64_t repeat_bits = 0;  // warm repeat: the marginal cube cost
  std::uint64_t tree_bits = 0;    // pure tree collection
  std::uint64_t mismatches = 0;
  std::uint64_t residue_waves = 0;  // the cube's, over both serves
  std::uint64_t residue_edges_pruned = 0;
};

std::string sum_text(Value lo, Value hi) {
  std::ostringstream os;
  os << "SELECT SUM(v) FROM s";
  if (lo != 0 || hi != kBound) os << " WHERE v BETWEEN " << lo << " AND " << hi;
  return os.str();
}

SweepRow run_sweep_region(const Scale& s, const SweepRegion& region) {
  SweepRow row;
  row.lo = region.lo;
  row.hi = region.hi;
  row.warm = region.warm;
  row.whole = row.lo == 0 && row.hi == kBound;
  const std::string text = sum_text(row.lo, row.hi);

  const unsigned n = s.sweep_side * s.sweep_side;
  std::vector<Value> values(n);
  for (NodeId u = 0; u < n; ++u) {
    values[u] = static_cast<Value>((u * 37) % (kBound + 1));
  }

  const auto one_shot = [](QueryService& svc, sim::Network& net,
                           const std::string& text) {
    const auto before = net.summary(true).total_bits;
    const auto r = svc.submit(text);
    if (!r.ok() || !r.value().answer) {
      std::cerr << "FATAL: sweep admission failed: "
                << (r.ok() ? "no answer" : r.error()) << "\n";
      std::exit(1);
    }
    return std::pair{r.value().answer->value,
                     net.summary(true).total_bits - before};
  };

  sim::Network cube_net(net::make_grid(s.sweep_side, s.sweep_side), 5);
  const net::SpanningTree cube_tree = net::bfs_tree(cube_net.graph(), 0);
  cube_net.set_one_item_per_node(values);
  ServiceConfig cube_cfg;
  cube_cfg.use_cube = true;
  cube_cfg.share_aggregation = false;
  cube_cfg.use_cache = false;  // measure the cube itself, not the cache
  QueryService cube_svc(query::Deployment{cube_net, cube_tree, kBound},
                        cube_cfg);

  sim::Network tree_net(net::make_grid(s.sweep_side, s.sweep_side), 5);
  const net::SpanningTree tree_tree = net::bfs_tree(tree_net.graph(), 0);
  tree_net.set_one_item_per_node(values);
  ServiceConfig tree_cfg;
  tree_cfg.share_aggregation = false;
  tree_cfg.use_cache = false;
  QueryService tree_svc(query::Deployment{tree_net, tree_tree, kBound},
                        tree_cfg);

  if (row.warm) {
    one_shot(cube_svc, cube_net, sum_text(row.warm->first, row.warm->second));
  }
  const auto [v_first, b_first] = one_shot(cube_svc, cube_net, text);
  const auto [v_repeat, b_repeat] = one_shot(cube_svc, cube_net, text);
  const auto [v_tree, b_tree] = one_shot(tree_svc, tree_net, text);
  row.first_bits = b_first;
  row.repeat_bits = b_repeat;
  row.tree_bits = b_tree;
  const cube::CubeStats& cs = cube_svc.telemetry_snapshot().cube;
  row.residue_waves = cs.residue_waves;
  row.residue_edges_pruned = cs.residue_edges_pruned;
  for (const double v : {v_first, v_repeat}) {
    if (std::bit_cast<std::uint64_t>(v) !=
        std::bit_cast<std::uint64_t>(v_tree)) {
      ++row.mismatches;
      std::cerr << "sweep mismatch [" << row.lo << "," << row.hi
                << "]: cube=" << v
                << " tree=" << v_tree << "\n";
    }
  }
  return row;
}

// ---------------------------------------------------------------------------
// COUNT_DISTINCT identity mini-lane.
// ---------------------------------------------------------------------------
struct DistinctLane {
  std::uint64_t answers = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t cube_bits = 0;
  std::uint64_t tree_bits = 0;
  cube::CubeStats cube;  // the cube's counters, delta images among them
};

DistinctLane run_distinct_lane(const Scale& s, unsigned threads) {
  const unsigned n = s.distinct_side * s.distinct_side;
  const std::vector<std::string> texts = {
      "SELECT COUNT_DISTINCT(v) FROM s EVERY 1 EPOCHS ERROR 0.15",
      "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 0 AND 499 "
      "EVERY 2 EPOCHS ERROR 0.15",
  };
  std::vector<Value> mirror(n);
  for (NodeId u = 0; u < n; ++u) {
    mirror[u] = static_cast<Value>((u * 41) % (kBound + 1));
  }

  const auto build = [&](bool with_cube, sim::Network& net,
                         const net::SpanningTree& tree) {
    ServiceConfig cfg;
    cfg.threads = threads;
    cfg.share_aggregation = false;
    cfg.use_cache = false;
    cfg.use_cube = with_cube;
    cfg.cube_distinct_registers = 64;  // ERROR 0.15 plans size to 64
    return QueryService(query::Deployment{net, tree, kBound}, cfg);
  };

  sim::Network cube_net(net::make_grid(s.distinct_side, s.distinct_side), 9);
  const net::SpanningTree cube_tree = net::bfs_tree(cube_net.graph(), 0);
  cube_net.set_one_item_per_node(mirror);
  QueryService cube_svc = build(true, cube_net, cube_tree);

  sim::Network tree_net(net::make_grid(s.distinct_side, s.distinct_side), 9);
  const net::SpanningTree tree_tree = net::bfs_tree(tree_net.graph(), 0);
  tree_net.set_one_item_per_node(mirror);
  QueryService tree_svc = build(false, tree_net, tree_tree);

  DistinctLane lane;
  for (const auto& t : texts) {
    if (!cube_svc.submit(t).ok() || !tree_svc.submit(t).ok()) {
      std::cerr << "FATAL: distinct-lane admission failed\n";
      std::exit(1);
    }
  }
  for (std::uint32_t e = 1; e <= s.distinct_epochs; ++e) {
    std::vector<SensorUpdate> batch;
    for (NodeId u = e % 5; u < n; u += 5) {
      const Value v =
          std::clamp<Value>(mirror[u] + ((u + e) % 2 == 0 ? 4 : -4), 0,
                            kBound);
      mirror[u] = v;
      batch.push_back(SensorUpdate{u, v});
    }
    std::vector<SensorUpdate> twin = batch;
    const auto ca = cube_svc.run_epoch(batch);
    const auto na = tree_svc.run_epoch(twin);
    if (ca.size() != na.size()) {
      std::cerr << "FATAL: distinct answer streams diverged in shape\n";
      std::exit(1);
    }
    for (std::size_t i = 0; i < ca.size(); ++i) {
      ++lane.answers;
      if (std::bit_cast<std::uint64_t>(ca[i].value) !=
          std::bit_cast<std::uint64_t>(na[i].value)) {
        ++lane.mismatches;
        std::cerr << "distinct mismatch: epoch=" << e
                  << " cube=" << std::setprecision(17) << ca[i].value
                  << " tree=" << na[i].value << "\n";
      }
    }
  }
  lane.cube_bits = cube_net.summary(true).total_bits;
  lane.tree_bits = tree_net.summary(true).total_bits;
  lane.cube = cube_svc.telemetry_snapshot().cube;
  return lane;
}

// ---------------------------------------------------------------------------
// Report and gates.
// ---------------------------------------------------------------------------
struct Totals {
  std::uint64_t exact_compared = 0;  // exact answers byte-compared
  std::uint64_t mismatches = 0;      // oracle + sweep + distinct
  std::uint64_t aligned_free = 0;    // sweep regions re-served at 0 bits
  std::uint64_t sweep_residue_waves = 0;
  std::uint64_t sweep_edges_pruned = 0;
};

/// The cube lane's bits by what sent them: every bit is a mark-wave bit or
/// one of the cube's.
struct BitsSplit {
  std::uint64_t marks = 0;
  std::uint64_t cell_refresh = 0;
  std::uint64_t standing_residue = 0;
  std::uint64_t oneshot_residue = 0;
  std::uint64_t installs = 0;

  explicit BitsSplit(const service::TelemetrySnapshot& t)
      : marks(t.mark_bits_on_air),
        cell_refresh(t.cube.cell_bits),
        standing_residue(t.cube.standing_bits),
        oneshot_residue(t.cube.once_bits),
        installs(t.cube.install_bits) {}
  std::uint64_t total() const {
    return marks + cell_refresh + standing_residue + oneshot_residue +
           installs;
  }
};

Totals totals_of(const LaneRun& cube, std::uint64_t oracle_mismatches,
                 const std::vector<SweepRow>& sweep,
                 const DistinctLane& distinct) {
  Totals tot;
  const auto specs = continuous_specs();
  for (const Answer& a : cube.answers) {
    if (specs[a.id - 1].error == 0.0) ++tot.exact_compared;
  }
  tot.mismatches = oracle_mismatches + distinct.mismatches;
  for (const auto& r : sweep) {
    tot.mismatches += r.mismatches;
    if (r.repeat_bits == 0) ++tot.aligned_free;
    tot.sweep_residue_waves += r.residue_waves;
    tot.sweep_edges_pruned += r.residue_edges_pruned;
  }
  return tot;
}

void gate_claims(Gates& gates, const LaneRun& cube, const LaneRun& naive,
                 const LaneRun& shared, const std::vector<SweepRow>& sweep,
                 const DistinctLane& distinct, const Determinism& det,
                 const Totals& tot) {
  const service::TelemetrySnapshot& t = cube.telemetry;
  gates.gate(!cube.answers.empty(), "no continuous answers produced");
  gates.gate(cube.total_bits > 0 && naive.total_bits > 0, "no bits shipped");
  gates.gate(cube.total_bits * 5 <= naive.total_bits, "cube shipped ",
             cube.total_bits, " bits vs ", naive.total_bits,
             " tree — the 5x claim does not hold");
  gates.gate(cube.total_bits <= shared.total_bits, "cube shipped ",
             cube.total_bits, " bits vs ", shared.total_bits,
             " on shared + cache — the cube loses to its honest baseline");
  gates.gate(BitsSplit(t).total() == cube.total_bits, "the cube's bit split ",
             BitsSplit(t).total(), " does not sum to its ", cube.total_bits,
             " bits");
  gates.gate(t.cube.refresh_waves > 0, "cube never refreshed a cell");
  // One cell collect and one residue wave per epoch, never more.
  gates.gate(cube.max_collection_rounds <= 2 * (2 * cube.tree_height + 2),
             "an epoch spent ", cube.max_collection_rounds,
             " rounds beyond its mark wave — cube serves ran serially");
  gates.gate(t.cube.cell_edges_skipped > 0,
             "incremental refresh never skipped a clean subtree");
  gates.gate(t.cube.standing_refreshed > 0,
             "no standing residue slot was ever collected");
  // The cost model reads a pricing table built once per store generation.
  for (const cube::CubeStats& c : {t.cube, distinct.cube}) {
    gates.gate(c.pricing_passes > 0 &&
                   c.pricing_passes <= c.pricing_generations,
               "the pricing table took ", c.pricing_passes,
               " tree passes for ", c.pricing_generations,
               " store generations priced at");
  }
  gates.gate(tot.exact_compared > 0, "oracle never exercised");
  gates.gate(tot.mismatches == 0, "cube answers differ from the tree oracle");
  gates.gate(cube.bound_checked > 0, "brackets never exercised");
  gates.gate(cube.bound_violations == 0, cube.bound_violations,
             " bracket-served answer(s) violated their bound");
  gates.gate(!sweep.empty(), "empty region sweep");
  for (const SweepRow& r : sweep) {
    gates.gate(r.tree_bits > 0, "sweep [", r.lo, ",", r.hi,
               "] collected no tree bits");
  }
  // The cost cliff: warm re-serves of pure-cell covers are free.
  gates.gate(tot.aligned_free > 0, "no region re-served at zero bits");
  // One-shot residues run on the sweep: the prune path stays on the path.
  gates.gate(tot.sweep_residue_waves > 0,
             "the region sweep never ran a residue wave");
  gates.gate(tot.sweep_edges_pruned > 0,
             "the region sweep's residue waves never pruned a provably empty "
             "subtree");
  gates.gate(distinct.answers > 0, "distinct lane produced no estimates");
  gates.gate(distinct.cube.hll_delta_image_bits > 0 &&
                 distinct.cube.hll_delta_image_bits <
                     distinct.cube.hll_delta_image_full_bits,
             "distinct lane: HLL delta images took ",
             distinct.cube.hll_delta_image_bits, " bits against ",
             distinct.cube.hll_delta_image_full_bits, " coded in full");
  det.gate(gates);
}

void write_pr10(Json& j, const Scale& s, bool quick, unsigned threads,
                const LaneRun& cube, const LaneRun& naive,
                const LaneRun& shared, std::uint64_t oracle_mismatches,
                const std::vector<SweepRow>& sweep,
                const DistinctLane& distinct, const Determinism& det,
                const Totals& tot) {
  const service::TelemetrySnapshot& t = cube.telemetry;
  const double ratio = ratio_of(naive.total_bits, cube.total_bits);
  const double vs_shared = ratio_of(shared.total_bits, cube.total_bits);
  const BitsSplit split(t);
  write_header(j, "BENCH_PR10", quick, threads);
  j.key("cached_range")
      .object()
      .field("nodes", s.grid_side * s.grid_side)
      .field("epochs", s.epochs)
      .field("continuous_queries", continuous_specs().size())
      .field("bits_cube", cube.total_bits)
      .field("bits_tree", naive.total_bits)
      .field("bits_ratio", ratio, 3)
      .field("bits_shared_cache", shared.total_bits)
      .field("cube_vs_shared", vs_shared, 3)
      .key("bits_split")
      .object()
      .field("marks", split.marks)
      .field("cell_refresh", split.cell_refresh)
      .field("standing_residue", split.standing_residue)
      .field("oneshot_residue", split.oneshot_residue)
      .field("installs", split.installs)
      .end()
      .field("answers", cube.answers.size())
      .field("cube_fresh_answers", t.totals.cube_fresh_answers)
      .field("cube_stale_answers", t.totals.cube_stale_answers)
      .field("cache_hits", t.totals.cache_hits)
      .field("refresh_waves", t.cube.refresh_waves)
      .field("cells_refreshed", t.cube.cells_refreshed)
      .field("residue_waves", t.cube.residue_waves)
      .field("residues_run", t.cube.residues_run)
      .field("standing_installs", t.cube.standing_installs)
      .field("standing_refreshed", t.cube.standing_refreshed)
      .field("push_messages", t.cube.push_messages)
      .field("push_image_bits", t.cube.push_image_bits)
      .field("pushed_unread_image_bits", t.totals.pushed_unread_image_bits)
      .field("cell_edges_descended", t.cube.cell_edges_descended)
      .field("cell_edges_skipped", t.cube.cell_edges_skipped)
      .field("residue_edges_pruned", t.cube.residue_edges_pruned)
      .field("pricing_passes", t.cube.pricing_passes)
      .field("pricing_generations", t.cube.pricing_generations)
      .field("mark_messages", t.mark_messages)
      .field("air_rounds_per_epoch",
             static_cast<double>(cube.air_rounds) / s.epochs, 1)
      .field("max_collection_rounds", cube.max_collection_rounds)
      .field("collection_rounds_bound", 2 * (2 * cube.tree_height + 2))
      .field("answers_checksum", hex(cube.answers_checksum))
      .end()
      .key("oracle")
      .object()
      .field("exact_answers_compared", tot.exact_compared)
      .field("mismatches", oracle_mismatches)
      .field("bound_checked", cube.bound_checked)
      .field("bound_violations", cube.bound_violations)
      .end()
      .key("region_sweep")
      .array();
  for (const SweepRow& r : sweep) {
    const double reduction =
        static_cast<double>(r.tree_bits) /
        static_cast<double>(std::max<std::uint64_t>(1, r.repeat_bits));
    j.object(Json::kLine).field("lo", r.lo).field("hi", r.hi);
    if (r.warm) j.field("warm_lo", r.warm->first).field("warm_hi", r.warm->second);
    j.field("width", r.hi - r.lo + 1)
        .field("first_bits", r.first_bits)
        .field("repeat_bits", r.repeat_bits)
        .field("tree_bits", r.tree_bits)
        .field("warm_reduction", reduction, 1)
        .field("residue_waves", r.residue_waves)
        .field("residue_edges_pruned", r.residue_edges_pruned)
        .end();
  }
  j.end()
      .key("distinct")
      .object()
      .field("answers", distinct.answers)
      .field("mismatches", distinct.mismatches)
      .field("bits_cube", distinct.cube_bits)
      .field("bits_tree", distinct.tree_bits)
      .field("hll_delta_image_bits", distinct.cube.hll_delta_image_bits)
      .field("hll_delta_image_full_bits",
             distinct.cube.hll_delta_image_full_bits)
      .field("pricing_passes", distinct.cube.pricing_passes)
      .field("pricing_generations", distinct.cube.pricing_generations)
      .end();
  det.write(j);
  j.key("summary")
      .object()
      .field("bits_ratio", ratio, 3)
      .field("bits_target", 5.0, 1)
      .field("bits_target_met", cube.total_bits * 5 <= naive.total_bits)
      .field("cube_vs_shared", vs_shared, 3)
      .field("beats_shared_cache", cube.total_bits <= shared.total_bits)
      .field("oracle_mismatches", tot.mismatches)
      .field("oracle_identical", tot.mismatches == 0)
      .field("bound_violations", cube.bound_violations)
      .field("bounds_sound", cube.bound_violations == 0)
      .field("deterministic_across_thread_counts", det.agree())
      .end();
}

}  // namespace
}  // namespace sensornet::bench

int main(int argc, char** argv) {
  using namespace sensornet::bench;
  using sensornet::Value;
  bool quick = false;
  std::string out_path = "BENCH_PR10.json";
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: exp_cube [--quick] [--out PATH] [--threads N]\n";
      return 2;
    }
  }
  const Scale& s = quick ? kQuick : kFull;
  const unsigned resolved = sensornet::resolve_thread_count(threads);

  std::cout << "EXP multiresolution cube (" << (quick ? "quick" : "full")
            << ", " << resolved << " worker(s))\n";

  std::cout << "## cached-range bits (" << s.grid_side * s.grid_side
            << " nodes, " << s.epochs << " epochs)\n";
  const LaneRun cube = run_cached_lane(s, resolved, Backend::kCube);
  const LaneRun naive = run_cached_lane(s, resolved, Backend::kNaive);
  const LaneRun shared = run_cached_lane(s, resolved, Backend::kSharedCache);
  const double ratio = ratio_of(naive.total_bits, cube.total_bits);
  const BitsSplit split(cube.telemetry);
  std::cout << "  cube: " << cube.total_bits << " bits ("
            << cube.telemetry.totals.cube_stale_answers << " bracket + "
            << cube.telemetry.totals.cache_hits << " cached of "
            << cube.answers.size() << " answers zero-bit)\n"
            << "  tree: " << naive.total_bits << " bits ("
            << std::setprecision(2) << std::fixed << ratio << "x)\n"
            << "  shared + cache: " << shared.total_bits << " bits ("
            << ratio_of(shared.total_bits, cube.total_bits) << "x)\n"
            << "  cube split: marks " << split.marks << ", cells "
            << split.cell_refresh << ", standing residues "
            << split.standing_residue << ", one-shot residues "
            << split.oneshot_residue << ", installs " << split.installs
            << "\n"
            << "  pricing: " << cube.telemetry.cube.pricing_passes
            << " table passes for " << cube.telemetry.cube.pricing_generations
            << " store generations priced at\n"
            << "  rounds: " << std::setprecision(1)
            << static_cast<double>(cube.air_rounds) / s.epochs
            << " per epoch, worst " << cube.max_collection_rounds
            << " beyond the mark wave (bound "
            << 2 * (2 * cube.tree_height + 2) << ")\n";

  const std::uint64_t oracle_mismatches =
      count_oracle_mismatches(cube, naive);
  std::cout << "  oracle: " << oracle_mismatches << " mismatch(es), "
            << cube.bound_violations << "/" << cube.bound_checked
            << " bound violation(s)\n";

  std::cout << "## region sweep (" << s.sweep_side * s.sweep_side
            << " nodes)\n";
  // The last row's residue runs inside the fresh upper-half cell.
  const std::vector<SweepRegion> regions = {
      {0, kBound}, {0, 499},   {500, kBound}, {0, 249},
      {250, 499},  {0, 300},   {37, 612},     {101, 860},
      {600, 700},  {600, 700, std::pair{Value{500}, kBound}},
  };
  std::vector<SweepRow> sweep;
  for (const SweepRegion& region : regions) {
    sweep.push_back(run_sweep_region(s, region));
    const SweepRow& r = sweep.back();
    std::cout << "  [" << std::setw(4) << r.lo << "," << std::setw(4) << r.hi
              << "]";
    if (r.warm) {
      std::cout << " in [" << r.warm->first << "," << r.warm->second << "]";
    }
    std::cout << " first=" << std::setw(7) << r.first_bits
              << " repeat=" << std::setw(6) << r.repeat_bits
              << " tree=" << std::setw(7) << r.tree_bits
              << " pruned=" << r.residue_edges_pruned << "\n";
  }

  std::cout << "## distinct identity (" << s.distinct_side * s.distinct_side
            << " nodes, " << s.distinct_epochs << " epochs)\n";
  const DistinctLane distinct = run_distinct_lane(s, resolved);
  std::cout << "  " << distinct.answers << " estimates, "
            << distinct.mismatches << " mismatch(es)\n";

  std::cout << "## determinism across farm workers\n";
  Determinism det;
  for (const unsigned t : {1u, 2u, 8u}) {
    det.add(t, t == resolved
                   ? cube.checksum
                   : run_cached_lane(s, t, Backend::kCube).checksum);
  }

  const Totals tot =
      totals_of(cube, oracle_mismatches, sweep, distinct);
  Gates gates;
  gate_claims(gates, cube, naive, shared, sweep, distinct, det, tot);
  write_report(out_path, [&](Json& j) {
    write_pr10(j, s, quick, resolved, cube, naive, shared, oracle_mismatches,
               sweep, distinct, det, tot);
  });
  return gates.exit_code();
}
