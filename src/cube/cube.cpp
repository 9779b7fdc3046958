#include "src/cube/cube.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/tree_broadcast.hpp"

namespace sensornet::cube {

namespace {

constexpr std::uint32_t kRefreshSessionBase = 0x7800;
constexpr std::uint32_t kResidueSessionBase = 0x7C00;
constexpr std::uint32_t kGeometrySession = 0x7BFF;

void mirror_cube_stats(const CubeStats& s) {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge_set(reg.gauge("cube.refresh_waves"), s.refresh_waves);
  reg.gauge_set(reg.gauge("cube.cells_refreshed"), s.cells_refreshed);
  reg.gauge_set(reg.gauge("cube.cell_edges_descended"), s.cell_edges_descended);
  reg.gauge_set(reg.gauge("cube.cell_edges_skipped"), s.cell_edges_skipped);
  reg.gauge_set(reg.gauge("cube.residue_waves"), s.residue_waves);
  reg.gauge_set(reg.gauge("cube.residues_run"), s.residues_run);
  reg.gauge_set(reg.gauge("cube.residue_edges_descended"),
                s.residue_edges_descended);
  reg.gauge_set(reg.gauge("cube.residue_edges_pruned"),
                s.residue_edges_pruned);
  reg.gauge_set(reg.gauge("cube.fresh_serves"), s.fresh_serves);
  reg.gauge_set(reg.gauge("cube.stale_serves"), s.stale_serves);
  reg.gauge_set(reg.gauge("cube.geometry_installs"), s.geometry_installs);
}

}  // namespace

// ---- construction ---------------------------------------------------------

Cube::Cube(sim::Network& net, const net::SpanningTree& tree,
           Value max_value_bound, const DirtyTracker& dirty, CubeConfig config)
    : net_(net),
      tree_(tree),
      max_value_bound_(max_value_bound),
      config_(config),
      store_(net, tree, dirty,
             static_cast<Value>(config.horizon_epochs) * config.max_delta,
             config.distinct_registers),
      next_residue_session_(kResidueSessionBase) {
  SENSORNET_EXPECTS(max_value_bound >= 0);
  SENSORNET_EXPECTS(config_.levels >= 1 && config_.levels <= 16);
  // The finest level must not out-resolve the domain, or cells go empty.
  SENSORNET_EXPECTS((std::uint64_t{1} << (config_.levels - 1)) <=
                    static_cast<std::uint64_t>(max_value_bound) + 1);
  SENSORNET_EXPECTS(config_.max_delta >= 0);
  SENSORNET_EXPECTS(config_.horizon_epochs >= 1);
  const auto domain = static_cast<std::uint64_t>(max_value_bound) + 1;
  for (unsigned level = 0; level < config_.levels; ++level) {
    for (unsigned index = 0; index < (1u << level); ++index) {
      query::RegionSignature region;
      region.lo = static_cast<Value>(index * domain >> level);
      region.hi = static_cast<Value>(((index + 1ull) * domain >> level) - 1);
      region.whole_domain = region.lo == 0 && region.hi == max_value_bound;
      // Session identifies the cell: stable across epochs, disjoint from
      // the scheduler's 0x7000 group range and the residue range.
      const auto ordinal = static_cast<std::uint32_t>(store_.slot_count());
      store_.add_slot(region, kRefreshSessionBase + ordinal);
    }
  }
  cell_claimed_.assign(store_.slot_count(), 0);
  // Construction ships zero bits: the geometry install broadcast is lazy,
  // paid by the first serve (bits-conservation invariants stay intact for
  // services that never enable the cube path).
}

Cube::~Cube() = default;

// ---- residue collection ---------------------------------------------------

PartialStore::OnceCollection Cube::collect_residues(
    const std::vector<query::RegionSignature>& ranges, bool sketch,
    const std::vector<std::size_t>& owners, std::vector<ServeResult>& out) {
  if (ranges.empty()) return {};
  const SimTime t0 = net_.now();
  PartialStore::OnceCollection got = store_.collect_once(
      ranges, sketch, max_value_bound_, next_residue_session_++);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    out[owners[i]].bits += got.shares[i].bits;
    out[owners[i]].messages += got.shares[i].messages;
  }
  ++stats_.residue_waves;
  stats_.residues_run += ranges.size();
  stats_.residue_edges_descended += got.edges_descended;
  stats_.residue_edges_pruned += got.edges_pruned;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("cube.residue", "service", t0, net_.now() - t0, 0,
                  "residues", ranges.size(), "sketch", sketch ? 1 : 0);
  }
  return got;
}

// ---- geometry install -----------------------------------------------------

WaveShare Cube::install_geometry() {
  geometry_installed_ = true;
  const sim::CommSummary before = net_.summary(/*include_headers=*/true);
  // Nodes must learn the grid (levels, margin) and, for distinct partials,
  // the sketch geometry — paid once, on first serve, metered like any bits.
  proto::TreeBroadcast install(
      tree_, kGeometrySession,
      [](sim::Network&, NodeId, BitReader) { /* geometry noted */ });
  BitWriter w;
  encode_uint(w, config_.levels);
  encode_uint(w, static_cast<std::uint64_t>(config_.horizon_epochs) *
                     static_cast<std::uint64_t>(config_.max_delta));
  encode_uint(w, config_.distinct_registers);
  if (config_.distinct_registers > 0) {
    encode_uint(w, store_.hll_width());
    encode_uint(w, kHllSalt);
  }
  install.execute(net_, std::move(w));
  ++stats_.geometry_installs;
  const sim::CommSummary after = net_.summary(/*include_headers=*/true);
  WaveShare cost;
  cost.bits = after.total_bits - before.total_bits;
  cost.messages = after.total_messages - before.total_messages;
  return cost;
}

// ---- serving --------------------------------------------------------------

std::size_t Cube::claim(const query::CostedPlan& plan) {
  if (plan.strategy == query::Strategy::kApproxDistinct) {
    SENSORNET_EXPECTS(config_.distinct_registers > 0 &&
                      plan.registers == config_.distinct_registers);
  }
  for (const query::PlanStep& step : plan.steps) {
    if (step.kind == query::StepKind::kCubeCell) {
      cell_claimed_[slot(step.cell)] = 1;
    }
  }
  claimed_.push_back(plan);
  return claimed_.size() - 1;
}

std::vector<ServeResult> Cube::serve_claimed(std::uint32_t epoch) {
  // Take the batch first: a lost message must not leave claims behind.
  const std::vector<query::CostedPlan> plans = std::exchange(claimed_, {});
  std::fill(cell_claimed_.begin(), cell_claimed_.end(), 0);
  std::vector<ServeResult> out(plans.size());
  if (plans.empty()) return out;
  if (!geometry_installed_) {
    const WaveShare install = install_geometry();
    out[0].bits += install.bits;
    out[0].messages += install.messages;
  }

  // Each cell and residue is owned by the first plan that claimed it: that
  // plan pays its wave share, the later ones ride for free. A residue is
  // keyed by (range, sketch): index [sketch] holds its wave's ranges.
  constexpr std::size_t kUnowned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> cell_owner(store_.slot_count(), kUnowned);
  std::array<std::vector<query::RegionSignature>, 2> ranges;
  std::array<std::vector<std::size_t>, 2> range_owner;
  const auto residue = [&ranges](const query::PlanStep& step, bool sketch) {
    const std::vector<query::RegionSignature>& r = ranges[sketch];
    return static_cast<std::size_t>(
        std::find(r.begin(), r.end(), step.region) - r.begin());
  };
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const bool sketch =
        plans[p].strategy == query::Strategy::kApproxDistinct;
    for (const query::PlanStep& step : plans[p].steps) {
      if (step.kind == query::StepKind::kCubeCell) {
        std::size_t& owner = cell_owner[slot(step.cell)];
        if (owner == kUnowned) owner = p;
      } else if (residue(step, sketch) == ranges[sketch].size()) {
        ranges[sketch].push_back(step.region);
        range_owner[sketch].push_back(p);
      }
    }
  }

  // 1. One collect() brings every claimed cell up to the epoch.
  std::vector<SlotId> cells;
  for (SlotId s = 0; s < store_.slot_count(); ++s) {
    if (cell_owner[s] != kUnowned) cells.push_back(s);
  }
  if (!cells.empty()) {
    const SimTime t0 = net_.now();
    const std::vector<WaveShare> shares = store_.collect(cells, epoch);
    std::size_t refreshed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ServeResult& owner = out[cell_owner[cells[i]]];
      owner.bits += shares[i].bits;
      owner.messages += shares[i].messages;
      refreshed += shares[i].collected ? 1 : 0;
    }
    stats_.cell_edges_descended = store_.edges_descended();
    stats_.cell_edges_skipped = store_.edges_skipped();
    if (refreshed > 0) {
      ++stats_.refresh_waves;
      stats_.cells_refreshed += refreshed;
      obs::TraceRing& ring = obs::TraceRing::global();
      if (ring.enabled()) {
        ring.complete("cube.refresh", "service", t0, net_.now() - t0, 0,
                      "epoch", epoch, "cells", refreshed);
      }
    }
  }

  // 2. The residues, pruned against the fresh cells.
  std::array<PartialStore::OnceCollection, 2> residues;
  for (const bool sketch : {false, true}) {
    residues[sketch] =
        collect_residues(ranges[sketch], sketch, range_owner[sketch], out);
  }

  // 3. Each plan's composition.
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const bool sketch =
        plans[p].strategy == query::Strategy::kApproxDistinct;
    ServeResult& r = out[p];
    std::optional<sketch::Hll> merged;
    if (sketch) merged = store_.empty_hll();
    for (const query::PlanStep& step : plans[p].steps) {
      if (step.kind == query::StepKind::kCubeCell) {
        const SlotId s = slot(step.cell);
        r.bundle.combine(store_.root(s));
        if (sketch) merged->merge(store_.root_hll(s)).value();
        ++r.cells_used;
        continue;
      }
      const std::size_t i = residue(step, sketch);
      r.bundle.combine(residues[sketch].bundles[i]);
      if (sketch) merged->merge(residues[sketch].hlls[i]).value();
      ++r.residues_run;
    }
    if (sketch) {
      r.has_distinct = true;
      r.distinct_estimate = merged->estimate();
    }
  }
  stats_.fresh_serves += plans.size();
  mirror_stats();
  return out;
}

ServeResult Cube::serve(const query::CostedPlan& plan, std::uint32_t epoch) {
  SENSORNET_EXPECTS(claimed_.empty());
  claim(plan);
  return std::move(serve_claimed(epoch).front());
}

void Cube::note_stale_serve() {
  ++stats_.stale_serves;
  mirror_stats();
}

std::optional<BracketedAnswer> Cube::stale_bracket(
    const query::CostedPlan& plan, query::AggregateKind agg,
    std::uint32_t now_epoch) const {
  BracketComposer composer;
  for (const query::PlanStep& step : plan.steps) {
    if (step.kind != query::StepKind::kCubeCell) return std::nullopt;
    const SlotId s = slot(step.cell);
    const std::uint32_t epoch = store_.epoch(s);
    if (epoch == DirtyTracker::kInvalidEpoch || now_epoch < epoch) {
      return std::nullopt;
    }
    const query::RegionSignature& region = store_.region(s);
    const std::uint32_t staleness = now_epoch - epoch;
    if (!region.whole_domain && staleness > config_.horizon_epochs) {
      return std::nullopt;  // margins no longer bracket this cell
    }
    composer.add(store_.root(s), region.whole_domain,
                 static_cast<double>(staleness) *
                     static_cast<double>(config_.max_delta),
                 static_cast<double>(region.lo),
                 static_cast<double>(region.hi));
  }
  return composer.answer(agg);
}

// ---- cost model -----------------------------------------------------------

std::uint64_t Cube::edge_cost_bits(bool whole_domain,
                                   bool carries_region) const {
  // Request: header + 1 descend bit, or header + an encoded range for the
  // one-shot residue waves. Response: header + a typical bundle image (one
  // RangeStats for whole-domain collections, three with margins otherwise)
  // + a sparse-ish HLL image when the cube maintains distinct partials.
  std::uint64_t request = sim::kHeaderBits + (carries_region ? 24 : 1);
  std::uint64_t response =
      sim::kHeaderBits + (whole_domain ? std::uint64_t{48} : std::uint64_t{144});
  if (config_.distinct_registers > 0) {
    response += 2 * config_.distinct_registers;
  }
  return request + response;
}

std::uint64_t Cube::count_stale_edges(SlotId s, NodeId node) const {
  std::uint64_t edges = 0;
  for (const NodeId child : tree_.children[node]) {
    if (store_.edge_fresh(s, child)) continue;
    edges += 1 + count_stale_edges(s, child);
  }
  return edges;
}

std::uint64_t Cube::count_residue_edges(
    NodeId node, const query::RegionSignature& region) const {
  std::uint64_t edges = 0;
  for (const NodeId child : tree_.children[node]) {
    if (store_.provably_empty(child, region)) continue;
    edges += 1 + count_residue_edges(child, region);
  }
  return edges;
}

std::uint64_t Cube::cell_refresh_bits(query::CubeCellRef ref) const {
  const SlotId s = slot(ref);
  if (cell_claimed_[s]) return 0;  // fresh once the pending batch is served
  return count_stale_edges(s, tree_.root) *
         edge_cost_bits(store_.region(s).whole_domain,
                        /*carries_region=*/false);
}

std::uint64_t Cube::residue_collect_bits(
    const query::RegionSignature& region) const {
  return count_residue_edges(tree_.root, region) *
         edge_cost_bits(region.whole_domain, /*carries_region=*/true);
}

std::uint64_t Cube::tree_collect_bits(
    const query::RegionSignature& region) const {
  // The no-cube alternative: every edge descends and responds.
  return static_cast<std::uint64_t>(tree_.node_count() - 1) *
         edge_cost_bits(region.whole_domain, /*carries_region=*/true);
}

void Cube::mirror_stats() const { mirror_cube_stats(stats_); }

}  // namespace sensornet::cube
