#include "src/cube/cube.hpp"

#include <algorithm>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/tree_broadcast.hpp"
#include "src/proto/tree_wave.hpp"

namespace sensornet::cube {

namespace {

constexpr std::uint32_t kRefreshSessionBase = 0x7800;
constexpr std::uint32_t kResidueSessionBase = 0x7C00;
constexpr std::uint32_t kGeometrySession = 0x7BFF;

void mirror_cube_stats(const CubeStats& s) {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge_set(reg.gauge("cube.refresh_waves"), s.refresh_waves);
  reg.gauge_set(reg.gauge("cube.cell_edges_descended"), s.cell_edges_descended);
  reg.gauge_set(reg.gauge("cube.cell_edges_skipped"), s.cell_edges_skipped);
  reg.gauge_set(reg.gauge("cube.residue_waves"), s.residue_waves);
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
  // Construction ships zero bits: the geometry install broadcast is lazy,
  // paid by the first serve (bits-conservation invariants stay intact for
  // services that never enable the cube path).
}

Cube::~Cube() = default;

// ---- pruning oracle -------------------------------------------------------

bool Cube::subtree_provably_empty(NodeId child,
                                  const query::RegionSignature& region) const {
  for (SlotId s = 0; s < store_.slot_count(); ++s) {
    if (!store_.has_edges(s)) continue;  // cell never refreshed
    const query::RegionSignature& cell = store_.region(s);
    if (cell.lo > region.lo || cell.hi < region.hi) continue;
    // The partial's outer region contains the residue's outer region (same
    // margin, containing core). edge_fresh certifies the subtree's items are
    // *identical* to when the partial was taken, so an empty outer then is
    // an empty outer now — the subtree contributes nothing, exactly.
    if (!store_.edge_fresh(s, child)) continue;
    if (store_.edge_bundle(s, child).outer.count == 0) return true;
  }
  return false;
}

// ---- cell refresh ---------------------------------------------------------

void Cube::refresh_cell(SlotId s, std::uint32_t epoch) {
  if (store_.epoch(s) == epoch) return;  // idempotent per epoch
  const SimTime t0 = net_.now();
  store_.collect(std::span(&s, 1), epoch);
  stats_.cell_edges_descended = store_.edges_descended();
  stats_.cell_edges_skipped = store_.edges_skipped();
  ++stats_.refresh_waves;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("cube.refresh", "service", t0, net_.now() - t0, 0, "epoch",
                  epoch, "lo", store_.region(s).lo);
  }
  mirror_stats();
}

// ---- residue collection ---------------------------------------------------

/// The residue's EdgeWave policy: a one-shot collection over a range that no
/// node has installed, so the request carries the range. An edge is pruned
/// when the cell partials prove its subtree empty for the range.
class Cube::Residue {
 public:
  Residue(Cube& cube, const query::RegionSignature& region, bool want_hll)
      : cube_(cube),
        region_(region),
        accum_(cube.tree_.node_count()),
        accum_hll_(want_hll ? cube.tree_.node_count() : 0) {
    if (want_hll) geometry_ = cube.store_.empty_hll();
    BitWriter w;
    encode_uint(w, static_cast<std::uint64_t>(region.lo));
    encode_uint(w, static_cast<std::uint64_t>(region.hi - region.lo));
    w.write_bit(want_hll);
    request_bits_ = static_cast<std::uint32_t>(w.bit_count());
    request_ = sim::Payload(w.bytes().data(), w.bytes().size());
  }

  StatsBundle& root_bundle() { return accum_[cube_.tree_.root]; }
  std::optional<sketch::Hll>& root_hll() {
    return accum_hll_[cube_.tree_.root];
  }

  // Every node's copy of the range is region_.
  void on_request(NodeId /*node*/, BitReader& /*r*/) {}

  void fan_out(proto::Fanout& out) {
    const NodeId node = out.node();
    accum_[node] = cube_.store_.local_bundle(node, region_);
    if (geometry_) accum_hll_[node] = cube_.store_.local_hll(node, region_);
    for (const NodeId child : cube_.tree_.children[node]) {
      if (cube_.subtree_provably_empty(child, region_)) {
        ++cube_.stats_.residue_edges_pruned;
        continue;
      }
      out.send(child, request_, request_bits_);
      ++cube_.stats_.residue_edges_descended;
    }
  }

  void on_response(NodeId node, NodeId /*child*/, BitReader& r) {
    decode_stats_response(r, kOneSlot, whole_domain_, images_,
                          geometry_ ? &*geometry_ : nullptr,
                          geometry_ ? &sketches_ : nullptr);
    accum_[node].combine(images_[0]);
    if (geometry_) accum_hll_[node]->merge(sketches_[0]).value();
  }

  void respond(NodeId node, BitWriter& w) {
    encode_stats_image(w, accum_[node], region_.whole_domain);
    if (geometry_) accum_hll_[node]->encode(w);
  }

 private:
  inline static const std::vector<std::uint8_t> kOneSlot{1};

  Cube& cube_;
  query::RegionSignature region_;
  std::vector<std::uint8_t> whole_domain_{region_.whole_domain};
  std::optional<sketch::Hll> geometry_;
  sim::Payload request_;
  std::uint32_t request_bits_ = 0;
  std::vector<StatsBundle> accum_;
  std::vector<std::optional<sketch::Hll>> accum_hll_;
  std::vector<StatsBundle> images_;
  std::vector<sketch::Hll> sketches_;
};

StatsBundle Cube::collect_range(const query::RegionSignature& region,
                                std::optional<sketch::Hll>* hll) {
  const SimTime t0 = net_.now();
  Residue policy(*this, region, hll != nullptr);
  proto::EdgeWave<Residue> wave(tree_, next_residue_session_++, policy);
  wave.execute(net_);
  if (hll != nullptr) *hll = std::move(policy.root_hll());
  ++stats_.residue_waves;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("cube.residue", "service", t0, net_.now() - t0, 0, "lo",
                  region.lo, "hi", region.hi);
  }
  mirror_stats();
  return policy.root_bundle();
}

// ---- geometry install -----------------------------------------------------

void Cube::ensure_geometry_installed() {
  if (geometry_installed_) return;
  geometry_installed_ = true;
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
  mirror_stats();
}

// ---- serving --------------------------------------------------------------

ServeResult Cube::serve(const query::CostedPlan& plan, std::uint32_t epoch) {
  ensure_geometry_installed();
  ServeResult out;
  const bool want_hll = plan.strategy == query::Strategy::kApproxDistinct;
  std::optional<sketch::Hll> merged;
  if (want_hll) {
    SENSORNET_EXPECTS(config_.distinct_registers > 0 &&
                      plan.registers == config_.distinct_registers);
    merged = store_.empty_hll();
  }
  for (const query::PlanStep& step : plan.steps) {
    if (step.kind == query::StepKind::kCubeCell) {
      const SlotId s = slot(step.cell);
      refresh_cell(s, epoch);
      out.bundle.combine(store_.root(s));
      if (want_hll) merged->merge(store_.root_hll(s)).value();
      ++out.cells_used;
    } else {
      std::optional<sketch::Hll> h;
      const StatsBundle b = collect_range(step.region, want_hll ? &h : nullptr);
      out.bundle.combine(b);
      if (want_hll) merged->merge(*h).value();
      ++out.residues_run;
    }
  }
  if (want_hll) {
    out.has_distinct = true;
    out.distinct_estimate = merged->estimate();
  }
  ++stats_.fresh_serves;
  mirror_stats();
  return out;
}

std::optional<BracketedAnswer> Cube::stale_bracket(
    const query::CostedPlan& plan, query::AggregateKind agg,
    std::uint32_t now_epoch) const {
  if (query::family(agg) != query::AggregateFamily::kStats) return std::nullopt;
  double count_lo = 0.0, count_hi = 0.0, sum_lo = 0.0, sum_hi = 0.0;
  bool defined = false, any_possible = false;
  double min_lo = 0.0, min_hi = 0.0, max_lo = 0.0, max_hi = 0.0;
  StatsBundle core;  // the answer's point value: the frozen composition
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
    const double d = static_cast<double>(staleness) *
                     static_cast<double>(config_.max_delta);
    const BundleBracket br = bracket_bundle(
        store_.root(s), region.whole_domain, d,
        static_cast<double>(region.lo), static_cast<double>(region.hi));
    count_lo += br.count_lo;
    count_hi += br.count_hi;
    sum_lo += br.sum_lo;
    sum_hi += br.sum_hi;
    if (br.any_possible) {
      // Any component could host the global MIN/MAX: outward rails widen.
      min_lo = any_possible ? std::min(min_lo, br.min_lo) : br.min_lo;
      max_hi = any_possible ? std::max(max_hi, br.max_hi) : br.max_hi;
      any_possible = true;
    }
    if (br.defined) {
      // A surely-present element bounds the global MIN from above (and MAX
      // from below) — take the tightest such witness across components.
      min_hi = defined ? std::min(min_hi, br.min_hi) : br.min_hi;
      max_lo = defined ? std::max(max_lo, br.max_lo) : br.max_lo;
      defined = true;
    }
    core.combine(store_.root(s));
  }
  std::optional<BracketedAnswer> out;
  switch (agg) {
    case query::AggregateKind::kCount:
      out = make_answer(static_cast<double>(core.core.count), count_lo,
                        count_hi);
      break;
    case query::AggregateKind::kSum:
      out = make_answer(static_cast<double>(core.core.sum), sum_lo, sum_hi);
      break;
    case query::AggregateKind::kAvg: {
      if (core.core.count == 0 || count_lo <= 0.0) return std::nullopt;
      const double value = static_cast<double>(core.core.sum) /
                           static_cast<double>(core.core.count);
      out = make_answer(value, sum_lo / count_hi, sum_hi / count_lo);
      break;
    }
    case query::AggregateKind::kMin:
      if (core.core.count == 0 || !defined) return std::nullopt;
      out = make_answer(static_cast<double>(core.core.min), min_lo, min_hi);
      break;
    case query::AggregateKind::kMax:
      if (core.core.count == 0 || !defined) return std::nullopt;
      out = make_answer(static_cast<double>(core.core.max), max_lo, max_hi);
      break;
    default:
      return std::nullopt;
  }
  ++stats_.stale_serves;
  mirror_stats();
  return out;
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
    if (subtree_provably_empty(child, region)) continue;
    edges += 1 + count_residue_edges(child, region);
  }
  return edges;
}

std::uint64_t Cube::cell_refresh_bits(query::CubeCellRef ref) const {
  const SlotId s = slot(ref);
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
