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

// ---- residue collection ---------------------------------------------------

/// The residues' EdgeWave policy: k one-shot collections over ranges no node
/// has installed, multiplexed like collect() (see partials.hpp for the
/// wire format). Each node learns its active residues and their ranges from
/// the request it decodes; residue i is pruned on an edge when the cell
/// partials prove the subtree empty for its range.
class Cube::Residues {
 public:
  Residues(Cube& cube, const std::vector<query::RegionSignature>& ranges,
           bool sketch)
      : cube_(cube),
        k_(ranges.size()),
        requested_(cube.tree_.node_count() * k_, 0),
        whole_domain_(cube.tree_.node_count() * k_, 0),
        sent_(cube.tree_.node_count() * k_, 0),
        partials_(cube.tree_.node_count()),
        mask_(k_),
        ranges_(ranges),
        shapes_(k_),
        ledger_(k_) {
    const NodeId root = cube.tree_.root;
    learn(root, std::vector<std::uint8_t>(k_, 1));
    if (sketch) geometry_ = cube.store_.empty_hll();
  }

  std::vector<WaveShare>& shares() { return ledger_.shares(); }
  StatsBundle& root_bundle(std::size_t i) {
    return partials_[cube_.tree_.root].bundles[i];
  }
  std::optional<sketch::Hll>& root_hll(std::size_t i) {
    return partials_[cube_.tree_.root].sketches[i];
  }

  void on_request(NodeId node, BitReader& r) {
    decode_residue_request(r, cube_.max_value_bound_, mask_, ranges_);
    learn(node, mask_);
  }

  void fan_out(proto::Fanout& out) {
    // EdgeWave fans a node out right after it read its request, so ranges_
    // still holds the ranges this node learned.
    const NodeId node = out.node();
    SENSORNET_EXPECTS(node == ranges_node_);
    Partials& p = partials_[node];
    p.bundles.resize(k_);
    if (geometry_) p.sketches.resize(k_);
    for (std::size_t i = 0; i < k_; ++i) {
      if (!requested_[node * k_ + i]) continue;
      p.bundles[i] = cube_.store_.local_bundle(node, ranges_[i]);
      if (geometry_) p.sketches[i] = cube_.store_.local_hll(node, ranges_[i]);
    }
    for (const NodeId child : cube_.tree_.children[node]) {
      bool any = false;
      for (std::size_t i = 0; i < k_; ++i) {
        mask_[i] = requested_[node * k_ + i] &&
                   !cube_.subtree_provably_empty(child, ranges_[i]);
        if (!requested_[node * k_ + i]) continue;
        ++(mask_[i] ? cube_.stats_.residue_edges_descended
                    : cube_.stats_.residue_edges_pruned);
        any = any || mask_[i];
      }
      std::copy(mask_.begin(), mask_.end(), sent_.begin() + child * k_);
      if (!any) continue;  // every residue pruned on this edge
      // Each range is its residue's own; header and mask are shared.
      for (std::size_t i = 0; i < k_; ++i) {
        if (!mask_[i]) continue;
        ledger_.add(i, encoded_uint_bits(static_cast<std::uint64_t>(
                           ranges_[i].lo)) +
                           encoded_uint_bits(static_cast<std::uint64_t>(
                               ranges_[i].hi - ranges_[i].lo)));
      }
      ledger_.charge(mask_, k_ + sim::kHeaderBits);
      BitWriter w;
      encode_residue_request(w, mask_, ranges_);
      out.send(child, std::move(w));
    }
  }

  void on_response(NodeId node, NodeId child, BitReader& r) {
    std::copy_n(sent_.begin() + child * k_, k_, mask_.begin());
    std::copy_n(whole_domain_.begin() + node * k_, k_, shapes_.begin());
    decode_stats_response(r, mask_, shapes_, images_,
                          geometry_ ? &*geometry_ : nullptr,
                          geometry_ ? &sketches_ : nullptr);
    Partials& p = partials_[node];
    std::size_t j = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      if (!mask_[i]) continue;
      p.bundles[i].combine(images_[j]);
      if (geometry_) p.sketches[i]->merge(sketches_[j]).value();
      ++j;
    }
  }

  void respond(NodeId node, BitWriter& w) {
    Partials& p = partials_[node];
    std::copy_n(requested_.begin() + node * k_, k_, mask_.begin());
    for (std::size_t i = 0; i < k_; ++i) {
      if (!mask_[i]) continue;
      const std::size_t before = w.bit_count();
      encode_stats_image(w, p.bundles[i], whole_domain_[node * k_ + i] != 0);
      if (geometry_) p.sketches[i]->encode(w);
      ledger_.add(i, w.bit_count() - before);
    }
    ledger_.charge(mask_, sim::kHeaderBits);
    p = Partials{};  // a node's partials die with its response
  }

 private:
  /// A node's subtree partials, held from its fan-out to its response.
  struct Partials {
    std::vector<StatsBundle> bundles;
    std::vector<std::optional<sketch::Hll>> sketches;
  };

  /// Records what `node` read off its request: `mask`, and the shapes of
  /// the ranges in ranges_.
  void learn(NodeId node, const std::vector<std::uint8_t>& mask) {
    for (std::size_t i = 0; i < k_; ++i) {
      requested_[node * k_ + i] = mask[i];
      whole_domain_[node * k_ + i] = mask[i] && ranges_[i].whole_domain;
    }
    ranges_node_ = node;
  }

  Cube& cube_;
  std::size_t k_;
  // Per node, [node * k + i]: whether its request named residue i, and
  // whether that range spans the whole domain.
  std::vector<std::uint8_t> requested_;
  std::vector<std::uint8_t> whole_domain_;
  std::vector<std::uint8_t> sent_;  // [child * k + i]: its request's mask
  std::vector<Partials> partials_;
  std::optional<sketch::Hll> geometry_;  // sketch-carrying waves only
  std::vector<std::uint8_t> mask_;       // scratch: one message's mask
  std::vector<query::RegionSignature> ranges_;  // the last request's ranges
  NodeId ranges_node_ = 0;                      // ... and who read them
  std::vector<std::uint8_t> shapes_;     // scratch: one response's shapes
  std::vector<StatsBundle> images_;      // scratch: its images
  std::vector<sketch::Hll> sketches_;    // scratch: their sketches
  ShareLedger ledger_;
};

void Cube::collect_residues(std::vector<ResidueJob>& jobs, bool sketch,
                            std::vector<ServeResult>& out) {
  std::vector<std::size_t> batch;  // indices into `jobs`, wire order
  std::vector<query::RegionSignature> ranges;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].sketch != sketch) continue;
    batch.push_back(j);
    ranges.push_back(jobs[j].region);
  }
  if (batch.empty()) return;
  const SimTime t0 = net_.now();
  Residues policy(*this, ranges, sketch);
  proto::EdgeWave<Residues> wave(tree_, next_residue_session_++, policy);
  wave.execute(net_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ResidueJob& job = jobs[batch[i]];
    job.bundle = policy.root_bundle(i);
    if (sketch) job.hll = std::move(policy.root_hll(i));
    out[job.owner].bits += policy.shares()[i].bits;
    out[job.owner].messages += policy.shares()[i].messages;
  }
  ++stats_.residue_waves;
  stats_.residues_run += batch.size();
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("cube.residue", "service", t0, net_.now() - t0, 0,
                  "residues", batch.size(), "sketch", sketch ? 1 : 0);
  }
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
  // plan pays its wave share, the later ones ride for free.
  constexpr std::size_t kUnowned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> cell_owner(store_.slot_count(), kUnowned);
  std::vector<ResidueJob> residues;
  const auto job_of = [&residues](const query::PlanStep& step, bool sketch) {
    return std::find_if(residues.begin(), residues.end(),
                        [&](const ResidueJob& j) {
                          return j.region == step.region && j.sketch == sketch;
                        });
  };
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const bool sketch =
        plans[p].strategy == query::Strategy::kApproxDistinct;
    for (const query::PlanStep& step : plans[p].steps) {
      if (step.kind == query::StepKind::kCubeCell) {
        std::size_t& owner = cell_owner[slot(step.cell)];
        if (owner == kUnowned) owner = p;
      } else if (job_of(step, sketch) == residues.end()) {
        residues.push_back(ResidueJob{step.region, sketch, p, {}, {}});
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
  collect_residues(residues, /*sketch=*/false, out);
  collect_residues(residues, /*sketch=*/true, out);

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
      const ResidueJob& job = *job_of(step, sketch);
      r.bundle.combine(job.bundle);
      if (sketch) merged->merge(*job.hll).value();
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
    if (subtree_provably_empty(child, region)) continue;
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
