#include "src/cube/cube.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/tree_broadcast.hpp"

namespace sensornet::cube {

namespace {

constexpr std::uint32_t kRefreshSessionBase = 0x7800;
constexpr std::uint32_t kResidueSessionBase = 0x7C00;
constexpr std::uint32_t kGeometrySession = 0x7BFF;

/// True when a region of the maximal list `regions` (ascending lo, and so
/// ascending hi) contains [lo, hi]: the last one starting at or before lo
/// reaches furthest.
template <class Span>
bool contains(const std::vector<Span>& regions, Value lo, Value hi) {
  const auto it =
      std::upper_bound(regions.begin(), regions.end(), lo,
                       [](Value v, const Span& r) { return v < r.lo; });
  return it != regions.begin() && std::prev(it)->hi >= hi;
}

}  // namespace

// ---- construction ---------------------------------------------------------

Cube::Cube(sim::Network& net, const net::SpanningTree& tree,
           Value max_value_bound, const DirtyTracker& dirty, CubeConfig config)
    : net_(net),
      tree_(dirty.tree()),
      max_value_bound_(max_value_bound),
      dirty_(dirty),
      config_(config),
      store_(net, tree_, dirty,
             static_cast<Value>(config.horizon_epochs) * config.max_delta,
             config.distinct_registers),
      next_residue_session_(kResidueSessionBase) {
  SENSORNET_EXPECTS(tree.root == tree_.root &&
                    tree.node_count() == tree_.node_count());
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
      add_slot(region, /*sketch=*/false);
    }
  }
  twin_.assign(store_.slot_count(), kNoSlot);
  for (std::size_t i = 0; i <= preorder_.size(); ++i) {
    const NodeId node = i == 0 ? tree_.root : preorder_[i - 1];
    for (const NodeId child : tree_.children[node]) preorder_.push_back(child);
  }
  // Construction ships zero bits: the geometry install broadcast is lazy,
  // paid by the first serve (bits-conservation invariants stay intact for
  // services that never enable the cube path).
}

Cube::~Cube() = default;

SlotId Cube::add_slot(const query::RegionSignature& region, bool sketch) {
  // Session identifies the slot: stable across epochs, disjoint from the
  // scheduler's 0x7000 group range.
  const auto id = static_cast<std::uint32_t>(store_.slot_count());
  slot_state_.emplace_back();
  return store_.add_slot(region, kRefreshSessionBase + id, sketch);
}

bool Cube::reads_sketches(const query::CostedPlan& plan) const {
  if (plan.strategy != query::Strategy::kApproxDistinct) return false;
  SENSORNET_EXPECTS(config_.distinct_registers > 0 &&
                    plan.registers == config_.distinct_registers);
  return true;
}

SlotId Cube::slot_for(const query::PlanStep& step, bool sketch,
                      bool standing) {
  if (step.kind == query::StepKind::kCubeCell) {
    const SlotId cell = slot(step.cell);
    if (!sketch) return cell;
    if (twin_[cell] == kNoSlot) {
      twin_[cell] = add_slot(store_.region(cell), /*sketch=*/true);
    }
    return twin_[cell];
  }
  if (!standing) return installed_standing(step.region, sketch);
  const auto [it, added] = standing_.try_emplace({step.region, sketch}, 0);
  if (added) {
    it->second = add_slot(step.region, sketch);
    slot_state_[it->second].standing = true;
  }
  return it->second;
}

SlotId Cube::installed_standing(const query::RegionSignature& region,
                                bool sketch) const {
  const auto it = standing_.find({region, sketch});
  return it != standing_.end() && slot_state_[it->second].installed
             ? it->second
             : kNoSlot;
}

// ---- residue collection ---------------------------------------------------

PartialStore::OnceCollection Cube::collect_residues(
    const std::vector<query::RegionSignature>& ranges, bool sketch,
    const std::vector<std::size_t>& owners, std::vector<ServeResult>& out) {
  if (ranges.empty()) return {};
  const SimTime t0 = net_.now();
  PartialStore::OnceCollection got;
  // A wave that loses a message has still spent its bits and edges.
  const auto charge = [&] {
    for (std::size_t i = 0; i < got.shares.size(); ++i) {
      out[owners[i]].bits += got.shares[i].bits;
      out[owners[i]].messages += got.shares[i].messages;
      stats_.once_bits += got.shares[i].bits;
    }
    stats_.residue_edges_descended += got.edges_descended;
    stats_.residue_edges_pruned += got.edges_pruned;
  };
  try {
    store_.collect_once(ranges, sketch, max_value_bound_,
                        next_residue_session_++, got);
  } catch (const ProtocolError&) {
    charge();
    throw;
  }
  charge();
  ++stats_.residue_waves;
  stats_.residues_run += ranges.size();
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("cube.residue", "service", t0, net_.now() - t0, 0,
                  "residues", ranges.size(), "sketch", sketch ? 1 : 0);
  }
  return got;
}

// ---- installs -------------------------------------------------------------

WaveShare Cube::broadcast(std::uint32_t session, BitWriter payload,
                          std::size_t* heard) {
  const sim::CommSummary before = net_.summary(/*include_headers=*/true);
  proto::TreeBroadcast install(
      tree_, session, [heard](sim::Network&, NodeId, BitReader) {
        if (heard != nullptr) ++*heard;
      });
  install.execute(net_, std::move(payload));
  const sim::CommSummary after = net_.summary(/*include_headers=*/true);
  WaveShare cost;
  cost.bits = after.total_bits - before.total_bits;
  cost.messages = after.total_messages - before.total_messages;
  stats_.install_bits += cost.bits;
  return cost;
}

void Cube::install_geometry(ServeResult& payer) {
  // Nodes must learn the grid (levels, margin) and, for distinct partials,
  // the sketch geometry — paid once, on first serve, metered like any bits.
  BitWriter w;
  encode_uint(w, config_.levels);
  encode_uint(w, static_cast<std::uint64_t>(config_.horizon_epochs) *
                     static_cast<std::uint64_t>(config_.max_delta));
  encode_uint(w, config_.distinct_registers);
  if (config_.distinct_registers > 0) {
    encode_uint(w, store_.hll_width());
    encode_uint(w, kHllSalt);
  }
  // The slot schedules enrolled so far ride it: announce() waits for it.
  const bool schedules = write_schedules(w);
  ++stats_.geometry_installs;
  std::size_t heard = 0;
  const WaveShare cost = broadcast(kGeometrySession, std::move(w), &heard);
  payer.bits += cost.bits;
  payer.messages += cost.messages;
  geometry_installed_ = heard == tree_.node_count();
  if (schedules) heard_schedules(geometry_installed_);
  if (!geometry_installed_) {
    throw ProtocolError("Cube: the geometry install was lost");
  }
}

void Cube::install_standing(const std::vector<SlotId>& slots,
                            ServeResult& payer) {
  // Nodes must learn each new slot's region and kind; they number the slots
  // in install order, so the collect masks name them.
  BitWriter w;
  for (const SlotId s : slots) {
    const query::RegionSignature& region = store_.region(s);
    encode_uint(w, static_cast<std::uint64_t>(region.lo));
    encode_uint(w, static_cast<std::uint64_t>(region.hi - region.lo));
    w.write_bit(store_.sketch(s));
  }
  std::size_t heard = 0;
  const WaveShare cost =
      broadcast(next_residue_session_++, std::move(w), &heard);
  payer.bits += cost.bits;
  payer.messages += cost.messages;
  if (heard != tree_.node_count()) {
    throw ProtocolError("Cube: a standing-slot install was lost");
  }
  for (const SlotId s : slots) slot_state_[s].installed = true;
  stats_.standing_installs += slots.size();
}

void Cube::retire_standing(std::uint32_t epoch) {
  for (const auto& [key, s] : standing_) {
    SlotState& state = slot_state_[s];
    if (!state.installed || epoch <= state.last_read + config_.horizon_epochs ||
        schedules_.subscribed(s)) {
      continue;
    }
    store_.release(s);
    state.installed = false;
    ++stats_.standing_retired;
  }
}

// ---- push -----------------------------------------------------------------

std::vector<SlotId> Cube::subscribe(const query::CostedPlan& plan,
                                    std::uint32_t period,
                                    std::uint32_t phase) {
  const bool sketch = reads_sketches(plan);
  std::vector<SlotId> slots;
  for (const query::PlanStep& step : plan.steps) {
    slots.push_back(slot_for(step, sketch, /*standing=*/true));
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  for (const SlotId s : slots) schedules_.subscribe(s, period, phase);
  return slots;
}

void Cube::unsubscribe(std::span<const SlotId> slots, std::uint32_t period,
                       std::uint32_t phase) {
  for (const SlotId s : slots) schedules_.unsubscribe(s, period, phase);
}

void Cube::announce(WaveShare& cost) {
  cost = WaveShare{};
  if (!geometry_installed_) return;  // the schedules ride its install
  BitWriter w;
  if (!write_schedules(w)) return;
  std::size_t heard = 0;
  cost = broadcast(next_residue_session_++, std::move(w), &heard);
  heard_schedules(heard == tree_.node_count());
  if (heard != tree_.node_count()) {
    throw ProtocolError("Cube: a schedule was lost");
  }
}

bool Cube::write_schedules(BitWriter& w) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
  if (!schedules_.write_changes(w, entries)) return false;
  // A twin's id is the store's, which the nodes cannot map to its cell (a
  // pull's mask names it within its wave; a push has no mask).
  naming_.clear();
  if (config_.distinct_registers == 0) return true;  // no twins
  for (const auto& [id, bits] : entries) {
    if (id < cell_count() || slot_state_[id].installed) continue;
    const bool twin = !slot_state_[id].standing;
    w.write_bit(twin);
    if (!twin) continue;
    encode_uint(w, static_cast<std::uint64_t>(
                       std::find(twin_.begin(), twin_.end(), id) -
                       twin_.begin()));
    naming_.push_back(id);
  }
  return true;
}

void Cube::heard_schedules(bool every_node) {
  schedules_.heard(every_node);
  if (every_node) {
    for (const SlotId s : naming_) slot_state_[s].installed = true;
  }
  naming_.clear();
}

std::unique_ptr<PartialStore::Push> Cube::push(std::uint32_t epoch) {
  if (!geometry_installed_) return nullptr;
  std::vector<SlotId> slots;
  for (const SlotId s : schedules_.due(epoch)) {
    if (s < cell_count() || slot_state_[s].installed) slots.push_back(s);
  }
  if (slots.empty()) return nullptr;
  return std::make_unique<PartialStore::Push>(store_, slots, epoch);
}

void Cube::pushed(PartialStore::Push& push, bool delivered) {
  const std::span<const SlotId> slots = push.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    (slot_state_[slots[i]].standing ? stats_.standing_bits
                                    : stats_.cell_bits) +=
        push.shares()[i].bits;
    stats_.push_image_bits += push.image_bits()[i];
  }
  stats_.push_messages += push.messages();
  if (!delivered) return;
  push.finish();
  for (const SlotId s : slots) {
    ++(slot_state_[s].standing ? stats_.standing_refreshed
                               : stats_.cells_refreshed);
  }
}

// ---- serving --------------------------------------------------------------

std::size_t Cube::claim(const query::CostedPlan& plan, bool standing) {
  const bool sketch = reads_sketches(plan);
  Claim c{plan, {}};
  for (const query::PlanStep& step : plan.steps) {
    const SlotId s = slot_for(step, sketch, standing);
    if (s != kNoSlot) slot_state_[s].claimed = true;
    c.reads.push_back(s);
  }
  claimed_.push_back(std::move(c));
  return claimed_.size() - 1;
}

void Cube::serve_claimed(std::uint32_t epoch, std::vector<ServeResult>& out) {
  // Take the batch first: a lost message must not leave claims behind.
  const std::vector<Claim> claims = std::exchange(claimed_, {});
  for (SlotState& state : slot_state_) state.claimed = false;
  out.assign(claims.size(), ServeResult{});
  if (claims.empty()) return;
  if (!geometry_installed_) install_geometry(out[0]);

  // Each slot and one-shot residue is owned by the first plan that claimed
  // it: that plan pays its wave share, the later ones ride for free. A
  // one-shot residue is keyed by (range, sketch): index [sketch] holds its
  // wave's ranges.
  constexpr std::size_t kUnowned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot_owner(store_.slot_count(), kUnowned);
  std::array<std::vector<query::RegionSignature>, 2> ranges;
  std::array<std::vector<std::size_t>, 2> range_owner;
  const auto residue = [&ranges](const query::PlanStep& step, bool sketch) {
    const std::vector<query::RegionSignature>& r = ranges[sketch];
    return static_cast<std::size_t>(
        std::find(r.begin(), r.end(), step.region) - r.begin());
  };
  for (std::size_t p = 0; p < claims.size(); ++p) {
    const query::CostedPlan& plan = claims[p].plan;
    const bool sketch = plan.strategy == query::Strategy::kApproxDistinct;
    for (std::size_t j = 0; j < plan.steps.size(); ++j) {
      const SlotId s = claims[p].reads[j];
      if (s != kNoSlot) {
        if (slot_owner[s] == kUnowned) slot_owner[s] = p;
      } else if (residue(plan.steps[j], sketch) == ranges[sketch].size()) {
        ranges[sketch].push_back(plan.steps[j].region);
        range_owner[sketch].push_back(p);
      }
    }
  }

  // 1. One broadcast installs the batch's new standing slots; one collect()
  //    brings every claimed slot up to the epoch.
  std::vector<SlotId> slots;
  std::vector<SlotId> installs;
  for (SlotId s = 0; s < store_.slot_count(); ++s) {
    if (slot_owner[s] == kUnowned) continue;
    slots.push_back(s);
    SlotState& state = slot_state_[s];
    state.last_read = epoch;
    if (state.standing && !state.installed) installs.push_back(s);
  }
  if (!installs.empty()) {
    install_standing(installs, out[slot_owner[installs.front()]]);
  }
  if (!slots.empty()) {
    const SimTime t0 = net_.now();
    std::vector<WaveShare> shares;
    // A wave that loses a message has still spent its bits.
    const auto charge = [&] {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        ServeResult& owner = out[slot_owner[slots[i]]];
        owner.bits += shares[i].bits;
        owner.messages += shares[i].messages;
        (slot_state_[slots[i]].standing ? stats_.standing_bits
                                        : stats_.cell_bits) += shares[i].bits;
      }
    };
    try {
      store_.collect(slots, epoch, shares);
    } catch (const ProtocolError&) {
      charge();
      throw;
    }
    charge();
    std::size_t refreshed = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!shares[i].collected) continue;
      ++refreshed;
      ++(slot_state_[slots[i]].standing ? stats_.standing_refreshed
                                        : stats_.cells_refreshed);
    }
    if (refreshed > 0) {
      ++stats_.refresh_waves;
      obs::TraceRing& ring = obs::TraceRing::global();
      if (ring.enabled()) {
        ring.complete("cube.refresh", "service", t0, net_.now() - t0, 0,
                      "epoch", epoch, "slots", refreshed);
      }
    }
  }

  // 2. The one-shot residues, pruned against the fresh slots.
  std::array<PartialStore::OnceCollection, 2> residues;
  for (const bool sketch : {false, true}) {
    residues[sketch] =
        collect_residues(ranges[sketch], sketch, range_owner[sketch], out);
  }

  // 3. Each plan's composition: its bundle, or its sketch alone.
  for (std::size_t p = 0; p < claims.size(); ++p) {
    const query::CostedPlan& plan = claims[p].plan;
    const bool sketch = plan.strategy == query::Strategy::kApproxDistinct;
    ServeResult& r = out[p];
    std::optional<sketch::Hll> merged;
    if (sketch) merged = store_.empty_hll();
    for (std::size_t j = 0; j < plan.steps.size(); ++j) {
      const query::PlanStep& step = plan.steps[j];
      const SlotId s = claims[p].reads[j];
      if (step.kind == query::StepKind::kCubeCell) {
        ++r.cells_used;
      } else {
        ++r.residues_run;
      }
      if (s != kNoSlot) {
        if (sketch) {
          merged->merge(store_.root_hll(s)).value();
        } else {
          r.bundle.combine(store_.root(s));
        }
        continue;
      }
      const std::size_t i = residue(step, sketch);
      if (sketch) {
        merged->merge(residues[sketch].hlls[i]).value();
      } else {
        r.bundle.combine(residues[sketch].bundles[i]);
      }
    }
    if (sketch) {
      r.has_distinct = true;
      r.distinct_estimate = merged->estimate();
    }
  }
  retire_standing(epoch);
  stats_.fresh_serves += claims.size();
}

ServeResult Cube::serve(const query::CostedPlan& plan, std::uint32_t epoch) {
  SENSORNET_EXPECTS(claimed_.empty());
  claim(plan);
  std::vector<ServeResult> out;
  serve_claimed(epoch, out);
  return std::move(out.front());
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

std::uint64_t Cube::Pricing::residue_edges(Value lo, Value hi) const {
  std::uint64_t edges = 0;
  for (const PruneList& list : lists) {
    if (!contains(list.regions, lo, hi)) edges += list.edges;
  }
  return edges;
}

const Cube::Pricing& Cube::pricing() const {
  const std::uint64_t generation = store_.generation();
  if (last_read_at_.exchange(generation) != generation) {
    ++pricing_generations_;
  }
  if (priced_at_.load(std::memory_order_acquire) != generation) {
    const std::lock_guard lock(pricing_mutex_);
    if (priced_at_.load(std::memory_order_relaxed) != generation) {
      build_pricing();
      ++pricing_passes_;
      priced_at_.store(generation, std::memory_order_release);
    }
  }
  return pricing_;
}

void Cube::build_pricing() const {
  const std::size_t n = tree_.node_count();
  const std::size_t slots = store_.slot_count();
  const std::size_t w = (slots + 63) / 64;  // words of one node's slot row
  Pricing& t = pricing_;
  t.stale_edges.assign(slots, 0);
  // Bit s of a node c's rows, first for edge c alone, then (after the
  // preorder pass) for its whole root path: `stale`, the edge is stale for
  // slot s (on the path: all are, so a collect() of s descends c);
  // `prunes`, it is fresh with an empty outer region for slot s (on the
  // path: one is, so a residue inside s's region never reaches c). Only
  // stats slots are priced and prune. Slot by slot, each slot's partials
  // are read in node order. (The root's partial is never taken, so its rows
  // read stale, no prune.)
  std::vector<std::uint64_t> stale(n * w, 0);
  std::vector<std::uint64_t> prunes(n * w, 0);
  for (SlotId s = 0; s < slots; ++s) {
    if (store_.sketch(s)) continue;
    const std::span<const std::uint32_t> epochs = store_.edge_epochs(s);
    if (epochs.empty()) {  // never collected: a collect() descends every edge
      t.stale_edges[s] = n - 1;
      continue;
    }
    const unsigned shift = s % 64;
    std::uint64_t* const stale_at = stale.data() + s / 64;
    std::uint64_t* const prunes_at = prunes.data() + s / 64;
    const std::span<const std::uint8_t> empty = store_.edge_outer_empty(s);
    for (NodeId c = 0; c < n; ++c) {
      const std::uint64_t fresh = dirty_.edge_fresh(c, epochs[c]) ? 1 : 0;
      stale_at[c * w] |= (fresh ^ 1) << shift;
      prunes_at[c * w] |= (fresh & empty[c]) << shift;
    }
  }
  for (const NodeId c : preorder_) {
    const NodeId p = tree_.parent[c];
    for (std::size_t i = 0; i < w; ++i) {
      std::uint64_t& bits = stale[c * w + i];
      bits &= stale[p * w + i];
      prunes[c * w + i] |= prunes[p * w + i];
      for (std::uint64_t b = bits; b != 0; b &= b - 1) {
        ++t.stale_edges[i * 64 +
                        static_cast<std::size_t>(std::countr_zero(b))];
      }
    }
  }
  // Edges with equal prune rows price alike: each distinct row is kept
  // once, as the maximal regions of its slots, with its edge count.
  std::unordered_map<std::string_view, std::size_t> list_of;
  list_of.reserve(preorder_.size());
  t.lists.clear();
  for (const NodeId c : preorder_) {
    const std::uint64_t* const bits = prunes.data() + c * w;
    const auto [it, added] = list_of.try_emplace(
        std::string_view(reinterpret_cast<const char*>(bits),
                         w * sizeof *bits),
        t.lists.size());
    ++(added ? t.lists.emplace_back(maximal_regions(bits, w))
             : t.lists[it->second])
          .edges;
  }
}

std::vector<Cube::Span> Cube::maximal_regions(const std::uint64_t* bits,
                                              std::size_t words) const {
  std::vector<Span> regions;
  for (std::size_t i = 0; i < words; ++i) {
    for (std::uint64_t b = bits[i]; b != 0; b &= b - 1) {
      const query::RegionSignature& r =
          store_.region(static_cast<SlotId>(i * 64 + std::countr_zero(b)));
      regions.push_back({r.lo, r.hi});
    }
  }
  // By lo, widest first: a region is maximal iff it reaches past every
  // earlier one.
  std::sort(regions.begin(), regions.end(), [](const Span& x, const Span& y) {
    return x.lo != y.lo ? x.lo < y.lo : x.hi > y.hi;
  });
  std::vector<Span> maximal;
  for (const Span& r : regions) {
    if (maximal.empty() || r.hi > maximal.back().hi) maximal.push_back(r);
  }
  return maximal;
}

std::uint64_t Cube::slot_refresh_bits(SlotId s) const {
  if (slot_state_[s].claimed) return 0;  // fresh once the batch is served
  return pricing().stale_edges[s] *
         edge_cost_bits(store_.region(s).whole_domain,
                        /*carries_region=*/false);
}

std::uint64_t Cube::cell_refresh_bits(query::CubeCellRef ref) const {
  return slot_refresh_bits(slot(ref));
}

std::uint64_t Cube::residue_collect_bits(
    const query::RegionSignature& region) const {
  // An installed standing slot costs its stale edges, like a cell.
  const SlotId s = installed_standing(region, /*sketch=*/false);
  if (s != kNoSlot) return slot_refresh_bits(s);
  return pricing().residue_edges(region.lo, region.hi) *
         edge_cost_bits(region.whole_domain, /*carries_region=*/true);
}

std::vector<std::uint64_t> Cube::residue_collect_bits_all(
    std::span<const Value> pos, Value domain_bound) const {
  const std::size_t n = pos.size();
  std::vector<std::uint64_t> out(n * n, 0);
  // Per list and start a: a list contains [pos[a], pos[b] - 1] for b up to
  // a threshold and never past it, and the threshold only grows with a.
  // Each list's edges land at its threshold; prefix sums over b then count
  // the edges each interval descends.
  for (const PruneList& list : pricing().lists) {
    std::size_t q = 0;  // the list's regions starting at or before pos[a]
    std::size_t b = 0;
    for (std::size_t a = 0; a + 1 < n; ++a) {
      while (q < list.regions.size() && list.regions[q].lo <= pos[a]) ++q;
      b = std::max(b, a + 1);
      while (q > 0 && b < n && pos[b] - 1 <= list.regions[q - 1].hi) ++b;
      if (b < n) out[a * n + b] += list.edges;
    }
  }
  for (std::size_t a = 0; a + 1 < n; ++a) {
    std::uint64_t edges = 0;
    for (std::size_t b = a + 1; b < n; ++b) {
      edges += out[a * n + b];
      out[a * n + b] = edges * edge_cost_bits(query::interval_region(
                                                  pos[a], pos[b], domain_bound)
                                                  .whole_domain,
                                              /*carries_region=*/true);
    }
  }
  // Installed standing slots price like cells.
  for (const auto& [key, s] : standing_) {
    const auto& [region, sketch] = key;
    if (sketch || !slot_state_[s].installed) continue;
    const auto a = std::lower_bound(pos.begin(), pos.end(), region.lo);
    const auto b = std::lower_bound(pos.begin(), pos.end(), region.hi + 1);
    if (b == pos.end() || *a != region.lo || *b != region.hi + 1 ||
        query::interval_region(*a, *b, domain_bound) != region) {
      continue;
    }
    out[static_cast<std::size_t>(a - pos.begin()) * n +
        static_cast<std::size_t>(b - pos.begin())] = slot_refresh_bits(s);
  }
  return out;
}

std::uint64_t Cube::tree_collect_bits(
    const query::RegionSignature& region) const {
  // The no-cube alternative: every edge descends and responds.
  return static_cast<std::uint64_t>(tree_.node_count() - 1) *
         edge_cost_bits(region.whole_domain, /*carries_region=*/true);
}

CubeStats Cube::stats() const {
  CubeStats s = stats_;
  s.cell_edges_descended = store_.edges_descended();
  s.cell_edges_skipped = store_.edges_skipped();
  s.delta_image_bits = store_.delta_image_bits();
  s.delta_image_full_bits = store_.delta_image_full_bits();
  s.hll_delta_image_bits = store_.hll_delta_image_bits();
  s.hll_delta_image_full_bits = store_.hll_delta_image_full_bits();
  s.pricing_passes = pricing_passes_.load();
  s.pricing_generations = pricing_generations_.load();
  return s;
}

}  // namespace sensornet::cube
