#include "src/cube/partials.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/tree_wave.hpp"

namespace sensornet::cube {

// ---- wire images ---------------------------------------------------------

namespace {

constexpr auto kMaxValue =
    static_cast<std::uint64_t>(std::numeric_limits<Value>::max());
constexpr auto kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// Reads a delta that may not exceed `limit`: past it, the decoded stats
/// would underflow, overflow or leave the core's span.
std::uint64_t decode_delta(BitReader& r, std::uint64_t limit) {
  const std::uint64_t d = decode_uint(r);
  if (d > limit) throw WireFormatError("stats image: delta out of range");
  return d;
}

/// True when inner ⊆ core ⊆ outer holds for counts, sums and min/max rails:
/// the precondition of a ranged image's margin deltas.
bool nests(const StatsBundle& b) {
  const RangeStats& core = b.core;
  const RangeStats& inner = b.inner;
  const RangeStats& outer = b.outer;
  return inner.count <= core.count && core.count <= outer.count &&
         inner.sum <= core.sum && core.sum <= outer.sum &&
         (inner.count == 0 || (core.min <= inner.min &&
                               inner.min <= inner.max &&
                               inner.max <= core.max)) &&
         (core.count == 0 || (outer.min <= core.min && core.max <= outer.max));
}

/// The largest change a delta image can carry: encode_int's range.
constexpr auto kMaxChange =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

/// `now - was` as a delta image sends it (zigzag encode_int).
std::int64_t change(std::uint64_t was, std::uint64_t now) {
  if (now >= was) {
    SENSORNET_EXPECTS(now - was <= kMaxChange);
    return static_cast<std::int64_t>(now - was);
  }
  SENSORNET_EXPECTS(was - now <= kMaxChange);
  return -static_cast<std::int64_t>(was - now);
}

void encode_change(BitWriter& w, std::uint64_t was, std::uint64_t now) {
  encode_int(w, change(was, now));
}

/// `was` moved by `d` (|d| <= kMaxChange), or nullopt when that leaves
/// [0, limit].
std::optional<std::uint64_t> moved(std::uint64_t was, std::int64_t d,
                                   std::uint64_t limit) {
  if (d >= 0) {
    const auto up = static_cast<std::uint64_t>(d);
    if (up > limit - was) return std::nullopt;
    return was + up;
  }
  const auto down = static_cast<std::uint64_t>(-d);
  if (down > was) return std::nullopt;
  return was - down;
}

/// Reads a change to `was`; the result must stay in [0, limit].
std::uint64_t decode_change(BitReader& r, std::uint64_t was,
                            std::uint64_t limit) {
  const std::optional<std::uint64_t> now = moved(was, decode_int(r), limit);
  if (!now) throw WireFormatError("delta image: change out of range");
  return *now;
}

std::uint64_t as_u64(Value v) { return static_cast<std::uint64_t>(v); }

/// A non-empty range's min and max against its old self: changes, or min
/// and max - min in full when the old range was empty.
void encode_rails(BitWriter& w, const RangeStats& was, const RangeStats& now) {
  if (was.count == 0) {
    encode_uint(w, as_u64(now.min));
    encode_uint(w, as_u64(now.max - now.min));
    return;
  }
  encode_change(w, as_u64(was.min), as_u64(now.min));
  encode_change(w, as_u64(was.max), as_u64(now.max));
}

void decode_rails(BitReader& r, const RangeStats& was, RangeStats& now) {
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  if (was.count == 0) {
    min = decode_delta(r, kMaxValue);
    max = min + decode_delta(r, kMaxValue - min);
  } else {
    min = decode_change(r, as_u64(was.min), kMaxValue);
    max = decode_change(r, as_u64(was.max), kMaxValue);
    if (max < min) throw WireFormatError("delta image: max below min");
  }
  now.min = static_cast<Value>(min);
  now.max = static_cast<Value>(max);
}

void encode_range_delta(BitWriter& w, const RangeStats& was,
                        const RangeStats& now) {
  encode_change(w, was.count, now.count);
  if (now.count == 0) return;
  encode_change(w, was.sum, now.sum);
  encode_rails(w, was, now);
}

RangeStats decode_range_delta(BitReader& r, const RangeStats& was) {
  RangeStats now;
  now.count = decode_change(r, was.count, kMaxU64);
  if (now.count == 0) return now;
  now.sum = decode_change(r, was.sum, kMaxU64);
  decode_rails(r, was, now);
  return now;
}

/// True when a ranged image's margins may ride the core's move from `was`
/// to `now`: both non-empty, and |count change| + |sum change| at most
/// `margin`.
bool may_ride(const RangeStats& was, const RangeStats& now, Value margin) {
  if (was.count == 0 || now.count == 0) return false;
  const auto distance = [](std::uint64_t x, std::uint64_t y) {
    return x > y ? x - y : y - x;
  };
  const std::uint64_t count = distance(was.count, now.count);
  return count <= as_u64(margin) &&
         distance(was.sum, now.sum) <= as_u64(margin) - count;
}

/// `old` moved in all four fields as the core did from `was` to `now`;
/// nullopt when that empties it, leaves [0, Value max] or sets max below
/// min.
std::optional<RangeStats> ride(const RangeStats& old, const RangeStats& was,
                               const RangeStats& now) {
  const auto count = moved(old.count, change(was.count, now.count), kMaxU64);
  const auto sum = moved(old.sum, change(was.sum, now.sum), kMaxU64);
  const auto min = moved(as_u64(old.min),
                         change(as_u64(was.min), as_u64(now.min)), kMaxValue);
  const auto max = moved(as_u64(old.max),
                         change(as_u64(was.max), as_u64(now.max)), kMaxValue);
  if (!count || *count == 0 || !sum || !min || !max || *max < *min) {
    return std::nullopt;
  }
  return RangeStats{*count, *sum, static_cast<Value>(*min),
                    static_cast<Value>(*max)};
}

/// Reads a request's k = mask.size() mask bits; an all-zero mask is
/// malformed.
void read_mask(BitReader& r, std::vector<std::uint8_t>& mask) {
  bool any = false;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = r.read_bit();
    any = any || mask[i];
  }
  if (!any) throw WireFormatError("stats request: empty slot mask");
}

/// Where a full stats image goes: a BitWriter, or a BitTally that only adds
/// up its length.
struct BitTally {
  std::uint64_t bits = 0;
};
void put_uint(BitWriter& w, std::uint64_t x) { encode_uint(w, x); }
void put_uint(BitTally& t, std::uint64_t x) { t.bits += encoded_uint_bits(x); }

template <typename Sink>
void put_stats_image(Sink& w, const StatsBundle& b, bool whole_domain) {
  const RangeStats& core = b.core;
  const RangeStats& inner = b.inner;
  const RangeStats& outer = b.outer;
  // The core as encode_range_stats sends it.
  put_uint(w, core.count);
  if (core.count > 0) {
    put_uint(w, core.sum);
    put_uint(w, as_u64(core.min));
    put_uint(w, as_u64(core.max - core.min));
  }
  if (whole_domain) return;
  // inner ⊆ core ⊆ outer: every delta below is non-negative.
  SENSORNET_EXPECTS(nests(b));
  put_uint(w, core.count - inner.count);
  if (inner.count > 0) {
    put_uint(w, core.sum - inner.sum);
    put_uint(w, as_u64(inner.min - core.min));
    put_uint(w, as_u64(core.max - inner.max));
  }
  put_uint(w, outer.count - core.count);
  if (outer.count == 0) return;
  put_uint(w, outer.sum - core.sum);
  if (core.count > 0) {
    put_uint(w, as_u64(core.min - outer.min));
    put_uint(w, as_u64(outer.max - core.max));
  } else {
    put_uint(w, as_u64(outer.min));
    put_uint(w, as_u64(outer.max - outer.min));
  }
}

}  // namespace

void encode_stats_image(BitWriter& w, const StatsBundle& b,
                        bool whole_domain) {
  put_stats_image(w, b, whole_domain);
}

std::uint64_t stats_image_bits(const StatsBundle& b, bool whole_domain) {
  BitTally tally;
  put_stats_image(tally, b, whole_domain);
  return tally.bits;
}

StatsBundle decode_stats_image(BitReader& r, bool whole_domain) {
  StatsBundle b;
  b.core = decode_range_stats(r);
  if (whole_domain) {
    b.inner = b.core;
    b.outer = b.core;
    return b;
  }
  const RangeStats& core = b.core;
  const auto core_min = static_cast<std::uint64_t>(core.min);
  const auto core_max = static_cast<std::uint64_t>(core.max);

  RangeStats& inner = b.inner;
  inner.count = core.count - decode_delta(r, core.count);
  if (inner.count > 0) {
    inner.sum = core.sum - decode_delta(r, core.sum);
    const std::uint64_t min = core_min + decode_delta(r, core_max - core_min);
    const std::uint64_t max = core_max - decode_delta(r, core_max - min);
    inner.min = static_cast<Value>(min);
    inner.max = static_cast<Value>(max);
  }

  RangeStats& outer = b.outer;
  outer.count = core.count + decode_delta(r, kMaxU64 - core.count);
  if (outer.count == 0) return b;
  outer.sum = core.sum + decode_delta(r, kMaxU64 - core.sum);
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  if (core.count > 0) {
    min = core_min - decode_delta(r, core_min);
    max = core_max + decode_delta(r, kMaxValue - core_max);
  } else {
    min = decode_delta(r, kMaxValue);
    max = min + decode_delta(r, kMaxValue - min);
  }
  outer.min = static_cast<Value>(min);
  outer.max = static_cast<Value>(max);
  return b;
}

void encode_stats_delta(BitWriter& w, const StatsBundle& base,
                        const StatsBundle& b, bool whole_domain,
                        Value margin) {
  if (!whole_domain) SENSORNET_EXPECTS(nests(b));
  const RangeStats& was = base.core;
  const RangeStats& core = b.core;
  encode_change(w, was.count, core.count);
  if (core.count > 0) encode_change(w, was.sum, core.sum);
  if (core.count == was.count && core.sum == was.sum) {
    if (whole_domain && core.count == 0) return;  // nothing else can move
    const bool rest_moved = whole_domain ? core != was : b != base;
    w.write_bit(rest_moved);
    if (!rest_moved) return;
  }
  if (core.count > 0) encode_rails(w, was, core);
  if (whole_domain) return;
  const bool rides = may_ride(was, core, margin);
  for (const auto& [old, now] : {std::pair{&base.inner, &b.inner},
                                 std::pair{&base.outer, &b.outer}}) {
    if (rides && old->count > 0) {
      const bool rode = ride(*old, was, core) == *now;
      w.write_bit(rode);
      if (rode) continue;
    }
    encode_range_delta(w, *old, *now);
  }
}

StatsBundle decode_stats_delta(BitReader& r, const StatsBundle& base,
                               bool whole_domain, Value margin) {
  const RangeStats& was = base.core;
  StatsBundle b;
  RangeStats& core = b.core;
  core.count = decode_change(r, was.count, kMaxU64);
  if (core.count > 0) core.sum = decode_change(r, was.sum, kMaxU64);
  if (core.count == was.count && core.sum == was.sum &&
      ((whole_domain && core.count == 0) || !r.read_bit())) {
    if (!whole_domain) return base;  // nothing moved
    core = was;
  } else if (core.count > 0) {
    decode_rails(r, was, core);
  }
  if (whole_domain) {
    b.inner = core;
    b.outer = core;
    return b;
  }
  const bool rides = may_ride(was, core, margin);
  for (const auto& [old, now] : {std::pair{&base.inner, &b.inner},
                                 std::pair{&base.outer, &b.outer}}) {
    if (rides && old->count > 0 && r.read_bit()) {
      const std::optional<RangeStats> rode = ride(*old, was, core);
      if (!rode) throw WireFormatError("delta image: ride out of range");
      *now = *rode;
    } else {
      *now = decode_range_delta(r, *old);
    }
  }
  if (!nests(b)) throw WireFormatError("delta image: margins do not nest");
  return b;
}

void encode_hll_delta(BitWriter& w, const sketch::Hll& base,
                      const sketch::Hll& h) {
  SENSORNET_EXPECTS(base.same_geometry(h));
  if (h == base) {  // the common case on a stale edge: nothing changed
    encode_uint(w, 0);
    return;
  }
  std::vector<std::uint8_t> was(h.m());
  std::vector<std::uint8_t> now(h.m());
  base.registers(was);
  h.registers(now);
  std::uint64_t changed = 0;
  for (unsigned b = 0; b < h.m(); ++b) changed += was[b] != now[b] ? 1 : 0;
  encode_uint(w, changed);
  unsigned prev = 0;
  for (unsigned b = 0; b < h.m(); ++b) {
    if (was[b] == now[b]) continue;
    encode_uint(w, b - prev);
    prev = b;
    encode_int(w, static_cast<std::int64_t>(now[b]) - was[b]);
  }
}

sketch::Hll decode_hll_delta(BitReader& r, const sketch::Hll& base) {
  sketch::Hll h = base.clone();
  const std::uint64_t count = decode_uint(r);
  if (count > h.m()) throw WireFormatError("hll delta: too many changes");
  std::uint64_t bucket = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t gap = decode_uint(r);
    if (i > 0 && gap == 0) throw WireFormatError("hll delta: repeated bucket");
    if (gap >= h.m() - bucket) {
      throw WireFormatError("hll delta: bucket out of range");
    }
    bucket += gap;
    const auto b = static_cast<unsigned>(bucket);
    const std::int64_t change = decode_int(r);
    if (change == 0) throw WireFormatError("hll delta: unchanged register");
    const auto was = static_cast<std::int64_t>(base.value(b));
    const auto cap = static_cast<std::int64_t>(h.rank_cap());
    if (change < -was || change > cap - was) {
      throw WireFormatError("hll delta: rank out of range");
    }
    h.set_register(b, static_cast<unsigned>(was + change));
  }
  return h;
}

void encode_stats_request(BitWriter& w, const std::vector<std::uint8_t>& mask,
                          bool resync) {
  for (const auto bit : mask) w.write_bit(bit != 0);
  w.write_bit(resync);
}

bool decode_stats_request(BitReader& r, std::vector<std::uint8_t>& mask) {
  read_mask(r, mask);
  const bool resync = r.read_bit();
  if (r.remaining() != 0) {
    throw WireFormatError("stats request: trailing bits");
  }
  return resync;
}

void encode_residue_request(BitWriter& w, const std::vector<std::uint8_t>& mask,
                            std::span<const query::RegionSignature> ranges) {
  SENSORNET_EXPECTS(mask.size() == ranges.size());
  for (const auto bit : mask) w.write_bit(bit != 0);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    SENSORNET_EXPECTS(ranges[i].lo >= 0 && ranges[i].lo <= ranges[i].hi);
    encode_uint(w, static_cast<std::uint64_t>(ranges[i].lo));
    encode_uint(w, static_cast<std::uint64_t>(ranges[i].hi - ranges[i].lo));
  }
}

void decode_residue_request(BitReader& r, Value domain_bound,
                            std::vector<std::uint8_t>& mask,
                            std::vector<query::RegionSignature>& ranges) {
  read_mask(r, mask);
  ranges.resize(mask.size());
  const auto bound = static_cast<std::uint64_t>(domain_bound);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    const std::uint64_t lo = decode_uint(r);
    const std::uint64_t span = decode_uint(r);
    if (lo > bound || span > bound - lo) {
      throw WireFormatError("residue request: range outside the domain");
    }
    query::RegionSignature& range = ranges[i];
    range.lo = static_cast<Value>(lo);
    range.hi = static_cast<Value>(lo + span);
    range.whole_domain = range.lo == 0 && range.hi == domain_bound;
  }
  if (r.remaining() != 0) {
    throw WireFormatError("residue request: trailing bits");
  }
}

namespace {

/// One stats entry's image: a delta image against `base`, read with the
/// store's `margin`, or the full image when there is no base.
StatsBundle decode_stats_entry(BitReader& r, bool whole_domain,
                               const StatsBundle* base, Value margin) {
  return base != nullptr ? decode_stats_delta(r, *base, whole_domain, margin)
                         : decode_stats_image(r, whole_domain);
}

/// One sketch entry's image: a delta image against `base`, or a full HLL
/// image, which must have `geometry`'s shape.
sketch::Hll decode_hll_entry(BitReader& r, const sketch::Hll& geometry,
                             const sketch::Hll* base) {
  if (base != nullptr) {
    SENSORNET_EXPECTS(base->same_geometry(geometry));
    return decode_hll_delta(r, *base);
  }
  Result<sketch::Hll> h = sketch::Hll::decode(r);
  if (!h.ok()) throw WireFormatError("stats response: " + h.error());
  if (!h.value().same_geometry(geometry)) {
    throw WireFormatError("stats response: sketch of another geometry");
  }
  return std::move(h).value();
}

}  // namespace

void decode_stats_response(BitReader& r,
                           const std::vector<std::uint8_t>& mask,
                           const std::vector<ImageShape>& shapes,
                           std::vector<StatsBundle>& images,
                           const sketch::Hll* geometry,
                           std::vector<sketch::Hll>* sketches,
                           std::span<const Baseline> baselines, Value margin) {
  SENSORNET_EXPECTS(mask.size() == shapes.size());
  SENSORNET_EXPECTS((geometry == nullptr) == (sketches == nullptr));
  SENSORNET_EXPECTS(baselines.empty() || baselines.size() == mask.size());
  images.clear();
  if (sketches != nullptr) sketches->clear();
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    const Baseline base = baselines.empty() ? Baseline{} : baselines[i];
    if (shapes[i] != ImageShape::kHll) {
      images.push_back(decode_stats_entry(
          r, shapes[i] == ImageShape::kWholeDomain, base.bundle, margin));
      continue;
    }
    SENSORNET_EXPECTS(geometry != nullptr);
    sketches->push_back(decode_hll_entry(r, *geometry, base.hll));
  }
  if (r.remaining() != 0) {
    throw WireFormatError("stats response: trailing bits");
  }
}

void ShareLedger::charge(const std::vector<std::uint8_t>& mask,
                         std::uint64_t overhead) {
  SENSORNET_EXPECTS(mask.size() == shares_.size());
  const auto carried = static_cast<std::uint64_t>(
      std::count_if(mask.begin(), mask.end(), [](auto b) { return b != 0; }));
  SENSORNET_EXPECTS(carried > 0);
  std::size_t first = mask.size();
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    if (first == mask.size()) first = i;
    shares_[i].bits += overhead / carried;
  }
  shares_[first].bits += overhead % carried;
  ++shares_[first].messages;
}

// ---- the multiplexed collection -----------------------------------------

/// The one multiplexed EdgeWave policy, behind collect() and collect_once().
/// Its k entries are slots, each with its image shape: stats or HLL alone.
/// collect() brings installed slots up to an epoch; collect_once() fills
/// wave-scoped slots, one per range. Both keep each response as the edge's
/// partial and build a node's image from its edges' partials when it
/// responds. Per node it keeps the mask of the request it received.
class PartialStore::Collect {
 public:
  /// collect(): the installed slots `batch` (ascending ids) at `epoch`.
  Collect(PartialStore& store, std::span<const SlotId> batch,
          std::uint32_t epoch)
      : Collect(store, batch.size(), store.edges_descended_,
                store.edges_skipped_) {
    epoch_ = epoch;
    for (const SlotId id : batch) slots_.push_back(&store.slots_[id]);
  }

  /// collect_once(): the wave-scoped slots `once`, one per range; the edge
  /// counters land in `got`.
  Collect(PartialStore& store, std::vector<Slot>& once, Value domain_bound,
          OnceCollection& got)
      : Collect(store, once.size(), got.edges_descended, got.edges_pruned) {
    once_ = true;
    domain_bound_ = domain_bound;
    for (Slot& s : once) {
      slots_.push_back(&s);
      ranges_.push_back(s.region);
      // Containment is a property of the range: take the candidates once.
      containing_.push_back(store.containing_slots(s.region));
    }
  }

  std::vector<WaveShare>& shares() { return ledger_.shares(); }

  void on_request(NodeId node, BitReader& r) {
    if (once_) {
      // A node learns the ranges off the wire.
      decode_residue_request(r, domain_bound_, mask_, ranges_);
      for (std::size_t i = 0; i < k_; ++i) {
        if (mask_[i]) slot(i).region = ranges_[i];
      }
    } else {
      resync_[node] = decode_stats_request(r, mask_);
    }
    std::copy(mask_.begin(), mask_.end(), requested_.begin() + node * k_);
  }

  /// Serves or prunes every edge that no active entry needs, and sends one
  /// request per edge that carries at least one.
  void fan_out(proto::Fanout& out) {
    // EdgeWave fans a node out right after it read its request, so ranges_
    // still holds the ranges this node learned.
    const NodeId node = out.node();
    const auto active = static_cast<std::size_t>(
        std::count(requested_.begin() + node * k_,
                   requested_.begin() + (node + 1) * k_, 1));
    obs::TraceRing& ring = obs::TraceRing::global();
    for (const NodeId child : store_.tree_.children[node]) {
      const std::size_t carried = carried_entries(node, child);
      skipped_ += active - carried;
      if (ring.enabled() && !once_) {
        ring.instant(carried == 0 ? "edge.cached" : "edge.descend", "service",
                     out.net().now(), 0, "node", node, "child", child);
      }
      if (carried == 0) continue;
      // The parent keeps the mask it sent: the edge's response carries those
      // images, and after a failed wave the rows of the edges that never
      // answered name the slots to resync.
      std::copy(mask_.begin(), mask_.end(), requested_.begin() + child * k_);
      BitWriter w;
      if (once_) {
        // Each range is its entry's own; header and mask are shared.
        for (std::size_t i = 0; i < k_; ++i) {
          if (!mask_[i]) continue;
          ledger_.add(i, encoded_uint_bits(static_cast<std::uint64_t>(
                             ranges_[i].lo)) +
                             encoded_uint_bits(static_cast<std::uint64_t>(
                                 ranges_[i].hi - ranges_[i].lo)));
        }
        encode_residue_request(w, mask_, ranges_);
        ledger_.charge(mask_, k_ + sim::kHeaderBits);
      } else {
        encode_stats_request(w, mask_, resync_for(child));
        ledger_.charge(mask_, k_ + 1 + sim::kHeaderBits);  // mask, resync
      }
      out.send(child, std::move(w));
      descended_ += carried;
    }
  }

  void on_response(NodeId /*node*/, NodeId child, BitReader& r) {
    for (std::size_t i = 0; i < k_; ++i) {
      if (!requested_[child * k_ + i]) continue;
      store_.read_image(slot(i), child, baseline(i, child), r, epoch_);
    }
    if (r.remaining() != 0) {
      throw WireFormatError("stats response: trailing bits");
    }
    answered_[child] = 1;
  }

  void respond(NodeId node, BitWriter& w) {
    std::copy_n(requested_.begin() + node * k_, k_, mask_.begin());
    for (std::size_t i = 0; i < k_; ++i) {
      if (!mask_[i]) continue;
      const std::size_t before = w.bit_count();
      store_.write_image(slot(i), node, baseline(i, node), w);
      ledger_.add(i, w.bit_count() - before);
    }
    ledger_.charge(mask_, sim::kHeaderBits);
  }

  /// After a failed collect() wave: marks every (slot, edge) whose request
  /// went down and whose response never arrived.
  void mark_unanswered() {
    const std::size_t n = store_.tree_.node_count();
    for (NodeId child = 0; child < n; ++child) {
      if (child == store_.tree_.root || answered_[child]) continue;
      for (std::size_t i = 0; i < k_; ++i) {
        if (!requested_[child * k_ + i]) continue;
        Slot& s = slot(i);
        if (s.edge_unanswered.empty()) s.edge_unanswered.assign(n, 0);
        s.edge_unanswered[child] = 1;
      }
    }
  }

 private:
  Collect(PartialStore& store, std::size_t k, std::uint64_t& descended,
          std::uint64_t& skipped)
      : store_(store),
        k_(k),
        requested_(store.tree_.node_count() * k, 0),
        resync_(store.tree_.node_count(), 0),
        answered_(store.tree_.node_count(), 0),
        mask_(k),
        ledger_(k),
        descended_(descended),
        skipped_(skipped) {
    std::fill_n(requested_.begin() + store.tree_.root * k_, k_, 1);
  }

  Slot& slot(std::size_t i) { return *slots_[i]; }

  /// The baseline of entry i's image on edge `child`, whose request
  /// carried resync or not. A wave-scoped slot has no baseline.
  Baseline baseline(std::size_t i, NodeId child) {
    return store_.baseline(slot(i), child, resync_[child] != 0);
  }

  /// The resync bit of a request about to go down edge `child` with mask_:
  /// set iff it names a slot whose last request on the edge went unanswered.
  bool resync_for(NodeId child) {
    for (std::size_t i = 0; i < k_; ++i) {
      if (!mask_[i]) continue;
      const Slot& s = slot(i);
      if (!s.edge_unanswered.empty() && s.edge_unanswered[child]) return true;
    }
    return false;
  }

  /// Sets mask_ to the entries active at `node` that edge `child` must
  /// carry: an installed slot whose partial for the edge is stale, a
  /// one-shot range the subtree is not provably empty for. Returns how many
  /// there are.
  std::size_t carried_entries(NodeId node, NodeId child) {
    std::size_t carried = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      mask_[i] =
          requested_[node * k_ + i] &&
          (once_ ? !store_.provably_empty(child, containing_[i])
                 : !store_.dirty_.edge_fresh(child, slot(i).edge_epoch[child]));
      carried += mask_[i] ? 1 : 0;
    }
    return carried;
  }

  PartialStore& store_;
  std::size_t k_;
  bool once_ = false;
  std::vector<Slot*> slots_;  // the entries, in wire order
  std::uint32_t epoch_ = 0;   // stamped on the edges the wave answers
  Value domain_bound_ = 0;    // one-shot requests' range bound
  // One-shot waves: the ranges of the last request read, and per entry the
  // installed slots that may prove an edge empty for its range.
  std::vector<query::RegionSignature> ranges_;
  std::vector<std::vector<SlotId>> containing_;
  std::vector<std::uint8_t> requested_;  // [node * k + i]: request names i
  std::vector<std::uint8_t> resync_;     // per node: its request's resync
  std::vector<std::uint8_t> answered_;   // per node: its response arrived
  std::vector<std::uint8_t> mask_;       // scratch: one message's mask
  ShareLedger ledger_;
  std::uint64_t& descended_;  // (entry, edge) pairs requested
  std::uint64_t& skipped_;    // ... served from partials or pruned
};

// ---- the store ----------------------------------------------------------

PartialStore::PartialStore(sim::Network& net, const net::SpanningTree& tree,
                           const DirtyTracker& dirty, Value margin,
                           unsigned hll_registers)
    : net_(net),
      tree_(tree),
      dirty_(dirty),
      margin_(margin),
      hll_registers_(hll_registers) {
  SENSORNET_EXPECTS(net.node_count() == tree.node_count());
  SENSORNET_EXPECTS(margin >= 0);
  if (hll_registers_ > 0) {
    hll_width_ = static_cast<std::uint8_t>(sketch::packed_width_for(
        static_cast<std::uint64_t>(net.node_count()) + 1));
    geometry_ = empty_hll();  // validates the geometry once, up front
  }
}

SlotId PartialStore::add_slot(const query::RegionSignature& region,
                              std::uint32_t session, bool sketch) {
  SENSORNET_EXPECTS(!sketch || hll_registers_ > 0);
  Slot s;
  s.region = region;
  s.session = session;
  s.sketch = sketch;
  slots_.push_back(std::move(s));
  ++generation_;
  return static_cast<SlotId>(slots_.size() - 1);
}

void PartialStore::release(SlotId s) {
  SENSORNET_EXPECTS(s < slots_.size());
  Slot& slot = slots_[s];
  // A fresh Slot owns no per-edge arrays: assigning it frees them.
  Slot blank;
  blank.region = slot.region;
  blank.session = slot.session;
  blank.sketch = slot.sketch;
  slot = std::move(blank);
  ++generation_;
}

StatsBundle PartialStore::local_bundle(
    NodeId node, const query::RegionSignature& region) const {
  StatsBundle b;
  if (region.whole_domain) {
    // Membership is static over the whole domain: the margins collapse and
    // one RangeStats describes all three regions.
    for (const Value v : net_.items(node)) b.core.observe(v);
    b.inner = b.core;
    b.outer = b.core;
    return b;
  }
  for (const Value v : net_.items(node)) {
    if (v >= region.lo && v <= region.hi) b.core.observe(v);
    if (v >= region.lo + margin_ && v <= region.hi - margin_) {
      b.inner.observe(v);
    }
    if (v >= region.lo - margin_ && v <= region.hi + margin_) {
      b.outer.observe(v);
    }
  }
  return b;
}

sketch::Hll PartialStore::empty_hll() const {
  return sketch::Hll::make_by_registers(
             hll_registers_,
             sketch::HllOptions{.width = hll_width_, .sparse = true})
      .value();
}

sketch::Hll PartialStore::local_hll(
    NodeId node, const query::RegionSignature& region) const {
  sketch::Hll h = empty_hll();
  for (const Value v : net_.items(node)) {
    if (v >= region.lo && v <= region.hi) {
      h.add(static_cast<std::uint64_t>(v), kHllSalt);
    }
  }
  return h;
}

StatsBundle PartialStore::subtree_bundle(const Slot& slot, NodeId node) const {
  StatsBundle b = local_bundle(node, slot.region);
  for (const NodeId child : tree_.children[node]) {
    b.combine(slot.edge_bundle[child]);
  }
  return b;
}

sketch::Hll PartialStore::subtree_hll(const Slot& slot, NodeId node) const {
  sketch::Hll h = local_hll(node, slot.region);
  for (const NodeId child : tree_.children[node]) {
    if (slot.edge_hll[child]) h.merge(*slot.edge_hll[child]).value();
  }
  return h;
}

void PartialStore::size_edges(Slot& slot) const {
  const std::size_t n = tree_.node_count();
  slot.edge_epoch.assign(n, DirtyTracker::kInvalidEpoch);
  if (slot.sketch) {
    slot.edge_hll.resize(n);
  } else {
    slot.edge_bundle.resize(n);
    slot.edge_outer_empty.assign(n, 1);
  }
}

void PartialStore::take_root(Slot& slot) const {
  if (slot.sketch) {
    slot.root_hll = subtree_hll(slot, tree_.root);
  } else {
    slot.root = subtree_bundle(slot, tree_.root);
  }
}

Baseline PartialStore::baseline(const Slot& slot, NodeId child,
                               bool resync) const {
  if (resync || slot.edge_epoch[child] == DirtyTracker::kInvalidEpoch) {
    return {};
  }
  if (slot.sketch) return {.hll = &*slot.edge_hll[child]};
  return {.bundle = &slot.edge_bundle[child]};
}

void PartialStore::write_image(const Slot& slot, NodeId node, Baseline base,
                               BitWriter& w) {
  const std::size_t before = w.bit_count();
  if (slot.sketch) {
    const sketch::Hll h = subtree_hll(slot, node);
    if (base.hll == nullptr) {
      h.encode(w);
      return;
    }
    encode_hll_delta(w, *base.hll, h);
    hll_delta_image_bits_ += w.bit_count() - before;
    hll_delta_image_full_bits_ += h.wire_bits();
    return;
  }
  const bool whole = slot.region.whole_domain;
  const StatsBundle b = subtree_bundle(slot, node);
  if (base.bundle == nullptr) {
    encode_stats_image(w, b, whole);
    return;
  }
  encode_stats_delta(w, *base.bundle, b, whole, margin_);
  delta_image_bits_ += w.bit_count() - before;
  delta_image_full_bits_ += stats_image_bits(b, whole);
}

void PartialStore::read_image(Slot& slot, NodeId child, Baseline base,
                              BitReader& r, std::uint32_t epoch) const {
  if (slot.sketch) {
    slot.edge_hll[child] = decode_hll_entry(r, *geometry_, base.hll);
  } else {
    slot.edge_bundle[child] = decode_stats_entry(
        r, slot.region.whole_domain, base.bundle, margin_);
    slot.edge_outer_empty[child] = slot.edge_bundle[child].outer.count == 0;
  }
  if (!slot.edge_unanswered.empty()) slot.edge_unanswered[child] = 0;
  slot.edge_epoch[child] = epoch;
}

// ---- the push -------------------------------------------------------------

PartialStore::Push::Push(PartialStore& store, std::span<const SlotId> slots,
                         std::uint32_t epoch)
    : store_(store),
      slots_(slots.begin(), slots.end()),
      epoch_(epoch),
      mask_(slots.size()),
      ledger_(slots.size()),
      image_bits_(slots.size(), 0) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    SENSORNET_EXPECTS(slots_[i] < store.slots_.size());
    SENSORNET_EXPECTS(i == 0 || slots_[i - 1] < slots_[i]);  // wire order
    if (!store.has_edges(slots_[i])) store.size_edges(store.slots_[slots_[i]]);
  }
  ++store.generation_;  // the wave rewrites edge partials, even if it fails
}

bool PartialStore::Push::carries(std::size_t i, NodeId child,
                                 bool changed) const {
  return changed ||
         !store_.dirty_.edge_fresh(child,
                                   store_.slots_[slots_[i]].edge_epoch[child]);
}

bool PartialStore::Push::owes(NodeId child) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (carries(i, child, false)) return true;
  }
  return false;
}

void PartialStore::Push::write(NodeId child, bool changed, BitWriter& w) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    mask_[i] = carries(i, child, changed);
    if (!mask_[i]) continue;
    const Slot& s = store_.slots_[slots_[i]];
    const Baseline base =
        store_.baseline(s, child, store_.edge_unanswered(slots_[i], child));
    const std::size_t before = w.bit_count();
    store_.write_image(s, child, base, w);
    const std::uint64_t bits = w.bit_count() - before;
    ledger_.add(i, bits);
    image_bits_[i] += bits;
    ++carried_;
    ++store_.edges_descended_;
  }
  ++messages_;
  // A set mark bit makes the message the mark wave's: header and mark bit
  // are what the mark costs. Otherwise the images brought it up.
  if (!changed) ledger_.charge(mask_, sim::kHeaderBits + 1);
}

void PartialStore::Push::read(NodeId child, bool changed, BitReader& r) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!carries(i, child, changed)) continue;
    Slot& s = store_.slots_[slots_[i]];
    store_.read_image(
        s, child,
        store_.baseline(s, child, store_.edge_unanswered(slots_[i], child)),
        r, epoch_);
  }
}

void PartialStore::Push::finish() {
  store_.edges_skipped_ +=
      slots_.size() * (store_.tree_.node_count() - 1) - carried_;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = store_.slots_[slots_[i]];
    store_.take_root(s);
    s.epoch = epoch_;
    shares()[i].collected = true;
  }
}

void PartialStore::collect(std::span<const SlotId> slots, std::uint32_t epoch,
                           std::vector<WaveShare>& shares) {
  shares.assign(slots.size(), WaveShare{});
  std::vector<SlotId> batch;
  std::vector<std::size_t> at;  // batch entry -> index into `slots`
  for (std::size_t j = 0; j < slots.size(); ++j) {
    SENSORNET_EXPECTS(slots[j] < slots_.size());
    SENSORNET_EXPECTS(j == 0 || slots[j - 1] < slots[j]);  // wire order
    if (slots_[slots[j]].epoch == epoch) continue;  // idempotent
    batch.push_back(slots[j]);
    at.push_back(j);
  }
  if (batch.empty()) return;

  for (const SlotId id : batch) {
    if (!has_edges(id)) size_edges(slots_[id]);
  }
  ++generation_;  // the wave rewrites edge partials, even if it fails
  Collect policy(*this, batch, epoch);
  proto::EdgeWave<Collect> wave(tree_, slots_[batch.front()].session, policy);
  // The ledger charged every message as it was sent: a failed wave's shares
  // are its bits on air too.
  const auto take_shares = [&] {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      shares[at[i]] = policy.shares()[i];
    }
  };
  try {
    wave.execute(net_);
  } catch (...) {
    policy.mark_unanswered();
    take_shares();
    throw;
  }
  take_shares();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Slot& s = slots_[batch[i]];
    take_root(s);
    s.epoch = epoch;
    shares[at[i]].collected = true;
  }
}

void PartialStore::collect_once(std::span<const query::RegionSignature> ranges,
                                bool sketch, Value domain_bound,
                                std::uint32_t session, OnceCollection& got) {
  SENSORNET_EXPECTS(!ranges.empty());
  SENSORNET_EXPECTS(!sketch || hll_registers_ > 0);
  // Wave-scoped slots: never in slots_, so generation() and
  // containing_slots() do not see them.
  std::vector<Slot> once(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    once[i].region = ranges[i];
    once[i].sketch = sketch;
    size_edges(once[i]);
  }
  got = OnceCollection{};
  Collect policy(*this, once, domain_bound, got);
  proto::EdgeWave<Collect> wave(tree_, session, policy);
  try {
    wave.execute(net_);
  } catch (...) {
    got.shares = std::move(policy.shares());  // charged as sent
    throw;
  }
  for (Slot& s : once) {
    take_root(s);
    if (sketch) {
      got.hlls.push_back(std::move(*s.root_hll));
    } else {
      got.bundles.push_back(s.root);
    }
  }
  got.shares = std::move(policy.shares());
}

std::vector<SlotId> PartialStore::containing_slots(
    const query::RegionSignature& region) const {
  std::vector<SlotId> out;
  for (SlotId s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    if (slot.sketch || slot.edge_epoch.empty()) continue;  // no bundles
    if (slot.region.lo > region.lo || slot.region.hi < region.hi) continue;
    out.push_back(s);
  }
  return out;
}

bool PartialStore::provably_empty(NodeId child,
                                  std::span<const SlotId> containing) const {
  for (const SlotId s : containing) {
    const Slot& slot = slots_[s];
    // The partial's outer region contains the range's outer region (same
    // margin, containing core). A fresh edge certifies the subtree's items
    // are *identical* to when the partial was taken, so an empty outer then
    // is an empty outer now: the subtree contributes nothing, exactly.
    if (!dirty_.edge_fresh(child, slot.edge_epoch[child])) continue;
    if (slot.edge_outer_empty[child] != 0) return true;
  }
  return false;
}

}  // namespace sensornet::cube
