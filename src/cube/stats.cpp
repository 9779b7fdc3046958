#include "src/cube/stats.hpp"

#include <algorithm>
#include <limits>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"

namespace sensornet::cube {

void RangeStats::observe(Value v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  count += 1;
  sum += static_cast<std::uint64_t>(v);
}

void RangeStats::combine(const RangeStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

void StatsBundle::combine(const StatsBundle& other) {
  core.combine(other.core);
  inner.combine(other.inner);
  outer.combine(other.outer);
}

void encode_range_stats(BitWriter& w, const RangeStats& rs) {
  encode_uint(w, rs.count);
  if (rs.count == 0) return;
  encode_uint(w, rs.sum);
  encode_uint(w, static_cast<std::uint64_t>(rs.min));
  encode_uint(w, static_cast<std::uint64_t>(rs.max - rs.min));
}

RangeStats decode_range_stats(BitReader& r) {
  RangeStats rs;
  rs.count = decode_uint(r);
  if (rs.count == 0) return rs;
  rs.sum = decode_uint(r);
  // Readings are non-negative Values; a corrupt min or span must not wrap.
  constexpr auto kMaxValue =
      static_cast<std::uint64_t>(std::numeric_limits<Value>::max());
  const std::uint64_t min = decode_uint(r);
  const std::uint64_t span = decode_uint(r);
  if (min > kMaxValue || span > kMaxValue - min) {
    throw WireFormatError("range stats: value out of range");
  }
  rs.min = static_cast<Value>(min);
  rs.max = static_cast<Value>(min + span);
  return rs;
}

BundleBracket bracket_bundle(const StatsBundle& b, bool whole_domain,
                             double drift, double region_lo,
                             double region_hi) {
  BundleBracket out;
  const double d = drift;
  if (whole_domain || d == 0.0) {
    // Membership is static — values cannot leave [0, bound], or nothing
    // moved — so the count is exact and values drift in place.
    const auto count = static_cast<double>(b.core.count);
    out.count_lo = out.count_hi = count;
    out.sum_lo = std::max(0.0, static_cast<double>(b.core.sum) - count * d);
    out.sum_hi = static_cast<double>(b.core.sum) + count * d;
    out.defined = b.core.count > 0;
    out.any_possible = b.core.count > 0;
    if (out.defined) {
      out.min_lo = std::max(region_lo, static_cast<double>(b.core.min) - d);
      out.min_hi = std::min(region_hi, static_cast<double>(b.core.min) + d);
      out.max_lo = std::max(region_lo, static_cast<double>(b.core.max) - d);
      out.max_hi = std::min(region_hi, static_cast<double>(b.core.max) + d);
    }
    return out;
  }
  out.count_lo = static_cast<double>(b.inner.count);
  out.count_hi = static_cast<double>(b.outer.count);
  out.sum_lo = std::max(0.0, static_cast<double>(b.inner.sum) -
                                 static_cast<double>(b.inner.count) * d);
  out.sum_hi = static_cast<double>(b.outer.sum) +
               static_cast<double>(b.outer.count) * d;
  out.defined = b.inner.count > 0;
  out.any_possible = b.outer.count > 0;
  if (out.defined) {
    // Both rails clamped to the region: a range MIN/MAX can never leave its
    // own range, whatever the drift.
    out.min_lo = std::max(region_lo, static_cast<double>(b.outer.min) - d);
    out.min_hi = std::min(region_hi, static_cast<double>(b.inner.min) + d);
    out.max_lo = std::max(region_lo, static_cast<double>(b.inner.max) - d);
    out.max_hi = std::min(region_hi, static_cast<double>(b.outer.max) + d);
  } else if (out.any_possible) {
    // No element surely inside, but some may be: only the outward rails are
    // known. A composed MIN can still use min_lo as its lower rail.
    out.min_lo = std::max(region_lo, static_cast<double>(b.outer.min) - d);
    out.max_hi = std::min(region_hi, static_cast<double>(b.outer.max) + d);
  }
  return out;
}

void BracketComposer::add(const StatsBundle& b, bool whole_domain,
                          double drift, double region_lo, double region_hi) {
  const BundleBracket br =
      bracket_bundle(b, whole_domain, drift, region_lo, region_hi);
  core_.combine(b.core);
  rails_.count_lo += br.count_lo;
  rails_.count_hi += br.count_hi;
  rails_.sum_lo += br.sum_lo;
  rails_.sum_hi += br.sum_hi;
  if (br.any_possible) {
    // Any part could host the global MIN/MAX: outward rails widen.
    rails_.min_lo = rails_.any_possible ? std::min(rails_.min_lo, br.min_lo)
                                        : br.min_lo;
    rails_.max_hi = rails_.any_possible ? std::max(rails_.max_hi, br.max_hi)
                                        : br.max_hi;
    rails_.any_possible = true;
  }
  if (br.defined) {
    // A surely-present element bounds the global MIN from above (and MAX
    // from below) — take the tightest such witness across parts.
    rails_.min_hi = rails_.defined ? std::min(rails_.min_hi, br.min_hi)
                                   : br.min_hi;
    rails_.max_lo = rails_.defined ? std::max(rails_.max_lo, br.max_lo)
                                   : br.max_lo;
    rails_.defined = true;
  }
}

std::optional<BracketedAnswer> BracketComposer::answer(
    query::AggregateKind agg) const {
  const RangeStats& c = core_;
  const BundleBracket& r = rails_;
  switch (agg) {
    case query::AggregateKind::kCount:
      return make_answer(static_cast<double>(c.count), r.count_lo, r.count_hi);
    case query::AggregateKind::kSum:
      return make_answer(static_cast<double>(c.sum), r.sum_lo, r.sum_hi);
    case query::AggregateKind::kAvg:
      if (c.count == 0 || r.count_lo <= 0.0) return std::nullopt;
      return make_answer(
          static_cast<double>(c.sum) / static_cast<double>(c.count),
          r.sum_lo / r.count_hi, r.sum_hi / r.count_lo);
    case query::AggregateKind::kMin:
      if (c.count == 0 || !r.defined) return std::nullopt;
      return make_answer(static_cast<double>(c.min), r.min_lo, r.min_hi);
    case query::AggregateKind::kMax:
      if (c.count == 0 || !r.defined) return std::nullopt;
      return make_answer(static_cast<double>(c.max), r.max_lo, r.max_hi);
    case query::AggregateKind::kMedian:
    case query::AggregateKind::kQuantile:
    case query::AggregateKind::kCountDistinct:
      return std::nullopt;
  }
  return std::nullopt;
}

BracketedAnswer make_answer(double value, double lo, double hi) {
  BracketedAnswer a;
  a.value = value;
  a.bound = std::max({value - lo, hi - value, 0.0});
  a.exact = a.bound == 0.0;
  return a;
}

}  // namespace sensornet::cube
