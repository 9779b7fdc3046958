// Range-statistics primitives shared by the multiresolution cube, the
// shared-plan scheduler, and the result cache.
//
// A RangeStats is COUNT/SUM/MIN/MAX over one value range; a StatsBundle is
// the PASS-style triple of those over a core region and its margin-shrunk
// ("inner") / margin-grown ("outer") companions. Under the drift model — a
// reading moves by at most max_delta per epoch — a bundle frozen at epoch t
// still brackets the current aggregate at epoch t + s with d = s * max_delta:
//
//   COUNT in [inner.count, outer.count]
//   SUM   in [max(0, inner.sum - inner.count*d), outer.sum + outer.count*d]
//   MIN   in [max(lo, outer.min - d), min(hi, inner.min + d)]
//   MAX   in [max(lo, inner.max - d), min(hi, outer.max + d)]
//
// where [lo, hi] is the region itself (a range aggregate can never leave its
// own range, so both MIN/MAX rails are clamped). At d = 0 nothing has moved
// since the bundle was taken, so the core itself is the current answer, for
// ranged regions too. bracket_bundle() is the per-part arithmetic;
// BracketComposer adds k parts (a cached region is one part, a cube cover
// one part per cell, a fresh bundle one part at drift 0) and answers an
// aggregate from the sum: it is the one per-aggregate switch behind every
// bracketed and every exact stats answer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "src/common/bitio.hpp"
#include "src/common/types.hpp"
#include "src/query/aggregate.hpp"

namespace sensornet::cube {

/// COUNT/SUM/MIN/MAX over one value range. min/max are meaningful only when
/// count > 0.
struct RangeStats {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  Value min = 0;
  Value max = 0;

  void observe(Value v);
  void combine(const RangeStats& other);

  bool operator==(const RangeStats&) const = default;
};

/// One collection's result: stats over the core region and its margin-shrunk
/// / margin-grown companions (inner is a subset of core is a subset of outer).
struct StatsBundle {
  RangeStats core;
  RangeStats inner;
  RangeStats outer;

  /// Componentwise combine. Exact for disjoint core regions; for outer
  /// regions of adjacent components the overlap only overcounts count/sum,
  /// which keeps every derived upper bound sound.
  void combine(const StatsBundle& other);

  bool operator==(const StatsBundle&) const = default;
};

/// Plain codec of one RangeStats: count, then sum/min/(max-min) only when
/// the range is non-empty. A full stats image (cube::encode_stats_image)
/// sends a bundle's core this way; a ranged bundle's inner and outer follow
/// as deltas against it. A stale edge whose parent already holds the
/// slot's previous image sends a delta image instead
/// (cube::encode_stats_delta): the changes against the old image, with
/// what did not move left out. Wire formats in partials.hpp.
void encode_range_stats(BitWriter& w, const RangeStats& rs);
RangeStats decode_range_stats(BitReader& r);

/// Deterministic drift intervals derived from one bundle at drift d (see
/// file comment). `defined` gates the MIN/MAX rails on a non-empty inner
/// region (an element that surely stayed inside); `any_possible` is false
/// when even the outer region is empty — nothing can be inside the region
/// now, so the component contributes nothing to a composed MIN/MAX.
struct BundleBracket {
  double count_lo = 0.0, count_hi = 0.0;
  double sum_lo = 0.0, sum_hi = 0.0;
  bool defined = false;  // inner non-empty: MIN/MAX rails valid
  bool any_possible = false;  // outer non-empty
  double min_lo = 0.0, min_hi = 0.0;
  double max_lo = 0.0, max_hi = 0.0;
};

/// `region_lo`/`region_hi` are the clamp rails of the bundle's own region
/// (for whole-domain bundles: 0 and the model's value bound). `whole_domain`
/// collapses the margins: membership is static, so COUNT is exact at any
/// drift and MIN/MAX drift around the core values. Drift 0 collapses them
/// too: every interval is the core's point.
BundleBracket bracket_bundle(const StatsBundle& b, bool whole_domain,
                             double drift, double region_lo,
                             double region_hi);

/// A bracketed answer: |value - exact_now| <= bound, deterministically.
struct BracketedAnswer {
  double value = 0.0;
  double bound = 0.0;
  bool exact = false;  // bound == 0
};

/// Collapses an interval around a point answer (bound = max distance to
/// either rail, floored at zero).
BracketedAnswer make_answer(double value, double lo, double hi);

/// Sums the drift brackets of k parts with disjoint core regions, each at
/// its own drift, and answers one aggregate over their union.
class BracketComposer {
 public:
  /// Adds one part: its frozen bundle, its region's rails and whole-domain
  /// flag, and its drift (staleness x max_delta) — see bracket_bundle.
  void add(const StatsBundle& b, bool whole_domain, double drift,
           double region_lo, double region_hi);

  /// The frozen composition's value with the farther rail as its bound
  /// (0 when every part was added at drift 0). nullopt when `agg` is not a
  /// stats aggregate, when MIN/MAX/AVG are undefined on an empty selection,
  /// or when the rails cannot bound them (AVG whose count could reach 0,
  /// MIN/MAX with no element surely inside).
  std::optional<BracketedAnswer> answer(query::AggregateKind agg) const;

 private:
  RangeStats core_;      // the point value: the parts' frozen cores
  BundleBracket rails_;  // summed COUNT/SUM, composed MIN/MAX intervals
};

/// The absolute slack a query's relative ERROR allows around `value`
/// (magnitudes below 1 count as 1; no ERROR means exact only). A bracketed
/// answer may serve the query when its bound is at most this.
inline double tolerance_for(std::optional<double> error, double value) {
  return error ? *error * std::max(1.0, std::abs(value)) : 0.0;
}

}  // namespace sensornet::cube
