// The exact mirror that the service benches and tests check answers
// against: a stats aggregate over the readings a fresh collection sees.
#pragma once

#include <span>

#include "src/common/types.hpp"
#include "src/cube/stats.hpp"
#include "src/query/aggregate.hpp"

namespace sensornet::bench {

/// COUNT, SUM, AVG, MIN or MAX over the readings of `mirror` in [lo, hi].
/// `empty` reports an empty selection, on which MIN, MAX and AVG are
/// undefined and read 0.
inline double exact_over(query::AggregateKind agg, Value lo, Value hi,
                         std::span<const Value> mirror, bool& empty) {
  cube::RangeStats truth;
  for (const Value v : mirror) {
    if (v >= lo && v <= hi) truth.observe(v);
  }
  empty = truth.count == 0;
  switch (agg) {
    case query::AggregateKind::kCount:
      return static_cast<double>(truth.count);
    case query::AggregateKind::kSum:
      return static_cast<double>(truth.sum);
    case query::AggregateKind::kMin:
      return static_cast<double>(truth.min);
    case query::AggregateKind::kMax:
      return static_cast<double>(truth.max);
    case query::AggregateKind::kAvg:
      return empty ? 0.0
                   : static_cast<double>(truth.sum) /
                         static_cast<double>(truth.count);
    default:
      return 0.0;  // not a stats aggregate
  }
}

}  // namespace sensornet::bench
