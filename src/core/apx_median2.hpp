// Approximate median with polyloglog communication (Section 4.2, Fig. 4).
//
// Two ideas compose:
//  1. Run the noise-tolerant search of Fig. 2 on x-hat = floor(log2 x)
//     instead of x. The hat domain has max value log2(X), so every payload
//     (MIN/MAX partials, the broadcast mu-hat, predicate thresholds) costs
//     O(log log N) bits, and with LogLog counting each stage is polyloglog.
//  2. The stage result mu-hat pins the median inside the dyadic interval
//     [2^mu-hat, 2^(mu-hat+1) - 1]. Nodes outside it go passive; nodes
//     inside rescale their value affinely onto [1, X] ("zooming", Fig. 3)
//     and the next stage refines. Each stage at least doubles the gap
//     between surviving values, so ceil(log2(1/beta)) stages reach value
//     precision beta.
//
// Node-local session state (current value, staged value, passive flag) is
// only ever modified by broadcast/wave handlers — state transitions ride on
// metered bits, never on root-side fiat.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/proto/approx_counting.hpp"
#include "src/sim/network.hpp"

namespace sensornet::core {

struct ApxMedian2Params {
  /// Target value precision: the result interval has width <= beta * X.
  double beta = 1.0 / 256.0;
  /// Desired failure probability.
  double epsilon = 0.25;
  /// Multiplier on the paper's repetition schedule (1.0 = Fig. 4 verbatim).
  double rep_scale = 1.0;
  /// LogLog registers per APX_COUNT (m of Fact 2.2).
  unsigned registers = 64;
  proto::EstimatorKind estimator = proto::EstimatorKind::kHyperLogLog;
  /// The known upper bound X on item values (>= 2). Items equal to 0 are
  /// treated as 1, adding at most 1/X to the value error.
  Value max_value_bound = 0;
  /// Rank-fraction target: 0.5 computes the median; phi computes the
  /// phi-quantile (the APX_OS generalization, Theorem 4.6).
  double rank_phi = 0.5;
};

/// One zoom stage, for the Fig. 3 trace.
struct Median2StageTrace {
  unsigned stage = 0;
  Value mu_hat = 0;        // hat-domain order statistic found this stage
  Value interval_lo = 0;   // original-domain interval implied so far
  Value interval_hi = 0;
  double k = 0.0;          // rank target entering the stage
};

struct ApxMedian2Result {
  /// Midpoint of the final original-domain interval.
  Value value = 0;
  /// The interval itself; (hi - lo) / X is the achieved beta.
  Value interval_lo = 0;
  Value interval_hi = 0;
  unsigned stages = 0;
  unsigned apx_count_calls = 0;
  /// The input held no item (line 1's first approximate COUNT came back
  /// with every register zero, or stage 1's exact MIN wave found none): no
  /// stage ran and `value` means nothing.
  bool empty_input = false;
  /// The zoom ended before its ceil(log2(1/beta)) planned stages because
  /// every item went passive (estimation noise pinned an interval that holds
  /// no item), not because it pinned a single value: the interval may be
  /// wider than beta * X.
  bool stopped_early = false;
  std::vector<Median2StageTrace> trace;
};

/// Fig. 4 end-to-end over a spanning tree. `base_view` selects which items
/// seed the zoom session (default: every node's raw readings); query WHERE
/// filters plug in here.
ApxMedian2Result approx_median2(
    sim::Network& net, const net::SpanningTree& tree,
    const ApxMedian2Params& params,
    const proto::LocalItemView& base_view = proto::raw_item_view());

}  // namespace sensornet::core
