// Deterministic exact median and order statistics (Section 3, Fig. 1).
//
// Binary search on the value domain: the root repeatedly asks COUNTP("< y")
// and narrows an interval certified to contain the median (Lemma 3.1). The
// pivot y can be an integer or an integer + 1/2, so the driver runs in the
// doubled domain (y2 == 2y, z2 == 2z) where every quantity stays an exact
// int64. Communication: O(log N) COUNTP waves of O(log N) bits per node
// each — Theorem 3.2's O((log N)^2).
//
// The driver is written against the abstract CountingService, mirroring the
// paper's "indifferent to the underlying communication mechanism" claim: the
// same code runs over spanning trees and over the single-hop medium.
//
// Which service runs it: the query executor's exact MEDIAN/QUANTILE runs it
// over proto::PrunedCountingService. There one summary wave over the WHERE
// window replaces the COUNT, MIN and MAX waves (and the WHERE broadcast),
// COUNTP descends only into subtrees that straddle the pivot, a repeated
// pivot (line 4.1 often asks one) is answered from the record, and once the
// answered pivots around a new one bracket at most a quarter of the items
// the summaries describe, the summaries are re-taken over that bracket:
// Fig. 1's pivots nest, so Lemma 3.1's certified interval only
// shrinks. The paper experiments run it over proto::TreeCountingService,
// Fact 2.1 verbatim, so their ledgers show Theorem 3.2's costs. Pivots,
// COUNTP calls and answers are the same over both.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/types.hpp"
#include "src/proto/counting_service.hpp"

namespace sensornet::core {

struct DetSelectionResult {
  Value value = 0;
  /// Executions of the while loop (== ceil(log2(M-m)) when M > m).
  unsigned iterations = 0;
  /// Total COUNTP invocations, including the line 4.1 tie-break.
  unsigned countp_calls = 0;
};

/// Per-iteration binary search state in the doubled domain, appended to
/// `*trace` when non-null: (y2, z2) at the top of each loop iteration.
/// Property tests check Lemma 3.1's invariant median in [y-z, y+z] on it.
using SearchTrace = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// OS(X, k) per Definition 2.3, with the possibly half-integral rank passed
/// as twice_k (median == OS(X, N/2) == twice_k of N). Requires
/// 1 <= twice_k <= 2N and at least one item.
DetSelectionResult deterministic_order_statistic(proto::CountingService& svc,
                                                 std::int64_t twice_k,
                                                 SearchTrace* trace = nullptr);

/// MEDIAN(X): runs COUNT to learn N, then selects OS(X, N/2). This is
/// Fig. 1 verbatim.
DetSelectionResult deterministic_median(proto::CountingService& svc,
                                        SearchTrace* trace = nullptr);

}  // namespace sensornet::core
