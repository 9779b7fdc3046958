// Query execution over a deployment.
//
// TinyDB-style lifecycle: the plan's region is disseminated down the tree
// first as a value window (nodes install it as local state — those bits are
// metered like any other), then the planned protocol runs over the readings
// inside it. An exact selection skips the broadcast: its first summary
// request carries the same window. The planner is the only reader of the
// query's WHERE. The result carries the answer and the exact communication
// bill of this query.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/proto/counting_service.hpp"
#include "src/query/ast.hpp"
#include "src/query/planner.hpp"
#include "src/sim/network.hpp"

namespace sensornet::query {

struct Deployment {
  sim::Network& net;
  const net::SpanningTree& tree;
  /// Known upper bound X on readings (the model's assumption).
  Value max_value_bound;
};

struct QueryResult {
  double value = 0.0;
  bool is_exact = true;
  /// The filter matched no reading: MIN/MAX/AVG/MEDIAN/QUANTILE are
  /// undefined and `value` is 0.
  bool empty_selection = false;
  std::string plan;          // human-readable strategy line
  std::uint64_t max_node_bits = 0;  // this query's individual communication
  std::uint64_t total_bits = 0;
  std::uint64_t messages = 0;
  /// Exact selection: COUNTP child edges served from a kept subtree
  /// summary, without a message (proto::PrunedCountingService).
  std::uint64_t countp_edges_pruned = 0;
  /// Exact selection: summary waves over a narrowed bracket, after the
  /// first over the WHERE.
  std::uint64_t selection_resummaries = 0;
};

class Executor {
 public:
  explicit Executor(Deployment deployment);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Parse, plan and run one query (planned without a cube catalog: the
  /// one-shot executor always collects over the tree).
  QueryResult run(const std::string& text);

  /// Run an already-parsed query under an explicit plan. The executor
  /// consumes the plan's strategy knobs and region and ignores its step
  /// program — it IS the tree-collect fallback every plan can degrade to.
  QueryResult run(const Query& q, const CostedPlan& plan);

 private:
  /// Installs `where` at every node via a tree broadcast (the whole-domain
  /// window clears the filter); returns the window the nodes decoded.
  proto::ValueWindow install_filter(const proto::ValueWindow& where);

  Deployment deployment_;
  std::uint32_t next_broadcast_session_ = 0x6000;
};

}  // namespace sensornet::query
