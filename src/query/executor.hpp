// Query execution over a deployment.
//
// TinyDB-style lifecycle: the parsed query's WHERE filter is disseminated
// down the tree first (nodes install it as local state — those bits are
// metered like any other), then the planned protocol runs over the filtered
// view. An exact selection skips the broadcast: its first summary request
// carries the WHERE. The result carries the answer and the exact
// communication bill of this query.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
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
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Parse, plan and run one query (planned without a cube catalog: the
  /// one-shot executor always collects over the tree).
  QueryResult run(const std::string& text);

  /// Run an already-parsed query under an explicit plan. The executor
  /// consumes the plan's strategy knobs and ignores its step program —
  /// it IS the tree-collect fallback every plan can degrade to.
  QueryResult run(const Query& q, const CostedPlan& plan);

 private:
  class FilterView;

  /// Installs (or clears) the WHERE filter at every node via a tree
  /// broadcast; returns the view protocols should use.
  void install_filter(const std::optional<Condition>& cond);

  Deployment deployment_;
  std::vector<std::optional<Condition>> node_filters_;
  std::unique_ptr<FilterView> view_;
  std::uint32_t next_broadcast_session_ = 0x6000;
};

/// True if `x` satisfies the condition (shared by executor and tests).
bool condition_matches(const Condition& cond, Value x);

}  // namespace sensornet::query
