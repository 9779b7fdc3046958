// The traced run's twin deployment.
//
// The twin is a second deployment (same graph, tree, readings and network
// seed) fed the same generated texts and update batches as the service. It
// re-enacts QueryService's routing through each layer's public entry points
// — tokenize / parse_query / Planner::plan, SharedPlanScheduler,
// ResultCache, cube::Cube, Executor, TrialFarm — with a span around every
// call, so each layer's time can be read off without instrumenting the
// program. Its mark-wave bits must equal the service's mark_bits_on_air
// exactly; that equality is what shows the twin walks the same path.
//
// Paths the workload's service never takes are sampled as *shadow* probes
// (every kShadowEvery ticks, one live query): a cube serve when the cube is
// off, a shared stats collection when it is on, and an executor run on the
// standing workloads. Their spans are named `shadow.<probe>` and carry the
// layer kShadowLayer, so the per-layer self times and the coverage count
// only the paths the service runs; a per-probe metric falls back to its
// shadow span where the real path has none. They do not affect the
// mark-bit check.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gen.hpp"
#include "spans.hpp"
#include "src/common/trial_farm.hpp"
#include "src/cube/cube.hpp"
#include "src/net/graph.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/query/ast.hpp"
#include "src/query/executor.hpp"
#include "src/query/planner.hpp"
#include "src/service/engine.hpp"
#include "src/service/result_cache.hpp"
#include "src/service/shared_plan.hpp"
#include "src/sim/network.hpp"

namespace servicebench {

/// Layer of the shadow probes' spans.
inline constexpr char kShadowLayer[] = "shadow";

struct TwinStats {
  std::uint64_t mark_bits = 0;       // bits of every note_updates() wave
  std::uint64_t plans = 0;           // Planner::plan successes
  std::uint64_t plan_steps = 0;
  double cell_width = 0.0;           // Σ region width served by cube cells
  double cube_plan_width = 0.0;      // Σ region width of cube-served plans
  std::uint64_t cube_serves = 0;     // fresh Cube::serve calls
  double cost_error_sum = 0.0;       // Σ |est - actual| / actual
  std::uint64_t executor_runs = 0;
  std::uint64_t executor_bits = 0;
  std::uint64_t stale_attempts = 0;  // stale_bracket() calls
  std::uint64_t stale_hits = 0;      // ... whose bound met the tolerance
};

class Twin {
 public:
  static constexpr std::uint32_t kShadowEvery = 16;

  Twin(const sensornet::net::Graph& graph,
       const sensornet::net::SpanningTree& tree,
       const std::vector<Value>& readings, std::uint64_t net_seed,
       const sensornet::service::ServiceConfig& config, bool shadow_executor,
       SpanRecorder& spans);
  ~Twin();

  Twin(const Twin&) = delete;
  Twin& operator=(const Twin&) = delete;

  /// Mirrors QueryService::submit_batch / submit / cancel / run_epoch.
  void submit_batch(const std::vector<std::string>& texts, std::uint64_t id);
  void submit(const std::string& text, std::uint64_t id);
  void cancel(std::uint32_t query_id);
  void run_epoch(std::span<const SensorUpdate> batch, std::uint64_t id);

  const TwinStats& stats() const { return stats_; }

 private:
  enum class Path { kStats, kDistinct, kCube, kExecutor };
  struct Parsed {
    bool ok = false;
    sensornet::query::Query q;
    sensornet::query::CostedPlan plan;
  };
  struct Live {
    sensornet::query::Query q;
    sensornet::query::CostedPlan plan;
    Path path = Path::kExecutor;
    std::uint32_t group = 0;
    std::uint32_t registered = 0;
    std::uint32_t every = 0;
  };

  Parsed front(const std::string& text, std::uint64_t id);
  sensornet::Result<sensornet::query::CostedPlan> plan(
      const sensornet::query::Query& q, std::uint64_t id);
  void admit(Parsed&& p, std::uint64_t id);
  void serve(const Live& lq, std::uint64_t id);
  void serve_cube(const Live& lq, std::uint64_t id);
  void answer_fresh(const Live& lq, std::uint64_t id);
  void shadow(std::uint64_t id);
  double tolerance(const Live& lq, double value) const;
  std::uint64_t bits() const;

  sensornet::sim::Network net_;
  const sensornet::net::SpanningTree& tree_;
  sensornet::service::ServiceConfig config_;
  bool shadow_executor_;
  SpanRecorder& spans_;

  sensornet::query::Executor executor_;
  sensornet::service::SharedPlanScheduler scheduler_;
  std::unique_ptr<sensornet::cube::Cube> cube_;
  sensornet::query::Planner planner_;
  sensornet::service::ResultCache cache_;
  sensornet::TrialFarm farm_;
  /// Shadow cube for workloads whose service runs without one.
  std::unique_ptr<sensornet::cube::Cube> shadow_cube_;
  std::unique_ptr<sensornet::query::Planner> shadow_planner_;

  std::uint32_t epoch_ = 0;
  std::uint32_t next_id_ = 1;
  std::uint64_t shadow_turn_ = 0;
  std::map<std::uint32_t, Live> live_;
  std::vector<std::uint32_t> stored_groups_;
  std::vector<sensornet::query::RegionSignature> stored_regions_;
  TwinStats stats_;
};

}  // namespace servicebench
