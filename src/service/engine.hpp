// Long-running concurrent query service.
//
// The classic stack (parser -> planner -> executor) answers one query at a
// time, paying a full tree aggregation per question. The service is the
// multi-tenant layer on top: clients register one-shot and continuous
// (`EVERY n EPOCHS`) queries, sensor updates arrive in per-epoch batches,
// and due queries are answered each epoch with four cost levers:
//
//   1. Shared aggregation — queries that one collection answers share it.
//      Stats queries (and, with the cube, approximate COUNT_DISTINCT) are
//      keyed by (region, sketch); a fresh key is one stats group, all of an
//      epoch's fresh groups sharing a single multiplexed convergecast (see
//      shared_plan.hpp), or, with use_cube, one plan in the cube's batch.
//      Exact COUNT_DISTINCT shares one distinct group per region.
//   2. Incremental re-evaluation — collections descend only into subtrees
//      that changed since the group's or cell's last visit, driven by the
//      scheduler's dirty marks. A stats group with continuous subscribers
//      is pushed instead: its delta images ride the epoch's mark wave, and
//      the epoch's collection finds it fresh (see shared_plan.hpp).
//   3. Bounded-error result cache — a query with an ERROR tolerance can be
//      answered from a stale stats bundle when the deterministic drift
//      bound (staleness x max_delta, see result_cache.hpp) fits its
//      epsilon: zero bits on the air.
//   4. Multiresolution cube — with use_cube on, a key's collection is the
//      planner's bit-cheapest mix of maintained cube cells and residue
//      collections; a plan of cells alone can also answer from per-cell
//      drift brackets at zero bits. The batch of an epoch takes one cell
//      collect and one residue wave (see cube.hpp).
//
// One routing rule serves every key, in every serve. A serve is an epoch's
// due continuous queries, or one admission batch's one-shots: a
// submit_batch() is one serve, and submit() is the batch of one. A planning
// pass walks the serve's bundle queries in id order before any wave runs: a
// query whose key already goes fresh rides it; otherwise it probes the
// cache, then (with the cube) plans once and tries the plan's cell
// brackets — skipped when the plan is priced at 0 bits, as it then composes
// exactly for free. A query with no zero-bit answer sends its key fresh. A
// fresh key answers every due query of the key exactly, and its first due
// query pays the key's wave shares; every other query gets the zero-bit
// answer its own probe found. Fresh bundles enter the cache only after the
// last answer, so no store can evict an entry a probe approved.
//
// Every wave runs on one bounded-degree tree, the scheduler's aggregation
// tree (SharedPlanScheduler::tree()): the tree the service is handed,
// capped so that no node adopts more than net::kAggregationFanIn children
// when it is wider, then rebuilt as a leafy tree of the same depths. Fact
// 2.1's O(log N) individual bound needs a bounded-degree tree (on a
// geometric deployment a BFS root adopts all its radio neighbours and
// alone sets the busiest node's bits), and every edge whose subtree
// changed pays a message per epoch, so fewer relays send fewer marks.
//
// Concurrency model: submit_batch() parses, plans and canonicalizes regions
// on a deterministic work-stealing farm (pure, per-cell work); everything
// that touches the simulated network stays serial, in query-id order. The
// serial back half admits every text in order (ids, group installs,
// continuous registrations), then serves the batch's one-shots: all bundle
// one-shots in one multiplexed convergecast or one cube batch, then the
// distinct and executor one-shots. The answer stream is therefore
// byte-identical at any thread count — the same discipline the bench farm
// uses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.hpp"
#include "src/common/trial_farm.hpp"
#include "src/common/types.hpp"
#include "src/cube/cube.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/query/executor.hpp"
#include "src/query/planner.hpp"
#include "src/service/result_cache.hpp"
#include "src/service/shared_plan.hpp"

namespace sensornet::service {

using QueryId = std::uint32_t;

struct ServiceConfig {
  /// Drift model: a reading moves by at most this much per epoch (enforced
  /// on the update feed; the cache's bounds are sound exactly because of
  /// this).
  Value max_delta = 4;
  /// Margin (in epochs) baked into collected bundles; cache entries bracket
  /// ranged regions for this many epochs of staleness.
  std::uint32_t cache_horizon_epochs = 8;
  std::size_t cache_capacity = 1024;
  /// Off = the naive baseline: every due query re-runs the one-shot
  /// executor, no marks, no cache. The bench's comparator.
  bool share_aggregation = true;
  /// Cache applies to the bundle path (stats groups or cube).
  bool use_cache = true;
  /// Route cube-eligible queries through the multiresolution cube. Off by
  /// default: the cube pays cell-refresh bits, which only amortize under a
  /// range-query workload.
  bool use_cube = false;
  /// Cube resolution levels (see cube::CubeConfig::levels).
  unsigned cube_levels = 4;
  /// HLL registers of the cube's COUNT_DISTINCT partials; 0 = stats only,
  /// and approximate-distinct queries fall back to their shared group.
  unsigned cube_distinct_registers = 0;
  /// Workers for submit_batch's parse/plan stage; 0 = hardware concurrency.
  unsigned threads = 1;
};

/// One sensor's new reading for the epoch being run.
struct SensorUpdate {
  NodeId node = 0;
  Value value = 0;
};

struct Answer {
  QueryId id = 0;
  std::uint32_t epoch = 0;
  double value = 0.0;
  /// Deterministic bound on |value - exact_now|; 0 for fresh collections.
  /// Randomized estimates (approximate COUNT_DISTINCT) carry a statistical
  /// guarantee from their plan instead — exact is false, bound stays 0.
  double error_bound = 0.0;
  bool exact = true;
  bool from_cache = false;
  /// The WHERE region matched no readings (MIN/MAX/AVG/MEDIAN/QUANTILE
  /// undefined; value 0).
  bool empty_selection = false;
};

/// Outcome of a successful submission.
struct Admission {
  QueryId id = 0;
  bool continuous = false;
  std::string plan;  // human-readable route through the service
  /// One-shot queries are answered at admission, by their batch's one
  /// serve (so a one-shot's key may ride a batchmate's fresh collection);
  /// continuous ones first answer at their next due epoch.
  std::optional<Answer> answer;
};

struct ServiceTelemetry {
  std::uint64_t answers = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t fresh_stats_answers = 0;
  std::uint64_t distinct_answers = 0;
  std::uint64_t executor_runs = 0;
  /// Exact selections' COUNTP child edges served from a kept subtree
  /// summary, without a message (query::QueryResult::countp_edges_pruned).
  std::uint64_t countp_edges_pruned = 0;
  /// Exact selections' summary waves over a narrowed bracket
  /// (query::QueryResult::selection_resummaries).
  std::uint64_t selection_resummaries = 0;
  /// Cube-backed answers: fresh (composed from the epoch's batch, every
  /// due query of a fresh key included) vs stale (zero-bit per-cell drift
  /// brackets that met the tolerance).
  std::uint64_t cube_fresh_answers = 0;
  std::uint64_t cube_stale_answers = 0;
  std::uint64_t updates_applied = 0;
  /// Image bits pushed for a stats group in an epoch whose due queries of
  /// the group were all answered without reading it (from the cache).
  std::uint64_t pushed_unread_image_bits = 0;
};

/// Where one query's cost went, accumulated over its lifetime. Bits and
/// messages follow the marginal-cost rule: the first due query of a fresh
/// key or group each epoch pays its collection — the stats group's share
/// of the epoch's multiplexed wave (see WaveShare) or of its push, or the
/// key's share of the cube batch's waves, the cells and residues its plan
/// claimed first (see cube::ServeResult) — and everyone after rides it for
/// free. A push is paid by the group's first due query even when the cache
/// answers it. Summing
/// bits_on_air over queries plus the service-level mark and install buckets
/// (see TelemetrySnapshot) therefore reproduces the network total.
struct QueryCost {
  std::uint64_t answers = 0;
  std::uint64_t cache_hits = 0;    // answered from the result cache
  std::uint64_t cube_stale = 0;    // answered from cube cell brackets
  std::uint64_t fresh = 0;         // answered by a collection / executor run
  std::uint64_t bits_on_air = 0;   // payload + header bits this query caused
  std::uint64_t messages = 0;
  /// Accumulated (tolerance - bound) over cache-served answers: how much
  /// slack the query's epsilon left unused. Large slack means the client
  /// could tighten ERROR and still be served from cache.
  double bound_slack = 0.0;
};

/// One shared group's cost, accumulated over its lifetime. Bits include the
/// install broadcast at creation and every collection (or wave share) since.
struct GroupCost {
  std::uint64_t collections = 0;  // fresh collections the group paid
  std::uint64_t bits_on_air = 0;
  std::uint64_t messages = 0;
  std::uint32_t subscribers = 0;  // live continuous subscribers (snapshot)
};

/// Full cost-attribution view, assembled by telemetry_snapshot().
struct TelemetrySnapshot {
  ServiceTelemetry totals;
  CacheCounters cache;
  SharedPlanStats plan;
  /// Cube-side telemetry (all zero when use_cube is off).
  cube::CubeStats cube;
  /// Dirty-mark propagation is a service-level cost: no single query causes
  /// an update batch, so the mark wave's bits live here, not in QueryCost.
  std::uint64_t mark_bits_on_air = 0;
  std::uint64_t mark_messages = 0;
  /// Shared-group install broadcasts, paid at admission, and the schedule
  /// announcements that tell the nodes which groups to push (at admission,
  /// and before an epoch after a cancel). A group may outlive the query
  /// whose admission created it, so installs live here too (and in the
  /// group's own ledger). Mark, install and Σ query bits (and messages)
  /// equal the network total exactly.
  std::uint64_t install_bits_on_air = 0;
  std::uint64_t install_messages = 0;
  std::map<QueryId, QueryCost> queries;
  std::map<GroupId, GroupCost> groups;
};

class QueryService {
 public:
  QueryService(query::Deployment deployment, ServiceConfig config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Parses, plans and admits one query — submit_batch() of one text.
  /// Malformed text and degenerate WHERE regions come back as failures
  /// carrying the parser/planner diagnostic — admission errors are expected
  /// client behavior, not bugs.
  Result<Admission> submit(const std::string& text);

  /// Batch admission: the pure front half (parse/plan/region) runs on the
  /// work-stealing farm; admission itself is serial in submission order, so
  /// results are independent of thread count. A failed text costs only its
  /// own slot. The batch's one-shots are answered in one serve: its stats
  /// one-shots ride one multiplexed convergecast (with the cube, one
  /// claimed batch), and one-shots of the same key share its fresh bundle.
  std::vector<Result<Admission>> submit_batch(
      const std::vector<std::string>& texts);

  /// Deregisters a continuous query. Returns false for unknown/one-shot
  /// ids. Shared groups outlive their subscribers — their warmed partials
  /// stay useful for the next subscriber.
  bool cancel(QueryId id);

  /// Advances the epoch: applies the update batch (validating the drift
  /// model — at most one update per node per epoch, |new - old| <=
  /// max_delta, values in [0, max_value_bound]), propagates dirty marks,
  /// and answers every due continuous query, in query-id order.
  std::vector<Answer> run_epoch(std::span<const SensorUpdate> updates);

  std::uint32_t epoch() const { return epoch_; }
  std::size_t live_queries() const { return live_.size(); }

  const ServiceTelemetry& telemetry() const { return telemetry_; }
  SharedPlanStats plan_stats() const { return scheduler_->stats(); }
  const ResultCache& cache() const { return cache_; }
  /// Null when use_cube is off.
  const cube::Cube* cube() const { return cube_.get(); }
  const query::Planner& planner() const { return planner_; }
  /// The tree every wave runs on (see the file comment).
  const net::SpanningTree& tree() const { return deployment_.tree; }

  /// Assembles the full cost-attribution view: totals, cache outcome
  /// counters, scheduler stats, cube stats, the service-level mark-wave and
  /// group-install buckets, and the per-query / per-group cost ledgers
  /// (with live subscriber counts).
  TelemetrySnapshot telemetry_snapshot() const;

 private:
  /// How the service routes a query each time it is due.
  enum class Path {
    kBundle,    // (region, sketch) keys: cube covers or stats groups
    kDistinct,  // shared distinct group
    kExecutor,  // per-query one-shot executor (median/quantile, naive mode)
  };

  struct LiveQuery {
    QueryId id = 0;
    query::Query q;
    query::CostedPlan plan;
    Path path = Path::kExecutor;
    GroupId group = 0;  // kDistinct, and kBundle without the cube
    std::vector<cube::SlotId> pushed;  // kBundle with the cube: its push
    std::uint32_t registered_epoch = 0;
    std::uint32_t every = 0;  // 0 for one-shot
  };

  /// The pure front half of admission (no shared state, farm-safe).
  struct ParsedQuery {
    bool ok = false;
    std::string error;
    query::Query q;
    query::CostedPlan plan;
  };

  ParsedQuery parse_and_plan(const std::string& text) const;
  /// The serial back half of submit() and submit_batch(): admits every
  /// parsed query in order, registers the continuous ones, and answers the
  /// one-shots in one serve.
  std::vector<Result<Admission>> admit(std::vector<ParsedQuery>&& parsed);
  /// Allocates the query's id, picks its path and installs its group;
  /// fills `adm` but neither registers nor answers the query.
  LiveQuery route(ParsedQuery&& parsed, Admission& adm);
  /// Answers one serve's due queries (id order) — an epoch's, or an
  /// admission batch's one-shots: every kBundle query in one
  /// serve_bundles() call, the rest by answer_fresh(). Answers come back
  /// aligned with `due`.
  std::vector<Answer> serve(std::span<const LiveQuery* const> due);
  /// Runs the scheduler's and the cube's announce() and charges them to
  /// the install bucket (the scheduler's also to the announced groups).
  void announce();
  /// Charges one group's share of a wave to the group and to `payer`.
  void charge(GroupId group, QueryId payer, const WaveShare& share);
  /// Answers kDistinct and kExecutor queries, charging the bits it spends.
  Answer answer_fresh(const LiveQuery& lq);
  /// Answers a serve's kBundle queries by the routing rule in the file
  /// comment. Answers come back aligned with `due`.
  std::vector<Answer> serve_bundles(std::span<const LiveQuery* const> due);
  /// Serves a lookup() hit the caller already holds — the cache is asked
  /// exactly once per serve, so its hit counter matches answers served.
  Answer answer_cached(const LiveQuery& lq, const CachedAnswer& hit);

  /// Owns the aggregation tree that deployment_ names, so it is declared
  /// first.
  std::unique_ptr<SharedPlanScheduler> scheduler_;
  query::Deployment deployment_;
  ServiceConfig config_;
  query::Executor executor_;
  /// Built over the scheduler's DirtyTracker (one mark wave feeds both);
  /// null when use_cube is off.
  std::unique_ptr<cube::Cube> cube_;
  /// Catalog-aware planner; all admissions and cube re-plans go through it.
  query::Planner planner_;
  ResultCache cache_;
  TrialFarm farm_;

  std::uint32_t epoch_ = 0;
  QueryId next_id_ = 1;
  std::map<QueryId, LiveQuery> live_;  // ordered: answers come out by id
  std::vector<std::uint32_t> last_update_epoch_;  // per node, 0 = never
  ServiceTelemetry telemetry_;

  // ---- cost attribution ledgers (see TelemetrySnapshot) -----------------
  std::map<QueryId, QueryCost> query_costs_;
  std::map<GroupId, GroupCost> group_costs_;
  std::uint64_t mark_bits_on_air_ = 0;
  std::uint64_t mark_messages_ = 0;
  std::uint64_t install_bits_on_air_ = 0;
  std::uint64_t install_messages_ = 0;
};

}  // namespace sensornet::service
