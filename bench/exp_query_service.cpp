// EXP — concurrent query service: shared aggregation, cache soundness,
// admission throughput (BENCH_PR8.json).
//
// Four lanes, one report:
//
//  1. Shared vs naive bits — an overlapping continuous-query lane (four
//     regions, sixteen `EVERY n EPOCHS` subscribers) runs twice on
//     identical deployments: once through the shared-plan scheduler
//     (grouped collections, dirty-mark incremental descent, bounded-error
//     cache) and once in naive mode (every due query re-runs the one-shot
//     executor). The claim gated here: shared ships at least 2x fewer
//     total bits.
//
//  2. Cache-bound soundness — during the shared run the driver maintains
//     a mirror of every sensor value and recomputes the exact aggregate
//     for each cache-served answer. |value - exact| must stay within the
//     answer's deterministic error bound, every time. Violations are
//     FATAL: the cache's whole contract is that its bounds are never
//     wrong, only sometimes loose.
//
//  3. Determinism — the same shared scenario replayed at several
//     submit_batch thread counts. An FNV-1a checksum over the full answer
//     stream (ids, epochs, values, bounds, flags, admission diagnostics,
//     total bits) must be identical at every count.
//
//  4. Churn / qps — bursts of one-shot admissions (including malformed
//     text and degenerate regions) mixed with continuous register/cancel
//     churn and epoch advancement, wall-clocked to a queries-per-second
//     figure. Each burst is one submit_batch call, and the lane records
//     its bits on air and its multiplexed stats convergecasts: a burst's
//     stats one-shots are one serve, so a burst taking more than one
//     convergecast is FATAL.
//
// The report also carries a `telemetry` section: the shared run's
// per-query / per-group cost ledger (QueryService::telemetry_snapshot()),
// the result cache's probe/hit/miss/expired counters, and the mark-wave
// and group-install buckets. The ledger must account for every bit and
// every message on the air exactly. On the full lane the binary asserts
// the committed cache behavior exactly: 88 answers served from cache, and
// the cache's own hit counter agreeing with the service's answer
// accounting.
//
// Stats waves code each stale edge's image as a delta against the partial
// the parent already holds; the binary asserts those delta images, summed,
// take fewer bits than the same images coded in full. The lane's standing
// groups are pushed up the mark wave, so the report also counts the push
// messages, their image bits, and the image bits pushed for a group that
// no due query read that epoch (the cache answered them all).
//
// The shared lane also records its air rounds (simulated time) per epoch.
// Every stats group due fresh in an epoch rides one multiplexed
// convergecast, so an epoch may spend at most 2 * tree height + 2 rounds
// beyond its mark wave; more means collections ran one after another, and
// is FATAL.
//
// Usage: exp_query_service [--quick] [--out PATH] [--threads N]
//                          [--trace PATH]
//   --quick    smaller deployment / fewer epochs (CI smoke lane)
//   --out      output JSON path (default: BENCH_PR8.json)
//   --threads  submit_batch farm workers; 0 = hardware concurrency
//   --trace    export a Chrome trace of a small shared run to PATH
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/trial_farm.hpp"
#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"
#include "src/obs/trace.hpp"
#include "src/service/engine.hpp"
#include "src/sim/network.hpp"
#include "util/report.hpp"
#include "util/service_lane.hpp"

namespace sensornet::bench {
namespace {

using service::Answer;
using service::QueryService;
using service::SensorUpdate;
using service::ServiceConfig;
using service::SharedPlanStats;

struct Scale {
  unsigned grid_side;        // shared-vs-naive deployment is side x side
  std::uint32_t epochs;      // continuous-lane epochs
  unsigned churn_side;       // churn-lane deployment
  unsigned churn_bursts;
};

constexpr Scale kFull = {32, 32, 24, 40};
constexpr Scale kQuick = {16, 12, 12, 8};

// ---------------------------------------------------------------------------
// Overlapping continuous-query lane.
// ---------------------------------------------------------------------------
std::vector<ContinuousSpec> continuous_specs() {
  using query::AggregateKind;
  return {
      // Region A: whole domain, epsilon-tolerant mix — the cache's home turf.
      {AggregateKind::kCount, 0, kBound, 1, 0.0},
      {AggregateKind::kSum, 0, kBound, 1, 0.1},
      {AggregateKind::kAvg, 0, kBound, 2, 0.1},
      {AggregateKind::kCount, 0, kBound, 2, 0.0},
      // Region B.
      {AggregateKind::kSum, 100, 600, 1, 0.15},
      {AggregateKind::kAvg, 100, 600, 1, 0.15},
      {AggregateKind::kMin, 100, 600, 2, 0.1},
      {AggregateKind::kCount, 100, 600, 2, 0.1},
      // Region C.
      {AggregateKind::kMax, 250, 750, 1, 0.1},
      {AggregateKind::kMin, 250, 750, 1, 0.1},
      {AggregateKind::kSum, 250, 750, 2, 0.2},
      {AggregateKind::kAvg, 250, 750, 3, 0.2},
      // Region D: one exact subscriber keeps its whole group honest — the
      // group must collect fresh every epoch it is due.
      {AggregateKind::kSum, 400, 900, 1, 0.0},
      {AggregateKind::kCount, 400, 900, 1, 0.0},
      {AggregateKind::kMax, 400, 900, 2, 0.05},
      {AggregateKind::kAvg, 400, 900, 2, 0.1},
  };
}

struct LaneResult : LaneTotals {
  std::uint64_t answers = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t stats_waves = 0;
  std::uint64_t edges_descended = 0;
  std::uint64_t edges_skipped = 0;
  std::uint64_t delta_image_bits = 0;
  std::uint64_t delta_image_full_bits = 0;
  std::uint64_t mark_messages = 0;
  std::uint64_t push_messages = 0;
  std::uint64_t push_image_bits = 0;
  std::uint64_t pushed_unread_image_bits = 0;
  std::uint64_t cache_answers_checked = 0;
  std::uint64_t bound_violations = 0;
  service::TelemetrySnapshot telemetry;  // full cost-attribution ledger
};

/// Runs the overlapping continuous-query scenario once. Deterministic for a
/// fixed (side, epochs) regardless of `threads` — that invariance is lane 3.
LaneResult run_continuous_lane(const Scale& s, unsigned threads, bool shared) {
  ServiceConfig cfg;
  cfg.threads = threads;
  cfg.share_aggregation = shared;
  cfg.use_cache = shared;
  LaneResult lane;
  static_cast<LaneTotals&>(lane) = run_service_lane(
      s.grid_side, s.epochs, cfg, continuous_specs(), "continuous-lane",
      [&lane](const Answer& a, const ContinuousSpec& spec,
              const std::vector<Value>& mirror, std::uint32_t e) {
        if (!a.from_cache) return;
        ++lane.cache_answers_checked;
        if (!within_bound(a, spec, mirror, e)) ++lane.bound_violations;
      },
      [&lane](const QueryService& svc) {
        lane.answers = svc.telemetry().answers;
        lane.cache_hits = svc.telemetry().cache_hits;
        const SharedPlanStats plan = svc.plan_stats();
        lane.stats_waves = plan.stats_waves;
        lane.edges_descended = plan.edges_descended;
        lane.edges_skipped = plan.edges_skipped;
        lane.delta_image_bits = plan.delta_image_bits;
        lane.delta_image_full_bits = plan.delta_image_full_bits;
        lane.mark_messages = plan.mark_messages;
        lane.push_messages = plan.push_messages;
        lane.push_image_bits = plan.push_image_bits;
        lane.pushed_unread_image_bits =
            svc.telemetry().pushed_unread_image_bits;
        lane.telemetry = svc.telemetry_snapshot();
      });
  return lane;
}

// ---------------------------------------------------------------------------
// Churn / qps lane.
// ---------------------------------------------------------------------------
struct ChurnResult {
  std::uint64_t submitted = 0;
  std::uint64_t answers = 0;
  std::uint64_t admission_errors = 0;
  std::uint64_t cancels = 0;
  std::uint64_t bursts = 0;
  std::uint64_t burst_bits = 0;  // bits on air during submit_batch calls
  std::uint64_t burst_convergecasts = 0;
  std::uint64_t max_burst_convergecasts = 0;
  std::uint64_t executor_runs = 0;  // the bursts' MEDIANs
  std::uint64_t countp_edges_pruned = 0;
  std::uint64_t selection_resummaries = 0;
  double seconds = 0.0;
  double qps() const {
    return seconds > 0.0 ? static_cast<double>(answers) / seconds : 0.0;
  }
};

ChurnResult run_churn_lane(const Scale& s, unsigned threads) {
  const unsigned n = s.churn_side * s.churn_side;
  sim::Network net(net::make_grid(s.churn_side, s.churn_side),
                   /*master_seed=*/101);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  std::vector<Value> values(n);
  for (NodeId u = 0; u < n; ++u) {
    values[u] = static_cast<Value>((u * 53) % (kBound + 1));
  }
  net.set_one_item_per_node(values);

  ServiceConfig cfg;
  cfg.threads = threads;
  QueryService svc(query::Deployment{net, tree, kBound}, cfg);

  ChurnResult churn;
  std::vector<service::QueryId> rolling;  // continuous ids awaiting cancel
  const auto start = std::chrono::steady_clock::now();
  for (unsigned b = 0; b < s.churn_bursts; ++b) {
    const Value lo = static_cast<Value>((b * 61) % 500);
    const Value hi = lo + 300;
    std::ostringstream range;
    range << " WHERE v BETWEEN " << lo << " AND " << hi;
    const std::vector<std::string> burst = {
        "SELECT COUNT(v) FROM s" + range.str(),
        "SELECT SUM(v) FROM s" + range.str() + " ERROR 0.1",
        "SELECT AVG(v) FROM s" + range.str(),
        "SELECT MIN(v) FROM s" + range.str(),
        "SELECT MAX(v) FROM s",
        "SELECT MEDIAN(v) FROM s",
        "SELECT COUNT_DISTINCT(v) FROM s ERROR 0.1",
        "SELECT COUNT(v) FROM s WHERE v BETWEEN 400 AND 200",  // degenerate
        "SELECT SUM(v) FROM",                                  // malformed
        "SELECT COUNT(v) FROM s" + range.str() + " EVERY 2 EPOCHS",
        "SELECT AVG(v) FROM s EVERY 3 EPOCHS ERROR 0.1",
    };
    churn.submitted += burst.size();
    const std::uint64_t bits_before = net.summary(true).total_bits;
    const std::uint64_t casts_before = svc.plan_stats().stats_convergecasts;
    const auto admitted = svc.submit_batch(burst);
    const std::uint64_t casts =
        svc.plan_stats().stats_convergecasts - casts_before;
    ++churn.bursts;
    churn.burst_bits += net.summary(true).total_bits - bits_before;
    churn.burst_convergecasts += casts;
    churn.max_burst_convergecasts =
        std::max(churn.max_burst_convergecasts, casts);
    for (const auto& r : admitted) {
      if (!r.ok()) {
        ++churn.admission_errors;
      } else if (r.value().answer) {
        ++churn.answers;
      } else {
        rolling.push_back(r.value().id);
      }
    }
    // Cancel the continuous queries registered two bursts ago.
    while (rolling.size() > 4) {
      svc.cancel(rolling.front());
      rolling.erase(rolling.begin());
      ++churn.cancels;
    }
    std::vector<SensorUpdate> batch;
    for (NodeId u = b % 3; u < n; u += 3) {
      const Value delta = (u + b) % 2 == 0 ? 2 : -2;
      const Value v = std::clamp<Value>(values[u] + delta, 0, kBound);
      values[u] = v;
      batch.push_back(SensorUpdate{u, v});
    }
    churn.answers += svc.run_epoch(batch).size();
  }
  churn.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  churn.executor_runs = svc.telemetry().executor_runs;
  churn.countp_edges_pruned = svc.telemetry().countp_edges_pruned;
  churn.selection_resummaries = svc.telemetry().selection_resummaries;
  return churn;
}

// ---------------------------------------------------------------------------
// Report and gates.
// ---------------------------------------------------------------------------
/// Cost-attribution ledger of the shared run. Query bits follow the
/// marginal-cost rule (first due subscriber pays the shared wave), so
/// sum(query bits) + mark bits + group-install bits accounts for every bit
/// on the air — and the same sums of messages for every message.
std::uint64_t attributed_bits(const service::TelemetrySnapshot& t) {
  std::uint64_t bits = t.mark_bits_on_air + t.install_bits_on_air;
  for (const auto& [qid, qc] : t.queries) bits += qc.bits_on_air;
  return bits;
}

std::uint64_t attributed_messages(const service::TelemetrySnapshot& t) {
  std::uint64_t messages = t.mark_messages + t.install_messages;
  for (const auto& [qid, qc] : t.queries) messages += qc.messages;
  return messages;
}

void gate_claims(Gates& gates, bool quick, const LaneResult& shared,
                 const LaneResult& naive, const Determinism& det,
                 const ChurnResult& churn) {
  const service::TelemetrySnapshot& t = shared.telemetry;
  gates.gate(shared.answers > 0, "no continuous answers produced");
  gates.gate(shared.total_bits > 0 && naive.total_bits > 0, "no bits shipped");
  gates.gate(shared.total_bits * 2 <= naive.total_bits,
             "shared aggregation shipped ", shared.total_bits, " bits vs ",
             naive.total_bits, " naive — the 2x claim does not hold");
  // A stale edge sends how its slot changed since the partial its parent
  // holds: those delta images must undercut the same images coded in full.
  gates.gate(shared.delta_image_bits > 0 &&
                 shared.delta_image_bits < shared.delta_image_full_bits,
             "delta images took ", shared.delta_image_bits,
             " bits against ", shared.delta_image_full_bits,
             " coded in full");
  // An unchanged bundle costs 3 bits and margins that moved with the core
  // one bit each, so the lanes' delta images (pushed ones included) take
  // 0.34096 (quick) and 0.34747 (full) of their full length on the leafy
  // aggregation tree. The bound is each ratio rounded up in the fourth
  // decimal, a one-sided pin: coding an unchanged image in full reads
  // 0.34182 / 0.34867, margins that never ride 0.409 / 0.399. A change to
  // the delta layout, to the lanes' workload or to the tree re-measures it.
  const std::uint64_t ratio_bound = quick ? 3410 : 3475;  // per 10,000
  gates.gate(shared.delta_image_bits * 10000 <=
                 shared.delta_image_full_bits * ratio_bound,
             "delta images took ", shared.delta_image_bits, " bits, above ",
             ratio_bound, "/10000 of the ", shared.delta_image_full_bits,
             " bits coded in full");
  // Stats-only lane: one collection convergecast per epoch, never several.
  gates.gate(shared.max_collection_rounds <= 2 * shared.tree_height + 2,
             "an epoch spent ", shared.max_collection_rounds,
             " rounds beyond its mark wave — stats collections ran serially");
  gates.gate(shared.cache_answers_checked > 0, "cache never exercised");
  gates.gate(shared.bound_violations == 0, shared.bound_violations,
             " cache-served answer(s) violated their error bound");
  // The cache's own counters must agree with the service's answer-level
  // accounting: a counted hit that was never served (or the reverse) means
  // the probe/lookup split leaked.
  gates.gate(t.cache.hits == shared.cache_hits, "cache counted ",
             t.cache.hits, " hit(s) but the service served ",
             shared.cache_hits, " cached answer(s)");
  // The full lane is a committed workload: 16 subscribers, 32 epochs on a
  // 32x32 grid serve exactly 88 answers from cache. Any drift here is a
  // semantic change to the cache or scheduler and must be deliberate.
  gates.gate(quick || t.cache.hits == 88, "full lane served ", t.cache.hits,
             " answers from cache, expected the committed 88");
  const auto& c = t.cache;
  gates.gate(c.hits + c.misses + c.expired + c.absent <= c.probes + c.lookups,
             "cache outcomes outnumber its probes and lookups");
  std::uint64_t ledger_hits = 0;
  for (const auto& [qid, qc] : t.queries) ledger_hits += qc.cache_hits;
  gates.gate(!t.queries.empty() && ledger_hits == c.hits, "per-query hits ",
             ledger_hits, " != cache hits ", c.hits);
  std::uint64_t subscribers = 0;
  for (const auto& [gid, gc] : t.groups) subscribers += gc.subscribers;
  gates.gate(subscribers == continuous_specs().size(), "groups hold ",
             subscribers, " subscribers");
  gates.gate(attributed_bits(t) == shared.total_bits,
             "cost ledger accounts for ", attributed_bits(t), " of ",
             shared.total_bits, " bits");
  gates.gate(attributed_messages(t) == shared.total_messages,
             "cost ledger accounts for ", attributed_messages(t), " of ",
             shared.total_messages, " messages");
  det.gate(gates);
  gates.gate(churn.answers > 0 && churn.qps() > 0, "churn lane answered none");
  // A burst is one serve: its stats one-shots share one convergecast.
  gates.gate(churn.burst_convergecasts > 0, "churn bursts never collected");
  gates.gate(churn.max_burst_convergecasts <= 1, "a churn burst took ",
             churn.max_burst_convergecasts,
             " stats convergecasts — its one-shots were served one by one");
  // Exact MEDIAN descends only into subtrees that straddle its pivot.
  gates.gate(churn.executor_runs == 0 || churn.countp_edges_pruned > 0,
             "the churn lane's ", churn.executor_runs,
             " exact selections served no COUNTP edge from a subtree summary");
  // ... and narrows its summaries to the bracket the search certified.
  gates.gate(churn.executor_runs == 0 || churn.selection_resummaries > 0,
             "the churn lane's ", churn.executor_runs,
             " exact selections never re-summarized a narrowed bracket");
}

void write_pr8(Json& j, const Scale& s, bool quick, unsigned threads,
               const LaneResult& shared, const LaneResult& naive,
               const Determinism& det, const ChurnResult& churn) {
  const service::TelemetrySnapshot& t = shared.telemetry;
  const double ratio = ratio_of(naive.total_bits, shared.total_bits);
  write_header(j, "BENCH_PR8", quick, threads);
  j.key("shared_vs_naive")
      .object()
      .field("nodes", s.grid_side * s.grid_side)
      .field("epochs", s.epochs)
      .field("continuous_queries", continuous_specs().size())
      .field("bits_shared", shared.total_bits)
      .field("bits_naive", naive.total_bits)
      .field("bits_ratio", ratio, 3)
      .field("answers", shared.answers)
      .field("cache_hits", shared.cache_hits)
      .field("cache_hit_rate", ratio_of(shared.cache_hits, shared.answers), 4)
      .field("stats_waves", shared.stats_waves)
      .field("edges_descended", shared.edges_descended)
      .field("edges_skipped", shared.edges_skipped)
      .field("delta_image_bits", shared.delta_image_bits)
      .field("delta_image_full_bits", shared.delta_image_full_bits)
      .field("mark_messages", shared.mark_messages)
      .field("push_messages", shared.push_messages)
      .field("push_image_bits", shared.push_image_bits)
      .field("pushed_unread_image_bits", shared.pushed_unread_image_bits)
      .field("air_rounds_per_epoch",
             static_cast<double>(shared.air_rounds) / s.epochs, 1)
      .field("max_collection_rounds", shared.max_collection_rounds)
      .field("collection_rounds_bound", 2 * shared.tree_height + 2)
      .field("answers_checksum", hex(shared.answers_checksum))
      .end()
      .key("cache_bounds")
      .object()
      .field("cache_answers_checked", shared.cache_answers_checked)
      .field("bound_violations", shared.bound_violations)
      .end()
      .key("telemetry")
      .object()
      .key("cache")
      .object()
      .field("probes", t.cache.probes)
      .field("lookups", t.cache.lookups)
      .field("hits", t.cache.hits)
      .field("exact_hits", t.cache.exact_hits)
      .field("zero_bit_answers", t.cache.hits)
      .field("misses", t.cache.misses)
      .field("expired", t.cache.expired)
      .field("absent", t.cache.absent)
      .end()
      .field("mark_bits_on_air", t.mark_bits_on_air)
      .field("mark_messages", t.mark_messages)
      .field("install_bits_on_air", t.install_bits_on_air)
      .field("install_messages", t.install_messages)
      .key("queries")
      .array();
  for (const auto& [qid, qc] : t.queries) {
    j.object(Json::kLine)
        .field("id", qid)
        .field("answers", qc.answers)
        .field("cache_hits", qc.cache_hits)
        .field("fresh", qc.fresh)
        .field("bits_on_air", qc.bits_on_air)
        .field("messages", qc.messages)
        .field("bound_slack", qc.bound_slack, 4)
        .end();
  }
  j.end().key("groups").array();
  for (const auto& [gid, gc] : t.groups) {
    j.object(Json::kLine)
        .field("id", gid)
        .field("subscribers", gc.subscribers)
        .field("collections", gc.collections)
        .field("bits_on_air", gc.bits_on_air)
        .field("messages", gc.messages)
        .end();
  }
  j.end()
      .field("attributed_bits", attributed_bits(t))
      .field("total_bits", shared.total_bits)
      .field("attribution_ratio",
             ratio_of(attributed_bits(t), shared.total_bits), 4)
      .field("cache_hits_match_answers", t.cache.hits == shared.cache_hits)
      .end();
  det.write(j);
  j.key("qps")
      .object()
      .field("nodes", s.churn_side * s.churn_side)
      .field("bursts", s.churn_bursts)
      .field("queries_submitted", churn.submitted)
      .field("admission_errors", churn.admission_errors)
      .field("cancels", churn.cancels)
      .field("answers", churn.answers)
      .field("bits_per_burst",
             static_cast<double>(churn.burst_bits) / churn.bursts, 1)
      .field("countp_edges_pruned", churn.countp_edges_pruned)
      .field("selection_resummaries", churn.selection_resummaries)
      .field("convergecasts_per_burst",
             static_cast<double>(churn.burst_convergecasts) / churn.bursts, 3)
      .field("max_convergecasts_per_burst", churn.max_burst_convergecasts)
      .field("seconds", churn.seconds, 6)
      .field("qps", churn.qps(), 1)
      .end()
      .key("summary")
      .object()
      .field("bits_ratio", ratio, 3)
      .field("bits_target", 2.0, 1)
      .field("bits_target_met", shared.total_bits * 2 <= naive.total_bits)
      .field("bound_violations", shared.bound_violations)
      .field("bounds_sound", shared.bound_violations == 0)
      .field("cache_served", t.cache.hits)
      .field("cache_hits_match_answers", t.cache.hits == shared.cache_hits)
      .field("deterministic_across_thread_counts", det.agree())
      .field("qps", churn.qps(), 1)
      .end();
}

/// Replays a tiny shared run with the global trace ring live and exports
/// the Chrome trace_event JSON (chrome://tracing / Perfetto). Runs after
/// the measured lanes so tracing cost never touches a reported number.
bool export_trace(const std::string& path) {
  obs::TraceRing& ring = obs::TraceRing::global();
  ring.set_capacity(std::size_t{1} << 15);
  ring.set_enabled(true);
  const Scale tiny{8, 4, 8, 2};
  run_continuous_lane(tiny, /*threads=*/1, /*shared=*/true);
  ring.set_enabled(false);
  std::ofstream os(path);
  if (!os) return false;
  ring.export_chrome_json(os);
  std::cout << "trace: " << ring.size() << " event(s), " << ring.dropped()
            << " dropped -> " << path << "\n";
  ring.clear();
  return true;
}

}  // namespace
}  // namespace sensornet::bench

int main(int argc, char** argv) {
  using namespace sensornet::bench;
  bool quick = false;
  std::string out_path = "BENCH_PR8.json";
  std::string trace_path;
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: exp_query_service [--quick] [--out PATH] "
                   "[--threads N] [--trace PATH]\n";
      return 2;
    }
  }
  const Scale& s = quick ? kQuick : kFull;
  const unsigned resolved = sensornet::resolve_thread_count(threads);

  std::cout << "EXP query service (" << (quick ? "quick" : "full") << ", "
            << resolved << " worker(s))\n";

  std::cout << "## shared vs naive bits ("
            << s.grid_side * s.grid_side << " nodes, " << s.epochs
            << " epochs)\n";
  const LaneResult shared = run_continuous_lane(s, resolved, /*shared=*/true);
  const LaneResult naive = run_continuous_lane(s, resolved, /*shared=*/false);
  std::cout << "  shared: " << shared.total_bits << " bits, "
            << shared.cache_hits << "/" << shared.answers
            << " answers from cache\n"
            << "  naive:  " << naive.total_bits << " bits ("
            << std::setprecision(2) << std::fixed
            << ratio_of(naive.total_bits, shared.total_bits) << "x)\n";

  std::cout << "## determinism across thread counts\n";
  std::vector<unsigned> counts = {1, 2, resolved};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  Determinism det;
  for (const unsigned t : counts) {
    det.add(t, t == resolved ? shared.checksum
                             : run_continuous_lane(s, t, true).checksum);
  }

  std::cout << "## churn / qps (" << s.churn_side * s.churn_side
            << " nodes, " << s.churn_bursts << " bursts)\n";
  const ChurnResult churn = run_churn_lane(s, resolved);
  std::cout << "  " << churn.answers << " answers in " << std::setprecision(3)
            << churn.seconds << "s -> " << std::setprecision(1) << churn.qps()
            << " qps (" << churn.admission_errors << " admission errors, "
            << churn.cancels << " cancels)\n"
            << "  " << churn.burst_bits / churn.bursts << " bits and "
            << churn.max_burst_convergecasts
            << " stats convergecast(s) at most per burst\n";

  Gates gates;
  gate_claims(gates, quick, shared, naive, det, churn);
  write_report(out_path, [&](Json& j) {
    write_pr8(j, s, quick, resolved, shared, naive, det, churn);
  });
  if (!trace_path.empty()) {
    gates.gate(export_trace(trace_path), "cannot open ", trace_path,
               " for writing");
  }
  return gates.exit_code();
}
