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
//     executor). The claim gated here and in CI: shared ships at least 2x
//     fewer total bits.
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
//     figure.
//
// The report also carries a `telemetry` section: the shared run's
// per-query / per-group cost ledger (QueryService::telemetry_snapshot()),
// the result cache's probe/hit/miss/expired counters, and the mark-wave
// bucket. On the full lane the driver asserts the committed cache
// behavior exactly: 88 answers served from cache, and the cache's own
// hit counter agreeing with the service's answer accounting.
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
#include <bit>
#include <chrono>
#include <cmath>
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

namespace sensornet::bench {
namespace {

using service::Answer;
using service::QueryService;
using service::SensorUpdate;
using service::ServiceConfig;

constexpr Value kBound = 1000;

struct Scale {
  unsigned grid_side;        // shared-vs-naive deployment is side x side
  std::uint32_t epochs;      // continuous-lane epochs
  unsigned churn_side;       // churn-lane deployment
  unsigned churn_bursts;
};

constexpr Scale kFull = {32, 32, 24, 40};
constexpr Scale kQuick = {16, 12, 12, 8};

// ---------------------------------------------------------------------------
// Answer-stream checksum (determinism lane).
// ---------------------------------------------------------------------------
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void mix_u64(std::uint64_t v) { mix_bytes(&v, sizeof v); }
  void mix_answer(const Answer& a) {
    mix_u64(a.id);
    mix_u64(a.epoch);
    mix_u64(std::bit_cast<std::uint64_t>(a.value));
    mix_u64(std::bit_cast<std::uint64_t>(a.error_bound));
    mix_u64((a.exact ? 1u : 0u) | (a.from_cache ? 2u : 0u) |
            (a.empty_selection ? 4u : 0u));
  }
  void mix_str(const std::string& s) { mix_bytes(s.data(), s.size()); }
};

// ---------------------------------------------------------------------------
// Overlapping continuous-query lane.
// ---------------------------------------------------------------------------
struct ContinuousSpec {
  query::AggregateKind agg;
  Value lo, hi;       // region (0..kBound == whole domain)
  unsigned every;
  double error;       // 0 = exact subscriber
};

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

std::string spec_text(const ContinuousSpec& s) {
  using query::AggregateKind;
  std::ostringstream os;
  os << "SELECT ";
  switch (s.agg) {
    case AggregateKind::kCount: os << "COUNT"; break;
    case AggregateKind::kSum: os << "SUM"; break;
    case AggregateKind::kAvg: os << "AVG"; break;
    case AggregateKind::kMin: os << "MIN"; break;
    case AggregateKind::kMax: os << "MAX"; break;
    default: os << "COUNT"; break;
  }
  os << "(v) FROM s";
  if (s.lo != 0 || s.hi != kBound) {
    os << " WHERE v BETWEEN " << s.lo << " AND " << s.hi;
  }
  os << " EVERY " << s.every << " EPOCHS";
  if (s.error > 0.0) os << " ERROR " << s.error;
  return os.str();
}

/// Exact aggregate over the mirror, for lane-2 soundness checks.
double exact_over(const std::vector<Value>& mirror, const ContinuousSpec& s,
                  bool& empty) {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  Value mn = kBound, mx = 0;
  for (Value v : mirror) {
    if (v < s.lo || v > s.hi) continue;
    ++count;
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  empty = count == 0;
  switch (s.agg) {
    case query::AggregateKind::kCount: return static_cast<double>(count);
    case query::AggregateKind::kSum: return static_cast<double>(sum);
    case query::AggregateKind::kAvg:
      return empty ? 0.0 : static_cast<double>(sum) / count;
    case query::AggregateKind::kMin: return empty ? 0.0 : static_cast<double>(mn);
    case query::AggregateKind::kMax: return empty ? 0.0 : static_cast<double>(mx);
    default: return 0.0;
  }
}

struct LaneResult {
  std::uint64_t total_bits = 0;
  std::uint64_t answers = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t stats_waves = 0;
  std::uint64_t edges_descended = 0;
  std::uint64_t edges_skipped = 0;
  std::uint64_t mark_messages = 0;
  std::uint64_t cache_answers_checked = 0;
  std::uint64_t bound_violations = 0;
  std::uint64_t checksum = 0;
  std::uint64_t air_rounds = 0;             // simulated rounds, all epochs
  std::uint64_t max_collection_rounds = 0;  // worst epoch beyond its marks
  std::uint64_t tree_height = 0;
  service::TelemetrySnapshot telemetry;  // full cost-attribution ledger
};

/// Runs the overlapping continuous-query scenario once. Deterministic for a
/// fixed (side, epochs) regardless of `threads` — that invariance is lane 3.
LaneResult run_continuous_lane(const Scale& s, unsigned threads, bool shared) {
  const unsigned n = s.grid_side * s.grid_side;
  sim::Network net(net::make_grid(s.grid_side, s.grid_side),
                   /*master_seed=*/77);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  std::vector<Value> mirror(n);
  for (NodeId u = 0; u < n; ++u) {
    mirror[u] = static_cast<Value>((u * 37) % (kBound + 1));
  }
  net.set_one_item_per_node(mirror);

  ServiceConfig cfg;
  cfg.threads = threads;
  cfg.share_aggregation = shared;
  cfg.use_cache = shared;
  QueryService svc(query::Deployment{net, tree, kBound}, cfg);

  const std::vector<ContinuousSpec> specs = continuous_specs();
  std::vector<std::string> texts;
  texts.reserve(specs.size());
  for (const auto& spec : specs) texts.push_back(spec_text(spec));

  Fnv1a sum;
  LaneResult lane;
  // Admission order == spec order, so ids map back to specs by offset.
  std::vector<service::QueryId> ids;
  for (const auto& r : svc.submit_batch(texts)) {
    if (!r.ok()) {
      std::cerr << "FATAL: continuous-lane admission failed: " << r.error()
                << "\n";
      std::exit(1);
    }
    ids.push_back(r.value().id);
    sum.mix_u64(r.value().id);
  }

  for (std::uint32_t e = 1; e <= s.epochs; ++e) {
    // Rotate through the deployment: a quarter of the nodes drift each
    // epoch, so collections always have clean subtrees to skip.
    std::vector<SensorUpdate> batch;
    SimTime mark_rounds = 0;  // the deepest changed reading's climb
    for (NodeId u = e % 4; u < n; u += 4) {
      const Value delta = (u + e) % 2 == 0 ? 3 : -3;
      const Value v = std::clamp<Value>(mirror[u] + delta, 0, kBound);
      if (v != mirror[u]) {
        mark_rounds = std::max<SimTime>(mark_rounds, tree.depth[u]);
      }
      mirror[u] = v;
      batch.push_back(SensorUpdate{u, v});
    }
    const SimTime t0 = net.now();
    const std::vector<Answer> answers = svc.run_epoch(batch);
    const SimTime rounds = net.now() - t0;
    lane.air_rounds += rounds;
    lane.max_collection_rounds = std::max<std::uint64_t>(
        lane.max_collection_rounds, rounds - std::min(rounds, mark_rounds));
    for (const Answer& a : answers) {
      sum.mix_answer(a);
      if (a.from_cache) {
        ++lane.cache_answers_checked;
        const ContinuousSpec& spec =
            specs[a.id - ids.front()];  // ids are contiguous per batch
        bool empty = false;
        const double truth = exact_over(mirror, spec, empty);
        if (!empty &&
            std::abs(a.value - truth) > a.error_bound + 1e-9) {
          ++lane.bound_violations;
          std::cerr << "bound violation: id=" << a.id << " epoch=" << e
                    << " value=" << a.value << " truth=" << truth
                    << " bound=" << a.error_bound << "\n";
        }
      }
    }
  }

  lane.tree_height = tree.height();
  lane.total_bits = net.summary(/*include_headers=*/true).total_bits;
  lane.answers = svc.telemetry().answers;
  lane.cache_hits = svc.telemetry().cache_hits;
  lane.stats_waves = svc.plan_stats().stats_waves;
  lane.edges_descended = svc.plan_stats().edges_descended;
  lane.edges_skipped = svc.plan_stats().edges_skipped;
  lane.mark_messages = svc.plan_stats().mark_messages;
  lane.telemetry = svc.telemetry_snapshot();
  sum.mix_u64(lane.total_bits);
  lane.checksum = sum.h;
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
    for (const auto& r : svc.submit_batch(burst)) {
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
  return churn;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------
struct DeterminismRow {
  unsigned threads = 0;
  std::uint64_t checksum = 0;
};

void write_json(std::ostream& os, const Scale& s, bool quick, unsigned threads,
                const LaneResult& shared, const LaneResult& naive,
                const std::vector<DeterminismRow>& det,
                const ChurnResult& churn) {
  const double ratio =
      shared.total_bits > 0
          ? static_cast<double>(naive.total_bits) / shared.total_bits
          : 0.0;
  bool deterministic = true;
  for (const auto& row : det) {
    deterministic = deterministic && row.checksum == det.front().checksum;
  }
  const double hit_rate =
      shared.answers > 0
          ? static_cast<double>(shared.cache_hits) / shared.answers
          : 0.0;

  os << "{\n"
     << "  \"bench\": \"BENCH_PR8\",\n"
     << "  \"schema_version\": 1,\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"hardware_threads\": " << resolve_thread_count(0) << ",\n"
     << "  \"shared_vs_naive\": {\n"
     << "    \"nodes\": " << s.grid_side * s.grid_side << ",\n"
     << "    \"epochs\": " << s.epochs << ",\n"
     << "    \"continuous_queries\": " << continuous_specs().size() << ",\n"
     << "    \"bits_shared\": " << shared.total_bits << ",\n"
     << "    \"bits_naive\": " << naive.total_bits << ",\n"
     << "    \"bits_ratio\": " << std::setprecision(3) << std::fixed << ratio
     << ",\n"
     << "    \"answers\": " << shared.answers << ",\n"
     << "    \"cache_hits\": " << shared.cache_hits << ",\n"
     << "    \"cache_hit_rate\": " << std::setprecision(4) << hit_rate
     << ",\n"
     << "    \"stats_waves\": " << shared.stats_waves << ",\n"
     << "    \"edges_descended\": " << shared.edges_descended << ",\n"
     << "    \"edges_skipped\": " << shared.edges_skipped << ",\n"
     << "    \"mark_messages\": " << shared.mark_messages << ",\n"
     << "    \"air_rounds_per_epoch\": " << std::setprecision(1)
     << static_cast<double>(shared.air_rounds) / s.epochs << ",\n"
     << "    \"max_collection_rounds\": " << shared.max_collection_rounds
     << ",\n"
     << "    \"collection_rounds_bound\": " << 2 * shared.tree_height + 2
     << "\n"
     << "  },\n"
     << "  \"cache_bounds\": {\n"
     << "    \"cache_answers_checked\": " << shared.cache_answers_checked
     << ",\n"
     << "    \"bound_violations\": " << shared.bound_violations << "\n"
     << "  },\n";
  // Cost-attribution ledger for the shared run. Query bits follow the
  // marginal-cost rule (first due subscriber pays the shared wave), so
  // sum(query bits) + mark bits accounts for everything except the
  // one-time group-install broadcasts, which sit in the group ledger.
  const service::TelemetrySnapshot& t = shared.telemetry;
  std::uint64_t attributed_bits = t.mark_bits_on_air;
  for (const auto& [qid, qc] : t.queries) attributed_bits += qc.bits_on_air;
  os << "  \"telemetry\": {\n"
     << "    \"cache\": {\n"
     << "      \"probes\": " << t.cache.probes << ",\n"
     << "      \"lookups\": " << t.cache.lookups << ",\n"
     << "      \"hits\": " << t.cache.hits << ",\n"
     << "      \"exact_hits\": " << t.cache.exact_hits << ",\n"
     << "      \"zero_bit_answers\": " << t.cache.hits << ",\n"
     << "      \"misses\": " << t.cache.misses << ",\n"
     << "      \"expired\": " << t.cache.expired << ",\n"
     << "      \"absent\": " << t.cache.absent << "\n"
     << "    },\n"
     << "    \"mark_bits_on_air\": " << t.mark_bits_on_air << ",\n"
     << "    \"mark_messages\": " << t.mark_messages << ",\n"
     << "    \"queries\": [\n";
  for (auto it = t.queries.begin(); it != t.queries.end(); ++it) {
    const auto& qc = it->second;
    os << "      {\"id\": " << it->first << ", \"answers\": " << qc.answers
       << ", \"cache_hits\": " << qc.cache_hits << ", \"fresh\": " << qc.fresh
       << ", \"bits_on_air\": " << qc.bits_on_air << ", \"messages\": "
       << qc.messages << ", \"bound_slack\": " << std::setprecision(4)
       << std::fixed << qc.bound_slack << "}"
       << (std::next(it) != t.queries.end() ? "," : "") << "\n";
  }
  os << "    ],\n"
     << "    \"groups\": [\n";
  for (auto it = t.groups.begin(); it != t.groups.end(); ++it) {
    const auto& gc = it->second;
    os << "      {\"id\": " << it->first << ", \"subscribers\": "
       << gc.subscribers << ", \"collections\": " << gc.collections
       << ", \"bits_on_air\": " << gc.bits_on_air << ", \"messages\": "
       << gc.messages << "}" << (std::next(it) != t.groups.end() ? "," : "")
       << "\n";
  }
  os << "    ],\n"
     << "    \"attributed_bits\": " << attributed_bits << ",\n"
     << "    \"total_bits\": " << shared.total_bits << ",\n"
     << "    \"attribution_ratio\": " << std::setprecision(4) << std::fixed
     << (shared.total_bits > 0
             ? static_cast<double>(attributed_bits) / shared.total_bits
             : 0.0)
     << ",\n"
     << "    \"cache_hits_match_answers\": "
     << (t.cache.hits == shared.cache_hits ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"determinism\": [\n";
  for (std::size_t i = 0; i < det.size(); ++i) {
    os << "    {\"threads\": " << det[i].threads << ", \"checksum\": \""
       << std::hex << det[i].checksum << std::dec << "\"}"
       << (i + 1 < det.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"qps\": {\n"
     << "    \"nodes\": " << s.churn_side * s.churn_side << ",\n"
     << "    \"bursts\": " << s.churn_bursts << ",\n"
     << "    \"queries_submitted\": " << churn.submitted << ",\n"
     << "    \"admission_errors\": " << churn.admission_errors << ",\n"
     << "    \"cancels\": " << churn.cancels << ",\n"
     << "    \"answers\": " << churn.answers << ",\n"
     << "    \"seconds\": " << std::setprecision(6) << std::fixed
     << churn.seconds << ",\n"
     << "    \"qps\": " << std::setprecision(1) << churn.qps() << "\n"
     << "  },\n"
     << "  \"summary\": {\n"
     << "    \"bits_ratio\": " << std::setprecision(3) << ratio << ",\n"
     << "    \"bits_target\": 2.0,\n"
     << "    \"bits_target_met\": "
     << (shared.total_bits * 2 <= naive.total_bits ? "true" : "false")
     << ",\n"
     << "    \"bound_violations\": " << shared.bound_violations << ",\n"
     << "    \"bounds_sound\": "
     << (shared.bound_violations == 0 ? "true" : "false") << ",\n"
     << "    \"cache_served\": " << t.cache.hits << ",\n"
     << "    \"cache_hits_match_answers\": "
     << (t.cache.hits == shared.cache_hits ? "true" : "false") << ",\n"
     << "    \"deterministic_across_thread_counts\": "
     << (deterministic ? "true" : "false") << ",\n"
     << "    \"qps\": " << std::setprecision(1) << churn.qps() << "\n"
     << "  }\n}\n";
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
            << (shared.total_bits
                    ? static_cast<double>(naive.total_bits) / shared.total_bits
                    : 0.0)
            << "x)\n";

  std::cout << "## determinism across thread counts\n";
  std::vector<unsigned> counts = {1, 2, resolved};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  std::vector<DeterminismRow> det;
  for (const unsigned t : counts) {
    const LaneResult r = t == resolved
                             ? shared
                             : run_continuous_lane(s, t, /*shared=*/true);
    det.push_back({t, r.checksum});
    std::cout << "  threads=" << t << " checksum=" << std::hex << r.checksum
              << std::dec << "\n";
  }

  std::cout << "## churn / qps (" << s.churn_side * s.churn_side
            << " nodes, " << s.churn_bursts << " bursts)\n";
  const ChurnResult churn = run_churn_lane(s, resolved);
  std::cout << "  " << churn.answers << " answers in " << std::setprecision(3)
            << churn.seconds << "s -> " << std::setprecision(1) << churn.qps()
            << " qps (" << churn.admission_errors << " admission errors, "
            << churn.cancels << " cancels)\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  write_json(out, s, quick, resolved, shared, naive, det, churn);
  std::cout << "wrote " << out_path << "\n";

  if (!trace_path.empty() && !export_trace(trace_path)) {
    std::cerr << "cannot open " << trace_path << " for writing\n";
    return 1;
  }

  // The cache's global hit counter must agree with the service's
  // answer-level accounting: a counted hit that was never served (or the
  // reverse) means the probe/lookup split leaked.
  if (shared.telemetry.cache.hits != shared.cache_hits) {
    std::cerr << "FATAL: cache counted " << shared.telemetry.cache.hits
              << " hit(s) but the service served " << shared.cache_hits
              << " cached answer(s)\n";
    return 1;
  }
  // The full lane is a committed workload: 16 subscribers, 32 epochs on a
  // 32x32 grid serve exactly 88 answers from cache. Any drift here is a
  // semantic change to the cache or scheduler and must be deliberate.
  if (!quick && shared.telemetry.cache.hits != 88) {
    std::cerr << "FATAL: full lane served " << shared.telemetry.cache.hits
              << " answers from cache, expected the committed 88\n";
    return 1;
  }

  if (shared.total_bits * 2 > naive.total_bits) {
    std::cerr << "FATAL: shared aggregation shipped " << shared.total_bits
              << " bits vs " << naive.total_bits
              << " naive — the 2x claim does not hold\n";
    return 1;
  }
  // Stats-only lane: one collection convergecast per epoch, never several.
  if (shared.max_collection_rounds > 2 * shared.tree_height + 2) {
    std::cerr << "FATAL: an epoch spent " << shared.max_collection_rounds
              << " rounds beyond its mark wave (bound "
              << 2 * shared.tree_height + 2
              << ") — stats collections ran serially\n";
    return 1;
  }
  if (shared.bound_violations != 0) {
    std::cerr << "FATAL: " << shared.bound_violations
              << " cache-served answer(s) violated their error bound\n";
    return 1;
  }
  for (const auto& row : det) {
    if (row.checksum != det.front().checksum) {
      std::cerr << "FATAL: answer-stream checksum diverged at "
                << row.threads << " workers\n";
      return 1;
    }
  }
  return 0;
}
