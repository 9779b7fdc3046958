// Pieces shared by the continuous-query benches (exp_query_service and
// exp_cube): the reading domain, subscriber specs and their query text, the
// answer-stream checksum their determinism lanes compare, and the one
// continuous-lane driver both run.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/util/exact_mirror.hpp"
#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"
#include "src/query/aggregate.hpp"
#include "src/service/engine.hpp"
#include "src/sim/network.hpp"

namespace sensornet::bench {

/// Readings live in [0, kBound].
inline constexpr Value kBound = 1000;

/// One continuous subscriber.
struct ContinuousSpec {
  query::AggregateKind agg;
  Value lo, hi;  // region (0..kBound == whole domain)
  unsigned every;
  double error;  // 0 = exact subscriber
};

inline std::string spec_text(const ContinuousSpec& s) {
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

/// FNV-1a over an answer stream: ids, epochs, values, bounds and flags.
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
  void mix_answer(const service::Answer& a) {
    mix_u64(a.id);
    mix_u64(a.epoch);
    mix_u64(std::bit_cast<std::uint64_t>(a.value));
    mix_u64(std::bit_cast<std::uint64_t>(a.error_bound));
    mix_u64((a.exact ? 1u : 0u) | (a.from_cache ? 2u : 0u) |
            (a.empty_selection ? 4u : 0u));
  }
};

/// True when `a` lies within its error bound of the mirror's exact answer
/// (an empty selection always does); prints the violation otherwise.
inline bool within_bound(const service::Answer& a, const ContinuousSpec& spec,
                         const std::vector<Value>& mirror,
                         std::uint32_t epoch) {
  bool empty = false;
  const double truth = exact_over(spec.agg, spec.lo, spec.hi, mirror, empty);
  if (empty || std::abs(a.value - truth) <= a.error_bound + 1e-9) return true;
  std::cerr << "bound violation: id=" << a.id << " epoch=" << epoch
            << " value=" << a.value << " truth=" << truth
            << " bound=" << a.error_bound << "\n";
  return false;
}

/// What every continuous lane measures.
struct LaneTotals {
  std::uint64_t total_bits = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t air_rounds = 0;             // simulated rounds, all epochs
  std::uint64_t max_collection_rounds = 0;  // worst epoch beyond its marks
  std::uint64_t tree_height = 0;
  std::uint64_t checksum = 0;
  std::uint64_t answers_checksum = 0;  // the checksum before total bits
};

/// Runs one continuous lane: a side x side grid (master seed 77, BFS tree
/// from node 0) where node u reads (u * 37) % (kBound + 1), every spec
/// admitted in one submit_batch, then `epochs` epochs in which a quarter of
/// the nodes drift by 3 (one epoch's batch each). Calls
/// on_answer(answer, spec, mirror, epoch) for every answer and
/// on_done(service) once the last epoch ran. An admission error is FATAL
/// (exit 1), reported under the name `lane`. Deterministic for fixed
/// arguments whatever cfg.threads is.
template <typename OnAnswer, typename OnDone>
LaneTotals run_service_lane(unsigned side, std::uint32_t epochs,
                            const service::ServiceConfig& cfg,
                            const std::vector<ContinuousSpec>& specs,
                            const char* lane, OnAnswer&& on_answer,
                            OnDone&& on_done) {
  const unsigned n = side * side;
  sim::Network net(net::make_grid(side, side), /*master_seed=*/77);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  std::vector<Value> mirror(n);
  for (NodeId u = 0; u < n; ++u) {
    mirror[u] = static_cast<Value>((u * 37) % (kBound + 1));
  }
  net.set_one_item_per_node(mirror);
  service::QueryService svc(query::Deployment{net, tree, kBound}, cfg);

  std::vector<std::string> texts;
  texts.reserve(specs.size());
  for (const auto& spec : specs) texts.push_back(spec_text(spec));

  Fnv1a sum;
  LaneTotals totals;
  // Admission order == spec order, so ids map back to specs by offset.
  std::vector<service::QueryId> ids;
  for (const auto& r : svc.submit_batch(texts)) {
    if (!r.ok()) {
      std::cerr << "FATAL: " << lane << " admission failed: " << r.error()
                << "\n";
      std::exit(1);
    }
    ids.push_back(r.value().id);
    sum.mix_u64(r.value().id);
  }

  for (std::uint32_t e = 1; e <= epochs; ++e) {
    // Rotate through the deployment: a quarter of the nodes drift each
    // epoch, so collections always have clean subtrees to skip but never go
    // fully quiescent.
    std::vector<service::SensorUpdate> batch;
    SimTime mark_rounds = 0;  // the deepest changed reading's climb
    for (NodeId u = e % 4; u < n; u += 4) {
      const Value delta = (u + e) % 2 == 0 ? 3 : -3;
      const Value v = std::clamp<Value>(mirror[u] + delta, 0, kBound);
      if (v != mirror[u]) {
        mark_rounds = std::max<SimTime>(mark_rounds, tree.depth[u]);
      }
      mirror[u] = v;
      batch.push_back(service::SensorUpdate{u, v});
    }
    const SimTime t0 = net.now();
    const std::vector<service::Answer> answers = svc.run_epoch(batch);
    const SimTime rounds = net.now() - t0;
    totals.air_rounds += rounds;
    totals.max_collection_rounds = std::max<std::uint64_t>(
        totals.max_collection_rounds, rounds - std::min(rounds, mark_rounds));
    for (const service::Answer& a : answers) {
      sum.mix_answer(a);
      on_answer(a, specs[a.id - ids.front()], mirror, e);
    }
  }

  on_done(svc);
  totals.tree_height = tree.height();
  const sim::CommSummary total = net.summary(/*include_headers=*/true);
  totals.total_bits = total.total_bits;
  totals.total_messages = total.total_messages;
  totals.answers_checksum = sum.h;
  sum.mix_u64(totals.total_bits);
  totals.checksum = sum.h;
  return totals;
}

}  // namespace sensornet::bench
