#include "src/query/executor.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/bitio.hpp"
#include "src/common/error.hpp"
#include "src/core/apx_median2.hpp"
#include "src/core/count_distinct.hpp"
#include "src/core/det_median.hpp"
#include "src/proto/aggregations.hpp"
#include "src/proto/approx_counting.hpp"
#include "src/proto/counting_service.hpp"
#include "src/proto/tree_broadcast.hpp"
#include "src/proto/tree_wave.hpp"
#include "src/query/lexer.hpp"
#include "src/query/parser.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::query {

Executor::Executor(Deployment deployment) : deployment_(deployment) {}

proto::ValueWindow Executor::install_filter(const proto::ValueWindow& where) {
  // Query dissemination: 1 bit for "filtered?", then the window. Even
  // clearing a filter costs a broadcast — epochs don't share state for free.
  proto::ValueWindow installed;  // every node decodes the same window
  proto::TreeBroadcast bc(
      deployment_.tree, next_broadcast_session_++,
      [&installed](sim::Network&, NodeId, BitReader r) {
        installed = r.read_bit() ? proto::ValueWindow::decode(r)
                                 : proto::ValueWindow{};
      });
  BitWriter w;
  const bool filtered = where != proto::ValueWindow{};
  w.write_bit(filtered);
  if (filtered) where.encode(w);
  // A node that missed the window would filter by another one.
  if (bc.execute(deployment_.net, std::move(w)) !=
      deployment_.tree.node_count()) {
    throw ProtocolError("Executor: a node missed the filter");
  }
  return installed;
}

QueryResult Executor::run(const std::string& text) {
  const Query q = parse_query(text);
  const Planner planner(deployment_.max_value_bound);
  Result<CostedPlan> planned = planner.plan(q);
  if (!planned.ok()) throw QueryError::positioned(planned.error(), 0);
  return run(q, planned.value());
}

QueryResult Executor::run(const Query& q, const CostedPlan& plan) {
  sim::Network& net = deployment_.net;
  const auto before = net.all_stats();
  const SimTime t0 = net.now();

  // Nodes filter by the plan's region, left open above when it reaches the
  // bound, because readings never pass it. An exact selection carries the
  // window in its first summary request.
  proto::ValueWindow where{plan.region.lo, {}};
  if (plan.region.hi < deployment_.max_value_bound) where.hi = plan.region.hi;
  const proto::WindowView view(plan.strategy == Strategy::kExactSelection
                                   ? where
                                   : install_filter(where));

  QueryResult res;
  res.plan = plan.description;

  switch (plan.strategy) {
    case Strategy::kPrimitiveWave: {
      proto::TreeCountingService svc(net, deployment_.tree, view);
      switch (q.agg) {
        case AggregateKind::kMin:
        case AggregateKind::kMax: {
          const auto v = q.agg == AggregateKind::kMin ? svc.min_value()
                                                      : svc.max_value();
          res.empty_selection = !v;
          res.value = static_cast<double>(v.value_or(0));
          break;
        }
        case AggregateKind::kCount:
          res.value = static_cast<double>(svc.count_all());
          break;
        case AggregateKind::kSum:
        case AggregateKind::kAvg: {
          proto::TreeWave<proto::SumAgg> wave(deployment_.tree, 0x6800,
                                              view);
          const auto sum = wave.execute(
              net, proto::SumAgg::Request{proto::Predicate::always_true()});
          if (q.agg == AggregateKind::kSum) {
            res.value = static_cast<double>(sum);
          } else {
            const std::uint64_t n = svc.count_all();
            res.empty_selection = n == 0;
            if (!res.empty_selection) {
              res.value = static_cast<double>(sum) / static_cast<double>(n);
            }
          }
          break;
        }
        default:
          throw ProtocolError("primitive wave cannot answer this aggregate");
      }
      res.is_exact = true;
      break;
    }
    case Strategy::kApproxCount: {
      proto::ApxCountConfig cfg;
      cfg.registers = plan.registers;
      proto::TreeApproxCountingService svc(net, deployment_.tree, cfg,
                                           view);
      res.value = svc.apx_count(proto::Predicate::always_true());
      res.is_exact = false;
      break;
    }
    case Strategy::kApproxSum: {
      // ODI sum sketch ([2]); register width must absorb ranks from up to
      // N * X unit observations.
      proto::LogLogAgg::Request req;
      req.registers = static_cast<std::uint16_t>(plan.registers);
      req.width = static_cast<std::uint8_t>(sketch::packed_width_for(
          static_cast<std::uint64_t>(net.node_count()) *
          static_cast<std::uint64_t>(deployment_.max_value_bound | 1)));
      req.mode = proto::LogLogAgg::Mode::kSumOdi;
      proto::TreeWave<proto::LogLogAgg> wave(deployment_.tree, 0x6900,
                                             view);
      const double sum = wave.execute(net, req).estimate();
      if (q.agg == AggregateKind::kSum) {
        res.value = sum;
      } else {
        proto::ApxCountConfig cfg;
        cfg.registers = plan.registers;
        proto::TreeApproxCountingService counter(net, deployment_.tree, cfg,
                                                 view);
        const double count =
            counter.apx_count(proto::Predicate::always_true());
        res.empty_selection = count < 0.5;
        if (!res.empty_selection) res.value = sum / count;
      }
      res.is_exact = false;
      break;
    }
    case Strategy::kExactSelection: {
      // Fig. 1 over subtree summaries: the COUNT, MIN and MAX set-up is one
      // summary wave over the WHERE, each COUNTP descends only where the
      // pivot cuts, and the summaries narrow to the certified bracket.
      res.is_exact = true;
      proto::PrunedCountingService svc(net, deployment_.tree, where);
      const std::uint64_t n = svc.count_all();
      if (n == 0) {
        res.empty_selection = true;
        break;
      }
      const double phi = q.agg == AggregateKind::kQuantile ? q.quantile_phi : 0.5;
      auto twice_k = static_cast<std::int64_t>(
          std::llround(2.0 * phi * static_cast<double>(n)));
      twice_k = std::clamp<std::int64_t>(twice_k, 1,
                                         2 * static_cast<std::int64_t>(n));
      res.value = static_cast<double>(
          core::deterministic_order_statistic(svc, twice_k).value);
      res.countp_edges_pruned = svc.edges_pruned();
      res.selection_resummaries = svc.resummaries();
      break;
    }
    case Strategy::kApproxSelection: {
      core::ApxMedian2Params params;
      params.beta = plan.beta;
      params.epsilon = plan.epsilon;
      params.registers = plan.registers;
      params.max_value_bound = deployment_.max_value_bound;
      params.rank_phi = q.agg == AggregateKind::kQuantile ? q.quantile_phi : 0.5;
      // The proof schedule's repetition counts are sized for adversarial
      // inputs; interactive queries run a toned-down schedule and surface
      // the trade in the plan line.
      params.rep_scale = 0.25;
      const auto r =
          core::approx_median2(net, deployment_.tree, params, view);
      res.value = static_cast<double>(r.value);
      res.empty_selection = r.empty_input;
      res.is_exact = false;
      break;
    }
    case Strategy::kExactDistinct: {
      res.value = static_cast<double>(
          core::exact_count_distinct(net, deployment_.tree, view).distinct);
      res.is_exact = true;
      break;
    }
    case Strategy::kApproxDistinct: {
      res.value = core::approx_count_distinct(
                      net, deployment_.tree, plan.registers,
                      proto::EstimatorKind::kHyperLogLog, view)
                      .estimate;
      res.is_exact = false;
      break;
    }
  }

  const auto window =
      sim::window_summary(before, net.all_stats(), net.now() - t0,
                          /*include_headers=*/false);
  res.max_node_bits = window.max_node_bits;
  res.total_bits = window.total_bits;
  res.messages = window.total_messages;
  return res;
}

}  // namespace sensornet::query
