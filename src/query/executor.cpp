#include "src/query/executor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "src/common/codec.hpp"
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

bool condition_matches(const Condition& cond, Value x) {
  switch (cond.cmp) {
    case Condition::Cmp::kLt: return x < cond.literal;
    case Condition::Cmp::kLe: return x <= cond.literal;
    case Condition::Cmp::kGt: return x > cond.literal;
    case Condition::Cmp::kGe: return x >= cond.literal;
    case Condition::Cmp::kBetween:
      return x >= cond.literal && x <= cond.literal2;
  }
  return false;
}

/// Items passing the node's installed WHERE filter.
class Executor::FilterView final : public proto::LocalItemView {
 public:
  explicit FilterView(const std::vector<std::optional<Condition>>& filters)
      : filters_(filters) {}

  ValueSet items(sim::Network& net, NodeId node) const override {
    const auto& filter = filters_[node];
    const auto view = net.items(node);
    if (!filter) return ValueSet(view.begin(), view.end());
    ValueSet out;
    for (const Value x : view) {
      if (condition_matches(*filter, x)) out.push_back(x);
    }
    return out;
  }

 private:
  const std::vector<std::optional<Condition>>& filters_;
};

namespace {

/// The WHERE as the closed window an exact selection's first summary
/// request carries (readings are non-negative); empty when it selects
/// nothing.
std::optional<proto::ValueWindow> where_window(
    const std::optional<Condition>& cond) {
  proto::ValueWindow w;
  if (!cond) return w;
  const Value lit = cond->literal;
  switch (cond->cmp) {
    case Condition::Cmp::kLt:
      if (lit <= 0) return std::nullopt;
      w.hi = lit - 1;
      break;
    case Condition::Cmp::kLe: w.hi = lit; break;
    case Condition::Cmp::kGt:
      if (lit == std::numeric_limits<Value>::max()) return std::nullopt;
      w.lo = std::max<Value>(0, lit + 1);
      break;
    case Condition::Cmp::kGe: w.lo = std::max<Value>(0, lit); break;
    case Condition::Cmp::kBetween:
      w.lo = std::max<Value>(0, lit);
      w.hi = cond->literal2;
      break;
  }
  if (w.hi && *w.hi < w.lo) return std::nullopt;
  return w;
}

}  // namespace

Executor::Executor(Deployment deployment)
    : deployment_(deployment),
      node_filters_(deployment.net.node_count()),
      view_(std::make_unique<FilterView>(node_filters_)) {}

Executor::~Executor() = default;

void Executor::install_filter(const std::optional<Condition>& cond) {
  // Query dissemination: 1 bit for "filtered?", then cmp + literal(s). Even
  // clearing a filter costs a broadcast — epochs don't share state for free.
  proto::TreeBroadcast bc(
      deployment_.tree, next_broadcast_session_++,
      [this](sim::Network&, NodeId node, BitReader r) {
        if (!r.read_bit()) {
          node_filters_[node].reset();
          return;
        }
        Condition c;
        c.cmp = static_cast<Condition::Cmp>(r.read_bits(3));
        c.literal = static_cast<Value>(decode_uint(r));
        if (c.cmp == Condition::Cmp::kBetween) {
          c.literal2 = static_cast<Value>(decode_uint(r));
        }
        node_filters_[node] = c;
      });
  BitWriter w;
  w.write_bit(cond.has_value());
  if (cond) {
    w.write_bits(static_cast<std::uint64_t>(cond->cmp), 3);
    encode_uint(w, static_cast<std::uint64_t>(cond->literal));
    if (cond->cmp == Condition::Cmp::kBetween) {
      encode_uint(w, static_cast<std::uint64_t>(cond->literal2));
    }
  }
  bc.execute(deployment_.net, std::move(w));
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

  // An exact selection carries its WHERE in its first summary request.
  if (plan.strategy != Strategy::kExactSelection) install_filter(q.where);

  QueryResult res;
  res.plan = plan.description;

  switch (plan.strategy) {
    case Strategy::kPrimitiveWave: {
      proto::TreeCountingService svc(net, deployment_.tree, *view_);
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
                                              *view_);
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
                                           *view_);
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
                                             *view_);
      const double sum = wave.execute(net, req).estimate();
      if (q.agg == AggregateKind::kSum) {
        res.value = sum;
      } else {
        proto::ApxCountConfig cfg;
        cfg.registers = plan.registers;
        proto::TreeApproxCountingService counter(net, deployment_.tree, cfg,
                                                 *view_);
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
      const auto where = where_window(q.where);
      if (!where) {
        res.empty_selection = true;
        break;
      }
      proto::PrunedCountingService svc(net, deployment_.tree, *where);
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
          core::approx_median2(net, deployment_.tree, params, *view_);
      res.value = static_cast<double>(r.value);
      res.empty_selection = r.empty_input;
      res.is_exact = false;
      break;
    }
    case Strategy::kExactDistinct: {
      res.value = static_cast<double>(
          core::exact_count_distinct(net, deployment_.tree, *view_).distinct);
      res.is_exact = true;
      break;
    }
    case Strategy::kApproxDistinct: {
      res.value = core::approx_count_distinct(
                      net, deployment_.tree, plan.registers,
                      proto::EstimatorKind::kHyperLogLog, *view_)
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
