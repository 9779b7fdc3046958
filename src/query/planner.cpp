#include "src/query/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"
#include "src/query/lexer.hpp"

namespace sensornet::query {

unsigned registers_for_error(double error) {
  const double need = 1.04 / error;
  double m = 16.0;
  while (m < need * need && m < 4096.0) m *= 2.0;
  return static_cast<unsigned>(m);
}

RegionSignature region_signature(const Query& q, Value max_value_bound) {
  SENSORNET_EXPECTS(max_value_bound >= 0);
  const auto selects_nothing = [] {
    return QueryError("WHERE range selects no representable value", 0);
  };
  RegionSignature sig;
  sig.lo = 0;
  sig.hi = max_value_bound;
  if (q.where) {
    // The strict comparisons test before they step, so no literal overflows.
    switch (q.where->cmp) {
      case Condition::Cmp::kLt:
        if (q.where->literal <= 0) throw selects_nothing();
        sig.hi = q.where->literal - 1;
        break;
      case Condition::Cmp::kLe: sig.hi = q.where->literal; break;
      case Condition::Cmp::kGt:
        if (q.where->literal >= max_value_bound) throw selects_nothing();
        sig.lo = q.where->literal + 1;
        break;
      case Condition::Cmp::kGe: sig.lo = q.where->literal; break;
      case Condition::Cmp::kBetween:
        sig.lo = q.where->literal;
        sig.hi = q.where->literal2;
        if (sig.lo > sig.hi) {
          throw QueryError(
              "WHERE range is empty (lower bound exceeds upper bound)", 0);
        }
        break;
    }
  }
  if (sig.hi < 0 || sig.lo > max_value_bound || sig.lo > sig.hi) {
    throw selects_nothing();
  }
  sig.lo = std::max<Value>(sig.lo, 0);
  sig.hi = std::min(sig.hi, max_value_bound);
  sig.whole_domain = sig.lo == 0 && sig.hi == max_value_bound;
  return sig;
}

Planner::Planner(Value max_value_bound, const CubeCatalog* catalog)
    : max_value_bound_(max_value_bound), catalog_(catalog) {
  SENSORNET_EXPECTS(max_value_bound >= 0);
}

Result<CostedPlan> Planner::plan(const Query& q) const {
  obs::Registry& reg = obs::Registry::global();
  reg.add(reg.counter("query.plans"));
  CostedPlan plan;
  plan.epsilon = std::clamp(1.0 - q.confidence, 1e-6, 0.5);
  switch (q.agg) {
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      plan.strategy = Strategy::kPrimitiveWave;
      break;
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      if (q.error) {
        plan.strategy = Strategy::kApproxSum;
        plan.registers = registers_for_error(*q.error);
      } else {
        plan.strategy = Strategy::kPrimitiveWave;
      }
      break;
    case AggregateKind::kCount:
      if (q.error) {
        plan.strategy = Strategy::kApproxCount;
        plan.registers = registers_for_error(*q.error);
      } else {
        plan.strategy = Strategy::kPrimitiveWave;
      }
      break;
    case AggregateKind::kMedian:
    case AggregateKind::kQuantile:
      if (q.error) {
        plan.strategy = Strategy::kApproxSelection;
        plan.beta = *q.error;
        plan.registers = 64;
      } else {
        plan.strategy = Strategy::kExactSelection;
      }
      break;
    case AggregateKind::kCountDistinct:
      if (q.error) {
        plan.strategy = Strategy::kApproxDistinct;
        plan.registers = registers_for_error(*q.error);
      } else {
        plan.strategy = Strategy::kExactDistinct;
      }
      break;
  }
  try {
    plan.region = region_signature(q, max_value_bound_);
  } catch (const QueryError& e) {
    return Result<CostedPlan>::failure(e.what());
  }
  plan.description = std::string(agg_name(q.agg)) + " via " +
                     strategy_name(plan.strategy);
  build_cover(plan);
  return plan;
}

bool Planner::cube_eligible(const CostedPlan& plan) const {
  if (catalog_ == nullptr) return false;
  switch (plan.strategy) {
    // The stats family: cube bundles carry COUNT/SUM/MIN/MAX exactly, so
    // the cube can serve even queries that only *asked* for approximations.
    case Strategy::kPrimitiveWave:
    case Strategy::kApproxCount:
    case Strategy::kApproxSum:
      return true;
    // Distinct sketches merge across cells only when the cube maintains
    // HLL partials of the exact geometry the query wants.
    case Strategy::kApproxDistinct:
      return catalog_->distinct_registers() > 0 &&
             catalog_->distinct_registers() == plan.registers;
    // Selections need per-candidate waves; exact distinct needs the full
    // value set. Neither decomposes over precomputed stat partials.
    case Strategy::kExactSelection:
    case Strategy::kApproxSelection:
    case Strategy::kExactDistinct:
      return false;
  }
  return false;
}

void Planner::build_cover(CostedPlan& plan) const {
  const RegionSignature& region = plan.region;
  plan.est_tree_bits =
      catalog_ != nullptr ? catalog_->tree_collect_bits(region) : 0;
  const auto tree_only = [&plan, &region] {
    PlanStep step;
    step.kind = StepKind::kTreeCollect;
    step.region = region;
    step.est_bits = plan.est_tree_bits;
    plan.steps = {step};
    plan.est_cube_bits = plan.est_tree_bits;
    plan.description += " | tree-collect";
  };
  if (!cube_eligible(plan)) {
    tree_only();
    return;
  }

  // Candidate cells: every non-empty catalog cell fully inside the region.
  // Refresh costs are amortized over the catalog's freshness horizon — a
  // refreshed cell answers follow-up queries for ~horizon epochs, so a cold
  // cube must be judged per-epoch, not per-query, or it never warms.
  struct Candidate {
    CubeCellRef ref;
    RegionSignature r;
    std::uint64_t amortized_bits;
  };
  const auto amortization =
      std::max<std::uint64_t>(1, catalog_->refresh_amortization());
  std::vector<Candidate> cells;
  for (unsigned level = 0; level < catalog_->levels(); ++level) {
    for (unsigned index = 0; index < (1u << level); ++index) {
      const CubeCellRef ref{level, index};
      const RegionSignature r = catalog_->cell_region(ref);
      if (r.lo > r.hi) continue;  // squeezed-out cell on a small domain
      if (r.lo < region.lo || r.hi > region.hi) continue;
      const std::uint64_t raw = catalog_->cell_refresh_bits(ref);
      cells.push_back({ref, r, (raw + amortization - 1) / amortization});
    }
  }

  // Shortest path over the boundary lattice: positions are the region ends
  // plus every contained cell boundary; arcs are cells (start -> end+1) and
  // residue collections between any two positions. Ties break on fewer
  // steps, then coarser cells, so equal-cost plans are deterministic.
  std::vector<Value> pos{region.lo, region.hi + 1};
  for (const Candidate& c : cells) {
    pos.push_back(c.r.lo);
    pos.push_back(c.r.hi + 1);
  }
  std::sort(pos.begin(), pos.end());
  pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
  const auto pos_index = [&pos](Value v) {
    return static_cast<std::size_t>(
        std::lower_bound(pos.begin(), pos.end(), v) - pos.begin());
  };

  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  struct Node {
    std::uint64_t bits = kInf;
    std::uint32_t steps = 0;
    std::uint64_t tie = 0;  // sum of per-arc tie weights
    std::size_t prev = 0;
    int via_cell = -1;  // index into `cells`, or -1 for a residue arc
    bool reached = false;
  };
  std::vector<Node> dp(pos.size());
  dp[0].bits = 0;
  dp[0].reached = true;
  const auto relax = [&dp](std::size_t from, std::size_t to,
                           std::uint64_t arc_bits, std::uint64_t arc_tie,
                           int via_cell) {
    const Node& f = dp[from];
    if (!f.reached || f.bits > std::numeric_limits<std::uint64_t>::max() -
                                   arc_bits) {
      return;
    }
    Node cand;
    cand.bits = f.bits + arc_bits;
    cand.steps = f.steps + 1;
    cand.tie = f.tie + arc_tie;
    cand.prev = from;
    cand.via_cell = via_cell;
    cand.reached = true;
    Node& t = dp[to];
    if (!t.reached || std::tie(cand.bits, cand.steps, cand.tie) <
                          std::tie(t.bits, t.steps, t.tie)) {
      t = cand;
    }
  };
  const std::uint64_t residue_tie = catalog_->levels();
  const std::vector<std::uint64_t> residue_bits =
      catalog_->residue_collect_bits_all(pos, max_value_bound_);
  for (std::size_t a = 0; a + 1 < pos.size(); ++a) {
    if (!dp[a].reached) continue;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      if (cells[ci].r.lo != pos[a]) continue;
      relax(a, pos_index(cells[ci].r.hi + 1), cells[ci].amortized_bits,
            cells[ci].ref.level, static_cast<int>(ci));
    }
    for (std::size_t b = a + 1; b < pos.size(); ++b) {
      relax(a, b, residue_bits[a * pos.size() + b], residue_tie, -1);
    }
  }

  const Node& goal = dp.back();
  if (!goal.reached || goal.bits >= plan.est_tree_bits) {
    tree_only();
    return;
  }
  plan.est_cube_bits = goal.bits;
  std::vector<PlanStep> steps;
  std::size_t at = pos.size() - 1;
  std::size_t cell_steps = 0;
  while (at != 0) {
    const Node& n = dp[at];
    PlanStep step;
    step.region = interval_region(pos[n.prev], pos[at], max_value_bound_);
    if (n.via_cell >= 0) {
      step.kind = StepKind::kCubeCell;
      step.cell = cells[static_cast<std::size_t>(n.via_cell)].ref;
      step.est_bits = cells[static_cast<std::size_t>(n.via_cell)].amortized_bits;
      ++cell_steps;
    } else {
      step.kind = StepKind::kResidueCollect;
      step.est_bits = residue_bits[n.prev * pos.size() + at];
    }
    steps.push_back(step);
    at = n.prev;
  }
  std::reverse(steps.begin(), steps.end());
  plan.steps = std::move(steps);
  plan.description += " | cube cover: " + std::to_string(cell_steps) +
                      " cells + " +
                      std::to_string(plan.steps.size() - cell_steps) +
                      " residue, est " + std::to_string(plan.est_cube_bits) +
                      "b vs tree " + std::to_string(plan.est_tree_bits) + "b";
}

}  // namespace sensornet::query
