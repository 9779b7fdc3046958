#include "src/query/plan.hpp"

#include <algorithm>

namespace sensornet::query {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kPrimitiveWave: return "primitive-wave";
    case Strategy::kApproxCount: return "approx-count(loglog)";
    case Strategy::kApproxSum: return "approx-sum(odi-sketch)";
    case Strategy::kExactSelection: return "exact-selection(fig1)";
    case Strategy::kApproxSelection: return "approx-selection(fig4)";
    case Strategy::kExactDistinct: return "exact-distinct(set-union)";
    case Strategy::kApproxDistinct: return "approx-distinct(hashed-loglog)";
  }
  return "?";
}

const char* step_kind_name(StepKind k) {
  switch (k) {
    case StepKind::kCubeCell: return "cube-cell";
    case StepKind::kResidueCollect: return "residue-collect";
    case StepKind::kTreeCollect: return "tree-collect";
  }
  return "?";
}

std::string PlanStep::describe() const {
  std::string s = step_kind_name(kind);
  if (kind == StepKind::kCubeCell) {
    s += "(L";
    s += std::to_string(cell.level);
    s += '.';
    s += std::to_string(cell.index);
    s += ')';
  }
  s += '[';
  s += std::to_string(region.lo);
  s += ',';
  s += std::to_string(region.hi);
  s += ']';
  return s;
}

RegionSignature interval_region(Value lo, Value end, Value domain_bound) {
  return {lo, end - 1, lo == 0 && end - 1 == domain_bound};
}

std::vector<std::uint64_t> CubeCatalog::residue_collect_bits_all(
    std::span<const Value> pos, Value domain_bound) const {
  const std::size_t p = pos.size();
  std::vector<std::uint64_t> out(p * p, 0);
  for (std::size_t a = 0; a < p; ++a) {
    for (std::size_t b = a + 1; b < p; ++b) {
      out[a * p + b] =
          residue_collect_bits(interval_region(pos[a], pos[b], domain_bound));
    }
  }
  return out;
}

bool CostedPlan::cube_served() const {
  return std::any_of(steps.begin(), steps.end(), [](const PlanStep& s) {
    return s.kind != StepKind::kTreeCollect;
  });
}

}  // namespace sensornet::query
