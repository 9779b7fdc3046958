// The planner's output language: costed, step-structured physical plans.
//
// PR 10 replaced the old single-struct `Plan` with an explicit two-level
// interface:
//
//   CostedPlan — the strategy choice (which protocol family answers the
//     query) plus a *data-access program*: an ordered list of PlanStep
//     covering the query's value region. For cube-eligible aggregates the
//     planner decomposes the region into the cheapest mix of precomputed
//     multiresolution cube cells and residue collections; everything else
//     is a single kTreeCollect step.
//
//   CubeCatalog — the planner's window onto whatever maintains the cube
//     (src/cube). The planner never sees partials or waves, only geometry
//     (cell_region) and a deterministic bit-cost model (cell_refresh_bits /
//     residue_collect_bits / residue_collect_bits_all / tree_collect_bits).
//     A null catalog degrades every plan to kTreeCollect, which is exactly
//     the pre-cube behavior.
//
// Costs are estimates in wire bits and drive only the cube-vs-tree choice
// and the cell cover; answer correctness never depends on them. cube::Cube
// reads them from a pricing table it builds in one tree pass per store
// state (its generation), so a price costs no tree walk; one
// residue_collect_bits_all() call prices every residue arc of a cover.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.hpp"

namespace sensornet::query {

enum class Strategy {
  kPrimitiveWave,       // MIN/MAX/COUNT/SUM/AVG, exact
  kApproxCount,         // LogLog random-mode counting
  kApproxSum,           // ODI sum sketch ([2]); AVG = sum / count
  kExactSelection,      // Fig. 1 binary search
  kApproxSelection,     // Fig. 4 zoom
  kExactDistinct,       // distinct-set union
  kApproxDistinct,      // hashed LogLog
};

const char* strategy_name(Strategy s);

/// Canonical value-region a query aggregates over — the grouping key of the
/// query service's shared-aggregation scheduler and the lookup key of its
/// result cache. Every WHERE form canonicalizes to one inclusive interval
/// [lo, hi] of the value domain [0, max_value_bound].
struct RegionSignature {
  Value lo = 0;
  Value hi = 0;
  /// True when the region covers the whole value domain (no WHERE, or a
  /// WHERE that excludes nothing) — population membership is then static,
  /// which tightens the cache's error bounds.
  bool whole_domain = true;

  bool operator==(const RegionSignature&) const = default;
  auto operator<=>(const RegionSignature&) const = default;
};

/// The region [lo, end - 1] of the value domain [0, domain_bound]: a span
/// between two of a cover's boundary positions.
RegionSignature interval_region(Value lo, Value end, Value domain_bound);

/// Names one cube cell: dyadic slice `index` of the value domain at
/// resolution `level` (level 0 = the whole domain as one cell).
struct CubeCellRef {
  unsigned level = 0;
  unsigned index = 0;

  bool operator==(const CubeCellRef&) const = default;
  auto operator<=>(const CubeCellRef&) const = default;
};

/// The planner's read-only view of the multiresolution cube: geometry plus a
/// deterministic bit-cost model. Implemented by cube::Cube; tests substitute
/// fakes with hand-set costs.
class CubeCatalog {
 public:
  virtual ~CubeCatalog() = default;

  /// Number of resolution levels (level l has 2^l cells).
  virtual unsigned levels() const = 0;
  /// Inclusive upper bound of the value domain the cube slices.
  virtual Value domain_bound() const = 0;
  /// The inclusive value range cell `ref` maintains. May be empty
  /// (lo > hi) for cells squeezed out by a small domain.
  virtual RegionSignature cell_region(CubeCellRef ref) const = 0;
  /// HLL register count of the cube's COUNT_DISTINCT partials; 0 when the
  /// cube maintains no distinct sketches.
  virtual unsigned distinct_registers() const = 0;

  /// Estimated bits to bring cell `ref` up to the current epoch (0 when the
  /// cell is already fresh).
  virtual std::uint64_t cell_refresh_bits(CubeCellRef ref) const = 0;
  /// Estimated bits of a one-shot pruned collection over `region`.
  virtual std::uint64_t residue_collect_bits(
      const RegionSignature& region) const = 0;
  /// residue_collect_bits() of every interval [pos[a], pos[b] - 1], a < b,
  /// of the strictly ascending positions `pos`, whole_domain iff it is
  /// [0, domain_bound]: entry a * pos.size() + b (the others are 0). The
  /// default asks residue_collect_bits() once per interval.
  virtual std::vector<std::uint64_t> residue_collect_bits_all(
      std::span<const Value> pos, Value domain_bound) const;
  /// Estimated bits of a plain whole-tree collection answering `region`.
  virtual std::uint64_t tree_collect_bits(
      const RegionSignature& region) const = 0;

  /// Epochs a refreshed cell is expected to stay useful: the planner
  /// amortizes cell_refresh_bits over this horizon when comparing covers,
  /// so a cold cube can still win against repeated tree collections.
  virtual std::uint32_t refresh_amortization() const { return 1; }
};

enum class StepKind {
  kCubeCell,        // serve this slice from a maintained cube cell
  kResidueCollect,  // one-shot pruned collection over the slice
  kTreeCollect,     // plain whole-tree collection (non-cube plans)
};

const char* step_kind_name(StepKind k);

/// One slice of the plan's data-access program. Steps partition the query
/// region left to right; `cell` is meaningful only for kCubeCell.
struct PlanStep {
  StepKind kind = StepKind::kTreeCollect;
  RegionSignature region;
  CubeCellRef cell;
  /// This step's share of the plan's cost estimate, in wire bits (cube-cell
  /// steps carry the amortized refresh cost).
  std::uint64_t est_bits = 0;

  std::string describe() const;

  bool operator==(const PlanStep&) const = default;
};

/// A physical plan with its cost breakdown. Produced only by
/// Planner::plan(); executors treat it as immutable.
struct CostedPlan {
  Strategy strategy = Strategy::kPrimitiveWave;
  /// LogLog registers for the approximate strategies.
  unsigned registers = 64;
  /// beta for kApproxSelection.
  double beta = 1.0 / 256.0;
  /// Failure probability budget for randomized strategies.
  double epsilon = 0.05;
  /// Canonicalized query region (also steps' union).
  RegionSignature region;
  /// Ordered left-to-right cover of `region`; never empty. Non-cube plans
  /// hold a single kTreeCollect step.
  std::vector<PlanStep> steps;
  /// Cost estimate of the chosen cover (= sum of steps' est_bits) and of
  /// the plain tree-collection alternative.
  std::uint64_t est_cube_bits = 0;
  std::uint64_t est_tree_bits = 0;
  std::string description;  // human-readable plan line

  /// True when any step is cube-backed (kCubeCell or kResidueCollect).
  bool cube_served() const;
};

}  // namespace sensornet::query
