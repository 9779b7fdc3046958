#include "src/query/planner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "src/query/lexer.hpp"
#include "src/query/parser.hpp"

namespace sensornet::query {
namespace {

CostedPlan plan_text(const std::string& text, Value bound = 100,
                     const CubeCatalog* catalog = nullptr) {
  const Planner planner(bound, catalog);
  Result<CostedPlan> r = planner.plan(parse_query(text));
  EXPECT_TRUE(r.ok()) << r.error();
  return std::move(r).value();
}

TEST(Planner, ExactStrategiesWithoutError) {
  EXPECT_EQ(plan_text("SELECT MIN(v) FROM s").strategy,
            Strategy::kPrimitiveWave);
  EXPECT_EQ(plan_text("SELECT COUNT(v) FROM s").strategy,
            Strategy::kPrimitiveWave);
  EXPECT_EQ(plan_text("SELECT MEDIAN(v) FROM s").strategy,
            Strategy::kExactSelection);
  EXPECT_EQ(plan_text("SELECT COUNT_DISTINCT(v) FROM s").strategy,
            Strategy::kExactDistinct);
}

TEST(Planner, SumAndAvgUseOdiSketchWithError) {
  EXPECT_EQ(plan_text("SELECT SUM(v) FROM s ERROR 0.1").strategy,
            Strategy::kApproxSum);
  EXPECT_EQ(plan_text("SELECT AVG(v) FROM s ERROR 0.1").strategy,
            Strategy::kApproxSum);
  EXPECT_EQ(plan_text("SELECT SUM(v) FROM s").strategy,
            Strategy::kPrimitiveWave);
}

TEST(Planner, ErrorOptsIntoApproximation) {
  EXPECT_EQ(plan_text("SELECT COUNT(v) FROM s ERROR 0.1").strategy,
            Strategy::kApproxCount);
  EXPECT_EQ(plan_text("SELECT MEDIAN(v) FROM s ERROR 0.01").strategy,
            Strategy::kApproxSelection);
  EXPECT_EQ(plan_text("SELECT COUNT_DISTINCT(v) FROM s ERROR 0.1").strategy,
            Strategy::kApproxDistinct);
}

TEST(Planner, RegistersSizedFromError) {
  const CostedPlan loose = plan_text("SELECT COUNT(v) FROM s ERROR 0.3");
  const CostedPlan tight = plan_text("SELECT COUNT(v) FROM s ERROR 0.03");
  EXPECT_LT(loose.registers, tight.registers);
  // sigma(m) = 1.04/sqrt(m) must meet the requested error (or hit the cap).
  EXPECT_LE(1.04 / std::sqrt(static_cast<double>(tight.registers)), 0.031);
  EXPECT_LE(tight.registers, 4096u);
}

TEST(Planner, BetaFollowsError) {
  const CostedPlan p = plan_text("SELECT MEDIAN(v) FROM s ERROR 0.005");
  EXPECT_DOUBLE_EQ(p.beta, 0.005);
}

TEST(Planner, EpsilonFromConfidence) {
  const CostedPlan p =
      plan_text("SELECT MEDIAN(v) FROM s ERROR 0.01 CONFIDENCE 0.8");
  EXPECT_NEAR(p.epsilon, 0.2, 1e-9);
}

TEST(Planner, DescriptionMentionsStrategy) {
  const CostedPlan p = plan_text("SELECT MEDIAN(v) FROM s");
  EXPECT_NE(p.description.find("MEDIAN"), std::string::npos);
  EXPECT_NE(p.description.find("fig1"), std::string::npos);
}

TEST(Planner, NullCatalogDegradesToSingleTreeCollect) {
  const CostedPlan p = plan_text("SELECT COUNT(v) FROM s WHERE v < 50");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].kind, StepKind::kTreeCollect);
  EXPECT_EQ(p.steps[0].region, p.region);
  EXPECT_FALSE(p.cube_served());
  EXPECT_NE(p.description.find("tree-collect"), std::string::npos);
}

// ---- error paths ----------------------------------------------------------

std::string plan_error(const std::string& text, Value bound = 100) {
  const Planner planner(bound);
  const Result<CostedPlan> r = planner.plan(parse_query(text));
  return r.ok() ? "" : r.error();
}

TEST(Planner, InvertedRangeFailsWithPinnedDiagnostic) {
  EXPECT_NE(plan_error("SELECT COUNT(v) FROM s WHERE v BETWEEN 50 AND 10")
                .find("WHERE range is empty (lower bound exceeds upper bound)"),
            std::string::npos);
}

TEST(Planner, EmptyRangeFailsWithPinnedDiagnostic) {
  const std::string pinned = "WHERE range selects no representable value";
  EXPECT_NE(plan_error("SELECT COUNT(v) FROM s WHERE v < 0").find(pinned),
            std::string::npos);
  EXPECT_NE(plan_error("SELECT COUNT(v) FROM s WHERE v > 100").find(pinned),
            std::string::npos);
}

// ---- region canonicalization ----------------------------------------------

RegionSignature sig_of(const std::string& text, Value bound = 100) {
  return region_signature(parse_query(text), bound);
}

TEST(RegionSignature, CanonicalizesEveryComparison) {
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v < 10"),
            (RegionSignature{0, 9, false}));
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v <= 10"),
            (RegionSignature{0, 10, false}));
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v > 10"),
            (RegionSignature{11, 100, false}));
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v >= 10"),
            (RegionSignature{10, 100, false}));
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v BETWEEN 10 AND 50"),
            (RegionSignature{10, 50, false}));
}

TEST(RegionSignature, WholeDomainForms) {
  // No WHERE, and WHEREs that exclude nothing, all canonicalize equal —
  // that equality is what lets the scheduler share one group across them.
  const RegionSignature whole{0, 100, true};
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s"), whole);
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v >= 0"), whole);
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v <= 100"), whole);
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v BETWEEN 0 AND 100"),
            whole);
}

TEST(RegionSignature, ClampsToValueBound) {
  // A range reaching past the model's bound is the same region as one
  // stopping at it.
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v BETWEEN 40 AND 4000"),
            (RegionSignature{40, 100, false}));
}

/// Degenerate-region diagnostics are pinned: the service's admission path
/// forwards them verbatim to clients.
std::string region_error(const std::string& text, Value bound = 100) {
  try {
    region_signature(parse_query(text), bound);
  } catch (const QueryError& e) {
    return e.what();
  }
  return "";
}

TEST(RegionSignature, InvertedRangeDiagnosticIsPinned) {
  EXPECT_NE(region_error("SELECT COUNT(v) FROM s WHERE v BETWEEN 50 AND 10")
                .find("WHERE range is empty (lower bound exceeds upper bound)"),
            std::string::npos);
}

TEST(RegionSignature, EmptyRangeDiagnosticIsPinned) {
  const std::string pinned = "WHERE range selects no representable value";
  // v < 0: upper bound canonicalizes below the domain.
  EXPECT_NE(region_error("SELECT COUNT(v) FROM s WHERE v < 0").find(pinned),
            std::string::npos);
  // v > bound: lower bound canonicalizes above the domain.
  EXPECT_NE(region_error("SELECT COUNT(v) FROM s WHERE v > 100").find(pinned),
            std::string::npos);
  EXPECT_NE(
      region_error("SELECT COUNT(v) FROM s WHERE v BETWEEN 200 AND 300")
          .find(pinned),
      std::string::npos);
}

TEST(RegionSignature, HugeLiteralsClampOrSelectNothing) {
  // Literals past every reading: the same regions as literals just past
  // the bound, never a wrapped-around range.
  const std::string huge = "100000000000000000000";
  const std::string pinned = "WHERE range selects no representable value";
  EXPECT_NE(region_error("SELECT COUNT(v) FROM s WHERE v > " + huge)
                .find(pinned),
            std::string::npos);
  EXPECT_NE(region_error("SELECT COUNT(v) FROM s WHERE v >= " + huge)
                .find(pinned),
            std::string::npos);
  const RegionSignature whole{0, 100, true};
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v < " + huge), whole);
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v <= " + huge), whole);
  EXPECT_EQ(sig_of("SELECT COUNT(v) FROM s WHERE v BETWEEN 40 AND " + huge),
            (RegionSignature{40, 100, false}));
}

TEST(RegionSignature, StrictComparisonsNeverOverflow) {
  // Built directly: the parser only makes non-negative literals, but the
  // planner takes any Query.
  const auto where = [](Condition::Cmp cmp, Value literal) {
    Query q;
    q.where = Condition{};
    q.where->cmp = cmp;
    q.where->literal = literal;
    return q;
  };
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  EXPECT_THROW(region_signature(where(Condition::Cmp::kLt, kMin), 100),
               QueryError);
  EXPECT_THROW(region_signature(where(Condition::Cmp::kGt, kMax), 100),
               QueryError);
  EXPECT_EQ(region_signature(where(Condition::Cmp::kLt, kMax), 100),
            (RegionSignature{0, 100, true}));
  EXPECT_EQ(region_signature(where(Condition::Cmp::kGt, kMin), 100),
            (RegionSignature{0, 100, true}));
}

// ---- cube cover ------------------------------------------------------------

/// Catalog with dyadic geometry and hand-settable costs; the planner's only
/// window onto the cube, so these tests exercise the cover DP in isolation.
class FakeCatalog final : public CubeCatalog {
 public:
  FakeCatalog(unsigned levels, Value bound) : levels_(levels), bound_(bound) {}

  unsigned levels() const override { return levels_; }
  Value domain_bound() const override { return bound_; }
  RegionSignature cell_region(CubeCellRef ref) const override {
    const auto domain = static_cast<std::uint64_t>(bound_) + 1;
    RegionSignature r;
    r.lo = static_cast<Value>((static_cast<std::uint64_t>(ref.index) * domain)
                              >> ref.level);
    r.hi = static_cast<Value>(
               ((static_cast<std::uint64_t>(ref.index) + 1) * domain)
               >> ref.level) -
           1;
    r.whole_domain = r.lo == 0 && r.hi == bound_;
    return r;
  }
  unsigned distinct_registers() const override { return distinct_registers_; }
  std::uint64_t cell_refresh_bits(CubeCellRef ref) const override {
    const auto it = cell_overrides_.find({ref.level, ref.index});
    return it != cell_overrides_.end() ? it->second : cell_bits_;
  }
  std::uint64_t residue_collect_bits(
      const RegionSignature& r) const override {
    return residue_base_ +
           residue_per_value_ * static_cast<std::uint64_t>(r.hi - r.lo + 1);
  }
  std::uint64_t tree_collect_bits(const RegionSignature&) const override {
    return tree_bits_;
  }
  std::uint32_t refresh_amortization() const override { return amortization_; }

  unsigned distinct_registers_ = 0;
  std::uint64_t cell_bits_ = 100;
  std::uint64_t residue_base_ = 30;
  std::uint64_t residue_per_value_ = 25;
  std::uint64_t tree_bits_ = 1'000'000;
  std::uint32_t amortization_ = 1;
  std::map<std::pair<unsigned, unsigned>, std::uint64_t> cell_overrides_;

 private:
  unsigned levels_;
  Value bound_;
};

/// Exhaustive-search oracle for the cheapest left-to-right cover of
/// [lo, hi]: every prefix is either a catalog cell starting at lo or a
/// residue [lo, m] for any m. Exponential, fine on an 8-value domain.
std::uint64_t brute_best(const FakeCatalog& cat, Value lo, Value hi) {
  if (lo > hi) return 0;
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (unsigned level = 0; level < cat.levels(); ++level) {
    for (unsigned index = 0; index < (1u << level); ++index) {
      const RegionSignature r = cat.cell_region({level, index});
      if (r.lo > r.hi || r.lo != lo || r.hi > hi) continue;
      best = std::min(best, cat.cell_refresh_bits({level, index}) +
                                brute_best(cat, r.hi + 1, hi));
    }
  }
  for (Value m = lo; m <= hi; ++m) {
    RegionSignature r{lo, m, false};
    best = std::min(best,
                    cat.residue_collect_bits(r) + brute_best(cat, m + 1, hi));
  }
  return best;
}

std::string count_between(Value lo, Value hi) {
  return "SELECT COUNT(v) FROM s WHERE v BETWEEN " + std::to_string(lo) +
         " AND " + std::to_string(hi);
}

TEST(PlannerCover, ExhaustiveSmallGridMatchesBruteForceOracle) {
  // 3 levels over [0,7]: cells [0,7]; [0,3],[4,7]; [0,1],[2,3],[4,5],[6,7].
  FakeCatalog cat(3, 7);
  const Planner planner(7, &cat);
  for (Value lo = 0; lo <= 7; ++lo) {
    for (Value hi = lo; hi <= 7; ++hi) {
      const Result<CostedPlan> r =
          planner.plan(parse_query(count_between(lo, hi)));
      ASSERT_TRUE(r.ok()) << r.error();
      const CostedPlan& p = r.value();
      // Steps partition [lo, hi] left to right and their costs add up.
      ASSERT_FALSE(p.steps.empty());
      Value next = lo;
      std::uint64_t sum = 0;
      for (const PlanStep& step : p.steps) {
        EXPECT_EQ(step.region.lo, next) << p.description;
        next = step.region.hi + 1;
        sum += step.est_bits;
      }
      EXPECT_EQ(next, hi + 1) << p.description;
      EXPECT_EQ(sum, p.est_cube_bits) << p.description;
      // The DP found the true minimum over every possible ordered cover.
      const std::uint64_t oracle =
          std::min(brute_best(cat, lo, hi), cat.tree_bits_);
      EXPECT_EQ(p.est_cube_bits, oracle)
          << "region [" << lo << "," << hi << "]: " << p.description;
      EXPECT_TRUE(p.cube_served()) << p.description;  // tree_bits_ is huge
    }
  }
}

TEST(PlannerCover, CheapTreeCollectionWinsOutright) {
  FakeCatalog cat(3, 7);
  cat.tree_bits_ = 1;  // a tree collection beats any cover
  const Planner planner(7, &cat);
  const CostedPlan p = planner.plan(parse_query(count_between(1, 6))).value();
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].kind, StepKind::kTreeCollect);
  EXPECT_FALSE(p.cube_served());
  EXPECT_EQ(p.est_cube_bits, p.est_tree_bits);
}

TEST(PlannerCover, AlignedRegionIsOneCell) {
  FakeCatalog cat(3, 7);
  const Planner planner(7, &cat);
  const CostedPlan p = planner.plan(parse_query(count_between(4, 7))).value();
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].kind, StepKind::kCubeCell);
  EXPECT_EQ(p.steps[0].cell, (CubeCellRef{1, 1}));
}

TEST(PlannerCover, UnalignedEndsBecomeResidues) {
  // Make collection expensive relative to maintained cells: the cheapest
  // cover of [1,6] is then residue [1,1] + cells [2,3],[4,5] + residue
  // [6,6], with residues confined to the unaligned single-value ends.
  FakeCatalog cat(3, 7);
  cat.cell_bits_ = 50;
  cat.residue_base_ = 10;
  cat.residue_per_value_ = 100;
  const Planner planner(7, &cat);
  const CostedPlan p = planner.plan(parse_query(count_between(1, 6))).value();
  EXPECT_TRUE(p.cube_served());
  ASSERT_EQ(p.steps.size(), 4u);
  EXPECT_EQ(p.steps.front().kind, StepKind::kResidueCollect);
  EXPECT_EQ(p.steps.front().region, (RegionSignature{1, 1, false}));
  EXPECT_EQ(p.steps[1].kind, StepKind::kCubeCell);
  EXPECT_EQ(p.steps[1].cell, (CubeCellRef{2, 1}));
  EXPECT_EQ(p.steps[2].kind, StepKind::kCubeCell);
  EXPECT_EQ(p.steps[2].cell, (CubeCellRef{2, 2}));
  EXPECT_EQ(p.steps.back().kind, StepKind::kResidueCollect);
  EXPECT_EQ(p.steps.back().region, (RegionSignature{6, 6, false}));
}

TEST(PlannerCover, EqualCostTieBreaksToFewerCoarserSteps) {
  // L1 cell [0,3] at 100 vs its two L2 children at 50 each: same bits, and
  // the deterministic tie-break must pick the single coarse cell.
  FakeCatalog cat(3, 7);
  cat.cell_overrides_[{1, 0}] = 100;
  cat.cell_overrides_[{2, 0}] = 50;
  cat.cell_overrides_[{2, 1}] = 50;
  const Planner planner(7, &cat);
  const CostedPlan p = planner.plan(parse_query(count_between(0, 3))).value();
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].cell, (CubeCellRef{1, 0}));
}

TEST(PlannerCover, RefreshCostAmortizedOverHorizon) {
  FakeCatalog cat(3, 7);
  cat.amortization_ = 4;  // raw 100 -> 25 per epoch served
  const Planner planner(7, &cat);
  const CostedPlan p = planner.plan(parse_query(count_between(4, 7))).value();
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].kind, StepKind::kCubeCell);
  EXPECT_EQ(p.est_cube_bits, 25u);
}

TEST(PlannerCover, WholeDomainPlanUsesRootCell) {
  FakeCatalog cat(3, 7);
  const Planner planner(7, &cat);
  const CostedPlan p = planner.plan(parse_query("SELECT SUM(v) FROM s"))
                           .value();
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].kind, StepKind::kCubeCell);
  EXPECT_EQ(p.steps[0].cell, (CubeCellRef{0, 0}));
  EXPECT_TRUE(p.steps[0].region.whole_domain);
}

// ---- cube eligibility ------------------------------------------------------

TEST(Planner, CubeEligibilityByStrategyAndRegisters) {
  FakeCatalog cat(3, 7);
  const Planner bare(7);
  const Planner with(7, &cat);

  const Query count = parse_query("SELECT COUNT(v) FROM s");
  EXPECT_FALSE(bare.cube_eligible(bare.plan(count).value()));
  EXPECT_TRUE(with.cube_eligible(with.plan(count).value()));

  // Selections and exact distinct never decompose over cube partials.
  EXPECT_FALSE(with.cube_eligible(
      with.plan(parse_query("SELECT MEDIAN(v) FROM s")).value()));
  EXPECT_FALSE(with.cube_eligible(
      with.plan(parse_query("SELECT COUNT_DISTINCT(v) FROM s")).value()));

  // Approx distinct requires the cube's HLL geometry to match exactly.
  const Query apx = parse_query("SELECT COUNT_DISTINCT(v) FROM s ERROR 0.1");
  const CostedPlan apx_plan = with.plan(apx).value();
  EXPECT_FALSE(with.cube_eligible(apx_plan));  // cube keeps no sketches
  FakeCatalog sketched(3, 7);
  sketched.distinct_registers_ = apx_plan.registers;
  const Planner with_sketch(7, &sketched);
  EXPECT_TRUE(with_sketch.cube_eligible(with_sketch.plan(apx).value()));
  sketched.distinct_registers_ = apx_plan.registers * 2;
  EXPECT_FALSE(with_sketch.cube_eligible(with_sketch.plan(apx).value()));
}

}  // namespace
}  // namespace sensornet::query
