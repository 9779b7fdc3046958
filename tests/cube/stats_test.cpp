#include "src/cube/stats.hpp"

#include <gtest/gtest.h>

#include "src/common/bitio.hpp"

namespace sensornet::cube {
namespace {

RangeStats observed(std::initializer_list<Value> vs) {
  RangeStats rs;
  for (const Value v : vs) rs.observe(v);
  return rs;
}

TEST(RangeStats, ObserveTracksAllFourMoments) {
  const RangeStats rs = observed({7, 3, 11});
  EXPECT_EQ(rs.count, 3u);
  EXPECT_EQ(rs.sum, 21u);
  EXPECT_EQ(rs.min, 3);
  EXPECT_EQ(rs.max, 11);
}

TEST(RangeStats, CombineMatchesObservingTheUnion) {
  RangeStats a = observed({5, 9});
  const RangeStats b = observed({1, 20});
  a.combine(b);
  EXPECT_EQ(a, observed({5, 9, 1, 20}));
  // Empty operands are identities on both sides.
  RangeStats empty;
  a.combine(empty);
  EXPECT_EQ(a, observed({5, 9, 1, 20}));
  empty.combine(a);
  EXPECT_EQ(empty, a);
}

TEST(RangeStats, CodecRoundTripsEmptyAndNonEmpty) {
  for (const RangeStats rs :
       {RangeStats{}, observed({42}), observed({3, 200, 77})}) {
    BitWriter w;
    encode_range_stats(w, rs);
    BitReader r(w.bytes().data(), w.bit_count());
    EXPECT_EQ(decode_range_stats(r), rs);
  }
  // The empty image is just the count: cheaper than any non-empty one.
  BitWriter we, wn;
  encode_range_stats(we, RangeStats{});
  encode_range_stats(wn, observed({42}));
  EXPECT_LT(we.bit_count(), wn.bit_count());
}

TEST(StatsBundle, CombineIsComponentwise) {
  StatsBundle a;
  a.core = observed({10});
  a.inner = observed({10});
  a.outer = observed({10, 12});
  StatsBundle b;
  b.core = observed({30});
  b.outer = observed({30});
  a.combine(b);
  EXPECT_EQ(a.core, observed({10, 30}));
  EXPECT_EQ(a.inner, observed({10}));
  EXPECT_EQ(a.outer, observed({10, 12, 30}));
}

TEST(BracketBundle, WholeDomainCountIsExactAtAnyDrift) {
  StatsBundle b;
  b.core = observed({10, 50, 90});
  b.inner = b.core;
  b.outer = b.core;
  const BundleBracket br =
      bracket_bundle(b, /*whole_domain=*/true, /*drift=*/1000.0, 0.0, 100.0);
  EXPECT_EQ(br.count_lo, 3.0);
  EXPECT_EQ(br.count_hi, 3.0);
  // Values drift in place, clamped to the domain.
  EXPECT_EQ(br.min_lo, 0.0);
  EXPECT_EQ(br.min_hi, 100.0);
  EXPECT_TRUE(br.defined);
}

TEST(BracketBundle, WholeDomainRailsDriftAroundCoreValues) {
  StatsBundle b;
  b.core = observed({40, 60});
  b.inner = b.core;
  b.outer = b.core;
  const BundleBracket br = bracket_bundle(b, true, /*drift=*/5.0, 0.0, 100.0);
  EXPECT_EQ(br.min_lo, 35.0);
  EXPECT_EQ(br.min_hi, 45.0);
  EXPECT_EQ(br.max_lo, 55.0);
  EXPECT_EQ(br.max_hi, 65.0);
  EXPECT_EQ(br.sum_lo, 90.0);
  EXPECT_EQ(br.sum_hi, 110.0);
}

TEST(BracketBundle, RangedCountBracketsBetweenInnerAndOuter) {
  StatsBundle b;
  b.core = observed({30, 50});
  b.inner = observed({50});
  b.outer = observed({28, 30, 50});
  const BundleBracket br = bracket_bundle(b, false, /*drift=*/2.0, 20.0, 80.0);
  EXPECT_EQ(br.count_lo, 1.0);
  EXPECT_EQ(br.count_hi, 3.0);
  EXPECT_EQ(br.sum_lo, 48.0);    // inner.sum - inner.count * d
  EXPECT_EQ(br.sum_hi, 114.0);   // outer.sum + outer.count * d
}

TEST(BracketBundle, RangedMinMaxClampBothRailsToTheRegion) {
  // The pre-PR10 cache bracket clamped only one side of each rail; a range
  // aggregate can never leave its own range, so both sides must clamp.
  StatsBundle b;
  b.core = observed({21, 79});
  b.inner = observed({21, 79});
  b.outer = observed({19, 21, 79, 81});
  const double lo = 20.0, hi = 80.0;
  const BundleBracket br = bracket_bundle(b, false, /*drift=*/10.0, lo, hi);
  ASSERT_TRUE(br.defined);
  EXPECT_EQ(br.min_lo, lo);  // outer.min - d = 9 clamps up to the region
  EXPECT_EQ(br.min_hi, 31.0);
  EXPECT_EQ(br.max_lo, 69.0);
  EXPECT_EQ(br.max_hi, hi);  // outer.max + d = 91 clamps down to the region
}

TEST(BracketBundle, OuterOnlyBundleExposesOutwardRailsOnly) {
  StatsBundle b;           // nothing surely inside...
  b.outer = observed({18, 82});  // ...but the margins might hold members
  const BundleBracket br = bracket_bundle(b, false, /*drift=*/3.0, 20.0, 80.0);
  EXPECT_FALSE(br.defined);
  EXPECT_TRUE(br.any_possible);
  EXPECT_EQ(br.count_lo, 0.0);
  EXPECT_EQ(br.count_hi, 2.0);
  EXPECT_EQ(br.min_lo, 20.0);  // outward rail, clamped
  EXPECT_EQ(br.max_hi, 80.0);
}

TEST(BracketBundle, AllEmptyBundleIsImpossible) {
  const BundleBracket br = bracket_bundle(StatsBundle{}, false, 5.0, 0.0, 10.0);
  EXPECT_FALSE(br.defined);
  EXPECT_FALSE(br.any_possible);
  EXPECT_EQ(br.count_hi, 0.0);
}

TEST(BracketBundle, DriftZeroIsTheCoreForRangedBundles) {
  StatsBundle b;
  b.core = observed({30, 50});
  b.inner = observed({50});
  b.outer = observed({28, 30, 50});
  const BundleBracket br = bracket_bundle(b, false, /*drift=*/0.0, 20.0, 80.0);
  EXPECT_EQ(br.count_lo, 2.0);
  EXPECT_EQ(br.count_hi, 2.0);
  EXPECT_EQ(br.sum_lo, 80.0);
  EXPECT_EQ(br.sum_hi, 80.0);
  EXPECT_EQ(br.min_lo, 30.0);
  EXPECT_EQ(br.min_hi, 30.0);
}

TEST(BracketComposer, PartsAtDriftZeroAnswerExactly) {
  StatsBundle a;
  a.core = observed({30, 50});
  a.outer = observed({28, 30, 50});  // margins play no part at drift 0
  StatsBundle b;
  b.core = observed({90});
  BracketComposer c;
  c.add(a, false, 0.0, 20.0, 80.0);
  c.add(b, false, 0.0, 81.0, 100.0);
  const auto check = [&](query::AggregateKind agg, double value) {
    const auto ans = c.answer(agg);
    ASSERT_TRUE(ans.has_value()) << query::agg_name(agg);
    EXPECT_EQ(ans->value, value) << query::agg_name(agg);
    EXPECT_TRUE(ans->exact) << query::agg_name(agg);
  };
  check(query::AggregateKind::kCount, 3.0);
  check(query::AggregateKind::kSum, 170.0);
  check(query::AggregateKind::kAvg, 170.0 / 3.0);
  check(query::AggregateKind::kMin, 30.0);
  check(query::AggregateKind::kMax, 90.0);
  EXPECT_FALSE(c.answer(query::AggregateKind::kMedian).has_value());
  EXPECT_FALSE(c.answer(query::AggregateKind::kCountDistinct).has_value());
}

TEST(BracketComposer, SumsPartsAtTheirOwnDrift) {
  // A fresh part adds its exact core; a stale one its drift interval.
  StatsBundle fresh;
  fresh.core = observed({40, 60});
  StatsBundle stale;
  stale.core = observed({10});
  stale.inner = stale.core;
  stale.outer = stale.core;
  BracketComposer c;
  c.add(fresh, false, 0.0, 30.0, 70.0);
  c.add(stale, true, 3.0, 0.0, 100.0);
  const auto sum = c.answer(query::AggregateKind::kSum);
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->value, 110.0);
  EXPECT_EQ(sum->bound, 3.0);  // only the stale part's one reading drifts
  const auto min = c.answer(query::AggregateKind::kMin);
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->value, 10.0);
  EXPECT_EQ(min->bound, 3.0);
}

TEST(BracketComposer, EmptySelectionsRefuseValueAggregates) {
  BracketComposer c;
  c.add(StatsBundle{}, false, 0.0, 20.0, 80.0);
  const auto count = c.answer(query::AggregateKind::kCount);
  ASSERT_TRUE(count.has_value());
  EXPECT_TRUE(count->exact);
  EXPECT_EQ(count->value, 0.0);
  EXPECT_FALSE(c.answer(query::AggregateKind::kMin).has_value());
  EXPECT_FALSE(c.answer(query::AggregateKind::kAvg).has_value());
}

TEST(MakeAnswer, BoundIsTheFartherRail) {
  const BracketedAnswer a = make_answer(10.0, 7.0, 11.0);
  EXPECT_EQ(a.value, 10.0);
  EXPECT_EQ(a.bound, 3.0);
  EXPECT_FALSE(a.exact);
  const BracketedAnswer exact = make_answer(5.0, 5.0, 5.0);
  EXPECT_TRUE(exact.exact);
  EXPECT_EQ(exact.bound, 0.0);
}

}  // namespace
}  // namespace sensornet::cube
