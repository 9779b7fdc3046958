#include "src/service/result_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sensornet::service {
namespace {

constexpr Value kBound = 1000;
constexpr Value kDelta = 4;
constexpr std::uint32_t kHorizon = 8;

RangeStats stats_of(std::initializer_list<Value> vs) {
  RangeStats rs;
  for (const Value v : vs) rs.observe(v);
  return rs;
}

/// Bundle for a ranged region [lo, hi] with margin M over explicit values.
StatsBundle ranged_bundle(std::initializer_list<Value> vs, Value lo, Value hi,
                          Value margin = kHorizon * kDelta) {
  StatsBundle b;
  for (const Value v : vs) {
    if (v >= lo && v <= hi) b.core.observe(v);
    if (v >= lo + margin && v <= hi - margin) b.inner.observe(v);
    if (v >= lo - margin && v <= hi + margin) b.outer.observe(v);
  }
  return b;
}

StatsBundle whole_bundle(std::initializer_list<Value> vs) {
  StatsBundle b;
  b.core = stats_of(vs);
  b.inner = b.core;
  b.outer = b.core;
  return b;
}

TEST(RangeStats, ObserveAndCombine) {
  RangeStats a = stats_of({5, 2, 9});
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 16u);
  EXPECT_EQ(a.min, 2);
  EXPECT_EQ(a.max, 9);
  RangeStats b = stats_of({1});
  b.combine(a);
  EXPECT_EQ(b.count, 4u);
  EXPECT_EQ(b.min, 1);
  EXPECT_EQ(b.max, 9);
  RangeStats empty;
  b.combine(empty);  // combining nothing changes nothing
  EXPECT_EQ(b.count, 4u);
  empty.combine(b);
  EXPECT_EQ(empty, b);
}

TEST(ResultCache, FreshEntryIsExactForWholeDomain) {
  ResultCache cache(kBound, kDelta, kHorizon);
  const query::RegionSignature whole{0, kBound, true};
  cache.store(whole, /*epoch=*/5, whole_bundle({10, 20, 30}));
  const auto hit = cache.bracket(whole, query::AggregateKind::kSum, 5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->value, 60.0);
  EXPECT_DOUBLE_EQ(hit->bound, 0.0);
  EXPECT_TRUE(hit->exact);
}

TEST(ResultCache, WholeDomainCountStaysExactForever) {
  // Values drift but never leave [0, bound]: membership is static.
  ResultCache cache(kBound, kDelta, kHorizon);
  const query::RegionSignature whole{0, kBound, true};
  cache.store(whole, 1, whole_bundle({10, 20}));
  const auto hit = cache.bracket(whole, query::AggregateKind::kCount, 1000);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->value, 2.0);
  EXPECT_TRUE(hit->exact);
}

TEST(ResultCache, WholeDomainBoundsGrowWithStaleness) {
  ResultCache cache(kBound, kDelta, kHorizon);
  const query::RegionSignature whole{0, kBound, true};
  cache.store(whole, 10, whole_bundle({10, 20, 30}));
  for (const std::uint32_t s : {1u, 3u, 7u}) {
    const double d = static_cast<double>(s) * kDelta;
    const auto sum = cache.bracket(whole, query::AggregateKind::kSum, 10 + s);
    ASSERT_TRUE(sum.has_value());
    EXPECT_DOUBLE_EQ(sum->bound, 3.0 * d);  // count * d
    const auto avg = cache.bracket(whole, query::AggregateKind::kAvg, 10 + s);
    EXPECT_DOUBLE_EQ(avg->bound, d);
    const auto mn = cache.bracket(whole, query::AggregateKind::kMin, 10 + s);
    EXPECT_DOUBLE_EQ(mn->bound, d);
  }
}

TEST(ResultCache, RangedBracketsContainAllReachableDrifts) {
  // Exhaustive soundness check: every per-epoch drift pattern of three
  // sensors (each step in {-kDelta..kDelta}) for s epochs must keep the
  // true aggregate inside the cached bracket.
  const query::RegionSignature region{40, 60, false};
  ResultCache cache(kBound, kDelta, kHorizon);
  const std::initializer_list<Value> start = {38, 50, 61};
  cache.store(region, 0, ranged_bundle(start, region.lo, region.hi));
  const std::uint32_t s = 3;
  // Walk each sensor independently to its extremes: per-sensor worst case
  // suffices because the aggregates decompose over sensors.
  for (int d0 = -1; d0 <= 1; ++d0) {
    for (int d1 = -1; d1 <= 1; ++d1) {
      for (int d2 = -1; d2 <= 1; ++d2) {
        const Value drift = static_cast<Value>(s) * kDelta;
        const Value vs[3] = {38 + d0 * drift, 50 + d1 * drift,
                             61 + d2 * drift};
        RangeStats truth;
        for (const Value v : vs) {
          if (v >= region.lo && v <= region.hi) truth.observe(v);
        }
        const auto count = cache.bracket(region, query::AggregateKind::kCount, s);
        ASSERT_TRUE(count.has_value());
        EXPECT_LE(std::abs(count->value - static_cast<double>(truth.count)),
                  count->bound);
        const auto sum = cache.bracket(region, query::AggregateKind::kSum, s);
        EXPECT_LE(std::abs(sum->value - static_cast<double>(truth.sum)),
                  sum->bound);
        if (truth.count > 0) {
          const auto mn = cache.bracket(region, query::AggregateKind::kMin, s);
          if (mn) {
            EXPECT_LE(std::abs(mn->value - static_cast<double>(truth.min)),
                      mn->bound);
          }
          const auto avg = cache.bracket(region, query::AggregateKind::kAvg, s);
          if (avg) {
            const double t = static_cast<double>(truth.sum) /
                             static_cast<double>(truth.count);
            EXPECT_LE(std::abs(avg->value - t), avg->bound);
          }
        }
      }
    }
  }
}

TEST(ResultCache, RangedEntriesExpirePastHorizon) {
  const query::RegionSignature region{40, 60, false};
  ResultCache cache(kBound, kDelta, kHorizon);
  cache.store(region, 10, ranged_bundle({50}, 40, 60));
  EXPECT_TRUE(
      cache.bracket(region, query::AggregateKind::kCount, 10 + kHorizon).has_value());
  EXPECT_FALSE(cache.bracket(region, query::AggregateKind::kCount, 11 + kHorizon)
                   .has_value());
}

TEST(ResultCache, LookupGatesOnEpsilon) {
  ResultCache cache(kBound, kDelta, kHorizon);
  const query::RegionSignature whole{0, kBound, true};
  cache.store(whole, 0, whole_bundle({100, 200, 300}));
  // Staleness 2: AVG bound = 8 on a value of 200 -> relative error 4%.
  EXPECT_TRUE(
      cache.lookup(whole, query::AggregateKind::kAvg, 0.05, 2).has_value());
  EXPECT_FALSE(
      cache.lookup(whole, query::AggregateKind::kAvg, 0.01, 2).has_value());
  // No epsilon = exact required: hits only at zero staleness (or COUNT).
  EXPECT_FALSE(
      cache.lookup(whole, query::AggregateKind::kAvg, std::nullopt, 2).has_value());
  EXPECT_TRUE(
      cache.lookup(whole, query::AggregateKind::kAvg, std::nullopt, 0).has_value());
  EXPECT_TRUE(
      cache.lookup(whole, query::AggregateKind::kCount, std::nullopt, 2).has_value());
}

TEST(ResultCache, NeverServesUnbracketableAggregates) {
  ResultCache cache(kBound, kDelta, kHorizon);
  const query::RegionSignature whole{0, kBound, true};
  cache.store(whole, 0, whole_bundle({1, 2, 3}));
  EXPECT_FALSE(cache.bracket(whole, query::AggregateKind::kMedian, 0).has_value());
  EXPECT_FALSE(
      cache.bracket(whole, query::AggregateKind::kCountDistinct, 0).has_value());
}

TEST(ResultCache, EmptySelectionsRefuseValueAggregates) {
  ResultCache cache(kBound, kDelta, kHorizon);
  const query::RegionSignature region{40, 60, false};
  cache.store(region, 0, ranged_bundle({5, 200}, 40, 60));
  const auto count = cache.bracket(region, query::AggregateKind::kCount, 0);
  ASSERT_TRUE(count.has_value());
  EXPECT_DOUBLE_EQ(count->value, 0.0);
  EXPECT_FALSE(cache.bracket(region, query::AggregateKind::kMin, 0).has_value());
  EXPECT_FALSE(cache.bracket(region, query::AggregateKind::kAvg, 0).has_value());
}

TEST(ResultCache, SameEpochRangedLookupIsExact) {
  // Drift 0: nothing moved since the collection, so the core answers even
  // without ERROR, though the margins (inner empty, outer wide) would
  // bracket loosely one epoch later.
  const query::RegionSignature region{40, 60, false};
  ResultCache cache(kBound, kDelta, kHorizon);
  cache.store(region, 7, ranged_bundle({30, 45, 55, 70}, 40, 60));
  for (const query::AggregateKind agg :
       {query::AggregateKind::kCount, query::AggregateKind::kSum,
        query::AggregateKind::kAvg, query::AggregateKind::kMin,
        query::AggregateKind::kMax}) {
    const auto hit = cache.lookup(region, agg, std::nullopt, 7);
    ASSERT_TRUE(hit.has_value()) << query::agg_name(agg);
    EXPECT_EQ(hit->bound, 0.0) << query::agg_name(agg);
    EXPECT_TRUE(hit->exact) << query::agg_name(agg);
  }
  EXPECT_EQ(cache.counters().exact_hits, 5u);
  EXPECT_DOUBLE_EQ(
      cache.lookup(region, query::AggregateKind::kSum, std::nullopt, 7)->value,
      100.0);
  EXPECT_FALSE(
      cache.lookup(region, query::AggregateKind::kSum, std::nullopt, 8));
}

TEST(ResultCache, ZeroDriftModelIsExactAtAnyStaleness) {
  const query::RegionSignature region{40, 60, false};
  ResultCache cache(kBound, /*max_delta=*/0, kHorizon);
  cache.store(region, 2, ranged_bundle({30, 45, 55, 70}, 40, 60));
  for (const std::uint32_t now : {2u, 3u, 2 + kHorizon}) {
    const auto hit =
        cache.lookup(region, query::AggregateKind::kMin, std::nullopt, now);
    ASSERT_TRUE(hit.has_value()) << now;
    EXPECT_DOUBLE_EQ(hit->value, 45.0);
    EXPECT_TRUE(hit->exact);
  }
}

TEST(ResultCache, EvictsStalestBeyondCapacity) {
  ResultCache cache(kBound, kDelta, kHorizon, /*capacity=*/2);
  const query::RegionSignature r1{1, 10, false};
  const query::RegionSignature r2{2, 20, false};
  const query::RegionSignature r3{3, 30, false};
  cache.store(r1, 1, ranged_bundle({5}, 1, 10));
  cache.store(r2, 5, ranged_bundle({5}, 2, 20));
  cache.store(r3, 6, ranged_bundle({5}, 3, 30));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.bracket(r1, query::AggregateKind::kCount, 6).has_value());
  EXPECT_TRUE(cache.bracket(r2, query::AggregateKind::kCount, 6).has_value());
  EXPECT_TRUE(cache.bracket(r3, query::AggregateKind::kCount, 6).has_value());
}

}  // namespace
}  // namespace sensornet::service
