#include "src/query/parser.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/query/lexer.hpp"

namespace sensornet::query {
namespace {

TEST(Parser, MinimalQuery) {
  const Query q = parse_query("SELECT COUNT(temp) FROM sensors");
  EXPECT_EQ(q.agg, AggregateKind::kCount);
  EXPECT_EQ(q.attribute, "temp");
  EXPECT_FALSE(q.where.has_value());
  EXPECT_FALSE(q.error.has_value());
}

TEST(Parser, CaseInsensitiveKeywords) {
  const Query q = parse_query("select median(x) from s;");
  EXPECT_EQ(q.agg, AggregateKind::kMedian);
}

TEST(Parser, AllAggregates) {
  EXPECT_EQ(parse_query("SELECT MIN(v) FROM s").agg, AggregateKind::kMin);
  EXPECT_EQ(parse_query("SELECT MAX(v) FROM s").agg, AggregateKind::kMax);
  EXPECT_EQ(parse_query("SELECT SUM(v) FROM s").agg, AggregateKind::kSum);
  EXPECT_EQ(parse_query("SELECT AVG(v) FROM s").agg, AggregateKind::kAvg);
  EXPECT_EQ(parse_query("SELECT COUNT_DISTINCT(v) FROM s").agg,
            AggregateKind::kCountDistinct);
}

TEST(Parser, QuantileFraction) {
  const Query q = parse_query("SELECT QUANTILE(v, 0.9) FROM s");
  EXPECT_EQ(q.agg, AggregateKind::kQuantile);
  EXPECT_DOUBLE_EQ(q.quantile_phi, 0.9);
}

TEST(Parser, QuantileRejectsBadFraction) {
  EXPECT_THROW(parse_query("SELECT QUANTILE(v, 1.5) FROM s"), QueryError);
  EXPECT_THROW(parse_query("SELECT QUANTILE(v) FROM s"), QueryError);
}

TEST(Parser, WhereClauses) {
  const Query lt = parse_query("SELECT COUNT(v) FROM s WHERE v < 10");
  ASSERT_TRUE(lt.where.has_value());
  EXPECT_EQ(lt.where->cmp, Condition::Cmp::kLt);
  EXPECT_EQ(lt.where->literal, 10);
  EXPECT_EQ(parse_query("SELECT COUNT(v) FROM s WHERE v >= 3").where->cmp,
            Condition::Cmp::kGe);
  EXPECT_EQ(parse_query("SELECT COUNT(v) FROM s WHERE v <= 3").where->cmp,
            Condition::Cmp::kLe);
  EXPECT_EQ(parse_query("SELECT COUNT(v) FROM s WHERE v > 3").where->cmp,
            Condition::Cmp::kGt);
}

TEST(Parser, ErrorAndConfidence) {
  const Query q = parse_query(
      "SELECT MEDIAN(v) FROM s ERROR 0.01 CONFIDENCE 0.9");
  ASSERT_TRUE(q.error.has_value());
  EXPECT_DOUBLE_EQ(*q.error, 0.01);
  EXPECT_DOUBLE_EQ(q.confidence, 0.9);
}

TEST(Parser, ErrorBoundsValidated) {
  EXPECT_THROW(parse_query("SELECT MEDIAN(v) FROM s ERROR 0"), QueryError);
  EXPECT_THROW(parse_query("SELECT MEDIAN(v) FROM s ERROR 1.0"), QueryError);
  EXPECT_THROW(parse_query("SELECT MEDIAN(v) FROM s CONFIDENCE 2"),
               QueryError);
}

TEST(Parser, MalformedQueriesThrow) {
  EXPECT_THROW(parse_query(""), QueryError);
  EXPECT_THROW(parse_query("MEDIAN(v) FROM s"), QueryError);
  EXPECT_THROW(parse_query("SELECT BOGUS(v) FROM s"), QueryError);
  EXPECT_THROW(parse_query("SELECT MEDIAN v FROM s"), QueryError);
  EXPECT_THROW(parse_query("SELECT MEDIAN(v FROM s"), QueryError);
  EXPECT_THROW(parse_query("SELECT MEDIAN(v) s"), QueryError);
  EXPECT_THROW(parse_query("SELECT MEDIAN(v) FROM s WHERE v"), QueryError);
  EXPECT_THROW(parse_query("SELECT MEDIAN(v) FROM s trailing"), QueryError);
  EXPECT_THROW(parse_query("SELECT MEDIAN(v) FROM s WHERE v < 1.5"),
               QueryError);
}

TEST(Parser, KeepsOriginalText) {
  const std::string text = "SELECT MIN(v) FROM s";
  EXPECT_EQ(parse_query(text).text, text);
}

/// The exact diagnostic text the service surfaces to clients on admission
/// failures — pinned so a reworded parser does not silently break them.
std::string thrown_message(const std::string& text) {
  try {
    parse_query(text);
  } catch (const QueryError& e) {
    return e.what();
  }
  return "";
}

TEST(Parser, BetweenRange) {
  const Query q =
      parse_query("SELECT SUM(v) FROM s WHERE v BETWEEN 10 AND 50");
  ASSERT_TRUE(q.where.has_value());
  EXPECT_EQ(q.where->cmp, Condition::Cmp::kBetween);
  EXPECT_EQ(q.where->literal, 10);
  EXPECT_EQ(q.where->literal2, 50);
}

TEST(Parser, BetweenAcceptsInvertedRangeForPlannerToReject) {
  // Syntax-level acceptance; the planner owns the semantic diagnostic.
  const Query q =
      parse_query("SELECT SUM(v) FROM s WHERE v BETWEEN 50 AND 10");
  EXPECT_EQ(q.where->literal, 50);
  EXPECT_EQ(q.where->literal2, 10);
}

TEST(Parser, MalformedBetweenThrows) {
  EXPECT_NE(thrown_message("SELECT SUM(v) FROM s WHERE v BETWEEN 10 50")
                .find("expected 'AND' between BETWEEN bounds"),
            std::string::npos);
  EXPECT_THROW(parse_query("SELECT SUM(v) FROM s WHERE v BETWEEN 10 AND"),
               QueryError);
  EXPECT_THROW(parse_query("SELECT SUM(v) FROM s WHERE v BETWEEN AND 10"),
               QueryError);
  EXPECT_THROW(
      parse_query("SELECT SUM(v) FROM s WHERE v BETWEEN 1.5 AND 10"),
      QueryError);
  EXPECT_THROW(parse_query("SELECT SUM(v) FROM s WHERE v BETWEEN -3 AND 10"),
               QueryError);
}

TEST(Parser, LiteralsPastValueSaturate) {
  // 10^20 > 2^63: no Value holds it, and converting it would be undefined.
  // It lies above every reading, as Value's maximum does.
  constexpr Value kMax = std::numeric_limits<Value>::max();
  EXPECT_EQ(parse_query("SELECT COUNT(v) FROM s WHERE v > "
                        "100000000000000000000")
                .where->literal,
            kMax);
  const Query q = parse_query(
      "SELECT COUNT(v) FROM s WHERE v BETWEEN 9223372036854775808 AND "
      "100000000000000000000");
  EXPECT_EQ(q.where->literal, kMax);
  EXPECT_EQ(q.where->literal2, kMax);
  EXPECT_NE(thrown_message("SELECT COUNT(v) FROM s WHERE v > 1" +
                           std::string(400, '0'))
                .find("numeric literal out of range"),
            std::string::npos);
}

TEST(Parser, EveryClauseMakesQueryContinuous) {
  const Query q = parse_query("SELECT COUNT(v) FROM s EVERY 4 EPOCHS");
  ASSERT_TRUE(q.every_epochs.has_value());
  EXPECT_EQ(*q.every_epochs, 4u);
  EXPECT_EQ(*parse_query("SELECT COUNT(v) FROM s EVERY 1 EPOCH").every_epochs,
            1u);
  EXPECT_FALSE(parse_query("SELECT COUNT(v) FROM s").every_epochs.has_value());
}

TEST(Parser, EveryComposesWithWhereAndError) {
  const Query q = parse_query(
      "SELECT SUM(v) FROM s WHERE v BETWEEN 10 AND 50 EVERY 4 EPOCHS "
      "ERROR 0.05");
  EXPECT_EQ(*q.every_epochs, 4u);
  EXPECT_DOUBLE_EQ(*q.error, 0.05);
  EXPECT_EQ(q.where->cmp, Condition::Cmp::kBetween);
}

TEST(Parser, MalformedEveryThrows) {
  const std::string interval_msg =
      "EVERY interval must be a positive whole number of epochs";
  EXPECT_NE(thrown_message("SELECT COUNT(v) FROM s EVERY 0 EPOCHS")
                .find(interval_msg),
            std::string::npos);
  EXPECT_NE(thrown_message("SELECT COUNT(v) FROM s EVERY 2.5 EPOCHS")
                .find(interval_msg),
            std::string::npos);
  EXPECT_NE(thrown_message("SELECT COUNT(v) FROM s EVERY 4")
                .find("expected 'EPOCHS' after the EVERY interval"),
            std::string::npos);
  EXPECT_THROW(parse_query("SELECT COUNT(v) FROM s EVERY EPOCHS"), QueryError);
  EXPECT_THROW(parse_query("SELECT COUNT(v) FROM s EVERY -2 EPOCHS"),
               QueryError);
}

}  // namespace
}  // namespace sensornet::query
