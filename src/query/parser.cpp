#include "src/query/parser.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "src/query/lexer.hpp"

namespace sensornet::query {

namespace {

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return s;
}

class Parser {
 public:
  explicit Parser(const std::string& text)
      : tokens_(tokenize(text)), text_(text) {}

  Query parse() {
    Query q;
    q.text = text_;
    expect_keyword("SELECT");
    parse_aggregate(q);
    expect_keyword("FROM");
    expect(TokenKind::kIdent, "table name");
    advance();
    if (at_keyword("WHERE")) {
      advance();
      q.where = parse_condition();
    }
    if (at_keyword("EVERY")) {
      advance();
      const double n = expect_number("epoch interval");
      if (n < 1.0 || std::floor(n) != n || n > 1e6) {
        throw QueryError("EVERY interval must be a positive whole number "
                         "of epochs",
                         previous_position_);
      }
      if (!at_keyword("EPOCHS") && !at_keyword("EPOCH")) {
        throw QueryError("expected 'EPOCHS' after the EVERY interval",
                         current().position);
      }
      advance();
      q.every_epochs = static_cast<std::uint32_t>(n);
    }
    if (at_keyword("ERROR")) {
      advance();
      const double e = expect_number("error bound");
      if (e <= 0.0 || e >= 1.0) {
        throw QueryError("ERROR must be in (0, 1)", previous_position_);
      }
      q.error = e;
    }
    if (at_keyword("CONFIDENCE")) {
      advance();
      const double c = expect_number("confidence");
      if (c <= 0.0 || c >= 1.0) {
        throw QueryError("CONFIDENCE must be in (0, 1)", previous_position_);
      }
      q.confidence = c;
    }
    if (current().kind == TokenKind::kSemicolon) advance();
    if (current().kind != TokenKind::kEnd) {
      throw QueryError("trailing input after query", current().position);
    }
    return q;
  }

 private:
  const Token& current() const { return tokens_[pos_]; }

  void advance() {
    previous_position_ = current().position;
    if (current().kind != TokenKind::kEnd) ++pos_;
  }

  bool at_keyword(const char* kw) const {
    return current().kind == TokenKind::kIdent && upper(current().text) == kw;
  }

  void expect_keyword(const char* kw) {
    if (!at_keyword(kw)) {
      throw QueryError(std::string("expected '") + kw + "'",
                       current().position);
    }
    advance();
  }

  void expect(TokenKind kind, const char* what) {
    if (current().kind != kind) {
      throw QueryError(std::string("expected ") + what, current().position);
    }
  }

  double expect_number(const char* what) {
    expect(TokenKind::kNumber, what);
    const double v = current().number;
    advance();
    return v;
  }

  void parse_aggregate(Query& q) {
    expect(TokenKind::kIdent, "aggregate name");
    const std::string name = upper(current().text);
    if (name == "MIN") q.agg = AggregateKind::kMin;
    else if (name == "MAX") q.agg = AggregateKind::kMax;
    else if (name == "COUNT") q.agg = AggregateKind::kCount;
    else if (name == "SUM") q.agg = AggregateKind::kSum;
    else if (name == "AVG") q.agg = AggregateKind::kAvg;
    else if (name == "MEDIAN") q.agg = AggregateKind::kMedian;
    else if (name == "QUANTILE") q.agg = AggregateKind::kQuantile;
    else if (name == "COUNT_DISTINCT") q.agg = AggregateKind::kCountDistinct;
    else throw QueryError("unknown aggregate '" + current().text + "'",
                          current().position);
    advance();

    if (current().kind != TokenKind::kLParen) {
      throw QueryError("expected '(' after aggregate", current().position);
    }
    advance();
    expect(TokenKind::kIdent, "attribute name");
    q.attribute = current().text;
    advance();
    if (q.agg == AggregateKind::kQuantile) {
      if (current().kind != TokenKind::kComma) {
        throw QueryError("QUANTILE needs a rank fraction", current().position);
      }
      advance();
      const double phi = expect_number("quantile fraction");
      if (phi <= 0.0 || phi >= 1.0) {
        throw QueryError("quantile fraction must be in (0, 1)",
                         previous_position_);
      }
      q.quantile_phi = phi;
    }
    if (current().kind != TokenKind::kRParen) {
      throw QueryError("expected ')'", current().position);
    }
    advance();
  }

  Condition parse_condition() {
    expect(TokenKind::kIdent, "attribute in WHERE");
    advance();
    Condition cond;
    if (at_keyword("BETWEEN")) {
      // WHERE attr BETWEEN lo AND hi (inclusive). Inverted bounds are a
      // *planning* error (region_signature pins the diagnostic), not a
      // syntax error.
      advance();
      cond.cmp = Condition::Cmp::kBetween;
      cond.literal = parse_range_literal("BETWEEN lower bound");
      if (!at_keyword("AND")) {
        throw QueryError("expected 'AND' between BETWEEN bounds",
                         current().position);
      }
      advance();
      cond.literal2 = parse_range_literal("BETWEEN upper bound");
      return cond;
    }
    switch (current().kind) {
      case TokenKind::kLt: cond.cmp = Condition::Cmp::kLt; break;
      case TokenKind::kLe: cond.cmp = Condition::Cmp::kLe; break;
      case TokenKind::kGt: cond.cmp = Condition::Cmp::kGt; break;
      case TokenKind::kGe: cond.cmp = Condition::Cmp::kGe; break;
      default:
        throw QueryError("expected comparison operator", current().position);
    }
    advance();
    cond.literal = parse_range_literal("comparison literal");
    return cond;
  }

  Value parse_range_literal(const char* what) {
    const double lit = expect_number(what);
    if (lit < 0.0 || std::floor(lit) != lit) {
      throw QueryError(std::string(what) +
                           " must be a non-negative integer",
                       previous_position_);
    }
    // Past 2^63 a double no longer converts to Value. Such a literal lies
    // above every reading, as Value's maximum does, so saturating keeps
    // the region the query means.
    if (lit >= 0x1p63) return std::numeric_limits<Value>::max();
    return static_cast<Value>(lit);
  }

  std::vector<Token> tokens_;
  std::string text_;
  std::size_t pos_ = 0;
  std::size_t previous_position_ = 0;
};

}  // namespace

Query parse_query(const std::string& text) { return Parser(text).parse(); }

}  // namespace sensornet::query
