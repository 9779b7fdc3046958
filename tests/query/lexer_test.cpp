#include "src/query/lexer.hpp"

#include <gtest/gtest.h>

#include <string>

namespace sensornet::query {
namespace {

TEST(Lexer, EmptyInput) {
  const auto toks = tokenize("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, TokenKind::kEnd);
}

TEST(Lexer, IdentifiersAndNumbers) {
  const auto toks = tokenize("SELECT median_2 0.25 42");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[1].text, "median_2");
  EXPECT_EQ(toks[2].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(toks[2].number, 0.25);
  EXPECT_DOUBLE_EQ(toks[3].number, 42.0);
}

TEST(Lexer, OutOfRangeLiteralsAreQueryErrors) {
  // A literal no double holds is a client error at its offset, never a
  // library exception escaping admission.
  const std::string huge = "1" + std::string(400, '0');
  const std::string tiny = "0." + std::string(400, '0') + "1";
  for (const std::string& lit : {huge, tiny}) {
    try {
      tokenize("v > " + lit);
      ADD_FAILURE() << "accepted a " << lit.size() << "-digit literal";
    } catch (const QueryError& e) {
      EXPECT_NE(std::string(e.what()).find("numeric literal out of range"),
                std::string::npos);
      EXPECT_EQ(e.position(), 4u);
    }
  }
  // Long literals that do fit still lex.
  const auto toks = tokenize("1" + std::string(300, '0') + " .5 5.");
  EXPECT_DOUBLE_EQ(toks[0].number, 1e300);
  EXPECT_DOUBLE_EQ(toks[1].number, 0.5);
  EXPECT_DOUBLE_EQ(toks[2].number, 5.0);
}

TEST(Lexer, PunctuationAndOperators) {
  const auto toks = tokenize("(a, b) < <= > >= ;");
  std::vector<TokenKind> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kLParen, TokenKind::kIdent, TokenKind::kComma,
                TokenKind::kIdent, TokenKind::kRParen, TokenKind::kLt,
                TokenKind::kLe, TokenKind::kGt, TokenKind::kGe,
                TokenKind::kSemicolon, TokenKind::kEnd}));
}

TEST(Lexer, PositionsTracked) {
  const auto toks = tokenize("abc  42");
  EXPECT_EQ(toks[0].position, 0u);
  EXPECT_EQ(toks[1].position, 5u);
}

TEST(Lexer, LeadingDotNumber) {
  const auto toks = tokenize(".5");
  EXPECT_EQ(toks[0].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(toks[0].number, 0.5);
}

TEST(Lexer, UnexpectedCharacterThrows) {
  EXPECT_THROW(tokenize("SELECT @"), QueryError);
  try {
    tokenize("SELECT @");
    FAIL();
  } catch (const QueryError& e) {
    EXPECT_EQ(e.position(), 7u);
  }
}

TEST(Lexer, WhitespaceInsensitive) {
  const auto a = tokenize("a<b");
  const auto b = tokenize("  a  <  b  ");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
}

}  // namespace
}  // namespace sensornet::query
