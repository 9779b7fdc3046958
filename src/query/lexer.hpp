// Tokenizer for the query language.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace sensornet::query {

/// Raised on any lexical or syntactic problem; carries a position.
class QueryError : public PreconditionError {
 public:
  QueryError(const std::string& what, std::size_t position)
      : PreconditionError(what + " (at offset " + std::to_string(position) +
                          ")"),
        position_(position) {}
  /// Rethrows `what`, a message that already names its position (a
  /// planner failure carries its QueryError's what()), without naming it
  /// again.
  static QueryError positioned(const std::string& what, std::size_t position) {
    return QueryError(what, position, Positioned{});
  }
  std::size_t position() const { return position_; }

 private:
  struct Positioned {};
  QueryError(const std::string& what, std::size_t position, Positioned)
      : PreconditionError(what), position_(position) {}

  std::size_t position_;
};

enum class TokenKind {
  kIdent,   // keywords are idents, matched case-insensitively by the parser
  kNumber,  // integer or decimal literal
  kLParen,
  kRParen,
  kComma,
  kSemicolon,
  kLt,      // <
  kLe,      // <=
  kGt,      // >
  kGe,      // >=
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // identifier spelled as written / number literal
  double number = 0.0;  // valid when kind == kNumber
  std::size_t position = 0;
};

/// Tokenizes `text`; the final token is always kEnd.
std::vector<Token> tokenize(const std::string& text);

}  // namespace sensornet::query
