#include "src/query/lexer.hpp"

#include <cctype>
#include <charconv>
#include <system_error>

namespace sensornet::query {

std::vector<Token> tokenize(const std::string& text) {
  std::vector<Token> out;
  std::size_t i = 0;
  const auto peek = [&](std::size_t off = 0) -> char {
    return i + off < text.size() ? text[i + off] : '\0';
  };
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token t;
    t.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_')) {
        ++j;
      }
      t.kind = TokenKind::kIdent;
      t.text = text.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::size_t j = i;
      bool seen_dot = false;
      while (j < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[j])) ||
              (text[j] == '.' && !seen_dot))) {
        if (text[j] == '.') seen_dot = true;
        ++j;
      }
      t.kind = TokenKind::kNumber;
      t.text = text.substr(i, j - i);
      // Overflow and underflow are client errors, not a library exception.
      if (std::from_chars(t.text.data(), t.text.data() + t.text.size(),
                          t.number)
              .ec != std::errc()) {
        throw QueryError("numeric literal out of range", i);
      }
      i = j;
    } else {
      switch (c) {
        case '(': t.kind = TokenKind::kLParen; ++i; break;
        case ')': t.kind = TokenKind::kRParen; ++i; break;
        case ',': t.kind = TokenKind::kComma; ++i; break;
        case ';': t.kind = TokenKind::kSemicolon; ++i; break;
        case '<':
          if (peek(1) == '=') {
            t.kind = TokenKind::kLe;
            i += 2;
          } else {
            t.kind = TokenKind::kLt;
            ++i;
          }
          break;
        case '>':
          if (peek(1) == '=') {
            t.kind = TokenKind::kGe;
            i += 2;
          } else {
            t.kind = TokenKind::kGt;
            ++i;
          }
          break;
        default:
          throw QueryError(std::string("unexpected character '") + c + "'",
                           i);
      }
    }
    out.push_back(std::move(t));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = text.size();
  out.push_back(end);
  return out;
}

}  // namespace sensornet::query
