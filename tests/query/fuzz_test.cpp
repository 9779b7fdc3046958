// Seeded grammar fuzz lane: random token soup, truncations and byte
// mutations of valid query texts (long digit runs included) go through
// parse_query and Planner::plan. Every input must end in a value or a
// QueryError — the service forwards QueryErrors to clients, and any other
// exception would escape admission and lose a whole submit_batch burst. A
// planned region must lie inside the value domain.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/query/lexer.hpp"
#include "src/query/parser.hpp"
#include "src/query/planner.hpp"

namespace sensornet::query {
namespace {

constexpr Value kBound = 1000;

const std::vector<std::string> kValid = {
    "SELECT COUNT(v) FROM s",
    "SELECT SUM(v) FROM s WHERE v BETWEEN 100 AND 600 ERROR 0.1",
    "SELECT AVG(v) FROM s WHERE v < 250 EVERY 2 EPOCHS",
    "SELECT MIN(v) FROM s WHERE v >= 40 EVERY 1 EPOCH ERROR 0.5",
    "SELECT MAX(v) FROM s WHERE v > 999;",
    "SELECT MEDIAN(v) FROM s ERROR 0.01 CONFIDENCE 0.9",
    "SELECT QUANTILE(v, 0.9) FROM s WHERE v <= 700",
    "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 0 AND 1000 ERROR 0.15",
};

const std::vector<std::string> kTokens = {
    "SELECT", "FROM",  "WHERE", "BETWEEN", "AND",        "EVERY",
    "EPOCHS", "EPOCH", "ERROR", "CONFIDENCE", "COUNT",   "SUM",
    "AVG",    "MIN",   "MAX",   "MEDIAN",  "QUANTILE",   "COUNT_DISTINCT",
    "v",      "s",     "(",     ")",       ",",          ";",
    "<",      "<=",    ">",     ">=",      "-",          ".",
};

/// A numeric literal: small, fractional, or a long digit run that no
/// double (or no Value) holds.
std::string number(Xoshiro256& rng) {
  switch (rng.next_below(5)) {
    case 0: return std::to_string(rng.next_below(2000));
    case 1: return "0." + std::to_string(rng.next_below(1000));
    case 2: {
      std::string huge = "1";
      huge.append(1 + rng.next_below(400), '0');
      return huge;
    }
    case 3: {
      std::string tiny = "0.";
      tiny.append(1 + rng.next_below(400), '0');
      return tiny + "7";
    }
    default: return std::string(1 + rng.next_below(40), '9');
  }
}

std::string token_soup(Xoshiro256& rng) {
  std::string text;
  for (auto n = rng.next_below(16); n > 0; --n) {
    text += rng.next_below(4) == 0 ? number(rng)
                                   : kTokens[rng.next_below(kTokens.size())];
    text += ' ';
  }
  return text;
}

/// `text` with `piece` inserted at `at` (built piecewise: GCC 12's
/// -Wrestrict misfires on std::string::insert here).
std::string splice(const std::string& text, std::size_t at,
                   const std::string& piece) {
  std::string out(text, 0, at);
  out += piece;
  out.append(text, at);
  return out;
}

std::string mutate(Xoshiro256& rng, std::string text) {
  for (auto n = 1 + rng.next_below(4); n > 0; --n) {
    const std::size_t at = rng.next_below(text.size() + 1);
    switch (rng.next_below(4)) {
      case 0:  // overwrite with any byte
        if (at < text.size()) {
          text[at] = static_cast<char>(rng.next_below(256));
        }
        break;
      case 1:  // insert a digit run
        text = splice(text, at,
                      std::string(1 + rng.next_below(400),
                                  static_cast<char>('0' + rng.next_below(10))));
        break;
      case 2:  // delete a span
        text.erase(at, rng.next_below(8));
        break;
      default:  // splice in a token
        text = splice(text, at, kTokens[rng.next_below(kTokens.size())]);
    }
  }
  return text;
}

/// Runs one input through the front half; counts what it ended in.
struct Outcome {
  std::uint64_t planned = 0;
  std::uint64_t rejected = 0;
};

void feed(const Planner& planner, const std::string& text, Outcome& out) {
  try {
    const Result<CostedPlan> plan = planner.plan(parse_query(text));
    if (!plan.ok()) {
      ++out.rejected;
      return;
    }
    const RegionSignature& r = plan.value().region;
    EXPECT_TRUE(0 <= r.lo && r.lo <= r.hi && r.hi <= kBound)
        << text << " planned [" << r.lo << ", " << r.hi << "]";
    ++out.planned;
  } catch (const QueryError&) {
    ++out.rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "'" << text << "' threw a non-QueryError: " << e.what();
  }
}

TEST(GrammarFuzz, EveryInputEndsInAPlanOrAQueryError) {
  const Planner planner(kBound);
  Outcome out;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Xoshiro256 rng(seed);
    for (int i = 0; i < 2000; ++i) feed(planner, token_soup(rng), out);
    for (const std::string& text : kValid) {
      for (std::size_t n = 0; n <= text.size(); ++n) {
        feed(planner, text.substr(0, n), out);
      }
      for (int i = 0; i < 200; ++i) feed(planner, mutate(rng, text), out);
    }
  }
  // The lane reaches both outcomes, not only the error path.
  EXPECT_GT(out.planned, 100u);
  EXPECT_GT(out.rejected, 1000u);
}

}  // namespace
}  // namespace sensornet::query
