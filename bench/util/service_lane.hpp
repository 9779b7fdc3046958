// Pieces shared by the continuous-query benches (exp_query_service and
// exp_cube): the reading domain, subscriber specs and their query text, and
// the answer-stream checksum their determinism lanes compare.
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "src/common/types.hpp"
#include "src/query/aggregate.hpp"
#include "src/service/engine.hpp"

namespace sensornet::bench {

/// Readings live in [0, kBound].
inline constexpr Value kBound = 1000;

/// One continuous subscriber.
struct ContinuousSpec {
  query::AggregateKind agg;
  Value lo, hi;  // region (0..kBound == whole domain)
  unsigned every;
  double error;  // 0 = exact subscriber
};

inline std::string spec_text(const ContinuousSpec& s) {
  using query::AggregateKind;
  std::ostringstream os;
  os << "SELECT ";
  switch (s.agg) {
    case AggregateKind::kCount: os << "COUNT"; break;
    case AggregateKind::kSum: os << "SUM"; break;
    case AggregateKind::kAvg: os << "AVG"; break;
    case AggregateKind::kMin: os << "MIN"; break;
    case AggregateKind::kMax: os << "MAX"; break;
    default: os << "COUNT"; break;
  }
  os << "(v) FROM s";
  if (s.lo != 0 || s.hi != kBound) {
    os << " WHERE v BETWEEN " << s.lo << " AND " << s.hi;
  }
  os << " EVERY " << s.every << " EPOCHS";
  if (s.error > 0.0) os << " ERROR " << s.error;
  return os.str();
}

/// FNV-1a over an answer stream: ids, epochs, values, bounds and flags.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void mix_u64(std::uint64_t v) { mix_bytes(&v, sizeof v); }
  void mix_answer(const service::Answer& a) {
    mix_u64(a.id);
    mix_u64(a.epoch);
    mix_u64(std::bit_cast<std::uint64_t>(a.value));
    mix_u64(std::bit_cast<std::uint64_t>(a.error_bound));
    mix_u64((a.exact ? 1u : 0u) | (a.from_cache ? 2u : 0u) |
            (a.empty_selection ? 4u : 0u));
  }
};

}  // namespace sensornet::bench
