// Exact in-memory mirror of every reading: the correctness oracle.
//
// Each answer the service returns is checked here, outside every timed span.
// Exact answers must equal the mirror's aggregate; deterministically bounded
// answers must contain it within error_bound. Statistical-only answers
// (approximate COUNT_DISTINCT) get a sanity band instead.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "gen.hpp"

namespace servicebench {

class Mirror {
 public:
  explicit Mirror(std::vector<Value> readings) : v_(std::move(readings)) {}

  const std::vector<Value>& readings() const { return v_; }

  void apply(std::span<const SensorUpdate> batch) {
    for (const SensorUpdate& u : batch) v_[u.node] = u.value;
  }

  /// True when `a` is a correct answer to `s` over the current readings.
  bool check(const QuerySpec& s, const sensornet::service::Answer& a) const {
    std::vector<Value> in;
    in.reserve(v_.size());
    for (Value x : v_) {
      if (x >= s.lo && x <= s.hi) in.push_back(x);
    }
    const double bound = a.error_bound;
    if (in.empty()) {
      // COUNT/SUM of nothing is 0; the rest must be flagged empty.
      if (s.agg == Agg::kCount || s.agg == Agg::kSum) {
        return std::abs(a.value) <= bound;
      }
      return a.empty_selection || bound > 0.0;
    }
    if (a.empty_selection) return false;
    double truth = 0.0;
    switch (s.agg) {
      case Agg::kCount: truth = static_cast<double>(in.size()); break;
      case Agg::kSum: truth = sum(in); break;
      case Agg::kAvg: truth = sum(in) / static_cast<double>(in.size()); break;
      case Agg::kMin: truth = *std::min_element(in.begin(), in.end()); break;
      case Agg::kMax: truth = *std::max_element(in.begin(), in.end()); break;
      case Agg::kMedian: {
        // OS(X, N/2): the ceil(N/2)-th smallest reading.
        const std::size_t k = (in.size() + 1) / 2 - 1;
        std::nth_element(in.begin(), in.begin() + static_cast<long>(k), in.end());
        truth = in[k];
        break;
      }
      case Agg::kDistinct: {
        std::sort(in.begin(), in.end());
        truth = static_cast<double>(
            std::unique(in.begin(), in.end()) - in.begin());
        if (!a.exact) {
          // Sanity only: a small-register HLL at low cardinality can be off
          // by well over its asymptotic ~13%, so the band is a factor of 2.5.
          return a.value <= 2.5 * truth + 2.0 && 2.5 * a.value + 2.0 >= truth;
        }
        break;
      }
    }
    const double slack = 1e-9 * std::max(1.0, std::abs(truth));
    return std::abs(a.value - truth) <= bound + slack;
  }

 private:
  static double sum(const std::vector<Value>& xs) {
    std::int64_t s = 0;
    for (Value x : xs) s += x;
    return static_cast<double>(s);
  }

  std::vector<Value> v_;
};

/// FNV-1a over the answer stream and admission outcomes.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    mix_u64(bits);
  }
  void mix_answer(const sensornet::service::Answer& a) {
    mix_u64(a.id);
    mix_u64(a.epoch);
    mix_double(a.value);
    mix_double(a.error_bound);
    mix_u64((a.exact ? 1u : 0u) | (a.from_cache ? 2u : 0u) |
            (a.empty_selection ? 4u : 0u));
  }
};

}  // namespace servicebench
