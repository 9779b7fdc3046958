// Sample reduction and the one-line JSON result.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace servicebench {

/// Nearest-rank percentile (p in [0, 100]) of `xs`; 0 when empty.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples
/// beyond it (p99 needs >= 1000 samples).
inline double tail_percentile(std::size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// VmHWM of this process in MiB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  /// The benchmark's last stdout line.
  void print(std::ostream& os) const {
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
         << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}" << std::endl;
  }
};

}  // namespace servicebench
