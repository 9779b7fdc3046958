#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <tuple>
#include <sstream>

namespace servicebench {

namespace {

/// The catalogue is part of the workload's shape, not of its seed.
constexpr std::uint64_t kCatalogueSeed = 0x5e4505;
constexpr double kTolerances[] = {0.05, 0.1, 0.15, 0.2};
/// Aggregates of oneshot_churn's continuous registrations.
constexpr Agg kContinuousAggs[] = {Agg::kCount, Agg::kSum, Agg::kAvg};

QuerySpec subscriber(Agg agg, Value lo, Value hi, unsigned every,
                     double error) {
  QuerySpec s;
  s.agg = agg;
  s.lo = lo;
  s.hi = hi;
  s.every = every;
  s.error = error;
  render(s);
  return s;
}

// The subscriber mixes and the region catalogue are fixed: seeds vary the
// readings, the drift and the query stream drawn from the catalogue, not the
// workload's shape. Drawing the shape from the seed would make runs of
// different seeds measure different workloads (cache hit patterns hinge on
// region edges and tolerances).
std::vector<QuerySpec> subscribers(
    std::initializer_list<std::tuple<Agg, Value, Value, unsigned, double>> ts) {
  std::vector<QuerySpec> out;
  for (const auto& [agg, lo, hi, every, error] : ts) {
    out.push_back(subscriber(agg, lo, hi, every, error));
  }
  return out;
}

}  // namespace

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed ^ (0x9e3779b97f4a7c15ull * (stream + 1)));
  return Rng(mix.next());
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const char* agg_keyword(Agg a) {
  switch (a) {
    case Agg::kCount: return "COUNT";
    case Agg::kSum: return "SUM";
    case Agg::kAvg: return "AVG";
    case Agg::kMin: return "MIN";
    case Agg::kMax: return "MAX";
    case Agg::kMedian: return "MEDIAN";
    case Agg::kDistinct: return "COUNT_DISTINCT";
  }
  return "COUNT";
}

bool whole_domain(const QuerySpec& s) { return s.lo == 0 && s.hi == kBound; }

void render(QuerySpec& spec) {
  std::ostringstream os;
  os << "SELECT " << agg_keyword(spec.agg) << "(v) FROM s";
  if (!whole_domain(spec)) {
    os << " WHERE v BETWEEN " << spec.lo << " AND " << spec.hi;
  }
  if (spec.every != 0) os << " EVERY " << spec.every << " EPOCHS";
  if (spec.error > 0.0) os << " ERROR " << spec.error;
  spec.text = os.str();
}

std::vector<QuerySpec> shared_subscribers() {
  return subscribers({
      // Region A: the whole domain, the cache's home turf.
      {Agg::kCount, 0, kBound, 1, 0.0},
      {Agg::kSum, 0, kBound, 1, 0.1},
      {Agg::kAvg, 0, kBound, 2, 0.1},
      {Agg::kMax, 0, kBound, 3, 0.05},
      // Regions B and C overlap D and each other.
      {Agg::kSum, 100, 600, 1, 0.15},
      {Agg::kAvg, 100, 600, 1, 0.15},
      {Agg::kMin, 100, 600, 2, 0.1},
      {Agg::kCount, 100, 600, 3, 0.1},
      {Agg::kMax, 250, 750, 1, 0.1},
      {Agg::kMin, 250, 750, 1, 0.1},
      {Agg::kSum, 250, 750, 2, 0.2},
      {Agg::kAvg, 250, 750, 3, 0.2},
      // Region D: two exact subscribers force fresh collections.
      {Agg::kSum, 400, 900, 1, 0.0},
      {Agg::kCount, 400, 900, 2, 0.0},
      {Agg::kMax, 400, 900, 2, 0.05},
      {Agg::kAvg, 400, 900, 3, 0.1},
  });
}

std::vector<QuerySpec> cube_subscribers() {
  return subscribers({
      // Whole domain: one incrementally fresh root cell serves them all.
      {Agg::kCount, 0, kBound, 1, 0.0},
      {Agg::kSum, 0, kBound, 2, 0.0},
      {Agg::kSum, 0, kBound, 1, 0.1},
      {Agg::kAvg, 0, kBound, 1, 0.1},
      {Agg::kMax, 0, kBound, 3, 0.05},
      // Dyadic-aligned: exactly one maintained cell each.
      {Agg::kSum, 0, 499, 2, 0.0},
      {Agg::kCount, 0, 499, 1, 0.15},
      {Agg::kAvg, 0, 499, 2, 0.15},
      {Agg::kSum, 500, kBound, 1, 0.15},
      {Agg::kCount, 250, 499, 1, 0.15},
      {Agg::kMin, 750, kBound, 3, 0.2},
      // Unaligned: covers need residue collections at the ends.
      {Agg::kSum, 100, 580, 3, 0.2},
      {Agg::kCount, 60, 330, 2, 0.15},
      {Agg::kAvg, 300, 640, 3, 0.15},
      {Agg::kMax, 120, 410, 2, 0.1},
      {Agg::kCount, 730, 900, 3, 0.2},
      // Approximate distinct over the cube's 64-register HLL partials.
      {Agg::kDistinct, 0, kBound, 2, 0.15},
      {Agg::kDistinct, 0, 499, 3, 0.15},
  });
}

std::vector<Value> readings(Rng& rng, std::size_t n, int skew) {
  // Stratified: one draw per n-quantile, then shuffled over the nodes. The
  // value distribution is nearly the same for every seed; the seed moves
  // which node holds which value.
  std::vector<Value> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
    v[i] = std::min<Value>(kBound, static_cast<Value>(std::pow(u, skew) * (kBound + 1)));
  }
  for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  return v;
}

std::vector<SensorUpdate> drift_batch(Rng& rng, const std::vector<Value>& mirror,
                                      double fraction) {
  std::vector<SensorUpdate> batch;
  batch.reserve(static_cast<std::size_t>(mirror.size() * fraction) + 8);
  for (std::size_t u = 0; u < mirror.size(); ++u) {
    if (fraction < 1.0 && !rng.chance(fraction)) continue;
    Value delta = static_cast<Value>(1 + rng.below(kMaxDelta));
    if (rng.chance(0.5)) delta = -delta;
    // Reflect at the rails so every drift is a real change.
    if (mirror[u] + delta < 0 || mirror[u] + delta > kBound) delta = -delta;
    batch.push_back(SensorUpdate{static_cast<NodeId>(u), mirror[u] + delta});
  }
  return batch;
}

// ---- oneshot_churn -----------------------------------------------------------

OneShotStream::OneShotStream(std::uint64_t seed, std::size_t catalogue)
    : rng_(Rng::stream(seed, 7)) {
  Rng fixed(kCatalogueSeed);
  regions_.emplace_back(0, kBound);
  while (regions_.size() < catalogue) {
    const Value lo = static_cast<Value>(fixed.below(800));
    const Value width = static_cast<Value>(120 + fixed.below(480));
    regions_.emplace_back(lo, std::min<Value>(kBound, lo + width));
  }
  double acc = 0.0;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    acc += 1.0 / static_cast<double>(r + 1);
    cdf_.push_back(acc);
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t OneShotStream::region_index() {
  const double u = rng_.uniform();
  const auto i = static_cast<std::size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, regions_.size() - 1);
}

QuerySpec OneShotStream::one_shot() {
  QuerySpec s;
  const double u = rng_.uniform();
  s.agg = u < 0.2    ? Agg::kCount
          : u < 0.4  ? Agg::kSum
          : u < 0.55 ? Agg::kAvg
          : u < 0.65 ? Agg::kMin
          : u < 0.75 ? Agg::kMax
          : u < 0.85 ? Agg::kMedian
                     : Agg::kDistinct;
  const auto [lo, hi] = regions_[region_index()];
  s.lo = lo;
  s.hi = hi;
  // ERROR only where the relative bound is well-behaved: MIN/MAX over a
  // region near 0 would divide a drift bound by a value of 1 or 2 and make
  // mean_rel_bound hinge on a handful of answers. (Continuous registrations
  // in burst() stay exact for the same reason.)
  if (s.agg == Agg::kDistinct) {
    if (rng_.chance(0.5)) s.error = 0.15;
  } else if (s.agg == Agg::kCount || s.agg == Agg::kSum || s.agg == Agg::kAvg) {
    s.error = kTolerances[rng_.below(4)];
  }
  render(s);
  return s;
}

QuerySpec OneShotStream::broken() {
  QuerySpec s;
  s.valid = false;
  const Value a = static_cast<Value>(rng_.below(kBound));
  switch (rng_.below(6)) {
    case 0: s.text = "SELECT SUM(v) FROM"; break;
    case 1: s.text = "SELECT COUNT(v) s WHERE v > " + std::to_string(a); break;
    case 2: s.text = "SELECT AVG(v) FROM s ERROR"; break;
    case 3:  // inverted BETWEEN: degenerate
      s.text = "SELECT COUNT(v) FROM s WHERE v BETWEEN " +
               std::to_string(a + 1) + " AND " + std::to_string(a);
      break;
    case 4:  // above the domain: degenerate
      s.text = "SELECT MAX(v) FROM s WHERE v > " + std::to_string(kBound + a);
      break;
    default:  // below the domain: degenerate
      s.text = "SELECT MIN(v) FROM s WHERE v < 0";
      break;
  }
  return s;
}

std::vector<QuerySpec> OneShotStream::burst(std::size_t size) {
  std::vector<QuerySpec> out;
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (rng_.chance(0.1)) {
      out.push_back(broken());
    } else if (i == 0 && rng_.chance(0.5)) {
      // Continuous registration over a catalogue region.
      QuerySpec s;
      s.agg = kContinuousAggs[rng_.below(3)];
      const auto [lo, hi] = regions_[region_index()];
      s.lo = lo;
      s.hi = hi;
      s.every = 1 + static_cast<unsigned>(rng_.below(3));
      render(s);
      out.push_back(std::move(s));
    } else {
      out.push_back(one_shot());
    }
  }
  return out;
}

}  // namespace servicebench
