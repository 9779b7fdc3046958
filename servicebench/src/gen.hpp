// Seeded input generators for the service benchmark.
//
// Everything the program under test receives — query texts, update batches,
// initial readings — is made here from the --seed argument, with the
// benchmark's own RNG, so a change to the program's generators never changes
// the benchmark's inputs. The same seed always gives the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/service/engine.hpp"

namespace servicebench {

using sensornet::NodeId;
using sensornet::Value;
using sensornet::service::SensorUpdate;

/// Readings live in [0, kBound]; the service's drift model allows |delta| <=
/// kMaxDelta per epoch (ServiceConfig's default max_delta).
inline constexpr Value kBound = 1000;
inline constexpr Value kMaxDelta = 4;

/// splitmix64: small, fast, and fully defined here.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  /// An independent stream for (seed, stream).
  static Rng stream(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t s_;
};

enum class Agg { kCount, kSum, kAvg, kMin, kMax, kMedian, kDistinct };

const char* agg_keyword(Agg a);

/// One query as the generator meant it. `valid` is false for texts the
/// service must reject (malformed syntax or a degenerate WHERE region).
struct QuerySpec {
  Agg agg = Agg::kCount;
  Value lo = 0;
  Value hi = kBound;
  unsigned every = 0;  // 0 = one-shot
  double error = 0.0;  // 0 = no ERROR clause
  bool valid = true;
  std::string text;
};

/// Renders spec.text from the other fields.
void render(QuerySpec& spec);

bool whole_domain(const QuerySpec& s);

// ---- workloads -------------------------------------------------------------

/// standing_shared: 4 overlapping regions x 4 subscribers, stats family,
/// one region carrying two exact subscribers (forcing fresh collections),
/// the rest ERROR-tolerant.
std::vector<QuerySpec> shared_subscribers();

/// standing_cube: whole-domain, dyadic-aligned and unaligned stats
/// subscribers, plus two approximate COUNT_DISTINCT ... ERROR 0.15.
std::vector<QuerySpec> cube_subscribers();

/// n readings in [0, kBound] distributed as kBound * U^skew (skew 1 is
/// uniform; larger puts most mass low with a long tail to kBound).
std::vector<Value> readings(Rng& rng, std::size_t n, int skew);

/// One epoch's drift: each node moves with probability `fraction` by a
/// nonzero delta in [-kMaxDelta, kMaxDelta] (clamped to the domain).
/// `fraction` = 1 is a dense tick. `mirror` is not modified.
std::vector<SensorUpdate> drift_batch(Rng& rng, const std::vector<Value>& mirror,
                                      double fraction);

/// oneshot_churn's query stream: Zipf-skewed regions over a seeded
/// catalogue, the COUNT/SUM/AVG/MIN/MAX/MEDIAN/COUNT_DISTINCT mix, about one
/// text in ten malformed or degenerate, and continuous registrations.
class OneShotStream {
 public:
  OneShotStream(std::uint64_t seed, std::size_t catalogue);
  /// One burst of `size` texts; at most one is a continuous registration.
  std::vector<QuerySpec> burst(std::size_t size);

 private:
  QuerySpec one_shot();
  QuerySpec broken();
  std::size_t region_index();

  Rng rng_;
  std::vector<std::pair<Value, Value>> regions_;
  std::vector<double> cdf_;  // Zipf(1) over region ranks
};

}  // namespace servicebench
