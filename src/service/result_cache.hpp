// Result cache with deterministic error bounds (the PASS idea).
//
// The query service collects, per bundle-path key, a *stats bundle*
// (cube::StatsBundle): COUNT/SUM/MIN/MAX over the query region plus the same
// four aggregates over a margin-shrunk ("inner") and margin-grown ("outer")
// copy of the region. Under the model's drift assumption — a sensor's
// reading moves by at most `max_delta` per epoch and stays in
// [0, max_value_bound] — a bundle frozen at epoch t still brackets the
// *current* aggregate at epoch t + s. An entry is one part of
// cube::BracketComposer at drift s * max_delta (one home of the bracket
// arithmetic, shared with the cube's per-cell brackets and the service's
// exact answers); this file is the region-keyed store and the hit/miss
// policy on top of it.
//
// A lookup is a *hit* when the bracket's half-width satisfies the query's
// requested ERROR tolerance (interpreted relative to the answer); queries
// without ERROR only hit when the bound is exactly zero: at staleness 0 (a
// repeat within the entry's epoch, ranged or not), with max_delta 0, or for
// whole-domain COUNT. Hits are answered without touching the network —
// zero bits.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "src/common/types.hpp"
#include "src/cube/stats.hpp"
#include "src/query/aggregate.hpp"
#include "src/query/plan.hpp"

namespace sensornet::service {

// The stats primitives moved to src/cube in PR 10; these aliases keep the
// service's vocabulary (collections produce bundles, caches store them).
using cube::RangeStats;
using cube::StatsBundle;

/// A cache-served answer: the frozen aggregate plus the deterministic bound
/// on its distance from the exact current answer.
using CachedAnswer = cube::BracketedAnswer;

/// Monotonic outcome counters since construction. Every hit is a zero-bit
/// answer (served without touching the network); `exact_hits` is the
/// bound == 0 subset. `hits` counts only lookup() successes — probe(), the
/// service's planning pass, never counts a hit — so hits equals answers
/// actually served from the cache.
struct CacheCounters {
  std::uint64_t probes = 0;      // probe() calls
  std::uint64_t lookups = 0;     // lookup() calls
  std::uint64_t hits = 0;        // lookup() served an answer
  std::uint64_t exact_hits = 0;  // ... with bound == 0
  std::uint64_t misses = 0;      // bracket exists but exceeds the tolerance
  std::uint64_t expired = 0;     // entry older than the bracketing horizon
  std::uint64_t absent = 0;      // no entry for the region at all
};

class ResultCache {
 public:
  /// `horizon_epochs` is the margin the collector used (M = horizon *
  /// max_delta): entries older than that cannot bracket ranged regions and
  /// expire for them.
  ResultCache(Value max_value_bound, Value max_delta,
              std::uint32_t horizon_epochs, std::size_t capacity = 1024);

  /// Installs / refreshes the entry for `region` as of `epoch`.
  void store(const query::RegionSignature& region, std::uint32_t epoch,
             const StatsBundle& bundle);

  /// Bound-checked lookup: returns an answer only when the deterministic
  /// bound satisfies `epsilon` (relative tolerance; absent means "exact
  /// required"). Never serves MEDIAN/QUANTILE/COUNT_DISTINCT — those
  /// aggregates are not bracketable from a stats bundle. Counts a hit (or
  /// the failure's kind) — call it only when a success will actually be
  /// served to a query.
  std::optional<CachedAnswer> lookup(const query::RegionSignature& region,
                                     query::AggregateKind agg,
                                     std::optional<double> epsilon,
                                     std::uint32_t now_epoch) const;

  /// Same answer as lookup(), but a success counts nothing: the service's
  /// planning pass probes due queries to decide which keys go fresh, and a
  /// later query of the same key can send it fresh after this one's probe
  /// succeeded. Failures still classify (miss/expired/absent) — a failed
  /// probe IS the reason bits get spent.
  std::optional<CachedAnswer> probe(const query::RegionSignature& region,
                                    query::AggregateKind agg,
                                    std::optional<double> epsilon,
                                    std::uint32_t now_epoch) const;

  /// The raw bracket (no epsilon gate) — what lookup() compares against the
  /// tolerance.
  std::optional<CachedAnswer> bracket(const query::RegionSignature& region,
                                      query::AggregateKind agg,
                                      std::uint32_t now_epoch) const;

  std::size_t size() const { return entries_.size(); }
  const CacheCounters& counters() const { return counters_; }

 private:
  struct Entry {
    std::uint32_t epoch = 0;
    StatsBundle bundle;
  };

  /// True when `e` is too stale to bracket `region` at `now_epoch`.
  bool expired(const query::RegionSignature& region, const Entry& e,
               std::uint32_t now_epoch) const;
  /// The bracket of a live entry (nullopt: not bracketable).
  std::optional<CachedAnswer> compose(const query::RegionSignature& region,
                                      const Entry& e, query::AggregateKind agg,
                                      std::uint32_t now_epoch) const;
  /// Shared classify path behind lookup() and probe(): one map lookup and
  /// one horizon test.
  std::optional<CachedAnswer> check(const query::RegionSignature& region,
                                    query::AggregateKind agg,
                                    std::optional<double> epsilon,
                                    std::uint32_t now_epoch,
                                    bool count_hit) const;

  Value max_value_bound_;
  Value max_delta_;
  std::uint32_t horizon_epochs_;
  std::size_t capacity_;
  // Outcome telemetry is observability, not state: const lookups may count.
  mutable CacheCounters counters_;
  std::map<query::RegionSignature, Entry> entries_;
};

}  // namespace sensornet::service
