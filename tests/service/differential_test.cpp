// Seeded differential test of the whole service against an exact mirror.
//
// Each seed draws one script — submits (COUNT/SUM/AVG/MIN/MAX, with and
// without WHERE, ERROR and EVERY), one-shot bursts through submit_batch
// (keys repeat within a burst, and one text is malformed), cancels, and
// update batches that obey the drift model — and replays it on every
// service configuration: naive, shared, shared + cache, cube, cube +
// cache, and the cube (with and without cache) at other resolutions: one
// level, where every ranged cube plan is a residue, so one-shot residue
// waves run in every script, and seven. The cube configurations keep
// 64-register HLL partials. The scripts run on a grid, and on a random
// geometric deployment of as many nodes whose BFS root has more than
// net::kAggregationFanIn neighbours, so the service aggregates over a tree
// it rebuilt. Every
// configuration also gets COUNT_DISTINCT submits, exact and ERROR 0.15,
// and exact MEDIAN and QUANTILE submits, one-shot and standing, with and
// without WHERE; one selection is over a region that selects nothing.
// Every configuration must
//   - answer exact answers with the mirror's value, and flag every empty
//     selection of an aggregate that is undefined on it,
//   - contain the mirror's value in every deterministically bounded answer,
//   - answer every exact COUNT_DISTINCT with the mirror's distinct count
//     over the region, and every COUNT_DISTINCT ... ERROR 0.15 with exactly
//     the estimate of a one-shot HLL (64 registers, salt 1) over it,
//   - account for every bit and message on the air: query, mark and
//     group-install ledgers add up to the network total after every epoch.
// An enrolment-churn script (continuous subscribers over EVERY 1, 2 and 3,
// stats and COUNT_DISTINCT ... ERROR 0.15, that are cancelled and
// subscribed again, some in one batch, with quiet epochs and a whole-domain
// group) replays on shared, shared + cache, cube and cube + cache at 1, 2
// and 8 workers, which must give one answer stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/net/topology.hpp"
#include "src/service/engine.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::service {
namespace {

constexpr Value kBound = 1000;
constexpr Value kMaxDelta = 4;  // the ServiceConfig default
constexpr unsigned kSide = 7;
constexpr NodeId kNodes = kSide * kSide;
constexpr std::uint32_t kEpochs = 16;
constexpr unsigned kDistinctRegisters = 64;  // what ERROR 0.15 sizes to

/// One submitted query: its text and what the mirror needs to check it.
struct Submit {
  std::string text;
  query::AggregateKind agg = query::AggregateKind::kCount;
  Value lo = 0, hi = kBound;
  double phi = 0.5;        // QUANTILE's rank fraction
  bool sketch = false;     // COUNT_DISTINCT ... ERROR 0.15
  bool malformed = false;  // admission must refuse it
};

/// One epoch of the script: submits, a one-shot burst and cancels (by
/// submission index, so the same query in every configuration), then the
/// update batch.
struct Step {
  std::vector<Submit> submits;
  std::vector<Submit> distinct;  // COUNT_DISTINCT, exact or ERROR 0.15
  std::vector<Submit> selections;  // exact MEDIAN / QUANTILE
  std::vector<Submit> burst;  // one submit_batch call; may be empty
  std::vector<std::size_t> cancels;
  std::vector<SensorUpdate> updates;
};

struct Script {
  std::vector<Value> initial;
  std::vector<Step> steps;
};

Script draw_script(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Script script;
  script.initial.resize(kNodes);
  for (Value& v : script.initial) v = static_cast<Value>(rng.next_below(400));

  // A few shared regions, so keys collide: whole domain, cube-aligned
  // cells, and unaligned ranges that need residues.
  const std::vector<std::pair<Value, Value>> regions{
      {0, kBound}, {0, 499}, {100, 300}, {150, 260}, {37, 213}, {250, kBound}};
  const query::AggregateKind aggs[] = {
      query::AggregateKind::kCount, query::AggregateKind::kSum,
      query::AggregateKind::kAvg, query::AggregateKind::kMin,
      query::AggregateKind::kMax};
  const char* errors[] = {nullptr, "0.1", "0.5"};

  // Drift near the model's worst case, so loose bounds show: most nodes
  // keep moving the full max_delta in one direction, upward more often
  // than not, turning back at the rails.
  // `every` = 0 draws a one-shot.
  const auto draw_submit = [&](Xoshiro256& r, std::pair<Value, Value> region,
                               std::uint64_t every) {
    Submit s;
    s.agg = aggs[r.next_below(5)];
    std::tie(s.lo, s.hi) = region;
    std::ostringstream os;
    os << "SELECT " << query::agg_name(s.agg) << "(v) FROM s";
    if (s.lo != 0 || s.hi != kBound) {
      os << " WHERE v BETWEEN " << s.lo << " AND " << s.hi;
    }
    if (every != 0) os << " EVERY " << every << " EPOCHS";
    if (const char* err = errors[r.next_below(3)]) os << " ERROR " << err;
    s.text = os.str();
    return s;
  };
  // Bursts, COUNT_DISTINCT and selection submits draw from their own
  // streams, so the rest of the script is the same with or without them.
  Xoshiro256 burst_rng(seed + 1000);
  Xoshiro256 distinct_rng(seed + 2000);
  Xoshiro256 select_rng(seed + 3000);
  // Readings start below 400 and drift at most 4 per epoch: [900, 950]
  // selects nothing.
  std::vector<std::pair<Value, Value>> select_regions = regions;
  select_regions.emplace_back(900, 950);

  std::vector<Value> mirror = script.initial;
  std::vector<Value> direction(kNodes);
  for (Value& d : direction) d = rng.next_bool(0.7) ? 1 : -1;
  std::size_t submitted = 0;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    Step step;
    for (auto k = rng.next_below(5); k > 0; --k) {
      const auto region = regions[rng.next_below(regions.size())];
      const std::uint64_t every =
          rng.next_below(4) != 0 ? 1 + rng.next_below(3) : 0;
      step.submits.push_back(draw_submit(rng, region, every));
    }
    if (burst_rng.next_bool(0.5)) {
      // Two or three regions for five to seven texts: keys repeat.
      const std::size_t keys = 2 + burst_rng.next_below(2);
      std::vector<std::pair<Value, Value>> picked;
      for (std::size_t k = 0; k < keys; ++k) {
        picked.push_back(regions[burst_rng.next_below(regions.size())]);
      }
      for (auto k = 5 + burst_rng.next_below(3); k > 0; --k) {
        step.burst.push_back(draw_submit(
            burst_rng, picked[burst_rng.next_below(keys)], /*every=*/0));
      }
      Submit bad;
      bad.text = "SELECT SUM(v) FROM s WHERE v BETWEEN";
      bad.malformed = true;
      step.burst.insert(
          step.burst.begin() +
              static_cast<std::ptrdiff_t>(
                  burst_rng.next_below(step.burst.size() + 1)),
          bad);
    }
    // Every script has an approximate COUNT_DISTINCT at epoch 0 and an
    // exact one at epoch 1.
    for (const bool sketch : {true, false}) {
      if (e != (sketch ? 0u : 1u) && !distinct_rng.next_bool(0.3)) continue;
      Submit d;
      d.agg = query::AggregateKind::kCountDistinct;
      d.sketch = sketch;
      std::tie(d.lo, d.hi) = regions[distinct_rng.next_below(regions.size())];
      std::ostringstream os;
      os << "SELECT COUNT_DISTINCT(v) FROM s";
      if (d.lo != 0 || d.hi != kBound) {
        os << " WHERE v BETWEEN " << d.lo << " AND " << d.hi;
      }
      if (distinct_rng.next_below(3) != 0) {
        os << " EVERY " << 1 + distinct_rng.next_below(3) << " EPOCHS";
      }
      if (sketch) os << " ERROR 0.15";
      d.text = os.str();
      step.distinct.push_back(d);
    }
    if (e == 0 || select_rng.next_bool(0.5)) {
      // The first selection of every script is over the empty region.
      Submit q;
      std::tie(q.lo, q.hi) =
          e == 0 ? select_regions.back()
                 : select_regions[select_rng.next_below(select_regions.size())];
      std::ostringstream os;
      if (select_rng.next_bool(0.5)) {
        q.agg = query::AggregateKind::kMedian;
        os << "SELECT MEDIAN(v) FROM s";
      } else {
        const double phis[] = {0.1, 0.25, 0.9};
        q.agg = query::AggregateKind::kQuantile;
        q.phi = phis[select_rng.next_below(3)];
        os << "SELECT QUANTILE(v, " << q.phi << ") FROM s";
      }
      if (q.lo != 0 || q.hi != kBound) {
        os << " WHERE v BETWEEN " << q.lo << " AND " << q.hi;
      }
      if (select_rng.next_below(3) != 0) {
        os << " EVERY " << 1 + select_rng.next_below(3) << " EPOCHS";
      }
      q.text = os.str();
      step.selections.push_back(q);
    }
    submitted += step.submits.size();
    if (submitted > 0 && rng.next_bool(0.3)) {
      step.cancels.push_back(rng.next_below(submitted));
    }
    for (NodeId u = 0; u < kNodes; ++u) {
      if (!rng.next_bool(0.75)) continue;
      const Value next = mirror[u] + direction[u] * kMaxDelta;
      if (next < 0 || next > kBound) direction[u] = -direction[u];
      mirror[u] = std::clamp<Value>(next, 0, kBound);
      step.updates.push_back(SensorUpdate{u, mirror[u]});
    }
    script.steps.push_back(std::move(step));
  }
  return script;
}

/// Enrolment churn: continuous stats subscribers over EVERY 1, 2 and 3 on
/// three regions, the whole domain among them. The first epoch admits four
/// in one batch; later ones subscribe one or two, cancel one or two, and
/// subscribe each cancelled text again an epoch later. About a third of the
/// epochs are quiet (no update).
Script draw_enrolment_script(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Script script;
  script.initial.resize(kNodes);
  for (Value& v : script.initial) v = static_cast<Value>(rng.next_below(400));
  // The cube's cells at its default levels include [0, 499]: a distinct
  // subscriber there reads an HLL twin, one over [37, 213] standing sketch
  // slots.
  const std::vector<std::pair<Value, Value>> regions{
      {0, kBound}, {100, 300}, {37, 213}, {0, 499}};
  const query::AggregateKind aggs[] = {
      query::AggregateKind::kCount, query::AggregateKind::kSum,
      query::AggregateKind::kAvg, query::AggregateKind::kMin,
      query::AggregateKind::kMax};
  const char* errors[] = {nullptr, "0.1", "0.5"};
  // A stats subscriber, or with `sketch` a COUNT_DISTINCT ... ERROR 0.15.
  const auto subscriber = [&](std::size_t region, std::uint64_t every,
                              bool sketch = false) {
    Submit s;
    s.sketch = sketch;
    s.agg = sketch ? query::AggregateKind::kCountDistinct
                   : aggs[rng.next_below(5)];
    std::tie(s.lo, s.hi) = regions[region];
    std::ostringstream os;
    os << "SELECT " << query::agg_name(s.agg) << "(v) FROM s";
    if (s.lo != 0 || s.hi != kBound) {
      os << " WHERE v BETWEEN " << s.lo << " AND " << s.hi;
    }
    os << " EVERY " << every << " EPOCHS";
    if (sketch) {
      os << " ERROR 0.15";
    } else if (const char* err = errors[rng.next_below(3)]) {
      os << " ERROR " << err;
    }
    s.text = os.str();
    return s;
  };

  std::vector<Value> mirror = script.initial;
  std::vector<Submit> submitted;  // by scripted-submit index
  std::vector<std::size_t> live;  // ... of the subscribers not cancelled
  std::vector<Submit> again;      // cancelled last epoch
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    Step step;
    if (e == 0) {
      for (std::uint64_t every = 1; every <= 3; ++every) {
        step.burst.push_back(subscriber(every - 1, every));
      }
      step.burst.push_back(subscriber(0, 2));
      step.burst.push_back(subscriber(3, 1, /*sketch=*/true));
      step.burst.push_back(subscriber(2, 2, /*sketch=*/true));
    }
    step.submits = std::move(again);
    again.clear();
    for (auto k = rng.next_below(3); k > 0; --k) {
      step.submits.push_back(subscriber(rng.next_below(regions.size()),
                                        1 + rng.next_below(3),
                                        rng.next_below(4) == 0));
    }
    for (const Submit& sub : step.submits) {
      live.push_back(submitted.size());
      submitted.push_back(sub);
    }
    for (auto k = rng.next_below(3); k > 0 && live.size() > 1; --k) {
      const auto at = rng.next_below(live.size());
      step.cancels.push_back(live[at]);
      again.push_back(submitted[live[at]]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    if (rng.next_bool(0.65)) {
      for (NodeId u = 0; u < kNodes; ++u) {
        if (!rng.next_bool(0.5)) continue;
        const Value delta = rng.next_bool(0.5) ? kMaxDelta : -kMaxDelta;
        mirror[u] = std::clamp<Value>(mirror[u] + delta, 0, kBound);
        step.updates.push_back(SensorUpdate{u, mirror[u]});
      }
    }
    script.steps.push_back(std::move(step));
  }
  return script;
}

struct Config {
  const char* name;
  bool share_aggregation;
  bool use_cache;
  bool use_cube;
  unsigned cube_levels = ServiceConfig{}.cube_levels;
  unsigned threads = 1;
};

/// What a replay reports: the service's totals, a hash of its answer
/// stream, and how many answers of each kind it checked.
struct Replayed {
  ServiceTelemetry totals;
  std::uint64_t answers_hash = 0;
  std::uint64_t distinct_checked = 0;
  std::uint64_t exact_distinct_checked = 0;
  std::uint64_t selections_checked = 0;
  std::uint64_t empty_selections = 0;
  std::uint64_t push_messages = 0;  // fused-wave messages with images
};

/// Replays `script` on one configuration over `graph` and checks every
/// answer, and the ledger after every epoch.
Replayed replay(const Script& script, const Config& c,
                const net::Graph& graph) {
  SCOPED_TRACE(c.name);
  sim::Network net(graph, /*master_seed=*/5);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  net.set_one_item_per_node(script.initial);
  ServiceConfig cfg;
  cfg.max_delta = kMaxDelta;
  cfg.share_aggregation = c.share_aggregation;
  cfg.use_cache = c.use_cache;
  cfg.use_cube = c.use_cube;
  cfg.cube_levels = c.cube_levels;
  cfg.threads = c.threads;
  if (c.use_cube) cfg.cube_distinct_registers = kDistinctRegisters;
  QueryService svc(query::Deployment{net, tree, kBound}, cfg);
  for (const auto& children : svc.tree().children) {
    EXPECT_LE(children.size(), net::kAggregationFanIn);
  }
  const bool naive = !c.share_aggregation && !c.use_cube;

  std::vector<Value> mirror = script.initial;
  std::vector<Submit> submits;   // admitted, in admission order
  std::map<QueryId, std::size_t> submit_of;
  std::vector<QueryId> ids;      // by scripted-submit index (0: one-shot)
  std::uint64_t checked = 0;
  std::uint64_t distinct_checked = 0;
  std::uint64_t exact_distinct_checked = 0;
  std::uint64_t selections_checked = 0;
  std::uint64_t empty_selections = 0;

  std::uint64_t answers_hash = 1469598103934665603ull;  // FNV-1a
  const auto check = [&](const Answer& a) {
    const Submit& s = submits[submit_of.at(a.id)];
    SCOPED_TRACE(s.text);
    ++checked;
    for (const double x : {static_cast<double>(a.id), a.value, a.error_bound,
                           static_cast<double>(a.from_cache)}) {
      answers_hash = (answers_hash ^ std::hash<double>{}(x)) * 1099511628211ull;
    }
    if (s.agg == query::AggregateKind::kCountDistinct && !s.sketch) {
      std::vector<Value> in;
      for (const Value v : mirror) {
        if (v >= s.lo && v <= s.hi) in.push_back(v);
      }
      std::sort(in.begin(), in.end());
      EXPECT_TRUE(a.exact);
      EXPECT_EQ(a.value, static_cast<double>(
                             std::unique(in.begin(), in.end()) - in.begin()))
          << "epoch " << a.epoch;
      ++exact_distinct_checked;
      return;
    }
    if (s.agg == query::AggregateKind::kCountDistinct) {
      sketch::Hll oracle =
          sketch::Hll::make_by_registers(
              kDistinctRegisters,
              {.width = sketch::packed_width_for(kNodes + 1), .sparse = true})
              .value();
      for (const Value v : mirror) {
        if (v >= s.lo && v <= s.hi) {
          oracle.add(static_cast<std::uint64_t>(v), /*salt=*/1);
        }
      }
      EXPECT_FALSE(a.exact);
      EXPECT_EQ(a.value, oracle.estimate()) << "epoch " << a.epoch;
      ++distinct_checked;
      return;
    }
    if (s.agg == query::AggregateKind::kMedian ||
        s.agg == query::AggregateKind::kQuantile) {
      std::vector<Value> in;
      for (const Value v : mirror) {
        if (v >= s.lo && v <= s.hi) in.push_back(v);
      }
      std::sort(in.begin(), in.end());
      EXPECT_TRUE(a.exact);
      EXPECT_EQ(a.empty_selection, in.empty()) << "epoch " << a.epoch;
      ++selections_checked;
      if (in.empty()) {
        ++empty_selections;
        return;
      }
      // OS(X, k) with twice_k = 2 * phi * N, as the executor rounds it:
      // the ceil(k)-th smallest reading.
      const auto n = static_cast<std::int64_t>(in.size());
      const std::int64_t twice_k = std::clamp<std::int64_t>(
          std::llround(2.0 * s.phi * static_cast<double>(n)), 1, 2 * n);
      EXPECT_EQ(a.value,
                static_cast<double>(
                    in[static_cast<std::size_t>((twice_k + 1) / 2 - 1)]))
          << "epoch " << a.epoch;
      return;
    }
    RangeStats truth;
    for (const Value v : mirror) {
      if (v >= s.lo && v <= s.hi) truth.observe(v);
    }
    double value = 0.0;
    switch (s.agg) {
      case query::AggregateKind::kCount:
        value = static_cast<double>(truth.count);
        break;
      case query::AggregateKind::kSum:
        value = static_cast<double>(truth.sum);
        break;
      case query::AggregateKind::kMin:
        value = static_cast<double>(truth.min);
        break;
      case query::AggregateKind::kMax:
        value = static_cast<double>(truth.max);
        break;
      default:
        value = truth.count == 0 ? 0.0
                                 : static_cast<double>(truth.sum) /
                                       static_cast<double>(truth.count);
    }
    const bool undefined = truth.count == 0 &&
                           s.agg != query::AggregateKind::kCount &&
                           s.agg != query::AggregateKind::kSum;
    if (a.exact) {
      if (undefined) {
        EXPECT_TRUE(a.empty_selection);
        return;
      }
      EXPECT_DOUBLE_EQ(a.value, value) << "epoch " << a.epoch;
    } else if (a.error_bound > 0.0) {
      ASSERT_FALSE(undefined);
      EXPECT_LE(std::abs(a.value - value), a.error_bound + 1e-9)
          << "epoch " << a.epoch;
    } else {
      // A randomized estimate (naive mode's approximate protocols) carries
      // a statistical guarantee, not a deterministic bound.
      EXPECT_TRUE(naive);
    }
  };

  // Admits `batch` in one call (submit() for a batch of one) and checks
  // every answer.
  const auto admit = [&](const std::vector<Submit>& batch)
      -> std::vector<Result<Admission>> {
    std::vector<Result<Admission>> results;
    if (batch.size() == 1) {
      results.push_back(svc.submit(batch[0].text));
    } else {
      std::vector<std::string> texts;
      for (const Submit& s : batch) texts.push_back(s.text);
      results = svc.submit_batch(texts);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Submit& s = batch[i];
      const Result<Admission>& r = results[i];
      if (s.malformed || !r.ok()) {
        EXPECT_EQ(r.ok(), !s.malformed) << s.text << ": " << r.error();
        continue;
      }
      submit_of[r.value().id] = submits.size();
      submits.push_back(s);
      if (r.value().answer) check(*r.value().answer);
    }
    return results;
  };

  for (const Step& step : script.steps) {
    for (const Submit& s : step.submits) {
      const Result<Admission> r = std::move(admit({s}).front());
      ids.push_back(r.ok() && r.value().continuous ? r.value().id : 0);
    }
    for (const Submit& d : step.distinct) admit({d});
    for (const Submit& q : step.selections) admit({q});
    if (!step.burst.empty()) admit(step.burst);
    for (const std::size_t k : step.cancels) {
      if (ids[k] != 0) svc.cancel(ids[k]);
    }
    for (const SensorUpdate& u : step.updates) mirror[u.node] = u.value;
    for (const Answer& a : svc.run_epoch(step.updates)) check(a);
    const TelemetrySnapshot snap = svc.telemetry_snapshot();
    std::uint64_t bits = snap.mark_bits_on_air + snap.install_bits_on_air;
    std::uint64_t messages = snap.mark_messages + snap.install_messages;
    for (const auto& [id, qc] : snap.queries) {
      bits += qc.bits_on_air;
      messages += qc.messages;
    }
    const auto total = net.summary(true);
    EXPECT_EQ(bits, total.total_bits) << "epoch " << svc.epoch();
    EXPECT_EQ(messages, total.total_messages) << "epoch " << svc.epoch();
  }
  EXPECT_GT(checked, 0u);

  const TelemetrySnapshot snap = svc.telemetry_snapshot();
  EXPECT_EQ(snap.cache.hits, snap.totals.cache_hits);
  // With one level every ranged one-shot plan is a one-shot residue.
  if (c.use_cube && c.cube_levels == 1) {
    EXPECT_GT(snap.cube.residue_waves, 0u);
  }
  return {snap.totals,           answers_hash,
          distinct_checked,      exact_distinct_checked,
          selections_checked,    empty_selections,
          snap.plan.push_messages + snap.cube.push_messages};
}

/// replay() of a draw_script() script, which reaches every query family.
ServiceTelemetry replay_every_family(const Script& script, const Config& c,
                                     const net::Graph& graph) {
  const Replayed r = replay(script, c, graph);
  EXPECT_GT(r.distinct_checked, 0u);
  EXPECT_GT(r.exact_distinct_checked, 0u);
  EXPECT_GT(r.selections_checked, 0u);
  EXPECT_GT(r.empty_selections, 0u);
  return r.totals;
}

TEST(ServiceDifferential, EveryConfigurationAgreesWithTheMirror) {
  const Config configs[] = {
      {"naive", false, false, false},
      {"shared", true, false, false},
      {"shared+cache", true, true, false},
      {"cube", true, false, true},
      {"cube+cache", true, true, true},
      {"cube levels 1", true, false, true, 1},
      {"cube+cache levels 1", true, true, true, 1},
      {"cube levels 7", true, false, true, 7},
  };
  std::uint64_t cache_hits = 0;
  std::uint64_t brackets = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Script script = draw_script(seed);
    EXPECT_TRUE(std::any_of(script.steps.begin(), script.steps.end(),
                            [](const Step& s) { return !s.burst.empty(); }));
    for (const Config& c : configs) {
      const ServiceTelemetry t =
          replay_every_family(script, c, net::make_grid(kSide, kSide));
      cache_hits += t.cache_hits;
      brackets += t.cube_stale_answers;
    }
  }
  // The scripts reach the zero-bit tiers, not only fresh collections.
  EXPECT_GT(cache_hits, 0u);
  EXPECT_GT(brackets, 0u);
}

TEST(ServiceDifferential, GeometricDeploymentAgreesWithTheMirror) {
  // kNodes nodes at servicebench's radius: the root has 14 neighbours, and
  // the service caps its tree's fan-in at Δ without growing it.
  const double n = static_cast<double>(kNodes);
  Xoshiro256 layout(1);
  const net::Graph graph =
      net::make_random_geometric(
          kNodes, std::sqrt(4.0 * std::log(n) / (std::numbers::pi * n)),
          layout)
          .graph;
  ASSERT_GT(graph.neighbors(0).size(), net::kAggregationFanIn);
  const Config configs[] = {
      {"naive", false, false, false},
      {"shared", true, false, false},
      {"shared+cache", true, true, false},
      {"cube", true, false, true},
      {"cube+cache", true, true, true},
  };
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Script script = draw_script(seed);
    for (const Config& c : configs) replay_every_family(script, c, graph);
  }
}

TEST(ServiceDifferential, EnrolmentChurnAgreesWithTheMirrorAtAnyWidth) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Script script = draw_enrolment_script(seed);
    for (const Config& base : {Config{"shared", true, false, false},
                               Config{"shared+cache", true, true, false},
                               Config{"cube", true, false, true},
                               Config{"cube+cache", true, true, true}}) {
      std::optional<std::uint64_t> stream;
      for (const unsigned threads : {1u, 2u, 8u}) {
        Config c = base;
        c.threads = threads;
        SCOPED_TRACE(testing::Message() << threads << " workers");
        const Replayed r = replay(script, c, net::make_grid(kSide, kSide));
        if (stream) {
          EXPECT_EQ(r.answers_hash, *stream);
        }
        stream = r.answers_hash;
        EXPECT_GT(r.push_messages, 0u);
        EXPECT_GT(r.distinct_checked, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace sensornet::service
