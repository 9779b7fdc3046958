// Service benchmark driver: drives service::QueryService on one of three
// generated traffic mixes and prints one JSON result line.
//
//   service_bench --workload <standing_shared|standing_cube|oneshot_churn>
//                 --seed N --seconds S --trace <0|1>
//                 [--quick] [--capacity] [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics from a twin deployment probed with wall-clock spans (see twin.hpp)
// and writes the spans as Chrome trace JSON to --trace-out. --quick shrinks
// every workload for smoke use. --capacity runs oneshot_churn's operation
// stream closed-loop and prints the periods per second it sustains (the
// open-loop rate is set to about half of that).
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gen.hpp"
#include "oracle.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "twin.hpp"
#include "src/common/rng.hpp"
#include "src/common/trial_farm.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"
#include "src/obs/metrics.hpp"
#include "src/service/engine.hpp"
#include "src/sim/comm_stats.hpp"
#include "src/sim/network.hpp"

namespace servicebench {
namespace {

namespace sn = sensornet;
using sn::service::Answer;
using sn::service::QueryId;
using sn::service::QueryService;
using sn::service::ServiceConfig;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool capacity = false;
  std::string trace_out;
};

/// A workload's sizes and service configuration.
struct Shape {
  bool standing = true;
  unsigned grid_side = 0;     // grid deployment side, or
  std::size_t geo_nodes = 0;  // random-geometric node count
  bool skewed = false;        // skewed initial readings
  ServiceConfig config;
  // Standing workloads (closed loop).
  double drift = 0.0;              // share of nodes drifting per tick
  std::uint32_t warmup_ticks = 6;  // lcm of EVERY 1..3: one full due cycle
  std::uint32_t det_ticks = 0;     // deterministic window length
  // oneshot_churn (open loop).
  std::size_t burst = 0;           // texts per submit_batch
  double period_ms = 0.0;          // one burst + one dense tick per period
  std::size_t catalogue = 0;       // region catalogue size
  std::uint32_t warmup_periods = 0;
  std::uint32_t replay_periods = 0;  // width-1 replay prefix
  std::size_t max_continuous = 4;
};

/// Open-loop period of oneshot_churn. --capacity measures 180-210 periods/s
/// on a shared 4-core x86-64 host when it is quiet, and about half that when
/// co-tenant load slows the whole program ~1.7x (as it does, for minutes at
/// a time). 50 periods/s is half the capacity of the slow phase, so a slow
/// phase does not push the open loop past saturation.
constexpr double kChurnPeriodMs = 20.0;

Shape shape_for(const Options& o) {
  Shape s;
  if (o.workload == "standing_shared") {
    s.grid_side = o.quick ? 16 : 48;
    s.config.share_aggregation = true;
    s.config.use_cache = true;
    s.config.use_cube = false;
    s.drift = 1.0 / 8.0;
    s.det_ticks = o.quick ? 40 : 400;
  } else if (o.workload == "standing_cube") {
    s.geo_nodes = o.quick ? 256 : 2048;
    s.skewed = true;
    s.config.share_aggregation = true;
    s.config.use_cache = true;
    s.config.use_cube = true;
    s.config.cube_distinct_registers = 64;
    s.drift = 1.0 / 32.0;
    s.det_ticks = o.quick ? 40 : 600;
  } else if (o.workload == "oneshot_churn") {
    s.standing = false;
    s.grid_side = o.quick ? 12 : 24;
    // Two farm workers, not nproc: on a shared 4-core host, four workers
    // per burst turn any co-tenant load into a straggler wait, and the
    // admission tail stops repeating from run to run.
    s.config.threads = std::min(2u, sn::resolve_thread_count(0));
    s.burst = 8;
    s.period_ms = o.quick ? kChurnPeriodMs / 2 : kChurnPeriodMs;
    s.catalogue = o.quick ? 64 : 256;
    // 32 periods, not fewer: the warm-up's texts are drawn from the seed,
    // and set-up time must not hinge on how many expensive ones it drew.
    s.warmup_periods = 32;
    s.replay_periods = o.quick ? 16 : 64;
  } else {
    std::cerr << "unknown workload '" << o.workload << "'\n";
    std::exit(2);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

struct Topology {
  sn::net::Graph graph;
  sn::net::SpanningTree tree;
  double build_ms = 0.0;
};

/// The random-geometric layout is part of the workload's shape: a fixed
/// layout seed keeps tree depth and hub degrees (which set air rounds and
/// per-node bits) the same for every --seed.
constexpr std::uint64_t kLayoutSeed = 0x6e0de5;

sn::net::Graph make_graph(const Shape& s) {
  if (s.geo_nodes == 0) return sn::net::make_grid(s.grid_side, s.grid_side);
  const double n = static_cast<double>(s.geo_nodes);
  const double radius = std::sqrt(4.0 * std::log(n) / (3.141592653589793 * n));
  sn::Xoshiro256 rng(kLayoutSeed);
  return sn::net::make_random_geometric(s.geo_nodes, radius, rng).graph;
}

Topology build_topology(const Shape& s) {
  const auto t0 = Clock::now();
  sn::net::Graph graph = make_graph(s);
  sn::net::SpanningTree tree = sn::net::bfs_tree(graph, 0);
  return Topology{std::move(graph), std::move(tree), seconds_since(t0) * 1e3};
}

std::size_t node_count(const Shape& s) {
  return s.geo_nodes > 0 ? s.geo_nodes
                         : static_cast<std::size_t>(s.grid_side) * s.grid_side;
}

std::vector<Value> initial_readings(const Shape& s, std::uint64_t seed) {
  Rng rng = Rng::stream(seed, 2);
  return readings(rng, node_count(s), s.skewed ? 3 : 1);
}

/// Network counters a run reads before and after a window.
struct NetMark {
  std::vector<sn::sim::NodeCommStats> per_node;
  std::uint64_t bits = 0;          // headers included
  std::uint64_t payload_bits = 0;  // headers excluded
};

NetMark mark(const sn::sim::Network& net) {
  return NetMark{net.all_stats(), net.summary(true).total_bits,
                 net.summary(false).total_bits};
}

/// Per-run bookkeeping shared by both loop kinds.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double rel_bound_sum = 0.0;
  double oracle_s = 0.0;  // time spent checking, excluded from setup_s

  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Wall-clock samples of one measured loop, pooled over the loop.
struct Samples {
  std::vector<double> epoch_ms;
  std::vector<double> admit_us;
  std::vector<double> lag_ms;  // open loop: lateness; closed loop: driver gap
  double service_s = 0.0;      // time inside service calls
  double wall_s = 0.0;
  std::uint64_t answers = 0;
  std::uint64_t ticks = 0;
  std::uint64_t air_rounds = 0;
};

/// The wall-clock figures. They are reported per layer, without a bound:
/// on a shared host they move more between runs than any bound allows
/// (README).
struct WallClock {
  double epoch_p50_ms = 0.0;
  double epoch_tail_ms = 0.0;
  double epoch_tail_pct = 0.0;
  double answers_per_s = 0.0;
  double admit_p50_us = 0.0;
  double admit_tail_us = 0.0;
  double admit_tail_pct = 0.0;
};

WallClock wall_clock(const Samples& smp) {
  WallClock w;
  w.epoch_p50_ms = percentile(smp.epoch_ms, 50);
  w.answers_per_s = ratio(static_cast<double>(smp.answers), smp.wall_s);
  w.epoch_tail_pct = tail_percentile(smp.epoch_ms.size());
  w.epoch_tail_ms = percentile(smp.epoch_ms, w.epoch_tail_pct);
  w.admit_p50_us = percentile(smp.admit_us, 50);
  w.admit_tail_pct = tail_percentile(smp.admit_us.size());
  w.admit_tail_us = percentile(smp.admit_us, w.admit_tail_pct);
  return w;
}

/// Counters of the service that the per-layer report differences.
struct SvcMark {
  sn::service::TelemetrySnapshot snap;
  std::uint64_t bits = 0;
  std::uint64_t payload_bits = 0;
};

SvcMark svc_mark(const QueryService& svc, const sn::sim::Network& net) {
  return SvcMark{svc.telemetry_snapshot(), net.summary(true).total_bits,
                 net.summary(false).total_bits};
}

// ---------------------------------------------------------------------------
// One deployment + service (+ twin) driven through a workload's inputs.
// ---------------------------------------------------------------------------

class Session {
 public:
  Session(const Shape& shape, const Options& opt, SpanRecorder* spans)
      : shape_(shape),
        spans_(spans),
        topo_(build_topology(shape)),
        mirror_(initial_readings(shape, opt.seed)),
        drift_(Rng::stream(opt.seed, 3)),
        stream_(opt.seed, shape.catalogue) {
    const std::uint64_t net_seed = Rng::stream(opt.seed, 5).next();
    net_ = std::make_unique<sn::sim::Network>(topo_.graph, net_seed);
    net_->set_one_item_per_node(mirror_.readings());
    svc_ = std::make_unique<QueryService>(
        sn::query::Deployment{*net_, topo_.tree, kBound}, shape.config);
    if (spans_ != nullptr) {
      twin_ = std::make_unique<Twin>(topo_.graph, topo_.tree,
                                     mirror_.readings(), net_seed,
                                     shape.config, shape.standing, *spans_);
    }
    if (shape.standing) {
      subs_ = opt.workload == "standing_cube" ? cube_subscribers()
                                              : shared_subscribers();
    }
  }

  // Destroy the service before the network it references.
  ~Session() {
    twin_.reset();
    svc_.reset();
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Topology& topology() const { return topo_; }
  sn::sim::Network& net() { return *net_; }
  QueryService& svc() { return *svc_; }
  const Twin* twin() const { return twin_.get(); }
  Tally& tally() { return tally_; }
  std::uint64_t checksum() const { return fnv_.h; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t submitted() const { return submitted_; }

  /// Admits the standing subscribers and runs the warm-up ticks (standing),
  /// or the warm-up periods closed-loop (oneshot_churn).
  void warm_up() {
    if (shape_.standing) {
      std::vector<std::string> texts;
      for (const QuerySpec& s : subs_) texts.push_back(s.text);
      const auto results = submit_batch(texts, 0);
      ids_.assign(subs_.size(), 0);
      for (std::size_t k = 0; k < subs_.size(); ++k) {
        tally_.op(results[k].ok());
        if (results[k].ok()) note_continuous(results[k].value().id, k);
      }
      for (std::uint32_t w = 0; w < shape_.warmup_ticks; ++w) {
        tick(drift_batch(drift_, mirror_.readings(), shape_.drift), nullptr);
      }
    } else {
      for (std::uint32_t p = 0; p < shape_.warmup_periods; ++p) {
        period(nullptr, std::nullopt);
      }
    }
  }

  /// Standing: one closed-loop step — re-subscribe one subscriber, then
  /// tick with a sparse drift batch.
  void standing_step(Samples& out) {
    const std::size_t k = churn_turn_++ % subs_.size();
    const auto t0 = Clock::now();
    bool ok = cancel(ids_[k]);
    const auto t1 = Clock::now();
    tally_.op(ok);
    auto r = submit(subs_[k].text, churn_turn_);
    const auto t2 = Clock::now();
    out.admit_us.push_back(
        std::chrono::duration<double, std::micro>(t2 - t1).count());
    out.service_s += std::chrono::duration<double>(t2 - t0).count();
    tally_.op(r.ok());
    if (r.ok()) note_continuous(r.value().id, k);
    tick(drift_batch(drift_, mirror_.readings(), shape_.drift), &out);
  }

  /// oneshot_churn: one period — a burst of texts through submit_batch,
  /// continuous churn, then a dense tick. With `due`, events wait for their
  /// due times (open loop); without, they run back to back.
  void period(Samples* out, std::optional<Clock::time_point> due) {
    // One-shots go through submit_batch; a continuous registration, when
    // the burst carries one, through submit right after.
    std::vector<QuerySpec> burst = stream_.burst(shape_.burst);
    std::optional<QuerySpec> subscription;
    if (burst.front().every != 0) {
      subscription = std::move(burst.front());
      burst.erase(burst.begin());
    }
    std::vector<std::string> texts;
    for (const QuerySpec& s : burst) texts.push_back(s.text);
    const auto half = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(shape_.period_ms / 2));

    const Clock::time_point burst_due = wait(due, out);
    auto results = submit_batch(texts, periods_);
    const auto returned = Clock::now();
    if (subscription) {
      results.push_back(submit(subscription->text, periods_));
      burst.push_back(std::move(*subscription));
    }
    const auto subscribed = Clock::now();
    if (out != nullptr) {
      const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - burst_due).count();
      };
      out->admit_us.insert(out->admit_us.end(), texts.size(), us(returned));
      if (burst.size() > texts.size()) out->admit_us.push_back(us(subscribed));
      out->service_s +=
          std::chrono::duration<double>(subscribed - burst_due).count();
    }
    const auto c0 = Clock::now();
    for (std::size_t i = 0; i < burst.size(); ++i) {
      const QuerySpec& spec = burst[i];
      const auto& r = results[i];
      ++submitted_;
      if (!r.ok()) ++rejected_;
      fnv_.mix_u64(r.ok() ? r.value().id : 0);
      bool ok = r.ok() == spec.valid;
      if (ok && r.ok()) {
        const auto& adm = r.value();
        if (spec.every != 0) {
          ok = adm.continuous && !adm.answer;
          specs_.push_back(spec);
          note_continuous(adm.id, specs_.size() - 1);
          live_.push_back(adm.id);
        } else {
          ok = adm.answer.has_value() && check(spec, *adm.answer, out);
          if (adm.answer) fnv_.mix_answer(*adm.answer);
        }
      }
      tally_.op(ok);
    }
    tally_.oracle_s += seconds_since(c0);
    while (live_.size() > shape_.max_continuous) {
      const auto t0 = Clock::now();
      tally_.op(cancel(live_.front()));
      if (out != nullptr) out->service_s += seconds_since(t0);
      live_.erase(live_.begin());
    }
    const std::vector<SensorUpdate> batch =
        drift_batch(drift_, mirror_.readings(), 1.0);
    wait(due ? std::optional(burst_due + half) : std::nullopt, out);
    tick(batch, out);
    ++periods_;
  }

 private:
  SpanRecorder& spans() { return spans_ ? *spans_ : untraced_; }

  /// Open loop: sleeps until `due` and records the lateness. Closed loop:
  /// returns now.
  Clock::time_point wait(std::optional<Clock::time_point> due, Samples* out) {
    if (!due) return Clock::now();
    std::this_thread::sleep_until(*due);
    if (out != nullptr) {
      out->lag_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - *due).count());
    }
    return *due;
  }

  void note_continuous(QueryId id, std::size_t spec_index) {
    by_id_[id] = spec_index;
    if (shape_.standing) ids_[spec_index] = id;
  }

  const QuerySpec& spec_of(QueryId id) const {
    return shape_.standing ? subs_[by_id_.at(id)] : specs_[by_id_.at(id)];
  }

  bool check(const QuerySpec& spec, const Answer& a, Samples* out) {
    const bool ok = mirror_.check(spec, a);
    if (!ok) {
      std::cerr << "wrong answer: \"" << spec.text << "\" epoch " << a.epoch
                << " value " << a.value << " bound " << a.error_bound << "\n";
    }
    if (out != nullptr) {
      ++out->answers;
      tally_.rel_bound_sum += a.error_bound / std::max(1.0, std::abs(a.value));
    }
    return ok;
  }

  std::vector<sn::Result<sn::service::Admission>> submit_batch(
      const std::vector<std::string>& texts, std::uint64_t id) {
    std::vector<sn::Result<sn::service::Admission>> r;
    {
      SpanRecorder::Scope s(spans(), "service.submit_batch", "service", id);
      r = svc_->submit_batch(texts);
    }
    if (twin_) twin_->submit_batch(texts, id);
    return r;
  }

  sn::Result<sn::service::Admission> submit(const std::string& text,
                                            std::uint64_t id) {
    std::optional<sn::Result<sn::service::Admission>> r;
    {
      SpanRecorder::Scope s(spans(), "service.submit", "service", id);
      r.emplace(svc_->submit(text));
    }
    if (twin_) twin_->submit(text, id);
    return std::move(*r);
  }

  bool cancel(QueryId id) {
    bool ok = false;
    {
      SpanRecorder::Scope s(spans(), "service.cancel", "service", id);
      ok = svc_->cancel(id);
    }
    if (twin_) twin_->cancel(id);
    return ok;
  }

  void tick(const std::vector<SensorUpdate>& batch, Samples* out) {
    const std::uint64_t id = ticks_++;
    const sn::SimTime air0 = net_->now();
    const auto t0 = Clock::now();
    if (out != nullptr && shape_.standing && last_return_) {
      out->lag_ms.push_back(
          std::chrono::duration<double, std::milli>(t0 - *last_return_).count());
    }
    std::vector<Answer> answers;
    bool ok = true;
    try {
      SpanRecorder::Scope s(spans(), "service.run_epoch", "service", id);
      answers = svc_->run_epoch(batch);
    } catch (const std::exception& e) {
      std::cerr << "run_epoch threw: " << e.what() << "\n";
      ok = false;
    }
    const auto t1 = Clock::now();
    if (out != nullptr) {
      out->epoch_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      out->service_s += std::chrono::duration<double>(t1 - t0).count();
      out->air_rounds += net_->now() - air0;
      ++out->ticks;
    }
    if (twin_) twin_->run_epoch(batch, id);
    const auto c0 = Clock::now();
    mirror_.apply(batch);
    for (const Answer& a : answers) {
      fnv_.mix_answer(a);
      ok = check(spec_of(a.id), a, out) && ok;
    }
    tally_.op(ok);
    tally_.oracle_s += seconds_since(c0);
    last_return_ = Clock::now();
  }

  const Shape& shape_;
  SpanRecorder* spans_;
  SpanRecorder untraced_{0};  // never enabled
  Topology topo_;
  Mirror mirror_;
  Rng drift_;
  OneShotStream stream_;
  std::unique_ptr<sn::sim::Network> net_;
  std::unique_ptr<QueryService> svc_;
  std::unique_ptr<Twin> twin_;

  std::vector<QuerySpec> subs_;   // standing subscribers
  std::vector<QueryId> ids_;      // current service id per subscriber
  std::vector<QuerySpec> specs_;  // oneshot_churn continuous registrations
  std::vector<QueryId> live_;     // ... still live, oldest first
  std::unordered_map<QueryId, std::size_t> by_id_;
  std::uint64_t churn_turn_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t periods_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::optional<Clock::time_point> last_return_;
  Tally tally_;
  Fnv1a fnv_;
};

/// Builds and warms up a session; returns it with the setup time.
std::unique_ptr<Session> setup(const Shape& shape, const Options& opt,
                               SpanRecorder* spans, double* setup_s) {
  const auto t0 = Clock::now();
  auto s = std::make_unique<Session>(shape, opt, spans);
  s->warm_up();
  *setup_s = seconds_since(t0) - s->tally().oracle_s;
  return s;
}

/// Times throw-away set-ups, at least four, on each CPU this process may use
/// in turn, and appends their times to `out`. The thread is pinned to the
/// CPU while it sets up (farm workers, spawned per call, inherit that), and
/// its affinity is restored after. On a shared host one CPU can run this
/// program ~1.7x slower than another for a minute at a time, so a set-up
/// left on whichever CPU it lands on does not repeat between runs.
void time_setups(const Shape& shape, const Options& opt,
                 std::vector<double>& out) {
  cpu_set_t all;
  CPU_ZERO(&all);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof all, &all) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) cpus.push_back(c);
    }
  }
  const std::size_t n = std::max<std::size_t>(4, cpus.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    double t = 0.0;
    (void)setup(shape, opt, nullptr, &t);
    out.push_back(t);
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof all, &all);
}

/// Runs the measured loop into `out` for `seconds` (standing: and at least
/// until `out` holds `min_ticks` ticks; oneshot_churn: exactly `periods`
/// periods on the open-loop clock).
void measure(Session& s, const Shape& shape, Samples& out, double seconds,
             std::uint64_t min_ticks, std::uint64_t periods) {
  const auto t0 = Clock::now();
  if (shape.standing) {
    while ((out.ticks < min_ticks || seconds_since(t0) < seconds) &&
           seconds_since(t0) < 120.0) {
      s.standing_step(out);
    }
  } else {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(shape.period_ms));
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    for (std::uint64_t p = 0; p < periods; ++p) {
      s.period(&out, start + static_cast<long>(p) * period);
    }
  }
  out.wall_s += seconds_since(t0);
}

std::uint64_t open_loop_periods(const Shape& shape, double seconds) {
  return std::max<std::uint64_t>(
      4, static_cast<std::uint64_t>(seconds * 1e3 / shape.period_ms));
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

Result run_untraced(const Options& opt, const Shape& shape) {
  Result res;
  // setup_s is the fastest set-up timed on each CPU, before the measured
  // loop and again after it.
  std::vector<double> setups;
  time_setups(shape, opt, setups);
  double untimed = 0.0;
  const auto s = setup(shape, opt, nullptr, &untimed);
  Session& live = *s;

  // Bits, rounds and bounds come from a window of fixed length, so they
  // repeat exactly for a seed: standing, the first det_ticks ticks (timing
  // then continues to the run length); oneshot_churn, its whole schedule.
  const NetMark before = mark(live.net());
  Samples smp;
  if (shape.standing) {
    measure(live, shape, smp, 0.0, shape.det_ticks, 0);
  } else {
    measure(live, shape, smp, opt.seconds, 0,
            open_loop_periods(shape, opt.seconds));
  }
  const NetMark det_end = mark(live.net());
  const double det_answers = static_cast<double>(smp.answers);
  const double det_rel = live.tally().rel_bound_sum;
  const double det_rounds = static_cast<double>(smp.air_rounds);
  const double det_ticks = static_cast<double>(std::max<std::uint64_t>(smp.ticks, 1));
  if (shape.standing) {
    measure(live, shape, smp, std::max(0.0, opt.seconds - smp.wall_s), 0, 0);
  }
  const double rss = peak_rss_mb();

  // oneshot_churn: the operation stream replayed at farm width 1 and at the
  // measured width (at least 2, oversubscribing a 1-CPU host, so the check
  // always compares two widths) must give the same answer stream.
  if (!shape.standing) {
    Shape narrow = shape;
    narrow.config.threads = 1;
    Shape wide = shape;
    wide.config.threads = std::max(2u, shape.config.threads);
    Session a(narrow, opt, nullptr);
    Session b(wide, opt, nullptr);
    for (auto* x : {&a, &b}) {
      x->warm_up();
      for (std::uint32_t p = 0; p < shape.replay_periods; ++p) {
        x->period(nullptr, std::nullopt);
      }
    }
    res.attempted += 1;
    if (a.checksum() != b.checksum()) {
      std::cerr << "answer-stream checksum differs between farm width 1 and "
                << wide.config.threads << "\n";
      res.failed += 1;
    }
    res.failed += a.tally().failed + b.tally().failed;
  }

  time_setups(shape, opt, setups);

  const auto window = sn::sim::window_summary(before.per_node, det_end.per_node,
                                              0, /*include_headers=*/true);

  res.attempted += live.tally().attempted;
  res.failed += live.tally().failed;
  res.correct = res.failed == 0;
  res.add("setup_s", *std::min_element(setups.begin(), setups.end()), "s");
  res.add("bits_per_answer",
          ratio(static_cast<double>(det_end.bits - before.bits), det_answers),
          "bits");
  res.add("max_node_bits_per_epoch",
          static_cast<double>(window.max_node_bits) / det_ticks, "bits");
  res.add("air_rounds_per_epoch", det_rounds / det_ticks, "rounds");
  res.add("mean_rel_bound", ratio(det_rel, det_answers), "ratio");
  res.add("ok_op_ratio",
          1.0 - ratio(static_cast<double>(res.failed),
                      static_cast<double>(res.attempted)),
          "ratio");
  res.add("peak_rss_mb", rss, "MB");

  const WallClock wc = wall_clock(smp);
  std::cout << "detail: workload=" << opt.workload << " seed=" << opt.seed
            << " setups=" << setups.size() << " ticks=" << smp.epoch_ms.size()
            << " admissions="
            << smp.admit_us.size() << " answers=" << smp.answers
            << " det_ticks=" << det_ticks << " det_answers=" << det_answers
            << " wall_s=" << smp.wall_s << "\n"
            << "detail: set-up fastest=" << res.metrics.front().value
            << "s median=" << percentile(setups, 50)
            << "s slowest=" << percentile(setups, 100) << "s\n"
            << "detail: epoch_p50_ms=" << wc.epoch_p50_ms << " epoch_tail_ms="
            << wc.epoch_tail_ms << " (p" << wc.epoch_tail_pct << " of "
            << smp.epoch_ms.size() << ") answers_per_s=" << wc.answers_per_s
            << " admit_p50_us=" << wc.admit_p50_us << " admit_tail_us="
            << wc.admit_tail_us << " (p" << wc.admit_tail_pct << " of "
            << smp.admit_us.size() << "); per-layer figures, not gated\n";
  if (!shape.standing && !smp.lag_ms.empty()) {
    std::cout << "detail: open-loop lateness p50=" << percentile(smp.lag_ms, 50)
              << "ms p99=" << percentile(smp.lag_ms, 99) << "ms\n";
  }
  return res;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

Result run_traced(const Options& opt, const Shape& shape) {
  Result res;
  sn::obs::Registry& reg = sn::obs::Registry::global();

  // Phase A: untraced, no twin — the baseline for trace.overhead_ratio and
  // the source of the registry counts (the twin would add its own).
  double setup_a = 0.0;
  auto a = setup(shape, opt, nullptr, &setup_a);
  const double build_ms = a->topology().build_ms;
  const auto reg0 = reg.snapshot();
  const double secs_a = opt.seconds * 0.3;
  Samples sa;
  measure(*a, shape, sa, secs_a, 20, open_loop_periods(shape, secs_a));
  const auto reg1 = reg.snapshot();
  const double deliveries = static_cast<double>(reg1.value("sim.deliveries") -
                                                reg0.value("sim.deliveries"));
  const double steals = static_cast<double>(reg1.value("farm.steals") -
                                            reg0.value("farm.steals"));
  res.attempted += a->tally().attempted;
  res.failed += a->tally().failed;
  a.reset();

  // Phase B: traced, with the twin.
  SpanRecorder spans(std::size_t{1} << 18);
  spans.set_enabled(true);
  double setup_b = 0.0;
  auto b = setup(shape, opt, &spans, &setup_b);
  const SvcMark m0 = svc_mark(b->svc(), b->net());
  const TwinStats tw0 = b->twin()->stats();
  const double secs_b = opt.seconds * 0.7;
  Samples sb;
  {
    const auto t0 = Clock::now();
    if (shape.standing) {
      while (sb.ticks < 20 || seconds_since(t0) < secs_b) {
        b->standing_step(sb);
        if (sb.ticks % 64 == 0) {
          SpanRecorder::Scope s(spans, "service.snapshot", "service", sb.ticks);
          (void)b->svc().telemetry_snapshot();
        }
      }
    } else {
      // Closed loop: the twin doubles the work per period, so the open-loop
      // schedule could not be kept; lateness comes from phase A.
      for (std::uint64_t p = 0; p < 20 || seconds_since(t0) < secs_b; ++p) {
        b->period(&sb, std::nullopt);
        if (p % 16 == 0) {
          SpanRecorder::Scope s(spans, "service.snapshot", "service", p);
          (void)b->svc().telemetry_snapshot();
        }
      }
    }
  }
  const SvcMark m1 = svc_mark(b->svc(), b->net());
  const TwinStats tw = b->twin()->stats();
  res.attempted += b->tally().attempted;
  res.failed += b->tally().failed;

  // The twin walks the service's path only if its mark waves cost exactly
  // what the service's did.
  res.attempted += 1;
  if (tw.mark_bits != m1.snap.mark_bits_on_air) {
    std::cerr << "twin mark-wave bits " << tw.mark_bits
              << " != service mark_bits_on_air " << m1.snap.mark_bits_on_air
              << "\n";
    res.failed += 1;
  }
  res.correct = res.failed == 0;

  const auto& totals = spans.totals();
  // Mean time per call of a probe; a probe of a path this workload's service
  // never takes reads its shadow span.
  const auto per_call = [&](const std::string& name, double unit_ns) {
    auto it = totals.find(name);
    if (it == totals.end()) it = totals.find("shadow." + name);
    if (it == totals.end() || it->second.calls == 0) return 0.0;
    return static_cast<double>(it->second.total_ns) /
           static_cast<double>(it->second.calls) / unit_ns;
  };
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double ticks = static_cast<double>(std::max<std::uint64_t>(sb.ticks, 1));
  const auto& s0 = m0.snap;
  const auto& s1 = m1.snap;
  const double answers = d(s1.totals.answers, s0.totals.answers);
  const double bits = d(m1.bits, m0.bits);

  std::uint64_t attributed = s1.mark_bits_on_air;
  for (const auto& [qid, qc] : s1.queries) attributed += qc.bits_on_air;

  // Coverage: the twin's serial probes against the service calls they
  // re-enact (farm.map repeats the serial front half; snapshots and shadow
  // probes are extra).
  double probed_ns = 0.0;
  double service_ns = 0.0;
  for (const auto& [name, t] : totals) {
    if (name == "farm.map" || name == "service.snapshot" ||
        t.layer == kShadowLayer) {
      continue;
    }
    (name.rfind("service.", 0) == 0 ? service_ns : probed_ns) +=
        static_cast<double>(t.self_ns);
  }

  const double texts = static_cast<double>(b->submitted());
  res.add("query.tokenize_ns", per_call("query.tokenize", 1.0), "ns");
  res.add("query.parse_ns", per_call("query.parse", 1.0), "ns");
  res.add("query.plan_ns", per_call("query.plan", 1.0), "ns");
  res.add("query.plan_steps",
          ratio(static_cast<double>(tw.plan_steps - tw0.plan_steps),
                static_cast<double>(tw.plans - tw0.plans)),
          "steps");
  res.add("query.cost_model_error",
          ratio(tw.cost_error_sum - tw0.cost_error_sum,
                static_cast<double>(tw.cube_serves - tw0.cube_serves)),
          "ratio");
  res.add("query.cube_cover_ratio",
          ratio(tw.cell_width - tw0.cell_width,
                tw.cube_plan_width - tw0.cube_plan_width),
          "ratio");
  res.add("query.executor_ms", per_call("query.executor", 1e6), "ms");
  res.add("query.executor_bits",
          ratio(static_cast<double>(tw.executor_bits - tw0.executor_bits),
                static_cast<double>(tw.executor_runs - tw0.executor_runs)),
          "bits");
  res.add("query.reject_ratio",
          ratio(static_cast<double>(b->rejected()), texts), "ratio");
  res.add("service.submit_us", per_call("service.submit", 1e3), "us");
  res.add("service.submit_batch_us", per_call("service.submit_batch", 1e3), "us");
  res.add("service.cancel_us", per_call("service.cancel", 1e3), "us");
  res.add("service.run_epoch_ms", per_call("service.run_epoch", 1e6), "ms");
  res.add("service.snapshot_us", per_call("service.snapshot", 1e3), "us");
  res.add("service.groups_live", static_cast<double>(s1.plan.groups_created),
          "count");
  res.add("service.cache_answer_ratio",
          ratio(d(s1.totals.cache_hits, s0.totals.cache_hits), answers), "ratio");
  res.add("service.cube_stale_ratio",
          ratio(d(s1.totals.cube_stale_answers, s0.totals.cube_stale_answers),
                answers),
          "ratio");
  res.add("service.mark_bits_share",
          ratio(d(s1.mark_bits_on_air, s0.mark_bits_on_air), bits), "ratio");
  res.add("service.attribution_ratio",
          ratio(static_cast<double>(attributed), static_cast<double>(m1.bits)),
          "ratio");
  res.add("shared_plan.note_updates_us",
          per_call("shared_plan.note_updates", 1e3), "us");
  res.add("shared_plan.collect_stats_us",
          per_call("shared_plan.collect_stats", 1e3), "us");
  res.add("shared_plan.ensure_group_us",
          per_call("shared_plan.ensure_group", 1e3), "us");
  const double skipped = d(s1.plan.edges_skipped, s0.plan.edges_skipped);
  const double descended = d(s1.plan.edges_descended, s0.plan.edges_descended);
  res.add("shared_plan.edges_skipped_ratio", ratio(skipped, skipped + descended),
          "ratio");
  res.add("shared_plan.waves_per_epoch",
          (d(s1.plan.stats_waves, s0.plan.stats_waves) +
           d(s1.plan.distinct_waves, s0.plan.distinct_waves)) /
              ticks,
          "waves");
  res.add("result_cache.probe_ns", per_call("result_cache.probe", 1.0), "ns");
  res.add("result_cache.lookup_ns", per_call("result_cache.lookup", 1.0), "ns");
  res.add("result_cache.store_ns", per_call("result_cache.store", 1.0), "ns");
  res.add("result_cache.hit_ratio",
          ratio(d(s1.cache.hits, s0.cache.hits), d(s1.cache.lookups, s0.cache.lookups)),
          "ratio");
  res.add("cube.serve_us", per_call("cube.serve", 1e3), "us");
  res.add("cube.stale_bracket_ns", per_call("cube.stale_bracket", 1.0), "ns");
  res.add("cube.refresh_waves_per_epoch",
          d(s1.cube.refresh_waves, s0.cube.refresh_waves) / ticks, "waves");
  const double cskip = d(s1.cube.cell_edges_skipped, s0.cube.cell_edges_skipped);
  const double cdesc =
      d(s1.cube.cell_edges_descended, s0.cube.cell_edges_descended);
  res.add("cube.cell_edges_skipped_ratio", ratio(cskip, cskip + cdesc), "ratio");
  const double pruned =
      d(s1.cube.residue_edges_pruned, s0.cube.residue_edges_pruned);
  const double rdesc =
      d(s1.cube.residue_edges_descended, s0.cube.residue_edges_descended);
  res.add("cube.residue_pruned_ratio", ratio(pruned, pruned + rdesc), "ratio");
  res.add("cube.stale_success_ratio",
          ratio(static_cast<double>(tw.stale_hits - tw0.stale_hits),
                static_cast<double>(tw.stale_attempts - tw0.stale_attempts)),
          "ratio");
  res.add("sim.deliveries_per_epoch",
          deliveries / static_cast<double>(std::max<std::uint64_t>(sa.ticks, 1)),
          "count");
  res.add("sim.deliveries_per_s", ratio(deliveries, sa.service_s), "1/s");
  res.add("sim.header_bits_share",
          ratio(bits - d(m1.payload_bits, m0.payload_bits), bits), "ratio");
  res.add("sim.peak_in_flight_bytes",
          static_cast<double>(b->net().peak_in_flight_bytes()), "bytes");
  res.add("farm.map_us", per_call("farm.map", 1e3), "us");
  res.add("farm.steals", steals, "count");
  res.add("net.build_ms", build_ms, "ms");
  const WallClock wc = wall_clock(sa);
  res.add("epoch_p50_ms", wc.epoch_p50_ms, "ms");
  res.add("epoch_tail_ms", wc.epoch_tail_ms, "ms");
  res.add("answers_per_s", wc.answers_per_s, "1/s");
  res.add("admit_p50_us", wc.admit_p50_us, "us");
  res.add("admit_tail_us", wc.admit_tail_us, "us");
  res.add("driver.gen_lag_ms", mean(sa.lag_ms), "ms");
  res.add("trace.overhead_ratio",
          ratio(percentile(sb.epoch_ms, 50), percentile(sa.epoch_ms, 50)),
          "ratio");
  res.add("trace.layer_coverage", ratio(probed_ns, service_ns), "ratio");
  for (const char* layer : {"query", "service", "cube", "common"}) {
    double self_ns = 0.0;
    for (const auto& [name, t] : totals) {
      // The service layer's own spans wrap the real service; the twin's
      // service-module probes are shared_plan.* and result_cache.*. Shadow
      // probes have a layer of their own and are not counted.
      if (t.layer == layer && name.rfind("service.", 0) != 0) {
        self_ns += static_cast<double>(t.self_ns);
      }
    }
    res.add(std::string("layer.") + layer + "_self_ms", self_ns / 1e6 / ticks,
            "ms");
  }

  if (!opt.trace_out.empty()) {
    std::ofstream os(opt.trace_out);
    if (os) spans.export_chrome_json(os);
  }
  std::cout << "detail: workload=" << opt.workload << " seed=" << opt.seed
            << " traced_ticks=" << sb.ticks << " untraced_ticks=" << sa.ticks
            << " spans=" << spans.stored() << " dropped=" << spans.dropped()
            << " twin_mark_bits=" << tw.mark_bits << " service_mark_bits="
            << m1.snap.mark_bits_on_air << "\n";
  return res;
}

/// --capacity: oneshot_churn's stream closed-loop; prints periods/s.
int run_capacity(const Options& opt, const Shape& shape) {
  double t = 0.0;
  auto s = setup(shape, opt, nullptr, &t);
  Samples out;
  const auto t0 = Clock::now();
  std::uint64_t periods = 0;
  while (seconds_since(t0) < opt.seconds) {
    s->period(&out, std::nullopt);
    ++periods;
  }
  const double secs = seconds_since(t0);
  std::cout << "capacity: " << periods / secs << " periods/s ("
            << 1e3 * secs / periods << " ms/period, "
            << shape.burst * periods / secs << " texts/s, "
            << s->tally().failed << " failed)\n";
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
    } else if (a == "--trace") {
      o.trace = next() == "1";
    } else if (a == "--trace-out") {
      o.trace_out = next();
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--capacity") {
      o.capacity = true;
    } else {
      std::cerr << "unknown argument " << a << "\n";
      std::exit(2);
    }
  }
  return o;
}

}  // namespace
}  // namespace servicebench

int main(int argc, char** argv) {
  using namespace servicebench;
  const Options opt = parse(argc, argv);
  const Shape shape = shape_for(opt);
  try {
    if (opt.capacity) return run_capacity(opt, shape);
    const Result r = opt.trace ? run_traced(opt, shape) : run_untraced(opt, shape);
    r.print(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "service_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
