// exp_paper — the source paper's claims as one gated ledger: one section per
// result, in the paper's order (kSections). A section prints its tables and
// records its claims. Each claim is one record in BENCH_PAPER.json (the bound
// as the paper states it, rows with the measured value and the bound's value,
// a crossover N for a separation) and one Gates::gate() call: a claim whose
// text no longer says what its rows show makes the binary exit 1.
//
// Usage: exp_paper [--quick] [--threads N] [--out PATH]
//   --quick      smaller ladders, seconds in Release (the ctest lane)
//   --threads N  trial-farm workers of the loss sweep (0 = hardware)
//   --out PATH   the report (default BENCH_PAPER.json)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/baseline/gk_median.hpp"
#include "src/baseline/sampling_median.hpp"
#include "src/baseline/singlehop_median.hpp"
#include "src/baseline/tag_collect.hpp"
#include "src/common/error.hpp"
#include "src/common/mathutil.hpp"
#include "src/common/trial_farm.hpp"
#include "src/core/apx_median.hpp"
#include "src/core/apx_median2.hpp"
#include "src/core/det_median.hpp"
#include "src/proto/approx_counting.hpp"
#include "src/proto/counting_service.hpp"
#include "src/proto/gossip.hpp"
#include "src/proto/multipath.hpp"
#include "src/proto/tree_wave.hpp"
#include "src/sketch/hll.hpp"
#include "util/experiment.hpp"
#include "util/report.hpp"
#include "util/table.hpp"

namespace sensornet::bench {
namespace {

/// Slack of an O(f) claim over a finite ladder: measured / f(x) may rise to
/// this multiple of its value at the series' smallest x. Over a 64x N
/// ladder log N doubles, so a cost one log factor above the claim breaks it.
constexpr double kShapeSlack = 1.25;

struct Row {
  std::string series;
  double x = 0;
  double measured = 0;
  double bound = 0;  // the bound's value at x
  bool ok = false;
};

/// One claim, checked on this run's rows. Sections build it positionally:
/// {id, anchor, bound, text[, stated[, separation[, x]]]}.
struct Claim {
  std::string id;
  std::string anchor;
  std::string bound;  // as the paper states it, and how the rows test it
  std::string text;   // what the rows show
  bool stated = true;       // the text says the rows show the bound
  bool separation = false;  // rows hold (measured < bound) from x on
  std::string x = "N";      // the rows' variable
  std::vector<Row> rows{};

  /// Makes an O(f) check of rows whose `bound` holds f(x): per series,
  /// bound = kShapeSlack * (measured / f at the smallest x) * f(x), and a
  /// row holds when its side condition (`ok`) does and measured <= bound.
  void shape() {
    std::vector<Row> checked = rows;
    for (Row& r : checked) {
      const Row* first = &r;
      for (const Row& o : rows) {
        if (o.series == r.series && o.x < first->x) first = &o;
      }
      r.bound *= kShapeSlack * first->measured / first->bound;
      r.ok = r.ok && r.measured <= r.bound;
    }
    rows = std::move(checked);
  }

  /// A separation's crossover: the smallest x from which every row holds
  /// (rows in ascending x).
  std::optional<double> crossover() const {
    std::optional<double> from;
    for (auto r = rows.rbegin(); r != rows.rend() && r->ok; ++r) from = r->x;
    return from;
  }

  bool shown() const {
    return separation ? crossover().has_value()
                      : std::ranges::all_of(rows, &Row::ok);
  }
};

/// Report decimals: none for integral values, else 6.
int decimals(double v) { return v == std::floor(v) ? 0 : 6; }

struct Ledger {
  bool quick = false;
  unsigned threads = 0;
  Gates gates;
  std::vector<Claim> claims;

  /// Gates one claim: its text must say what its rows show.
  void record(Claim claim) {
    gates.gate(claim.shown() == claim.stated, claim.id, " (", claim.anchor,
               "): the claim says the rows ",
               claim.stated ? "show" : "do not show", " the bound; they ",
               claim.stated ? "do not" : "do");
    claims.push_back(std::move(claim));
  }

  void write(Json& j) const {
    j.field("shape_slack", kShapeSlack, 2)
        .field("shape_check",
               "O(f) rows: measured <= shape_slack x (measured / f at the "
               "series' smallest x) x f(x)")
        .key("claims")
        .array();
    for (const Claim& c : claims) {
      j.object()
          .field("id", c.id)
          .field("anchor", c.anchor)
          .field("claim", c.text)
          .field("bound", c.bound)
          .field("x", c.x)
          .field("shown", c.shown())
          .key("rows")
          .array();
      for (const Row& r : c.rows) {
        j.object(Json::kLine)
            .field("series", r.series)
            .field("x", r.x, decimals(r.x))
            .field("measured", r.measured, decimals(r.measured))
            .field("bound", r.bound, decimals(r.bound))
            .field("ok", r.ok)
            .end();
      }
      j.end();
      if (c.separation) {
        const auto n = c.crossover();
        j.key("crossover_n");
        n ? j.value(*n, 0) : j.value("none up to " + fmt(c.rows.back().x, 0));
      }
      j.end();
    }
    j.end();
  }
};

/// Mean and standard deviation of the relative error of `trials` estimates,
/// each over `truth` random insertions into a fresh m-register sketch.
std::pair<double, double> estimator_error(unsigned m, bool hll,
                                          std::uint64_t truth, int trials,
                                          Xoshiro256& rng) {
  double sum = 0;
  double sq = 0;
  for (int t = 0; t < trials; ++t) {
    auto regs = sketch::Hll::make_by_registers(m).value();
    for (std::uint64_t i = 0; i < truth; ++i) {
      regs.add_random(rng);
    }
    const double est = hll ? regs.estimate() : regs.estimate_loglog();
    const double rel = est / static_cast<double>(truth) - 1.0;
    sum += rel;
    sq += rel * rel;
  }
  const double mean = sum / trials;
  return {mean, std::sqrt(sq / trials - mean * mean)};
}

/// A median's rank error: |rank of value - N/2| / N. Returns the rank too.
std::pair<double, double> rank_error(const ValueSet& xs, Value value) {
  const double rank = static_cast<double>(rank_below(xs, value + 1));
  const auto n = static_cast<double>(xs.size());
  return {std::abs(rank - n / 2.0) / n, rank};
}

/// Fig. 2 over `tree`: exact MIN/MAX (Fact 2.1) and m-register APX_COUNT.
/// Returns the result and the counter's sigma.
std::pair<core::ApxSelectionResult, double> run_fig2(
    sim::Network& net, const net::SpanningTree& tree, unsigned m, double eps,
    double rep_scale = 1.0) {
  proto::TreeCountingService minmax(net, tree);
  proto::TreeApproxCountingService counter(net, tree, {.registers = m});
  core::ApxSelectionParams params;
  params.epsilon = eps;
  params.rep_scale = rep_scale;
  return {core::approx_median(minmax, counter, params), counter.sigma()};
}

/// Fig. 2 with 16 registers on a fresh line carrying xs: the result, the
/// counter's sigma and the max bits per node.
std::tuple<core::ApxSelectionResult, double, std::uint64_t> fig2_on_line(
    const ValueSet& xs, std::uint64_t seed, double eps,
    double rep_scale = 1.0) {
  sim::Network net(net::make_line(xs.size()), seed);
  net.set_one_item_per_node(xs);
  const auto [res, sigma] =
      run_fig2(net, net::bfs_tree(net.graph(), 0), 16, eps, rep_scale);
  return {res, sigma, net.summary().max_node_bits};
}

/// Fig. 4's parameters; rep_scale scales the schedule's constants only.
core::ApxMedian2Params fig4_params(Value X, double beta,
                                   unsigned registers = 16,
                                   double rep_scale = 0.2) {
  return {.beta = beta, .epsilon = 0.25, .rep_scale = rep_scale,
          .registers = registers, .max_value_bound = X};
}

// EXP-F21 — Fact 2.1: MIN / MAX / COUNT over a bounded-degree tree.
void fact_2_1(Ledger& ledger) {
  Claim claim{"F21", "Fact 2.1", "O(log N) bits per node, bounded degree",
              "MIN, MAX and COUNT cost O(log N) bits/node on line and grid"};
  const char* const kAggregates[] = {" MIN", " MAX", " COUNT"};
  for (const auto topology :
       {net::TopologyKind::kLine, net::TopologyKind::kGrid,
        net::TopologyKind::kGeometric}) {
    Table table({"topology", "N", "tree height", "MIN bits/node",
                 "MAX bits/node", "COUNT bits/node", "COUNT bits / log2 N"});
    for (const std::size_t n : {64UL, 256UL, 1024UL, 4096UL}) {
      Deployment d = make_deployment(topology, n, WorkloadKind::kUniform,
                                     static_cast<Value>(n * n), 42 + n);
      const std::size_t actual = d.net->node_count();
      proto::TreeCountingService svc(*d.net, d.tree);
      const auto window = [&d](auto wave) {
        const auto before = d.net->all_stats();
        wave();
        return window_max_node_bits(*d.net, before);
      };
      const std::uint64_t bits[3] = {window([&] { svc.min_value(); }),
                                     window([&] { svc.max_value(); }),
                                     window([&] { svc.count_all(); })};
      const auto log_n = static_cast<double>(ceil_log2(actual));
      // The geometric BFS tree has unbounded degree: the contrast, unclaimed.
      for (int i = 0; topology != net::TopologyKind::kGeometric && i < 3; ++i) {
        claim.rows.push_back({std::string(net::topology_name(topology)) +
                                  kAggregates[i],
                              static_cast<double>(actual),
                              static_cast<double>(bits[i]), log_n, true});
      }
      table.add_row({net::topology_name(topology), std::to_string(actual),
                     std::to_string(d.tree.height()), fmt_bits(bits[0]),
                     fmt_bits(bits[1]), fmt_bits(bits[2]),
                     fmt(static_cast<double>(bits[2]) / log_n)});
    }
    table.print();
  }
  claim.shape();
  ledger.record(std::move(claim));
}

// EXP-F22 — Fact 2.2: LogLog counting's accuracy and wire cost.
void fact_2_2(Ledger& ledger) {
  constexpr int kTrials = 40;
  // A row holds when |bias| <= 3 sigma / sqrt(T) and |sigma-hat / sigma - 1|
  // <= 3 / sqrt(2 (T - 1)), three standard errors of T trials; its bound is
  // the largest sigma-hat * sqrt(m) allowed.
  const double sd_tolerance = 3.0 / std::sqrt(2.0 * (kTrials - 1));
  Claim accuracy{"F22-accuracy", "Fact 2.2",
                 "sigma = beta_m / sqrt(m), beta_m -> 1.298 (LogLog)",
                 "both estimators are unbiased, sigma as predicted", true,
                 false, "m"};
  Table acc({"m", "estimator", "mean rel. bias", "sigma-hat * sqrt(m)",
             "predicted sigma * sqrt(m)"});
  Xoshiro256 rng(7);
  for (const unsigned m : {16u, 64u, 256u, 1024u}) {
    for (const bool hll : {false, true}) {
      const auto [mean, sd] = estimator_error(m, hll, 200000, kTrials, rng);
      const double predicted =
          hll ? sketch::hyperloglog_sigma(m) : sketch::loglog_sigma(m);
      const char* name = hll ? "HyperLogLog" : "LogLog";
      acc.add_row({std::to_string(m), name, fmt(mean, 4),
                   fmt(sd * std::sqrt(m), 3),
                   fmt(predicted * std::sqrt(m), 3)});
      accuracy.rows.push_back(
          {name, static_cast<double>(m), sd * std::sqrt(m),
           predicted * std::sqrt(m) * (1 + sd_tolerance),
           std::abs(sd / predicted - 1) <= sd_tolerance &&
               std::abs(mean) <= 3 * predicted / std::sqrt(kTrials)});
    }
  }
  acc.print();
  ledger.record(std::move(accuracy));

  Claim wire{"F22-wire", "Fact 2.2", "O(m log log N) bits per node",
             "a COUNT costs O(m log log N) bits/node: not shown, the "
             "m = 256, N = 64 row fills few registers and starts low "
             "(flat in N at m = 16 and 64)",
             false};
  Table cost({"N", "m", "register width w", "bits/node (1 invocation)",
              "bits / (m*w)"});
  for (const std::size_t n : {64UL, 1024UL, 16384UL}) {
    for (const unsigned m : {16u, 64u, 256u}) {
      Deployment d = make_deployment(net::TopologyKind::kLine, n,
                                     WorkloadKind::kUniform,
                                     static_cast<Value>(n), 11 + n + m);
      proto::TreeApproxCountingService svc(*d.net, d.tree, {.registers = m});
      const auto before = d.net->all_stats();
      svc.apx_count(proto::Predicate::always_true());
      const std::uint64_t bits = window_max_node_bits(*d.net, before);
      const unsigned w = sketch::packed_width_for(n + 1);
      wire.rows.push_back({"m = " + std::to_string(m),
                           static_cast<double>(n), static_cast<double>(bits),
                           static_cast<double>(m * w), true});
      cost.add_row({std::to_string(n), std::to_string(m), std::to_string(w),
                    fmt_bits(bits),
                    fmt(static_cast<double>(bits) /
                        static_cast<double>(m * w))});
    }
  }
  cost.print();
  wire.shape();
  ledger.record(std::move(wire));
}

// EXP-T32 — Theorem 3.2: Fig. 1's deterministic median.
void theorem_3_2(Ledger& ledger) {
  Claim claim{"T32", "Theorem 3.2",
              "exact, ceil(log(M - m)) COUNTPs, O((log N)^2) bits per node",
              "Fig. 1 is exact in ceil(log2(M - m)) iterations on every input, "
              "with O((log N)^2) bits per node on line and grid"};
  for (const auto topology :
       {net::TopologyKind::kLine, net::TopologyKind::kGrid}) {
    Table table({"topology", "N", "exact?", "iterations", "max bits/node",
                 "bits / log2^2(N)"});
    for (const std::size_t n : {64UL, 256UL, 1024UL, 4096UL}) {
      Deployment d = make_deployment(topology, n, WorkloadKind::kUniform,
                                     static_cast<Value>(n * n), 1000 + n);
      const std::size_t actual = d.net->node_count();
      proto::TreeCountingService svc(*d.net, d.tree);
      const auto res = core::deterministic_median(svc);
      const bool exact = res.value == reference_median(d.items);
      const double log_n = static_cast<double>(ceil_log2(actual));
      const auto max_bits = d.net->summary().max_node_bits;
      claim.rows.push_back({net::topology_name(topology),
                           static_cast<double>(actual),
                           static_cast<double>(max_bits), log_n * log_n,
                           exact});
      table.add_row({net::topology_name(topology), std::to_string(actual),
                     exact ? "yes" : "NO", std::to_string(res.iterations),
                     fmt_bits(max_bits),
                     fmt(static_cast<double>(max_bits) / (log_n * log_n))});
    }
    table.print();
  }
  claim.shape();  // the rows below count iterations: bound = ceil(log(M - m))
  const auto add_row = [&claim](std::string series, const Deployment& d,
                                const core::DetSelectionResult& res) {
    const auto [lo, hi] = std::ranges::minmax(d.items);
    const unsigned bound =
        hi == lo ? 0 : ceil_log2(static_cast<std::uint64_t>(hi - lo));
    claim.rows.push_back(
        {std::move(series), static_cast<double>(d.items.size()),
         static_cast<double>(res.iterations), static_cast<double>(bound),
         res.iterations == bound && res.value == reference_median(d.items)});
  };
  Table table({"workload", "N", "exact?", "iterations", "COUNTP calls",
               "max bits/node"});
  for (const auto wl :
       {WorkloadKind::kUniform, WorkloadKind::kZipf,
        WorkloadKind::kClusteredField, WorkloadKind::kTwoPoint,
        WorkloadKind::kDenseCenter, WorkloadKind::kAllEqual}) {
    Deployment d = make_deployment(net::TopologyKind::kGrid, 1024, wl,
                                   1 << 20, 77);
    proto::TreeCountingService svc(*d.net, d.tree);
    const auto res = core::deterministic_median(svc);
    const bool exact = res.value == reference_median(d.items);
    table.add_row({workload_name(wl), std::to_string(d.net->node_count()),
                   exact ? "yes" : "NO", std::to_string(res.iterations),
                   std::to_string(res.countp_calls),
                   fmt_bits(d.net->summary().max_node_bits)});
    add_row(workload_name(wl), d, res);
  }
  table.print();

  // Iterations track log(M - m), independent of N.
  Table range({"value range X", "N", "iterations", "max bits/node"});
  for (const unsigned logx : {8u, 12u, 16u, 20u}) {
    Deployment d = make_deployment(net::TopologyKind::kLine, 512,
                                   WorkloadKind::kUniform,
                                   (Value{1} << logx) - 1, 31 + logx);
    proto::TreeCountingService svc(*d.net, d.tree);
    const auto res = core::deterministic_median(svc);
    std::string x = "2^";
    x += std::to_string(logx);
    range.add_row({x, "512", std::to_string(res.iterations),
                   fmt_bits(d.net->summary().max_node_bits)});
    add_row("X = " + x, d, res);
  }
  range.print();
  ledger.record(std::move(claim));
}

// Whether y is an (alpha, beta)-median of xs (Definition 4.1).
bool is_apx_median(const ValueSet& xs, Value y, double alpha, double beta) {
  const double k = static_cast<double>(xs.size()) / 2.0;
  const Value max_x = *std::max_element(xs.begin(), xs.end());
  const auto tol =
      static_cast<Value>(std::ceil(beta * static_cast<double>(max_x)));
  for (Value yp = y - tol; yp <= y + tol; ++yp) {
    const double lo = static_cast<double>(rank_below(xs, yp));
    const double hi = static_cast<double>(rank_below(xs, yp + 1));
    if (lo < k * (1 + alpha) && hi >= k * (1 - alpha)) return true;
  }
  return false;
}

// EXP-T45 — Theorem 4.5: Fig. 2's randomized median and its schedule.
void theorem_4_5(Ledger& ledger) {
  // Rows: the success rate over 12 trials (bound 1 - epsilon, from below),
  // then the APX_COUNT invocations of one run (bound: the schedule's count).
  Claim claim{"T45", "Theorem 4.5",
              "(alpha, beta)-median w.p. >= 1 - epsilon in ceil(2q) + "
              "iterations * ceil(32q) APX_COUNTs, q = log(M - m) / epsilon",
              "Fig. 2 returns an (alpha = 3 sigma, beta = 1/N)-median in >= "
              "1 - epsilon of the trials, within its schedule",
              true, false, "epsilon"};
  const std::size_t n = 32;
  const Value X = 63;  // small range keeps the paper schedule affordable
  Xoshiro256 wl_rng(5);
  const ValueSet xs = generate_workload(WorkloadKind::kUniform, n, X, wl_rng);

  Table table({"epsilon", "trials", "success rate", "required (1-eps)",
               "halted early", "APX_COUNT calls/run", "max bits/node/run"});
  for (const double eps : {0.5, 0.25, 0.125}) {
    constexpr int kTrials = 12;
    int wins = 0;
    int halted = 0;
    std::uint64_t calls = 0;
    std::uint64_t bits = 0;
    for (int t = 0; t < kTrials; ++t) {
      const auto [res, sigma, max_bits] = fig2_on_line(xs, 9000 + t, eps);
      if (is_apx_median(xs, res.value, 3.0 * sigma, 1.0 / n)) ++wins;
      if (res.halted_early) ++halted;
      calls += res.apx_count_calls;
      bits = std::max(bits, max_bits);
    }
    const double rate = static_cast<double>(wins) / kTrials;
    table.add_row({fmt(eps, 3), std::to_string(kTrials), fmt(rate, 2),
                   fmt(1.0 - eps, 2), std::to_string(halted),
                   fmt_bits(calls / kTrials), fmt_bits(bits)});
    claim.rows.push_back(
        {"success rate", eps, rate, 1.0 - eps, rate >= 1.0 - eps});
  }
  table.print();

  Table sched({"epsilon", "q", "ceil(2q)", "ceil(32q)", "measured calls",
               "predicted (no early halt)"});
  for (const double eps : {0.5, 0.25}) {
    const auto res = std::get<0>(fig2_on_line(xs, 123, eps));
    const double q = std::log2(static_cast<double>(X)) / eps;
    const auto r2 = static_cast<std::uint64_t>(std::ceil(2 * q));
    const auto r32 = static_cast<std::uint64_t>(std::ceil(32 * q));
    const std::uint64_t predicted = r2 + res.iterations * r32;
    sched.add_row({fmt(eps, 3), fmt(q, 1), fmt_bits(r2), fmt_bits(r32),
                   fmt_bits(res.apx_count_calls), fmt_bits(predicted)});
    claim.rows.push_back({"APX_COUNT calls", eps,
                          static_cast<double>(res.apx_count_calls),
                          static_cast<double>(predicted),
                          res.apx_count_calls <= predicted});
  }
  sched.print();
  ledger.record(std::move(claim));
}

std::string ascii_interval(Value lo, Value hi, Value x_max, Value median) {
  constexpr int kWidth = 64;
  std::string line(kWidth, '.');
  const auto pos = [&](Value v) {
    return static_cast<int>((static_cast<double>(v) /
                             static_cast<double>(x_max)) *
                            (kWidth - 1));
  };
  for (int i = pos(lo); i <= pos(hi); ++i) {
    line[static_cast<std::size_t>(i)] = '#';
  }
  line[static_cast<std::size_t>(pos(median))] = 'M';
  return line;
}

// EXP-FIG3 — Figure 3: the zoom step of APX_MEDIAN2, one verbose run.
void figure_3(Ledger& ledger) {
  const Value X = 1 << 20;
  // Uniform readings: no value mass straddles a dyadic boundary, so the
  // zoom's per-stage bucket choice is unambiguous and the picture is clean.
  // (Clustered fields whose bumps sit exactly on a power of two exercise the
  // alpha-amplification case instead — see EXP-C48's accuracy table.)
  Deployment d = make_deployment(net::TopologyKind::kGrid,
                                 ledger.quick ? 64 : 512,
                                 WorkloadKind::kUniform, X, 2024);
  const Value median = reference_median(d.items);
  const auto res =
      core::approx_median2(*d.net, d.tree, fig4_params(X, 1.0 / 4096, 64));

  // Integer interval ends: each stage's width may exceed half the previous
  // stage's by one value.
  Claim claim{"FIG3", "Figure 3", "each stage keeps one dyadic interval",
              "each zoom stage at least halves the interval", true, false,
              "stage"};
  Table table({"stage", "mu-hat", "interval (original domain)", "width / X",
               "rank target k"});
  double prev = 1.0;
  for (const auto& st : res.trace) {
    // Built piecewise: the `"[" + to_string(..) + ...` rvalue chain trips
    // GCC 12's -Wrestrict false positive (PR 105651) at -O3 under -Werror.
    std::string interval = "[";
    interval += std::to_string(st.interval_lo);
    interval += ", ";
    interval += std::to_string(st.interval_hi);
    interval += "]";
    const double width = static_cast<double>(st.interval_hi -
                                             st.interval_lo) /
                         static_cast<double>(X);
    table.add_row({std::to_string(st.stage), std::to_string(st.mu_hat),
                   interval, fmt(width, 6), fmt(st.k, 1)});
    const double bound = prev / 2 + 1.0 / static_cast<double>(X);
    claim.rows.push_back(
        {"zoom", static_cast<double>(st.stage), width, bound, width <= bound});
    prev = width;
  }
  table.print();
  ledger.record(std::move(claim));

  const double rank = static_cast<double>(rank_below(d.items, res.value + 1));
  std::cout << "true median = " << median << ", returned = " << res.value
            << " (rank " << rank << "/" << d.items.size()
            << "; Theorem 4.7's alpha grows by O(sigma) per stage, so a few "
               "percent of rank drift over "
            << res.stages << " stages is the predicted behaviour)\n\n";
  for (const auto& st : res.trace) {
    std::cout << "stage " << st.stage << "  "
              << ascii_interval(st.interval_lo, st.interval_hi, X, median)
              << "\n";
  }
  std::cout << "\nmax bits/node this run: "
            << fmt_bits(d.net->summary().max_node_bits) << "\n";
}

// EXP-C48 — Theorem 4.7 / Corollary 4.8: Fig. 4's polyloglog zoom.
void theorem_4_7(Ledger& ledger) {
  Claim polyloglog{"C48-bits", "Corollary 4.8", "O((log log N)^3) bits/node",
                   "Fig. 4 costs O((log log N)^3) bits/node: not shown, "
                   "apx2 / (loglog N)^3 rises with N here", false};
  Claim versus{"C48-vs-fig1", "Corollary 4.8",
               "O((log log N)^3) below Fig. 1's O((log N)^2) bits per node",
               "Fig. 4 undercuts Fig. 1 at large N: no crossover here, Fig. 4 "
               "costs more at every N", false, true};
  Table scaling({"N", "X", "apx2 bits/node", "det bits/node",
                 "apx2 / (loglog N)^3", "det / (log N)^2"});
  for (const std::size_t n :
       ledger.quick ? std::vector<std::size_t>{64, 256}
                    : std::vector<std::size_t>{64, 256, 1024, 4096}) {
    const auto X = static_cast<Value>(n * n);
    // Fig. 4 and Fig. 1 on the same deployment, reset between them.
    DeploymentArena arena(net::TopologyKind::kLine, n, WorkloadKind::kUniform,
                          X, 500 + n);
    Deployment& apx = arena.lease();
    core::approx_median2(*apx.net, apx.tree, fig4_params(X, 1.0 / 16));
    const std::uint64_t apx_bits = apx.net->summary().max_node_bits;
    Deployment& det = arena.lease();
    proto::TreeCountingService svc(*det.net, det.tree);
    core::deterministic_median(svc);
    const std::uint64_t det_bits = det.net->summary().max_node_bits;
    const double loglog = std::log2(std::log2(static_cast<double>(n)));
    const double log_n = std::log2(static_cast<double>(n));
    const double cube = loglog * loglog * loglog;
    const auto x = static_cast<double>(n);
    polyloglog.rows.push_back(
        {"line", x, static_cast<double>(apx_bits), cube, true});
    versus.rows.push_back({"line", x, static_cast<double>(apx_bits),
                           static_cast<double>(det_bits),
                           apx_bits < det_bits});
    std::string range = "2^";
    range += std::to_string(2 * ceil_log2(n));
    scaling.add_row({std::to_string(n), range, fmt_bits(apx_bits),
                     fmt_bits(det_bits),
                     fmt(static_cast<double>(apx_bits) / cube),
                     fmt(static_cast<double>(det_bits) / (log_n * log_n))});
  }
  scaling.print();
  std::cout << "(apx2 pays a large constant from repetitions, and its ratio "
               "column rises over this range: the (loglog N)^3 shape is not "
               "shown here, while det / (log N)^2 stays bounded.)\n\n";
  polyloglog.shape();
  ledger.record(std::move(polyloglog));
  ledger.record(std::move(versus));

  Claim precision{"C48-beta", "Theorem 4.7",
                  "width <= beta * X after ceil(log(1/beta)) stages",
                  "Fig. 4 reaches width beta * X: not met at beta = 1/512, "
                  "where the zoom stops early at beta = 1/64's width",
                  false, false, "beta"};
  Table beta_table({"beta target", "stages (<= ceil log 1/beta)",
                    "stopped early?", "achieved width / X", "meets beta?",
                    "bits/node"});
  const Value X = 1 << 16;
  for (const double beta :
       ledger.quick ? std::vector<double>{0.5, 1.0 / 512}
                    : std::vector<double>{0.5, 1.0 / 8, 1.0 / 64, 1.0 / 512}) {
    Deployment d = make_deployment(net::TopologyKind::kGrid, 256,
                                   WorkloadKind::kUniform, X, 900);
    const auto res = core::approx_median2(*d.net, d.tree, fig4_params(X, beta));
    const double width = static_cast<double>(res.interval_hi -
                                             res.interval_lo) /
                         static_cast<double>(X);
    beta_table.add_row({fmt(beta, 4), std::to_string(res.stages),
                        res.stopped_early ? "yes" : "no", fmt(width, 5),
                        width <= beta ? "yes" : "NO",
                        fmt_bits(d.net->summary().max_node_bits)});
    precision.rows.push_back(
        {"grid, N = 256", beta, width, beta, width <= beta});
  }
  beta_table.print();
  ledger.record(std::move(precision));

  if (ledger.quick) return;  // the accuracy table carries no claim
  Table accuracy({"workload", "N", "median", "apx2 value", "rank of value",
                  "rank error / N"});
  for (const auto wl : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                        WorkloadKind::kClusteredField}) {
    Deployment d = make_deployment(net::TopologyKind::kGrid, 512, wl,
                                   1 << 18, 321);
    const auto res = core::approx_median2(*d.net, d.tree,
                                          fig4_params(1 << 18, 1.0 / 256));
    const auto [err, rank] = rank_error(d.items, res.value);
    accuracy.add_row({workload_name(wl), std::to_string(d.items.size()),
                      std::to_string(reference_median(d.items)),
                      std::to_string(res.value), fmt(rank, 0), fmt(err, 3)});
  }
  accuracy.print();
}

// One loss level of the sweep: its table cells, its claim row, and the
// deployment rebuilds its arena absorbed.
struct LossCell {
  std::vector<std::string> cells;
  Row row;
  std::uint64_t rebuilds_avoided = 0;
};

// EXP-ROBUST — Section 2.2 / [2] / [6] / [10] under injected message loss.
// The loss sweep runs on the trial farm, one cell per loss level, each from
// its own DeploymentArena, so every worker count prints the same tables.
void robustness(Ledger& ledger) {
  // Bound: the tree wave's coverage, 1 when it answers and 0 when it stalls.
  Claim claim{"ROBUST", "Section 2.2",
              "trees are not robust to loss; ODI multipath is",
              "a tree wave stalls under any loss; multipath still covers at "
              "least as many nodes", true, false, "loss"};
  TrialFarm farm(ledger.threads);
  Table table({"loss", "tree wave", "multipath estimate", "coverage",
               "multipath bits/node", "gossip estimate", "gossip bits/node"});
  const std::size_t n = 144;  // 12x12 grid
  const std::vector<double> losses{0.0, 0.05, 0.15, 0.30};
  const proto::LogLogAgg::Request req{.registers = 128, .width = 6};

  const auto cells = farm.map<LossCell>(losses.size(), [&](std::size_t i) {
    // The three lanes share one deployment, reset between them.
    DeploymentArena arena(net::TopologyKind::kGrid, n, WorkloadKind::kUniform,
                          1 << 12, 42);
    const auto lease = [&]() -> Deployment& {
      Deployment& d = arena.lease();
      d.net->set_message_loss(losses[i]);
      return d;
    };
    LossCell out{{fmt(losses[i], 2)}, {"grid", losses[i], 0, 0, false}};
    {
      Deployment& d = lease();
      proto::TreeWave<proto::LogLogAgg> wave(d.tree, 1);
      try {
        const auto regs = wave.execute(*d.net, req);
        out.cells.push_back("ok (" + fmt(regs.estimate(), 0) + ")");
        out.row.bound = 1;
      } catch (const ProtocolError&) {
        out.cells.push_back("STALLED");
      }
    }
    {
      Deployment& d = lease();
      const auto res = proto::multipath_loglog_sweep(*d.net, 0, req);
      out.cells.push_back(fmt(res.registers.estimate(), 0));
      out.cells.push_back(std::to_string(res.covered_nodes) + "/" +
                          std::to_string(n));
      out.cells.push_back(fmt_bits(d.net->summary().max_node_bits));
      out.row.measured = static_cast<double>(res.covered_nodes) /
                         static_cast<double>(n);
    }
    // Gossip needs rounds ~ mixing time; a 12x12 grid mixes in O(n) rounds
    // (the "diffusion speed" caveat the paper quotes about [6]), so this
    // lane runs 600 rounds. Lost mass biases push-sum downward.
    {
      Deployment& d = lease();
      out.cells.push_back(
          fmt(proto::gossip_count(*d.net, 0, 600).root_estimate, 0));
      out.cells.push_back(fmt_bits(d.net->summary().max_node_bits));
    }
    out.row.ok = out.row.measured >= out.row.bound;
    out.rebuilds_avoided = arena.rebuilds_avoided();
    return out;
  });

  std::uint64_t avoided = 0;
  for (const LossCell& c : cells) {
    avoided += c.rebuilds_avoided;
    table.add_row(c.cells);
    claim.rows.push_back(c.row);
  }
  table.print();
  ledger.record(std::move(claim));
  std::cout << "(truth = 144. Gossip under loss drops conserved mass, "
               "biasing the estimate down — push-sum assumes reliable "
               "channels; multipath's ODI registers only need one surviving "
               "path per contribution.)\n";
  const auto& stats = farm.last_stats();
  std::cout << "(farm: " << stats.threads << " worker(s), " << stats.cells
            << " cells, " << stats.steals << " steal(s); arenas absorbed "
            << avoided << " deployment rebuilds)\n\n";

  std::cout << "### structure and diffusion speed (no loss, truth 256)\n\n";
  Table cost({"protocol", "graph", "rounds", "estimate", "max bits/node",
              "needs tree?"});
  // Four of the five rows run on one grid deployment; the arena rebuilds
  // none of them.
  DeploymentArena grid_arena(net::TopologyKind::kGrid, 256,
                             WorkloadKind::kUniform, 1 << 12, 7);
  {
    Deployment& d = grid_arena.lease();
    proto::TreeCountingService svc(*d.net, d.tree);
    const auto c = svc.count_all();
    cost.add_row({"tree COUNT (Fact 2.1)", "grid", "2h", std::to_string(c),
                  fmt_bits(d.net->summary().max_node_bits), "yes"});
  }
  {
    Deployment& d = grid_arena.lease();
    const auto res = proto::multipath_loglog_sweep(*d.net, 0, req);
    cost.add_row({"multipath LogLog (Fact 2.2 + [2])", "grid", "h",
                  fmt(res.registers.estimate(), 0),
                  fmt_bits(d.net->summary().max_node_bits), "no"});
  }
  // Push-sum's round budget is the mixing time: ~O(log N) on a complete
  // graph, ~O(N) on a grid — the "best possible diffusion speed" assumption
  // the paper quotes about [6], made concrete.
  {
    Deployment d = make_deployment(net::TopologyKind::kComplete, 256,
                                   WorkloadKind::kUniform, 1 << 12, 7);
    const auto res = proto::gossip_count(*d.net, 0, 48);
    cost.add_row({"push-sum gossip [6]", "complete", "48",
                  fmt(res.root_estimate, 0),
                  fmt_bits(d.net->summary().max_node_bits), "no"});
  }
  for (const unsigned rounds : {80u, 800u}) {
    Deployment& d = grid_arena.lease();
    const auto res = proto::gossip_count(*d.net, 0, rounds);
    cost.add_row({"push-sum gossip [6]", "grid", std::to_string(rounds),
                  fmt(res.root_estimate, 0),
                  fmt_bits(d.net->summary().max_node_bits), "no"});
  }
  cost.print();
  std::cout << "(grid arena served " << grid_arena.leases()
            << " trials for 1 build — " << grid_arena.rebuilds_avoided()
            << " rebuilds avoided)\n";
}

// EXP-ABL — design ablations. Only A, the degree cap, is a claim of the paper
// (Section 2.2: low individual cost needs bounded degree).
void ablations(Ledger& ledger) {
  Claim claim{"ABL-degree", "Section 2.2",
              "O(Delta log N) bits per node at max degree Delta",
              "a node's cost grows with its degree: the BFS star's hub pays "
              "~N responses, a capped tree's busiest node a few",
              true, false, "max degree"};
  std::cout << "### A. spanning-tree degree cap (COUNT wave on a single-hop "
               "deployment, N = 512)\n\n";
  Table degree({"tree", "max degree", "height", "max bits/node",
                "total bits", "rounds"});
  const std::size_t n = 512;
  for (const unsigned cap : {0u, 2u, 3u, 8u}) {
    sim::Network net(net::make_complete(n), 3);
    net.set_one_item_per_node(ValueSet(n, 7));
    const auto tree = cap == 0 ? net::bfs_tree(net.graph(), 0)
                               : net::capped_bfs_tree(net.graph(), 0, cap);
    proto::TreeCountingService svc(net, tree);
    svc.count_all();
    const auto s = net.summary();
    const auto delta = static_cast<double>(tree.max_degree());
    claim.rows.push_back({"complete graph, N = 512", delta,
                          static_cast<double>(s.max_node_bits),
                          delta * static_cast<double>(ceil_log2(n)), true});
    degree.add_row({cap == 0 ? "BFS (star)" : "capped-" + std::to_string(cap),
                    std::to_string(tree.max_degree()),
                    std::to_string(tree.height()), fmt_bits(s.max_node_bits),
                    fmt_bits(s.total_bits), fmt_bits(s.rounds)});
  }
  degree.print();
  claim.shape();
  ledger.record(std::move(claim));
  std::cout << "(the star's hub pays ~N responses; caps trade latency "
               "(height) for individual communication — Fact 2.1 needs the "
               "cap.)\n\n";

  std::cout << "### B. repetition schedule scale (Fig. 2, N = 64, X = 255, "
               "eps = 0.25, 10 trials each)\n\n";
  Table schedule({"rep_scale", "mean APX_COUNT calls", "max bits/node",
                  "median rank err/N (mean)"});
  Xoshiro256 rng(11);
  const ValueSet xs = generate_workload(WorkloadKind::kUniform, 64, 255, rng);
  for (const double scale : {1.0, 0.25, 0.05}) {
    double calls = 0;
    double err = 0;
    std::uint64_t bits = 0;
    for (int t = 0; t < 10; ++t) {
      const auto [res, sigma, max_bits] =
          fig2_on_line(xs, 400 + t, 0.25, scale);
      calls += res.apx_count_calls;
      err += rank_error(xs, res.value).first;
      bits = std::max(bits, max_bits);
    }
    schedule.add_row({fmt(scale, 2), fmt(calls / 10, 0), fmt_bits(bits),
                      fmt(err / 10, 3)});
  }
  schedule.print();

  std::cout << "### C. header accounting (Fig. 1 median, N = 1024, grid)\n\n";
  Table headers({"accounting", "max bits/node", "total bits"});
  Deployment d = make_deployment(net::TopologyKind::kGrid, 1024,
                                 WorkloadKind::kUniform, 1 << 20, 21);
  proto::TreeCountingService svc(*d.net, d.tree);
  core::deterministic_median(svc);
  for (const bool with_headers : {false, true}) {
    const auto s = d.net->summary(with_headers);
    headers.add_row({with_headers ? "payload + 24-bit headers"
                                  : "payload only (paper measure)",
                     fmt_bits(s.max_node_bits), fmt_bits(s.total_bits)});
  }
  headers.print();

  std::cout << "### D. estimator choice at equal wire cost (m = 64, N = "
               "4096 observations, 30 trials)\n\n";
  Table estimators({"estimator", "mean rel. bias", "rel. std dev",
                    "predicted sigma"});
  Xoshiro256 est_rng(31);
  for (const bool hll : {false, true}) {
    const auto [mean, sd] = estimator_error(64, hll, 4096, 30, est_rng);
    estimators.add_row({hll ? "HyperLogLog" : "LogLog", fmt(mean, 4),
                        fmt(sd, 4),
                        fmt(hll ? sketch::hyperloglog_sigma(64)
                                : sketch::loglog_sigma(64),
                            4)});
  }
  estimators.print();
}

// One deployment of the Section 1 comparison: every median algorithm on a
// fresh copy of one grid. Adds its N's row to each separation it runs.
void comparison_at(std::size_t n, Value X, bool include_randomized,
                   Claim& vs_tag, Claim& vs_fig1) {
  Xoshiro256 rng(77);
  const ValueSet xs = generate_workload(WorkloadKind::kUniform, n, X, rng);
  Table table({"algorithm", "exact?", "value", "rank err/N", "max bits/node",
               "total bits", "rounds"});
  std::vector<double> bits;  // max bits per node, in row order
  const auto add = [&](const char* name, Value value, const sim::Network& net,
                       bool exact) {
    const auto s = net.summary();
    table.add_row({name, exact ? "yes" : "no", std::to_string(value),
                   fmt(rank_error(xs, value).first, 3),
                   fmt_bits(s.max_node_bits),
                   fmt_bits(s.total_bits), fmt_bits(s.rounds)});
    bits.push_back(static_cast<double>(s.max_node_bits));
  };
  // Runs one median algorithm on a fresh copy of the grid and adds its row.
  const auto run = [&](const char* name, bool exact, auto median) {
    const auto side = static_cast<std::size_t>(std::sqrt(n));
    sim::Network net(net::make_grid(side, n / side), 99);
    for (NodeId u = 0; u < net.node_count() && u < n; ++u) {
      net.set_items(u, {xs[u]});
    }
    const Value value = median(net, net::bfs_tree(net.graph(), 0));
    add(name, value, net, exact);
  };
  run("Fig.1 deterministic (this paper)", true,
      [](auto& net, const auto& tree) {
        proto::TreeCountingService svc(net, tree);
        return core::deterministic_median(svc).value;
      });
  if (include_randomized) {
    run("Fig.2 randomized (this paper)", false,
        [](auto& net, const auto& tree) {
          return run_fig2(net, tree, 64, 0.25, 0.05).first.value;
        });
    run("Fig.4 polyloglog (this paper)", false,
        [X](auto& net, const auto& tree) {
          const auto params = fig4_params(X, 1.0 / 256, 64, 0.05);
          return core::approx_median2(net, tree, params).value;
        });
  }
  run("TAG collect-all [9]", true, [](auto& net, const auto& tree) {
    return baseline::tag_collect_median(net, tree).median;
  });
  run("uniform sampling (s=64) [10]", false,
      [](auto& net, const auto& tree) {
        return baseline::sampling_median(net, tree, 64).median;
      });
  run("GK summary (B=16) [4]", false, [](auto& net, const auto& tree) {
    return baseline::gk_median(net, tree, 16).median;
  });
  if (n <= 512) {
    sim::Network net(net::make_complete(n), 99);
    net.set_one_item_per_node(xs);
    const auto res = baseline::single_hop_median(net, 0, X);
    add("single-hop presence bits [14]", res.median, net, true);
  }
  std::cout << "### N = " << n << ", X = " << X
            << " (true median = " << reference_median(xs) << ")\n\n";
  table.print();

  // Rows: Fig. 1, [Fig. 2, Fig. 4,] TAG, ...
  const double fig1 = bits[0];
  const double tag = bits[include_randomized ? 3 : 1];
  const auto x = static_cast<double>(n);
  vs_tag.rows.push_back({"grid", x, fig1, tag, fig1 < tag});
  if (include_randomized) {
    vs_fig1.rows.push_back({"grid", x, bits[2], fig1, bits[2] < fig1});
  }
}

// EXP-CMP — Section 1's related work: every median on one deployment.
void comparison(Ledger& ledger) {
  Claim vs_tag{"CMP-tag", "Section 1",
               "O((log N)^2) against collect-all's Omega(N) bits per node",
               "Fig. 1 costs fewer bits per node than TAG collect-all at "
               "every N", true, true};
  Claim vs_fig1{"CMP-fig4", "Section 1", "O((log log N)^3) bits per node",
                "Fig. 4 undercuts every median at large N: not shown, it is "
                "the costliest row wherever it runs", false, true};
  // At 4096 the randomized drivers' repetition schedules dominate bench
  // runtime; their scaling story is EXP-C48's table.
  for (const std::size_t n : ledger.quick ? std::vector<std::size_t>{256}
                                          : std::vector<std::size_t>{256, 1024,
                                                                     4096}) {
    comparison_at(n, Value{1} << (2 * ceil_log2(n)), n < 4096, vs_tag,
                  vs_fig1);
  }
  ledger.record(std::move(vs_tag));
  ledger.record(std::move(vs_fig1));
}

struct Section {
  const char* id;
  const char* anchor;
  const char* claim;  // the banner's line: what the section's rows show
  void (*run)(Ledger&);
};

constexpr Section kSections[] = {
    {"EXP-F21", "Fact 2.1",
     "MIN/MAX/COUNT need O(log N) bits per node on bounded-degree trees; "
     "bits / log2(N) stays flat as N grows on line and grid (the geometric "
     "rows: an unbounded-degree BFS tree, the contrast)",
     fact_2_1},
    {"EXP-F22", "Fact 2.2",
     "LogLog counting: bias ~ 0, sigma*sqrt(m) -> ~1.30 (LogLog) / ~1.04 "
     "(HLL); per-node bits ~ m * loglog(N) — bits/(m*w) is flat in N once "
     "the registers fill (m = 256 starts low at N = 64)",
     fact_2_2},
    {"EXP-T32", "Theorem 3.2",
     "deterministic median: exact answer, ceil(log(M-m)) COUNTP waves, "
     "O((log N)^2) bits per node — the bits/log^2 ratio stays bounded as N "
     "grows 64x",
     theorem_3_2},
    {"EXP-T45", "Theorem 4.5",
     "Fig. 2 returns an (alpha=3sigma, beta=1/N)-median w.p. >= 1-eps; "
     "invocations (and bits) scale with 1/eps via the ceil(2q)/ceil(32q) "
     "repetition schedule, q = log(M-m)/eps",
     theorem_4_5},
    {"EXP-FIG3", "Figure 3",
     "each stage pins the median into a dyadic interval of the current "
     "domain, rescales it onto [1, X] and recurses; the interval (#) at least "
     "halves per stage, and noise can pin it beside the median (M)",
     figure_3},
    {"EXP-C48", "Theorem 4.7 / Corollary 4.8",
     "Fig. 4 zoom: (alpha, beta)-median in ceil(log 1/beta) stages with "
     "polyloglog bits/node — not shown here: apx2 / (loglog N)^3 rises, Fig. "
     "4 costs more than Fig. 1, and the zoom stops early at beta = 1/512",
     theorem_4_7},
    {"EXP-ROBUST", "Section 2.2 remark + [2]/[6]/[10]",
     "trees are cheap but fragile; ODI multipath pays redundancy for "
     "loss-tolerance; gossip needs no structure but more rounds — measured "
     "under injected message loss",
     robustness},
    {"EXP-ABL", "design ablations",
     "degree caps, repetition schedules, header accounting, and estimator "
     "choice — each knob isolated",
     ablations},
    {"EXP-CMP", "Section 1 related work",
     "medians compared on one deployment: Fig. 1 beats collect-all at every "
     "N; Fig. 4 is the costliest row wherever it runs (its edge is not "
     "shown); [14] trades tiny transmit for huge receive (single-hop only)",
     comparison},
};

}  // namespace
}  // namespace sensornet::bench

int main(int argc, char** argv) {
  using namespace sensornet::bench;
  Ledger ledger;
  std::string out_path = "BENCH_PAPER.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      ledger.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      ledger.threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: exp_paper [--quick] [--threads N] [--out PATH]\n";
      return 2;
    }
  }
  for (const Section& s : kSections) {
    print_banner(s.id, s.anchor, s.claim);
    s.run(ledger);
  }
  write_report(out_path, [&](Json& j) {
    write_header(j, "BENCH_PAPER", ledger.quick, ledger.threads);
    ledger.write(j);
  });
  return ledger.gates.exit_code();
}
