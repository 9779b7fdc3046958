#include "twin.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "src/common/error.hpp"
#include "src/query/lexer.hpp"
#include "src/query/parser.hpp"

namespace servicebench {

namespace q = sensornet::query;
namespace svc = sensornet::service;

namespace {

sensornet::cube::CubeConfig cube_config(const svc::ServiceConfig& c,
                                        unsigned registers) {
  sensornet::cube::CubeConfig cc;
  cc.levels = c.cube_levels;
  cc.distinct_registers = registers;
  cc.max_delta = c.max_delta;
  cc.horizon_epochs = c.cache_horizon_epochs;
  return cc;
}

bool stats_family(const q::Query& query) {
  return q::family(query.agg) == q::AggregateFamily::kStats;
}

}  // namespace

Twin::Twin(const sensornet::net::Graph& graph,
           const sensornet::net::SpanningTree& tree,
           const std::vector<Value>& readings, std::uint64_t net_seed,
           const svc::ServiceConfig& config, bool shadow_executor,
           SpanRecorder& spans)
    : net_(graph, net_seed),
      tree_(tree),
      config_(config),
      shadow_executor_(shadow_executor),
      spans_(spans),
      executor_(q::Deployment{net_, tree_, kBound}),
      scheduler_(net_, tree_, kBound, config.max_delta,
                 config.cache_horizon_epochs),
      cube_(config.use_cube
                ? std::make_unique<sensornet::cube::Cube>(
                      net_, tree_, kBound, scheduler_.dirty(),
                      cube_config(config, config.cube_distinct_registers))
                : nullptr),
      planner_(kBound, cube_.get()),
      cache_(kBound, config.max_delta, config.cache_horizon_epochs,
             config.cache_capacity),
      farm_(config.threads) {
  net_.set_one_item_per_node(readings);
  if (!config.use_cube) {
    shadow_cube_ = std::make_unique<sensornet::cube::Cube>(
        net_, tree_, kBound, scheduler_.dirty(), cube_config(config, 0));
    shadow_planner_ = std::make_unique<q::Planner>(kBound, shadow_cube_.get());
  }
}

Twin::~Twin() = default;

std::uint64_t Twin::bits() const {
  return net_.summary(/*include_headers=*/true).total_bits;
}

double Twin::tolerance(const Live& lq, double value) const {
  return lq.q.error ? *lq.q.error * std::max(1.0, std::abs(value)) : 0.0;
}

sensornet::Result<q::CostedPlan> Twin::plan(const q::Query& query,
                                            std::uint64_t id) {
  sensornet::Result<q::CostedPlan> r = [&] {
    SpanRecorder::Scope s(spans_, "query.plan", "query", id);
    return planner_.plan(query);
  }();
  if (r.ok()) {
    const q::CostedPlan& p = r.value();
    ++stats_.plans;
    stats_.plan_steps += p.steps.size();
    if (p.cube_served()) {
      for (const q::PlanStep& step : p.steps) {
        const double w = static_cast<double>(step.region.hi - step.region.lo + 1);
        stats_.cube_plan_width += w;
        if (step.kind == q::StepKind::kCubeCell) stats_.cell_width += w;
      }
    }
  }
  return r;
}

Twin::Parsed Twin::front(const std::string& text, std::uint64_t id) {
  Parsed out;
  try {
    {
      SpanRecorder::Scope s(spans_, "query.tokenize", "query", id);
      (void)q::tokenize(text);
    }
    SpanRecorder::Scope s(spans_, "query.parse", "query", id);
    out.q = q::parse_query(text);
  } catch (const q::QueryError&) {
    return out;
  }
  sensornet::Result<q::CostedPlan> planned = plan(out.q, id);
  if (!planned.ok()) return out;
  out.plan = std::move(planned).value();
  out.ok = true;
  return out;
}

void Twin::submit_batch(const std::vector<std::string>& texts,
                        std::uint64_t id) {
  {
    // The service's parallel front half, timed as one farm call.
    SpanRecorder::Scope s(spans_, "farm.map", "common", id);
    (void)farm_.map<char>(texts.size(), [&](std::size_t cell) -> char {
      try {
        return planner_.plan(q::parse_query(texts[cell])).ok() ? 1 : 0;
      } catch (const q::QueryError&) {
        return 0;
      }
    });
  }
  // The same front half serially, one span per stage, then serial admission.
  for (const std::string& text : texts) {
    Parsed p = front(text, id);
    if (p.ok) admit(std::move(p), id);
  }
}

void Twin::submit(const std::string& text, std::uint64_t id) {
  Parsed p = front(text, id);
  if (p.ok) admit(std::move(p), id);
}

void Twin::admit(Parsed&& p, std::uint64_t id) {
  Live lq;
  const std::uint32_t qid = next_id_++;
  lq.q = std::move(p.q);
  lq.plan = std::move(p.plan);
  lq.registered = epoch_;
  lq.every = lq.q.every_epochs.value_or(0);
  if (config_.use_cube && planner_.cube_eligible(lq.plan)) {
    lq.path = Path::kCube;
  } else if (stats_family(lq.q)) {
    lq.path = Path::kStats;
    SpanRecorder::Scope s(spans_, "shared_plan.ensure_group", "service", id);
    lq.group = scheduler_.ensure_stats_group(lq.plan.region);
  } else if (lq.q.agg == q::AggregateKind::kCountDistinct) {
    lq.path = Path::kDistinct;
    const unsigned registers =
        lq.plan.strategy == q::Strategy::kApproxDistinct ? lq.plan.registers : 0;
    SpanRecorder::Scope s(spans_, "shared_plan.ensure_group", "service", id);
    lq.group = scheduler_.ensure_distinct_group(lq.plan.region, registers);
  } else {
    lq.path = Path::kExecutor;
  }
  if (lq.every != 0) {
    live_.emplace(qid, std::move(lq));
  } else {
    serve(lq, id);
  }
}

void Twin::cancel(std::uint32_t query_id) { live_.erase(query_id); }

void Twin::serve(const Live& lq, std::uint64_t id) {
  if (lq.path == Path::kCube) {
    serve_cube(lq, id);
    return;
  }
  if (lq.path == Path::kStats && config_.use_cache) {
    SpanRecorder::Scope s(spans_, "result_cache.lookup", "service", id);
    if (cache_.lookup(lq.plan.region, lq.q.agg, lq.q.error, epoch_)) return;
  }
  answer_fresh(lq, id);
}

void Twin::serve_cube(const Live& lq, std::uint64_t id) {
  const bool stats = stats_family(lq.q);
  if (config_.use_cache && stats) {
    SpanRecorder::Scope s(spans_, "result_cache.lookup", "service", id);
    if (cache_.lookup(lq.plan.region, lq.q.agg, lq.q.error, epoch_)) return;
  }
  const q::CostedPlan replanned = plan(lq.q, id).value();
  if (stats) {
    std::optional<sensornet::cube::BracketedAnswer> br;
    {
      SpanRecorder::Scope s(spans_, "cube.stale_bracket", "cube", id);
      br = cube_->stale_bracket(replanned, lq.q.agg, epoch_);
    }
    ++stats_.stale_attempts;
    if (br && br->bound <= tolerance(lq, br->value)) {
      ++stats_.stale_hits;
      return;
    }
  }
  const std::uint64_t before = bits();
  sensornet::cube::ServeResult r;
  {
    SpanRecorder::Scope s(spans_, "cube.serve", "cube", id);
    r = cube_->serve(replanned, epoch_);
  }
  const std::uint64_t actual = bits() - before;
  ++stats_.cube_serves;
  stats_.cost_error_sum +=
      std::abs(static_cast<double>(replanned.est_cube_bits) -
               static_cast<double>(actual)) /
      static_cast<double>(std::max<std::uint64_t>(actual, 1));
  if (config_.use_cache && stats &&
      std::find(stored_regions_.begin(), stored_regions_.end(),
                replanned.region) == stored_regions_.end()) {
    SpanRecorder::Scope s(spans_, "result_cache.store", "service", id);
    cache_.store(replanned.region, epoch_, r.bundle);
    stored_regions_.push_back(replanned.region);
  }
}

void Twin::answer_fresh(const Live& lq, std::uint64_t id) {
  switch (lq.path) {
    case Path::kStats: {
      const svc::StatsBundle* b = nullptr;
      {
        SpanRecorder::Scope s(spans_, "shared_plan.collect_stats", "service", id);
        b = &scheduler_.collect_stats(lq.group, epoch_);
      }
      if (config_.use_cache &&
          std::find(stored_groups_.begin(), stored_groups_.end(), lq.group) ==
              stored_groups_.end()) {
        SpanRecorder::Scope s(spans_, "result_cache.store", "service", id);
        cache_.store(lq.plan.region, epoch_, *b);
        stored_groups_.push_back(lq.group);
      }
      break;
    }
    case Path::kDistinct: {
      SpanRecorder::Scope s(spans_, "shared_plan.collect_distinct", "service", id);
      (void)scheduler_.collect_distinct(lq.group, epoch_);
      break;
    }
    case Path::kCube:
      serve_cube(lq, id);
      break;
    case Path::kExecutor: {
      const std::uint64_t before = bits();
      {
        SpanRecorder::Scope s(spans_, "query.executor", "query", id);
        (void)executor_.run(lq.q, lq.plan);
      }
      ++stats_.executor_runs;
      stats_.executor_bits += bits() - before;
      break;
    }
  }
}

void Twin::run_epoch(std::span<const SensorUpdate> batch, std::uint64_t id) {
  ++epoch_;
  stored_groups_.clear();
  stored_regions_.clear();
  std::vector<NodeId> touched;
  touched.reserve(batch.size());
  for (const SensorUpdate& u : batch) {
    if (net_.items(u.node)[0] == u.value) continue;
    net_.update_item(u.node, 0, u.value);
    touched.push_back(u.node);
  }
  {
    const std::uint64_t before = bits();
    SpanRecorder::Scope s(spans_, "shared_plan.note_updates", "service", id);
    scheduler_.note_updates(touched, epoch_);
    stats_.mark_bits += bits() - before;
  }

  const auto is_due = [&](const Live& lq) {
    return lq.every != 0 && epoch_ > lq.registered &&
           (epoch_ - lq.registered) % lq.every == 0;
  };
  std::vector<std::uint32_t> fresh_needed;
  if (config_.use_cache) {
    for (const auto& [qid, lq] : live_) {
      if (lq.path != Path::kStats || !is_due(lq)) continue;
      SpanRecorder::Scope s(spans_, "result_cache.probe", "service", id);
      if (!cache_.probe(lq.plan.region, lq.q.agg, lq.q.error, epoch_)) {
        fresh_needed.push_back(lq.group);
      }
    }
  }
  for (const auto& [qid, lq] : live_) {
    if (!is_due(lq)) continue;
    const bool cacheable =
        lq.path == Path::kStats && config_.use_cache &&
        std::find(fresh_needed.begin(), fresh_needed.end(), lq.group) ==
            fresh_needed.end();
    if (cacheable) {
      SpanRecorder::Scope s(spans_, "result_cache.lookup", "service", id);
      (void)cache_.lookup(lq.plan.region, lq.q.agg, lq.q.error, epoch_);
    } else {
      answer_fresh(lq, id);
    }
  }
  if (epoch_ % kShadowEvery == 0) shadow(id);
}

void Twin::shadow(std::uint64_t id) {
  if (live_.empty()) return;
  auto it = live_.begin();
  std::advance(it, static_cast<long>(shadow_turn_++ % live_.size()));
  const Live& lq = it->second;
  if (shadow_cube_ && stats_family(lq.q)) {
    // The cube this workload's service runs without.
    const q::CostedPlan p = shadow_planner_->plan(lq.q).value();
    {
      SpanRecorder::Scope s(spans_, "shadow.cube.stale_bracket",
                            kShadowLayer, id);
      (void)shadow_cube_->stale_bracket(p, lq.q.agg, epoch_);
    }
    const std::uint64_t before = bits();
    {
      SpanRecorder::Scope s(spans_, "shadow.cube.serve", kShadowLayer, id);
      (void)shadow_cube_->serve(p, epoch_);
    }
    const std::uint64_t actual = bits() - before;
    ++stats_.cube_serves;
    stats_.cost_error_sum +=
        std::abs(static_cast<double>(p.est_cube_bits) -
                 static_cast<double>(actual)) /
        static_cast<double>(std::max<std::uint64_t>(actual, 1));
  }
  if (cube_ && stats_family(lq.q)) {
    // The shared stats group this workload's cube path bypasses.
    {
      SpanRecorder::Scope s(spans_, "shadow.result_cache.probe",
                            kShadowLayer, id);
      (void)cache_.probe(lq.plan.region, lq.q.agg, lq.q.error, epoch_);
    }
    std::uint32_t group = 0;
    {
      SpanRecorder::Scope s(spans_, "shadow.shared_plan.ensure_group",
                            kShadowLayer, id);
      group = scheduler_.ensure_stats_group(lq.plan.region);
    }
    SpanRecorder::Scope s(spans_, "shadow.shared_plan.collect_stats",
                          kShadowLayer, id);
    (void)scheduler_.collect_stats(group, epoch_);
  }
  if (shadow_executor_ && epoch_ % (4 * kShadowEvery) == 0) {
    // The naive comparator: the one-shot executor on the same query.
    const std::uint64_t before = bits();
    try {
      SpanRecorder::Scope s(spans_, "shadow.query.executor",
                            kShadowLayer, id);
      (void)executor_.run(lq.q, lq.plan);
    } catch (const sensornet::PreconditionError&) {
      return;  // e.g. an approximate AVG over an empty selection
    }
    ++stats_.executor_runs;
    stats_.executor_bits += bits() - before;
  }
}

}  // namespace servicebench
