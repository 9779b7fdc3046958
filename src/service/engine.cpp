#include "src/service/engine.hpp"

#include <algorithm>
#include <utility>

#include "src/common/error.hpp"
#include "src/obs/trace.hpp"
#include "src/query/lexer.hpp"
#include "src/query/parser.hpp"
#include "src/sim/network.hpp"

namespace sensornet::service {

namespace {

/// Bits/messages spent on the network since `before` — the unit of cost
/// attribution (headers included: bits on air are bits paid).
WaveShare cost_since(const sim::Network& net, const sim::CommSummary& before) {
  const sim::CommSummary after = net.summary(/*include_headers=*/true);
  return WaveShare{after.total_bits - before.total_bits,
                   after.total_messages - before.total_messages};
}

/// Exact answer for a stats aggregate from a bundle freshly collected over
/// `region`: the composer's one part at drift 0, which fails only on an
/// empty selection.
Answer bundle_answer(query::AggregateKind agg,
                     const query::RegionSignature& region,
                     const StatsBundle& b) {
  SENSORNET_EXPECTS(query::family(agg) == query::AggregateFamily::kStats);
  cube::BracketComposer composer;
  composer.add(b, region.whole_domain, /*drift=*/0.0,
               static_cast<double>(region.lo), static_cast<double>(region.hi));
  Answer a;
  if (const auto br = composer.answer(agg)) {
    a.value = br->value;
  } else {
    a.empty_selection = true;
  }
  return a;
}

cube::CubeConfig cube_config_from(const ServiceConfig& c) {
  cube::CubeConfig cc;
  cc.levels = c.cube_levels;
  cc.distinct_registers = c.cube_distinct_registers;
  cc.max_delta = c.max_delta;
  cc.horizon_epochs = c.cache_horizon_epochs;
  return cc;
}

}  // namespace

QueryService::QueryService(query::Deployment deployment, ServiceConfig config)
    : scheduler_(std::make_unique<SharedPlanScheduler>(
          deployment.net, deployment.tree, deployment.max_value_bound,
          config.max_delta, config.cache_horizon_epochs)),
      deployment_{deployment.net, scheduler_->tree(),
                  deployment.max_value_bound},
      config_(config),
      executor_(deployment_),
      cube_(config.use_cube
                ? std::make_unique<cube::Cube>(
                      deployment.net, deployment_.tree,
                      deployment.max_value_bound, scheduler_->dirty(),
                      cube_config_from(config))
                : nullptr),
      planner_(deployment.max_value_bound, cube_.get()),
      cache_(deployment.max_value_bound, config.max_delta,
             config.cache_horizon_epochs, config.cache_capacity),
      farm_(config.threads),
      last_update_epoch_(deployment.net.node_count(), 0) {
  SENSORNET_EXPECTS(config.max_delta >= 0);
  SENSORNET_EXPECTS(config.cache_horizon_epochs >= 1);
}

QueryService::~QueryService() = default;

QueryService::ParsedQuery QueryService::parse_and_plan(
    const std::string& text) const {
  ParsedQuery out;
  try {
    out.q = query::parse_query(text);
  } catch (const query::QueryError& e) {
    out.error = e.what();
    return out;
  }
  Result<query::CostedPlan> planned = planner_.plan(out.q);
  if (!planned.ok()) {
    out.error = planned.error();
    return out;
  }
  out.plan = std::move(planned).value();
  out.ok = true;
  return out;
}

Result<Admission> QueryService::submit(const std::string& text) {
  std::vector<ParsedQuery> one;
  one.push_back(parse_and_plan(text));
  return std::move(admit(std::move(one)).front());
}

std::vector<Result<Admission>> QueryService::submit_batch(
    const std::vector<std::string>& texts) {
  // Pure front half in parallel; cells share nothing and derive nothing from
  // execution order, so any worker count yields identical ParsedQuery slots.
  return admit(farm_.map<ParsedQuery>(
      texts.size(),
      [&](std::size_t cell) { return parse_and_plan(texts[cell]); }));
}

std::vector<Result<Admission>> QueryService::admit(
    std::vector<ParsedQuery>&& parsed) {
  // Serial back half in submission order: id allocation, group creation and
  // install broadcasts all touch the shared network. One-shots wait for the
  // batch's one serve.
  std::vector<Result<Admission>> out;
  out.reserve(parsed.size());
  std::vector<LiveQuery> one_shots;
  one_shots.reserve(parsed.size());  // `due` points into it
  std::vector<const LiveQuery*> due;
  std::vector<std::size_t> admission_of;  // due index -> out index
  scheduler_->hold_installs();  // one broadcast for the whole batch
  for (ParsedQuery& p : parsed) {
    if (!p.ok) {
      out.push_back(Result<Admission>::failure(std::move(p.error)));
      continue;
    }
    Admission adm;
    LiveQuery lq = route(std::move(p), adm);
    if (adm.continuous) {
      live_.emplace(lq.id, std::move(lq));
    } else {
      due.push_back(&one_shots.emplace_back(std::move(lq)));
      admission_of.push_back(out.size());
    }
    out.push_back(std::move(adm));
  }
  try {
    announce();  // the batch's installs and subscribers
  } catch (const ProtocolError&) {
    // Charged already, and the batch's queries are admitted: the schedules
    // stay pending until the next announce(), and a group whose install was
    // lost is installed again by its first collection.
  }
  const std::vector<Answer> answers = serve(due);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    out[admission_of[i]].value().answer = answers[i];
  }
  return out;
}

QueryService::LiveQuery QueryService::route(ParsedQuery&& parsed,
                                           Admission& adm) {
  LiveQuery lq;
  lq.id = next_id_++;
  lq.q = std::move(parsed.q);
  lq.plan = std::move(parsed.plan);
  lq.registered_epoch = epoch_;
  lq.every = lq.q.every_epochs.value_or(0);
  adm.id = lq.id;
  adm.continuous = lq.every != 0;

  // With the cube, every stats-family plan is cube-eligible (only distinct
  // plans of a foreign sketch geometry are not), so a service's bundle path
  // runs on the cube or on stats groups, never on both.
  const bool bundle =
      cube_ ? planner_.cube_eligible(lq.plan)
            : config_.share_aggregation &&
                  query::family(lq.q.agg) == query::AggregateFamily::kStats;
  const auto install_group = [&](auto&& ensure) {
    lq.group = ensure();
    group_costs_[lq.group];  // its install rides the batch's announce()
  };
  if (bundle && cube_) {
    lq.path = Path::kBundle;
    if (adm.continuous) {
      lq.pushed =
          cube_->subscribe(lq.plan, lq.every, lq.registered_epoch % lq.every);
    }
    adm.plan = "cube: " + lq.plan.description;
  } else if (bundle) {
    lq.path = Path::kBundle;
    install_group(
        [&] { return scheduler_->ensure_stats_group(lq.plan.region); });
    if (adm.continuous) {
      lq.pushed = {scheduler_->subscribe(lq.group, lq.every,
                                         lq.registered_epoch % lq.every)};
    }
    adm.plan = "shared stats bundle, group " + std::to_string(lq.group);
  } else if (config_.share_aggregation &&
             lq.q.agg == query::AggregateKind::kCountDistinct) {
    lq.path = Path::kDistinct;
    const unsigned registers =
        lq.plan.strategy == query::Strategy::kApproxDistinct
            ? lq.plan.registers
            : 0;
    install_group([&] {
      return scheduler_->ensure_distinct_group(lq.plan.region, registers);
    });
    adm.plan = "shared distinct group " + std::to_string(lq.group);
  } else {
    lq.path = Path::kExecutor;  // median/quantile: no shared representation
    const bool naive = !config_.share_aggregation && !cube_;
    adm.plan = (naive ? "naive: " : "per-query: ") + lq.plan.description;
  }

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("query.admit", "service", deployment_.net.now(), 0, "id",
                 lq.id, "group", lq.group);
  }
  return lq;
}

bool QueryService::cancel(QueryId id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  const LiveQuery& lq = it->second;
  // The nodes hear of it before the next epoch (run_epoch announces).
  if (lq.path == Path::kBundle && cube_) {
    cube_->unsubscribe(lq.pushed, lq.every, lq.registered_epoch % lq.every);
  } else if (lq.path == Path::kBundle) {
    scheduler_->unsubscribe(lq.group, lq.every,
                            lq.registered_epoch % lq.every);
  }
  live_.erase(it);
  return true;
}

void QueryService::announce() {
  // No query pays it: a group outlives the query that installed it. A lost
  // schedule has still spent its bits: they are charged before the error
  // leaves.
  std::vector<GroupShare> shares;
  WaveShare cube_cost;
  const auto charge = [&] {
    for (const GroupShare& g : shares) {
      GroupCost& gc = group_costs_[g.group];
      gc.bits_on_air += g.share.bits;
      gc.messages += g.share.messages;
      install_bits_on_air_ += g.share.bits;
      install_messages_ += g.share.messages;
    }
    install_bits_on_air_ += cube_cost.bits;
    install_messages_ += cube_cost.messages;
  };
  try {
    scheduler_->announce(shares);
    if (cube_) cube_->announce(cube_cost);
  } catch (const ProtocolError&) {
    charge();
    throw;
  }
  charge();
}

void QueryService::charge(const LiveQuery& payer, const WaveShare& share) {
  if (payer.path == Path::kDistinct || (payer.path == Path::kBundle && !cube_)) {
    GroupCost& gc = group_costs_[payer.group];
    gc.bits_on_air += share.bits;
    gc.messages += share.messages;
    gc.collections += share.collected ? 1 : 0;
  }
  QueryCost& qc = query_costs_[payer.id];
  qc.bits_on_air += share.bits;
  qc.messages += share.messages;
}

Answer QueryService::answer_cached(const LiveQuery& lq,
                                   const CachedAnswer& hit) {
  Answer a;
  a.id = lq.id;
  a.epoch = epoch_;
  a.value = hit.value;
  a.error_bound = hit.bound;
  a.exact = hit.exact;
  a.from_cache = true;
  ++telemetry_.answers;
  ++telemetry_.cache_hits;

  QueryCost& qc = query_costs_[lq.id];
  ++qc.answers;
  ++qc.cache_hits;
  // >= 0: the hit met the gate.
  qc.bound_slack += cube::tolerance_for(lq.q.error, hit.value) - hit.bound;

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("query.answer", "service", deployment_.net.now(), 0, "id",
                 lq.id, "cached", 1);
  }
  return a;
}

std::vector<Answer> QueryService::serve(std::span<const LiveQuery* const> due) {
  std::vector<const LiveQuery*> bundles;
  for (const LiveQuery* lq : due) {
    if (lq->path == Path::kBundle) bundles.push_back(lq);
  }
  const std::vector<Answer> bundle_answers = serve_bundles(bundles);
  auto next_bundle = bundle_answers.begin();
  std::vector<Answer> answers;
  answers.reserve(due.size());
  for (const LiveQuery* lq : due) {
    answers.push_back(lq->path == Path::kBundle ? *next_bundle++
                                                : answer_fresh(*lq));
  }
  return answers;
}

std::vector<Answer> QueryService::serve_bundles(
    std::span<const LiveQuery* const> due) {
  // One key per (region, sketch): what a fresh collection answers at once.
  struct Key {
    const LiveQuery* payer = nullptr;  // the key's first due query pays
    bool fresh = false;
    std::size_t batch = 0;     // cube backend: the claim's place in the batch
    cube::ServeResult served;  // a fresh key's bundle and wave shares
  };
  struct Route {
    Key* key = nullptr;
    std::optional<CachedAnswer> zero_bit;  // the cache's or the cells'
    bool cached = false;                   // zero_bit came from the cache
  };
  std::map<std::pair<query::RegionSignature, bool>, Key> keys;
  std::vector<Route> routes(due.size());

  // Planning pass, in id order, before any wave: a query of a key already
  // going fresh rides it unprobed; otherwise a cache probe (no hit counted:
  // the key may still go fresh), then with the cube one plan and its cell
  // brackets (cells claimed earlier price at 0, and a plan priced at 0 bits
  // composes exactly for free, so it skips the brackets). A query with no
  // zero-bit answer sends its key fresh.
  for (std::size_t i = 0; i < due.size(); ++i) {
    const LiveQuery& lq = *due[i];
    Route& route = routes[i];
    const bool sketch = lq.q.agg == query::AggregateKind::kCountDistinct;
    const auto [it, added] = keys.try_emplace({lq.plan.region, sketch});
    route.key = &it->second;
    if (added) route.key->payer = &lq;
    if (route.key->fresh) continue;
    if (config_.use_cache && !sketch) {
      route.zero_bit =
          cache_.probe(lq.plan.region, lq.q.agg, lq.q.error, epoch_);
      route.cached = route.zero_bit.has_value();
      if (route.cached) continue;
    }
    if (cube_) {
      Result<query::CostedPlan> planned = planner_.plan(lq.q);
      SENSORNET_EXPECTS(planned.ok());  // admitted queries stay plannable
      const query::CostedPlan plan = std::move(planned).value();
      if (!sketch && plan.est_cube_bits > 0) {
        const auto br = cube_->stale_bracket(plan, lq.q.agg, epoch_);
        if (br && br->bound <= cube::tolerance_for(lq.q.error, br->value)) {
          route.zero_bit = br;
          continue;
        }
      }
      route.key->batch = cube_->claim(plan, lq.every != 0);
    }
    route.key->fresh = true;
  }

  // The fresh keys' waves: the cube's one batched serve, or one
  // multiplexed convergecast over their stats groups (ascending ids).
  std::vector<Key*> fresh;
  for (auto& [k, key] : keys) {
    if (key.fresh) fresh.push_back(&key);
  }
  std::sort(fresh.begin(), fresh.end(), [](const Key* a, const Key* b) {
    return a->payer->group < b->payer->group;
  });
  std::vector<cube::ServeResult> served;  // by batch position
  std::vector<WaveShare> shares;          // aligned with `fresh`
  // A wave that loses a message has still spent its bits: the shares are
  // charged before the error leaves.
  const auto charge_fresh = [&] {
    for (std::size_t j = 0; j < fresh.size(); ++j) {
      Key& key = *fresh[j];
      if (!cube_) {
        charge(*key.payer, shares[j]);
        continue;
      }
      key.served = std::move(served[key.batch]);
      charge(*key.payer, WaveShare{key.served.bits, key.served.messages});
    }
  };
  try {
    if (cube_) {
      cube_->serve_claimed(epoch_, served);
    } else {
      std::vector<GroupId> groups;
      for (const Key* key : fresh) groups.push_back(key->payer->group);
      scheduler_->collect_stats_batch(groups, epoch_, shares);
    }
  } catch (const ProtocolError&) {
    charge_fresh();
    throw;
  }
  charge_fresh();
  if (!cube_) {
    for (Key* key : fresh) {
      key->served.bundle =
          scheduler_->collect_stats(key->payer->group, epoch_);
    }
  }

  // Answer pass: a fresh key answers all its due queries exactly; every
  // other query gets the zero-bit answer its own probe found.
  obs::TraceRing& ring = obs::TraceRing::global();
  std::vector<Answer> answers;
  answers.reserve(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    const LiveQuery& lq = *due[i];
    const Route& route = routes[i];
    const Key& key = *route.key;
    if (route.cached && !key.fresh) {
      // The serve stores nothing before this pass ends, so the entry the
      // probe approved is still there.
      const auto hit =
          cache_.lookup(lq.plan.region, lq.q.agg, lq.q.error, epoch_);
      SENSORNET_EXPECTS(hit.has_value());
      answers.push_back(answer_cached(lq, *hit));
      continue;
    }
    QueryCost& qc = query_costs_[lq.id];
    Answer a;
    if (!key.fresh) {
      const CachedAnswer& br = *route.zero_bit;  // the cells' drift bracket
      a.value = br.value;
      a.error_bound = br.bound;
      a.exact = br.exact;
      ++telemetry_.cube_stale_answers;
      ++qc.cube_stale;
      qc.bound_slack += cube::tolerance_for(lq.q.error, br.value) - br.bound;
      if (ring.enabled()) {
        ring.instant("query.answer", "service", deployment_.net.now(), 0, "id",
                     lq.id, "cube_stale", 1);
      }
    } else {
      if (key.served.has_distinct) {
        a.value = key.served.distinct_estimate;
        a.exact = false;
      } else {
        a = bundle_answer(lq.q.agg, lq.plan.region, key.served.bundle);
      }
      ++qc.fresh;
      ++(cube_ ? telemetry_.cube_fresh_answers
               : telemetry_.fresh_stats_answers);
      if (ring.enabled()) {
        ring.instant("query.answer", "service", deployment_.net.now(), 0, "id",
                     lq.id, cube_ ? "cube_fresh" : "cached", cube_ ? 1 : 0);
      }
    }
    a.id = lq.id;
    a.epoch = epoch_;
    ++telemetry_.answers;
    ++qc.answers;
    answers.push_back(a);
  }

  // Stores last: a store can evict, and a probe-approved entry must outlive
  // its lookup. A composed cube bundle brackets its whole region like any
  // collected bundle (cell inners nest inside the region's inner, cell
  // outers cover its outer).
  if (config_.use_cache) {
    for (const auto& [k, key] : keys) {
      const auto& [region, sketch] = k;
      if (key.fresh && !sketch) cache_.store(region, epoch_, key.served.bundle);
    }
  }
  return answers;
}

Answer QueryService::answer_fresh(const LiveQuery& lq) {
  const auto before = deployment_.net.summary(true);
  const std::uint64_t waves_before = scheduler_->stats().distinct_waves;
  // Marginal-cost attribution: a distinct collection is idempotent per
  // (group, epoch), so the first due subscriber pays it here and later
  // groupmates see a zero delta. A wave that loses a message has still
  // spent its bits: they are charged before the error leaves.
  const auto charge_run = [&] {
    WaveShare cost = cost_since(deployment_.net, before);
    cost.collected = scheduler_->stats().distinct_waves > waves_before;
    charge(lq, cost);
  };
  Answer a;
  try {
    if (lq.path == Path::kDistinct) {
      a.value = scheduler_->collect_distinct(lq.group, epoch_);
      a.exact = lq.plan.strategy == query::Strategy::kExactDistinct;
      ++telemetry_.distinct_answers;
    } else {
      SENSORNET_EXPECTS(lq.path == Path::kExecutor);
      const query::QueryResult r = executor_.run(lq.q, lq.plan);
      a.value = r.value;
      a.exact = r.is_exact;
      a.empty_selection = r.empty_selection;
      ++telemetry_.executor_runs;
      telemetry_.countp_edges_pruned += r.countp_edges_pruned;
      telemetry_.selection_resummaries += r.selection_resummaries;
    }
  } catch (const ProtocolError&) {
    charge_run();
    throw;
  }
  charge_run();
  a.id = lq.id;
  a.epoch = epoch_;
  ++telemetry_.answers;
  QueryCost& qc = query_costs_[lq.id];
  ++qc.answers;
  ++qc.fresh;

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("query.answer", "service", deployment_.net.now(), 0, "id",
                 lq.id, "cached", 0);
  }
  return a;
}

std::vector<Answer> QueryService::run_epoch(
    std::span<const SensorUpdate> updates) {
  ++epoch_;
  const SimTime epoch_t0 = deployment_.net.now();

  // Apply the batch under the drift model the cache's soundness rests on.
  std::vector<NodeId> touched;
  touched.reserve(updates.size());
  for (const SensorUpdate& u : updates) {
    SENSORNET_EXPECTS(u.node < deployment_.net.node_count());
    SENSORNET_EXPECTS(last_update_epoch_[u.node] != epoch_);
    last_update_epoch_[u.node] = epoch_;
    SENSORNET_EXPECTS(u.value >= 0 &&
                      u.value <= deployment_.max_value_bound);
    const auto items = deployment_.net.items(u.node);
    SENSORNET_EXPECTS(!items.empty());
    const Value old = items[0];
    const Value delta = u.value > old ? u.value - old : old - u.value;
    SENSORNET_EXPECTS(delta <= config_.max_delta);
    if (delta == 0) continue;  // no-op writes don't dirty the tree
    deployment_.net.update_item(u.node, 0, u.value);
    touched.push_back(u.node);
    ++telemetry_.updates_applied;
  }
  const auto is_due = [&](const LiveQuery& lq) {
    return lq.every != 0 && epoch_ > lq.registered_epoch &&
           (epoch_ - lq.registered_epoch) % lq.every == 0;
  };
  std::vector<const LiveQuery*> due;
  for (const auto& [id, lq] : live_) {  // map order == id order
    if (is_due(lq)) due.push_back(&lq);
  }
  // A pushed slot, a stats group's or the cube's, is read by the due
  // queries whose push carries it; the first of them pays its share.
  const auto reads = [&](const LiveQuery& lq, cube::SlotId slot) {
    return std::find(lq.pushed.begin(), lq.pushed.end(), slot) !=
           lq.pushed.end();
  };
  std::unique_ptr<cube::PartialStore::Push> push;
  if (config_.share_aggregation || config_.use_cube) {
    try {
      announce();  // cancels since the last announcement
    } catch (const ProtocolError&) {
      // No wave runs on schedules the nodes disagree on: the epoch fails
      // before its wave, and its marks go with the next one.
      scheduler_->defer_updates(touched, epoch_);
      throw;
    }
    // The mark wave serves every incremental consumer at once (shared
    // groups and cube cells ride the same marks); no single query caused
    // it, so its bits land in the service-level bucket. The images pushed
    // beside the marks are their slots' payers'. A wave that loses a
    // message has still spent its bits: they are charged before the error
    // leaves.
    const auto before = deployment_.net.summary(true);
    push = cube_ ? cube_->push(epoch_) : scheduler_->push(epoch_);
    const auto charge_wave = [&](bool delivered) {
      if (push && cube_) cube_->pushed(*push, delivered);
      if (push && !cube_) scheduler_->pushed(*push, delivered);
      WaveShare marks = cost_since(deployment_.net, before);
      for (std::size_t i = 0; push && i < push->slots().size(); ++i) {
        const WaveShare& share = push->shares()[i];
        marks.bits -= share.bits;
        marks.messages -= share.messages;
        const auto payer = std::find_if(due.begin(), due.end(), [&](auto* lq) {
          return reads(*lq, push->slots()[i]);
        });
        SENSORNET_EXPECTS(payer != due.end());  // the nodes push due ones only
        charge(**payer, share);
      }
      mark_bits_on_air_ += marks.bits;
      mark_messages_ += marks.messages;
    };
    try {
      scheduler_->note_updates(touched, epoch_, push.get());
    } catch (const ProtocolError&) {
      charge_wave(/*delivered=*/false);
      throw;
    }
    charge_wave(/*delivered=*/true);
  }

  const std::vector<Answer> answers = serve(due);
  // Image bits pushed for a slot that no due query read: the cache answered
  // all of them.
  for (std::size_t i = 0; push && i < push->slots().size(); ++i) {
    bool read = false;
    for (std::size_t j = 0; j < due.size() && !read; ++j) {
      read = reads(*due[j], push->slots()[i]) && !answers[j].from_cache;
    }
    if (!read) telemetry_.pushed_unread_image_bits += push->image_bits()[i];
  }

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("epoch", "service", epoch_t0,
                  deployment_.net.now() - epoch_t0, 0, "epoch", epoch_,
                  "answers", answers.size());
  }
  return answers;
}

TelemetrySnapshot QueryService::telemetry_snapshot() const {
  TelemetrySnapshot snap;
  snap.totals = telemetry_;
  snap.cache = cache_.counters();
  snap.plan = scheduler_->stats();
  if (cube_) snap.cube = cube_->stats();
  snap.mark_bits_on_air = mark_bits_on_air_;
  snap.mark_messages = mark_messages_;
  snap.install_bits_on_air = install_bits_on_air_;
  snap.install_messages = install_messages_;
  snap.queries = query_costs_;
  snap.groups = group_costs_;
  for (const auto& [id, lq] : live_) {
    if (lq.path == Path::kExecutor || (lq.path == Path::kBundle && cube_)) {
      continue;
    }
    ++snap.groups[lq.group].subscribers;
  }
  return snap;
}

}  // namespace sensornet::service
