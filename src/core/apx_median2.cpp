#include "src/core/apx_median2.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/common/mathutil.hpp"
#include "src/core/apx_median.hpp"
#include "src/proto/counting_service.hpp"
#include "src/proto/item_view.hpp"
#include "src/proto/tree_broadcast.hpp"

namespace sensornet::core {

namespace {

/// Node-local zoom state: the items a node still considers active, in the
/// current stage's rescaled domain. `staged` holds the next stage's values
/// between the mu-hat broadcast and the k-adjustment count (Fig. 4 performs
/// the count on X^(j), not X^(j+1)).
class Median2Session {
 public:
  Median2Session(sim::Network& net, const proto::LocalItemView& base_view)
      : states_(net.node_count()) {
    for (NodeId u = 0; u < net.node_count(); ++u) {
      // Fig. 4 line 2: purely local initialization, no communication.
      states_[u].current = base_view.items(net, u);
      for (Value& x : states_[u].current) x = std::max<Value>(x, 1);
    }
  }

  /// Applies the mu-hat broadcast at one node: items inside the dyadic
  /// interval [2^mu, 2^(mu+1)-1] rescale onto [1, X]; others go passive.
  void stage_rescale(NodeId u, Value mu_hat, Value max_value) {
    auto& st = states_[u];
    st.staged.clear();
    const Value lo = pow2_i64(static_cast<unsigned>(mu_hat));
    const Value hi = 2 * lo - 1;
    for (const Value x : st.current) {
      if (x < lo || x > hi) continue;
      if (lo == 1) {
        // mu-hat == 0: the interval is the single point {1}.
        st.staged.push_back(1);
      } else {
        st.staged.push_back(affine_rescale(x, lo, lo - 1, max_value - 1));
      }
    }
  }

  /// Flips every node to the staged values (deterministic local step the
  /// protocol schedules right after the k-adjustment wave).
  void commit_all() {
    for (auto& st : states_) st.current = std::move(st.staged);
  }

  const ValueSet& current(NodeId u) const { return states_[u].current; }

 private:
  struct NodeState {
    ValueSet current;
    ValueSet staged;
  };
  std::vector<NodeState> states_;
};

/// View of floor(log2 x) over the session's active items — the hat domain
/// every wave of Fig. 4 operates in.
class HatView final : public proto::LocalItemView {
 public:
  explicit HatView(const Median2Session& session) : session_(session) {}
  ValueSet items(sim::Network&, NodeId node) const override {
    ValueSet out;
    for (const Value x : session_.current(node)) {
      out.push_back(static_cast<Value>(floor_log2(
          static_cast<std::uint64_t>(std::max<Value>(x, 1)))));
    }
    return out;
  }

 private:
  const Median2Session& session_;
};

unsigned rep_count(double base, double scale) {
  return static_cast<unsigned>(std::max(1.0, std::ceil(base * scale)));
}

}  // namespace

ApxMedian2Result approx_median2(sim::Network& net,
                                const net::SpanningTree& tree,
                                const ApxMedian2Params& params,
                                const proto::LocalItemView& base_view) {
  SENSORNET_EXPECTS(params.beta > 0.0 && params.beta < 1.0);
  SENSORNET_EXPECTS(params.epsilon > 0.0 && params.epsilon < 1.0);
  SENSORNET_EXPECTS(params.max_value_bound >= 2);
  SENSORNET_EXPECTS(params.rank_phi > 0.0 && params.rank_phi < 1.0);
  SENSORNET_EXPECTS(params.rep_scale > 0.0);
  const Value X = params.max_value_bound;

  ApxMedian2Result res;
  Median2Session session(net, base_view);
  HatView hat_view(session);

  // All waves run over the hat domain: values <= log2(X), so MIN/MAX
  // partials, thresholds and the broadcast all cost O(log log N) bits.
  proto::TreeCountingService minmax(net, tree, hat_view);
  proto::ApxCountConfig cfg;
  cfg.registers = params.registers;
  cfg.estimator = params.estimator;
  proto::TreeApproxCountingService counter(net, tree, cfg, hat_view);

  const auto total_stages = static_cast<unsigned>(
      std::max(1.0, std::ceil(std::log2(1.0 / params.beta))));
  const double eps_inner = params.epsilon / (2.0 * total_stages);
  const unsigned r_outer = rep_count(
      2.0 * total_stages / params.epsilon, params.rep_scale);

  // Fig. 4 line 1: n and the initial rank target k = n/2 (REP_COUNTP,
  // summed in its order). A first count whose registers are all zero
  // certifies an empty input: stop there.
  double n = 0.0;
  for (unsigned i = 0; i < r_outer; ++i) {
    n += counter.apx_count(proto::Predicate::always_true());
    ++res.apx_count_calls;
    if (counter.last_count_empty()) {
      res.empty_input = true;
      return res;
    }
  }
  n /= static_cast<double>(r_outer);
  double k = n * params.rank_phi;

  std::vector<Value> mu_hats;
  std::uint32_t broadcast_session = 0x4000;  // disjoint from wave sessions

  for (unsigned stage = 1; stage <= total_stages; ++stage) {
    const double k_entering = k;
    // Line 3.1: mu-hat = APX_OS(X-hat, eps_inner, k).
    ApxSelectionParams os_params;
    os_params.epsilon = eps_inner;
    os_params.rep_scale = params.rep_scale;
    os_params.k_absolute = k;
    ApxSelectionResult os;
    try {
      os = approx_median(minmax, counter, os_params);
    } catch (const PreconditionError&) {
      // Every item went passive (estimation noise): stop refining. At
      // stage 1 nothing is passive yet, so the input was empty.
      res.stopped_early = stage > 1;
      break;
    }
    res.apx_count_calls += os.apx_count_calls;
    const Value mu_hat =
        std::clamp<Value>(os.value, 0,
                          static_cast<Value>(floor_log2(
                              static_cast<std::uint64_t>(X))));

    // Line 3.1 (cont.): broadcast mu-hat; each node stages its rescaled
    // value or goes passive (lines 3.2-3.3).
    proto::TreeBroadcast bc(
        tree, broadcast_session++,
        [&session, X](sim::Network&, NodeId node, BitReader r) {
          const auto mu = static_cast<Value>(decode_uint(r));
          session.stage_rescale(node, mu, X);
        });
    BitWriter w;
    encode_uint(w, static_cast<std::uint64_t>(mu_hat));
    bc.execute(net, std::move(w));

    // Line 3.4: k -= |{x-hat < mu-hat}| over the *current* (pre-commit)
    // items. In the hat domain the predicate is just "< mu-hat".
    const double removed = proto::rep_countp(
        counter, r_outer, proto::Predicate::less_than(mu_hat));
    res.apx_count_calls += r_outer;
    k = std::max(1.0, k - removed);

    // Switch every node to the staged values.
    session.commit_all();

    mu_hats.push_back(mu_hat);
    res.stages = stage;

    // Reconstruct the original-domain interval implied so far (inverse of
    // the affine chain; exact integer arithmetic throughout).
    Value lo = pow2_i64(static_cast<unsigned>(mu_hat));
    Value hi = 2 * lo - 1;
    for (auto it = mu_hats.rbegin() + 1; it != mu_hats.rend(); ++it) {
      const Value plo = pow2_i64(static_cast<unsigned>(*it));
      lo = affine_unscale(lo, plo, plo - 1, X - 1);
      hi = affine_unscale(hi, plo, plo - 1, X - 1);
    }
    res.interval_lo = std::clamp<Value>(lo, 0, X);
    res.interval_hi = std::clamp<Value>(hi, res.interval_lo, X);
    res.trace.push_back(Median2StageTrace{stage, mu_hat, res.interval_lo,
                                          res.interval_hi, k_entering});

    if (mu_hat == 0 || lo == hi) break;  // pinned to a single value
  }

  if (mu_hats.empty()) {
    // Only stage 1 can end the loop without a mu-hat, and no item is
    // passive there yet: its MIN wave found the input empty.
    res.empty_input = true;
    return res;
  }
  res.value = res.interval_lo + (res.interval_hi - res.interval_lo) / 2;
  return res;
}

}  // namespace sensornet::core
