// Approximate counting (Fact 2.2) as an abstract alpha-counting service.
//
// One invocation runs a LogLog register wave: every node folds a geometric
// sample per matching item into m registers of O(log log N) bits, registers
// aggregate by elementwise max up the tree, the root applies the estimator.
// Definition 2.1's (alpha, sigma^2) parameters are exposed so the Fig. 2/4
// drivers can derive their decision thresholds from the service they're
// given rather than from baked-in constants.
#pragma once

#include <cstdint>

#include "src/net/spanning_tree.hpp"
#include "src/proto/aggregations.hpp"
#include "src/proto/item_view.hpp"
#include "src/proto/predicate.hpp"
#include "src/sim/network.hpp"

namespace sensornet::proto {

enum class EstimatorKind {
  kLogLog,       // Durand-Flajolet geometric-mean (the Fact 2.2 citation)
  kHyperLogLog,  // harmonic-mean + small-range correction (better constants)
};

struct ApxCountConfig {
  /// Number of registers m (power of two). sigma ~ 1.3/sqrt(m) (LogLog) or
  /// ~1.04/sqrt(m) (HLL).
  unsigned registers = 64;
  EstimatorKind estimator = EstimatorKind::kHyperLogLog;
  /// kRandom counts observations; kHashed counts distinct values.
  LogLogAgg::Mode mode = LogLogAgg::Mode::kRandom;
};

class ApproxCountingService {
 public:
  virtual ~ApproxCountingService() = default;

  /// One APX_COUNT(P) invocation: an unbiased-up-to-alpha estimate of
  /// |{x : P(x)}|.
  virtual double apx_count(const Predicate& pred) = 0;

  /// Relative standard deviation of a single invocation (Def 2.1's sigma).
  virtual double sigma() const = 0;

  /// Relative bias bound (Def 2.1's alpha). The theorems need
  /// alpha_c < sigma/2; we report sigma/4 as a defensive modeling bound
  /// (the asymptotic bias of the estimators is far smaller).
  virtual double alpha_c() const = 0;

  virtual sim::Network& network() = 0;
};

class TreeApproxCountingService final : public ApproxCountingService {
 public:
  TreeApproxCountingService(sim::Network& net, const net::SpanningTree& tree,
                            ApxCountConfig config,
                            const LocalItemView& view = raw_item_view());

  double apx_count(const Predicate& pred) override;
  double sigma() const override;
  double alpha_c() const override { return sigma() / 4.0; }
  sim::Network& network() override { return net_; }

  /// Waves issued so far.
  std::uint32_t waves() const { return next_session_; }

  /// The last apx_count's registers were all zero. In the kRandom and
  /// kHashed modes every matching item sets a register, so this certifies
  /// exactly that no item matched.
  bool last_count_empty() const { return last_count_empty_; }

  const ApxCountConfig& config() const { return config_; }

 private:
  sim::Network& net_;
  const net::SpanningTree& tree_;
  const LocalItemView& view_;
  ApxCountConfig config_;
  std::uint8_t width_;
  std::uint32_t next_session_ = 0;
  std::uint16_t next_salt_ = 1;
  bool last_count_empty_ = false;
};

/// Fig. 2's REP_COUNTP subroutine: average of `repetitions` independent
/// APX_COUNT(P) invocations. The averaged estimate has variance sigma^2/r
/// (Lemma 4.1).
double rep_countp(ApproxCountingService& svc, unsigned repetitions,
                  const Predicate& pred);

}  // namespace sensornet::proto
