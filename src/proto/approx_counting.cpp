#include "src/proto/approx_counting.hpp"

#include "src/common/error.hpp"
#include "src/proto/tree_wave.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::proto {

TreeApproxCountingService::TreeApproxCountingService(
    sim::Network& net, const net::SpanningTree& tree, ApxCountConfig config,
    const LocalItemView& view)
    : net_(net), tree_(tree), view_(view), config_(config) {
  SENSORNET_EXPECTS(config_.registers >= 16 &&
                    (config_.registers & (config_.registers - 1)) == 0);
  // A register must hold ranks from up to ~N items per node * N nodes; the
  // node count bounds total observations for singleton inputs, and the +16
  // slack inside packed_width_for absorbs multi-item nodes. The width is
  // rounded to a packable dense width (4/5/6/8) for sketch::Hll.
  width_ = static_cast<std::uint8_t>(sketch::packed_width_for(
      static_cast<std::uint64_t>(net.node_count()) + 1));
}

double TreeApproxCountingService::apx_count(const Predicate& pred) {
  LogLogAgg::Request req;
  req.pred = pred;
  req.registers = static_cast<std::uint16_t>(config_.registers);
  req.width = width_;
  req.mode = config_.mode;
  req.salt = next_salt_++;
  if (next_salt_ == 0) next_salt_ = 1;

  TreeWave<LogLogAgg> wave(tree_, next_session_++, view_);
  const sketch::Hll hll = wave.execute(net_, req);
  last_count_empty_ = hll.zero_count() == hll.m();
  switch (config_.estimator) {
    case EstimatorKind::kLogLog:
      return hll.estimate_loglog();
    case EstimatorKind::kHyperLogLog:
      return hll.estimate();
  }
  throw ProtocolError("unknown estimator kind");
}

double TreeApproxCountingService::sigma() const {
  switch (config_.estimator) {
    case EstimatorKind::kLogLog:
      return sketch::loglog_sigma(config_.registers);
    case EstimatorKind::kHyperLogLog:
      return sketch::hyperloglog_sigma(config_.registers);
  }
  throw ProtocolError("unknown estimator kind");
}

double rep_countp(ApproxCountingService& svc, unsigned repetitions,
                  const Predicate& pred) {
  SENSORNET_EXPECTS(repetitions >= 1);
  double sum = 0.0;
  for (unsigned i = 0; i < repetitions; ++i) {
    sum += svc.apx_count(pred);
  }
  return sum / static_cast<double>(repetitions);
}

}  // namespace sensornet::proto
