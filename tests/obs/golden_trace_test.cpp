// Pins the Chrome trace of a tiny, fully deterministic service run: a
// 4-node line, one continuous whole-domain COUNT query, one epoch with one
// sensor update. Every event's timestamp is simulated time, so the exported
// JSON is a pure function of the run — any byte of drift here means the
// instrumentation (or the event order it observes) changed.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>

#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"
#include "src/obs/trace.hpp"
#include "src/service/engine.hpp"

namespace sensornet::service {
namespace {

// The complete expected trace: query admission and the broadcast that
// announces the group's schedule, the node-3 fused wave climbing to the
// root with its mark and the group's images (every edge is cold, so every
// node sends), the group's push, the answer (its collection finds the
// group fresh and sends nothing), and the epoch span wrapping it all.
constexpr const char kGolden[] = R"json({
  "displayTimeUnit": "ms",
  "droppedEventCount": 0,
  "traceEvents": [
    {"name": "query.admit", "cat": "service", "ph": "i", "ts": 0, "pid": 0, "tid": 0, "args": {"id": 1, "group": 0}},
    {"name": "msg.send", "cat": "sim", "ph": "i", "ts": 0, "pid": 0, "tid": 0, "args": {"from": 0, "to": 1}},
    {"name": "msg.deliver", "cat": "sim", "ph": "i", "ts": 1, "pid": 0, "tid": 0, "args": {"from": 0, "to": 1}},
    {"name": "msg.send", "cat": "sim", "ph": "i", "ts": 1, "pid": 0, "tid": 0, "args": {"from": 1, "to": 2}},
    {"name": "msg.deliver", "cat": "sim", "ph": "i", "ts": 2, "pid": 0, "tid": 0, "args": {"from": 1, "to": 2}},
    {"name": "msg.send", "cat": "sim", "ph": "i", "ts": 2, "pid": 0, "tid": 0, "args": {"from": 2, "to": 3}},
    {"name": "msg.deliver", "cat": "sim", "ph": "i", "ts": 3, "pid": 0, "tid": 0, "args": {"from": 2, "to": 3}},
    {"name": "msg.send", "cat": "sim", "ph": "i", "ts": 3, "pid": 0, "tid": 0, "args": {"from": 3, "to": 2}},
    {"name": "msg.deliver", "cat": "sim", "ph": "i", "ts": 4, "pid": 0, "tid": 0, "args": {"from": 3, "to": 2}},
    {"name": "msg.send", "cat": "sim", "ph": "i", "ts": 4, "pid": 0, "tid": 0, "args": {"from": 2, "to": 1}},
    {"name": "msg.deliver", "cat": "sim", "ph": "i", "ts": 5, "pid": 0, "tid": 0, "args": {"from": 2, "to": 1}},
    {"name": "msg.send", "cat": "sim", "ph": "i", "ts": 5, "pid": 0, "tid": 0, "args": {"from": 1, "to": 0}},
    {"name": "msg.deliver", "cat": "sim", "ph": "i", "ts": 6, "pid": 0, "tid": 0, "args": {"from": 1, "to": 0}},
    {"name": "mark.wave", "cat": "service", "ph": "X", "ts": 3, "dur": 3, "pid": 0, "tid": 0, "args": {"epoch": 1, "updated": 1}},
    {"name": "push.stats", "cat": "service", "ph": "X", "ts": 3, "dur": 3, "pid": 0, "tid": 0, "args": {"group": 0, "epoch": 1}},
    {"name": "query.answer", "cat": "service", "ph": "i", "ts": 6, "pid": 0, "tid": 0, "args": {"id": 1, "cached": 0}},
    {"name": "epoch", "cat": "service", "ph": "X", "ts": 3, "dur": 3, "pid": 0, "tid": 0, "args": {"epoch": 1, "answers": 1}}
  ]
}
)json";

TEST(GoldenTrace, FourNodeEpochIsByteStable) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with SENSORNET_OBS=OFF";

  sim::Network net(net::make_line(4), /*master_seed=*/7);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  net.set_one_item_per_node({10, 20, 30, 40});
  QueryService svc(query::Deployment{net, tree, /*max_value_bound=*/100},
                   ServiceConfig{});

  obs::TraceRing& ring = obs::TraceRing::global();
  ring.set_capacity(256);  // also clears any earlier buffered events
  ring.set_enabled(true);
  const auto r = svc.submit("SELECT COUNT(v) FROM s EVERY 1 EPOCHS");
  ASSERT_TRUE(r.ok());
  const SensorUpdate up{3, 42};
  const auto answers = svc.run_epoch(std::span(&up, 1));
  ring.set_enabled(false);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_DOUBLE_EQ(answers[0].value, 4.0);

  std::ostringstream os;
  ring.export_chrome_json(os);
  EXPECT_EQ(os.str(), std::string(kGolden));
}

}  // namespace
}  // namespace sensornet::service
