// PERF — simulator hot-path benchmark with an in-run seed baseline.
//
// Three sections, one report (BENCH_PR7.json):
//
//  1. Parity matrix — runs a scenario matrix (line / grid / random-geometric
//     / complete single-hop topologies, with and without message loss,
//     across a unicast / broadcast / tree-wave protocol mix) on BOTH the
//     production simulator (CSR graph + shared payload slabs + calendar
//     queue) and a faithful replica of the seed simulator
//     (bench/util/legacy_sim.hpp), in the same process. Delivery counts are
//     cross-checked between the two implementations — a mismatch means the
//     rearchitected event loop changed semantics, and the row is flagged.
//     Matrix cells are scheduled by the work-stealing trial farm.
//
//  2. Thread scaling — one wave workload, many trials, executed at worker
//     counts 1/2/4/8. Every trial seeds from trial_seed(master, cell), so a
//     checksum over the per-trial outcomes must be identical at every
//     worker count; the report records wall-clock speedup AND that
//     determinism check. hardware_threads is recorded because speedup is
//     physically bounded by the cores actually present.
//
//  3. Scale ladder — grid and random-geometric deployments from 2^14 to
//     2^20 nodes: topology + tree build time, simulated deliveries/sec,
//     peak in-flight queue bytes, and the process RSS high-water mark.
//
// A fourth section lands in a second report (BENCH_PR9.json): the
// telemetry lane. It re-reads the thread-scaling rows through the obs
// metrics registry (farm.steals / farm.cells must agree with the farm's
// own stats), measures the registry's runtime overhead on a 2^17-node grid
// wave (registry enabled vs runtime-disabled, identical deliveries and
// checksums required, events/s penalty gated at 3% on full runs), and dumps
// the final registry snapshot. With --trace PATH it also runs a small
// traced wave and exports the Chrome trace_event JSON for
// chrome://tracing/Perfetto.
//
// Usage: perf_driver [--quick] [--out PATH] [--out9 PATH] [--threads N]
//                    [--trace PATH]
//   --quick    smaller scenario sizes (CI smoke lane)
//   --out      output JSON path (default: BENCH_PR7.json)
//   --out9     telemetry report path (default: BENCH_PR9.json)
//   --threads  farm workers; 0 = hardware concurrency (default),
//              1 reproduces the pre-farm serial driver exactly
//   --trace    export a Chrome trace of a small wave run to PATH
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/trial_farm.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/network.hpp"
#include "util/legacy_sim.hpp"
#include "util/report.hpp"

namespace sensornet::bench {
namespace {

// ---------------------------------------------------------------------------
// Uniform access to both simulator generations.
// ---------------------------------------------------------------------------
template <class Net>
struct SimTraits;

template <>
struct SimTraits<sim::Network> {
  using Msg = sim::Message;
  using Handler = sim::ProtocolHandler;
};

template <>
struct SimTraits<LegacyNetwork> {
  using Msg = LegacyMessage;
  using Handler = LegacyProtocolHandler;
};

/// Counts deliveries; the sink for storm / burst scenarios.
template <class Net>
class CountingHandler final : public SimTraits<Net>::Handler {
 public:
  std::uint64_t deliveries = 0;
  void on_message(Net&, NodeId,
                  const typename SimTraits<Net>::Msg&) override {
    ++deliveries;
  }
};

/// Relays each message one hop to the right along a line.
template <class Net>
class RelayHandler final : public SimTraits<Net>::Handler {
  using Msg = typename SimTraits<Net>::Msg;

 public:
  std::uint64_t deliveries = 0;
  void on_message(Net& net, NodeId receiver, const Msg& msg) override {
    ++deliveries;
    if (receiver + 1 < net.node_count()) {
      BitWriter w;
      w.write_bits(0xC3, 8);
      net.send(Msg::make(receiver, receiver + 1, msg.session, 1,
                         std::move(w)));
    }
  }
};

/// Request-down / count-up broadcast-convergecast waves over a spanning
/// tree — the TreeWave access pattern, reimplemented here so one source
/// drives both simulator generations. `lanes` independent query sessions
/// run concurrently per batch (lanes == 1 is the classic sequential wave),
/// modeling a root that pipelines queries instead of idling between them.
/// Under loss a wave silently covers less of the tree (fine for throughput
/// measurement; the production TreeWave driver would throw). Per-batch
/// resets touch only nodes the previous wave reached, so driver bookkeeping
/// stays off the measured hot path.
template <class Net>
class WaveHandler final : public SimTraits<Net>::Handler {
  using Msg = typename SimTraits<Net>::Msg;

 public:
  WaveHandler(const net::SpanningTree& tree, unsigned lanes)
      : tree_(tree), lanes_(lanes), state_(lanes) {
    for (auto& s : state_) {
      s.pending.assign(tree_.parent.size(), 0);
      s.acc.assign(tree_.parent.size(), 0);
    }
  }

  std::uint64_t deliveries = 0;
  std::uint64_t root_total = 0;

  void run_batch(Net& net, std::uint32_t batch) {
    batch_ = batch;
    for (unsigned lane = 0; lane < lanes_; ++lane) {
      auto& s = state_[lane];
      for (const NodeId u : s.touched) {
        s.pending[u] = 0;
        s.acc[u] = 0;
      }
      s.touched.clear();
      start(net, lane, tree_.root);
    }
    net.run(*this);
  }

  void on_message(Net& net, NodeId receiver, const Msg& msg) override {
    ++deliveries;
    const unsigned lane =
        static_cast<unsigned>(msg.session - batch_ * lanes_);
    if (msg.kind == 1) {
      start(net, lane, receiver);
    } else {
      auto& s = state_[lane];
      BitReader r = msg.reader();
      s.acc[receiver] += r.read_bits(32);
      if (--s.pending[receiver] == 0) finish(net, lane, receiver);
    }
  }

 private:
  struct Lane {
    std::vector<std::size_t> pending;
    std::vector<std::uint64_t> acc;
    std::vector<NodeId> touched;
  };

  void start(Net& net, unsigned lane, NodeId node) {
    auto& s = state_[lane];
    s.touched.push_back(node);
    s.acc[node] = 1;
    const auto& children = tree_.children[node];
    s.pending[node] = children.size();
    if (children.empty()) {
      finish(net, lane, node);
      return;
    }
    for (const NodeId child : children) {
      BitWriter w;
      w.write_bits(0x5AA5, 16);
      net.send(
          Msg::make(node, child, batch_ * lanes_ + lane, 1, std::move(w)));
    }
  }

  void finish(Net& net, unsigned lane, NodeId node) {
    auto& s = state_[lane];
    if (node == tree_.root) {
      root_total += s.acc[node];
      return;
    }
    BitWriter w;
    w.write_bits(static_cast<std::uint32_t>(s.acc[node]), 32);
    net.send(Msg::make(node, tree_.parent[node], batch_ * lanes_ + lane, 2,
                       std::move(w)));
  }

  const net::SpanningTree& tree_;
  unsigned lanes_;
  std::uint32_t batch_ = 0;
  std::vector<Lane> state_;
};

// ---------------------------------------------------------------------------
// Scenario bodies (templated over the simulator generation).
// ---------------------------------------------------------------------------

/// Every node shared-medium-broadcasts a small payload, every round.
template <class Net>
std::uint64_t broadcast_storm(Net& net, unsigned rounds) {
  using Msg = typename SimTraits<Net>::Msg;
  CountingHandler<Net> sink;
  const auto n = static_cast<NodeId>(net.node_count());
  for (unsigned r = 0; r < rounds; ++r) {
    for (NodeId u = 0; u < n; ++u) {
      BitWriter w;
      w.write_bits(0xA5, 8);
      net.send_medium(Msg::make(u, kNoNode, r, 1, std::move(w)));
    }
    net.run(sink);
  }
  return sink.deliveries;
}

/// `batches` batches of `lanes` concurrent broadcast-convergecast waves
/// over the BFS tree.
template <class Net>
std::uint64_t tree_waves(Net& net, const net::SpanningTree& tree,
                         unsigned lanes, unsigned batches) {
  WaveHandler<Net> handler(tree, lanes);
  for (unsigned b = 0; b < batches; ++b) handler.run_batch(net, b);
  return handler.deliveries;
}

/// End-to-end unicast relays along a line.
template <class Net>
std::uint64_t line_relay(Net& net, unsigned passes) {
  using Msg = typename SimTraits<Net>::Msg;
  RelayHandler<Net> handler;
  for (unsigned p = 0; p < passes; ++p) {
    BitWriter w;
    w.write_bits(0xC3, 8);
    net.send(Msg::make(0, 1, p, 1, std::move(w)));
    net.run(handler);
  }
  return handler.deliveries;
}

/// Every node unicasts a 40-byte (register-array-sized, heap-slab) payload
/// to each neighbor, every round.
template <class Net, class G>
std::uint64_t neighbor_burst(Net& net, const G& graph, unsigned rounds) {
  using Msg = typename SimTraits<Net>::Msg;
  CountingHandler<Net> sink;
  const auto n = static_cast<NodeId>(net.node_count());
  for (unsigned r = 0; r < rounds; ++r) {
    for (NodeId u = 0; u < n; ++u) {
      for (const NodeId v : graph.neighbors(u)) {
        BitWriter w;
        w.reserve(320);
        for (int word = 0; word < 5; ++word) {
          w.write_bits(0x0123456789ABCDEFULL ^ word, 64);
        }
        net.send(Msg::make(u, v, r, 1, std::move(w)));
      }
    }
    net.run(sink);
  }
  return sink.deliveries;
}

// ---------------------------------------------------------------------------
// Measurement plumbing.
// ---------------------------------------------------------------------------
struct RunMetrics {
  std::uint64_t deliveries = 0;
  double seconds = 0.0;
  std::size_t peak_in_flight_bytes = 0;

  double deliveries_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(deliveries) / seconds : 0.0;
  }
  double ns_per_delivery() const {
    return deliveries > 0
               ? seconds * 1e9 / static_cast<double>(deliveries)
               : 0.0;
  }
};

struct ScenarioResult {
  std::string name;
  std::string topology;
  std::string protocol;
  std::size_t nodes = 0;
  double loss = 0.0;
  RunMetrics fresh;   // production simulator
  RunMetrics legacy;  // seed replica
  bool deliveries_match = false;

  double speedup() const {
    return legacy.deliveries_per_sec() > 0.0
               ? fresh.deliveries_per_sec() / legacy.deliveries_per_sec()
               : 0.0;
  }
};

template <class Net, class Body>
RunMetrics measure(Net& net, Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  RunMetrics m;
  m.deliveries = body(net);
  const auto t1 = std::chrono::steady_clock::now();
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  m.peak_in_flight_bytes = net.peak_in_flight_bytes();
  return m;
}

/// Process RSS high-water mark (VmHWM), in KiB; 0 where /proc is absent.
std::size_t read_vm_hwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

/// Runs one scenario on both simulator generations over the same graph and
/// the same (seeded) loss stream. Legacy goes first; any allocator warm-up
/// therefore favors the baseline, not us.
template <class Body>
ScenarioResult run_scenario(std::string name, std::string topology,
                            std::string protocol, const net::Graph& graph,
                            double loss, Body&& body) {
  ScenarioResult res;
  res.name = std::move(name);
  res.topology = std::move(topology);
  res.protocol = std::move(protocol);
  res.nodes = graph.node_count();
  res.loss = loss;

  {
    LegacyNetwork legacy(LegacyGraph::from(graph));
    legacy.set_message_loss(loss);
    res.legacy = measure(legacy, body);
  }
  {
    sim::Network fresh(graph, /*master_seed=*/1);
    fresh.set_message_loss(loss);
    res.fresh = measure(fresh, body);
  }
  res.deliveries_match = res.fresh.deliveries == res.legacy.deliveries;
  return res;
}

void print_scenario(const ScenarioResult& res) {
  std::cout << std::left << std::setw(34) << res.name << " legacy "
            << std::setw(10) << std::right << std::fixed
            << std::setprecision(0) << res.legacy.deliveries_per_sec()
            << "/s   new " << std::setw(10) << res.fresh.deliveries_per_sec()
            << "/s   x" << std::setprecision(2) << res.speedup()
            << (res.deliveries_match ? "" : "   [DELIVERY MISMATCH]") << "\n";
}

// ---------------------------------------------------------------------------
// The parity matrix.
// ---------------------------------------------------------------------------
struct Scale {
  std::size_t storm_nodes, storm_rounds;
  std::size_t wave_lanes;
  std::size_t line_nodes, line_batches;
  std::size_t grid_side, grid_batches;
  std::size_t geo_nodes, geo_batches;
  std::size_t seq_waves;
  std::size_t relay_nodes, relay_passes;
  std::size_t burst_grid_side, burst_grid_rounds;
  std::size_t burst_geo_nodes, burst_geo_rounds;
  // thread-scaling section
  std::size_t scaling_trials, scaling_grid_side, scaling_lanes,
      scaling_batches;
  // scale ladder: log2 of the node counts to visit
  std::vector<unsigned> scale_exponents;
  // obs-overhead lane: 2^obs_exp-node grid, wave workload, best of obs_reps
  unsigned obs_exp, obs_lanes, obs_batches, obs_reps;
};

// Sized so every timed region runs for tens of milliseconds at seed-era
// throughput — long enough that steady_clock jitter stays in the noise.
const Scale kFull{256,  40, 32, 2048, 8,  64, 4, 2048, 6, 150,
                  4096, 400, 64, 25, 2048, 40,
                  32, 48, 8, 3, {14, 15, 16, 17, 18, 19, 20},
                  17, 4, 2, 5};
const Scale kQuick{96,  25, 32, 512, 4,  32, 2, 512, 3, 40,
                   1024, 80, 32, 8, 512, 10,
                   8, 24, 4, 2, {14, 15},
                   15, 2, 4, 7};

std::vector<ScenarioResult> run_matrix(const Scale& s, TrialFarm& farm) {
  const auto tag = [](const char* base, double loss) {
    return std::string(base) + (loss > 0.0 ? "/loss10" : "/loss0");
  };

  // Shared, compacted, strictly-const graphs: safe for concurrent cells.
  Xoshiro256 topo_rng(2024);
  const net::Graph complete = net::make_complete(s.storm_nodes);
  const net::Graph line = net::make_line(s.line_nodes);
  const net::Graph grid = net::make_grid(s.grid_side, s.grid_side);
  const net::Graph geo =
      net::make_topology(net::TopologyKind::kGeometric, s.geo_nodes, topo_rng);
  const net::Graph relay_line = net::make_line(s.relay_nodes);
  const net::Graph burst_grid =
      net::make_grid(s.burst_grid_side, s.burst_grid_side);
  const net::Graph burst_geo = net::make_topology(
      net::TopologyKind::kGeometric, s.burst_geo_nodes, topo_rng);

  const net::SpanningTree line_tree = net::bfs_tree(line, 0);
  const net::SpanningTree grid_tree = net::bfs_tree(grid, 0);
  const net::SpanningTree geo_tree = net::bfs_tree(geo, 0);

  // Cells close over the shared graphs and their own parameters; each
  // builds private legacy + fresh networks, so any worker may run any cell.
  std::vector<std::function<ScenarioResult()>> cells;
  for (const double loss : {0.0, 0.1}) {
    cells.push_back([&, loss] {
      return run_scenario(
          tag("storm/complete", loss), "complete", "broadcast-storm",
          complete, loss, [&](auto& net) {
            return broadcast_storm(net, static_cast<unsigned>(s.storm_rounds));
          });
    });
    cells.push_back([&, loss] {
      return run_scenario(
          tag("wave/line", loss), "line", "tree-wave", line, loss,
          [&](auto& net) {
            return tree_waves(net, line_tree,
                              static_cast<unsigned>(s.wave_lanes),
                              static_cast<unsigned>(s.line_batches));
          });
    });
    cells.push_back([&, loss] {
      return run_scenario(
          tag("wave/grid", loss), "grid", "tree-wave", grid, loss,
          [&](auto& net) {
            return tree_waves(net, grid_tree,
                              static_cast<unsigned>(s.wave_lanes),
                              static_cast<unsigned>(s.grid_batches));
          });
    });
    cells.push_back([&, loss] {
      return run_scenario(
          tag("wave/geometric", loss), "geometric", "tree-wave", geo, loss,
          [&](auto& net) {
            return tree_waves(net, geo_tree,
                              static_cast<unsigned>(s.wave_lanes),
                              static_cast<unsigned>(s.geo_batches));
          });
    });
    // Reference row: one wave at a time (a root that idles between
    // queries). With at most a handful of messages in flight there is no
    // queue pressure for the calendar to relieve; expect parity-to-modest
    // gains here, not the headline ratio.
    cells.push_back([&, loss] {
      return run_scenario(
          tag("waveseq/grid", loss), "grid", "tree-wave-seq", grid, loss,
          [&](auto& net) {
            return tree_waves(net, grid_tree, /*lanes=*/1,
                              static_cast<unsigned>(s.seq_waves));
          });
    });
    cells.push_back([&, loss] {
      return run_scenario(
          tag("relay/line", loss), "line", "unicast-relay", relay_line, loss,
          [&](auto& net) {
            return line_relay(net, static_cast<unsigned>(s.relay_passes));
          });
    });
    cells.push_back([&, loss] {
      return run_scenario(
          tag("burst/grid", loss), "grid", "neighbor-burst", burst_grid, loss,
          [&](auto& net) {
            return neighbor_burst(net, net.graph(),
                                  static_cast<unsigned>(s.burst_grid_rounds));
          });
    });
    cells.push_back([&, loss] {
      return run_scenario(
          tag("burst/geometric", loss), "geometric", "neighbor-burst",
          burst_geo, loss, [&](auto& net) {
            return neighbor_burst(net, net.graph(),
                                  static_cast<unsigned>(s.burst_geo_rounds));
          });
    });
  }

  auto results = farm.map<ScenarioResult>(
      cells.size(), [&](std::size_t cell) { return cells[cell](); });
  for (const auto& r : results) print_scenario(r);
  const auto& fs = farm.last_stats();
  std::cout << "(farm: " << fs.threads << " worker(s), " << fs.cells
            << " cells, " << fs.steals << " steal(s))\n";
  return results;
}

// ---------------------------------------------------------------------------
// Thread-scaling section: same trials, varying worker counts.
// ---------------------------------------------------------------------------
struct ScalingRow {
  unsigned threads = 0;
  double seconds = 0.0;
  std::uint64_t deliveries = 0;
  std::uint64_t steals = 0;
  std::uint64_t checksum = 0;  // over per-trial outcomes, order-stable
  // Telemetry view of the same run: the farm's FarmStats fields and the
  // deltas the run pushed into the global obs registry must agree.
  std::uint64_t blocks_dealt = 0;
  std::uint64_t registry_steals = 0;
  std::uint64_t registry_cells = 0;
  bool registry_consistent = true;

  double events_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(deliveries) / seconds : 0.0;
  }
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (x >> (8 * byte)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::vector<ScalingRow> run_thread_scaling(const Scale& s) {
  constexpr std::uint64_t kMaster = 0x7a11;
  const net::Graph grid =
      net::make_grid(s.scaling_grid_side, s.scaling_grid_side);
  const net::SpanningTree tree = net::bfs_tree(grid, 0);

  struct Outcome {
    std::uint64_t deliveries = 0;
    std::uint64_t max_node_bits = 0;
    std::size_t peak = 0;
  };
  // Even trials run lossless, odd trials at 10% loss: the checksum also
  // certifies that the loss stream is a function of the trial seed alone.
  const auto trial = [&](std::size_t cell) {
    sim::Network net(grid, trial_seed(kMaster, cell));
    net.set_message_loss(cell % 2 == 1 ? 0.1 : 0.0);
    Outcome o;
    o.deliveries =
        tree_waves(net, tree, static_cast<unsigned>(s.scaling_lanes),
                   static_cast<unsigned>(s.scaling_batches));
    o.max_node_bits = net.summary().max_node_bits;
    o.peak = net.peak_in_flight_bytes();
    return o;
  };

  std::vector<ScalingRow> rows;
  obs::Registry& reg = obs::Registry::global();
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    const obs::Snapshot before = reg.snapshot();
    TrialFarm farm(t);
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = farm.map<Outcome>(s.scaling_trials, trial);
    const auto t1 = std::chrono::steady_clock::now();

    ScalingRow row;
    row.threads = t;
    row.seconds = std::chrono::duration<double>(t1 - t0).count();
    row.steals = farm.last_stats().steals;
    row.blocks_dealt = farm.last_stats().blocks_dealt;
    row.checksum = 0xcbf29ce484222325ULL;
    for (const Outcome& o : outcomes) {
      row.deliveries += o.deliveries;
      row.checksum = fnv1a(row.checksum, o.deliveries);
      row.checksum = fnv1a(row.checksum, o.max_node_bits);
      row.checksum = fnv1a(row.checksum, o.peak);
    }
    // Cross-check the registry against the farm's own accounting: the
    // farm publishes cumulatively, so read this row's contribution as a
    // delta. (With SENSORNET_OBS=OFF the registry reads all-zero and the
    // check is vacuous.)
    const obs::Snapshot after = reg.snapshot();
    row.registry_steals =
        after.value("farm.steals") - before.value("farm.steals");
    row.registry_cells =
        after.value("farm.cells") - before.value("farm.cells");
    row.registry_consistent =
        !obs::kObsEnabled ||
        (row.registry_steals == row.steals &&
         row.registry_cells == s.scaling_trials &&
         after.value("farm.workers_last") == t &&
         (t > 1 || row.steals == 0));
    rows.push_back(row);
    std::cout << "threads " << t << ": " << std::fixed << std::setprecision(3)
              << row.seconds << " s, " << std::setprecision(0)
              << row.events_per_sec() << " deliveries/s, checksum "
              << std::hex << row.checksum << std::dec << ", " << row.steals
              << " steal(s), " << row.blocks_dealt << " block(s) dealt"
              << (row.registry_consistent ? "" : "   [REGISTRY MISMATCH]")
              << "\n";
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Scale ladder: grid + geometric deployments, 2^14 .. 2^20 nodes.
// ---------------------------------------------------------------------------
struct ScaleRow {
  std::string topology;
  std::size_t nodes = 0;
  double build_seconds = 0.0;  // graph + BFS tree
  double run_seconds = 0.0;
  std::uint64_t deliveries = 0;
  std::size_t peak_in_flight_bytes = 0;
  std::size_t vm_hwm_kb = 0;

  double events_per_sec() const {
    return run_seconds > 0.0
               ? static_cast<double>(deliveries) / run_seconds
               : 0.0;
  }
};

std::vector<ScaleRow> run_scale_ladder(const Scale& s) {
  std::vector<ScaleRow> rows;
  for (const unsigned exp : s.scale_exponents) {
    const std::size_t n = std::size_t{1} << exp;
    for (const bool geometric : {false, true}) {
      using Clock = std::chrono::steady_clock;
      ScaleRow row;
      row.topology = geometric ? "geometric" : "grid";

      const auto b0 = Clock::now();
      net::Graph graph(0);
      if (geometric) {
        Xoshiro256 rng(trial_seed(2024, exp));
        graph = net::make_topology(net::TopologyKind::kGeometric, n, rng);
      } else {
        // rows * cols == 2^exp exactly, and as square as a power of two gets
        graph = net::make_grid(std::size_t{1} << ((exp + 1) / 2),
                               std::size_t{1} << (exp / 2));
      }
      const net::SpanningTree tree = net::bfs_tree(graph, 0);
      const auto b1 = Clock::now();
      row.nodes = graph.node_count();
      row.build_seconds = std::chrono::duration<double>(b1 - b0).count();

      sim::Network net(std::move(graph), trial_seed(0x5ca1e, exp));
      const auto r0 = Clock::now();
      row.deliveries = tree_waves(net, tree, /*lanes=*/2, /*batches=*/1);
      const auto r1 = Clock::now();
      row.run_seconds = std::chrono::duration<double>(r1 - r0).count();
      row.peak_in_flight_bytes = net.peak_in_flight_bytes();
      row.vm_hwm_kb = read_vm_hwm_kb();

      std::cout << "scale/" << row.topology << " 2^" << exp << " ("
                << row.nodes << " nodes): build " << std::fixed
                << std::setprecision(2) << row.build_seconds << " s, "
                << std::setprecision(0) << row.events_per_sec()
                << " deliveries/s, peak in-flight "
                << row.peak_in_flight_bytes / 1024 << " KiB, RSS HWM "
                << row.vm_hwm_kb / 1024 << " MiB\n";
      rows.push_back(row);
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Telemetry lane (BENCH_PR9.json): registry overhead + trace export.
// ---------------------------------------------------------------------------
struct OverheadRun {
  std::uint64_t deliveries = 0;
  std::uint64_t checksum = 0;
  double seconds = 0.0;  // best of obs_reps repetitions

  double events_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(deliveries) / seconds : 0.0;
  }
};

struct OverheadResult {
  std::size_t nodes = 0;
  unsigned lanes = 0, batches = 0, reps = 0;
  OverheadRun enabled;   // registry live (the shipping default)
  OverheadRun disabled;  // Registry::global().set_enabled(false)

  bool deliveries_match() const {
    return enabled.deliveries == disabled.deliveries;
  }
  bool checksums_match() const {
    return enabled.checksum == disabled.checksum;
  }
  /// Events/s lost to the live registry, in percent (negative = noise).
  double overhead_pct() const {
    const double off = disabled.events_per_sec();
    return off > 0.0 ? (off - enabled.events_per_sec()) / off * 100.0 : 0.0;
  }
};

/// One wave workload on a 2^obs_exp-node grid, run with the registry
/// enabled and runtime-disabled. The two modes must produce identical
/// deliveries and checksums (metrics have zero semantic footprint), and
/// the enabled mode may cost at most 3% events/s (full runs) — both gated
/// in gate_claims().
/// Repetitions alternate modes and keep the best time per mode, so a
/// one-off scheduler hiccup cannot fake (or mask) an overhead.
OverheadResult run_obs_overhead(const Scale& s) {
  OverheadResult res;
  res.lanes = s.obs_lanes;
  res.batches = s.obs_batches;
  res.reps = s.obs_reps;
  const net::Graph grid =
      net::make_grid(std::size_t{1} << ((s.obs_exp + 1) / 2),
                     std::size_t{1} << (s.obs_exp / 2));
  res.nodes = grid.node_count();
  const net::SpanningTree tree = net::bfs_tree(grid, 0);

  const auto one_run = [&](bool registry_on) {
    obs::Registry::global().set_enabled(registry_on);
    sim::Network net(grid, trial_seed(0x0b5, s.obs_exp));
    OverheadRun r;
    const auto t0 = std::chrono::steady_clock::now();
    r.deliveries = tree_waves(net, tree, s.obs_lanes, s.obs_batches);
    const auto t1 = std::chrono::steady_clock::now();
    obs::Registry::global().set_enabled(true);
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.checksum = fnv1a(0xcbf29ce484222325ULL, r.deliveries);
    r.checksum = fnv1a(r.checksum, net.summary().max_node_bits);
    r.checksum = fnv1a(r.checksum, net.peak_in_flight_bytes());
    return r;
  };

  for (unsigned rep = 0; rep < s.obs_reps; ++rep) {
    const OverheadRun off = one_run(false);
    const OverheadRun on = one_run(true);
    if (rep == 0 || off.seconds < res.disabled.seconds) res.disabled = off;
    if (rep == 0 || on.seconds < res.enabled.seconds) res.enabled = on;
  }
  std::cout << "obs overhead (" << res.nodes << " nodes): registry on "
            << std::fixed << std::setprecision(0)
            << res.enabled.events_per_sec() << "/s, off "
            << res.disabled.events_per_sec() << "/s  ->  "
            << std::setprecision(2) << res.overhead_pct() << "% overhead"
            << (res.checksums_match() ? "" : "   [CHECKSUM MISMATCH]")
            << "\n";
  return res;
}

struct TraceInfo {
  std::string path;
  bool exported = false;
  std::size_t events = 0;
  std::uint64_t dropped = 0;
};

/// Runs a small wave with the global trace ring live and exports the
/// Chrome trace_event JSON — open in chrome://tracing or Perfetto.
TraceInfo export_trace(const std::string& path) {
  TraceInfo info;
  info.path = path;
  obs::TraceRing& ring = obs::TraceRing::global();
  ring.set_capacity(std::size_t{1} << 14);
  ring.set_enabled(true);
  sim::Network net(net::make_grid(8, 8), /*master_seed=*/42);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  tree_waves(net, tree, /*lanes=*/2, /*batches=*/1);
  ring.set_enabled(false);
  info.events = ring.size();
  info.dropped = ring.dropped();
  std::ofstream os(path);
  if (os) {
    ring.export_chrome_json(os);
    info.exported = true;
  }
  ring.clear();
  return info;
}

// ---------------------------------------------------------------------------
// Reports (BENCH_PR7.json, BENCH_PR9.json) and the claims gated on them.
// ---------------------------------------------------------------------------
/// Wall-clock speedup of a thread-scaling row over the serial first row.
double speedup_vs_serial(const std::vector<ScalingRow>& scaling,
                         const ScalingRow& row) {
  const double serial = scaling.front().seconds;
  return row.seconds > 0.0 && serial > 0.0 ? serial / row.seconds : 0.0;
}

double best_parallel_speedup(const std::vector<ScalingRow>& scaling) {
  double best = 0.0;
  for (const auto& row : scaling) {
    best = std::max(best, speedup_vs_serial(scaling, row));
  }
  return best;
}

/// Minimum speedup over one protocol's scenarios (0 when none ran).
double min_speedup(const std::vector<ScenarioResult>& results,
                   std::string_view protocol) {
  double lo = 0.0;
  for (const auto& r : results) {
    if (r.protocol != protocol) continue;
    lo = lo == 0.0 ? r.speedup() : std::min(lo, r.speedup());
  }
  return lo;
}

void write_run(Json& j, std::string_view key, const RunMetrics& m) {
  j.key(key)
      .object()
      .field("deliveries", m.deliveries)
      .field("seconds", m.seconds, 6)
      .field("deliveries_per_sec", m.deliveries_per_sec(), 1)
      .field("ns_per_delivery", m.ns_per_delivery(), 2)
      .field("peak_in_flight_bytes", m.peak_in_flight_bytes)
      .end();
}

void write_pr7(Json& j, const std::vector<ScenarioResult>& results,
               const std::vector<ScalingRow>& scaling,
               const std::vector<ScaleRow>& scale, bool quick,
               unsigned threads) {
  const double broadcast_min = min_speedup(results, "broadcast-storm");
  const double wave_min = min_speedup(results, "tree-wave");
  write_header(j, "BENCH_PR7", quick, threads);
  j.key("scenarios").array();
  for (const auto& r : results) {
    j.object()
        .field("name", r.name)
        .field("topology", r.topology)
        .field("protocol", r.protocol)
        .field("nodes", r.nodes)
        .field("loss", r.loss, 2)
        .field("deliveries_match", r.deliveries_match);
    write_run(j, "new", r.fresh);
    write_run(j, "legacy", r.legacy);
    j.field("speedup", r.speedup(), 3).end();
  }
  j.end().key("thread_scaling").array();
  for (const auto& row : scaling) {
    j.object()
        .field("threads", row.threads)
        .field("seconds", row.seconds, 6)
        .field("deliveries", row.deliveries)
        .field("events_per_sec", row.events_per_sec(), 1)
        .field("speedup_vs_serial", speedup_vs_serial(scaling, row), 3)
        .field("steals", row.steals)
        .field("checksum", hex(row.checksum))
        .end();
  }
  j.end().key("scale").array();
  for (const auto& row : scale) {
    j.object()
        .field("topology", row.topology)
        .field("nodes", row.nodes)
        .field("build_seconds", row.build_seconds, 6)
        .field("run_seconds", row.run_seconds, 6)
        .field("deliveries", row.deliveries)
        .field("events_per_sec", row.events_per_sec(), 1)
        .field("peak_in_flight_bytes", row.peak_in_flight_bytes)
        .field("vm_hwm_kb", row.vm_hwm_kb)
        .end();
  }
  j.end()
      .key("summary")
      .object()
      .field("all_deliveries_match",
             std::ranges::all_of(results, std::identity{},
                                 &ScenarioResult::deliveries_match))
      .field("broadcast_min_speedup", broadcast_min, 3)
      .field("tree_wave_min_speedup", wave_min, 3)
      .field("broadcast_speedup_target", 3.0, 1)
      .field("tree_wave_speedup_target", 1.5, 1)
      .field("broadcast_target_met", broadcast_min >= 3.0)
      .field("tree_wave_target_met", wave_min >= 1.5)
      .field("deterministic_across_thread_counts",
             std::ranges::all_of(scaling,
                                 [&](const ScalingRow& row) {
                                   return row.checksum ==
                                          scaling.front().checksum;
                                 }))
      .field("best_parallel_speedup", best_parallel_speedup(scaling), 3)
      .end();
}

void write_overhead_run(Json& j, std::string_view key, const OverheadRun& r) {
  j.key(key)
      .object()
      .field("deliveries", r.deliveries)
      .field("seconds", r.seconds, 6)
      .field("events_per_sec", r.events_per_sec(), 1)
      .field("checksum", hex(r.checksum))
      .end();
}

void write_pr9(Json& j, const std::vector<ScalingRow>& scaling,
               const OverheadResult& overhead, const obs::Snapshot& registry,
               const TraceInfo* trace, bool quick, unsigned threads) {
  const bool target_met = overhead.overhead_pct() <= 3.0;
  write_header(j, "BENCH_PR9", quick, threads);
  j.field("obs_compiled_in", obs::kObsEnabled).key("farm_scaling").array();
  for (const auto& row : scaling) {
    j.object()
        .field("threads", row.threads)
        .field("steals", row.steals)
        .field("blocks_dealt", row.blocks_dealt)
        .field("registry_steals", row.registry_steals)
        .field("registry_cells", row.registry_cells)
        .field("registry_consistent", row.registry_consistent)
        .end();
  }
  j.end()
      .key("obs_overhead")
      .object()
      .field("topology", "grid")
      .field("nodes", overhead.nodes)
      .field("lanes", overhead.lanes)
      .field("batches", overhead.batches)
      .field("reps", overhead.reps);
  write_overhead_run(j, "registry_enabled", overhead.enabled);
  write_overhead_run(j, "registry_disabled", overhead.disabled);
  j.field("deliveries_match", overhead.deliveries_match())
      .field("checksums_match", overhead.checksums_match())
      .field("overhead_pct", overhead.overhead_pct(), 3)
      .field("overhead_target_pct", 3.0, 1)
      .field("overhead_target_met", target_met)
      .end();
  std::ostringstream snapshot;
  registry.write_json(snapshot, static_cast<int>(2 * j.depth()));
  j.key("registry").raw(snapshot.str()).key("trace");
  if (trace == nullptr) {
    j.raw("null");
  } else {
    j.object()
        .field("path", trace->path)
        .field("exported", trace->exported)
        .field("events", trace->events)
        .field("dropped", trace->dropped)
        .end();
  }
  j.key("summary")
      .object()
      .field("registry_consistent",
             std::ranges::all_of(scaling, std::identity{},
                                 &ScalingRow::registry_consistent))
      .field("overhead_pct", overhead.overhead_pct(), 3)
      .field("overhead_target_met", target_met)
      .field("on_off_semantics_identical",
             overhead.deliveries_match() && overhead.checksums_match())
      .end();
}

/// Every semantic claim of both reports. Timing claims are limited to the
/// thread-scaling speedup (only where more than one core exists) and the
/// registry overhead (full runs only: a quick lane is too short to time).
/// Claims that read the obs registry apply only when it is compiled in.
void gate_claims(Gates& gates, const std::vector<ScenarioResult>& results,
                 const std::vector<ScalingRow>& scaling,
                 const std::vector<ScaleRow>& scale,
                 const OverheadResult& overhead, const obs::Snapshot& registry,
                 bool quick) {
  gates.gate(!results.empty(), "empty scenario list");
  for (const auto& r : results) {
    gates.gate(r.deliveries_match, "delivery count mismatch in ", r.name,
               " — semantics drift between simulator generations");
    gates.gate(r.fresh.deliveries > 0 && r.legacy.deliveries > 0, r.name,
               ": no deliveries");
  }
  gates.gate(scaling.size() == 4, "need 4 thread-scaling rows");
  for (const auto& row : scaling) {
    gates.gate(row.checksum == scaling.front().checksum,
               "thread-scaling checksum diverged at ", row.threads,
               " workers — scheduling leaked into trial outcomes");
    gates.gate(row.deliveries > 0, "no deliveries at ", row.threads,
               " workers");
    // Includes registry_steals == steals when the registry is compiled in.
    gates.gate(row.registry_consistent,
               "obs registry disagrees with the farm's own accounting at ",
               row.threads, " workers");
    gates.gate(row.blocks_dealt == row.threads &&
                   (row.threads > 1 || row.steals == 0),
               "farm dealt ", row.blocks_dealt, " block(s) with ",
               row.steals, " steal(s) to ", row.threads, " workers");
  }
  const unsigned cores = resolve_thread_count(0);
  gates.gate(cores == 1 || best_parallel_speedup(scaling) > 1.0,
             "no parallel speedup on ", cores, " cores");
  gates.gate(!scale.empty(), "empty scale section");
  for (const auto& row : scale) {
    gates.gate(row.topology == "grid" || row.topology == "geometric",
               "scale row has topology ", row.topology);
    gates.gate(row.nodes >= (std::size_t{1} << 14) && row.deliveries > 0,
               "scale row of ", row.nodes, " nodes: too small or silent");
  }
  gates.gate(overhead.deliveries_match() && overhead.checksums_match(),
             "enabling the metrics registry changed simulation semantics "
             "(deliveries or checksum drifted)");
  gates.gate(overhead.enabled.deliveries > 0, "overhead lane delivered none");
  gates.gate(quick || overhead.overhead_pct() <= 3.0, "registry overhead ",
             overhead.overhead_pct(), "% > 3%");
  if (obs::kObsEnabled) {
    for (const char* name : {"sim.deliveries", "farm.runs", "farm.cells"}) {
      gates.gate(registry.find(name) != nullptr, "registry missing ", name);
    }
    gates.gate(registry.value("sim.deliveries") > 0, "no sim.deliveries");
  }
}

}  // namespace
}  // namespace sensornet::bench

int main(int argc, char** argv) {
  using namespace sensornet::bench;
  bool quick = false;
  std::string out_path = "BENCH_PR7.json";
  std::string out9_path = "BENCH_PR9.json";
  std::string trace_path;
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--out9" && i + 1 < argc) {
      out9_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: perf_driver [--quick] [--out PATH] [--out9 PATH] "
                   "[--threads N] [--trace PATH]\n";
      return 2;
    }
  }

  const Scale& s = quick ? kQuick : kFull;
  sensornet::TrialFarm farm(threads);
  std::cout << "PERF simulator hot-path benchmark ("
            << (quick ? "quick" : "full") << " matrix, " << farm.threads()
            << " worker(s))\n\n";
  const auto results = run_matrix(s, farm);
  std::cout << "\n## thread scaling (hardware threads: "
            << sensornet::resolve_thread_count(0) << ")\n";
  const auto scaling = run_thread_scaling(s);
  std::cout << "\n## scale ladder\n";
  const auto scale_rows = run_scale_ladder(s);
  std::cout << "\n## telemetry\n";
  const auto overhead = run_obs_overhead(s);
  TraceInfo trace;
  if (!trace_path.empty()) {
    trace = export_trace(trace_path);
    std::cout << "trace: " << trace.events << " event(s), " << trace.dropped
              << " dropped -> " << trace.path
              << (trace.exported ? "" : "   [WRITE FAILED]") << "\n";
  }

  const sensornet::obs::Snapshot registry =
      sensornet::obs::Registry::global().snapshot();
  Gates gates;
  gate_claims(gates, results, scaling, scale_rows, overhead, registry, quick);
  gates.gate(trace_path.empty() || trace.exported, "cannot open ", trace_path,
             " for writing");

  std::cout << "\n";
  write_report(out_path, [&](Json& j) {
    write_pr7(j, results, scaling, scale_rows, quick, farm.threads());
  });
  write_report(out9_path, [&](Json& j) {
    write_pr9(j, scaling, overhead, registry,
              trace_path.empty() ? nullptr : &trace, quick, farm.threads());
  });
  return gates.exit_code();
}
