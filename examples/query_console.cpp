// The TAG-style query interface end to end: SQL-ish text in, planned
// protocol out, per-query bit bill printed. Runs a canned session, or reads
// queries from stdin when piped.
//
//   $ ./query_console
//   $ echo "SELECT MEDIAN(temp) FROM sensors ERROR 0.01" | ./query_console -
#include <iostream>
#include <string>

#include "src/common/workload.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/net/topology.hpp"
#include "src/query/executor.hpp"
#include "src/query/lexer.hpp"
#include "src/sim/network.hpp"

int main(int argc, char** argv) {
  using namespace sensornet;

  sim::Network net(net::make_grid(16, 16), 31415);
  Xoshiro256 rng(3);
  net.set_one_item_per_node(
      generate_workload(WorkloadKind::kClusteredField, 256, 1 << 12, rng));
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  query::Executor exec(query::Deployment{net, tree, 1 << 12});

  const auto run_one = [&](const std::string& text) {
    std::cout << "sensornet> " << text << "\n";
    try {
      const auto res = exec.run(text);
      if (res.empty_selection) {
        std::cout << "  = (empty selection)";
      } else {
        std::cout << "  = " << res.value
                  << (res.is_exact ? "  (exact)" : "  (approximate)");
      }
      std::cout << "\n  plan: " << res.plan
                << "\n  cost: max " << res.max_node_bits
                << " bits/mote, " << res.total_bits << " bits total, "
                << res.messages << " messages\n\n";
    } catch (const query::QueryError& e) {
      std::cout << "  syntax error: " << e.what() << "\n\n";
    } catch (const PreconditionError& e) {
      std::cout << "  error: " << e.what() << "\n\n";
    }
  };

  if (argc > 1 && std::string(argv[1]) == "-") {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) run_one(line);
    }
    return 0;
  }

  std::cout << "256-mote grid, clustered readings in [0, 4096). Canned "
               "session:\n\n";
  for (const char* q : {
           "SELECT COUNT(temp) FROM sensors",
           "SELECT MIN(temp) FROM sensors",
           "SELECT MAX(temp) FROM sensors",
           "SELECT AVG(temp) FROM sensors",
           "SELECT SUM(temp) FROM sensors ERROR 0.1",
           "SELECT MEDIAN(temp) FROM sensors",
           "SELECT MEDIAN(temp) FROM sensors ERROR 0.01 CONFIDENCE 0.75",
           "SELECT QUANTILE(temp, 0.9) FROM sensors",
           "SELECT COUNT(temp) FROM sensors WHERE temp >= 2048",
           "SELECT COUNT_DISTINCT(temp) FROM sensors",
           "SELECT COUNT_DISTINCT(temp) FROM sensors ERROR 0.1",
           "SELECT MEDIAN(temp) FROM sensors WHERE temp < 1000",
       }) {
    run_one(q);
  }
  return 0;
}
