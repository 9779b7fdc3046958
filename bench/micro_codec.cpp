// Microbenchmarks: bit I/O, Elias codecs, stats delta images, and a full
// aggregation wave (google-benchmark).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/codec.hpp"
#include "src/common/rng.hpp"
#include "src/cube/partials.hpp"
#include "src/net/topology.hpp"
#include "src/proto/aggregations.hpp"
#include "src/proto/tree_wave.hpp"

namespace {

using namespace sensornet;

void BM_BitWriterChunks(benchmark::State& state) {
  for (auto _ : state) {
    BitWriter w;
    for (int i = 0; i < 64; ++i) {
      w.write_bits(0xABCDEF0123456789ULL, 37);
    }
    benchmark::DoNotOptimize(w.bytes());
  }
}
BENCHMARK(BM_BitWriterChunks);

void BM_EliasDeltaRoundTrip(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::vector<std::uint64_t> values(256);
  for (auto& v : values) v = (rng.next_u64() >> rng.next_below(60)) | 1;
  for (auto _ : state) {
    BitWriter w;
    for (const auto v : values) elias_delta_encode(w, v);
    BitReader r(w.bytes().data(), w.bit_count());
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      sink ^= elias_delta_decode(r);
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_EliasDeltaRoundTrip);

void BM_PredicateRoundTrip(benchmark::State& state) {
  const auto pred = proto::Predicate::less_than(123456);
  for (auto _ : state) {
    BitWriter w;
    pred.encode(w);
    BitReader r(w.bytes().data(), w.bit_count());
    auto back = proto::Predicate::decode(r);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_PredicateRoundTrip);

/// The stats slots' margin: the default cube's horizon × max_delta.
constexpr Value kMargin = 32;

/// 256 (baseline, next) bundle pairs of 32 readings in [0, 1000] over
/// [100, 900] at kMargin, as a stale edge sees them: `moved` readings
/// drift by up to 4 (0: nothing moved). Whole-domain bundles collapse their
/// margins onto the core.
std::vector<std::pair<cube::StatsBundle, cube::StatsBundle>> stats_pairs(
    int moved, bool whole_domain) {
  constexpr Value kLo = 100;
  constexpr Value kHi = 900;
  const auto bundle = [&](const std::vector<Value>& readings) {
    cube::StatsBundle b;
    for (const Value v : readings) {
      if (whole_domain || (v >= kLo && v <= kHi)) b.core.observe(v);
      if (v >= kLo + kMargin && v <= kHi - kMargin) b.inner.observe(v);
      if (v >= kLo - kMargin && v <= kHi + kMargin) b.outer.observe(v);
    }
    if (whole_domain) {
      b.inner = b.core;
      b.outer = b.core;
    }
    return b;
  };
  Xoshiro256 rng(3);
  std::vector<std::pair<cube::StatsBundle, cube::StatsBundle>> pairs;
  for (int p = 0; p < 256; ++p) {
    std::vector<Value> readings(32);
    for (Value& v : readings) v = static_cast<Value>(rng.next_below(1001));
    const cube::StatsBundle base = bundle(readings);
    for (int m = 0; m < moved; ++m) {
      Value& v = readings[rng.next_below(readings.size())];
      v = std::max<Value>(0, v + static_cast<Value>(rng.next_below(9)) - 4);
    }
    pairs.emplace_back(base, bundle(readings));
  }
  return pairs;
}

/// Encodes and decodes one stats delta image per pair: range(0) readings
/// moved (0, 1 or 8), range(1) whole-domain. Items are images.
void BM_StatsDeltaRoundTrip(benchmark::State& state) {
  const bool whole = state.range(1) != 0;
  const auto pairs = stats_pairs(static_cast<int>(state.range(0)), whole);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const auto& [base, next] : pairs) {
      BitWriter w;
      cube::encode_stats_delta(w, base, next, whole, kMargin);
      BitReader r(w.bytes().data(), w.bit_count());
      sink += cube::decode_stats_delta(r, base, whole, kMargin).core.sum;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_StatsDeltaRoundTrip)
    ->ArgsProduct({{0, 1, 8}, {0, 1}})
    ->ArgNames({"moved", "whole"});

void BM_CountWave(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Network net(net::make_line(n), 7);
  net.set_one_item_per_node(ValueSet(n, 5));
  const auto tree = net::bfs_tree(net.graph(), 0);
  std::uint32_t session = 0;
  for (auto _ : state) {
    proto::TreeWave<proto::CountAgg> wave(tree, session++);
    const auto c = wave.execute(
        net, proto::CountAgg::Request{proto::Predicate::always_true()});
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CountWave)->Arg(64)->Arg(1024);

void BM_LogLogWave(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Network net(net::make_line(n), 7);
  net.set_one_item_per_node(ValueSet(n, 5));
  const auto tree = net::bfs_tree(net.graph(), 0);
  proto::LogLogAgg::Request req;
  req.registers = 64;
  req.width = 6;
  std::uint32_t session = 0;
  for (auto _ : state) {
    proto::TreeWave<proto::LogLogAgg> wave(tree, session++);
    const auto regs = wave.execute(net, req);
    benchmark::DoNotOptimize(regs);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LogLogWave)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
