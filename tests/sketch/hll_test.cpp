// The sketch::Hll contract: construction validation, sparse/dense promotion,
// merge in every representation combination, the widened register accessor,
// and the versioned v1 wire format (round-trips, golden byte images, and
// decode rejection of malformed headers/bodies).
#include "src/sketch/hll.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace sensornet::sketch {
namespace {

constexpr unsigned kWidths[] = {4, 5, 6, 8};

Hll make(unsigned m, unsigned width = 6, bool sparse = true) {
  return Hll::make_by_registers(m, HllOptions{.width = width, .sparse = sparse})
      .value();
}

std::vector<std::uint8_t> encode_bytes(const Hll& hll) {
  BitWriter w;
  hll.encode(w);
  EXPECT_EQ(w.bit_count(), hll.wire_bits());
  return {w.bytes().begin(), w.bytes().end()};
}

Hll round_trip(const Hll& hll) {
  BitWriter w;
  hll.encode(w);
  BitReader r(w.bytes().data(), w.bit_count());
  auto decoded = Hll::decode(r);
  EXPECT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(r.remaining(), 0u);
  return std::move(decoded).value();
}

TEST(Hll, MoveOnlyContract) {
  static_assert(!std::is_copy_constructible_v<Hll>);
  static_assert(!std::is_copy_assignable_v<Hll>);
  static_assert(std::is_nothrow_move_constructible_v<Hll>);
  static_assert(std::is_nothrow_move_assignable_v<Hll>);
}

TEST(Hll, ValueReturnTypeIsWide) {
  // The legacy byte-register accessor returned uint8_t, which would silently
  // truncate any width > 8; the new accessor is committed to `unsigned`.
  static_assert(
      std::is_same_v<decltype(std::declval<const Hll&>().value(0)), unsigned>);
}

TEST(Hll, MakeByPrecisionValidatesGeometry) {
  for (const unsigned w : kWidths) {
    EXPECT_TRUE(Hll::make_by_precision(6, {.width = w}).ok()) << w;
  }
  for (const unsigned w : {0u, 1u, 3u, 7u, 9u, 16u}) {
    const auto r = Hll::make_by_precision(6, {.width = w});
    EXPECT_FALSE(r.ok()) << w;
    EXPECT_NE(r.error().find("width"), std::string::npos);
  }
  EXPECT_FALSE(Hll::make_by_precision(0).ok());
  EXPECT_FALSE(Hll::make_by_precision(Hll::kMaxPrecision + 1).ok());
  EXPECT_TRUE(Hll::make_by_precision(Hll::kMinPrecision).ok());
  EXPECT_TRUE(Hll::make_by_precision(Hll::kMaxPrecision).ok());
}

TEST(Hll, MakeByRegistersRequiresPowerOfTwo) {
  EXPECT_FALSE(Hll::make_by_registers(0).ok());
  EXPECT_FALSE(Hll::make_by_registers(1).ok());
  EXPECT_FALSE(Hll::make_by_registers(12).ok());
  const Hll hll = Hll::make_by_registers(256).value();
  EXPECT_EQ(hll.m(), 256u);
  EXPECT_EQ(hll.precision(), 8u);
}

TEST(Hll, ValueFailureThrowsOnAccess) {
  auto r = Hll::make_by_registers(12);
  ASSERT_FALSE(r.ok());
  EXPECT_THROW(std::move(r).value(), PreconditionError);
}

TEST(Hll, ObserveReadbackAndStatistics) {
  for (const bool sparse : {true, false}) {
    Hll hll = make(16, 6, sparse);
    hll.observe(3, 7);
    hll.observe(3, 5);   // lower rank: no-op
    hll.observe(3, 9);   // higher rank: wins
    hll.observe(12, 1);
    hll.observe(0, 0);   // zero rank: no-op
    EXPECT_EQ(hll.value(3), 9u);
    EXPECT_EQ(hll.value(12), 1u);
    EXPECT_EQ(hll.value(0), 0u);
    EXPECT_EQ(hll.rank_sum(), 10u);
    EXPECT_EQ(hll.zero_count(), 14u);
  }
}

TEST(Hll, RankSaturatesAtWidthCap) {
  for (const unsigned w : kWidths) {
    Hll hll = make(16, w);
    hll.observe(0, 1000);
    EXPECT_EQ(hll.value(0), hll.rank_cap());
    EXPECT_EQ(hll.rank_cap(), (1u << w) - 1);
  }
}

TEST(Hll, PromotionHappensExactlyAtCapacity) {
  Hll hll = make(256, 6);
  const std::size_t cap = hll.sparse_capacity();
  // Crossover of the two wire costs: m*w / (p+w) entries.
  EXPECT_EQ(cap, 256u * 6 / (8 + 6));
  for (std::size_t i = 0; i < cap; ++i) {
    hll.observe(static_cast<unsigned>(i), 3);
  }
  EXPECT_TRUE(hll.is_sparse());
  EXPECT_EQ(hll.sparse_entry_count(), cap);
  // Updating an existing bucket at capacity must NOT promote.
  hll.observe(0, 9);
  EXPECT_TRUE(hll.is_sparse());
  // The first NEW bucket past capacity promotes, preserving every value.
  hll.observe(static_cast<unsigned>(cap), 5);
  EXPECT_FALSE(hll.is_sparse());
  EXPECT_EQ(hll.value(0), 9u);
  for (std::size_t i = 1; i < cap; ++i) {
    EXPECT_EQ(hll.value(static_cast<unsigned>(i)), 3u) << i;
  }
  EXPECT_EQ(hll.value(static_cast<unsigned>(cap)), 5u);
}

TEST(Hll, PromotionPreservesEstimate) {
  // The estimate is a function of logical register state only; promotion
  // must not move it.
  Xoshiro256 rng(31);
  Hll sparse = make(256, 6, /*sparse=*/true);
  Hll dense = make(256, 6, /*sparse=*/false);
  for (int i = 0; i < 2000; ++i) {
    const Observation o = random_observation(256, rng);
    sparse.observe(o.bucket, o.rank);
    dense.observe(o.bucket, o.rank);
  }
  EXPECT_FALSE(sparse.is_sparse());  // far past capacity by now
  EXPECT_EQ(sparse, dense);
  EXPECT_DOUBLE_EQ(sparse.estimate(), dense.estimate());
  EXPECT_DOUBLE_EQ(sparse.estimate_loglog(), dense.estimate_loglog());
}

/// A sketch raised by observe() to exactly `regs`: the canonical sketch of
/// that register state.
Hll observed(const std::vector<unsigned>& regs, unsigned width) {
  Hll hll = make(static_cast<unsigned>(regs.size()), width);
  for (unsigned b = 0; b < regs.size(); ++b) hll.observe(b, regs[b]);
  return hll;
}

TEST(Hll, SetRegisterLowersARegister) {
  for (const bool sparse : {true, false}) {
    Hll hll = make(64, 6, sparse);
    hll.observe(3, 9);
    hll.observe(7, 4);
    hll.set_register(3, 2);
    EXPECT_EQ(hll.value(3), 2u);
    hll.set_register(7, 11);  // raising works too
    EXPECT_EQ(hll.value(7), 11u);
    EXPECT_EQ(hll.rank_sum(), 13u);
    EXPECT_EQ(hll.is_sparse(), sparse);
  }
}

TEST(Hll, SetRegisterToZeroErasesASparseEntry) {
  Hll hll = make(64, 6);
  hll.observe(1, 3);
  hll.observe(5, 7);
  hll.set_register(5, 0);
  EXPECT_TRUE(hll.is_sparse());
  EXPECT_EQ(hll.sparse_entry_count(), 1u);
  EXPECT_EQ(hll.value(5), 0u);
  EXPECT_EQ(hll.zero_count(), 63u);
  hll.set_register(9, 0);  // clearing an empty register is a no-op
  EXPECT_EQ(hll.sparse_entry_count(), 1u);
  std::vector<unsigned> regs(64, 0);
  regs[1] = 3;
  EXPECT_EQ(encode_bytes(hll), encode_bytes(observed(regs, 6)));
}

TEST(Hll, SetRegisterDemotesToSparseAtCapacity) {
  for (const unsigned w : kWidths) {
    Hll hll = make(64, w);
    const std::size_t cap = hll.sparse_capacity();
    for (std::size_t i = 0; i <= cap; ++i) {
      hll.set_register(static_cast<unsigned>(i), 1);
    }
    ASSERT_FALSE(hll.is_sparse()) << "width " << w;
    // Lowering a register to a nonzero rank keeps it dense; clearing one
    // leaves cap nonzero registers, which is sparse.
    hll.set_register(0, 3);
    hll.set_register(0, 2);
    EXPECT_FALSE(hll.is_sparse()) << "width " << w;
    hll.set_register(0, 0);
    ASSERT_TRUE(hll.is_sparse()) << "width " << w;
    EXPECT_EQ(hll.sparse_entry_count(), cap);
    EXPECT_EQ(hll.value(0), 0u);
    std::vector<unsigned> regs(64, 0);
    for (std::size_t i = 1; i <= cap; ++i) regs[i] = 1;
    EXPECT_EQ(encode_bytes(hll), encode_bytes(observed(regs, w)));
  }
}

TEST(Hll, SetRegisterKeepsTheCanonicalRepresentation) {
  // Random raises, lowerings and clears against a plain register array:
  // after every step the sketch is dense iff more than sparse_capacity()
  // registers are nonzero, and encodes as the sketch observe() builds.
  Xoshiro256 rng(83);
  for (const unsigned w : kWidths) {
    Hll hll = make(32, w);
    std::vector<unsigned> regs(32, 0);
    for (int step = 0; step < 600; ++step) {
      const auto b = static_cast<unsigned>(rng.next_below(32));
      // Clear often enough to cross the capacity both ways.
      const auto rank = rng.next_below(3) == 0
                            ? 0u
                            : static_cast<unsigned>(
                                  1 + rng.next_below(hll.rank_cap()));
      hll.set_register(b, rank);
      regs[b] = rank;
      const auto nonzero = static_cast<std::size_t>(
          std::count_if(regs.begin(), regs.end(), [](unsigned v) { return v; }));
      ASSERT_EQ(hll.is_sparse(), nonzero <= hll.sparse_capacity())
          << "width " << w << " step " << step;
      ASSERT_EQ(encode_bytes(hll), encode_bytes(observed(regs, w)))
          << "width " << w << " step " << step;
    }
  }
}

TEST(Hll, RegistersListEveryValueInBucketOrder) {
  Xoshiro256 rng(89);
  for (const bool sparse : {true, false}) {
    Hll hll = make(64, 5, sparse);
    for (int i = 0; i < 20; ++i) hll.add_random(rng);
    std::vector<std::uint8_t> regs(64);
    hll.registers(regs);
    for (unsigned b = 0; b < 64; ++b) EXPECT_EQ(regs[b], hll.value(b)) << b;
  }
}

TEST(Hll, SetRegisterRejectsAnOutOfRangeBucketOrRank) {
  for (const bool sparse : {true, false}) {
    Hll hll = make(16, 5, sparse);
    EXPECT_THROW(hll.set_register(16, 1), PreconditionError);
    EXPECT_THROW(hll.set_register(0, hll.rank_cap() + 1), PreconditionError);
    hll.set_register(15, hll.rank_cap());
    EXPECT_EQ(hll.value(15), hll.rank_cap());
  }
}

TEST(Hll, CloneIsDeep) {
  Hll a = make(64, 6);
  a.add(1, 0);
  Hll b = a.clone();
  b.add(2, 0);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.value(hashed_observation(64, 1, 0).bucket),
            hashed_observation(64, 1, 0).rank);
}

TEST(Hll, MergeSparseIntoSparseTakesMax) {
  Hll a = make(64, 6);
  Hll b = make(64, 6);
  a.observe(1, 4);
  a.observe(5, 2);
  b.observe(5, 7);
  b.observe(9, 1);
  ASSERT_TRUE(a.merge(b).ok());
  EXPECT_TRUE(a.is_sparse());
  EXPECT_EQ(a.value(1), 4u);
  EXPECT_EQ(a.value(5), 7u);
  EXPECT_EQ(a.value(9), 1u);
  EXPECT_EQ(a.sparse_entry_count(), 3u);
}

TEST(Hll, MergeSparseUnionPromotesPastCapacity) {
  Hll a = make(64, 6);
  Hll b = make(64, 6);
  const std::size_t cap = a.sparse_capacity();
  // Disjoint bucket sets, each individually under capacity.
  for (unsigned i = 0; i < cap; ++i) a.observe(2 * i, 1);
  for (unsigned i = 0; i < cap; ++i) b.observe(2 * i + 1, 2);
  ASSERT_TRUE(a.is_sparse());
  ASSERT_TRUE(b.is_sparse());
  ASSERT_TRUE(a.merge(b).ok());
  EXPECT_FALSE(a.is_sparse());
  for (unsigned i = 0; i < cap; ++i) {
    EXPECT_EQ(a.value(2 * i), 1u);
    EXPECT_EQ(a.value(2 * i + 1), 2u);
  }
}

TEST(Hll, MergeAllRepresentationCombosAgree) {
  // Four combos (sparse/dense x sparse/dense) over identical logical inputs
  // must land identical logical states.
  Xoshiro256 rng(47);
  std::vector<Observation> xs;
  std::vector<Observation> ys;
  for (int i = 0; i < 40; ++i) xs.push_back(random_observation(128, rng));
  for (int i = 0; i < 40; ++i) ys.push_back(random_observation(128, rng));
  const auto build = [&](const std::vector<Observation>& os, bool sparse) {
    Hll hll = make(128, 6, sparse);
    for (const auto& o : os) hll.observe(o.bucket, o.rank);
    return hll;
  };
  Hll reference = build(xs, false);
  ASSERT_TRUE(reference.merge(build(ys, false)).ok());
  for (const bool left : {true, false}) {
    for (const bool right : {true, false}) {
      Hll acc = build(xs, left);
      ASSERT_TRUE(acc.merge(build(ys, right)).ok());
      EXPECT_EQ(acc, reference) << "left=" << left << " right=" << right;
    }
  }
}

TEST(Hll, SwarDenseMergeMatchesScalarMax) {
  // The word-at-a-time SWAR merge against a register-by-register oracle, at
  // every packed width, with ranks spanning the full field range.
  Xoshiro256 rng(53);
  for (const unsigned w : kWidths) {
    Hll a = make(512, w, /*sparse=*/false);
    Hll b = make(512, w, /*sparse=*/false);
    std::vector<unsigned> ax(512, 0);
    std::vector<unsigned> bx(512, 0);
    for (int i = 0; i < 4000; ++i) {
      const auto bucket = static_cast<unsigned>(rng.next_below(512));
      const auto rank =
          1 + static_cast<unsigned>(rng.next_below((1u << w) - 1));
      if (i & 1) {
        a.observe(bucket, rank);
        if (rank > ax[bucket]) ax[bucket] = rank;
      } else {
        b.observe(bucket, rank);
        if (rank > bx[bucket]) bx[bucket] = rank;
      }
    }
    ASSERT_TRUE(a.merge(b).ok());
    for (unsigned i = 0; i < 512; ++i) {
      EXPECT_EQ(a.value(i), std::max(ax[i], bx[i])) << "w=" << w << " i=" << i;
    }
  }
}

TEST(Hll, MergeRejectsMismatchedGeometry) {
  Hll a = make(64, 6);
  a.observe(1, 3);
  const Hll wrong_m = make(128, 6);
  const Hll wrong_w = make(64, 5);
  const auto r1 = a.merge(wrong_m);
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.error().find("geometry"), std::string::npos);
  EXPECT_FALSE(a.merge(wrong_w).ok());
  // A failed merge must leave the receiver untouched.
  EXPECT_TRUE(a.is_sparse());
  EXPECT_EQ(a.value(1), 3u);
  EXPECT_EQ(a.sparse_entry_count(), 1u);
}

TEST(Hll, RoundTripSparseAllWidths) {
  for (const unsigned w : kWidths) {
    Hll hll = make(64, w);
    for (std::uint64_t v = 0; v < 6; ++v) hll.add(v, 3);
    ASSERT_TRUE(hll.is_sparse());
    const Hll back = round_trip(hll);
    EXPECT_TRUE(back.is_sparse());
    EXPECT_EQ(back, hll) << "w=" << w;
    // Re-encode: byte-identical (the format is canonical).
    EXPECT_EQ(encode_bytes(back), encode_bytes(hll)) << "w=" << w;
  }
}

TEST(Hll, RoundTripDenseAllWidths) {
  Xoshiro256 rng(61);
  for (const unsigned w : kWidths) {
    Hll hll = make(128, w, /*sparse=*/false);
    for (int i = 0; i < 1000; ++i) hll.add_random(rng);
    const Hll back = round_trip(hll);
    EXPECT_FALSE(back.is_sparse());
    EXPECT_EQ(back, hll) << "w=" << w;
    EXPECT_EQ(encode_bytes(back), encode_bytes(hll)) << "w=" << w;
  }
}

TEST(Hll, DenseBodyMatchesPerRegisterImage) {
  // The bulk word-at-a-time dense encoder must emit the exact bit image of
  // the naive per-register write_bits loop (registers straddle word flushes
  // at widths 5 and 6).
  Xoshiro256 rng(67);
  for (const unsigned w : kWidths) {
    Hll hll = make(256, w, /*sparse=*/false);
    for (int i = 0; i < 3000; ++i) hll.add_random(rng);
    BitWriter naive;
    naive.write_bits(Hll::kWireMagic, 8);
    naive.write_bits(Hll::kWireVersion, 4);
    naive.write_bits(hll.precision(), 5);
    naive.write_bits(w - 1, 3);
    naive.write_bit(true);
    for (unsigned b = 0; b < hll.m(); ++b) naive.write_bits(hll.value(b), w);
    BitWriter bulk;
    hll.encode(bulk);
    ASSERT_EQ(bulk.bit_count(), naive.bit_count()) << "w=" << w;
    for (std::size_t i = 0; i < bulk.bytes().size(); ++i) {
      ASSERT_EQ(bulk.bytes()[i], naive.bytes()[i]) << "w=" << w << " i=" << i;
    }
  }
}

TEST(Hll, GoldenSparseV1Image) {
  // Pinned byte image: any change to these bytes is a wire-format break and
  // must come with a version bump, not a silent re-interpretation.
  // p=4 (m=16), width 6, entries (bucket 2, rank 5), (bucket 11, rank 1):
  //   A7 | 0001 | 00100 | 101 | 0 | delta(2)=0101 | 0010 000101 | 1011 000001
  Hll hll = make(16, 6);
  hll.observe(11, 1);
  hll.observe(2, 5);
  EXPECT_EQ(hll.wire_bits(), 45u);
  const std::vector<std::uint8_t> golden = {0xA7, 0x12, 0x52,
                                            0x90, 0xB6, 0x08};
  EXPECT_EQ(encode_bytes(hll), golden);
  BitReader r(golden.data(), 45);
  auto decoded = Hll::decode(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), hll);
}

TEST(Hll, GoldenDenseV1Image) {
  // p=2 (m=4), width 4, registers [3, 15, 0, 8]:
  //   A7 | 0001 | 00010 | 011 | 1 | 0011 1111 0000 1000
  Hll hll = make(4, 4, /*sparse=*/false);
  hll.observe(0, 3);
  hll.observe(1, 200);  // saturates at rank_cap = 15
  hll.observe(3, 8);
  EXPECT_EQ(hll.wire_bits(), 37u);
  const std::vector<std::uint8_t> golden = {0xA7, 0x11, 0x39, 0xF8, 0x40};
  EXPECT_EQ(encode_bytes(hll), golden);
  BitReader r(golden.data(), 37);
  auto decoded = Hll::decode(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), hll);
}

TEST(Hll, SparseWireWinsAtLowCardinality) {
  // The acceptance criterion for the sparse representation: a leaf holding a
  // handful of items ships far fewer bits than the m*width flat image.
  Hll hll = make(256, 6);
  for (std::uint64_t v = 0; v < 4; ++v) hll.add(v, 1);
  const std::uint64_t flat = 256 * 6;
  EXPECT_LT(hll.wire_bits(), flat / 10);
  // And a saturated sketch pays only the fixed header over the flat image.
  Xoshiro256 rng(71);
  Hll full = make(256, 6);
  for (int i = 0; i < 100000; ++i) full.add_random(rng);
  EXPECT_FALSE(full.is_sparse());
  EXPECT_EQ(full.wire_bits(), flat + Hll::kHeaderBits);
}

TEST(Hll, DecodeRejectsBadHeader) {
  const auto decode_of = [](BitWriter& w) {
    BitReader r(w.bytes().data(), w.bit_count());
    return Hll::decode(r);
  };
  {
    BitWriter w;  // wrong magic
    w.write_bits(0x55, 8);
    w.write_bits(Hll::kWireVersion, 4);
    w.write_bits(4, 5);
    w.write_bits(5, 3);
    w.write_bit(true);
    w.write_bits(0, 64);
    w.write_bits(0, 32);
    const auto r = decode_of(w);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("magic"), std::string::npos);
  }
  {
    BitWriter w;  // future format version
    w.write_bits(Hll::kWireMagic, 8);
    w.write_bits(Hll::kWireVersion + 1, 4);
    w.write_bits(4, 5);
    w.write_bits(5, 3);
    w.write_bit(true);
    w.write_bits(0, 64);
    w.write_bits(0, 32);
    const auto r = decode_of(w);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("version"), std::string::npos);
  }
  {
    BitWriter w;  // unsupported width (7 on the wire as 110)
    w.write_bits(Hll::kWireMagic, 8);
    w.write_bits(Hll::kWireVersion, 4);
    w.write_bits(4, 5);
    w.write_bits(6, 3);
    w.write_bit(false);
    encode_uint(w, 0);
    EXPECT_FALSE(decode_of(w).ok());
  }
  {
    BitWriter w;  // precision 0
    w.write_bits(Hll::kWireMagic, 8);
    w.write_bits(Hll::kWireVersion, 4);
    w.write_bits(0, 5);
    w.write_bits(5, 3);
    w.write_bit(false);
    encode_uint(w, 0);
    EXPECT_FALSE(decode_of(w).ok());
  }
}

TEST(Hll, DecodeRejectsMalformedSparseBody) {
  const auto header = [](BitWriter& w, unsigned p, unsigned width) {
    w.write_bits(Hll::kWireMagic, 8);
    w.write_bits(Hll::kWireVersion, 4);
    w.write_bits(p, 5);
    w.write_bits(width - 1, 3);
    w.write_bit(false);
  };
  {
    BitWriter w;  // count over the sparse capacity
    header(w, 4, 6);
    encode_uint(w, 1000);
    BitReader r(w.bytes().data(), w.bit_count());
    const auto res = Hll::decode(r);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error().find("capacity"), std::string::npos);
  }
  {
    BitWriter w;  // buckets out of order
    header(w, 4, 6);
    encode_uint(w, 2);
    w.write_bits(9, 4);
    w.write_bits(1, 6);
    w.write_bits(2, 4);
    w.write_bits(1, 6);
    BitReader r(w.bytes().data(), w.bit_count());
    const auto res = Hll::decode(r);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error().find("ascending"), std::string::npos);
  }
  {
    BitWriter w;  // duplicate bucket
    header(w, 4, 6);
    encode_uint(w, 2);
    w.write_bits(3, 4);
    w.write_bits(1, 6);
    w.write_bits(3, 4);
    w.write_bits(2, 6);
    BitReader r(w.bytes().data(), w.bit_count());
    EXPECT_FALSE(Hll::decode(r).ok());
  }
  {
    BitWriter w;  // zero rank
    header(w, 4, 6);
    encode_uint(w, 1);
    w.write_bits(3, 4);
    w.write_bits(0, 6);
    BitReader r(w.bytes().data(), w.bit_count());
    const auto res = Hll::decode(r);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error().find("rank"), std::string::npos);
  }
  {
    BitWriter w;  // truncated body: 3 entries promised, none present
    header(w, 4, 6);
    encode_uint(w, 3);
    BitReader r(w.bytes().data(), w.bit_count());
    const auto res = Hll::decode(r);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error().find("truncated"), std::string::npos);
  }
}

TEST(Hll, EstimateMatchesFreeFunctionMath) {
  // The class estimators are the documented closed forms over register
  // state — pin that so refactors can't drift the math.
  Xoshiro256 rng(79);
  Hll hll = make(64, 6);
  for (int i = 0; i < 300; ++i) hll.add_random(rng);
  double harmonic = 0;
  std::uint64_t rank_sum = 0;
  unsigned zeros = 0;
  for (unsigned b = 0; b < 64; ++b) {
    const unsigned v = hll.value(b);
    harmonic += std::ldexp(1.0, -static_cast<int>(v));
    rank_sum += v;
    if (v == 0) ++zeros;
  }
  EXPECT_DOUBLE_EQ(hll.estimate(),
                   hyperloglog_estimate_from(64, harmonic, zeros));
  EXPECT_DOUBLE_EQ(hll.estimate_loglog(),
                   loglog_estimate_from(64, rank_sum));
}

TEST(Hll, WordWalksMatchAPerRegisterReference) {
  // estimate, zero_count, rank_sum, encode and the dense-to-sparse demotion
  // walk the packed words; each must equal the same quantity computed
  // register by register from registers() (itself checked against value()).
  Xoshiro256 rng(83);
  for (const unsigned w : kWidths) {
    for (const unsigned m : {16u, 64u, 1024u}) {
      for (int trial = 0; trial < 12; ++trial) {
        Hll hll = make(m, w, /*sparse=*/rng.next_below(2) == 0);
        const auto adds = rng.next_below(trial < 6 ? m / 4 + 1 : 4 * m);
        for (std::uint64_t i = 0; i < adds; ++i) hll.add(rng.next_u64(), 3);
        // Clearing registers may demote a dense sketch back to sparse.
        for (std::uint64_t i = rng.next_below(m); i > 0; --i) {
          hll.set_register(static_cast<unsigned>(rng.next_below(m)), 0);
        }
        std::vector<std::uint8_t> regs(m);
        hll.registers(regs);
        double harmonic = 0.0;
        std::uint64_t rank_sum = 0;
        unsigned zeros = 0;
        for (unsigned b = 0; b < m; ++b) {
          ASSERT_EQ(regs[b], hll.value(b)) << "w=" << w << " b=" << b;
          zeros += regs[b] == 0 ? 1 : 0;
          rank_sum += regs[b];
        }
        harmonic = zeros;
        BitWriter want;
        want.write_bits(Hll::kWireMagic, 8);
        want.write_bits(Hll::kWireVersion, 4);
        want.write_bits(hll.precision(), 5);
        want.write_bits(w - 1, 3);
        want.write_bit(!hll.is_sparse());
        if (hll.is_sparse()) encode_uint(want, m - zeros);
        for (unsigned b = 0; b < m; ++b) {
          if (regs[b] != 0) harmonic += std::ldexp(1.0, -regs[b]);
          if (!hll.is_sparse()) {
            want.write_bits(regs[b], w);
          } else if (regs[b] != 0) {
            want.write_bits(b, hll.precision());
            want.write_bits(regs[b], w);
          }
        }
        EXPECT_EQ(hll.zero_count(), zeros);
        EXPECT_EQ(hll.rank_sum(), rank_sum);
        EXPECT_EQ(hll.estimate(),
                  hyperloglog_estimate_from(m, harmonic, zeros));
        EXPECT_EQ(hll.estimate_loglog(), loglog_estimate_from(m, rank_sum));
        EXPECT_EQ(encode_bytes(hll),
                  std::vector<std::uint8_t>(want.bytes().begin(),
                                            want.bytes().end()))
            << "w=" << w << " m=" << m;
      }
    }
  }
}

}  // namespace
}  // namespace sensornet::sketch
