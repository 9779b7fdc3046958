#include "src/common/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace sensornet {
namespace {

TEST(EliasGamma, KnownCodes) {
  // gamma(1) = "1", gamma(2) = "010", gamma(5) = "00101".
  BitWriter w;
  elias_gamma_encode(w, 1);
  EXPECT_EQ(w.bit_count(), 1u);
  BitWriter w2;
  elias_gamma_encode(w2, 2);
  EXPECT_EQ(w2.bit_count(), 3u);
  BitWriter w5;
  elias_gamma_encode(w5, 5);
  EXPECT_EQ(w5.bit_count(), 5u);
  BitReader r(w5.bytes().data(), w5.bit_count());
  EXPECT_EQ(elias_gamma_decode(r), 5u);
}

TEST(EliasGamma, RejectsZero) {
  BitWriter w;
  EXPECT_THROW(elias_gamma_encode(w, 0), PreconditionError);
}

TEST(EliasDelta, CostGrowsLogarithmically) {
  // delta cost = floor(log2 x) + 2*floor(log2(floor(log2 x)+1)) + 1.
  EXPECT_EQ(encoded_uint_bits(0), 1u);       // encodes 1 -> "1"
  EXPECT_EQ(encoded_uint_bits(1), 4u);       // encodes 2
  const unsigned big = encoded_uint_bits((1ULL << 40));
  EXPECT_GE(big, 40u);
  EXPECT_LE(big, 40u + 14u);  // log + O(log log)
}

TEST(EliasDelta, RoundTripBoundaries) {
  for (const std::uint64_t x :
       {1ULL, 2ULL, 3ULL, 4ULL, 7ULL, 8ULL, 255ULL, 256ULL, 65535ULL,
        (1ULL << 32) - 1, 1ULL << 32, (1ULL << 62)}) {
    BitWriter w;
    elias_delta_encode(w, x);
    BitReader r(w.bytes().data(), w.bit_count());
    EXPECT_EQ(elias_delta_decode(r), x) << "x=" << x;
  }
}

TEST(EncodeUint, ZeroAndOne) {
  BitWriter w;
  encode_uint(w, 0);
  encode_uint(w, 1);
  BitReader r(w.bytes().data(), w.bit_count());
  EXPECT_EQ(decode_uint(r), 0u);
  EXPECT_EQ(decode_uint(r), 1u);
}

TEST(EncodeUint, CostMatchesActualEncoding) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t x = rng.next_u64() >> (rng.next_below(60));
    BitWriter w;
    encode_uint(w, x);
    EXPECT_EQ(w.bit_count(), encoded_uint_bits(x)) << "x=" << x;
  }
}

TEST(EncodeUint, IsTheEliasDeltaCodeOfXPlusOne) {
  // encode_uint writes short codes in one piece and long ones (a body past
  // 50 bits) field by field: both must be elias_delta_encode(x + 1), bit for
  // bit, at every length.
  Xoshiro256 rng(11);
  for (unsigned n = 0; n < 64; ++n) {
    const std::uint64_t top = std::uint64_t{1} << n;
    const std::uint64_t low = n == 0 ? 0 : rng.next_u64() & (top - 1);
    for (const std::uint64_t v : {top, top | low, top | (top - 1)}) {
      if (v == ~0ULL) continue;  // x + 1 would overflow
      BitWriter fast;
      encode_uint(fast, v - 1);
      BitWriter plain;
      elias_delta_encode(plain, v);
      ASSERT_EQ(fast.bit_count(), plain.bit_count()) << "v=" << v;
      EXPECT_TRUE(std::ranges::equal(fast.bytes(), plain.bytes()))
          << "v=" << v;
    }
  }
}

TEST(EncodeInt, ZigzagRoundTrip) {
  for (const std::int64_t x :
       {0LL, -1LL, 1LL, -2LL, 2LL, 1000000LL, -1000000LL,
        (1LL << 60), -(1LL << 60)}) {
    BitWriter w;
    encode_int(w, x);
    BitReader r(w.bytes().data(), w.bit_count());
    EXPECT_EQ(decode_int(r), x) << "x=" << x;
  }
}

TEST(EncodeInt, SmallMagnitudesAreCheap) {
  BitWriter w;
  encode_int(w, 0);
  EXPECT_EQ(w.bit_count(), 1u);
  BitWriter w2;
  encode_int(w2, -1);
  EXPECT_LE(w2.bit_count(), 4u);
}

TEST(Codec, RandomizedMixedStream) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    BitWriter w;
    std::vector<std::int64_t> signed_vals;
    std::vector<std::uint64_t> unsigned_vals;
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t u = rng.next_u64() >> rng.next_below(64);
      const auto s = static_cast<std::int64_t>(rng.next_u64() >>
                                               (1 + rng.next_below(62)));
      unsigned_vals.push_back(u >> 1);  // keep < 2^63 for encode_uint's +1
      signed_vals.push_back((rng.next_u64() & 1) ? s : -s);
      encode_uint(w, unsigned_vals.back());
      encode_int(w, signed_vals.back());
    }
    BitReader r(w.bytes().data(), w.bit_count());
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(decode_uint(r), unsigned_vals[static_cast<std::size_t>(i)]);
      EXPECT_EQ(decode_int(r), signed_vals[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(Codec, DecodeGarbageDoesNotHang) {
  // All-zero bytes: gamma length prefix runs off the end -> WireFormatError.
  const std::vector<std::uint8_t> zeros(4, 0);
  BitReader r(zeros.data(), 32);
  EXPECT_THROW(elias_gamma_decode(r), WireFormatError);
}

}  // namespace
}  // namespace sensornet
