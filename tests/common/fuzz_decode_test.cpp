// Decoder robustness: feeding arbitrary bit soup to every wire decoder must
// end in a clean exception or a valid object — never a hang, crash, or
// unbounded allocation. (Sensor payloads cross lossy radios; a corrupt
// length prefix must not OOM a mote.)
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <utility>

#include "src/baseline/quantile_summary.hpp"
#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/cube/partials.hpp"
#include "src/cube/stats.hpp"
#include "src/proto/aggregations.hpp"
#include "src/proto/counting_service.hpp"
#include "src/proto/predicate.hpp"
#include "src/service/shared_plan.hpp"
#include "src/sketch/hll.hpp"
#include "src/sketch/registers.hpp"

namespace sensornet {
namespace {

std::vector<std::uint8_t> random_bytes(Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

template <typename Fn>
void fuzz(Fn decode, int trials = 400, std::uint64_t seed = 42) {
  Xoshiro256 rng(seed);
  for (int t = 0; t < trials; ++t) {
    const std::size_t len = 1 + rng.next_below(64);
    const auto bytes = random_bytes(rng, len);
    BitReader r(bytes.data(), len * 8);
    try {
      decode(r);
    } catch (const WireFormatError&) {
      // expected for truncated/corrupt payloads
    } catch (const PreconditionError&) {
      // expected when decoded fields violate constructor contracts
    }
  }
}

TEST(FuzzDecode, EliasGamma) {
  fuzz([](BitReader& r) { elias_gamma_decode(r); });
}

TEST(FuzzDecode, EliasDelta) {
  fuzz([](BitReader& r) { elias_delta_decode(r); });
}

TEST(FuzzDecode, SignedInts) {
  fuzz([](BitReader& r) { decode_int(r); });
}

TEST(FuzzDecode, Predicate) {
  fuzz([](BitReader& r) { proto::Predicate::decode(r); });
}

TEST(FuzzDecode, Registers) {
  fuzz([](BitReader& r) { sketch::RegisterArray::decode(r, 64, 6); });
}

TEST(FuzzDecode, Hll) {
  // Result-style decoder: a failure return is as acceptable as a clean
  // throw; what is banned is a crash or a silently corrupt sketch.
  fuzz([](BitReader& r) { (void)sketch::Hll::decode(r); });
}

TEST(FuzzDecode, HllBitFlippedValidImagesStaySafe) {
  // Start from VALID v1 images (one sparse, one dense), flip each bit in
  // turn, decode. Every outcome must be a Result failure, a clean
  // WireFormatError, or a well-formed sketch.
  Xoshiro256 rng(13);
  auto sparse = sketch::Hll::make_by_registers(64).value();
  for (int i = 0; i < 5; ++i) sparse.add_random(rng);
  auto dense =
      sketch::Hll::make_by_registers(64, {.width = 6, .sparse = false})
          .value();
  for (int i = 0; i < 500; ++i) dense.add_random(rng);
  for (const sketch::Hll* hll : {&sparse, &dense}) {
    BitWriter w;
    hll->encode(w);
    const std::vector<std::uint8_t> image(w.bytes().begin(),
                                          w.bytes().end());
    const std::size_t bits = w.bit_count();
    for (std::size_t flip = 0; flip < bits; ++flip) {
      auto corrupted = image;
      corrupted[flip / 8] ^= static_cast<std::uint8_t>(0x80u >> (flip % 8));
      BitReader r(corrupted.data(), bits);
      try {
        auto decoded = sketch::Hll::decode(r);
        if (decoded.ok()) {
          (void)decoded.value().estimate();  // must be a usable sketch
        }
      } catch (const WireFormatError&) {
      } catch (const PreconditionError&) {
      }
    }
  }
}

TEST(FuzzDecode, CollectPartial) {
  fuzz([](BitReader& r) {
    proto::CollectAgg::decode_partial(r, {});
  });
}

TEST(FuzzDecode, DistinctSetPartial) {
  fuzz([](BitReader& r) {
    proto::DistinctSetAgg::decode_partial(r, {});
  });
}

TEST(FuzzDecode, QuantileSummary) {
  fuzz([](BitReader& r) { baseline::QuantileSummary::decode(r); });
}

TEST(FuzzDecode, LogLogRequest) {
  fuzz([](BitReader& r) { proto::LogLogAgg::decode_request(r); });
}

TEST(FuzzDecode, BitFlippedValidPayloadsStaySafe) {
  // Start from a VALID quantile summary, flip one bit anywhere, decode.
  Xoshiro256 rng(7);
  ValueSet xs(30);
  for (auto& x : xs) x = static_cast<Value>(rng.next_below(10000));
  const auto summary = baseline::QuantileSummary::from_items(xs);
  BitWriter w;
  summary.encode(w);
  const std::vector<std::uint8_t> baseline_bytes(w.bytes().begin(),
                                                 w.bytes().end());
  const std::size_t bits = w.bit_count();
  for (std::size_t flip = 0; flip < bits; ++flip) {
    auto corrupted = baseline_bytes;
    corrupted[flip / 8] ^= static_cast<std::uint8_t>(0x80u >> (flip % 8));
    BitReader r(corrupted.data(), bits);
    try {
      const auto s = baseline::QuantileSummary::decode(r);
      (void)s.valid();  // may be invalid; must simply not blow up
    } catch (const WireFormatError&) {
    } catch (const PreconditionError&) {
    }
  }
}

/// Bit soup for the stats-wave decoders, which must either decode or throw
/// WireFormatError — any other outcome (another exception, a crash, a read
/// past the payload) fails the test.
template <typename Fn>
void fuzz_strict(Fn decode, int trials = 2000, std::uint64_t seed = 17) {
  Xoshiro256 rng(seed);
  for (int t = 0; t < trials; ++t) {
    const std::size_t len = 1 + rng.next_below(64);
    const auto bytes = random_bytes(rng, len);
    BitReader r(bytes.data(), len * 8 - rng.next_below(8));
    try {
      decode(rng, r);
    } catch (const WireFormatError&) {
    }
  }
}

/// The image shape of a stats slot.
cube::ImageShape stats_shape(bool whole_domain) {
  return whole_domain ? cube::ImageShape::kWholeDomain
                      : cube::ImageShape::kRanged;
}

TEST(FuzzDecode, RangeStats) {
  fuzz_strict([](Xoshiro256&, BitReader& r) {
    const cube::RangeStats rs = cube::decode_range_stats(r);
    if (rs.count > 0) {
      EXPECT_GE(rs.min, 0);
      EXPECT_GE(rs.max, rs.min);
    }
  });
}

TEST(FuzzDecode, RangeStatsRejectsValuesPastTheValueRange) {
  // Well-formed codes whose min, or min + span, leave the Value range: a
  // corrupt image must not decode to a negative or wrapped reading.
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 63) - 1;
  for (const auto& [min, span] : {std::pair{kTop + 1, std::uint64_t{0}},
                                 std::pair{kTop, std::uint64_t{1}},
                                 std::pair{std::uint64_t{5}, kTop}}) {
    BitWriter w;
    encode_uint(w, 1);  // count
    encode_uint(w, 7);  // sum
    encode_uint(w, min);
    encode_uint(w, span);
    BitReader r(w.bytes().data(), w.bit_count());
    EXPECT_THROW(cube::decode_range_stats(r), WireFormatError);
  }
  BitWriter w;
  encode_uint(w, 1);
  encode_uint(w, 7);
  encode_uint(w, kTop - 3);
  encode_uint(w, 3);
  BitReader r(w.bytes().data(), w.bit_count());
  EXPECT_EQ(cube::decode_range_stats(r).max, static_cast<Value>(kTop));
}

TEST(FuzzDecode, StatsImages) {
  fuzz_strict([](Xoshiro256& rng, BitReader& r) {
    (void)cube::decode_stats_image(r, rng.next_below(2) == 0);
  });
}

/// Decodes a ranged image whose core is 3 readings summing to 30 in
/// [5, 15], followed by the delta fields in `deltas` (each an encode_uint);
/// false when the decoder rejects it.
bool ranged_image_decodes(std::initializer_list<std::uint64_t> deltas) {
  BitWriter w;
  cube::RangeStats core;
  for (const Value v : {5, 10, 15}) core.observe(v);
  cube::encode_range_stats(w, core);
  for (const std::uint64_t d : deltas) encode_uint(w, d);
  BitReader r(w.bytes().data(), w.bit_count());
  try {
    const service::StatsBundle b = cube::decode_stats_image(r, false);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_LE(b.inner.count, b.core.count);
    EXPECT_LE(b.core.count, b.outer.count);
    return true;
  } catch (const WireFormatError&) {
    return false;
  }
}

TEST(FuzzDecode, StatsImageRejectsInconsistentDeltas) {
  // Well-formed codes whose deltas would take the inner outside the core or
  // the outer outside the Value / uint64 range: each is a WireFormatError,
  // never a wrapped bundle. Inner fields: count, sum, min, max deltas
  // against the core; outer fields: count, sum, min, max deltas.
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 63) - 1;  // Value max
  constexpr std::uint64_t kU64 = ~std::uint64_t{0};
  // Control: the widest consistent deltas decode (inner = [15, 15], outer
  // from 0 to the largest Value, sum and count at the uint64 limit).
  EXPECT_TRUE(ranged_image_decodes({2, 15, 10, 0, kU64 - 3, kU64 - 31, 5,
                                    kTop - 15}));
  EXPECT_TRUE(ranged_image_decodes({3, 0, 0, 0, 0}));  // empty inner
  // Inner count past the core's (the rest would decode as an empty outer
  // margin).
  EXPECT_FALSE(ranged_image_decodes({4, 0, 0, 0, 0, 0, 0, 0}));
  // Inner sum past the core's.
  EXPECT_FALSE(ranged_image_decodes({2, 31, 0, 0, 0, 0, 0, 0}));
  // Inner min or max leaving the core's span [5, 15].
  EXPECT_FALSE(ranged_image_decodes({2, 0, 11, 0, 0, 0, 0, 0}));
  EXPECT_FALSE(ranged_image_decodes({2, 0, 0, 11, 0, 0, 0, 0}));
  EXPECT_FALSE(ranged_image_decodes({2, 0, 6, 5, 0, 0, 0, 0}));  // max < min
  // Outer count or sum past uint64.
  EXPECT_FALSE(ranged_image_decodes({3, kU64 - 2, 0, 0, 0}));
  EXPECT_FALSE(ranged_image_decodes({3, 0, kU64 - 29, 0, 0}));
  // Outer min below 0, outer max past the Value range.
  EXPECT_FALSE(ranged_image_decodes({3, 0, 0, 6, 0}));
  EXPECT_FALSE(ranged_image_decodes({3, 0, 0, 0, kTop - 14}));

  // An empty core: no inner can exist, and the outer's min and span are
  // sent in full — and must stay inside the Value range.
  const auto empty_core = [](std::initializer_list<std::uint64_t> deltas) {
    BitWriter w;
    cube::encode_range_stats(w, cube::RangeStats{});
    for (const std::uint64_t d : deltas) encode_uint(w, d);
    BitReader r(w.bytes().data(), w.bit_count());
    (void)cube::decode_stats_image(r, false);
    EXPECT_EQ(r.remaining(), 0u);
  };
  EXPECT_NO_THROW(empty_core({0, 2, 9, kTop - 1, 1}));
  EXPECT_NO_THROW(empty_core({0, 0}));
  EXPECT_THROW(empty_core({1, 0, 0, 0, 0}), WireFormatError);
  EXPECT_THROW(empty_core({0, 1, 9, kTop + 1, 0}), WireFormatError);
  EXPECT_THROW(empty_core({0, 1, 9, kTop, 1}), WireFormatError);
  EXPECT_THROW(empty_core({0, 2, 9, 5, kTop - 4}), WireFormatError);
}

TEST(FuzzDecode, StatsImageEncoderRejectsBrokenNesting) {
  // The delta code relies on inner ⊆ core ⊆ outer; a bundle that breaks it
  // is a caller bug, caught before anything reaches the wire.
  service::StatsBundle ok;
  for (const Value v : {5, 10, 15}) ok.core.observe(v);
  ok.inner.observe(10);
  ok.outer = ok.core;
  ok.outer.observe(2);
  BitWriter fine;
  cube::encode_stats_image(fine, ok, false);

  std::vector<service::StatsBundle> broken(6, ok);
  broken[0].inner.observe(10);
  broken[0].inner.observe(10);
  broken[0].inner.observe(10);  // inner count > core count
  broken[1].outer = ok.inner;    // outer count < core count
  broken[2].inner.min = 4;       // inner below the core's min
  broken[3].inner.max = 16;      // inner above the core's max
  broken[4].outer.max = 14;      // outer max below the core's
  broken[5].inner.sum = 31;      // inner sum > core sum
  for (const service::StatsBundle& b : broken) {
    BitWriter w;
    EXPECT_THROW(cube::encode_stats_image(w, b, false), PreconditionError);
    BitWriter whole;  // a whole-domain image carries the core alone
    cube::encode_stats_image(whole, b, true);
  }
}

TEST(FuzzDecode, StatsRequestMask) {
  fuzz_strict([](Xoshiro256& rng, BitReader& r) {
    std::vector<std::uint8_t> mask(1 + rng.next_below(96));
    (void)cube::decode_stats_request(r, mask);
    EXPECT_NE(std::count(mask.begin(), mask.end(), 1), 0);
    EXPECT_EQ(r.remaining(), 0u);
  });
  // A valid request — the mask, then the resync bit — decodes to exactly
  // what was sent; every strict prefix and every one-bit extension is
  // rejected.
  Xoshiro256 rng(43);
  for (int t = 0; t < 60; ++t) {
    const std::size_t k = 1 + rng.next_below(12);
    std::vector<std::uint8_t> mask(k);
    for (std::size_t i = 0; i < k; ++i) {
      mask[i] = i == k - 1 || rng.next_below(2) == 0;
    }
    const bool resync = rng.next_below(2) == 0;
    BitWriter w;
    cube::encode_stats_request(w, mask, resync);
    ASSERT_EQ(w.bit_count(), k + 1);
    w.write_bit(rng.next_below(2) == 0);  // a spare bit for the extension
    const std::vector<std::uint8_t> bytes(w.bytes().begin(), w.bytes().end());

    std::vector<std::uint8_t> got(k);
    BitReader exact(bytes.data(), k + 1);
    EXPECT_EQ(cube::decode_stats_request(exact, got), resync);
    EXPECT_EQ(got, mask);
    BitReader longer(bytes.data(), k + 2);
    EXPECT_THROW((void)cube::decode_stats_request(longer, got),
                 WireFormatError);
    for (std::size_t cut = 0; cut <= k; ++cut) {
      BitReader shorter(bytes.data(), cut);
      EXPECT_THROW((void)cube::decode_stats_request(shorter, got),
                   WireFormatError);
    }
  }
}

// ---- temporal delta images -------------------------------------------------

constexpr std::uint64_t kValueTop = (std::uint64_t{1} << 63) - 1;
constexpr std::uint64_t kU64Top = ~std::uint64_t{0};

/// A bundle whose three regions are the same readings.
service::StatsBundle collapsed(std::initializer_list<Value> readings) {
  service::StatsBundle b;
  for (const Value v : readings) b.core.observe(v);
  b.inner = b.core;
  b.outer = b.core;
  return b;
}

/// The baseline of the rejection cases: core {5, 10, 15}, inner {10},
/// outer {2, 5, 10, 15}.
service::StatsBundle delta_base() {
  service::StatsBundle b;
  for (const Value v : {5, 10, 15}) b.core.observe(v);
  b.inner.observe(10);
  b.outer = b.core;
  b.outer.observe(2);
  return b;
}

/// One field of a hand-built delta image: a zigzag change (encode_int), a
/// full field (encode_uint: an old-empty range's min and span) or one bit
/// (the "anything else moved" bit and the margins' ride bits).
struct Field {
  enum Kind { kChange, kFull, kBit } kind;
  std::uint64_t bits;  // the change's two's complement, the field or the bit
};
Field change(std::int64_t d) {
  return {Field::kChange, static_cast<std::uint64_t>(d)};
}
Field full(std::uint64_t x) { return {Field::kFull, x}; }
Field bit(bool b) { return {Field::kBit, b ? 1u : 0u}; }

/// Decodes the delta image `fields` against `base` at `margin`; false when
/// the decoder rejects it.
bool delta_decodes(const service::StatsBundle& base, bool whole_domain,
                   const std::vector<Field>& fields, Value margin = 0,
                   service::StatsBundle* got = nullptr) {
  BitWriter w;
  for (const Field& f : fields) {
    switch (f.kind) {
      case Field::kChange:
        encode_int(w, static_cast<std::int64_t>(f.bits));
        break;
      case Field::kFull:
        encode_uint(w, f.bits);
        break;
      case Field::kBit:
        w.write_bit(f.bits != 0);
        break;
    }
  }
  BitReader r(w.bytes().data(), w.bit_count());
  try {
    const service::StatsBundle b =
        cube::decode_stats_delta(r, base, whole_domain, margin);
    EXPECT_EQ(r.remaining(), 0u);
    if (got != nullptr) *got = b;
    return true;
  } catch (const WireFormatError&) {
    return false;
  }
}

TEST(FuzzDecode, StatsDeltaImages) {
  // Bit soup against baselines that are empty, on the Value rails or with
  // real margins, at margins from none to the whole Value range: a decode
  // either throws or yields non-negative readings, all-zero empty ranges
  // and, for a ranged image, nested margins.
  const std::vector<service::StatsBundle> bases = {
      service::StatsBundle{}, collapsed({0}),
      collapsed({static_cast<Value>(kValueTop)}), delta_base()};
  const std::array<Value, 4> margins = {0, 4, 32,
                                        static_cast<Value>(kValueTop)};
  fuzz_strict([&](Xoshiro256& rng, BitReader& r) {
    const bool whole = rng.next_below(2) == 0;
    const service::StatsBundle& base = bases[rng.next_below(bases.size())];
    const Value margin = margins[rng.next_below(margins.size())];
    const service::StatsBundle b =
        cube::decode_stats_delta(r, base, whole, margin);
    for (const cube::RangeStats* rs : {&b.core, &b.inner, &b.outer}) {
      if (rs->count == 0) {
        EXPECT_EQ(*rs, cube::RangeStats{});
      } else {
        EXPECT_GE(rs->min, 0);
        EXPECT_GE(rs->max, rs->min);
      }
    }
    if (whole) {
      EXPECT_EQ(b.inner, b.core);
      EXPECT_EQ(b.outer, b.core);
    } else {
      EXPECT_LE(b.inner.count, b.core.count);
      EXPECT_LE(b.core.count, b.outer.count);
      EXPECT_LE(b.inner.sum, b.core.sum);
      EXPECT_LE(b.core.sum, b.outer.sum);
    }
  });
}

TEST(FuzzDecode, StatsDeltaRejectsChangesOutOfRange) {
  // Well-formed codes whose changes would leave a count, a sum or a
  // reading's range, or break the margins' nesting: each is a
  // WireFormatError, never a wrapped bundle. The core sends its count and
  // (non-empty) sum changes; when both are 0, the "anything else moved"
  // bit; then its min and max changes.
  const service::StatsBundle base = delta_base();
  const auto top = static_cast<std::int64_t>(kValueTop);
  // Controls: no change at all, an emptied core, the widest moves.
  EXPECT_TRUE(delta_decodes(base, true, {change(0), change(0), bit(0)}));
  EXPECT_TRUE(delta_decodes(base, false, {change(0), change(0), bit(0)}));
  EXPECT_TRUE(delta_decodes(base, true, {change(-3)}));
  EXPECT_TRUE(delta_decodes(
      base, true, {change(top), change(top), change(-5), change(top - 15)}));
  // Count and sum below zero.
  EXPECT_FALSE(delta_decodes(base, true, {change(-4)}));
  EXPECT_FALSE(delta_decodes(base, true, {change(0), change(-31)}));
  // Count and sum past uint64.
  service::StatsBundle high = collapsed({5});
  high.core.count = kU64Top - 5;
  high.core.sum = kU64Top - 5;
  EXPECT_TRUE(delta_decodes(high, true,
                            {change(5), change(5), change(0), change(0)}));
  EXPECT_FALSE(delta_decodes(high, true, {change(6), change(0)}));
  EXPECT_FALSE(delta_decodes(high, true, {change(0), change(6)}));
  // Min below 0 or past the Value range, max past it, max below min.
  const auto rails = [&](std::int64_t min, std::int64_t max) {
    return delta_decodes(base, true, {change(0), change(0), bit(1),
                                      change(min), change(max)});
  };
  EXPECT_TRUE(rails(-5, top - 15));
  EXPECT_FALSE(rails(-6, 0));
  EXPECT_FALSE(rails(top - 4, top - 14));
  EXPECT_FALSE(rails(0, top - 14));
  EXPECT_FALSE(rails(11, 0));
  // An old-empty range sends min and span in full: inside the Value range.
  const service::StatsBundle empty;
  EXPECT_TRUE(delta_decodes(empty, true,
                            {change(1), change(7), full(kValueTop - 3),
                             full(3)}));
  EXPECT_FALSE(delta_decodes(empty, true,
                             {change(1), change(7), full(kValueTop + 1),
                              full(0)}));
  EXPECT_FALSE(delta_decodes(empty, true,
                             {change(1), change(7), full(kValueTop - 3),
                              full(4)}));
  // Ranged: changes that break inner ⊆ core ⊆ outer. The core holds still
  // but says something else moved; both margins decline to ride (bit 0)
  // and send changes: the inner grows past the core's count, its min
  // leaves the core's span, its sum passes the core's; the outer shrinks
  // below the core.
  const auto ranged = [&](std::vector<std::int64_t> inner,
                          std::vector<std::int64_t> outer) {
    std::vector<Field> all = {change(0), change(0), bit(1), change(0),
                              change(0), bit(0)};
    for (const std::int64_t d : inner) all.push_back(change(d));
    all.push_back(bit(0));
    for (const std::int64_t d : outer) all.push_back(change(d));
    return delta_decodes(base, false, all);
  };
  const std::vector<std::int64_t> still = {0, 0, 0, 0};
  EXPECT_TRUE(ranged({1, 5, -5, 0}, still));  // inner {5, 10}
  EXPECT_FALSE(ranged({3, 0, 0, 0}, still));
  EXPECT_FALSE(ranged({0, 0, -6, 0}, still));
  EXPECT_FALSE(ranged({0, 21, 0, 0}, still));
  EXPECT_FALSE(ranged(still, {-2, 0, 0, 0}));
  EXPECT_FALSE(ranged(still, {0, 0, 4, 0}));  // outer min 6 > 5
}

TEST(FuzzDecode, StatsDeltaRejectsRidesOutOfRange) {
  // A margin that rides takes the core's four changes. Core {5, 10, 15},
  // inner {10}, outer {2, 5, 10, 15}: the core's 10 moves to 12 (sum +2),
  // the outer rides and the inner, whose min and max move too, does not.
  const service::StatsBundle base = delta_base();
  const std::vector<Field> core_up2 = {change(0), change(2), change(0),
                                       change(0)};
  std::vector<Field> image = core_up2;
  for (const Field& f : {bit(0), change(0), change(2), change(2), change(2),
                         bit(1)}) {
    image.push_back(f);
  }
  service::StatsBundle got;
  ASSERT_TRUE(delta_decodes(base, false, image, /*margin=*/2, &got));
  service::StatsBundle want;
  for (const Value v : {5, 12, 15}) want.core.observe(v);
  want.inner.observe(12);
  want.outer = want.core;
  want.outer.observe(2);
  EXPECT_EQ(got, want);
  // Past the margin there are no ride bits: the margins send changes.
  std::vector<Field> no_rides = core_up2;
  for (const std::int64_t d : {0, 2, 2, 2, 0, 2, 0, 0}) {
    no_rides.push_back(change(d));
  }
  ASSERT_TRUE(delta_decodes(base, false, no_rides, /*margin=*/1, &got));
  EXPECT_EQ(got, want);
  // A margin empty in the baseline has no ride bit: here the inner sends
  // its count change and the outer rides the core holding still.
  service::StatsBundle no_inner = base;
  no_inner.inner = cube::RangeStats{};
  ASSERT_TRUE(delta_decodes(no_inner, false,
                            {change(0), change(0), bit(1), change(0),
                             change(0), change(0), bit(1)},
                            4, &got));
  EXPECT_EQ(got, no_inner);
  // A ride that empties its margin: the core drops its 10 (count -1, sum
  // -10), and the inner {10} would ride to count 0.
  EXPECT_FALSE(delta_decodes(base, false,
                             {change(-1), change(-10), change(0), change(0),
                              bit(1)},
                             11));
  // A ride below 0: the core's min 5 moves to 0 (sum -5); the inner sends
  // its (unchanged) self and the outer's min 2 would ride to -3.
  EXPECT_FALSE(delta_decodes(base, false,
                             {change(0), change(-5), change(-5), change(0),
                              bit(0), change(0), change(0), change(0),
                              change(0), bit(1)},
                             5));
  // A ride past the Value range: a core {5} whose outer reaches 20 moves
  // its reading to the top. The inner rides along; the outer's max would
  // ride past the top, so it must send its changes.
  service::StatsBundle low;
  low.core.observe(5);
  low.inner = low.core;
  low.outer = low.core;
  low.outer.observe(20);
  const auto top = static_cast<std::int64_t>(kValueTop);
  EXPECT_FALSE(delta_decodes(low, false,
                             {change(0), change(top - 5), change(top - 5),
                              change(top - 5), bit(1), bit(1)},
                             static_cast<Value>(kValueTop)));
  EXPECT_TRUE(delta_decodes(low, false,
                            {change(0), change(top - 5), change(top - 5),
                             change(top - 5), bit(1), bit(0), change(0),
                             change(top - 5), change(15), change(top - 20)},
                            static_cast<Value>(kValueTop)));
  // A ride that sets max below min: the core's min 5 moves to 8 (sum +3)
  // and its max holds, so the inner {10} would ride to min 13, max 10.
  EXPECT_FALSE(delta_decodes(base, false,
                             {change(0), change(3), change(3), change(0),
                              bit(1)},
                             3));
}

TEST(FuzzDecode, StatsDeltaEncoderRejectsBrokenNesting) {
  // The same broken bundles the full image's encoder refuses: a delta image
  // of one would decode to a bundle that does not nest.
  const service::StatsBundle ok = delta_base();
  BitWriter fine;
  cube::encode_stats_delta(fine, ok, ok, false, 4);
  std::vector<service::StatsBundle> broken(6, ok);
  broken[0].inner.count = 4;  // inner count > core count
  broken[1].outer = ok.inner;  // outer count < core count
  broken[2].inner.min = 4;     // inner below the core's min
  broken[3].inner.max = 16;    // inner above the core's max
  broken[4].outer.max = 14;    // outer max below the core's
  broken[5].inner.sum = 31;    // inner sum > core sum
  for (const service::StatsBundle& b : broken) {
    BitWriter w;
    EXPECT_THROW(cube::encode_stats_delta(w, ok, b, false, 4),
                 PreconditionError);
    BitWriter whole;  // a whole-domain image carries the core alone
    cube::encode_stats_delta(whole, ok, b, true, 4);
  }
  // A change past encode_int's range cannot be sent either.
  service::StatsBundle huge = ok;
  huge.core.sum = kU64Top - 1;
  huge.outer.sum = kU64Top - 1;
  BitWriter w;
  EXPECT_THROW(cube::encode_stats_delta(w, ok, huge, true, 4),
               PreconditionError);
}

/// A sketch of `registers` registers at rank width `width` raised by
/// `items` random items (dense from the start when `dense`).
sketch::Hll random_hll(Xoshiro256& rng, unsigned registers, unsigned width,
                       std::uint64_t items, bool dense = false) {
  auto h = sketch::Hll::make_by_registers(registers,
                                          {.width = width, .sparse = !dense})
               .value();
  for (std::uint64_t j = 0; j < items; ++j) h.add(rng.next_u64(), 1);
  return h;
}

/// `base` with a few registers raised, lowered or cleared at random.
sketch::Hll drifted(Xoshiro256& rng, const sketch::Hll& base) {
  sketch::Hll h = base.clone();
  const std::uint64_t moves = rng.next_below(1 + base.m() / 2);
  for (std::uint64_t j = 0; j < moves; ++j) {
    const auto b = static_cast<unsigned>(rng.next_below(base.m()));
    h.set_register(b, static_cast<unsigned>(
                          rng.next_below(2) == 0
                              ? 0
                              : rng.next_below(base.rank_cap() + 1)));
  }
  return h;
}

std::vector<std::uint8_t> hll_bytes(const sketch::Hll& h) {
  BitWriter w;
  h.encode(w);
  return {w.bytes().begin(), w.bytes().end()};
}

TEST(FuzzDecode, HllDeltaImages) {
  // Random register pairs in every width round-trip exactly (the rebuilt
  // sketch encodes as the sent one); every strict prefix and every one-bit
  // extension is rejected.
  Xoshiro256 rng(43);
  for (int t = 0; t < 160; ++t) {
    const unsigned registers = 16u << rng.next_below(4);
    const unsigned width = std::array{4u, 5u, 6u, 8u}[rng.next_below(4)];
    const sketch::Hll base =
        random_hll(rng, registers, width, rng.next_below(3 * registers));
    const sketch::Hll h = t % 8 == 0 ? base.clone() : drifted(rng, base);
    BitWriter w;
    cube::encode_hll_delta(w, base, h);
    const std::size_t bits = w.bit_count();
    w.write_bit(rng.next_below(2) == 0);  // a spare bit for the extension
    const std::vector<std::uint8_t> bytes(w.bytes().begin(), w.bytes().end());

    BitReader exact(bytes.data(), bits);
    const sketch::Hll got = cube::decode_hll_delta(exact, base);
    EXPECT_EQ(exact.remaining(), 0u);
    EXPECT_TRUE(got == h);
    EXPECT_EQ(hll_bytes(got), hll_bytes(h));
    if (t % 8 == 0) {
      EXPECT_EQ(bits, 1u);  // an unchanged sketch costs one bit
    }
    // As a one-entry response, so trailing bits are checked too.
    const std::vector<std::uint8_t> mask{1};
    const std::vector<cube::ImageShape> shapes{cube::ImageShape::kHll};
    const std::vector<cube::Baseline> baselines{{.hll = &base}};
    std::vector<service::StatsBundle> images;
    std::vector<sketch::Hll> sketches;
    BitReader longer(bytes.data(), bits + 1);
    EXPECT_THROW(cube::decode_stats_response(longer, mask, shapes, images,
                                             &base, &sketches, baselines),
                 WireFormatError);
    for (std::size_t cut = 0; cut < bits; ++cut) {
      BitReader shorter(bytes.data(), cut);
      EXPECT_THROW((void)cube::decode_hll_delta(shorter, base),
                   WireFormatError);
    }
  }
  // Bit soup: a decode either throws or yields a sketch of the baseline's
  // geometry in its canonical representation.
  std::vector<sketch::Hll> bases;
  Xoshiro256 seeds(47);
  for (const unsigned items : {0u, 6u, 40u, 400u}) {
    bases.push_back(random_hll(seeds, 32, 5, items));
  }
  fuzz_strict([&bases](Xoshiro256& rng, BitReader& r) {
    const sketch::Hll& base = bases[rng.next_below(bases.size())];
    const sketch::Hll h = cube::decode_hll_delta(r, base);
    EXPECT_TRUE(h.same_geometry(base));
    EXPECT_EQ(h.is_sparse(), h.m() - h.zero_count() <= h.sparse_capacity());
  });
}

/// Decodes an HLL delta image against `base`: `count` changes (default:
/// entries.size()), then each (bucket gap, rank change); false when the
/// decoder rejects it.
bool hll_delta_decodes(
    const sketch::Hll& base,
    const std::vector<std::pair<std::uint64_t, std::int64_t>>& entries,
    std::optional<std::uint64_t> count = std::nullopt) {
  BitWriter w;
  encode_uint(w, count.value_or(entries.size()));
  for (const auto& [gap, change] : entries) {
    encode_uint(w, gap);
    encode_int(w, change);
  }
  BitReader r(w.bytes().data(), w.bit_count());
  try {
    (void)cube::decode_hll_delta(r, base);
    EXPECT_EQ(r.remaining(), 0u);
    return true;
  } catch (const WireFormatError&) {
    return false;
  }
}

TEST(FuzzDecode, HllDeltaRejectsOutOfRange) {
  // Well-formed codes naming a bucket past m, a bucket twice, a rank
  // change leaving [0, rank_cap] or more changes than registers: each is a
  // WireFormatError. Baseline: 16 registers of width 5 (rank_cap 31),
  // register 3 at 4 and register 7 at 31.
  auto base =
      sketch::Hll::make_by_registers(16, {.width = 5, .sparse = true}).value();
  base.observe(3, 4);
  base.observe(7, 31);
  // Controls: no change, a cleared register, both rails, the last bucket.
  EXPECT_TRUE(hll_delta_decodes(base, {}));
  EXPECT_TRUE(hll_delta_decodes(base, {{3, -4}}));
  EXPECT_TRUE(hll_delta_decodes(base, {{3, 27}, {4, -31}}));
  EXPECT_TRUE(hll_delta_decodes(base, {{0, 1}, {15, 31}}));
  // A bucket past m: first, or after a gap.
  EXPECT_FALSE(hll_delta_decodes(base, {{16, 1}}));
  EXPECT_FALSE(hll_delta_decodes(base, {{3, 1}, {13, 1}}));
  EXPECT_FALSE(hll_delta_decodes(base, {{kU64Top - 1, 1}}));
  // A repeated bucket (a later gap of 0).
  EXPECT_FALSE(hll_delta_decodes(base, {{3, 1}, {0, 1}}));
  // A rank change below 0 or past rank_cap, or no change at all.
  EXPECT_FALSE(hll_delta_decodes(base, {{3, -5}}));
  EXPECT_FALSE(hll_delta_decodes(base, {{7, 1}}));
  EXPECT_FALSE(hll_delta_decodes(base, {{0, 32}}));
  constexpr auto kIntTop = std::numeric_limits<std::int64_t>::max();
  EXPECT_FALSE(hll_delta_decodes(base, {{0, kIntTop}}));
  EXPECT_FALSE(hll_delta_decodes(base, {{3, -kIntTop}}));
  EXPECT_FALSE(hll_delta_decodes(base, {{3, 0}}));
  // More changes than registers, even with entries to back them.
  std::vector<std::pair<std::uint64_t, std::int64_t>> every(16, {1, 1});
  every[0].first = 0;
  every[7].second = -1;  // register 7 sits at the cap
  EXPECT_TRUE(hll_delta_decodes(base, every));
  every.push_back({0, 1});
  EXPECT_FALSE(hll_delta_decodes(base, every, 17));
}

TEST(FuzzDecode, SubtreeSummary) {
  fuzz_strict([](Xoshiro256&, BitReader& r) {
    const proto::SubtreeSummary s = proto::SubtreeSummary::decode(r);
    if (s.count > 0) {
      EXPECT_GE(s.min, 0);
      EXPECT_GE(s.max, s.min);
    }
  });
}

TEST(FuzzDecode, SubtreeSummaryRejectsTruncationAndOverflow) {
  // A valid summary decodes to itself; every strict prefix is rejected.
  Xoshiro256 rng(31);
  for (int t = 0; t < 200; ++t) {
    proto::SubtreeSummary s;
    for (auto k = rng.next_below(4); k > 0; --k) {
      s.observe(static_cast<Value>(rng.next_below(std::uint64_t{1}
                                                  << rng.next_below(40))));
    }
    BitWriter w;
    s.encode(w);
    BitReader exact(w.bytes().data(), w.bit_count());
    EXPECT_EQ(proto::SubtreeSummary::decode(exact), s);
    EXPECT_EQ(exact.remaining(), 0u);
    for (std::size_t cut = 0; cut < w.bit_count(); ++cut) {
      BitReader shorter(w.bytes().data(), cut);
      EXPECT_THROW(proto::SubtreeSummary::decode(shorter), WireFormatError);
    }
  }
  // Well-formed codes whose min, or min + span, leave the Value range.
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 63) - 1;
  for (const auto& [min, span] : {std::pair{kTop + 1, std::uint64_t{0}},
                                 std::pair{kTop, std::uint64_t{1}},
                                 std::pair{std::uint64_t{5}, kTop}}) {
    BitWriter w;
    encode_uint(w, 1);  // count
    encode_uint(w, min);
    encode_uint(w, span);
    BitReader r(w.bytes().data(), w.bit_count());
    EXPECT_THROW(proto::SubtreeSummary::decode(r), WireFormatError);
  }
  BitWriter w;
  encode_uint(w, 2);
  encode_uint(w, kTop - 3);
  encode_uint(w, 3);
  BitReader r(w.bytes().data(), w.bit_count());
  EXPECT_EQ(proto::SubtreeSummary::decode(r).max, static_cast<Value>(kTop));
}

TEST(FuzzDecode, SummaryRequestWindow) {
  // A pruned selection's summary request: whatever decodes is a window
  // inside the Value range.
  fuzz_strict([](Xoshiro256&, BitReader& r) {
    const proto::ValueWindow w = proto::ValueWindow::decode(r);
    EXPECT_GE(w.lo, 0);
    if (w.hi) {
      EXPECT_GE(*w.hi, w.lo);
    }
  });
}

TEST(FuzzDecode, SummaryRequestWindowRejectsTruncationAndOverflow) {
  // A valid window decodes to itself; every strict prefix is rejected.
  Xoshiro256 rng(37);
  for (int t = 0; t < 200; ++t) {
    proto::ValueWindow sent;
    sent.lo = static_cast<Value>(
        rng.next_below(std::uint64_t{1} << rng.next_below(40)));
    if (rng.next_bool(0.7)) {
      sent.hi = sent.lo + static_cast<Value>(rng.next_below(
                              std::uint64_t{1} << rng.next_below(40)));
    }
    BitWriter w;
    sent.encode(w);
    BitReader exact(w.bytes().data(), w.bit_count());
    EXPECT_EQ(proto::ValueWindow::decode(exact), sent);
    EXPECT_EQ(exact.remaining(), 0u);
    for (std::size_t cut = 0; cut < w.bit_count(); ++cut) {
      BitReader shorter(w.bytes().data(), cut);
      EXPECT_THROW(proto::ValueWindow::decode(shorter), WireFormatError);
    }
  }
  // Well-formed codes whose lo, or lo + span, leave the Value range.
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 63) - 1;
  for (const auto& [lo, span] : {std::pair{kTop + 1, std::uint64_t{0}},
                                 std::pair{kTop, std::uint64_t{1}},
                                 std::pair{std::uint64_t{5}, kTop}}) {
    BitWriter w;
    encode_uint(w, lo);
    w.write_bit(true);
    encode_uint(w, span);
    BitReader r(w.bytes().data(), w.bit_count());
    EXPECT_THROW(proto::ValueWindow::decode(r), WireFormatError);
  }
  BitWriter w;
  encode_uint(w, kTop - 3);
  w.write_bit(true);
  encode_uint(w, 3);
  BitReader r(w.bytes().data(), w.bit_count());
  EXPECT_EQ(proto::ValueWindow::decode(r).hi, static_cast<Value>(kTop));
}

TEST(FuzzDecode, MultiplexedStatsResponse) {
  // A random group mask and shape per trial, then bit soup as the payload.
  fuzz_strict([](Xoshiro256& rng, BitReader& r) {
    const std::size_t k = 1 + rng.next_below(8);
    std::vector<std::uint8_t> mask(k);
    std::vector<cube::ImageShape> shapes(k);
    for (std::size_t i = 0; i < k; ++i) {
      mask[i] = rng.next_below(2) == 0;
      shapes[i] = stats_shape(rng.next_below(2) == 0);
    }
    std::vector<service::StatsBundle> images(3);  // stale contents are dropped
    cube::decode_stats_response(r, mask, shapes, images);
    EXPECT_EQ(images.size(),
              static_cast<std::size_t>(
                  std::count(mask.begin(), mask.end(), 1)));
    EXPECT_EQ(r.remaining(), 0u);
  });
}

TEST(FuzzDecode, MultiplexedStatsResponseRoundTripsAndRejectsTruncation) {
  // A valid response decodes to exactly its images; every strict prefix
  // and every one-bit extension is rejected.
  Xoshiro256 rng(29);
  for (int t = 0; t < 50; ++t) {
    const std::size_t k = 1 + rng.next_below(6);
    std::vector<std::uint8_t> mask(k);
    std::vector<cube::ImageShape> shapes(k);
    std::vector<service::StatsBundle> sent;
    BitWriter w;
    for (std::size_t i = 0; i < k; ++i) {
      mask[i] = i == 0 || rng.next_below(2) == 0;
      const bool whole = rng.next_below(2) == 0;
      shapes[i] = stats_shape(whole);
      if (!mask[i]) continue;
      service::StatsBundle b;
      for (int v = 0; v < 3; ++v) {
        b.core.observe(static_cast<Value>(rng.next_below(1000)));
      }
      b.inner = whole ? b.core : service::StatsBundle{}.core;
      b.outer = b.core;
      if (!whole) {
        b.outer.observe(static_cast<Value>(rng.next_below(1000)));
      }
      cube::encode_stats_image(w, b, whole);
      sent.push_back(b);
    }
    w.write_bit(false);  // one spare bit for the extension case
    const std::vector<std::uint8_t> bytes(w.bytes().begin(), w.bytes().end());
    const std::size_t bits = w.bit_count() - 1;
    std::vector<service::StatsBundle> images;
    BitReader exact(bytes.data(), bits);
    cube::decode_stats_response(exact, mask, shapes, images);
    EXPECT_EQ(images, sent);
    BitReader longer(bytes.data(), bits + 1);
    EXPECT_THROW(cube::decode_stats_response(longer, mask, shapes, images),
                 WireFormatError);
    for (std::size_t cut = 0; cut < bits; ++cut) {
      BitReader shorter(bytes.data(), cut);
      EXPECT_THROW(cube::decode_stats_response(shorter, mask, shapes, images),
                   WireFormatError);
    }
  }
}

// ---- multiplexed residue requests ------------------------------------------

TEST(FuzzDecode, ResidueRequest) {
  // A random residue count and domain per trial, then bit soup: a decode
  // names at least one residue, and every range it reads lies in the domain.
  fuzz_strict([](Xoshiro256& rng, BitReader& r) {
    std::vector<std::uint8_t> mask(1 + rng.next_below(12));
    std::vector<query::RegionSignature> ranges;
    const auto bound = static_cast<Value>(rng.next_below(5000));
    cube::decode_residue_request(r, bound, mask, ranges);
    EXPECT_NE(std::count(mask.begin(), mask.end(), 1), 0);
    ASSERT_EQ(ranges.size(), mask.size());
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (!mask[i]) continue;
      EXPECT_GE(ranges[i].lo, 0);
      EXPECT_LE(ranges[i].lo, ranges[i].hi);
      EXPECT_LE(ranges[i].hi, bound);
      EXPECT_EQ(ranges[i].whole_domain,
                ranges[i].lo == 0 && ranges[i].hi == bound);
    }
    EXPECT_EQ(r.remaining(), 0u);
  });
}

TEST(FuzzDecode, ResidueRequestRoundTripsAndRejectsTruncation) {
  // A valid request decodes to exactly its mask and ranges; every strict
  // prefix, every one-bit extension and a smaller domain are rejected.
  Xoshiro256 rng(41);
  for (int t = 0; t < 60; ++t) {
    const std::size_t k = 1 + rng.next_below(8);
    const auto bound = static_cast<Value>(1 + rng.next_below(4000));
    std::vector<std::uint8_t> mask(k);
    std::vector<query::RegionSignature> sent(k);
    Value top = 0;
    for (std::size_t i = 0; i < k; ++i) {
      mask[i] = i == k - 1 || rng.next_below(2) == 0;
      sent[i].lo = static_cast<Value>(rng.next_below(bound + 1));
      sent[i].hi =
          sent[i].lo + static_cast<Value>(rng.next_below(bound - sent[i].lo + 1));
      sent[i].whole_domain = sent[i].lo == 0 && sent[i].hi == bound;
      if (mask[i]) top = std::max(top, sent[i].hi);
    }
    BitWriter w;
    cube::encode_residue_request(w, mask, sent);
    w.write_bit(false);  // one spare bit for the extension case
    const std::vector<std::uint8_t> bytes(w.bytes().begin(), w.bytes().end());
    const std::size_t bits = w.bit_count() - 1;

    std::vector<std::uint8_t> got(k);
    std::vector<query::RegionSignature> ranges;
    BitReader exact(bytes.data(), bits);
    cube::decode_residue_request(exact, bound, got, ranges);
    EXPECT_EQ(got, mask);
    for (std::size_t i = 0; i < k; ++i) {
      if (mask[i]) {
        EXPECT_EQ(ranges[i], sent[i]);
      }
    }
    BitReader longer(bytes.data(), bits + 1);
    EXPECT_THROW(cube::decode_residue_request(longer, bound, got, ranges),
                 WireFormatError);
    if (top > 0) {
      BitReader narrower(bytes.data(), bits);
      EXPECT_THROW(cube::decode_residue_request(narrower, top - 1, got, ranges),
                   WireFormatError);
    }
    for (std::size_t cut = 0; cut < bits; ++cut) {
      BitReader shorter(bytes.data(), cut);
      EXPECT_THROW(cube::decode_residue_request(shorter, bound, got, ranges),
                   WireFormatError);
    }
  }
}

// ---- mixed responses: stats images and HLL-only images ---------------------

/// A valid response of k slots, each a stats slot (whole-domain or ranged)
/// or an HLL-only sketch slot, with sketches of `registers` registers at
/// rank width `width` (dense or sparse at random). `all_sketch` makes every
/// slot a sketch slot, as on a one-shot sketch wave; `deltas` codes about
/// half of the images as delta images against a baseline, as on a
/// collect() wave.
struct SketchResponse {
  std::vector<std::uint8_t> mask;
  std::vector<cube::ImageShape> shapes;
  std::vector<service::StatsBundle> bundles;
  std::vector<sketch::Hll> sketches;
  // Per slot: the baseline its delta image was coded against (none: full).
  std::vector<std::optional<service::StatsBundle>> base_bundles;
  std::vector<std::optional<sketch::Hll>> base_hlls;
  std::vector<std::uint8_t> bytes;
  std::size_t bits = 0;  // bytes hold one spare zero bit past the image

  bool has_deltas() const {
    return std::any_of(base_bundles.begin(), base_bundles.end(),
                       [](const auto& b) { return b.has_value(); }) ||
           std::any_of(base_hlls.begin(), base_hlls.end(),
                       [](const auto& h) { return h.has_value(); });
  }
  /// The decoder's view of the baselines, one per slot.
  std::vector<cube::Baseline> baselines() const {
    std::vector<cube::Baseline> out(mask.size());
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (base_bundles[i]) out[i].bundle = &*base_bundles[i];
      if (base_hlls[i]) out[i].hll = &*base_hlls[i];
    }
    return out;
  }
};

SketchResponse sketch_response(Xoshiro256& rng, unsigned registers,
                               unsigned width, bool all_sketch = false,
                               bool deltas = false) {
  SketchResponse out;
  const std::size_t k = 1 + rng.next_below(4);
  out.base_bundles.resize(k);
  out.base_hlls.resize(k);
  BitWriter w;
  for (std::size_t i = 0; i < k; ++i) {
    out.mask.push_back(i == 0 || rng.next_below(2) == 0);
    const auto kind = all_sketch ? 2 : rng.next_below(3);
    out.shapes.push_back(kind == 2 ? cube::ImageShape::kHll
                                   : stats_shape(kind == 0));
    if (!out.mask.back()) continue;
    const bool delta = deltas && rng.next_below(2) == 0;
    if (kind != 2) {
      const service::StatsBundle b =
          collapsed({static_cast<Value>(rng.next_below(1000))});
      if (delta) {
        const service::StatsBundle& base = out.base_bundles[i].emplace(
            collapsed({static_cast<Value>(rng.next_below(1000))}));
        cube::encode_stats_delta(w, base, b, kind == 0, /*margin=*/0);
      } else {
        cube::encode_stats_image(w, b, kind == 0);
      }
      out.bundles.push_back(b);
      continue;
    }
    const bool dense = rng.next_below(2) != 0;
    const std::uint64_t items = rng.next_below(3 * registers);
    sketch::Hll h = random_hll(rng, registers, width, items, dense);
    if (delta) {
      const sketch::Hll& base = out.base_hlls[i].emplace(h.clone());
      h = drifted(rng, base);
      cube::encode_hll_delta(w, base, h);
    } else {
      h.encode(w);
    }
    out.sketches.push_back(std::move(h));
  }
  out.bits = w.bit_count();
  w.write_bit(false);
  out.bytes.assign(w.bytes().begin(), w.bytes().end());
  return out;
}

TEST(FuzzDecode, MultiplexedSketchResponse) {
  // Random masks, shapes (stats or HLL-only), sketch geometry and
  // baselines (about half the entries are delta images), then bit soup as
  // the payload.
  fuzz_strict([](Xoshiro256& rng, BitReader& r) {
    const std::size_t k = 1 + rng.next_below(4);
    std::vector<std::uint8_t> mask(k);
    std::vector<cube::ImageShape> shapes(k);
    for (std::size_t i = 0; i < k; ++i) {
      mask[i] = rng.next_below(2) == 0;
      const auto kind = rng.next_below(3);
      shapes[i] = kind == 2 ? cube::ImageShape::kHll : stats_shape(kind == 0);
    }
    const unsigned registers = 16u << rng.next_below(3);
    const auto geometry =
        sketch::Hll::make_by_registers(registers, {.width = 5, .sparse = true})
            .value();
    const service::StatsBundle base_bundle =
        collapsed({static_cast<Value>(rng.next_below(1000))});
    const sketch::Hll base_hll =
        random_hll(rng, registers, 5, rng.next_below(3 * registers));
    std::vector<cube::Baseline> baselines(k);
    for (std::size_t i = 0; i < k; ++i) {
      if (rng.next_below(2) == 0) continue;
      baselines[i] = {.bundle = &base_bundle, .hll = &base_hll};
    }
    std::vector<service::StatsBundle> images;
    std::vector<sketch::Hll> sketches;
    cube::decode_stats_response(r, mask, shapes, images, &geometry,
                                &sketches, baselines);
    std::size_t stats = 0;
    std::size_t hlls = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (!mask[i]) continue;
      ++(shapes[i] == cube::ImageShape::kHll ? hlls : stats);
    }
    EXPECT_EQ(images.size(), stats);
    ASSERT_EQ(sketches.size(), hlls);
    for (const sketch::Hll& h : sketches) {
      EXPECT_TRUE(h.same_geometry(geometry));
    }
  });
}

TEST(FuzzDecode, MultiplexedSketchResponseRoundTripsAndRejectsTruncation) {
  // Mixed, all-sketch (HLL-only) and mixed delta/full responses decode to
  // exactly their images; a full sketch of another geometry, every strict
  // prefix and every one-bit extension are rejected.
  Xoshiro256 rng(31);
  const auto geometry =
      sketch::Hll::make_by_registers(16, {.width = 5, .sparse = true}).value();
  const auto other =
      sketch::Hll::make_by_registers(32, {.width = 5, .sparse = true}).value();
  for (int t = 0; t < 80; ++t) {
    const SketchResponse sent = sketch_response(
        rng, 16, 5, /*all_sketch=*/t % 4 == 0, /*deltas=*/t % 2 == 1);
    const std::vector<cube::Baseline> baselines = sent.baselines();
    std::vector<service::StatsBundle> images;
    std::vector<sketch::Hll> sketches;
    BitReader exact(sent.bytes.data(), sent.bits);
    cube::decode_stats_response(exact, sent.mask, sent.shapes, images,
                                &geometry, &sketches, baselines);
    EXPECT_EQ(images, sent.bundles);
    ASSERT_EQ(sketches.size(), sent.sketches.size());
    for (std::size_t i = 0; i < sketches.size(); ++i) {
      EXPECT_TRUE(sketches[i] == sent.sketches[i]);
    }
    // A full sketch of another geometry is a wire error, not a merge
    // failure. (A delta image has the geometry of its baseline.)
    if (!sent.sketches.empty() && !sent.has_deltas()) {
      BitReader mismatched(sent.bytes.data(), sent.bits);
      EXPECT_THROW(cube::decode_stats_response(mismatched, sent.mask,
                                               sent.shapes, images, &other,
                                               &sketches),
                   WireFormatError);
    }
    BitReader longer(sent.bytes.data(), sent.bits + 1);
    EXPECT_THROW(cube::decode_stats_response(longer, sent.mask, sent.shapes,
                                             images, &geometry, &sketches,
                                             baselines),
                 WireFormatError);
    for (std::size_t cut = 0; cut < sent.bits; ++cut) {
      BitReader shorter(sent.bytes.data(), cut);
      EXPECT_THROW(cube::decode_stats_response(shorter, sent.mask,
                                               sent.shapes, images, &geometry,
                                               &sketches, baselines),
                   WireFormatError);
    }
  }
}

TEST(FuzzDecode, BitFlippedSketchResponsesAreWireErrors) {
  // Every one-bit corruption of a valid mixed response decodes to
  // well-formed sketches of the expected geometry or throws WireFormatError.
  Xoshiro256 rng(37);
  const auto geometry =
      sketch::Hll::make_by_registers(16, {.width = 5, .sparse = true}).value();
  for (int t = 0; t < 24; ++t) {
    const SketchResponse sent =
        sketch_response(rng, 16, 5, false, /*deltas=*/t % 2 == 1);
    const std::vector<cube::Baseline> baselines = sent.baselines();
    for (std::size_t flip = 0; flip < sent.bits; ++flip) {
      auto corrupted = sent.bytes;
      corrupted[flip / 8] ^= static_cast<std::uint8_t>(0x80u >> (flip % 8));
      BitReader r(corrupted.data(), sent.bits);
      std::vector<service::StatsBundle> images;
      std::vector<sketch::Hll> sketches;
      try {
        cube::decode_stats_response(r, sent.mask, sent.shapes, images,
                                    &geometry, &sketches, baselines);
        for (const sketch::Hll& h : sketches) (void)h.estimate();
      } catch (const WireFormatError&) {
      }
    }
  }
}

}  // namespace
}  // namespace sensornet
