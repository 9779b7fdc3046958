#include "src/common/codec.hpp"

#include <bit>

#include "src/common/error.hpp"

namespace sensornet {

namespace {
/// floor(log2 x) for x >= 1.
inline unsigned floor_log2_u64(std::uint64_t x) {
  return 63u - static_cast<unsigned>(std::countl_zero(x));
}
}  // namespace

void elias_gamma_encode(BitWriter& w, std::uint64_t x) {
  SENSORNET_EXPECTS(x >= 1);
  const unsigned n = floor_log2_u64(x);
  w.write_bits(0, n);          // n zeros announce the body length
  w.write_bits(x, n + 1);      // body starts with its leading 1 bit
}

std::uint64_t elias_gamma_decode(BitReader& r) {
  unsigned n = 0;
  while (!r.read_bit()) {
    if (++n > 63) throw WireFormatError("gamma code: length prefix too long");
  }
  std::uint64_t x = 1;
  if (n > 0) x = (x << n) | r.read_bits(n);
  return x;
}

void elias_delta_encode(BitWriter& w, std::uint64_t x) {
  SENSORNET_EXPECTS(x >= 1);
  const unsigned n = floor_log2_u64(x);
  elias_gamma_encode(w, n + 1);
  if (n > 0) w.write_bits(x, n);  // body without its implicit leading 1
}

std::uint64_t elias_delta_decode(BitReader& r) {
  const std::uint64_t len = elias_gamma_decode(r);
  if (len > 64) throw WireFormatError("delta code: body length too long");
  const auto n = static_cast<unsigned>(len - 1);
  std::uint64_t x = 1;
  if (n > 0) x = (x << n) | r.read_bits(n);
  return x;
}

void encode_uint(BitWriter& w, std::uint64_t x) {
  SENSORNET_EXPECTS(x < ~0ULL);
  const std::uint64_t v = x + 1;
  const unsigned n = floor_log2_u64(v);
  if (n > 50) {
    elias_delta_encode(w, v);
    return;
  }
  // The whole Elias-delta code in one write: the gamma code of n + 1 (its
  // leading zeros come from the width) followed by v without its leading 1.
  const unsigned m = floor_log2_u64(n + 1);
  const std::uint64_t body = v & ((1ULL << n) - 1);
  w.write_bits((static_cast<std::uint64_t>(n + 1) << n) | body, 2 * m + 1 + n);
}

std::uint64_t decode_uint(BitReader& r) { return elias_delta_decode(r) - 1; }

void encode_int(BitWriter& w, std::int64_t x) {
  const std::uint64_t zz =
      (static_cast<std::uint64_t>(x) << 1) ^
      static_cast<std::uint64_t>(x >> 63);
  encode_uint(w, zz);
}

std::int64_t decode_int(BitReader& r) {
  const std::uint64_t zz = decode_uint(r);
  return static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
}

unsigned encoded_uint_bits(std::uint64_t x) {
  const std::uint64_t v = x + 1;
  const unsigned n = floor_log2_u64(v);
  const unsigned gamma_of_len = 2 * floor_log2_u64(n + 1) + 1;
  return gamma_of_len + n;
}

}  // namespace sensornet
