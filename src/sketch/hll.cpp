#include "src/sketch/hll.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/common/hash.hpp"
#include "src/common/mathutil.hpp"

namespace sensornet::sketch {

// ---------------------------------------------------------------------------
// Observations and estimator cores (shared by Hll and the legacy shims).
// ---------------------------------------------------------------------------

Observation random_observation(unsigned m, Xoshiro256& rng) {
  return {static_cast<unsigned>(rng.next_below(m)),
          rng.next_geometric_rank()};
}

Observation hashed_observation(unsigned m, std::uint64_t item,
                               std::uint64_t salt) {
  const std::uint64_t h = hash64(item, salt);
  const unsigned b = floor_log2(m);  // m = 2^b
  const unsigned bucket = static_cast<unsigned>(h & (m - 1));
  // Rank of the remaining 64-b bits: leading-zero run + 1, same law as a
  // Geometric(1/2) sample truncated at 64-b.
  const std::uint64_t rest = h >> b;
  const unsigned avail = 64 - b;
  const unsigned lz = rest == 0
                          ? avail
                          : std::min<unsigned>(
                                avail, static_cast<unsigned>(
                                           std::countl_zero(rest << b)));
  return {bucket, lz + 1};
}

double loglog_alpha(unsigned m) {
  SENSORNET_EXPECTS(m >= 2);
  const double dm = static_cast<double>(m);
  const double base =
      dm * std::tgamma(1.0 - 1.0 / dm) * (std::pow(2.0, 1.0 / dm) - 1.0) /
      std::log(2.0);
  return std::pow(base, -dm);
}

double loglog_estimate_from(unsigned m, std::uint64_t rank_sum) {
  const double mean_rank =
      static_cast<double>(rank_sum) / static_cast<double>(m);
  return loglog_alpha(m) * static_cast<double>(m) * std::pow(2.0, mean_rank);
}

double hyperloglog_estimate_from(unsigned m, double harmonic_sum,
                                 unsigned zero_registers) {
  const double dm = static_cast<double>(m);
  const double alpha =
      0.7213 / (1.0 + 1.079 / dm);  // standard HLL constant (m >= 128 exact;
                                    // close enough for m >= 16)
  double estimate = alpha * dm * dm / harmonic_sum;
  if (estimate <= 2.5 * dm && zero_registers > 0) {
    // Linear-counting correction for small cardinalities.
    estimate = dm * std::log(dm / static_cast<double>(zero_registers));
  }
  return estimate;
}

double loglog_sigma(unsigned m) {
  // beta_m -> 1.298...; the short-m correction follows Durand-Flajolet's
  // reported constants (beta_16 ~ 1.46, beta_32 ~ 1.39).
  SENSORNET_EXPECTS(m >= 2);
  const double dm = static_cast<double>(m);
  return (1.30 + 2.6 / dm) / std::sqrt(dm);
}

double hyperloglog_sigma(unsigned m) {
  SENSORNET_EXPECTS(m >= 2);
  return 1.04 / std::sqrt(static_cast<double>(m));
}

unsigned register_width_for(std::uint64_t max_observations) {
  // Ranks concentrate at log2(n/m) + O(1); width log2(log2 n + slack) bits
  // never saturates in practice. Keep a generous +16 slack before taking the
  // outer log so even adversarial merges stay exact.
  const unsigned max_rank = floor_log2(max_observations | 1) + 16;
  unsigned w = ceil_log2(max_rank + 1);
  return w < 3 ? 3 : w;
}

unsigned packed_width_for(std::uint64_t max_observations) {
  const unsigned w = register_width_for(max_observations);
  if (w <= 4) return 4;
  if (w <= 6) return w;
  return 8;
}

// ---------------------------------------------------------------------------
// Hll
// ---------------------------------------------------------------------------

namespace {

bool supported_width(unsigned w) {
  return w == 4 || w == 5 || w == 6 || w == 8;
}

/// Parallel unsigned max over adjacent `width`-bit fields of a 64-bit word.
/// `high` holds the top bit of every field. Works because forcing the
/// minuend's field-top bit before the subtraction confines every borrow to
/// its own field (Hacker's-Delight-style SWAR compare), so no field needs a
/// guard bit.
inline std::uint64_t swar_field_max(std::uint64_t x, std::uint64_t y,
                                    std::uint64_t high, unsigned width) {
  const std::uint64_t low = ~high;
  // Per field (top bit of s): low bits of x >= low bits of y.
  const std::uint64_t s = (((x & low) | high) - (y & low)) & high;
  // Per field (top bit of ge): x >= y, combining top bits with s.
  const std::uint64_t ge = (x & ~y & high) | (~(x ^ y) & s);
  // Smear each field's flag over the whole field.
  const std::uint64_t take_x = ge | (ge - (ge >> (width - 1)));
  return (x & take_x) | (y & ~take_x);
}

std::uint64_t high_bits_mask(unsigned width) {
  std::uint64_t high = 0;
  for (unsigned i = 0; i + width <= 64; i += width) {
    high |= (1ull << (width - 1)) << i;
  }
  return high;
}

}  // namespace

Hll::Hll(unsigned precision, unsigned width, bool dense)
    : precision_(precision), width_(width), dense_(dense) {
  if (dense_) {
    const unsigned k = regs_per_word();
    words_.assign((m() + k - 1) / k, 0);
  }
}

Result<Hll> Hll::make_by_precision(unsigned precision, HllOptions options) {
  if (precision < kMinPrecision || precision > kMaxPrecision) {
    return Result<Hll>::failure(
        "Hll: precision " + std::to_string(precision) + " outside [" +
        std::to_string(kMinPrecision) + ", " + std::to_string(kMaxPrecision) +
        "]");
  }
  if (!supported_width(options.width)) {
    return Result<Hll>::failure("Hll: unsupported register width " +
                                std::to_string(options.width) +
                                " (supported: 4, 5, 6, 8 bits)");
  }
  return Hll(precision, options.width, !options.sparse);
}

Result<Hll> Hll::make_by_registers(unsigned m, HllOptions options) {
  if (m < 2 || (m & (m - 1)) != 0) {
    return Result<Hll>::failure("Hll: register count " + std::to_string(m) +
                                " is not a power of two >= 2");
  }
  return make_by_precision(floor_log2(m), options);
}

std::size_t Hll::sparse_capacity() const {
  // Wire-cost crossover: a sparse entry ships precision + width bits, a
  // dense image ships m * width; past this many entries sparse stops being
  // the cheaper encoding.
  const std::size_t cap = (static_cast<std::size_t>(m()) * width_) /
                          (precision_ + width_);
  return cap < 1 ? 1 : cap;
}

template <class F>
void Hll::for_each_dense(F&& f) const {
  const std::uint64_t mask = field_mask();
  unsigned left = m();
  for (std::uint64_t word : words_) {
    const unsigned here = std::min(regs_per_word(), left);
    for (unsigned j = 0; j < here; ++j) {
      f(static_cast<unsigned>(word & mask));
      word >>= width_;
    }
    left -= here;
  }
}

Hll::Field Hll::field(unsigned bucket) const {
  // One constant divisor per width, so the division compiles to a multiply.
  const auto at = [this, bucket](unsigned k) {
    return Field{bucket / k, (bucket % k) * width_};
  };
  switch (width_) {
    case 4: return at(16);
    case 5: return at(12);
    case 6: return at(10);
    default: return at(8);
  }
}

unsigned Hll::dense_get(unsigned bucket) const {
  const Field f = field(bucket);
  return static_cast<unsigned>((words_[f.word] >> f.shift) & field_mask());
}

void Hll::dense_set(unsigned bucket, unsigned rank) {
  const Field f = field(bucket);
  std::uint64_t& word = words_[f.word];
  word = (word & ~(field_mask() << f.shift)) |
         (static_cast<std::uint64_t>(rank) << f.shift);
}

void Hll::observe_sparse(unsigned bucket, unsigned rank) {
  const std::uint32_t probe = sparse_entry(bucket, 0);
  const auto it = std::lower_bound(sparse_.begin(), sparse_.end(), probe);
  if (it != sparse_.end() && entry_bucket(*it) == bucket) {
    if (rank > entry_rank(*it)) *it = sparse_entry(bucket, rank);
    return;
  }
  sparse_.insert(it, sparse_entry(bucket, rank));
  if (sparse_.size() > sparse_capacity()) promote_to_dense();
}

void Hll::promote_to_dense() {
  const unsigned k = regs_per_word();
  words_.assign((m() + k - 1) / k, 0);
  dense_ = true;
  for (const std::uint32_t e : sparse_) {
    dense_set(entry_bucket(e), entry_rank(e));
  }
  sparse_.clear();
  sparse_.shrink_to_fit();
}

void Hll::demote_to_sparse() {
  sparse_.clear();
  unsigned b = 0;
  for_each_dense([&](unsigned rank) {
    if (rank != 0) sparse_.push_back(sparse_entry(b, rank));
    ++b;
  });
  words_.clear();
  words_.shrink_to_fit();
  dense_ = false;
}

void Hll::set_register(unsigned bucket, unsigned rank) {
  SENSORNET_EXPECTS(bucket < m());
  SENSORNET_EXPECTS(rank <= rank_cap());
  if (dense_) {
    const bool cleared = rank == 0 && dense_get(bucket) != 0;
    dense_set(bucket, rank);
    if (cleared && m() - zero_count() <= sparse_capacity()) demote_to_sparse();
    return;
  }
  const std::uint32_t probe = sparse_entry(bucket, 0);
  const auto it = std::lower_bound(sparse_.begin(), sparse_.end(), probe);
  const bool present = it != sparse_.end() && entry_bucket(*it) == bucket;
  if (rank == 0) {
    if (present) sparse_.erase(it);
  } else if (present) {
    *it = sparse_entry(bucket, rank);
  } else {
    sparse_.insert(it, sparse_entry(bucket, rank));
    if (sparse_.size() > sparse_capacity()) promote_to_dense();
  }
}

void Hll::observe(unsigned bucket, unsigned rank) {
  SENSORNET_EXPECTS(bucket < m());
  const unsigned clamped = std::min(rank, rank_cap());
  if (clamped == 0) return;
  if (dense_) {
    if (clamped > dense_get(bucket)) dense_set(bucket, clamped);
  } else {
    observe_sparse(bucket, clamped);
  }
}

void Hll::add(std::uint64_t item, std::uint64_t salt) {
  const Observation o = hashed_observation(m(), item, salt);
  observe(o.bucket, o.rank);
}

void Hll::add_random(Xoshiro256& rng) {
  const Observation o = random_observation(m(), rng);
  observe(o.bucket, o.rank);
}

// add_sum lives in odi_sum.cpp, next to the multinomial-split sampling it
// is built from.

Result<void> Hll::merge(const Hll& other) {
  if (!same_geometry(other)) {
    return Result<void>::failure(
        "Hll::merge: geometry mismatch (this: p=" +
        std::to_string(precision_) + " w=" + std::to_string(width_) +
        ", other: p=" + std::to_string(other.precision_) +
        " w=" + std::to_string(other.width_) + ")");
  }
  if (other.dense_) {
    if (!dense_) promote_to_dense();
    const std::uint64_t high = high_bits_mask(width_);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] = swar_field_max(words_[i], other.words_[i], high, width_);
    }
    return {};
  }
  if (!dense_) {
    // Sorted two-pointer union taking the max rank on shared buckets.
    std::vector<std::uint32_t> merged;
    merged.reserve(sparse_.size() + other.sparse_.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < sparse_.size() && j < other.sparse_.size()) {
      const unsigned bi = entry_bucket(sparse_[i]);
      const unsigned bj = entry_bucket(other.sparse_[j]);
      if (bi < bj) {
        merged.push_back(sparse_[i++]);
      } else if (bj < bi) {
        merged.push_back(other.sparse_[j++]);
      } else {
        merged.push_back(std::max(sparse_[i++], other.sparse_[j++]));
      }
    }
    merged.insert(merged.end(), sparse_.begin() + i, sparse_.end());
    merged.insert(merged.end(), other.sparse_.begin() + j,
                  other.sparse_.end());
    sparse_ = std::move(merged);
    if (sparse_.size() > sparse_capacity()) promote_to_dense();
    return {};
  }
  // This dense, other sparse: fold the few entries in.
  for (const std::uint32_t e : other.sparse_) {
    const unsigned bucket = entry_bucket(e);
    const unsigned rank = entry_rank(e);
    if (rank > dense_get(bucket)) dense_set(bucket, rank);
  }
  return {};
}

double Hll::estimate() const {
  const unsigned zeros = zero_count();
  double harmonic = static_cast<double>(zeros);
  if (dense_) {
    for_each_dense([&harmonic](unsigned v) {
      if (v != 0) harmonic += std::ldexp(1.0, -static_cast<int>(v));
    });
  } else {
    for (const std::uint32_t e : sparse_) {
      harmonic += std::ldexp(1.0, -static_cast<int>(entry_rank(e)));
    }
  }
  return hyperloglog_estimate_from(m(), harmonic, zeros);
}

double Hll::estimate_loglog() const {
  return loglog_estimate_from(m(), rank_sum());
}

unsigned Hll::value(unsigned bucket) const {
  SENSORNET_EXPECTS(bucket < m());
  if (dense_) return dense_get(bucket);
  const std::uint32_t probe = sparse_entry(bucket, 0);
  const auto it = std::lower_bound(sparse_.begin(), sparse_.end(), probe);
  if (it != sparse_.end() && entry_bucket(*it) == bucket) {
    return entry_rank(*it);
  }
  return 0;
}

void Hll::registers(std::span<std::uint8_t> out) const {
  SENSORNET_EXPECTS(out.size() == m());
  if (dense_) {
    std::size_t b = 0;
    for_each_dense(
        [&](unsigned v) { out[b++] = static_cast<std::uint8_t>(v); });
    return;
  }
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  for (const std::uint32_t e : sparse_) {
    out[entry_bucket(e)] = static_cast<std::uint8_t>(entry_rank(e));
  }
}

unsigned Hll::zero_count() const {
  if (!dense_) return m() - static_cast<unsigned>(sparse_.size());
  unsigned zeros = 0;
  for_each_dense([&zeros](unsigned v) { zeros += v == 0 ? 1 : 0; });
  return zeros;
}

std::uint64_t Hll::rank_sum() const {
  std::uint64_t sum = 0;
  if (dense_) {
    for_each_dense([&sum](unsigned v) { sum += v; });
  } else {
    for (const std::uint32_t e : sparse_) sum += entry_rank(e);
  }
  return sum;
}

Hll Hll::clone() const {
  Hll copy(precision_, width_, dense_);
  copy.sparse_ = sparse_;
  copy.words_ = words_;
  return copy;
}

bool Hll::operator==(const Hll& other) const {
  if (!same_geometry(other)) return false;
  if (dense_ == other.dense_) {
    return dense_ ? words_ == other.words_ : sparse_ == other.sparse_;
  }
  const Hll& sparse = dense_ ? other : *this;
  const Hll& dense = dense_ ? *this : other;
  // Every sparse entry must match, and the dense side must hold no extra
  // nonzero register (sparse entries are exactly the nonzero registers).
  if (dense.m() - dense.zero_count() != sparse.sparse_.size()) return false;
  for (const std::uint32_t e : sparse.sparse_) {
    if (dense.dense_get(entry_bucket(e)) != entry_rank(e)) return false;
  }
  return true;
}

void Hll::encode(BitWriter& w) const {
  w.write_bits(kWireMagic, 8);
  w.write_bits(kWireVersion, 4);
  w.write_bits(precision_, 5);
  w.write_bits(width_ - 1, 3);
  w.write_bit(dense_);
  if (!dense_) {
    encode_uint(w, sparse_.size());
    for (const std::uint32_t e : sparse_) {
      w.write_bits(entry_bucket(e), precision_);
      w.write_bits(entry_rank(e), width_);
    }
    return;
  }
  // Dense body: m registers of width_ bits in index order, flushed through
  // the word-granularity writer (registers may straddle flushed words; the
  // bit image is identical to a per-register write_bits loop).
  std::uint64_t acc = 0;
  unsigned used = 0;
  for_each_dense([&](const std::uint64_t reg) {
    if (used + width_ <= 64) {
      acc |= reg << (64 - used - width_);
      used += width_;
    } else {
      const unsigned hi = 64 - used;  // bits of reg that fit this word
      acc |= reg >> (width_ - hi);
      w.write_word(acc);
      acc = reg << (64 - (width_ - hi));
      used = width_ - hi;
    }
    if (used == 64) {
      w.write_word(acc);
      acc = 0;
      used = 0;
    }
  });
  if (used > 0) w.write_bits(acc >> (64 - used), used);
}

Result<Hll> Hll::decode(BitReader& r) {
  const auto magic = r.read_bits(8);
  if (magic != kWireMagic) {
    return Result<Hll>::failure("Hll::decode: bad magic 0x" +
                                std::to_string(magic));
  }
  const auto version = r.read_bits(4);
  if (version != kWireVersion) {
    return Result<Hll>::failure("Hll::decode: unknown format version " +
                                std::to_string(version));
  }
  const auto precision = static_cast<unsigned>(r.read_bits(5));
  const auto width = static_cast<unsigned>(r.read_bits(3)) + 1;
  const bool dense = r.read_bit();
  HllOptions options;
  options.width = width;
  options.sparse = !dense;
  auto made = make_by_precision(precision, options);
  if (!made.ok()) return made;
  Hll hll = std::move(made).value();
  if (!dense) {
    const std::uint64_t count = decode_uint(r);
    if (count > hll.sparse_capacity()) {
      return Result<Hll>::failure(
          "Hll::decode: sparse entry count " + std::to_string(count) +
          " exceeds capacity " + std::to_string(hll.sparse_capacity()));
    }
    if (count * (precision + width) > r.remaining()) {
      return Result<Hll>::failure("Hll::decode: truncated sparse body");
    }
    hll.sparse_.reserve(count);
    std::int64_t prev_bucket = -1;
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto bucket = static_cast<unsigned>(r.read_bits(precision));
      const auto rank = static_cast<unsigned>(r.read_bits(width));
      if (static_cast<std::int64_t>(bucket) <= prev_bucket) {
        return Result<Hll>::failure(
            "Hll::decode: sparse buckets not strictly ascending");
      }
      if (rank == 0) {
        return Result<Hll>::failure("Hll::decode: zero rank in sparse entry");
      }
      hll.sparse_.push_back(sparse_entry(bucket, rank));
      prev_bucket = bucket;
    }
    return hll;
  }
  const std::uint64_t body_bits =
      static_cast<std::uint64_t>(hll.m()) * width;
  if (body_bits > r.remaining()) {
    return Result<Hll>::failure("Hll::decode: truncated dense body");
  }
  // Word-granularity refill mirroring encode(); `acc` keeps pending bits
  // left-aligned.
  std::uint64_t acc = 0;
  unsigned avail = 0;
  std::uint64_t left = body_bits;
  for (unsigned b = 0; b < hll.m(); ++b) {
    if (avail < width) {
      const unsigned take = static_cast<unsigned>(
          std::min<std::uint64_t>(64 - avail, left));
      const std::uint64_t chunk =
          take == 64 ? r.read_word() : r.read_bits(take);
      acc |= (take == 64 ? chunk : chunk << (64 - take)) >> avail;
      avail += take;
      left -= take;
    }
    const auto reg = static_cast<unsigned>(acc >> (64 - width));
    if (reg != 0) hll.dense_set(b, reg);
    acc <<= width;
    avail -= width;
  }
  return hll;
}

std::uint64_t Hll::wire_bits() const {
  if (dense_) {
    return kHeaderBits + static_cast<std::uint64_t>(m()) * width_;
  }
  return kHeaderBits + encoded_uint_bits(sparse_.size()) +
         static_cast<std::uint64_t>(sparse_.size()) * (precision_ + width_);
}

}  // namespace sensornet::sketch
