// Production-grade HyperLogLog / LogLog cardinality sketch.
//
// The duplicate-insensitive state behind Fact 2.2 and Section 5's efficient
// COUNT_DISTINCT: m = 2^p max-registers, raised by geometric observations and
// merged by elementwise max — associative, commutative, idempotent, so the
// state aggregates on any tree or any duplicating multipath layer.
//
// Two representations behind one API:
//   * sparse — a sorted (bucket, rank) list; low-cardinality nodes (a leaf
//     with a handful of items) ship a few entries instead of all m registers.
//   * dense  — registers bit-packed into 64-bit words at 4/5/6/8 bits each
//     (floor(64/width) registers per word, no register straddles a word), so
//     merge runs word-at-a-time via SWAR parallel max.
// A sparse sketch promotes to dense exactly when its wire image would stop
// being the cheaper of the two; set_register(), which may lower registers,
// demotes a dense sketch back when the sparse image becomes cheaper again.
//
// Wire format v1 (BitWriter/BitReader, MSB-first):
//   magic     8 bits  (0xA7)
//   version   4 bits  (1)
//   precision 5 bits  (p; m = 2^p)
//   width     3 bits  (register width - 1)
//   dense     1 bit
//   body      sparse: entry count (Elias-delta uint), then per entry
//                     bucket (p bits) + rank (width bits), buckets strictly
//                     ascending;
//             dense:  m registers of `width` bits in index order (the same
//                     flat image the legacy RegisterArray wire used).
// The header makes sketches self-describing, so they survive cross-process
// and cross-version shipping; decode rejects unknown versions and mismatched
// geometry instead of silently corrupting state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/result.hpp"
#include "src/common/rng.hpp"

namespace sensornet::sketch {

/// One sketch update: which register, and the geometric rank raising it.
struct Observation {
  unsigned bucket = 0;
  unsigned rank = 0;
};

/// Random-mode observation (counts observations): uniform bucket and an
/// independent Geometric(1/2) rank drawn from `rng`. m must be a power of 2.
Observation random_observation(unsigned m, Xoshiro256& rng);

/// Hashed-mode observation (counts distinct values): bucket = low log2(m)
/// bits of hash64(item, salt); rank = leading-zero run of the remaining
/// bits + 1 (the same law, truncated at 64 - log2(m)).
Observation hashed_observation(unsigned m, std::uint64_t item,
                               std::uint64_t salt);

/// Durand–Flajolet LogLog estimate from the register statistic:
/// alpha_m * m * 2^(rank_sum / m).
double loglog_estimate_from(unsigned m, std::uint64_t rank_sum);

/// HyperLogLog harmonic-mean estimate with the standard small-range
/// (linear counting) correction. `harmonic_sum` is sum over registers of
/// 2^-value (zero registers contribute 1 each).
double hyperloglog_estimate_from(unsigned m, double harmonic_sum,
                                 unsigned zero_registers);

/// alpha_m, the LogLog bias-correction constant:
/// (m * Gamma(1 - 1/m) * (2^(1/m) - 1) / ln 2)^(-m).
double loglog_alpha(unsigned m);

/// Asymptotic relative standard error of the LogLog estimate
/// (~= 1.30 / sqrt(m); the paper's beta_m -> 1.298).
double loglog_sigma(unsigned m);

/// Asymptotic relative standard error of the HyperLogLog estimate
/// (~= 1.04 / sqrt(m)).
double hyperloglog_sigma(unsigned m);

/// Register width sufficient to store geometric ranks arising from up to
/// `max_observations` observations without saturation distorting estimates
/// (the O(log log N) bits of Fact 2.2).
unsigned register_width_for(std::uint64_t max_observations);

/// register_width_for rounded up to the nearest packable dense width
/// (4, 5, 6, or 8 bits) — what Hll-backed protocols should request.
unsigned packed_width_for(std::uint64_t max_observations);

struct HllOptions {
  /// Dense register width in bits; one of 4, 5, 6, 8.
  unsigned width = 6;
  /// Start in the sparse representation (promotes automatically). Set false
  /// to allocate dense up front, e.g. when a node knows it is aggregation-
  /// heavy and wants no promotion hiccup mid-wave.
  bool sparse = true;
};

/// Move-only HLL sketch. Construct via make_by_precision/make_by_registers
/// (geometry is validated once, there); copy explicitly via clone().
class Hll {
 public:
  static constexpr unsigned kWireMagic = 0xA7;
  static constexpr unsigned kWireVersion = 1;
  /// magic(8) + version(4) + precision(5) + width(3) + dense flag(1).
  static constexpr unsigned kHeaderBits = 21;
  static constexpr unsigned kMinPrecision = 1;
  static constexpr unsigned kMaxPrecision = 20;

  Hll(Hll&&) noexcept = default;
  Hll& operator=(Hll&&) noexcept = default;
  Hll(const Hll&) = delete;
  Hll& operator=(const Hll&) = delete;

  /// m = 2^precision registers. Fails (with the reason) on precision outside
  /// [kMinPrecision, kMaxPrecision] or a width other than 4/5/6/8.
  [[nodiscard]] static Result<Hll> make_by_precision(unsigned precision,
                                                     HllOptions options = {});

  /// Convenience for callers that carry m directly; m must be a power of
  /// two in [2, 2^kMaxPrecision].
  [[nodiscard]] static Result<Hll> make_by_registers(unsigned m,
                                                     HllOptions options = {});

  // -- observations ---------------------------------------------------------

  /// Hashed mode: duplicates of `item` collapse (distinct counting).
  void add(std::uint64_t item, std::uint64_t salt = 0);

  /// Random mode: one independent geometric sample (observation counting).
  void add_random(Xoshiro256& rng);

  /// ODI-sum mode ([2]): folds `value` unit observations in O(m) time via
  /// the exact multinomial split (see odi_sum.hpp). A zero value is a no-op.
  void add_sum(std::uint64_t value, Xoshiro256& rng);

  /// Raw primitive: regs[bucket] = max(regs[bucket], min(rank, rank_cap())).
  void observe(unsigned bucket, unsigned rank);

  /// regs[bucket] = rank, which may lower the register (rank 0 clears it).
  /// Keeps the canonical representation — dense iff more than
  /// sparse_capacity() registers are nonzero — of a sketch that had it, so
  /// its wire image is the one a sketch raised to the same registers by
  /// observe()/merge() sends. Requires bucket < m() and rank <= rank_cap().
  void set_register(unsigned bucket, unsigned rank);

  // -- merge / estimate -----------------------------------------------------

  /// Elementwise max with a peer sketch. Fails (leaving this sketch
  /// untouched) unless the peer has identical precision and width.
  [[nodiscard]] Result<void> merge(const Hll& other);

  /// HyperLogLog harmonic-mean estimate with small-range correction.
  double estimate() const;

  /// The original Durand–Flajolet LogLog geometric-mean estimate.
  double estimate_loglog() const;

  // -- geometry / inspection ------------------------------------------------

  unsigned precision() const { return precision_; }
  unsigned m() const { return 1u << precision_; }
  unsigned width() const { return width_; }
  /// Largest storable rank: 2^width - 1 (observations saturate here).
  unsigned rank_cap() const { return (1u << width_) - 1; }
  bool same_geometry(const Hll& other) const {
    return precision_ == other.precision_ && width_ == other.width_;
  }

  bool is_sparse() const { return !dense_; }
  std::size_t sparse_entry_count() const { return sparse_.size(); }
  /// Entries a sparse sketch may hold before its wire image would exceed the
  /// dense image; inserting a new bucket past this promotes to dense.
  std::size_t sparse_capacity() const;

  /// Register value. Wide return type by design: the legacy byte-register
  /// API returned uint8_t, which silently truncated any future width > 8.
  unsigned value(unsigned bucket) const;

  /// Writes every register's value, in bucket order, to `out` (m() entries;
  /// a width of at most 8 bits fits a byte).
  void registers(std::span<std::uint8_t> out) const;

  /// Number of zero registers (small-range corrections).
  unsigned zero_count() const;

  /// Sum of register values (the LogLog estimator's statistic).
  std::uint64_t rank_sum() const;

  /// Explicit deep copy (the class is move-only to keep accidental register
  /// array copies out of hot paths).
  Hll clone() const;

  // -- wire -----------------------------------------------------------------

  /// Serializes header + body (see file comment). Byte-for-byte
  /// deterministic for a given logical state.
  void encode(BitWriter& w) const;

  /// Parses a v1 image. Fails on bad magic, unknown version, unsupported
  /// geometry, or a malformed body; truncated payloads throw WireFormatError
  /// from the underlying reader.
  [[nodiscard]] static Result<Hll> decode(BitReader& r);

  /// Exact wire cost of encode() in bits.
  std::uint64_t wire_bits() const;

  /// Logical equality: same geometry and same per-register values
  /// (representation-agnostic: a sparse and a dense sketch can be equal).
  bool operator==(const Hll& other) const;

 private:
  Hll(unsigned precision, unsigned width, bool dense);

  unsigned regs_per_word() const { return 64 / width_; }
  std::uint64_t field_mask() const { return (1ull << width_) - 1; }
  /// Calls f(register) for each of a dense sketch's m registers, in bucket
  /// order, word by word (no division per register).
  template <class F>
  void for_each_dense(F&& f) const;
  /// Where register `bucket` sits: its word and its bit offset there.
  struct Field {
    unsigned word;
    unsigned shift;
  };
  Field field(unsigned bucket) const;
  unsigned dense_get(unsigned bucket) const;
  void dense_set(unsigned bucket, unsigned rank);
  void observe_sparse(unsigned bucket, unsigned rank);
  void promote_to_dense();
  void demote_to_sparse();

  static std::uint32_t sparse_entry(unsigned bucket, unsigned rank) {
    return (static_cast<std::uint32_t>(bucket) << 8) | rank;
  }
  static unsigned entry_bucket(std::uint32_t e) { return e >> 8; }
  static unsigned entry_rank(std::uint32_t e) { return e & 0xFF; }

  unsigned precision_;
  unsigned width_;
  bool dense_;
  /// Sparse: (bucket << 8 | rank), sorted by bucket, ranks >= 1.
  std::vector<std::uint32_t> sparse_;
  /// Dense: regs_per_word() registers per word, register i at bit
  /// (i % regs_per_word) * width within word i / regs_per_word.
  std::vector<std::uint64_t> words_;
};

}  // namespace sensornet::sketch
