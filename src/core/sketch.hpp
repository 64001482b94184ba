// Mergeable sketch primitives for the rollup store (query::). Two sketches
// cover every approximate metric the paper's figures need:
//
//  - HyperLogLog: distinct counting (distinct subscribers per service,
//    distinct server IPs per ASN). Flajolet et al. 2007 with the standard
//    linear-counting small-range correction. With precision p the sketch
//    holds m = 2^p registers and the estimate's relative standard error is
//    1.04/sqrt(m); the *documented contract* (what golden tests assert) is
//    |est - true| <= 3 * 1.04/sqrt(m) * true  once true > m/4 — below that
//    the linear-counting regime is far more accurate in practice. Merging
//    is register-wise max: merge(a, b) sketches exactly the set union, so
//    day sketches roll up into week/month/range answers losslessly.
//
//  - QuantileSketch: a DDSketch-style log-bucketed quantile sketch
//    (Masson et al., VLDB 2019) for RTT, flow size and per-subscriber
//    volume distributions. Values collapse into geometric buckets
//    [gamma^(i-1), gamma^i) with gamma = (1+alpha)/(1-alpha); any returned
//    quantile v_est satisfies |v_est - v_true| <= alpha * v_true (relative
//    *value* error, which is what "median RTT within 1%" means). Merging
//    is bucket-wise addition and is exact: merge(a, b) equals the sketch of
//    the concatenated streams, bit for bit.
//
// Both sketches are deterministic (no RNG; HLL hashes through SipHash with
// a fixed key), serialize through ByteWriter/ByteReader, and reject
// incompatible merges (differing precision/accuracy) by returning false.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/bytes.hpp"
#include "core/result.hpp"

namespace edgewatch::core {

class HyperLogLog {
 public:
  static constexpr std::uint8_t kDefaultPrecision = 12;  // 4096 registers, 1.63% SE
  static constexpr std::uint8_t kMinPrecision = 4;
  static constexpr std::uint8_t kMaxPrecision = 16;

  explicit HyperLogLog(std::uint8_t precision = kDefaultPrecision);

  /// Insert a pre-hashed 64-bit value. The hash must be uniform; use add()
  /// unless you already pay for a strong hash elsewhere.
  void add_hash(std::uint64_t hash) noexcept;

  /// Insert a trivially-copyable value (hashed with SipHash under a fixed
  /// project-wide key, so estimates are stable across runs and machines).
  template <typename T>
  void add(const T& value) noexcept {
    add_hash(hash_value(&value, sizeof(T)));
  }

  /// Estimated number of distinct values added.
  [[nodiscard]] double estimate() const noexcept;

  /// Register-wise max: afterwards *this sketches the union of both input
  /// sets. Returns false (and leaves *this unchanged) on precision mismatch.
  bool merge(const HyperLogLog& other) noexcept;

  [[nodiscard]] std::uint8_t precision() const noexcept { return precision_; }
  [[nodiscard]] std::size_t register_count() const noexcept {
    return std::size_t{1} << precision_;
  }
  [[nodiscard]] bool empty() const noexcept { return registers_.empty(); }

  /// Relative standard error of estimate(): 1.04 / sqrt(2^precision).
  [[nodiscard]] double standard_error() const noexcept;
  /// The documented contract bound golden tests assert: 3 standard errors.
  [[nodiscard]] double error_bound() const noexcept { return 3.0 * standard_error(); }

  /// Wire format: u8 precision | registers, run-length encoded as
  /// (varint zero_run, u8 value) pairs — day sketches of quiet services are
  /// mostly zero, so RLE keeps the rollup files compact.
  void serialize(ByteWriter& out) const;
  [[nodiscard]] static Result<HyperLogLog> deserialize(ByteReader& in);

  bool operator==(const HyperLogLog& other) const noexcept = default;

 private:
  static std::uint64_t hash_value(const void* data, std::size_t size) noexcept;

  std::uint8_t precision_;
  /// Empty until the first write (add_hash, a merge of a non-empty sketch,
  /// a deserialize that reads a pair), then register_count() bytes of which
  /// at least one is non-zero. So an empty sketch costs no allocation, and
  /// the defaulted operator== compares sketches, not allocation states.
  std::vector<std::uint8_t> registers_;
};

class QuantileSketch {
 public:
  static constexpr double kDefaultAccuracy = 0.01;  ///< 1% relative value error.
  /// Values below this collapse into the zero bucket (exact count kept).
  static constexpr double kMinTrackedValue = 1e-9;
  /// Safety valve on malicious/corrupt input: bucket indices outside
  /// +/- kMaxBucketMagnitude are rejected at deserialization.
  static constexpr std::int32_t kMaxBucketMagnitude = 1 << 20;

  explicit QuantileSketch(double relative_accuracy = kDefaultAccuracy);

  /// Insert `weight` occurrences of the non-negative value x (negative x is
  /// clamped to the zero bucket — none of our metrics are signed).
  void add(double x, std::uint64_t weight = 1) noexcept;

  /// Inverse CDF; q in [0,1]. With n values added, returns a value within
  /// relative_accuracy() of the exact q-quantile (nearest-rank definition).
  /// 0 when the sketch is empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double median() const noexcept { return quantile(0.5); }

  /// Fraction of inserted values <= x (the CDF; 1 - cdf(x) is Fig. 2's
  /// CCDF). Exact up to bucket granularity.
  [[nodiscard]] double cdf(double x) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Exact running sum — means from the sketch are exact, not approximate.
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Bucket-wise addition; exact (merged sketch == sketch of concatenated
  /// streams). Returns false on relative-accuracy mismatch.
  bool merge(const QuantileSketch& other) noexcept;

  [[nodiscard]] double relative_accuracy() const noexcept { return alpha_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// Wire format: f64 alpha | varint zero_count | f64 sum | f64 max |
  /// varint bucket_count | (zigzag index delta, varint count)*.
  void serialize(ByteWriter& out) const;
  [[nodiscard]] static Result<QuantileSketch> deserialize(ByteReader& in);

  bool operator==(const QuantileSketch& other) const noexcept = default;

 private:
  [[nodiscard]] std::int32_t bucket_index(double x) const noexcept;
  [[nodiscard]] double bucket_value(std::int32_t index) const noexcept;

  double alpha_;
  double gamma_;
  double log_gamma_;
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
  std::map<std::int32_t, std::uint64_t> buckets_;
};

}  // namespace edgewatch::core
