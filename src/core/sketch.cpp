#include "core/sketch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/hash.hpp"

namespace edgewatch::core {

namespace {

// Local LEB128 helpers (core cannot depend on storage::codec).
void put_uvarint(ByteWriter& w, std::uint64_t v) {
  while (v >= 0x80) {
    w.u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.u8(static_cast<std::uint8_t>(v));
}

std::uint64_t get_uvarint(ByteReader& r) noexcept {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const std::uint8_t b = r.u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  r.fail();  // over-long encoding
  return 0;
}

void put_f64(ByteWriter& w, double v) { w.u64le(std::bit_cast<std::uint64_t>(v)); }
double get_f64(ByteReader& r) noexcept { return std::bit_cast<double>(r.u64le()); }

/// Bias-correction constant alpha_m of the HLL estimator.
double hll_alpha(std::size_t m) noexcept {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

// ------------------------------------------------------------ HyperLogLog

HyperLogLog::HyperLogLog(std::uint8_t precision)
    : precision_(std::clamp(precision, kMinPrecision, kMaxPrecision)) {}

std::uint64_t HyperLogLog::hash_value(const void* data, std::size_t size) noexcept {
  // Fixed key: estimates must be identical across runs, machines and the
  // serialized rollup files that merge them.
  static constexpr SipKey kKey{0x6577686c6c303031ull, 0x736b657463686b65ull};
  return siphash24(kKey, std::span{static_cast<const std::byte*>(data), size});
}

void HyperLogLog::add_hash(std::uint64_t hash) noexcept {
  if (registers_.empty()) registers_.resize(register_count());
  const auto index = static_cast<std::size_t>(hash >> (64 - precision_));
  const std::uint64_t rest = hash << precision_;
  const auto rank = static_cast<std::uint8_t>(
      rest == 0 ? 64 - precision_ + 1 : std::countl_zero(rest) + 1);
  registers_[index] = std::max(registers_[index], rank);
}

double HyperLogLog::estimate() const noexcept {
  if (registers_.empty()) return 0;
  const auto m = static_cast<double>(registers_.size());
  // With every register r <= 53 - p, each term 2^-r is a multiple of
  // 2^-(53-p) and the m terms add up to at most 2^p, so the sum counted in
  // units of 2^-(53-p) is an integer <= 2^53: a u64 sum converts to double
  // exactly, and equals the sequential double sum (whose partial sums are
  // all exact too) bit for bit. A shift past q yields 0; such a register
  // sends the sketch down the general loop.
  const int q = 53 - precision_;
  const std::uint64_t unit = std::uint64_t{1} << q;
  std::uint64_t units = 0;
  std::uint8_t largest = 0;
  std::size_t zeros = 0;
  for (const auto r : registers_) {
    units += unit >> r;
    largest = std::max(largest, r);
    zeros += r == 0;
  }
  double inverse_sum = std::ldexp(static_cast<double>(units), -q);
  if (largest > q) {
    inverse_sum = 0;
    for (const auto r : registers_) inverse_sum += std::ldexp(1.0, -static_cast<int>(r));
  }
  const double raw = hll_alpha(registers_.size()) * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));  // linear counting
  }
  return raw;
}

bool HyperLogLog::merge(const HyperLogLog& other) noexcept {
  if (precision_ != other.precision_) return false;
  if (registers_.empty()) {
    registers_ = other.registers_;
    return true;
  }
  for (std::size_t i = 0; i < other.registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  return true;
}

double HyperLogLog::standard_error() const noexcept {
  return 1.04 / std::sqrt(static_cast<double>(register_count()));
}

void HyperLogLog::serialize(ByteWriter& out) const {
  out.u8(precision_);
  // Count the (zero_run, value) pairs: one per non-zero register.
  std::uint64_t pairs = 0;
  for (const auto r : registers_) pairs += r != 0;
  put_uvarint(out, pairs);
  std::uint64_t zero_run = 0;
  for (const auto r : registers_) {
    if (r == 0) {
      ++zero_run;
      continue;
    }
    put_uvarint(out, zero_run);
    out.u8(r);
    zero_run = 0;
  }
  // Trailing zeros are implicit.
}

Result<HyperLogLog> HyperLogLog::deserialize(ByteReader& in) {
  const std::uint8_t precision = in.u8();
  if (!in.ok() || precision < kMinPrecision || precision > kMaxPrecision) {
    return Errc::kCorrupt;
  }
  HyperLogLog hll{precision};
  const std::uint64_t pairs = get_uvarint(in);
  const std::size_t m = hll.register_count();
  if (pairs > m) return Errc::kCorrupt;
  if (pairs > 0) hll.registers_.resize(m);
  const auto max_rank = static_cast<std::uint8_t>(64 - precision + 1);
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t zero_run = get_uvarint(in);
    const std::uint8_t value = in.u8();
    if (!in.ok()) return Errc::kTruncated;
    pos += zero_run;
    if (pos >= m || value == 0 || value > max_rank) return Errc::kCorrupt;
    hll.registers_[pos++] = value;
  }
  return hll;
}

// --------------------------------------------------------- QuantileSketch

QuantileSketch::QuantileSketch(double relative_accuracy)
    : alpha_(std::clamp(relative_accuracy, 1e-4, 0.5)),
      gamma_((1.0 + alpha_) / (1.0 - alpha_)),
      log_gamma_(std::log(gamma_)) {}

std::int32_t QuantileSketch::bucket_index(double x) const noexcept {
  return static_cast<std::int32_t>(std::ceil(std::log(x) / log_gamma_));
}

double QuantileSketch::bucket_value(std::int32_t index) const noexcept {
  // Midpoint (in the relative sense) of (gamma^(i-1), gamma^i]: any true
  // value in the bucket is within alpha of this.
  return 2.0 * std::exp(static_cast<double>(index) * log_gamma_) / (gamma_ + 1.0);
}

void QuantileSketch::add(double x, std::uint64_t weight) noexcept {
  if (weight == 0) return;
  if (!(x > 0)) x = 0;  // clamp negatives and NaN to the zero bucket
  if (x < kMinTrackedValue) {
    zero_count_ += weight;
  } else {
    buckets_[bucket_index(x)] += weight;
  }
  count_ += weight;
  sum_ += x * static_cast<double>(weight);
  max_ = std::max(max_, x);
}

double QuantileSketch::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the k-th smallest value, k in [1, count].
  const auto k = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = zero_count_;
  if (k <= cumulative) return 0;
  for (const auto& [index, c] : buckets_) {
    cumulative += c;
    if (k <= cumulative) return bucket_value(index);
  }
  return buckets_.empty() ? 0 : bucket_value(buckets_.rbegin()->first);
}

double QuantileSketch::cdf(double x) const noexcept {
  if (count_ == 0) return 0;
  if (!(x >= kMinTrackedValue)) {
    return x >= 0 ? static_cast<double>(zero_count_) / static_cast<double>(count_) : 0.0;
  }
  const std::int32_t limit = bucket_index(x);
  std::uint64_t below = zero_count_;
  for (const auto& [index, c] : buckets_) {
    if (index > limit) break;
    below += c;
  }
  return static_cast<double>(below) / static_cast<double>(count_);
}

bool QuantileSketch::merge(const QuantileSketch& other) noexcept {
  if (alpha_ != other.alpha_) return false;
  zero_count_ += other.zero_count_;
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
  for (const auto& [index, c] : other.buckets_) buckets_[index] += c;
  return true;
}

void QuantileSketch::serialize(ByteWriter& out) const {
  put_f64(out, alpha_);
  put_uvarint(out, zero_count_);
  put_f64(out, sum_);
  put_f64(out, max_);
  put_uvarint(out, buckets_.size());
  std::int64_t previous = 0;
  for (const auto& [index, c] : buckets_) {
    const std::int64_t delta = index - previous;  // ascending map order: >= 0 after first
    const auto zigzag = static_cast<std::uint64_t>((delta << 1) ^ (delta >> 63));
    put_uvarint(out, zigzag);
    put_uvarint(out, c);
    previous = index;
  }
}

Result<QuantileSketch> QuantileSketch::deserialize(ByteReader& in) {
  const double alpha = get_f64(in);
  if (!in.ok() || !(alpha >= 1e-4) || !(alpha <= 0.5)) return Errc::kCorrupt;
  QuantileSketch sketch{alpha};
  sketch.zero_count_ = get_uvarint(in);
  sketch.sum_ = get_f64(in);
  sketch.max_ = get_f64(in);
  if (std::isnan(sketch.sum_) || std::isnan(sketch.max_)) return Errc::kCorrupt;
  const std::uint64_t n = get_uvarint(in);
  if (n > 2 * static_cast<std::uint64_t>(kMaxBucketMagnitude)) return Errc::kCorrupt;
  std::int64_t index = 0;
  std::uint64_t total = sketch.zero_count_;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t zigzag = get_uvarint(in);
    const auto delta =
        static_cast<std::int64_t>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
    index += delta;
    const std::uint64_t c = get_uvarint(in);
    if (!in.ok()) return Errc::kTruncated;
    if (c == 0 || std::llabs(index) > kMaxBucketMagnitude) return Errc::kCorrupt;
    if (i > 0 && delta <= 0) return Errc::kCorrupt;  // must be strictly ascending
    sketch.buckets_[static_cast<std::int32_t>(index)] = c;
    total += c;
  }
  if (!in.ok()) return Errc::kTruncated;
  sketch.count_ = total;
  return sketch;
}

}  // namespace edgewatch::core
