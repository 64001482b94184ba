// Sketch primitives behind the rollup store: HyperLogLog distinct counts
// and the DDSketch-style quantile sketch. The tests hold the *documented*
// contracts — |est - true| <= 3*1.04/sqrt(m) * true for HLL, relative
// value error <= alpha for quantiles — plus exact merge semantics and
// serialization roundtrips, because query answers are only as trustworthy
// as these bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/bytes.hpp"
#include "core/sketch.hpp"

namespace ew = edgewatch;
using ew::core::ByteReader;
using ew::core::ByteWriter;
using ew::core::HyperLogLog;
using ew::core::QuantileSketch;

namespace {

/// Exact nearest-rank quantile: the k-th smallest, k = max(1, ceil(q*n)).
double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto k = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(q * n)));
  return values[k - 1];
}

std::vector<std::byte> serialize(const auto& sketch) {
  ByteWriter w;
  sketch.serialize(w);
  return std::move(w).take();
}

/// The estimator as first written: one ldexp per register, summed in
/// order. HyperLogLog::estimate() must reproduce it bit for bit.
double reference_estimate(const std::vector<std::uint8_t>& registers) {
  const auto m = static_cast<double>(registers.size());
  double inverse_sum = 0;
  std::size_t zeros = 0;
  for (const auto r : registers) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(r));
    zeros += r == 0;
  }
  double alpha = 0.7213 / (1.0 + 1.079 / m);
  if (registers.size() == 16) alpha = 0.673;
  if (registers.size() == 32) alpha = 0.697;
  if (registers.size() == 64) alpha = 0.709;
  const double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) return m * std::log(m / static_cast<double>(zeros));
  return raw;
}

/// A sketch holding exactly `registers`, built through the wire format
/// (u8 precision | varint pairs | (varint zero_run, u8 value)*).
HyperLogLog sketch_of(std::uint8_t precision, const std::vector<std::uint8_t>& registers) {
  ByteWriter w;
  const auto varint = [&w](std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) w.u8(static_cast<std::uint8_t>(v) | 0x80);
    w.u8(static_cast<std::uint8_t>(v));
  };
  w.u8(precision);
  varint(static_cast<std::uint64_t>(std::count_if(registers.begin(), registers.end(),
                                                  [](std::uint8_t r) { return r != 0; })));
  std::uint64_t zero_run = 0;
  for (const auto r : registers) {
    if (r == 0) {
      ++zero_run;
      continue;
    }
    varint(zero_run);
    w.u8(r);
    zero_run = 0;
  }
  const auto bytes = std::move(w).take();
  ByteReader reader{bytes};
  auto sketch = HyperLogLog::deserialize(reader);
  EXPECT_TRUE(sketch.has_value());
  EXPECT_EQ(serialize(*sketch), bytes);
  return sketch ? *sketch : HyperLogLog{precision};
}

}  // namespace

// ------------------------------------------------------------ HyperLogLog

TEST(HyperLogLog, EmptyEstimatesZero) {
  // An empty sketch holds no registers; it must stay empty (or leave the
  // other side unchanged) through every path that does not write one.
  for (int p = HyperLogLog::kMinPrecision; p <= HyperLogLog::kMaxPrecision; ++p) {
    const auto precision = static_cast<std::uint8_t>(p);
    const std::size_t m = std::size_t{1} << p;
    const HyperLogLog fresh{precision};
    EXPECT_TRUE(fresh.empty());
    EXPECT_EQ(fresh.register_count(), m);
    EXPECT_DOUBLE_EQ(fresh.estimate(), 0.0);
    // Serialized, an empty sketch is the bytes of m zero registers.
    EXPECT_EQ(serialize(fresh), (std::vector{std::byte{precision}, std::byte{0}}));

    const HyperLogLog decoded = sketch_of(precision, std::vector<std::uint8_t>(m, 0));
    EXPECT_TRUE(decoded.empty());
    EXPECT_EQ(decoded, fresh);
    EXPECT_EQ(decoded.register_count(), m);

    HyperLogLog both{precision};
    EXPECT_TRUE(both.merge(fresh));
    EXPECT_TRUE(both.empty());
    EXPECT_EQ(both.register_count(), m);
    EXPECT_EQ(both.estimate(), 0.0);

    HyperLogLog x{precision};
    for (std::uint64_t i = 0; i < 50; ++i) x.add(i);
    HyperLogLog into_x = x;
    EXPECT_TRUE(into_x.merge(fresh));
    EXPECT_EQ(into_x, x);
    HyperLogLog x_into_empty{precision};
    EXPECT_TRUE(x_into_empty.merge(x));
    EXPECT_EQ(x_into_empty, x);
    EXPECT_FALSE(x_into_empty.empty());
    EXPECT_EQ(x_into_empty.register_count(), m);
    EXPECT_EQ(x_into_empty.estimate(), x.estimate());
  }
}


TEST(HyperLogLog, EstimateIsBitIdenticalToSequentialLdexpSum) {
  // Register patterns at every precision: sparse to full, geometric ranks
  // as real hashes give and uniform ranks, the boundary rank 53 - p (the
  // largest the integer sum takes) and ranks above it (the general loop).
  std::mt19937_64 rng(24);
  for (int p = HyperLogLog::kMinPrecision; p <= HyperLogLog::kMaxPrecision; ++p) {
    const auto precision = static_cast<std::uint8_t>(p);
    const std::size_t m = std::size_t{1} << p;
    const int max_rank = 64 - p + 1;
    const int boundary = 53 - p;
    for (const double density : {0.001, 0.05, 0.5, 0.9, 1.0}) {
      // `high`: the largest rank drawn; a non-zero one is also planted.
      for (const int high : {0, boundary, boundary + 1, max_rank}) {
        const int cap = high == 0 ? boundary : high;
        std::bernoulli_distribution set(density);
        std::geometric_distribution<int> geometric(0.5);
        std::uniform_int_distribution<int> uniform(1, cap);
        std::vector<std::uint8_t> registers(m, 0);
        for (auto& r : registers) {
          if (!set(rng)) continue;
          const int rank = rng() % 2 ? 1 + geometric(rng) : uniform(rng);
          r = static_cast<std::uint8_t>(std::min(rank, cap));
        }
        if (high != 0) registers[rng() % m] = static_cast<std::uint8_t>(high);
        const HyperLogLog hll = sketch_of(precision, registers);
        const double want = reference_estimate(registers);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(hll.estimate()), std::bit_cast<std::uint64_t>(want))
            << "p=" << p << " density=" << density << " high=" << high << ": "
            << hll.estimate() << " vs " << want;
        EXPECT_EQ(hll.register_count(), m);
      }
    }
    // Sketches filled by add() as well: the path every rollup takes.
    for (const std::uint64_t n : {1u, 100u, 5'000u, 300'000u}) {
      HyperLogLog hll{precision};
      std::vector<std::uint8_t> registers(m, 0);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t hash = rng();
        hll.add_hash(hash);
        const std::uint64_t rest = hash << p;
        const int rank = rest == 0 ? max_rank : std::countl_zero(rest) + 1;
        auto& r = registers[hash >> (64 - p)];
        r = std::max(r, static_cast<std::uint8_t>(rank));
      }
      EXPECT_EQ(hll, sketch_of(precision, registers)) << "p=" << p << " n=" << n;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(hll.estimate()),
                std::bit_cast<std::uint64_t>(reference_estimate(registers)))
          << "p=" << p << " n=" << n;
    }
  }
}

TEST(HyperLogLog, SmallCardinalitiesAreNearExact) {
  // Linear-counting regime: tiny sets (a service's distinct subscribers on
  // a quiet day) must come back essentially exact.
  for (const std::uint64_t n : {1u, 10u, 100u, 1000u}) {
    HyperLogLog hll;
    for (std::uint64_t i = 0; i < n; ++i) hll.add(i * 2654435761u + 12345);
    EXPECT_NEAR(hll.estimate(), static_cast<double>(n), std::max(1.0, 0.02 * n)) << "n=" << n;
  }
}

TEST(HyperLogLog, LargeCardinalityWithinDocumentedBound) {
  HyperLogLog hll;
  constexpr std::uint64_t kN = 200'000;
  for (std::uint64_t i = 0; i < kN; ++i) hll.add(i);
  const double err = std::abs(hll.estimate() - kN) / kN;
  EXPECT_LE(err, hll.error_bound());  // 3 * 1.04/sqrt(4096) ~ 4.9%
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  HyperLogLog hll;
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 500; ++i) hll.add(i);
  }
  EXPECT_NEAR(hll.estimate(), 500.0, 0.02 * 500);
}

TEST(HyperLogLog, MergeEqualsUnion) {
  HyperLogLog a, b, whole;
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    (i % 2 == 0 ? a : b).add(i);
    whole.add(i);
  }
  for (std::uint64_t i = 0; i < 5'000; ++i) {  // overlap: both halves saw these
    a.add(i);
    b.add(i);
  }
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a, whole);  // register-wise max IS the union sketch, bit for bit
}

TEST(HyperLogLog, MergeRejectsPrecisionMismatch) {
  HyperLogLog a{12}, b{10};
  b.add(1);
  const HyperLogLog before = a;
  EXPECT_FALSE(a.merge(b));
  EXPECT_EQ(a, before);
}

TEST(HyperLogLog, DeterministicAcrossInstances) {
  HyperLogLog a, b;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    a.add(i);
    b.add(i);
  }
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(a.estimate(), b.estimate());
}

TEST(HyperLogLog, SerializeRoundtrip) {
  HyperLogLog hll{12};
  for (std::uint64_t i = 0; i < 10'000; ++i) hll.add(i);
  const auto bytes = serialize(hll);
  ByteReader r{bytes};
  const auto back = HyperLogLog::deserialize(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, hll);
  EXPECT_EQ(r.remaining(), 0u);

  // An empty sketch costs a few bytes, not 4 KiB of registers.
  EXPECT_LT(serialize(HyperLogLog{}).size(), 8u);
}

TEST(HyperLogLog, DeserializeRejectsDamage) {
  HyperLogLog hll;
  for (std::uint64_t i = 0; i < 100; ++i) hll.add(i);
  const auto bytes = serialize(hll);

  {  // truncated
    ByteReader r{std::span{bytes}.first(bytes.size() / 2)};
    EXPECT_FALSE(HyperLogLog::deserialize(r).has_value());
  }
  {  // bad precision byte
    auto bad = bytes;
    bad[0] = std::byte{99};
    ByteReader r{bad};
    EXPECT_FALSE(HyperLogLog::deserialize(r).has_value());
  }
}

// --------------------------------------------------------- QuantileSketch

TEST(QuantileSketch, EmptyAndZeroHandling) {
  QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  s.add(0.0);
  s.add(-5.0);  // clamped to the zero bucket
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(QuantileSketch, QuantilesWithinRelativeAccuracy) {
  // Log-normal-ish RTT samples spanning 3 decades — the shape Fig. 10 sees.
  std::mt19937 rng(42);
  std::lognormal_distribution<double> dist(3.0, 1.2);
  QuantileSketch sketch;
  std::vector<double> values;
  for (int i = 0; i < 50'000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    sketch.add(v);
  }
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = exact_quantile(values, q);
    const double est = sketch.quantile(q);
    EXPECT_LE(std::abs(est - exact), sketch.relative_accuracy() * exact) << "q=" << q;
  }
}

TEST(QuantileSketch, ExactMoments) {
  QuantileSketch s;
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    s.add(i);
    sum += i;
  }
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.sum(), sum);       // sums are exact, not sketched
  EXPECT_DOUBLE_EQ(s.mean(), sum / 1000);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
}

TEST(QuantileSketch, MergeEqualsConcatenatedStream) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(0.1, 5000.0);
  QuantileSketch a, b, whole;
  for (int i = 0; i < 20'000; ++i) {
    const double v = dist(rng);
    (i % 3 == 0 ? a : b).add(v);
    whole.add(v);
  }
  ASSERT_TRUE(a.merge(b));
  // Bucket counts add exactly, so every quantile answer is bit-identical to
  // the concatenated stream's; the running sum is a double and only matches
  // to summation order.
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  EXPECT_NEAR(a.sum(), whole.sum(), 1e-9 * whole.sum());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeRejectsAccuracyMismatch) {
  QuantileSketch a{0.01}, b{0.05};
  b.add(1.0);
  EXPECT_FALSE(a.merge(b));
  EXPECT_TRUE(a.empty());
}

TEST(QuantileSketch, WeightedAddMatchesRepeatedAdd) {
  QuantileSketch weighted, repeated;
  weighted.add(42.0, 1000);
  for (int i = 0; i < 1000; ++i) repeated.add(42.0);
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_DOUBLE_EQ(weighted.quantile(0.5), repeated.quantile(0.5));
}

TEST(QuantileSketch, CdfIsMonotoneAndConsistent) {
  QuantileSketch s;
  for (int i = 1; i <= 10'000; ++i) s.add(i);
  double prev = 0;
  for (double x = 1; x <= 10'000; x *= 2) {
    const double c = s.cdf(x);
    EXPECT_GE(c, prev);
    EXPECT_NEAR(c, x / 10'000, 0.02);  // uniform data: CDF ~ x/n
    prev = c;
  }
  EXPECT_DOUBLE_EQ(s.cdf(20'000), 1.0);
}

TEST(QuantileSketch, SerializeRoundtrip) {
  std::mt19937 rng(3);
  std::lognormal_distribution<double> dist(1.0, 2.0);
  QuantileSketch s{0.02};
  s.add(0.0, 5);  // exercise the zero bucket
  for (int i = 0; i < 5'000; ++i) s.add(dist(rng));
  const auto bytes = serialize(s);
  ByteReader r{bytes};
  const auto back = QuantileSketch::deserialize(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(QuantileSketch, DeserializeRejectsDamage) {
  QuantileSketch s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  const auto bytes = serialize(s);
  {  // truncated mid-bucket-list
    ByteReader r{std::span{bytes}.first(bytes.size() - 3)};
    EXPECT_FALSE(QuantileSketch::deserialize(r).has_value());
  }
  {  // absurd alpha
    auto bad = bytes;
    bad[7] = std::byte{0xff};  // high byte of the little-endian alpha double
    ByteReader r{bad};
    EXPECT_FALSE(QuantileSketch::deserialize(r).has_value());
  }
}
