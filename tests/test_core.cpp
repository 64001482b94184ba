// Tests for core value types, byte cursors, time, hashing, RNG and stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <set>

#include "core/block_queue.hpp"
#include "core/bytes.hpp"
#include "core/hash.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/time.hpp"
#include "core/types.hpp"

namespace ew = edgewatch::core;

// ---------------------------------------------------------------- IPv4

TEST(IPv4Address, RoundTripsDottedQuad) {
  const ew::IPv4Address a{130, 192, 181, 193};
  EXPECT_EQ(a.to_string(), "130.192.181.193");
  const auto parsed = ew::IPv4Address::parse("130.192.181.193");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, a);
}

TEST(IPv4Address, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3",
                          "1.2.3.4 ", " 1.2.3.4", "01.2.3.4567", "-1.2.3.4"}) {
    EXPECT_FALSE(ew::IPv4Address::parse(bad).has_value()) << bad;
  }
}

TEST(IPv4Address, OctetsAreBigEndianOrdered) {
  const ew::IPv4Address a{10, 20, 30, 40};
  EXPECT_EQ(a.octet(0), 10);
  EXPECT_EQ(a.octet(3), 40);
  EXPECT_EQ(a.value(), 0x0A141E28u);
}

TEST(IPv4Prefix, ContainsMatchesMask) {
  const auto p = ew::IPv4Prefix::parse("157.240.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->contains(ew::IPv4Address{157, 240, 12, 1}));
  EXPECT_FALSE(p->contains(ew::IPv4Address{157, 241, 0, 0}));
  EXPECT_EQ(p->size(), 65536u);
}

TEST(IPv4Prefix, ZeroLengthContainsEverything) {
  const ew::IPv4Prefix any{ew::IPv4Address{}, 0};
  EXPECT_TRUE(any.contains(ew::IPv4Address{255, 255, 255, 255}));
  EXPECT_TRUE(any.contains(ew::IPv4Address{}));
}

TEST(IPv4Prefix, ParseRejectsHostBitsAndBadLength) {
  EXPECT_FALSE(ew::IPv4Prefix::parse("10.0.0.1/8").has_value());
  EXPECT_FALSE(ew::IPv4Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(ew::IPv4Prefix::parse("10.0.0.0").has_value());
  EXPECT_TRUE(ew::IPv4Prefix::parse("10.0.0.0/8").has_value());
  EXPECT_TRUE(ew::IPv4Prefix::parse("10.1.2.3/32").has_value());
}

TEST(IPv4Prefix, ConstructorClearsHostBits) {
  const ew::IPv4Prefix p{ew::IPv4Address{10, 1, 2, 3}, 8};
  EXPECT_EQ(p.base(), (ew::IPv4Address{10, 0, 0, 0}));
}

TEST(FiveTuple, ReversedSwapsEndpoints) {
  const ew::FiveTuple t{ew::IPv4Address{1, 1, 1, 1}, ew::IPv4Address{2, 2, 2, 2}, 1234, 443,
                        ew::TransportProto::kTcp};
  const auto r = t.reversed();
  EXPECT_EQ(r.src_ip, t.dst_ip);
  EXPECT_EQ(r.src_port, t.dst_port);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FiveTuple, HashDiffersForDifferentFlows) {
  ew::FiveTupleHash h;
  const ew::FiveTuple a{ew::IPv4Address{1, 1, 1, 1}, ew::IPv4Address{2, 2, 2, 2}, 1234, 443,
                        ew::TransportProto::kTcp};
  ew::FiveTuple b = a;
  b.src_port = 1235;
  EXPECT_NE(h(a), h(b));
  EXPECT_EQ(h(a), h(a));
}

// ---------------------------------------------------------------- bytes

TEST(ByteReader, ReadsBigEndianFields) {
  const auto buf = ew::to_bytes(std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8));
  ew::ByteReader r{buf};
  EXPECT_EQ(r.u16(), 0x0102u);
  EXPECT_EQ(r.u24(), 0x030405u);
  EXPECT_EQ(r.u8(), 0x06u);
  EXPECT_EQ(r.u16(), 0x0708u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, OverrunMarksFailureAndReturnsZero) {
  const auto buf = ew::to_bytes("ab");
  ew::ByteReader r{buf};
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // stays failed
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, LittleEndianVariants) {
  const auto buf = ew::to_bytes(std::string("\x78\x56\x34\x12", 4));
  ew::ByteReader r{buf};
  EXPECT_EQ(r.u32le(), 0x12345678u);
}

TEST(ByteWriter, RoundTripsThroughReader) {
  ew::ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ull);
  w.string("host");
  ew::ByteReader r{w.view()};
  EXPECT_EQ(r.u8(), 0xABu);
  EXPECT_EQ(r.u16(), 0x1234u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.string(4), "host");
  EXPECT_TRUE(r.ok());
}

TEST(ByteWriter, PatchU16OverwritesInPlace) {
  ew::ByteWriter w;
  w.u16(0);
  w.u16(0xBEEF);
  w.patch_u16(0, 0xCAFE);
  ew::ByteReader r{w.view()};
  EXPECT_EQ(r.u16(), 0xCAFEu);
  EXPECT_EQ(r.u16(), 0xBEEFu);
}

TEST(ByteReader, SeekSupportsRandomAccess) {
  const auto buf = ew::to_bytes("abcdef");
  ew::ByteReader r{buf};
  r.seek(4);
  EXPECT_EQ(r.string(2), "ef");
  r.seek(0);
  EXPECT_EQ(r.string(1), "a");
  r.seek(99);
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------- time

TEST(CivilDate, KnownEpochConversions) {
  EXPECT_EQ(ew::days_from_civil({1970, 1, 1}), 0);
  EXPECT_EQ(ew::days_from_civil({2013, 3, 1}), 15765);
  const auto d = ew::civil_from_days(15765);
  EXPECT_EQ(d, (ew::CivilDate{2013, 3, 1}));
}

TEST(CivilDate, RoundTripsAcrossStudyPeriod) {
  // Every day of the paper's 2013-2017 window round-trips.
  const auto start = ew::days_from_civil({2013, 1, 1});
  const auto end = ew::days_from_civil({2018, 1, 1});
  for (auto z = start; z < end; ++z) {
    EXPECT_EQ(ew::days_from_civil(ew::civil_from_days(z)), z);
  }
}

TEST(CivilDate, ParseValidatesCalendar) {
  EXPECT_TRUE(ew::CivilDate::parse("2016-02-29").has_value());   // leap year
  EXPECT_FALSE(ew::CivilDate::parse("2017-02-29").has_value());  // not a leap year
  EXPECT_FALSE(ew::CivilDate::parse("2017-13-01").has_value());
  EXPECT_FALSE(ew::CivilDate::parse("2017-00-10").has_value());
  EXPECT_FALSE(ew::CivilDate::parse("17-01-01").has_value());
  const auto d = ew::CivilDate::parse("2014-04-15");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->to_string(), "2014-04-15");
}

TEST(Weekday, KnownAnchors) {
  EXPECT_EQ(ew::weekday_from_days(ew::days_from_civil({1970, 1, 1})), 4);   // Thursday
  EXPECT_EQ(ew::weekday_from_days(ew::days_from_civil({2014, 12, 25})), 4); // Thursday
  EXPECT_EQ(ew::weekday_from_days(ew::days_from_civil({2017, 1, 1})), 7);   // Sunday
}

TEST(Timestamp, DayAndHourExtraction) {
  const auto t = ew::Timestamp::from_date_time({2014, 4, 15}, 22, 30, 15);
  EXPECT_EQ(t.date(), (ew::CivilDate{2014, 4, 15}));
  EXPECT_EQ(t.hour(), 22);
  EXPECT_EQ(t.minute_of_day(), 22 * 60 + 30);
  EXPECT_EQ(t.to_string(), "2014-04-15 22:30:15.000000");
}

TEST(Timestamp, PreEpochDayIndexFloors) {
  const ew::Timestamp t{-1};  // one microsecond before the epoch
  EXPECT_EQ(t.day_index(), -1);
  EXPECT_EQ(t.date(), (ew::CivilDate{1969, 12, 31}));
}

TEST(MonthIndex, ArithmeticAndRendering) {
  const ew::MonthIndex m{2013, 3};
  EXPECT_EQ((m + 54).to_string(), "2017-09");
  EXPECT_EQ(ew::MonthIndex(2017, 9) - m, 54);
  EXPECT_EQ(m.first_day(), (ew::CivilDate{2013, 3, 1}));
  EXPECT_EQ(ew::MonthIndex(ew::CivilDate{2014, 12, 25}).to_string(), "2014-12");
}

TEST(DaysInMonth, HandlesLeapYears) {
  EXPECT_EQ(ew::days_in_month(2016, 2), 29);
  EXPECT_EQ(ew::days_in_month(2100, 2), 28);
  EXPECT_EQ(ew::days_in_month(2000, 2), 29);
  EXPECT_EQ(ew::days_in_month(2017, 12), 31);
}

// ---------------------------------------------------------------- hash

TEST(SipHash, MatchesReferenceVector) {
  // Reference test vector from the SipHash paper: key 000102..0f,
  // message 00 01 02 .. 3e (63 bytes) -- expected full vector table; we
  // check the canonical single value for a 15-byte message.
  ew::SipKey key{0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull};
  std::vector<std::byte> msg;
  for (int i = 0; i < 15; ++i) msg.push_back(static_cast<std::byte>(i));
  EXPECT_EQ(ew::siphash24(key, msg), 0xa129ca6149be45e5ull);
}

TEST(SipHash, EmptyMessageReference) {
  ew::SipKey key{0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull};
  EXPECT_EQ(ew::siphash24(key, std::span<const std::byte>{}), 0x726fdb47dd0e0e31ull);
}

TEST(SipHash, KeyChangesOutput) {
  const auto a = ew::siphash24({1, 2}, "facebook.com");
  const auto b = ew::siphash24({1, 3}, "facebook.com");
  EXPECT_NE(a, b);
}

TEST(Fnv1a, StableAndDistinct) {
  EXPECT_EQ(ew::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(ew::fnv1a64("netflix.com"), ew::fnv1a64("nflxvideo.net"));
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  ew::Xoshiro256 a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, Mix64IsOrderSensitive) {
  EXPECT_NE(ew::mix64(1, 2, 3), ew::mix64(3, 2, 1));
  EXPECT_EQ(ew::mix64(7, 8, 9), ew::mix64(7, 8, 9));
}

TEST(Rng, Uniform01InRange) {
  ew::Xoshiro256 rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = ew::uniform01(rng);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBelowCoversRange) {
  ew::Xoshiro256 rng{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = ew::uniform_below(rng, 10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit in 1000 draws
}

TEST(Rng, PoissonMeanApproximatelyCorrect) {
  ew::Xoshiro256 rng{11};
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += ew::poisson(rng, 5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  ew::Xoshiro256 rng{11};
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += ew::poisson(rng, 200.0);
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Rng, ParetoBoundedStaysInBounds) {
  ew::Xoshiro256 rng{13};
  for (int i = 0; i < 10000; ++i) {
    const double v = ew::pareto_bounded(rng, 1.2, 10.0, 1e6);
    ASSERT_GE(v, 10.0 * 0.999);
    ASSERT_LE(v, 1e6 * 1.001);
  }
}

TEST(Rng, LognormalMedianMatchesMu) {
  ew::Xoshiro256 rng{17};
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(ew::lognormal(rng, std::log(100.0), 0.5));
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], 100.0, 3.0);
}

TEST(Rng, WeightedPickRespectsWeights) {
  ew::Xoshiro256 rng{19};
  const double w[] = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[ew::weighted_pick(rng, w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(Rng, ChanceExtremes) {
  ew::Xoshiro256 rng{23};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(ew::chance(rng, 0.0));
    EXPECT_TRUE(ew::chance(rng, 1.0));
  }
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, MomentsMatchClosedForm) {
  ew::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSingleStream) {
  ew::RunningStats a, b, whole;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.7 - 3;
    (i % 2 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(EmpiricalDistribution, CdfAndQuantiles) {
  ew::EmpiricalDistribution d;
  for (int i = 1; i <= 100; ++i) d.add(i);
  EXPECT_DOUBLE_EQ(d.cdf(50), 0.5);
  EXPECT_DOUBLE_EQ(d.ccdf(90), 0.1);
  EXPECT_NEAR(d.median(), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(d.mean(), 50.5);
}

TEST(EmpiricalDistribution, CcdfIsMonotoneNonIncreasing) {
  ew::Xoshiro256 rng{29};
  ew::EmpiricalDistribution d;
  for (int i = 0; i < 1000; ++i) d.add(ew::lognormal(rng, 3.0, 1.5));
  const auto grid = ew::log_grid(0.1, 1e5, 50);
  const auto c = d.ccdf_at(grid);
  for (std::size_t i = 1; i < c.size(); ++i) EXPECT_LE(c[i], c[i - 1]);
}

TEST(EmpiricalDistribution, AddAfterQueryResorts) {
  ew::EmpiricalDistribution d;
  d.add(10);
  EXPECT_DOUBLE_EQ(d.median(), 10.0);
  d.add(0);
  d.add(1);
  EXPECT_DOUBLE_EQ(d.median(), 1.0);
}

TEST(Histogram, ClampsOutOfRange) {
  ew::Histogram h{0.0, 10.0, 10};
  h.add(-5);
  h.add(5);
  h.add(50);
  EXPECT_DOUBLE_EQ(h.count(0), 1);
  EXPECT_DOUBLE_EQ(h.count(5), 1);
  EXPECT_DOUBLE_EQ(h.count(9), 1);
  EXPECT_DOUBLE_EQ(h.total(), 3);
}

TEST(LogGrid, EndpointsAndGrowth) {
  const auto g = ew::log_grid(1.0, 1000.0, 4);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_NEAR(g.front(), 1.0, 1e-9);
  EXPECT_NEAR(g.back(), 1000.0, 1e-6);
  EXPECT_NEAR(g[1], 10.0, 1e-6);
}

TEST(BlockQueue, MatchesDequeAcrossBlocksAndReuse) {
  // Random push/pop runs grow the queue over many blocks, then drain it
  // through them while pushing more, so spent blocks are reused; every
  // front must match a std::deque fed the same way.
  ew::BlockQueue<std::uint64_t> queue;
  std::deque<std::uint64_t> reference;
  ew::Xoshiro256 rng{0x5150};
  std::uint64_t next = 0;
  for (int step = 0; step < 50'000; ++step) {
    if (reference.empty() || ew::uniform_below(rng, 100) < (step < 25'000 ? 55u : 45u)) {
      queue.push_back(next);
      reference.push_back(next++);
    } else {
      ASSERT_EQ(queue.front(), reference.front());
      queue.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
  // sort() reorders in place; the queue then drains in sorted order.
  queue.sort([](std::uint64_t a, std::uint64_t b) { return a > b; });
  std::sort(reference.begin(), reference.end(), std::greater<>{});
  while (!reference.empty()) {
    ASSERT_EQ(queue.front(), reference.front());
    queue.pop_front();
    reference.pop_front();
  }
  EXPECT_TRUE(queue.empty());
  queue.push_back(7);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  queue.push_back(8);
  EXPECT_EQ(queue.front(), 8u);
}
