// Property tests for the prefix-preserving anonymizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "anon/anonymizer.hpp"
#include "core/rng.hpp"

namespace ew = edgewatch;
using ew::anon::CustomerAnonymizer;
using ew::anon::PrefixPreservingAnonymizer;
using ew::core::IPv4Address;

namespace {
constexpr ew::core::SipKey kKey{0x1122334455667788ull, 0x99aabbccddeeff00ull};

int common_prefix_len(IPv4Address a, IPv4Address b) {
  const std::uint32_t x = a.value() ^ b.value();
  return x == 0 ? 32 : std::countl_zero(x);
}
}  // namespace

TEST(Anonymizer, DeterministicForFixedKey) {
  PrefixPreservingAnonymizer anon{kKey};
  const IPv4Address a{130, 192, 181, 193};
  EXPECT_EQ(anon.anonymize(a), anon.anonymize(a));
}

TEST(Anonymizer, DifferentKeysDisagree) {
  PrefixPreservingAnonymizer a1{kKey};
  PrefixPreservingAnonymizer a2{{1, 2}};
  const IPv4Address a{130, 192, 181, 193};
  EXPECT_NE(a1.anonymize(a), a2.anonymize(a));
}

TEST(Anonymizer, RoundTripsThroughDeanonymize) {
  PrefixPreservingAnonymizer anon{kKey};
  ew::core::Xoshiro256 rng{99};
  for (int i = 0; i < 2000; ++i) {
    const IPv4Address a{static_cast<std::uint32_t>(rng())};
    EXPECT_EQ(anon.deanonymize(anon.anonymize(a)), a);
  }
}

// The defining CryptoPAn property: anonymization preserves common-prefix
// lengths exactly, in both directions.
TEST(Anonymizer, PreservesCommonPrefixLengthExactly) {
  PrefixPreservingAnonymizer anon{kKey};
  ew::core::Xoshiro256 rng{7};
  for (int i = 0; i < 1500; ++i) {
    const IPv4Address a{static_cast<std::uint32_t>(rng())};
    // Derive b by flipping one random bit position k: common prefix = k.
    const int k = static_cast<int>(ew::core::uniform_below(rng, 32));
    const IPv4Address b{a.value() ^ (1u << (31 - k))};
    ASSERT_EQ(common_prefix_len(a, b), k);
    EXPECT_EQ(common_prefix_len(anon.anonymize(a), anon.anonymize(b)), k);
  }
}

TEST(Anonymizer, IsInjectiveOnSubnet) {
  PrefixPreservingAnonymizer anon{kKey};
  std::set<std::uint32_t> seen;
  for (std::uint32_t host = 0; host < 4096; ++host) {
    const IPv4Address a{(std::uint32_t{10} << 24) | host};
    seen.insert(anon.anonymize(a).value());
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(Anonymizer, SubnetMapsToSingleSubnet) {
  // All of 10.1.2.0/24 must land in one (different-looking) /24.
  PrefixPreservingAnonymizer anon{kKey};
  const auto first = anon.anonymize(IPv4Address{10, 1, 2, 0});
  for (int host = 1; host < 256; ++host) {
    const auto mapped = anon.anonymize(IPv4Address{10, 1, 2, static_cast<std::uint8_t>(host)});
    EXPECT_GE(common_prefix_len(first, mapped), 24);
  }
}

// Parameterized sweep: subnets of every prefix length map into exactly one
// subnet of the same length.
class PrefixSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrefixSweep, SubnetIntegrityAtEveryLength) {
  const int len = GetParam();
  PrefixPreservingAnonymizer anon{kKey};
  ew::core::Xoshiro256 rng{static_cast<std::uint64_t>(len) * 977 + 5};
  const auto base = static_cast<std::uint32_t>(rng()) &
                    (len == 0 ? 0u : ~std::uint32_t{0} << (32 - len));
  const auto first = anon.anonymize(IPv4Address{base});
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t host_bits =
        len == 32 ? 0
                  : static_cast<std::uint32_t>(rng()) &
                        (len == 0 ? ~std::uint32_t{0} : (~std::uint32_t{0} >> len));
    const auto mapped = anon.anonymize(IPv4Address{base | host_bits});
    EXPECT_GE(common_prefix_len(first, mapped), len);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLengths, PrefixSweep,
                         ::testing::Values(0, 1, 7, 8, 9, 16, 23, 24, 30, 31, 32));

TEST(CustomerAnonymizer, OnlyRewritesCustomerAddresses) {
  const auto net = ew::core::IPv4Prefix::parse("10.0.0.0/8");
  ASSERT_TRUE(net.has_value());
  CustomerAnonymizer anon{kKey, *net};
  const IPv4Address customer{10, 5, 6, 7};
  const IPv4Address server{157, 240, 1, 1};
  EXPECT_TRUE(anon.is_customer(customer));
  EXPECT_FALSE(anon.is_customer(server));
  EXPECT_NE(anon.apply(customer), customer);
  EXPECT_EQ(anon.apply(server), server);
}

TEST(CustomerAnonymizer, ConsistentAcrossCalls) {
  const auto net = ew::core::IPv4Prefix::parse("10.0.0.0/8");
  CustomerAnonymizer anon{kKey, *net};
  const IPv4Address c{10, 99, 3, 4};
  const auto first = anon.apply(c);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(anon.apply(c), first);
}

TEST(CustomerAnonymizer, MemoizedPathMatchesCryptoPanOverManyPrefixes) {
  // ~50k addresses drawn from 640 /24s in 40 /16s, in interleaved order, so
  // first-seen addresses land both in new /24s and in /24s seen before.
  // Both the per-address and the per-/24 memo must reproduce CryptoPAn.
  const auto net = ew::core::IPv4Prefix::parse("10.0.0.0/8");
  ASSERT_TRUE(net.has_value());
  CustomerAnonymizer anon{kKey, *net};
  ew::core::Xoshiro256 rng{2024};
  std::vector<IPv4Address> customers;
  customers.reserve(50'000);
  for (int i = 0; i < 50'000; ++i) {
    const auto r = rng();
    customers.emplace_back(10, static_cast<std::uint8_t>(r % 40 * 6),
                           static_cast<std::uint8_t>((r >> 8) % 16 * 15),
                           static_cast<std::uint8_t>(r >> 16));
  }
  for (const IPv4Address c : customers) {
    ASSERT_EQ(anon.apply(c), anon.impl().anonymize(c)) << c.to_string();
    const IPv4Address outside{static_cast<std::uint32_t>(rng()) | 0x80000000u};  // >= 128/1
    ASSERT_EQ(anon.apply(outside), outside);
  }
  // Repeated calls, in a different order: answered by the memos.
  std::reverse(customers.begin(), customers.end());
  for (const IPv4Address c : customers) {
    ASSERT_EQ(anon.apply(c), anon.impl().anonymize(c)) << c.to_string();
  }
}
