// LPM trie correctness (incl. property test vs a brute-force scan) and
// RIB/ASN directory behaviour.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "asn/lpm.hpp"
#include "core/rng.hpp"

namespace ew = edgewatch;
using ew::asn::AsnDirectory;
using ew::asn::Rib;
using ew::core::IPv4Address;
using ew::core::IPv4Prefix;

namespace {
IPv4Prefix pfx(const char* s) {
  auto p = IPv4Prefix::parse(s);
  EXPECT_TRUE(p.has_value()) << s;
  return *p;
}

/// Brute-force LPM: the longest route containing `addr`; among equal
/// lengths the later announcement wins, matching the trie's overwrite.
std::optional<std::uint32_t> linear_lookup(
    const std::vector<std::pair<IPv4Prefix, std::uint32_t>>& routes, IPv4Address addr) {
  int best_len = -1;
  std::uint32_t best_asn = 0;
  for (const auto& [prefix, asn] : routes) {
    if (prefix.contains(addr) && static_cast<int>(prefix.length()) >= best_len) {
      best_len = prefix.length();
      best_asn = asn;
    }
  }
  if (best_len < 0) return std::nullopt;
  return best_asn;
}
}  // namespace

TEST(PrefixTrie, LongestMatchWins) {
  Rib rib;
  rib.add_route(pfx("157.240.0.0/16"), 32934);
  rib.add_route(pfx("157.240.20.0/24"), 99999);
  EXPECT_EQ(rib.origin_asn(IPv4Address{157, 240, 20, 5}), 99999u);
  EXPECT_EQ(rib.origin_asn(IPv4Address{157, 240, 21, 5}), 32934u);
  EXPECT_FALSE(rib.origin_asn(IPv4Address{8, 8, 8, 8}).has_value());
}

TEST(PrefixTrie, DefaultRouteCoversEverything) {
  Rib rib;
  rib.add_route(pfx("0.0.0.0/0"), 1);
  rib.add_route(pfx("10.0.0.0/8"), 2);
  EXPECT_EQ(rib.origin_asn(IPv4Address{8, 8, 8, 8}), 1u);
  EXPECT_EQ(rib.origin_asn(IPv4Address{10, 1, 1, 1}), 2u);
}

TEST(PrefixTrie, HostRoutes) {
  Rib rib;
  rib.add_route(pfx("1.2.3.4/32"), 7);
  EXPECT_EQ(rib.origin_asn(IPv4Address{1, 2, 3, 4}), 7u);
  EXPECT_FALSE(rib.origin_asn(IPv4Address{1, 2, 3, 5}).has_value());
}

TEST(PrefixTrie, OverwriteKeepsPrefixCount) {
  Rib rib;
  rib.add_route(pfx("10.0.0.0/8"), 1);
  rib.add_route(pfx("10.0.0.0/8"), 2);
  EXPECT_EQ(rib.prefix_count(), 1u);
  EXPECT_EQ(rib.origin_asn(IPv4Address{10, 0, 0, 1}), 2u);
}

// Property: the trie agrees with brute-force linear scan on random RIBs.
TEST(PrefixTrie, AgreesWithLinearScanOnRandomRibs) {
  ew::core::Xoshiro256 rng{4242};
  for (int trial = 0; trial < 5; ++trial) {
    Rib rib;
    std::vector<std::pair<IPv4Prefix, std::uint32_t>> routes;
    const int n_routes = 300;
    for (int i = 0; i < n_routes; ++i) {
      const auto addr = static_cast<std::uint32_t>(rng());
      const auto len = static_cast<std::uint8_t>(8 + ew::core::uniform_below(rng, 25));  // 8..32
      routes.emplace_back(IPv4Prefix{IPv4Address{addr}, len},
                          static_cast<std::uint32_t>(ew::core::uniform_below(rng, 70000)));
      rib.add_route(routes.back().first, routes.back().second);
    }
    for (int q = 0; q < 2000; ++q) {
      // Half the queries are random; half target near a route base so
      // matches actually occur.
      IPv4Address addr{static_cast<std::uint32_t>(rng())};
      if (q % 2 == 0) {
        const auto& route = routes[ew::core::uniform_below(rng, routes.size())];
        addr = IPv4Address{route.first.base().value() |
                           (static_cast<std::uint32_t>(rng()) &
                            static_cast<std::uint32_t>(route.first.size() - 1))};
      }
      EXPECT_EQ(rib.origin_asn(addr), linear_lookup(routes, addr)) << addr.to_string();
    }
  }
}

TEST(Rib, RouteCountTracksInsertions) {
  Rib rib;
  rib.add_route(pfx("31.13.64.0/18"), AsnDirectory::kFacebook);
  rib.add_route(pfx("173.194.0.0/16"), AsnDirectory::kGoogle);
  EXPECT_EQ(rib.prefix_count(), 2u);
  EXPECT_EQ(rib.origin_asn(IPv4Address{31, 13, 86, 36}), AsnDirectory::kFacebook);
  EXPECT_EQ(rib.origin_asn(IPv4Address{173, 194, 1, 1}), AsnDirectory::kGoogle);
}

TEST(AsnDirectory, StandardNamesMatchPaperFigures) {
  const auto& dir = AsnDirectory::standard();
  EXPECT_EQ(dir.name(AsnDirectory::kFacebook), "FACEBOOK");
  EXPECT_EQ(dir.name(AsnDirectory::kGoogle), "GOOGLE");
  EXPECT_EQ(dir.name(AsnDirectory::kAkamai), "AKAMAI");
  EXPECT_EQ(dir.name(AsnDirectory::kTelia), "TELIANET");
  EXPECT_EQ(dir.name(AsnDirectory::kGtt), "GTT");
  EXPECT_EQ(dir.name(AsnDirectory::kIsp), "ISP");
  EXPECT_EQ(dir.name(12345), "OTHER");
}

TEST(AsnDirectory, SetOverridesName) {
  AsnDirectory dir;
  dir.set(65000, "TESTNET");
  EXPECT_EQ(dir.name(65000), "TESTNET");
}
