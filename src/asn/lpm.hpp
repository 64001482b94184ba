// Longest-prefix-match over a BGP-style RIB (paper §6.2, footnote 11:
// "we use the Routing Information Base for each month ... to map IP
// addresses to ASNs").
//
// The RIB is a classic uncompressed binary trie with nodes pooled in a
// vector (index links, no pointer chasing allocations). A /24-dense RIB of
// ~1M routes fits comfortably; lookups walk at most 32 nodes. Correctness
// is property-tested against a brute-force scan in tests/test_asn.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace edgewatch::asn {

/// One RIB snapshot: prefix → origin ASN.
class Rib {
 public:
  Rib() { nodes_.push_back(Node{}); }

  /// Insert or overwrite the origin ASN of a prefix.
  void add_route(core::IPv4Prefix prefix, std::uint32_t asn);

  /// Longest-prefix match; nullopt when no covering prefix exists.
  [[nodiscard]] std::optional<std::uint32_t> origin_asn(core::IPv4Address addr) const noexcept;

  /// Distinct prefixes announced (an overwrite does not count twice).
  [[nodiscard]] std::size_t prefix_count() const noexcept { return prefixes_; }

 private:
  struct Node {
    std::uint32_t child[2] = {0, 0};  // 0 = absent (node 0 is the root)
    std::int64_t value = -1;          // -1 = no route terminates here
  };
  std::vector<Node> nodes_;
  std::size_t prefixes_ = 0;
};

/// Names for the autonomous systems appearing in Fig. 11's breakdowns.
class AsnDirectory {
 public:
  /// Directory preloaded with the ASNs the paper charts.
  static const AsnDirectory& standard();

  void set(std::uint32_t asn, std::string_view name);
  [[nodiscard]] std::string_view name(std::uint32_t asn) const noexcept;

  // Well-known numbers used across synth and bench code.
  static constexpr std::uint32_t kFacebook = 32934;
  static constexpr std::uint32_t kGoogle = 15169;
  static constexpr std::uint32_t kYouTubeLegacy = 43515;
  static constexpr std::uint32_t kAkamai = 20940;
  static constexpr std::uint32_t kTelia = 1299;
  static constexpr std::uint32_t kGtt = 3257;
  static constexpr std::uint32_t kNetflix = 2906;
  static constexpr std::uint32_t kIsp = 64496;  // our (anonymous) ISP
  static constexpr std::uint32_t kOther = 0;

 private:
  std::unordered_map<std::uint32_t, std::string> names_;
};

}  // namespace edgewatch::asn
