// Consistent, prefix-preserving IP anonymization (paper §2.1: "Customers
// are assigned fixed IP addresses, that the probes immediately anonymize in
// a consistent way").
//
// We implement the CryptoPAn construction (Xu et al., 2002): bit i of the
// anonymized address is the original bit XORed with one pseudo-random bit
// derived from the i-bit prefix of the original address. This yields the
// unique prefix-preserving anonymization induced by the PRF: two addresses
// sharing a k-bit prefix map to addresses sharing exactly a k-bit prefix,
// so subnet-level analytics remain meaningful after anonymization. The PRF
// is the project SipHash-2-4 keyed with a 128-bit probe secret rather than
// the original's AES — equivalent for this (non-cryptographically-audited)
// purpose and dependency-free.
#pragma once

#include <cstdint>

#include "core/flat_hash_map.hpp"
#include "core/hash.hpp"
#include "core/types.hpp"

namespace edgewatch::anon {

class PrefixPreservingAnonymizer {
 public:
  explicit PrefixPreservingAnonymizer(core::SipKey key) noexcept : key_(key) {}

  /// Anonymize one address. Deterministic for a fixed key.
  [[nodiscard]] core::IPv4Address anonymize(core::IPv4Address a) const noexcept;

  /// Invert the anonymization (requires the key; used by tests and by the
  /// ISP's lawful re-identification path the paper alludes to).
  [[nodiscard]] core::IPv4Address deanonymize(core::IPv4Address a) const noexcept;

  /// The flip mask for bit positions [first, last) of `value` (MSB-first;
  /// anonymize XORs the address with flips(value, 0, 32)). The flip of bit
  /// i depends only on the i-bit prefix, so the flips of a prefix's bits
  /// can be computed once and shared by every address under it.
  [[nodiscard]] std::uint32_t flips(std::uint32_t value, std::uint32_t first,
                                    std::uint32_t last) const noexcept;

 private:
  core::SipKey key_;
};

/// Policy wrapper used by the probe: anonymize only the customer side of a
/// flow (server addresses must stay real for CDN/ASN analytics, §6).
class CustomerAnonymizer {
 public:
  CustomerAnonymizer(core::SipKey key, core::IPv4Prefix customer_net) noexcept
      : impl_(key), customer_net_(customer_net) {}

  [[nodiscard]] bool is_customer(core::IPv4Address a) const noexcept {
    return customer_net_.contains(a);
  }

  /// Returns the anonymized address for customers, the input otherwise.
  /// The CryptoPAn walk costs 32 PRF calls and the same subscriber address
  /// recurs on every flow it opens, so the (key-determined, pure) mapping
  /// is memoized — caching cannot change any output. A first-seen address
  /// takes the flips of its /24's bits from a second memo and computes
  /// only the last 8: 8 PRF calls instead of 32.
  [[nodiscard]] core::IPv4Address apply(core::IPv4Address a) const {
    if (!is_customer(a)) return a;
    auto it = cache_.find(a);
    if (it != cache_.end()) return it->second;
    if (cache_.size() >= kCacheCap) {  // bound memory, keep correctness
      cache_.clear();
      prefix_flips_.clear();
    }
    const std::uint32_t v = a.value();
    const std::uint32_t prefix = v >> (32 - kPrefixBits);
    auto pit = prefix_flips_.find(prefix);
    if (pit == prefix_flips_.end()) {
      pit = prefix_flips_.emplace(prefix, impl_.flips(v, 0, kPrefixBits)).first;
    }
    const core::IPv4Address mapped{v ^ pit->second ^ impl_.flips(v, kPrefixBits, 32)};
    cache_.emplace(a, mapped);
    return mapped;
  }

  [[nodiscard]] const PrefixPreservingAnonymizer& impl() const noexcept { return impl_; }

 private:
  /// More distinct customer addresses than any real probe serves; if ever
  /// exceeded both memos are dropped and rebuilt, never grown unboundedly.
  static constexpr std::size_t kCacheCap = std::size_t{1} << 20;
  /// Subscriber addresses are handed out from dense pools, so most
  /// first-seen addresses share their /24 with one seen before and pay
  /// only for the last 8 bits. A longer prefix would be shared by fewer
  /// addresses; a shorter one would leave more bits to compute.
  static constexpr std::uint32_t kPrefixBits = 24;

  PrefixPreservingAnonymizer impl_;
  core::IPv4Prefix customer_net_;
  mutable core::FlatHashMap<core::IPv4Address, core::IPv4Address, core::IPv4AddressHash> cache_;
  /// /24 prefix (the address's top 24 bits) → the flips of bits 0–23.
  mutable core::FlatHashMap<std::uint32_t, std::uint32_t> prefix_flips_;
};

}  // namespace edgewatch::anon
