#include "anon/anonymizer.hpp"

namespace edgewatch::anon {

std::uint32_t PrefixPreservingAnonymizer::flips(std::uint32_t value, std::uint32_t first,
                                                std::uint32_t last) const noexcept {
  // For each prefix length i, derive one PRF bit from the i-bit prefix of
  // `value`. Bit i of the result flips bit i (MSB-first) of the address.
  // The PRF input encodes both the prefix bits and the length so that e.g.
  // prefix "0" and prefix "00" hash differently.
  std::uint32_t mask = 0;
  for (std::uint32_t i = first; i < last; ++i) {
    const std::uint32_t prefix = i == 0 ? 0 : (value >> (32 - i)) << (32 - i);
    const std::uint64_t input = (std::uint64_t{prefix} << 8) | i;
    const std::uint64_t prf = core::siphash24_value(key_, input);
    mask |= static_cast<std::uint32_t>(prf & 1) << (31 - i);
  }
  return mask;
}

core::IPv4Address PrefixPreservingAnonymizer::anonymize(core::IPv4Address a) const noexcept {
  return core::IPv4Address{a.value() ^ flips(a.value(), 0, 32)};
}

core::IPv4Address PrefixPreservingAnonymizer::deanonymize(core::IPv4Address a) const noexcept {
  // Invert bit by bit: once the first i original bits are known, the flip
  // bit for position i is computable, revealing original bit i.
  std::uint32_t original = 0;
  for (std::uint32_t i = 0; i < 32; ++i) {
    const std::uint32_t anon_bit = a.value() & (1u << (31 - i));
    original |= anon_bit ^ flips(original, i, i + 1);
  }
  return core::IPv4Address{original};
}

}  // namespace edgewatch::anon
