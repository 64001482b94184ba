// ASCII case folding for protocol names: DNS names (RFC 4343 makes their
// case-insensitivity ASCII-only), TLS SNI, HTTP header names and values.
// Bytes outside 'A'..'Z', including every byte >= 0x80, pass through
// unchanged, so no locale table is consulted and the fold inlines into the
// caller's copy loop.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace edgewatch::core {

[[nodiscard]] constexpr char ascii_lower(char c) noexcept {
  return static_cast<unsigned char>(c - 'A') < 26 ? static_cast<char>(c + ('a' - 'A')) : c;
}

/// Append `s` to `out`, lower-cased.
inline void append_ascii_lower(std::string& out, std::string_view s) {
  const std::size_t at = out.size();
  out.resize(at + s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[at + i] = ascii_lower(s[i]);
}

[[nodiscard]] inline std::string to_ascii_lower(std::string_view s) {
  std::string out;
  append_ascii_lower(out, s);
  return out;
}

/// Case-insensitive equality against an already lower-case `lower`.
[[nodiscard]] constexpr bool equals_ascii_lower(std::string_view s,
                                                std::string_view lower) noexcept {
  if (s.size() != lower.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (ascii_lower(s[i]) != lower[i]) return false;
  }
  return true;
}

}  // namespace edgewatch::core
