#include "asn/lpm.hpp"

namespace edgewatch::asn {

void Rib::add_route(core::IPv4Prefix prefix, std::uint32_t asn) {
  std::uint32_t node = 0;
  const std::uint32_t bits = prefix.base().value();
  for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
    const std::uint32_t bit = (bits >> (31 - depth)) & 1;
    std::uint32_t next = nodes_[node].child[bit];
    if (next == 0) {
      next = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{});
      nodes_[node].child[bit] = next;
    }
    node = next;
  }
  if (nodes_[node].value < 0) ++prefixes_;
  nodes_[node].value = asn;
}

std::optional<std::uint32_t> Rib::origin_asn(core::IPv4Address addr) const noexcept {
  std::int64_t best = nodes_[0].value;
  std::uint32_t node = 0;
  const std::uint32_t bits = addr.value();
  for (std::uint8_t depth = 0; depth < 32; ++depth) {
    const std::uint32_t bit = (bits >> (31 - depth)) & 1;
    const std::uint32_t next = nodes_[node].child[bit];
    if (next == 0) break;
    node = next;
    if (nodes_[node].value >= 0) best = nodes_[node].value;
  }
  if (best < 0) return std::nullopt;
  return static_cast<std::uint32_t>(best);
}

const AsnDirectory& AsnDirectory::standard() {
  static const AsnDirectory dir = [] {
    AsnDirectory d;
    d.set(kFacebook, "FACEBOOK");
    d.set(kGoogle, "GOOGLE");
    d.set(kYouTubeLegacy, "YOUTUBE");
    d.set(kAkamai, "AKAMAI");
    d.set(kTelia, "TELIANET");
    d.set(kGtt, "GTT");
    d.set(kNetflix, "NETFLIX");
    d.set(kIsp, "ISP");
    return d;
  }();
  return dir;
}

void AsnDirectory::set(std::uint32_t asn, std::string_view name) {
  names_[asn] = std::string(name);
}

std::string_view AsnDirectory::name(std::uint32_t asn) const noexcept {
  const auto it = names_.find(asn);
  return it == names_.end() ? std::string_view{"OTHER"} : std::string_view{it->second};
}

}  // namespace edgewatch::asn
