#include "net/packet.hpp"

#include <algorithm>

namespace edgewatch::net {

std::size_t DecodedPacket::transport_payload_declared() const noexcept {
  const std::size_t ip_payload = ip.payload_length();
  std::size_t l4_header = 0;
  if (tcp) {
    l4_header = tcp->header_length();
  } else if (udp) {
    l4_header = UdpHeader::kSize;
  }
  return ip_payload >= l4_header ? ip_payload - l4_header : 0;
}

std::optional<DecodedPacket> decode_frame(const FrameView& frame) noexcept {
  std::optional<DecodedPacket> out(std::in_place);
  if (!decode_frame_into(frame, *out)) return std::nullopt;
  return out;
}

bool decode_frame_into(const FrameView& frame, DecodedPacket& pkt) noexcept {
  // Headers are parsed straight into the packet's fields: on the per-frame
  // hot path the temporary-header-then-move dance costs more than the
  // parsing itself. Clear what parse_into may leave stale on reuse.
  pkt.tcp.reset();
  pkt.udp.reset();
  pkt.ip.options.clear();
  core::ByteReader r{frame.data};
  if (!EthernetHeader::parse_into(r, pkt.eth)) return false;
  // Skip a single 802.1Q tag if present.
  if (pkt.eth.ether_type == static_cast<std::uint16_t>(EtherType::kVlan)) {
    r.skip(2);  // PCP/DEI/VID
    pkt.eth.ether_type = r.u16();
  }
  if (pkt.eth.ether_type != static_cast<std::uint16_t>(EtherType::kIPv4)) return false;

  if (!IPv4Header::parse_into(r, pkt.ip)) return false;
  pkt.timestamp = frame.timestamp;

  // Non-first fragments carry no L4 header we could parse.
  if (pkt.ip.fragment_offset != 0) {
    pkt.payload = {};
    return true;
  }

  switch (pkt.ip.transport()) {
    case core::TransportProto::kTcp:
      if (!TcpHeader::parse_into(r, pkt.tcp.emplace())) return false;
      break;
    case core::TransportProto::kUdp:
      if (!UdpHeader::parse_into(r, pkt.udp.emplace())) return false;
      break;
    default:
      break;
  }
  pkt.payload = frame.data.size() > r.position() ? frame.data.subspan(r.position())
                                                 : std::span<const std::byte>{};
  return true;
}

Frame PacketBuilder::build() const {
  core::ByteWriter l4;
  std::uint8_t protocol = 0;
  if (tcp_) {
    protocol = 6;
    tcp_->serialize(l4);
  } else if (udp_) {
    protocol = 17;
    UdpHeader h = *udp_;
    h.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload_.size());
    h.serialize(l4);
  }
  l4.bytes(payload_);

  IPv4Header ip;
  ip.src = ip_src_;
  ip.dst = ip_dst_;
  ip.ttl = ttl_;
  ip.protocol = protocol;
  ip.total_length = static_cast<std::uint16_t>(IPv4Header::kMinSize + l4.size());

  core::ByteWriter w{EthernetHeader::kSize + ip.total_length};
  EthernetHeader eth;
  eth.src = eth_src_;
  eth.dst = eth_dst_;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kIPv4);
  eth.serialize(w);
  ip.serialize(w);
  w.bytes(l4.view());

  return Frame{timestamp_, std::move(w).take()};
}

void Trace::sort_by_time() {
  std::stable_sort(frames_.begin(), frames_.end(),
                   [](const Frame& a, const Frame& b) { return a.timestamp < b.timestamp; });
}

}  // namespace edgewatch::net
