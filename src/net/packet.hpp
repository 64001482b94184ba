// Whole-frame decoding and construction.
//
// DecodedPacket is the probe's view of one captured frame: L2-L4 headers
// plus a span over the transport payload. PacketBuilder is the inverse,
// used by tests and the synthetic packet generator to fabricate valid
// frames. Trace is a timestamped in-memory capture buffer standing in for
// the DPDK ring of the paper's probes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/time.hpp"
#include "core/types.hpp"
#include "net/headers.hpp"

namespace edgewatch::net {

/// One frame as delivered by the capture layer.
struct Frame {
  core::Timestamp timestamp;
  std::vector<std::byte> data;
};

/// A frame's timestamp and bytes, owned elsewhere: a Frame, or a slice of a
/// buffer that packs many frames (the sharded probe's batch arenas, a DPDK
/// ring in the paper's probes). Whatever owns the bytes must outlive the
/// view. Per-frame functions take it by const reference: by value, its 24
/// bytes are copied through the stack at every call, which costs the
/// sharded feeder about a third of its time (DESIGN §8).
struct FrameView {
  core::Timestamp timestamp;
  std::span<const std::byte> data;

  FrameView() = default;
  FrameView(core::Timestamp ts, std::span<const std::byte> bytes) noexcept
      : timestamp(ts), data(bytes) {}
  // Implicit: every function that reads a frame takes a view, and a Frame
  // is one.
  FrameView(const Frame& frame) noexcept  // NOLINT(google-explicit-constructor)
      : timestamp(frame.timestamp), data(frame.data) {}
};

/// A decoded frame. Payload spans reference the original frame buffer,
/// which must outlive the DecodedPacket.
struct DecodedPacket {
  core::Timestamp timestamp;
  EthernetHeader eth;
  IPv4Header ip;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::span<const std::byte> payload;  ///< L4 payload (possibly truncated by capture).

  [[nodiscard]] core::FiveTuple five_tuple() const noexcept {
    core::FiveTuple t;
    t.src_ip = ip.src;
    t.dst_ip = ip.dst;
    t.proto = ip.transport();
    if (tcp) {
      t.src_port = tcp->src_port;
      t.dst_port = tcp->dst_port;
    } else if (udp) {
      t.src_port = udp->src_port;
      t.dst_port = udp->dst_port;
    }
    return t;
  }

  /// IP-level payload bytes as declared by the IP header (robust to capture
  /// snapping): what byte counters should use.
  [[nodiscard]] std::size_t transport_payload_declared() const noexcept;
};

/// Decode an Ethernet/IPv4/{TCP,UDP} frame. Returns nullopt for non-IPv4,
/// fragments with nonzero offset are decoded but carry no L4 header.
[[nodiscard]] std::optional<DecodedPacket> decode_frame(const FrameView& frame) noexcept;

/// Same decode into a caller-owned packet, for loops that reuse one buffer
/// instead of materializing (and moving) a fresh DecodedPacket per frame.
/// `out` is fully overwritten on success and unspecified on failure.
[[nodiscard]] bool decode_frame_into(const FrameView& frame, DecodedPacket& out) noexcept;

/// Fluent builder producing valid frames.
class PacketBuilder {
 public:
  PacketBuilder& ts(core::Timestamp t) {
    timestamp_ = t;
    return *this;
  }
  PacketBuilder& ether(core::MacAddress src, core::MacAddress dst) {
    eth_src_ = src;
    eth_dst_ = dst;
    return *this;
  }
  PacketBuilder& ip(core::IPv4Address src, core::IPv4Address dst, std::uint8_t ttl = 64) {
    ip_src_ = src;
    ip_dst_ = dst;
    ttl_ = ttl;
    return *this;
  }
  PacketBuilder& tcp(std::uint16_t sport, std::uint16_t dport, std::uint32_t seq,
                     std::uint32_t ack, std::uint8_t flags, std::uint16_t window = 65535) {
    tcp_ = TcpHeader{};
    tcp_->src_port = sport;
    tcp_->dst_port = dport;
    tcp_->seq = seq;
    tcp_->ack = ack;
    tcp_->flags = flags;
    tcp_->window = window;
    udp_.reset();
    return *this;
  }
  PacketBuilder& tcp_option(TcpOption opt) {
    if (tcp_) tcp_->options.push_back(std::move(opt));
    return *this;
  }
  PacketBuilder& udp(std::uint16_t sport, std::uint16_t dport) {
    udp_ = UdpHeader{};
    udp_->src_port = sport;
    udp_->dst_port = dport;
    tcp_.reset();
    return *this;
  }
  PacketBuilder& payload(std::vector<std::byte> p) {
    payload_ = std::move(p);
    return *this;
  }
  PacketBuilder& payload(std::string_view s) {
    payload_ = core::to_bytes(s);
    return *this;
  }

  [[nodiscard]] Frame build() const;

 private:
  core::Timestamp timestamp_{};
  core::MacAddress eth_src_{{0x02, 0, 0, 0, 0, 1}};
  core::MacAddress eth_dst_{{0x02, 0, 0, 0, 0, 2}};
  core::IPv4Address ip_src_{};
  core::IPv4Address ip_dst_{};
  std::uint8_t ttl_ = 64;
  std::optional<TcpHeader> tcp_;
  std::optional<UdpHeader> udp_;
  std::vector<std::byte> payload_;
};

/// In-memory capture buffer; frames are kept in arrival order.
class Trace {
 public:
  void add(Frame frame) { frames_.push_back(std::move(frame)); }
  [[nodiscard]] std::size_t size() const noexcept { return frames_.size(); }
  [[nodiscard]] bool empty() const noexcept { return frames_.empty(); }
  [[nodiscard]] const Frame& operator[](std::size_t i) const noexcept { return frames_[i]; }
  [[nodiscard]] auto begin() const noexcept { return frames_.begin(); }
  [[nodiscard]] auto end() const noexcept { return frames_.end(); }

  /// Stable-sort frames by timestamp (generators may emit out of order).
  void sort_by_time();

 private:
  std::vector<Frame> frames_;
};

}  // namespace edgewatch::net
