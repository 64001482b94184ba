// Flow table, TCP state machine and RTT estimator tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "dpi/parsers.hpp"
#include "flow/table.hpp"
#include "net/packet.hpp"
#include "probe/probe.hpp"

namespace ew = edgewatch;
using ew::core::IPv4Address;
using ew::core::Timestamp;
using ew::flow::FlowCloseReason;
using ew::flow::FlowRecord;
using ew::flow::FlowTable;
using ew::flow::FlowTableConfig;
using ew::net::PacketBuilder;
using ew::net::TcpFlags;

namespace {

constexpr IPv4Address kClient{10, 0, 0, 5};
constexpr IPv4Address kServer{157, 240, 1, 1};

struct Harness {
  std::vector<FlowRecord> records;
  // Named sink object: FlowTable's ExportSink is a non-owning FunctionRef.
  struct Sink {
    Harness* h;
    void operator()(FlowRecord&& r) const { h->records.push_back(std::move(r)); }
  } sink{this};
  FlowTable table;

  explicit Harness(FlowTableConfig cfg = {}) : table(cfg, sink) {}

  void feed(const ew::net::Frame& frame) {
    const auto pkt = ew::net::decode_frame(frame);
    ASSERT_TRUE(pkt.has_value());
    table.ingest(*pkt);
    table.advance(frame.timestamp);
  }
};

Timestamp us(std::int64_t v) { return Timestamp{v}; }

/// A complete TCP conversation: handshake, client request, server response
/// (returns frames in time order). `rtt_us` is the probe→server delay.
std::vector<ew::net::Frame> tcp_conversation(std::int64_t t0, std::int64_t rtt_us,
                                             std::vector<std::byte> client_payload,
                                             std::size_t response_bytes,
                                             std::uint16_t cport = 40000) {
  std::vector<ew::net::Frame> frames;
  std::uint32_t cseq = 1000;
  std::uint32_t sseq = 9000;
  auto cl = [&](std::int64_t at, std::uint8_t flags, std::vector<std::byte> payload = {}) {
    auto b = PacketBuilder{}
                 .ts(us(at))
                 .ip(kClient, kServer)
                 .tcp(cport, 443, cseq, sseq, flags)
                 .payload(std::move(payload));
    frames.push_back(b.build());
  };
  auto sv = [&](std::int64_t at, std::uint8_t flags, std::size_t bytes = 0) {
    std::vector<std::byte> payload(bytes, std::byte{0x55});
    auto b = PacketBuilder{}
                 .ts(us(at))
                 .ip(kServer, kClient)
                 .tcp(443, cport, sseq, cseq, flags)
                 .payload(std::move(payload));
    frames.push_back(b.build());
  };

  cl(t0, TcpFlags::kSyn);
  cseq += 1;
  sv(t0 + rtt_us, TcpFlags::kSyn | TcpFlags::kAck);
  sseq += 1;
  cl(t0 + rtt_us + 50, TcpFlags::kAck);
  const auto req_len = static_cast<std::uint32_t>(client_payload.size());
  cl(t0 + rtt_us + 100, TcpFlags::kAck | TcpFlags::kPsh, std::move(client_payload));
  cseq += req_len;
  sv(t0 + 2 * rtt_us + 100, TcpFlags::kAck);  // ACK of the request
  sv(t0 + 2 * rtt_us + 200, TcpFlags::kAck | TcpFlags::kPsh, response_bytes);
  sseq += static_cast<std::uint32_t>(response_bytes);
  cl(t0 + 2 * rtt_us + 300, TcpFlags::kAck);
  cl(t0 + 2 * rtt_us + 400, TcpFlags::kFin | TcpFlags::kAck);
  cseq += 1;
  sv(t0 + 3 * rtt_us + 400, TcpFlags::kFin | TcpFlags::kAck);
  sseq += 1;
  cl(t0 + 3 * rtt_us + 500, TcpFlags::kAck);
  return frames;
}

}  // namespace

TEST(FlowTable, CompleteTlsConversationExportsOneRecord) {
  Harness h;
  const std::string alpn[] = {"h2"};
  auto frames = tcp_conversation(1'000'000, 20'000,
                                 ew::dpi::build_client_hello("www.facebook.com", alpn), 5000);
  for (const auto& f : frames) h.feed(f);
  // Teardown done; linger must elapse before export.
  h.table.advance(us(20'000'000));
  ASSERT_EQ(h.records.size(), 1u);
  const FlowRecord& r = h.records[0];
  EXPECT_EQ(r.client_ip, kClient);
  EXPECT_EQ(r.server_ip, kServer);
  EXPECT_EQ(r.server_port, 443);
  EXPECT_TRUE(r.handshake_completed);
  EXPECT_EQ(r.close_reason, FlowCloseReason::kTcpTeardown);
  EXPECT_EQ(r.server_name, "www.facebook.com");
  EXPECT_EQ(r.name_source, ew::flow::NameSource::kTlsSni);
  EXPECT_EQ(r.web, ew::dpi::WebProtocol::kHttp2);
  EXPECT_EQ(r.down.bytes, 5000u);
  EXPECT_GT(r.up.bytes, 0u);
  EXPECT_EQ(h.table.active_flows(), 0u);
}

TEST(FlowTable, RttSamplesMatchConfiguredDelay) {
  Harness h;
  const std::int64_t rtt = 30'000;  // 30 ms
  auto frames = tcp_conversation(0, rtt, ew::dpi::build_http_request("x.com"), 100);
  for (const auto& f : frames) h.feed(f);
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  const auto& stats = h.records[0].rtt;
  ASSERT_GE(stats.samples, 2u);  // SYN and the request segment
  EXPECT_NEAR(static_cast<double>(stats.min_us), rtt, 1000.0);
  EXPECT_NEAR(stats.min_ms(), 30.0, 1.0);
}

TEST(FlowTable, RstClosesImmediately) {
  Harness h;
  h.feed(PacketBuilder{}.ts(us(0)).ip(kClient, kServer).tcp(40000, 443, 1, 0, TcpFlags::kSyn).build());
  h.feed(PacketBuilder{}
             .ts(us(1000))
             .ip(kServer, kClient)
             .tcp(443, 40000, 0, 2, TcpFlags::kRst | TcpFlags::kAck)
             .build());
  h.table.advance(us(10'000'000));
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].close_reason, FlowCloseReason::kTcpReset);
  EXPECT_FALSE(h.records[0].handshake_completed);
}

TEST(FlowTable, IdleTimeoutExpiresUdpFlows) {
  FlowTableConfig cfg;
  cfg.udp_idle_timeout_us = 1'000'000;
  Harness h{cfg};
  h.feed(PacketBuilder{}.ts(us(0)).ip(kClient, kServer).udp(50000, 443).payload("x").build());
  EXPECT_EQ(h.table.active_flows(), 1u);
  h.table.advance(us(2'000'001));
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].close_reason, FlowCloseReason::kIdleTimeout);
  EXPECT_EQ(h.records[0].proto, ew::core::TransportProto::kUdp);
}

TEST(FlowTable, ActivityDefersIdleExpiry) {
  FlowTableConfig cfg;
  cfg.udp_idle_timeout_us = 1'000'000;
  Harness h{cfg};
  for (int i = 0; i < 5; ++i) {
    h.feed(PacketBuilder{}
               .ts(us(i * 900'000))
               .ip(kClient, kServer)
               .udp(50000, 443)
               .payload("ping")
               .build());
  }
  EXPECT_TRUE(h.records.empty());  // never idle long enough
  h.table.advance(us(5 * 900'000 + 1'000'001));
  EXPECT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].up.packets, 5u);
}

TEST(FlowTable, BidirectionalPacketsMapToOneFlow) {
  Harness h;
  h.feed(PacketBuilder{}.ts(us(0)).ip(kClient, kServer).udp(1234, 443).payload("abc").build());
  h.feed(PacketBuilder{}.ts(us(10)).ip(kServer, kClient).udp(443, 1234).payload("defgh").build());
  EXPECT_EQ(h.table.active_flows(), 1u);
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].up.bytes, 3u);
  EXPECT_EQ(h.records[0].down.bytes, 5u);
  EXPECT_EQ(h.records[0].client_ip, kClient);  // direction normalized
}

TEST(FlowTable, SynAckFirstFlipsRoles) {
  // Probe starts mid-handshake: first packet seen is the server's SYN-ACK.
  Harness h;
  h.feed(PacketBuilder{}
             .ts(us(0))
             .ip(kServer, kClient)
             .tcp(443, 40000, 0, 1, TcpFlags::kSyn | TcpFlags::kAck)
             .build());
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].client_ip, kClient);
  EXPECT_EQ(h.records[0].server_port, 443);
  EXPECT_EQ(h.records[0].down.packets, 1u);
}

TEST(FlowTable, DpiRunsOnFirstClientPayloadOnly) {
  Harness h;
  h.feed(PacketBuilder{}
             .ts(us(0))
             .ip(kClient, kServer)
             .tcp(40000, 80, 1, 0, TcpFlags::kAck | TcpFlags::kPsh)
             .payload(ew::dpi::build_http_request("first.com"))
             .build());
  h.feed(PacketBuilder{}
             .ts(us(10))
             .ip(kClient, kServer)
             .tcp(40000, 80, 500, 0, TcpFlags::kAck | TcpFlags::kPsh)
             .payload(ew::dpi::build_http_request("second.com"))
             .build());
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].server_name, "first.com");
}

TEST(FlowTable, MaxFlowsForcesEviction) {
  FlowTableConfig cfg;
  cfg.max_flows = 10;
  Harness h{cfg};
  for (std::uint16_t i = 0; i < 50; ++i) {
    h.feed(PacketBuilder{}
               .ts(us(i))
               .ip(kClient, kServer)
               .udp(static_cast<std::uint16_t>(10000 + i), 443)
               .payload("x")
               .build());
  }
  EXPECT_LE(h.table.active_flows(), 10u);
  EXPECT_GT(h.table.counters().forced_evictions, 0u);
  EXPECT_EQ(h.records.size() + h.table.active_flows(), 50u);  // nothing lost
}

TEST(FlowTable, FlushExportsEverythingOnce) {
  Harness h;
  for (std::uint16_t i = 0; i < 7; ++i) {
    h.feed(PacketBuilder{}
               .ts(us(i))
               .ip(kClient, kServer)
               .udp(static_cast<std::uint16_t>(20000 + i), 443)
               .payload("y")
               .build());
  }
  h.table.flush();
  EXPECT_EQ(h.records.size(), 7u);
  EXPECT_EQ(h.table.active_flows(), 0u);
  for (const auto& r : h.records) EXPECT_EQ(r.close_reason, FlowCloseReason::kProbeFlush);
  h.table.flush();
  EXPECT_EQ(h.records.size(), 7u);  // idempotent
}

// A table holding a few hundred flows of three kinds, created in port
// order: closed ones (TCP teardown or reset), ones carrying a DN-Hunter
// hint (with and without a DPI hostname), and plain active ones. Enough
// flows that the slot order differs from the creation order.
struct MixedFlows {
  static constexpr std::uint16_t kFlows = 300;
  static constexpr std::uint16_t kFirstPort = 20000;
  static constexpr std::string_view kHint = "hinted.example";
  enum class Kind { kActive, kHinted, kHintedHttp, kReset, kTeardown };

  static Kind kind(std::uint16_t port) { return static_cast<Kind>((port - kFirstPort) % 5); }

  static void fill(FlowTable& table) {
    std::int64_t t = 0;
    const auto feed = [&table, &t](PacketBuilder b) {
      const ew::net::Frame frame = b.ts(us(++t)).build();  // the packet views its bytes
      return table.ingest(ew::net::decode_frame(frame).value());
    };
    for (std::uint16_t i = 0; i < kFlows; ++i) {
      const auto port = static_cast<std::uint16_t>(kFirstPort + i);
      const IPv4Address client{10, 1, static_cast<std::uint8_t>(i / 200),
                               static_cast<std::uint8_t>(i % 200 + 1)};
      const auto from_client = [&] { return PacketBuilder{}.ip(client, kServer); };
      const auto from_server = [&] { return PacketBuilder{}.ip(kServer, client); };
      switch (kind(port)) {
        case Kind::kActive:
          feed(from_client().udp(port, 443).payload("y"));
          break;
        case Kind::kHinted:
          feed(from_client().udp(port, 443).payload("y"))->dns_hint = kHint;
          break;
        case Kind::kHintedHttp:
          feed(from_client()
                   .tcp(port, 80, 1, 1, TcpFlags::kAck | TcpFlags::kPsh)
                   .payload(ew::dpi::build_http_request("dpi.example")))
              ->dns_hint = kHint;
          break;
        case Kind::kReset:
          feed(from_client().tcp(port, 443, 1, 1, TcpFlags::kSyn));
          feed(from_server().tcp(443, port, 1, 2, TcpFlags::kRst));
          break;
        case Kind::kTeardown:
          feed(from_client().tcp(port, 443, 1, 1, TcpFlags::kFin | TcpFlags::kAck));
          feed(from_server().tcp(443, port, 1, 2, TcpFlags::kFin | TcpFlags::kAck));
          break;
      }
    }
  }

  /// Checks one exported record against the rules for its kind.
  static void expect_exported_as_its_kind(const FlowRecord& r) {
    switch (kind(r.client_port)) {
      case Kind::kActive:
        EXPECT_EQ(r.close_reason, FlowCloseReason::kProbeFlush);
        EXPECT_TRUE(r.server_name.empty());
        break;
      case Kind::kHinted:
        EXPECT_EQ(r.close_reason, FlowCloseReason::kProbeFlush);
        EXPECT_EQ(r.server_name, kHint);
        EXPECT_EQ(r.name_source, ew::flow::NameSource::kDnsHunter);
        break;
      case Kind::kHintedHttp:  // the hint only fills an empty name
        EXPECT_EQ(r.close_reason, FlowCloseReason::kProbeFlush);
        EXPECT_EQ(r.server_name, "dpi.example");
        EXPECT_EQ(r.name_source, ew::flow::NameSource::kHttpHost);
        break;
      case Kind::kReset:
        EXPECT_EQ(r.close_reason, FlowCloseReason::kTcpReset);
        break;
      case Kind::kTeardown:
        EXPECT_EQ(r.close_reason, FlowCloseReason::kTcpTeardown);
        break;
    }
  }
};

std::vector<std::uint16_t> live_ports(const FlowTable& table) {
  std::vector<std::uint16_t> ports;
  table.for_each_flow([&ports](const ew::core::FiveTuple& key, const ew::flow::FlowState&) {
    ports.push_back(key.src_port);
  });
  return ports;
}

TEST(FlowTable, FlushExportsInArrivalOrderWithCloseReasonsAndHints) {
  FlowTableConfig cfg;
  cfg.closed_linger_us = 3'600'000'000;  // closed flows stay until the flush
  Harness h{cfg};
  MixedFlows::fill(h.table);
  ASSERT_EQ(h.table.active_flows(), MixedFlows::kFlows);
  const auto slot_order = live_ports(h.table);
  ASSERT_FALSE(std::is_sorted(slot_order.begin(), slot_order.end()))
      << "the slot order must differ from the creation order for this test to bite";

  h.table.flush();
  ASSERT_EQ(h.records.size(), MixedFlows::kFlows);
  EXPECT_EQ(h.table.active_flows(), 0u);
  EXPECT_EQ(h.table.counters().flows_exported, MixedFlows::kFlows);
  for (std::size_t i = 0; i < h.records.size(); ++i) {
    const FlowRecord& r = h.records[i];
    EXPECT_EQ(r.client_port, MixedFlows::kFirstPort + i);  // creation order
    if (i > 0) {
      EXPECT_LT(h.records[i - 1].ingest_seq, r.ingest_seq);
    }
    MixedFlows::expect_exported_as_its_kind(r);
  }
}

TEST(FlowTable, FlushInterruptedBySinkKeepsExactlyTheUnexportedFlows) {
  // The sink throws on its k-th record. That record is lost with its flow;
  // the records before it are exported, the flows after it stay live.
  struct ThrowingSink {
    std::vector<FlowRecord>* out;
    std::size_t calls = 0;
    std::size_t throw_at = 0;  // 1-based; 0 never throws
    void operator()(FlowRecord&& r) {
      if (++calls == throw_at) throw std::runtime_error("sink failed");
      out->push_back(std::move(r));
    }
  };
  constexpr std::size_t k = 117;
  FlowTableConfig cfg;
  cfg.closed_linger_us = 3'600'000'000;
  std::vector<FlowRecord> records;
  ThrowingSink sink{&records, 0, k};
  FlowTable table{cfg, sink};
  MixedFlows::fill(table);

  EXPECT_THROW(table.flush(), std::runtime_error);
  ASSERT_EQ(records.size(), k - 1);
  EXPECT_EQ(table.counters().flows_exported, k);  // the failed hand-off counts
  auto left = live_ports(table);
  std::sort(left.begin(), left.end());
  std::vector<std::uint16_t> not_yet_exported;
  for (std::size_t i = k; i < MixedFlows::kFlows; ++i) {
    not_yet_exported.push_back(static_cast<std::uint16_t>(MixedFlows::kFirstPort + i));
  }
  EXPECT_EQ(left, not_yet_exported);

  sink.throw_at = 0;
  table.flush();
  EXPECT_EQ(table.active_flows(), 0u);
  EXPECT_EQ(table.counters().flows_exported, MixedFlows::kFlows);
  ASSERT_EQ(records.size(), MixedFlows::kFlows - 1);
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Creation order across both flushes, the lost k-th flow skipped.
    const std::size_t flow = i < k - 1 ? i : i + 1;
    EXPECT_EQ(records[i].client_port, MixedFlows::kFirstPort + flow);
    MixedFlows::expect_exported_as_its_kind(records[i]);
  }
}

// Property: under random interleavings of many conversations, every packet
// is attributed, no flow leaks, and export count matches flow count.
TEST(FlowTable, RandomInterleavingNeverLeaks) {
  FlowTableConfig cfg;
  cfg.tcp_idle_timeout_us = 3'600'000'000;  // effectively no idle expiry
  Harness h{cfg};
  ew::core::Xoshiro256 rng{1234};

  std::vector<std::vector<ew::net::Frame>> convs;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    convs.push_back(tcp_conversation(static_cast<std::int64_t>(i) * 1000, 5'000,
                                     ew::dpi::build_http_request("bulk.example"), 400,
                                     static_cast<std::uint16_t>(41000 + i)));
  }
  // Round-robin merge with random advancement: preserves per-flow order,
  // interleaves flows randomly.
  std::vector<std::size_t> next(convs.size(), 0);
  std::uint64_t total_packets = 0;
  while (true) {
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < convs.size(); ++i) {
      if (next[i] < convs[i].size()) alive.push_back(i);
    }
    if (alive.empty()) break;
    const auto pick = alive[ew::core::uniform_below(rng, alive.size())];
    h.feed(convs[pick][next[pick]++]);
    ++total_packets;
  }
  h.table.advance(us(3'700'000'000));
  EXPECT_EQ(h.records.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(h.table.active_flows(), 0u);
  std::uint64_t counted = 0;
  for (const auto& r : h.records) counted += r.up.packets + r.down.packets;
  EXPECT_EQ(counted, total_packets);
  for (const auto& r : h.records) {
    EXPECT_TRUE(r.handshake_completed);
    EXPECT_EQ(r.close_reason, FlowCloseReason::kTcpTeardown);
    EXPECT_EQ(r.server_name, "bulk.example");
  }
}

namespace {

// Scripted conversations for the slot-reuse tests. Each one sends its
// packets in one burst and then falls silent, so it ends by its own RST or
// FIN, by an idle timeout or by a max_flows eviction while later flows keep
// arriving and take over the slots it freed.
struct Conversation {
  enum class End { kUdpIdle, kReset, kTeardown, kTcpOpen };
  End end = End::kUdpIdle;
  std::uint16_t client_port = 0;
  std::vector<ew::net::Frame> frames;
  ew::flow::DirectionStats up, down;  // what the record must count
};

struct ReuseScenario {
  static constexpr std::uint16_t kConversations = 400;
  static constexpr std::uint16_t kFirstPort = 10000;

  /// ~25 conversations a second: UDP flows time out after 1 s, closed ones
  /// linger 0.2 s, and open TCP flows (4 s timeout) pile up past max_flows.
  static FlowTableConfig config() {
    FlowTableConfig cfg;
    cfg.udp_idle_timeout_us = 1'000'000;
    cfg.tcp_idle_timeout_us = 4'000'000;
    cfg.closed_linger_us = 200'000;
    cfg.max_flows = 30;
    return cfg;
  }

  static IPv4Address client(std::uint16_t i) {
    return IPv4Address{10, 2, static_cast<std::uint8_t>(i / 200),
                       static_cast<std::uint8_t>(i % 200 + 1)};
  }

  static std::vector<Conversation> make() {
    ew::core::Xoshiro256 rng{2025};
    std::vector<Conversation> convs;
    for (std::uint16_t i = 0; i < kConversations; ++i) {
      Conversation c;
      c.end = static_cast<Conversation::End>(ew::core::uniform_below(rng, 4));
      c.client_port = static_cast<std::uint16_t>(kFirstPort + i);
      std::int64_t t = static_cast<std::int64_t>(i) * 40'000;
      const bool tcp = c.end != Conversation::End::kUdpIdle;
      const auto send = [&](bool from_client, std::uint8_t flags, std::size_t bytes) {
        PacketBuilder b;
        b.ts(us(t += 1'000));
        if (from_client) {
          b.ip(client(i), kServer);
          tcp ? b.tcp(c.client_port, 443, 1, 1, flags) : b.udp(c.client_port, 443);
        } else {
          b.ip(kServer, client(i));
          tcp ? b.tcp(443, c.client_port, 1, 1, flags) : b.udp(443, c.client_port);
        }
        b.payload(std::vector<std::byte>(bytes, std::byte{0x5a}));
        c.frames.push_back(b.build());
        const auto pkt = ew::net::decode_frame(c.frames.back()).value();
        (from_client ? c.up : c.down).add(pkt.transport_payload_declared(), pkt.ip.total_length);
      };
      if (tcp) {
        send(true, TcpFlags::kSyn, 0);
        send(false, TcpFlags::kSyn | TcpFlags::kAck, 0);
      }
      const auto exchanges = 1 + ew::core::uniform_below(rng, 3);
      for (std::uint64_t k = 0; k < exchanges; ++k) {
        send(true, TcpFlags::kAck | TcpFlags::kPsh, 1 + ew::core::uniform_below(rng, 300));
        send(false, TcpFlags::kAck | TcpFlags::kPsh, ew::core::uniform_below(rng, 900));
      }
      if (c.end == Conversation::End::kReset) send(false, TcpFlags::kRst, 0);
      if (c.end == Conversation::End::kTeardown) {
        send(true, TcpFlags::kFin | TcpFlags::kAck, 0);
        send(false, TcpFlags::kFin | TcpFlags::kAck, 0);
      }
      convs.push_back(std::move(c));
    }
    return convs;
  }

  static std::vector<ew::net::Frame> frames(const std::vector<Conversation>& convs) {
    std::vector<ew::net::Frame> all;
    for (const auto& c : convs) all.insert(all.end(), c.frames.begin(), c.frames.end());
    return all;
  }

  /// `record` must be exactly its conversation's flow; `flushed` says whether
  /// flush() exported it rather than a close or a timeout.
  static void expect_matches(const std::vector<Conversation>& convs, const FlowRecord& record,
                             bool flushed) {
    ASSERT_GE(record.client_port, kFirstPort);
    ASSERT_LT(record.client_port, kFirstPort + kConversations);
    const auto i = static_cast<std::uint16_t>(record.client_port - kFirstPort);
    const Conversation& c = convs[i];
    SCOPED_TRACE(testing::Message() << "conversation " << i);
    EXPECT_EQ(record.client_ip, client(i));
    EXPECT_EQ(record.server_ip, kServer);
    EXPECT_EQ(record.server_port, 443);
    EXPECT_EQ(record.proto, c.end == Conversation::End::kUdpIdle ? ew::core::TransportProto::kUdp
                                                                 : ew::core::TransportProto::kTcp);
    EXPECT_EQ(record.up.packets, c.up.packets);
    EXPECT_EQ(record.up.bytes, c.up.bytes);
    EXPECT_EQ(record.up.bytes_with_hdr, c.up.bytes_with_hdr);
    EXPECT_EQ(record.down.packets, c.down.packets);
    EXPECT_EQ(record.down.bytes, c.down.bytes);
    EXPECT_EQ(record.down.bytes_with_hdr, c.down.bytes_with_hdr);
    EXPECT_EQ(record.first_packet, c.frames.front().timestamp);
    EXPECT_EQ(record.last_packet, c.frames.back().timestamp);
    EXPECT_EQ(record.handshake_completed, c.end != Conversation::End::kUdpIdle);
    switch (c.end) {
      case Conversation::End::kReset:
        EXPECT_EQ(record.close_reason, FlowCloseReason::kTcpReset);
        break;
      case Conversation::End::kTeardown:
        EXPECT_EQ(record.close_reason, FlowCloseReason::kTcpTeardown);
        break;
      default:
        EXPECT_EQ(record.close_reason,
                  flushed ? FlowCloseReason::kProbeFlush : FlowCloseReason::kIdleTimeout);
        break;
    }
  }
};

}  // namespace

TEST(FlowTable, ReusedSlotsExportEachConversationExactly) {
  const auto convs = ReuseScenario::make();
  Harness h{ReuseScenario::config()};
  for (const auto& c : convs) {
    for (const auto& f : c.frames) h.feed(f);
  }
  const auto& counters = h.table.counters();
  // Every way a flow can end mid-stream happened, so later flows reused
  // the freed slots; and flows are still live for the flush.
  EXPECT_GT(counters.expired_idle, 0u);
  EXPECT_GT(counters.closed_reset, 0u);
  EXPECT_GT(counters.closed_teardown, 0u);
  EXPECT_GT(counters.forced_evictions, 0u);
  const std::size_t before_flush = h.records.size();
  ASSERT_GE(h.table.active_flows(), 10u);

  h.table.flush();
  ASSERT_EQ(h.records.size(), ReuseScenario::kConversations);  // one record per conversation
  EXPECT_EQ(counters.flows_created, ReuseScenario::kConversations);
  std::vector<bool> seen(ReuseScenario::kConversations, false);
  for (std::size_t i = 0; i < h.records.size(); ++i) {
    const FlowRecord& r = h.records[i];
    ReuseScenario::expect_matches(convs, r, i >= before_flush);
    const auto conv = static_cast<std::size_t>(r.client_port - ReuseScenario::kFirstPort);
    EXPECT_FALSE(seen[conv]) << "conversation " << conv << " exported twice";
    seen[conv] = true;
  }
  // The flush exports in arrival order, whichever slots the flows took.
  for (std::size_t i = before_flush + 1; i < h.records.size(); ++i) {
    EXPECT_LT(h.records[i - 1].ingest_seq, h.records[i].ingest_seq);
    EXPECT_LT(h.records[i - 1].client_port, h.records[i].client_port);
  }
}

TEST(FlowTable, CheckpointWithSlabHolesContinuesToTheUninterruptedRecords) {
  const auto convs = ReuseScenario::make();
  const auto frames = ReuseScenario::frames(convs);
  ew::probe::ProbeConfig config;
  config.flow = ReuseScenario::config();
  const auto run = [&config](std::vector<FlowRecord>& out) {
    return ew::probe::Probe{config, [&out](FlowRecord&& r) { out.push_back(std::move(r)); }};
  };

  std::vector<FlowRecord> uninterrupted;
  {
    auto probe = run(uninterrupted);
    probe.process(std::span<const ew::net::Frame>(frames));
    probe.finish();
  }
  ASSERT_EQ(uninterrupted.size(), ReuseScenario::kConversations);

  // Checkpoint mid-capture: flows have ended and freed slots that newer
  // flows only partly took over, and dozens of flows are live.
  const std::size_t cut = frames.size() / 2;
  std::vector<FlowRecord> resumed;
  std::vector<std::byte> image;
  {
    auto before = run(resumed);
    before.process(std::span<const ew::net::Frame>(frames).first(cut));
    ASSERT_GT(before.table().counters().flows_exported, 0u);
    ASSERT_GE(before.table().active_flows(), 10u);
    image = before.checkpoint_image();
  }
  const std::size_t exported_before = resumed.size();
  {
    auto after = run(resumed);
    ASSERT_TRUE(after.restore_image(image).ok());
    after.process(std::span<const ew::net::Frame>(frames).subspan(cut));
    after.finish();
  }
  ASSERT_GT(resumed.size(), exported_before);
  ASSERT_EQ(resumed.size(), uninterrupted.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    EXPECT_EQ(resumed[i].to_csv_row(), uninterrupted[i].to_csv_row());
    EXPECT_EQ(resumed[i].ingest_seq, uninterrupted[i].ingest_seq);
  }
}

TEST(FlowTable, SplitClientHelloIsReassembledForDpi) {
  // A ClientHello cut across two TCP segments must still yield the SNI —
  // the DPI stage buffers the client stream until the message parses.
  Harness h;
  const auto hello = ew::dpi::build_client_hello("www.netflix.com", {});
  const std::size_t cut = hello.size() / 2;
  std::vector<std::byte> part1(hello.begin(), hello.begin() + static_cast<long>(cut));
  std::vector<std::byte> part2(hello.begin() + static_cast<long>(cut), hello.end());

  h.feed(PacketBuilder{}
             .ts(us(0))
             .ip(kClient, kServer)
             .tcp(40000, 443, 1000, 0, TcpFlags::kAck | TcpFlags::kPsh)
             .payload(std::move(part1))
             .build());
  h.feed(PacketBuilder{}
             .ts(us(100))
             .ip(kClient, kServer)
             .tcp(40000, 443, 1000 + static_cast<std::uint32_t>(cut), 0,
                  TcpFlags::kAck | TcpFlags::kPsh)
             .payload(std::move(part2))
             .build());
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].server_name, "www.netflix.com");
  EXPECT_EQ(h.records[0].l7, ew::dpi::L7Protocol::kTls);
}

TEST(FlowTable, DpiBufferGivesUpAtLimit) {
  FlowTableConfig cfg;
  cfg.dpi_buffer_limit = 64;
  Harness h{cfg};
  // A TLS record header promising a huge ClientHello that never completes:
  // the table must stop buffering at the limit and still export the flow.
  std::vector<std::byte> first =
      ew::core::to_bytes(std::string("\x16\x03\x01\x7f\xff\x01", 6));
  first.resize(40, std::byte{0x41});
  std::uint32_t seq = 1000;
  for (int i = 0; i < 5; ++i) {
    std::vector<std::byte> payload =
        i == 0 ? first : std::vector<std::byte>(40, std::byte{0x41});
    h.feed(PacketBuilder{}
               .ts(us(i * 100))
               .ip(kClient, kServer)
               .tcp(40000, 443, seq, 0, TcpFlags::kAck)
               .payload(std::move(payload))
               .build());
    seq += 40;
  }
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);  // flow exported despite inconclusive DPI
  EXPECT_EQ(h.records[0].l7, ew::dpi::L7Protocol::kTls);  // record framing detected
  EXPECT_TRUE(h.records[0].server_name.empty());
}

TEST(FlowTable, RetransmissionsCounted) {
  Harness h;
  auto data = [&](std::int64_t at, std::uint32_t seq) {
    h.feed(PacketBuilder{}
               .ts(us(at))
               .ip(kClient, kServer)
               .tcp(40000, 443, seq, 0, TcpFlags::kAck)
               .payload(std::vector<std::byte>(100, std::byte{0x42}))
               .build());
  };
  data(0, 1000);
  data(100, 1100);   // in order
  data(200, 1000);   // full retransmission
  data(300, 1100);   // another retransmission
  data(400, 1200);   // back in order
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].up.retransmits, 2u);
  EXPECT_EQ(h.records[0].up.out_of_order, 0u);
}

TEST(FlowTable, OutOfOrderCounted) {
  Harness h;
  auto data = [&](std::int64_t at, std::uint32_t seq) {
    h.feed(PacketBuilder{}
               .ts(us(at))
               .ip(kClient, kServer)
               .tcp(40000, 443, seq, 0, TcpFlags::kAck)
               .payload(std::vector<std::byte>(100, std::byte{0x42}))
               .build());
  };
  data(0, 1000);
  data(100, 1300);  // hole: 1100..1299 missing
  data(200, 1100);  // late fill (inside seen space -> counted retransmit)
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].up.out_of_order, 1u);
  EXPECT_EQ(h.records[0].up.retransmits, 1u);
}

TEST(FlowTable, CleanConversationHasNoAnomalies) {
  Harness h;
  auto frames = tcp_conversation(0, 10'000, ew::dpi::build_http_request("x.com"), 2000);
  for (const auto& f : frames) h.feed(f);
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].up.retransmits, 0u);
  EXPECT_EQ(h.records[0].up.out_of_order, 0u);
  EXPECT_EQ(h.records[0].down.retransmits, 0u);
  EXPECT_EQ(h.records[0].down.out_of_order, 0u);
}

TEST(FlowTable, NegotiatedAlpnOverridesOfferedAlpn) {
  // Client offers h2 + http/1.1, server selects http/1.1: the record must
  // say plain TLS, not HTTP/2.
  Harness h;
  const std::string offered[] = {"h2", "http/1.1"};
  h.feed(PacketBuilder{}
             .ts(us(0))
             .ip(kClient, kServer)
             .tcp(40000, 443, 1000, 500, TcpFlags::kAck | TcpFlags::kPsh)
             .payload(ew::dpi::build_client_hello("www.example.com", offered))
             .build());
  h.feed(PacketBuilder{}
             .ts(us(100))
             .ip(kServer, kClient)
             .tcp(443, 40000, 500, 2000, TcpFlags::kAck | TcpFlags::kPsh)
             .payload(ew::dpi::build_server_hello("http/1.1"))
             .build());
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].web, ew::dpi::WebProtocol::kTls);

  // And the other way: offered http/1.1-only label upgrades when the
  // server actually selects h2 (unusual but legal).
  Harness h2;
  const std::string offered2[] = {"http/1.1", "h2"};
  h2.feed(PacketBuilder{}
              .ts(us(0))
              .ip(kClient, kServer)
              .tcp(40001, 443, 1000, 500, TcpFlags::kAck | TcpFlags::kPsh)
              .payload(ew::dpi::build_client_hello("www.example.com", offered2))
              .build());
  h2.feed(PacketBuilder{}
              .ts(us(100))
              .ip(kServer, kClient)
              .tcp(443, 40001, 500, 2000, TcpFlags::kAck | TcpFlags::kPsh)
              .payload(ew::dpi::build_server_hello("h2"))
              .build());
  h2.table.flush();
  ASSERT_EQ(h2.records.size(), 1u);
  EXPECT_EQ(h2.records[0].web, ew::dpi::WebProtocol::kHttp2);
}

TEST(FlowTable, HttpTransactionFieldsCaptured) {
  Harness h;
  h.feed(PacketBuilder{}
             .ts(us(0))
             .ip(kClient, kServer)
             .tcp(40000, 80, 1000, 500, TcpFlags::kAck | TcpFlags::kPsh)
             .payload(ew::dpi::build_http_request("cdn.example.org", "/v.mp4"))
             .build());
  h.feed(PacketBuilder{}
             .ts(us(100))
             .ip(kServer, kClient)
             .tcp(80, 40000, 500, 2000, TcpFlags::kAck | TcpFlags::kPsh)
             .payload(ew::dpi::build_http_response(206, "video/mp4", 1000))
             .build());
  h.table.flush();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].http_status, 206);
  EXPECT_EQ(h.records[0].content_type, "video/mp4");
  EXPECT_EQ(h.records[0].server_name, "cdn.example.org");
}

// ----------------------------------------------------------------- RTT

TEST(RttEstimator, SinglePacketExchange) {
  ew::flow::RttEstimator est;
  ew::flow::RttStats stats;
  est.on_client_segment(100, 200, us(1000));
  est.on_server_ack(200, us(26'000), stats);
  ASSERT_EQ(stats.samples, 1u);
  EXPECT_EQ(stats.min_us, 25'000);
}

TEST(RttEstimator, KarnRuleSkipsRetransmissions) {
  ew::flow::RttEstimator est;
  ew::flow::RttStats stats;
  est.on_client_segment(100, 200, us(0));
  est.on_client_segment(100, 200, us(50'000));  // retransmission
  est.on_server_ack(200, us(60'000), stats);
  EXPECT_EQ(stats.samples, 0u);  // ambiguous ACK produced no sample
}

TEST(RttEstimator, CumulativeAckSamplesAllCoveredSegments) {
  ew::flow::RttEstimator est;
  ew::flow::RttStats stats;
  est.on_client_segment(0, 1000, us(0));
  est.on_client_segment(1000, 2000, us(100));
  est.on_client_segment(2000, 3000, us(200));
  est.on_server_ack(3000, us(10'000), stats);
  EXPECT_EQ(stats.samples, 3u);
  EXPECT_EQ(stats.max_us, 10'000);
  EXPECT_EQ(stats.min_us, 9'800);
}

TEST(RttEstimator, PartialAckLeavesTailOutstanding) {
  ew::flow::RttEstimator est;
  ew::flow::RttStats stats;
  est.on_client_segment(0, 1000, us(0));
  est.on_client_segment(1000, 2000, us(10));
  est.on_server_ack(1000, us(5000), stats);
  EXPECT_EQ(stats.samples, 1u);
  EXPECT_EQ(est.outstanding(), 1u);
}

TEST(RttEstimator, SequenceWraparoundHandled) {
  ew::flow::RttEstimator est;
  ew::flow::RttStats stats;
  const std::uint32_t near_max = 0xFFFFFF00u;
  est.on_client_segment(near_max, near_max + 0x200, us(0));  // wraps past 0
  est.on_server_ack(0x100, us(7000), stats);                 // post-wrap ACK
  ASSERT_EQ(stats.samples, 1u);
  EXPECT_EQ(stats.min_us, 7000);
}

TEST(RttEstimator, OutstandingBounded) {
  ew::flow::RttEstimator est;
  for (std::uint32_t i = 0; i < 100; ++i) {
    est.on_client_segment(i * 1000, i * 1000 + 500, us(i));
  }
  EXPECT_LE(est.outstanding(), ew::flow::RttEstimator::kMaxOutstanding);
}

TEST(RttStats, MinAvgMaxBookkeeping) {
  ew::flow::RttStats stats;
  stats.add(10'000);
  stats.add(30'000);
  stats.add(20'000);
  EXPECT_EQ(stats.samples, 3u);
  EXPECT_EQ(stats.min_us, 10'000);
  EXPECT_EQ(stats.max_us, 30'000);
  EXPECT_NEAR(stats.avg_us, 20'000.0, 1.0);
}

TEST(FlowRecord, CsvRowHasAllColumns) {
  FlowRecord r;
  r.client_ip = kClient;
  r.server_ip = kServer;
  r.server_name = "web.whatsapp.com";
  const auto row = r.to_csv_row();
  // 28 columns -> 27 commas.
  EXPECT_EQ(std::count(row.begin(), row.end(), ','), 27);
  EXPECT_NE(row.find("web.whatsapp.com"), std::string::npos);
}
