// End-to-end probe tests: packets in, anonymized/named/classified flow
// records out; DN-Hunter integration; outages; software upgrades;
// checkpoint/restore across a planned restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "core/hash.hpp"
#include "dns/message.hpp"
#include "dpi/parsers.hpp"
#include "net/packet.hpp"
#include "probe/probe.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
using ew::core::IPv4Address;
using ew::core::Timestamp;
using ew::flow::FlowRecord;
using ew::net::PacketBuilder;
using ew::net::TcpFlags;
using ew::probe::Probe;
using ew::probe::ProbeConfig;

namespace {

constexpr IPv4Address kAdslClient{10, 0, 3, 7};     // inside 10.0.0.0/8, not FTTH half
constexpr IPv4Address kFtthClient{10, 200, 1, 2};   // inside 10.128.0.0/9
constexpr IPv4Address kServer{31, 13, 86, 36};
constexpr IPv4Address kResolver{10, 255, 255, 53};

struct ProbeHarness {
  std::vector<FlowRecord> records;
  Probe probe;

  explicit ProbeHarness(ProbeConfig cfg = {})
      : probe(cfg, [this](FlowRecord&& r) { records.push_back(std::move(r)); }) {}

  void dns_reply(IPv4Address client, const char* name, IPv4Address addr, std::int64_t at_us) {
    const IPv4Address addrs[] = {addr};
    const auto msg = ew::dns::make_a_response(42, name, addrs);
    probe.process(PacketBuilder{}
                      .ts(Timestamp{at_us})
                      .ip(kResolver, client)
                      .udp(53, 40053)
                      .payload(ew::dns::serialize(msg))
                      .build());
  }

  void tls_flow(IPv4Address client, std::uint16_t cport, std::string_view sni,
                std::int64_t at_us, std::size_t down_bytes = 2000) {
    probe.process(PacketBuilder{}
                      .ts(Timestamp{at_us})
                      .ip(client, kServer)
                      .tcp(cport, 443, 1, 0, TcpFlags::kSyn)
                      .build());
    probe.process(PacketBuilder{}
                      .ts(Timestamp{at_us + 3000})
                      .ip(kServer, client)
                      .tcp(443, cport, 100, 2, TcpFlags::kSyn | TcpFlags::kAck)
                      .build());
    probe.process(PacketBuilder{}
                      .ts(Timestamp{at_us + 3100})
                      .ip(client, kServer)
                      .tcp(cport, 443, 2, 101, TcpFlags::kAck | TcpFlags::kPsh)
                      .payload(ew::dpi::build_client_hello(sni, {}))
                      .build());
    std::vector<std::byte> body(down_bytes, std::byte{0x77});
    probe.process(PacketBuilder{}
                      .ts(Timestamp{at_us + 6000})
                      .ip(kServer, client)
                      .tcp(443, cport, 101, 600, TcpFlags::kAck | TcpFlags::kPsh)
                      .payload(std::move(body))
                      .build());
  }
};

}  // namespace

TEST(Probe, AnonymizesCustomerKeepsServer) {
  ProbeHarness h;
  h.tls_flow(kAdslClient, 44000, "www.facebook.com", 1'000'000);
  h.probe.finish();
  ASSERT_EQ(h.records.size(), 1u);
  const auto& r = h.records[0];
  EXPECT_NE(r.client_ip, kAdslClient);           // anonymized
  EXPECT_EQ(r.server_ip, kServer);               // untouched
  EXPECT_EQ(r.server_name, "www.facebook.com");  // SNI
  EXPECT_EQ(r.name_source, ew::flow::NameSource::kTlsSni);
}

TEST(Probe, AnonymizationConsistentAcrossFlows) {
  ProbeHarness h;
  h.tls_flow(kAdslClient, 44001, "a.example", 1'000'000);
  h.tls_flow(kAdslClient, 44002, "b.example", 2'000'000);
  h.probe.finish();
  ASSERT_EQ(h.records.size(), 2u);
  EXPECT_EQ(h.records[0].client_ip, h.records[1].client_ip);
}

TEST(Probe, AccessTechFromPrefix) {
  ProbeHarness h;
  h.tls_flow(kAdslClient, 44000, "x.example", 1'000'000);
  h.tls_flow(kFtthClient, 44000, "x.example", 2'000'000);
  h.probe.finish();
  ASSERT_EQ(h.records.size(), 2u);
  // Export order is not defined; check the multiset of labels.
  int adsl = 0, ftth = 0;
  for (const auto& r : h.records) {
    adsl += r.access == ew::flow::AccessTech::kAdsl;
    ftth += r.access == ew::flow::AccessTech::kFtth;
  }
  EXPECT_EQ(adsl, 1);
  EXPECT_EQ(ftth, 1);
}

TEST(Probe, DnHunterNamesSniLessFlows) {
  ProbeHarness h;
  h.dns_reply(kAdslClient, "api.whatsapp.net", kServer, 500'000);
  // Open a raw TCP flow with no TLS/HTTP payload: only DNS can name it.
  h.probe.process(PacketBuilder{}
                      .ts(Timestamp{600'000})
                      .ip(kAdslClient, kServer)
                      .tcp(45000, 5222, 1, 0, TcpFlags::kSyn)
                      .build());
  h.probe.process(PacketBuilder{}
                      .ts(Timestamp{610'000})
                      .ip(kAdslClient, kServer)
                      .tcp(45000, 5222, 2, 0, TcpFlags::kAck | TcpFlags::kPsh)
                      .payload("\x01\x02\x03 opaque app bytes")
                      .build());
  h.probe.finish();
  ASSERT_EQ(h.records.size(), 2u);  // DNS flow + app flow
  // Export order is not defined; the app flow is the TCP one.
  const auto* app = &h.records[0];
  if (app->proto != ew::core::TransportProto::kTcp) app = &h.records[1];
  EXPECT_EQ(app->server_name, "api.whatsapp.net");
  EXPECT_EQ(app->name_source, ew::flow::NameSource::kDnsHunter);
  EXPECT_EQ(h.probe.counters().records_named_by_dns, 1u);
}

TEST(Probe, SniBeatsDnHunter) {
  ProbeHarness h;
  h.dns_reply(kAdslClient, "cdn.fbcdn.net", kServer, 500'000);
  h.tls_flow(kAdslClient, 44100, "www.instagram.com", 600'000);
  h.probe.finish();
  ASSERT_EQ(h.records.size(), 2u);
  const auto* app = &h.records[0];
  if (app->proto != ew::core::TransportProto::kTcp) app = &h.records[1];
  EXPECT_EQ(app->server_name, "www.instagram.com");
  EXPECT_EQ(app->name_source, ew::flow::NameSource::kTlsSni);
}

TEST(Probe, DnsFlowItselfIsRecorded) {
  ProbeHarness h;
  // The query opens the flow (customer is the initiator, as on real links),
  // the response follows on the reverse path.
  const IPv4Address addrs[] = {kServer};
  auto query = ew::dns::make_a_response(42, "x.com", addrs);
  query.is_response = false;
  query.answers.clear();
  h.probe.process(PacketBuilder{}
                      .ts(Timestamp{50})
                      .ip(kAdslClient, kResolver)
                      .udp(40053, 53)
                      .payload(ew::dns::serialize(query))
                      .build());
  h.dns_reply(kAdslClient, "x.com", kServer, 100);
  h.probe.finish();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].proto, ew::core::TransportProto::kUdp);
  EXPECT_EQ(h.records[0].server_port, 53);
  EXPECT_EQ(h.records[0].l7, ew::dpi::L7Protocol::kDns);
  EXPECT_EQ(h.records[0].up.packets, 1u);
  EXPECT_EQ(h.records[0].down.packets, 1u);
}

TEST(Probe, OutageDropsTrafficAndState) {
  ProbeHarness h;
  h.tls_flow(kAdslClient, 44000, "lost.example", 1'000'000);
  h.probe.begin_outage();  // flow above is lost, not exported
  EXPECT_EQ(h.records.size(), 0u);
  h.tls_flow(kAdslClient, 44001, "alsolost.example", 2'000'000);
  EXPECT_GT(h.probe.counters().dropped_offline, 0u);
  h.probe.end_outage();
  h.tls_flow(kAdslClient, 44002, "seen.example", 3'000'000);
  h.probe.finish();
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].server_name, "seen.example");
  EXPECT_EQ(h.probe.counters().records_exported, 1u);
}

TEST(Probe, ClassifierUpgradeChangesLabels) {
  ProbeHarness h;
  ew::dpi::ClassifierOptions legacy;
  legacy.report_spdy = false;
  h.probe.set_classifier_options(legacy);

  auto spdy_flow = [&](std::uint16_t port, std::int64_t at) {
    const std::string alpn[] = {"spdy/3.1"};
    h.probe.process(PacketBuilder{}
                        .ts(Timestamp{at})
                        .ip(kAdslClient, kServer)
                        .tcp(port, 443, 1, 0, TcpFlags::kAck | TcpFlags::kPsh)
                        .payload(ew::dpi::build_client_hello("www.google.com", alpn))
                        .build());
  };
  spdy_flow(46000, 1'000'000);
  h.probe.set_classifier_options(ew::dpi::ClassifierOptions{});  // upgrade (event C)
  spdy_flow(46001, 2'000'000);
  h.probe.finish();
  ASSERT_EQ(h.records.size(), 2u);
  int spdy = 0, tls = 0;
  for (const auto& r : h.records) {
    spdy += r.web == ew::dpi::WebProtocol::kSpdy;
    tls += r.web == ew::dpi::WebProtocol::kTls;
  }
  EXPECT_EQ(spdy, 1);
  EXPECT_EQ(tls, 1);
}

TEST(Probe, MalformedFramesCountedNotFatal) {
  ProbeHarness h;
  ew::net::Frame garbage;
  garbage.data = ew::core::to_bytes("too short");
  h.probe.process(garbage);
  EXPECT_EQ(h.probe.counters().decode_failures, 1u);
  h.tls_flow(kAdslClient, 44000, "ok.example", 1'000'000);
  h.probe.finish();
  EXPECT_EQ(h.records.size(), 1u);
}

TEST(Probe, Ipv6FramesCountedNotTracked) {
  ProbeHarness h;
  // Minimal Ethernet frame with ethertype 0x86dd and a stub body.
  ew::net::Frame v6;
  v6.data.resize(40, std::byte{0});
  v6.data[12] = std::byte{0x86};
  v6.data[13] = std::byte{0xdd};
  h.probe.process(v6);
  EXPECT_EQ(h.probe.counters().ipv6_frames, 1u);
  EXPECT_EQ(h.probe.counters().decode_failures, 0u);
  h.probe.finish();
  EXPECT_TRUE(h.records.empty());
}

TEST(Probe, RttMeasuredThroughProbe) {
  ProbeHarness h;
  h.tls_flow(kAdslClient, 44000, "rtt.example", 1'000'000);  // 3 ms SYN-ACK delay
  h.probe.finish();
  ASSERT_EQ(h.records.size(), 1u);
  ASSERT_GT(h.records[0].rtt.samples, 0u);
  EXPECT_NEAR(h.records[0].rtt.min_ms(), 2.9, 0.5);
}

// -------------------------------------------------- checkpoint / restore

namespace {

/// A checkpoint path inside a per-test scratch directory.
struct TempCheckpoint {
  ew::testing::TempDir dir{"ewckpt"};
  std::filesystem::path path = dir.path / "probe.ckpt";
};

}  // namespace

TEST(ProbeCheckpoint, ResumesMidFlowAcrossRestart) {
  TempCheckpoint ckpt;

  // Before the restart: a DNS resolution and the first half of a TCP
  // handshake. Both live only in probe state at this point.
  ProbeHarness a;
  a.dns_reply(kAdslClient, "api.whatsapp.net", kServer, 500'000);
  a.probe.process(PacketBuilder{}
                      .ts(Timestamp{600'000})
                      .ip(kAdslClient, kServer)
                      .tcp(45000, 5222, 1, 0, TcpFlags::kSyn)
                      .build());
  const auto saved = a.probe.save_checkpoint(ckpt.path);
  ASSERT_TRUE(saved.has_value());
  EXPECT_GT(*saved, 0u);
  EXPECT_TRUE(a.records.empty());

  // After the restart: a fresh probe with the same config resumes.
  ProbeHarness b;
  ASSERT_TRUE(b.probe.restore_checkpoint(ckpt.path).ok());
  b.probe.process(PacketBuilder{}
                      .ts(Timestamp{603'000})
                      .ip(kServer, kAdslClient)
                      .tcp(5222, 45000, 100, 2, TcpFlags::kSyn | TcpFlags::kAck)
                      .build());
  b.probe.process(PacketBuilder{}
                      .ts(Timestamp{610'000})
                      .ip(kAdslClient, kServer)
                      .tcp(45000, 5222, 2, 101, TcpFlags::kAck | TcpFlags::kPsh)
                      .payload("\x01\x02\x03 opaque app bytes")
                      .build());
  b.probe.finish();

  // DNS flow + app flow, exactly as an uninterrupted probe would export
  // (export order is not defined — find the app flow by port).
  ASSERT_EQ(b.records.size(), 2u);
  const auto* app = &b.records[0];
  if (app->server_port != 5222) app = &b.records[1];
  ASSERT_EQ(app->server_port, 5222);
  // The DN-Hunter hint attached before the restart survived it.
  EXPECT_EQ(app->server_name, "api.whatsapp.net");
  EXPECT_EQ(app->name_source, ew::flow::NameSource::kDnsHunter);
  // The SYN was tracked pre-restart, the SYN-ACK matched post-restart:
  // the RTT estimator's outstanding queue crossed the checkpoint intact.
  EXPECT_TRUE(app->handshake_completed);
  ASSERT_GT(app->rtt.samples, 0u);
  EXPECT_NEAR(app->rtt.min_ms(), 3.0, 0.5);
  // Counters are cumulative across the restart.
  EXPECT_GE(b.probe.counters().frames, a.probe.counters().frames);
  EXPECT_EQ(b.probe.counters().dns_responses, 1u);
}

TEST(ProbeCheckpoint, MatchesUninterruptedRun) {
  TempCheckpoint ckpt;

  ProbeHarness uninterrupted;
  uninterrupted.dns_reply(kAdslClient, "cdn.example.net", kServer, 100'000);
  uninterrupted.tls_flow(kAdslClient, 44100, "www.instagram.com", 600'000);
  uninterrupted.probe.finish();

  ProbeHarness first;
  first.dns_reply(kAdslClient, "cdn.example.net", kServer, 100'000);
  ASSERT_TRUE(first.probe.save_checkpoint(ckpt.path).has_value());
  ProbeHarness second;
  ASSERT_TRUE(second.probe.restore_checkpoint(ckpt.path).ok());
  second.tls_flow(kAdslClient, 44100, "www.instagram.com", 600'000);
  second.probe.finish();

  ASSERT_EQ(second.records.size(), uninterrupted.records.size());
  const auto by_port = [](const FlowRecord& a, const FlowRecord& b) {
    return std::tie(a.server_port, a.client_port) < std::tie(b.server_port, b.client_port);
  };
  std::sort(second.records.begin(), second.records.end(), by_port);
  std::sort(uninterrupted.records.begin(), uninterrupted.records.end(), by_port);
  for (std::size_t i = 0; i < second.records.size(); ++i) {
    EXPECT_EQ(second.records[i].server_name, uninterrupted.records[i].server_name);
    EXPECT_EQ(second.records[i].client_ip, uninterrupted.records[i].client_ip);
    EXPECT_EQ(second.records[i].up.bytes, uninterrupted.records[i].up.bytes);
    EXPECT_EQ(second.records[i].down.bytes, uninterrupted.records[i].down.bytes);
  }
  EXPECT_EQ(second.probe.counters().records_exported,
            uninterrupted.probe.counters().records_exported);
  EXPECT_EQ(second.probe.dnhunter().size(), uninterrupted.probe.dnhunter().size());
}

TEST(ProbeCheckpoint, RejectsDamagedFiles) {
  TempCheckpoint ckpt;
  ProbeHarness a;
  a.dns_reply(kAdslClient, "x.example", kServer, 100);
  a.tls_flow(kAdslClient, 44000, "y.example", 1'000'000);
  ASSERT_TRUE(a.probe.save_checkpoint(ckpt.path).has_value());

  ProbeHarness b;
  EXPECT_EQ(b.probe.restore_checkpoint("/nonexistent/probe.ckpt").error(),
            ew::core::Errc::kNotFound);

  // Flip one payload bit: the CRC must catch it.
  auto contents = [&] {
    std::ifstream in(ckpt.path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }();
  auto corrupt = contents;
  corrupt[contents.size() - 5] ^= 0x04;
  std::ofstream(ckpt.path, std::ios::binary | std::ios::trunc) << corrupt;
  EXPECT_EQ(b.probe.restore_checkpoint(ckpt.path).error(), ew::core::Errc::kCorrupt);

  // A truncated file and a foreign file are told apart too.
  std::ofstream(ckpt.path, std::ios::binary | std::ios::trunc) << contents.substr(0, 9);
  EXPECT_EQ(b.probe.restore_checkpoint(ckpt.path).error(), ew::core::Errc::kTruncated);
  std::ofstream(ckpt.path, std::ios::binary | std::ios::trunc) << "GIF89a definitely not it";
  EXPECT_EQ(b.probe.restore_checkpoint(ckpt.path).error(), ew::core::Errc::kBadMagic);

  // After the failed restores the probe is empty but fully functional.
  EXPECT_EQ(b.probe.table().active_flows(), 0u);
  b.tls_flow(kAdslClient, 44001, "fresh.example", 2'000'000);
  b.probe.finish();
  ASSERT_EQ(b.records.size(), 1u);
  EXPECT_EQ(b.records[0].server_name, "fresh.example");
}

TEST(ProbeCheckpoint, OlderVersionImageIsRefusedAndLeavesProbeReset) {
  ProbeHarness a;
  a.dns_reply(kAdslClient, "x.example", kServer, 100);
  a.tls_flow(kAdslClient, 44000, "y.example", 1'000'000);
  const auto image = a.probe.checkpoint_image();
  ASSERT_EQ(std::to_integer<int>(image[4]), 3);

  // The same state in the version-2 layout: header "EWCP" | version |
  // crc32c | payload length, and a payload that carried one more u64
  // counter after the first three.
  constexpr std::size_t kHeader = 4 + 1 + 4 + 8;
  std::vector<std::byte> payload(image.begin() + kHeader, image.end());
  payload.insert(payload.begin() + 3 * 8, 8, std::byte{0});
  std::vector<std::byte> v2(image.begin(), image.begin() + 5);
  v2[4] = std::byte{2};
  const auto put_le = [&v2](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) v2.push_back(static_cast<std::byte>(value >> (8 * i)));
  };
  put_le(ew::core::crc32c(payload), 4);
  put_le(payload.size(), 8);
  v2.insert(v2.end(), payload.begin(), payload.end());

  // A probe with live state: the refused restore must not keep it.
  ProbeHarness b;
  b.tls_flow(kFtthClient, 45000, "live.example", 500'000);
  ASSERT_GT(b.probe.table().active_flows(), 0u);
  EXPECT_EQ(b.probe.restore_image(v2).error(), ew::core::Errc::kBadVersion);
  EXPECT_EQ(b.probe.table().active_flows(), 0u);
  EXPECT_EQ(b.probe.dnhunter().size(), 0u);
  EXPECT_EQ(b.probe.counters().frames, 0u);
  b.probe.finish();
  EXPECT_TRUE(b.records.empty());

  // The current image of the same state restores.
  ASSERT_TRUE(b.probe.restore_image(image).ok());
  EXPECT_EQ(b.probe.table().active_flows(), a.probe.table().active_flows());
  EXPECT_EQ(b.probe.counters().frames, a.probe.counters().frames);
}
