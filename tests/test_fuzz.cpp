// Robustness sweeps: every wire-format parser must survive arbitrary bytes
// without crashing, asserting, or reading out of bounds (run under ASan in
// CI to make the latter observable). A passive probe's parsers face
// adversarial input by construction.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "core/rng.hpp"
#include "dns/message.hpp"
#include "dpi/classifier.hpp"
#include "dpi/parsers.hpp"
#include "net/packet.hpp"
#include "storage/codec.hpp"
#include "storage/columnar.hpp"
#include "storage/compress.hpp"
#include "storage/datalake.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;

namespace {

std::vector<std::byte> random_bytes(ew::core::Xoshiro256& rng, std::size_t max_len) {
  std::vector<std::byte> out(ew::core::uniform_below(rng, max_len));
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xff);
  return out;
}

/// Random bytes biased to start like a real header (stresses deep paths).
std::vector<std::byte> seeded_bytes(ew::core::Xoshiro256& rng, std::size_t max_len,
                                    std::initializer_list<std::uint8_t> prefix) {
  auto out = random_bytes(rng, max_len);
  std::size_t i = 0;
  for (const auto p : prefix) {
    if (i >= out.size()) break;
    out[i++] = static_cast<std::byte>(p);
  }
  return out;
}

}  // namespace

TEST(Fuzz, FrameDecoderNeverCrashes) {
  ew::core::Xoshiro256 rng{0xF002};
  for (int i = 0; i < 20'000; ++i) {
    ew::net::Frame frame;
    frame.data = i % 3 == 0
                     ? seeded_bytes(rng, 96, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x08, 0x00,
                                              0x45})
                     : random_bytes(rng, 96);
    const auto pkt = ew::net::decode_frame(frame);
    if (pkt && pkt->tcp) {
      // Whatever decoded must be internally consistent.
      EXPECT_GE(pkt->tcp->header_length(), ew::net::TcpHeader::kMinSize);
    }
  }
}

TEST(Fuzz, DnsParserNeverCrashes) {
  ew::core::Xoshiro256 rng{0xD45};
  int parsed = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto bytes = i % 2 == 0
                           ? seeded_bytes(rng, 128, {0x12, 0x34, 0x80, 0x00, 0x00, 0x01})
                           : random_bytes(rng, 128);
    const auto msg = ew::dns::parse(bytes);
    parsed += msg.has_value();
    if (msg) {
      for (const auto& q : msg->questions) EXPECT_LE(q.name.size(), 255u);
    }
  }
  // The format is permissive enough that some random inputs parse; the
  // point is that none of the 20k crashed.
  SUCCEED() << parsed << " random inputs parsed as DNS";
}

TEST(Fuzz, DpiParsersNeverCrash) {
  ew::core::Xoshiro256 rng{0xD91};
  for (int i = 0; i < 20'000; ++i) {
    const auto bytes =
        i % 4 == 0 ? seeded_bytes(rng, 160, {0x16, 0x03, 0x01, 0x40, 0x00, 0x01})
        : i % 4 == 1 ? seeded_bytes(rng, 160, {'G', 'E', 'T', ' ', '/'})
        : i % 4 == 2 ? seeded_bytes(rng, 160, {0x09})
                     : random_bytes(rng, 160);
    (void)ew::dpi::parse_client_hello(bytes);
    (void)ew::dpi::parse_server_hello(bytes);
    (void)ew::dpi::parse_http_request(bytes);
    (void)ew::dpi::parse_http_response(bytes);
    (void)ew::dpi::parse_quic_header(bytes);
    (void)ew::dpi::parse_fbzero_sni(bytes);
    (void)ew::dpi::classify_payload(ew::core::TransportProto::kTcp, 443, bytes);
    (void)ew::dpi::classify_payload(ew::core::TransportProto::kUdp, 443, bytes);
  }
}

TEST(Fuzz, OverlongVarintsAreRejectedNotWrapped) {
  // A uint64 fits in 10 LEB128 bytes. Encodings that keep the continuation
  // bit going, or that put anything beyond bit 63 into the 10th byte, must
  // poison the reader — decoding them as silently wrapped integers would
  // turn one flipped bit into a plausible-looking garbage record.
  {
    // 11 bytes of 0x80: continuation past the maximum length.
    std::vector<std::byte> bytes(11, std::byte{0x80});
    ew::core::ByteReader r{bytes};
    EXPECT_EQ(ew::storage::get_varint(r), 0u);
    EXPECT_FALSE(r.ok());
  }
  {
    // 10th byte with payload beyond bit 63 (0x02 << 63 overflows).
    std::vector<std::byte> bytes(9, std::byte{0x80});
    bytes.push_back(std::byte{0x02});
    ew::core::ByteReader r{bytes};
    EXPECT_EQ(ew::storage::get_varint(r), 0u);
    EXPECT_FALSE(r.ok());
  }
  {
    // 10th byte with its continuation bit set: asks for an 11th byte.
    std::vector<std::byte> bytes(9, std::byte{0x80});
    bytes.push_back(std::byte{0x81});
    bytes.push_back(std::byte{0x00});
    ew::core::ByteReader r{bytes};
    EXPECT_EQ(ew::storage::get_varint(r), 0u);
    EXPECT_FALSE(r.ok());
  }
  {
    // The canonical maximum still decodes: 9×0xff then 0x01 = UINT64_MAX.
    std::vector<std::byte> bytes(9, std::byte{0xff});
    bytes.push_back(std::byte{0x01});
    ew::core::ByteReader r{bytes};
    EXPECT_EQ(ew::storage::get_varint(r), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
  {
    // Non-canonical but in-range (trailing zero groups) stays accepted —
    // only *overflowing* encodings are malformed.
    const std::byte bytes[] = {std::byte{0x81}, std::byte{0x80}, std::byte{0x00}};
    ew::core::ByteReader r{bytes};
    EXPECT_EQ(ew::storage::get_varint(r), 1u);
    EXPECT_TRUE(r.ok());
  }
  {
    // Signed path inherits the rejection through the zigzag wrapper.
    std::vector<std::byte> bytes(11, std::byte{0xff});
    ew::core::ByteReader r{bytes};
    EXPECT_EQ(ew::storage::get_varint_signed(r), 0);
    EXPECT_FALSE(r.ok());
  }
}

TEST(Fuzz, RandomVarintBytesNeverCrashOrOverflow) {
  ew::core::Xoshiro256 rng{0x7A41};
  for (int i = 0; i < 50'000; ++i) {
    // Heavy bias towards continuation bits so long encodings are common.
    std::vector<std::byte> bytes(ew::core::uniform_below(rng, 16));
    for (auto& b : bytes) {
      b = static_cast<std::byte>((rng() & 0x7f) | (ew::core::chance(rng, 0.8) ? 0x80 : 0));
    }
    ew::core::ByteReader r{bytes};
    (void)ew::storage::get_varint(r);
    ew::core::ByteReader rs{bytes};
    (void)ew::storage::get_varint_signed(rs);
  }
}

TEST(Fuzz, RecordDecoderNeverCrashes) {
  ew::core::Xoshiro256 rng{0xC0DEC};
  for (int i = 0; i < 20'000; ++i) {
    // Version byte often correct so decoding proceeds into the body.
    auto bytes = seeded_bytes(rng, 120, {3});
    ew::core::ByteReader r{bytes};
    (void)ew::storage::decode_record(r);
  }
}

TEST(Fuzz, DecompressorRejectsHugeDeclaredSizes) {
  // A 5-byte header can declare any u32 as the uncompressed size. It must
  // be rejected before it drives an allocation — found the hard way when
  // the random sweep below spent minutes poisoning 4 GB reserves under
  // ASan. Also: the output may never grow past the declared size, so a
  // malicious token stream does bounded work before failing.
  for (const std::uint32_t declared :
       {std::uint32_t{0xffffffff}, std::uint32_t{(1u << 26) + 1}}) {
    std::vector<std::byte> bytes{std::byte{1}};
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::byte>((declared >> (8 * i)) & 0xff));
    EXPECT_FALSE(ew::storage::decompress_block(bytes).has_value());
  }
  // Declared size smaller than what the tokens produce: must fail, not
  // overshoot. Token 0x20 = 2 literals, but the header promises 1.
  const std::byte lying[] = {std::byte{1}, std::byte{1}, std::byte{0}, std::byte{0},
                             std::byte{0}, std::byte{0x20}, std::byte{'a'}, std::byte{'b'}};
  EXPECT_FALSE(ew::storage::decompress_block(lying).has_value());
}

TEST(Fuzz, DecompressorNeverCrashes) {
  ew::core::Xoshiro256 rng{0x12f};
  for (int i = 0; i < 10'000; ++i) {
    const auto bytes = i % 2 == 0 ? seeded_bytes(rng, 200, {1}) : random_bytes(rng, 200);
    const auto out = ew::storage::decompress_block(bytes);
    if (out) {
      // If it decoded, the declared size matched.
      EXPECT_LE(out->size(), 1u << 26);
    }
  }
}

TEST(Fuzz, MutatedValidInputsSurviveParsers) {
  // Take valid messages, flip random bytes, re-parse: crashes forbidden.
  ew::core::Xoshiro256 rng{0xBEEF};
  const auto hello = ew::dpi::build_client_hello("www.facebook.com", {});
  const ew::core::IPv4Address addrs[] = {ew::core::IPv4Address{1, 2, 3, 4}};
  const auto dns_wire = ew::dns::serialize(ew::dns::make_a_response(7, "x.example.com", addrs));
  for (int i = 0; i < 20'000; ++i) {
    auto mutated = i % 2 == 0 ? hello : dns_wire;
    const auto flips = 1 + ew::core::uniform_below(rng, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[ew::core::uniform_below(rng, mutated.size())] ^=
          static_cast<std::byte>(1u << ew::core::uniform_below(rng, 8));
    }
    (void)ew::dpi::parse_client_hello(mutated);
    (void)ew::dns::parse(mutated);
  }
}

// ------------------------------------------------ lake truncation sweep

TEST(Fuzz, TruncatedLakeFileSurvivesFsckAndRepairAtEveryOffset) {
  // A sealed day file cut at EVERY byte offset: fsck and repair must never
  // crash, and at most the final block can be damaged by the cut —
  // everything sealed before it stays recoverable.
  const ew::testing::TempDir root;

  // Build a small sealed file via two appends (two seal points).
  const ew::core::CivilDate day{2016, 5, 4};
  std::vector<ew::flow::FlowRecord> batch;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ew::flow::FlowRecord r;
    r.client_ip = ew::core::IPv4Address{10, 0, 0, static_cast<std::uint8_t>(1 + i)};
    r.server_ip = ew::core::IPv4Address{93, 184, 216, 34};
    r.client_port = static_cast<std::uint16_t>(40'000 + i);
    r.server_port = 443;
    r.first_packet = ew::core::Timestamp::from_date_time(day, 10);
    r.last_packet = r.first_packet + 1'000'000;
    r.server_name = "fuzz.example.com";
    batch.push_back(std::move(r));
  }
  std::vector<std::byte> sealed;
  {
    ew::storage::DataLake lake{root.path / "master"};
    ASSERT_TRUE(lake.append(day, batch));
    ASSERT_TRUE(lake.append(day, batch));  // second block group + reseal
    const auto path = lake.root() / ew::storage::DataLake::day_filename(day);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    sealed.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(sealed.data()), static_cast<std::streamsize>(sealed.size()));
  }
  ASSERT_GT(sealed.size(), 32u);

  for (std::size_t cut = 0; cut <= sealed.size(); ++cut) {
    const auto dir = root.path / "sweep";
    std::filesystem::remove_all(dir);
    ew::storage::DataLake lake{dir};
    // Materialize the truncated file where the lake expects the day.
    std::filesystem::create_directories(dir);
    {
      std::ofstream out(dir / ew::storage::DataLake::day_filename(day),
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(sealed.data()), static_cast<std::streamsize>(cut));
    }

    (void)lake.fsck_day(day);  // must not crash
    const auto health = lake.repair_day(day);
    EXPECT_LE(health.blocks_quarantined, 1u) << "cut=" << cut;
    // Whatever repair left behind must now scan clean end to end.
    const auto after = lake.fsck_day(day);
    if (std::filesystem::exists(dir / ew::storage::DataLake::day_filename(day))) {
      EXPECT_TRUE(after.healthy()) << "cut=" << cut << " errc=" << static_cast<int>(after.errc);
      EXPECT_LE(after.records_ok, 12u);
      (void)lake.read_day(day);  // decoding the survivors must not crash
    }
  }
}

// ------------------------------------------------ columnar body mutations

TEST(Fuzz, MutatedColumnarBodiesNeverCrashOrLeakPartialBlocks) {
  // Start from a valid columnar body, then throw bit flips, truncations
  // and fully random 0xC3-prefixed bytes at the decoder. It must never
  // crash or read out of bounds (ASan/UBSan in CI), and a body it calls
  // corrupt must have delivered nothing — columnar decode is atomic.
  const ew::core::CivilDate day{2016, 5, 4};
  std::vector<ew::flow::FlowRecord> records;
  for (std::uint64_t i = 0; i < 300; ++i) {
    ew::flow::FlowRecord r;
    r.client_ip = ew::core::IPv4Address{static_cast<std::uint32_t>(0x0a000000 + i)};
    r.server_ip = ew::core::IPv4Address{static_cast<std::uint32_t>(0x5db8d800 + i % 7)};
    r.client_port = static_cast<std::uint16_t>(40'000 + i);
    r.server_port = i % 2 ? 443 : 80;
    r.proto = i % 3 ? ew::core::TransportProto::kTcp : ew::core::TransportProto::kUdp;
    r.first_packet = ew::core::Timestamp::from_date_time(day, static_cast<int>(i % 24));
    r.last_packet = r.first_packet + 1'000'000;
    r.up.packets = i;
    r.up.bytes = i * 100;
    r.down.bytes = i * 1000;
    if (i % 4) r.rtt.add(static_cast<std::int64_t>(2000 + i));
    r.l7 = i % 2 ? ew::dpi::L7Protocol::kTls : ew::dpi::L7Protocol::kHttp;
    r.server_name = i % 5 ? "fuzz.example.com" : "cdn.netflix.com";
    r.content_type = i % 6 ? "" : "video/mp4";
    records.push_back(std::move(r));
  }
  ew::core::ByteWriter body;
  ew::storage::encode_columnar_block(records, ew::services::ServiceCatalog::standard(), body);
  const auto valid = body.view();

  ew::core::Xoshiro256 rng{0xC3F0};
  ew::storage::ColumnScratch scratch;
  ew::exec::RecordBatch batch;
  const auto pred = ew::storage::ScanPredicate::for_proto(ew::core::TransportProto::kUdp);
  std::vector<std::byte> mut;
  for (int i = 0; i < 20'000; ++i) {
    if (i % 4 == 3) {
      mut = seeded_bytes(rng, 512, {0xC3, ew::storage::kColumnarLayout});  // random, right prefix
    } else {
      mut.assign(valid.begin(), valid.end());
      const std::size_t flips = 1 + ew::core::uniform_below(rng, 8);
      for (std::size_t f = 0; f < flips; ++f) {
        mut[ew::core::uniform_below(rng, mut.size())] ^=
            static_cast<std::byte>(1u << (rng() & 7));
      }
      if (i % 4 == 2) mut.resize(ew::core::uniform_below(rng, mut.size() + 1));
    }
    const auto status = ew::storage::decode_columnar_batch(
        mut, scratch, i % 2 ? &pred : nullptr, batch,
        i % 3 ? ew::storage::kAnyRecordCount : static_cast<std::uint32_t>(records.size()));
    if (status == ew::storage::BlockDecodeStatus::kCorrupt) {
      EXPECT_TRUE(batch.empty()) << "iteration " << i;
    }
  }
}
