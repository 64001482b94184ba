// Codec round-trips, compressor properties, and data-lake behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>

#include "analytics/day_aggregate.hpp"
#include "core/hash.hpp"
#include "core/rng.hpp"
#include "storage/codec.hpp"
#include "storage/columnar.hpp"
#include "storage/compress.hpp"
#include "storage/daily_writer.hpp"
#include "storage/datalake.hpp"
#include "storage/fault_injection.hpp"
#include "lake_rows.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;
using ew::core::ByteReader;
using ew::core::ByteWriter;
using ew::core::CivilDate;
using ew::core::IPv4Address;
using ew::flow::FlowRecord;
using ew::testing::TempDir;

namespace {

FlowRecord sample_record(std::uint64_t seed) {
  ew::core::Xoshiro256 rng{seed};
  FlowRecord r;
  r.client_ip = IPv4Address{static_cast<std::uint32_t>(rng())};
  r.server_ip = IPv4Address{static_cast<std::uint32_t>(rng())};
  r.client_port = static_cast<std::uint16_t>(rng());
  r.server_port = 443;
  r.proto = ew::core::TransportProto::kTcp;
  r.access = (rng() & 1) ? ew::flow::AccessTech::kFtth : ew::flow::AccessTech::kAdsl;
  r.first_packet = ew::core::Timestamp::from_date_time({2016, 5, 4}, 12, 30);
  r.last_packet = r.first_packet + static_cast<std::int64_t>(ew::core::uniform_below(rng, 1e9));
  r.up.packets = ew::core::uniform_below(rng, 10000);
  r.up.bytes = ew::core::uniform_below(rng, 100'000'000);
  r.up.bytes_with_hdr = r.up.bytes + 40 * r.up.packets;
  r.down.packets = ew::core::uniform_below(rng, 10000);
  r.down.bytes = ew::core::uniform_below(rng, 1'000'000'000);
  r.down.bytes_with_hdr = r.down.bytes + 40 * r.down.packets;
  r.handshake_completed = true;
  r.close_reason = ew::flow::FlowCloseReason::kTcpTeardown;
  r.rtt.add(3000 + static_cast<std::int64_t>(ew::core::uniform_below(rng, 1000)));
  r.rtt.add(2500);
  r.up.retransmits = static_cast<std::uint32_t>(ew::core::uniform_below(rng, 20));
  r.down.retransmits = static_cast<std::uint32_t>(ew::core::uniform_below(rng, 50));
  r.down.out_of_order = static_cast<std::uint32_t>(ew::core::uniform_below(rng, 10));
  r.l7 = ew::dpi::L7Protocol::kTls;
  r.web = ew::dpi::WebProtocol::kHttp2;
  r.server_name = "edge-star-mini-shv-01-mxp1.facebook.com";
  r.name_source = ew::flow::NameSource::kTlsSni;
  r.http_status = static_cast<std::uint16_t>(ew::core::uniform_below(rng, 600));
  r.content_type = "application/octet-stream";
  return r;
}

void expect_equal(const FlowRecord& a, const FlowRecord& b) {
  EXPECT_EQ(a.client_ip, b.client_ip);
  EXPECT_EQ(a.server_ip, b.server_ip);
  EXPECT_EQ(a.client_port, b.client_port);
  EXPECT_EQ(a.server_port, b.server_port);
  EXPECT_EQ(a.proto, b.proto);
  EXPECT_EQ(a.access, b.access);
  EXPECT_EQ(a.first_packet, b.first_packet);
  EXPECT_EQ(a.last_packet, b.last_packet);
  EXPECT_EQ(a.up.packets, b.up.packets);
  EXPECT_EQ(a.up.bytes, b.up.bytes);
  EXPECT_EQ(a.up.bytes_with_hdr, b.up.bytes_with_hdr);
  EXPECT_EQ(a.down.bytes, b.down.bytes);
  EXPECT_EQ(a.handshake_completed, b.handshake_completed);
  EXPECT_EQ(a.close_reason, b.close_reason);
  EXPECT_EQ(a.rtt.samples, b.rtt.samples);
  EXPECT_EQ(a.rtt.min_us, b.rtt.min_us);
  EXPECT_EQ(a.rtt.max_us, b.rtt.max_us);
  EXPECT_EQ(a.up.retransmits, b.up.retransmits);
  EXPECT_EQ(a.down.retransmits, b.down.retransmits);
  EXPECT_EQ(a.down.out_of_order, b.down.out_of_order);
  EXPECT_EQ(a.l7, b.l7);
  EXPECT_EQ(a.web, b.web);
  EXPECT_EQ(a.server_name, b.server_name);
  EXPECT_EQ(a.name_source, b.name_source);
  EXPECT_EQ(a.http_status, b.http_status);
  EXPECT_EQ(a.content_type, b.content_type);
}

std::vector<FlowRecord> sample_batch(std::uint64_t seed, std::size_t n) {
  std::vector<FlowRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(sample_record(seed * 100'000 + i));
  return out;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void spew(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// A day file's block frames, in file order: frame offset and body length.
/// The layout is "EWLK" + version (5 bytes), then per block a 16-byte
/// header (u32le body_len | seq | record_count | crc32c) and the body.
struct FrameRef {
  std::size_t offset = 0;
  std::size_t body_len = 0;
};
constexpr std::size_t kFrameHeader = 16;

std::vector<FrameRef> block_frames(const std::string& contents) {
  std::vector<FrameRef> frames;
  std::size_t pos = 5;
  while (pos + kFrameHeader <= contents.size()) {
    std::uint32_t body_len = 0;
    for (int i = 0; i < 4; ++i) {
      body_len |= static_cast<std::uint32_t>(static_cast<unsigned char>(contents[pos + i]))
                  << (8 * i);
    }
    if (body_len == 0xffffffffu) {  // seal: sentinel | magic | u64 | u32 | crc
      pos += 24;
      continue;
    }
    frames.push_back({pos, body_len});
    pos += kFrameHeader + body_len;
  }
  return frames;
}

/// Byte-stream envelope round trip through the lake's compressor pair.
std::vector<std::byte> compress_bytes(std::span<const std::byte> input) {
  std::vector<std::byte> out;
  ew::storage::CompressScratch scratch;
  ew::storage::compress_block_lazy_append(input, out, scratch);
  return out;
}

std::optional<std::vector<std::byte>> decompress_bytes(std::span<const std::byte> input) {
  std::vector<std::byte> scratch;
  const auto view = ew::storage::decompress_block_view(input, scratch);
  if (!view) return std::nullopt;
  return std::vector<std::byte>(view->begin(), view->end());
}

/// Every delivered record must be byte-identical to some prefix-preserving
/// subsequence of `expected` (damage may drop whole blocks, never invent
/// or alter records).
void expect_subsequence(const std::vector<FlowRecord>& delivered,
                        const std::vector<FlowRecord>& expected) {
  std::vector<std::string> expected_wire;
  for (const auto& r : expected) {
    ByteWriter w;
    ew::storage::encode_record(r, w);
    expected_wire.emplace_back(reinterpret_cast<const char*>(w.view().data()), w.size());
  }
  std::size_t cursor = 0;
  for (const auto& r : delivered) {
    ByteWriter w;
    ew::storage::encode_record(r, w);
    const std::string wire(reinterpret_cast<const char*>(w.view().data()), w.size());
    while (cursor < expected_wire.size() && expected_wire[cursor] != wire) ++cursor;
    ASSERT_LT(cursor, expected_wire.size()) << "delivered record not in expected stream";
    ++cursor;
  }
}

}  // namespace

// ------------------------------------------------------------------ varint

TEST(Varint, RoundTripsBoundaries) {
  ByteWriter w;
  const std::uint64_t values[] = {0,   1,    127,        128,
                                  300, 16383, 16384,     0xffffffffull,
                                  0xffffffffffffffffull, 42};
  for (auto v : values) ew::storage::put_varint(w, v);
  ByteReader r{w.view()};
  for (auto v : values) EXPECT_EQ(ew::storage::get_varint(r), v);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Varint, SignedZigZag) {
  ByteWriter w;
  const std::int64_t values[] = {0, -1, 1, -64, 63, -1000000, 1000000,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (auto v : values) ew::storage::put_varint_signed(w, v);
  ByteReader r{w.view()};
  for (auto v : values) EXPECT_EQ(ew::storage::get_varint_signed(r), v);
  EXPECT_TRUE(r.ok());
}

TEST(Varint, SmallValuesAreOneByte) {
  ByteWriter w;
  ew::storage::put_varint(w, 127);
  EXPECT_EQ(w.size(), 1u);
  ew::storage::put_varint(w, 128);
  EXPECT_EQ(w.size(), 3u);
}

// ------------------------------------------------------------------ codec

TEST(Codec, RecordRoundTrip) {
  const auto record = sample_record(1);
  ByteWriter w;
  ew::storage::encode_record(record, w);
  ByteReader r{w.view()};
  const auto back = ew::storage::decode_record(r);
  ASSERT_TRUE(back.has_value());
  expect_equal(record, *back);
}

TEST(Codec, ManyRandomRecordsRoundTrip) {
  ByteWriter w;
  std::vector<FlowRecord> records;
  for (std::uint64_t i = 0; i < 200; ++i) {
    records.push_back(sample_record(i));
    ew::storage::encode_record(records.back(), w);
  }
  ByteReader r{w.view()};
  for (const auto& expected : records) {
    const auto got = ew::storage::decode_record(r);
    ASSERT_TRUE(got.has_value());
    expect_equal(expected, *got);
  }
  EXPECT_FALSE(ew::storage::decode_record(r).has_value());  // clean EOF
}

TEST(Codec, ZeroRttRecordOmitsRttFields) {
  FlowRecord r = sample_record(2);
  r.rtt = {};
  ByteWriter w;
  ew::storage::encode_record(r, w);
  ByteReader reader{w.view()};
  const auto back = ew::storage::decode_record(reader);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rtt.samples, 0u);
}

TEST(Codec, TruncatedInputFailsCleanly) {
  const auto record = sample_record(3);
  ByteWriter w;
  ew::storage::encode_record(record, w);
  for (std::size_t cut = 1; cut < w.size(); cut += 7) {
    ByteReader r{w.view().first(cut)};
    EXPECT_FALSE(ew::storage::decode_record(r).has_value()) << cut;
  }
}

// Parameterized sweep: extreme field values must survive the codec.
class CodecExtremes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecExtremes, RoundTripsExtremeVolumes) {
  FlowRecord r = sample_record(9);
  r.up.bytes = GetParam();
  r.down.bytes = GetParam() / 3;
  r.up.packets = GetParam() / 1000 + 1;
  r.server_name.assign(GetParam() % 200, 'x');
  ByteWriter w;
  ew::storage::encode_record(r, w);
  ByteReader reader{w.view()};
  const auto back = ew::storage::decode_record(reader);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->up.bytes, r.up.bytes);
  EXPECT_EQ(back->server_name, r.server_name);
}

INSTANTIATE_TEST_SUITE_P(VolumeSweep, CodecExtremes,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull, 65535ull,
                                           1'000'000ull, 0xffffffffull,
                                           0x7fffffffffffffffull));

// -------------------------------------------------------------- compressor

TEST(Compress, RoundTripStructuredData) {
  // Concatenated records: realistic, compressible input.
  ByteWriter w;
  for (std::uint64_t i = 0; i < 500; ++i) ew::storage::encode_record(sample_record(i % 10), w);
  const std::vector<std::byte> input{w.view().begin(), w.view().end()};
  const auto compressed = compress_bytes(input);
  EXPECT_LT(compressed.size(), input.size() / 2);  // long repeats compress well
  const auto back = decompress_bytes(compressed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, input);
}

TEST(Compress, RoundTripRandomData) {
  ew::core::Xoshiro256 rng{77};
  std::vector<std::byte> input;
  for (int i = 0; i < 10000; ++i) input.push_back(static_cast<std::byte>(rng() & 0xff));
  const auto compressed = compress_bytes(input);
  EXPECT_LE(compressed.size(), input.size() + 5);  // stored fallback bound
  const auto back = decompress_bytes(compressed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, input);
}

TEST(Compress, RoundTripEdgeCases) {
  for (const std::string& s :
       {std::string{}, std::string{"x"}, std::string{"abcd"}, std::string(100000, 'a'),
        std::string{"abcabcabcabcabcabc"}}) {
    const auto input = ew::core::to_bytes(s);
    const auto back = decompress_bytes(compress_bytes(input));
    ASSERT_TRUE(back.has_value()) << s.size();
    EXPECT_EQ(*back, input) << s.size();
  }
}

TEST(Compress, RandomInputsPropertyRoundTrip) {
  ew::core::Xoshiro256 rng{123};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::byte> input;
    const auto len = ew::core::uniform_below(rng, 5000);
    // Mix of runs and randomness.
    for (std::uint64_t i = 0; i < len; ++i) {
      input.push_back(static_cast<std::byte>(
          ew::core::chance(rng, 0.7) ? 0xAB : static_cast<std::uint8_t>(rng() & 0xff)));
    }
    const auto back = decompress_bytes(compress_bytes(input));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(*back, input);
  }
}

TEST(Compress, RejectsCorruptedHeaders) {
  EXPECT_FALSE(decompress_bytes({}).has_value());
  const auto input = ew::core::to_bytes("hello world hello world hello world");
  auto compressed = compress_bytes(input);
  compressed[0] = static_cast<std::byte>(9);  // bogus scheme
  EXPECT_FALSE(decompress_bytes(compressed).has_value());
}

TEST(Compress, RejectsTruncatedBody) {
  std::vector<std::byte> input;
  for (int i = 0; i < 1000; ++i) input.push_back(static_cast<std::byte>(i % 7));
  auto compressed = compress_bytes(input);
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(decompress_bytes(compressed).has_value());
}

// --------------------------------------------------------------- data lake

TEST(DataLake, WriteScanRoundTrip) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  std::vector<FlowRecord> records;
  for (std::uint64_t i = 0; i < 1000; ++i) records.push_back(sample_record(i));
  const CivilDate day{2014, 4, 15};
  const auto bytes = lake.append(day, records);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_GT(*bytes, 0u);
  const auto back = lake.read_day(day);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) expect_equal(records[i], back[i]);
}

TEST(DataLake, AppendAccumulates) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2014, 4, 15};
  std::vector<FlowRecord> batch{sample_record(1), sample_record(2)};
  lake.append(day, batch);
  lake.append(day, batch);
  EXPECT_EQ(lake.read_day(day).size(), 4u);
}

TEST(DataLake, DaysAreSortedAndDiscoverable) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  std::vector<FlowRecord> batch{sample_record(1)};
  lake.append({2017, 4, 2}, batch);
  lake.append({2013, 3, 1}, batch);
  lake.append({2014, 12, 25}, batch);
  const auto days = lake.days();
  ASSERT_EQ(days.size(), 3u);
  EXPECT_EQ(days[0], (CivilDate{2013, 3, 1}));
  EXPECT_EQ(days[2], (CivilDate{2017, 4, 2}));
  EXPECT_TRUE(lake.has_day({2014, 12, 25}));
  EXPECT_FALSE(lake.has_day({2015, 1, 1}));
}

TEST(DataLake, MissingDayScanReturnsFalse) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  ew::storage::ScanResult status;
  EXPECT_TRUE(lake.read_day({2015, 6, 1}, status).empty());
  EXPECT_FALSE(status);
}

TEST(DataLake, CorruptFileDetected) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2016, 1, 1};
  std::vector<FlowRecord> batch{sample_record(5)};
  lake.append(day, batch);
  // Flip bytes in the middle of the file.
  const auto path = dir.path / ew::storage::DataLake::day_filename(day);
  auto contents = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }();
  contents[contents.size() / 2] ^= 0x5A;
  contents[contents.size() / 2 + 1] ^= 0x5A;
  std::ofstream(path, std::ios::binary) << contents;
  ew::storage::ScanResult status;
  (void)lake.read_day(day, status);
  EXPECT_FALSE(status);
}

TEST(DataLake, CompressionShrinksTypicalLogs) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2016, 2, 2};
  std::vector<FlowRecord> records;
  for (std::uint64_t i = 0; i < 5000; ++i) records.push_back(sample_record(i % 50));
  lake.append(day, records);
  ByteWriter raw;
  for (const auto& r : records) ew::storage::encode_record(r, raw);
  EXPECT_LT(lake.file_bytes(day), raw.size());
}

TEST(DailyLakeWriter, RoutesRecordsToTheirDays) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  {
    ew::storage::DailyLakeWriter writer{lake, 4};
    for (int d = 0; d < 3; ++d) {
      for (int i = 0; i < 5; ++i) {
        auto r = sample_record(static_cast<std::uint64_t>(d * 10 + i));
        r.first_packet =
            ew::core::Timestamp::from_date_time({2016, 5, static_cast<std::uint8_t>(4 + d)}, 10);
        r.last_packet = r.first_packet + 1'000'000;
        writer.add(std::move(r));
      }
    }
    EXPECT_GT(writer.records_written(), 0u);  // 4-record buffers already flushed
  }  // destructor flushes the rest
  EXPECT_EQ(lake.read_day({2016, 5, 4}).size(), 5u);
  EXPECT_EQ(lake.read_day({2016, 5, 5}).size(), 5u);
  EXPECT_EQ(lake.read_day({2016, 5, 6}).size(), 5u);
  EXPECT_EQ(lake.days().size(), 3u);
}

TEST(DailyLakeWriter, MidnightRollover) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  ew::storage::DailyLakeWriter writer{lake};
  // A flow starting at 23:59:59 belongs to its start day even if it ends
  // the next day.
  auto r = sample_record(1);
  r.first_packet = ew::core::Timestamp::from_date_time({2016, 5, 4}, 23, 59, 59);
  r.last_packet = r.first_packet + 10'000'000;  // crosses midnight
  writer.add(std::move(r));
  writer.finish();
  EXPECT_EQ(lake.read_day({2016, 5, 4}).size(), 1u);
  EXPECT_FALSE(lake.has_day({2016, 5, 5}));
}

TEST(Codec, CsvRowHasOneFieldPerHeaderColumn) {
  // pcap2flows --out writes csv_header() and then one to_csv_row() per
  // record: the two must agree on the column count.
  const auto columns = [](std::string_view line) {
    return static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
  };
  const std::size_t header = columns(ew::storage::csv_header());
  EXPECT_GT(header, 1u);
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_EQ(columns(sample_record(seed).to_csv_row()), header) << seed;
  }
  EXPECT_EQ(columns(FlowRecord{}.to_csv_row()), header);
}

// ------------------------------------------------------------ durability

TEST(DataLakeV2, CleanDayIsSealedAndHealthy) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2016, 3, 3};
  const auto records = sample_batch(1, 5000);  // > kBlockRecords: multi-block
  ASSERT_TRUE(lake.append(day, records).has_value());

  ew::storage::ScanResult scan;
  EXPECT_EQ(lake.read_day(day, scan).size(), records.size());
  EXPECT_TRUE(scan.ok());
  EXPECT_EQ(scan.records_delivered, records.size());
  EXPECT_EQ(scan.blocks_skipped, 0u);

  const auto health = lake.fsck_day(day);
  EXPECT_TRUE(health.healthy());
  EXPECT_EQ(health.version, 4);  // the one current format
  EXPECT_TRUE(health.sealed);
  EXPECT_FALSE(health.torn_tail);
  EXPECT_EQ(health.records_ok, records.size());
  EXPECT_EQ(health.records_lost, 0u);
  EXPECT_EQ(health.blocks_ok, (records.size() + 4095) / 4096);
}

TEST(DataLakeV2, EmptyAppendWritesNothing) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const auto bytes = lake.append({2016, 3, 4}, {});
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, 0u);
  EXPECT_FALSE(lake.has_day({2016, 3, 4}));
}

TEST(DataLakeV2, FsckReportsMissingDay) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  EXPECT_EQ(lake.fsck_day({2016, 3, 5}).errc, ew::core::Errc::kNotFound);
  ew::storage::ScanResult status;
  (void)lake.read_day({2016, 3, 5}, status);
  EXPECT_EQ(status.errc, ew::core::Errc::kNotFound);
}

TEST(DataLakeV2, TornTailIsDetectedAndHealedByNextAppend) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2016, 4, 4};
  const auto batch1 = sample_batch(1, 300);
  ASSERT_TRUE(lake.append(day, batch1).has_value());
  const auto path = dir.path / ew::storage::DataLake::day_filename(day);

  // Simulate a crash mid-append: valid file plus a half-written block.
  auto contents = slurp(path);
  const auto sealed_size = contents.size();
  contents += std::string(37, '\x7f');
  spew(path, contents);

  ew::storage::ScanResult status;
  const auto before = lake.read_day(day, status);
  EXPECT_EQ(before.size(), batch1.size());  // prefix intact, no garbage
  EXPECT_FALSE(status.ok());

  // The next append drops the torn tail and continues the sealed stream.
  const auto batch2 = sample_batch(2, 300);
  ASSERT_TRUE(lake.append(day, batch2).has_value());
  const auto after = lake.read_day(day, status);
  EXPECT_TRUE(status.ok());
  ASSERT_EQ(after.size(), batch1.size() + batch2.size());
  expect_equal(after.front(), batch1.front());
  expect_equal(after.back(), batch2.back());
  EXPECT_TRUE(lake.fsck_day(day).healthy());
  EXPECT_GT(lake.file_bytes(day), sealed_size);
}

TEST(DataLakeV2, MidFileCorruptionSkipsOnlyTheDamagedBlock) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2016, 5, 5};
  const auto records = sample_batch(3, 9000);  // 3 blocks: 4096+4096+808
  ASSERT_TRUE(lake.append(day, records).has_value());
  const auto path = dir.path / ew::storage::DataLake::day_filename(day);

  // Flip one byte inside the middle block's body. Blocks are
  // self-contained, so the damage must cost exactly that block's records
  // on every read path — never its neighbours'.
  auto contents = slurp(path);
  const auto frames = block_frames(contents);
  ASSERT_EQ(frames.size(), 3u);
  const auto& hit = frames[1];
  contents[hit.offset + kFrameHeader + hit.body_len / 2] ^= 0x10;
  spew(path, contents);
  std::vector<FlowRecord> survivors(records.begin(), records.begin() + 4096);
  survivors.insert(survivors.end(), records.begin() + 8192, records.end());

  // Serial scan: blocks 0 and 2 resynchronize via sequence numbers + CRC.
  ew::storage::ScanResult status;
  const auto delivered = lake.read_day(day, status);
  EXPECT_EQ(status.errc, ew::core::Errc::kCorrupt);
  EXPECT_EQ(status.blocks_skipped, 1u);
  ASSERT_EQ(delivered.size(), survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) expect_equal(delivered[i], survivors[i]);

  // Stage-one aggregate: the batch path loses only the damaged block too.
  const auto aggregate = ew::analytics::aggregate_day(lake, day);
  EXPECT_EQ(aggregate.scan.errc, ew::core::Errc::kCorrupt);
  EXPECT_EQ(aggregate.scan.records_delivered, survivors.size());

  // fsck: exact loss accounting against the seal.
  const auto health = lake.fsck_day(day);
  EXPECT_FALSE(health.healthy());
  EXPECT_TRUE(health.sealed);  // seal itself survived
  EXPECT_EQ(health.records_lost, 4096u);
  EXPECT_EQ(health.blocks_quarantined, 1u);

  // Repair quarantines that block alone and keeps every other record.
  const auto repaired = lake.repair_day(day);
  EXPECT_TRUE(repaired.repaired);
  EXPECT_EQ(repaired.blocks_quarantined, 1u);
  EXPECT_TRUE(lake.fsck_day(day).healthy());
  const auto after = lake.read_day(day, status);
  EXPECT_TRUE(status.ok());
  ASSERT_EQ(after.size(), survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) expect_equal(after[i], survivors[i]);
}

TEST(DataLakeV2, RepairQuarantinesAndReseals) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2016, 6, 6};
  const auto records = sample_batch(4, 9000);
  ASSERT_TRUE(lake.append(day, records).has_value());
  const auto path = dir.path / ew::storage::DataLake::day_filename(day);
  auto contents = slurp(path);
  contents[contents.size() / 2] ^= 0x01;  // damage block 1 or 2
  spew(path, contents);

  const auto report = lake.repair_day(day);
  EXPECT_TRUE(report.repaired);
  EXPECT_EQ(report.errc, ew::core::Errc::kOk);
  EXPECT_GE(report.blocks_quarantined, 1u);
  EXPECT_GT(report.bytes_quarantined, 0u);

  // Damaged bytes are preserved for forensics, not destroyed.
  EXPECT_TRUE(fs::exists(dir.path / "quarantine"));
  EXPECT_FALSE(fs::is_empty(dir.path / "quarantine"));

  // The repaired file is a pristine sealed day.
  const auto health = lake.fsck_day(day);
  EXPECT_TRUE(health.healthy());
  EXPECT_TRUE(health.sealed);
  ew::storage::ScanResult status;
  const auto delivered = lake.read_day(day, status);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(delivered.size(), records.size() - 4096);
  expect_subsequence(delivered, records);

  // And the repaired day accepts further appends.
  const auto more = sample_batch(5, 100);
  ASSERT_TRUE(lake.append(day, more).has_value());
  EXPECT_EQ(lake.read_day(day).size(), records.size() - 4096 + more.size());
}

TEST(DataLakeV2, RepairOnHealthyDayIsANoOp) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2016, 6, 7};
  ASSERT_TRUE(lake.append(day, sample_batch(1, 50)).has_value());
  const auto before = slurp(dir.path / ew::storage::DataLake::day_filename(day));
  const auto report = lake.repair_day(day);
  EXPECT_FALSE(report.repaired);
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(slurp(dir.path / ew::storage::DataLake::day_filename(day)), before);
}

TEST(DataLakeV2, LakeWideFsckAndRepair) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  ASSERT_TRUE(lake.append({2016, 7, 1}, sample_batch(1, 100)).has_value());
  ASSERT_TRUE(lake.append({2016, 7, 2}, sample_batch(2, 100)).has_value());
  EXPECT_TRUE(lake.fsck().clean());

  const auto path = dir.path / ew::storage::DataLake::day_filename({2016, 7, 2});
  auto contents = slurp(path);
  contents[contents.size() - 3] ^= 0xff;  // damage the second day's seal
  spew(path, contents);

  const auto report = lake.fsck();
  ASSERT_EQ(report.days.size(), 2u);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.days[0].healthy());
  EXPECT_FALSE(report.days[1].healthy());

  lake.repair();
  EXPECT_TRUE(lake.fsck().clean());
  EXPECT_EQ(lake.read_day({2016, 7, 2}).size(), 100u);
}

// ------------------------------------------------- fault-injection matrix

TEST(FaultMatrix, EveryInjectedFaultIsRecoveredOrQuarantined) {
  using ew::storage::FaultKind;
  using ew::storage::FaultPlan;
  using ew::storage::FaultyFile;

  const auto batch1 = sample_batch(10, 5000);
  const auto batch2 = sample_batch(20, 5000);
  std::vector<FlowRecord> all;
  all.insert(all.end(), batch1.begin(), batch1.end());
  all.insert(all.end(), batch2.begin(), batch2.end());
  const CivilDate day{2016, 8, 8};

  // Measure the second append's on-disk size once, to aim faults inside it.
  std::uint64_t append_bytes = 0;
  {
    TempDir probe_dir;
    ew::storage::DataLake probe{probe_dir.path};
    ASSERT_TRUE(probe.append(day, batch1).has_value());
    const auto bytes = probe.append(day, batch2);
    ASSERT_TRUE(bytes.has_value());
    append_bytes = *bytes;
  }
  ASSERT_GT(append_bytes, 64u);

  const FaultKind kinds[] = {FaultKind::kShortWrite, FaultKind::kNoSpace, FaultKind::kBitFlip,
                             FaultKind::kCrashAtOffset};
  for (const auto kind : kinds) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto plan = FaultPlan::seeded(kind, seed, 1, append_bytes - 1);
      SCOPED_TRACE(std::string(to_string(kind)) + " at byte " + std::to_string(plan.at_byte));

      TempDir dir;
      ew::storage::DataLake lake{dir.path};
      ASSERT_TRUE(lake.append(day, batch1).has_value());  // sealed baseline
      lake.set_file_factory(FaultyFile::factory_once(plan));
      const auto result = lake.append(day, batch2);

      ew::storage::ScanResult status;
      const auto delivered = lake.read_day(day, status);
      // Invariant 1: no invented or altered records, ever.
      expect_subsequence(delivered, all);
      // Invariant 2: the sealed first batch is never harmed.
      ASSERT_GE(delivered.size(), batch1.size());
      for (std::size_t i = 0; i < batch1.size(); ++i) expect_equal(delivered[i], batch1[i]);

      switch (kind) {
        case FaultKind::kShortWrite:
        case FaultKind::kNoSpace:
          // Survivable failure: the append reported the error and rolled
          // back, so the lake holds exactly the first batch, still clean.
          ASSERT_FALSE(result.has_value());
          EXPECT_EQ(result.error(), kind == FaultKind::kNoSpace ? ew::core::Errc::kNoSpace
                                                                : ew::core::Errc::kIoError);
          EXPECT_TRUE(status.ok());
          EXPECT_EQ(delivered.size(), batch1.size());
          EXPECT_TRUE(lake.fsck_day(day).healthy());
          break;
        case FaultKind::kCrashAtOffset:
          // Crash: rollback impossible, a torn tail remains. Loss is
          // bounded by the unacknowledged batch.
          ASSERT_FALSE(result.has_value());
          EXPECT_EQ(result.error(), ew::core::Errc::kCrashed);
          EXPECT_FALSE(status.ok());
          EXPECT_LE(delivered.size(), all.size());
          break;
        case FaultKind::kBitFlip: {
          // Silent media corruption: the write "succeeded", but scan/fsck
          // must still detect the damage — no flipped bit goes unnoticed.
          ASSERT_TRUE(result.has_value());
          EXPECT_FALSE(status.ok());
          EXPECT_LE(all.size() - delivered.size(), batch2.size());
          break;
        }
        case FaultKind::kNone: break;
      }

      // Invariant 3: fsck's sealed-loss accounting never exceeds the
      // unacknowledged batch.
      const auto health = lake.fsck_day(day);
      EXPECT_LE(health.records_lost, batch2.size());

      // Invariant 4: repair always converges to a healthy sealed day that
      // retains everything that was recoverable.
      lake.repair_day(day);
      EXPECT_TRUE(lake.fsck_day(day).healthy());
      ew::storage::ScanResult after_status;
      const auto after = lake.read_day(day, after_status);
      EXPECT_TRUE(after_status.ok());
      EXPECT_EQ(after.size(), delivered.size());
      expect_subsequence(after, all);
    }
  }
}

// ------------------------------------------------- one format, no compat

// Files written by earlier releases carry version 1 (row bodies, no seals),
// 2 (row bodies) or 3 (dictionary-chained columnar bodies). None is
// half-read: every entry point stops at the header.
namespace {

constexpr char kOlderVersions[] = {'\x01', '\x02', '\x03'};

// Writes a healthy day, then patches its header to `version`. Returns the
// patched file's bytes.
std::string write_day_with_version(const fs::path& root, const CivilDate& day, char version) {
  ew::storage::DataLake lake{root};
  EXPECT_TRUE(lake.append(day, sample_batch(7, 1500)).has_value());
  const auto path = root / ew::storage::DataLake::day_filename(day);
  auto contents = slurp(path);
  contents[4] = version;  // "EWLK" | version
  spew(path, contents);
  return contents;
}

}  // namespace

TEST(DataLakeVersion, OlderVersionHeadersAreRejectedByScanAndFsck) {
  for (const char version : kOlderVersions) {
    SCOPED_TRACE(static_cast<int>(version));
    TempDir dir;
    const CivilDate day{2014, 1, 1};
    write_day_with_version(dir.path, day, version);

    ew::storage::DataLake lake{dir.path};
    ew::storage::ScanResult status;
    EXPECT_TRUE(lake.read_day(day, status).empty());
    EXPECT_EQ(status.errc, ew::core::Errc::kBadVersion);
    EXPECT_EQ(lake.fsck_day(day).errc, ew::core::Errc::kBadVersion);
  }
}

TEST(DataLakeVersion, AppendToOlderVersionFileIsRejectedAndLeftUntouched) {
  for (const char version : kOlderVersions) {
    SCOPED_TRACE(static_cast<int>(version));
    TempDir dir;
    const CivilDate day{2014, 1, 1};
    const auto contents = write_day_with_version(dir.path, day, version);

    // A fresh lake: no append cursor cached from the write above, so the
    // append has to read the header it is about to extend.
    ew::storage::DataLake lake{dir.path};
    const auto appended = lake.append(day, sample_batch(8, 10));
    ASSERT_FALSE(appended.has_value());
    EXPECT_EQ(appended.error(), ew::core::Errc::kBadVersion);
    EXPECT_EQ(slurp(dir.path / ew::storage::DataLake::day_filename(day)), contents);
  }
}

TEST(DataLakeVersion, ForeignLayoutByteIsCorruptAndQuarantined) {
  // A current-version frame whose body claims another columnar layout (1
  // or 2, as earlier releases wrote) is structural corruption: the scan
  // skips that block, fsck flags it, repair quarantines it.
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2014, 2, 2};
  const auto records = sample_batch(9, 5000);  // blocks of 4096 + 904
  ASSERT_TRUE(lake.append(day, records).has_value());
  const auto path = dir.path / ew::storage::DataLake::day_filename(day);
  // Rewrite block 0's layout byte (body offset 1) and re-seal its CRC, so
  // only the body decoder can object.
  auto contents = slurp(path);
  const auto first = block_frames(contents).front();
  const std::size_t body = first.offset + kFrameHeader;
  contents[body + 1] = '\x02';
  const auto* bytes = reinterpret_cast<const std::byte*>(contents.data());
  std::uint32_t crc = ew::core::crc32c({bytes + first.offset, 12});
  crc = ew::core::crc32c({bytes + body, first.body_len}, crc);
  for (int i = 0; i < 4; ++i) {
    contents[first.offset + 12 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  spew(path, contents);

  ew::storage::ScanResult status;
  EXPECT_EQ(lake.read_day(day, status).size(), records.size() - 4096);
  EXPECT_EQ(status.errc, ew::core::Errc::kCorrupt);
  EXPECT_EQ(status.blocks_skipped, 1u);
  EXPECT_FALSE(lake.fsck_day(day).healthy());

  const auto repaired = lake.repair_day(day);
  EXPECT_TRUE(repaired.repaired);
  EXPECT_EQ(repaired.blocks_quarantined, 1u);
  EXPECT_FALSE(fs::is_empty(dir.path / "quarantine"));
  EXPECT_TRUE(lake.fsck_day(day).healthy());
  EXPECT_EQ(lake.read_day(day).size(), records.size() - 4096);
}

TEST(DataLake, ForeignFileIsRejectedNotParsed) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2015, 9, 9};
  spew(dir.path / ew::storage::DataLake::day_filename(day), "not a lake file at all");
  ew::storage::ScanResult status;
  (void)lake.read_day(day, status);
  EXPECT_EQ(status.errc, ew::core::Errc::kBadMagic);
  EXPECT_EQ(lake.fsck_day(day).errc, ew::core::Errc::kBadMagic);
  EXPECT_FALSE(lake.append(day, sample_batch(1, 5)).has_value());
}

// ------------------------------------------------- writer failure handling

TEST(DailyLakeWriter, KeepsRecordsWhenAppendFailsAndRetries) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  // First file handle fails with ENOSPC almost immediately.
  lake.set_file_factory(ew::storage::FaultyFile::factory_once(
      {ew::storage::FaultKind::kNoSpace, /*at_byte=*/8, /*bit=*/0}));

  ew::storage::DailyLakeWriter writer{lake, 4};
  const auto day = CivilDate{2016, 5, 4};
  for (int i = 0; i < 4; ++i) {
    auto r = sample_record(static_cast<std::uint64_t>(i));
    r.first_packet = ew::core::Timestamp::from_date_time(day, 10);
    r.last_packet = r.first_packet + 1'000;
    writer.add(std::move(r));  // 4th add triggers the failing flush
  }
  EXPECT_EQ(writer.append_failures(), 1u);
  EXPECT_EQ(writer.last_error(), ew::core::Errc::kNoSpace);
  EXPECT_EQ(writer.records_written(), 0u);
  EXPECT_EQ(writer.buffered(), 4u);  // nothing lost

  writer.finish();  // factory is healthy again: the retry lands everything
  EXPECT_EQ(writer.records_written(), 4u);
  EXPECT_EQ(writer.records_dropped(), 0u);
  EXPECT_EQ(lake.read_day(day).size(), 4u);
  EXPECT_TRUE(lake.fsck_day(day).healthy());
}

TEST(DailyLakeWriter, FlushAllReportsTypedErrorAndLakeStaysConsistent) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const auto day = CivilDate{2016, 5, 4};
  ew::storage::DailyLakeWriter writer{lake, 64};
  for (int i = 0; i < 10; ++i) {
    auto r = sample_record(static_cast<std::uint64_t>(i));
    r.first_packet = ew::core::Timestamp::from_date_time(day, 10);
    r.last_packet = r.first_packet + 1'000;
    writer.add(std::move(r));
  }

  // The volume fills up right as the flush starts.
  lake.set_file_factory(ew::storage::FaultyFile::factory_once(
      {ew::storage::FaultKind::kNoSpace, /*at_byte=*/0, /*bit=*/0}));
  const auto result = writer.flush_all();
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ew::core::Errc::kNoSpace);
  // The failed append rolled back completely: no partial day file, clean
  // fsck, and every record still buffered for the retry.
  EXPECT_FALSE(lake.has_day(day));
  EXPECT_TRUE(lake.fsck().clean());
  EXPECT_EQ(writer.buffered(), 10u);

  // Space freed: the same call now lands the batch.
  ASSERT_TRUE(writer.flush_all());
  EXPECT_EQ(writer.buffered(), 0u);
  EXPECT_EQ(lake.read_day(day).size(), 10u);
  EXPECT_TRUE(lake.fsck_day(day).healthy());
}

// -------------------------------------------------------- columnar lake

namespace {

/// Records varied enough to exercise every column and make blocks
/// zone-distinguishable: service changes per 4096-record block, transport
/// and timestamps vary per row, some rows carry no RTT samples or name.
std::vector<FlowRecord> varied_batch(std::uint64_t seed, std::size_t n, CivilDate day) {
  static constexpr const char* kNames[] = {"www.google.com", "static.facebook.com",
                                           "api.netflix.com", "cdn.somewhere-else.org"};
  auto out = sample_batch(seed, n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& r = out[i];
    r.server_name = kNames[(i / 4096) % 4];
    r.proto = i % 3 == 0   ? ew::core::TransportProto::kUdp
              : i % 7 == 0 ? ew::core::TransportProto::kOther
                           : ew::core::TransportProto::kTcp;
    r.first_packet = ew::core::Timestamp::from_date_time(day, static_cast<int>(i * 24 / n),
                                                         static_cast<int>(i % 60),
                                                         static_cast<int>((i / 60) % 60));
    r.last_packet = r.first_packet + 5'000'000;
    if (i % 5 == 0) r.rtt = ew::flow::RttStats{};  // dense RTT sub-column gap
    if (i % 11 == 0) r.server_name.clear();
  }
  return out;
}

/// Overwrite bytes inside the *first block's body* of a day file and
/// recompute the frame CRC. This simulates an encoder bug (a lying zone
/// map, a bad dictionary) rather than media damage: the frame still
/// checksums clean, so only the columnar decoder's own cross-checks stand
/// between the lie and the query results.
void patch_first_body(const fs::path& path, std::size_t offset,
                      std::span<const unsigned char> replacement) {
  auto contents = slurp(path);
  const std::size_t frame = 5;  // "EWLK" + version byte
  ASSERT_GE(contents.size(), frame + 16);
  const auto u8at = [&](std::size_t i) { return static_cast<unsigned char>(contents[i]); };
  const std::size_t body_len = u8at(frame) | (u8at(frame + 1) << 8) | (u8at(frame + 2) << 16) |
                               (static_cast<std::size_t>(u8at(frame + 3)) << 24);
  const std::size_t body = frame + 16;
  ASSERT_LE(offset + replacement.size(), body_len);
  for (std::size_t i = 0; i < replacement.size(); ++i) {
    contents[body + offset + i] = static_cast<char>(replacement[i]);
  }
  const auto* bytes = reinterpret_cast<const std::byte*>(contents.data());
  std::uint32_t crc = ew::core::crc32c({bytes + frame, 12});
  crc = ew::core::crc32c({bytes + body, body_len}, crc);
  for (int i = 0; i < 4; ++i) contents[frame + 12 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  spew(path, contents);
}

}  // namespace

TEST(ColumnarV3, BodyRoundTripAndZonePeek) {
  const CivilDate day{2017, 1, 5};
  const auto records = varied_batch(31, 1000, day);
  ByteWriter body;
  ew::storage::encode_columnar_block(records, ew::services::ServiceCatalog::standard(), body);

  const auto zone = ew::storage::peek_zone_map(body.view());
  ASSERT_TRUE(zone.has_value());
  EXPECT_EQ(zone->record_count, records.size());
  std::int64_t ts_min = records[0].first_packet.micros(), ts_max = ts_min;
  for (const auto& r : records) {
    ts_min = std::min(ts_min, r.first_packet.micros());
    ts_max = std::max(ts_max, r.first_packet.micros());
  }
  EXPECT_EQ(zone->ts_min_us, ts_min);
  EXPECT_EQ(zone->ts_max_us, ts_max);

  ew::storage::ColumnScratch scratch;
  ew::exec::RecordBatch batch;
  const auto status = ew::storage::decode_columnar_batch(
      body.view(), scratch, nullptr, batch, static_cast<std::uint32_t>(records.size()));
  EXPECT_EQ(status, ew::storage::BlockDecodeStatus::kOk);
  std::vector<FlowRecord> decoded;
  std::uint64_t delivered = 0;
  FlowRecord rec;
  auto sink = [&](const FlowRecord& r) { decoded.push_back(r); };
  ew::exec::materialize_rows(batch, rec, sink, delivered);
  EXPECT_EQ(delivered, records.size());
  ASSERT_EQ(decoded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) expect_equal(decoded[i], records[i]);
}

TEST(ColumnarV3, TruncatedBodySweepDecodesAtomically) {
  const CivilDate day{2017, 1, 6};
  const auto records = varied_batch(32, 600, day);
  ByteWriter body;
  ew::storage::encode_columnar_block(records, ew::services::ServiceCatalog::standard(), body);

  ew::storage::ColumnScratch scratch;
  ew::exec::RecordBatch batch;
  for (std::size_t len = 0; len < body.size(); ++len) {
    const auto status =
        ew::storage::decode_columnar_batch(body.view().subspan(0, len), scratch, nullptr, batch);
    // A torn column segment must never crash and never deliver a partial
    // block: columnar decode is all-or-nothing.
    EXPECT_EQ(status, ew::storage::BlockDecodeStatus::kCorrupt) << "prefix length " << len;
    EXPECT_TRUE(batch.empty()) << "prefix length " << len;
  }
}

TEST(DataLakeV3, AppendsContinueOneSealedStream) {
  // Appends of every size — sub-block, exactly one block, multi-block —
  // extend one sealed stream: sequence numbers continue, every block stays
  // self-contained, and the day reads back in append order.
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2017, 2, 2};
  std::vector<FlowRecord> all;
  std::uint64_t seed = 1;
  for (const std::size_t n : {std::size_t{100}, std::size_t{4096}, std::size_t{9000},
                              std::size_t{1}}) {
    const auto batch = varied_batch(seed++, n, day);
    ASSERT_TRUE(lake.append(day, batch).has_value());
    all.insert(all.end(), batch.begin(), batch.end());
    const auto health = lake.fsck_day(day);
    EXPECT_TRUE(health.healthy());
    EXPECT_EQ(health.version, 4);
    EXPECT_EQ(health.records_ok, all.size());
  }
  ew::storage::ScanResult status;
  const auto got = lake.read_day(day, status);
  EXPECT_TRUE(status.ok());
  ASSERT_EQ(got.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) expect_equal(got[i], all[i]);
}

TEST(DataLakeV3, PredicatePushdownMatchesPostFilterAndPrunes) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2017, 4, 1};
  const auto records = varied_batch(34, 9000, day);  // 3 blocks, service per block
  ASSERT_TRUE(lake.append(day, records).has_value());

  ew::storage::ScanPredicate by_service =
      ew::storage::ScanPredicate::for_service(ew::services::ServiceId::kNetflix);
  ew::storage::ScanPredicate by_proto =
      ew::storage::ScanPredicate::for_proto(ew::core::TransportProto::kUdp);
  ew::storage::ScanPredicate by_time;
  by_time.time_min_us = ew::core::Timestamp::from_date_time(day, 6).micros();
  by_time.time_max_us = ew::core::Timestamp::from_date_time(day, 12).micros() - 1;

  for (const auto& [name, pred] : {std::pair{"service", by_service},
                                   std::pair{"proto", by_proto},
                                   std::pair{"time", by_time}}) {
    SCOPED_TRACE(name);
    std::vector<FlowRecord> expected;
    for (const auto& r : records) {
      if (pred.matches(r)) expected.push_back(r);
    }
    ASSERT_FALSE(expected.empty());
    ASSERT_LT(expected.size(), records.size());

    std::vector<FlowRecord> got;
    auto sink = [&](const FlowRecord& r) { got.push_back(r); };
    const auto scan = ew::testing::scan_rows(lake, day, pred, sink);
    EXPECT_TRUE(scan.ok());
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) expect_equal(got[i], expected[i]);
  }

  // The netflix records live in one block only: the other two are pruned on
  // their zone maps without decompressing a single segment.
  std::size_t n = 0;
  auto count = [&](const FlowRecord&) { ++n; };
  EXPECT_EQ(ew::testing::scan_rows(lake, day, by_service, count).blocks_pruned, 2u);
  // An unrestricted scan prunes nothing.
  ew::storage::ScanResult unrestricted;
  (void)lake.read_day(day, unrestricted);
  EXPECT_EQ(unrestricted.blocks_pruned, 0u);
}

TEST(DataLakeV3, LyingZoneMapIsDetectedDeliveredAndQuarantined) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2017, 5, 1};
  const auto records = varied_batch(35, 1000, day);  // single block
  ASSERT_TRUE(lake.append(day, records).has_value());
  const auto path = dir.path / ew::storage::DataLake::day_filename(day);

  // Zero the zone map's service bitmap (body offset 2 + 16) behind a valid
  // CRC: the map now claims "no service is present".
  const unsigned char zeros[4] = {0, 0, 0, 0};
  patch_first_body(path, 2 + 16, zeros);

  // An unfiltered scan still delivers every record — zone maps are never
  // authoritative — but flags the day so the lie cannot linger.
  ew::storage::ScanResult scan;
  const auto got = lake.read_day(day, scan);
  EXPECT_EQ(scan.errc, ew::core::Errc::kCorrupt);
  ASSERT_EQ(got.size(), records.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_equal(got[i], records[i]);

  // This is exactly the hazard: a selective scan that trusts the lying map
  // prunes the block and silently misses every record.
  std::size_t n = 0;
  auto count = [&](const FlowRecord&) { ++n; };
  const auto filtered = ew::testing::scan_rows(
      lake, day, ew::storage::ScanPredicate::for_service(ew::services::ServiceId::kGoogle),
      count);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(filtered.blocks_pruned, 1u);

  // Which is why fsck deep-verifies columnar blocks and repair quarantines
  // the liar instead of leaving it to poison future selective scans.
  EXPECT_FALSE(lake.fsck_day(day).healthy());
  const auto report = lake.repair_day(day);
  EXPECT_TRUE(report.repaired);
  EXPECT_GE(report.blocks_quarantined, 1u);
  EXPECT_FALSE(fs::is_empty(dir.path / "quarantine"));
  EXPECT_TRUE(lake.fsck_day(day).healthy());
}

TEST(DataLakeV3, BadServiceDictionaryIsCorruptNotACrash) {
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2017, 5, 2};
  const auto records = varied_batch(36, 1000, day);
  ASSERT_TRUE(lake.append(day, records).has_value());
  const auto path = dir.path / ew::storage::DataLake::day_filename(day);

  // First dictionary entry (body offset 2 + 36 + 1) becomes an out-of-range
  // ServiceId, again behind a valid frame CRC.
  const unsigned char bogus[1] = {0xEE};
  patch_first_body(path, 2 + 36 + 1, bogus);

  ew::storage::ScanResult scan;
  const auto n = lake.read_day(day, scan).size();
  EXPECT_EQ(scan.errc, ew::core::Errc::kCorrupt);
  EXPECT_EQ(n, 0u);  // atomic: no half-decoded block leaks records
  EXPECT_GE(scan.blocks_skipped, 1u);

  const auto health = lake.fsck_day(day);
  EXPECT_FALSE(health.healthy());
  EXPECT_EQ(health.records_lost, records.size());
  const auto report = lake.repair_day(day);
  EXPECT_TRUE(report.repaired);
  EXPECT_FALSE(fs::is_empty(dir.path / "quarantine"));
  EXPECT_TRUE(lake.fsck_day(day).healthy());
}

namespace {

/// Oracle for the projection contract: starting from a value-initialized
/// record, copy in the always-decoded filter columns (first_packet, proto,
/// server_ip) plus exactly the fields `mask` requests — mirroring what a
/// projected scan promises to materialize. `full` must come from an
/// unprojected scan of the same lake, so codec-level rounding (RTT
/// averages) cancels out and every field compares exactly.
FlowRecord project_oracle(const FlowRecord& full, std::uint32_t mask) {
  namespace sf = ew::storage::scan_fields;
  const auto want = [mask](std::uint32_t b) { return (mask & b) != 0; };
  FlowRecord out;
  out.first_packet = full.first_packet;
  out.proto = full.proto;
  out.server_ip = full.server_ip;
  if (want(sf::kLastPacket)) out.last_packet = full.last_packet;
  if (want(sf::kClientIp)) out.client_ip = full.client_ip;
  if (want(sf::kClientPort)) out.client_port = full.client_port;
  if (want(sf::kServerPort)) out.server_port = full.server_port;
  if (want(sf::kAccess)) out.access = full.access;
  if (want(sf::kCloseState)) {
    out.handshake_completed = full.handshake_completed;
    out.close_reason = full.close_reason;
  }
  if (want(sf::kUpPackets)) out.up.packets = full.up.packets;
  if (want(sf::kUpBytes)) out.up.bytes = full.up.bytes;
  if (want(sf::kUpWireBytes)) out.up.bytes_with_hdr = full.up.bytes_with_hdr;
  if (want(sf::kUpQuality)) {
    out.up.retransmits = full.up.retransmits;
    out.up.out_of_order = full.up.out_of_order;
  }
  if (want(sf::kDownPackets)) out.down.packets = full.down.packets;
  if (want(sf::kDownBytes)) out.down.bytes = full.down.bytes;
  if (want(sf::kDownWireBytes)) out.down.bytes_with_hdr = full.down.bytes_with_hdr;
  if (want(sf::kDownQuality)) {
    out.down.retransmits = full.down.retransmits;
    out.down.out_of_order = full.down.out_of_order;
  }
  if (want(sf::kRttMin | sf::kRttSpread)) {
    out.rtt.samples = full.rtt.samples;
    out.rtt.min_us = full.rtt.min_us;
  }
  if (want(sf::kRttSpread)) {
    out.rtt.max_us = full.rtt.max_us;
    out.rtt.avg_us = full.rtt.avg_us;
  }
  if (want(sf::kL7)) out.l7 = full.l7;
  if (want(sf::kWeb)) out.web = full.web;
  if (want(sf::kNameSource)) out.name_source = full.name_source;
  if (want(sf::kServerName)) out.server_name = full.server_name;
  if (want(sf::kHttpStatus)) out.http_status = full.http_status;
  if (want(sf::kContentType)) out.content_type = full.content_type;
  return out;
}

/// Field-exhaustive equality (unlike expect_equal, which tracks the lossy
/// row codec): projection compares two decodes of the same bytes, so
/// every field — including RTT average, downstream counters, and
/// ingest_seq — must match bit for bit.
void expect_identical(const FlowRecord& a, const FlowRecord& b) {
  expect_equal(a, b);
  EXPECT_EQ(a.rtt.avg_us, b.rtt.avg_us);
  EXPECT_EQ(a.down.packets, b.down.packets);
  EXPECT_EQ(a.down.bytes_with_hdr, b.down.bytes_with_hdr);
  EXPECT_EQ(a.up.out_of_order, b.up.out_of_order);
  EXPECT_EQ(a.ingest_seq, b.ingest_seq);
}

}  // namespace

TEST(DataLakeV3, ProjectedScanMaterializesExactlyTheRequestedFields) {
  namespace sf = ew::storage::scan_fields;
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2017, 6, 1};
  const auto records = varied_batch(41, 1200, day);
  ASSERT_TRUE(lake.append(day, records).has_value());

  ew::storage::ScanResult status;
  const auto full = lake.read_day(day, status);
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(full.size(), records.size());

  // One preset mask (compile-time-specialized emit loop), one arbitrary
  // mask (generic emit loop), one single-field mask, and the empty
  // projection: each must deliver the oracle exactly.
  const std::uint32_t masks[] = {sf::kDayAggregate,
                                 sf::kUpBytes | sf::kRttSpread | sf::kContentType,
                                 sf::kServerName, 0u};
  for (const std::uint32_t mask : masks) {
    std::vector<FlowRecord> got;
    const auto pred = ew::storage::ScanPredicate::project(mask);
    ASSERT_TRUE(ew::testing::scan_rows(lake, day, pred, [&](const FlowRecord& r) {
                  got.push_back(r);
                }).ok());
    ASSERT_EQ(got.size(), full.size()) << "mask " << mask;
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_identical(got[i], project_oracle(full[i], mask));
    }
  }
}

TEST(DataLakeV3, ProjectionComposesWithRowFilters) {
  namespace sf = ew::storage::scan_fields;
  TempDir dir;
  ew::storage::DataLake lake{dir.path};
  const CivilDate day{2017, 6, 2};
  const auto records = varied_batch(42, 1200, day);
  ASSERT_TRUE(lake.append(day, records).has_value());

  ew::storage::ScanResult status;
  const auto full = lake.read_day(day, status);
  ASSERT_TRUE(status.ok());

  auto pred = ew::storage::ScanPredicate::for_proto(ew::core::TransportProto::kUdp);
  pred.fields = sf::kUpBytes | sf::kDownBytes;
  std::vector<FlowRecord> got;
  ASSERT_TRUE(
      ew::testing::scan_rows(lake, day, pred, [&](const FlowRecord& r) { got.push_back(r); })
          .ok());

  std::vector<FlowRecord> expected;
  for (const auto& r : full) {
    if (r.proto == ew::core::TransportProto::kUdp) {
      expected.push_back(project_oracle(r, pred.fields));
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), full.size());  // the filter actually selects
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_identical(got[i], expected[i]);
}
