// Pcap file round-trips and robustness, including probe-from-pcap replay.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "net/pcap.hpp"
#include "probe/probe.hpp"
#include "synth/packets.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;

namespace {

/// A capture path inside a per-test scratch directory.
struct TempFile {
  ew::testing::TempDir dir{"ewpcap"};
  fs::path path = dir.path / "trace.pcap";
};

ew::net::Trace sample_trace() {
  ew::net::Trace trace;
  ew::synth::ConversationSpec spec;
  spec.client = ew::core::IPv4Address{10, 0, 0, 9};
  spec.server = ew::core::IPv4Address{157, 240, 1, 1};
  spec.web = ew::dpi::WebProtocol::kTls;
  spec.server_name = "www.facebook.com";
  spec.response_bytes = 9'000;
  spec.start = ew::core::Timestamp::from_date_time({2016, 3, 4}, 12);
  spec.rtt_us = 12'000;
  for (auto& f : ew::synth::render_conversation(spec)) trace.add(std::move(f));
  return trace;
}

void put32(std::ofstream& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 4);
}

void put16(std::ofstream& out, std::uint16_t v) {
  char b[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.write(b, 2);
}

/// Hand-build a little-endian pcap with an arbitrary magic and snaplen.
void write_raw_pcap(const fs::path& path, std::uint32_t magic, std::uint32_t snaplen,
                    std::initializer_list<std::pair<std::uint32_t, std::uint32_t>> frames) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  put32(out, magic);
  put16(out, 2);
  put16(out, 4);
  put32(out, 0);
  put32(out, 0);
  put32(out, snaplen);
  put32(out, 1);  // Ethernet
  for (const auto& [incl, orig] : frames) {
    put32(out, 1000);  // sec
    put32(out, 500);   // frac
    put32(out, incl);
    put32(out, orig);
    for (std::uint32_t i = 0; i < incl; ++i) out.put('\0');
  }
}

}  // namespace

TEST(Pcap, WriteReadRoundTrip) {
  TempFile file;
  const auto trace = sample_trace();
  const auto written = ew::net::write_pcap(file.path, trace);
  EXPECT_GT(written, 24u);

  const auto loaded = ew::net::load_pcap(file.path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ((*loaded)[i].timestamp, trace[i].timestamp);
    EXPECT_EQ((*loaded)[i].data, trace[i].data);
  }
}

TEST(Pcap, StatsCountFramesAndBytes) {
  TempFile file;
  const auto trace = sample_trace();
  ew::net::write_pcap(file.path, trace);
  std::size_t n = 0;
  const auto stats = ew::net::read_pcap(file.path, [&n](ew::net::Frame&&) { ++n; });
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->frames, trace.size());
  EXPECT_EQ(n, trace.size());
  EXPECT_EQ(stats->truncated, 0u);
  std::uint64_t bytes = 0;
  for (const auto& f : trace) bytes += f.data.size();
  EXPECT_EQ(stats->bytes, bytes);
}

TEST(Pcap, SnaplenTruncatesAndIsReported) {
  TempFile file;
  const auto trace = sample_trace();
  ew::net::write_pcap(file.path, trace, 100);
  const auto stats = ew::net::read_pcap(file.path, [](ew::net::Frame&& f) {
    EXPECT_LE(f.data.size(), 100u);
  });
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->truncated, 0u);
}

TEST(Pcap, RejectsGarbageAndMissingFiles) {
  const auto missing = ew::net::load_pcap("/nonexistent/file.pcap");
  EXPECT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error(), ew::core::Errc::kIoError);
  TempFile file;
  std::ofstream(file.path, std::ios::binary) << "this is not a pcap file at all";
  const auto garbage = ew::net::load_pcap(file.path);
  EXPECT_FALSE(garbage.has_value());
  EXPECT_EQ(garbage.error(), ew::core::Errc::kBadMagic);
}

TEST(Pcap, ShortGlobalHeaderIsTruncatedNotBadMagic) {
  TempFile file;
  std::ofstream(file.path, std::ios::binary).write("\xd4\xc3\xb2\xa1\x02\x00", 6);
  EXPECT_EQ(ew::net::load_pcap(file.path).error(), ew::core::Errc::kTruncated);
}

TEST(Pcap, MicrosecondFilesReportNoNanosecondFlag) {
  TempFile file;
  ew::net::write_pcap(file.path, sample_trace());
  const auto stats = ew::net::read_pcap(file.path, [](ew::net::Frame&&) {});
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->nanosecond_timestamps);
  EXPECT_EQ(stats->oversnap, 0u);
}

TEST(Pcap, NanosecondMagicIsFlaggedAndTruncatedToMicros) {
  TempFile file;
  write_raw_pcap(file.path, 0xa1b23c4d, 65535, {{10, 10}});
  std::vector<ew::net::Frame> frames;
  const auto stats =
      ew::net::read_pcap(file.path, [&](ew::net::Frame&& f) { frames.push_back(std::move(f)); });
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->nanosecond_timestamps);
  ASSERT_EQ(frames.size(), 1u);
  // 1000 s + 500 ns floors to exactly 1000 s in microseconds.
  EXPECT_EQ(frames[0].timestamp.micros(), 1000 * 1'000'000);
}

TEST(Pcap, ZeroSnaplenIsRejectedAsCorrupt) {
  TempFile file;
  write_raw_pcap(file.path, 0xa1b2c3d4, 0, {{10, 10}});
  const auto stats = ew::net::read_pcap(file.path, [](ew::net::Frame&&) {});
  EXPECT_FALSE(stats.has_value());
  EXPECT_EQ(stats.error(), ew::core::Errc::kCorrupt);
}

TEST(Pcap, OversnapFramesAreCountedNotDropped) {
  TempFile file;
  // snaplen 64 but one record claims 100 captured bytes (malformed writer).
  write_raw_pcap(file.path, 0xa1b2c3d4, 64, {{40, 40}, {100, 100}});
  std::size_t n = 0;
  const auto stats = ew::net::read_pcap(file.path, [&n](ew::net::Frame&&) { ++n; });
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->frames, 2u);
  EXPECT_EQ(n, 2u);  // delivered, not dropped
  EXPECT_EQ(stats->oversnap, 1u);
}

TEST(Pcap, TruncatedLastRecordEndsGracefully) {
  TempFile file;
  const auto trace = sample_trace();
  ew::net::write_pcap(file.path, trace);
  // Chop the file mid-record.
  const auto size = fs::file_size(file.path);
  fs::resize_file(file.path, size - 7);
  std::size_t n = 0;
  const auto stats = ew::net::read_pcap(file.path, [&n](ew::net::Frame&&) { ++n; });
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->frames, trace.size() - 1);
  EXPECT_EQ(n, trace.size() - 1);
}

TEST(Pcap, ProbeConsumesPcapReplay) {
  TempFile file;
  ew::net::write_pcap(file.path, sample_trace());
  std::vector<ew::flow::FlowRecord> records;
  ew::probe::Probe probe{{}, [&](ew::flow::FlowRecord&& r) { records.push_back(std::move(r)); }};
  const auto stats =
      ew::net::read_pcap(file.path, [&](ew::net::Frame&& f) { probe.process(f); });
  ASSERT_TRUE(stats.has_value());
  probe.finish();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].server_name, "www.facebook.com");
  EXPECT_EQ(records[0].down.bytes, 9'000u);
}
