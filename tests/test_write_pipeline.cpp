// Write-path tests: the pipelined block encoder must be invisible in the
// bytes (parallel ≡ serial, any pool size), the adaptive value-segment
// codec must round-trip against a scalar oracle and reject every
// truncation, the append cursor cache must be invisible too, and a kill
// mid-parallel-flush must resume to a byte-identical day file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "obs/obs.hpp"
#include "storage/compress.hpp"
#include "storage/datalake.hpp"
#include "storage/fault_injection.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;
using ew::core::CivilDate;
using ew::core::ThreadPool;
using ew::flow::FlowRecord;
using ew::testing::TempDir;

namespace {

std::vector<std::byte> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<std::byte> out(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(out.size()));
  return out;
}

std::vector<std::byte> day_bytes(const ew::storage::DataLake& lake, CivilDate day) {
  return file_bytes(lake.root() / ew::storage::DataLake::day_filename(day));
}

/// Deterministic records with dictionaries that overlap across blocks yet
/// differ per block: most names come from a shared pool, a few are unique
/// to their block.
std::vector<FlowRecord> make_records(CivilDate day, std::size_t n) {
  static const char* kNames[] = {
      "static.example.com",    "edge-star.facebook.com", "r3---sn.googlevideo.com",
      "cdn.sstatic.net",       "api.twitter.com",        "img.service.example.net",
      "video.cdn.example.org", "push.messenger.test",
  };
  static const char* kContentTypes[] = {"", "video/mp4", "text/html", "image/jpeg"};
  std::vector<FlowRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t block = i / ew::storage::DataLake::kBlockRecords;
    FlowRecord r;
    r.client_ip = ew::core::IPv4Address{static_cast<std::uint32_t>(0x0a000000 + i % 4099)};
    r.server_ip = ew::core::IPv4Address{static_cast<std::uint32_t>(0x5db8d800 + i % 61)};
    r.client_port = static_cast<std::uint16_t>(40'000 + i % 20'000);
    r.server_port = i % 2 ? 443 : 80;
    r.proto = i % 7 == 0 ? ew::core::TransportProto::kUdp : ew::core::TransportProto::kTcp;
    r.first_packet = ew::core::Timestamp::from_date_time(day, static_cast<int>(block % 24)) +
                     static_cast<std::int64_t>(i % 4096) * 1000;
    r.last_packet = r.first_packet + static_cast<std::int64_t>(1'000'000 + i % 997);
    r.up.packets = i % 83;
    r.up.bytes = (i % 83) * 311;
    r.down.packets = i % 131;
    r.down.bytes = (i % 131) * 1441;
    if (i % 4) r.rtt.add(static_cast<std::int64_t>(2'000 + i % 57'000));
    r.l7 = i % 2 ? ew::dpi::L7Protocol::kTls : ew::dpi::L7Protocol::kHttp;
    if (i % 16 == 0) {
      // A per-block-unique dictionary entry: block b's name dictionary is
      // a strict superset of the shared pool, different for every block.
      r.server_name = "host-" + std::to_string(block) + "-" + std::to_string(i % 4096 / 256) +
                      ".unique.example.net";
    } else {
      r.server_name = kNames[i % (sizeof(kNames) / sizeof(kNames[0]))];
    }
    r.content_type = kContentTypes[i % (sizeof(kContentTypes) / sizeof(kContentTypes[0]))];
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- codec v2

TEST(CodecV2, ValueSegmentsRoundTripAgainstScalarOracle) {
  // Shapes chosen to make each codec win at least once; every one must
  // round-trip exactly regardless of which envelope was picked.
  ew::core::Xoshiro256 rng{0xC0DEC42};
  std::vector<std::vector<std::uint64_t>> cases;
  cases.push_back({});                                  // empty
  cases.push_back({0});                                 // single
  cases.push_back(std::vector<std::uint64_t>(4096, 7));  // constant -> RLE
  {
    std::vector<std::uint64_t> clustered;               // tight range -> FOR
    for (std::size_t i = 0; i < 4096; ++i) clustered.push_back(1'500'000'000 + (rng() & 1023));
    cases.push_back(std::move(clustered));
  }
  {
    std::vector<std::uint64_t> runs;                    // long runs -> RLE
    for (std::size_t i = 0; i < 4096; ++i) runs.push_back(i / 512);
    cases.push_back(std::move(runs));
  }
  {
    std::vector<std::uint64_t> random;                  // incompressible
    for (std::size_t i = 0; i < 4096; ++i) random.push_back(rng());
    cases.push_back(std::move(random));
  }
  {
    std::vector<std::uint64_t> wide;                    // full-width extremes
    for (std::size_t i = 0; i < 257; ++i) {
      wide.push_back(i % 2 ? 0 : std::numeric_limits<std::uint64_t>::max() - i);
    }
    cases.push_back(std::move(wide));
  }

  ew::storage::CompressScratch cs;
  std::vector<std::byte> env, scratch;
  bool saw_for = false, saw_rle = false;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& values = cases[c];
    env.clear();
    const auto r = ew::storage::compress_u64_segment(values, env, cs);
    EXPECT_EQ(r.bytes_out, env.size()) << "case " << c;
    saw_for |= r.scheme == ew::storage::kSchemeForBitpack;
    saw_rle |= r.scheme == ew::storage::kSchemeRle;
    std::vector<std::uint64_t> got(values.size() + 1, 0xdead);
    ASSERT_TRUE(ew::storage::decompress_u64_segment(env, values.size(), got.data(), scratch))
        << "case " << c;
    got.pop_back();
    EXPECT_TRUE(std::equal(values.begin(), values.end(), got.begin())) << "case " << c;
    // Wrong expected count must be rejected, not padded or truncated.
    if (!values.empty()) {
      std::vector<std::uint64_t> wrong(values.size() + 1);
      EXPECT_FALSE(ew::storage::decompress_u64_segment(env, values.size() + 1, wrong.data(),
                                                       scratch));
      EXPECT_FALSE(ew::storage::decompress_u64_segment(env, values.size() - 1, wrong.data(),
                                                       scratch));
    }
  }
  EXPECT_TRUE(saw_for);
  EXPECT_TRUE(saw_rle);
}

TEST(CodecV2, TruncatedEnvelopesAreRejectedAtEveryByteOffset) {
  ew::core::Xoshiro256 rng{0x7125};
  ew::storage::CompressScratch cs;
  std::vector<std::byte> scratch;
  const auto sweep = [&](const std::vector<std::uint64_t>& values) {
    std::vector<std::byte> env;
    (void)ew::storage::compress_u64_segment(values, env, cs);
    std::vector<std::uint64_t> out(values.size() + 1);
    for (std::size_t cut = 0; cut < env.size(); ++cut) {
      EXPECT_FALSE(ew::storage::decompress_u64_segment(
          std::span<const std::byte>{env.data(), cut}, values.size(), out.data(), scratch))
          << "cut=" << cut;
    }
    // Trailing garbage is as malformed as a missing tail.
    env.push_back(std::byte{0x5a});
    EXPECT_FALSE(
        ew::storage::decompress_u64_segment(env, values.size(), out.data(), scratch));
  };
  sweep(std::vector<std::uint64_t>(1024, 42));                       // RLE
  {
    std::vector<std::uint64_t> clustered;
    for (std::size_t i = 0; i < 1024; ++i) clustered.push_back(9'000'000 + (rng() & 8191));
    sweep(clustered);                                                // FOR
  }
  {
    std::vector<std::uint64_t> random;
    for (std::size_t i = 0; i < 512; ++i) random.push_back(rng());
    sweep(random);                                                   // stored varint
  }
  {
    std::vector<std::uint64_t> runs;
    for (std::size_t i = 0; i < 2048; ++i) runs.push_back(i / 300);
    sweep(runs);
  }
}

TEST(CodecV2, MutatedEnvelopesNeverCrashAndNeverOverDeliver) {
  ew::core::Xoshiro256 rng{0xF00D};
  ew::storage::CompressScratch cs;
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < 1024; ++i) values.push_back(100'000 + (rng() & 2047));
  std::vector<std::byte> env;
  (void)ew::storage::compress_u64_segment(values, env, cs);
  std::vector<std::byte> scratch;
  std::vector<std::uint64_t> out(values.size());
  std::vector<std::byte> mut;
  for (int i = 0; i < 20'000; ++i) {
    mut = env;
    const std::size_t flips = 1 + ew::core::uniform_below(rng, 6);
    for (std::size_t f = 0; f < flips; ++f) {
      mut[ew::core::uniform_below(rng, mut.size())] ^= static_cast<std::byte>(1u << (rng() & 7));
    }
    if (i % 5 == 0) mut.resize(ew::core::uniform_below(rng, mut.size() + 1));
    (void)ew::storage::decompress_u64_segment(mut, values.size(), out.data(), scratch);
  }
}

// ------------------------------------------------------- pipelined encode

TEST(WritePipeline, ParallelEncodeIsByteIdenticalToSerial) {
  const CivilDate day{2017, 3, 9};
  // Two appends: 11 blocks then 3, so the encode ring wraps inside an append
  // and restarts at the append boundary.
  const auto batch1 = make_records(day, 10 * ew::storage::DataLake::kBlockRecords + 777);
  const auto batch2 = make_records(day, 2 * ew::storage::DataLake::kBlockRecords + 33);

  const TempDir golden_dir;
  ew::storage::DataLake golden(golden_dir.path);
  ASSERT_TRUE(golden.append(day, batch1).has_value());
  ASSERT_TRUE(golden.append(day, batch2).has_value());
  const auto want = day_bytes(golden, day);
  ASSERT_GT(want.size(), 1000u);
  ASSERT_TRUE(golden.fsck_day(day).healthy());

  // The in-flight window is twice the pool size, so the sweep runs from a
  // window of 2 up to one that holds a whole append.
  for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    const TempDir dir;
    ew::storage::DataLake lake(dir.path);
    lake.set_encode_pool(&pool);
    ASSERT_TRUE(lake.append(day, batch1).has_value());
    ASSERT_TRUE(lake.append(day, batch2).has_value());
    lake.set_encode_pool(nullptr);
    EXPECT_EQ(day_bytes(lake, day), want);
  }

  if constexpr (ew::obs::kEnabled) {
    // The pipeline drained: nothing in flight once append returned, and
    // the per-codec tallies actually moved.
    auto& reg = ew::obs::Registry::global();
    EXPECT_EQ(reg.gauge("lake_encode_inflight_blocks").value(), 0);
    const std::uint64_t out_bytes = reg.counter("lake_codec_stored_bytes_out_total").value() +
                                    reg.counter("lake_codec_lz_bytes_out_total").value() +
                                    reg.counter("lake_codec_for_bytes_out_total").value() +
                                    reg.counter("lake_codec_rle_bytes_out_total").value();
    EXPECT_GT(out_bytes, 0u);
  }
}

TEST(WritePipeline, AppendCursorCacheIsTransparent) {
  // The reference reparses the file before every append: a fresh DataLake
  // has no cached cursor. The cached lake must produce the same bytes.
  const CivilDate day{2017, 4, 1};
  const TempDir reference_dir, cached_dir;
  ew::storage::DataLake cached(cached_dir.path);
  const auto reference_append = [&](std::span<const FlowRecord> records) {
    ew::storage::DataLake reference(reference_dir.path);
    return reference.append(day, records).has_value();
  };
  ew::storage::DataLake reference(reference_dir.path);

  for (std::size_t batch = 0; batch < 5; ++batch) {
    const auto records =
        make_records(day, ew::storage::DataLake::kBlockRecords + 100 * batch + 1);
    ASSERT_TRUE(reference_append(records));
    ASSERT_TRUE(cached.append(day, records).has_value());
    ASSERT_EQ(day_bytes(cached, day), day_bytes(reference, day)) << "batch " << batch;
  }

  // Out-of-band change: truncating to a mid-file offset leaves a torn tail
  // both lakes must re-derive identically (cache invalidated, not trusted).
  const auto size = reference.file_bytes(day);
  ASSERT_TRUE(reference.truncate_day(day, size / 2).has_value());
  ASSERT_TRUE(cached.truncate_day(day, size / 2).has_value());
  const auto more = make_records(day, 1234);
  ASSERT_TRUE(reference_append(more));
  ASSERT_TRUE(cached.append(day, more).has_value());
  EXPECT_EQ(day_bytes(cached, day), day_bytes(reference, day));
  EXPECT_TRUE(cached.fsck_day(day).healthy());

  // Mutation behind the cached lake's back: another lake truncates the day
  // to a torn tail and repairs it. The stat check must catch the change.
  ew::storage::DataLake other(cached_dir.path);
  for (auto* lake : {&other, &reference}) {
    ASSERT_TRUE(lake->truncate_day(day, lake->file_bytes(day) - 7).has_value());
    EXPECT_TRUE(lake->repair_day(day).repaired);
  }
  ASSERT_TRUE(cached.append(day, more).has_value());
  ASSERT_TRUE(reference_append(more));
  EXPECT_EQ(day_bytes(cached, day), day_bytes(reference, day));
  EXPECT_TRUE(cached.fsck_day(day).healthy());
}

TEST(WritePipeline, KillMidParallelFlushResumesByteIdentical) {
  const CivilDate day{2017, 5, 20};
  const auto batch1 = make_records(day, 3 * ew::storage::DataLake::kBlockRecords);
  const auto batch2 = make_records(day, 9 * ew::storage::DataLake::kBlockRecords + 55);

  // Golden: both appends, uninterrupted (serial — identity with the
  // parallel encoder is covered above; here the crash is the subject).
  const TempDir golden_dir;
  ew::storage::DataLake golden(golden_dir.path);
  ASSERT_TRUE(golden.append(day, batch1).has_value());
  const std::uint64_t durable = golden.file_bytes(day);  // the checkpointed length
  ASSERT_TRUE(golden.append(day, batch2).has_value());
  const auto want = day_bytes(golden, day);

  // FaultPlan::at_byte counts bytes written through the handle, i.e. within
  // the second append's own stream (open_at's base is excluded).
  const std::uint64_t flush_bytes = want.size() - durable;
  ASSERT_GT(flush_bytes, 100u);
  ThreadPool pool(4);
  for (const std::uint64_t at :
       {std::uint64_t{1}, flush_bytes / 10, flush_bytes / 2, flush_bytes - 5}) {
    SCOPED_TRACE("crash at stream byte " + std::to_string(at));
    const TempDir dir;
    ew::storage::DataLake lake(dir.path);
    lake.set_encode_pool(&pool);
    ASSERT_TRUE(lake.append(day, batch1).has_value());

    // Kill the process (simulated) part-way through the second flush's
    // write stream: rollback fails too, a torn tail stays behind.
    lake.set_file_factory(ew::storage::FaultyFile::factory_once(
        {ew::storage::FaultKind::kCrashAtOffset, at, 0}));
    const auto crashed = lake.append(day, batch2);
    ASSERT_FALSE(crashed.has_value());
    EXPECT_EQ(crashed.error(), ew::core::Errc::kCrashed);

    // Fresh process: fsck sees the tear, resume truncates back to the
    // checkpointed durable length and replays the batch.
    ew::storage::DataLake resumed(dir.path);
    resumed.set_encode_pool(&pool);
    EXPECT_FALSE(resumed.fsck_day(day).healthy());
    ASSERT_TRUE(resumed.truncate_day(day, durable).has_value());
    ASSERT_TRUE(resumed.append(day, batch2).has_value());
    EXPECT_EQ(day_bytes(resumed, day), want);
    EXPECT_TRUE(resumed.fsck_day(day).healthy());
  }
}
