// The batch execution core's golden identities: every consumer that moved
// from the row callback to RecordBatch must be *indistinguishable* from the
// row path — same aggregates bit for bit (fp accumulation order included),
// same rollup bytes, same delivery counts on damaged days — and the
// batch→row shim must reproduce the stored records exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analytics/parallel.hpp"
#include "core/hash.hpp"
#include "exec/record_batch.hpp"
#include "query/rollup.hpp"
#include "storage/codec.hpp"
#include "storage/columnar.hpp"
#include "storage/daily_writer.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;
using ew::core::CivilDate;
using ew::flow::FlowRecord;
using ew::testing::TempDir;

namespace {

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void spew(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

std::string encode_stream(const std::vector<FlowRecord>& records) {
  ew::core::ByteWriter w;
  for (const auto& r : records) ew::storage::encode_record(r, w);
  return std::string(reinterpret_cast<const char*>(w.view().data()), w.size());
}

std::vector<FlowRecord> paper_day(CivilDate day) {
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(7, 0.2)};
  return gen.day_records(day);
}

/// Overwrite bytes inside the first block's body of a day file and
/// recompute the frame CRC (simulates an encoder lie, not media damage).
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
  for (int i = 0; i < 4; ++i) {
    contents[frame + 12 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  spew(path, contents);
}

/// Exhaustive (and exact, fp included) aggregate comparison: the batch path
/// promises *bit-identical* accumulation, not approximately-equal figures.
void expect_aggregates_equal(const ew::analytics::DayAggregate& a,
                             const ew::analytics::DayAggregate& b) {
  EXPECT_EQ(a.date.to_string(), b.date.to_string());
  EXPECT_EQ(a.web_bytes, b.web_bytes);
  EXPECT_EQ(a.downlink_bins, b.downlink_bins);  // exact doubles: same add order
  for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
    EXPECT_EQ(a.rtt_min_ms[s], b.rtt_min_ms[s]) << "service " << s;  // exact order
    EXPECT_EQ(a.health[s].packets, b.health[s].packets) << "service " << s;
    EXPECT_EQ(a.health[s].retransmits, b.health[s].retransmits) << "service " << s;
    EXPECT_EQ(a.health[s].out_of_order, b.health[s].out_of_order) << "service " << s;
  }
  ASSERT_EQ(a.subscribers.size(), b.subscribers.size());
  for (const auto& [ip, sub] : a.subscribers) {
    const auto it = b.subscribers.find(ip);
    ASSERT_NE(it, b.subscribers.end());
    EXPECT_EQ(sub.access, it->second.access);
    EXPECT_EQ(sub.flows, it->second.flows);
    EXPECT_EQ(sub.bytes_up, it->second.bytes_up);
    EXPECT_EQ(sub.bytes_down, it->second.bytes_down);
    for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
      EXPECT_EQ(sub.per_service[s].flows, it->second.per_service[s].flows);
      EXPECT_EQ(sub.per_service[s].bytes_up, it->second.per_service[s].bytes_up);
      EXPECT_EQ(sub.per_service[s].bytes_down, it->second.per_service[s].bytes_down);
    }
  }
  ASSERT_EQ(a.server_ips.size(), b.server_ips.size());
  for (const auto& [ip, stats] : a.server_ips) {
    const auto it = b.server_ips.find(ip);
    ASSERT_NE(it, b.server_ips.end());
    EXPECT_EQ(stats.service_mask, it->second.service_mask);
    EXPECT_EQ(stats.bytes, it->second.bytes);
  }
  EXPECT_EQ(a.domain_bytes, b.domain_bytes);
  EXPECT_EQ(a.unclassified_domain_bytes, b.unclassified_domain_bytes);
}

/// The row-path oracle: same lake, same projection, but every record goes
/// through DayAggregator::add via the row-callback shim.
ew::analytics::DayAggregate row_oracle(const ew::storage::DataLake& lake, CivilDate day,
                                       ew::storage::ScanResult* scan_out = nullptr) {
  ew::analytics::DayAggregator agg(day);
  const auto pred =
      ew::storage::ScanPredicate::project(ew::analytics::kDayAggregateScanFields);
  const auto scan = lake.scan_day(day, pred, [&](const FlowRecord& r) { agg.add(r); });
  if (scan_out != nullptr) *scan_out = scan;
  return std::move(agg).take();
}

}  // namespace

// Decoding a stored block and replaying it through the batch→row shim
// reproduces the appended records byte for byte — the direct oracle for
// the row-callback scan path.
TEST(ExecBatch, MaterializedBatchRoundTripsRecordsByteIdentical) {
  const CivilDate day{2016, 3, 3};
  auto records = paper_day(day);
  records.resize(std::min<std::size_t>(records.size(), 5'000));
  ASSERT_FALSE(records.empty());
  TempDir dir;
  ew::storage::DataLake lake(dir.path);
  ASSERT_TRUE(lake.append(day, records).has_value());

  std::vector<FlowRecord> got;
  FlowRecord rec;
  std::uint64_t delivered = 0;
  auto sink = [&](const FlowRecord& r) { got.push_back(r); };
  std::size_t batches = 0;
  const auto scan = lake.scan_day_batches(day, [&](const ew::exec::RecordBatch& batch) {
    ++batches;
    EXPECT_EQ(batch.delivered_rows(), batch.rows);
    ew::exec::materialize_rows(batch, rec, sink, delivered);
  });
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(batches, 2u);  // 4096 + 904 rows
  EXPECT_EQ(delivered, records.size());
  // ingest_seq is not stored in the lake; the shim zeroes it, so mirror
  // that on the expectation side before the byte compare.
  auto expected = records;
  for (auto& r : expected) r.ingest_seq = 0;
  EXPECT_EQ(encode_stream(got), encode_stream(expected));
}

// The headline identity: batch-fed aggregation equals row-fed aggregation —
// bit for bit — on the same stored day, and the figure-feeding rollups
// built from them are byte-identical.
TEST(ExecBatch, BatchAggregateMatchesRow) {
  const CivilDate day{2016, 4, 12};
  const auto records = paper_day(day);
  TempDir dir;
  ew::storage::DataLake lake(dir.path);
  ASSERT_TRUE(lake.append(day, records).has_value());

  ew::storage::ScanResult row_scan;
  const auto want = row_oracle(lake, day, &row_scan);
  const auto got = ew::analytics::aggregate_day(lake, day);  // batch path
  ASSERT_TRUE(got.scan.ok());
  EXPECT_EQ(got.scan.records_delivered, row_scan.records_delivered);
  EXPECT_EQ(got.scan.records_delivered, records.size());
  expect_aggregates_equal(want, got.aggregate);

  EXPECT_EQ(ew::query::encode_rollup(ew::query::build_day_rollups(want)),
            ew::query::encode_rollup(ew::query::build_day_rollups(got.aggregate)));
}

// Dict-code pass-through oracle: under the kDayAggregate projection a
// batch carries (name_idx, name_dict) instead of per-row strings. Resolving
// each row through the dictionary must reproduce exactly the server_name
// sequence the row path emits — and the dictionary must actually be shared
// (fewer entries than rows), or pass-through bought nothing.
TEST(ExecBatch, ProjectionPassesDictCodesThrough) {
  const CivilDate day{2016, 5, 20};
  const auto records = paper_day(day);
  TempDir dir;
  ew::storage::DataLake lake(dir.path);
  ASSERT_TRUE(lake.append(day, records).has_value());

  const auto pred =
      ew::storage::ScanPredicate::project(ew::exec::scan_fields::kDayAggregate);

  std::vector<std::string> row_names;
  (void)lake.scan_day(day, pred,
                      [&](const FlowRecord& r) { row_names.push_back(r.server_name); });

  std::vector<std::string> batch_names;
  std::size_t batches = 0, dict_entries = 0;
  const auto scan = lake.scan_day_batches(day, pred, [&](const ew::exec::RecordBatch& b) {
    ++batches;
    EXPECT_EQ(b.fields, ew::exec::scan_fields::kDayAggregate);
    ASSERT_FALSE(b.name_idx.empty());
    ASSERT_FALSE(b.name_dict.empty());
    // Unprojected columns stay empty, never stale.
    EXPECT_TRUE(b.ct_idx.empty());
    EXPECT_TRUE(b.cport.empty());
    EXPECT_TRUE(b.http_status.empty());
    dict_entries += b.name_dict.size();
    b.for_each_row([&](std::size_t i) {
      ASSERT_LT(b.name_idx[i], b.name_dict.size());
      batch_names.emplace_back(b.name_dict[b.name_idx[i]]);
    });
  });
  ASSERT_TRUE(scan.ok());
  EXPECT_GT(batches, 1u);
  EXPECT_EQ(batch_names, row_names);
  EXPECT_LT(dict_entries, batch_names.size());  // codes are shared across rows
}

// A lying zone map (encoder bug behind a valid CRC) must behave identically
// on the batch path: every record still delivered, day flagged kCorrupt.
TEST(ExecBatch, ZoneMapLieFlagsButDeliversThroughBatches) {
  const CivilDate day{2016, 6, 1};
  const auto records = paper_day(day);
  TempDir dir;
  ew::storage::DataLake lake(dir.path);
  ASSERT_TRUE(lake.append(day, records).has_value());
  // Zero the first block's zone-map service bitmap (body offset 2 + 16):
  // the map now claims "no service present" while rows disagree.
  const unsigned char zeros[4] = {0, 0, 0, 0};
  patch_first_body(dir.path / ew::storage::DataLake::day_filename(day), 2 + 16, zeros);

  ew::storage::ScanResult row_scan;
  const auto want = row_oracle(lake, day, &row_scan);
  EXPECT_EQ(row_scan.errc, ew::core::Errc::kCorrupt);
  EXPECT_EQ(row_scan.records_delivered, records.size());

  const auto got = ew::analytics::aggregate_day(lake, day);
  EXPECT_EQ(got.scan.errc, ew::core::Errc::kCorrupt);
  EXPECT_EQ(got.scan.records_delivered, records.size());
  expect_aggregates_equal(want, got.aggregate);
}

// A torn day (truncated mid-frame) delivers the blocks before the tear on
// both paths: the row shim and the batch consumers see exactly the same
// records.
TEST(ExecBatch, TornDayDeliversSamePrefixAsBatches) {
  const CivilDate day{2016, 7, 9};
  const auto records = paper_day(day);
  TempDir dir;
  ew::storage::DataLake lake(dir.path);
  ASSERT_TRUE(lake.append(day, records).has_value());
  ASSERT_GT(lake.load_day_blocks(day).blocks().size(), 2u);

  const auto path = dir.path / ew::storage::DataLake::day_filename(day);
  auto contents = slurp(path);
  contents.resize(contents.size() - contents.size() / 3);  // tear the tail off
  spew(path, contents);

  ew::storage::ScanResult row_scan;
  const auto want = row_oracle(lake, day, &row_scan);
  ASSERT_GT(row_scan.records_delivered, 0u);
  ASSERT_LT(row_scan.records_delivered, records.size());
  EXPECT_EQ(row_scan.records_delivered % ew::storage::DataLake::kBlockRecords, 0u);

  const auto got = ew::analytics::aggregate_day(lake, day);
  EXPECT_EQ(got.scan.records_delivered, row_scan.records_delivered);
  EXPECT_EQ(got.scan.errc, row_scan.errc);
  expect_aggregates_equal(want, got.aggregate);
}

// The writer's one-entry MRU day cache is pure mechanism: interleaved days,
// mid-streak flushes (which erase the cached bucket), and retries must all
// land every record in its own day.
TEST(ExecWriter, MruDayCacheIsTransparentAcrossInterleavedDays) {
  const CivilDate days[] = {{2016, 9, 1}, {2016, 9, 2}, {2016, 9, 3}};
  TempDir dir;
  ew::storage::DataLake lake(dir.path);
  ew::storage::DailyLakeWriter writer(lake, /*buffer_records=*/64);

  std::size_t per_day[3] = {0, 0, 0};
  // Long same-day streaks with day switches, crossing the flush threshold
  // mid-streak so the MRU bucket is erased underneath a continuing streak.
  for (std::size_t round = 0; round < 5; ++round) {
    for (std::size_t d = 0; d < 3; ++d) {
      for (std::size_t i = 0; i < 100; ++i) {
        FlowRecord r;
        r.first_packet = ew::core::Timestamp::from_date_time(days[d], 12, 0, 0);
        r.last_packet = r.first_packet + 1'000'000;
        r.client_ip = ew::core::IPv4Address{static_cast<std::uint32_t>(round * 1000 + i)};
        r.up.bytes = round + 1;
        writer.add(std::move(r));
        ++per_day[d];
      }
    }
  }
  ASSERT_TRUE(writer.flush_all());
  EXPECT_EQ(writer.buffered(), 0u);
  EXPECT_EQ(writer.records_written(), per_day[0] + per_day[1] + per_day[2]);
  for (std::size_t d = 0; d < 3; ++d) {
    const auto got = lake.read_day(days[d]);
    EXPECT_EQ(got.size(), per_day[d]) << "day " << d;
    for (const auto& r : got) EXPECT_EQ(r.first_packet.date(), days[d]);
    EXPECT_TRUE(lake.fsck_day(days[d]).healthy());
  }
}
