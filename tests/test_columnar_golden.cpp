// Columnar lake goldens against the in-memory reference: the lake must be
// invisible to every consumer. A day stored in the lake has to produce the
// same day aggregates and byte-identical rollups as DayAggregator::add over
// the very records that were appended, predicate pushdown has to deliver
// exactly what ScanPredicate::matches selects from them, and the query
// engine's raw-lake fallback has to be indistinguishable from a
// rollup-answered day. The stored service column must hold each row's own
// flow verdict, although the encoder classifies each name only once per
// block.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <filesystem>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "core/thread_pool.hpp"
#include "query/engine.hpp"
#include "query/rollup.hpp"
#include "query/store.hpp"
#include "storage/codec.hpp"
#include "storage/columnar.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "lake_rows.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;
using ew::core::CivilDate;
using ew::core::ThreadPool;
using ew::flow::FlowRecord;
using ew::testing::TempDir;

namespace {

void expect_aggregates_equal(const ew::analytics::DayAggregate& a,
                             const ew::analytics::DayAggregate& b) {
  EXPECT_EQ(a.date.to_string(), b.date.to_string());
  EXPECT_EQ(a.web_bytes, b.web_bytes);
  EXPECT_EQ(a.downlink_bins, b.downlink_bins);
  for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
    EXPECT_EQ(a.rtt_min_ms[s], b.rtt_min_ms[s]) << "service " << s;  // exact order
    EXPECT_EQ(a.health[s].packets, b.health[s].packets);
    EXPECT_EQ(a.health[s].retransmits, b.health[s].retransmits);
  }
  ASSERT_EQ(a.subscribers.size(), b.subscribers.size());
  for (const auto& [ip, sub] : a.subscribers) {
    const auto it = b.subscribers.find(ip);
    ASSERT_NE(it, b.subscribers.end());
    EXPECT_EQ(sub.flows, it->second.flows);
    EXPECT_EQ(sub.bytes_up, it->second.bytes_up);
    EXPECT_EQ(sub.bytes_down, it->second.bytes_down);
    for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
      EXPECT_EQ(sub.per_service[s].flows, it->second.per_service[s].flows);
      EXPECT_EQ(sub.per_service[s].bytes_down, it->second.per_service[s].bytes_down);
    }
  }
  ASSERT_EQ(a.server_ips.size(), b.server_ips.size());
  EXPECT_EQ(a.domain_bytes, b.domain_bytes);
  EXPECT_EQ(a.unclassified_domain_bytes, b.unclassified_domain_bytes);
}

/// Wire-encode a record stream for byte-exact comparison.
std::string encode_stream(const std::vector<FlowRecord>& records) {
  ew::core::ByteWriter w;
  for (const auto& r : records) ew::storage::encode_record(r, w);
  return std::string(reinterpret_cast<const char*>(w.view().data()), w.size());
}

std::vector<FlowRecord> paper_day(CivilDate day) {
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(7, 0.2)};
  return gen.day_records(day);
}

/// A day in which the same server names ride P2P rows (named by DN-Hunter)
/// and TLS rows, some rows carry no name, and every name repeats across the
/// lake's 4096-record block boundary. In the first block each name first
/// appears on a P2P row; the second block lists the names in reverse, so
/// each gets another dictionary code than in the first, and each first
/// appears on a TLS row.
std::vector<FlowRecord> shared_name_day(CivilDate day) {
  const std::array<std::string, 5> names = {"www.youtube.com", "", "www.facebook.com",
                                            "cdn.unlisted-example.net", "www.netflix.com"};
  constexpr std::size_t kBlock = ew::storage::DataLake::kBlockRecords;
  constexpr std::size_t kRows = kBlock + 1500;
  std::vector<FlowRecord> out;
  out.reserve(kRows);
  const auto start = ew::core::Timestamp::from_date(day);
  for (std::size_t i = 0; i < kRows; ++i) {
    const bool second = i >= kBlock;
    const std::size_t j = second ? i - kBlock : i;
    FlowRecord r;
    r.client_ip = ew::core::IPv4Address{10, 0, static_cast<std::uint8_t>(i >> 8),
                                        static_cast<std::uint8_t>(i)};
    r.server_ip = ew::core::IPv4Address{93, 184, 216, static_cast<std::uint8_t>(j % 5)};
    r.proto = ew::core::TransportProto::kTcp;
    r.client_port = static_cast<std::uint16_t>(40000 + i % 2000);
    r.server_port = 443;
    r.first_packet = start + static_cast<std::int64_t>(i) * 1'000'000;
    r.last_packet = r.first_packet + 5'000'000;
    r.up.packets = 3 + i % 7;
    r.up.bytes = 100 + i;
    r.down.packets = 5 + i % 11;
    r.down.bytes = 1000 + 7 * i;
    r.server_name = names[second ? 4 - j % 5 : j % 5];
    const bool p2p = (j / 5) % 3 == (second ? 2u : 0u);
    r.l7 = p2p ? ew::dpi::L7Protocol::kBittorrent : ew::dpi::L7Protocol::kTls;
    r.web = p2p ? ew::dpi::WebProtocol::kNotWeb : ew::dpi::WebProtocol::kTls;
    r.name_source = r.server_name.empty() ? ew::flow::NameSource::kNone
                    : p2p                 ? ew::flow::NameSource::kDnsHunter
                                          : ew::flow::NameSource::kTlsSni;
    out.push_back(std::move(r));
  }
  return out;
}

/// The reference model: DayAggregator::add over in-memory records, no lake.
ew::analytics::DayAggregate reference_aggregate(CivilDate day,
                                                const std::vector<FlowRecord>& records,
                                                const ew::storage::ScanPredicate* pred = nullptr) {
  ew::analytics::DayAggregator agg(day);
  for (const auto& r : records) {
    if (pred == nullptr || pred->matches(r)) agg.add(r);
  }
  return std::move(agg).take();
}

}  // namespace

TEST(ColumnarGolden, AggregatesAndRollupsAreByteIdenticalAcrossFormats) {
  // Lake (the stage-one batch scan) vs the in-memory reference over the
  // records that were appended.
  const CivilDate day{2015, 6, 10};
  const auto records = paper_day(day);
  TempDir dir;
  ew::storage::DataLake lake(dir.path);
  ASSERT_TRUE(lake.append(day, records).has_value());
  ASSERT_GT(lake.fsck_day(day).blocks_ok, 1u);
  const auto want = reference_aggregate(day, records);

  const auto got = ew::analytics::aggregate_day(lake, day);
  ASSERT_TRUE(got.scan.ok());
  EXPECT_EQ(got.scan.records_delivered, records.size());
  expect_aggregates_equal(want, got.aggregate);

  // The figure-feeding rollups — counters, HLLs, quantile sketches — are
  // byte-identical, so every downstream figure is too.
  EXPECT_EQ(ew::query::encode_rollup(ew::query::build_day_rollups(want)),
            ew::query::encode_rollup(ew::query::build_day_rollups(got.aggregate)));
}

TEST(ColumnarGolden, PushdownDeliversExactlyThePostFilterSet) {
  const CivilDate day{2015, 8, 15};
  // Time-sort the synthetic stream (the generator emits subscriber-major)
  // so blocks are time-clustered and the window predicate can prune.
  auto records = paper_day(day);
  std::stable_sort(records.begin(), records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.first_packet < b.first_packet;
                   });
  TempDir dir;
  ew::storage::DataLake lake(dir.path);
  ASSERT_TRUE(lake.append(day, records).has_value());

  ew::storage::ScanPredicate pred =
      ew::storage::ScanPredicate::for_service(ew::services::ServiceId::kYouTube);
  pred.time_min_us = ew::core::Timestamp::from_date_time(day, 8).micros();
  pred.time_max_us = ew::core::Timestamp::from_date_time(day, 20).micros() - 1;

  // The oracle: decode everything, filter afterwards.
  std::vector<FlowRecord> oracle;
  for (const auto& r : records) {
    if (pred.matches(r)) oracle.push_back(r);
  }
  ASSERT_FALSE(oracle.empty());
  ASSERT_LT(oracle.size(), records.size());

  std::vector<FlowRecord> got;
  auto sink = [&](const FlowRecord& r) { got.push_back(r); };
  const auto scan = ew::testing::scan_rows(lake, day, pred, sink);
  EXPECT_TRUE(scan.ok());
  EXPECT_EQ(encode_stream(got), encode_stream(oracle));

  // And the filtered aggregate (predicate pushed below the decoder) equals
  // the reference over the post-filter set.
  ew::storage::ScanScratch scratch;
  const auto agg = ew::analytics::aggregate_day(lake, day, scratch, &pred);
  EXPECT_EQ(agg.scan.records_delivered, oracle.size());
  EXPECT_GT(agg.scan.blocks_pruned, 0u);
  expect_aggregates_equal(reference_aggregate(day, records, &pred), agg.aggregate);
}

TEST(ColumnarGolden, QueryRawFallbackMatchesRollupAnswers) {
  const CivilDate day1{2015, 10, 1}, day2{2015, 10, 2};
  TempDir lake_dir, full_dir, partial_dir;
  ew::storage::DataLake lake(lake_dir.path);
  ASSERT_TRUE(lake.append(day1, paper_day(day1)).has_value());
  ASSERT_TRUE(lake.append(day2, paper_day(day2)).has_value());

  ThreadPool pool(4);
  ew::query::RollupStore full(full_dir.path, lake);
  ASSERT_TRUE(full.build(pool).errors.empty());
  ew::query::RollupStore partial(partial_dir.path, lake);
  const std::vector<CivilDate> only_day1 = {day1};
  ASSERT_TRUE(partial.build(only_day1, pool).errors.empty());

  for (const auto metric : {ew::query::Metric::kBytes, ew::query::Metric::kFlows}) {
    for (const auto dim : {ew::query::Dimension::kService, ew::query::Dimension::kProtocol}) {
      ew::query::QuerySpec spec;
      spec.metric = metric;
      spec.dimension = dim;
      spec.from = day1;
      spec.to = day2;
      const auto want = ew::query::run_query(full, spec);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(want.days_merged, 2u);

      // Without the fallback, day2 is simply missing.
      auto miss = ew::query::run_query(partial, spec);
      EXPECT_EQ(miss.days_merged, 1u);
      ASSERT_EQ(miss.missing_days.size(), 1u);

      // With it, the missing day is answered from the raw lake — and the
      // rows are exactly what full rollups produce.
      spec.raw_fallback = true;
      const auto got = ew::query::run_query(partial, spec);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.days_merged, 2u);
      EXPECT_EQ(got.days_scanned_raw, 1u);
      EXPECT_TRUE(got.missing_days.empty());
      ASSERT_EQ(got.rows.size(), want.rows.size());
      for (std::size_t i = 0; i < got.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].key, want.rows[i].key);
        EXPECT_EQ(got.rows[i].value, want.rows[i].value);
      }

      // A group-restricted service query pushes its service mask down.
      if (dim == ew::query::Dimension::kService) {
        ew::query::QuerySpec one = spec;
        one.group = static_cast<std::uint32_t>(ew::services::ServiceId::kYouTube);
        const auto got_one = ew::query::run_query(partial, one);
        ew::query::QuerySpec one_full = one;
        one_full.raw_fallback = false;
        const auto want_one = ew::query::run_query(full, one_full);
        ASSERT_EQ(got_one.rows.size(), want_one.rows.size());
        for (std::size_t i = 0; i < got_one.rows.size(); ++i) {
          EXPECT_EQ(got_one.rows[i].value, want_one.rows[i].value);
        }
      }
    }
  }
}

TEST(ColumnarGolden, ServiceColumnHoldsEachRowsFlowVerdict) {
  // The encoder classifies each distinct name once per block. A row's
  // stored service must still be its own classify_flow(l7, name): P2P
  // whatever the name, kOther for no name, the name's service otherwise —
  // whichever row carried the name first, in either block.
  const auto& catalog = ew::services::ServiceCatalog::standard();
  ASSERT_EQ(catalog.classify_flow(ew::dpi::L7Protocol::kTls, "www.youtube.com"),
            ew::services::ServiceId::kYouTube);
  const CivilDate day{2016, 4, 20};
  const auto records = shared_name_day(day);
  TempDir lake_dir, full_dir, empty_dir;
  ew::storage::DataLake lake(lake_dir.path);
  ASSERT_TRUE(lake.append(day, records).has_value());
  ASSERT_EQ(lake.fsck_day(day).blocks_ok, 2u);

  std::size_t rows = 0;
  std::array<std::size_t, ew::services::kServiceCount> per_service{};
  const auto scan = lake.scan_day_batches(day, [&](const ew::exec::RecordBatch& b) {
    b.for_each_row([&](std::size_t i) {
      const auto l7 = static_cast<ew::dpi::L7Protocol>(b.l7[i]);
      const std::string_view name = b.name_dict[b.name_idx[i]];
      EXPECT_EQ(b.service[i], static_cast<std::uint8_t>(catalog.classify_flow(l7, name)))
          << "row " << rows << " l7 " << ew::dpi::to_string(l7) << " name '" << name << "'";
      ++per_service[b.service[i]];
      ++rows;
    });
  });
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(rows, records.size());
  for (const auto svc : {ew::services::ServiceId::kYouTube, ew::services::ServiceId::kFacebook,
                         ew::services::ServiceId::kNetflix, ew::services::ServiceId::kPeerToPeer,
                         ew::services::ServiceId::kOther}) {
    EXPECT_GT(per_service[static_cast<std::size_t>(svc)], 0u) << static_cast<int>(svc);
  }

  // The raw fallback reads that column; the rollup classifies names at
  // aggregation time. Per service, both must give the same answer.
  ThreadPool pool(2);
  ew::query::RollupStore full(full_dir.path, lake);
  ASSERT_TRUE(full.build(pool).errors.empty());
  ew::query::RollupStore empty(empty_dir.path, lake);
  for (const auto metric : {ew::query::Metric::kBytes, ew::query::Metric::kFlows}) {
    for (std::uint32_t svc = 0; svc < ew::services::kServiceCount; ++svc) {
      ew::query::QuerySpec spec;
      spec.metric = metric;
      spec.dimension = ew::query::Dimension::kService;
      spec.from = spec.to = day;
      spec.group = svc;
      const auto want = ew::query::run_query(full, spec);
      spec.raw_fallback = true;
      const auto got = ew::query::run_query(empty, spec);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.days_scanned_raw, 1u);
      ASSERT_EQ(got.rows.size(), want.rows.size()) << "service " << svc;
      for (std::size_t i = 0; i < got.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].key, want.rows[i].key);
        EXPECT_EQ(got.rows[i].value, want.rows[i].value) << "service " << svc;
      }
    }
  }
}
