// The rollup store and query engine (query::): .ewr format roundtrip and
// damage detection, staleness-driven incremental builds sharing the lake's
// FileIdentity, column projection, and — the acceptance criterion — golden
// comparisons proving that top-k / distinct / quantile answers from
// rollups match exact full-scan recomputation within the sketches'
// documented error bounds on paper-scenario synthetic data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "analytics/figures.hpp"
#include "analytics/parallel.hpp"
#include "core/thread_pool.hpp"
#include "query/engine.hpp"
#include "query/figures.hpp"
#include "query/rollup.hpp"
#include "query/store.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
using ew::core::CivilDate;
using ew::core::Errc;
using ew::query::DayRollup;
using ew::query::Dimension;
using ew::query::RollupStore;

namespace {

/// Shared corpus: a two-ISO-week, two-month slice of the paper scenario in
/// a lake, the exact full-scan aggregates, and a fully built rollup store.
/// Built once — scenario generation dominates the suite's runtime.
struct Corpus {
  /// Per-process: ctest runs each test case as its own process, so a
  /// shared name would let one process wipe another's lake mid-build.
  ew::testing::TempDir dir{"ew_query_corpus"};
  ew::synth::Scenario scenario;
  std::unique_ptr<ew::storage::DataLake> lake;
  std::unique_ptr<RollupStore> store;
  std::vector<CivilDate> days;
  std::vector<ew::analytics::DayAggregate> aggregates;  ///< full-scan truth
  ew::query::BuildReport first_build;
};

Corpus& corpus() {
  static Corpus* c = [] {
    auto* corpus = new Corpus;
    corpus->scenario = ew::synth::build_paper_scenario(11, 0.1);
    corpus->lake = std::make_unique<ew::storage::DataLake>(corpus->dir.path / "lake");
    const ew::synth::WorkloadGenerator gen{corpus->scenario};
    // 2015-06-22 is a Monday: two full ISO weeks straddling a month edge,
    // so week and month bucketing are both non-trivial.
    const std::int64_t start = ew::core::days_from_civil({2015, 6, 22});
    for (std::int64_t z = start; z < start + 14; ++z) {
      const CivilDate day = ew::core::civil_from_days(z);
      corpus->days.push_back(day);
      EXPECT_TRUE(corpus->lake->append(day, gen.day_records(day)));
    }
    ew::core::ThreadPool pool(4);
    for (const CivilDate day : corpus->days) {
      corpus->aggregates.push_back(ew::analytics::aggregate_day(*corpus->lake, day).aggregate);
    }
    corpus->store = std::make_unique<RollupStore>(
        corpus->dir.path / "rollups", *corpus->lake, ew::services::ServiceCatalog::standard(),
        corpus->scenario.rib.get());
    corpus->first_build = corpus->store->build(pool);
    return corpus;
  }();
  // The corpus is deliberately leaked (it outlives every test); only its
  // directory is removed at exit.
  static const bool cleanup_registered = std::atexit([] {
    std::error_code ec;
    std::filesystem::remove_all(c->dir.path, ec);
  }) == 0;
  (void)cleanup_registered;
  return *c;
}

/// Exact distinct subscribers that used `service` on at least one of the
/// given aggregates (§4.1 threshold) — what the month HLL approximates.
std::size_t exact_distinct_users(std::span<const ew::analytics::DayAggregate> days,
                                 ew::services::ServiceId service) {
  const auto& catalog = ew::services::ServiceCatalog::standard();
  std::set<std::uint32_t> users;
  for (const auto& day : days) {
    for (const auto& [ip, sub] : day.subscribers) {
      if (ew::analytics::uses_service(sub, catalog, service)) users.insert(ip.value());
    }
  }
  return users.size();
}

double exact_nearest_rank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size()))));
  return values[k - 1];
}

}  // namespace

// ----------------------------------------------------------- .ewr format

TEST(Rollup, EncodeDecodeRoundtrip) {
  auto& c = corpus();
  for (std::size_t d = 0; d < ew::query::kDimensionCount; ++d) {
    const auto dim = static_cast<Dimension>(d);
    const DayRollup rollup = ew::query::build_day_rollup(
        c.aggregates[0], dim, ew::services::ServiceCatalog::standard(), c.scenario.rib.get());
    const auto bytes = ew::query::encode_rollup(rollup);
    const auto back = ew::query::decode_rollup(bytes);
    ASSERT_TRUE(back.has_value()) << ew::query::to_string(dim);
    // encode() is deterministic in the rollup contents, so byte equality of
    // a re-encode is content equality of the decode.
    EXPECT_EQ(ew::query::encode_rollup(*back), bytes) << ew::query::to_string(dim);
    EXPECT_FALSE(back->groups.empty());
  }
}

TEST(Rollup, ColumnProjectionSkipsSketchSections) {
  auto& c = corpus();
  const DayRollup full = ew::query::build_day_rollup(c.aggregates[0], Dimension::kService);
  const auto bytes = ew::query::encode_rollup(full);

  const auto counters_only = ew::query::decode_rollup(bytes, ew::query::kColCounters);
  ASSERT_TRUE(counters_only.has_value());
  EXPECT_EQ(counters_only->columns, ew::query::kColCounters);
  ASSERT_EQ(counters_only->groups.size(), full.groups.size());
  for (const auto& [key, group] : counters_only->groups) {
    EXPECT_EQ(group.flows, full.groups.at(key).flows);
    EXPECT_EQ(group.bytes_up, full.groups.at(key).bytes_up);
    EXPECT_EQ(group.bytes_down, full.groups.at(key).bytes_down);
    EXPECT_TRUE(group.clients.empty());  // projected out, never materialized
    EXPECT_TRUE(group.rtt_ms.empty());
  }

  const auto rtt_only = ew::query::decode_rollup(bytes, ew::query::kColRtt);
  ASSERT_TRUE(rtt_only.has_value());
  for (const auto& [key, group] : rtt_only->groups) {
    EXPECT_EQ(group.rtt_ms.count(), full.groups.at(key).rtt_ms.count());
    EXPECT_EQ(group.flows, 0u);
  }
}

TEST(Rollup, DetectsDamage) {
  auto& c = corpus();
  const DayRollup rollup = ew::query::build_day_rollup(c.aggregates[0], Dimension::kService);
  auto bytes = ew::query::encode_rollup(rollup);

  {  // flipped byte inside a section body -> CRC mismatch
    auto bad = bytes;
    bad[bytes.size() / 2] ^= std::byte{0x40};
    const auto r = ew::query::decode_rollup(bad);
    EXPECT_FALSE(r.has_value());
  }
  {  // torn write: trailer missing -> kTruncated
    const auto torn = std::vector<std::byte>(bytes.begin(), bytes.end() - 20);
    const auto r = ew::query::decode_rollup(torn);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error(), Errc::kTruncated);
  }
  {  // foreign file
    auto alien = bytes;
    alien[0] = std::byte{'X'};
    EXPECT_EQ(ew::query::decode_rollup(alien).error(), Errc::kBadMagic);
  }
  {  // future version
    auto vnext = bytes;
    vnext[4] = std::byte{9};
    EXPECT_EQ(ew::query::decode_rollup(vnext).error(), Errc::kBadVersion);
  }
}

// ------------------------------------------------- store build / staleness

TEST(RollupStore, BuildIsIncrementalViaFileIdentity) {
  auto& c = corpus();
  const std::size_t files = c.days.size() * ew::query::kDimensionCount;
  EXPECT_EQ(c.first_build.built, files);
  EXPECT_EQ(c.first_build.failed, 0u);

  // Second pass: everything fresh, nothing re-aggregated.
  ew::core::ThreadPool pool(4);
  const auto again = c.store->build(pool);
  EXPECT_EQ(again.built, 0u);
  EXPECT_EQ(again.reused, files);

  // Appending to one lake day changes its identity; exactly that day's
  // rollups (all dimensions) rebuild.
  const CivilDate day = c.days[3];
  const auto before = c.lake->day_identity(day);
  const ew::synth::WorkloadGenerator gen{c.scenario};
  ASSERT_TRUE(c.lake->append(day, gen.day_records(c.days[4])));
  EXPECT_NE(c.lake->day_identity(day), before);
  EXPECT_FALSE(c.store->fresh(day, Dimension::kService));

  const auto incremental = c.store->build(pool);
  EXPECT_EQ(incremental.built, ew::query::kDimensionCount);
  EXPECT_EQ(incremental.reused, files - ew::query::kDimensionCount);
  EXPECT_TRUE(c.store->fresh(day, Dimension::kService));

  // Restore the corpus day for the golden tests below (content changed, so
  // rebuild from the refreshed aggregate too).
  c.aggregates[3] = ew::analytics::aggregate_day(*c.lake, day).aggregate;
}

TEST(RollupStore, FsckAndStoreShareOneIdentity) {
  auto& c = corpus();
  const CivilDate day = c.days[0];
  const auto via_lake = c.lake->day_identity(day);
  const auto via_fsck = c.lake->fsck_day(day).identity;
  const auto direct = ew::storage::file_identity(
      c.lake->root() / ew::storage::DataLake::day_filename(day));
  EXPECT_EQ(via_lake, via_fsck);
  EXPECT_EQ(via_lake, direct);
  EXPECT_TRUE(via_lake.exists());
  EXPECT_GT(via_lake.seal_seq, 0u);  // a sealed file carries its receipt

  EXPECT_FALSE(ew::storage::file_identity(c.lake->root() / "nope.ewl").exists());
}

TEST(RollupStore, LoadErrorsAreTyped) {
  auto& c = corpus();
  EXPECT_EQ(c.store->load({2030, 1, 1}, Dimension::kService).error(), Errc::kNotFound);

  // A corrupted rollup file is reported, and build() heals it.
  const CivilDate day = c.days[1];
  const auto path = c.store->rollup_path(day, Dimension::kProtocol);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) / 2));
    f.write("\xde\xad", 2);
  }
  EXPECT_FALSE(c.store->load(day, Dimension::kProtocol).has_value());
  EXPECT_FALSE(c.store->fresh(day, Dimension::kProtocol));
  ew::core::ThreadPool pool(2);
  const auto report = c.store->build(pool);
  EXPECT_GE(report.built, 1u);
  EXPECT_TRUE(c.store->load(day, Dimension::kProtocol).has_value());
}

// ------------------------------------------------------ golden queries

TEST(QueryGolden, ExactCountersMatchFullScan) {
  auto& c = corpus();
  ew::query::QuerySpec spec;
  spec.metric = ew::query::Metric::kBytes;
  spec.dimension = Dimension::kService;
  spec.from = c.days.front();
  spec.to = c.days.back();
  const auto result = ew::query::run_query(*c.store, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.missing_days.empty());
  EXPECT_EQ(result.days_merged, c.days.size());
  EXPECT_EQ(result.columns_loaded, ew::query::kColCounters);

  // Full-scan truth: per-service byte totals over every subscriber-day.
  std::map<std::uint32_t, std::uint64_t> exact;
  for (const auto& agg : c.aggregates) {
    for (const auto& [ip, sub] : agg.subscribers) {
      for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
        exact[static_cast<std::uint32_t>(s)] += sub.per_service[s].total();
      }
    }
  }
  for (const auto& row : result.rows) {
    EXPECT_DOUBLE_EQ(row.value, static_cast<double>(exact[row.key])) << "service " << row.key;
    EXPECT_DOUBLE_EQ(row.error_bound, 0.0);
  }
  // Rows are value-descending.
  for (std::size_t i = 1; i < result.rows.size(); ++i) {
    EXPECT_GE(result.rows[i - 1].value, result.rows[i].value);
  }
}

TEST(QueryGolden, DistinctSubscribersWithinHllBound) {
  auto& c = corpus();
  // "Top-10 services by distinct subscribers per month" for June 2015.
  std::vector<ew::analytics::DayAggregate> june;
  for (std::size_t i = 0; i < c.days.size(); ++i) {
    if (c.days[i].month == 6) june.push_back(c.aggregates[i]);
  }
  ASSERT_FALSE(june.empty());

  ew::core::ThreadPool pool(4);
  const auto top =
      ew::query::top_services_by_subscribers(*c.store, ew::core::MonthIndex{2015, 6}, 10, &pool);
  ASSERT_EQ(top.size(), 10u);
  for (const auto& row : top) {
    const auto service = static_cast<ew::services::ServiceId>(row.key);
    const double exact = static_cast<double>(exact_distinct_users(june, service));
    ASSERT_GT(exact, 0.0);
    EXPECT_LE(std::abs(row.value - exact), row.error_bound * exact)
        << "service " << ew::services::to_string(service) << ": est " << row.value
        << " exact " << exact;
  }
  // The most popular service is unambiguous at this separation.
  std::uint32_t exact_top = 0;
  std::size_t exact_top_users = 0;
  for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
    const auto users = exact_distinct_users(june, static_cast<ew::services::ServiceId>(s));
    if (users > exact_top_users) {
      exact_top_users = users;
      exact_top = static_cast<std::uint32_t>(s);
    }
  }
  EXPECT_EQ(top.front().key, exact_top);
}

TEST(QueryGolden, WeeklyRttQuantileWithinSketchAccuracy) {
  auto& c = corpus();
  const auto service = ew::services::ServiceId::kFacebook;
  ew::core::ThreadPool pool(4);
  const auto rows = ew::query::weekly_rtt_quantile(*c.store, service, c.days.front(),
                                                   c.days.back(), 0.5, &pool);
  ASSERT_EQ(rows.size(), 2u);  // two ISO weeks

  for (const auto& row : rows) {
    // Exact: concatenate the week's raw RTT samples, take the nearest-rank
    // median.
    std::vector<double> samples;
    const std::int64_t monday = ew::core::days_from_civil(row.bucket);
    for (std::size_t i = 0; i < c.days.size(); ++i) {
      const std::int64_t z = ew::core::days_from_civil(c.days[i]);
      if (z < monday || z >= monday + 7) continue;
      const auto& day_samples =
          c.aggregates[i].rtt_min_ms[static_cast<std::size_t>(service)];
      samples.insert(samples.end(), day_samples.begin(), day_samples.end());
    }
    ASSERT_FALSE(samples.empty());
    const double exact = exact_nearest_rank(samples, 0.5);
    EXPECT_LE(std::abs(row.value - exact), row.error_bound * exact)
        << "week " << row.bucket.to_string() << ": est " << row.value << " exact " << exact;
    EXPECT_DOUBLE_EQ(row.error_bound, ew::core::QuantileSketch::kDefaultAccuracy);
  }
}

TEST(QueryGolden, ServerAsnDistinctServersWithinHllBound) {
  auto& c = corpus();
  ew::query::QuerySpec spec;
  spec.metric = ew::query::Metric::kDistinctServers;
  spec.dimension = Dimension::kServerAsn;
  spec.from = c.days.front();
  spec.to = c.days.back();
  const auto result = ew::query::run_query(*c.store, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.rows.empty());

  // Exact distinct server IPs per origin ASN over the whole range.
  std::map<std::uint32_t, std::set<std::uint32_t>> exact;
  for (const auto& agg : c.aggregates) {
    for (const auto& [ip, stats] : agg.server_ips) {
      exact[c.scenario.rib->origin_asn(ip).value_or(0)].insert(ip.value());
    }
  }
  for (const auto& row : result.rows) {
    const double truth = static_cast<double>(exact[row.key].size());
    ASSERT_GT(truth, 0.0) << "asn " << row.key;
    EXPECT_LE(std::abs(row.value - truth), std::max(1.0, row.error_bound * truth))
        << "asn " << row.key;
  }
}

TEST(QueryGolden, VolumeQuantilePerTechWithinSketchAccuracy) {
  auto& c = corpus();
  ew::query::QuerySpec spec;
  spec.metric = ew::query::Metric::kVolumeQuantile;
  spec.from = c.days.front();
  spec.to = c.days.back();
  spec.quantile = 0.9;
  const auto result = ew::query::run_query(*c.store, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.rows.empty());

  for (const auto& row : result.rows) {
    std::vector<double> samples;  // one per active subscriber-day of the tech
    for (const auto& agg : c.aggregates) {
      for (const auto& [ip, sub] : agg.subscribers) {
        if (!sub.active({}) || static_cast<std::uint32_t>(sub.access) != row.key) continue;
        samples.push_back(static_cast<double>(sub.bytes_down));
      }
    }
    ASSERT_FALSE(samples.empty());
    const double exact = exact_nearest_rank(samples, 0.9);
    EXPECT_LE(std::abs(row.value - exact), row.error_bound * exact) << "tech " << row.key;
  }
}

TEST(QueryGolden, ProtocolSharesMatchFullScanExactly) {
  auto& c = corpus();
  ew::core::ThreadPool pool(4);
  const auto from_rollups =
      ew::query::protocol_shares(*c.store, c.days.front(), c.days.back(), &pool);
  const auto from_scan = ew::analytics::protocol_shares(c.aggregates);
  ASSERT_EQ(from_rollups.size(), from_scan.size());  // June + July
  for (std::size_t m = 0; m < from_scan.size(); ++m) {
    EXPECT_EQ(from_rollups[m].month, from_scan[m].month);
    for (std::size_t p = 0; p < ew::analytics::kWebProtocolCount; ++p) {
      // The rollup carries the same u64 byte counters the scan sums, so the
      // derived shares are bit-identical.
      EXPECT_DOUBLE_EQ(from_rollups[m].share_pct[p], from_scan[m].share_pct[p])
          << "month " << from_scan[m].month.to_string() << " protocol " << p;
    }
  }
}

TEST(QueryGolden, VolumeTrendMatchesFullScan) {
  auto& c = corpus();
  const auto from_rollups = ew::query::volume_trend(*c.store, c.days.front(), c.days.back());
  const auto from_scan = ew::analytics::volume_trend(c.aggregates);
  ASSERT_EQ(from_rollups.size(), from_scan.size());
  for (std::size_t m = 0; m < from_scan.size(); ++m) {
    EXPECT_EQ(from_rollups[m].month, from_scan[m].month);
    for (std::size_t t = 0; t < ew::analytics::kAccessTechCount; ++t) {
      // Averages agree to float summation order (rollups sum exact u64s,
      // the scan accumulates doubles subscriber by subscriber).
      EXPECT_NEAR(from_rollups[m].down_mb[t], from_scan[m].down_mb[t],
                  1e-9 * std::max(1.0, from_scan[m].down_mb[t]));
      EXPECT_NEAR(from_rollups[m].up_mb[t], from_scan[m].up_mb[t],
                  1e-9 * std::max(1.0, from_scan[m].up_mb[t]));
      EXPECT_EQ(from_rollups[m].subscribers[t], from_scan[m].subscribers[t]);
    }
  }
}

TEST(QueryEngine, MissingDaysAreReportedNotInvented) {
  auto& c = corpus();
  ew::query::QuerySpec spec;
  spec.metric = ew::query::Metric::kFlows;
  spec.from = c.days.front();
  spec.to = ew::core::civil_from_days(ew::core::days_from_civil(c.days.back()) + 3);
  const auto result = ew::query::run_query(*c.store, spec);
  EXPECT_EQ(result.missing_days.size(), 3u);
  EXPECT_EQ(result.days_merged, c.days.size());

  // An empty range yields an empty result, not an error.
  ew::query::QuerySpec empty = spec;
  empty.from = {2031, 1, 1};
  empty.to = {2031, 1, 5};
  const auto nothing = ew::query::run_query(*c.store, empty);
  EXPECT_TRUE(nothing.rows.empty());
  EXPECT_EQ(nothing.missing_days.size(), 5u);
}
