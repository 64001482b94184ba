// The rollup store and query engine (query::): .ewr format roundtrip and
// damage detection, staleness-driven incremental builds sharing the lake's
// FileIdentity, column projection, the cache contract under torn writes
// and killed builds, and — the acceptance criterion — golden
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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analytics/figures.hpp"
#include "analytics/parallel.hpp"
#include "core/hash.hpp"
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
using ew::query::DayRollups;
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
  const DayRollups rollups = ew::query::build_day_rollups(
      c.aggregates[0], ew::services::ServiceCatalog::standard(), c.scenario.rib.get());
  const auto bytes = ew::query::encode_rollup(rollups);
  DayRollups back;
  for (std::size_t d = 0; d < ew::query::kDimensionCount; ++d) {
    const auto dim = static_cast<Dimension>(d);
    auto decoded = ew::query::decode_rollup(bytes, dim);
    ASSERT_TRUE(decoded.has_value()) << ew::query::to_string(dim);
    EXPECT_EQ(decoded->dimension, dim);
    EXPECT_FALSE(decoded->groups.empty()) << ew::query::to_string(dim);
    back[d] = std::move(*decoded);
  }
  // encode() is deterministic in the rollup contents, so byte equality of
  // a re-encode is content equality of the decode.
  EXPECT_EQ(ew::query::encode_rollup(back), bytes);
}

TEST(Rollup, EncodedBytesMatchGolden) {
  // The .ewr bytes of the corpus' fourteen days, chained through one
  // CRC32C. Rollup files are a cache keyed by the lake file's identity,
  // not by the code that wrote them, so a change to any sketch's wire
  // bytes (or to the groups built) must show up here first.
  auto& c = corpus();
  std::uint32_t crc = 0;
  for (const auto& aggregate : c.aggregates) {
    const auto bytes = ew::query::encode_rollup(ew::query::build_day_rollups(
        aggregate, ew::services::ServiceCatalog::standard(), c.scenario.rib.get()));
    crc = ew::core::crc32c(bytes, crc);
  }
  EXPECT_EQ(crc, 0xe1969bf2u) << std::hex << crc;
}

TEST(Rollup, ColumnProjectionSkipsSketchSections) {
  auto& c = corpus();
  const DayRollups rollups = ew::query::build_day_rollups(c.aggregates[0]);
  const DayRollup& full = rollups[static_cast<std::size_t>(Dimension::kService)];
  const auto bytes = ew::query::encode_rollup(rollups);

  const auto counters_only =
      ew::query::decode_rollup(bytes, Dimension::kService, ew::query::kColCounters);
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

  const auto rtt_only = ew::query::decode_rollup(bytes, Dimension::kService, ew::query::kColRtt);
  ASSERT_TRUE(rtt_only.has_value());
  for (const auto& [key, group] : rtt_only->groups) {
    EXPECT_EQ(group.rtt_ms.count(), full.groups.at(key).rtt_ms.count());
    EXPECT_EQ(group.flows, 0u);
  }

  // Other dimensions' sections are skipped unchecked: damage in the last
  // server-ASN section (just before the 13-byte trailer) fails only a load
  // that reads it.
  auto damaged = bytes;
  damaged[damaged.size() - 14] ^= std::byte{0x40};
  EXPECT_TRUE(ew::query::decode_rollup(damaged, Dimension::kService).has_value());
  EXPECT_TRUE(
      ew::query::decode_rollup(damaged, Dimension::kServerAsn, ew::query::kColCounters)
          .has_value());
  EXPECT_EQ(ew::query::decode_rollup(damaged, Dimension::kServerAsn).error(), Errc::kCorrupt);
}

TEST(Rollup, DetectsDamage) {
  auto& c = corpus();
  auto bytes = ew::query::encode_rollup(ew::query::build_day_rollups(c.aggregates[0]));
  const auto decodes_everywhere = [](const std::vector<std::byte>& file) {
    for (std::size_t d = 0; d < ew::query::kDimensionCount; ++d) {
      if (!ew::query::decode_rollup(file, static_cast<Dimension>(d))) return false;
    }
    return true;
  };
  ASSERT_TRUE(decodes_everywhere(bytes));

  {  // flipped byte inside a section body -> CRC mismatch
    auto bad = bytes;
    bad[bytes.size() / 2] ^= std::byte{0x40};
    EXPECT_FALSE(decodes_everywhere(bad));
  }
  {  // torn write: trailer missing -> kTruncated
    const auto torn = std::vector<std::byte>(bytes.begin(), bytes.end() - 20);
    const auto r = ew::query::decode_rollup(torn, Dimension::kProtocol);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error(), Errc::kTruncated);
  }
  {  // foreign file
    auto alien = bytes;
    alien[0] = std::byte{'X'};
    EXPECT_EQ(ew::query::decode_rollup(alien, Dimension::kService).error(), Errc::kBadMagic);
  }
  {  // future version, and the per-dimension files of format v1
    for (const std::byte version : {std::byte{9}, std::byte{1}}) {
      auto other = bytes;
      other[4] = version;
      EXPECT_EQ(ew::query::decode_rollup(other, Dimension::kService).error(), Errc::kBadVersion);
    }
  }
}

// ------------------------------------------------- store build / staleness

TEST(RollupStore, BuildIsIncrementalViaFileIdentity) {
  auto& c = corpus();
  const std::size_t files = c.days.size() * ew::query::kDimensionCount;
  EXPECT_EQ(c.first_build.built, files);
  EXPECT_EQ(c.first_build.failed, 0u);
  // One file per lake day, and no temp file left behind.
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(c.store->dir())) {
    names.insert(entry.path().filename().string());
  }
  std::set<std::string> want;
  for (const CivilDate day : c.days) want.insert(RollupStore::rollup_filename(day));
  EXPECT_EQ(names, want);
  EXPECT_EQ(c.store->days(), c.days);

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
  EXPECT_FALSE(c.store->fresh(day));

  const auto incremental = c.store->build(pool);
  EXPECT_EQ(incremental.built, ew::query::kDimensionCount);
  EXPECT_EQ(incremental.reused, files - ew::query::kDimensionCount);
  EXPECT_TRUE(c.store->fresh(day));

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
  const auto path = c.store->rollup_path(day);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) / 2));
    f.write("\xde\xad", 2);
  }
  const auto loads_everywhere = [&] {
    for (std::size_t d = 0; d < ew::query::kDimensionCount; ++d) {
      if (!c.store->load(day, static_cast<Dimension>(d))) return false;
    }
    return true;
  };
  EXPECT_FALSE(loads_everywhere());
  EXPECT_FALSE(c.store->fresh(day));
  ew::core::ThreadPool pool(2);
  const auto report = c.store->build(pool);
  EXPECT_GE(report.built, 1u);
  EXPECT_TRUE(loads_everywhere());
}

// ------------------------------------------------ crash tests (cache contract)

namespace {

/// A lake of a few small days (a prefix of each generated day) for tests
/// that touch a rollup at every byte: its rollup files are a few KB.
struct SmallLake {
  ew::testing::TempDir dir{"ew_query_small"};
  ew::synth::Scenario scenario = ew::synth::build_paper_scenario(5, 0.01);
  ew::storage::DataLake lake{dir.path / "lake"};
  std::vector<CivilDate> days;

  SmallLake(std::size_t day_count, std::size_t records_per_day) {
    const ew::synth::WorkloadGenerator gen{scenario};
    for (std::size_t i = 0; i < day_count; ++i) {
      days.push_back(CivilDate{2015, 6, static_cast<std::uint8_t>(22 + i)});
      auto records = gen.day_records(days.back());
      records.resize(std::min(records.size(), records_per_day));
      EXPECT_TRUE(lake.append(days.back(), records));
    }
  }

  RollupStore store(const std::string& name) const {
    return RollupStore{dir.path / name, lake, ew::services::ServiceCatalog::standard(),
                       scenario.rib.get()};
  }
};

std::vector<std::byte> read_bytes(const std::filesystem::path& path) {
  std::vector<std::byte> out(std::filesystem::file_size(path));
  std::ifstream(path, std::ios::binary)
      .read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(out.size()));
  return out;
}

/// Replaces the file instead of truncating it: on ext4, a truncate-and-
/// rewrite forces the data out on close, which would dominate a test that
/// rewrites a file thousands of times.
void write_bytes(const std::filesystem::path& path, std::span<const std::byte> bytes) {
  std::filesystem::remove(path);
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
}

/// Every file of a directory by name, with its contents.
std::map<std::string, std::vector<std::byte>> read_dir(const std::filesystem::path& dir) {
  std::map<std::string, std::vector<std::byte>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.emplace(entry.path().filename().string(), read_bytes(entry.path()));
  }
  return files;
}

}  // namespace

TEST(RollupStore, CutOrFlippedAtEveryOffsetReadsStale) {
  const SmallLake small(1, 40);
  const CivilDate day = small.days[0];
  RollupStore store = small.store("rollups");
  ew::core::ThreadPool pool(1);
  ASSERT_TRUE(store.build(pool).ok());
  const auto path = store.rollup_path(day);
  const auto original = read_bytes(path);
  DayRollups truth;
  for (std::size_t d = 0; d < ew::query::kDimensionCount; ++d) {
    auto loaded = store.load(day, static_cast<Dimension>(d));
    ASSERT_TRUE(loaded.has_value());
    truth[d] = std::move(*loaded);
  }

  // A load that succeeds must answer exactly what was built: swapping it in
  // for its dimension re-encodes to the original file.
  const auto loads = [&](std::size_t offset) {
    std::size_t ok = 0;
    for (std::size_t d = 0; d < ew::query::kDimensionCount; ++d) {
      auto loaded = store.load(day, static_cast<Dimension>(d));
      if (!loaded) continue;
      ++ok;
      std::swap(truth[d], *loaded);
      EXPECT_EQ(ew::query::encode_rollup(truth), original) << "offset " << offset << " dim " << d;
      std::swap(truth[d], *loaded);
    }
    return ok;
  };
  for (std::size_t offset = 0; offset < original.size(); ++offset) {
    // A torn write: the file ends at `offset`.
    write_bytes(path, std::span(original).first(offset));
    EXPECT_FALSE(store.fresh(day)) << "cut at " << offset;
    EXPECT_EQ(loads(offset), 0u) << "cut at " << offset;
    // Damage in place: the byte at `offset` flipped.
    auto flipped = original;
    flipped[offset] ^= std::byte{0xFF};
    write_bytes(path, flipped);
    EXPECT_FALSE(store.fresh(day)) << "flip at " << offset;
    EXPECT_LT(loads(offset), ew::query::kDimensionCount) << "flip at " << offset;
  }

  const auto report = store.build(pool);
  EXPECT_EQ(report.built, ew::query::kDimensionCount);
  EXPECT_EQ(read_bytes(path), original);
  EXPECT_TRUE(store.fresh(day));
}

TEST(RollupStore, RebuildAfterKilledBuildMatchesUninterrupted) {
  const SmallLake small(4, 40);
  ew::core::ThreadPool pool(2);
  RollupStore whole = small.store("whole");
  ASSERT_TRUE(whole.build(pool).ok());

  // What a build killed midway can leave: the first days written, the last
  // of them torn (its data never reached the disk), the others missing, and
  // temp files both complete (killed before the rename) and torn.
  RollupStore killed = small.store("killed");
  ASSERT_TRUE(killed.build(std::span(small.days).first(2), pool).ok());
  const auto torn = killed.rollup_path(small.days[1]);
  std::filesystem::resize_file(torn, std::filesystem::file_size(torn) / 2);
  const auto complete = read_bytes(whole.rollup_path(small.days[0]));
  write_bytes(killed.rollup_path(small.days[0]).string() + ".tmp", complete);
  const auto partial = read_bytes(whole.rollup_path(small.days[2]));
  write_bytes(killed.rollup_path(small.days[2]).string() + ".tmp",
              std::span(partial).first(partial.size() / 3));

  const auto report = killed.build(pool);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.built, 3 * ew::query::kDimensionCount);
  EXPECT_EQ(report.reused, 1 * ew::query::kDimensionCount);
  const auto files = read_dir(killed.dir());
  for (const auto& [name, _] : files) EXPECT_FALSE(name.ends_with(".tmp")) << name;
  EXPECT_EQ(files, read_dir(whole.dir()));
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
