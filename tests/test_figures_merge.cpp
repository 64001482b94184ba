// DayAggregate::merge feeds two consumers that must agree with the serial
// scan: the figure-level analytics (figures.hpp / infrastructure.hpp) and
// the query:: rollup builder, which aggregates each day exactly once and
// derives every dimension from the result. These tests split days into
// partial aggregates, merge them back, and assert figure outputs and
// rollup encodings are identical to the unsplit path — the property that
// makes rollups built from parallel partials trustworthy.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "analytics/figures.hpp"
#include "analytics/infrastructure.hpp"
#include "query/rollup.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"

namespace ew = edgewatch;
using ew::analytics::DayAggregate;
using ew::analytics::DayAggregator;
using ew::core::CivilDate;

namespace {

struct SplitDay {
  DayAggregate whole;
  DayAggregate merged;  ///< first-half partial merged with second-half partial
};

/// Aggregate one scenario day serially and as two merged halves of the
/// record stream (the shape aggregate_day_parallel produces).
SplitDay split_aggregate(const ew::synth::WorkloadGenerator& gen, CivilDate day) {
  const auto records = gen.day_records(day);
  DayAggregator whole(day);
  DayAggregator first(day);
  DayAggregator second(day);
  for (std::size_t i = 0; i < records.size(); ++i) {
    whole.add(records[i]);
    (i < records.size() / 2 ? first : second).add(records[i]);
  }
  SplitDay out{std::move(whole).take(), std::move(first).take()};
  out.merged.merge(std::move(second).take());
  return out;
}

struct MergeCorpus {
  ew::synth::Scenario scenario;
  std::vector<DayAggregate> whole;
  std::vector<DayAggregate> merged;
};

MergeCorpus& merge_corpus() {
  static MergeCorpus* c = [] {
    auto* corpus = new MergeCorpus;
    corpus->scenario = ew::synth::build_paper_scenario(23, 0.1);
    const ew::synth::WorkloadGenerator gen{corpus->scenario};
    for (const CivilDate day : std::vector<CivilDate>{
             {2015, 6, 1}, {2015, 6, 2}, {2015, 7, 1}, {2015, 7, 2}}) {
      auto split = split_aggregate(gen, day);
      corpus->whole.push_back(std::move(split.whole));
      corpus->merged.push_back(std::move(split.merged));
    }
    return corpus;
  }();
  return *c;
}

}  // namespace

TEST(FiguresMerge, VolumeTrendIdenticalOnMergedPartials) {
  auto& c = merge_corpus();
  const auto a = ew::analytics::volume_trend(c.whole);
  const auto b = ew::analytics::volume_trend(c.merged);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].month, b[m].month);
    for (std::size_t t = 0; t < ew::analytics::kAccessTechCount; ++t) {
      EXPECT_DOUBLE_EQ(a[m].down_mb[t], b[m].down_mb[t]);
      EXPECT_DOUBLE_EQ(a[m].up_mb[t], b[m].up_mb[t]);
      EXPECT_EQ(a[m].subscribers[t], b[m].subscribers[t]);
    }
  }
}

TEST(FiguresMerge, ServiceMatrixIdenticalOnMergedPartials) {
  auto& c = merge_corpus();
  const auto a = ew::analytics::service_matrix(c.whole);
  const auto b = ew::analytics::service_matrix(c.merged);
  ASSERT_EQ(a.months.size(), b.months.size());
  for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
    ASSERT_EQ(a.cells[s].size(), b.cells[s].size());
    for (std::size_t m = 0; m < a.cells[s].size(); ++m) {
      EXPECT_DOUBLE_EQ(a.cells[s][m].popularity_pct, b.cells[s][m].popularity_pct);
      EXPECT_DOUBLE_EQ(a.cells[s][m].byte_share_pct, b.cells[s][m].byte_share_pct);
    }
  }
}

TEST(FiguresMerge, ProtocolSharesIdenticalOnMergedPartials) {
  auto& c = merge_corpus();
  const auto a = ew::analytics::protocol_shares(c.whole);
  const auto b = ew::analytics::protocol_shares(c.merged);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    for (std::size_t p = 0; p < ew::analytics::kWebProtocolCount; ++p) {
      EXPECT_DOUBLE_EQ(a[m].share_pct[p], b[m].share_pct[p]);
    }
  }
}

TEST(FiguresMerge, InfrastructureIdenticalOnMergedPartials) {
  auto& c = merge_corpus();
  const auto service = ew::services::ServiceId::kFacebook;
  const auto a = ew::analytics::ip_lifecycle(c.whole, service);
  const auto b = ew::analytics::ip_lifecycle(c.merged, service);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dedicated, b[i].dedicated);
    EXPECT_EQ(a[i].shared, b[i].shared);
    EXPECT_EQ(a[i].cumulative_unique, b[i].cumulative_unique);
  }

  const ew::analytics::RibProvider rib_for =
      [&c](ew::core::MonthIndex) -> const ew::asn::Rib& { return *c.scenario.rib; };
  const auto asn_a = ew::analytics::asn_breakdown(c.whole, service, rib_for);
  const auto asn_b = ew::analytics::asn_breakdown(c.merged, service, rib_for);
  ASSERT_EQ(asn_a.size(), asn_b.size());
  for (std::size_t m = 0; m < asn_a.size(); ++m) {
    EXPECT_EQ(asn_a[m].month, asn_b[m].month);
    ASSERT_EQ(asn_a[m].ips_by_asn.size(), asn_b[m].ips_by_asn.size());
    for (const auto& [asn, avg] : asn_a[m].ips_by_asn) {
      EXPECT_DOUBLE_EQ(avg, asn_b[m].ips_by_asn.at(asn));
    }
  }
}

TEST(FiguresMerge, RollupBuilderIdenticalOnMergedPartials) {
  // The property the rollup store actually relies on: a rollup built from a
  // merged-partials aggregate is byte-identical to one built from the
  // serial aggregate, for every dimension.
  auto& c = merge_corpus();
  for (std::size_t i = 0; i < c.whole.size(); ++i) {
    const auto from_whole = ew::query::encode_rollup(ew::query::build_day_rollups(
        c.whole[i], ew::services::ServiceCatalog::standard(), c.scenario.rib.get()));
    const auto from_merged = ew::query::encode_rollup(ew::query::build_day_rollups(
        c.merged[i], ew::services::ServiceCatalog::standard(), c.scenario.rib.get()));
    EXPECT_EQ(from_whole, from_merged) << "day " << i;
  }
}
