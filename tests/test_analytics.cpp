// Analytics stage tests: activity criterion, per-day aggregation, and the
// figure-level computations on hand-built and generated data.
#include <gtest/gtest.h>

#include "analytics/day_aggregate.hpp"
#include "analytics/figures.hpp"
#include "analytics/infrastructure.hpp"
#include "synth/generator.hpp"

namespace ew = edgewatch;
using ew::analytics::ActivityCriteria;
using ew::analytics::DayAggregate;
using ew::analytics::DayAggregator;
using ew::core::CivilDate;
using ew::core::IPv4Address;
using ew::flow::AccessTech;
using ew::flow::FlowRecord;
using ew::services::ServiceId;

namespace {

FlowRecord make_record(IPv4Address client, AccessTech tech, std::string name,
                       std::uint64_t down, std::uint64_t up,
                       ew::dpi::WebProtocol web = ew::dpi::WebProtocol::kTls,
                       int hour = 12) {
  FlowRecord r;
  r.client_ip = client;
  r.server_ip = IPv4Address{157, 240, 1, 1};
  r.access = tech;
  r.proto = ew::core::TransportProto::kTcp;
  r.server_port = 443;
  r.server_name = std::move(name);
  r.l7 = ew::dpi::L7Protocol::kTls;
  r.web = web;
  r.down.bytes = down;
  r.up.bytes = up;
  r.down.packets = down / 1400 + 1;
  r.up.packets = up / 700 + 1;
  r.first_packet = ew::core::Timestamp::from_date_time({2016, 3, 5}, hour, 15);
  r.last_packet = r.first_packet + 30'000'000;
  r.rtt.add(5'000);
  return r;
}

constexpr IPv4Address kSubA{10, 0, 0, 1};
constexpr IPv4Address kSubB{10, 128, 0, 1};

}  // namespace

TEST(ActivityCriteria, PaperThresholds) {
  ew::analytics::SubscriberDay sub;
  sub.flows = 10;
  sub.bytes_down = 15'001;
  sub.bytes_up = 5'001;
  EXPECT_TRUE(sub.active({}));
  sub.flows = 9;
  EXPECT_FALSE(sub.active({}));
  sub.flows = 10;
  sub.bytes_down = 15'000;  // strictly more than 15 kB required
  EXPECT_FALSE(sub.active({}));
  sub.bytes_down = 15'001;
  sub.bytes_up = 5'000;
  EXPECT_FALSE(sub.active({}));
}

TEST(DayAggregator, AccumulatesPerSubscriberAndService) {
  DayAggregator agg{{2016, 3, 5}};
  for (int i = 0; i < 12; ++i) {
    agg.add(make_record(kSubA, AccessTech::kAdsl, "www.facebook.com", 2'000'000, 50'000));
  }
  agg.add(make_record(kSubB, AccessTech::kFtth, "r1.googlevideo.com", 90'000'000, 900'000));
  const auto day = std::move(agg).take();
  ASSERT_EQ(day.total_subscribers(), 2u);
  const auto& a = day.subscribers.at(kSubA);
  EXPECT_EQ(a.flows, 12u);
  EXPECT_EQ(a.bytes_down, 24'000'000u);
  EXPECT_EQ(a.service(ServiceId::kFacebook).flows, 12u);
  EXPECT_EQ(a.service(ServiceId::kYouTube).flows, 0u);
  const auto& b = day.subscribers.at(kSubB);
  EXPECT_EQ(b.service(ServiceId::kYouTube).bytes_down, 90'000'000u);
  EXPECT_EQ(day.active_subscribers(), 1u);  // B has a single flow
}

TEST(DayAggregator, WebBytesAndRttAndServerIps) {
  DayAggregator agg{{2016, 3, 5}};
  agg.add(make_record(kSubA, AccessTech::kAdsl, "www.facebook.com", 1000, 100,
                      ew::dpi::WebProtocol::kHttp2));
  const auto day = std::move(agg).take();
  EXPECT_EQ(day.web_bytes[static_cast<std::size_t>(ew::dpi::WebProtocol::kHttp2)], 1100u);
  EXPECT_EQ(day.total_web_bytes(), 1100u);
  const auto& rtts = day.rtt_min_ms[static_cast<std::size_t>(ServiceId::kFacebook)];
  ASSERT_EQ(rtts.size(), 1u);
  EXPECT_NEAR(rtts[0], 5.0, 1e-9);
  ASSERT_EQ(day.server_ips.size(), 1u);
  EXPECT_TRUE(day.server_ips.begin()->second.serves(ServiceId::kFacebook));
  EXPECT_FALSE(day.server_ips.begin()->second.shared());
}

TEST(DayAggregator, SharedIpDetection) {
  DayAggregator agg{{2016, 3, 5}};
  agg.add(make_record(kSubA, AccessTech::kAdsl, "fbstatic-a.akamaihd.net", 1000, 100));
  agg.add(make_record(kSubA, AccessTech::kAdsl, "instagram-x.akamaihd.net", 1000, 100));
  const auto day = std::move(agg).take();
  ASSERT_EQ(day.server_ips.size(), 1u);  // same server address
  EXPECT_TRUE(day.server_ips.begin()->second.shared());
}

TEST(DayAggregator, DomainBytesUseSecondLevelDomain) {
  DayAggregator agg{{2016, 3, 5}};
  agg.add(make_record(kSubA, AccessTech::kAdsl, "r3---sn-abc.googlevideo.com", 5000, 100));
  agg.add(make_record(kSubA, AccessTech::kAdsl, "www.youtube.com", 2000, 100));
  const auto day = std::move(agg).take();
  EXPECT_EQ(day.domain_bytes.at({ServiceId::kYouTube, "googlevideo.com"}), 5100u);
  EXPECT_EQ(day.domain_bytes.at({ServiceId::kYouTube, "youtube.com"}), 2100u);
}

TEST(SecondLevelDomain, Extraction) {
  EXPECT_EQ(ew::analytics::second_level_domain("a.b.facebook.com"), "facebook.com");
  EXPECT_EQ(ew::analytics::second_level_domain("facebook.com"), "facebook.com");
  EXPECT_EQ(ew::analytics::second_level_domain("localhost"), "localhost");
  EXPECT_EQ(ew::analytics::second_level_domain(""), "");
}

// ----------------------------------------------------------------- figures

namespace {

DayAggregate active_day(CivilDate date, std::initializer_list<FlowRecord> records) {
  DayAggregator agg{date};
  for (const auto& r : records) agg.add(r);
  return std::move(agg).take();
}

/// 12 identical flows make the subscriber comfortably active.
void add_active_subscriber(DayAggregator& agg, IPv4Address ip, AccessTech tech,
                           const std::string& domain, std::uint64_t down_total,
                           std::uint64_t up_total,
                           ew::dpi::WebProtocol web = ew::dpi::WebProtocol::kTls) {
  for (int i = 0; i < 12; ++i) {
    agg.add(make_record(ip, tech, domain, down_total / 12, up_total / 12, web));
  }
}

}  // namespace

TEST(Figures, VolumeTrendAveragesPerTech) {
  DayAggregator agg{{2016, 3, 5}};
  add_active_subscriber(agg, kSubA, AccessTech::kAdsl, "x.example", 120'000'000, 12'000'000);
  add_active_subscriber(agg, kSubB, AccessTech::kFtth, "x.example", 240'000'000, 24'000'000);
  std::vector<DayAggregate> days;
  days.push_back(std::move(agg).take());
  const auto rows = ew::analytics::volume_trend(days);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].month, (ew::core::MonthIndex{2016, 3}));
  EXPECT_NEAR(rows[0].down_mb[0], 120.0, 1.0);
  EXPECT_NEAR(rows[0].down_mb[1], 240.0, 2.0);
  EXPECT_NEAR(rows[0].up_mb[0], 12.0, 0.2);
}

TEST(Figures, DailyVolumeDistributionsFilterInactive) {
  DayAggregator agg{{2016, 3, 5}};
  add_active_subscriber(agg, kSubA, AccessTech::kAdsl, "x.example", 50'000'000, 6'000'000);
  agg.add(make_record(kSubB, AccessTech::kFtth, "x.example", 1000, 100));  // inactive
  std::vector<DayAggregate> days;
  days.push_back(std::move(agg).take());
  const auto dist = ew::analytics::daily_volume_distributions(days);
  EXPECT_EQ(dist.down[0].size(), 1u);
  EXPECT_EQ(dist.down[1].size(), 0u);
  EXPECT_NEAR(dist.down[0].median(), 50'000'000.0, 100.0);
}

TEST(Figures, ServiceMatrixPopularityThresholds) {
  DayAggregator agg{{2016, 3, 5}};
  // Subscriber A really uses Facebook (12 MB); B only brushes it (embedded
  // Like buttons: 30 kB, below the 300 kB threshold).
  add_active_subscriber(agg, kSubA, AccessTech::kAdsl, "www.facebook.com", 12'000'000,
                        6'000'000);
  add_active_subscriber(agg, kSubB, AccessTech::kAdsl, "other.example", 40'000'000, 6'000'000);
  agg.add(make_record(kSubB, AccessTech::kAdsl, "www.facebook.com", 30'000, 2'000));
  std::vector<DayAggregate> days;
  days.push_back(std::move(agg).take());
  const auto matrix = ew::analytics::service_matrix(days);
  ASSERT_EQ(matrix.months.size(), 1u);
  const auto fb = static_cast<std::size_t>(ServiceId::kFacebook);
  EXPECT_NEAR(matrix.cells[fb][0].popularity_pct, 50.0, 1e-6);  // 1 of 2 actives
  EXPECT_GT(matrix.cells[fb][0].byte_share_pct, 10.0);
}

TEST(Figures, ServiceTrendPerUserVolume) {
  DayAggregator agg{{2016, 3, 5}};
  add_active_subscriber(agg, kSubA, AccessTech::kAdsl, "www.youtube.com", 300'000'000,
                        6'000'000);
  add_active_subscriber(agg, kSubB, AccessTech::kAdsl, "plain.example", 50'000'000, 6'000'000);
  std::vector<DayAggregate> days;
  days.push_back(std::move(agg).take());
  const auto rows = ew::analytics::service_trend(days, ServiceId::kYouTube);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(rows[0].popularity_pct[0], 50.0, 1e-6);
  EXPECT_NEAR(rows[0].mb_per_user[0], 306.0, 1.0);  // 300 down + 6 up
}

TEST(Figures, ProtocolSharesSumToHundred) {
  DayAggregator agg{{2016, 3, 5}};
  add_active_subscriber(agg, kSubA, AccessTech::kAdsl, "a.example", 60'000'000, 6'000'000,
                        ew::dpi::WebProtocol::kHttp);
  add_active_subscriber(agg, kSubB, AccessTech::kAdsl, "b.example", 20'000'000, 6'000'000,
                        ew::dpi::WebProtocol::kQuic);
  std::vector<DayAggregate> days;
  days.push_back(std::move(agg).take());
  const auto rows = ew::analytics::protocol_shares(days);
  ASSERT_EQ(rows.size(), 1u);
  double sum = 0;
  for (const auto s : rows[0].share_pct) sum += s;
  EXPECT_NEAR(sum, 100.0, 1e-6);
  EXPECT_GT(rows[0].share_pct[static_cast<std::size_t>(ew::dpi::WebProtocol::kHttp)], 60.0);
}

TEST(Figures, HourlyRatioDetectsGrowth) {
  DayAggregator early{{2014, 4, 10}};
  add_active_subscriber(early, kSubA, AccessTech::kAdsl, "x.example", 100'000'000, 6'000'000);
  DayAggregator late{{2017, 4, 12}};
  add_active_subscriber(late, kSubA, AccessTech::kAdsl, "x.example", 250'000'000, 6'000'000);
  std::vector<DayAggregate> d14, d17;
  d14.push_back(std::move(early).take());
  d17.push_back(std::move(late).take());
  const auto ratios = ew::analytics::hourly_ratio(d17, d14);
  // All volume landed in hour 12 (make_record default).
  EXPECT_NEAR(ratios.ratio[0][12], 2.5, 0.01);
  EXPECT_DOUBLE_EQ(ratios.ratio[0][3], 0.0);  // no traffic either period
}

TEST(Figures, DailyServiceVolumeSortsByDate) {
  std::vector<DayAggregate> days;
  {
    DayAggregator agg{{2014, 7, 2}};
    add_active_subscriber(agg, kSubA, AccessTech::kAdsl, "www.facebook.com", 90'000'000,
                          6'000'000);
    days.push_back(std::move(agg).take());
  }
  {
    DayAggregator agg{{2014, 3, 2}};
    add_active_subscriber(agg, kSubA, AccessTech::kAdsl, "www.facebook.com", 35'000'000,
                          6'000'000);
    days.push_back(std::move(agg).take());
  }
  const auto rows = ew::analytics::daily_service_volume(days, ServiceId::kFacebook);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].date, (CivilDate{2014, 3, 2}));
  EXPECT_LT(rows[0].mb_per_user, rows[1].mb_per_user);
}

TEST(Figures, ServiceReachCountsAtLeastOnceUsage) {
  // Subscriber A uses Netflix on day 1 only; B never does; both active on
  // both days -> reach 50% even though daily popularity is 25%.
  std::vector<DayAggregate> days;
  {
    DayAggregator agg{{2017, 3, 6}};
    add_active_subscriber(agg, kSubA, AccessTech::kFtth, "www.nflxvideo.net", 900'000'000,
                          6'000'000);
    add_active_subscriber(agg, kSubB, AccessTech::kFtth, "plain.example", 50'000'000,
                          6'000'000);
    days.push_back(std::move(agg).take());
  }
  {
    DayAggregator agg{{2017, 3, 7}};
    add_active_subscriber(agg, kSubA, AccessTech::kFtth, "other.example", 30'000'000,
                          6'000'000);
    add_active_subscriber(agg, kSubB, AccessTech::kFtth, "plain.example", 50'000'000,
                          6'000'000);
    days.push_back(std::move(agg).take());
  }
  const auto reach = ew::analytics::service_reach(days, ServiceId::kNetflix);
  EXPECT_EQ(reach.subscribers[1], 2u);
  EXPECT_NEAR(reach.pct[1], 50.0, 1e-9);
  EXPECT_EQ(reach.subscribers[0], 0u);  // no ADSL subscribers in this toy set
  // Daily popularity on the same window is half the reach.
  const auto trend = ew::analytics::service_trend(days, ServiceId::kNetflix);
  EXPECT_NEAR(trend[0].popularity_pct[1], 25.0, 1e-9);
}

TEST(Figures, TopUnclassifiedDomainsRankedByBytes) {
  DayAggregator agg{{2016, 3, 5}};
  add_active_subscriber(agg, kSubA, AccessTech::kAdsl, "cdn.bigunknown.example", 80'000'000,
                        6'000'000);
  agg.add(make_record(kSubA, AccessTech::kAdsl, "tiny.unknown.example", 5'000, 100));
  agg.add(make_record(kSubA, AccessTech::kAdsl, "www.facebook.com", 1'000'000, 100));
  std::vector<DayAggregate> days;
  days.push_back(std::move(agg).take());
  const auto top = ew::analytics::top_unclassified_domains(days, 10);
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].first, "bigunknown.example");
  EXPECT_GT(top[0].second, top[1].second);
  for (const auto& [domain, _] : top) EXPECT_NE(domain, "facebook.com");
  // The limit is respected.
  EXPECT_EQ(ew::analytics::top_unclassified_domains(days, 1).size(), 1u);
}

TEST(Figures, CategorySharesVideoDominates) {
  DayAggregator agg{{2017, 3, 5}};
  add_active_subscriber(agg, kSubA, AccessTech::kAdsl, "r1.googlevideo.com", 400'000'000,
                        6'000'000);
  add_active_subscriber(agg, kSubB, AccessTech::kAdsl, "www.facebook.com", 60'000'000,
                        6'000'000);
  std::vector<DayAggregate> days;
  days.push_back(std::move(agg).take());
  const auto shares = ew::analytics::category_shares(days);
  ASSERT_FALSE(shares.empty());
  EXPECT_EQ(shares[0].category, ew::services::ServiceCategory::kVideo);
  EXPECT_GT(shares[0].byte_share_pct, 50.0);
  double total = 0;
  for (const auto& row : shares) total += row.byte_share_pct;
  EXPECT_NEAR(total, 100.0, 1e-6);
}

// ----------------------------------------------------------- infrastructure

TEST(Infrastructure, IpLifecycleCountsDedicatedAndShared) {
  std::vector<DayAggregate> days;
  days.push_back(active_day({2015, 1, 1}, {
    make_record(kSubA, AccessTech::kAdsl, "fbstatic-a.akamaihd.net", 1000, 100),
    make_record(kSubA, AccessTech::kAdsl, "instagram-x.akamaihd.net", 1000, 100),
  }));
  const auto rows = ew::analytics::ip_lifecycle(days, ServiceId::kFacebook);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].shared, 1u);  // the Akamai IP serves FB and IG
  EXPECT_EQ(rows[0].dedicated, 0u);
  EXPECT_EQ(rows[0].cumulative_unique, 1u);
}

TEST(Infrastructure, AsnBreakdownUsesRib) {
  std::vector<DayAggregate> days;
  days.push_back(active_day({2015, 1, 1}, {
    make_record(kSubA, AccessTech::kAdsl, "edge1.facebook.com", 1000, 100),
  }));
  ew::asn::Rib rib;
  rib.add_route(*ew::core::IPv4Prefix::parse("157.240.0.0/16"), ew::asn::AsnDirectory::kFacebook);
  const auto rows = ew::analytics::asn_breakdown(
      days, ServiceId::kFacebook, [&](ew::core::MonthIndex) -> const ew::asn::Rib& { return rib; });
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].ips_by_asn.size(), 1u);
  EXPECT_EQ(rows[0].ips_by_asn.begin()->first, ew::asn::AsnDirectory::kFacebook);
  EXPECT_DOUBLE_EQ(rows[0].ips_by_asn.begin()->second, 1.0);
}

TEST(Infrastructure, DomainSharesPercentages) {
  std::vector<DayAggregate> days;
  days.push_back(active_day({2015, 1, 1}, {
    make_record(kSubA, AccessTech::kAdsl, "r1.googlevideo.com", 7000, 0),
    make_record(kSubA, AccessTech::kAdsl, "www.youtube.com", 3000, 0),
  }));
  const auto rows = ew::analytics::domain_shares(days, ServiceId::kYouTube);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(rows[0].share_pct.at("googlevideo.com"), 70.0, 1.0);
  EXPECT_NEAR(rows[0].share_pct.at("youtube.com"), 30.0, 1.0);
}

// ----------------------------------- integration: probe path == direct path

TEST(Integration, GeneratedInfrastructureMigrationVisible) {
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(3)};
  std::vector<DayAggregate> days;
  days.push_back(gen.day_aggregate({2013, 6, 10}));
  days.push_back(gen.day_aggregate({2017, 3, 10}));
  const auto rows = ew::analytics::asn_breakdown(
      days, ServiceId::kFacebook,
      [&](ew::core::MonthIndex m) -> const ew::asn::Rib& { return gen.rib(m); });
  ASSERT_EQ(rows.size(), 2u);
  const auto akamai_2013 = rows[0].ips_by_asn.count(ew::asn::AsnDirectory::kAkamai)
                               ? rows[0].ips_by_asn.at(ew::asn::AsnDirectory::kAkamai)
                               : 0.0;
  const auto akamai_2017 = rows[1].ips_by_asn.count(ew::asn::AsnDirectory::kAkamai)
                               ? rows[1].ips_by_asn.at(ew::asn::AsnDirectory::kAkamai)
                               : 0.0;
  const auto fb_2017 = rows[1].ips_by_asn.count(ew::asn::AsnDirectory::kFacebook)
                           ? rows[1].ips_by_asn.at(ew::asn::AsnDirectory::kFacebook)
                           : 0.0;
  EXPECT_GT(akamai_2013, akamai_2017);  // migration away from Akamai
  EXPECT_GT(fb_2017, akamai_2017);      // dedicated CDN dominates in 2017
}

TEST(Integration, DomainGenerationsShiftForYouTube) {
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(3)};
  std::vector<DayAggregate> days;
  days.push_back(gen.day_aggregate({2013, 6, 10}));
  days.push_back(gen.day_aggregate({2016, 6, 10}));
  const auto rows = ew::analytics::domain_shares(days, ServiceId::kYouTube);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_GT(rows[0].share_pct.at("youtube.com"), 60.0);
  EXPECT_GT(rows[1].share_pct.at("googlevideo.com"), 60.0);
}
