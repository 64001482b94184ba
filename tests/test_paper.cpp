// The paper's numbers, checked: Table 1, Figs. 2-11 and the §2 ablations
// regenerated on the synthetic scenario (seed 42) and held to the paper.
//
// Each row prints "paper vs measured" and checks the measured value
// against a band written beside it:
//  - near(paper, tolerance) where the scenario reproduces the paper;
//  - at_least / at_most where the paper makes a one-sided claim;
//  - gap(measured, tolerance) where the scenario misses the paper. The
//    band is centred on the value measured at seed 42 and is no wider
//    than the spread across seeds, so a gap cannot silently get worse
//    (EXPERIMENTS.md lists the known gaps).
// Every band also holds at seeds 7 and 23. `ctest -L paper -V` prints the
// tables EXPERIMENTS.md reports.
//
// The figures sample two to four days a month where the paper uses every
// day. Figs. 3 and 8 run the production path: generator records → data
// lake → rollup store → query::figures. The others aggregate generator
// records in memory (analytics::DayAggregate), which the query and
// parallel suites prove equal to the lake path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "analytics/figures.hpp"
#include "analytics/infrastructure.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "probe/probe.hpp"
#include "query/figures.hpp"
#include "query/store.hpp"
#include "services/catalog.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/packets.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
using ew::analytics::DayAggregate;
using ew::core::CivilDate;
using ew::core::MonthIndex;
using ew::services::ServiceId;
using WP = ew::dpi::WebProtocol;

namespace {

constexpr std::uint64_t kSeed = 42;

// ---------------------------------------------------------------- rows

struct Band {
  double lo;
  double hi;
  bool known_gap = false;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

Band near(double paper, double tolerance) { return {paper - tolerance, paper + tolerance}; }
Band at_least(double lo) { return {lo, kInf}; }
Band at_most(double hi) { return {-kInf, hi}; }
Band gap(double measured, double tolerance) {
  return {measured - tolerance, measured + tolerance, true};
}

void header(const char* figure, const char* caption) {
  std::printf("%s — %s\n", figure, caption);
}

/// One "paper vs measured" row: printed, then checked against its band.
void row(const char* metric, const char* paper, double measured, Band band) {
  std::printf("  %-54s paper: %-12s measured: %9.3f%s\n", metric, paper, measured,
              band.known_gap ? "  (known gap)" : "");
  EXPECT_TRUE(measured >= band.lo && measured <= band.hi)
      << metric << ": paper " << paper << ", measured " << measured << ", band [" << band.lo
      << ", " << band.hi << "]" << (band.known_gap ? " (known gap)" : "");
}

// ---------------------------------------------------------------- days

const ew::synth::WorkloadGenerator& generator() {
  static const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(kSeed)};
  return gen;
}

/// The first `n` of the days 10, 20, 5, 15, 25 of a month: spread across
/// it, away from month-end holidays.
std::vector<CivilDate> sample_days(MonthIndex month, int n) {
  static constexpr std::uint8_t kDays[] = {10, 20, 5, 15, 25};
  std::vector<CivilDate> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({month.year(), static_cast<std::uint8_t>(month.month()), kDays[i]});
  }
  return out;
}

/// Two sample days of every `step`-th month in [from, to].
std::vector<CivilDate> window(MonthIndex from, MonthIndex to, int step) {
  std::vector<CivilDate> out;
  for (auto m = from; m <= to; m = m + step) {
    for (const auto day : sample_days(m, 2)) out.push_back(day);
  }
  return out;
}

std::vector<DayAggregate> aggregates(std::span<const CivilDate> days) {
  std::vector<DayAggregate> out;
  for (const auto day : days) out.push_back(generator().day_aggregate(day));
  return out;
}

/// The production path: the days' generator records in a data lake, and a
/// rollup store built from it.
class RollupCorpus {
 public:
  explicit RollupCorpus(std::span<const CivilDate> days) {
    for (const auto day : days) EXPECT_TRUE(lake_.append(day, generator().day_records(day)));
    ew::core::ThreadPool pool{4};
    EXPECT_TRUE(store_.build(pool).ok());
  }
  [[nodiscard]] const ew::query::RollupStore& store() const noexcept { return store_; }

 private:
  ew::testing::TempDir dir_{"ew_paper"};
  ew::storage::DataLake lake_{dir_.path / "lake"};
  ew::query::RollupStore store_{dir_.path / "rollups", lake_,
                                ew::services::ServiceCatalog::standard(),
                                generator().scenario().rib.get()};
};

/// Mean of `field` over the rows of one year's sampled months.
template <typename Row, typename Field>
double year_mean(const std::vector<Row>& rows, int year, Field field) {
  double sum = 0;
  int n = 0;
  for (const auto& r : rows) {
    if (r.month.year() == year) {
      sum += field(r);
      ++n;
    }
  }
  EXPECT_GT(n, 0) << year;
  return n ? sum / n : 0.0;
}

auto volume(int tech) {
  return [tech](const ew::analytics::ServiceTrendRow& r) { return r.mb_per_user[tech]; };
}

template <typename Row>
const Row& month_row(const std::vector<Row>& rows, MonthIndex month) {
  const auto it = std::find_if(rows.begin(), rows.end(),
                               [month](const Row& r) { return r.month == month; });
  EXPECT_NE(it, rows.end()) << month.to_string();
  return it == rows.end() ? rows.front() : *it;
}

}  // namespace

// ------------------------------------------------------------- Table 1

TEST(Paper, Table1DomainToService) {
  header("Table 1", "domain-to-service associations");
  const auto& catalog = ew::services::ServiceCatalog::standard();
  struct Association {
    const char* domain;
    const char* service;
  };
  const Association rows[] = {
      {"facebook.com", "Facebook"},
      {"fbcdn.com", "Facebook"},
      {"fbstatic-a.akamaihd.net", "Facebook"},  // the table's RegExp row
      {"netflix.com", "Netflix"},
      {"nflxvideo.net", "Netflix"},
      // Beyond the table: each domain generation of Fig. 11.
      {"r3---sn-uxaxovg-5gie.googlevideo.com", "YouTube"},
      {"redirector.gvt1.com", "YouTube"},
      {"scontent.cdninstagram.com", "Instagram"},
      {"mmx-ds.cdn.whatsapp.net", "WhatsApp"},
      {"www.polito.it", "Other"},
  };
  for (const auto& r : rows) {
    const auto got = ew::services::to_string(catalog.classify_domain(r.domain));
    std::printf("  %-42s -> %s\n", r.domain, std::string(got).c_str());
    EXPECT_EQ(got, r.service) << r.domain;
  }
  row("suffix rules", "list online", static_cast<double>(catalog.rules().suffix_rules()),
      near(57, 0));
  row("regex rules", "list online", static_cast<double>(catalog.rules().regex_rules()),
      near(4, 0));
}

// ------------------------------------------------------------- Fig. 2

TEST(Paper, Fig2DailyVolumeCcdf) {
  header("Fig. 2", "CCDF of per-subscriber daily traffic, April 2014 vs 2017");
  const auto d14 = ew::analytics::daily_volume_distributions(
      aggregates(sample_days({2014, 4}, 4)));
  const auto d17 = ew::analytics::daily_volume_distributions(
      aggregates(sample_days({2017, 4}, 4)));
  constexpr double kMB = 1e6;
  constexpr int kAdsl = 0;
  constexpr int kFtth = 1;
  row("ADSL days above 100 MB down, 2014", "~0.5", d14.down[kAdsl].ccdf(100 * kMB),
      gap(0.662, 0.047));
  row("ADSL days above 1 GB down, 2017", ">0.1", d17.down[kAdsl].ccdf(1000 * kMB),
      at_least(0.1));
  row("ADSL down median growth 2014->2017 (x)", "~2",
      d17.down[kAdsl].median() / d14.down[kAdsl].median(), near(2, 0.2));
  row("FTTH down median growth 2014->2017 (x)", "~2",
      d17.down[kFtth].median() / d14.down[kFtth].median(), near(2, 0.2));
  row("ADSL up median growth 2014->2017 (x)", "~2",
      d17.up[kAdsl].median() / d14.up[kAdsl].median(), near(2, 0.6));
  row("heavy-day FTTH/ADSL download ratio 2017 (90th pct)", "~1.25",
      d17.down[kFtth].quantile(0.9) / d17.down[kAdsl].quantile(0.9), near(1.25, 0.2));
  row("FTTH/ADSL upload ratio 2017 (90th pct)", "~2",
      d17.up[kFtth].quantile(0.9) / d17.up[kAdsl].quantile(0.9), near(2, 0.25));
  // The 2014 upload tail bump is P2P seeding; it fades by 2017.
  const double bump14 = d14.up[kAdsl].ccdf(1000 * kMB) * 1000;
  const double bump17 = d17.up[kAdsl].ccdf(1000 * kMB) * 1000;
  row("P(ADSL up > 1 GB) x1000, 2014 (P2P seeding bump)", "visible", bump14, at_least(5));
  row("P(ADSL up > 1 GB) 2017 / 2014 (bump gone)", "much smaller", bump17 / bump14,
      at_most(0.6));
}

// ------------------------------------------------------------- Fig. 3

TEST(Paper, Fig3VolumeTrendFromRollups) {
  header("Fig. 3", "average per-subscription daily traffic, 2013-2017 (from rollups)");
  // Every third month keeps the lake small while covering the whole span.
  const auto days = window({2013, 3}, {2017, 9}, 3);
  const RollupCorpus corpus{days};
  const auto rows = ew::query::volume_trend(corpus.store(), days.front(), days.back());
  ASSERT_EQ(rows.size(), 19u);
  using Row = ew::analytics::VolumeTrendRow;
  auto down = [](int tech) { return [tech](const Row& r) { return r.down_mb[tech]; }; };
  auto up = [](int tech) { return [tech](const Row& r) { return r.up_mb[tech]; }; };
  // §2.1: churn shrinks ADSL while FTTH installations grow.
  row("ADSL active subscribers 2013-03 -> 2017-09 (x)", "<1 (churn)",
      static_cast<double>(rows.back().subscribers[0]) /
          static_cast<double>(rows.front().subscribers[0]),
      at_most(0.9));
  row("FTTH active subscribers 2013-03 -> 2017-09 (x)", ">1 (rollout)",
      static_cast<double>(rows.back().subscribers[1]) /
          static_cast<double>(rows.front().subscribers[1]),
      at_least(1.5));
  row("ADSL down 2013-03 (MB/day)", "~300", rows.front().down_mb[0], near(300, 45));
  row("ADSL down 2017-09 (MB/day)", "~700", rows.back().down_mb[0], near(700, 40));
  row("FTTH down 2017-09 (MB/day)", "~1000", rows.back().down_mb[1], near(1000, 120));
  // Ratios compare year means: a single month's heavy users swing them.
  row("FTTH/ADSL download premium 2017 (x)", "~1.25",
      year_mean(rows, 2017, down(1)) / year_mean(rows, 2017, down(0)), near(1.25, 0.25));
  row("ADSL upload 2013 -> 2017 (x)", "~1 (flat)",
      year_mean(rows, 2017, up(0)) / year_mean(rows, 2013, up(0)), near(1, 0.15));
  // A few FTTH seeders carry the upload mean: across seeds it reads 0.9-2.1.
  row("FTTH upload 2013 -> 2017 (x)", "modest >1",
      year_mean(rows, 2017, up(1)) / year_mean(rows, 2013, up(1)), at_least(0.9));
}

// ------------------------------------------------------------- Fig. 4

TEST(Paper, Fig4HourlyRatio) {
  header("Fig. 4", "hourly download ratio April 2017 / April 2014");
  const auto ratios = ew::analytics::hourly_ratio(aggregates(sample_days({2017, 4}, 4)),
                                                  aggregates(sample_days({2014, 4}, 4)));
  auto mean = [&ratios](int tech, int from, int to) {
    double sum = 0;
    for (int h = from; h < to; ++h) sum += ratios.ratio[tech][h];
    return sum / (to - from);
  };
  const double adsl_day = mean(0, 10, 18);
  const double adsl_night = mean(0, 1, 6);
  const double ftth_day = mean(1, 10, 18);
  const double ftth_prime = mean(1, 20, 23);
  // The paper's own Fig. 3 implies ~1.7 for these months; the scenario
  // follows Fig. 3.
  row("ADSL daytime average ratio", ">2", adsl_day, gap(1.361, 0.21));
  row("ADSL late-night ratio (automatic traffic)", "> daytime", adsl_night, at_least(2));
  row("night/day ratio of ratios (ADSL)", ">1", adsl_night / adsl_day, at_least(1.5));
  row("FTTH prime-time ratio (video)", "> daytime", ftth_prime, at_least(2));
  row("prime/day ratio of ratios (FTTH)", ">1", ftth_prime / ftth_day, at_least(1.0));
}

// ------------------------------------------------------------- Fig. 5

TEST(Paper, Fig5ServiceMatrix) {
  header("Fig. 5", "service popularity (ADSL, % active users) and byte share (%)");
  const auto matrix = ew::analytics::service_matrix(
      aggregates(window({2013, 6}, {2017, 6}, 12)), ew::flow::AccessTech::kAdsl);
  ASSERT_EQ(matrix.months.size(), 5u);
  const auto last = matrix.months.size() - 1;
  auto cell = [&matrix](ServiceId id, std::size_t month) {
    return matrix.cells[static_cast<std::size_t>(id)][month];
  };
  row("Google popularity 2017 (%)", "~60", cell(ServiceId::kGoogle, last).popularity_pct,
      near(60, 3));
  row("Bing popularity 2013 (%)", "<15", cell(ServiceId::kBing, 0).popularity_pct,
      gap(17.0, 1.2));
  row("Bing popularity 2017 (%)", "~45", cell(ServiceId::kBing, last).popularity_pct,
      near(45, 3.5));
  row("DuckDuckGo popularity 2017 (%)", "<0.3", cell(ServiceId::kDuckDuckGo, last).popularity_pct,
      gap(0.401, 0.41));
  row("YouTube byte share 2017 (%)", "~10", cell(ServiceId::kYouTube, last).byte_share_pct,
      gap(23.57, 3.0));
  row("P2P byte share drop 2013->2017 (pp)", "large",
      cell(ServiceId::kPeerToPeer, 0).byte_share_pct -
          cell(ServiceId::kPeerToPeer, last).byte_share_pct,
      at_least(10));
  for (const auto id : {ServiceId::kFacebook, ServiceId::kInstagram, ServiceId::kWhatsApp,
                        ServiceId::kNetflix}) {
    const std::string metric =
        std::string(ew::services::to_string(id)) + " byte share 2013->2017 (pp)";
    row(metric.c_str(), "grows", cell(id, last).byte_share_pct - cell(id, 0).byte_share_pct,
        at_least(0.5));
  }
}

// ------------------------------------------------------------- Fig. 6

TEST(Paper, Fig6VideoAndP2p) {
  header("Fig. 6", "P2P / Netflix / YouTube popularity and volumes");
  const auto days = aggregates(window({2013, 5}, {2017, 9}, 4));
  const auto p2p = ew::analytics::service_trend(days, ServiceId::kPeerToPeer);
  const auto netflix = ew::analytics::service_trend(days, ServiceId::kNetflix);
  const auto youtube = ew::analytics::service_trend(days, ServiceId::kYouTube);
  std::vector<double> hardcore;  // P2P MB/user before the late-2016 drop
  for (const auto& r : p2p) {
    if (r.month < MonthIndex{2016, 9}) hardcore.push_back(r.mb_per_user[0]);
  }
  std::nth_element(hardcore.begin(), hardcore.begin() + hardcore.size() / 2, hardcore.end());
  const double hardcore_median = hardcore[hardcore.size() / 2];
  row("P2P ADSL popularity 2013-05 (%)", "~10", p2p.front().popularity_pct[0], near(10, 1.5));
  row("P2P ADSL popularity 2017-09 (%)", "~3", p2p.back().popularity_pct[0], near(3, 0.5));
  row("P2P ADSL volume 2013-2016, monthly median (MB/day)", "~400", hardcore_median,
      at_least(350));
  row("P2P ADSL volume 2017 / 2013-2016 (late-2016 drop)", "<1",
      year_mean(p2p, 2017, volume(0)) / hardcore_median, at_most(1));
  row("Netflix FTTH popularity 2017-09 (%)", "~10", netflix.back().popularity_pct[1],
      near(10, 1.5));
  row("Netflix FTTH volume 2017 (MB/day, Ultra HD)", "~1000",
      year_mean(netflix, 2017, volume(1)), near(1000, 80));
  row("Netflix ADSL volume 2017 (MB/day, no UHD)", "~500", year_mean(netflix, 2017, volume(0)),
      near(500, 80));
  row("YouTube ADSL popularity 2017-09 (%)", ">40", youtube.back().popularity_pct[0],
      at_least(40));
  row("YouTube ADSL volume 2017 (MB/day)", ">400", year_mean(youtube, 2017, volume(0)),
      near(400, 60));
  row("YouTube FTTH/ADSL volume ratio 2017", "~1",
      year_mean(youtube, 2017, volume(1)) / year_mean(youtube, 2017, volume(0)), near(1, 0.15));

  // §4.3's weekly statistic: subscribers touching Netflix at least once in
  // a week of April 2017.
  std::vector<CivilDate> week;
  for (std::uint8_t d = 10; d < 17; ++d) week.push_back({2017, 4, d});
  const auto reach = ew::analytics::service_reach(aggregates(week), ServiceId::kNetflix);
  row("Netflix weekly reach FTTH 2017 (%)", ">18", reach.pct[1], at_least(18));
  row("Netflix weekly reach ADSL 2017 (%)", ">12", reach.pct[0], gap(11.09, 3.11));
}

// ------------------------------------------------------------- Fig. 7

TEST(Paper, Fig7SocialMessaging) {
  header("Fig. 7", "SnapChat / WhatsApp / Instagram");
  const auto days = aggregates(window({2013, 5}, {2017, 9}, 4));
  const auto snap = ew::analytics::service_trend(days, ServiceId::kSnapChat);
  const auto whatsapp = ew::analytics::service_trend(days, ServiceId::kWhatsApp);
  const auto instagram = ew::analytics::service_trend(days, ServiceId::kInstagram);
  const auto netflix = ew::analytics::service_trend(days, ServiceId::kNetflix);
  double snap_peak_volume = 0;
  double snap_peak_popularity = 0;
  for (const auto& r : snap) {
    snap_peak_volume = std::max(snap_peak_volume, r.mb_per_user[0]);
    snap_peak_popularity = std::max(snap_peak_popularity, r.popularity_pct[0]);
  }
  row("SnapChat peak popularity (%)", "~10", snap_peak_popularity, near(10, 3));
  row("SnapChat peak volume (MB/day)", "~100", snap_peak_volume, near(100, 25));
  row("SnapChat 2017-09 volume (MB/day, collapsed)", "<20", snap.back().mb_per_user[0],
      gap(25.89, 8.0));
  row("WhatsApp popularity 2017-09 (%, saturated)", ">50", whatsapp.back().popularity_pct[0],
      at_least(50));
  row("WhatsApp volume 2017 (MB/day)", "~10", year_mean(whatsapp, 2017, volume(0)),
      gap(15.12, 1.74));
  row("Instagram ADSL volume 2017-09 (MB/day)", "~120", instagram.back().mb_per_user[0],
      near(120, 16));
  row("Instagram FTTH volume 2017-09 (MB/day)", "~200", instagram.back().mb_per_user[1],
      near(200, 20));
  row("Instagram/Netflix FTTH per-user volume 2017", "~0.25",
      year_mean(instagram, 2017, volume(1)) / year_mean(netflix, 2017, volume(1)),
      gap(0.173, 0.037));

  // WhatsApp holiday peaks: Christmas Day against a plain December day.
  auto whatsapp_mb = [](CivilDate day) {
    const std::vector<CivilDate> one{day};
    return ew::analytics::service_trend(aggregates(one), ServiceId::kWhatsApp)
        .back()
        .mb_per_user[0];
  };
  row("WhatsApp Christmas/ordinary volume ratio", ">2 (peaks)",
      whatsapp_mb({2016, 12, 25}) / whatsapp_mb({2016, 12, 13}), at_least(2));
}

// ------------------------------------------------------------- Fig. 8

TEST(Paper, Fig8ProtocolEventsFromRollups) {
  header("Fig. 8", "web protocol breakdown and events A-F (from rollups)");
  // Fine-grained sampling around the sudden events.
  const std::vector<CivilDate> days = {
      {2013, 6, 10},  {2013, 12, 10}, {2014, 3, 10},  {2014, 9, 10},  {2014, 12, 10},
      {2015, 5, 10},  {2015, 8, 10},  {2015, 11, 20}, {2015, 12, 20}, {2016, 1, 25},
      {2016, 6, 10},  {2016, 10, 20}, {2016, 12, 10}, {2017, 4, 10},  {2017, 9, 20},
  };
  const RollupCorpus corpus{days};
  const auto rows = ew::query::protocol_shares(corpus.store(), days.front(), days.back());
  ASSERT_EQ(rows.size(), days.size());
  auto share = [&rows](int year, unsigned month, std::initializer_list<WP> protocols) {
    const auto& r = month_row(rows, MonthIndex{year, month});
    double sum = 0;
    for (const auto p : protocols) sum += r.share_pct[static_cast<std::size_t>(p)];
    return sum;
  };
  row("TLS share 2013-06 (%)", "~13", share(2013, 6, {WP::kTls}), near(13, 3));
  row("(A) HTTPS-family share 2014-12 (%)", "~40",
      share(2014, 12, {WP::kTls, WP::kSpdy, WP::kHttp2}), gap(47.2, 3.61));
  row("(B) QUIC share 2014-09 (%, not yet)", "0", share(2014, 9, {WP::kQuic}), near(0, 0));
  row("(B) QUIC share 2014-12 (%, just started)", ">0", share(2014, 12, {WP::kQuic}),
      at_least(1));
  row("(C) SPDY share 2015-05 (%, hidden)", "0", share(2015, 5, {WP::kSpdy}), near(0, 0));
  row("(C) SPDY share 2015-08 (%, revealed)", "~10", share(2015, 8, {WP::kSpdy}), near(10, 3));
  row("(D) QUIC share 2015-11 (%)", "~8", share(2015, 11, {WP::kQuic}), near(8, 1.5));
  row("(D) QUIC share 2015-12 (%, blackout)", "0", share(2015, 12, {WP::kQuic}), near(0, 0));
  row("(D) QUIC share 2016-01 (%, back)", "~8", share(2016, 1, {WP::kQuic}), near(8, 1.5));
  row("(E) SPDY share 2016-06 (%, dying)", "small", share(2016, 6, {WP::kSpdy}), at_most(2));
  row("(E) HTTP/2 share 2016-06 (%)", "growing", share(2016, 6, {WP::kHttp2}), at_least(5));
  row("(F) FB-Zero share 2016-10 (%)", "0", share(2016, 10, {WP::kFbZero}), near(0, 0));
  row("(F) FB-Zero share 2016-12 (%)", "~8", share(2016, 12, {WP::kFbZero}), near(8, 3));
  row("HTTP share 2017-09 (%)", "~25", share(2017, 9, {WP::kHttp}), near(25, 3));
  row("QUIC+Zero share 2017-09 (%)", "20-25", share(2017, 9, {WP::kQuic, WP::kFbZero}),
      gap(18.26, 2.53));
}

// ------------------------------------------------------------- Fig. 9

TEST(Paper, Fig9FacebookAutoplay) {
  header("Fig. 9", "Facebook daily per-user traffic around video auto-play (2014)");
  const auto rows = ew::analytics::daily_service_volume(
      aggregates(window({2014, 1}, {2014, 12}, 1)), ServiceId::kFacebook);
  auto month_mean = [&rows](unsigned month) {
    double sum = 0;
    int n = 0;
    for (const auto& r : rows) {
      if (r.date.month == month) {
        sum += r.mb_per_user;
        ++n;
      }
    }
    return n ? sum / n : 0.0;
  };
  row("March 2014 (MB/user, before auto-play)", "~35", month_mean(3), near(35, 5));
  row("April 2014 (MB/user, one month later)", "~70", month_mean(4), near(70, 10));
  row("May 2014 / April 2014 (rollout pause)", "no growth", month_mean(5) / month_mean(4),
      at_most(1.1));
  row("July 2014 / May 2014 (rollout resumes)", "growth", month_mean(7) / month_mean(5),
      at_least(1.3));
  row("July 2014 (MB/user)", "~90", month_mean(7), near(90, 10));
  row("July / March ratio", "~2.5", month_mean(7) / month_mean(3), near(2.5, 0.35));
}

// ------------------------------------------------------------- Fig. 10

TEST(Paper, Fig10RttCdf) {
  header("Fig. 10", "CDF of per-flow minimum RTT, April 2014 vs April 2017");
  const auto april14 = aggregates(sample_days({2014, 4}, 3));
  const auto april17 = aggregates(sample_days({2017, 4}, 3));
  auto rtt = [](const std::vector<DayAggregate>& days, ServiceId id) {
    return ew::analytics::rtt_distribution(days, id);
  };
  const auto ig14 = rtt(april14, ServiceId::kInstagram);
  const auto ig17 = rtt(april17, ServiceId::kInstagram);
  const auto fb17 = rtt(april17, ServiceId::kFacebook);
  const auto yt14 = rtt(april14, ServiceId::kYouTube);
  const auto yt17 = rtt(april17, ServiceId::kYouTube);
  const auto gg17 = rtt(april17, ServiceId::kGoogle);
  const auto wa17 = rtt(april17, ServiceId::kWhatsApp);
  row("Instagram flows at ~3 ms, 2014 (frac)", "~0.10", ig14.cdf(4.0), gap(0.183, 0.016));
  row("Instagram flows at ~3 ms, 2017 (frac)", "~0.80", ig17.cdf(4.0), near(0.8, 0.12));
  row("Facebook flows at ~3 ms, 2017 (frac)", "~0.80", fb17.cdf(4.0), near(0.8, 0.08));
  row("Instagram intercontinental (>100 ms), 2014 (frac)", "~0.07", 1.0 - ig14.cdf(95.0),
      gap(0.109, 0.022));
  row("YouTube flows at ~3 ms, 2014 (frac)", "~0.80", yt14.cdf(4.0), near(0.8, 0.05));
  row("YouTube sub-millisecond flows, 2014 (frac)", "0", yt14.cdf(1.0), near(0, 0));
  row("YouTube sub-millisecond flows, 2017 (frac)", "large", yt17.cdf(1.0), at_least(0.4));
  row("Google sub-millisecond flows, 2017 (frac)", "0", gg17.cdf(1.0), near(0, 0));
  row("WhatsApp median RTT, 2017 (ms)", "~100", wa17.median(), near(100, 10));
}

// ------------------------------------------------------------- Fig. 11

TEST(Paper, Fig11Infrastructure) {
  header("Fig. 11", "Facebook / Instagram / YouTube infrastructure (1/10 scale)");
  const auto days = aggregates(window({2013, 6}, {2017, 6}, 6));
  const ew::analytics::RibProvider rib = [](MonthIndex m) -> const ew::asn::Rib& {
    return generator().rib(m);
  };
  using Dir = ew::asn::AsnDirectory;
  auto asn_ips = [&](ServiceId id, MonthIndex month, std::uint32_t asn) {
    const auto rows = ew::analytics::asn_breakdown(days, id, rib);
    const auto& ips = month_row(rows, month).ips_by_asn;
    const auto it = ips.find(asn);
    return it == ips.end() ? 0.0 : it->second;
  };
  auto domain_pct = [&](ServiceId id, MonthIndex month, const char* domain) {
    const auto rows = ew::analytics::domain_shares(days, id);
    const auto& shares = month_row(rows, month).share_pct;
    const auto it = shares.find(domain);
    return it == shares.end() ? 0.0 : it->second;
  };
  row("FB Akamai IPs/day 2013-06", "large", asn_ips(ServiceId::kFacebook, {2013, 6}, Dir::kAkamai),
      at_least(200));
  row("FB Akamai IPs/day 2017-06 (migration done)", "~0",
      asn_ips(ServiceId::kFacebook, {2017, 6}, Dir::kAkamai), at_most(5));
  row("FB AS32934 IPs/day 2017-06", "~100 (1000 / 10)",
      asn_ips(ServiceId::kFacebook, {2017, 6}, Dir::kFacebook), near(100, 10));
  row("IG AS32934 IPs/day 2017-06", "~30 (300 / 10)",
      asn_ips(ServiceId::kInstagram, {2017, 6}, Dir::kFacebook), near(30, 8));
  row("YT ISP-hosted cache IPs/day 2014-06", "0",
      asn_ips(ServiceId::kYouTube, {2014, 6}, Dir::kIsp), near(0, 0));
  row("YT ISP-hosted cache IPs/day 2017-06", ">0 (in-PoP)",
      asn_ips(ServiceId::kYouTube, {2017, 6}, Dir::kIsp), at_least(25));

  const auto fb = ew::analytics::ip_lifecycle(days, ServiceId::kFacebook);
  const auto yt = ew::analytics::ip_lifecycle(days, ServiceId::kYouTube);
  row("FB shared IPs on the last sampled day", "few", static_cast<double>(fb.back().shared),
      at_most(5));
  std::size_t yt_shared = 0;
  for (const auto& r : yt) yt_shared += r.shared;
  row("YT shared IPs, all sampled days (always dedicated)", "0",
      static_cast<double>(yt_shared), near(0, 0));
  row("YT cumulative unique IPs, 2013-06 -> 2017-06 (x)", "keeps growing",
      static_cast<double>(yt.back().cumulative_unique) /
          static_cast<double>(yt.front().cumulative_unique),
      at_least(2));
  row("YT cumulative unique IPs 2017-06", "~40k (4k / 10)",
      static_cast<double>(yt.back().cumulative_unique), gap(3536, 13));

  row("youtube.com share of YouTube bytes 2013-06 (%)", "most",
      domain_pct(ServiceId::kYouTube, {2013, 6}, "youtube.com"), at_least(60));
  row("googlevideo.com share of YouTube bytes 2014-06 (%)", "most",
      domain_pct(ServiceId::kYouTube, {2014, 6}, "googlevideo.com"), at_least(80));
  row("gvt1.com share of YouTube bytes 2015-12 (%)", ">0",
      domain_pct(ServiceId::kYouTube, {2015, 12}, "gvt1.com"), at_least(5));
  row("facebook.com share of Facebook bytes 2017-06 (%)", "most",
      domain_pct(ServiceId::kFacebook, {2017, 6}, "facebook.com"), at_least(80));
  row("cdninstagram.com share of Instagram bytes 2017-06 (%)", "most",
      domain_pct(ServiceId::kInstagram, {2017, 6}, "cdninstagram.com"), at_least(80));
}

// ------------------------------------------------------------- §2 ablations

namespace {

/// 200 TLS conversations, half without SNI (opaque apps, old TLS stacks).
/// With `with_dns`, each SNI-less one follows a DNS response naming its
/// server: exactly the population DN-Hunter exists for.
std::vector<ew::net::Frame> sni_less_traffic(bool with_dns) {
  std::vector<ew::net::Frame> frames;
  const ew::core::IPv4Address resolver{10, 255, 0, 1};
  for (int i = 0; i < 200; ++i) {
    const ew::core::IPv4Address client{10, 0, 1, static_cast<std::uint8_t>(i % 200 + 1)};
    const ew::core::IPv4Address server{158, 85, static_cast<std::uint8_t>(i % 50),
                                       static_cast<std::uint8_t>(i % 200 + 1)};
    const auto t0 = ew::core::Timestamp::from_seconds(1000 + i * 2);
    const bool has_sni = i % 2 == 0;
    if (with_dns && !has_sni) {
      const ew::core::IPv4Address addrs[] = {server};
      frames.push_back(ew::synth::render_dns_response(client, resolver,
                                                      "mmx-ds.cdn.whatsapp.net", addrs, t0));
    }
    ew::synth::ConversationSpec spec;
    spec.client = client;
    spec.client_port = static_cast<std::uint16_t>(41000 + i);
    spec.server = server;
    spec.web = WP::kTls;
    spec.server_name = has_sni ? "mmx-ds.cdn.whatsapp.net" : "";
    spec.start = t0 + 50'000;
    spec.response_bytes = 6'000;
    auto conv = ew::synth::render_conversation(spec);
    frames.insert(frames.end(), std::make_move_iterator(conv.begin()),
                  std::make_move_iterator(conv.end()));
  }
  return frames;
}

}  // namespace

// §2.1: hostnames are "vital to associate traffic flows to web services".
TEST(Paper, DnHunterNamesSniLessFlows) {
  header("§2.1 ablation", "DN-Hunter flow naming");
  struct Coverage {
    std::size_t flows = 0;
    std::size_t named = 0;
    std::size_t classified = 0;
  };
  auto run = [](bool with_dns) {
    Coverage cov;
    const auto& catalog = ew::services::ServiceCatalog::standard();
    ew::probe::Probe probe{{}, [&](ew::flow::FlowRecord&& r) {
                             // A lone DNS response opens a flow whose first
                             // sender is the resolver: port 53 is either side.
                             if (r.server_port == 53 || r.client_port == 53) return;
                             ++cov.flows;
                             cov.named += !r.server_name.empty();
                             cov.classified += catalog.classify_flow(r.l7, r.server_name) !=
                                               ServiceId::kOther;
                           }};
    for (const auto& frame : sni_less_traffic(with_dns)) probe.process(frame);
    probe.finish();
    return cov;
  };
  const auto without = run(false);
  const auto with = run(true);
  ASSERT_EQ(without.flows, 200u);
  ASSERT_EQ(with.flows, 200u);
  auto pct = [](std::size_t n, std::size_t of) {
    return 100.0 * static_cast<double>(n) / static_cast<double>(of);
  };
  // Half the flows carry SNI; DN-Hunter must name the other half.
  row("flows named, SNI/Host only (%)", "n/a", pct(without.named, without.flows), near(50, 0));
  row("flows classified, SNI/Host only (%)", "n/a", pct(without.classified, without.flows),
      near(50, 0));
  row("flows named, with DN-Hunter (%)", "vital", pct(with.named, with.flows), near(100, 0));
  row("flows classified, with DN-Hunter (%)", "vital", pct(with.classified, with.flows),
      near(100, 0));
}

// §2.1: "no traffic sampling is performed". The same traffic, sampled 1 in
// `rate` before it reaches the probe, loses flows, hostnames (the one
// packet carrying the SNI is usually dropped), RTT samples and byte
// accuracy.
TEST(Paper, PacketSamplingBlindsTheProbe) {
  header("§2.1 ablation", "packet sampling vs the paper's sample-everything probes");
  std::vector<ew::net::Frame> frames;
  ew::core::Xoshiro256 rng{2018};
  for (int i = 0; i < 250; ++i) {
    ew::synth::ConversationSpec spec;
    spec.client = ew::core::IPv4Address{10, 0, 2, static_cast<std::uint8_t>(i % 250 + 1)};
    spec.client_port = static_cast<std::uint16_t>(42000 + i);
    spec.server = ew::core::IPv4Address{157, 240, 9, static_cast<std::uint8_t>(i % 200 + 1)};
    spec.web = WP::kTls;
    spec.server_name = "www.facebook.com";
    spec.start = ew::core::Timestamp::from_seconds(5000 + i * 3);
    spec.rtt_us = 5'000;
    // Heavy-tailed flow sizes: most flows are mice, a few are elephants.
    spec.response_bytes =
        static_cast<std::size_t>(ew::core::pareto_bounded(rng, 1.1, 2'000, 200'000));
    auto conv = ew::synth::render_conversation(spec);
    frames.insert(frames.end(), std::make_move_iterator(conv.begin()),
                  std::make_move_iterator(conv.end()));
  }
  struct Outcome {
    double flows = 0;
    double named = 0;
    double with_rtt = 0;
    double bytes = 0;
  };
  auto run = [&frames](std::size_t rate) {
    Outcome out;
    ew::probe::Probe probe{{}, [&out](ew::flow::FlowRecord&& r) {
                             ++out.flows;
                             out.named += !r.server_name.empty();
                             out.with_rtt += r.rtt.samples > 0;
                             out.bytes += static_cast<double>(r.total_bytes());
                           }};
    // Frame i is kept iff (i + 1) % rate == 0: the rate-th frame is the
    // first one kept.
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if ((i + 1) % rate == 0) probe.process(frames[i]);
    }
    probe.finish();
    return out;
  };
  const auto truth = run(1);
  struct Expected {
    std::size_t rate;
    double flows, named_pct, rtt_pct, byte_error_pct;
  };
  // The traffic and the sampler are deterministic: the bands are rounding.
  for (const auto& e : {Expected{1, 250, 100.0, 100.0, 0.0}, Expected{10, 250, 9.2, 8.4, -2.1},
                        Expected{100, 36, 16.7, 0.0, -35.3}}) {
    const auto got = run(e.rate);
    const std::string at = "1-in-" + std::to_string(e.rate) + ": ";
    row((at + "flows").c_str(), "no sampling", got.flows, near(e.flows, 0));
    row((at + "flows named (%)").c_str(), "no sampling", 100 * got.named / got.flows,
        near(e.named_pct, 0.05));
    row((at + "flows with RTT (%)").c_str(), "no sampling", 100 * got.with_rtt / got.flows,
        near(e.rtt_pct, 0.05));
    const double estimate = got.bytes * static_cast<double>(e.rate);
    row((at + "byte estimate error (%)").c_str(), "no sampling",
        100 * (estimate - truth.bytes) / truth.bytes, near(e.byte_error_pct, 0.05));
  }
}

// §2.2: 247 G records in 31.9 TB compressed, ≈129 B a record. One
// generator day in the lake must be denser.
TEST(Paper, LakeBytesPerRecordBelowPaper) {
  header("§2.2", "storage density of one generator day (2015-05-10)");
  const CivilDate day{2015, 5, 10};
  const auto records = generator().day_records(day);
  const ew::testing::TempDir dir{"ew_paper_lake"};
  ew::storage::DataLake lake{dir.path};
  ASSERT_TRUE(lake.append(day, records));
  const double n = static_cast<double>(records.size());
  const double lake_bpr = static_cast<double>(lake.file_bytes(day)) / n;
  // The naive baseline: every field at fixed width (113 B) plus the
  // server name.
  double raw_bytes = 0;
  for (const auto& r : records) raw_bytes += 113.0 + static_cast<double>(r.server_name.size());
  row("lake bytes per record", "~129", lake_bpr, at_most(129));
  row("TB at the paper's 247 G records", "31.9", 247e9 * lake_bpr / 1e12, at_most(31.9));
  row("raw fixed-width / lake size (x)", "n/a", raw_bytes / n / lake_bpr, at_least(2));
}
