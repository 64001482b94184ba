// Query explorer: the interactive-analysis loop the rollup store exists
// for. Builds a small synthetic lake, rolls it up once, then answers the
// paper's figure questions from the per-day sketch rollups — no raw flow
// log is re-read after the build. Each answer prints the documented error
// bound next to the estimate; counters are exact.
//
//   ./build/examples/query_explorer [--stats[=path]]
//
// --stats dumps the final obs:: snapshot as JSON on exit (stdout, or a file with
// --stats=path): query latency histograms, rollup build counters, and the
// lake's scan/prune statistics from the build pass.
#include <cstdio>
#include <string>
#include <string_view>

#include "core/thread_pool.hpp"
#include "obs/obs.hpp"
#include "query/engine.hpp"
#include "query/figures.hpp"
#include "query/store.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;

int main(int argc, char** argv) {
  fs::path stats_path;
  bool want_stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--stats" || arg.rfind("--stats=", 0) == 0) {
      want_stats = true;
      if (arg.size() > 8) stats_path = fs::path(std::string(arg.substr(8)));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: query_explorer [--stats[=path]]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 1;
    }
  }

  std::printf("edgewatch query explorer — sketch rollups over the data lake\n\n");

  // Two observed days per month across one quarter: small enough to build
  // in seconds, wide enough to exercise week and month bucketing.
  const auto scenario = ew::synth::build_paper_scenario(/*seed=*/7, /*scale=*/0.1);
  const ew::synth::WorkloadGenerator gen{scenario};
  const auto dir = fs::temp_directory_path() / "ew_query_explorer";
  fs::remove_all(dir);
  ew::storage::DataLake lake{dir / "lake"};
  std::vector<ew::core::CivilDate> days;
  for (std::uint8_t month : {std::uint8_t{4}, std::uint8_t{5}, std::uint8_t{6}}) {
    for (std::uint8_t d : {std::uint8_t{10}, std::uint8_t{20}}) {
      days.push_back({2015, month, d});
      if (!lake.append(days.back(), gen.day_records(days.back()))) {
        std::fprintf(stderr, "lake append failed\n");
        return 1;
      }
    }
  }

  ew::core::ThreadPool pool{4};
  ew::query::RollupStore store{dir / "rollups", lake, ew::services::ServiceCatalog::standard(),
                               scenario.rib.get()};
  auto report = store.build(pool);
  std::printf("rollup build: %zu rollups built, %zu reused\n", report.built, report.reused);
  report = store.build(pool);  // staleness check: nothing changed, nothing rebuilt
  std::printf("rebuild:      %zu rollups built, %zu reused (lake unchanged)\n\n", report.built,
              report.reused);

  // ---- who are the biggest services, by people rather than bytes? (Fig. 5)
  std::printf("top services by distinct subscribers, 2015-04 (HyperLogLog):\n");
  for (const auto& row : ew::query::top_services_by_subscribers(
           store, ew::core::MonthIndex{2015, 4}, 5, &pool)) {
    std::printf("  %-12s %8.0f subscribers  (+/- %.0f%%)\n",
                std::string(ew::services::to_string(
                                static_cast<ew::services::ServiceId>(row.key)))
                    .c_str(),
                row.value, row.error_bound * 100);
  }

  // ---- exact byte totals need no sketch: counters are plain u64 sums.
  std::printf("\ntotal bytes by service, full range (exact):\n");
  ew::query::QuerySpec spec;
  spec.metric = ew::query::Metric::kBytes;
  spec.dimension = ew::query::Dimension::kService;
  spec.from = days.front();
  spec.to = days.back();
  spec.top_k = 5;
  for (const auto& row : ew::query::run_query(store, spec, &pool).rows) {
    std::printf("  %-12s %10.1f MB\n",
                std::string(ew::services::to_string(
                                static_cast<ew::services::ServiceId>(row.key)))
                    .c_str(),
                row.value / 1e6);
  }

  // ---- Fig. 10's substrate: weekly RTT medians from merged DDSketches.
  std::printf("\nweekly median RTT to YouTube servers (DDSketch, +/- %.0f%% relative):\n",
              ew::core::QuantileSketch::kDefaultAccuracy * 100);
  for (const auto& row : ew::query::weekly_rtt_quantile(
           store, ew::services::ServiceId::kYouTube, days.front(), days.back(), 0.5, &pool)) {
    std::printf("  week of %s  %6.2f ms\n", row.bucket.to_string().c_str(), row.value);
  }

  // ---- Fig. 8 from the protocol dimension, months merged on the fly.
  std::printf("\nweb protocol byte shares per month (exact):\n");
  for (const auto& row : ew::query::protocol_shares(store, days.front(), days.back(), &pool)) {
    std::printf("  %s  HTTP %4.1f%%  TLS %4.1f%%  HTTP/2 %4.1f%%  QUIC %4.1f%%\n",
                row.month.to_string().c_str(),
                row.share_pct[static_cast<std::size_t>(ew::dpi::WebProtocol::kHttp)],
                row.share_pct[static_cast<std::size_t>(ew::dpi::WebProtocol::kTls)],
                row.share_pct[static_cast<std::size_t>(ew::dpi::WebProtocol::kHttp2)],
                row.share_pct[static_cast<std::size_t>(ew::dpi::WebProtocol::kQuic)]);
  }

  if (want_stats) {
    const ew::obs::Snapshot snap = ew::obs::Registry::global().scrape();
    if (stats_path.empty()) {
      const std::string json = ew::obs::to_json(snap, /*include_spans=*/true);
      std::printf("\n");
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else if (!ew::obs::write_snapshot(snap, stats_path, ew::obs::ExportFormat::kJson,
                                        /*include_spans=*/true)) {
      std::fprintf(stderr, "cannot write stats to %s\n", stats_path.c_str());
      return 1;
    } else {
      std::printf("\nobs snapshot written to %s\n", stats_path.c_str());
    }
  }

  fs::remove_all(dir);
  return 0;
}
