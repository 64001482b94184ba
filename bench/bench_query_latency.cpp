// Query-latency harness (run by scripts/bench.sh): the tentpole claim of
// the rollup store is that paper-figure queries over a multi-year range
// answer from per-day sketch rollups without touching raw flow logs. This
// bench materializes a multi-year lake, builds the rollup store once, then
// times three representative queries both ways:
//
//   - raw_full_scan      decode + aggregate every day's flow log (the cost
//                        any figure pays without rollups)
//   - bytes_by_service   total bytes per service over the whole range
//   - volume_trend       Fig. 3's monthly per-subscriber averages
//   - protocol_shares    Fig. 8's monthly web-protocol mix
//
// Each rollup query reports its speedup over the raw scan; the acceptance
// target is >= 10x for the multi-year range. Results land in a JSON
// fragment that scripts/bench.sh merges into BENCH_pipeline.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "analytics/figures.hpp"
#include "analytics/parallel.hpp"
#include "core/thread_pool.hpp"
#include "core/time.hpp"
#include "query/engine.hpp"
#include "query/figures.hpp"
#include "query/store.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Sample {
  std::string name;
  double seconds = 0;
  double speedup = 0;  ///< vs raw_full_scan; 0 = not a query
};

void append_json(std::string& out, const Sample& s) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "    {\"name\": \"%s\", \"seconds\": %.6f, \"speedup_vs_scan\": %.1f}",
                s.name.c_str(), s.seconds, s.speedup);
  if (!out.empty()) out += ",\n";
  out += buf;
}

/// Best-of-N wall time of `fn`.
template <typename Fn>
double best_of(int repeats, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int months = argc > 1 ? std::atoi(argv[1]) : 25;  // Jun 2014 .. Jun 2016
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const auto out_path = argc > 3 ? std::string(argv[3]) : std::string("BENCH_query_latency.json");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // Two sample days per month keeps the lake multi-year in *span* (what the
  // query planner sees) while the build stays CI-sized.
  const auto scenario = ew::synth::build_paper_scenario(/*seed=*/42, /*scale=*/0.05);
  const ew::synth::WorkloadGenerator gen{scenario};
  const auto dir = fs::temp_directory_path() / "ew_bench_query_latency";
  fs::remove_all(dir);
  ew::storage::DataLake lake{dir / "lake"};

  std::vector<ew::core::CivilDate> days;
  ew::core::MonthIndex month{2014, 6};
  for (int m = 0; m < months; ++m, month = month + 1) {
    for (const int d : {10, 20}) {
      const ew::core::CivilDate day{month.year(), static_cast<std::uint8_t>(month.month()),
                                    static_cast<std::uint8_t>(d)};
      days.push_back(day);
      if (!lake.append(day, gen.day_records(day))) {
        std::fprintf(stderr, "lake append failed for %s\n", day.to_string().c_str());
        return 1;
      }
    }
  }
  std::printf("query latency bench: %zu days spanning %s..%s, %d repeats, %u hw threads\n",
              days.size(), days.front().to_string().c_str(), days.back().to_string().c_str(),
              repeats, hw);

  std::string samples;

  // Raw path: what every figure costs without rollups — decode and
  // aggregate each day's flow log, then derive the figures.
  std::vector<ew::analytics::DayAggregate> aggregates;
  const double raw_s = best_of(repeats, [&] {
    aggregates.clear();
    for (const auto day : days) {
      aggregates.push_back(ew::analytics::aggregate_day(lake, day).aggregate);
    }
    (void)ew::analytics::volume_trend(aggregates);
    (void)ew::analytics::protocol_shares(aggregates);
  });
  append_json(samples, {"raw_full_scan", raw_s, 0});
  std::printf("  raw full scan:       %8.3f s\n", raw_s);

  // One-time rollup build (all days, all dimensions) — the amortized cost.
  ew::core::ThreadPool pool{hw};
  ew::query::RollupStore store{dir / "rollups", lake, ew::services::ServiceCatalog::standard(),
                               scenario.rib.get()};
  const auto t0 = Clock::now();
  const auto report = store.build(pool);
  const double build_s = seconds_since(t0);
  if (!report.ok()) {
    std::fprintf(stderr, "rollup build failed (%zu failures)\n", report.failed);
    return 1;
  }
  append_json(samples, {"rollup_build_once", build_s, 0});
  std::printf("  rollup build (once): %8.3f s  (%zu rollups)\n", build_s, report.built);

  const auto time_query = [&](const char* name, auto&& fn) {
    const double s = best_of(repeats, fn);
    const double speedup = s > 0 ? raw_s / s : 0;
    append_json(samples, {name, s, speedup});
    std::printf("  %-20s %8.4f s  %7.0fx vs scan\n", name, s, speedup);
    return speedup;
  };

  double min_speedup = 1e100;
  min_speedup = std::min(min_speedup, time_query("bytes_by_service", [&] {
                           ew::query::QuerySpec spec;
                           spec.metric = ew::query::Metric::kBytes;
                           spec.dimension = ew::query::Dimension::kService;
                           spec.from = days.front();
                           spec.to = days.back();
                           (void)ew::query::run_query(store, spec, &pool);
                         }));
  min_speedup = std::min(min_speedup, time_query("volume_trend", [&] {
                           (void)ew::query::volume_trend(store, days.front(), days.back(), &pool);
                         }));
  min_speedup = std::min(min_speedup, time_query("protocol_shares", [&] {
                           (void)ew::query::protocol_shares(store, days.front(), days.back(),
                                                            &pool);
                         }));
  std::printf("  slowest rollup query: %.0fx vs raw scan (target >= 10x)\n", min_speedup);

  std::string json = "{\n";
  json += "  \"bench\": \"query_latency\",\n";
  json += "  \"hardware_concurrency\": " + std::to_string(hw) + ",\n";
  json += "  \"days\": " + std::to_string(days.size()) + ",\n";
  json += "  \"months\": " + std::to_string(months) + ",\n";
  json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  json += "  \"min_query_speedup\": " + std::to_string(min_speedup) + ",\n";
  json += "  \"samples\": [\n" + samples + "\n  ]\n}\n";
  bool wrote = false;
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    wrote = true;
    std::printf("wrote %s\n", out_path.c_str());
  }
  fs::remove_all(dir);
  return wrote ? 0 : 1;
}
