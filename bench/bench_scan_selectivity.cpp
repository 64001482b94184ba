// Columnar scan-path harness (run by scripts/bench.sh): the claims of the
// columnar block layout are (a) the pipeline's full-day scan, projected to
// the stage-one aggregation working set, beats a full every-field decode
// (segments backing no requested field are never decompressed), and (b) a
// selective scan — one service, a one-hour window — skips >= 90% of the
// blocks on zone maps alone, without decompressing a single pruned segment.
//
// The time-sorted record stream is written once; the baseline is the full
// decode (every field, every block) with the predicate applied afterwards —
// exactly what pushdown must beat. Every answer is checked against the
// in-memory records (delivered counts, a byte checksum over projected
// counters, ScanPredicate::matches for the selective scan): a fast scan
// that returns a different answer is a bug, not a win. The skip-ratio gate
// is a hard exit-code assertion so even the CI smoke run keeps it honest.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analytics/parallel.hpp"
#include "core/time.hpp"
#include "storage/columnar.hpp"
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
  const int day_count = argc > 1 ? std::atoi(argv[1]) : 8;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const auto out_path =
      argc > 3 ? std::string(argv[3]) : std::string("BENCH_scan_selectivity.json");

  // One big multi-block "day" file: several synthetic days' records merged
  // and time-sorted, so blocks are time-clustered and zone maps can prune.
  const auto scenario = ew::synth::build_paper_scenario(/*seed=*/7, /*scale=*/0.2);
  const ew::synth::WorkloadGenerator gen{scenario};
  const ew::core::CivilDate base{2015, 6, 1};
  std::vector<ew::flow::FlowRecord> records;
  for (int d = 0; d < day_count; ++d) {
    const auto z = ew::core::days_from_civil(base) + d;
    auto day_recs = gen.day_records(ew::core::civil_from_days(z));
    records.insert(records.end(), std::make_move_iterator(day_recs.begin()),
                   std::make_move_iterator(day_recs.end()));
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const ew::flow::FlowRecord& a, const ew::flow::FlowRecord& b) {
                     return a.first_packet < b.first_packet;
                   });

  const auto dir = fs::temp_directory_path() / "ew_bench_scan_selectivity";
  fs::remove_all(dir);
  ew::storage::DataLake lake{dir};
  if (!lake.append(base, records)) {
    std::fprintf(stderr, "lake append failed\n");
    return 1;
  }
  const std::size_t blocks = lake.load_day_blocks(base).blocks().size();
  std::printf("scan selectivity bench: %zu records, %zu blocks, %d repeats\n", records.size(),
              blocks, repeats);

  // The selective question: one service's traffic in one hour of one day.
  // (YouTube is present across the whole paper-scenario service evolution.)
  ew::storage::ScanPredicate pred =
      ew::storage::ScanPredicate::for_service(ew::services::ServiceId::kYouTube);
  const auto mid = ew::core::civil_from_days(ew::core::days_from_civil(base) + day_count / 2);
  pred.time_min_us = ew::core::Timestamp::from_date_time(mid, 21).micros();
  pred.time_max_us = ew::core::Timestamp::from_date_time(mid, 22).micros() - 1;
  // The pipeline's full-day scan: unrestricted rows, stage-one columns only.
  const ew::storage::ScanPredicate proj =
      ew::storage::ScanPredicate::project(ew::analytics::kDayAggregateScanFields);

  // The reference answers, straight from the in-memory records.
  std::uint64_t want_sum = 0, want_sel = 0;
  for (const auto& r : records) {
    want_sum += r.up.bytes + r.down.bytes;
    want_sel += pred.matches(r) ? 1 : 0;
  }

  std::uint64_t full = 0, full_p = 0, sel_post = 0, sel = 0;
  std::uint64_t chk = 0, chk_p = 0;
  ew::storage::ScanResult sel_scan;
  std::uint64_t sum = 0;
  const auto count = [&](const ew::flow::FlowRecord& r) {
    sum += r.up.bytes + r.down.bytes;
  };

  const double full_s = best_of(repeats, [&] {
    sum = 0;
    full = lake.scan_day(base, count).records_delivered;
    chk = sum;
  });
  const double proj_s = best_of(repeats, [&] {
    sum = 0;
    full_p = lake.scan_day(base, proj, count).records_delivered;
    chk_p = sum;
  });
  // Baseline for the selective question: full decode, filter afterwards.
  const double post_sel_s = best_of(repeats, [&] {
    sel_post = 0;
    (void)lake.scan_day(base, [&](const ew::flow::FlowRecord& r) {
      sel_post += pred.matches(r) ? 1 : 0;
    });
  });
  const double sel_s = best_of(repeats, [&] {
    sel_scan = lake.scan_day(base, pred, count);
    sel = sel_scan.records_delivered;
  });

  const double proj_speedup = proj_s > 0 ? full_s / proj_s : 0;
  const double sel_speedup = sel_s > 0 ? post_sel_s / sel_s : 0;
  const double skip_ratio = blocks > 0 ? double(sel_scan.blocks_pruned) / double(blocks) : 0;
  std::printf("  full scan:         %8.3f s  (%.2fM rec/s, every field)\n", full_s,
              full / full_s / 1e6);
  std::printf("  projected scan:    %8.3f s  (%.2fM rec/s, %.2fx vs full decode, day-aggregate "
              "columns)\n",
              proj_s, full_p / proj_s / 1e6, proj_speedup);
  std::printf("  post-filter:       %8.3f s  (full decode + ScanPredicate::matches, %llu rows)\n",
              post_sel_s, static_cast<unsigned long long>(sel_post));
  std::printf("  selective:         %8.3f s  (pushdown, %.2fx vs full decode, %u/%zu blocks "
              "pruned = %.1f%% skipped)\n",
              sel_s, sel_speedup, sel_scan.blocks_pruned, blocks, 100 * skip_ratio);

  // Correctness gates — a fast scan with a different answer is a bug. The
  // projected scan must deliver every record with the same byte counters
  // (its mask covers the checksum's fields), not merely the same count.
  if (full != records.size() || full_p != records.size() || chk != want_sum ||
      chk_p != want_sum || sel != want_sel || sel_post != want_sel || want_sel == 0) {
    std::fprintf(stderr, "FAIL: answer differs from the in-memory records (full %llu/%llu of "
                 "%zu, checksums %llu/%llu of %llu, selective %llu/%llu of %llu)\n",
                 static_cast<unsigned long long>(full),
                 static_cast<unsigned long long>(full_p), records.size(),
                 static_cast<unsigned long long>(chk),
                 static_cast<unsigned long long>(chk_p),
                 static_cast<unsigned long long>(want_sum),
                 static_cast<unsigned long long>(sel),
                 static_cast<unsigned long long>(sel_post),
                 static_cast<unsigned long long>(want_sel));
    return 1;
  }
  // The zone-map gate: the one-hour predicate must prune >= 90% of blocks.
  if (skip_ratio < 0.9) {
    std::fprintf(stderr, "FAIL: selective scan skipped only %.1f%% of blocks (need >= 90%%)\n",
                 100 * skip_ratio);
    return 1;
  }

  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"scan_selectivity\",\n"
                "  \"records\": %zu,\n"
                "  \"blocks\": %zu,\n"
                "  \"repeats\": %d,\n"
                "  \"full_scan_s\": %.6f,\n"
                "  \"projected_scan_s\": %.6f,\n"
                "  \"projected_speedup_vs_full\": %.2f,\n"
                "  \"postfilter_selective_s\": %.6f,\n"
                "  \"selective_s\": %.6f,\n"
                "  \"selective_speedup_vs_full\": %.2f,\n"
                "  \"selective_rows\": %llu,\n"
                "  \"blocks_pruned\": %u,\n"
                "  \"skip_ratio\": %.4f\n"
                "}\n",
                records.size(), blocks, repeats, full_s, proj_s, proj_speedup, post_sel_s,
                sel_s, sel_speedup, static_cast<unsigned long long>(sel),
                sel_scan.blocks_pruned, skip_ratio);
  bool wrote = false;
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(buf, f);
    std::fclose(f);
    wrote = true;
    std::printf("wrote %s\n", out_path.c_str());
  }
  fs::remove_all(dir);
  return wrote ? 0 : 1;
}
