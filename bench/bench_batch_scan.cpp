// Batch execution core harness (run by scripts/bench.sh): the tentpole
// claim of the exec::RecordBatch refactor is that the pipeline's hottest
// scan — the full-day stage-one aggregation over a columnar lake —
// runs >= 1.5x faster when the aggregator consumes SoA batches
// (DayAggregator::add_batch, dict-code pass-through, one classification
// per dictionary entry) than when the same blocks are emitted through the
// row-callback shim one FlowRecord at a time.
//
// Both paths read the *same* day file with the same day-aggregate
// projection; the only variable is the consumption shape. The identity
// gate is unconditional and field-exact — subscribers, per-service
// counters, fp time bins, RTT sample order, domain tallies — because a
// faster scan that aggregates differently is a bug, not a win. The
// speedup gate is armed by --min-speedup (bench.sh passes 1.5 on
// multi-core hosts; the CI smoke run passes a looser floor on shared
// runners).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "analytics/parallel.hpp"
#include "core/time.hpp"
#include "exec/record_batch.hpp"
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

/// Field-exact aggregate identity (fp bins and RTT order included). On the
/// first mismatch, names the field and returns false.
bool aggregates_identical(const ew::analytics::DayAggregate& a,
                          const ew::analytics::DayAggregate& b) {
  const auto fail = [](const char* what) {
    std::fprintf(stderr, "FAIL: batch aggregate differs from row aggregate: %s\n", what);
    return false;
  };
  if (a.web_bytes != b.web_bytes) return fail("web_bytes");
  if (a.downlink_bins != b.downlink_bins) return fail("downlink_bins");
  for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
    if (a.rtt_min_ms[s] != b.rtt_min_ms[s]) return fail("rtt_min_ms");
    if (a.health[s].packets != b.health[s].packets ||
        a.health[s].retransmits != b.health[s].retransmits ||
        a.health[s].out_of_order != b.health[s].out_of_order) {
      return fail("health");
    }
  }
  if (a.subscribers.size() != b.subscribers.size()) return fail("subscriber count");
  for (const auto& [ip, sub] : a.subscribers) {
    const auto it = b.subscribers.find(ip);
    if (it == b.subscribers.end()) return fail("subscriber set");
    if (sub.access != it->second.access || sub.flows != it->second.flows ||
        sub.bytes_up != it->second.bytes_up || sub.bytes_down != it->second.bytes_down) {
      return fail("subscriber counters");
    }
    for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
      if (sub.per_service[s].flows != it->second.per_service[s].flows ||
          sub.per_service[s].bytes_up != it->second.per_service[s].bytes_up ||
          sub.per_service[s].bytes_down != it->second.per_service[s].bytes_down) {
        return fail("per-service counters");
      }
    }
  }
  if (a.server_ips.size() != b.server_ips.size()) return fail("server_ip count");
  for (const auto& [ip, stats] : a.server_ips) {
    const auto it = b.server_ips.find(ip);
    if (it == b.server_ips.end() || stats.service_mask != it->second.service_mask ||
        stats.bytes != it->second.bytes) {
      return fail("server_ip stats");
    }
  }
  if (a.domain_bytes != b.domain_bytes) return fail("domain_bytes");
  if (a.unclassified_domain_bytes != b.unclassified_domain_bytes) {
    return fail("unclassified_domain_bytes");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const int day_count = argc > 1 ? std::atoi(argv[1]) : 8;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const auto out_path = argc > 3 ? std::string(argv[3]) : std::string("BENCH_batch_scan.json");
  double min_speedup = 0;  // 0 = report-only (identity gate always armed)
  for (int i = 4; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0) min_speedup = std::atof(argv[i + 1]);
  }

  // One big multi-block "day": several synthetic days merged and
  // time-sorted — the same full-day working set the stage-one pipeline
  // re-scans five years of.
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

  const auto dir = fs::temp_directory_path() / "ew_bench_batch_scan";
  fs::remove_all(dir);
  ew::storage::DataLake lake{dir};
  if (!lake.append(base, records)) {
    std::fprintf(stderr, "lake append failed\n");
    return 1;
  }
  const std::size_t blocks = lake.load_day_blocks(base).blocks().size();
  std::printf("batch scan bench: %zu records, %zu blocks, %d repeats\n", records.size(),
              blocks, repeats);

  const ew::storage::ScanPredicate proj =
      ew::storage::ScanPredicate::project(ew::analytics::kDayAggregateScanFields);

  // Row baseline: the pre-batch consumption shape — every record
  // materialized through the batch->row shim, classified, then aggregated.
  ew::analytics::DayAggregate row_agg;
  std::uint64_t row_records = 0;
  const double row_s = best_of(repeats, [&] {
    ew::analytics::DayAggregator agg(base);
    const auto scan = lake.scan_day(base, proj,
                                    [&](const ew::flow::FlowRecord& r) { agg.add(r); });
    row_records = scan.records_delivered;
    row_agg = std::move(agg).take();
  });

  // Batch path: same lake, same projection, SoA consumption with dict-code
  // pass-through (no FlowRecord, no string, one classification per distinct
  // hostname per block).
  ew::analytics::DayAggregate batch_agg;
  std::uint64_t batch_records = 0, batches = 0;
  const double batch_s = best_of(repeats, [&] {
    ew::analytics::DayAggregator agg(base);
    batches = 0;
    const auto scan = lake.scan_day_batches(base, proj, [&](const ew::exec::RecordBatch& b) {
      ++batches;
      agg.add_batch(b);
    });
    batch_records = scan.records_delivered;
    batch_agg = std::move(agg).take();
  });

  const double speedup = batch_s > 0 ? row_s / batch_s : 0;
  const double rows_per_batch = batches > 0 ? double(batch_records) / double(batches) : 0;
  std::printf("  row-emit aggregate:  %8.3f s  (%.2fM rec/s)\n", row_s,
              row_records / row_s / 1e6);
  std::printf("  batch aggregate:     %8.3f s  (%.2fM rec/s, %.2fx vs row, %llu batches, "
              "%.0f rows/batch)\n",
              batch_s, batch_records / batch_s / 1e6, speedup,
              static_cast<unsigned long long>(batches), rows_per_batch);

  // Identity gates, unconditional: same delivery count, same aggregate down
  // to fp bin contents and RTT sample order.
  if (row_records == 0 || row_records != batch_records) {
    std::fprintf(stderr, "FAIL: delivered-record mismatch (row %llu, batch %llu)\n",
                 static_cast<unsigned long long>(row_records),
                 static_cast<unsigned long long>(batch_records));
    return 1;
  }
  if (!aggregates_identical(row_agg, batch_agg)) return 1;
  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: batch path %.2fx vs row (need >= %.2fx)\n", speedup,
                 min_speedup);
    return 1;
  }

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"batch_scan\",\n"
                "  \"records\": %zu,\n"
                "  \"blocks\": %zu,\n"
                "  \"repeats\": %d,\n"
                "  \"row_aggregate_s\": %.6f,\n"
                "  \"batch_aggregate_s\": %.6f,\n"
                "  \"batch_speedup_vs_row\": %.2f,\n"
                "  \"batches\": %llu,\n"
                "  \"rows_per_batch\": %.1f,\n"
                "  \"min_speedup_gate\": %.2f\n"
                "}\n",
                records.size(), blocks, repeats, row_s, batch_s, speedup,
                static_cast<unsigned long long>(batches), rows_per_batch, min_speedup);
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
