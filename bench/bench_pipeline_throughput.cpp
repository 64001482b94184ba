// §2.2 — the storage stage: 247 billion records / 31.9 TB compressed over
// five years means the record codec and the day-partitioned store must be
// fast and compact. Measures encode/decode, compression, and full
// lake write+scan round trips; prints the achieved compression ratio.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "analytics/parallel.hpp"
#include "core/thread_pool.hpp"
#include "storage/codec.hpp"
#include "storage/compress.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"

namespace ew = edgewatch;

namespace {

const std::vector<ew::flow::FlowRecord>& sample_records() {
  static const auto records = [] {
    const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(42)};
    return gen.day_records({2016, 5, 10});
  }();
  return records;
}

void BM_EncodeRecords(benchmark::State& state) {
  const auto& records = sample_records();
  for (auto _ : state) {
    ew::core::ByteWriter w{records.size() * 64};
    for (const auto& r : records) ew::storage::encode_record(r, w);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_EncodeRecords);

void BM_DecodeRecords(benchmark::State& state) {
  const auto& records = sample_records();
  ew::core::ByteWriter w{records.size() * 64};
  for (const auto& r : records) ew::storage::encode_record(r, w);
  for (auto _ : state) {
    ew::core::ByteReader reader{w.view()};
    std::size_t n = 0;
    while (auto rec = ew::storage::decode_record(reader)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_DecodeRecords);

void BM_CompressBlock(benchmark::State& state) {
  const auto& records = sample_records();
  ew::core::ByteWriter w;
  for (std::size_t i = 0; i < std::min<std::size_t>(records.size(), 4096); ++i) {
    ew::storage::encode_record(records[i], w);
  }
  const std::vector<std::byte> block{w.view().begin(), w.view().end()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ew::storage::compress_block(block));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_CompressBlock);

void BM_LakeWriteScan(benchmark::State& state) {
  const auto& records = sample_records();
  const auto dir = std::filesystem::temp_directory_path() / "ew_bench_lake";
  std::filesystem::remove_all(dir);
  std::uint64_t run = 0;
  for (auto _ : state) {
    // A fresh root each iteration, removed with the clock paused: unlinking
    // and rewriting one path inside the timer measures the filesystem.
    const auto root = dir / std::to_string(run++);
    {
      ew::storage::DataLake lake{root};
      lake.append({2016, 5, 10}, records);
      std::size_t n = 0;
      lake.scan_day({2016, 5, 10}, [&n](const ew::flow::FlowRecord&) { ++n; });
      benchmark::DoNotOptimize(n);
    }
    state.PauseTiming();
    std::filesystem::remove_all(root);
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_LakeWriteScan);

// The acceptance curve for the columnar scan path: one stored day, scanned
// end to end (read + CRC + decode + deliver) with a byte-summing consumer.
// Arg(0) selects the path: 1 = decoding every field, 2 = projected to the
// stage-one day-aggregate working set (analytics::kDayAggregateScanFields —
// what the pipeline's full-day scan actually runs). Arg 0 was the retired
// row-format baseline; the numbering is kept so BENCH_pipeline.json
// entries stay comparable (bench_scan_selectivity measures the same curves
// machine-readably).
void BM_LakeFullDayScan(benchmark::State& state) {
  const auto& records = sample_records();
  const int mode = static_cast<int>(state.range(0));
  const auto dir = std::filesystem::temp_directory_path() / "ew_bench_lake_scan";
  std::filesystem::remove_all(dir);
  ew::storage::DataLake lake{dir};
  lake.append({2016, 5, 10}, records);
  const ew::storage::ScanPredicate proj =
      ew::storage::ScanPredicate::project(ew::analytics::kDayAggregateScanFields);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    const auto count = [&sum](const ew::flow::FlowRecord& r) {
      sum += r.up.bytes + r.down.bytes;
    };
    const auto res = mode == 2 ? lake.scan_day({2016, 5, 10}, proj, count)
                               : lake.scan_day({2016, 5, 10}, count);
    if (res.records_delivered != records.size()) state.SkipWithError("short scan");
    benchmark::DoNotOptimize(sum);
  }
  std::filesystem::remove_all(dir);
  state.SetLabel(mode == 1 ? "v3-all-fields" : "v3-projected");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_LakeFullDayScan)->Arg(1)->Arg(2);

// Stage-one aggregation of one stored day with the blocks fanned out over
// a pool of Arg(0) threads (1 = the serial path). Deterministic: every
// thread count produces the identical DayAggregate (tests/test_parallel).
void BM_ParallelDayAggregate(benchmark::State& state) {
  const auto& records = sample_records();
  const auto dir = std::filesystem::temp_directory_path() / "ew_bench_lake_par";
  std::filesystem::remove_all(dir);
  ew::storage::DataLake lake{dir};
  lake.append({2016, 5, 10}, records);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    if (threads == 1) {
      benchmark::DoNotOptimize(ew::analytics::aggregate_day(lake, {2016, 5, 10}));
    } else {
      ew::core::ThreadPool pool{threads};
      benchmark::DoNotOptimize(
          ew::analytics::aggregate_day_parallel(lake, {2016, 5, 10}, pool));
    }
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ParallelDayAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void print_compression_report() {
  const auto& records = sample_records();
  ew::core::ByteWriter w;
  for (const auto& r : records) ew::storage::encode_record(r, w);
  const std::vector<std::byte> raw{w.view().begin(), w.view().end()};
  const auto compressed = ew::storage::compress_block(raw);
  std::printf("\n================================================================\n");
  std::printf("§2.2 storage pipeline (one synthetic day: %zu records)\n", records.size());
  std::printf("================================================================\n");
  std::printf("  in-memory struct size:   %zu B/record\n", sizeof(ew::flow::FlowRecord));
  std::printf("  varint-encoded:          %.1f B/record\n",
              static_cast<double>(raw.size()) / static_cast<double>(records.size()));
  std::printf("  after block compression: %.1f B/record (ratio %.2fx)\n",
              static_cast<double>(compressed.size()) / static_cast<double>(records.size()),
              static_cast<double>(raw.size()) / static_cast<double>(compressed.size()));
  std::printf("  paper scale check: 247e9 records at this density = %.1f TB compressed\n",
              247e9 * static_cast<double>(compressed.size()) /
                  static_cast<double>(records.size()) / 1e12);
  std::printf("  (paper reports 31.9 TB for its richer Tstat records)\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_compression_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
