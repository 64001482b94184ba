// Lake write-path harness (run by scripts/bench.sh): ingest→sealed-day-file
// time of the serial writer vs the pipelined encoder (with an encode pool,
// per-block transpose/compress runs across workers while frames commit in
// order), as best-of and median over alternating runs, plus the day file's
// size and one append's per-codec byte tallies.
//
// Hard exit-code gate, kept even as a CI smoke run: the pooled file must be
// byte-identical to the serial one. --min-speedup adds a pooled-vs-serial
// throughput gate for machines with enough cores to express it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "core/time.hpp"
#include "obs/obs.hpp"
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

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<std::byte> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<std::byte> out(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(out.size()));
  return out;
}

struct CodecTotals {
  std::uint64_t in[4] = {0, 0, 0, 0};
  std::uint64_t out[4] = {0, 0, 0, 0};
};

CodecTotals codec_totals() {
  CodecTotals t;
  if constexpr (ew::obs::kEnabled) {
    static const char* kIn[] = {"lake_codec_stored_bytes_in_total", "lake_codec_lz_bytes_in_total",
                                "lake_codec_for_bytes_in_total", "lake_codec_rle_bytes_in_total"};
    static const char* kOut[] = {"lake_codec_stored_bytes_out_total",
                                 "lake_codec_lz_bytes_out_total",
                                 "lake_codec_for_bytes_out_total",
                                 "lake_codec_rle_bytes_out_total"};
    auto& reg = ew::obs::Registry::global();
    for (int k = 0; k < 4; ++k) {
      t.in[k] = reg.counter(kIn[k]).value();
      t.out[k] = reg.counter(kOut[k]).value();
    }
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  int day_count = 6;
  int repeats = 3;
  std::string out_path = "BENCH_write_path.json";
  double min_speedup = -1;  // no throughput gate unless --min-speedup given
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (positional == 0) {
      day_count = std::atoi(arg.c_str());
      ++positional;
    } else if (positional == 1) {
      repeats = std::atoi(arg.c_str());
      ++positional;
    } else {
      out_path = arg;
    }
  }

  // One big multi-block day: several synthetic days' records merged and
  // time-sorted, same workload shape the scan benches use.
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

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::min<std::size_t>(hw, 8);
  const auto dir = fs::temp_directory_path() / "ew_bench_write_path";
  fs::remove_all(dir);

  const std::size_t nblocks =
      (records.size() + ew::storage::DataLake::kBlockRecords - 1) /
      ew::storage::DataLake::kBlockRecords;

  // Full append (ingest -> sealed file), serial vs pooled. Every timed
  // append writes a fresh lake root, removed only after its clock stops:
  // unlinking and recreating a multi-MB day file inside the timer cost
  // more than the append itself on ext4. The two modes alternate, and the
  // first mode flips each round, so drift in the machine's speed lands on
  // both.
  ew::core::ThreadPool pool(workers);
  std::vector<double> serial_runs;
  std::vector<double> pooled_runs;
  std::vector<std::byte> serial_file;
  std::vector<std::byte> parallel_file;
  CodecTotals before;
  CodecTotals after;
  int run = 0;
  const auto timed_append = [&](bool pooled) {
    const auto root = dir / ("run" + std::to_string(run++));
    const bool tally = !pooled && serial_runs.empty();  // one append's codec bytes
    {
      ew::storage::DataLake lake{root};
      lake.set_encode_pool(pooled ? &pool : nullptr);
      if (tally) before = codec_totals();
      const auto t0 = Clock::now();
      if (!lake.append(base, records)) {
        std::fprintf(stderr, "%s append failed\n", pooled ? "pooled" : "serial");
        std::exit(1);
      }
      (pooled ? pooled_runs : serial_runs).push_back(seconds_since(t0));
      if (tally) after = codec_totals();
    }
    auto& kept = pooled ? parallel_file : serial_file;
    if (kept.empty()) kept = file_bytes(root / ew::storage::DataLake::day_filename(base));
    fs::remove_all(root);
  };
  for (int r = 0; r < std::max(1, repeats); ++r) {
    timed_append(/*pooled=*/r % 2 == 1);
    timed_append(/*pooled=*/r % 2 == 0);
  }
  const double serial_s = *std::min_element(serial_runs.begin(), serial_runs.end());
  const double parallel_s = *std::min_element(pooled_runs.begin(), pooled_runs.end());
  const double serial_median_s = median(serial_runs);
  const double parallel_median_s = median(pooled_runs);
  const double median_speedup = parallel_median_s > 0 ? serial_median_s / parallel_median_s : 0;

  const double pipeline_speedup = parallel_s > 0 ? serial_s / parallel_s : 0;
  const double mb = double(serial_file.size()) / 1e6;

  std::printf("write path bench: %zu records, %zu blocks, %zu workers, %d repeats\n",
              records.size(), nblocks, workers, repeats);
  std::printf("  day file:          %8.2f MB\n", mb);
  std::printf("  serial append:     %8.3f s best, %8.3f s median  (best: %.1f MB/s, %.2fM flows/s)\n",
              serial_s, serial_median_s, mb / serial_s, records.size() / serial_s / 1e6);
  std::printf("  pooled append:     %8.3f s best, %8.3f s median  (best: %.1f MB/s, %.2fM flows/s)\n",
              parallel_s, parallel_median_s, mb / parallel_s, records.size() / parallel_s / 1e6);
  std::printf("  pooled vs serial:  %.2fx best-of, %.2fx median\n", pipeline_speedup,
              median_speedup);
  static const char* kScheme[] = {"stored", "lz", "for", "rle"};
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t din = after.in[k] - before.in[k];
    const std::uint64_t dout = after.out[k] - before.out[k];
    if (din == 0) continue;
    std::printf("  codec %-6s %10.1f MB in -> %8.1f MB out  (x%.3f)\n", kScheme[k], din / 1e6,
                dout / 1e6, double(dout) / double(din));
  }

  // Gate 1: the pipeline must be invisible in the bytes.
  if (serial_file.empty() || serial_file != parallel_file) {
    std::fprintf(stderr, "FAIL: pooled append produced different bytes (%zu vs %zu)\n",
                 parallel_file.size(), serial_file.size());
    return 1;
  }
  // Gate 2 (opt-in): pooled vs serial ingest throughput.
  if (min_speedup > 0 && pipeline_speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: pooled append %.2fx vs serial (need >= %.2fx)\n",
                 pipeline_speedup, min_speedup);
    return 1;
  }

  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"write_path\",\n"
                "  \"records\": %zu,\n"
                "  \"blocks\": %zu,\n"
                "  \"workers\": %zu,\n"
                "  \"repeats\": %d,\n"
                "  \"serial_append_s\": %.6f,\n"
                "  \"parallel_append_s\": %.6f,\n"
                "  \"pipeline_speedup\": %.2f,\n"
                "  \"serial_append_median_s\": %.6f,\n"
                "  \"parallel_append_median_s\": %.6f,\n"
                "  \"pipeline_speedup_median\": %.2f,\n"
                "  \"file_mb\": %.2f,\n"
                "  \"parallel_mb_s\": %.2f,\n"
                "  \"parallel_flows_s\": %.0f,\n"
                "  \"codec_bytes_out\": {\"stored\": %llu, \"lz\": %llu, \"for\": %llu, "
                "\"rle\": %llu}\n"
                "}\n",
                records.size(), nblocks, workers, repeats, serial_s, parallel_s,
                pipeline_speedup, serial_median_s, parallel_median_s, median_speedup, mb, mb / parallel_s, records.size() / parallel_s,
                static_cast<unsigned long long>(after.out[0] - before.out[0]),
                static_cast<unsigned long long>(after.out[1] - before.out[1]),
                static_cast<unsigned long long>(after.out[2] - before.out[2]),
                static_cast<unsigned long long>(after.out[3] - before.out[3]));
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
