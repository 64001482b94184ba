// Sharded-probe scaling harness (run by scripts/bench.sh). A plain main()
// that measures probe ingest end to end and writes machine-readable
// results to BENCH_pipeline.json:
//
//   - probe ingest: serial Probe vs ShardedProbe at 1/2/4/8 shards over a
//     replayed traffic mix (frames/sec + speedup vs serial);
//   - a determinism check: the merged export stream of every shard count
//     is byte-compared to the serial run. Any MISMATCH makes the binary
//     exit 2 (after writing the JSON), so a smoke run gates the sharded
//     merge's byte identity.
//
// The host (CPUs, model, build type, commit) is recorded next to the
// numbers: speedups flatten at the core count, so a 1-core CI box honestly
// reports ~1.0x.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "probe/probe.hpp"
#include "probe/sharded_probe.hpp"
#include "storage/codec.hpp"
#include "synth/packets.hpp"
#include "host.hpp"

namespace ew = edgewatch;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<ew::net::Frame> make_traffic_mix(int conversations) {
  std::vector<ew::net::Frame> frames;
  for (int i = 0; i < conversations; ++i) {
    ew::synth::ConversationSpec spec;
    spec.client = ew::core::IPv4Address{10, static_cast<std::uint8_t>((i / 250) % 64),
                                        static_cast<std::uint8_t>(i / 250 % 250),
                                        static_cast<std::uint8_t>(i % 250 + 1)};
    spec.client_port = static_cast<std::uint16_t>(40000 + i % 20000);
    spec.start = ew::core::Timestamp::from_seconds(100 + i % 50);
    spec.rtt_us = 3000 + (i % 7) * 2500;
    spec.response_bytes = 8'000 + (i % 11) * 4'000;
    switch (i % 3) {
      case 0:
        spec.server = ew::core::IPv4Address{157, 240, 1, static_cast<std::uint8_t>(i % 200 + 1)};
        spec.web = ew::dpi::WebProtocol::kHttp2;
        spec.server_name = "www.facebook.com";
        spec.alpn = "h2";
        break;
      case 1:
        spec.server = ew::core::IPv4Address{93, 184, 216, static_cast<std::uint8_t>(i % 200 + 1)};
        spec.web = ew::dpi::WebProtocol::kHttp;
        spec.server_name = "www.repubblica.it";
        break;
      default:
        spec.server = ew::core::IPv4Address{173, 194, 4, static_cast<std::uint8_t>(i % 200 + 1)};
        spec.web = ew::dpi::WebProtocol::kQuic;
        break;
    }
    auto conv = ew::synth::render_conversation(spec);
    frames.insert(frames.end(), std::make_move_iterator(conv.begin()),
                  std::make_move_iterator(conv.end()));
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const auto& a, const auto& b) { return a.timestamp < b.timestamp; });
  return frames;
}

std::vector<std::byte> encode_stream(const std::vector<ew::flow::FlowRecord>& records) {
  ew::core::ByteWriter w;
  for (const auto& r : records) ew::storage::encode_record(r, w);
  return {w.view().begin(), w.view().end()};
}

struct Sample {
  std::string name;
  std::size_t threads = 0;
  double seconds = 0;
  double items_per_sec = 0;
  double speedup = 1.0;
  bool deterministic = true;
};

void append_json(std::string& out, const Sample& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"name\": \"%s\", \"threads\": %zu, \"seconds\": %.4f, "
                "\"items_per_sec\": %.0f, \"speedup\": %.2f, \"deterministic\": %s}",
                s.name.c_str(), s.threads, s.seconds, s.items_per_sec, s.speedup,
                s.deterministic ? "true" : "false");
  if (!out.empty()) out += ",\n";
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const int conversations = argc > 1 ? std::atoi(argv[1]) : 600;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const auto out_path = argc > 3 ? std::string(argv[3]) : std::string("BENCH_pipeline.json");
  std::printf("parallel scaling bench: %d conversations, %d repeats, %u CPUs\n", conversations,
              repeats, ew::bench::cpu_count());

  std::string samples;
  bool all_deterministic = true;

  // ---------------------------------------------------------- probe ingest
  const auto frames = make_traffic_mix(conversations);
  std::printf("traffic mix: %zu frames\n", frames.size());

  double serial_probe_s = 0;
  std::vector<std::byte> probe_golden;
  {
    double best = 1e100;
    std::vector<ew::flow::FlowRecord> records;
    for (int r = 0; r < repeats; ++r) {
      records.clear();
      const auto t0 = Clock::now();
      ew::probe::Probe probe{{}, [&records](ew::flow::FlowRecord&& rec) {
                               records.push_back(std::move(rec));
                             }};
      probe.process(std::span<const ew::net::Frame>(frames));
      probe.finish();
      best = std::min(best, seconds_since(t0));
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const auto& a, const auto& b) { return a.ingest_seq < b.ingest_seq; });
    probe_golden = encode_stream(records);
    serial_probe_s = best;
    Sample s{"probe_serial", 1, best, static_cast<double>(frames.size()) / best, 1.0, true};
    append_json(samples, s);
    std::printf("  probe serial:      %8.0f frames/s\n", s.items_per_sec);
  }
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    double best = 1e100;
    std::vector<std::byte> merged_bytes;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = Clock::now();
      ew::probe::ShardedProbeConfig cfg;
      cfg.shards = shards;
      ew::probe::ShardedProbe probe{cfg};
      for (const auto& f : frames) probe.ingest(f);
      const auto merged = probe.finish();
      best = std::min(best, seconds_since(t0));
      merged_bytes = encode_stream(merged);
    }
    Sample s{"probe_sharded", shards, best, static_cast<double>(frames.size()) / best,
             serial_probe_s / best, merged_bytes == probe_golden};
    all_deterministic = all_deterministic && s.deterministic;
    append_json(samples, s);
    std::printf("  probe %zu shard(s):  %8.0f frames/s  speedup %.2fx  %s\n", shards,
                s.items_per_sec, s.speedup, s.deterministic ? "bit-identical" : "MISMATCH");
  }

  // ----------------------------------------------------------------- emit
  std::string json = "{\n";
  json += "  \"bench\": \"parallel_scaling\",\n";
  json += ew::bench::host_json_line();
  json += "  \"conversations\": " + std::to_string(conversations) + ",\n";
  json += "  \"frames\": " + std::to_string(frames.size()) + ",\n";
  json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  json += "  \"samples\": [\n" + samples + "\n  ]\n}\n";
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("could not write %s\n", out_path.c_str());
    return 1;
  }
  if (!all_deterministic) {
    std::printf("determinism check FAILED: a sharded run differs from the serial one\n");
    return 2;
  }
  return 0;
}
