// Overload-degradation harness (run by scripts/bench.sh). Measures the
// resilient runtime's shed behavior as offered load climbs past what the
// shard workers can drain. The load axis is the ring capacity: the same
// traffic mix is offered against progressively smaller rings, so each step
// raises offered load *relative to drain headroom* — the quantity the
// watermark state machine actually reacts to (burst-rate knobs like worker
// slowdown are meaningless on a single-core runner where the feeder
// outruns the workers regardless). Per level the bench records
//
//   - shed_rate        (shed frames / offered frames), split into frames
//                      the watermark sampler dropped and frames a full
//                      shard refused (backpressure)
//   - ingest_rate      (frames ingested per second of the run, finish
//                      included): shedding is only overload when the
//                      workers are kept busy, so a higher shed rate must
//                      not come with a lower intake
//   - terminal state   (Healthy / Degraded / Shedding) and sample shift
//   - the reconciliation check offered == ingested + shed + quarantined,
//     which must hold EXACTLY at every load level — degradation must never
//     lose count of a frame (exit code 2 if any level fails it).
//
// Results merge into BENCH_pipeline.json via scripts/bench.sh. This bench
// asserts accounting, not throughput: the numbers of interest are ratios,
// so a noisy CI box still produces a meaningful curve.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "runtime/health.hpp"
#include "runtime/supervisor.hpp"
#include "storage/datalake.hpp"
#include "synth/packets.hpp"
#include "host.hpp"

namespace ew = edgewatch;

namespace {

using Clock = std::chrono::steady_clock;

std::vector<ew::net::Frame> make_traffic_mix(int conversations) {
  std::vector<ew::net::Frame> frames;
  for (int i = 0; i < conversations; ++i) {
    ew::synth::ConversationSpec spec;
    spec.client = ew::core::IPv4Address{10, static_cast<std::uint8_t>((i / 250) % 64),
                                        static_cast<std::uint8_t>(i / 250 % 250),
                                        static_cast<std::uint8_t>(i % 250 + 1)};
    spec.server = ew::core::IPv4Address{93, 184, static_cast<std::uint8_t>(i % 200 + 1),
                                        static_cast<std::uint8_t>(i % 250 + 1)};
    spec.client_port = static_cast<std::uint16_t>(40000 + i % 20000);
    spec.web = i % 2 == 0 ? ew::dpi::WebProtocol::kTls : ew::dpi::WebProtocol::kHttp;
    spec.server_name = "bench.example.com";
    spec.start = ew::core::Timestamp{(100 + i % 50) * 1'000'000LL + i * 1'700LL};
    spec.rtt_us = 3000 + (i % 7) * 2500;
    spec.response_bytes = 6'000 + (i % 11) * 2'000;
    for (auto& f : ew::synth::render_conversation(spec)) frames.push_back(std::move(f));
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const ew::net::Frame& a, const ew::net::Frame& b) {
                     return a.timestamp < b.timestamp;
                   });
  return frames;
}

struct Sample {
  std::size_t queue_capacity = 0;  ///< Ring size — the inverse offered-load proxy.
  std::uint64_t offered = 0;
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_backpressure = 0;
  std::uint64_t quarantined = 0;
  double shed_rate = 0;
  double ingest_rate = 0;
  double seconds = 0;
  std::string state;
  std::uint32_t sample_shift = 0;
  bool reconciled = false;
};

void append_json(std::string& out, const Sample& s) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {\"name\": \"overload_cap_%llu\", \"queue_capacity\": %llu, "
                "\"offered\": %llu, \"ingested\": %llu, \"shed\": %llu, "
                "\"shed_backpressure\": %llu, \"quarantined\": %llu, \"shed_rate\": %.4f, "
                "\"seconds\": %.4f, \"ingest_rate\": %.0f, "
                "\"state\": \"%s\", \"sample_shift\": %u, \"reconciled\": %s}",
                static_cast<unsigned long long>(s.queue_capacity),
                static_cast<unsigned long long>(s.queue_capacity),
                static_cast<unsigned long long>(s.offered),
                static_cast<unsigned long long>(s.ingested),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.shed_backpressure),
                static_cast<unsigned long long>(s.quarantined), s.shed_rate, s.seconds,
                s.ingest_rate,
                s.state.c_str(), s.sample_shift, s.reconciled ? "true" : "false");
  if (!out.empty()) out += ",\n";
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const int conversations = argc > 1 ? std::atoi(argv[1]) : 400;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const auto out_path = argc > 3 ? std::string(argv[3]) : std::string("BENCH_pipeline.json");

  const auto frames = make_traffic_mix(conversations);
  const auto dir = std::filesystem::temp_directory_path() / "ew_bench_overload";
  std::printf("bench_overload: %zu frames, %d repeats\n", frames.size(), repeats);

  // Offered load rises as the ring shrinks: the widest ring is the calm
  // baseline; each halving-of-halvings step doubles-and-more the effective
  // pressure on the watermark machine.
  const std::size_t capacities[] = {16'384, 4'096, 1'024, 256, 64};
  std::string samples;
  bool all_reconciled = true;

  for (const std::size_t capacity : capacities) {
    Sample best;
    for (int rep = 0; rep < repeats; ++rep) {
      std::filesystem::remove_all(dir);
      ew::storage::DataLake lake{dir / "lake"};

      ew::runtime::SupervisorConfig cfg;
      cfg.probe.shards = 2;
      cfg.probe.queue_capacity = capacity;
      cfg.overload.observe_every = 8;
      cfg.overload.escalate_after = 4;
      cfg.overload.recover_after = 16;
      cfg.overload.ingest_retries = 16;

      ew::runtime::Supervisor sup{lake, cfg};
      if (!sup.start()) {
        std::printf("supervisor start failed\n");
        return 1;
      }
      const auto t0 = Clock::now();
      for (const auto& f : frames) sup.offer(f);
      if (!sup.finish()) {
        std::printf("supervisor finish failed\n");
        return 1;
      }
      const double secs = std::chrono::duration<double>(Clock::now() - t0).count();

      const auto h = sup.health();
      Sample s;
      s.queue_capacity = capacity;
      s.offered = h.frames_offered;
      s.ingested = h.frames_ingested;
      s.shed = h.shed_total();
      s.shed_backpressure = h.shed_backpressure;
      s.quarantined = h.frames_quarantined;
      s.shed_rate = h.frames_offered == 0
                        ? 0.0
                        : static_cast<double>(s.shed) / static_cast<double>(h.frames_offered);
      s.seconds = secs;
      s.ingest_rate = static_cast<double>(h.frames_ingested) / secs;
      s.state = ew::runtime::to_string(h.state);
      s.sample_shift = h.sample_shift;
      s.reconciled = h.reconciles();
      if (rep == 0 || s.seconds < best.seconds) best = s;
      if (!s.reconciled) all_reconciled = false;
    }
    append_json(samples, best);
    std::printf("  ring %6llu: offered=%llu shed=%llu (%.1f%%, backpressure %llu) "
                "ingest=%.2fM/s state=%s shift=%u %s\n",
                static_cast<unsigned long long>(best.queue_capacity),
                static_cast<unsigned long long>(best.offered),
                static_cast<unsigned long long>(best.shed), best.shed_rate * 100.0,
                static_cast<unsigned long long>(best.shed_backpressure),
                best.ingest_rate / 1e6,
                best.state.c_str(), best.sample_shift,
                best.reconciled ? "reconciled" : "ACCOUNTING MISMATCH");
  }
  std::filesystem::remove_all(dir);

  std::string json = "{\n";
  json += "  \"bench\": \"overload\",\n";
  json += ew::bench::host_json_line();
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
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
  return all_reconciled ? 0 : 2;
}
