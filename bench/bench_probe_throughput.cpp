// §2.1 — the probe must keep line rate on aggregation links (the paper's
// probes do 10 Gb/s with DPDK; ref [31]). This bench measures the software
// pipeline: frame decode → flow table → DPI → export, on a realistic mix
// of conversations (TLS with SNI, HTTP, QUIC, P2P, DNS).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "probe/probe.hpp"
#include "probe/sharded_probe.hpp"
#include "synth/packets.hpp"

namespace ew = edgewatch;

namespace {

std::vector<ew::net::Frame> make_traffic_mix() {
  std::vector<ew::net::Frame> frames;
  const ew::core::IPv4Address server_tls{157, 240, 1, 9};
  const ew::core::IPv4Address server_http{93, 184, 216, 34};
  const ew::core::IPv4Address server_quic{173, 194, 4, 4};
  for (int i = 0; i < 120; ++i) {
    ew::synth::ConversationSpec spec;
    spec.client = ew::core::IPv4Address{10, 0, static_cast<std::uint8_t>(i / 250),
                                        static_cast<std::uint8_t>(i % 250 + 1)};
    spec.client_port = static_cast<std::uint16_t>(40000 + i);
    spec.start = ew::core::Timestamp::from_seconds(100 + i);
    spec.rtt_us = 3000 + (i % 7) * 2500;
    spec.response_bytes = 20'000 + (i % 11) * 8'000;
    switch (i % 4) {
      case 0:
        spec.server = server_tls;
        spec.web = ew::dpi::WebProtocol::kHttp2;
        spec.server_name = "www.facebook.com";
        spec.alpn = "h2";
        break;
      case 1:
        spec.server = server_http;
        spec.web = ew::dpi::WebProtocol::kHttp;
        spec.server_name = "www.repubblica.it";
        break;
      case 2:
        spec.server = server_quic;
        spec.web = ew::dpi::WebProtocol::kQuic;
        break;
      default:
        spec.server = ew::core::IPv4Address{93, 33, 44, static_cast<std::uint8_t>(i % 200 + 1)};
        spec.p2p = true;
        spec.server_port = 51413;
        break;
    }
    auto conv = ew::synth::render_conversation(spec);
    frames.insert(frames.end(), std::make_move_iterator(conv.begin()),
                  std::make_move_iterator(conv.end()));
  }
  // Keep per-flow ordering but approximate a live interleaving by time.
  std::stable_sort(frames.begin(), frames.end(),
                   [](const auto& a, const auto& b) { return a.timestamp < b.timestamp; });
  return frames;
}

void BM_ProbePipeline(benchmark::State& state) {
  const auto frames = make_traffic_mix();
  std::uint64_t bytes = 0;
  for (const auto& f : frames) bytes += f.data.size();
  std::uint64_t records = 0;
  for (auto _ : state) {
    ew::probe::Probe probe{{}, [&records](ew::flow::FlowRecord&&) { ++records; }};
    for (const auto& frame : frames) probe.process(frame);
    probe.finish();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  state.counters["flows"] =
      benchmark::Counter(static_cast<double>(records) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ProbePipeline);

// The sharded parallel probe at 1/2/4/8 shards on the same mix. Compare
// against BM_ProbePipeline: shards=1 shows the queueing overhead, higher
// counts the scaling (bounded by physical cores — see the
// hardware_concurrency line scripts/bench.sh records). Timed in wall-clock
// time: CPU time would count only the feeding thread, not the shards.
void BM_ShardedProbeIngest(benchmark::State& state) {
  const auto frames = make_traffic_mix();
  std::uint64_t bytes = 0;
  for (const auto& f : frames) bytes += f.data.size();
  std::uint64_t records = 0;
  for (auto _ : state) {
    ew::probe::ShardedProbeConfig cfg;
    cfg.shards = static_cast<std::size_t>(state.range(0));
    ew::probe::ShardedProbe probe{cfg};
    for (const auto& frame : frames) probe.ingest(frame);
    records += probe.finish().size();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  state.counters["flows"] =
      benchmark::Counter(static_cast<double>(records) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ShardedProbeIngest)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Flow-table pressure: many long-lived concurrent flows (the situation at
// a PoP at prime time). Measures ingest+advance with a full table.
void BM_FlowTableAt50kConcurrentFlows(benchmark::State& state) {
  using ew::core::IPv4Address;
  using ew::core::Timestamp;
  // Pre-build decoded packets covering 50k distinct 5-tuples.
  std::vector<ew::net::Frame> frames;
  frames.reserve(50'000);
  for (std::uint32_t i = 0; i < 50'000; ++i) {
    frames.push_back(ew::net::PacketBuilder{}
                         .ts(Timestamp::from_seconds(static_cast<std::int64_t>(i / 1000)))
                         .ip(IPv4Address{0x0A000000u + (i % 4000)},
                             IPv4Address{0x9D000000u + (i / 4000)})
                         .udp(static_cast<std::uint16_t>(1024 + (i % 60000)), 443)
                         .payload("data")
                         .build());
  }
  std::vector<ew::net::DecodedPacket> packets;
  packets.reserve(frames.size());
  for (const auto& f : frames) packets.push_back(*ew::net::decode_frame(f));

  std::uint64_t exported = 0;
  ew::flow::FlowTableConfig cfg;
  cfg.udp_idle_timeout_us = 3'600'000'000;  // keep everything live
  auto count_sink = [&exported](ew::flow::FlowRecord&&) { ++exported; };
  for (auto _ : state) {
    ew::flow::FlowTable table{cfg, count_sink};
    for (const auto& pkt : packets) {
      table.ingest(pkt);
      table.advance(pkt.timestamp);
    }
    benchmark::DoNotOptimize(table.active_flows());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_FlowTableAt50kConcurrentFlows);

void BM_DecodeOnly(benchmark::State& state) {
  const auto frames = make_traffic_mix();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ew::net::decode_frame(frames[i++ % frames.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeOnly);

}  // namespace

int main(int argc, char** argv) {
  std::printf("\n================================================================\n");
  std::printf("§2.1 probe pipeline throughput (decode -> flows -> DPI -> export)\n");
  std::printf("Paper context: production probes sustain 10 Gb/s per link on\n");
  std::printf("commodity hardware; items/s and bytes/s below are this software\n");
  std::printf("pipeline without DPDK I/O.\n");
  std::printf("================================================================\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
