// Ablation — packet sampling. The paper stresses that its probes see
// every packet ("Since probes are deployed in the first level of
// aggregation of the ISP, no traffic sampling is performed", §2.1). This
// bench samples identical traffic at rates 1, 10 and 100 before it reaches
// the probe (the probe itself samples nothing) and shows what sampled
// monitoring would have cost the study: flows missed outright, DPI
// blinded (the one packet carrying the SNI is usually dropped), RTT
// samples gone, and biased byte counts.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/rng.hpp"
#include "probe/probe.hpp"
#include "synth/packets.hpp"

namespace ew = edgewatch;

namespace {

std::vector<ew::net::Frame> make_traffic() {
  std::vector<ew::net::Frame> frames;
  ew::core::Xoshiro256 rng{2018};
  for (int i = 0; i < 250; ++i) {
    ew::synth::ConversationSpec spec;
    spec.client = ew::core::IPv4Address{10, 0, 2, static_cast<std::uint8_t>(i % 250 + 1)};
    spec.client_port = static_cast<std::uint16_t>(42000 + i);
    spec.server = ew::core::IPv4Address{157, 240, 9, static_cast<std::uint8_t>(i % 200 + 1)};
    spec.web = ew::dpi::WebProtocol::kTls;
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
  return frames;
}

struct Outcome {
  std::uint64_t flows = 0;
  std::uint64_t named = 0;
  std::uint64_t with_rtt = 0;
  std::uint64_t bytes = 0;
};

Outcome run(const std::vector<ew::net::Frame>& frames, std::uint32_t rate) {
  Outcome out;
  ew::probe::Probe probe{{}, [&](ew::flow::FlowRecord&& r) {
                           ++out.flows;
                           out.named += !r.server_name.empty();
                           out.with_rtt += r.rtt.samples > 0;
                           out.bytes += r.total_bytes();
                         }};
  // Deterministic 1-in-`rate` packet sampling: frame i is kept iff
  // (i + 1) % rate == 0, so the rate-th frame is the first one kept.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if ((i + 1) % rate == 0) probe.process(frames[i]);
  }
  probe.finish();
  return out;
}

void print_reproduction() {
  std::printf("\n================================================================\n");
  std::printf("Ablation: packet sampling vs the paper's sample-everything probes\n");
  std::printf("================================================================\n");
  const auto frames = make_traffic();
  const auto full = run(frames, 1);
  std::printf("  ground truth: %llu flows, %.1f MB\n",
              static_cast<unsigned long long>(full.flows),
              static_cast<double>(full.bytes) / 1e6);
  std::printf("  %-10s %10s %10s %12s %14s\n", "rate", "flows", "named%", "with-RTT%",
              "byte est. err%");
  for (const std::uint32_t rate : {1u, 10u, 100u}) {
    const auto got = run(frames, rate);
    const double scale = static_cast<double>(rate);
    const double est = static_cast<double>(got.bytes) * scale;
    std::printf("  1-in-%-5u %10llu %9.1f%% %11.1f%% %13.1f%%\n", rate,
                static_cast<unsigned long long>(got.flows),
                got.flows ? 100.0 * static_cast<double>(got.named) /
                                static_cast<double>(got.flows)
                          : 0.0,
                got.flows ? 100.0 * static_cast<double>(got.with_rtt) /
                                static_cast<double>(got.flows)
                          : 0.0,
                100.0 * (est - static_cast<double>(full.bytes)) /
                    static_cast<double>(full.bytes));
  }
  std::printf("  (sampled rows lose flows, hostnames and RTT: the study's per-\n");
  std::printf("   service and per-server analyses would be impossible)\n");
}

void BM_ProbeFullRate(benchmark::State& state) {
  const auto frames = make_traffic();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(frames, 1));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_ProbeFullRate);

void BM_ProbeSampled100(benchmark::State& state) {
  const auto frames = make_traffic();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(frames, 100));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_ProbeSampled100);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
