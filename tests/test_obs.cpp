// obs:: registry contracts. The load-bearing ones:
//   - shard merging is a plain element-wise sum, so it must be commutative
//     and associative and agree with a single-shard reference (the same
//     oracle discipline core/sketch merges are held to);
//   - record vs scrape is safe concurrently (this file is in the TSan
//     ctest filter — the Concurrent* tests are the race detectors);
//   - a fixed workload yields a byte-identical JSON snapshot regardless of
//     thread count, run order, or shard assignment (golden determinism);
//   - segments_for_fields mirrors the columnar decoder's projection gates.
// In an EW_OBS=OFF build the same file compiles against null.hpp and only
// asserts that everything is inert.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/packet.hpp"
#include "obs/obs.hpp"
#include "probe/probe.hpp"
#include "storage/columnar.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
namespace obs = ew::obs;
namespace fs = std::filesystem;

namespace {

// Only the live-registry tests read files back; the EW_OBS=OFF build has none.
[[maybe_unused]] std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------- storage
// Projection accounting is independent of the obs build mode: the columnar
// static_asserts already pin kAll and 0; here we pin the per-bit costs the
// lake_scan_segments_skipped_total counter depends on.
TEST(ObsSegments, MirrorsColumnarProjectionGates) {
  namespace sf = ew::storage::scan_fields;
  const unsigned all = ew::storage::segments_for_fields(sf::kAll);
  EXPECT_EQ(all, ew::storage::kColumnSegmentCount);
  // Filter columns (ts/service/proto/server_ip) always decode.
  EXPECT_EQ(ew::storage::segments_for_fields(0), 4u);
  // Dictionary columns cost a dict segment plus an index segment.
  EXPECT_EQ(ew::storage::segments_for_fields(sf::kServerName), 6u);
  EXPECT_EQ(ew::storage::segments_for_fields(sf::kContentType), 6u);
  EXPECT_EQ(ew::storage::segments_for_fields(sf::kHttpStatus), 5u);
  // RTT: samples+min decode for either bit; max/avg deltas only for spread.
  EXPECT_EQ(ew::storage::segments_for_fields(sf::kRttMin), 6u);
  EXPECT_EQ(ew::storage::segments_for_fields(sf::kRttSpread), 8u);
  EXPECT_EQ(ew::storage::segments_for_fields(sf::kRttMin | sf::kRttSpread), 8u);
  // Adding a field never decodes fewer segments.
  std::mt19937 rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t mask = rng();
    const std::uint32_t extra = 1u << (rng() % 22);
    EXPECT_LE(ew::storage::segments_for_fields(mask),
              ew::storage::segments_for_fields(mask | extra));
  }
}

#if defined(EW_OBS_ENABLED) && EW_OBS_ENABLED

namespace {

// Deterministic test clock: ClockFn is a stateless function pointer, so the
// fake advances through a global atomic.
std::atomic<std::uint64_t> g_fake_now{0};
std::uint64_t fake_clock() { return g_fake_now.load(std::memory_order_relaxed); }

void run_threads(std::size_t count, const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t t = 0; t < count; ++t) threads.emplace_back(body, t);
  for (auto& th : threads) th.join();
}

}  // namespace

TEST(ObsCounter, SumsAcrossThreadsAndShards) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("events_total");
  run_threads(8, [&](std::size_t) {
    for (int i = 0; i < 10'000; ++i) c.add(1);
  });
  EXPECT_EQ(c.value(), 80'000u);
}

TEST(ObsCounter, LabelsSelectDistinctSeries) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x_total", "stage=\"a\"");
  obs::Counter& b = reg.counter("x_total", "stage=\"b\"");
  EXPECT_NE(&a, &b);
  // Registration is idempotent per (name, labels).
  EXPECT_EQ(&a, &reg.counter("x_total", "stage=\"a\""));
  a.add(3);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 0u);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(ObsHistogram, BucketLeSemantics) {
  obs::Registry reg;
  const std::int64_t bounds[] = {10, 100, 1000};
  obs::Histogram& h = reg.histogram("lat", bounds);
  h.record(-5);    // below range: first bucket
  h.record(10);    // == bound: le semantics, same bucket
  h.record(11);    // just above: next bucket
  h.record(1000);  // == last bound: last bounded bucket
  h.record(1001);  // above all bounds: overflow
  const auto m = h.merged();
  ASSERT_EQ(m.counts.size(), 4u);
  EXPECT_EQ(m.counts[0], 2u);
  EXPECT_EQ(m.counts[1], 1u);
  EXPECT_EQ(m.counts[2], 1u);
  EXPECT_EQ(m.counts[3], 1u);
  EXPECT_EQ(m.count, 5u);
  EXPECT_EQ(m.sum, -5 + 10 + 11 + 1000 + 1001);
}

TEST(ObsHistogram, DefaultLatencyBounds) {
  const auto bounds = obs::default_latency_bounds_ns();
  ASSERT_EQ(bounds.size(), 16u);
  EXPECT_EQ(bounds[0], 64);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_EQ(bounds[i], bounds[i - 1] * 4);
}

// The oracle: spreading a workload across shards and merging in any order
// or grouping must equal recording everything into one shard.
TEST(ObsHistogram, ShardMergeMatchesSingleShardOracle) {
  obs::Registry reg;
  const std::int64_t bounds[] = {50, 500, 5000, 50'000};
  obs::Histogram& reference = reg.histogram("ref", bounds);
  obs::Histogram& sharded = reg.histogram("sharded", bounds);

  std::mt19937 rng(7);
  std::vector<std::int64_t> values(5'000);
  for (auto& v : values) v = static_cast<std::int64_t>(rng() % 100'000);

  for (std::size_t i = 0; i < values.size(); ++i) {
    reference.record_in_shard(0, values[i]);
    sharded.record_in_shard(i % obs::kShards, values[i]);
  }
  EXPECT_EQ(sharded.merged(), reference.merged());

  // Commutativity: forward vs reverse merge order.
  obs::Histogram::Merged forward = sharded.shard_snapshot(0);
  for (std::size_t s = 1; s < obs::kShards; ++s) forward.merge(sharded.shard_snapshot(s));
  obs::Histogram::Merged reverse = sharded.shard_snapshot(obs::kShards - 1);
  for (std::size_t s = obs::kShards - 1; s-- > 0;) reverse.merge(sharded.shard_snapshot(s));
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward, reference.merged());

  // Associativity: pairwise tree grouping equals the linear fold.
  std::vector<obs::Histogram::Merged> level;
  for (std::size_t s = 0; s < obs::kShards; ++s) level.push_back(sharded.shard_snapshot(s));
  while (level.size() > 1) {
    std::vector<obs::Histogram::Merged> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      level[i].merge(level[i + 1]);
      next.push_back(level[i]);
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  EXPECT_EQ(level.front(), reference.merged());
}

TEST(ObsSpan, FeedsHistogramAndTraceRing) {
  obs::Registry reg;
  reg.set_clock(&fake_clock);
  obs::SpanSite& site = reg.span_site("checkpoint");
  g_fake_now = 1'000;
  {
    obs::Span span(site);
    g_fake_now = 3'500;
  }
  const auto m = site.hist->merged();
  EXPECT_EQ(m.count, 1u);
  EXPECT_EQ(m.sum, 2'500);
  const obs::Snapshot snap = reg.scrape();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "checkpoint");
  EXPECT_EQ(snap.spans[0].start_ns, 1'000u);
  EXPECT_EQ(snap.spans[0].dur_ns, 2'500u);
}

TEST(ObsSpan, UntracedSiteSkipsRing) {
  obs::Registry reg;
  reg.set_clock(&fake_clock);
  obs::SpanSite& site = reg.span_site("hot", /*traced=*/false);
  g_fake_now = 10;
  {
    obs::Span span(site);
    g_fake_now = 30;
  }
  EXPECT_EQ(site.hist->merged().count, 1u);
  EXPECT_TRUE(reg.scrape().spans.empty());
}

TEST(ObsSpan, RingOverwritesOldest) {
  obs::Registry reg;
  reg.set_clock(&fake_clock);
  obs::SpanSite& site = reg.span_site("tick");
  for (std::size_t i = 0; i < obs::Registry::kSpanRingCapacity + 10; ++i) {
    g_fake_now = i;
    obs::Span span(site);
  }
  const obs::Snapshot snap = reg.scrape();
  ASSERT_EQ(snap.spans.size(), obs::Registry::kSpanRingCapacity);
  // Oldest 10 were overwritten: the earliest surviving start is 10.
  EXPECT_EQ(snap.spans.front().start_ns, 10u);
}

TEST(ObsRegistry, CallbackGaugeRegistersAndUnregisters) {
  obs::Registry reg;
  {
    const obs::CallbackHandle handle =
        reg.on_scrape("pool_depth", {}, [] { return std::int64_t{42}; });
    const obs::Snapshot snap = reg.scrape();
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].name, "pool_depth");
    EXPECT_EQ(snap.gauges[0].value, 42);
  }
  EXPECT_TRUE(reg.scrape().gauges.empty());
}

TEST(ObsRegistry, ScrapeSortsByNameThenLabels) {
  obs::Registry reg;
  reg.counter("zebra_total").add(1);
  reg.counter("alpha_total", "k=\"2\"").add(1);
  reg.counter("alpha_total", "k=\"1\"").add(1);
  const obs::Snapshot snap = reg.scrape();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha_total");
  EXPECT_EQ(snap.counters[0].labels, "k=\"1\"");
  EXPECT_EQ(snap.counters[1].labels, "k=\"2\"");
  EXPECT_EQ(snap.counters[2].name, "zebra_total");
}

// TSan target: writers hammer a counter and a histogram while the main
// thread scrapes. Correctness bar: no race reports, monotone scrape values,
// exact final totals.
TEST(ObsConcurrency, RecordVersusScrape) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("hits_total");
  obs::Histogram& h = reg.histogram("work_ns");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 25'000;
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::Snapshot snap = reg.scrape();
      for (const auto& counter : snap.counters) {
        EXPECT_GE(counter.value, last);
        last = counter.value;
      }
    }
  });
  run_threads(kWriters, [&](std::size_t t) {
    for (int i = 0; i < kPerWriter; ++i) {
      c.add(1);
      h.record(static_cast<std::int64_t>(t * 1'000 + i % 777));
    }
  });
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(h.merged().count, static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

namespace {

/// One fixed workload, partitioned across `threads` workers by index: the
/// recorded multiset is identical for any thread count.
std::string golden_json(std::size_t threads) {
  obs::Registry reg;
  reg.set_clock(&fake_clock);
  g_fake_now = 123'456'789;
  obs::Counter& events = reg.counter("events_total");
  obs::Counter& staged = reg.counter("stage_total", "stage=\"decode\"");
  obs::Histogram& lat = reg.histogram("latency_ns");
  run_threads(threads, [&](std::size_t t) {
    for (std::size_t i = t; i < 4'000; i += threads) {
      events.add(i % 3 + 1);
      staged.add(1);
      lat.record(static_cast<std::int64_t>((i * 37) % 900'000));
    }
  });
  reg.gauge("overload_state").set(2);
  return obs::to_json(reg.scrape());
}

}  // namespace

TEST(ObsSnapshot, GoldenJsonDeterministicAcrossThreadCounts) {
  const std::string one = golden_json(1);
  const std::string two = golden_json(2);
  const std::string eight = golden_json(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  // And across runs: re-running the same workload reproduces the bytes.
  EXPECT_EQ(one, golden_json(3));
  // Sanity: the golden document actually carries the workload.
  EXPECT_NE(one.find("\"events_total\""), std::string::npos);
  EXPECT_NE(one.find("\"stage=\\\"decode\\\"\""), std::string::npos);
  EXPECT_NE(one.find("123456789"), std::string::npos);
}

TEST(ObsSnapshot, JsonExcludesSpansUnlessAsked) {
  obs::Registry reg;
  reg.set_clock(&fake_clock);
  obs::SpanSite& site = reg.span_site("flush");
  g_fake_now = 5;
  {
    obs::Span span(site);
    g_fake_now = 9;
  }
  const obs::Snapshot snap = reg.scrape();
  EXPECT_EQ(obs::to_json(snap).find("\"spans\""), std::string::npos);
  EXPECT_NE(obs::to_json(snap, /*include_spans=*/true).find("\"spans\""), std::string::npos);
}

TEST(ObsSnapshot, PrometheusExposition) {
  obs::Registry reg;
  reg.counter("frames_total", "stage=\"decode\"").add(7);
  const std::int64_t bounds[] = {100, 1000};
  reg.histogram("lat_ns", bounds).record(150);
  reg.gauge("depth").set(3);
  const std::string text = obs::to_prometheus(reg.scrape());
  EXPECT_NE(text.find("# TYPE frames_total counter"), std::string::npos);
  EXPECT_NE(text.find("frames_total{stage=\"decode\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"1000\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("depth 3"), std::string::npos);
}

TEST(ObsSnapshot, FileWriteRoundTrip) {
  obs::Registry reg;
  reg.set_clock(&fake_clock);
  g_fake_now = 777;
  reg.counter("written_total").add(9);
  const obs::Snapshot snap = reg.scrape();
  const ew::testing::TempDir dir{"ew_obs"};
  const fs::path path = dir.path / "roundtrip.json";
  ASSERT_TRUE(obs::write_snapshot(snap, path, obs::ExportFormat::kJson));
  EXPECT_EQ(slurp(path), obs::to_json(snap));
  const fs::path prom = dir.path / "roundtrip.prom";
  ASSERT_TRUE(obs::write_snapshot(snap, prom, obs::ExportFormat::kPrometheus));
  EXPECT_EQ(slurp(prom), obs::to_prometheus(snap));
}

// The probe flushes its plain counters into the global registry as deltas
// at batch boundaries and on finish(); a short replay must surface there.
TEST(ObsProbe, FlushesCountersToGlobalRegistry) {
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t frames_before = reg.counter("probe_frames_total").value();
  const std::uint64_t exported_before = reg.counter("probe_records_exported_total").value();

  std::size_t records = 0;
  ew::probe::Probe probe{{}, [&](ew::flow::FlowRecord&&) { ++records; }};
  const ew::core::IPv4Address client{10, 0, 3, 7};
  const ew::core::IPv4Address server{31, 13, 86, 36};
  probe.process(ew::net::PacketBuilder{}
                    .ts(ew::core::Timestamp{1'000})
                    .ip(client, server)
                    .tcp(40'001, 443, 1, 0, ew::net::TcpFlags::kSyn)
                    .build());
  probe.process(ew::net::PacketBuilder{}
                    .ts(ew::core::Timestamp{4'000})
                    .ip(server, client)
                    .tcp(443, 40'001, 100, 2, ew::net::TcpFlags::kSyn | ew::net::TcpFlags::kAck)
                    .build());
  probe.finish();

  EXPECT_EQ(reg.counter("probe_frames_total").value(), frames_before + 2);
  EXPECT_EQ(reg.counter("probe_records_exported_total").value(), exported_before + records);
  EXPECT_GE(records, 1u);
}

#else  // !EW_OBS_ENABLED — the null backend must be inert, not just quiet.

TEST(ObsNull, EverythingIsInert) {
  static_assert(!obs::kEnabled);
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("anything_total");
  c.add(1'000);
  EXPECT_EQ(c.value(), 0u);
  reg.gauge("g").set(5);
  reg.histogram("h").record(42);
  {
    obs::Span span(reg.span_site("s"));
  }
  const obs::Snapshot snap = reg.scrape();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_EQ(obs::to_json(snap), "{}\n");
  EXPECT_EQ(obs::to_prometheus(snap), "");
}

#endif  // EW_OBS_ENABLED
