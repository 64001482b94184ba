// The parallel execution engine: ThreadPool and SPSC ring semantics under
// contention, ShardedProbe's golden determinism guarantee (merged export
// stream byte-identical for every shard count, and to the serial probe),
// and the scan decoder's scratch reuse. Run under TSan via
// `SANITIZE=tsan scripts/tier1.sh`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/bytes.hpp"
#include "core/spsc_queue.hpp"
#include "core/thread_pool.hpp"
#include "probe/sharded_probe.hpp"
#include "storage/codec.hpp"
#include "storage/compress.hpp"
#include "synth/packets.hpp"

namespace ew = edgewatch;
using ew::core::IPv4Address;
using ew::core::SpscQueue;
using ew::core::ThreadPool;
using ew::core::Timestamp;
using ew::flow::FlowRecord;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ExceptionTravelsThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversRangeAndRethrows) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 63) throw std::runtime_error("bad chunk");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    pool.shutdown();
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, ParallelForFailureLeavesWorkersAlive) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.parallel_for(0, 256, [](std::size_t) { throw std::runtime_error("boom"); }),
        std::runtime_error);
    // Every worker survived the storm of exceptions: the pool still does work.
    EXPECT_EQ(pool.submit([] { return 11; }).get(), 11);
  }
  // submit()ed exceptions are captured by futures, never loose in a worker.
  EXPECT_EQ(pool.stray_exceptions(), 0u);
}

TEST(ThreadPool, ParallelForDrainsOtherChunksBeforeRethrow) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::atomic<std::size_t> executed{0};
  try {
    pool.parallel_for(0, n, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("first chunk dies");
      executed.fetch_add(1);
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error&) {
  }
  // The rethrow happened only after every other chunk ran to completion —
  // no in-flight chunk was abandoned holding a reference to fn. Only the
  // throwing chunk's tail (at most one chunk) is missing.
  const std::size_t chunk = (n + 4 * 4 - 1) / (4 * 4);
  EXPECT_GE(executed.load(), n - chunk);
  EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(ThreadPool, ParallelForAfterShutdownThrowsInsteadOfHanging) {
  ThreadPool pool(2);
  pool.shutdown();
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(pool.parallel_for(0, 100, [&](std::size_t) { executed.fetch_add(1); }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ThreadPool, ShutdownWakesBlockedSubmitter) {
  ThreadPool pool(1, /*max_pending=*/1);
  std::promise<void> gate;
  std::promise<void> started;
  pool.submit([&] {
    started.set_value();
    gate.get_future().wait();
  });
  started.get_future().wait();
  pool.submit([] {});  // fills the bounded queue

  std::atomic<bool> threw{false};
  std::thread submitter([&] {
    try {
      pool.submit([] {});  // blocks on backpressure until shutdown
    } catch (const std::runtime_error&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread closer([&] { pool.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.set_value();  // let the worker drain so shutdown can finish
  submitter.join();
  closer.join();
  EXPECT_TRUE(threw.load());
}

TEST(ThreadPool, BackpressureBoundsQueue) {
  ThreadPool pool(1, /*max_pending=*/2);
  std::promise<void> gate;
  std::promise<void> started;
  pool.submit([&] {
    started.set_value();
    gate.get_future().wait();
  });
  started.get_future().wait();
  std::atomic<int> submitted{0};
  std::thread feeder([&] {
    for (int i = 0; i < 16; ++i) {
      pool.submit([] {});
      submitted.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // With the worker parked, at most max_pending submissions can complete.
  EXPECT_LE(submitted.load(), 2);
  EXPECT_LE(pool.pending(), 2u);
  gate.set_value();
  feeder.join();
  EXPECT_EQ(submitted.load(), 16);
}

// -------------------------------------------------------------- SpscQueue

TEST(SpscQueue, FifoAcrossThreads) {
  SpscQueue<int> q(8);
  constexpr int kN = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) q.push(int{i});
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kN);
}

TEST(SpscQueue, BlockingPushResumesWhenConsumerDrains) {
  SpscQueue<int> q(2);
  ASSERT_TRUE(q.try_push(1));
  ASSERT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(3);  // blocks until a slot frees
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(SpscQueue, CloseWakesBlockedConsumer) {
  SpscQueue<int> q(4);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    EXPECT_FALSE(q.pop().has_value());  // blocks, then sees close
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  q.close();
  consumer.join();
  EXPECT_TRUE(done.load());
}

TEST(SpscQueue, CloseDeliversBufferedItemsFirst) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) q.push(int{i});
  q.close();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscQueue, StressSumSurvivesTinyCapacity) {
  SpscQueue<std::uint64_t> q(2);
  constexpr std::uint64_t kN = 50000;
  std::thread producer([&] {
    for (std::uint64_t i = 1; i <= kN; ++i) q.push(std::uint64_t{i});
    q.close();
  });
  std::uint64_t sum = 0;
  while (auto v = q.pop()) sum += *v;
  producer.join();
  EXPECT_EQ(sum, kN * (kN + 1) / 2);
}

// ----------------------------------------------- ShardedProbe determinism

namespace {

constexpr IPv4Address kResolver{10, 255, 255, 53};

/// A deterministic multi-client day slice: DNS lookups followed by TLS and
/// HTTP conversations, interleaved across clients by timestamp. Spans well
/// under the idle timeouts so close reasons are packet-driven (see the
/// documented shard-clock exception in sharded_probe.hpp).
std::vector<ew::net::Frame> golden_workload() {
  struct Site {
    IPv4Address ip;
    const char* name;
  };
  const Site sites[] = {
      {{93, 184, 216, 34}, "static.example.com"},
      {{31, 13, 86, 36}, "edge-star.facebook.com"},
      {{173, 194, 11, 7}, "r3---sn.googlevideo.com"},
      {{23, 67, 1, 9}, "fbcdn.akamaihd.net"},
  };
  std::vector<ew::net::Frame> frames;
  for (int c = 0; c < 24; ++c) {
    const auto b3 = static_cast<std::uint8_t>(10 + c);
    const IPv4Address client =
        c % 2 == 0 ? IPv4Address{10, 0, 3, b3} : IPv4Address{10, 200, 1, b3};
    for (int k = 0; k < 3; ++k) {
      const auto& site = sites[static_cast<std::size_t>((c + k) % 4)];
      const std::int64_t start_us = 100'000'000LL + (c * 977 + k * 23081) * 1000LL;
      const IPv4Address addrs[] = {site.ip};
      frames.push_back(ew::synth::render_dns_response(client, kResolver, site.name, addrs,
                                                      Timestamp{start_us - 40'000}));
      ew::synth::ConversationSpec spec;
      spec.client = client;
      spec.server = site.ip;
      spec.client_port = static_cast<std::uint16_t>(41000 + c * 8 + k);
      spec.web = k == 1 ? ew::dpi::WebProtocol::kHttp : ew::dpi::WebProtocol::kTls;
      if (k == 2) {  // SPDY flows: what the classifier-upgrade test toggles
        spec.alpn = "spdy/3.1";
        spec.server_alpn = "spdy/3.1";
      }
      spec.server_name = site.name;
      spec.response_bytes = static_cast<std::size_t>(1500 + c * 137 + k * 911);
      spec.start = Timestamp{start_us};
      spec.rtt_us = 12'000 + c * 500;
      spec.teardown = (c + k) % 3 != 0;  // some flows only close at finish()
      const auto conv = ew::synth::render_conversation(spec);
      frames.insert(frames.end(), conv.begin(), conv.end());
    }
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const ew::net::Frame& a, const ew::net::Frame& b) {
                     return a.timestamp < b.timestamp;
                   });
  return frames;
}

std::vector<std::byte> encode_stream(const std::vector<FlowRecord>& records) {
  ew::core::ByteWriter w;
  for (const auto& r : records) ew::storage::encode_record(r, w);
  return {w.view().begin(), w.view().end()};
}

/// Serial reference: the single-threaded probe's exports, put into
/// creation order (the order ShardedProbe::finish defines).
std::vector<FlowRecord> serial_reference(const std::vector<ew::net::Frame>& frames,
                                         const ew::probe::ProbeConfig& cfg,
                                         ew::probe::Probe::Counters* counters = nullptr,
                                         std::size_t options_flip_at = SIZE_MAX) {
  std::vector<FlowRecord> records;
  ew::probe::Probe probe(cfg, [&records](FlowRecord&& r) { records.push_back(std::move(r)); });
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == options_flip_at) {
      probe.set_classifier_options({.report_spdy = false, .report_fbzero = false});
    }
    probe.process(frames[i]);
  }
  probe.finish();
  if (counters != nullptr) *counters = probe.counters();
  std::stable_sort(records.begin(), records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.ingest_seq < b.ingest_seq;
                   });
  return records;
}

/// Frames per published batch for a configured ring capacity (the rule
/// documented on ShardedProbeConfig::queue_capacity).
std::size_t batch_for(std::size_t queue_capacity) {
  return std::clamp<std::size_t>(queue_capacity / 4, 1, 256);
}

}  // namespace

TEST(ShardedProbe, GoldenStreamIdenticalForEveryShardCount) {
  const auto frames = golden_workload();
  const ew::probe::ProbeConfig cfg;
  ew::probe::Probe::Counters serial_counters;
  const auto expected = encode_stream(serial_reference(frames, cfg, &serial_counters));
  ASSERT_FALSE(expected.empty());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    ew::probe::ShardedProbeConfig scfg;
    scfg.probe = cfg;
    scfg.shards = shards;
    scfg.queue_capacity = 64;
    ew::probe::ShardedProbe sp(scfg);
    for (const auto& f : frames) sp.ingest(f);  // copies keep `frames` reusable
    const auto merged = sp.finish();
    EXPECT_EQ(encode_stream(merged), expected) << "shards=" << shards;

    const auto c = sp.counters();
    EXPECT_EQ(c.frames, serial_counters.frames) << "shards=" << shards;
    EXPECT_EQ(c.dns_responses, serial_counters.dns_responses) << "shards=" << shards;
    EXPECT_EQ(c.records_exported, serial_counters.records_exported) << "shards=" << shards;
    EXPECT_EQ(c.records_named_by_dns, serial_counters.records_named_by_dns)
        << "shards=" << shards;
    EXPECT_EQ(c.decode_failures, serial_counters.decode_failures) << "shards=" << shards;
  }
}

TEST(ShardedProbe, MidStreamExportsOutOfCreationOrderAreMergedBySeq) {
  // Each client opens a UDP flow L, then a TCP flow S that a reset closes
  // at once, then sends on L again at 100 s. At 125 s L's first expiry
  // checkpoint finds it active and S, queued behind it, lingers out; L
  // idles out only at 230 s. Every shard thus exports S before the older
  // L, and its buffer reaches the merge out of ingest_seq order, both at
  // the snapshot (taken in the last phase) and at finish().
  using ew::net::PacketBuilder;
  using ew::net::TcpFlags;
  constexpr IPv4Address kServer{93, 184, 216, 34};
  const auto at_s = [](int s, int c) { return Timestamp{s * 1'000'000LL + c * 1'000LL}; };
  std::vector<ew::net::Frame> frames;
  std::size_t snap_at = 0;
  for (int phase = 0; phase < 5; ++phase) {
    if (phase == 4) snap_at = frames.size();
    for (int c = 0; c < 32; ++c) {
      const IPv4Address client{10, 0, 5, static_cast<std::uint8_t>(10 + c)};
      const auto port = static_cast<std::uint16_t>(40000 + c);
      const auto from_client = [&] { return PacketBuilder{}.ip(client, kServer); };
      switch (phase) {
        case 0:  // L
          frames.push_back(from_client().ts(at_s(1, c)).udp(port, 443).payload("l").build());
          break;
        case 1:  // S, reset at once
          frames.push_back(
              from_client().ts(at_s(2, c)).tcp(port, 443, 1, 0, TcpFlags::kSyn).build());
          frames.push_back(PacketBuilder{}
                               .ip(kServer, client)
                               .ts(at_s(2, c))
                               .tcp(443, port, 1, 2, TcpFlags::kRst)
                               .build());
          break;
        case 2:  // L again
          frames.push_back(from_client().ts(at_s(100, c)).udp(port, 443).payload("l").build());
          break;
        case 3:  // the shard's clock passes S's linger
          frames.push_back(
              from_client().ts(at_s(125, c)).udp(port + 100, 53).payload("a").build());
          break;
        case 4:  // ... and L's idle timeout
          frames.push_back(
              from_client().ts(at_s(230, c)).udp(port + 200, 53).payload("b").build());
          break;
      }
    }
  }
  const ew::probe::ProbeConfig cfg;
  const auto serial = serial_reference(frames, cfg);
  const auto by_seq = [](const FlowRecord& a, const FlowRecord& b) {
    return a.ingest_seq < b.ingest_seq;
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ew::probe::ShardedProbeConfig scfg;
    scfg.probe = cfg;
    scfg.shards = shards;
    scfg.queue_capacity = 64;
    ew::probe::ShardedProbe sp(scfg);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i == snap_at + 1) {
        // S and L of the first client have both been exported by now.
        auto snap = sp.snapshot();
        EXPECT_GE(snap.records.size(), 2u) << "shards=" << shards;
        EXPECT_TRUE(std::is_sorted(snap.records.begin(), snap.records.end(), by_seq))
            << "shards=" << shards;
        auto rest = [&] {
          for (std::size_t j = i; j < frames.size(); ++j) sp.ingest(frames[j]);
          return sp.finish();
        }();
        EXPECT_TRUE(std::is_sorted(rest.begin(), rest.end(), by_seq)) << "shards=" << shards;
        snap.records.insert(snap.records.end(), std::make_move_iterator(rest.begin()),
                            std::make_move_iterator(rest.end()));
        std::stable_sort(snap.records.begin(), snap.records.end(), by_seq);
        EXPECT_EQ(encode_stream(snap.records), encode_stream(serial)) << "shards=" << shards;
        break;
      }
      sp.ingest(frames[i]);
    }
  }

  // Without the snapshot, finish() alone returns the serial stream.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    ew::probe::ShardedProbeConfig scfg;
    scfg.probe = cfg;
    scfg.shards = shards;
    ew::probe::ShardedProbe sp(scfg);
    for (const auto& f : frames) sp.ingest(f);
    EXPECT_EQ(encode_stream(sp.finish()), encode_stream(serial)) << "shards=" << shards;
  }
}

TEST(ShardedProbe, ClassifierUpgradeAppliesAtSameStreamPosition) {
  const auto frames = golden_workload();
  const std::size_t flip_at = frames.size() / 2;
  const ew::probe::ProbeConfig cfg;
  const auto expected =
      encode_stream(serial_reference(frames, cfg, nullptr, flip_at));

  ew::probe::ShardedProbeConfig scfg;
  scfg.probe = cfg;
  scfg.shards = 4;
  ew::probe::ShardedProbe sp(scfg);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == flip_at) {
      sp.set_classifier_options({.report_spdy = false, .report_fbzero = false});
    }
    sp.ingest(frames[i]);
  }
  EXPECT_EQ(encode_stream(sp.finish()), expected);
}

TEST(ShardedProbe, OutageWindowMatchesSerialProbe) {
  const auto frames = golden_workload();
  const std::size_t off_at = frames.size() / 3;
  const std::size_t on_at = frames.size() / 2;
  const ew::probe::ProbeConfig cfg;

  std::vector<FlowRecord> serial_records;
  ew::probe::Probe probe(cfg,
                         [&serial_records](FlowRecord&& r) { serial_records.push_back(std::move(r)); });
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == off_at) probe.begin_outage();
    if (i == on_at) probe.end_outage();
    probe.process(frames[i]);
  }
  probe.finish();
  std::stable_sort(serial_records.begin(), serial_records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.ingest_seq < b.ingest_seq;
                   });

  ew::probe::ShardedProbeConfig scfg;
  scfg.probe = cfg;
  scfg.shards = 4;
  ew::probe::ShardedProbe sp(scfg);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == off_at) sp.begin_outage();
    if (i == on_at) sp.end_outage();
    sp.ingest(frames[i]);
  }
  EXPECT_EQ(encode_stream(sp.finish()), encode_stream(serial_records));
  EXPECT_EQ(sp.counters().dropped_offline, probe.counters().dropped_offline);
}

TEST(ShardedProbe, TryIngestMatchesIngest) {
  const auto frames = golden_workload();
  ew::probe::ShardedProbeConfig scfg;
  scfg.shards = 4;
  scfg.queue_capacity = 64;

  ew::probe::ShardedProbe blocking(scfg);
  for (const auto& f : frames) blocking.ingest(f);
  const auto expected = encode_stream(blocking.finish());
  ASSERT_FALSE(expected.empty());

  ew::probe::ShardedProbe non_blocking(scfg);
  for (const auto& f : frames) {
    auto copy = f;
    while (!non_blocking.try_ingest(copy)) std::this_thread::yield();
  }
  EXPECT_EQ(encode_stream(non_blocking.finish()), expected);

  const auto a = blocking.counters();
  const auto b = non_blocking.counters();
  EXPECT_EQ(b.frames, a.frames);
  EXPECT_EQ(b.frames, frames.size());
  EXPECT_EQ(b.records_exported, a.records_exported);
  EXPECT_EQ(b.dns_responses, a.dns_responses);
}

TEST(ShardedProbe, QueueCapacityCountsFrames) {
  // 1100 is no multiple of its 256-frame batch: the bound is still exact.
  for (const std::size_t capacity : {std::size_t{4}, std::size_t{8}, std::size_t{64},
                                     std::size_t{1024}, std::size_t{1100}, std::size_t{4096}}) {
    ew::probe::ShardedProbeConfig scfg;
    scfg.shards = 2;
    scfg.queue_capacity = capacity;
    ew::probe::ShardedProbe sp(scfg);
    EXPECT_EQ(sp.queue_capacity(), capacity);
    EXPECT_EQ(sp.queue_depth(0), 0u);
  }
}

TEST(ShardedProbe, QueueDepthStaysWithinCapacityWhileWorkerBlocked) {
  const auto frames = golden_workload();
  constexpr std::size_t kCapacity = 64;
  ASSERT_EQ(kCapacity % batch_for(kCapacity), 0u);  // nothing left staged at the bound
  ASSERT_GT(frames.size(), kCapacity + 1);

  std::atomic<bool> release{false};
  ew::probe::ShardedProbeConfig scfg;
  scfg.shards = 1;
  scfg.queue_capacity = kCapacity;
  scfg.frame_inspector = [&release](std::uint64_t, ew::net::FrameView) {
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  };
  ew::probe::ShardedProbe sp(scfg);

  std::atomic<std::size_t> fed{0};
  std::thread feeder([&] {
    for (const auto& f : frames) {
      sp.ingest(f);
      fed.fetch_add(1, std::memory_order_release);
    }
  });
  std::size_t deepest = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fed.load(std::memory_order_acquire) < kCapacity &&
         std::chrono::steady_clock::now() < deadline) {
    deepest = std::max(deepest, sp.queue_depth(0));
    std::this_thread::yield();
  }
  // The worker holds the first frame: the next frame past the bound blocks.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fed.load(std::memory_order_acquire), kCapacity);
  EXPECT_EQ(sp.queue_depth(0), kCapacity);
  EXPECT_LE(deepest, kCapacity);

  release.store(true, std::memory_order_release);
  while (fed.load(std::memory_order_acquire) < frames.size()) {
    EXPECT_LE(sp.queue_depth(0), kCapacity);
    std::this_thread::yield();
  }
  feeder.join();
  EXPECT_EQ(encode_stream(sp.finish()),
            encode_stream(serial_reference(frames, scfg.probe)));
}

TEST(ShardedProbe, TryIngestAdmitsOneFrameForEachFrameProcessed) {
  const auto frames = golden_workload();
  constexpr std::size_t kCapacity = 64;
  ASSERT_GT(frames.size(), 2 * kCapacity);

  // The worker may finish `allowance` frames, then waits for more.
  std::atomic<std::size_t> allowance{0};
  std::atomic<std::size_t> passed{0};
  ew::probe::ShardedProbeConfig scfg;
  scfg.shards = 1;
  scfg.queue_capacity = kCapacity;
  scfg.frame_inspector = [&](std::uint64_t, ew::net::FrameView) {
    while (passed.load(std::memory_order_relaxed) >= allowance.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    passed.fetch_add(1, std::memory_order_relaxed);
  };
  ew::probe::ShardedProbe sp(scfg);

  std::size_t next = 0;
  const auto offer = [&] {
    auto copy = frames[next];
    if (!sp.try_ingest(copy)) return false;
    ++next;
    return true;
  };
  while (offer()) {
    ASSERT_LE(next, kCapacity);
  }
  EXPECT_EQ(next, kCapacity);

  // Room comes back frame by frame, not a batch at a time.
  for (std::size_t processed = 1; processed <= 3; ++processed) {
    allowance.store(processed, std::memory_order_release);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (sp.heartbeat(0) < processed && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(sp.heartbeat(0), processed);
    EXPECT_TRUE(offer()) << "after " << processed << " processed";
    EXPECT_FALSE(offer()) << "after " << processed << " processed";
    EXPECT_EQ(next, kCapacity + processed);
  }

  allowance.store(frames.size(), std::memory_order_release);
  while (next < frames.size()) {
    if (!offer()) std::this_thread::yield();
  }
  EXPECT_EQ(encode_stream(sp.finish()),
            encode_stream(serial_reference(frames, scfg.probe)));
}

TEST(ShardedProbe, ControlEventsAndSnapshotCutBatchesMidStream) {
  const auto frames = golden_workload();
  constexpr std::size_t kCapacity = 64;
  const std::size_t batch = batch_for(kCapacity);
  // Each event lands mid-batch: with one shard the staged batch is partial
  // at every one of them.
  const auto mid_batch = [batch](std::size_t at) { return at - at % batch + batch / 2 + 1; };
  // The outage drops every open flow without exporting it, so it comes
  // before the snapshot: frames the snapshot missed must show in records.
  const std::size_t off_at = mid_batch(frames.size() / 5);
  const std::size_t on_at = mid_batch(frames.size() * 2 / 5);
  const std::size_t snap_at = mid_batch(frames.size() * 3 / 5);
  const std::size_t flip_at = mid_batch(frames.size() * 4 / 5);
  ASSERT_LT(flip_at, frames.size());
  for (const std::size_t at : {snap_at, flip_at, off_at, on_at}) ASSERT_NE(at % batch, 0u);

  std::vector<FlowRecord> serial_records;
  ew::probe::Probe serial({}, [&serial_records](FlowRecord&& r) {
    serial_records.push_back(std::move(r));
  });
  const auto feed = [&](auto& probe, std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      if (i == flip_at) probe.set_classifier_options({.report_spdy = false, .report_fbzero = false});
      if (i == off_at) probe.begin_outage();
      if (i == on_at) probe.end_outage();
      if constexpr (std::is_same_v<std::decay_t<decltype(probe)>, ew::probe::Probe>) {
        probe.process(frames[i]);
      } else {
        probe.ingest(frames[i]);
      }
    }
  };
  feed(serial, 0, frames.size());
  serial.finish();
  std::stable_sort(serial_records.begin(), serial_records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.ingest_seq < b.ingest_seq;
                   });
  const auto expected = encode_stream(serial_records);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ew::probe::ShardedProbeConfig scfg;
    scfg.shards = shards;
    scfg.queue_capacity = kCapacity;

    ew::probe::ShardedProbe uninterrupted(scfg);
    feed(uninterrupted, 0, frames.size());
    EXPECT_EQ(encode_stream(uninterrupted.finish()), expected) << "shards=" << shards;

    ew::probe::ShardedProbe first(scfg);
    feed(first, 0, snap_at);
    auto snap = first.snapshot();
    EXPECT_EQ(snap.next_seq, snap_at);
    first.abandon();

    ew::probe::ShardedProbe resumed(scfg);
    ASSERT_TRUE(resumed.restore(snap.shard_state, snap.next_seq));
    feed(resumed, snap_at, frames.size());
    auto rest = resumed.finish();
    snap.records.insert(snap.records.end(), std::make_move_iterator(rest.begin()),
                        std::make_move_iterator(rest.end()));
    EXPECT_EQ(encode_stream(snap.records), expected) << "shards=" << shards;
  }
}

TEST(ShardedProbe, AbandonAndDestructionWithPartlyStagedBatchReturnPromptly) {
  const auto frames = golden_workload();
  ew::probe::ShardedProbeConfig scfg;
  scfg.shards = 2;
  scfg.queue_capacity = 4096;  // 256-frame batches: the frames below stay staged
  std::atomic<std::size_t> inspected{0};
  scfg.frame_inspector = [&inspected](std::uint64_t, ew::net::FrameView) {
    inspected.fetch_add(1, std::memory_order_relaxed);
  };
  constexpr std::size_t kStaged = 100;
  ASSERT_LT(kStaged, batch_for(scfg.queue_capacity));

  const auto t0 = std::chrono::steady_clock::now();
  {
    ew::probe::ShardedProbe sp(scfg);
    for (std::size_t i = 0; i < kStaged; ++i) sp.ingest(frames[i]);
    EXPECT_EQ(sp.queue_depth(0) + sp.queue_depth(1), 0u);
    sp.abandon();
    EXPECT_TRUE(sp.finish().empty());
  }
  EXPECT_EQ(inspected.load(), 0u) << "abandon() must drop the staged frames";

  {
    ew::probe::ShardedProbe sp(scfg);
    for (std::size_t i = 0; i < kStaged; ++i) sp.ingest(frames[i]);
  }  // destroyed without finish()
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

namespace {

constexpr IPv4Address kMixedTagClient{10, 0, 7, 7};

/// A frame of `size` bytes whose EtherType field (if it has one) says
/// `ethertype`, the rest zero: runts, and frames the probe only counts.
ew::net::Frame raw_frame(Timestamp ts, std::uint16_t ethertype, std::size_t size) {
  std::vector<std::byte> data(size);
  if (size >= 14) {
    data[12] = static_cast<std::byte>(ethertype >> 8);
    data[13] = static_cast<std::byte>(ethertype & 0xff);
  }
  return {ts, std::move(data)};
}

/// `frame` with an 802.1Q tag (VLAN 42) after its MAC addresses.
ew::net::Frame vlan_tagged(ew::net::Frame frame) {
  const std::byte tag[] = {std::byte{0x81}, std::byte{0x00}, std::byte{0x00}, std::byte{0x2a}};
  frame.data.insert(frame.data.begin() + 12, std::begin(tag), std::end(tag));
  return frame;
}

/// The golden workload with frames a batch arena must carry byte for byte:
/// a 9,000-byte frame before any arena has grown, then, among the golden
/// frames, empty frames, runts shorter than the 34 bytes shard_of() reads,
/// IPv6 frames, and a client seen both with and without an 802.1Q tag
/// (its DNS response tagged, its TLS conversation alternating tagged and
/// untagged frames). Its frames must route as one client whichever way
/// they arrive.
std::vector<ew::net::Frame> odd_workload() {
  const auto golden = golden_workload();
  std::vector<ew::net::Frame> frames;
  frames.push_back(golden.front());
  frames.push_back(ew::net::PacketBuilder{}
                       .ts(golden.front().timestamp)
                       .ip(IPv4Address{10, 0, 9, 9}, IPv4Address{198, 51, 100, 7})
                       .udp(5004, 5004)
                       .payload(std::vector<std::byte>(9000 - 42, std::byte{0x5a}))
                       .build());
  EXPECT_EQ(frames.back().data.size(), 9000u);
  const std::pair<std::uint16_t, std::size_t> odd[] = {
      {0x0800, 0}, {0x0800, 1}, {0x0800, 20}, {0x0800, 33}, {0x86dd, 54}, {0x86dd, 1514}};
  for (std::size_t i = 1; i < golden.size(); ++i) {
    frames.push_back(golden[i]);
    if (i % 7 == 0) {
      const auto& [ethertype, size] = odd[(i / 7) % std::size(odd)];
      frames.push_back(raw_frame(golden[i].timestamp, ethertype, size));
    }
  }

  const IPv4Address client = kMixedTagClient;
  const IPv4Address server{93, 184, 216, 34};
  const Timestamp start = golden[golden.size() / 2].timestamp;
  const IPv4Address addrs[] = {server};
  frames.push_back(vlan_tagged(ew::synth::render_dns_response(
      client, kResolver, "tagged.example.com", addrs, Timestamp{start.micros() - 40'000})));
  ew::synth::ConversationSpec spec;
  spec.client = client;
  spec.server = server;
  spec.client_port = 45000;
  spec.web = ew::dpi::WebProtocol::kTls;
  spec.server_name = "tagged.example.com";
  spec.response_bytes = 4000;
  spec.start = start;
  spec.rtt_us = 15'000;
  spec.teardown = true;
  auto conversation = ew::synth::render_conversation(spec);
  for (std::size_t i = 0; i < conversation.size(); ++i) {
    frames.push_back(i % 2 == 0 ? std::move(conversation[i])
                                : vlan_tagged(std::move(conversation[i])));
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const ew::net::Frame& a, const ew::net::Frame& b) {
                     return a.timestamp < b.timestamp;
                   });
  return frames;
}

}  // namespace

TEST(ShardedProbe, ArenaBatchesCarryOddFramesLikeSerial) {
  const auto frames = odd_workload();
  const ew::probe::ProbeConfig cfg;
  ew::probe::Probe::Counters serial;
  const auto expected = encode_stream(serial_reference(frames, cfg, &serial));
  ASSERT_GT(serial.ipv6_frames, 0u);
  ASSERT_GT(serial.decode_failures, 0u);
  // The mixed-tag client's untagged frames key on the client address; at 3
  // shards that is not shard 0, so routing tagged frames anywhere but with
  // them would split its conversation and its DNS cache.
  ASSERT_NE(ew::core::IPv4AddressHash{}(kMixedTagClient) % 3, 0u);

  // A snapshot interval of 7 divides no batch: every run is cut short
  // where a snapshot falls due, and must still replay each frame once.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t capacity : {std::size_t{4}, std::size_t{1024}}) {
      for (const std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{7}}) {
        ew::probe::ShardedProbeConfig scfg;
        scfg.probe = cfg;
        scfg.shards = shards;
        scfg.queue_capacity = capacity;
        scfg.snapshot_interval = interval;
        ew::probe::ShardedProbe sp(scfg);
        for (const auto& f : frames) sp.ingest(f);
        const auto where = ::testing::Message()
                           << "shards=" << shards << " capacity=" << capacity
                           << " interval=" << interval;
        EXPECT_EQ(encode_stream(sp.finish()), expected) << where;

        std::uint64_t beats = 0;
        for (std::size_t i = 0; i < shards; ++i) {
          beats += sp.heartbeat(i);
          EXPECT_EQ(sp.queue_depth(i), 0u) << where << " shard=" << i;
        }
        EXPECT_EQ(beats, frames.size()) << where;
        EXPECT_EQ(sp.quarantined_total(), 0u) << where;
        const auto c = sp.counters();
        EXPECT_EQ(c.frames, serial.frames) << where;
        EXPECT_EQ(c.decode_failures, serial.decode_failures) << where;
        EXPECT_EQ(c.ipv6_frames, serial.ipv6_frames) << where;
        EXPECT_EQ(c.dropped_offline, serial.dropped_offline) << where;
        EXPECT_EQ(c.dns_responses, serial.dns_responses) << where;
        EXPECT_EQ(c.records_exported, serial.records_exported) << where;
        EXPECT_EQ(c.records_named_by_dns, serial.records_named_by_dns) << where;
      }
    }
  }
}

// ------------------------------------------------------ scan scratch

TEST(ParallelScan, DecompressIntoReusesScratchBuffer) {
  std::vector<std::byte> input;
  for (int i = 0; i < 10000; ++i) {
    input.push_back(static_cast<std::byte>(i % 7));  // compressible
  }
  std::vector<std::byte> compressed;
  ew::storage::CompressScratch compress_scratch;
  ew::storage::compress_block_lazy_append(input, compressed, compress_scratch);
  ASSERT_EQ(std::to_integer<std::uint8_t>(compressed[0]), ew::storage::kSchemeLz);
  std::vector<std::byte> scratch;
  const auto first = ew::storage::decompress_block_view(compressed, scratch);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(std::equal(first->begin(), first->end(), input.begin(), input.end()));
  EXPECT_EQ(first->data(), scratch.data());  // inflated into the scratch
  const auto* before = scratch.data();
  const auto second = ew::storage::decompress_block_view(compressed, scratch);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(scratch, input);
  EXPECT_EQ(scratch.data(), before);  // capacity reused, no realloc

  ASSERT_FALSE(ew::storage::decompress_block_view(std::span<const std::byte>{}, scratch));
  EXPECT_TRUE(scratch.empty());  // failure leaves it cleared
}
