// The parallel execution engine: ThreadPool and SPSC ring semantics under
// contention, ShardedProbe's golden determinism guarantee (merged export
// stream byte-identical for every shard count, and to the serial probe),
// and the block/day-parallel stage-one analytics reproducing the serial
// aggregates exactly. Run under TSan via `SANITIZE=tsan scripts/tier1.sh`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "analytics/parallel.hpp"
#include "core/bytes.hpp"
#include "core/spsc_queue.hpp"
#include "core/thread_pool.hpp"
#include "probe/sharded_probe.hpp"
#include "storage/codec.hpp"
#include "storage/compress.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/packets.hpp"
#include "temp_dir.hpp"

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
  scfg.frame_inspector = [&release](std::uint64_t, const ew::net::Frame&) {
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
  scfg.frame_inspector = [&](std::uint64_t, const ew::net::Frame&) {
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
  scfg.frame_inspector = [&inspected](std::uint64_t, const ew::net::Frame&) {
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

// ------------------------------------------------- parallel stage-one

namespace {

using TempLakeDir = ew::testing::TempDir;

void expect_aggregates_equal(const ew::analytics::DayAggregate& a,
                             const ew::analytics::DayAggregate& b) {
  EXPECT_EQ(a.date.to_string(), b.date.to_string());
  EXPECT_EQ(a.web_bytes, b.web_bytes);
  EXPECT_EQ(a.downlink_bins, b.downlink_bins);
  for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
    EXPECT_EQ(a.rtt_min_ms[s], b.rtt_min_ms[s]) << "service " << s;  // exact order
    EXPECT_EQ(a.health[s].packets, b.health[s].packets);
    EXPECT_EQ(a.health[s].retransmits, b.health[s].retransmits);
    EXPECT_EQ(a.health[s].out_of_order, b.health[s].out_of_order);
  }
  ASSERT_EQ(a.subscribers.size(), b.subscribers.size());
  for (const auto& [ip, sub] : a.subscribers) {
    const auto it = b.subscribers.find(ip);
    ASSERT_NE(it, b.subscribers.end());
    EXPECT_EQ(sub.access, it->second.access);
    EXPECT_EQ(sub.flows, it->second.flows);
    EXPECT_EQ(sub.bytes_up, it->second.bytes_up);
    EXPECT_EQ(sub.bytes_down, it->second.bytes_down);
    for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
      EXPECT_EQ(sub.per_service[s].flows, it->second.per_service[s].flows);
      EXPECT_EQ(sub.per_service[s].bytes_up, it->second.per_service[s].bytes_up);
      EXPECT_EQ(sub.per_service[s].bytes_down, it->second.per_service[s].bytes_down);
    }
  }
  ASSERT_EQ(a.server_ips.size(), b.server_ips.size());
  for (const auto& [ip, stats] : a.server_ips) {
    const auto it = b.server_ips.find(ip);
    ASSERT_NE(it, b.server_ips.end());
    EXPECT_EQ(stats.service_mask, it->second.service_mask);
    EXPECT_EQ(stats.bytes, it->second.bytes);
  }
  EXPECT_EQ(a.domain_bytes, b.domain_bytes);
  EXPECT_EQ(a.unclassified_domain_bytes, b.unclassified_domain_bytes);
}

}  // namespace

TEST(ParallelAnalytics, BlockFanOutReproducesSerialAggregate) {
  TempLakeDir dir;
  ew::storage::DataLake lake(dir.path);
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(7, 0.2)};
  const ew::core::CivilDate day{2015, 6, 10};
  // Two appends → several blocks, so the fan-out actually splits work.
  ASSERT_TRUE(lake.append(day, gen.day_records(day)));
  ASSERT_TRUE(lake.append(day, gen.day_records({2015, 6, 11})));

  const auto serial = ew::analytics::aggregate_day(lake, day);
  ASSERT_TRUE(serial.scan.ok());
  ASSERT_GT(serial.scan.records_delivered, 0u);
  ASSERT_GT(lake.load_day_blocks(day).blocks().size(), 1u);

  ThreadPool pool(4);
  const auto parallel = ew::analytics::aggregate_day_parallel(lake, day, pool);
  EXPECT_EQ(parallel.scan.records_delivered, serial.scan.records_delivered);
  EXPECT_EQ(parallel.scan.blocks_skipped, serial.scan.blocks_skipped);
  EXPECT_EQ(parallel.scan.errc, serial.scan.errc);
  expect_aggregates_equal(parallel.aggregate, serial.aggregate);
}

TEST(ParallelAnalytics, DayFanOutReproducesSerialAggregates) {
  TempLakeDir dir;
  ew::storage::DataLake lake(dir.path);
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(7, 0.1)};
  const std::vector<ew::core::CivilDate> days = {
      {2014, 3, 3}, {2015, 6, 10}, {2016, 9, 20}, {2017, 1, 5}};
  for (const auto day : days) ASSERT_TRUE(lake.append(day, gen.day_records(day)));

  ThreadPool pool(4);
  const auto results = ew::analytics::aggregate_days_parallel(lake, days, pool);
  ASSERT_EQ(results.size(), days.size());
  for (std::size_t i = 0; i < days.size(); ++i) {
    const auto serial = ew::analytics::aggregate_day(lake, days[i]);
    EXPECT_EQ(results[i].scan.records_delivered, serial.scan.records_delivered);
    EXPECT_EQ(results[i].scan.errc, serial.scan.errc);
    expect_aggregates_equal(results[i].aggregate, serial.aggregate);
  }
}

TEST(ParallelAnalytics, DamagedDayReportsSameStatusAsSerialScan) {
  TempLakeDir dir;
  ew::storage::DataLake lake(dir.path);
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(7, 0.2)};
  const ew::core::CivilDate day{2015, 6, 10};
  ASSERT_TRUE(lake.append(day, gen.day_records(day)));
  ASSERT_TRUE(lake.append(day, gen.day_records({2015, 6, 12})));

  // Flip bytes mid-file: CRC framing quarantines the damaged block(s).
  const auto path = dir.path / ew::storage::DataLake::day_filename(day);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) / 2));
    const char junk[32] = {};
    f.write(junk, sizeof junk);
  }

  const auto serial = ew::analytics::aggregate_day(lake, day);
  EXPECT_EQ(serial.scan.errc, ew::core::Errc::kCorrupt);
  EXPECT_GT(serial.scan.blocks_skipped, 0u);

  ThreadPool pool(4);
  const auto parallel = ew::analytics::aggregate_day_parallel(lake, day, pool);
  EXPECT_EQ(parallel.scan.records_delivered, serial.scan.records_delivered);
  EXPECT_EQ(parallel.scan.blocks_skipped, serial.scan.blocks_skipped);
  EXPECT_EQ(parallel.scan.errc, serial.scan.errc);
  expect_aggregates_equal(parallel.aggregate, serial.aggregate);

  const auto missing = ew::analytics::aggregate_day_parallel(lake, {2019, 1, 1}, pool);
  EXPECT_EQ(missing.scan.errc, ew::core::Errc::kNotFound);
  EXPECT_TRUE(missing.aggregate.subscribers.empty());
}

TEST(ParallelAnalytics, ProjectedScanReproducesFullDecodeAggregate) {
  // aggregate_day pushes kDayAggregateScanFields down to the block decoder by
  // default; this is the check parallel.hpp promises keeps that mask
  // honest — the projected aggregate must be bit-identical to one built
  // from fully-materialized records, or add() grew a field read the
  // projection no longer covers.
  TempLakeDir dir;
  ew::storage::DataLake lake(dir.path);
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(7, 0.2)};
  const ew::core::CivilDate day{2015, 6, 10};
  ASSERT_TRUE(lake.append(day, gen.day_records(day)));

  const auto projected = ew::analytics::aggregate_day(lake, day);
  ASSERT_TRUE(projected.scan.ok());
  ASSERT_GT(projected.scan.records_delivered, 0u);

  ew::storage::ScanScratch scratch;
  const auto all = ew::storage::ScanPredicate::project(ew::storage::scan_fields::kAll);
  const auto full = ew::analytics::aggregate_day(lake, day, scratch, &all);
  ASSERT_TRUE(full.scan.ok());
  EXPECT_EQ(projected.scan.records_delivered, full.scan.records_delivered);
  expect_aggregates_equal(projected.aggregate, full.aggregate);
}

TEST(ParallelScan, DecompressIntoReusesScratchBuffer) {
  std::vector<std::byte> input;
  for (int i = 0; i < 10000; ++i) {
    input.push_back(static_cast<std::byte>(i % 7));  // compressible
  }
  const auto compressed = ew::storage::compress_block(input);
  std::vector<std::byte> scratch;
  ASSERT_TRUE(ew::storage::decompress_block_into(compressed, scratch));
  EXPECT_EQ(scratch, input);
  const auto* before = scratch.data();
  ASSERT_TRUE(ew::storage::decompress_block_into(compressed, scratch));
  EXPECT_EQ(scratch, input);
  EXPECT_EQ(scratch.data(), before);  // capacity reused, no realloc

  ASSERT_FALSE(ew::storage::decompress_block_into(std::span<const std::byte>{}, scratch));
  EXPECT_TRUE(scratch.empty());  // failure leaves it cleared
}
