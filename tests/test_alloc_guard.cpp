// Allocation guard for the probe's DNS path. Once a probe has watched a
// fixed set of clients resolve their names, more DNS responses, and the
// DN-Hunter lookups of the flows that follow them, must not touch the heap:
// each response parses into the probe's scratch message and refreshes slab
// entries in place, and its UDP packet only updates its flow and recycles
// the flow table's expiry FIFO blocks. A new TCP flow takes a released
// flow slot, whose RTT segment buffer it reuses, and the sharded probe
// hands frames over in recycled batch arenas.
// This executable replaces global operator new (see alloc_counter.hpp), so
// it holds no other tests.
#include "alloc_counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dns/message.hpp"
#include "net/packet.hpp"
#include "probe/probe.hpp"
#include "probe/sharded_probe.hpp"

namespace ew = edgewatch;
using ew::core::IPv4Address;
using ew::core::Timestamp;

namespace {

constexpr int kClients = 32;
const IPv4Address kResolver{192, 168, 1, 53};

IPv4Address client_at(int i) { return IPv4Address{10, 1, 0, static_cast<std::uint8_t>(i + 1)}; }

/// The names the clients keep re-resolving. Long enough that no name fits
/// a std::string's inline buffer, with one-, two- and CNAME-chained answers
/// so a reused message meets shorter responses after longer ones.
std::vector<std::byte> response_wire(int name) {
  const std::string host = "service-" + std::to_string(name) + ".video-cdn.example.com";
  const IPv4Address first{45, 57, static_cast<std::uint8_t>(name), 1};
  const IPv4Address second{45, 57, static_cast<std::uint8_t>(name), 2};
  if (name % 3 == 2) {
    ew::dns::Message msg;
    msg.id = static_cast<std::uint16_t>(name);
    msg.is_response = true;
    msg.questions.push_back({host, 1, 1});
    ew::dns::Answer alias;
    alias.name = host;
    alias.type = ew::dns::RecordType::kCname;
    alias.cname = "edge-" + std::to_string(name) + ".cache-node.example.net";
    msg.answers.push_back(alias);
    ew::dns::Answer a;
    a.name = alias.cname;
    a.type = ew::dns::RecordType::kA;
    a.address = first;
    msg.answers.push_back(a);
    return ew::dns::serialize(msg);
  }
  const IPv4Address addrs[] = {first, second};
  return ew::dns::serialize(ew::dns::make_a_response(
      static_cast<std::uint16_t>(name), host, std::span(addrs, name % 3 == 0 ? 2 : 1)));
}

/// One DNS response per (client, name), each client always answered on the
/// same port so its DNS flow stays one flow.
std::vector<ew::net::Frame> responses_at(int names, Timestamp start) {
  std::vector<ew::net::Frame> frames;
  std::int64_t t = start.micros();
  for (int n = 0; n < names; ++n) {
    const auto wire = response_wire(n);
    for (int c = 0; c < kClients; ++c) {
      frames.push_back(ew::net::PacketBuilder{}
                           .ts(Timestamp{t += 100})
                           .ip(kResolver, client_at(c))
                           .udp(53, 40053)
                           .payload(wire)
                           .build());
    }
  }
  return frames;
}

constexpr int kNames = 12;
const Timestamp kStart = Timestamp::from_seconds(1'500'000'000);

/// Each client's responses as responses_at() renders them, each followed
/// 50 us later by the client's SYN to the first address it resolved, from
/// a port unique to (round, name): every SYN opens a new TCP flow.
std::vector<ew::net::Frame> responses_and_syns_at(int round, Timestamp start) {
  std::vector<ew::net::Frame> frames;
  const auto responses = responses_at(kNames, start);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const int name = static_cast<int>(i) / kClients;
    const int client = static_cast<int>(i) % kClients;
    frames.push_back(responses[i]);
    frames.push_back(
        ew::net::PacketBuilder{}
            .ts(Timestamp{responses[i].timestamp.micros() + 50})
            .ip(client_at(client), IPv4Address{45, 57, static_cast<std::uint8_t>(name), 1})
            .tcp(static_cast<std::uint16_t>(20000 + round * kNames + name), 443, 1000, 0,
                 ew::net::TcpFlags::kSyn)
            .build());
  }
  return frames;
}

/// The clients re-resolve every 10 s. Warming over more rounds than the
/// flow table's 120 s UDP idle timeout spans brings its expiry FIFO to a
/// steady state too: each round then retires as many checkpoints as it
/// queues.
constexpr int kWarmRounds = 15;
Timestamp round_start(int round) {
  return Timestamp{kStart.micros() + std::int64_t{round} * 10'000'000};
}

}  // namespace

TEST(AllocGuard, SteadyStateDnsResponsesAllocateNothing) {
  std::uint64_t exported = 0;
  ew::probe::Probe probe{{}, [&exported](ew::flow::FlowRecord&&) { ++exported; }};
  for (int round = 0; round < kWarmRounds; ++round) {
    for (const auto& frame : responses_at(kNames, round_start(round))) probe.process(frame);
  }
  // Built before counting: only the probe's work is measured.
  const auto single = responses_at(kNames, round_start(kWarmRounds));
  const auto batch = responses_at(kNames, round_start(kWarmRounds + 1));
  const std::uint64_t responses_before = probe.counters().dns_responses;
  const std::uint64_t inserted_before = probe.dnhunter().counters().entries_inserted;

  const ew::testing::AllocationScope scope;
  for (const auto& frame : single) probe.process(frame);  // frame by frame
  probe.process(std::span<const ew::net::Frame>(batch));  // the pipelined replay
  const std::uint64_t allocations = scope.count();

  EXPECT_EQ(probe.counters().dns_responses - responses_before, single.size() + batch.size());
  // Every response re-resolved a cached name: nothing new was inserted.
  EXPECT_EQ(probe.dnhunter().counters().entries_inserted, inserted_before);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(exported, 0u);
}

TEST(AllocGuard, DnHunterLookupsOfTheFollowingFlowsAllocateNothing) {
  // The DN-Hunter work of one response and the flow after it, as the probe
  // does it: parse into one scratch message, observe, and look the flow's
  // server up. (A new TCP flow's own state in the flow table is not part
  // of this path.)
  std::vector<std::vector<std::byte>> wires;
  for (int n = 0; n < kNames; ++n) wires.push_back(response_wire(n));
  ew::dns::DnHunter hunter;
  ew::dns::Message scratch;
  std::uint64_t named = 0;
  const auto round = [&](int r) {
    std::int64_t t = round_start(r).micros();
    for (int n = 0; n < kNames; ++n) {
      const IPv4Address server{45, 57, static_cast<std::uint8_t>(n), 1};
      for (int c = 0; c < kClients; ++c) {
        if (!ew::dns::parse_into(wires[static_cast<std::size_t>(n)], scratch)) return;
        hunter.observe_response(client_at(c), scratch, Timestamp{t += 100});
        named += hunter.lookup(client_at(c), server, Timestamp{t += 100}).has_value();
      }
    }
  };
  for (int r = 0; r < kWarmRounds; ++r) round(r);
  named = 0;

  const ew::testing::AllocationScope scope;
  round(kWarmRounds);
  const std::uint64_t allocations = scope.count();

  EXPECT_EQ(named, std::uint64_t{kNames} * kClients);
  EXPECT_EQ(allocations, 0u);
}

TEST(AllocGuard, NewTcpFlowsAfterDnsResponsesAllocateNothing) {
  std::uint64_t exported = 0;
  ew::probe::Probe probe{{}, [&exported](ew::flow::FlowRecord&&) { ++exported; }};
  constexpr int kSynRounds = 3;
  for (int round = 0; round < kSynRounds; ++round) {
    for (const auto& frame : responses_and_syns_at(round, round_start(round))) {
      probe.process(frame);
    }
  }
  // The clients keep resolving until every SYN's flow has passed the TCP
  // idle timeout: those flows are exported and their slots freed, while
  // the DNS flows stay open. So the measured round opens its TCP flows in
  // slots TCP flows left, and exports nothing (an export builds its
  // record's name string).
  const int quiet_end =
      kSynRounds + static_cast<int>(ew::flow::FlowTableConfig{}.tcp_idle_timeout_us / 10'000'000) + 2;
  for (int round = kSynRounds; round < quiet_end; ++round) {
    for (const auto& frame : responses_at(kNames, round_start(round))) probe.process(frame);
  }
  ASSERT_EQ(probe.table().active_flows(), std::size_t{kClients});
  const auto round = responses_and_syns_at(quiet_end, round_start(quiet_end));
  const std::uint64_t exported_before = exported;
  const std::uint64_t flows_before = probe.table().counters().flows_created;

  const ew::testing::AllocationScope scope;
  probe.process(std::span<const ew::net::Frame>(round));
  const std::uint64_t allocations = scope.count();

  EXPECT_EQ(probe.table().counters().flows_created - flows_before, round.size() / 2);
  EXPECT_EQ(exported, exported_before);
  EXPECT_EQ(allocations, 0u);
}

TEST(AllocGuard, ShardedSteadyStateAllocatesNothing) {
  // A shard makes at most queue_capacity batches. The warm-up holds the
  // workers at a gate while try_ingest fills each shard, which makes all
  // of them: with batches of one frame, every batch is in use at once.
  // After that, no pass can need a new batch, whatever the timing.
  ew::probe::ShardedProbeConfig config;
  config.shards = 2;
  config.queue_capacity = 8;
  std::atomic<bool> gate{true};
  config.frame_inspector = [&gate](std::uint64_t, ew::net::FrameView) {
    while (gate.load(std::memory_order_acquire)) std::this_thread::yield();
  };
  ew::probe::ShardedProbe probe{config};
  const auto ingest = [&probe](const std::vector<ew::net::Frame>& frames) {
    for (const auto& frame : frames) probe.ingest(frame);
  };
  const auto try_ingest = [&probe](const std::vector<ew::net::Frame>& frames) {
    for (const auto& frame : frames) {
      while (!probe.try_ingest(frame)) std::this_thread::yield();
    }
  };
  const auto drain = [&probe] {
    for (std::size_t s = 0; s < probe.shard_count(); ++s) {
      while (probe.queue_depth(s) != 0) std::this_thread::yield();
    }
  };
  std::uint64_t filled = 0;
  for (const auto& frame : responses_at(kNames, round_start(0))) {
    if (probe.queue_depth(0) == config.queue_capacity &&
        probe.queue_depth(1) == config.queue_capacity) {
      break;
    }
    filled += probe.try_ingest(frame) ? 1 : 0;  // a full shard refuses
  }
  ASSERT_EQ(probe.queue_depth(0), config.queue_capacity);
  ASSERT_EQ(probe.queue_depth(1), config.queue_capacity);
  gate.store(false, std::memory_order_release);
  drain();
  for (int round = 1; round < kWarmRounds; ++round) {
    const auto frames = responses_at(kNames, round_start(round));
    if (round % 2 == 0) {
      ingest(frames);
    } else {
      try_ingest(frames);
    }
  }
  const auto blocking = responses_at(kNames, round_start(kWarmRounds));
  const auto non_blocking = responses_at(kNames, round_start(kWarmRounds + 1));

  const ew::testing::AllocationScope scope;
  ingest(blocking);
  try_ingest(non_blocking);  // publishes every frame, and the staged ones before them
  drain();
  const std::uint64_t allocations = scope.count();

  (void)probe.finish();
  EXPECT_EQ(probe.counters().dns_responses,
            filled + std::uint64_t{kWarmRounds + 1} * kNames * kClients);
  EXPECT_EQ(allocations, 0u);
}

TEST(ShardedProbe, WorkerThrowMidRunQuarantinesOnlyThatFrame) {
  // With no frame inspector, a shard replays a whole batch as one run, cut
  // only where a snapshot falls due. Fail each of the worker's allocations
  // in turn, as an exhausted heap would: whether it lands on a frame in the
  // middle of a run or on the snapshot that ends one, exactly one frame must
  // be quarantined, the shard must roll back to its last snapshot (or reset
  // without one) and resume at the next frame. Every SYN opens a TCP flow
  // and nothing expires mid-stream, so the TCP records that survive count
  // the frames replayed after the rollback point.
  const auto frames = responses_and_syns_at(0, kStart);
  constexpr std::size_t kBatch = 256;  // the default ring's batches: three runs
  ASSERT_EQ(frames.size() % kBatch, 0u);
  const auto syns_in = [](std::uint64_t from, std::uint64_t to) {
    std::uint64_t n = 0;
    for (std::uint64_t seq = from; seq < to; ++seq) n += seq % 2;  // SYNs at odd seqs
    return n;
  };
  for (const std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{7}}) {
    ew::probe::ShardedProbeConfig config;
    config.shards = 1;
    config.snapshot_interval = interval;
    std::vector<std::uint64_t> poisoned;
    config.poison_sink = [&poisoned](std::uint64_t seq, ew::net::FrameView, bool) {
      poisoned.push_back(seq);
    };
    // Runs the capture with the worker's n-th allocation failing (none for
    // n == 0) and returns the worker's allocations while it replayed.
    const auto run = [&](std::uint64_t n, std::vector<ew::flow::FlowRecord>& records,
                         ew::probe::ShardedProbe& probe) {
      (void)probe.snapshot();  // the worker's start-up snapshot is behind it
      const ew::testing::FailForeignAllocation fail{n};
      const std::uint64_t before = fail.foreign();
      for (const auto& frame : frames) probe.ingest(frame);
      while (probe.queue_depth(0) != 0) std::this_thread::yield();
      const std::uint64_t replayed = fail.foreign() - before;
      records = probe.finish();  // after the scope: finish()'s own allocations succeed
      return replayed;
    };
    std::vector<ew::flow::FlowRecord> records;
    std::uint64_t allocations = 0;
    {
      ew::probe::ShardedProbe probe{config};
      allocations = run(0, records, probe);
    }
    ASSERT_GT(allocations, 0u) << "interval=" << interval;
    ASSERT_TRUE(poisoned.empty());
    // Some forty failure points spread over the replay (every allocation
    // would take a minute: snapshots allocate a score of times each).
    bool mid_run = false;
    const std::uint64_t stride = std::max<std::uint64_t>(1, allocations / 41);
    for (std::uint64_t n = 1; n <= allocations; n += stride) {
      poisoned.clear();
      ew::probe::ShardedProbe probe{config};
      (void)run(n, records, probe);
      const auto where = ::testing::Message() << "interval=" << interval << " n=" << n;
      ASSERT_EQ(poisoned.size(), 1u) << where;
      EXPECT_EQ(probe.quarantined_total(), 1u) << where;
      EXPECT_EQ(probe.heartbeat(0), frames.size() + 1) << where;  // + the snapshot barrier
      const std::uint64_t seq = poisoned.front();
      mid_run = mid_run || seq % kBatch != 0;
      // Rolled back to the snapshot after the last whole interval before
      // the frame (to empty without snapshots), resumed after it.
      const std::uint64_t kept = interval == 0 ? 0 : seq / interval * interval;
      std::uint64_t tcp = 0;
      for (const auto& r : records) tcp += r.server_port == 443 ? 1 : 0;
      EXPECT_EQ(tcp, syns_in(0, kept) + syns_in(seq + 1, frames.size()))
          << where << " seq=" << seq;
    }
    EXPECT_TRUE(mid_run) << "interval=" << interval;
  }
}
