// Allocation guard for the probe's DNS path. Once a probe has watched a
// fixed set of clients resolve their names, more DNS responses, and the
// DN-Hunter lookups of the flows that follow them, must not touch the heap:
// each response parses into the probe's scratch message and refreshes slab
// entries in place, and its UDP packet only updates its flow and recycles
// the flow table's expiry FIFO blocks.
// This executable replaces global operator new (see alloc_counter.hpp), so
// it holds no other tests.
#include "alloc_counter.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "net/packet.hpp"
#include "probe/probe.hpp"

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
