// Golden tests for the per-packet hot-path overhaul: every data-structure
// swap and the pipelined replay must be *behaviorally invisible*.
//
//   - the software-pipelined Probe::process(span) replay produces a
//     byte-identical export stream and identical counters to the one-frame
//     process() loop, across batch boundaries and junk frames;
//   - ShardedProbe stays byte-identical to the (pipelined) serial probe for
//     N ∈ {1, 2, 4, 8} shards;
//   - DayAggregate on FlatHashMap matches a std::unordered_map oracle;
//   - the compiled rule matcher (interned exact map, reversed-label trie,
//     regex prefilter) agrees with a reference implementation of the old
//     matcher on randomized rule sets and adversarial domains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "core/bytes.hpp"
#include "core/types.hpp"
#include "net/packet.hpp"
#include "probe/sharded_probe.hpp"
#include "services/catalog.hpp"
#include "services/regex.hpp"
#include "services/rules.hpp"
#include "storage/codec.hpp"
#include "synth/generator.hpp"
#include "synth/packets.hpp"

namespace ew = edgewatch;
using ew::core::IPv4Address;
using ew::core::Timestamp;
using ew::flow::FlowRecord;

namespace {

constexpr IPv4Address kResolver{10, 255, 255, 53};

/// A malformed or non-IPv4 frame with the given ethertype: exercises the
/// ipv6/decode-failure counting paths inside the pipelined loop.
ew::net::Frame junk_frame(std::uint16_t ethertype, std::size_t extra, Timestamp ts) {
  std::vector<std::byte> data(14 + extra, std::byte{0xab});
  data[12] = static_cast<std::byte>(ethertype >> 8);
  data[13] = static_cast<std::byte>(ethertype & 0xff);
  return {ts, std::move(data)};
}

/// Deterministic mixed workload: DNS-preceded TLS/HTTP conversations over
/// several clients, plus IPv6 frames, an ARP frame and a truncated runt
/// sprinkled through the timeline.
std::vector<ew::net::Frame> make_workload() {
  struct Site {
    IPv4Address ip;
    const char* name;
  };
  const Site sites[] = {
      {{93, 184, 216, 34}, "www.repubblica.it"},
      {{31, 13, 86, 36}, "edge-star.facebook.com"},
      {{173, 194, 11, 7}, "r3---sn.googlevideo.com"},
      {{198, 38, 120, 10}, "occ-1.nflxvideo.net"},
  };
  std::vector<ew::net::Frame> frames;
  for (int c = 0; c < 16; ++c) {
    const IPv4Address client{10, static_cast<std::uint8_t>(c % 2 == 0 ? 0 : 200), 7,
                             static_cast<std::uint8_t>(10 + c)};
    for (int k = 0; k < 3; ++k) {
      const auto& site = sites[static_cast<std::size_t>((c + k) % 4)];
      const std::int64_t start_us = 50'000'000LL + (c * 1103 + k * 17) * 1000LL;
      const IPv4Address addrs[] = {site.ip};
      frames.push_back(ew::synth::render_dns_response(client, kResolver, site.name, addrs,
                                                      Timestamp{start_us - 30'000}));
      ew::synth::ConversationSpec spec;
      spec.client = client;
      spec.server = site.ip;
      spec.client_port = static_cast<std::uint16_t>(42000 + c * 4 + k);
      spec.web = k == 1 ? ew::dpi::WebProtocol::kHttp : ew::dpi::WebProtocol::kTls;
      spec.server_name = site.name;
      spec.response_bytes = static_cast<std::size_t>(2000 + c * 311 + k * 701);
      spec.start = Timestamp{start_us};
      spec.rtt_us = 9'000 + c * 450;
      spec.teardown = (c + k) % 3 != 0;
      const auto conv = ew::synth::render_conversation(spec);
      frames.insert(frames.end(), conv.begin(), conv.end());
    }
    // Non-flow traffic between conversations.
    const std::int64_t t = 50'000'000LL + c * 997'000LL;
    frames.push_back(junk_frame(0x86DD, 48, Timestamp{t}));  // IPv6
    frames.push_back(junk_frame(0x0806, 28, Timestamp{t + 1}));  // ARP → decode failure
    frames.push_back({Timestamp{t + 2}, std::vector<std::byte>(6, std::byte{0x55})});  // runt
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

std::vector<FlowRecord> sorted_by_seq(std::vector<FlowRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.ingest_seq < b.ingest_seq;
                   });
  return records;
}

void expect_counters_equal(const ew::probe::Probe::Counters& a,
                           const ew::probe::Probe::Counters& b) {
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.decode_failures, b.decode_failures);
  EXPECT_EQ(a.ipv6_frames, b.ipv6_frames);
  EXPECT_EQ(a.dropped_offline, b.dropped_offline);
  EXPECT_EQ(a.dns_responses, b.dns_responses);
  EXPECT_EQ(a.records_exported, b.records_exported);
  EXPECT_EQ(a.records_named_by_dns, b.records_named_by_dns);
}

struct Replay {
  std::vector<FlowRecord> records;
  ew::probe::Probe::Counters counters;
};

/// Run the workload through a probe, feeding frames in batches of
/// `batch` (0 = one process(frame) call per frame).
Replay replay(const std::vector<ew::net::Frame>& frames, std::size_t batch,
              const ew::probe::ProbeConfig& cfg = {}) {
  Replay out;
  ew::probe::Probe probe(cfg,
                         [&out](FlowRecord&& r) { out.records.push_back(std::move(r)); });
  if (batch == 0) {
    for (const auto& f : frames) probe.process(f);
  } else {
    const std::span<const ew::net::Frame> all(frames);
    for (std::size_t i = 0; i < all.size(); i += batch) {
      probe.process(all.subspan(i, std::min(batch, all.size() - i)));
    }
  }
  probe.finish();
  out.counters = probe.counters();
  out.records = sorted_by_seq(std::move(out.records));
  return out;
}

}  // namespace

// ------------------------------------------------ pipelined replay golden

TEST(HotpathGolden, PipelinedReplayMatchesPerFrameReplay) {
  const auto frames = make_workload();
  const auto reference = replay(frames, 0);
  ASSERT_FALSE(reference.records.empty());
  EXPECT_GT(reference.counters.ipv6_frames, 0u);
  EXPECT_GT(reference.counters.decode_failures, 0u);

  const auto expected = encode_stream(reference.records);
  // Whole-trace span, single-frame spans, and awkward batch sizes that cut
  // the pipeline's lookahead mid-conversation must all be invisible.
  for (const std::size_t batch : {frames.size(), std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{64}}) {
    const auto got = replay(frames, batch);
    EXPECT_EQ(encode_stream(got.records), expected) << "batch=" << batch;
    expect_counters_equal(got.counters, reference.counters);
  }
}

// --------------------------------------------------- sharded stream golden

TEST(HotpathGolden, ShardedStreamMatchesPipelinedSerialForEveryShardCount) {
  const auto frames = make_workload();
  const ew::probe::ProbeConfig cfg;
  const auto reference = replay(frames, frames.size(), cfg);
  const auto expected = encode_stream(reference.records);
  ASSERT_FALSE(expected.empty());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    ew::probe::ShardedProbeConfig scfg;
    scfg.probe = cfg;
    scfg.shards = shards;
    scfg.queue_capacity = 64;
    ew::probe::ShardedProbe sp(scfg);
    for (const auto& f : frames) sp.ingest(f);
    EXPECT_EQ(encode_stream(sp.finish()), expected) << "shards=" << shards;
    const auto c = sp.counters();
    EXPECT_EQ(c.records_exported, reference.counters.records_exported) << "shards=" << shards;
    EXPECT_EQ(c.ipv6_frames, reference.counters.ipv6_frames) << "shards=" << shards;
    EXPECT_EQ(c.decode_failures, reference.counters.decode_failures) << "shards=" << shards;
  }
}

// -------------------------------------------------- day-aggregate golden

namespace {

struct OracleSub {
  std::uint64_t flows = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
};

}  // namespace

TEST(HotpathGolden, DayAggregateMatchesUnorderedMapOracle) {
  const auto frames = make_workload();
  const auto records = replay(frames, frames.size()).records;
  ASSERT_FALSE(records.empty());

  ew::analytics::DayAggregator aggregator({2015, 6, 10});
  std::unordered_map<std::uint32_t, OracleSub> oracle_subs;
  std::unordered_map<std::uint32_t, std::uint64_t> oracle_servers;
  for (const auto& r : records) {
    aggregator.add(r);
    auto& sub = oracle_subs[r.client_ip.value()];
    ++sub.flows;
    sub.bytes_up += r.up.bytes;
    sub.bytes_down += r.down.bytes;
    oracle_servers[r.server_ip.value()] += r.total_bytes();
  }
  const auto agg = std::move(aggregator).take();

  ASSERT_EQ(agg.subscribers.size(), oracle_subs.size());
  for (const auto& [ip, expected] : oracle_subs) {
    const auto it = agg.subscribers.find(IPv4Address{ip});
    ASSERT_NE(it, agg.subscribers.end());
    EXPECT_EQ(it->second.flows, expected.flows);
    EXPECT_EQ(it->second.bytes_up, expected.bytes_up);
    EXPECT_EQ(it->second.bytes_down, expected.bytes_down);
  }
  ASSERT_EQ(agg.server_ips.size(), oracle_servers.size());
  for (const auto& [ip, bytes] : oracle_servers) {
    const auto it = agg.server_ips.find(IPv4Address{ip});
    ASSERT_NE(it, agg.server_ips.end());
    EXPECT_EQ(it->second.bytes, bytes);
  }
}

// ------------------------------------------------ compiled matcher golden

namespace {

/// Reference reimplementation of the pre-overhaul matcher: allocating
/// lowercase normalize, std::unordered_map exact probe, one map probe per
/// label boundary for suffixes (longest wins), regexes with no prefilter.
class LegacyRuleEngine {
 public:
  void add_exact(std::string_view domain, std::string_view service) {
    exact_[normalize(domain)] = std::string(service);
  }
  void add_suffix(std::string_view suffix, std::string_view service) {
    suffix_[normalize(suffix)] = std::string(service);
  }
  bool add_regex(std::string_view pattern, std::string_view service) {
    auto re = ew::services::Regex::compile(pattern);
    if (!re) return false;
    regex_.push_back({std::move(*re), std::string(service)});
    return true;
  }

  [[nodiscard]] std::optional<std::string_view> classify(std::string_view domain) const {
    const std::string name = normalize(domain);
    if (const auto it = exact_.find(name); it != exact_.end()) return it->second;
    for (std::size_t pos = 0; pos < name.size();) {
      if (const auto it = suffix_.find(name.substr(pos)); it != suffix_.end()) {
        return it->second;
      }
      const auto dot = name.find('.', pos);
      if (dot == std::string::npos) break;
      pos = dot + 1;
    }
    for (const auto& rule : regex_) {
      if (rule.re.search(name)) return rule.service;
    }
    return std::nullopt;
  }

 private:
  static std::string normalize(std::string_view domain) {
    std::string out(domain);
    for (char& c : out) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    if (!out.empty() && out.back() == '.') out.pop_back();
    return out;
  }

  struct RegexRule {
    ew::services::Regex re;
    std::string service;
  };
  std::unordered_map<std::string, std::string> exact_;
  std::unordered_map<std::string, std::string> suffix_;
  std::vector<RegexRule> regex_;
};

void expect_engines_agree(const ew::services::RuleEngine& compiled,
                          const LegacyRuleEngine& legacy,
                          const std::vector<std::string>& domains) {
  for (const auto& d : domains) {
    const auto a = compiled.classify(d);
    const auto b = legacy.classify(d);
    EXPECT_EQ(a.has_value(), b.has_value()) << "domain '" << d << "'";
    if (a && b) {
      EXPECT_EQ(*a, *b) << "domain '" << d << "'";
    }
  }
}

}  // namespace

TEST(HotpathGolden, CompiledMatcherMatchesLegacyOnCuratedEdgeCases) {
  ew::services::RuleEngine compiled;
  LegacyRuleEngine legacy;
  const auto both = [&](auto fn) {
    fn(compiled);
    fn(legacy);
  };
  both([](auto& e) { e.add_exact("netflix.com", "NetflixFront"); });
  both([](auto& e) { e.add_suffix("netflix.com", "Netflix"); });
  both([](auto& e) { e.add_suffix("video.netflix.com", "NetflixVideo"); });  // longer wins
  both([](auto& e) { e.add_suffix("fbcdn.net", "Facebook"); });
  both([](auto& e) { e.add_suffix("net", "NetTld"); });  // one-label suffix rule
  both([](auto& e) { e.add_exact("a", "SingleLabel"); });
  both([](auto& e) { e.add_regex("^r[0-9]+---sn-[a-z0-9]+\\.googlevideo\\.com$", "YouTube"); });

  const std::vector<std::string> domains = {
      "netflix.com",            // exact beats the identical suffix
      "NETFLIX.COM",            // case-folded exact
      "netflix.com.",           // trailing dot stripped, then exact
      "www.netflix.com",        // plain suffix
      "cdn.video.netflix.com",  // longest suffix wins over netflix.com
      "video.netflix.com",      // suffix rule matching at its own length
      "notnetflix.com",         // label boundary: must NOT match netflix.com
      "xnetflix.com",
      "netflix.com.evil.example",  // suffix only at the tail
      "static.xx.fbcdn.net",
      "whatsapp.net",           // covered by the "net" TLD rule
      "net",                    // the TLD itself
      "a",                      // single-label exact
      "a.",                     // ... with trailing dot
      "",                       // empty input
      ".",                      // dot only
      "..",                     // consecutive dots
      ".netflix.com",           // leading dot: empty first label
      "r3---sn-4g5e6nsz.googlevideo.com",  // regex hit
      "R3---SN-ABC123.GOOGLEVIDEO.COM",    // regex after case folding
      "r3---sn-4g5e6nsz.googlevideo.com.x",  // anchored regex must miss
      "example.org",
  };
  expect_engines_agree(compiled, legacy, domains);
}

TEST(HotpathGolden, CompiledMatcherMatchesLegacyOnRandomizedRulesAndDomains) {
  // Deterministic xorshift so failures reproduce.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  static constexpr const char* kLabels[] = {"cdn", "static", "edge", "video", "img",
                                            "api", "x1", "srv-9", "media", "login"};
  static constexpr const char* kSlds[] = {"netflix", "fbcdn", "googlevideo", "shop",
                                          "stream", "example"};
  static constexpr const char* kTlds[] = {"com", "net", "it", "org"};
  const auto random_domain = [&](std::size_t max_depth) {
    std::string d;
    const std::size_t depth = next() % max_depth;
    for (std::size_t i = 0; i < depth; ++i) {
      d += kLabels[next() % std::size(kLabels)];
      d += '.';
    }
    d += kSlds[next() % std::size(kSlds)];
    d += '.';
    d += kTlds[next() % std::size(kTlds)];
    if (next() % 8 == 0) d += '.';      // trailing dot
    if (next() % 4 == 0) {              // random upper-casing
      for (char& c : d) {
        if (next() % 3 == 0 && c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
      }
    }
    return d;
  };

  for (int round = 0; round < 8; ++round) {
    ew::services::RuleEngine compiled;
    LegacyRuleEngine legacy;
    for (int i = 0; i < 12; ++i) {
      const std::string target = random_domain(3);
      const std::string service = "svc" + std::to_string(i % 5);
      if (i % 3 == 0) {
        compiled.add_exact(target, service);
        legacy.add_exact(target, service);
      } else {
        compiled.add_suffix(target, service);
        legacy.add_suffix(target, service);
      }
    }
    std::vector<std::string> domains;
    for (int i = 0; i < 400; ++i) domains.push_back(random_domain(5));
    expect_engines_agree(compiled, legacy, domains);
  }
}
