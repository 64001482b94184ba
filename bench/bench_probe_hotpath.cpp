// Per-packet hot-path microbench (run by scripts/bench.sh). A plain main()
// that isolates the stages the hot-path overhaul touched and writes a
// machine-readable fragment for BENCH_pipeline.json:
//
//   - flow-table churn: the packet→flow resolution loop (orientation-aware
//     find + insert + expiry erase) on the open-addressing FlatHashMap vs
//     the same loop on std::unordered_map with the old two-probe lookup;
//   - domain classification: the compiled rule matcher (interned exact map,
//     reversed-label trie, regex literal prefilter) vs an in-bench legacy
//     reference (allocating normalize, per-boundary suffix probes, no
//     regex prefilter) over an identical rule set and domain corpus;
//   - frame decode throughput (headers parsed in place);
//   - the end-to-end serial probe, the number the 2x acceptance gate reads.
//
// The fragment records its host as perfbench's history does: CPUs this
// process may run on, CPU model, build type and git commit.
//
// Usage: bench_probe_hotpath [conversations] [repeats] [out.json]
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/flat_hash_map.hpp"
#include "core/types.hpp"
#include "flow/table.hpp"
#include "net/packet.hpp"
#include "probe/probe.hpp"
#include "services/regex.hpp"
#include "services/rules.hpp"
#include "synth/generator.hpp"
#include "synth/packets.hpp"

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

/// Best-of-`repeats` wall time for `fn` (one untimed warmup run).
template <typename Fn>
double best_seconds(int repeats, Fn&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

// ------------------------------------------------------------------- host

/// CPUs this process may run on (its affinity mask, as perfbench counts).
unsigned cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto begin = line.find_first_not_of(" \t", colon + 1);
    return begin == std::string::npos ? std::string{} : line.substr(begin);
  }
  return "unknown";
}

/// HEAD of the source tree this binary was built from, with "-dirty" when
/// tracked files differ from it; "" outside git.
std::string git_commit() {
  std::string sha;
  if (FILE* p = popen("git -C \"" EW_SOURCE_DIR
                      "\" describe --always --dirty --abbrev=40 --exclude='*' 2>/dev/null",
                      "r")) {
    char buf[80] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Sample {
  std::string name;
  double seconds = 0;
  double items_per_sec = 0;
  double speedup = 1.0;  ///< vs this sample's in-bench reference (1.0 = none).
};

void append_json(std::string& out, const Sample& s) {
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "    {\"name\": \"%s\", \"seconds\": %.4f, \"items_per_sec\": %.0f, "
                "\"speedup\": %.2f}",
                s.name.c_str(), s.seconds, s.items_per_sec, s.speedup);
  if (!out.empty()) out += ",\n";
  out += buf;
}

// ---------------------------------------------------------------- rule sets

/// Pre-overhaul rule matcher, reimplemented here as the comparison
/// baseline: allocating lowercase normalize, std::unordered_map exact
/// probe, one full-string map probe per suffix boundary, regexes tried
/// without a literal prefilter.
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
    // Longest matching suffix: probe every label boundary, left to right.
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

/// Feed the same representative rule base (the shape of the paper's
/// Table 1) to any engine with add_exact/add_suffix/add_regex.
template <typename Engine>
void load_rules(Engine& e) {
  e.add_exact("facebook.com", "Facebook");
  e.add_exact("netflix.com", "Netflix");
  e.add_exact("google.com", "Google");
  e.add_suffix("fbcdn.net", "Facebook");
  e.add_suffix("facebook.com", "Facebook");
  e.add_suffix("nflxvideo.net", "Netflix");
  e.add_suffix("nflximg.net", "Netflix");
  e.add_suffix("googlevideo.com", "YouTube");
  e.add_suffix("ytimg.com", "YouTube");
  e.add_suffix("youtube.com", "YouTube");
  e.add_suffix("twimg.com", "Twitter");
  e.add_suffix("twitter.com", "Twitter");
  e.add_suffix("cdninstagram.com", "Instagram");
  e.add_suffix("whatsapp.net", "WhatsApp");
  e.add_suffix("spotify.com", "Spotify");
  e.add_regex("^fbstatic-[a-z]+\\.akamaihd\\.net$", "Facebook");
  e.add_regex("^instagram[a-z-]*\\.akamaihd\\.net$", "Instagram");
}

/// Deterministic domain corpus: hits on every rule kind, deep subdomains,
/// mixed case, trailing dots, and plenty of misses (most real hostnames
/// match no rule — the miss path must be fast too).
std::vector<std::string> make_domains(std::size_t n) {
  static constexpr const char* kPatterns[] = {
      "facebook.com",
      "scontent-mxp1-1.xx.fbcdn.net",
      "Static.XX.FBCDN.NET",
      "occ-0-2774-2773.1.nflxvideo.net",
      "r3---sn-4g5e6nsz.googlevideo.com",
      "i.ytimg.com",
      "www.youtube.com.",
      "fbstatic-a.akamaihd.net",
      "instagram-static.akamaihd.net",
      "edge-mqtt.whatsapp.net",
      "audio-fa.scdn.spotify.com",
      "www.repubblica.it",
      "cdn.ad-server.example",
      "notfacebook.com.evil.example",
      "a.b.c.d.e.f.unmatched.example",
      "mail.google.com",
  };
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string d = kPatterns[i % std::size(kPatterns)];
    if (i % 7 == 0) d = "host" + std::to_string(i % 97) + "." + d;
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int conversations = argc > 1 ? std::atoi(argv[1]) : 600;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const auto out_path = argc > 3 ? std::string(argv[3]) : std::string("BENCH_pipeline.json");
  const unsigned nproc = cpu_count();

  std::printf("probe hot-path bench: %d conversations, %d repeats, %u CPUs\n", conversations,
              repeats, nproc);

  const auto frames = make_traffic_mix(conversations);
  std::vector<ew::net::DecodedPacket> packets;
  packets.reserve(frames.size());
  for (const auto& f : frames) {
    if (auto p = ew::net::decode_frame(f)) packets.push_back(std::move(*p));
  }
  std::printf("traffic mix: %zu frames, %zu decoded packets\n", frames.size(), packets.size());

  std::string samples;

  // ------------------------------------------------------- flow-table churn
  // The packet→flow resolution loop only: resolve each packet to its flow
  // (either orientation), insert on miss, erase every 64th resolved flow to
  // exercise tombstones the way expiry does.
  const double flat_s = best_seconds(repeats, [&] {
    ew::core::FlatHashMap<ew::core::FiveTuple, std::uint64_t, ew::flow::FlowKeyHash> m;
    std::uint64_t n = 0, acc = 0;
    for (const auto& p : packets) {
      const auto t = p.five_tuple();
      auto it = m.find(ew::flow::EitherOrientation{t});
      if (it == m.end()) it = m.try_emplace(t, 0).first;
      acc += ++it->second;
      if (++n % 64 == 0) m.erase(it);
    }
    asm volatile("" ::"r"(acc));
  });
  const double unordered_s = best_seconds(repeats, [&] {
    std::unordered_map<ew::core::FiveTuple, std::uint64_t, ew::core::FiveTupleHash> m;
    std::uint64_t n = 0, acc = 0;
    for (const auto& p : packets) {
      const auto t = p.five_tuple();
      auto it = m.find(t);
      if (it == m.end()) it = m.find(t.reversed());
      if (it == m.end()) it = m.try_emplace(t, 0).first;
      acc += ++it->second;
      if (++n % 64 == 0) m.erase(it);
    }
    asm volatile("" ::"r"(acc));
  });
  append_json(samples, {"flow_table_unordered_map", unordered_s,
                        static_cast<double>(packets.size()) / unordered_s, 1.0});
  append_json(samples, {"flow_table_flat_map", flat_s,
                        static_cast<double>(packets.size()) / flat_s, unordered_s / flat_s});
  std::printf("  table churn: flat %.0f ops/s vs unordered %.0f ops/s (%.2fx)\n",
              packets.size() / flat_s, packets.size() / unordered_s, unordered_s / flat_s);

  // ------------------------------------------------------- classification
  const auto domains = make_domains(50'000);
  ew::services::RuleEngine compiled;
  LegacyRuleEngine legacy;
  load_rules(compiled);
  load_rules(legacy);
  for (const auto& d : domains) {  // engines must agree before we time them
    const auto a = compiled.classify(d);
    const auto b = legacy.classify(d);
    if (a.has_value() != b.has_value() || (a && *a != *b)) {
      std::fprintf(stderr, "engine mismatch on %s\n", d.c_str());
      return 1;
    }
  }
  const double compiled_s = best_seconds(repeats, [&] {
    std::size_t hits = 0;
    for (const auto& d : domains) hits += compiled.classify(d).has_value();
    asm volatile("" ::"r"(hits));
  });
  const double legacy_s = best_seconds(repeats, [&] {
    std::size_t hits = 0;
    for (const auto& d : domains) hits += legacy.classify(d).has_value();
    asm volatile("" ::"r"(hits));
  });
  append_json(samples, {"classify_legacy", legacy_s,
                        static_cast<double>(domains.size()) / legacy_s, 1.0});
  append_json(samples, {"classify_compiled", compiled_s,
                        static_cast<double>(domains.size()) / compiled_s,
                        legacy_s / compiled_s});
  std::printf("  classify: compiled %.0f/s vs legacy %.0f/s (%.2fx)\n",
              domains.size() / compiled_s, domains.size() / legacy_s, legacy_s / compiled_s);

  // --------------------------------------------------------------- decode
  const double decode_s = best_seconds(repeats, [&] {
    std::uint64_t acc = 0;
    for (const auto& f : frames) {
      if (const auto p = ew::net::decode_frame(f)) acc += p->ip.total_length;
    }
    asm volatile("" ::"r"(acc));
  });
  append_json(samples, {"decode", decode_s,
                        static_cast<double>(frames.size()) / decode_s, 1.0});
  std::printf("  decode: %.0f frames/s\n", frames.size() / decode_s);

  // --------------------------------------------------- end-to-end serial
  const double probe_s = best_seconds(repeats, [&] {
    std::uint64_t n = 0;
    ew::probe::Probe p({}, [&n](ew::flow::FlowRecord&&) { ++n; });
    p.process(std::span<const ew::net::Frame>(frames));
    p.finish();
    asm volatile("" ::"r"(n));
  });
  append_json(samples, {"probe_serial", probe_s,
                        static_cast<double>(frames.size()) / probe_s, 1.0});
  std::printf("  probe serial: %.0f frames/s\n", frames.size() / probe_s);

  std::string json = "{\n  \"bench\": \"probe_hotpath\",\n";
  json += "  \"conversations\": " + std::to_string(conversations) + ",\n";
  json += "  \"frames\": " + std::to_string(frames.size()) + ",\n";
  json += "  \"host\": {\"nproc\": " + std::to_string(nproc) +
          ", \"cpu\": " + json_string(cpu_model()) +
          ", \"build_type\": " + json_string(EW_BUILD_TYPE) +
          ", \"git_commit\": " + json_string(git_commit()) + "},\n";
  json += "  \"samples\": [\n" + samples + "\n  ]\n}\n";
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
