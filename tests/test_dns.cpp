// DNS message parsing (incl. compression) and DN-Hunter cache behaviour.
#include <gtest/gtest.h>

#include <cctype>
#include <list>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/bytes.hpp"
#include "core/rng.hpp"
#include "dns/dnhunter.hpp"
#include "dns/message.hpp"
#include "dpi/parsers.hpp"

namespace ew = edgewatch;
using ew::core::IPv4Address;
using ew::core::Timestamp;

namespace {
Timestamp at(std::int64_t seconds) { return Timestamp::from_seconds(seconds); }
}  // namespace

TEST(DnsMessage, SerializeParseRoundTrip) {
  const IPv4Address addrs[] = {IPv4Address{31, 13, 86, 36}, IPv4Address{31, 13, 86, 37}};
  const auto msg = ew::dns::make_a_response(0x1234, "Facebook.COM.", addrs, 60);
  const auto wire = ew::dns::serialize(msg);
  const auto back = ew::dns::parse(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->is_response);
  EXPECT_EQ(back->id, 0x1234);
  ASSERT_EQ(back->questions.size(), 1u);
  EXPECT_EQ(back->questions[0].name, "facebook.com");
  ASSERT_EQ(back->answers.size(), 2u);
  EXPECT_EQ(back->answers[0].type, ew::dns::RecordType::kA);
  EXPECT_EQ(back->answers[0].address, addrs[0]);
  EXPECT_EQ(back->answers[1].address, addrs[1]);
  EXPECT_EQ(back->answers[0].ttl, 60u);
}

TEST(DnsMessage, CnameChainRoundTrip) {
  ew::dns::Message msg;
  msg.id = 7;
  msg.is_response = true;
  msg.questions.push_back({"www.netflix.com", 1, 1});
  ew::dns::Answer cname;
  cname.name = "www.netflix.com";
  cname.type = ew::dns::RecordType::kCname;
  cname.cname = "apex.nflxvideo.net";
  cname.ttl = 300;
  msg.answers.push_back(cname);
  ew::dns::Answer a;
  a.name = "apex.nflxvideo.net";
  a.type = ew::dns::RecordType::kA;
  a.address = IPv4Address{45, 57, 3, 1};
  msg.answers.push_back(a);

  const auto back = ew::dns::parse(ew::dns::serialize(msg));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->answers.size(), 2u);
  EXPECT_EQ(back->answers[0].cname, "apex.nflxvideo.net");
  EXPECT_EQ(back->answers[1].address, (IPv4Address{45, 57, 3, 1}));
}

TEST(DnsMessage, ParsesCompressedNames) {
  // Hand-built response: question "a.example.com", answer name via pointer
  // to offset 12 (question name), A record.
  ew::core::ByteWriter w;
  w.u16(0xabcd);  // id
  w.u16(0x8000);  // QR=1
  w.u16(1);       // QDCOUNT
  w.u16(1);       // ANCOUNT
  w.u16(0);
  w.u16(0);
  // question name at offset 12
  w.u8(1);
  w.string("a");
  w.u8(7);
  w.string("example");
  w.u8(3);
  w.string("com");
  w.u8(0);
  w.u16(1);  // qtype A
  w.u16(1);  // qclass IN
  // answer: pointer to offset 12
  w.u8(0xc0);
  w.u8(12);
  w.u16(1);  // type A
  w.u16(1);  // class
  w.u32(120);
  w.u16(4);
  w.u32(IPv4Address{93, 184, 216, 34}.value());

  const auto msg = ew::dns::parse(w.view());
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->answers.size(), 1u);
  EXPECT_EQ(msg->answers[0].name, "a.example.com");
  EXPECT_EQ(msg->answers[0].address, (IPv4Address{93, 184, 216, 34}));
}

TEST(DnsMessage, RejectsPointerLoops) {
  ew::core::ByteWriter w;
  w.u16(1);
  w.u16(0x8000);
  w.u16(1);
  w.u16(0);
  w.u16(0);
  w.u16(0);
  // Name at offset 12 is a pointer to itself.
  w.u8(0xc0);
  w.u8(12);
  w.u16(1);
  w.u16(1);
  EXPECT_FALSE(ew::dns::parse(w.view()).has_value());
}

TEST(DnsMessage, RejectsTruncated) {
  const auto msg =
      ew::dns::make_a_response(1, "x.com", std::vector<IPv4Address>{IPv4Address{1, 2, 3, 4}});
  auto wire = ew::dns::serialize(msg);
  wire.resize(wire.size() - 3);
  EXPECT_FALSE(ew::dns::parse(wire).has_value());
}

TEST(DnsMessage, NormalizeName) {
  EXPECT_EQ(ew::dns::normalize_name("WWW.Google.COM."), "www.google.com");
  EXPECT_EQ(ew::dns::normalize_name(""), "");
  EXPECT_EQ(ew::dns::normalize_name("."), "");
}

TEST(DnsMessage, CaseFoldIsAsciiOnly) {
  // RFC 4343: DNS names compare case-insensitively in ASCII only. A byte
  // >= 0x80 passes through unchanged, as the C-locale tolower left it.
  const std::string mixed = "WwW.\xC9\xE9" "Cole.ExAmPlE.Com.";
  std::string expected;
  for (const char c : mixed) {
    expected.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  expected.pop_back();  // one trailing dot stripped
  EXPECT_EQ(expected, "www.\xC9\xE9" "cole.example.com");
  EXPECT_EQ(ew::dns::normalize_name(mixed), expected);

  // The same fold happens while parsing off the wire...
  ew::dns::Message msg;
  msg.is_response = true;
  msg.questions.push_back({mixed.substr(0, mixed.size() - 1), 1, 1});
  const auto back = ew::dns::parse(ew::dns::serialize(msg));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->questions.size(), 1u);
  EXPECT_EQ(back->questions[0].name, expected);

  // ...and in DPI, for SNI and for HTTP header names and values.
  const auto hello = ew::dpi::parse_client_hello(ew::dpi::build_client_hello(mixed, {}));
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->sni, expected + ".");
  const std::string request = "GET / HTTP/1.1\r\nhOsT: " + mixed + "\r\n\r\n";
  const auto http = ew::dpi::parse_http_request(ew::core::to_bytes(request));
  ASSERT_TRUE(http.has_value());
  EXPECT_EQ(http->host, expected + ".");
}

TEST(DnsMessage, UnknownRecordTypesAreSkippedNotFatal) {
  ew::dns::Message msg;
  msg.id = 9;
  msg.is_response = true;
  msg.questions.push_back({"x.org", 16, 1});  // TXT question
  ew::dns::Answer txt;
  txt.name = "x.org";
  txt.type = ew::dns::RecordType::kOther;
  msg.answers.push_back(txt);
  const auto back = ew::dns::parse(ew::dns::serialize(msg));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->answers.size(), 1u);
  EXPECT_EQ(back->answers[0].type, ew::dns::RecordType::kOther);
}

// ------------------------------------------------------------- DN-Hunter

TEST(DnHunter, LabelsFlowAfterResolution) {
  ew::dns::DnHunter hunter;
  const IPv4Address client{10, 0, 0, 5};
  const IPv4Address server{31, 13, 86, 36};
  const IPv4Address addrs[] = {server};
  hunter.observe_response(client, ew::dns::make_a_response(1, "instagram.com", addrs), at(100));

  const auto name = hunter.lookup(client, server, at(105));
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(*name, "instagram.com");
  // Another client did not resolve it.
  EXPECT_FALSE(hunter.lookup(IPv4Address{10, 0, 0, 6}, server, at(105)).has_value());
}

TEST(DnHunter, CnameChainMapsToQuestionName) {
  ew::dns::DnHunter hunter;
  const IPv4Address client{10, 0, 0, 5};
  ew::dns::Message msg;
  msg.id = 2;
  msg.is_response = true;
  msg.questions.push_back({"www.netflix.com", 1, 1});
  ew::dns::Answer c1;
  c1.name = "www.netflix.com";
  c1.type = ew::dns::RecordType::kCname;
  c1.cname = "www.dradis.netflix.com";
  msg.answers.push_back(c1);
  ew::dns::Answer c2;
  c2.name = "www.dradis.netflix.com";
  c2.type = ew::dns::RecordType::kCname;
  c2.cname = "edge.nflxvideo.net";
  msg.answers.push_back(c2);
  ew::dns::Answer a;
  a.name = "edge.nflxvideo.net";
  a.type = ew::dns::RecordType::kA;
  a.address = IPv4Address{45, 57, 3, 9};
  msg.answers.push_back(a);

  hunter.observe_response(client, msg, at(10));
  const auto name = hunter.lookup(client, IPv4Address{45, 57, 3, 9}, at(11));
  ASSERT_TRUE(name.has_value());
  // The user asked for www.netflix.com; that is the service-relevant name.
  EXPECT_EQ(*name, "www.netflix.com");
}

TEST(DnHunter, EntriesExpireByTtl) {
  ew::dns::DnHunterConfig cfg;
  cfg.entry_ttl_micros = 60 * Timestamp::kMicrosPerSecond;
  ew::dns::DnHunter hunter{cfg};
  const IPv4Address client{10, 0, 0, 1};
  const IPv4Address server{1, 2, 3, 4};
  const IPv4Address addrs[] = {server};
  hunter.observe_response(client, ew::dns::make_a_response(1, "x.com", addrs), at(0));
  EXPECT_TRUE(hunter.lookup(client, server, at(59)).has_value());
  EXPECT_FALSE(hunter.lookup(client, server, at(61)).has_value());
  EXPECT_EQ(hunter.counters().expired, 1u);
  EXPECT_EQ(hunter.size(), 0u);  // expired entry was removed
}

TEST(DnHunter, LruEvictsOldestWhenFull) {
  ew::dns::DnHunterConfig cfg;
  cfg.max_entries_per_client = 3;
  ew::dns::DnHunter hunter{cfg};
  const IPv4Address client{10, 0, 0, 1};
  auto respond = [&](const char* name, IPv4Address addr, std::int64_t t) {
    const IPv4Address addrs[] = {addr};
    hunter.observe_response(client, ew::dns::make_a_response(1, name, addrs), at(t));
  };
  respond("a.com", IPv4Address{1, 0, 0, 1}, 1);
  respond("b.com", IPv4Address{1, 0, 0, 2}, 2);
  respond("c.com", IPv4Address{1, 0, 0, 3}, 3);
  // Touch a.com so b.com becomes the LRU victim.
  EXPECT_TRUE(hunter.lookup(client, IPv4Address{1, 0, 0, 1}, at(4)).has_value());
  respond("d.com", IPv4Address{1, 0, 0, 4}, 5);
  EXPECT_EQ(hunter.size(), 3u);
  EXPECT_FALSE(hunter.lookup(client, IPv4Address{1, 0, 0, 2}, at(6)).has_value());
  EXPECT_TRUE(hunter.lookup(client, IPv4Address{1, 0, 0, 1}, at(6)).has_value());
  EXPECT_TRUE(hunter.lookup(client, IPv4Address{1, 0, 0, 4}, at(6)).has_value());
  EXPECT_EQ(hunter.counters().lru_evictions, 1u);
}

TEST(DnHunter, ReResolutionUpdatesName) {
  ew::dns::DnHunter hunter;
  const IPv4Address client{10, 0, 0, 1};
  const IPv4Address server{5, 5, 5, 5};
  const IPv4Address addrs[] = {server};
  hunter.observe_response(client, ew::dns::make_a_response(1, "old.com", addrs), at(0));
  hunter.observe_response(client, ew::dns::make_a_response(2, "new.com", addrs), at(1));
  const auto name = hunter.lookup(client, server, at(2));
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(*name, "new.com");
  EXPECT_EQ(hunter.size(), 1u);
}

TEST(DnHunter, IgnoresErrorResponsesAndQueries) {
  ew::dns::DnHunter hunter;
  const IPv4Address client{10, 0, 0, 1};
  const IPv4Address addrs[] = {IPv4Address{9, 9, 9, 9}};
  auto nxdomain = ew::dns::make_a_response(1, "gone.com", addrs);
  nxdomain.rcode = 3;
  hunter.observe_response(client, nxdomain, at(0));
  auto query = ew::dns::make_a_response(2, "q.com", addrs);
  query.is_response = false;
  hunter.observe_response(client, query, at(0));
  EXPECT_EQ(hunter.size(), 0u);
}

TEST(DnHunter, ClearDropsEverything) {
  ew::dns::DnHunter hunter;
  const IPv4Address addrs[] = {IPv4Address{9, 9, 9, 9}};
  hunter.observe_response(IPv4Address{10, 0, 0, 1},
                          ew::dns::make_a_response(1, "x.com", addrs), at(0));
  ASSERT_EQ(hunter.size(), 1u);
  hunter.clear();
  EXPECT_EQ(hunter.size(), 0u);
  EXPECT_EQ(hunter.clients(), 0u);
}

// ------------------------------------------- parse_into on a reused message

namespace {

void expect_same_message(const ew::dns::Message& reused, const ew::dns::Message& fresh) {
  EXPECT_EQ(reused.id, fresh.id);
  EXPECT_EQ(reused.is_response, fresh.is_response);
  EXPECT_EQ(reused.rcode, fresh.rcode);
  EXPECT_EQ(reused.questions, fresh.questions);
  EXPECT_EQ(reused.answers, fresh.answers);
}

/// Valid responses of different shapes, longest first, so a reused message
/// always meets a shorter one after a longer one.
std::vector<std::vector<std::byte>> varied_responses() {
  std::vector<std::vector<std::byte>> wires;
  ew::dns::Message chain;
  chain.id = 3;
  chain.is_response = true;
  chain.questions.push_back({"www.a-long-service-name.example.com", 1, 1});
  ew::dns::Answer alias;
  alias.name = "www.a-long-service-name.example.com";
  alias.type = ew::dns::RecordType::kCname;
  alias.cname = "edge-cache-node-0042.cdn.example.net";
  chain.answers.push_back(alias);
  for (std::uint8_t i = 1; i <= 3; ++i) {
    ew::dns::Answer a;
    a.name = alias.cname;
    a.type = ew::dns::RecordType::kA;
    a.ttl = 30u * i;
    a.address = IPv4Address{45, 57, 3, i};
    chain.answers.push_back(a);
  }
  ew::dns::Answer other;
  other.name = "txt.example.org";
  other.type = ew::dns::RecordType::kOther;
  chain.answers.push_back(other);
  wires.push_back(ew::dns::serialize(chain));
  const IPv4Address two[] = {IPv4Address{1, 2, 3, 4}, IPv4Address{1, 2, 3, 5}};
  wires.push_back(
      ew::dns::serialize(ew::dns::make_a_response(9, "Mixed.CASE.example.com.", two, 60)));
  const IPv4Address one[] = {IPv4Address{8, 8, 4, 4}};
  wires.push_back(ew::dns::serialize(ew::dns::make_a_response(7, "x.example.com", one)));
  ew::dns::Message empty;
  empty.id = 1;
  empty.is_response = true;
  wires.push_back(ew::dns::serialize(empty));
  return wires;
}

}  // namespace

TEST(DnsMessage, ParseIntoReusedMessageMatchesFreshParse) {
  const auto wires = varied_responses();
  ew::core::Xoshiro256 rng{0x5EED};
  ew::dns::Message reused;
  int parsed = 0;
  for (int i = 0; i < 20'000; ++i) {
    std::vector<std::byte> bytes;
    switch (i % 3) {
      case 0:  // a valid response, as is
        bytes = wires[ew::core::uniform_below(rng, wires.size())];
        break;
      case 1: {  // a mutated valid response
        bytes = wires[ew::core::uniform_below(rng, wires.size())];
        const auto flips = 1 + ew::core::uniform_below(rng, 4);
        for (std::uint64_t f = 0; f < flips; ++f) {
          bytes[ew::core::uniform_below(rng, bytes.size())] ^=
              static_cast<std::byte>(1u << ew::core::uniform_below(rng, 8));
        }
        break;
      }
      default: {  // random bytes behind a response header
        bytes.resize(ew::core::uniform_below(rng, 128));
        for (auto& b : bytes) b = static_cast<std::byte>(rng() & 0xff);
        const std::uint8_t header[] = {0x12, 0x34, 0x80, 0x00, 0x00, 0x01};
        for (std::size_t k = 0; k < bytes.size() && k < sizeof header; ++k) {
          bytes[k] = static_cast<std::byte>(header[k]);
        }
        break;
      }
    }
    const auto fresh = ew::dns::parse(bytes);
    ASSERT_EQ(ew::dns::parse_into(bytes, reused), fresh.has_value()) << "input " << i;
    if (fresh) {
      ++parsed;
      expect_same_message(reused, *fresh);
    }
  }
  EXPECT_GT(parsed, 6'000);  // every unmutated response, at least
}

// ------------------------------------------- DN-Hunter vs reference model

namespace {

/// The DN-Hunter as it was first written: one map and one std::list per
/// client, names held as strings. Slow and allocation-heavy, but each step
/// is obviously right; the slab hunter must answer exactly like it.
class ReferenceHunter {
 public:
  explicit ReferenceHunter(ew::dns::DnHunterConfig config) : config_(config) {}

  void observe_response(IPv4Address client, const ew::dns::Message& msg, Timestamp now) {
    if (!msg.ok_response() || msg.questions.empty()) return;
    ++counters_.responses_ingested;
    const std::string& question = msg.questions.front().name;
    auto is_alias_of_question = [&](const std::string& name) {
      if (name == question) return true;
      std::string current = question;
      for (std::size_t hop = 0; hop < msg.answers.size(); ++hop) {
        bool advanced = false;
        for (const auto& a : msg.answers) {
          if (a.type == ew::dns::RecordType::kCname && a.name == current) {
            current = a.cname;
            advanced = true;
            break;
          }
        }
        if (!advanced) break;
        if (current == name) return true;
      }
      return false;
    };
    auto& table = tables_[client];
    for (const auto& a : msg.answers) {
      if (a.type != ew::dns::RecordType::kA) continue;
      insert(table, a.address, is_alias_of_question(a.name) ? question : a.name, now, true);
    }
  }

  std::optional<std::string> lookup(IPv4Address client, IPv4Address server, Timestamp now) {
    auto table_it = tables_.find(client);
    if (table_it == tables_.end()) {
      ++counters_.misses;
      return std::nullopt;
    }
    auto& table = table_it->second;
    auto it = table.map.find(server);
    if (it == table.map.end()) {
      ++counters_.misses;
      return std::nullopt;
    }
    if (now - it->second.inserted > config_.entry_ttl_micros) {
      table.lru.erase(it->second.lru_pos);
      table.map.erase(it);
      ++counters_.expired;
      ++counters_.misses;
      return std::nullopt;
    }
    table.lru.splice(table.lru.begin(), table.lru, it->second.lru_pos);
    ++counters_.hits;
    return it->second.name;
  }

  void restore_entry(IPv4Address client, IPv4Address server, const std::string& name,
                     Timestamp inserted) {
    insert(tables_[client], server, name, inserted, false);
  }

  void clear() { tables_.clear(); }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& [_, table] : tables_) total += table.map.size();
    return total;
  }
  [[nodiscard]] std::size_t clients() const { return tables_.size(); }
  [[nodiscard]] const ew::dns::DnHunter::Counters& counters() const { return counters_; }

  using Row = std::tuple<std::uint32_t, std::uint32_t, std::string, std::int64_t>;
  [[nodiscard]] std::vector<Row> entries() const {
    std::vector<Row> rows;
    for (const auto& [client, table] : tables_) {
      for (auto it = table.lru.rbegin(); it != table.lru.rend(); ++it) {
        const auto& entry = table.map.at(*it);
        rows.emplace_back(client.value(), it->value(), entry.name, entry.inserted.micros());
      }
    }
    return rows;
  }

 private:
  struct Entry {
    std::string name;
    Timestamp inserted;
    std::list<IPv4Address>::iterator lru_pos;
  };
  struct ClientTable {
    ew::core::FlatHashMap<IPv4Address, Entry, ew::core::IPv4AddressHash> map;
    std::list<IPv4Address> lru;  ///< Front = most recent.
  };

  void insert(ClientTable& table, IPv4Address server, const std::string& name, Timestamp now,
              bool count_stats) {
    auto it = table.map.find(server);
    if (it != table.map.end()) {
      it->second.name = name;
      it->second.inserted = now;
      table.lru.splice(table.lru.begin(), table.lru, it->second.lru_pos);
      return;
    }
    if (table.map.size() >= config_.max_entries_per_client) {
      const IPv4Address victim = table.lru.back();
      table.lru.pop_back();
      table.map.erase(victim);
      if (count_stats) ++counters_.lru_evictions;
    }
    table.lru.push_front(server);
    table.map.emplace(server, Entry{name, now, table.lru.begin()});
    if (count_stats) ++counters_.entries_inserted;
  }

  ew::dns::DnHunterConfig config_;
  ew::core::FlatHashMap<IPv4Address, ClientTable, ew::core::IPv4AddressHash> tables_;
  ew::dns::DnHunter::Counters counters_;
};

std::vector<ReferenceHunter::Row> entries_of(const ew::dns::DnHunter& hunter) {
  std::vector<ReferenceHunter::Row> rows;
  hunter.for_each_entry([&](IPv4Address client, IPv4Address server, std::string_view name,
                            Timestamp inserted) {
    rows.emplace_back(client.value(), server.value(), std::string(name), inserted.micros());
  });
  return rows;
}

void expect_same_counters(const ew::dns::DnHunter::Counters& a,
                          const ew::dns::DnHunter::Counters& b) {
  EXPECT_EQ(a.responses_ingested, b.responses_ingested);
  EXPECT_EQ(a.entries_inserted, b.entries_inserted);
  EXPECT_EQ(a.lru_evictions, b.lru_evictions);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.expired, b.expired);
}

/// A random response over small client, server and name sets: a plain A
/// answer set, a CNAME chain, an A record for an unrelated owner, or a
/// response the hunter must ignore.
ew::dns::Message random_response(ew::core::Xoshiro256& rng, std::span<const IPv4Address> servers) {
  static const char* const kNames[] = {"a.example.com", "b.example.com", "video.example.net",
                                       "cdn.example.org", "x.example.io"};
  const auto pick_name = [&] { return std::string(kNames[ew::core::uniform_below(rng, 5)]); };
  const auto pick_server = [&] { return servers[ew::core::uniform_below(rng, servers.size())]; };
  ew::dns::Message msg;
  msg.id = static_cast<std::uint16_t>(rng());
  msg.is_response = true;
  const std::string question = pick_name();
  msg.questions.push_back({question, 1, 1});
  std::string owner = question;
  switch (ew::core::uniform_below(rng, 6)) {
    case 0: {  // CNAME chain, then the A records
      for (std::uint64_t hop = 0, n = 1 + ew::core::uniform_below(rng, 2); hop < n; ++hop) {
        ew::dns::Answer alias;
        alias.name = owner;
        alias.type = ew::dns::RecordType::kCname;
        alias.cname = "alias" + std::to_string(hop) + "." + pick_name();
        owner = alias.cname;
        msg.answers.push_back(alias);
      }
      break;
    }
    case 1:  // an A record whose owner the question does not reach
      owner = "stray." + question;
      break;
    case 2:
      msg.rcode = 3;  // NXDOMAIN: ignored
      break;
    case 3:
      msg.is_response = ew::core::uniform_below(rng, 4) != 0;  // a query now and then
      break;
    default:
      break;
  }
  for (std::uint64_t i = 0, n = ew::core::uniform_below(rng, 4); i < n; ++i) {
    ew::dns::Answer a;
    a.name = owner;
    a.type = ew::dns::RecordType::kA;
    a.address = pick_server();
    msg.answers.push_back(a);
  }
  return msg;
}

}  // namespace

TEST(DnHunter, SlabMatchesReferenceModelOnRandomSequences) {
  const IPv4Address clients[] = {IPv4Address{10, 0, 0, 1}, IPv4Address{10, 0, 0, 2},
                                 IPv4Address{10, 0, 0, 3}, IPv4Address{10, 9, 9, 9},
                                 IPv4Address{10, 128, 0, 7}, IPv4Address{10, 200, 1, 1}};
  const IPv4Address servers[] = {IPv4Address{1, 1, 1, 1}, IPv4Address{1, 1, 1, 2},
                                 IPv4Address{8, 8, 8, 8}, IPv4Address{31, 13, 86, 36},
                                 IPv4Address{45, 57, 3, 9}, IPv4Address{93, 184, 216, 34}};
  for (std::size_t max_entries = 1; max_entries <= 4; ++max_entries) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("max_entries_per_client=" + std::to_string(max_entries) +
                   " seed=" + std::to_string(seed));
      ew::dns::DnHunterConfig cfg;
      cfg.max_entries_per_client = max_entries;
      cfg.entry_ttl_micros = 10 * Timestamp::kMicrosPerSecond;
      ew::dns::DnHunter hunter{cfg};
      ReferenceHunter reference{cfg};
      ew::core::Xoshiro256 rng{seed * 7919 + max_entries};
      std::int64_t now_us = 0;
      const auto pick_client = [&] { return clients[ew::core::uniform_below(rng, 6)]; };
      const auto pick_server = [&] { return servers[ew::core::uniform_below(rng, 6)]; };
      for (int step = 0; step < 4'000; ++step) {
        // Time moves 0-3 s a step, so entries outlive the 10 s TTL often.
        now_us += static_cast<std::int64_t>(ew::core::uniform_below(rng, 3'000'001));
        const Timestamp now{now_us};
        const auto op = ew::core::uniform_below(rng, 100);
        if (op < 45) {
          const auto msg = random_response(rng, servers);
          const auto client = pick_client();
          hunter.observe_response(client, msg, now);
          reference.observe_response(client, msg, now);
        } else if (op < 90) {
          const auto client = pick_client();
          const auto server = pick_server();
          const auto got = hunter.lookup(client, server, now);
          const auto want = reference.lookup(client, server, now);
          ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
          if (want) {
            EXPECT_EQ(*got, *want) << "step " << step;
          }
        } else if (op < 98) {
          const std::string name = "restored" + std::to_string(op) + ".example.com";
          const auto client = pick_client();
          const auto server = pick_server();
          const Timestamp inserted{now_us - static_cast<std::int64_t>(
                                                ew::core::uniform_below(rng, 12'000'000))};
          hunter.restore_entry(client, server, name, inserted);
          reference.restore_entry(client, server, name, inserted);
        } else {
          hunter.clear();
          reference.clear();
        }
        expect_same_counters(hunter.counters(), reference.counters());
        ASSERT_EQ(hunter.size(), reference.size()) << "step " << step;
        ASSERT_EQ(hunter.clients(), reference.clients()) << "step " << step;
        ASSERT_EQ(entries_of(hunter), reference.entries()) << "step " << step;
      }
      // The sequence reached every path worth comparing.
      EXPECT_GT(reference.counters().hits, 0u);
      EXPECT_GT(reference.counters().expired, 0u);
      EXPECT_GT(reference.counters().lru_evictions, 0u);
    }
  }
}
