#include "query/rollup.hpp"

#include <algorithm>
#include <functional>

#include "analytics/figures.hpp"
#include "core/bytes.hpp"
#include "core/hash.hpp"
#include "storage/codec.hpp"

namespace edgewatch::query {

namespace {

constexpr char kMagic[4] = {'E', 'W', 'R', 'U'};
constexpr std::uint8_t kVersion2 = 2;
constexpr std::size_t kFileHeaderSize = 5;
constexpr std::size_t kSectionHeaderSize = 9;  // u8 id | u32le len | u32le crc

// Section ids. kSecHeader opens the file, kSecTrailer closes it. The other
// ids are dimension << 4 | kind; the five data kinds map 1:1 onto the
// Column bits.
constexpr std::uint8_t kSecHeader = 1;
constexpr std::uint8_t kSecKeys = 2;
constexpr std::uint8_t kSecCounters = 3;
constexpr std::uint8_t kSecClients = 4;
constexpr std::uint8_t kSecServers = 5;
constexpr std::uint8_t kSecRtt = 6;
constexpr std::uint8_t kSecSubscribers = 7;
constexpr std::uint8_t kSecTrailer = 8;

constexpr std::uint32_t kMaxSectionBody = 1u << 28;  // 256 MiB sanity bound
constexpr std::uint32_t kMaxGroups = 1u << 22;       // ~4M ASNs is the ceiling

bool known_section(std::uint8_t id) noexcept {
  const std::uint8_t kind = id & 0x0F;
  return id == kSecHeader || id == kSecTrailer ||
         ((id >> 4) < kDimensionCount && kind >= kSecKeys && kind <= kSecSubscribers);
}

std::uint32_t column_for_section(std::uint8_t id) noexcept {
  switch (id) {
    case kSecCounters: return kColCounters;
    case kSecClients: return kColClients;
    case kSecServers: return kColServers;
    case kSecRtt: return kColRtt;
    case kSecSubscribers: return kColSubscribers;
    default: return 0;
  }
}

void put_section(core::ByteWriter& out, std::uint8_t id, std::span<const std::byte> body) {
  core::ByteWriter head;
  head.u8(id);
  head.u32le(static_cast<std::uint32_t>(body.size()));
  std::uint32_t crc = core::crc32c(head.view());
  crc = core::crc32c(body, crc);
  out.bytes(head.view());
  out.u32le(crc);
  out.bytes(body);
}

template <typename Sketch>
void put_sketch(core::ByteWriter& out, const Sketch& sketch) {
  core::ByteWriter body;
  sketch.serialize(body);
  storage::put_varint(out, body.size());
  out.bytes(body.view());
}

bool default_params(const core::HyperLogLog& s) noexcept {
  return s.precision() == core::HyperLogLog::kDefaultPrecision;
}
bool default_params(const core::QuantileSketch& s) noexcept {
  return s.relative_accuracy() == core::QuantileSketch::kDefaultAccuracy;
}

template <typename Sketch>
core::Result<Sketch> get_sketch(core::ByteReader& r) {
  const std::uint64_t len = storage::get_varint(r);
  const auto bytes = r.bytes(static_cast<std::size_t>(len));
  if (!r.ok()) return core::Errc::kTruncated;
  core::ByteReader inner{bytes};
  auto sketch = Sketch::deserialize(inner);
  if (!sketch) return sketch.error();
  if (inner.remaining() != 0 || !default_params(*sketch)) return core::Errc::kCorrupt;
  return sketch;
}

}  // namespace

std::string_view to_string(Dimension d) noexcept {
  switch (d) {
    case Dimension::kService: return "service";
    case Dimension::kProtocol: return "protocol";
    case Dimension::kServerAsn: return "server-asn";
  }
  return "unknown";
}

void DayRollup::merge(const DayRollup& other) {
  day = std::min(day, other.day);
  columns &= other.columns;
  for (const auto& [key, group] : other.groups) {
    const auto it = groups.find(key);
    if (it == groups.end()) {
      groups.emplace(key, group);
    } else {
      it->second.merge(group);
    }
  }
  for (std::size_t t = 0; t < subscribers.size(); ++t) {
    subscribers[t].merge(other.subscribers[t]);
  }
}

DayRollups build_day_rollups(const analytics::DayAggregate& aggregate,
                             const services::ServiceCatalog& catalog, const asn::Rib* rib) {
  DayRollups rollups;
  for (std::size_t d = 0; d < kDimensionCount; ++d) {
    rollups[d].day = aggregate.date;
    rollups[d].dimension = static_cast<Dimension>(d);
  }
  DayRollup& service = rollups[static_cast<std::size_t>(Dimension::kService)];
  DayRollup& protocol = rollups[static_cast<std::size_t>(Dimension::kProtocol)];
  DayRollup& server_asn = rollups[static_cast<std::size_t>(Dimension::kServerAsn)];

  for (const auto& [ip, sub] : aggregate.subscribers) {
    for (std::size_t s = 0; s < services::kServiceCount; ++s) {
      const auto& traffic = sub.per_service[s];
      if (traffic.flows == 0 && traffic.total() == 0) continue;
      auto& g = service.groups[static_cast<std::uint32_t>(s)];
      g.flows += traffic.flows;
      g.bytes_up += traffic.bytes_up;
      g.bytes_down += traffic.bytes_down;
      if (analytics::uses_service(sub, catalog, static_cast<services::ServiceId>(s))) {
        g.clients.add(ip);
      }
    }
    if (sub.active()) {
      auto& tech = service.subscribers[static_cast<std::size_t>(sub.access)];
      ++tech.active;
      tech.sum_down += sub.bytes_down;
      tech.sum_up += sub.bytes_up;
      tech.down_bytes.add(static_cast<double>(sub.bytes_down));
      tech.up_bytes.add(static_cast<double>(sub.bytes_up));
    }
  }
  for (const auto& [ip, stats] : aggregate.server_ips) {
    for (std::size_t s = 0; s < services::kServiceCount; ++s) {
      if (stats.serves(static_cast<services::ServiceId>(s))) {
        service.groups[static_cast<std::uint32_t>(s)].servers.add(ip);
      }
    }
    auto& g = server_asn.groups[rib ? rib->origin_asn(ip).value_or(0) : 0];
    g.bytes_down += stats.bytes;
    g.servers.add(ip);
  }
  for (std::size_t s = 0; s < services::kServiceCount; ++s) {
    if (aggregate.rtt_min_ms[s].empty()) continue;
    auto& g = service.groups[static_cast<std::uint32_t>(s)];
    for (const double ms : aggregate.rtt_min_ms[s]) g.rtt_ms.add(ms);
  }
  // web_bytes is up+down combined (§5.1); the sum lands in bytes_down so
  // bytes_total() reports it and bytes_up stays 0.
  for (std::size_t p = 1; p < analytics::kWebProtocolCount; ++p) {
    if (aggregate.web_bytes[p] == 0) continue;
    protocol.groups[static_cast<std::uint32_t>(p)].bytes_down = aggregate.web_bytes[p];
  }
  return rollups;
}

std::vector<std::byte> encode_rollup(const DayRollups& rollups) {
  core::ByteWriter out;
  for (const char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u8(kVersion2);

  std::uint32_t sections = 0;
  const auto section = [&](std::uint8_t id, const core::ByteWriter& body) {
    put_section(out, id, body.view());
    ++sections;
  };
  {
    const DayRollup& first = rollups.front();
    core::ByteWriter body;
    body.u32le(static_cast<std::uint32_t>(first.day.year));
    body.u8(first.day.month);
    body.u8(first.day.day);
    body.u64le(first.source.size);
    body.u64le(static_cast<std::uint64_t>(first.source.mtime_ns));
    body.u32le(first.source.seal_seq);
    for (const DayRollup& rollup : rollups) {
      body.u32le(static_cast<std::uint32_t>(rollup.groups.size()));
    }
    section(kSecHeader, body);
  }
  for (std::size_t d = 0; d < kDimensionCount; ++d) {
    const DayRollup& rollup = rollups[d];
    const auto id = [d](std::uint8_t kind) { return static_cast<std::uint8_t>(d << 4 | kind); };
    {
      core::ByteWriter body;
      for (const auto& [key, _] : rollup.groups) body.u32le(key);
      section(id(kSecKeys), body);
    }
    {
      core::ByteWriter body;
      for (const auto& [_, g] : rollup.groups) body.u64le(g.flows);
      for (const auto& [_, g] : rollup.groups) body.u64le(g.bytes_up);
      for (const auto& [_, g] : rollup.groups) body.u64le(g.bytes_down);
      section(id(kSecCounters), body);
    }
    const auto sketch_section = [&](std::uint8_t kind, auto member) {
      core::ByteWriter body;
      for (const auto& [_, g] : rollup.groups) put_sketch(body, g.*member);
      section(id(kind), body);
    };
    sketch_section(kSecClients, &GroupRollup::clients);
    sketch_section(kSecServers, &GroupRollup::servers);
    sketch_section(kSecRtt, &GroupRollup::rtt_ms);
    if (static_cast<Dimension>(d) == Dimension::kService) {
      core::ByteWriter body;
      for (const auto& tech : rollup.subscribers) {
        body.u64le(tech.active);
        body.u64le(tech.sum_down);
        body.u64le(tech.sum_up);
        put_sketch(body, tech.down_bytes);
        put_sketch(body, tech.up_bytes);
      }
      section(id(kSecSubscribers), body);
    }
  }
  core::ByteWriter trailer;
  trailer.u32le(sections);
  put_section(out, kSecTrailer, trailer.view());
  return std::move(out).take();
}

core::Result<DayRollup> decode_rollup(std::span<const std::byte> data, Dimension dim,
                                      std::uint32_t columns) {
  if (data.size() < kFileHeaderSize) return core::Errc::kTruncated;
  for (std::size_t i = 0; i < 4; ++i) {
    if (std::to_integer<char>(data[i]) != kMagic[i]) return core::Errc::kBadMagic;
  }
  if (std::to_integer<std::uint8_t>(data[4]) != kVersion2) return core::Errc::kBadVersion;

  DayRollup rollup;
  rollup.dimension = dim;
  std::vector<GroupRollup*> slots;  // groups in key order, for columnar fill
  std::uint32_t group_count = 0;
  std::uint32_t present_columns = 0;
  std::uint32_t sections_seen = 0;
  bool have_header = false;
  bool have_trailer = false;
  std::size_t pos = kFileHeaderSize;

  while (pos < data.size()) {
    if (have_trailer) return core::Errc::kCorrupt;  // bytes after the trailer
    if (pos + kSectionHeaderSize > data.size()) return core::Errc::kTruncated;
    core::ByteReader head{data.subspan(pos, kSectionHeaderSize)};
    const std::uint8_t id = head.u8();
    const std::uint32_t body_len = head.u32le();
    const std::uint32_t stored_crc = head.u32le();
    if (body_len > kMaxSectionBody || pos + kSectionHeaderSize + body_len > data.size()) {
      return core::Errc::kTruncated;
    }
    const auto body = data.subspan(pos + kSectionHeaderSize, body_len);
    pos += kSectionHeaderSize + body_len;

    if (!known_section(id)) return core::Errc::kCorrupt;
    if (!have_header && id != kSecHeader) return core::Errc::kCorrupt;
    if (id != kSecTrailer) ++sections_seen;
    const bool framing = id == kSecHeader || id == kSecTrailer;
    const std::uint8_t kind = id & 0x0F;
    const std::uint32_t column = column_for_section(kind);
    const bool mine = !framing && (id >> 4) == static_cast<std::uint8_t>(dim);
    if (mine) present_columns |= column;
    const bool wanted = framing || (mine && (kind == kSecKeys || (column & columns) != 0));
    if (!wanted) continue;  // projection: skip untouched (possibly unmapped) bytes

    // CRC covers id | body_len | body, exactly as written.
    core::ByteWriter h;
    h.u8(id);
    h.u32le(body_len);
    std::uint32_t crc = core::crc32c(h.view());
    crc = core::crc32c(body, crc);
    if (crc != stored_crc) return core::Errc::kCorrupt;

    core::ByteReader r{body};
    switch (kind) {
      case kSecHeader: {
        if (have_header) return core::Errc::kCorrupt;
        rollup.day.year = static_cast<std::int32_t>(r.u32le());
        rollup.day.month = r.u8();
        rollup.day.day = r.u8();
        rollup.source.size = r.u64le();
        rollup.source.mtime_ns = static_cast<std::int64_t>(r.u64le());
        rollup.source.seal_seq = r.u32le();
        for (std::size_t d = 0; d < kDimensionCount; ++d) {
          const std::uint32_t count = r.u32le();
          if (count > kMaxGroups) return core::Errc::kCorrupt;
          if (d == static_cast<std::size_t>(dim)) group_count = count;
        }
        if (!r.ok() || r.remaining() != 0) return core::Errc::kCorrupt;
        have_header = true;
        break;
      }
      case kSecKeys: {
        if (!slots.empty()) return core::Errc::kCorrupt;
        std::vector<std::uint32_t> keys(group_count);
        for (auto& key : keys) key = r.u32le();
        if (!r.ok() || r.remaining() != 0) return core::Errc::kCorrupt;
        if (std::adjacent_find(keys.begin(), keys.end(), std::greater_equal<>()) != keys.end()) {
          return core::Errc::kCorrupt;  // keys are strictly ascending
        }
        for (const std::uint32_t key : keys) slots.push_back(&rollup.groups[key]);
        break;
      }
      case kSecCounters: {
        if (slots.size() != group_count) return core::Errc::kCorrupt;
        for (auto* g : slots) g->flows = r.u64le();
        for (auto* g : slots) g->bytes_up = r.u64le();
        for (auto* g : slots) g->bytes_down = r.u64le();
        if (!r.ok() || r.remaining() != 0) return core::Errc::kCorrupt;
        break;
      }
      case kSecClients:
      case kSecServers: {
        if (slots.size() != group_count) return core::Errc::kCorrupt;
        for (auto* g : slots) {
          auto sketch = get_sketch<core::HyperLogLog>(r);
          if (!sketch) return sketch.error();
          (kind == kSecClients ? g->clients : g->servers) = std::move(*sketch);
        }
        if (r.remaining() != 0) return core::Errc::kCorrupt;
        break;
      }
      case kSecRtt: {
        if (slots.size() != group_count) return core::Errc::kCorrupt;
        for (auto* g : slots) {
          auto sketch = get_sketch<core::QuantileSketch>(r);
          if (!sketch) return sketch.error();
          g->rtt_ms = std::move(*sketch);
        }
        if (r.remaining() != 0) return core::Errc::kCorrupt;
        break;
      }
      case kSecSubscribers: {
        for (auto& tech : rollup.subscribers) {
          tech.active = r.u64le();
          tech.sum_down = r.u64le();
          tech.sum_up = r.u64le();
          auto down = get_sketch<core::QuantileSketch>(r);
          if (!down) return down.error();
          tech.down_bytes = std::move(*down);
          auto up = get_sketch<core::QuantileSketch>(r);
          if (!up) return up.error();
          tech.up_bytes = std::move(*up);
        }
        if (!r.ok() || r.remaining() != 0) return core::Errc::kCorrupt;
        break;
      }
      case kSecTrailer: {
        if (r.u32le() != sections_seen || !r.ok()) return core::Errc::kCorrupt;
        have_trailer = true;
        break;
      }
      default:
        return core::Errc::kCorrupt;  // unknown wanted section is unreachable
    }
  }
  if (!have_trailer) return core::Errc::kTruncated;  // torn write: no receipt
  rollup.columns = columns & present_columns;
  return rollup;
}

}  // namespace edgewatch::query
