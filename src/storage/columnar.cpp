#include "storage/columnar.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <bit>
#include <limits>

#include "core/flat_hash_map.hpp"
#include "core/hash.hpp"
#include "storage/codec.hpp"
#include "storage/compress.hpp"

namespace edgewatch::storage {

namespace {

// Fixed column schema. Every column id below must
// appear exactly once in a block's segment directory; unknown ids are
// corruption.
enum Column : std::uint8_t {
  kColTs = 0,          // zigzag delta chain of first_packet µs
  kColDur = 1,         // zigzag last−first
  kColService = 2,     // u8 dict codes into the service dictionary
  kColProto = 3,       // u8 raw TransportProto values
  kColAccess = 4,      // u8
  kColFlags = 5,       // u8 handshake | close_reason<<1
  kColL7 = 6,          // u8
  kColWeb = 7,         // u8
  kColNameSource = 8,  // u8
  kColClientPort = 9,  // value segment
  kColServerPort = 10, // value segment
  kColClientIp = 11,   // value segment
  kColServerIp = 12,   // value segment
  kColUpPkts = 13,     // value segment … through kColDnOoo
  kColUpBytes = 14,
  kColUpHdr = 15,
  kColUpRetx = 16,
  kColUpOoo = 17,
  kColDnPkts = 18,
  kColDnBytes = 19,
  kColDnHdr = 20,
  kColDnRetx = 21,
  kColDnOoo = 22,
  kColRttSamples = 23,   // value segment
  kColRttMin = 24,       // zigzag, dense over rows with samples > 0
  kColRttMaxDelta = 25,  // zigzag, dense
  kColRttAvgDelta = 26,  // zigzag, dense
  kColHttpStatus = 27,   // value segment
  kColNameDict = 28,     // full: varint count | count × (varint len, bytes)
  kColNameIdx = 29,      // value segment: dict index per row
  kColCtDict = 30,
  kColCtIdx = 31,
};
constexpr std::size_t kColumnCount = 32;
static_assert(kColumnCount == kColumnSegmentCount,
              "kColumnSegmentCount (columnar.hpp) must track the column enum");

/// Mirror of decode_columnar_batch's projection gates, kept adjacent to the
/// column enum so a new column fails the static_assert below instead of
/// silently skewing the skipped-segments metric.
constexpr unsigned segments_for_fields_impl(std::uint32_t fields) noexcept {
  const auto want = [fields](std::uint32_t bit) { return (fields & bit) != 0 ? 1u : 0u; };
  unsigned n = 4;  // always: ts, service, proto, server_ip (filter/zone columns)
  n += want(scan_fields::kLastPacket);
  n += want(scan_fields::kAccess) + want(scan_fields::kCloseState) + want(scan_fields::kL7) +
       want(scan_fields::kWeb) + want(scan_fields::kNameSource);
  n += want(scan_fields::kClientPort) + want(scan_fields::kClientIp) +
       want(scan_fields::kServerPort);
  n += want(scan_fields::kUpPackets) + want(scan_fields::kUpBytes) +
       want(scan_fields::kUpWireBytes) + 2 * want(scan_fields::kUpQuality);
  n += want(scan_fields::kDownPackets) + want(scan_fields::kDownBytes) +
       want(scan_fields::kDownWireBytes) + 2 * want(scan_fields::kDownQuality);
  n += want(scan_fields::kHttpStatus);
  n += 2 * want(scan_fields::kRttMin | scan_fields::kRttSpread);  // samples + min
  n += 2 * want(scan_fields::kRttSpread);                         // max/avg deltas
  n += 2 * want(scan_fields::kServerName);                        // dict + indexes
  n += 2 * want(scan_fields::kContentType);                       // dict + indexes
  return n;
}
static_assert(segments_for_fields_impl(scan_fields::kAll) == kColumnCount,
              "full projection must account for every column segment");
static_assert(segments_for_fields_impl(0) == 4, "filter columns always decode");

// u8 column payloads carry a 1-byte encoding tag: most enum columns are
// single-valued across a whole block (one access tech per vantage, one
// protocol per service's blocks once data clusters), so a constant column
// costs 2 bytes instead of 4096; a run-length variant covers columns that
// cluster without being constant.
constexpr std::uint8_t kU8Constant = 0;
constexpr std::uint8_t kU8Plain = 1;
constexpr std::uint8_t kU8Rle = 2;  // (varint run_len | u8 value)*

constexpr std::size_t kZoneMapSize = 36;
constexpr std::size_t kMaxNameLen = 4096;  // decode_record's sanity bounds
constexpr std::size_t kMaxCtLen = 256;

void put_zone_map(core::ByteWriter& w, const ZoneMap& z) {
  w.u64le(static_cast<std::uint64_t>(z.ts_min_us));
  w.u64le(static_cast<std::uint64_t>(z.ts_max_us));
  w.u32le(z.service_bitmap);
  w.u32le(z.proto_bitmap);
  w.u32le(z.server_ip_min);
  w.u32le(z.server_ip_max);
  w.u32le(z.record_count);
}

[[nodiscard]] ZoneMap get_zone_map(core::ByteReader& r) noexcept {
  ZoneMap z;
  z.ts_min_us = static_cast<std::int64_t>(r.u64le());
  z.ts_max_us = static_cast<std::int64_t>(r.u64le());
  z.service_bitmap = r.u32le();
  z.proto_bitmap = r.u32le();
  z.server_ip_min = r.u32le();
  z.server_ip_max = r.u32le();
  z.record_count = r.u32le();
  return z;
}

[[nodiscard]] constexpr unsigned varint_len(std::uint64_t v) noexcept {
  return (static_cast<unsigned>(std::bit_width(v | 1)) + 6) / 7;
}

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

// ---- encode helpers ------------------------------------------------------

/// Appends segment envelopes to the scratch's payload accumulator, records
/// the directory, and tallies per-codec bytes for the obs counters.
struct SegmentSink {
  EncodeScratch& s;

  explicit SegmentSink(EncodeScratch& scratch) : s(scratch) {
    s.payloads.clear();
    s.directory.clear();
  }

  void add(std::uint8_t id, std::span<const std::byte> stream) {
    const std::size_t start = s.payloads.size();
    compress_block_lazy_append(stream, s.payloads, s.compress);
    const auto len = static_cast<std::uint32_t>(s.payloads.size() - start);
    s.directory.emplace_back(id, len);
    const auto scheme = std::to_integer<std::uint8_t>(s.payloads[start]);
    s.codec_bytes_in[scheme] += stream.size();
    s.codec_bytes_out[scheme] += len;
  }

  void add_values(std::uint8_t id, std::span<const std::uint64_t> values) {
    const auto r = compress_u64_segment(values, s.payloads, s.compress);
    s.directory.emplace_back(id, r.bytes_out);
    s.codec_bytes_in[r.scheme] += r.bytes_in;
    s.codec_bytes_out[r.scheme] += r.bytes_out;
  }
};

/// Service-verdict placeholder for a name no non-P2P row has carried yet.
constexpr std::uint8_t kUnclassified = 0xff;
static_assert(services::kServiceCount < kUnclassified);

/// Interns `get(record)` for every record into a first-appearance
/// dictionary: `entries` receives the distinct values (views into
/// `records`), `codes[i]` row i's index into it.
template <typename Get>
void intern_strings(std::span<const flow::FlowRecord> records, EncodeScratch& es,
                    std::vector<std::uint64_t>& codes, std::vector<std::string_view>& entries,
                    Get&& get) {
  es.dict_codes.clear();
  entries.clear();
  codes.resize(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string_view sv = get(records[i]);
    const auto [it, inserted] =
        es.dict_codes.try_emplace(sv, static_cast<std::uint32_t>(entries.size()));
    if (inserted) entries.push_back(sv);
    codes[i] = it->second;
  }
}

void encode_columnar_block_impl(std::span<const flow::FlowRecord> records,
                                const services::ServiceCatalog& catalog, core::ByteWriter& out,
                                EncodeScratch& es) {
  const std::size_t n = records.size();

  // Pass 0: the block's server-name dictionary. Its codes serve twice: as
  // the name column's row indexes and as the key of the per-name service
  // verdict below, so each row's name is hashed once.
  intern_strings(records, es, es.name_code, es.name_entries,
                 [](const flow::FlowRecord& r) { return std::string_view{r.server_name}; });

  // Pass 1: service ids, the service dictionary (first-appearance order)
  // and the zone map. The service dictionary stays inline: at most
  // kServiceCount+1 bytes. A P2P row is kPeerToPeer whatever its name;
  // every other row takes its name's verdict, and the rule engine runs once
  // per distinct name the first time a non-P2P row carries it.
  ZoneMap zone;
  zone.record_count = static_cast<std::uint32_t>(n);
  es.service_code.resize(n);
  es.name_service.assign(es.name_entries.size(), kUnclassified);
  std::array<std::uint8_t, services::kServiceCount> svc_dict{};
  std::uint8_t svc_count = 0;
  std::array<std::uint8_t, services::kServiceCount> code_of{};
  code_of.fill(0xff);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = records[i];
    std::uint8_t sid = static_cast<std::uint8_t>(services::ServiceId::kPeerToPeer);
    if (!dpi::is_p2p(r.l7)) {
      std::uint8_t& verdict = es.name_service[es.name_code[i]];
      if (verdict == kUnclassified) {
        verdict = static_cast<std::uint8_t>(catalog.classify_flow(r.l7, r.server_name));
      }
      sid = verdict;
    }
    if (code_of[sid] == 0xff) {
      code_of[sid] = svc_count;
      svc_dict[svc_count++] = sid;
    }
    es.service_code[i] = code_of[sid];
    zone.service_bitmap |= 1u << sid;
    zone.proto_bitmap |= 1u << proto_bit(r.proto);
    const std::int64_t ts = r.first_packet.micros();
    const std::uint32_t sip = r.server_ip.value();
    if (i == 0) {
      zone.ts_min_us = zone.ts_max_us = ts;
      zone.server_ip_min = zone.server_ip_max = sip;
    } else {
      zone.ts_min_us = std::min(zone.ts_min_us, ts);
      zone.ts_max_us = std::max(zone.ts_max_us, ts);
      zone.server_ip_min = std::min(zone.server_ip_min, sip);
      zone.server_ip_max = std::max(zone.server_ip_max, sip);
    }
  }

  // Pass 2: transpose into column streams, each with its own compression
  // envelope so similar bytes sit together. Numeric columns are staged as
  // u64 values and compress_u64_segment picks the codec per segment.
  SegmentSink sink(es);
  const auto numeric = [&](std::uint8_t id, auto&& get) {
    es.u64.resize(n);
    for (std::size_t i = 0; i < n; ++i) es.u64[i] = get(i);
    sink.add_values(id, es.u64);
  };
  const auto numeric_signed = [&](std::uint8_t id, auto&& get) {
    numeric(id, [&get](std::size_t i) { return zigzag(get(i)); });
  };

  numeric_signed(kColTs, [&records, prev_ts = std::int64_t{0}](std::size_t i) mutable {
    const std::int64_t ts = records[i].first_packet.micros();
    const std::int64_t delta = ts - prev_ts;
    prev_ts = ts;
    return delta;
  });
  numeric_signed(kColDur, [&records](std::size_t i) {
    return records[i].last_packet - records[i].first_packet;
  });

  const auto u8seg = [&](std::uint8_t id, std::span<const std::uint8_t> values) {
    es.stream.clear();
    const bool constant =
        !values.empty() &&
        std::all_of(values.begin(), values.end(), [&](std::uint8_t v) { return v == values[0]; });
    if (constant) {
      es.stream.u8(kU8Constant);
      es.stream.u8(values[0]);
      sink.add(id, es.stream.view());
      return;
    }
    std::size_t rle_size = 1;
    for (std::size_t i = 0; i < values.size();) {
      std::size_t j = i + 1;
      while (j < values.size() && values[j] == values[i]) ++j;
      rle_size += varint_len(j - i) + 1;
      i = j;
    }
    if (rle_size < 1 + values.size()) {
      es.stream.u8(kU8Rle);
      for (std::size_t i = 0; i < values.size();) {
        std::size_t j = i + 1;
        while (j < values.size() && values[j] == values[i]) ++j;
        put_varint(es.stream, j - i);
        es.stream.u8(values[i]);
        i = j;
      }
    } else {
      es.stream.u8(kU8Plain);
      for (const auto v : values) es.stream.u8(v);
    }
    sink.add(id, es.stream.view());
  };
  u8seg(kColService, es.service_code);
  {
    es.u8.resize(n);
    const auto u8col = [&](std::uint8_t id, auto&& get) {
      for (std::size_t i = 0; i < n; ++i) es.u8[i] = get(records[i]);
      u8seg(id, es.u8);
    };
    u8col(kColProto, [](const auto& r) { return static_cast<std::uint8_t>(r.proto); });
    u8col(kColAccess, [](const auto& r) { return static_cast<std::uint8_t>(r.access); });
    u8col(kColFlags, [](const auto& r) {
      return static_cast<std::uint8_t>((r.handshake_completed ? 1 : 0) |
                                       (static_cast<std::uint8_t>(r.close_reason) << 1));
    });
    u8col(kColL7, [](const auto& r) { return static_cast<std::uint8_t>(r.l7); });
    u8col(kColWeb, [](const auto& r) { return static_cast<std::uint8_t>(r.web); });
    u8col(kColNameSource, [](const auto& r) { return static_cast<std::uint8_t>(r.name_source); });
  }

  const auto field = [&](std::uint8_t id, auto&& get) {
    numeric(id, [&](std::size_t i) { return static_cast<std::uint64_t>(get(records[i])); });
  };
  // Ports and IPs go through the value codec too (server IPs cluster, so
  // frame-of-reference packs them well below 4 bytes each).
  field(kColClientPort, [](const auto& r) { return r.client_port; });
  field(kColServerPort, [](const auto& r) { return r.server_port; });
  field(kColClientIp, [](const auto& r) { return r.client_ip.value(); });
  field(kColServerIp, [](const auto& r) { return r.server_ip.value(); });
  field(kColUpPkts, [](const auto& r) { return r.up.packets; });
  field(kColUpBytes, [](const auto& r) { return r.up.bytes; });
  field(kColUpHdr, [](const auto& r) { return r.up.bytes_with_hdr; });
  field(kColUpRetx, [](const auto& r) { return r.up.retransmits; });
  field(kColUpOoo, [](const auto& r) { return r.up.out_of_order; });
  field(kColDnPkts, [](const auto& r) { return r.down.packets; });
  field(kColDnBytes, [](const auto& r) { return r.down.bytes; });
  field(kColDnHdr, [](const auto& r) { return r.down.bytes_with_hdr; });
  field(kColDnRetx, [](const auto& r) { return r.down.retransmits; });
  field(kColDnOoo, [](const auto& r) { return r.down.out_of_order; });
  field(kColRttSamples, [](const auto& r) { return r.rtt.samples; });
  {
    // RTT stats exist only when samples > 0: dense sub-columns over those
    // rows, in row order (the row-aligned expansion at decode replays the
    // same order).
    const auto rtt_dense = [&](std::uint8_t id, auto&& get) {
      es.u64.clear();
      for (const auto& r : records) {
        if (r.rtt.samples > 0) es.u64.push_back(zigzag(get(r)));
      }
      sink.add_values(id, es.u64);
    };
    rtt_dense(kColRttMin, [](const auto& r) { return r.rtt.min_us; });
    rtt_dense(kColRttMaxDelta, [](const auto& r) { return r.rtt.max_us - r.rtt.min_us; });
    rtt_dense(kColRttAvgDelta, [](const auto& r) {
      return static_cast<std::int64_t>(r.rtt.avg_us) - r.rtt.min_us;
    });
  }
  field(kColHttpStatus, [](const auto& r) { return r.http_status; });

  // String dictionaries (server_name, content_type): the block's distinct
  // values in first-appearance order, stored in full; per-row indexes go
  // through the value codec.
  const auto string_dict = [&](std::uint8_t dict_id, std::uint8_t idx_id,
                               std::span<const std::string_view> entries,
                               std::span<const std::uint64_t> codes) {
    es.stream.clear();
    put_varint(es.stream, entries.size());
    for (const auto sv : entries) {
      put_varint(es.stream, sv.size());
      es.stream.string(sv);
    }
    sink.add(dict_id, es.stream.view());
    sink.add_values(idx_id, codes);
  };
  string_dict(kColNameDict, kColNameIdx, es.name_entries, es.name_code);
  intern_strings(records, es, es.u64, es.dict_entries,
                 [](const flow::FlowRecord& r) { return std::string_view{r.content_type}; });
  string_dict(kColCtDict, kColCtIdx, es.dict_entries, es.u64);

  // Assemble: prefix | zone map | service dict | directory | payloads.
  out.u8(kColumnarTag);
  out.u8(kColumnarLayout);
  put_zone_map(out, zone);
  out.u8(svc_count);
  for (std::size_t i = 0; i < svc_count; ++i) out.u8(svc_dict[i]);
  out.u8(static_cast<std::uint8_t>(es.directory.size()));
  for (const auto& [id, len] : es.directory) {
    out.u8(id);
    put_varint(out, len);
  }
  out.bytes(es.payloads);
}

// ---- decode helpers ------------------------------------------------------

struct SegmentTable {
  std::array<std::span<const std::byte>, kColumnCount> seg{};
  std::array<bool, kColumnCount> present{};

  [[nodiscard]] bool complete() const noexcept {
    return std::all_of(present.begin(), present.end(), [](bool b) { return b; });
  }
};

[[nodiscard]] bool decode_u8_column(std::span<const std::byte> payload,
                                    std::vector<std::byte>& scratch, std::size_t n,
                                    std::vector<std::uint8_t>& out) {
  const auto stream = decompress_block_view(payload, scratch);
  if (!stream) return false;
  if (stream->empty()) return false;
  const auto enc = std::to_integer<std::uint8_t>((*stream)[0]);
  if (enc == kU8Constant) {
    if (stream->size() != 2) return false;
    out.assign(n, std::to_integer<std::uint8_t>((*stream)[1]));
    return true;
  }
  if (enc == kU8Rle) {
    out.resize(n);
    VarintCursor c(stream->subspan(1));
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t run = get_varint(c);
      if (!c.ok() || run == 0 || run > n - i) return false;
      if (c.p == c.end) return false;
      const std::uint8_t v = *c.p++;
      std::fill(out.begin() + static_cast<std::ptrdiff_t>(i),
                out.begin() + static_cast<std::ptrdiff_t>(i + run), v);
      i += static_cast<std::size_t>(run);
    }
    return c.ok() && c.exhausted();
  }
  if (enc != kU8Plain || stream->size() != 1 + n) return false;
  out.resize(n);
  std::memcpy(out.data(), stream->data() + 1, n);
  return true;
}

[[nodiscard]] bool decode_value_column(std::span<const std::byte> payload,
                                       std::vector<std::byte>& scratch, std::size_t n,
                                       std::vector<std::uint64_t>& out) {
  out.resize(n);
  return decompress_u64_segment(payload, n, out.data(), scratch);
}

/// Narrowing value column (ports, IPs, dictionary indexes): any value at or
/// above `limit` is corruption.
template <typename Out>
[[nodiscard]] bool decode_value_narrow(std::span<const std::byte> payload,
                                       std::vector<std::byte>& scratch,
                                       std::vector<std::uint64_t>& staging, std::size_t n,
                                       std::vector<Out>& out,
                                       std::uint64_t limit = std::uint64_t{
                                           std::numeric_limits<Out>::max()} + 1) {
  if (!decode_value_column(payload, scratch, n, staging)) return false;
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (staging[i] >= limit) return false;
    out[i] = static_cast<Out>(staging[i]);
  }
  return true;
}

/// Parse a string dictionary segment into views over `blob` (which receives
/// the decompressed bytes and must outlive the views).
[[nodiscard]] bool decode_string_dict(std::span<const std::byte> payload,
                                      std::vector<std::byte>& blob, std::size_t max_entries,
                                      std::size_t max_len, std::vector<std::string_view>& dict) {
  dict.clear();
  // The blob buffer doubles as the decompression target; a stored payload
  // is copied so views never dangle into per-block scratch.
  const auto view = decompress_block_view(payload, blob);
  if (!view) return false;
  if (view->data() != blob.data()) blob.assign(view->begin(), view->end());
  core::ByteReader r(std::span<const std::byte>{blob});
  const std::uint64_t count = get_varint(r);
  if (!r.ok() || count > max_entries) return false;
  dict.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = get_varint(r);
    if (!r.ok() || len > max_len) return false;
    const auto s = r.string(static_cast<std::size_t>(len));
    if (!r.ok()) return false;
    dict.push_back(s);
  }
  return r.remaining() == 0;
}

}  // namespace

bool ScanPredicate::matches(const flow::FlowRecord& record) const {
  const std::int64_t ts = record.first_packet.micros();
  if (ts < time_min_us || ts > time_max_us) return false;
  if (proto_mask != 0 && (proto_mask & (1u << proto_bit(record.proto))) == 0) return false;
  if (service_mask != 0) {
    const auto id =
        services::ServiceCatalog::standard().classify_flow(record.l7, record.server_name);
    if ((service_mask & (1u << static_cast<unsigned>(id))) == 0) return false;
  }
  return true;
}

unsigned segments_for_fields(std::uint32_t fields) noexcept {
  return segments_for_fields_impl(fields);
}

std::optional<ZoneMap> peek_zone_map(std::span<const std::byte> body) noexcept {
  core::ByteReader r(body);
  if (r.u8() != kColumnarTag || r.u8() != kColumnarLayout) return std::nullopt;
  const ZoneMap z = get_zone_map(r);
  if (!r.ok() || z.record_count > kMaxColumnarRecords) return std::nullopt;
  return z;
}

void encode_columnar_block(std::span<const flow::FlowRecord> records,
                           const services::ServiceCatalog& catalog, core::ByteWriter& out,
                           EncodeScratch& scratch) {
  encode_columnar_block_impl(records, catalog, out, scratch);
}

void encode_columnar_block(std::span<const flow::FlowRecord> records,
                           const services::ServiceCatalog& catalog, core::ByteWriter& out) {
  EncodeScratch scratch;
  encode_columnar_block_impl(records, catalog, out, scratch);
}

BlockDecodeStatus decode_columnar_batch(std::span<const std::byte> body, ColumnScratch& s,
                                        const ScanPredicate* predicate,
                                        exec::RecordBatch& batch,
                                        std::uint32_t expected_records) {
  batch = exec::RecordBatch{};  // empty until the decode proves the block
  core::ByteReader r(body);
  if (r.u8() != kColumnarTag || r.u8() != kColumnarLayout) return BlockDecodeStatus::kCorrupt;
  const ZoneMap zone = get_zone_map(r);
  if (!r.ok() || zone.record_count > kMaxColumnarRecords) return BlockDecodeStatus::kCorrupt;
  if (expected_records != kAnyRecordCount && zone.record_count != expected_records) {
    return BlockDecodeStatus::kCorrupt;
  }
  const std::size_t n = zone.record_count;

  // Service dictionary: every entry must be a valid global ServiceId — a
  // "bad dictionary" is structural corruption, not a mapping to garbage.
  const std::uint8_t dict_size = r.u8();
  std::array<std::uint8_t, services::kServiceCount> dict{};
  if (dict_size > services::kServiceCount) return BlockDecodeStatus::kCorrupt;
  for (std::size_t i = 0; i < dict_size; ++i) {
    const std::uint8_t sid = r.u8();
    if (sid >= services::kServiceCount) return BlockDecodeStatus::kCorrupt;
    dict[i] = sid;
  }

  // Segment directory: each column exactly once.
  SegmentTable segs;
  const std::uint8_t seg_count = r.u8();
  if (!r.ok() || seg_count != kColumnCount) return BlockDecodeStatus::kCorrupt;
  struct DirEntry {
    std::uint8_t id;
    std::uint32_t len;
  };
  std::array<DirEntry, kColumnCount> entries{};
  for (auto& e : entries) {
    e.id = r.u8();
    const std::uint64_t len = get_varint(r);
    if (!r.ok() || e.id >= kColumnCount || len > body.size()) return BlockDecodeStatus::kCorrupt;
    e.len = static_cast<std::uint32_t>(len);
  }
  for (const auto& e : entries) {
    if (segs.present[e.id]) return BlockDecodeStatus::kCorrupt;
    segs.seg[e.id] = r.bytes(e.len);
    segs.present[e.id] = true;
  }
  if (!r.ok() || r.remaining() != 0 || !segs.complete()) return BlockDecodeStatus::kCorrupt;

  bool zone_lied = false;

  // Filter columns first: timestamps, service, proto. When a predicate
  // selects nothing, the remaining 29 segments are never decompressed.
  s.ts.resize(n);
  if (!decompress_zigzag_segment(segs.seg[kColTs], n, s.ts.data(), s.seg)) {
    return BlockDecodeStatus::kCorrupt;
  }
  if (!decode_u8_column(segs.seg[kColService], s.seg, n, s.service) ||
      !decode_u8_column(segs.seg[kColProto], s.seg, n, s.proto)) {
    return BlockDecodeStatus::kCorrupt;
  }

  // One fused pass: undo the timestamp delta chain, resolve service dict
  // codes, and run the zone cross-check (advisory-never-authoritative —
  // every record must lie inside the zone that advertised the block). The
  // serial prefix-sum chain overlaps with the independent checks instead of
  // costing three separate traversals of the arrays.
  {
    std::int64_t prev = 0;
    std::uint32_t outside = 0;
    for (std::size_t i = 0; i < n; ++i) {
      prev += s.ts[i];
      s.ts[i] = prev;
      const std::uint8_t code = s.service[i];
      if (code >= dict_size) return BlockDecodeStatus::kCorrupt;
      const std::uint8_t sid = dict[code];  // dict code → global ServiceId
      s.service[i] = sid;
      outside |= static_cast<std::uint32_t>(prev < zone.ts_min_us) |
                 static_cast<std::uint32_t>(prev > zone.ts_max_us) |
                 (~zone.service_bitmap >> sid & 1u) |
                 (~zone.proto_bitmap >>
                      proto_bit(static_cast<core::TransportProto>(s.proto[i])) &
                  1u);
    }
    zone_lied = outside != 0;
  }

  // Row selection.
  const std::uint32_t fields = predicate != nullptr ? predicate->fields : scan_fields::kAll;
  batch.fields = fields;
  const bool filtered = predicate != nullptr && !predicate->unrestricted();
  s.sel.clear();
  if (filtered) {
    for (std::size_t i = 0; i < n; ++i) {
      if (s.ts[i] < predicate->time_min_us || s.ts[i] > predicate->time_max_us) continue;
      if (predicate->service_mask != 0 &&
          (predicate->service_mask & (1u << s.service[i])) == 0) {
        continue;
      }
      if (predicate->proto_mask != 0 &&
          (predicate->proto_mask &
           (1u << proto_bit(static_cast<core::TransportProto>(s.proto[i])))) == 0) {
        continue;
      }
      s.sel.push_back(static_cast<std::uint32_t>(i));
    }
    if (s.sel.empty()) {
      return zone_lied ? BlockDecodeStatus::kZoneMapLied : BlockDecodeStatus::kOk;
    }
  }

  // Remaining columns, gated on the projection: a segment backing no
  // requested field is never decompressed or decoded (its bytes were still
  // CRC-verified with the rest of the frame).
  const auto want = [fields](std::uint32_t bit) noexcept { return (fields & bit) != 0; };
  const bool want_rtt = want(scan_fields::kRttMin | scan_fields::kRttSpread);
  const auto vcol = [&](Column id, std::vector<std::uint64_t>& out) {
    return decode_value_column(segs.seg[id], s.seg, n, out);
  };
  if (want(scan_fields::kLastPacket)) {
    s.dur.resize(n);
    if (!decompress_zigzag_segment(segs.seg[kColDur], n, s.dur.data(), s.seg)) {
      return BlockDecodeStatus::kCorrupt;
    }
  }
  if ((want(scan_fields::kAccess) &&
       !decode_u8_column(segs.seg[kColAccess], s.seg, n, s.access)) ||
      (want(scan_fields::kCloseState) &&
       !decode_u8_column(segs.seg[kColFlags], s.seg, n, s.flags)) ||
      (want(scan_fields::kL7) && !decode_u8_column(segs.seg[kColL7], s.seg, n, s.l7)) ||
      (want(scan_fields::kWeb) && !decode_u8_column(segs.seg[kColWeb], s.seg, n, s.web)) ||
      (want(scan_fields::kNameSource) &&
       !decode_u8_column(segs.seg[kColNameSource], s.seg, n, s.name_source))) {
    return BlockDecodeStatus::kCorrupt;
  }
  if ((want(scan_fields::kClientPort) &&
       !decode_value_narrow(segs.seg[kColClientPort], s.seg, s.u64_tmp, n, s.cport)) ||
      (want(scan_fields::kServerPort) &&
       !decode_value_narrow(segs.seg[kColServerPort], s.seg, s.u64_tmp, n, s.sport)) ||
      (want(scan_fields::kClientIp) &&
       !decode_value_narrow(segs.seg[kColClientIp], s.seg, s.u64_tmp, n, s.cip)) ||
      !decode_value_narrow(segs.seg[kColServerIp], s.seg, s.u64_tmp, n, s.sip)) {
    return BlockDecodeStatus::kCorrupt;
  }
  if ((want(scan_fields::kUpPackets) && !vcol(kColUpPkts, s.up_pkts)) ||
      (want(scan_fields::kUpBytes) && !vcol(kColUpBytes, s.up_bytes)) ||
      (want(scan_fields::kUpWireBytes) && !vcol(kColUpHdr, s.up_hdr)) ||
      (want(scan_fields::kUpQuality) &&
       (!vcol(kColUpRetx, s.up_retx) || !vcol(kColUpOoo, s.up_ooo))) ||
      (want(scan_fields::kDownPackets) && !vcol(kColDnPkts, s.dn_pkts)) ||
      (want(scan_fields::kDownBytes) && !vcol(kColDnBytes, s.dn_bytes)) ||
      (want(scan_fields::kDownWireBytes) && !vcol(kColDnHdr, s.dn_hdr)) ||
      (want(scan_fields::kDownQuality) &&
       (!vcol(kColDnRetx, s.dn_retx) || !vcol(kColDnOoo, s.dn_ooo))) ||
      (want(scan_fields::kHttpStatus) && !vcol(kColHttpStatus, s.http_status))) {
    return BlockDecodeStatus::kCorrupt;
  }
  if (want_rtt) {
    if (!vcol(kColRttSamples, s.rtt_samples)) return BlockDecodeStatus::kCorrupt;
    // Row-aligned expansion of the dense RTT sub-columns: batch-decode the
    // dense stream (one value per row with samples > 0), then scatter.
    std::size_t rtt_rows = 0;
    for (std::size_t i = 0; i < n; ++i) rtt_rows += s.rtt_samples[i] > 0 ? 1 : 0;
    const auto dense_zigzag = [&](Column id, std::vector<std::int64_t>& col) {
      s.u64_tmp.resize(rtt_rows);
      auto* dense = reinterpret_cast<std::int64_t*>(s.u64_tmp.data());
      if (!decompress_zigzag_segment(segs.seg[id], rtt_rows, dense, s.seg)) return false;
      col.resize(n);
      std::size_t k = 0;
      for (std::size_t i = 0; i < n; ++i) col[i] = s.rtt_samples[i] > 0 ? dense[k++] : 0;
      return true;
    };
    if (!dense_zigzag(kColRttMin, s.rtt_min)) return BlockDecodeStatus::kCorrupt;
    if (want(scan_fields::kRttSpread)) {
      if (!dense_zigzag(kColRttMaxDelta, s.rtt_max_delta) ||
          !dense_zigzag(kColRttAvgDelta, s.rtt_avg_delta)) {
        return BlockDecodeStatus::kCorrupt;
      }
      // Resolve the deltas here so the batch contract exposes values, not
      // the storage coding. avg stays the writer's integer quantization.
      s.rtt_max.resize(n);
      s.rtt_avg.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (s.rtt_samples[i] > 0) {
          s.rtt_max[i] = s.rtt_min[i] + s.rtt_max_delta[i];
          s.rtt_avg[i] = static_cast<double>(s.rtt_min[i] + s.rtt_avg_delta[i]);
        } else {
          s.rtt_max[i] = 0;
          s.rtt_avg[i] = 0;
        }
      }
    }
  }
  if (want(scan_fields::kServerName) &&
      (!decode_string_dict(segs.seg[kColNameDict], s.name_blob, n, kMaxNameLen, s.name_dict) ||
       !decode_value_narrow(segs.seg[kColNameIdx], s.seg, s.u64_tmp, n, s.name_idx,
                            s.name_dict.size()))) {
    return BlockDecodeStatus::kCorrupt;
  }
  if (want(scan_fields::kContentType) &&
      (!decode_string_dict(segs.seg[kColCtDict], s.ct_blob, n, kMaxCtLen, s.ct_dict) ||
       !decode_value_narrow(segs.seg[kColCtIdx], s.seg, s.u64_tmp, n, s.ct_idx,
                            s.ct_dict.size()))) {
    return BlockDecodeStatus::kCorrupt;
  }

  // Server-IP zone check needs the decoded column; done here so a filtered
  // scan that selected nothing never pays for it (fsck's full decode does).
  if (!zone_lied) {
    for (std::size_t i = 0; i < n; ++i) {
      if (s.sip[i] < zone.server_ip_min || s.sip[i] > zone.server_ip_max) {
        zone_lied = true;
        break;
      }
    }
  }

  // Point the batch at the decoded columns. Spans are set exactly for the
  // columns the gates above filled — an unprojected span stays empty, never
  // stale. From here on the block's rows move as one SoA unit.
  batch.rows = n;
  if (filtered) batch.sel = s.sel;
  batch.ts = s.ts;
  batch.service = s.service;
  batch.proto = s.proto;
  batch.sip = s.sip;
  if (want(scan_fields::kLastPacket)) batch.dur = s.dur;
  if (want(scan_fields::kAccess)) batch.access = s.access;
  if (want(scan_fields::kCloseState)) batch.flags = s.flags;
  if (want(scan_fields::kL7)) batch.l7 = s.l7;
  if (want(scan_fields::kWeb)) batch.web = s.web;
  if (want(scan_fields::kNameSource)) batch.name_source = s.name_source;
  if (want(scan_fields::kClientPort)) batch.cport = s.cport;
  if (want(scan_fields::kServerPort)) batch.sport = s.sport;
  if (want(scan_fields::kClientIp)) batch.cip = s.cip;
  if (want(scan_fields::kUpPackets)) batch.up_pkts = s.up_pkts;
  if (want(scan_fields::kUpBytes)) batch.up_bytes = s.up_bytes;
  if (want(scan_fields::kUpWireBytes)) batch.up_hdr = s.up_hdr;
  if (want(scan_fields::kUpQuality)) {
    batch.up_retx = s.up_retx;
    batch.up_ooo = s.up_ooo;
  }
  if (want(scan_fields::kDownPackets)) batch.dn_pkts = s.dn_pkts;
  if (want(scan_fields::kDownBytes)) batch.dn_bytes = s.dn_bytes;
  if (want(scan_fields::kDownWireBytes)) batch.dn_hdr = s.dn_hdr;
  if (want(scan_fields::kDownQuality)) {
    batch.dn_retx = s.dn_retx;
    batch.dn_ooo = s.dn_ooo;
  }
  if (want_rtt) {
    batch.rtt_samples = s.rtt_samples;
    batch.rtt_min_us = s.rtt_min;
    if (want(scan_fields::kRttSpread)) {
      batch.rtt_max_us = s.rtt_max;
      batch.rtt_avg_us = s.rtt_avg;
    }
  }
  if (want(scan_fields::kHttpStatus)) batch.http_status = s.http_status;
  if (want(scan_fields::kServerName)) {
    batch.name_idx = s.name_idx;
    batch.name_dict = s.name_dict;
  }
  if (want(scan_fields::kContentType)) {
    batch.ct_idx = s.ct_idx;
    batch.ct_dict = s.ct_dict;
  }
  return zone_lied ? BlockDecodeStatus::kZoneMapLied : BlockDecodeStatus::kOk;
}

}  // namespace edgewatch::storage
