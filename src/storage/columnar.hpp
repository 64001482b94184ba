// Columnar `.ewl` block bodies, the lake's one body format (paper §2.2 —
// the analytics side re-scans years of day logs, so the scan path must be
// able to *skip* and to decode in batch).
//
// Within one CRC-framed lake block, records are transposed into per-field
// column segments, each with its own value stream and its own compression
// envelope (similar bytes sit together, so the LZ pass bites
// harder and a stored fallback costs nothing). The body is prefixed by a
// fixed-width **zone map** — per-block min/max timestamp, service-id bitmap,
// transport-protocol bitmap, server-IP range, record count — that a
// selective scan reads without decompressing anything, skipping whole
// blocks whose zone provably cannot match the predicate.
//
// Zone maps are *advisory for skipping, authoritative never*: every decoded
// record is checked back against the zone that announced it, and a lying
// zone map (one that excludes records actually present) turns the block
// status to kZoneMapLied so fsck/repair can quarantine it — records are
// still delivered, never silently dropped (tests/test_storage.cpp holds
// this; DESIGN.md §12 states the contract).
//
// Body layout (all integers little-endian; the body sits verbatim inside a
// CRC frame of the day file, so every byte below is checksummed):
//
//   u8  tag = 0xC3
//   u8  layout = 3            any other value is corruption
//   zone map (36 bytes):      i64 ts_min_us | i64 ts_max_us
//                             | u32 service_bitmap | u32 proto_bitmap
//                             | u32 server_ip_min | u32 server_ip_max
//                             | u32 record_count
//   u8  dict_size, then dict_size × u8 global ServiceId  (service dictionary)
//   u8  segment_count, then per segment: u8 column_id | varint payload_len
//   segment payloads, each a compress.hpp envelope of the column stream
//
// Every block is self-contained: its server-name and content-type
// dictionaries are stored in full, so any block decodes on its own — a
// pruned or damaged neighbour never matters. Numeric
// columns use the adaptive value-segment codec (compress_u64_segment: per
// segment the smallest of {stored varint, LZ varint, frame-of-reference
// bitpack, run-length} wins); u8 columns pick constant, plain or
// run-length per block.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/bytes.hpp"
#include "core/flat_hash_map.hpp"
#include "core/hash.hpp"
#include "core/types.hpp"
#include "exec/record_batch.hpp"
#include "flow/record.hpp"
#include "services/catalog.hpp"
#include "storage/compress.hpp"

namespace edgewatch::storage {

inline constexpr std::uint8_t kColumnarTag = 0xC3;
/// The one body layout this code reads and writes. Layouts 1 and 2 (older
/// files) are rejected at the file header before any body is read.
inline constexpr std::uint8_t kColumnarLayout = 3;
/// Sanity ceiling on the per-block record count a zone map may declare.
inline constexpr std::uint32_t kMaxColumnarRecords = 1u << 20;

/// Compact bit index for the transport-protocol bitmaps: TransportProto
/// values are IANA numbers (6/17/255), too sparse for a direct bitmap.
[[nodiscard]] constexpr unsigned proto_bit(core::TransportProto p) noexcept {
  return p == core::TransportProto::kTcp ? 0u : p == core::TransportProto::kUdp ? 1u : 2u;
}

/// The per-block skip index. min/max are inclusive; the service bitmap has
/// bit i set when some record classifies as ServiceId i (kServiceCount ≤ 32
/// by construction), the proto bitmap uses proto_bit().
struct ZoneMap {
  std::int64_t ts_min_us = 0;   ///< min first_packet across the block
  std::int64_t ts_max_us = 0;   ///< max first_packet across the block
  std::uint32_t service_bitmap = 0;
  std::uint32_t proto_bitmap = 0;
  std::uint32_t server_ip_min = 0;
  std::uint32_t server_ip_max = 0;
  std::uint32_t record_count = 0;
};

/// Field-projection bits for ScanPredicate::fields. The constants moved to
/// exec/record_batch.hpp with the batch refactor (the projection contract
/// belongs to the execution currency, not to one storage format); this
/// alias keeps every storage-side spelling — scan_fields::kDayAggregate
/// etc. — valid unchanged.
namespace scan_fields = ::edgewatch::exec::scan_fields;

/// The predicate a selective scan pushes below the decoder. Default state
/// matches everything (a full scan). Time bounds are inclusive and apply to
/// first_packet, mirroring how the day files are partitioned.
struct ScanPredicate {
  std::int64_t time_min_us = std::numeric_limits<std::int64_t>::min();
  std::int64_t time_max_us = std::numeric_limits<std::int64_t>::max();
  /// Bit per services::ServiceId; 0 = any service.
  std::uint32_t service_mask = 0;
  /// Bit per proto_bit(TransportProto); 0 = any transport.
  std::uint32_t proto_mask = 0;
  /// Projection (scan_fields bits): which record fields the consumer will
  /// read. kAll decodes everything; a narrower mask lets blocks skip the
  /// unreferenced column segments entirely. Orthogonal to the row filters
  /// above — a fields-only predicate is still an unrestricted (full) scan.
  std::uint32_t fields = scan_fields::kAll;

  [[nodiscard]] bool unrestricted() const noexcept {
    return time_min_us == std::numeric_limits<std::int64_t>::min() &&
           time_max_us == std::numeric_limits<std::int64_t>::max() && service_mask == 0 &&
           proto_mask == 0;
  }

  /// Could any record admitted by this predicate live in `zone`? False is a
  /// proof of absence *if the zone map is truthful* — which is exactly why
  /// zone maps are advisory-only and cross-checked at decode.
  [[nodiscard]] bool admits(const ZoneMap& zone) const noexcept {
    if (zone.ts_max_us < time_min_us || zone.ts_min_us > time_max_us) return false;
    if (service_mask != 0 && (service_mask & zone.service_bitmap) == 0) return false;
    if (proto_mask != 0 && (proto_mask & zone.proto_bitmap) == 0) return false;
    return true;
  }

  /// Row-level match for already-materialized records: the post-decode
  /// oracle the golden tests compare pushdown against. It classifies with
  /// services::ServiceCatalog::standard(), the catalog the lake writes its
  /// service column with; lake scans filter on that stored column.
  [[nodiscard]] bool matches(const flow::FlowRecord& record) const;

  /// Convenience: restrict to one service.
  static ScanPredicate for_service(services::ServiceId id) noexcept {
    ScanPredicate p;
    p.service_mask = 1u << static_cast<unsigned>(id);
    return p;
  }

  /// Convenience: restrict to one transport protocol.
  static ScanPredicate for_proto(core::TransportProto proto) noexcept {
    ScanPredicate p;
    p.proto_mask = 1u << proto_bit(proto);
    return p;
  }

  /// Convenience: an unrestricted scan that materializes only `field_mask`.
  static ScanPredicate project(std::uint32_t field_mask) noexcept {
    ScanPredicate p;
    p.fields = field_mask;
    return p;
  }
};

/// Reusable decode buffers for the columnar path: one per scanning thread,
/// filled block after block with zero steady-state allocation. Owned by
/// storage::ScanScratch (datalake.hpp).
struct ColumnScratch {
  // Column arrays, row-aligned (record i of the block is index i).
  std::vector<std::int64_t> ts;        ///< first_packet, µs
  std::vector<std::int64_t> dur;       ///< last_packet − first_packet
  std::vector<std::uint8_t> service;   ///< global ServiceId, dict-resolved
  std::vector<std::uint8_t> proto, access, flags, l7, web, name_source;
  std::vector<std::uint16_t> cport, sport;
  std::vector<std::uint32_t> cip, sip;
  std::vector<std::uint64_t> up_pkts, up_bytes, up_hdr, up_retx, up_ooo;
  std::vector<std::uint64_t> dn_pkts, dn_bytes, dn_hdr, dn_retx, dn_ooo;
  std::vector<std::uint64_t> rtt_samples, http_status;
  std::vector<std::int64_t> rtt_min, rtt_max_delta, rtt_avg_delta;
  /// Resolved RTT spread (min + delta, row-aligned, zero where samples ==
  /// 0): what the RecordBatch contract exposes instead of the on-disk
  /// delta coding. Filled only under scan_fields::kRttSpread.
  std::vector<std::int64_t> rtt_max;
  std::vector<double> rtt_avg;
  std::vector<std::uint32_t> name_idx, ct_idx;
  // String dictionaries: views into the two blob buffers below, which hold
  // the block's decompressed dictionary segments.
  std::vector<std::string_view> name_dict, ct_dict;
  std::vector<std::byte> name_blob, ct_blob;
  /// Per-segment decompression scratch (reused; stored segments decode
  /// zero-copy straight from the file bytes).
  std::vector<std::byte> seg;
  /// Wide staging for varint columns that narrow on emit (server_port).
  std::vector<std::uint64_t> u64_tmp;
  /// Selected row indexes of a filtered decode.
  std::vector<std::uint32_t> sel;
};

/// Encode-side scratch mirroring ScanScratch: column staging arrays, the
/// compressor scratch, and the payload/directory accumulators, all reused
/// across blocks and flushes so the steady-state write path allocates
/// nothing. One per encode context (the lake keeps a ring of them for the
/// pipelined writer — each in-flight block encodes into its own slot).
struct EncodeScratch {
  CompressScratch compress;
  std::vector<std::uint64_t> u64;          ///< numeric column / dict-index staging
  std::vector<std::uint8_t> u8;            ///< u8 column staging
  std::vector<std::uint8_t> service_code;  ///< pass-1 per-row dict codes
  core::ByteWriter stream;                 ///< byte-stream staging (fixed cols, dicts)
  /// The block's server-name dictionary (views into the records being
  /// encoded), each row's code into it, and each entry's service verdict.
  std::vector<std::string_view> name_entries;
  std::vector<std::uint64_t> name_code;
  std::vector<std::uint8_t> name_service;
  /// Content-type dictionary entries, and the interning map both
  /// dictionaries are built with.
  std::vector<std::string_view> dict_entries;
  core::FlatHashMap<std::string_view, std::uint32_t, core::StringHash> dict_codes;
  std::vector<std::byte> payloads;
  std::vector<std::pair<std::uint8_t, std::uint32_t>> directory;  // id → len
  /// Per-codec envelope byte tallies for this scratch, indexed by
  /// compress.hpp scheme tag. The lake folds them into the obs counters at
  /// commit (per-task tallies keep the parallel encode contention-free).
  std::array<std::uint64_t, 4> codec_bytes_in{};
  std::array<std::uint64_t, 4> codec_bytes_out{};
};

/// Outcome of decoding one columnar body.
enum class BlockDecodeStatus : std::uint8_t {
  kOk = 0,
  /// Structural damage (bad tag/dictionary/segment, torn column, count
  /// mismatch). No record of the block is delivered — blocks decode
  /// atomically.
  kCorrupt,
  /// Every record decoded and was delivered, but at least one contradicts
  /// the zone map (a record outside the claimed time/service/proto/IP
  /// zone). The block must be quarantined: a selective scan trusting this
  /// zone map could have skipped records a truthful map would have kept.
  kZoneMapLied,
};

/// Number of column segments a full decode under this projection mask must
/// touch (out of the fixed per-block segment count — the always-decoded
/// filter/zone columns included). Mirrors decode_columnar_batch's gates;
/// observability uses it to count segments *skipped* by a projection.
[[nodiscard]] unsigned segments_for_fields(std::uint32_t fields) noexcept;
/// Segments per columnar block; segments_for_fields(kAll).
inline constexpr unsigned kColumnSegmentCount = 32;

/// Read just the fixed-width zone map — no decompression, no column decode.
/// nullopt on a malformed prefix.
[[nodiscard]] std::optional<ZoneMap> peek_zone_map(std::span<const std::byte> body) noexcept;

/// Transpose `records` into a columnar body appended to `out`. `catalog`
/// materializes the per-record service ids (dictionary-coded) and the zone
/// map's service bitmap: one verdict per distinct server name of the block,
/// except that P2P rows are always ServiceId::kPeerToPeer. `scratch` is
/// reused across calls, so a writer that keeps one per encode context
/// allocates nothing in the steady state.
void encode_columnar_block(std::span<const flow::FlowRecord> records,
                           const services::ServiceCatalog& catalog, core::ByteWriter& out,
                           EncodeScratch& scratch);
/// Convenience overload with its own scratch.
void encode_columnar_block(std::span<const flow::FlowRecord> records,
                           const services::ServiceCatalog& catalog, core::ByteWriter& out);

/// Frame-header count placeholder for decode_columnar_batch: skip the
/// cross-check.
inline constexpr std::uint32_t kAnyRecordCount = 0xffffffffu;

/// Decode a columnar body into `scratch` and point `batch` at the resulting
/// columns. With a predicate, the filter columns (timestamp, service,
/// proto) decode first and, when nothing matches, the remaining segments
/// are never touched; surviving rows are named by the batch's selection
/// vector. Segments backing no projected field (predicate->fields) are
/// skipped, and the name/content-type columns pass through as dictionary
/// codes — no per-row string traffic. `expected_records` cross-checks the
/// frame header's count (kAnyRecordCount skips it). On kCorrupt the batch is
/// left empty; on kZoneMapLied the rows are still delivered
/// (advisory-never-authoritative). The batch views `scratch` and stays
/// valid until its next decode.
[[nodiscard]] BlockDecodeStatus decode_columnar_batch(
    std::span<const std::byte> body, ColumnScratch& scratch, const ScanPredicate* predicate,
    exec::RecordBatch& batch, std::uint32_t expected_records = kAnyRecordCount);

}  // namespace edgewatch::storage
