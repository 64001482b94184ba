// The batch execution core: one SoA currency type between the lake's scan
// path and every analytics consumer (paper §2.2 — the two-stage methodology
// re-scans years of day logs, so the hot loop must move *batches*, not one
// FlowRecord at a time).
//
// A RecordBatch is a non-owning column view over one decoded lake block:
// parallel arrays for timestamps, byte/packet counters, RTT, service/proto
// codes, server IP/port — plus the dictionary-coded name/content-type
// columns, which pass the block dict codes through as (index, dictionary-view)
// pairs so a consumer that tallies per hostname touches each distinct
// string once per block instead of once per row. Lake blocks fill a batch
// straight from the decode scratch with zero string materialization.
//
// Lifetime: a batch views the scratch that produced it. It is valid until
// the next decode call on that scratch — consume it inside the sink
// callback, copy out what must survive.
//
// Projection: `fields` (scan_fields bits) says which spans are populated.
// The filter/zone columns — ts, service, proto, sip — are always present;
// unprojected spans are empty, never stale.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/function_ref.hpp"
#include "flow/record.hpp"

namespace edgewatch::exec {

/// Field-projection bits shared by the scan predicate and the batch
/// contract: which FlowRecord fields (equivalently, which RecordBatch
/// spans) a scan must materialize. Every bit maps to the column segment(s)
/// backing that field; segments backing no requested field are never
/// decompressed or decoded. The filter/zone columns — first_packet, proto,
/// server_ip plus the materialized service codes — are always decoded: they
/// drive row selection and the zone-map cross-check. All other unprojected
/// fields of emitted records are value-initialized (zero / empty), never
/// stale. (storage::scan_fields aliases this namespace.)
namespace scan_fields {
inline constexpr std::uint32_t kLastPacket = 1u << 0;     ///< duration column
inline constexpr std::uint32_t kClientIp = 1u << 1;
inline constexpr std::uint32_t kClientPort = 1u << 2;
inline constexpr std::uint32_t kServerPort = 1u << 3;
inline constexpr std::uint32_t kAccess = 1u << 4;
inline constexpr std::uint32_t kCloseState = 1u << 5;     ///< handshake + close_reason
inline constexpr std::uint32_t kUpPackets = 1u << 6;
inline constexpr std::uint32_t kUpBytes = 1u << 7;
inline constexpr std::uint32_t kUpWireBytes = 1u << 8;    ///< bytes_with_hdr
inline constexpr std::uint32_t kUpQuality = 1u << 9;      ///< retransmits + out_of_order
inline constexpr std::uint32_t kDownPackets = 1u << 10;
inline constexpr std::uint32_t kDownBytes = 1u << 11;
inline constexpr std::uint32_t kDownWireBytes = 1u << 12;
inline constexpr std::uint32_t kDownQuality = 1u << 13;
inline constexpr std::uint32_t kRttMin = 1u << 14;        ///< rtt.samples + rtt.min_us
inline constexpr std::uint32_t kRttSpread = 1u << 15;     ///< + rtt.max_us / rtt.avg_us
inline constexpr std::uint32_t kL7 = 1u << 16;
inline constexpr std::uint32_t kWeb = 1u << 17;
inline constexpr std::uint32_t kNameSource = 1u << 18;
inline constexpr std::uint32_t kServerName = 1u << 19;    ///< name dictionary + indexes
inline constexpr std::uint32_t kHttpStatus = 1u << 20;
inline constexpr std::uint32_t kContentType = 1u << 21;   ///< content-type dict + indexes
inline constexpr std::uint32_t kAll = 0xffffffffu;
/// Canonical projection presets. The batch→row shim keeps a branch-free
/// emit loop pre-instantiated for each preset (plus kAll), so scans that
/// use one exactly pay no per-row projection tests. kDayAggregate is the
/// stage-one day-rollup working set — the hottest scan in the pipeline
/// (analytics::kDayAggregateScanFields aliases it).
inline constexpr std::uint32_t kDayAggregate = kClientIp | kAccess | kUpBytes | kDownBytes |
                                               kDownPackets | kDownQuality | kRttMin | kL7 |
                                               kWeb | kServerName;
}  // namespace scan_fields

/// One decoded lake block as columns. All row spans are index-aligned:
/// row i of the block is element i of every populated span. `sel` carries
/// the surviving row indexes of a filtered scan (empty = every row
/// survived); consumers must iterate sel when present — unselected rows
/// hold decoded but *filtered-out* data.
struct RecordBatch {
  std::uint32_t fields = scan_fields::kAll;  ///< which spans are populated
  std::size_t rows = 0;                      ///< span length (block row count)
  std::span<const std::uint32_t> sel;        ///< filtered selection; empty = all

  std::span<const std::int64_t> ts;          ///< first_packet, µs (always present)
  std::span<const std::int64_t> dur;         ///< last_packet − first_packet
  /// Global ServiceId per row: the writer's classify_flow(l7, name) verdict
  /// with the standard catalog (always present: it is a filter column). The
  /// scan filter, the zone maps and the query engine's raw fallback read
  /// it; stage one (DayAggregator) classifies l7 + the name dictionary at
  /// aggregation time instead.
  std::span<const std::uint8_t> service;
  std::span<const std::uint8_t> proto;       ///< TransportProto (always present)
  std::span<const std::uint8_t> access, l7, web, name_source;
  std::span<const std::uint8_t> flags;       ///< bit0 handshake, rest close_reason
  std::span<const std::uint16_t> cport, sport;
  std::span<const std::uint32_t> cip;
  std::span<const std::uint32_t> sip;        ///< always present (zone column)
  std::span<const std::uint64_t> up_pkts, up_bytes, up_hdr, up_retx, up_ooo;
  std::span<const std::uint64_t> dn_pkts, dn_bytes, dn_hdr, dn_retx, dn_ooo;
  std::span<const std::uint64_t> rtt_samples, http_status;
  /// Resolved RTT values (the on-disk delta/dense coding is a storage
  /// detail the batch contract hides). min/max are exact; avg is the
  /// writer's integer-quantized value — same as read_day delivers.
  std::span<const std::int64_t> rtt_min_us, rtt_max_us;
  std::span<const double> rtt_avg_us;
  /// Dictionary-coded string columns: per-row dict indexes plus the block's
  /// dictionary as views. The views alias the producing scratch's blob
  /// buffers — same lifetime as the batch itself.
  std::span<const std::uint32_t> name_idx, ct_idx;
  std::span<const std::string_view> name_dict, ct_dict;

  [[nodiscard]] std::size_t delivered_rows() const noexcept {
    return sel.empty() ? rows : sel.size();
  }
  [[nodiscard]] bool empty() const noexcept { return delivered_rows() == 0; }

  /// Visit every delivered row index, in row (stream) order — the order
  /// read_day emits, which aggregate identity depends on.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    if (sel.empty()) {
      for (std::size_t i = 0; i < rows; ++i) fn(i);
    } else {
      for (const std::uint32_t i : sel) fn(static_cast<std::size_t>(i));
    }
  }
};

/// The batch→row shim behind DataLake::read_day: emit every
/// delivered row of `batch` through the one reused `rec` — per-block
/// value-initialization of unprojected fields, dict-index
/// change detection so a string is only re-assigned when the row's code
/// differs from the previous row's, rows in stream order, ingest_seq
/// always 0 (not stored in the lake). Counts what `fn` saw into
/// `records_delivered`.
void materialize_rows(const RecordBatch& batch, flow::FlowRecord& rec,
                      core::FunctionRef<void(const flow::FlowRecord&)> fn,
                      std::uint64_t& records_delivered);

/// Observability hook for the native batch delivery path: batches emitted,
/// rows-per-batch shape, and dict-code pass-through row count (rows whose
/// strings were never materialized). materialize_rows counts its own rows;
/// the pass-through/materialized pair is what `--stats` shows as the scan
/// shape.
void note_batch_delivered(const RecordBatch& batch);

}  // namespace edgewatch::exec
