// Day rollups: the sketch-based summaries the query engine answers from
// instead of re-scanning raw flow logs (Flowyager-style hierarchical
// summaries, Saidi et al. 2020). One rollup file summarizes one civil day
// along all three dimensions; sketches merge losslessly across days, so any
// time range collapses to a handful of section reads plus sketch merges.
//
// On-disk format `.ewr` v2 ("EWRU") reuses the lake's section idiom:
//
//   file    := magic "EWRU" | u8 version | section*
//   section := u8 id | u32le body_len | u32le crc32c(id | body_len | body)
//              | body
//
// The header comes first and the trailer last; between them, each
// dimension's sections in Dimension order. A data section's id is
// dimension << 4 | kind.
//   header      day, source-lake FileIdentity (staleness check), group
//               count of each dimension
//   keys        u32le group keys, ascending (columnar: one array)
//   counters    u64le flows[] | bytes_up[] | bytes_down[]  (three arrays)
//   clients     per group: varint length | HyperLogLog       (distinct subscribers)
//   servers     per group: varint length | HyperLogLog       (distinct server IPs)
//   rtt         per group: varint length | QuantileSketch    (per-flow min RTT, ms)
//   subscribers per access tech: active count, byte sums, volume sketches
//               (service dimension only — the Fig. 2/3 substrate)
//   trailer     section count; written last, so a torn write is detected
//               even before any section CRC is checked
//
// Every sketch uses its type's default parameters, so empty groups need no
// recorded parameters; a sketch with any other parameters reads as corrupt.
//
// The layout is columnar at section granularity: a query that needs only
// one dimension's counters never reads (or faults in, via mmap) the other
// sections. decode_rollup() checks the CRC of every section it
// materializes; sections outside the projection are skipped untouched.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "analytics/figures.hpp"
#include "asn/lpm.hpp"
#include "core/result.hpp"
#include "core/sketch.hpp"
#include "core/time.hpp"
#include "services/catalog.hpp"
#include "storage/datalake.hpp"

namespace edgewatch::query {

/// A pre-aggregation axis: one of the three summaries in a rollup file.
enum class Dimension : std::uint8_t {
  kService = 0,   ///< group key = services::ServiceId
  kProtocol = 1,  ///< group key = dpi::WebProtocol (bytes only)
  kServerAsn = 2, ///< group key = origin ASN (0 = unrouted)
};

inline constexpr std::size_t kDimensionCount = 3;

[[nodiscard]] std::string_view to_string(Dimension d) noexcept;

/// Column/section selector bits (also the section ids on disk).
enum Column : std::uint32_t {
  kColCounters = 1u << 0,
  kColClients = 1u << 1,
  kColServers = 1u << 2,
  kColRtt = 1u << 3,
  kColSubscribers = 1u << 4,
};
inline constexpr std::uint32_t kAllColumns =
    kColCounters | kColClients | kColServers | kColRtt | kColSubscribers;

/// Summary of one group (one service / web protocol / server ASN) for one
/// day. Which members are meaningful depends on the dimension; empty
/// sketches cost a few bytes on disk.
struct GroupRollup {
  std::uint64_t flows = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  core::HyperLogLog clients;    ///< distinct subscribers that used the group (§4.1)
  core::HyperLogLog servers;    ///< distinct server IPs observed
  core::QuantileSketch rtt_ms;  ///< per-flow minimum RTT samples

  [[nodiscard]] std::uint64_t bytes_total() const noexcept { return bytes_up + bytes_down; }

  void merge(const GroupRollup& other) noexcept {
    flows += other.flows;
    bytes_up += other.bytes_up;
    bytes_down += other.bytes_down;
    clients.merge(other.clients);
    servers.merge(other.servers);
    rtt_ms.merge(other.rtt_ms);
  }
};

/// Per-access-tech subscriber statistics for one day: the exact counters
/// behind Fig. 3's averages and the volume sketches behind Fig. 2's CCDF
/// quantiles. One sample per *active* subscriber-day (§3 criteria).
struct TechRollup {
  std::uint64_t active = 0;    ///< active subscribers this day
  std::uint64_t sum_down = 0;  ///< bytes over active subscribers (exact)
  std::uint64_t sum_up = 0;
  core::QuantileSketch down_bytes;  ///< per-active-subscriber daily bytes
  core::QuantileSketch up_bytes;

  void merge(const TechRollup& other) noexcept {
    active += other.active;
    sum_down += other.sum_down;
    sum_up += other.sum_up;
    down_bytes.merge(other.down_bytes);
    up_bytes.merge(other.up_bytes);
  }
};

/// One day along one dimension — the unit the engine loads and merges.
/// merge() folds another day (or another PoP's same day) in; sketch merges
/// are exact, so rollup(range) == rollup of the concatenated days.
struct DayRollup {
  core::CivilDate day{};
  Dimension dimension = Dimension::kService;
  storage::FileIdentity source;   ///< lake day file at build time
  std::uint32_t columns = kAllColumns;  ///< which sections are populated
  std::map<std::uint32_t, GroupRollup> groups;
  std::array<TechRollup, analytics::kAccessTechCount> subscribers;

  void merge(const DayRollup& other);
};

/// One day's rollups, indexed by Dimension: the contents of one .ewr file.
using DayRollups = std::array<DayRollup, kDimensionCount>;

/// Build one day's rollups from its stage-one aggregate (the same
/// DayAggregate the figure analytics consume). `rib` maps server IPs to
/// origin ASNs for the kServerAsn dimension (unrouted IPs group under ASN
/// 0). Active subscribers follow the default ActivityCriteria.
[[nodiscard]] DayRollups build_day_rollups(
    const analytics::DayAggregate& aggregate,
    const services::ServiceCatalog& catalog = services::ServiceCatalog::standard(),
    const asn::Rib* rib = nullptr);

/// Serialize one day's rollups to the .ewr wire format. The file records
/// the day and source identity of the service rollup; the three share them.
[[nodiscard]] std::vector<std::byte> encode_rollup(const DayRollups& rollups);

/// Parse dimension `dim` of a .ewr file, materializing only the sections
/// selected by `columns` (the header, keys and trailer are always read;
/// other dimensions' sections are skipped unchecked). Errors:
/// kBadMagic/kBadVersion for foreign files, kTruncated for a missing
/// trailer (torn write), kCorrupt for any CRC or structural failure.
[[nodiscard]] core::Result<DayRollup> decode_rollup(std::span<const std::byte> data,
                                                    Dimension dim,
                                                    std::uint32_t columns = kAllColumns);

}  // namespace edgewatch::query
