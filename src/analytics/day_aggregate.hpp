// Stage one of the paper's two-stage analytics (§2.2): reduce a day of raw
// flow records to per-day/per-subscription aggregates. Everything the
// figure-level analytics need is collected in one pass:
//   - per-subscriber traffic and per-service traffic (Figs. 2,3,5,6,7,9)
//   - 10-minute downlink bins per access technology (Fig. 4)
//   - web-protocol byte counters (Fig. 8)
//   - per-service min-RTT samples (Fig. 10)
//   - server-IP / ASN / domain observations (Fig. 11)
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/flat_hash_map.hpp"
#include "core/time.hpp"
#include "core/types.hpp"
#include "exec/record_batch.hpp"
#include "flow/record.hpp"
#include "services/catalog.hpp"
#include "storage/datalake.hpp"

namespace edgewatch::analytics {

inline constexpr std::size_t kWebProtocolCount =
    static_cast<std::size_t>(dpi::WebProtocol::kFbZero) + 1;
inline constexpr std::size_t kTimeBinsPerDay = 144;  // 10-minute bins (§3.2)

/// Capture-quality accounting for one civil day, produced by the runtime
/// supervision layer (runtime::Supervisor) and threaded into the day's
/// aggregate so downstream figures are corrected, never silently wrong:
/// when the probe shed load under pressure, every shed frame is *recorded*
/// here, and offered == ingested + shed + quarantined always reconciles.
struct CaptureQuality {
  std::uint64_t frames_offered = 0;      ///< Everything the capture layer handed us.
  std::uint64_t frames_ingested = 0;     ///< Fully processed by a probe shard.
  std::uint64_t frames_shed = 0;         ///< Dropped by degradation sampling/backpressure.
  std::uint64_t frames_quarantined = 0;  ///< Poison frames captured to the quarantine log.

  /// True when the day saw every offered frame (the paper's normal state:
  /// "no traffic sampling is performed", §2.1).
  [[nodiscard]] bool complete() const noexcept {
    return frames_shed == 0 && frames_quarantined == 0;
  }
  /// Multiplicative volume correction for figures over this day's records:
  /// offered / ingested (1.0 when complete; only shed load is corrected
  /// for — quarantined frames are inspectable, not extrapolatable).
  [[nodiscard]] double correction_factor() const noexcept {
    const std::uint64_t kept = frames_ingested;
    if (kept == 0 || frames_shed == 0) return 1.0;
    return static_cast<double>(kept + frames_shed) / static_cast<double>(kept);
  }
  [[nodiscard]] bool reconciles() const noexcept {
    return frames_offered == frames_ingested + frames_shed + frames_quarantined;
  }

  bool operator==(const CaptureQuality&) const noexcept = default;
};

/// The §3 definition of an *active* subscriber.
struct ActivityCriteria {
  std::uint64_t min_flows = 10;
  std::uint64_t min_down_bytes = 15'000;
  std::uint64_t min_up_bytes = 5'000;
};

struct ServiceDayTraffic {
  std::uint64_t flows = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;

  [[nodiscard]] std::uint64_t total() const noexcept { return bytes_up + bytes_down; }
};

/// Per-service TCP health counters for the day (downstream direction —
/// where loss hurts the subscriber).
struct ServiceDayHealth {
  std::uint64_t packets = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t out_of_order = 0;

  [[nodiscard]] double retransmission_rate() const noexcept {
    return packets ? static_cast<double>(retransmits) / static_cast<double>(packets) : 0.0;
  }
};

/// One subscription's day.
struct SubscriberDay {
  flow::AccessTech access = flow::AccessTech::kAdsl;
  std::uint64_t flows = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::array<ServiceDayTraffic, services::kServiceCount> per_service{};

  [[nodiscard]] bool active(const ActivityCriteria& c = {}) const noexcept {
    return flows >= c.min_flows && bytes_down > c.min_down_bytes && bytes_up > c.min_up_bytes;
  }
  [[nodiscard]] const ServiceDayTraffic& service(services::ServiceId id) const noexcept {
    return per_service[static_cast<std::size_t>(id)];
  }
};

/// Per-server-IP observations for the infrastructure analysis.
struct IpDayStats {
  std::uint32_t service_mask = 0;  ///< Bit i set: ServiceId(i) used this IP.
  std::uint64_t bytes = 0;
  [[nodiscard]] bool serves(services::ServiceId id) const noexcept {
    return (service_mask >> static_cast<unsigned>(id)) & 1u;
  }
  /// More than one named (non-Other) service on the same address?
  [[nodiscard]] bool shared() const noexcept {
    const std::uint32_t named =
        service_mask & ((1u << services::kNamedServiceCount) - 1u);
    return (named & (named - 1)) != 0;
  }
};

/// Orders (service, domain) keys; transparent so the aggregation hot path
/// can probe with a string_view instead of materializing a std::string.
struct DomainKeyLess {
  using is_transparent = void;
  template <typename A, typename B>
  [[nodiscard]] bool operator()(const A& a, const B& b) const noexcept {
    if (a.first != b.first) return a.first < b.first;
    return std::string_view(a.second) < std::string_view(b.second);
  }
};

struct DayAggregate {
  core::CivilDate date;
  core::FlatHashMap<core::IPv4Address, SubscriberDay, core::IPv4AddressHash> subscribers;
  /// Up+down L4 bytes per web protocol (index = WebProtocol).
  std::array<std::uint64_t, kWebProtocolCount> web_bytes{};
  /// Downlink bytes per 10-min bin, split by access technology.
  std::array<std::array<double, kTimeBinsPerDay>, 2> downlink_bins{};
  /// Per-service per-flow minimum RTT samples, in milliseconds.
  std::array<std::vector<double>, services::kServiceCount> rtt_min_ms;
  /// Per-service downstream TCP health.
  std::array<ServiceDayHealth, services::kServiceCount> health{};
  /// Per server address: which services used it and how many bytes.
  core::FlatHashMap<core::IPv4Address, IpDayStats, core::IPv4AddressHash> server_ips;
  /// (service, second-level domain) -> bytes (Fig. 11 bottom). Ordered so
  /// report output is deterministic; transparent comparison keeps the
  /// per-flow update allocation-free once a domain has been seen.
  std::map<std::pair<services::ServiceId, std::string>, std::uint64_t, DomainKeyLess>
      domain_bytes;
  /// Named-but-unclassified traffic: the rule-curation worklist of §2.3
  /// ("our team has continuously monitored the most common server domain
  /// names seen in the network").
  std::map<std::string, std::uint64_t, std::less<>> unclassified_domain_bytes;
  /// What fraction of the day's traffic this aggregate actually saw
  /// (degradation shed-accounting; default-constructed == assumed
  /// complete). Set from runtime::Supervisor's per-day report.
  CaptureQuality capture;

  [[nodiscard]] std::size_t total_subscribers() const noexcept { return subscribers.size(); }
  [[nodiscard]] std::size_t active_subscribers(const ActivityCriteria& c = {}) const;
  [[nodiscard]] std::uint64_t total_web_bytes() const noexcept;
};

/// Builds a DayAggregate from a stream of flow records.
class DayAggregator {
 public:
  explicit DayAggregator(core::CivilDate date,
                         const services::ServiceCatalog& catalog =
                             services::ServiceCatalog::standard());

  void add(const flow::FlowRecord& record);

  /// Batch-at-a-time counterpart of add(): consumes one RecordBatch from
  /// the lake's batch scan path and produces *bit-identical* aggregates to
  /// feeding the same rows through add() one by one (rows are visited in
  /// stream order, so even the floating-point bins and the RTT sample
  /// order match). The win over the row path: service classification runs
  /// once per *dictionary entry* instead of once per row, and no FlowRecord
  /// — no string — is ever materialized. Requires the batch to carry at
  /// least the kDayAggregate projection (a narrower batch aggregates the
  /// zeros the row path would have seen, same as add()).
  void add_batch(const exec::RecordBatch& batch);

  /// Hand over the finished aggregate (the aggregator is then empty).
  [[nodiscard]] DayAggregate take() &&;
  [[nodiscard]] const DayAggregate& current() const noexcept { return agg_; }

 private:
  const services::ServiceCatalog& catalog_;
  DayAggregate agg_;
  // add_batch scratch (reused across batches): per-dictionary-entry
  // classification and second-level-domain caches.
  std::vector<services::ServiceId> dict_service_;
  std::vector<std::string_view> dict_sld_;
};

/// One day's stage-one output plus how the underlying scan went (damaged
/// blocks are skipped, never silently aggregated).
struct DayScanAggregate {
  DayAggregate aggregate;
  storage::ScanResult scan;
};

/// Exactly the FlowRecord fields DayAggregator::add reads — the projection
/// the stage-one scan pushes down so lake scans skip the 14 column segments
/// (duration, ports, close flags, upstream packet/quality counters, wire
/// bytes, HTTP status, content-type, RTT spread, name source) the
/// aggregation never touches. first_packet, proto and server_ip are always
/// materialized by the decoder; tests/test_exec.cpp holds the
/// projected and unprojected aggregates bit-identical, which is what keeps
/// this mask honest when add() grows a new field read.
inline constexpr std::uint32_t kDayAggregateScanFields = storage::scan_fields::kDayAggregate;
static_assert(kDayAggregateScanFields ==
                  (storage::scan_fields::kClientIp | storage::scan_fields::kAccess |
                   storage::scan_fields::kUpBytes | storage::scan_fields::kDownBytes |
                   storage::scan_fields::kDownPackets | storage::scan_fields::kDownQuality |
                   storage::scan_fields::kRttMin | storage::scan_fields::kL7 |
                   storage::scan_fields::kWeb | storage::scan_fields::kServerName),
              "storage's kDayAggregate preset must track DayAggregator::add's field reads");

/// Stage one for one lake day: scan it and aggregate it on the calling
/// thread, batch by batch (DayAggregator::add_batch), under the
/// kDayAggregateScanFields projection.
[[nodiscard]] DayScanAggregate aggregate_day(
    const storage::DataLake& lake, core::CivilDate day,
    const services::ServiceCatalog& catalog = services::ServiceCatalog::standard());

/// Scratch-reusing, optionally filtered variant: the caller owns the scan
/// buffers, so a loop over many days (the rollup store's incremental
/// build) decodes every block of every day into the same allocations. A
/// non-null predicate is pushed below the block decoder — blocks are
/// pruned on zone maps (ScanResult::blocks_pruned) and only referenced
/// column segments decode.
[[nodiscard]] DayScanAggregate aggregate_day(
    const storage::DataLake& lake, core::CivilDate day, storage::ScanScratch& scratch,
    const storage::ScanPredicate* predicate = nullptr,
    const services::ServiceCatalog& catalog = services::ServiceCatalog::standard());

/// "facebook.com" from "edge-star-shv-01-mxp1.facebook.com"; keeps known
/// multi-part public suffixes whole (co.uk-style endings are not needed for
/// the study's domains, but akamaihd.net must yield akamaihd.net).
/// Returns a subrange of `host` — no allocation; copy if it must outlive
/// the argument.
[[nodiscard]] std::string_view second_level_domain(std::string_view host);

}  // namespace edgewatch::analytics
