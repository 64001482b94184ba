// Parallel stage-one analytics (paper §2.2: per-day aggregation of the
// flow logs). Two axes of parallelism over a shared core::ThreadPool:
//
//   - across days: each day is one task (the natural partition — the lake
//     is day-partitioned and days are independent);
//   - within a day: the day file's CRC-framed blocks are independently
//     decodable, so contiguous block ranges fan out across workers, each
//     producing a partial DayAggregate that merge() folds back together
//     in block order.
//
// Determinism: partials are merged in block-range order, so the combined
// aggregate carries the same rtt_min_ms sample order as a serial scan and
// every counter is a sum of the same terms — figure outputs are
// bit-identical to the single-threaded pipeline.
#pragma once

#include <span>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "core/thread_pool.hpp"
#include "services/catalog.hpp"
#include "storage/datalake.hpp"

namespace edgewatch::analytics {

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
/// materialized by the decoder; tests/test_parallel.cpp holds the
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

/// Serial baseline: scan one day and aggregate it on the calling thread.
/// Also the per-task body of aggregate_days_parallel.
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

/// Aggregate one day with its blocks fanned out over `pool`. Each worker
/// decodes a contiguous block range with its own ScanScratch (one
/// decompression buffer per worker, not per block) into a partial
/// DayAggregate; partials merge in block order. Must not be called from
/// inside a pool task — the fan-out waits on the same pool.
[[nodiscard]] DayScanAggregate aggregate_day_parallel(
    const storage::DataLake& lake, core::CivilDate day, core::ThreadPool& pool,
    const services::ServiceCatalog& catalog = services::ServiceCatalog::standard());

/// Parallel + predicate pushdown: same fan-out, but every worker passes
/// the predicate to its block scans, so zone-map pruning and column
/// skipping happen inside each contiguous range. Merge order (and thus
/// the delivered record order) is unchanged.
[[nodiscard]] DayScanAggregate aggregate_day_parallel(
    const storage::DataLake& lake, core::CivilDate day, core::ThreadPool& pool,
    const storage::ScanPredicate& predicate,
    const services::ServiceCatalog& catalog = services::ServiceCatalog::standard());

/// Aggregate many days, one pool task per day (aggregation inside each
/// task is serial — day-level fan-out already saturates the pool, and
/// nesting would deadlock). Results are in `days` order.
[[nodiscard]] std::vector<DayScanAggregate> aggregate_days_parallel(
    const storage::DataLake& lake, std::span<const core::CivilDate> days,
    core::ThreadPool& pool,
    const services::ServiceCatalog& catalog = services::ServiceCatalog::standard());

}  // namespace edgewatch::analytics
