// The interactive query engine: answers the paper's figure-style questions
// ("weekly median RTT to Facebook", "top-10 services by distinct
// subscribers per month", "monthly bytes per web protocol") from the
// rollup store alone — no raw flow record is ever decoded at query time.
//
// A query is a typed description (QuerySpec); the planner
//   1. derives the column mask the metric needs (an RTT quantile touches
//      only the rtt section of each day file; byte totals touch only the
//      counters section — the mmap'ed sketch sections are never faulted in),
//   2. enumerates the rollup days inside [from, to] and groups them into
//      time buckets (day / ISO week / month / whole range),
//   3. merges each bucket's day rollups — in parallel across buckets when a
//      ThreadPool is supplied; sketch merges are exact, so bucket order
//      never changes an answer,
//   4. extracts rows and applies top-k.
//
// Every approximate row carries its error bound (HLL: 3 standard errors,
// relative; quantiles: the sketch's relative value accuracy); exact metrics
// report a bound of 0. Golden tests in tests/test_query.cpp hold these
// bounds against exact full-scan recomputation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/result.hpp"
#include "core/thread_pool.hpp"
#include "core/time.hpp"
#include "query/store.hpp"

namespace edgewatch::query {

enum class Metric : std::uint8_t {
  kBytes,             ///< total bytes per group (exact)
  kFlows,             ///< flow count per group (exact)
  kDistinctClients,   ///< distinct subscribers per group (HLL, §4.1 threshold)
  kDistinctServers,   ///< distinct server IPs per group (HLL)
  kRttQuantile,       ///< per-flow min-RTT quantile per group (sketch)
  kVolumeQuantile,    ///< per-active-subscriber daily-volume quantile, per tech
  kActiveSubscribers, ///< active subscriber-days per tech (exact)
};

/// Time bucketing of the result rows.
enum class TimeBucket : std::uint8_t {
  kTotal,  ///< one row set for the whole range
  kDay,
  kWeek,   ///< ISO weeks; bucket date = the Monday
  kMonth,  ///< bucket date = the first of the month
};

struct QuerySpec {
  Metric metric = Metric::kBytes;
  Dimension dimension = Dimension::kService;  ///< ignored for per-tech metrics
  core::CivilDate from;
  core::CivilDate to;  ///< inclusive
  TimeBucket bucket = TimeBucket::kTotal;
  /// Restrict to one group key (e.g. one ServiceId for an RTT query).
  std::optional<std::uint32_t> group;
  /// For kRttQuantile / kVolumeQuantile: which quantile, in [0, 1].
  double quantile = 0.5;
  /// For kVolumeQuantile: download (true) or upload direction.
  bool download = true;
  /// Keep only the k largest rows per bucket (0 = all), ordered by value.
  std::size_t top_k = 0;
  /// Answer rollup-less days of the range by scanning the raw lake with a
  /// pushed-down ScanPredicate instead of reporting them missing. Exact
  /// metrics only (kBytes/kFlows, service or protocol dimension): a
  /// service-restricted query prunes whole blocks via zone maps, so the
  /// fallback touches a fraction of the day file. Service groups come from
  /// the lake's stored service column, the verdict its writer made per
  /// distinct name; no classifier runs at query time. Days that stay
  /// unanswerable (no lake file either, or an approximate metric) are
  /// still reported missing.
  bool raw_fallback = false;
};

struct QueryRow {
  core::CivilDate bucket;   ///< bucket start date
  std::uint32_t key = 0;    ///< group key (ServiceId / protocol / ASN / tech)
  double value = 0;
  /// Relative error bound on `value` (0 for exact metrics): the true value
  /// lies within value * (1 ± bound), per the sketches' documented contracts.
  double error_bound = 0;
};

struct QueryResult {
  std::vector<QueryRow> rows;  ///< bucket-major, value-descending inside a bucket
  std::vector<core::CivilDate> missing_days;  ///< range days with no rollup
  std::size_t days_merged = 0;
  /// Of days_merged, how many were answered by a raw-lake fallback scan
  /// (QuerySpec::raw_fallback) instead of a rollup file.
  std::size_t days_scanned_raw = 0;
  std::uint32_t columns_loaded = 0;  ///< the projection mask the planner used
  core::Errc errc = core::Errc::kOk;  ///< first corrupt/torn rollup, if any

  [[nodiscard]] bool ok() const noexcept { return errc == core::Errc::kOk; }
};

/// Column mask a metric needs — the planner's projection (exposed for
/// tests and the latency bench).
[[nodiscard]] std::uint32_t columns_for(Metric metric) noexcept;

/// Execute `spec` against the store. With a pool, buckets merge in
/// parallel (must not be called from inside a pool task); without one the
/// merge is serial. Days whose rollup is missing are reported, not errors;
/// a corrupt rollup sets errc and is skipped.
[[nodiscard]] QueryResult run_query(const RollupStore& store, const QuerySpec& spec,
                                    core::ThreadPool* pool = nullptr);

}  // namespace edgewatch::query
