#include "analytics/parallel.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "obs/obs.hpp"

namespace edgewatch::analytics {

namespace {

/// The stage-one default when the caller pushes no predicate of its own:
/// unrestricted rows, but only the columns DayAggregator::add reads.
const storage::ScanPredicate& day_aggregate_projection() {
  static const storage::ScanPredicate p =
      storage::ScanPredicate::project(kDayAggregateScanFields);
  return p;
}

// Per-day-aggregate instrumentation: one span + one counter bump per day,
// never per record (rollup builds fan days across pool workers; registry
// cells are atomics, the span ring is mutex-protected).
struct AggregateObs {
  obs::SpanSite* day_span;
  obs::Counter* records;
};

AggregateObs& aggregate_obs() {
  static AggregateObs m = [] {
    auto& reg = obs::Registry::global();
    return AggregateObs{&reg.span_site("analytics_day_aggregate"),
                        &reg.counter("analytics_records_aggregated_total")};
  }();
  return m;
}

}  // namespace

DayScanAggregate aggregate_day(const storage::DataLake& lake, core::CivilDate day,
                               const services::ServiceCatalog& catalog) {
  storage::ScanScratch scratch;
  return aggregate_day(lake, day, scratch, nullptr, catalog);
}

DayScanAggregate aggregate_day(const storage::DataLake& lake, core::CivilDate day,
                               storage::ScanScratch& scratch,
                               const storage::ScanPredicate* predicate,
                               const services::ServiceCatalog& catalog) {
  if (predicate == nullptr) predicate = &day_aggregate_projection();
  obs::Span day_span(*aggregate_obs().day_span);
  DayAggregator agg(day, catalog);
  DayScanAggregate out;
  out.aggregate.date = day;
  const storage::DayBlockIndex idx = lake.load_day_blocks(day);
  if (idx.fatal() != core::Errc::kOk) {
    out.scan.errc = idx.fatal();
    return out;
  }
  // Batch delivery: blocks aggregate column-at-a-time with dict-code
  // pass-through (no per-row FlowRecord, no string materialization).
  // Identical aggregates to the per-record callback — add_batch is
  // golden-tested against add().
  auto deliver = [&agg](const exec::RecordBatch& b) { agg.add_batch(b); };
  for (const auto& block : idx.blocks()) {
    storage::DataLake::scan_block_batches(idx.body(block), block.record_count, predicate, scratch,
                                          out.scan, deliver);
  }
  out.scan.blocks_skipped += idx.damaged_ranges();
  if (out.scan.errc == core::Errc::kOk || idx.baseline() == core::Errc::kCorrupt) {
    out.scan.errc = idx.baseline();
  }
  if constexpr (obs::kEnabled) aggregate_obs().records->add(out.scan.records_delivered);
  out.aggregate = std::move(agg).take();
  return out;
}

namespace {

DayScanAggregate aggregate_day_parallel_impl(const storage::DataLake& lake, core::CivilDate day,
                                             core::ThreadPool& pool,
                                             const storage::ScanPredicate* predicate,
                                             const services::ServiceCatalog& catalog) {
  if (predicate == nullptr) predicate = &day_aggregate_projection();
  DayScanAggregate out;
  out.aggregate.date = day;
  const storage::DayBlockIndex idx = lake.load_day_blocks(day);
  if (idx.fatal() != core::Errc::kOk) {
    out.scan.errc = idx.fatal();
    return out;
  }

  struct Partial {
    DayAggregate aggregate;
    storage::ScanResult scan;
  };
  const std::size_t n = idx.blocks().size();
  const std::size_t tasks = std::min(n, std::max<std::size_t>(1, pool.size()));
  std::vector<std::future<Partial>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    // Balanced contiguous ranges: contiguity is what makes the in-order
    // merge reproduce the serial record stream.
    const std::size_t lo = n * t / tasks;
    const std::size_t hi = n * (t + 1) / tasks;
    futures.push_back(pool.submit([&idx, &catalog, predicate, day, lo, hi] {
      DayAggregator agg(day, catalog);
      Partial p;
      storage::ScanScratch scratch;
      auto deliver = [&agg](const exec::RecordBatch& b) { agg.add_batch(b); };
      for (std::size_t b = lo; b < hi; ++b) {
        const auto& block = idx.blocks()[b];
        storage::DataLake::scan_block_batches(idx.body(block), block.record_count, predicate,
                                              scratch, p.scan, deliver);
      }
      p.aggregate = std::move(agg).take();
      return p;
    }));
  }
  for (auto& f : futures) {
    Partial p = f.get();  // rethrows a worker's exception
    out.aggregate.merge(p.aggregate);
    out.scan.merge(p.scan);
  }
  out.scan.blocks_skipped += idx.damaged_ranges();
  if (out.scan.errc == core::Errc::kOk || idx.baseline() == core::Errc::kCorrupt) {
    out.scan.errc = idx.baseline();
  }
  return out;
}

}  // namespace

DayScanAggregate aggregate_day_parallel(const storage::DataLake& lake, core::CivilDate day,
                                        core::ThreadPool& pool,
                                        const services::ServiceCatalog& catalog) {
  return aggregate_day_parallel_impl(lake, day, pool, nullptr, catalog);
}

DayScanAggregate aggregate_day_parallel(const storage::DataLake& lake, core::CivilDate day,
                                        core::ThreadPool& pool,
                                        const storage::ScanPredicate& predicate,
                                        const services::ServiceCatalog& catalog) {
  return aggregate_day_parallel_impl(lake, day, pool, &predicate, catalog);
}

std::vector<DayScanAggregate> aggregate_days_parallel(const storage::DataLake& lake,
                                                      std::span<const core::CivilDate> days,
                                                      core::ThreadPool& pool,
                                                      const services::ServiceCatalog& catalog) {
  std::vector<std::future<DayScanAggregate>> futures;
  futures.reserve(days.size());
  for (const auto day : days) {
    futures.push_back(
        pool.submit([&lake, &catalog, day] { return aggregate_day(lake, day, catalog); }));
  }
  std::vector<DayScanAggregate> out;
  out.reserve(days.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

}  // namespace edgewatch::analytics
