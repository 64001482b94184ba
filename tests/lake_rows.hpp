// Row-at-a-time filtered scans of a lake day for tests that compare
// records: the batch scan with predicate pushdown, every batch replayed
// through exec::materialize_rows — the per-row walk DataLake::read_day
// makes over an unfiltered scan.
#pragma once

#include <cstdint>

#include "exec/record_batch.hpp"
#include "flow/record.hpp"
#include "storage/datalake.hpp"

namespace edgewatch::testing {

/// Deliver every record of `day` that `predicate` selects to `fn`, one
/// FlowRecord at a time.
template <typename Fn>
storage::ScanResult scan_rows(const storage::DataLake& lake, core::CivilDate day,
                              const storage::ScanPredicate& predicate, Fn&& fn) {
  flow::FlowRecord rec;
  std::uint64_t materialized = 0;
  return lake.scan_day_batches(day, predicate, [&](const exec::RecordBatch& batch) {
    exec::materialize_rows(batch, rec, fn, materialized);
  });
}

}  // namespace edgewatch::testing
