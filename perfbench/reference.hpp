// Reference answers of the end-to-end benchmark. Every pipeline output is
// checked against values computed apart from the path under test: the
// serial probe's records are checked against the conversations the capture
// was rendered from; flow records straight from that probe or the workload
// generator are aggregated row by row with analytics::DayAggregator, and
// never read back through the lake, the rollups or the query engine.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "analytics/figures.hpp"
#include "asn/lpm.hpp"
#include "flow/record.hpp"
#include "inputs.hpp"
#include "query/engine.hpp"

namespace perfbench {

/// Nearest-rank quantile `q` of `values` (0 when there are none).
[[nodiscard]] double nearest_rank(std::vector<double> values, double q);

/// The conversations of `in` that the probe's records misreport. Each must
/// be exported as one record on its 5-tuple, with the rendered response as
/// its download payload, the rendered web protocol and the server name its
/// first flight or a preceding DNS response carried. The other records are
/// the DNS responses' own flows: a record count other than conversations
/// plus DNS responses counts as one more mismatch.
[[nodiscard]] std::size_t capture_mismatches(const Inputs& in,
                                             std::span<const edgewatch::flow::FlowRecord> records);

/// The truth for every lake day, oldest first. The first `rolled` days get
/// rollups; the others wait for their nightly build and are reachable only
/// through raw-fallback queries.
struct Reference {
  std::vector<edgewatch::analytics::DayAggregate> days;
  std::size_t rolled = 0;
  const edgewatch::asn::Rib* rib = nullptr;

  [[nodiscard]] std::span<const edgewatch::analytics::DayAggregate> rolled_days() const {
    return std::span(days).first(rolled);
  }
};

/// One aggregate per civil day the records' flows started on (the day
/// DailyLakeWriter files them under), oldest first.
[[nodiscard]] std::vector<edgewatch::analytics::DayAggregate> aggregate_by_day(
    std::span<const edgewatch::flow::FlowRecord> records);

/// Equal in every field a lake day file keeps. The file stores the RTT
/// average in whole microseconds and no ingest_seq.
[[nodiscard]] bool same_stored(const edgewatch::flow::FlowRecord& a,
                               const edgewatch::flow::FlowRecord& b);
/// Equal in every exported field except ingest_seq, which the sharded
/// probe numbers from its own frame sequence.
[[nodiscard]] bool same_exported(const edgewatch::flow::FlowRecord& a,
                                 const edgewatch::flow::FlowRecord& b);

/// True when `result` answers `spec` over the reference days: exact
/// counters equal, sketch-backed rows within the error bound each states
/// (the contracts of query/engine.hpp), raw-fallback days all counted.
[[nodiscard]] bool check_query(const Reference& ref, const edgewatch::query::QuerySpec& spec,
                               const edgewatch::query::QueryResult& result);

/// query::protocol_shares and query::volume_trend over the rolled days
/// against their analytics:: counterparts, to the precision
/// query/figures.hpp documents: shares bit-identical, averages equal up to
/// floating-point summation order.
[[nodiscard]] bool check_protocol_shares(
    const Reference& ref, std::span<const edgewatch::analytics::ProtocolShareRow> rows);
[[nodiscard]] bool check_volume_trend(const Reference& ref,
                                      std::span<const edgewatch::analytics::VolumeTrendRow> rows);

}  // namespace perfbench
