#include "query/engine.hpp"

#include <algorithm>
#include <array>
#include <future>
#include <map>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace edgewatch::query {

namespace {

constexpr const char* metric_name(Metric m) noexcept {
  switch (m) {
    case Metric::kBytes:
      return "bytes";
    case Metric::kFlows:
      return "flows";
    case Metric::kDistinctClients:
      return "distinct_clients";
    case Metric::kDistinctServers:
      return "distinct_servers";
    case Metric::kRttQuantile:
      return "rtt_quantile";
    case Metric::kVolumeQuantile:
      return "volume_quantile";
    case Metric::kActiveSubscribers:
      return "active_subscribers";
  }
  return "unknown";
}

constexpr std::size_t kMetricCount = static_cast<std::size_t>(Metric::kActiveSubscribers) + 1;

// run_query's obs handles, registered on first use: the query counter and
// one latency histogram series per metric kind, so sketch-backed quantile
// queries don't hide behind cheap counter ones.
struct QueryObs {
  obs::Registry* registry;
  obs::Counter* total;
  std::array<obs::Histogram*, kMetricCount> latency;
};

const QueryObs& query_obs() {
  static const QueryObs m = [] {
    auto& reg = obs::Registry::global();
    QueryObs o{&reg, &reg.counter("query_total"), {}};
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      o.latency[i] = &reg.histogram(
          "query_latency_ns", {},
          std::string("metric=\"") + metric_name(static_cast<Metric>(i)) + "\"");
    }
    return o;
  }();
  return m;
}

// RAII latency timer for run_query. Covers every return path, including
// the empty-range early-out.
class QueryTimer {
 public:
  explicit QueryTimer(Metric m) {
    if constexpr (obs::kEnabled) {
      const QueryObs& o = query_obs();
      o.total->add(1);
      registry_ = o.registry;
      hist_ = o.latency[static_cast<std::size_t>(m)];
      start_ = registry_->now_ns();
    }
  }
  QueryTimer(const QueryTimer&) = delete;
  QueryTimer& operator=(const QueryTimer&) = delete;
  ~QueryTimer() {
    if constexpr (obs::kEnabled) {
      hist_->record(registry_->now_ns() - start_);
    }
  }

 private:
  [[maybe_unused]] obs::Registry* registry_ = nullptr;
  [[maybe_unused]] obs::Histogram* hist_ = nullptr;
  [[maybe_unused]] std::uint64_t start_ = 0;
};

bool per_tech(Metric m) noexcept {
  return m == Metric::kVolumeQuantile || m == Metric::kActiveSubscribers;
}

core::CivilDate bucket_start(core::CivilDate day, TimeBucket bucket,
                             core::CivilDate range_from) noexcept {
  switch (bucket) {
    case TimeBucket::kTotal:
      return range_from;
    case TimeBucket::kDay:
      return day;
    case TimeBucket::kWeek: {
      const std::int64_t z = core::days_from_civil(day);
      return core::civil_from_days(z - (core::weekday_from_days(z) - 1));
    }
    case TimeBucket::kMonth:
      return core::MonthIndex{day}.first_day();
  }
  return day;
}

/// One bucket's merge + row extraction (the per-task body).
struct BucketOutcome {
  std::vector<QueryRow> rows;
  std::size_t days_merged = 0;
  std::size_t days_raw = 0;
  std::vector<core::CivilDate> missing;
  core::Errc errc = core::Errc::kOk;
};

/// The raw fallback only serves exact group counters: approximate metrics
/// would need the sketches a rollup holds, and the ASN dimension needs the
/// RIB snapshot the store used at build time.
bool raw_fallback_applies(const QuerySpec& spec, Dimension dim) noexcept {
  if (!spec.raw_fallback) return false;
  if (spec.metric != Metric::kBytes && spec.metric != Metric::kFlows) return false;
  return dim == Dimension::kService || dim == Dimension::kProtocol;
}

BucketOutcome merge_bucket(const RollupStore& store, const QuerySpec& spec, Dimension dim,
                           std::uint32_t columns, core::CivilDate start,
                           const std::vector<core::CivilDate>& days) {
  BucketOutcome out;
  DayRollup merged;
  bool any = false;
  for (const core::CivilDate day : days) {
    auto rollup = store.load(day, dim, columns);
    if (!rollup) {
      if (rollup.error() == core::Errc::kNotFound) {
        out.missing.push_back(day);
      } else if (out.errc == core::Errc::kOk) {
        out.errc = rollup.error();
      }
      continue;
    }
    ++out.days_merged;
    if (!any) {
      merged = std::move(*rollup);
      any = true;
    } else {
      merged.merge(*rollup);
    }
  }
  // Rollup-less days: with raw_fallback, answer them straight from the
  // lake. Accumulation mirrors build_day_rollups' counters exactly —
  // service groups count (flows, bytes_up, bytes_down) per record under
  // its stored verdict; protocol groups sum web bytes into bytes_down — so
  // a fallback day is indistinguishable from a rollup-answered one. The day
  // file is the time partition (no time filter pushed), but a
  // group-restricted service query pushes its service mask below the block
  // decoder: blocks whose zone map lacks the service are pruned
  // undecompressed.
  //
  // Consumption is batch-at-a-time (scan_day_batches): the projection is
  // narrowed to the columns each dimension actually reads and no
  // FlowRecord is ever materialized. The service dimension reads the
  // blocks' service column, the verdict the lake writer made once per
  // distinct name — the same column the service mask filters on — so the
  // fallback runs no classifier and a row is counted under the verdict
  // that selected it.
  if (raw_fallback_applies(spec, dim) && !out.missing.empty()) {
    std::vector<core::CivilDate> still_missing;
    for (const core::CivilDate day : out.missing) {
      storage::ScanPredicate pred;
      namespace sf = storage::scan_fields;
      pred.fields = dim == Dimension::kService ? (sf::kUpBytes | sf::kDownBytes)
                                               : (sf::kWeb | sf::kUpBytes | sf::kDownBytes);
      if (dim == Dimension::kService && spec.group && *spec.group < services::kServiceCount) {
        pred.service_mask = 1u << *spec.group;
      }
      const auto deliver = [&](const exec::RecordBatch& b) {
        if (dim == Dimension::kService) {
          b.for_each_row([&](std::size_t i) {
            GroupRollup& g = merged.groups[b.service[i]];
            ++g.flows;
            g.bytes_up += b.up_bytes.empty() ? 0 : b.up_bytes[i];
            g.bytes_down += b.dn_bytes.empty() ? 0 : b.dn_bytes[i];
          });
        } else {
          b.for_each_row([&](std::size_t i) {
            const auto web = static_cast<std::uint32_t>(b.web[i]);
            if (web != static_cast<std::uint32_t>(dpi::WebProtocol::kNotWeb)) {
              merged.groups[web].bytes_down +=
                  (b.up_bytes.empty() ? 0 : b.up_bytes[i]) +
                  (b.dn_bytes.empty() ? 0 : b.dn_bytes[i]);
            }
          });
        }
      };
      const storage::ScanResult scan = store.lake().scan_day_batches(day, pred, deliver);
      if (scan.errc == core::Errc::kNotFound) {
        still_missing.push_back(day);
        continue;
      }
      if (scan.errc != core::Errc::kOk && out.errc == core::Errc::kOk) out.errc = scan.errc;
      ++out.days_merged;
      ++out.days_raw;
      any = true;
    }
    out.missing = std::move(still_missing);
  }
  if (!any) return out;

  const auto emit = [&](std::uint32_t key, double value, double bound) {
    out.rows.push_back(QueryRow{start, key, value, bound});
  };
  if (per_tech(spec.metric)) {
    for (std::uint32_t t = 0; t < merged.subscribers.size(); ++t) {
      if (spec.group && *spec.group != t) continue;
      const TechRollup& tech = merged.subscribers[t];
      if (spec.metric == Metric::kActiveSubscribers) {
        emit(t, static_cast<double>(tech.active), 0);
      } else {
        const core::QuantileSketch& sketch = spec.download ? tech.down_bytes : tech.up_bytes;
        if (!sketch.empty()) emit(t, sketch.quantile(spec.quantile), sketch.relative_accuracy());
      }
    }
  } else {
    for (const auto& [key, group] : merged.groups) {
      if (spec.group && *spec.group != key) continue;
      switch (spec.metric) {
        case Metric::kBytes:
          emit(key, static_cast<double>(group.bytes_total()), 0);
          break;
        case Metric::kFlows:
          emit(key, static_cast<double>(group.flows), 0);
          break;
        case Metric::kDistinctClients:
          if (!group.clients.empty()) {
            emit(key, group.clients.estimate(), group.clients.error_bound());
          }
          break;
        case Metric::kDistinctServers:
          if (!group.servers.empty()) {
            emit(key, group.servers.estimate(), group.servers.error_bound());
          }
          break;
        case Metric::kRttQuantile:
          if (!group.rtt_ms.empty()) {
            emit(key, group.rtt_ms.quantile(spec.quantile), group.rtt_ms.relative_accuracy());
          }
          break;
        default:
          break;
      }
    }
  }
  std::stable_sort(out.rows.begin(), out.rows.end(),
                   [](const QueryRow& a, const QueryRow& b) { return a.value > b.value; });
  if (spec.top_k != 0 && out.rows.size() > spec.top_k) out.rows.resize(spec.top_k);
  return out;
}

}  // namespace

std::uint32_t columns_for(Metric metric) noexcept {
  switch (metric) {
    case Metric::kBytes:
    case Metric::kFlows:
      return kColCounters;
    case Metric::kDistinctClients:
      return kColClients;
    case Metric::kDistinctServers:
      return kColServers;
    case Metric::kRttQuantile:
      return kColRtt;
    case Metric::kVolumeQuantile:
    case Metric::kActiveSubscribers:
      return kColSubscribers;
  }
  return kAllColumns;
}

QueryResult run_query(const RollupStore& store, const QuerySpec& spec, core::ThreadPool* pool) {
  const QueryTimer timer(spec.metric);
  QueryResult result;
  result.columns_loaded = columns_for(spec.metric);
  // The subscriber section only exists in service-dimension rollups.
  const Dimension dim = per_tech(spec.metric) ? Dimension::kService : spec.dimension;
  if (spec.to < spec.from) return result;

  // Bucket the calendar range. Days the store has no rollup for surface in
  // missing_days — the engine never silently narrows a question's range.
  std::map<core::CivilDate, std::vector<core::CivilDate>> buckets;
  for (std::int64_t z = core::days_from_civil(spec.from); z <= core::days_from_civil(spec.to);
       ++z) {
    const core::CivilDate day = core::civil_from_days(z);
    buckets[bucket_start(day, spec.bucket, spec.from)].push_back(day);
  }

  std::vector<BucketOutcome> outcomes(buckets.size());
  std::vector<std::pair<core::CivilDate, const std::vector<core::CivilDate>*>> order;
  order.reserve(buckets.size());
  for (const auto& [start, days] : buckets) order.emplace_back(start, &days);

  const auto run_one = [&](std::size_t i) {
    outcomes[i] =
        merge_bucket(store, spec, dim, result.columns_loaded, order[i].first, *order[i].second);
  };
  if (pool != nullptr && order.size() > 1) {
    pool->parallel_for(0, order.size(), run_one);
  } else {
    for (std::size_t i = 0; i < order.size(); ++i) run_one(i);
  }

  for (auto& out : outcomes) {
    result.rows.insert(result.rows.end(), out.rows.begin(), out.rows.end());
    result.missing_days.insert(result.missing_days.end(), out.missing.begin(),
                               out.missing.end());
    result.days_merged += out.days_merged;
    result.days_scanned_raw += out.days_raw;
    if (result.errc == core::Errc::kOk && out.errc != core::Errc::kOk) result.errc = out.errc;
  }
  return result;
}

}  // namespace edgewatch::query
