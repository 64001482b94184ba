#include "query/figures.hpp"

#include <array>
#include <cstdint>
#include <map>

namespace edgewatch::query {

namespace {

constexpr double kMB = 1e6;

/// Months in [from, to] that the store has rollup days for, with the days.
std::map<core::MonthIndex, std::vector<core::CivilDate>> months_present(
    const RollupStore& store, core::CivilDate from, core::CivilDate to) {
  std::map<core::MonthIndex, std::vector<core::CivilDate>> months;
  for (const core::CivilDate day : store.days()) {
    if (day < from || to < day) continue;
    months[core::MonthIndex{day}].push_back(day);
  }
  return months;
}

template <typename Row, typename Fn>
std::vector<Row> per_month(const RollupStore& store, core::CivilDate from, core::CivilDate to,
                           core::ThreadPool* pool, Fn&& fill) {
  const auto months = months_present(store, from, to);
  std::vector<const std::vector<core::CivilDate>*> day_lists;
  std::vector<Row> rows(months.size());
  std::size_t i = 0;
  for (const auto& [month, days] : months) {
    rows[i].month = month;
    day_lists.push_back(&days);
    ++i;
  }
  const auto run_one = [&](std::size_t m) { fill(rows[m], *day_lists[m]); };
  if (pool != nullptr && rows.size() > 1) {
    pool->parallel_for(0, rows.size(), run_one);
  } else {
    for (std::size_t m = 0; m < rows.size(); ++m) run_one(m);
  }
  return rows;
}

}  // namespace

std::vector<QueryRow> weekly_rtt_quantile(const RollupStore& store, services::ServiceId service,
                                          core::CivilDate from, core::CivilDate to, double q,
                                          core::ThreadPool* pool) {
  QuerySpec spec;
  spec.metric = Metric::kRttQuantile;
  spec.dimension = Dimension::kService;
  spec.from = from;
  spec.to = to;
  spec.bucket = TimeBucket::kWeek;
  spec.group = static_cast<std::uint32_t>(service);
  spec.quantile = q;
  return run_query(store, spec, pool).rows;
}

std::vector<QueryRow> top_services_by_subscribers(const RollupStore& store,
                                                  core::MonthIndex month, std::size_t k,
                                                  core::ThreadPool* pool) {
  QuerySpec spec;
  spec.metric = Metric::kDistinctClients;
  spec.dimension = Dimension::kService;
  spec.from = month.first_day();
  spec.to = core::CivilDate{
      month.year(), static_cast<std::uint8_t>(month.month()),
      static_cast<std::uint8_t>(core::days_in_month(month.year(), month.month()))};
  spec.bucket = TimeBucket::kTotal;
  spec.top_k = k;
  return run_query(store, spec, pool).rows;
}

std::vector<analytics::ProtocolShareRow> protocol_shares(const RollupStore& store,
                                                         core::CivilDate from, core::CivilDate to,
                                                         core::ThreadPool* pool) {
  return per_month<analytics::ProtocolShareRow>(
      store, from, to, pool,
      [&](analytics::ProtocolShareRow& row, const std::vector<core::CivilDate>& days) {
        std::array<std::uint64_t, analytics::kWebProtocolCount> bytes{};
        std::uint64_t total = 0;
        for (const core::CivilDate day : days) {
          const auto rollup = store.load(day, Dimension::kProtocol, kColCounters);
          if (!rollup) continue;
          for (const auto& [p, group] : rollup->groups) {
            if (p >= analytics::kWebProtocolCount) continue;
            bytes[p] += group.bytes_total();
            total += group.bytes_total();
          }
        }
        if (total > 0) {
          for (std::size_t p = 0; p < analytics::kWebProtocolCount; ++p) {
            row.share_pct[p] = 100.0 * static_cast<double>(bytes[p]) / static_cast<double>(total);
          }
        }
      });
}

std::vector<analytics::VolumeTrendRow> volume_trend(const RollupStore& store,
                                                    core::CivilDate from, core::CivilDate to,
                                                    core::ThreadPool* pool) {
  return per_month<analytics::VolumeTrendRow>(
      store, from, to, pool,
      [&](analytics::VolumeTrendRow& row, const std::vector<core::CivilDate>& days) {
        std::array<TechRollup, analytics::kAccessTechCount> techs;
        std::size_t day_count = 0;
        for (const core::CivilDate day : days) {
          const auto rollup = store.load(day, Dimension::kService, kColSubscribers);
          if (!rollup) continue;
          ++day_count;
          for (std::size_t t = 0; t < techs.size(); ++t) {
            techs[t].active += rollup->subscribers[t].active;
            techs[t].sum_down += rollup->subscribers[t].sum_down;
            techs[t].sum_up += rollup->subscribers[t].sum_up;
          }
        }
        for (std::size_t t = 0; t < techs.size(); ++t) {
          if (techs[t].active == 0 || day_count == 0) continue;
          const auto active = static_cast<double>(techs[t].active);
          row.down_mb[t] = static_cast<double>(techs[t].sum_down) / active / kMB;
          row.up_mb[t] = static_cast<double>(techs[t].sum_up) / active / kMB;
          row.subscribers[t] = techs[t].active / day_count;
        }
      });
}

}  // namespace edgewatch::query
