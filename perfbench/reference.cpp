#include "reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "anon/anonymizer.hpp"
#include "core/time.hpp"
#include "probe/probe.hpp"
#include "services/catalog.hpp"

namespace perfbench {

namespace ew = edgewatch;
using ew::analytics::DayAggregate;
using ew::core::CivilDate;
using ew::flow::FlowRecord;
using ew::query::Dimension;
using ew::query::Metric;
using ew::query::QueryRow;
using ew::query::QuerySpec;
using ew::query::TimeBucket;

namespace {

bool same_direction(const ew::flow::DirectionStats& a, const ew::flow::DirectionStats& b) {
  return a.packets == b.packets && a.bytes == b.bytes && a.bytes_with_hdr == b.bytes_with_hdr &&
         a.retransmits == b.retransmits && a.out_of_order == b.out_of_order;
}

bool same_but_rtt_avg(const FlowRecord& a, const FlowRecord& b) {
  return a.client_ip == b.client_ip && a.server_ip == b.server_ip &&
         a.client_port == b.client_port && a.server_port == b.server_port && a.proto == b.proto &&
         a.access == b.access && a.first_packet == b.first_packet &&
         a.last_packet == b.last_packet && same_direction(a.up, b.up) &&
         same_direction(a.down, b.down) && a.handshake_completed == b.handshake_completed &&
         a.close_reason == b.close_reason && a.rtt.samples == b.rtt.samples &&
         a.rtt.min_us == b.rtt.min_us && a.rtt.max_us == b.rtt.max_us && a.l7 == b.l7 &&
         a.web == b.web && a.server_name == b.server_name && a.name_source == b.name_source &&
         a.http_status == b.http_status && a.content_type == b.content_type;
}

/// The engine's bucketing (query/engine.hpp): the whole range, the day,
/// the ISO week's Monday or the first of the month.
CivilDate bucket_of(CivilDate day, const QuerySpec& spec) {
  switch (spec.bucket) {
    case TimeBucket::kTotal:
      return spec.from;
    case TimeBucket::kDay:
      return day;
    case TimeBucket::kWeek: {
      const std::int64_t z = ew::core::days_from_civil(day);
      return ew::core::civil_from_days(z - (ew::core::weekday_from_days(z) - 1));
    }
    case TimeBucket::kMonth:
      return ew::core::MonthIndex{day}.first_day();
  }
  return day;
}

bool within(double estimate, double exact, double bound) {
  return std::abs(estimate - exact) <= bound * exact;
}

bool close(double a, double b, double relative) {
  return std::abs(a - b) <= relative * std::max(1.0, std::abs(b));
}

/// Exact per-group counters (bytes or flows) over `days`.
bool check_counters(const QuerySpec& spec, std::span<const DayAggregate* const> days,
                    std::span<const QueryRow* const> rows) {
  const bool bytes = spec.metric == Metric::kBytes;
  std::map<std::uint32_t, std::uint64_t> exact;
  for (const DayAggregate* day : days) {
    if (spec.dimension == Dimension::kService) {
      for (const auto& [ip, sub] : day->subscribers) {
        for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
          const auto& traffic = sub.per_service[s];
          exact[static_cast<std::uint32_t>(s)] += bytes ? traffic.total() : traffic.flows;
        }
      }
    } else if (spec.dimension == Dimension::kProtocol && bytes) {
      for (std::size_t p = 1; p < ew::analytics::kWebProtocolCount; ++p) {
        exact[static_cast<std::uint32_t>(p)] += day->web_bytes[p];
      }
    } else {
      return false;  // not part of the benchmark's query mix
    }
  }
  for (const QueryRow* row : rows) {
    if (row->error_bound != 0 || row->value != static_cast<double>(exact[row->key])) return false;
  }
  if (spec.top_k != 0) return true;
  for (const auto& [key, value] : exact) {
    if (value == 0 || (spec.group && *spec.group != key)) continue;
    if (std::none_of(rows.begin(), rows.end(), [&](const QueryRow* r) { return r->key == key; })) {
      return false;
    }
  }
  return true;
}

/// One bucket's rows against the exact values over the bucket's days.
bool check_bucket(const Reference& ref, const QuerySpec& spec,
                  std::span<const DayAggregate* const> days, std::span<const QueryRow* const> rows) {
  for (const QueryRow* row : rows) {
    if (spec.group && *spec.group != row->key) return false;
  }
  const auto& catalog = ew::services::ServiceCatalog::standard();
  switch (spec.metric) {
    case Metric::kBytes:
    case Metric::kFlows:
      return check_counters(spec, days, rows);
    case Metric::kDistinctClients: {
      if (spec.dimension != Dimension::kService) return false;
      for (const QueryRow* row : rows) {
        if (row->key >= ew::services::kServiceCount) return false;
        const auto service = static_cast<ew::services::ServiceId>(row->key);
        std::set<std::uint32_t> users;
        for (const DayAggregate* day : days) {
          for (const auto& [ip, sub] : day->subscribers) {
            if (ew::analytics::uses_service(sub, catalog, service)) users.insert(ip.value());
          }
        }
        const auto exact = static_cast<double>(users.size());
        if (exact == 0 || !within(row->value, exact, row->error_bound)) return false;
      }
      return true;
    }
    case Metric::kDistinctServers: {
      if (spec.dimension != Dimension::kServerAsn || ref.rib == nullptr) return false;
      std::map<std::uint32_t, std::set<std::uint32_t>> servers;
      for (const DayAggregate* day : days) {
        for (const auto& [ip, stats] : day->server_ips) {
          servers[ref.rib->origin_asn(ip).value_or(0)].insert(ip.value());
        }
      }
      for (const QueryRow* row : rows) {
        const auto truth = static_cast<double>(servers[row->key].size());
        if (truth == 0 ||
            std::abs(row->value - truth) > std::max(1.0, row->error_bound * truth)) {
          return false;
        }
      }
      return true;
    }
    case Metric::kRttQuantile: {
      for (const QueryRow* row : rows) {
        if (row->key >= ew::services::kServiceCount) return false;
        std::vector<double> samples;
        for (const DayAggregate* day : days) {
          const auto& s = day->rtt_min_ms[row->key];
          samples.insert(samples.end(), s.begin(), s.end());
        }
        if (samples.empty() ||
            !within(row->value, nearest_rank(std::move(samples), spec.quantile), row->error_bound)) {
          return false;
        }
      }
      return true;
    }
    case Metric::kVolumeQuantile: {
      for (const QueryRow* row : rows) {
        std::vector<double> samples;
        for (const DayAggregate* day : days) {
          for (const auto& [ip, sub] : day->subscribers) {
            if (!sub.active() || static_cast<std::uint32_t>(sub.access) != row->key) continue;
            samples.push_back(static_cast<double>(spec.download ? sub.bytes_down : sub.bytes_up));
          }
        }
        if (samples.empty() ||
            !within(row->value, nearest_rank(std::move(samples), spec.quantile), row->error_bound)) {
          return false;
        }
      }
      return true;
    }
    case Metric::kActiveSubscribers: {
      std::array<std::uint64_t, ew::analytics::kAccessTechCount> active{};
      for (const DayAggregate* day : days) {
        for (const auto& [ip, sub] : day->subscribers) {
          if (sub.active()) ++active[static_cast<std::size_t>(sub.access)];
        }
      }
      std::size_t expected_rows = 0;
      for (std::uint32_t t = 0; t < active.size(); ++t) {
        if (spec.group && *spec.group != t) continue;
        ++expected_rows;
        const auto it = std::find_if(rows.begin(), rows.end(),
                                     [&](const QueryRow* r) { return r->key == t; });
        if (it == rows.end() || (*it)->value != static_cast<double>(active[t]) ||
            (*it)->error_bound != 0) {
          return false;
        }
      }
      return rows.size() == expected_rows;
    }
  }
  return false;
}

}  // namespace

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(k, 1, values.size()) - 1];
}

std::size_t capture_mismatches(const Inputs& in, std::span<const FlowRecord> records) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t,
                         ew::core::TransportProto>;
  std::map<Key, std::vector<const FlowRecord*>> by_tuple;
  for (const FlowRecord& r : records) {
    by_tuple[{r.client_ip.value(), r.server_ip.value(), r.client_port, r.server_port, r.proto}]
        .push_back(&r);
  }
  std::size_t mismatches =
      records.size() == in.conversations.size() + in.dns_responses ? 0 : 1;
  // Records carry the subscriber address as the benchmark's probes, built
  // with the default config, anonymize it.
  const ew::probe::ProbeConfig config;
  const ew::anon::CustomerAnonymizer anonymizer{config.anon_key, config.customer_net};
  for (const Conversation& c : in.conversations) {
    const auto& spec = c.spec;
    const bool quic = spec.web == ew::dpi::WebProtocol::kQuic;
    const auto proto = quic ? ew::core::TransportProto::kUdp : ew::core::TransportProto::kTcp;
    // TLS, HTTP and FB-Zero first flights name the server themselves.
    const bool in_band = !spec.p2p && !quic;
    const std::string name = in_band || c.dns_announced ? spec.server_name : std::string{};
    const auto it = by_tuple.find({anonymizer.apply(spec.client).value(), spec.server.value(),
                                   spec.client_port, spec.server_port, proto});
    if (it == by_tuple.end() || it->second.size() != 1) {
      ++mismatches;
      continue;
    }
    const FlowRecord& r = *it->second.front();
    if (r.down.bytes != spec.response_bytes || r.web != spec.web || r.server_name != name) {
      ++mismatches;
    }
  }
  return mismatches;
}

std::vector<DayAggregate> aggregate_by_day(std::span<const FlowRecord> records) {
  std::map<CivilDate, ew::analytics::DayAggregator> days;
  for (const auto& r : records) {
    const CivilDate day = r.first_packet.date();
    days.try_emplace(day, day).first->second.add(r);
  }
  std::vector<DayAggregate> out;
  out.reserve(days.size());
  for (auto& [day, aggregator] : days) out.push_back(std::move(aggregator).take());
  return out;
}

bool same_stored(const FlowRecord& a, const FlowRecord& b) {
  return same_but_rtt_avg(a, b) && static_cast<std::int64_t>(a.rtt.avg_us) ==
                                       static_cast<std::int64_t>(b.rtt.avg_us);
}

bool same_exported(const FlowRecord& a, const FlowRecord& b) {
  return same_but_rtt_avg(a, b) && a.rtt.avg_us == b.rtt.avg_us;
}

bool check_query(const Reference& ref, const QuerySpec& spec,
                 const ew::query::QueryResult& result) {
  if (!result.ok()) return false;
  const bool per_tech =
      spec.metric == Metric::kVolumeQuantile || spec.metric == Metric::kActiveSubscribers;
  const bool fallback = spec.raw_fallback && !per_tech &&
                        (spec.metric == Metric::kBytes || spec.metric == Metric::kFlows) &&
                        (spec.dimension == Dimension::kService ||
                         spec.dimension == Dimension::kProtocol);
  // The answerable days of the range, grouped by bucket: rolled days, and
  // raw days when the query may fall back to the lake.
  std::map<CivilDate, std::vector<const DayAggregate*>> buckets;
  std::size_t raw_days = 0;
  for (std::size_t i = 0; i < ref.days.size(); ++i) {
    const CivilDate day = ref.days[i].date;
    if (day < spec.from || spec.to < day) continue;
    const bool rolled = i < ref.rolled;
    if (!rolled && !fallback) continue;
    if (!rolled) ++raw_days;
    buckets[bucket_of(day, spec)].push_back(&ref.days[i]);
  }
  if (result.days_scanned_raw != raw_days) return false;
  std::map<CivilDate, std::vector<const QueryRow*>> rows;
  for (const QueryRow& row : result.rows) {
    if (!buckets.contains(row.bucket)) return false;
    rows[row.bucket].push_back(&row);
  }
  for (const auto& [bucket, days] : buckets) {
    if (!check_bucket(ref, spec, days, rows[bucket])) return false;
  }
  return true;
}

bool check_protocol_shares(const Reference& ref,
                           std::span<const ew::analytics::ProtocolShareRow> rows) {
  const auto expected = ew::analytics::protocol_shares(ref.rolled_days());
  if (rows.size() != expected.size()) return false;
  for (std::size_t m = 0; m < rows.size(); ++m) {
    if (rows[m].month != expected[m].month) return false;
    for (std::size_t p = 0; p < ew::analytics::kWebProtocolCount; ++p) {
      if (!close(rows[m].share_pct[p], expected[m].share_pct[p], 1e-12)) return false;
    }
  }
  return true;
}

bool check_volume_trend(const Reference& ref,
                        std::span<const ew::analytics::VolumeTrendRow> rows) {
  const auto expected = ew::analytics::volume_trend(ref.rolled_days());
  if (rows.size() != expected.size()) return false;
  for (std::size_t m = 0; m < rows.size(); ++m) {
    if (rows[m].month != expected[m].month) return false;
    for (std::size_t t = 0; t < ew::analytics::kAccessTechCount; ++t) {
      if (!close(rows[m].down_mb[t], expected[m].down_mb[t], 1e-9) ||
          !close(rows[m].up_mb[t], expected[m].up_mb[t], 1e-9) ||
          rows[m].subscribers[t] != expected[m].subscribers[t]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
