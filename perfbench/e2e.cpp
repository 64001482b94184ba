// perfbench_e2e: the end-to-end benchmark of the edgewatch pipeline. A run
// replays a generated capture through the probe, serial and sharded, into
// the data lake, builds the day rollups from an empty directory, answers
// the paper's figure questions and an interactive query mix, and checks
// every output against a reference computed apart from the path under test
// (reference.hpp). perfbench/run.py builds and drives it:
//
//   perfbench_e2e --workload W --seed N --seconds S --trace 0|1 --work-dir D
//                 [--size tiny] [--corrupt-reference]
//
// Round 0 checks every output and warms the caches. Timed rounds then repeat
// the whole chain until --seconds have passed, and at least kMinRounds
// times, each after a fresh set-up of the inputs that is timed apart; each
// metric is taken over the fastest tenth of them (see fastest_tenth). With
// --trace 1 every second timed round wraps each call into a layer in the
// benchmark's own spans and reads the obs:: counters around each stage; the
// other rounds are the untraced baseline of trace_overhead. The last line of standard output is one JSON object. The
// exit code is 1 when a check failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "inputs.hpp"
#include "obs/obs.hpp"
#include "probe/probe.hpp"
#include "probe/sharded_probe.hpp"
#include "query/engine.hpp"
#include "query/figures.hpp"
#include "query/store.hpp"
#include "reference.hpp"
#include "services/catalog.hpp"
#include "storage/daily_writer.hpp"
#include "storage/datalake.hpp"

namespace {

namespace ew = edgewatch;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using ew::core::CivilDate;
using ew::core::MonthIndex;
using ew::flow::FlowRecord;
using ew::net::Frame;
using ew::query::Dimension;
using ew::query::Metric;
using ew::query::QueryResult;
using ew::query::QueryRow;
using ew::query::QuerySpec;
using ew::query::TimeBucket;
using perfbench::Workload;

constexpr int kMinRounds = 5;                 // timed rounds, whatever --seconds says
constexpr std::size_t kChunkFrames = 4096;    // frames per Probe::process(span) call
constexpr std::size_t kQueriesPerRound = 24;  // at least, of each query kind, per round
constexpr std::size_t kTopServices = 10;
constexpr std::size_t kQueryWindows = 4;      // months each interactive query kind covers

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Rounds kept per kKeptShare rounds run: the fastest.
constexpr std::size_t kKeptShare = 10;

/// The fastest tenth of `v` (at least one value): its smallest values, or
/// its largest when `higher_is_faster`. On a shared host the CPU runs in
/// slower and faster spells, seconds to minutes long, as other tenants come
/// and go. They only ever slow a round down, so the fastest rounds follow
/// the code and the others follow the neighbours.
std::vector<double> fastest_tenth(std::vector<double> v, bool higher_is_faster) {
  std::sort(v.begin(), v.end());
  if (higher_is_faster) std::reverse(v.begin(), v.end());
  v.resize((v.size() + kKeptShare - 1) / kKeptShare);
  return v;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ------------------------------------------------------------------ tracing

enum class Layer : std::uint8_t {
  kProbe,
  kShardedProbe,
  kLakeWrite,
  kRollupBuild,
  kFigures,
  kRollupQuery,
  kRawQuery,
};
constexpr std::size_t kLayerCount = 7;
constexpr const char* kLayerNames[kLayerCount] = {
    "probe", "sharded_probe", "storage.write", "query.build",
    "query.figures", "query.rollup", "query.raw"};

/// The benchmark's own spans, opened around each call into a layer. Only
/// per-layer totals are kept. A span's self time is its duration minus the
/// spans opened inside it: a probe span contains the writer calls its
/// record sink makes.
class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    double total_s = 0;
    double child_s = 0;
    std::uint64_t rows_in = 0;
    std::uint64_t rows_out = 0;
    [[nodiscard]] double self_s() const { return total_s - child_s; }
  };

  void open(Layer layer) { stack_.push_back({layer, Clock::now(), 0.0}); }
  void close(std::uint64_t rows_in, std::uint64_t rows_out) {
    const Open top = stack_.back();
    stack_.pop_back();
    const double duration = since(top.start);
    Totals& t = totals_[static_cast<std::size_t>(top.layer)];
    ++t.calls;
    t.total_s += duration;
    t.child_s += top.child_s;
    t.rows_in += rows_in;
    t.rows_out += rows_out;
    if (!stack_.empty()) stack_.back().child_s += duration;
  }
  [[nodiscard]] const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }

 private:
  struct Open {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Open> stack_;
  std::array<Totals, kLayerCount> totals_{};
};

/// RAII span over one call into a layer; does nothing in untraced rounds.
class LayerSpan {
 public:
  LayerSpan(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(layer);
  }
  ~LayerSpan() {
    if (tracer_ != nullptr) tracer_->close(rows_in_, rows_out_);
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  void rows(std::uint64_t in, std::uint64_t out) {
    rows_in_ = in;
    rows_out_ = out;
  }

 private:
  Tracer* tracer_;
  std::uint64_t rows_in_ = 0;
  std::uint64_t rows_out_ = 0;
};

/// obs:: counter values and histogram sums and counts, keyed
/// "name{labels}"; histograms carry a ".sum" or ".count" suffix.
using ObsValues = std::map<std::string, double>;

ObsValues read_obs() {
  ObsValues v;
  const auto snap = ew::obs::Registry::global().scrape();
  for (const auto& c : snap.counters) {
    v[c.name + "{" + c.labels + "}"] = static_cast<double>(c.value);
  }
  for (const auto& h : snap.histograms) {
    const std::string key = h.name + "{" + h.labels + "}";
    v[key + ".sum"] = static_cast<double>(h.sum);
    v[key + ".count"] = static_cast<double>(h.count);
  }
  return v;
}

/// acc += after - before, key by key.
void add_delta(ObsValues& acc, const ObsValues& before, const ObsValues& after) {
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    acc[key] += value - (it == before.end() ? 0.0 : it->second);
  }
}

double obs_value(const ObsValues& v, const std::string& key) {
  const auto it = v.find(key);
  return it == v.end() ? 0.0 : it->second;
}

/// Mean of a histogram's accumulated samples (0 when there are none).
double obs_mean(const ObsValues& v, const std::string& key) {
  return ratio(obs_value(v, key + ".sum"), obs_value(v, key + ".count"));
}

// ------------------------------------------------------------------- stages

/// Operations attempted and failed: ingest passes, rollup days, figure and
/// query calls, and every reference check.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    if (failed < 20) std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    ++failed;
  }
};

/// One pass of the capture into a fresh lake.
struct IngestResult {
  double seconds = 0;
  double feed_s = 0;    ///< sharded: time in ShardedProbe::ingest
  double finish_s = 0;  ///< sharded: time in ShardedProbe::finish
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t append_failures = 0;
  ew::probe::Probe::Counters counters;
  std::size_t active_flows_max = 0;  ///< serial, traced: sampled between chunks
  double queue_fill_sum = 0;         ///< sharded, traced: depth/capacity samples
  std::uint64_t queue_fill_samples = 0;
  double shard_skew = 0;             ///< sharded: max/mean of the shards' heartbeats
};

void record_writes(const ew::storage::DailyLakeWriter& writer, bool flushed, IngestResult& out) {
  out.records = writer.records_written();
  out.bytes = writer.bytes_written();
  out.append_failures = writer.append_failures() + (flushed ? 0 : 1);
}

/// The pcap2flows path: pipelined Probe::process(span) over the capture,
/// every exported record handed to a DailyLakeWriter whose lake encodes
/// blocks on `encode_pool`.
IngestResult serial_ingest(std::span<const Frame> frames, const fs::path& lake_dir,
                           ew::core::ThreadPool* encode_pool, Tracer* tracer) {
  IngestResult out;
  const auto t0 = Clock::now();
  ew::storage::DataLake lake{lake_dir};
  lake.set_encode_pool(encode_pool);
  ew::storage::DailyLakeWriter writer{lake};
  ew::probe::Probe probe{{}, [&](FlowRecord&& record) {
                           LayerSpan span(tracer, Layer::kLakeWrite);
                           span.rows(1, 0);
                           writer.add(std::move(record));
                         }};
  for (std::size_t lo = 0; lo < frames.size(); lo += kChunkFrames) {
    const auto chunk = frames.subspan(lo, std::min(kChunkFrames, frames.size() - lo));
    {
      LayerSpan span(tracer, Layer::kProbe);
      const auto exported = probe.counters().records_exported;
      probe.process(chunk);
      span.rows(chunk.size(), probe.counters().records_exported - exported);
    }
    if (tracer != nullptr) {
      out.active_flows_max = std::max(out.active_flows_max, probe.table().active_flows());
    }
  }
  {
    LayerSpan span(tracer, Layer::kProbe);
    const auto exported = probe.counters().records_exported;
    probe.finish();
    span.rows(0, probe.counters().records_exported - exported);
  }
  bool flushed = false;
  {
    LayerSpan span(tracer, Layer::kLakeWrite);
    flushed = writer.flush_all().ok();
    span.rows(0, writer.records_written());
  }
  out.seconds = since(t0);
  record_writes(writer, flushed, out);
  out.counters = probe.counters();
  return out;
}

/// The same capture through ShardedProbe (blocking ingest from this thread
/// into `shards` workers), then finish() and the same writer path.
IngestResult sharded_ingest(std::span<const Frame> frames, const fs::path& lake_dir,
                            std::size_t shards, ew::core::ThreadPool* encode_pool,
                            Tracer* tracer, std::vector<FlowRecord>* keep) {
  IngestResult out;
  const auto t0 = Clock::now();
  std::vector<FlowRecord> merged;
  {
    ew::probe::ShardedProbeConfig config;
    config.shards = shards;
    ew::probe::ShardedProbe probe{config};
    const auto feed0 = Clock::now();
    {
      LayerSpan span(tracer, Layer::kShardedProbe);
      span.rows(frames.size(), 0);
      for (std::size_t i = 0; i < frames.size(); ++i) {
        probe.ingest(frames[i]);
        if (tracer != nullptr && i % kChunkFrames == 0) {
          for (std::size_t s = 0; s < shards; ++s) {
            out.queue_fill_sum += ratio(static_cast<double>(probe.queue_depth(s)),
                                        static_cast<double>(probe.queue_capacity()));
          }
          out.queue_fill_samples += shards;
        }
      }
    }
    out.feed_s = since(feed0);
    const auto finish0 = Clock::now();
    {
      LayerSpan span(tracer, Layer::kShardedProbe);
      merged = probe.finish();
      span.rows(0, merged.size());
    }
    out.finish_s = since(finish0);
    double beats_max = 0;
    double beats_sum = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto beats = static_cast<double>(probe.heartbeat(s));
      beats_max = std::max(beats_max, beats);
      beats_sum += beats;
    }
    out.shard_skew = ratio(beats_max, beats_sum / static_cast<double>(shards));
    out.counters = probe.counters();
  }
  if (keep != nullptr) *keep = merged;
  ew::storage::DataLake lake{lake_dir};
  lake.set_encode_pool(encode_pool);
  ew::storage::DailyLakeWriter writer{lake};
  bool flushed = false;
  {
    LayerSpan span(tracer, Layer::kLakeWrite);
    for (auto& record : merged) writer.add(std::move(record));
    flushed = writer.flush_all().ok();
    span.rows(merged.size(), writer.records_written());
  }
  out.seconds = since(t0);
  record_writes(writer, flushed, out);
  return out;
}

/// What the rollup, figure and query stages ask, derived from the reference
/// days and the seed.
struct Plan {
  std::vector<CivilDate> rolled;   ///< lake days that get rollups
  std::vector<CivilDate> raw;      ///< the newest lake days, left without
  std::vector<MonthIndex> months;  ///< months with rolled days
  ew::services::ServiceId rtt_service = ew::services::ServiceId::kOther;
  std::vector<QuerySpec> rollup_queries;
  std::vector<QuerySpec> raw_queries;
};

CivilDate last_day(MonthIndex m) {
  return {m.year(), static_cast<std::uint8_t>(m.month()),
          static_cast<std::uint8_t>(ew::core::days_in_month(m.year(), m.month()))};
}

Plan make_plan(const perfbench::Reference& ref, std::uint64_t seed) {
  Plan p;
  for (std::size_t i = 0; i < ref.days.size(); ++i) {
    (i < ref.rolled ? p.rolled : p.raw).push_back(ref.days[i].date);
  }
  for (const CivilDate day : p.rolled) {
    const MonthIndex m{day};
    if (p.months.empty() || p.months.back() != m) p.months.push_back(m);
  }
  // The weekly RTT figure follows the service with the most RTT samples.
  std::array<std::size_t, ew::services::kServiceCount> rtt_samples{};
  for (const auto& day : ref.rolled_days()) {
    for (std::size_t s = 0; s < rtt_samples.size(); ++s) rtt_samples[s] += day.rtt_min_ms[s].size();
  }
  p.rtt_service = static_cast<ew::services::ServiceId>(
      std::max_element(rtt_samples.begin(), rtt_samples.end()) - rtt_samples.begin());

  // Interactive mix: every rollup-backed metric over one-month windows
  // spread evenly across the rolled months from a seeded offset, so the
  // latency distribution does not hang on which months a seed picks.
  ew::core::Xoshiro256 rng{ew::core::mix64(seed, 0x51)};
  const std::size_t offset = ew::core::uniform_below(rng, p.months.size());
  std::size_t window = 0;
  const auto add = [&](Metric metric, Dimension dimension, TimeBucket bucket) -> QuerySpec& {
    const MonthIndex month =
        p.months[(offset + window * p.months.size() / kQueryWindows) % p.months.size()];
    QuerySpec s;
    s.metric = metric;
    s.dimension = dimension;
    s.from = std::max(month.first_day(), p.rolled.front());
    s.to = std::min(last_day(month), p.rolled.back());
    s.bucket = bucket;
    p.rollup_queries.push_back(s);
    return p.rollup_queries.back();
  };
  for (; window < kQueryWindows; ++window) {
    add(Metric::kBytes, Dimension::kService, TimeBucket::kTotal);
    add(Metric::kFlows, Dimension::kService, TimeBucket::kMonth);
    add(Metric::kBytes, Dimension::kProtocol, TimeBucket::kMonth);
    add(Metric::kDistinctClients, Dimension::kService, TimeBucket::kTotal).top_k = 5;
    add(Metric::kRttQuantile, Dimension::kService, TimeBucket::kWeek).group =
        static_cast<std::uint32_t>(p.rtt_service);
    add(Metric::kActiveSubscribers, Dimension::kService, TimeBucket::kDay);
    add(Metric::kVolumeQuantile, Dimension::kService, TimeBucket::kTotal).quantile = 0.9;
    add(Metric::kDistinctServers, Dimension::kServerAsn, TimeBucket::kTotal);
  }

  // Raw fallback: bytes and flows of one service over each unrolled day
  // (and over all of them), for the ten heaviest services of those days and
  // two seeded picks that may be absent, whose scans prune every block.
  std::array<std::uint64_t, ew::services::kServiceCount> raw_bytes{};
  for (std::size_t i = ref.rolled; i < ref.days.size(); ++i) {
    for (const auto& [ip, sub] : ref.days[i].subscribers) {
      for (std::size_t s = 0; s < raw_bytes.size(); ++s) raw_bytes[s] += sub.per_service[s].total();
    }
  }
  std::vector<std::uint32_t> services(raw_bytes.size());
  for (std::uint32_t s = 0; s < services.size(); ++s) services[s] = s;
  std::stable_sort(services.begin(), services.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return raw_bytes[a] > raw_bytes[b]; });
  services.resize(10);
  while (services.size() < 12) {
    const auto s = static_cast<std::uint32_t>(ew::core::uniform_below(rng, raw_bytes.size()));
    if (std::find(services.begin(), services.end(), s) == services.end()) services.push_back(s);
  }
  std::vector<std::pair<CivilDate, CivilDate>> ranges;
  for (const CivilDate day : p.raw) ranges.emplace_back(day, day);
  if (p.raw.size() > 1) ranges.emplace_back(p.raw.front(), p.raw.back());
  for (const auto& [from, to] : ranges) {
    for (const std::uint32_t s : services) {
      for (const Metric metric : {Metric::kBytes, Metric::kFlows}) {
        QuerySpec q;
        q.metric = metric;
        q.dimension = Dimension::kService;
        q.from = from;
        q.to = to;
        q.group = s;
        q.raw_fallback = true;
        p.raw_queries.push_back(q);
      }
    }
  }
  return p;
}

/// The query each figure call issues (query/figures.cpp), so its rows can
/// be checked like any query's.
QuerySpec rtt_figure_spec(const Plan& plan) {
  QuerySpec s;
  s.metric = Metric::kRttQuantile;
  s.from = plan.rolled.front();
  s.to = plan.rolled.back();
  s.bucket = TimeBucket::kWeek;
  s.group = static_cast<std::uint32_t>(plan.rtt_service);
  s.quantile = 0.5;
  return s;
}

QuerySpec top_services_spec(MonthIndex month) {
  QuerySpec s;
  s.metric = Metric::kDistinctClients;
  s.from = month.first_day();
  s.to = last_day(month);
  s.top_k = kTopServices;
  return s;
}

QueryResult as_result(std::vector<QueryRow> rows) {
  QueryResult r;
  r.rows = std::move(rows);
  return r;
}

struct FiguresResult {
  double seconds = 0;  ///< build + figures
  ew::query::BuildReport report;
  std::vector<ew::analytics::ProtocolShareRow> shares;
  std::vector<ew::analytics::VolumeTrendRow> trend;
  std::vector<QueryRow> rtt;
  std::vector<std::vector<QueryRow>> top;  ///< one per rolled month
};

/// RollupStore::build over the rolled days, then the four query::figures
/// answers over the rolled range (top services for every month).
FiguresResult build_and_figures(ew::query::RollupStore& store, const Plan& plan,
                                ew::core::ThreadPool& pool, Tracer* tracer) {
  FiguresResult out;
  const auto t0 = Clock::now();
  {
    LayerSpan span(tracer, Layer::kRollupBuild);
    out.report = store.build(plan.rolled, pool);
    span.rows(plan.rolled.size(), out.report.built);
  }
  {
    LayerSpan span(tracer, Layer::kFigures);
    const CivilDate from = plan.rolled.front();
    const CivilDate to = plan.rolled.back();
    out.shares = ew::query::protocol_shares(store, from, to, &pool);
    out.trend = ew::query::volume_trend(store, from, to, &pool);
    out.rtt = ew::query::weekly_rtt_quantile(store, plan.rtt_service, from, to, 0.5, &pool);
    std::uint64_t rows = out.shares.size() + out.trend.size() + out.rtt.size();
    for (const MonthIndex m : plan.months) {
      out.top.push_back(ew::query::top_services_by_subscribers(store, m, kTopServices, &pool));
      rows += out.top.back().size();
    }
    span.rows(0, rows);
  }
  out.seconds = since(t0);
  return out;
}

bool same_rows(std::span<const QueryRow> a, std::span<const QueryRow> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const QueryRow& x, const QueryRow& y) {
                      return x.bucket == y.bucket && x.key == y.key && x.value == y.value &&
                             x.error_bound == y.error_bound;
                    });
}

bool same_answer(const QueryResult& a, const QueryResult& b) {
  return a.errc == b.errc && a.days_merged == b.days_merged &&
         a.days_scanned_raw == b.days_scanned_raw && a.missing_days == b.missing_days &&
         same_rows(a.rows, b.rows);
}

bool same_figures(const FiguresResult& a, const FiguresResult& b) {
  const auto same_share = [](const auto& x, const auto& y) {
    return x.month == y.month && x.share_pct == y.share_pct;
  };
  const auto same_trend = [](const auto& x, const auto& y) {
    return x.month == y.month && x.down_mb == y.down_mb && x.up_mb == y.up_mb &&
           x.subscribers == y.subscribers;
  };
  if (!std::equal(a.shares.begin(), a.shares.end(), b.shares.begin(), b.shares.end(),
                  same_share) ||
      !std::equal(a.trend.begin(), a.trend.end(), b.trend.begin(), b.trend.end(), same_trend) ||
      !same_rows(a.rtt, b.rtt) || a.top.size() != b.top.size()) {
    return false;
  }
  for (std::size_t m = 0; m < a.top.size(); ++m) {
    if (!same_rows(a.top[m], b.top[m])) return false;
  }
  return true;
}

struct QueryBatch {
  std::vector<QueryResult> results;
  std::vector<std::size_t> spec_index;
  std::vector<double> latency_ms;
  double seconds = 0;
};

/// `passes` passes of run_query over `specs`, on this thread: interactive
/// calls are short, so a pool's wake-ups would dominate their latency.
QueryBatch run_queries(const ew::query::RollupStore& store, const std::vector<QuerySpec>& specs,
                       std::size_t passes, Tracer* tracer, Layer layer) {
  QueryBatch out;
  const std::size_t count = passes * specs.size();
  out.results.reserve(count);
  out.spec_index.reserve(count);
  out.latency_ms.reserve(count);
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = k % specs.size();
    const auto call0 = Clock::now();
    QueryResult result;
    {
      LayerSpan span(tracer, layer);
      result = ew::query::run_query(store, specs[i]);
      span.rows(result.days_merged, result.rows.size());
    }
    out.latency_ms.push_back(1e3 * since(call0));
    out.results.push_back(std::move(result));
    out.spec_index.push_back(i);
  }
  out.seconds = since(t0);
  return out;
}

// ------------------------------------------------------------------- output

struct Reported {
  std::string name;
  double value = 0;
  std::string unit;
  std::string how;  ///< what the value summarizes
  bool skipped = false;
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_metrics(const std::vector<Reported>& metrics) {
  for (const auto& m : metrics) {
    std::printf("# metric %-30s %16s %-9s %s\n", m.name.c_str(),
                m.skipped ? "skipped" : number(m.value).c_str(), m.unit.c_str(), m.how.c_str());
  }
}

std::string result_json(const std::vector<Reported>& metrics, std::uint64_t attempted,
                        std::uint64_t failed) {
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + (m.skipped ? "\"skipped\"" : number(m.value)) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

// ---------------------------------------------------------------------- run

struct Options {
  Workload workload = Workload::kIngestBulk;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt_reference = false;
  fs::path work_dir;
};

bool parse_options(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const auto w = perfbench::parse_workload(argv[++i]);
      if (!w) return false;
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--size" && has_value) {
      const std::string_view size = argv[++i];
      if (size != "tiny" && size != "full") return false;
      opt.tiny = size == "tiny";
    } else if (arg == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else if (arg == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && !opt.work_dir.empty() && opt.seconds > 0;
}

/// Per-call latencies of one query kind, round by round.
struct CallSamples {
  std::vector<std::vector<double>> rounds;  ///< ms, one vector per timed round
  std::vector<double> seconds;              ///< each round's total query time

  /// The calls of the fastest tenth of rounds. Every round issues the same
  /// calls, so the rounds differ only by interference.
  [[nodiscard]] std::vector<double> fastest_tenth_calls() const {
    std::vector<std::size_t> order(rounds.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return seconds[a] < seconds[b]; });
    std::vector<double> calls;
    for (std::size_t k = 0; k < (order.size() + kKeptShare - 1) / kKeptShare; ++k) {
      calls.insert(calls.end(), rounds[order[k]].begin(), rounds[order[k]].end());
    }
    return calls;
  }
};

/// Passes over `specs` that issue at least kQueriesPerRound calls.
std::size_t passes_for(const std::vector<QuerySpec>& specs) {
  return (kQueriesPerRound + specs.size() - 1) / specs.size();
}

/// Sums over the traced rounds, for the per-layer metrics.
struct TracedTotals {
  int rounds = 0;
  ObsValues serial, sharded, build, raw;  ///< obs:: deltas across each stage
  std::size_t active_flows_max = 0;
  double feed_s = 0;
  double finish_s = 0;
  double queue_fill_sum = 0;
  std::uint64_t queue_fill_samples = 0;
  double shard_skew_sum = 0;
  std::uint64_t records_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t files_built = 0;
  std::uint64_t days_failed = 0;
  std::uint64_t raw_days_scanned = 0;
};

/// The per-layer metrics, after printing the layer table they come from.
std::vector<Reported> layer_metrics(const TracedTotals& tr, const Tracer& tracer,
                                    std::uint64_t frames, std::size_t pool_threads,
                                    const std::vector<double>& traced_walls,
                                    const std::vector<double>& untraced_walls,
                                    double error_rate) {
  const double r = std::max(1, tr.rounds);
  const auto self = [&](Layer l) { return tracer.totals(l).self_s(); };
  const auto writes = [&](const std::string& key) {
    return obs_value(tr.serial, key) + obs_value(tr.sharded, key);
  };
  const auto reads = [&](const std::string& key) {
    return obs_value(tr.build, key) + obs_value(tr.raw, key);
  };
  double codec_in = 0;
  double codec_out = 0;
  for (const char* codec : {"stored", "lz", "for", "rle"}) {
    codec_in += writes(std::string("lake_codec_") + codec + "_bytes_in_total{}");
    codec_out += writes(std::string("lake_codec_") + codec + "_bytes_out_total{}");
  }
  const double encode_s = writes("lake_encode_block_ns{}.sum") / 1e9;
  const double compress_s = writes("lake_block_compress_ns{}.sum") / 1e9;
  const double fsync_s = writes("lake_append_fsync_ns{}.sum") / 1e9;
  const double aggregate_s = obs_value(tr.build, "analytics_day_aggregate_ns{}.sum") / 1e9;
  const double build_s = self(Layer::kRollupBuild);
  double layers_s = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) layers_s += self(static_cast<Layer>(l));
  double wall_s = 0;
  for (const double w : traced_walls) wall_s += w;
  const double pruned = obs_value(tr.raw, "lake_scan_blocks_pruned_total{}");
  const double passthrough = reads("exec_rows_dict_passthrough_total{}");
  const double serial_exported = obs_value(tr.serial, "probe_records_exported_total{}");

  const std::string per_round = "per traced round (" + std::to_string(tr.rounds) + ")";
  const std::string sampled = "mean of the sampled stage timings";
  std::vector<Reported> m = {
      {"probe.busy_s", self(Layer::kProbe) / r, "s", per_round},
      {"probe.ns_per_frame", 1e9 * ratio(self(Layer::kProbe), r * static_cast<double>(frames)),
       "ns", per_round},
      {"probe.records_per_kframe",
       1e3 * ratio(serial_exported, obs_value(tr.serial, "probe_frames_total{}")), "count",
       "serial probe"},
      {"probe.decode_failures", writes("probe_decode_failures_total{}") / r, "count", per_round},
      {"net.decode_ns", obs_mean(tr.serial, "probe_stage_ns{stage=\"decode\"}"), "ns", sampled},
      {"flow.table_ns", obs_mean(tr.serial, "probe_stage_ns{stage=\"flow_table\"}"), "ns",
       sampled},
      {"flow.active_flows_max", static_cast<double>(tr.active_flows_max), "count",
       "max between chunks"},
      {"dpi.classify_ns", obs_mean(tr.serial, "dpi_classify_ns{}"), "ns", sampled},
      {"dns.dnhunter_ns", obs_mean(tr.serial, "probe_stage_ns{stage=\"dnhunter\"}"), "ns",
       sampled},
      {"dns.named_share",
       ratio(obs_value(tr.serial, "probe_records_named_by_dns_total{}"), serial_exported),
       "ratio", "serial probe"},
      {"probe.export_ns", obs_mean(tr.serial, "probe_stage_ns{stage=\"export\"}"), "ns", sampled},
      {"sharded.feed_s", tr.feed_s / r, "s", per_round},
      {"sharded.finish_s", tr.finish_s / r, "s", per_round},
      {"sharded.queue_fill", ratio(tr.queue_fill_sum, static_cast<double>(tr.queue_fill_samples)),
       "ratio", "mean of the feeder's samples"},
      {"sharded.shard_skew", tr.shard_skew_sum / r, "ratio", per_round},
      {"lake.write_s", self(Layer::kLakeWrite) / r, "s", per_round},
      {"lake.records_written", static_cast<double>(tr.records_written) / r, "count", per_round},
      {"lake.bytes_written", static_cast<double>(tr.bytes_written) / r, "B", per_round},
      {"lake.encode_s", encode_s / r, "s", per_round},
      {"lake.compress_s", compress_s / r, "s", per_round},
      {"lake.fsync_s", fsync_s / r, "s", per_round},
      {"lake.codec_ratio", ratio(codec_out, codec_in), "ratio", "codec bytes out / in"},
      {"lake.scan_records", reads("lake_scan_records_total{}") / r, "count", per_round},
      {"lake.blocks_pruned_share",
       ratio(pruned, pruned + obs_value(tr.raw, "exec_batches_total{}")), "ratio",
       "raw-fallback scans"},
      {"lake.segments_skipped", reads("lake_scan_segments_skipped_total{}") / r, "count",
       per_round},
      {"exec.batches", reads("exec_batches_total{}") / r, "count", per_round},
      {"exec.rows_per_batch",
       ratio(reads("exec_batch_rows{}.sum"), reads("exec_batch_rows{}.count")), "count",
       "mean batch"},
      {"exec.dict_passthrough_share",
       ratio(passthrough, passthrough + reads("exec_rows_materialized_total{}")), "ratio",
       "rows"},
      {"analytics.aggregate_s", aggregate_s / r, "s", per_round},
      {"analytics.records_per_s",
       ratio(obs_value(tr.build, "analytics_records_aggregated_total{}"), aggregate_s), "1/s",
       "per aggregating thread"},
      {"query.build_s", build_s / r, "s", per_round},
      {"query.build_pool_busy_share",
       ratio(aggregate_s, build_s * static_cast<double>(pool_threads)), "ratio",
       "aggregate time / (build wall x pool size)"},
      {"query.days_built",
       static_cast<double>(tr.files_built) / static_cast<double>(ew::query::kDimensionCount) / r,
       "count", per_round},
      {"query.days_failed", static_cast<double>(tr.days_failed) / r, "count", per_round},
      {"query.figures_s", self(Layer::kFigures) / r, "s", per_round},
      {"query.rollup_query_s", self(Layer::kRollupQuery) / r, "s", per_round},
      {"query.raw_days_scanned", static_cast<double>(tr.raw_days_scanned) / r, "count",
       per_round},
      {"unattributed_s", (wall_s - layers_s) / r, "s", per_round},
      {"trace_overhead", ratio(median(traced_walls), median(untraced_walls)), "ratio",
       "median traced / untraced round (" + std::to_string(untraced_walls.size()) +
           " untraced)"},
      {"error_rate", error_rate, "ratio", "failed / attempted"},
  };

  std::printf("# layer table, per traced round (%d); traced wall %.6f s\n", tr.rounds,
              wall_s / r);
  std::printf("# %-16s %10s %12s %8s %14s %14s\n", "layer", "calls", "self_s", "share",
              "rows_in", "rows_out");
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto& t = tracer.totals(static_cast<Layer>(l));
    std::printf("# %-16s %10.1f %12.6f %7.1f%% %14.0f %14.0f\n", kLayerNames[l],
                static_cast<double>(t.calls) / r, t.self_s() / r,
                100 * ratio(t.self_s(), wall_s), static_cast<double>(t.rows_in) / r,
                static_cast<double>(t.rows_out) / r);
  }
  std::printf("# %-16s %10s %12.6f %7.1f%%\n", "unattributed", "-", (wall_s - layers_s) / r,
              100 * ratio(wall_s - layers_s, wall_s));
  std::printf("# inside storage.write and query.build, on pool threads (CPU s): encode %.6f, "
              "compress %.6f, fsync %.6f, aggregate %.6f\n",
              encode_s / r, compress_s / r, fsync_s / r, aggregate_s / r);
  return m;
}

int run(const Options& opt) {
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  fs::create_directories(opt.work_dir);
  const bool figures_workload = opt.workload == Workload::kFigures;
  // Threads never outnumber the CPUs: serial ingest is this thread plus an
  // encode pool of nproc-1 workers, sharded ingest this feeder plus nproc-1
  // shards; rollup builds and queries run on nproc pool workers while this
  // thread waits.
  const std::size_t nproc = cpu_count();
  const std::size_t helpers = nproc - 1;

  // ---- set-up. It runs again before every timed round, timed apart from
  // the round, so that its samples spread over the run like the rounds do.
  std::vector<double> setup_samples;
  perfbench::Inputs in;
  const fs::path base_lake = opt.work_dir / "base_lake";
  const auto set_up = [&] {
    in = perfbench::Inputs{};
    fs::remove_all(base_lake, ec);
    const auto t0 = Clock::now();
    in = perfbench::make_inputs(opt.workload, opt.seed, opt.tiny, base_lake);
    setup_samples.push_back(since(t0));
  };
  set_up();
  std::span<const Frame> frames{in.frames};

  // ---- reference: the serial probe's export stream, held in memory, and
  // checked against the conversations the capture was rendered from
  Ops ops;
  std::vector<FlowRecord> exported;
  ew::probe::Probe::Counters reference_counters;
  {
    ew::probe::Probe probe{{}, [&](FlowRecord&& r) { exported.push_back(std::move(r)); }};
    probe.process(frames);
    probe.finish();
    reference_counters = probe.counters();
  }
  const std::size_t misreported = perfbench::capture_mismatches(in, exported);
  if (misreported != 0) {
    std::fprintf(stderr, "perfbench: %zu of %zu conversations misreported\n", misreported,
                 in.conversations.size());
  }
  ops.check(misreported == 0, "the serial probe reports every rendered conversation");
  if (opt.corrupt_reference && !exported.empty()) exported.front().down.bytes += 1;
  // The sharded probe merges in flow-creation order.
  std::vector<FlowRecord> by_creation = exported;
  std::stable_sort(by_creation.begin(), by_creation.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.ingest_seq < b.ingest_seq;
                   });
  std::map<CivilDate, std::vector<const FlowRecord*>> exported_by_day;
  for (const auto& r : exported) exported_by_day[r.first_packet.date()].push_back(&r);

  perfbench::Reference ref;
  ref.rib = in.scenario.rib.get();
  if (figures_workload) {
    for (auto& [day, aggregate] : in.lake_reference) ref.days.push_back(std::move(aggregate));
    ref.rolled = in.rolled_days.size();
  } else {
    // The capture's newest day waits for its nightly build.
    ref.days = perfbench::aggregate_by_day(exported);
    ref.rolled = ref.days.empty() ? 0 : ref.days.size() - 1;
  }
  if (ref.rolled == 0 || ref.rolled == ref.days.size()) {
    throw std::runtime_error("the inputs give no rolled-up day or no raw day");
  }
  const Plan plan = make_plan(ref, opt.seed);

  ew::core::ThreadPool query_pool{nproc};
  std::unique_ptr<ew::core::ThreadPool> encode_pool;
  if (helpers > 0) encode_pool = std::make_unique<ew::core::ThreadPool>(helpers);
  const auto& catalog = ew::services::ServiceCatalog::standard();
  const fs::path serial_lake = opt.work_dir / "serial_lake";
  const fs::path sharded_lake = opt.work_dir / "sharded_lake";
  const fs::path rollup_dir = opt.work_dir / "rollups";
  const double frame_count = static_cast<double>(frames.size());

  Tracer tracer;
  TracedTotals tr;
  std::vector<double> ingest_fps, sharded_fps, figures_s;
  CallSamples rollup_calls, raw_calls;
  std::vector<double> traced_walls, untraced_walls;
  // Round 0's answers, which every later round must reproduce exactly.
  FiguresResult first_figures;
  std::vector<QueryResult> rollup_answers(plan.rollup_queries.size());
  std::vector<QueryResult> raw_answers(plan.raw_queries.size());
  double bytes_per_record = 0;

  Clock::time_point measure_start = Clock::now();
  int timed_rounds = 0;
  for (int round = 0;; ++round) {
    const bool verify = round == 0;
    if (!verify && timed_rounds >= kMinRounds && since(measure_start) >= opt.seconds) break;
    if (!verify) {
      set_up();
      frames = in.frames;
      ref.rib = in.scenario.rib.get();
      ops.check(static_cast<double>(frames.size()) == frame_count,
                "set-up regenerates the same capture");
    }
    const bool traced = opt.trace && !verify && round % 2 == 0;
    Tracer* const t = traced ? &tracer : nullptr;
    for (const auto& dir : {serial_lake, sharded_lake, rollup_dir}) fs::remove_all(dir, ec);
    double wall = 0;
    ObsValues before;

    // 1. serial ingest
    if (traced) before = read_obs();
    const IngestResult serial = serial_ingest(frames, serial_lake, encode_pool.get(), t);
    if (traced) add_delta(tr.serial, before, read_obs());
    wall += serial.seconds;
    ops.check(serial.append_failures == 0 && serial.records == exported.size(),
              "serial ingest writes every exported record");
    if (verify) {
      ops.check(reference_counters.decode_failures == 0 && serial.counters.decode_failures == 0,
                "serial probe decode_failures == 0");
      const ew::storage::DataLake lake{serial_lake};
      ops.check(lake.days().size() == exported_by_day.size(), "one lake day file per capture day");
      for (const auto& [day, records] : exported_by_day) {
        ew::storage::ScanResult status;
        const auto stored = lake.read_day(day, status);
        ops.check(status.ok() && std::equal(stored.begin(), stored.end(), records.begin(),
                                            records.end(),
                                            [](const FlowRecord& a, const FlowRecord* b) {
                                              return perfbench::same_stored(a, *b);
                                            }),
                  "read_day returns the records the serial probe exported");
      }
    } else {
      ingest_fps.push_back(frame_count / serial.seconds);
    }
    if (traced) {
      tr.active_flows_max = std::max(tr.active_flows_max, serial.active_flows_max);
      tr.records_written += serial.records;
      tr.bytes_written += serial.bytes;
    }

    // 2. sharded ingest
    if (helpers > 0) {
      std::vector<FlowRecord> merged;
      if (traced) before = read_obs();
      const IngestResult sharded = sharded_ingest(frames, sharded_lake, helpers,
                                                  encode_pool.get(), t, verify ? &merged : nullptr);
      if (traced) add_delta(tr.sharded, before, read_obs());
      wall += sharded.seconds;
      ops.check(sharded.append_failures == 0 && sharded.records == exported.size(),
                "sharded ingest writes every exported record");
      if (verify) {
        ops.check(sharded.counters.decode_failures == 0, "sharded probe decode_failures == 0");
        ops.check(std::equal(merged.begin(), merged.end(), by_creation.begin(), by_creation.end(),
                             perfbench::same_exported),
                  "sharded merge equals the serial stream in creation order");
      } else {
        sharded_fps.push_back(frame_count / sharded.seconds);
      }
      if (traced) {
        tr.feed_s += sharded.feed_s;
        tr.finish_s += sharded.finish_s;
        tr.queue_fill_sum += sharded.queue_fill_sum;
        tr.queue_fill_samples += sharded.queue_fill_samples;
        tr.shard_skew_sum += sharded.shard_skew;
        tr.records_written += sharded.records;
        tr.bytes_written += sharded.bytes;
      }
    }

    // 3. rollups from an empty directory, then the four figures
    const ew::storage::DataLake lake{figures_workload ? base_lake : serial_lake};
    ew::query::RollupStore store{rollup_dir, lake, catalog, ref.rib};
    if (traced) before = read_obs();
    const FiguresResult fig = build_and_figures(store, plan, query_pool, t);
    if (traced) add_delta(tr.build, before, read_obs());
    wall += fig.seconds;
    ops.attempted += plan.rolled.size();  // each rollup day is one operation
    ops.failed += fig.report.errors.size();
    ops.check(fig.report.built == plan.rolled.size() * ew::query::kDimensionCount,
              "rollup build writes every dimension of every day");
    if (verify) {
      ops.check(perfbench::check_protocol_shares(ref, fig.shares),
                "protocol_shares equals analytics::protocol_shares");
      ops.check(perfbench::check_volume_trend(ref, fig.trend),
                "volume_trend equals analytics::volume_trend");
      ops.check(perfbench::check_query(ref, rtt_figure_spec(plan), as_result(fig.rtt)),
                "weekly_rtt_quantile within its sketch bound");
      for (std::size_t m = 0; m < plan.months.size(); ++m) {
        ops.check(perfbench::check_query(ref, top_services_spec(plan.months[m]),
                                         as_result(fig.top[m])),
                  "top_services_by_subscribers within the HLL bound");
      }
      std::uint64_t lake_bytes = 0;
      for (const CivilDate day : lake.days()) lake_bytes += lake.file_bytes(day);
      const std::uint64_t records = figures_workload ? in.lake_records : serial.records;
      bytes_per_record = ratio(static_cast<double>(lake_bytes), static_cast<double>(records));
      first_figures = fig;
    } else {
      ops.check(same_figures(fig, first_figures), "figures repeat round 0's answers");
      figures_s.push_back(fig.seconds);
    }
    if (traced) {
      tr.files_built += fig.report.built;
      tr.days_failed += fig.report.errors.size();
    }

    // 4. interactive rollup queries; 5. raw-fallback queries
    const QueryBatch rollup = run_queries(store, plan.rollup_queries,
                                          verify ? 1 : passes_for(plan.rollup_queries), t,
                                          Layer::kRollupQuery);
    wall += rollup.seconds;
    if (traced) before = read_obs();
    const QueryBatch raw = run_queries(store, plan.raw_queries,
                                       verify ? 1 : passes_for(plan.raw_queries), t,
                                       Layer::kRawQuery);
    if (traced) add_delta(tr.raw, before, read_obs());
    wall += raw.seconds;
    const auto settle = [&](const QueryBatch& batch, const std::vector<QuerySpec>& specs,
                            std::vector<QueryResult>& answers, CallSamples& samples,
                            const char* what) {
      for (std::size_t k = 0; k < batch.results.size(); ++k) {
        const std::size_t i = batch.spec_index[k];
        if (verify) {
          ops.check(perfbench::check_query(ref, specs[i], batch.results[k]), what);
          answers[i] = batch.results[k];
        } else {
          ops.check(same_answer(batch.results[k], answers[i]), what);
        }
        if (traced) tr.raw_days_scanned += batch.results[k].days_scanned_raw;
      }
      if (!verify) {
        samples.rounds.push_back(batch.latency_ms);
        samples.seconds.push_back(batch.seconds);
      }
    };
    settle(rollup, plan.rollup_queries, rollup_answers, rollup_calls,
           "rollup-backed query matches the reference");
    settle(raw, plan.raw_queries, raw_answers, raw_calls,
           "raw-fallback query matches the reference");

    if (verify) {
      measure_start = Clock::now();
      continue;
    }
    ++timed_rounds;
    if (traced) ++tr.rounds;
    (traced ? traced_walls : untraced_walls).push_back(wall);
  }

  const double error_rate =
      ratio(static_cast<double>(ops.failed), static_cast<double>(ops.attempted));
  const std::vector<double> rollup_ms = rollup_calls.fastest_tenth_calls();
  const std::vector<double> raw_ms = raw_calls.fastest_tenth_calls();
  std::printf(
      "# info {\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", \"nproc\": %zu, "
      "\"shards\": %zu, \"encode_workers\": %zu, \"query_threads\": %zu, "
      "\"build_type\": \"%s\", \"obs\": %s, \"frames\": %zu, \"records\": %zu, "
      "\"lake_days\": %zu, \"lake_records\": %llu, \"rolled_days\": %zu, \"raw_days\": %zu, "
      "\"setup_samples\": %zu, "
      "\"timed_rounds\": %d, \"traced_rounds\": %d, \"rollup_query_calls_kept\": %zu, "
      "\"raw_query_calls_kept\": %zu, \"attempted\": %llu, \"failed\": %llu, "
      "\"error_rate\": %s}\n",
      perfbench::to_string(opt.workload), static_cast<unsigned long long>(opt.seed),
      opt.tiny ? "tiny" : "full", nproc, helpers, helpers, nproc, PERFBENCH_BUILD_TYPE,
      ew::obs::kEnabled ? "true" : "false", frames.size(), exported.size(), ref.days.size(),
      static_cast<unsigned long long>(figures_workload ? in.lake_records : exported.size()),
      plan.rolled.size(), plan.raw.size(), setup_samples.size(), timed_rounds, tr.rounds,
      rollup_ms.size(), raw_ms.size(), static_cast<unsigned long long>(ops.attempted),
      static_cast<unsigned long long>(ops.failed), number(error_rate).c_str());

  std::vector<Reported> metrics;
  if (!opt.trace) {
    const std::string rounds = "median of the fastest tenth of " + std::to_string(timed_rounds) +
                               " rounds";
    const auto calls = [](const char* what, const std::vector<double>& v) {
      return std::string(what) + " of " + std::to_string(v.size()) +
             " calls, fastest tenth of rounds";
    };
    metrics = {
        {"setup_s", median(fastest_tenth(setup_samples, false)), "s",
         "median of the fastest tenth of " + std::to_string(setup_samples.size()) + " set-ups"},
        {"ingest_frames_per_s", median(fastest_tenth(ingest_fps, true)), "frames/s", rounds},
        {"sharded_frames_per_s", median(fastest_tenth(sharded_fps, true)), "frames/s",
         helpers > 0 ? rounds : "needs 2 or more CPUs", helpers == 0},
        {"lake_bytes_per_record", bytes_per_record, "B/record", "exact"},
        {"time_to_figures_s", median(fastest_tenth(figures_s, false)), "s", rounds},
        {"query_p50_ms", perfbench::nearest_rank(rollup_ms, 0.5), "ms", calls("p50", rollup_ms)},
        {"query_p90_ms", perfbench::nearest_rank(rollup_ms, 0.9), "ms", calls("p90", rollup_ms)},
        {"raw_query_p50_ms", perfbench::nearest_rank(raw_ms, 0.5), "ms", calls("p50", raw_ms)},
        {"raw_query_p90_ms", perfbench::nearest_rank(raw_ms, 0.9), "ms", calls("p90", raw_ms)},
        {"peak_rss_mb", peak_rss_mb(), "MB", "process peak"},
    };
    print_metrics(metrics);
    std::printf("# metric %-30s %16s %-9s %llu failed of %llu attempted\n", "error_rate",
                number(error_rate).c_str(), "ratio", static_cast<unsigned long long>(ops.failed),
                static_cast<unsigned long long>(ops.attempted));
  } else {
    metrics = layer_metrics(tr, tracer, frames.size(), nproc, traced_walls, untraced_walls,
                            error_rate);
    print_metrics(metrics);
  }
  std::printf("%s\n", result_json(metrics, ops.attempted, ops.failed).c_str());
  std::fflush(stdout);
  fs::remove_all(opt.work_dir, ec);
  return ops.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload {ingest_bulk,ingest_churn,figures} --seed N "
                 "--seconds S --trace {0,1} --work-dir DIR [--size {full,tiny}] "
                 "[--corrupt-reference]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
