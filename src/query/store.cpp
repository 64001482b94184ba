#include "query/store.hpp"

#include <algorithm>
#include <cstdio>
#include <future>
#include <system_error>
#include <utility>

#include "analytics/parallel.hpp"
#include "obs/obs.hpp"
#include "storage/io.hpp"

namespace edgewatch::query {

namespace {

// Build-progress instrumentation: counters advance per completed day (not
// once at the end), so a scrape mid-build shows how far a long rebuild got.
// The per-day spans split a day's build into its freshness probe, the scan
// + aggregation (analytics_day_aggregate) and the rollup encode + write.
struct StoreObs {
  obs::Counter* built;
  obs::Counter* reused;
  obs::Counter* failed;
  obs::SpanSite* build_span;
  obs::SpanSite* day_span;
  obs::SpanSite* fresh_span;
  obs::SpanSite* write_span;
};

StoreObs& store_obs() {
  static StoreObs m = [] {
    auto& reg = obs::Registry::global();
    return StoreObs{&reg.counter("rollup_days_built_total"),
                    &reg.counter("rollup_days_reused_total"),
                    &reg.counter("rollup_days_failed_total"),
                    &reg.span_site("rollup_build"),
                    &reg.span_site("rollup_build_day"),
                    &reg.span_site("rollup_fresh"),
                    &reg.span_site("rollup_write")};
  }();
  return m;
}

// Temp file + rename, so a reader never maps a partial rollup. No fsync: a
// rollup lost or torn by a crash reads as stale and is rebuilt.
core::Result<void> write_atomically(const std::filesystem::path& path,
                                    std::span<const std::byte> data) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  auto file = storage::make_posix_file();
  if (auto r = file->open_at(tmp, 0); !r) return r;
  core::Result<void> written = file->write(data);
  if (auto closed = file->close(); written && !closed) written = closed;
  std::error_code ec;
  if (written) {
    std::filesystem::rename(tmp, path, ec);
    if (ec) written = core::Errc::kIoError;
  }
  if (!written) std::filesystem::remove(tmp, ec);
  return written;
}

}  // namespace

RollupStore::RollupStore(std::filesystem::path dir, const storage::DataLake& lake,
                         const services::ServiceCatalog& catalog, const asn::Rib* rib)
    : dir_(std::move(dir)), lake_(lake), catalog_(catalog), rib_(rib) {}

std::string RollupStore::rollup_filename(core::CivilDate day) {
  return "rollup_" + day.to_string() + ".ewr";
}

std::filesystem::path RollupStore::rollup_path(core::CivilDate day) const {
  return dir_ / rollup_filename(day);
}

bool RollupStore::fresh(core::CivilDate day) const {
  const storage::FileIdentity source = lake_.day_identity(day);
  if (!source.exists()) return false;  // no lake day: nothing to be fresh against
  auto mapped = storage::MappedFile::open(rollup_path(day));
  if (!mapped) return false;
  // Full-mask decode of every dimension, so every section CRC is verified:
  // "fresh" promises the file is both current (identity matches the lake
  // day) and intact, so a torn, foreign, or bit-flipped rollup reads as
  // stale and build() heals it. Queries still load one dimension with a
  // narrow mask; only freshness pays for the full check.
  for (std::size_t d = 0; d < kDimensionCount; ++d) {
    auto rollup = decode_rollup(mapped->bytes(), static_cast<Dimension>(d), kAllColumns);
    if (!rollup || rollup->source != source) return false;
  }
  return true;
}

core::Result<bool> RollupStore::build_day(core::CivilDate day) const {
  auto& m = store_obs();
  obs::Span day_span(*m.day_span);
  obs::Span fresh_span(*m.fresh_span);
  if (fresh(day)) return false;
  fresh_span.finish();
  // Capture the identity *before* scanning: if the lake file is appended to
  // mid-build, the rollup records the pre-append identity and the next
  // build() pass sees it as stale again — never the other way around.
  const storage::FileIdentity source = lake_.day_identity(day);
  // One ScanScratch per worker thread, reused across every day this worker
  // builds: the column decode buffers warm up once per build() instead of
  // reallocating per day.
  thread_local storage::ScanScratch scratch;
  const auto scan = analytics::aggregate_day(lake_, day, scratch, nullptr, catalog_);
  if (scan.scan.errc != core::Errc::kOk && scan.scan.records_delivered == 0) {
    return scan.scan.errc;
  }
  DayRollups rollups = build_day_rollups(scan.aggregate, catalog_, rib_);
  for (DayRollup& rollup : rollups) rollup.source = source;
  obs::Span write_span(*m.write_span);
  if (auto written = write_atomically(rollup_path(day), encode_rollup(rollups)); !written) {
    return written.error();
  }
  return true;
}

BuildReport RollupStore::build(core::ThreadPool& pool) {
  const auto all = lake_.days();
  return build(all, pool);
}

BuildReport RollupStore::build(std::span<const core::CivilDate> days, core::ThreadPool& pool) {
  obs::Span build_span(*store_obs().build_span);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // A build killed mid-write leaves its temp files behind; no reader ever
  // opens them, so they are only clutter.
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp") std::filesystem::remove(entry.path(), ec);
  }

  // One pool task per day (per-day work is serial — day fan-out already
  // saturates the pool, and nesting parallel_for would deadlock).
  std::vector<std::future<core::Result<bool>>> futures;
  futures.reserve(days.size());
  for (const core::CivilDate day : days) {
    futures.push_back(pool.submit([this, day] { return build_day(day); }));
  }
  BuildReport report;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const core::Result<bool> out = futures[i].get();
    (!out ? report.failed : *out ? report.built : report.reused) += kDimensionCount;
    if (!out) report.errors.emplace_back(days[i], out.error());
    if constexpr (obs::kEnabled) {
      auto& m = store_obs();
      (!out ? m.failed : *out ? m.built : m.reused)->add(1);
    }
  }
  return report;
}

core::Result<DayRollup> RollupStore::load(core::CivilDate day, Dimension dim,
                                          std::uint32_t columns) const {
  auto mapped = storage::MappedFile::open(rollup_path(day));
  if (!mapped) return mapped.error();
  return decode_rollup(mapped->bytes(), dim, columns);
}

std::vector<core::CivilDate> RollupStore::days() const {
  std::vector<core::CivilDate> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    // rollup_YYYY-MM-DD.ewr
    const std::string name = entry.path().filename().string();
    if (name.size() != 21 || !name.starts_with("rollup_") || !name.ends_with(".ewr")) continue;
    int year = 0;
    unsigned month = 0, dday = 0;
    if (std::sscanf(name.c_str() + 7, "%4d-%2u-%2u", &year, &month, &dday) != 3) continue;
    out.push_back(core::CivilDate{year, static_cast<std::uint8_t>(month),
                                  static_cast<std::uint8_t>(dday)});
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace edgewatch::query
