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
struct StoreObs {
  obs::Counter* built;
  obs::Counter* reused;
  obs::Counter* failed;
  obs::SpanSite* build_span;
};

StoreObs& store_obs() {
  static StoreObs m = [] {
    auto& reg = obs::Registry::global();
    return StoreObs{&reg.counter("rollup_days_built_total"),
                    &reg.counter("rollup_days_reused_total"),
                    &reg.counter("rollup_days_failed_total"),
                    &reg.span_site("rollup_build")};
  }();
  return m;
}

core::Result<void> write_atomically(const std::filesystem::path& path,
                                    std::span<const std::byte> data) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  auto file = storage::make_posix_file();
  if (auto r = file->open_at(tmp, 0); !r) return r;
  if (auto r = file->write(data); !r) {
    (void)file->close();
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return r;
  }
  if (auto r = file->sync(); !r) return r;
  if (auto r = file->close(); !r) return r;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return core::Errc::kIoError;
  }
  return {};
}

}  // namespace

RollupStore::RollupStore(std::filesystem::path dir, const storage::DataLake& lake,
                         const services::ServiceCatalog& catalog, const asn::Rib* rib)
    : dir_(std::move(dir)), lake_(lake), catalog_(catalog), rib_(rib) {}

std::string RollupStore::rollup_filename(core::CivilDate day, Dimension dim) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "rollup_%04d-%02u-%02u.%s.ewr", day.year,
                static_cast<unsigned>(day.month), static_cast<unsigned>(day.day),
                std::string(to_string(dim)).c_str());
  return buf;
}

std::filesystem::path RollupStore::rollup_path(core::CivilDate day, Dimension dim) const {
  return dir_ / rollup_filename(day, dim);
}

bool RollupStore::fresh(core::CivilDate day, Dimension dim) const {
  const storage::FileIdentity source = lake_.day_identity(day);
  if (!source.exists()) return false;  // no lake day: nothing to be fresh against
  auto mapped = storage::MappedFile::open(rollup_path(day, dim));
  if (!mapped) return false;
  // Full-mask decode so every section CRC is verified: "fresh" promises the
  // file is both current (identity matches the lake day) and intact, so a
  // torn, foreign, or bit-flipped rollup reads as stale and build() heals
  // it. Queries still load with a narrow mask; only freshness pays for the
  // full check.
  auto rollup = decode_rollup(mapped->bytes(), kAllColumns);
  return rollup && rollup->source == source;
}

RollupStore::DayOutcome RollupStore::build_day(core::CivilDate day,
                                               const BuildOptions& options) const {
  DayOutcome out;
  std::vector<Dimension> stale;
  for (std::size_t d = 0; d < kDimensionCount; ++d) {
    const auto dim = static_cast<Dimension>(d);
    if (!options.force && fresh(day, dim)) {
      ++out.reused;
    } else {
      stale.push_back(dim);
    }
  }
  if (stale.empty()) return out;

  // Capture the identity *before* scanning: if the lake file is appended to
  // mid-build, the rollup records the pre-append identity and the next
  // build() pass sees it as stale again — never the other way around.
  const storage::FileIdentity source = lake_.day_identity(day);
  // One ScanScratch per worker thread, reused across every day this worker
  // builds: the column decode buffers warm up once per
  // build() instead of reallocating per day (and, before the scratch-passing
  // aggregate_day existed, per block).
  thread_local storage::ScanScratch scratch;
  const auto scan = analytics::aggregate_day(lake_, day, scratch, nullptr, catalog_);
  if (scan.scan.errc != core::Errc::kOk && scan.scan.records_delivered == 0) {
    out.failed += stale.size();
    out.errc = scan.scan.errc;
    return out;
  }
  for (const Dimension dim : stale) {
    DayRollup rollup =
        build_day_rollup(scan.aggregate, dim, catalog_, rib_, options.sketch, options.criteria);
    rollup.source = source;
    const auto bytes = encode_rollup(rollup);
    if (auto written = write_atomically(rollup_path(day, dim), bytes)) {
      ++out.built;
    } else {
      ++out.failed;
      out.errc = written.error();
    }
  }
  return out;
}

BuildReport RollupStore::build(core::ThreadPool& pool, const BuildOptions& options) {
  const auto all = lake_.days();
  return build(all, pool, options);
}

BuildReport RollupStore::build(std::span<const core::CivilDate> days, core::ThreadPool& pool,
                               const BuildOptions& options) {
  obs::Span build_span(*store_obs().build_span);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);

  // One pool task per day (per-day work is serial — day fan-out already
  // saturates the pool, and nesting parallel_for would deadlock).
  std::vector<std::future<DayOutcome>> futures;
  futures.reserve(days.size());
  for (const core::CivilDate day : days) {
    futures.push_back(pool.submit([this, day, &options] { return build_day(day, options); }));
  }
  BuildReport report;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const DayOutcome out = futures[i].get();
    report.built += out.built;
    report.reused += out.reused;
    report.failed += out.failed;
    if (out.errc != core::Errc::kOk) report.errors.emplace_back(days[i], out.errc);
    if constexpr (obs::kEnabled) {
      auto& m = store_obs();
      if (out.built != 0) m.built->add(static_cast<std::uint64_t>(out.built));
      if (out.reused != 0) m.reused->add(static_cast<std::uint64_t>(out.reused));
      if (out.failed != 0) m.failed->add(static_cast<std::uint64_t>(out.failed));
    }
  }
  return report;
}

core::Result<DayRollup> RollupStore::load(core::CivilDate day, Dimension dim,
                                          std::uint32_t columns) const {
  auto mapped = storage::MappedFile::open(rollup_path(day, dim));
  if (!mapped) return mapped.error();
  return decode_rollup(mapped->bytes(), columns);
}

std::vector<core::CivilDate> RollupStore::days(Dimension dim) const {
  std::vector<core::CivilDate> out;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir_, ec)) return out;
  const std::string suffix = "." + std::string(to_string(dim)) + ".ewr";
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    // rollup_YYYY-MM-DD.<dimension>.ewr
    if (name.size() != 17 + suffix.size() || name.rfind("rollup_", 0) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) continue;
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
