// Persistent rollup store: one compact columnar `.ewr` file per lake day
// under a rollup directory, holding all three dimensions, built
// incrementally from the data lake. build() is idempotent and cheap to
// re-run: a day is rebuilt only when the lake day file's FileIdentity
// (size + mtime + trailing-seal sequence — the same identity fsck reports)
// differs from the identity recorded inside the existing rollup header, so
// a nightly build touches exactly the days that changed.
//
// A rollup is a cache of its lake day, not primary data: it is written to
// a temp file and renamed into place, without fsync. Every section carries
// a CRC, so a rollup lost, torn or damaged by a crash reads as stale and
// the next build() rewrites it from the lake.
#pragma once

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "asn/lpm.hpp"
#include "core/result.hpp"
#include "core/thread_pool.hpp"
#include "core/time.hpp"
#include "query/rollup.hpp"
#include "services/catalog.hpp"
#include "storage/datalake.hpp"

namespace edgewatch::query {

/// What one build() pass did. `built`/`reused`/`failed` count day ×
/// dimension rollups, not files: one rebuilt day adds kDimensionCount to
/// `built`. Callers that check a build against its day count (perfbench
/// does) rely on that unit.
struct BuildReport {
  std::size_t built = 0;
  std::size_t reused = 0;
  std::size_t failed = 0;
  std::vector<std::pair<core::CivilDate, core::Errc>> errors;

  [[nodiscard]] bool ok() const noexcept { return failed == 0; }
};

class RollupStore {
 public:
  /// `dir` is created on demand. `rib` feeds the server-ASN dimension
  /// (optional: without it every server groups under ASN 0). The store
  /// keeps references — lake, catalog and rib must outlive it.
  RollupStore(std::filesystem::path dir, const storage::DataLake& lake,
              const services::ServiceCatalog& catalog = services::ServiceCatalog::standard(),
              const asn::Rib* rib = nullptr);

  /// `rollup_YYYY-MM-DD.ewr`
  [[nodiscard]] static std::string rollup_filename(core::CivilDate day);
  [[nodiscard]] std::filesystem::path rollup_path(core::CivilDate day) const;

  /// True when an intact rollup exists whose recorded source identity still
  /// matches the lake day file. Missing, torn or corrupt rollups are stale.
  [[nodiscard]] bool fresh(core::CivilDate day) const;

  /// Bring every lake day's rollup up to date, one pool task per day: each
  /// stale day is aggregated once and its file written from that single
  /// aggregate. Stray `*.tmp` files (from a build that was killed) are
  /// removed first. Must not be called from inside a pool task.
  BuildReport build(core::ThreadPool& pool);
  /// As above for an explicit day list.
  BuildReport build(std::span<const core::CivilDate> days, core::ThreadPool& pool);

  /// Load one day's rollup along `dim`, materializing only the requested
  /// columns (the file is memory-mapped; other dimensions and unrequested
  /// sketch sections are never touched).
  /// kNotFound when absent, kTruncated/kCorrupt per decode_rollup.
  [[nodiscard]] core::Result<DayRollup> load(core::CivilDate day, Dimension dim,
                                             std::uint32_t columns = kAllColumns) const;

  /// Days with a rollup file present, sorted.
  [[nodiscard]] std::vector<core::CivilDate> days() const;

  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }
  [[nodiscard]] const storage::DataLake& lake() const noexcept { return lake_; }

 private:
  /// true: rebuilt; false: already fresh; an error: the day failed.
  [[nodiscard]] core::Result<bool> build_day(core::CivilDate day) const;

  std::filesystem::path dir_;
  const storage::DataLake& lake_;
  const services::ServiceCatalog& catalog_;
  const asn::Rib* rib_;
};

}  // namespace edgewatch::query
