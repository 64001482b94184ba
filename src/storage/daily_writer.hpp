// DailyLakeWriter: the glue between a live probe and the data lake. The
// paper's probes buffer flow logs locally and ship them to long-term
// storage daily (§2.2); this writer buffers finished FlowRecords, assigns
// each to the civil day its flow *started*, and appends day batches to the
// lake whenever a buffer fills or the day rolls over. The writer preserves
// arrival order, never sorting a batch.
//
// Throughput: a flush hands the whole batch to DataLake::append, which —
// when the lake was given an encode pool (DataLake::set_encode_pool) —
// pipelines the per-block transpose/compress work across the
// pool and commits frames in order, producing a byte-identical file to the
// serial writer. The writer needs no changes to benefit; keep its buffer a
// multiple of DataLake::kBlockRecords so flushes cut full blocks.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/obs.hpp"
#include "storage/datalake.hpp"

namespace edgewatch::storage {

class DailyLakeWriter {
 public:
  explicit DailyLakeWriter(DataLake& lake, std::size_t buffer_records = 16'384)
      : lake_(lake), buffer_records_(buffer_records) {}

  ~DailyLakeWriter() { finish(); }

  DailyLakeWriter(const DailyLakeWriter&) = delete;
  DailyLakeWriter& operator=(const DailyLakeWriter&) = delete;

  /// Buffer one record; flushes its day's buffer when full. Probe exports
  /// arrive in long same-day streaks, so a one-entry MRU cache of the day's
  /// bucket skips the std::map tree walk on all but the first record of a
  /// streak (map nodes are pointer-stable, so the cached bucket survives
  /// other days being inserted; it is invalidated whenever flush_day erases
  /// an entry).
  void add(flow::FlowRecord&& record) {
    const core::CivilDate day = record.first_packet.date();
    if (mru_bucket_ == nullptr || day != mru_day_) {
      mru_bucket_ = &buffers_[day];
      mru_day_ = day;
    }
    auto& bucket = *mru_bucket_;
    bucket.push_back(std::move(record));
    ++buffered_;
    if (bucket.size() >= buffer_records_) (void)flush_day(day);
  }

  /// Flush every buffered day, reporting the first failure as a typed
  /// error (kNoSpace for a full volume, kIoError for a sick disk …). On
  /// failure the lake is still consistent — a failed append rolled its file
  /// back, so no partial block is ever visible — and the unflushed records
  /// stay buffered for a later retry.
  [[nodiscard]] core::Result<void> flush_all() {
    // Copy keys first: flush_day mutates the map.
    std::vector<core::CivilDate> days;
    days.reserve(buffers_.size());
    for (const auto& [day, _] : buffers_) days.push_back(day);
    core::Errc first = core::Errc::kOk;
    for (const auto day : days) {
      if (auto r = flush_day(day); !r && first == core::Errc::kOk) first = r.error();
    }
    if (first != core::Errc::kOk) return first;
    return {};
  }

  /// Flush every buffered day (call at shutdown; the destructor does too).
  /// Untyped convenience over flush_all(); failures remain visible through
  /// append_failures()/last_error().
  void finish() { (void)flush_all(); }

  [[nodiscard]] std::size_t buffered() const noexcept { return buffered_; }
  [[nodiscard]] std::uint64_t records_written() const noexcept { return written_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }
  /// Appends that failed (the lake rolled back; records stayed buffered).
  [[nodiscard]] std::uint64_t append_failures() const noexcept { return append_failures_; }
  /// Records dropped because a failing day's buffer hit its retry cap.
  [[nodiscard]] std::uint64_t records_dropped() const noexcept { return dropped_; }
  [[nodiscard]] core::Errc last_error() const noexcept { return last_error_; }

 private:
  // Lazily-registered obs handles shared by every writer instance: the
  // writer is header-only, so registration lives behind a function-local
  // static instead of a constructor.
  struct WriterObs {
    obs::SpanSite* flush;
    obs::Counter* failures;
    obs::Counter* dropped;
  };
  static WriterObs& writer_obs() {
    static WriterObs m = [] {
      auto& reg = obs::Registry::global();
      return WriterObs{&reg.span_site("lake_writer_flush"),
                       &reg.counter("lake_writer_flush_failures_total"),
                       &reg.counter("lake_writer_records_dropped_total")};
    }();
    return m;
  }

  core::Result<void> flush_day(core::CivilDate day) {
    auto it = buffers_.find(day);
    if (it == buffers_.end() || it->second.empty()) return {};
    // The span covers append + rollback handling: its histogram
    // (lake_writer_flush_ns) is the paper's "daily shipping" latency.
    obs::Span flush_span(*writer_obs().flush);
    const auto result = lake_.append(day, it->second);
    if (!result) {
      // The lake rolled the file back, so the batch is still ours. Keep it
      // for the next flush — but bounded, so a dead disk cannot grow the
      // buffer without limit.
      ++append_failures_;
      last_error_ = result.error();
      if constexpr (obs::kEnabled) writer_obs().failures->add(1);
      if (it->second.size() >= buffer_records_ * 4) {
        dropped_ += it->second.size();
        buffered_ -= it->second.size();
        if constexpr (obs::kEnabled) {
          writer_obs().dropped->add(static_cast<std::uint64_t>(it->second.size()));
        }
        buffers_.erase(it);
        mru_bucket_ = nullptr;  // the MRU entry may be the one just erased
      }
      return result.error();
    }
    bytes_ += *result;
    written_ += it->second.size();
    buffered_ -= it->second.size();
    buffers_.erase(it);
    mru_bucket_ = nullptr;
    return {};
  }

  DataLake& lake_;
  std::size_t buffer_records_;
  std::map<core::CivilDate, std::vector<flow::FlowRecord>> buffers_;
  core::CivilDate mru_day_{};
  std::vector<flow::FlowRecord>* mru_bucket_ = nullptr;
  std::size_t buffered_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t append_failures_ = 0;
  std::uint64_t dropped_ = 0;
  core::Errc last_error_ = core::Errc::kOk;
};

}  // namespace edgewatch::storage
