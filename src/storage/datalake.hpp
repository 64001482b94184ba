// Day-partitioned flow-log store (paper §2.2: "Daily, logs are copied into
// a long-term storage in a centralized data center", then a two-stage
// analytics methodology aggregates per day).
//
// Layout: one file per civil day under the lake root,
//   flows_YYYY-MM-DD.ewl = magic "EWLK" | version (4) | element*
//
// A day file is a stream of self-checking elements:
//
//   block:  u32le body_len | u32le seq | u32le record_count | u32le crc32c
//           | body                      (crc covers header fields + body)
//   seal:   u32le 0xffffffff | u32le seal_magic | u64le cumulative_records
//           | u32le cumulative_blocks | u32le crc32c
//
// Every block body is a self-contained columnar block (storage/columnar.hpp):
// per-field column segments behind a zone map, with the block's own
// dictionaries, so predicate-pushdown scans skip whole blocks and
// unreferenced columns, and any block decodes without its neighbours.
//
// Every append writes its blocks followed by a seal, fsyncs, and — if any
// write fails while the process survives — rolls the file back to its
// pre-append length, making appends atomic. A crash mid-append leaves a
// torn tail after the last seal; scan/fsck detect it via CRCs and block
// sequence numbers, and repair() truncates/quarantines so that no
// corrupted byte is ever delivered as a record.
//
// This is the only format. A file with any other version byte — including
// the row-oriented v1/v2 and the dictionary-chained v3 files of earlier
// releases — is rejected with kBadVersion at the header and never
// half-read; the lake is synthetic and is regenerated instead.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/function_ref.hpp"
#include "core/result.hpp"
#include "core/time.hpp"
#include "flow/record.hpp"
#include "storage/columnar.hpp"
#include "storage/io.hpp"

namespace edgewatch::core {
class ThreadPool;
}  // namespace edgewatch::core

namespace edgewatch::storage {

/// Outcome of a day scan. Partial delivery is explicit: records_delivered
/// counts what the callback saw, blocks_skipped counts damaged regions
/// that were detected and stepped over, blocks_pruned counts healthy blocks
/// a predicate skipped wholesale via their zone maps, errc says why the day
/// is not pristine (kOk for a clean sealed file).
struct ScanResult {
  std::uint64_t records_delivered = 0;
  std::uint32_t blocks_skipped = 0;
  std::uint32_t blocks_pruned = 0;
  core::Errc errc = core::Errc::kOk;

  [[nodiscard]] bool ok() const noexcept { return errc == core::Errc::kOk; }
  [[nodiscard]] explicit operator bool() const noexcept { return ok(); }

  /// Fold a partial result (one worker's share of a day's blocks) into
  /// this one. Corruption dominates; otherwise the first non-kOk status
  /// sticks — merge partials in block order for a deterministic outcome.
  void merge(const ScanResult& other) noexcept {
    records_delivered += other.records_delivered;
    blocks_skipped += other.blocks_skipped;
    blocks_pruned += other.blocks_pruned;
    if (errc == core::Errc::kOk || other.errc == core::Errc::kCorrupt) errc = other.errc;
  }
};

/// Scratch buffers reused across block decodes. One per scanning thread:
/// the columnar decoder fills the same allocations block after block.
using ScanScratch = ColumnScratch;

/// Random-access view of one day file for parallel scanning: the raw file
/// bytes (shared, immutable) plus the location of every CRC-valid block.
/// Each block is independently decodable, so workers can fan out over the
/// block list — share the index, give each worker its own ScanScratch.
class DayBlockIndex {
 public:
  /// Bytes of a block frame's header (body_len, seq, record_count, crc).
  static constexpr std::size_t kFrameHeaderSize = 16;

  struct Block {
    std::size_t offset = 0;  ///< Frame start within the file.
    std::uint32_t body_len = 0;
    std::uint32_t record_count = 0;
  };

  /// Header-level failure (absent file, I/O error, bad magic/version,
  /// header-less stub). When set, no blocks are available.
  [[nodiscard]] core::Errc fatal() const noexcept { return fatal_; }
  /// Day status before any block is decoded: kOk for a clean sealed file,
  /// kCorrupt when damaged ranges were skipped during indexing,
  /// kTruncated for an unsealed tail.
  [[nodiscard]] core::Errc baseline() const noexcept { return baseline_; }
  [[nodiscard]] const std::vector<Block>& blocks() const noexcept { return blocks_; }
  /// Damaged byte ranges stepped over while indexing (counts toward
  /// ScanResult::blocks_skipped, exactly as in the serial scan).
  [[nodiscard]] std::uint32_t damaged_ranges() const noexcept { return damaged_ranges_; }
  /// The compressed body of an indexed block.
  [[nodiscard]] std::span<const std::byte> body(const Block& b) const noexcept {
    return std::span<const std::byte>{*data_}.subspan(b.offset + kFrameHeaderSize, b.body_len);
  }

 private:
  friend class DataLake;
  std::shared_ptr<const std::vector<std::byte>> data_;
  std::vector<Block> blocks_;
  std::uint32_t damaged_ranges_ = 0;
  core::Errc fatal_ = core::Errc::kOk;
  core::Errc baseline_ = core::Errc::kOk;
};

/// Cheap identity of one on-disk day file: stat facts plus the cumulative
/// block count of the trailing seal (the file's durability receipt). Two reads of
/// the same path compare equal iff the file was not rewritten in between —
/// the staleness test shared by fsck reporting and the rollup store
/// (query::RollupStore rebuilds a day's rollups only when the lake file's
/// identity changed since the rollup was built).
struct FileIdentity {
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;    ///< last_write_time, ns since filesystem epoch.
  std::uint32_t seal_seq = 0;   ///< cumulative_blocks of a trailing seal; 0 otherwise.

  [[nodiscard]] bool exists() const noexcept { return size != 0 || mtime_ns != 0; }
  bool operator==(const FileIdentity&) const noexcept = default;
};

/// The one place that stats a lake day file for identity purposes
/// (size + mtime + trailing-seal sequence). Missing/unreadable files yield
/// a default identity (exists() == false).
[[nodiscard]] FileIdentity file_identity(const std::filesystem::path& path);

/// Health of one day file, as found by fsck() or left behind by repair().
struct DayHealth {
  core::CivilDate day{};
  FileIdentity identity{};  ///< As stat'ed by the same helper the rollup store uses.
  std::uint8_t version = 0;
  bool sealed = false;       ///< Last valid element is a seal.
  bool torn_tail = false;    ///< Unparseable bytes at (or to) the end.
  bool repaired = false;     ///< repair() rewrote the file.
  std::uint64_t blocks_ok = 0;
  std::uint64_t records_ok = 0;           ///< Records in CRC-valid blocks.
  std::uint32_t blocks_quarantined = 0;   ///< Damaged regions found/moved.
  std::uint64_t bytes_quarantined = 0;
  /// Exact count of records that were sealed (durably acknowledged) but
  /// now lie in damaged blocks. Unsealed torn-tail loss is additionally
  /// bounded by the batch size of the append that reported failure.
  std::uint64_t records_lost = 0;
  core::Errc errc = core::Errc::kOk;

  [[nodiscard]] bool healthy() const noexcept {
    return errc == core::Errc::kOk && !torn_tail && blocks_quarantined == 0;
  }
};

struct LakeHealthReport {
  std::vector<DayHealth> days;

  [[nodiscard]] bool clean() const noexcept {
    for (const auto& d : days) {
      if (!d.healthy()) return false;
    }
    return true;
  }
  [[nodiscard]] std::uint64_t total_records_lost() const noexcept {
    std::uint64_t n = 0;
    for (const auto& d : days) n += d.records_lost;
    return n;
  }
  [[nodiscard]] std::uint32_t total_blocks_quarantined() const noexcept {
    std::uint32_t n = 0;
    for (const auto& d : days) n += d.blocks_quarantined;
    return n;
  }
};

class DataLake {
 public:
  explicit DataLake(std::filesystem::path root);

  /// Append records to a day's log (creates the file if needed). Records
  /// are blocked, compressed, CRC-framed and sealed; the write is fsynced.
  /// Returns bytes written, or the error that prevented durability — in
  /// which case the file was rolled back to its previous length whenever
  /// the failure was survivable (everything except a crash).
  core::Result<std::uint64_t> append(core::CivilDate day,
                                     std::span<const flow::FlowRecord> records);

  /// Per-record and per-batch scan sinks. Both are non-owning
  /// core::FunctionRef views: one calling convention for every scan entry
  /// point, no per-scan std::function allocation. A batch sink must consume
  /// (or copy from) the RecordBatch inside the call — it views the scan's
  /// scratch and is overwritten by the next block.
  using RowSink = core::FunctionRef<void(const flow::FlowRecord&)>;
  using BatchSink = core::FunctionRef<void(const exec::RecordBatch&)>;

  /// Stream every recoverable record of a day. Damaged blocks are skipped
  /// (the reader resynchronizes on block sequence numbers) and reported. No
  /// record from a block that failed its checksum is ever delivered.
  ///
  /// Templated only to bind the callable to a RowSink through a named
  /// lvalue (FunctionRef rejects temporaries by design); dispatch is
  /// non-virtual. The body is a thin loop over scan_day_batches that replays
  /// each batch through exec::materialize_rows.
  template <typename Fn,
            typename = std::enable_if_t<std::is_invocable_v<Fn&, const flow::FlowRecord&>>>
  ScanResult scan_day(core::CivilDate day, Fn&& fn) const {
    RowSink sink{fn};
    return scan_day_impl(day, nullptr, sink);
  }

  /// Selective scan with predicate pushdown: blocks whose zone map cannot
  /// match are skipped without decompressing anything (counted in
  /// ScanResult::blocks_pruned), and surviving blocks decode only the
  /// column segments the filter and the callback need.
  template <typename Fn,
            typename = std::enable_if_t<std::is_invocable_v<Fn&, const flow::FlowRecord&>>>
  ScanResult scan_day(core::CivilDate day, const ScanPredicate& predicate, Fn&& fn) const {
    RowSink sink{fn};
    return scan_day_impl(day, &predicate, sink);
  }

  /// Native batch delivery — the primary scan path: one RecordBatch per
  /// surviving block, filled straight from the decode scratch, with
  /// dictionary codes passed through without materializing a single
  /// string. A filtered batch carries its selection vector instead of
  /// re-copying the surviving rows.
  template <typename Fn,
            typename = std::enable_if_t<std::is_invocable_v<Fn&, const exec::RecordBatch&>>>
  ScanResult scan_day_batches(core::CivilDate day, Fn&& fn) const {
    BatchSink sink{fn};
    return scan_day_batches_impl(day, nullptr, sink);
  }

  template <typename Fn,
            typename = std::enable_if_t<std::is_invocable_v<Fn&, const exec::RecordBatch&>>>
  ScanResult scan_day_batches(core::CivilDate day, const ScanPredicate& predicate,
                              Fn&& fn) const {
    BatchSink sink{fn};
    return scan_day_batches_impl(day, &predicate, sink);
  }

  /// Load the raw bytes and validated block index of one day for
  /// random-access (parallel) decoding. scan_day_batches is this plus a
  /// serial walk over the blocks.
  [[nodiscard]] DayBlockIndex load_day_blocks(core::CivilDate day) const;

  /// Scan one indexed block body with optional predicate pushdown, folding
  /// delivery/skip/prune accounting into `res`: the block's surviving rows
  /// are delivered as one RecordBatch viewing `scratch`. The workhorse
  /// behind scan_day_batches and the parallel day aggregators — blocks are
  /// self-contained, so any subset decodes in any order. `record_count` is
  /// the frame header's count (cross-checked against the zone map; pass
  /// kAnyRecordCount when unknown). A lying zone map delivers its rows and
  /// flags kCorrupt; an empty post-filter block invokes no sink call.
  static void scan_block_batches(std::span<const std::byte> body, std::uint32_t record_count,
                                 const ScanPredicate* predicate, ScanScratch& scratch,
                                 ScanResult& res, BatchSink fn);

  /// Convenience: materialize a day (recoverable records only).
  [[nodiscard]] std::vector<flow::FlowRecord> read_day(core::CivilDate day) const;
  /// As above, but also report how the scan went.
  [[nodiscard]] std::vector<flow::FlowRecord> read_day(core::CivilDate day,
                                                       ScanResult& status) const;

  /// Integrity-check one day / every day without modifying anything.
  [[nodiscard]] DayHealth fsck_day(core::CivilDate day) const;
  [[nodiscard]] LakeHealthReport fsck() const;

  /// Repair one day / every day: quarantine damaged regions into
  /// `quarantine/` under the lake root, drop torn tails, copy the surviving
  /// block frames, renumber and reseal them, atomically replacing the file
  /// via write-temp + fsync + rename. The pre-scan deep-verifies every
  /// block (column structure, dictionaries, zone-map truthfulness), so a
  /// lying zone map or torn column segment is quarantined even though its
  /// CRC frame is intact. A file that is not a current-version lake file
  /// is quarantined whole.
  DayHealth repair_day(core::CivilDate day);
  LakeHealthReport repair();

  /// Cut a day file back to exactly `size` bytes. Crash-recovery resume
  /// (runtime::Supervisor): the pipeline checkpoint records each day's
  /// durable length; truncating back to it erases any torn tail a
  /// half-finished post-checkpoint append left behind, because appends are
  /// strictly at the end of the file. kNotFound when the day is absent.
  core::Result<void> truncate_day(core::CivilDate day, std::uint64_t size);

  /// Delete a day file entirely (resume: the day did not exist at the
  /// checkpoint). Succeeds when already absent.
  core::Result<void> remove_day(core::CivilDate day);

  /// All days present, sorted.
  [[nodiscard]] std::vector<core::CivilDate> days() const;

  [[nodiscard]] bool has_day(core::CivilDate day) const;
  [[nodiscard]] std::uint64_t file_bytes(core::CivilDate day) const;
  /// Identity of the day's file (see file_identity); default when absent.
  [[nodiscard]] FileIdentity day_identity(core::CivilDate day) const;
  [[nodiscard]] const std::filesystem::path& root() const noexcept { return root_; }

  /// Export one day as CSV (interop path). records_delivered == rows.
  ScanResult export_csv(core::CivilDate day, const std::filesystem::path& out) const;

  [[nodiscard]] static std::string day_filename(core::CivilDate day);

  /// Where repair() moves damaged bytes; inspect after a non-clean fsck.
  [[nodiscard]] std::filesystem::path quarantine_dir() const;

  /// Swap the write-path file implementation (fault-injection tests).
  /// An empty factory resets to plain POSIX files.
  void set_file_factory(FileFactory factory) {
    file_factory_ = factory ? std::move(factory) : FileFactory{make_posix_file};
  }

  /// Pipeline the block encode over `pool`: an append hands each full
  /// block (columnar transpose → per-segment compress) to the pool and
  /// commits the frames in order, so the sealed file is byte-identical to
  /// the serial writer's — only the ingest thread's wall time changes. At
  /// most twice the pool size blocks are encoded but uncommitted; each owns
  /// one EncodeScratch slot, so that window is also the steady-state memory
  /// ceiling. nullptr restores the serial encoder. The pool must outlive
  /// the lake (or a trailing set_encode_pool(nullptr)); appends themselves
  /// stay single-caller — the pipeline parallelizes one append internally,
  /// it does not make append() reentrant.
  void set_encode_pool(core::ThreadPool* pool) noexcept { encode_pool_ = pool; }

  /// Records per compressed block.
  static constexpr std::size_t kBlockRecords = 4096;

 private:
  /// One slot of the pipelined-encode ring: the reusable per-task scratch
  /// (it survives across flushes, so the steady state allocates nothing),
  /// the encoded body, and the in-flight handle.
  struct EncodeSlot {
    EncodeScratch scratch;
    core::ByteWriter body;
    std::future<void> done;
  };

  /// Cached resume point of one day file (next sequence number, cumulative
  /// record count), so appending batch after batch to a day this lake
  /// sealed itself costs one stat instead of a whole-file reparse. Valid
  /// only while the file still stats to exactly {file_size, mtime_ns};
  /// dropped on any failed or out-of-band mutation (truncate, remove,
  /// repair), so an externally modified file falls back to the full parse.
  struct AppendCursor {
    std::uint64_t file_size = 0;
    std::int64_t mtime_ns = 0;
    std::uint32_t next_seq = 0;
    std::uint64_t cum_records = 0;
  };

  [[nodiscard]] std::filesystem::path day_path(core::CivilDate day) const;
  /// append() minus the observability envelope (span + outcome counters).
  core::Result<std::uint64_t> append_impl(core::CivilDate day,
                                          std::span<const flow::FlowRecord> records);
  ScanResult scan_day_impl(core::CivilDate day, const ScanPredicate* predicate,
                           RowSink fn) const;
  ScanResult scan_day_batches_impl(core::CivilDate day, const ScanPredicate* predicate,
                                   BatchSink fn) const;
  /// Chunk `records` into block frames plus a trailing seal, appending to
  /// `out`; blocks go through the encode pipeline when one is configured.
  void encode_day_elements(core::ByteWriter& out, std::span<const flow::FlowRecord> records,
                           std::uint32_t next_seq, std::uint64_t cum_records);

  std::filesystem::path root_;
  FileFactory file_factory_;
  core::ThreadPool* encode_pool_ = nullptr;
  std::vector<EncodeSlot> encode_slots_;
  std::map<core::CivilDate, AppendCursor> append_cursors_;
};

}  // namespace edgewatch::storage
