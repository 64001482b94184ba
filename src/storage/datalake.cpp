#include "storage/datalake.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <fstream>

#include "core/hash.hpp"
#include "core/thread_pool.hpp"
#include "obs/obs.hpp"
#include "storage/codec.hpp"

namespace edgewatch::storage {

namespace {

/// Lake-wide obs wiring, resolved lazily (DataLake has several short-lived
/// instances in tests; the metrics are process-global like the registry).
struct LakeObs {
  obs::Counter* appends;
  obs::Counter* append_failures;
  obs::Counter* append_bytes;
  obs::Counter* append_records;
  obs::SpanSite* append_span;
  obs::Counter* scan_records;
  obs::Counter* blocks_pruned;
  obs::Counter* blocks_skipped;
  obs::Counter* zone_map_lies;
  obs::Counter* segments_skipped;
  obs::Gauge* health_days;
  obs::Gauge* health_unhealthy_days;
  obs::Gauge* health_blocks_quarantined;
  obs::Gauge* health_records_lost;
  // Write-path pipeline instrumentation: blocks handed to the encode pool
  // but not yet committed, per-stage latency, and per-codec envelope bytes
  // (bytes_in is the pre-envelope stream, bytes_out what hit the file —
  // their ratio is the live compression ratio per scheme).
  obs::Gauge* encode_inflight;
  obs::SpanSite* encode_block_span;
  obs::SpanSite* fsync_span;
  std::array<obs::Counter*, 4> codec_in;
  std::array<obs::Counter*, 4> codec_out;
};

LakeObs& lake_obs() {
  static LakeObs m = [] {
    auto& reg = obs::Registry::global();
    return LakeObs{
        &reg.counter("lake_appends_total"),
        &reg.counter("lake_append_failures_total"),
        &reg.counter("lake_append_bytes_total"),
        &reg.counter("lake_append_records_total"),
        &reg.span_site("lake_append"),
        &reg.counter("lake_scan_records_total"),
        &reg.counter("lake_scan_blocks_pruned_total"),
        &reg.counter("lake_scan_blocks_skipped_total"),
        &reg.counter("lake_zone_map_lies_total"),
        &reg.counter("lake_scan_segments_skipped_total"),
        &reg.gauge("lake_health_days"),
        &reg.gauge("lake_health_unhealthy_days"),
        &reg.gauge("lake_health_blocks_quarantined"),
        &reg.gauge("lake_health_records_lost"),
        &reg.gauge("lake_encode_inflight_blocks"),
        &reg.span_site("lake_encode_block"),
        &reg.span_site("lake_append_fsync"),
        {&reg.counter("lake_codec_stored_bytes_in_total"),
         &reg.counter("lake_codec_lz_bytes_in_total"),
         &reg.counter("lake_codec_for_bytes_in_total"),
         &reg.counter("lake_codec_rle_bytes_in_total")},
        {&reg.counter("lake_codec_stored_bytes_out_total"),
         &reg.counter("lake_codec_lz_bytes_out_total"),
         &reg.counter("lake_codec_for_bytes_out_total"),
         &reg.counter("lake_codec_rle_bytes_out_total")},
    };
  }();
  return m;
}

constexpr char kMagic[4] = {'E', 'W', 'L', 'K'};
// The one file version this code reads and writes: self-contained columnar
// block bodies. Versions 1-3 (row bodies, dictionary-chained bodies) are
// rejected with kBadVersion at the header.
constexpr std::uint8_t kVersion = 4;
constexpr std::size_t kHeaderSize = 5;

// Block frame: body_len | seq | record_count | crc32c | body. The CRC
// covers the three header fields and the body, so a flipped bit anywhere —
// including in the length that frames the stream — fails validation.
constexpr std::size_t kBlockHeaderSize = 16;
// Seal: sentinel | magic | cumulative_records | cumulative_blocks | crc.
constexpr std::uint32_t kSealSentinel = 0xffffffffu;
constexpr std::uint32_t kSealMagic = 0x324c5745u;  // "EWL2"
constexpr std::size_t kSealSize = 24;

constexpr std::uint32_t kMaxBlockBody = 1u << 26;      // 64 MiB sanity bound
constexpr std::uint32_t kMaxSeqJump = 1u << 20;        // resync plausibility

std::uint32_t rd32(std::span<const std::byte> d, std::size_t pos) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::to_integer<std::uint32_t>(d[pos + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

std::uint64_t rd64(std::span<const std::byte> d, std::size_t pos) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::to_integer<std::uint64_t>(d[pos + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

/// One validated element of a day file, by reference into the raw bytes.
struct BlockRef {
  std::size_t offset = 0;  ///< Frame start.
  std::uint32_t body_len = 0;
  std::uint32_t seq = 0;
  std::uint32_t record_count = 0;
};

struct SealRef {
  std::size_t offset = 0;
  std::uint64_t cum_records = 0;
  std::uint32_t cum_blocks = 0;
};

struct BadRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Structural parse of a whole day file: every CRC-valid element, every
/// byte range that is not one, and where the valid stream ends.
struct FileModel {
  std::uint8_t version = 0;
  core::Errc errc = core::Errc::kOk;  ///< Header-level failure, if any.
  std::vector<BlockRef> blocks;       ///< Valid blocks, stream order.
  std::optional<SealRef> last_seal;
  std::vector<BadRange> bad;
  std::size_t valid_end = 0;   ///< Offset past the last valid element.
  bool ends_sealed = false;    ///< Last element is a seal at exactly EOF.
  std::size_t file_size = 0;
};

void parse_elements(std::span<const std::byte> data, FileModel& m) {
  const std::size_t size = data.size();
  std::size_t pos = kHeaderSize;
  std::uint32_t expected_seq = 0;
  bool last_was_seal = false;

  const auto try_block = [&](std::size_t p, bool resync) -> std::optional<BlockRef> {
    if (p + kBlockHeaderSize > size) return std::nullopt;
    const std::uint32_t body_len = rd32(data, p);
    if (body_len == kSealSentinel || body_len > kMaxBlockBody) return std::nullopt;
    if (p + kBlockHeaderSize + body_len > size) return std::nullopt;
    const std::uint32_t seq = rd32(data, p + 4);
    const std::uint32_t nrec = rd32(data, p + 8);
    if (resync) {
      // Cheap plausibility before paying for a CRC at every resync offset:
      // a real continuation block carries the next (or a later) sequence
      // number; stale or random bytes almost never do.
      if (seq < expected_seq || seq > expected_seq + kMaxSeqJump) return std::nullopt;
    }
    std::uint32_t crc = core::crc32c(data.subspan(p, 12));
    crc = core::crc32c(data.subspan(p + kBlockHeaderSize, body_len), crc);
    if (crc != rd32(data, p + 12)) return std::nullopt;
    return BlockRef{p, body_len, seq, nrec};
  };
  const auto try_seal = [&](std::size_t p) -> std::optional<SealRef> {
    if (p + kSealSize > size) return std::nullopt;
    if (rd32(data, p) != kSealSentinel || rd32(data, p + 4) != kSealMagic) {
      return std::nullopt;
    }
    if (core::crc32c(data.subspan(p, 20)) != rd32(data, p + 20)) return std::nullopt;
    return SealRef{p, rd64(data, p + 8), rd32(data, p + 16)};
  };

  while (pos < size) {
    if (const auto b = try_block(pos, false)) {
      m.blocks.push_back(*b);
      expected_seq = b->seq + 1;
      pos += kBlockHeaderSize + b->body_len;
      m.valid_end = pos;
      last_was_seal = false;
      continue;
    }
    if (const auto s = try_seal(pos)) {
      m.last_seal = *s;
      pos += kSealSize;
      m.valid_end = pos;
      last_was_seal = true;
      continue;
    }
    // Damaged bytes: resynchronize on the next element that proves itself
    // with a CRC (and, for blocks, a plausible sequence number).
    const std::size_t bad_begin = pos;
    ++pos;
    while (pos < size && !try_block(pos, true) && !try_seal(pos)) ++pos;
    m.bad.push_back({bad_begin, pos});
  }
  m.ends_sealed = last_was_seal && m.valid_end == size;
}

FileModel parse_file(std::span<const std::byte> data) {
  FileModel m;
  m.file_size = data.size();
  m.valid_end = std::min(data.size(), kHeaderSize);
  if (data.size() < kHeaderSize) {
    m.errc = core::Errc::kTruncated;
    return m;
  }
  if (std::memcmp(data.data(), kMagic, 4) != 0) {
    m.errc = core::Errc::kBadMagic;
    return m;
  }
  m.version = std::to_integer<std::uint8_t>(data[4]);
  if (m.version != kVersion) {
    m.errc = core::Errc::kBadVersion;
    return m;
  }
  parse_elements(data, m);
  return m;
}

/// fsck/repair pre-scan: CRC-valid frames can still hold structurally
/// damaged columnar bodies (a bit-flip that was re-CRC'd, a writer bug, a
/// deliberately patched zone map). Decode every block fully — including the
/// zone-map truthfulness cross-check — and demote failures to damaged
/// ranges so repair quarantines them. Blocks are self-contained, so each
/// verdict concerns its own block only.
void deep_verify(std::span<const std::byte> data, FileModel& m) {
  ColumnScratch scratch;
  exec::RecordBatch probe;
  std::vector<BlockRef> good;
  good.reserve(m.blocks.size());
  for (const BlockRef& b : m.blocks) {
    const auto body = data.subspan(b.offset + kBlockHeaderSize, b.body_len);
    // Full-projection batch decode: every column is structurally checked,
    // no FlowRecord is ever built.
    if (decode_columnar_batch(body, scratch, nullptr, probe, b.record_count) ==
        BlockDecodeStatus::kOk) {
      good.push_back(b);
    } else {
      m.bad.push_back({b.offset, b.offset + kBlockHeaderSize + b.body_len});
    }
  }
  m.blocks = std::move(good);
}

std::optional<std::vector<std::byte>> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::byte> data(size);
  in.seekg(0);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(size))) {
    return std::nullopt;
  }
  return data;
}

void put_block_frame(core::ByteWriter& out, std::uint32_t seq, std::uint32_t record_count,
                     std::span<const std::byte> compressed) {
  core::ByteWriter header;
  header.u32le(static_cast<std::uint32_t>(compressed.size()));
  header.u32le(seq);
  header.u32le(record_count);
  std::uint32_t crc = core::crc32c(header.view());
  crc = core::crc32c(compressed, crc);
  out.bytes(header.view());
  out.u32le(crc);
  out.bytes(compressed);
}

void put_seal(core::ByteWriter& out, std::uint64_t cum_records, std::uint32_t cum_blocks) {
  core::ByteWriter seal;
  seal.u32le(kSealSentinel);
  seal.u32le(kSealMagic);
  seal.u64le(cum_records);
  seal.u32le(cum_blocks);
  out.bytes(seal.view());
  out.u32le(core::crc32c(seal.view()));
}

/// DayHealth as found on disk (shared by fsck and the repair pre-scan).
DayHealth assess(const FileModel& m, core::CivilDate day) {
  DayHealth h;
  h.day = day;
  h.version = m.version;
  if (m.errc != core::Errc::kOk) {
    h.errc = m.errc;
    h.torn_tail = m.errc == core::Errc::kTruncated;
    return h;
  }
  h.blocks_ok = m.blocks.size();
  for (const auto& b : m.blocks) h.records_ok += b.record_count;
  h.blocks_quarantined = static_cast<std::uint32_t>(m.bad.size());
  for (const auto& r : m.bad) h.bytes_quarantined += r.end - r.begin;
  h.sealed = m.ends_sealed;
  h.torn_tail = !m.ends_sealed;
  if (m.last_seal) {
    // The seal is a durability receipt: cum_records were acknowledged as
    // stored. Valid blocks before the seal account for part of them; the
    // difference is the exact number of sealed records now unreadable.
    std::uint64_t recovered_sealed = 0;
    for (const auto& b : m.blocks) {
      if (b.seq < m.last_seal->cum_blocks) recovered_sealed += b.record_count;
    }
    h.records_lost = m.last_seal->cum_records > recovered_sealed
                         ? m.last_seal->cum_records - recovered_sealed
                         : 0;
  }
  if (!m.bad.empty()) {
    h.errc = core::Errc::kCorrupt;
  } else if (!m.ends_sealed) {
    h.errc = core::Errc::kTruncated;
  }
  return h;
}

}  // namespace

FileIdentity file_identity(const std::filesystem::path& path) {
  FileIdentity id;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return id;
  id.size = size;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (!ec) {
    id.mtime_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      mtime.time_since_epoch())
                      .count();
  }
  // A clean file ends in a seal; its cumulative block count is the
  // logical "version" of the day's contents (appends bump it, byte-level
  // damage invalidates its CRC). Read just the trailing kSealSize bytes.
  if (size >= kHeaderSize + kSealSize) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::array<std::byte, kSealSize> tail{};
      in.seekg(static_cast<std::streamoff>(size - kSealSize));
      if (in.read(reinterpret_cast<char*>(tail.data()), kSealSize)) {
        const std::span<const std::byte> t{tail};
        if (rd32(t, 0) == kSealSentinel && rd32(t, 4) == kSealMagic &&
            core::crc32c(t.subspan(0, 20)) == rd32(t, 20)) {
          id.seal_seq = rd32(t, 16);
        }
      }
    }
  }
  return id;
}

DataLake::DataLake(std::filesystem::path root)
    : root_(std::move(root)), file_factory_(make_posix_file) {
  std::filesystem::create_directories(root_);
}

std::string DataLake::day_filename(core::CivilDate day) {
  return "flows_" + day.to_string() + ".ewl";
}

std::filesystem::path DataLake::day_path(core::CivilDate day) const {
  return root_ / day_filename(day);
}

std::filesystem::path DataLake::quarantine_dir() const { return root_ / "quarantine"; }

void DataLake::encode_day_elements(core::ByteWriter& out,
                                   std::span<const flow::FlowRecord> records,
                                   std::uint32_t next_seq, std::uint64_t cum_records) {
  auto& m = lake_obs();
  const auto& catalog = services::ServiceCatalog::standard();
  const std::size_t nblocks = (records.size() + kBlockRecords - 1) / kBlockRecords;
  const auto chunk_of = [&](std::size_t i) {
    const std::size_t first = i * kBlockRecords;
    return records.subspan(first, std::min(kBlockRecords, records.size() - first));
  };

  // Columnar bodies carry per-segment compression envelopes already; the
  // frame wraps them uncompressed so zone maps stay peekable.
  //
  // With an encode pool, blocks are encoded out-of-line in a bounded ring
  // and their frames committed strictly in order. Byte identity with the
  // serial writer holds by construction: each block's encode is a pure
  // function of its own records, and both the frame stream and the
  // sequence numbers are produced by this thread in chunk order.
  const bool pooled = encode_pool_ != nullptr && nblocks > 1;
  const std::size_t window =
      pooled ? std::clamp<std::size_t>(2 * encode_pool_->size(), 1, nblocks) : 1;
  if (encode_slots_.size() < window) encode_slots_.resize(window);

  const auto encode_into = [&](EncodeSlot& slot, std::size_t i) {
    obs::Span span(*m.encode_block_span);
    slot.body.clear();
    encode_columnar_block(chunk_of(i), catalog, slot.body, slot.scratch);
  };
  std::size_t committed = 0;
  const auto commit_through = [&](std::size_t upto) {
    for (; committed < upto; ++committed) {
      EncodeSlot& slot = encode_slots_[committed % window];
      if (slot.done.valid()) {
        slot.done.get();
        if constexpr (obs::kEnabled) m.encode_inflight->add(-1);
      }
      const auto n = static_cast<std::uint32_t>(chunk_of(committed).size());
      put_block_frame(out, next_seq++, n, slot.body.view());
      cum_records += n;
      if constexpr (obs::kEnabled) {
        for (std::size_t k = 0; k < 4; ++k) {
          if (slot.scratch.codec_bytes_in[k] != 0) {
            m.codec_in[k]->add(slot.scratch.codec_bytes_in[k]);
          }
          if (slot.scratch.codec_bytes_out[k] != 0) {
            m.codec_out[k]->add(slot.scratch.codec_bytes_out[k]);
          }
        }
      }
      slot.scratch.codec_bytes_in.fill(0);
      slot.scratch.codec_bytes_out.fill(0);
    }
  };
  try {
    for (std::size_t i = 0; i < nblocks; ++i) {
      if (i >= window) commit_through(i - window + 1);
      EncodeSlot& slot = encode_slots_[i % window];
      if (pooled) {
        if constexpr (obs::kEnabled) m.encode_inflight->add(1);
        slot.done = encode_pool_->submit([&encode_into, &slot, i] { encode_into(slot, i); });
      } else {
        encode_into(slot, i);
      }
    }
    commit_through(nblocks);
  } catch (...) {
    // A failed submit (pool shutdown) or a throwing encode (bad_alloc)
    // must not unwind past tasks still referencing this frame's locals.
    for (auto& slot : encode_slots_) {
      if (!slot.done.valid()) continue;
      try {
        slot.done.get();
      } catch (...) {  // NOLINT(bugprone-empty-catch): first error wins
      }
      if constexpr (obs::kEnabled) m.encode_inflight->add(-1);
    }
    throw;
  }
  put_seal(out, cum_records, next_seq);
}

core::Result<std::uint64_t> DataLake::append(core::CivilDate day,
                                             std::span<const flow::FlowRecord> records) {
  if (records.empty()) return std::uint64_t{0};
  auto& m = lake_obs();
  obs::Span span(*m.append_span);  // whole read-modify-write-fsync cycle
  auto result = append_impl(day, records);
  m.appends->add(1);
  if (result) {
    m.append_bytes->add(*result);
    m.append_records->add(records.size());
  } else {
    m.append_failures->add(1);
  }
  return result;
}

namespace {

/// size + mtime of a path, or nullopt when unreadable. The light stat the
/// append cursor cache validates against (file_identity() additionally
/// reads the trailing seal, which would defeat the point here).
std::optional<std::pair<std::uint64_t, std::int64_t>> stat_size_mtime(
    const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return std::nullopt;
  return std::make_pair(
      size,
      std::chrono::duration_cast<std::chrono::nanoseconds>(mtime.time_since_epoch()).count());
}

}  // namespace

core::Result<std::uint64_t> DataLake::append_impl(core::CivilDate day,
                                                  std::span<const flow::FlowRecord> records) {
  const auto path = day_path(day);

  // Find the resume point: end of the last valid element, dropping any
  // torn tail a previous crash left behind. The cursor cache short-cuts
  // the common case — appending batch after batch to a day this process
  // sealed itself — from a whole-file reparse to one stat.
  std::uint64_t start = 0;
  std::uint32_t next_seq = 0;
  std::uint64_t cum_records = 0;
  bool fresh = true;
  bool from_cache = false;
  if (const auto it = append_cursors_.find(day); it != append_cursors_.end()) {
    const auto st = stat_size_mtime(path);
    if (st && st->first == it->second.file_size && st->second == it->second.mtime_ns) {
      fresh = false;
      from_cache = true;
      start = it->second.file_size;  // a cached day ends sealed at EOF
      next_seq = it->second.next_seq;
      cum_records = it->second.cum_records;
    } else {
      append_cursors_.erase(it);  // rewritten behind our back: reparse
    }
  }
  if (!from_cache && std::filesystem::exists(path)) {
    const auto existing = read_file(path);
    if (!existing) return core::Errc::kIoError;
    if (!existing->empty()) {
      const FileModel m = parse_file(*existing);
      if (m.errc == core::Errc::kBadMagic || m.errc == core::Errc::kBadVersion) {
        return m.errc;  // not ours to overwrite
      }
      if (m.errc == core::Errc::kOk) {
        fresh = false;
        start = m.valid_end;
        if (!m.blocks.empty()) next_seq = m.blocks.back().seq + 1;
        for (const auto& b : m.blocks) cum_records += b.record_count;
      }
      // A header-less stub (kTruncated) cannot hold records: rewrite it.
    }
  }

  core::ByteWriter out;
  if (fresh) {
    for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
    out.u8(kVersion);
  }
  const std::size_t nblocks = (records.size() + kBlockRecords - 1) / kBlockRecords;
  encode_day_elements(out, records, next_seq, cum_records);

  auto file = file_factory_();
  if (auto r = file->open_at(path, start); !r) return r.error();
  const auto rollback = [&](core::Errc err) -> core::Result<std::uint64_t> {
    // Survivable failure: make the append atomic by restoring the old
    // length. After a (simulated) crash the truncate fails too and the
    // torn tail stays for fsck/repair to find.
    append_cursors_.erase(day);
    (void)file->truncate(start);
    (void)file->sync();
    (void)file->close();
    if (start == 0 && err != core::Errc::kCrashed) {
      // This append created the file; atomic means the day stays absent.
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
    return err;
  };
  if (auto r = file->write(out.view()); !r) return rollback(r.error());
  {
    obs::Span span(*lake_obs().fsync_span);
    if (auto r = file->sync(); !r) return rollback(r.error());
  }
  if (auto r = file->close(); !r) {
    append_cursors_.erase(day);
    return r.error();
  }
  // The file now provably ends in a seal at exactly start + out.size();
  // remember the cursor the next append would otherwise re-derive from a
  // full parse. Keyed to the post-append stat so any out-of-band change
  // invalidates it.
  if (const auto st = stat_size_mtime(path); st && st->first == start + out.size()) {
    append_cursors_[day] = AppendCursor{start + out.size(), st->second,
                                        next_seq + static_cast<std::uint32_t>(nblocks),
                                        cum_records + records.size()};
  } else {
    append_cursors_.erase(day);
  }
  return static_cast<std::uint64_t>(out.size());
}

namespace {

/// The one per-block scan: zone-map pruning, atomic decode, skip and
/// zone-lie accounting. `native` says the sink consumes the batch as such
/// (counted as dictionary pass-through rows); read_day's row replay counts
/// its own materialized rows instead.
void scan_block_impl(std::span<const std::byte> body, std::uint32_t record_count,
                     const ScanPredicate* predicate, ScanScratch& scratch, ScanResult& res,
                     DataLake::BatchSink fn, bool native) {
  auto& m = lake_obs();
  const auto skip_corrupt = [&] {
    ++res.blocks_skipped;
    m.blocks_skipped->add(1);
    res.errc = core::Errc::kCorrupt;
  };
  if (predicate != nullptr && !predicate->unrestricted()) {
    const auto zone = peek_zone_map(body);
    if (!zone || (record_count != kAnyRecordCount && zone->record_count != record_count)) {
      skip_corrupt();
      return;
    }
    if (!predicate->admits(*zone)) {
      // Zone-map proof of absence: skip the block without touching a
      // single column segment. This is the selective-scan fast path.
      ++res.blocks_pruned;
      m.blocks_pruned->add(1);
      return;
    }
  }
  exec::RecordBatch batch;
  const auto status = decode_columnar_batch(body, scratch, predicate, batch, record_count);
  if (status == BlockDecodeStatus::kCorrupt) {
    skip_corrupt();
    return;
  }
  const std::uint32_t fields = predicate != nullptr ? predicate->fields : scan_fields::kAll;
  if (fields != scan_fields::kAll) {
    m.segments_skipped->add(kColumnSegmentCount - segments_for_fields(fields));
  }
  if (status == BlockDecodeStatus::kZoneMapLied) {
    // Records are delivered in full, but the block's skip index is
    // untrustworthy: surface corruption so fsck/repair quarantines it.
    m.zone_map_lies->add(1);
    res.errc = core::Errc::kCorrupt;
  }
  if (!batch.empty()) {
    const auto delivered = static_cast<std::uint64_t>(batch.delivered_rows());
    res.records_delivered += delivered;
    m.scan_records->add(delivered);
    if (native) exec::note_batch_delivered(batch);
    fn(batch);
  }
}

/// The one day walk: read and index the file, scan every CRC-valid block
/// in file order, then fold the damaged ranges and the file's own status
/// (kCorrupt when damage was stepped over, kTruncated for an unsealed
/// tail) into the result. Corruption found in a block body dominates.
ScanResult scan_day_walk(const std::filesystem::path& path, const ScanPredicate* predicate,
                         ScanScratch& scratch, DataLake::BatchSink fn, bool native) {
  ScanResult res;
  if (!std::filesystem::exists(path)) {
    res.errc = core::Errc::kNotFound;
    return res;
  }
  const auto data = read_file(path);
  if (!data) {
    res.errc = core::Errc::kIoError;
    return res;
  }
  const FileModel m = parse_file(*data);
  if (m.errc != core::Errc::kOk) {
    res.errc = m.errc;
    return res;
  }
  const std::span<const std::byte> bytes{*data};
  for (const BlockRef& b : m.blocks) {
    scan_block_impl(bytes.subspan(b.offset + kBlockHeaderSize, b.body_len), b.record_count,
                    predicate, scratch, res, fn, native);
  }
  res.blocks_skipped += static_cast<std::uint32_t>(m.bad.size());
  const core::Errc baseline = !m.bad.empty()    ? core::Errc::kCorrupt
                              : !m.ends_sealed ? core::Errc::kTruncated
                                               : core::Errc::kOk;
  if (res.errc == core::Errc::kOk || baseline == core::Errc::kCorrupt) res.errc = baseline;
  return res;
}

}  // namespace

ScanResult DataLake::scan_day_batches_impl(core::CivilDate day, const ScanPredicate* predicate,
                                           ScanScratch& scratch, BatchSink fn) const {
  return scan_day_walk(day_path(day), predicate, scratch, fn, /*native=*/true);
}

std::vector<flow::FlowRecord> DataLake::read_day(core::CivilDate day) const {
  ScanResult ignored;
  return read_day(day, ignored);
}

std::vector<flow::FlowRecord> DataLake::read_day(core::CivilDate day,
                                                 ScanResult& status) const {
  std::vector<flow::FlowRecord> out;
  flow::FlowRecord rec;
  std::uint64_t materialized = 0;
  const auto keep = [&out](const flow::FlowRecord& r) { out.push_back(r); };
  const auto rows = [&](const exec::RecordBatch& batch) {
    exec::materialize_rows(batch, rec, keep, materialized);
  };
  ScanScratch scratch;
  status = scan_day_walk(day_path(day), nullptr, scratch, BatchSink{rows}, /*native=*/false);
  return out;
}

DayHealth DataLake::fsck_day(core::CivilDate day) const {
  const auto path = day_path(day);
  if (!std::filesystem::exists(path)) {
    DayHealth h;
    h.day = day;
    h.errc = core::Errc::kNotFound;
    return h;
  }
  const auto data = read_file(path);
  if (!data) {
    DayHealth h;
    h.day = day;
    h.errc = core::Errc::kIoError;
    return h;
  }
  FileModel m = parse_file(*data);
  if (m.errc == core::Errc::kOk) deep_verify(*data, m);
  DayHealth h = assess(m, day);
  h.identity = file_identity(path);
  return h;
}

LakeHealthReport DataLake::fsck() const {
  LakeHealthReport report;
  for (const auto day : days()) report.days.push_back(fsck_day(day));
  // Surface the health tallies as gauges: one scrape shows lake integrity
  // next to capture quality without re-running fsck.
  auto& m = lake_obs();
  std::int64_t unhealthy = 0;
  for (const auto& d : report.days) unhealthy += d.healthy() ? 0 : 1;
  m.health_days->set(static_cast<std::int64_t>(report.days.size()));
  m.health_unhealthy_days->set(unhealthy);
  m.health_blocks_quarantined->set(report.total_blocks_quarantined());
  m.health_records_lost->set(static_cast<std::int64_t>(report.total_records_lost()));
  return report;
}



LakeHealthReport DataLake::repair() {
  LakeHealthReport report;
  for (const auto day : days()) report.days.push_back(repair_day(day));
  return report;
}

core::Result<void> DataLake::truncate_day(core::CivilDate day, std::uint64_t size) {
  const auto path = day_path(day);
  append_cursors_.erase(day);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return core::Errc::kNotFound;
  std::filesystem::resize_file(path, size, ec);
  if (ec) return core::Errc::kIoError;
  return {};
}

core::Result<void> DataLake::remove_day(core::CivilDate day) {
  append_cursors_.erase(day);
  std::error_code ec;
  std::filesystem::remove(day_path(day), ec);
  if (ec) return core::Errc::kIoError;
  return {};
}

DayHealth DataLake::repair_day(core::CivilDate day) {
  const auto path = day_path(day);
  append_cursors_.erase(day);
  if (!std::filesystem::exists(path)) {
    DayHealth h;
    h.day = day;
    h.errc = core::Errc::kNotFound;
    return h;
  }
  const auto data = read_file(path);
  if (!data) {
    DayHealth h;
    h.day = day;
    h.errc = core::Errc::kIoError;
    return h;
  }
  FileModel m = parse_file(*data);
  if (m.errc == core::Errc::kOk) deep_verify(*data, m);
  DayHealth h = assess(m, day);

  std::error_code ec;
  if (m.errc == core::Errc::kBadMagic || m.errc == core::Errc::kBadVersion ||
      m.errc == core::Errc::kTruncated) {
    // Not a parseable lake file at all: quarantine it wholesale so the
    // day reads as absent rather than corrupt.
    std::filesystem::create_directories(quarantine_dir(), ec);
    std::filesystem::rename(path, quarantine_dir() / (day_filename(day) + ".file.bad"), ec);
    if (ec) {
      h.errc = core::Errc::kIoError;
      return h;
    }
    h.repaired = true;
    h.blocks_quarantined = 1;
    h.bytes_quarantined = data->size();
    return h;
  }
  if (h.healthy()) return h;  // nothing to do

  // Rebuild: the surviving block frames, bodies copied verbatim (every
  // block is self-contained), renumbered and resealed. The new file is
  // written next to the old one and swapped in by rename, so a failure at
  // any point leaves the original untouched.
  core::ByteWriter out;
  for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u8(kVersion);
  std::uint32_t new_seq = 0;
  std::uint64_t cum_records = 0;
  for (const BlockRef& b : m.blocks) {
    put_block_frame(out, new_seq++, b.record_count,
                    std::span<const std::byte>{*data}.subspan(b.offset + kBlockHeaderSize,
                                                              b.body_len));
    cum_records += b.record_count;
  }
  put_seal(out, cum_records, new_seq);

  const auto temp = path.string() + ".repair.tmp";
  auto file = file_factory_();
  const auto fail = [&](core::Errc err) {
    std::error_code rm_ec;
    std::filesystem::remove(temp, rm_ec);
    h.errc = err;
    return h;
  };
  if (auto r = file->open_at(temp, 0); !r) return fail(r.error());
  if (auto r = file->write(out.view()); !r) {
    (void)file->close();
    return fail(r.error());
  }
  if (auto r = file->sync(); !r) {
    (void)file->close();
    return fail(r.error());
  }
  if (auto r = file->close(); !r) return fail(r.error());

  // Preserve the damaged bytes for offline forensics before the rename
  // makes them unreachable.
  if (!m.bad.empty()) {
    std::filesystem::create_directories(quarantine_dir(), ec);
    std::size_t index = 0;
    for (const auto& range : m.bad) {
      const auto qpath =
          quarantine_dir() / (day_filename(day) + "." + std::to_string(index++) + ".bad");
      std::ofstream q(qpath, std::ios::binary | std::ios::trunc);
      q.write(reinterpret_cast<const char*>(data->data() + range.begin),
              static_cast<std::streamsize>(range.end - range.begin));
    }
  }

  std::filesystem::rename(temp, path, ec);
  if (ec) return fail(core::Errc::kIoError);
  h.repaired = true;
  h.sealed = true;
  h.torn_tail = false;
  h.errc = core::Errc::kOk;
  return h;
}

std::vector<core::CivilDate> DataLake::days() const {
  std::vector<core::CivilDate> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root_, ec)) {
    const auto name = entry.path().filename().string();
    // flows_YYYY-MM-DD.ewl
    if (name.size() == 6 + 10 + 4 && name.starts_with("flows_") && name.ends_with(".ewl")) {
      if (auto date = core::CivilDate::parse(name.substr(6, 10))) out.push_back(*date);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool DataLake::has_day(core::CivilDate day) const {
  return std::filesystem::exists(day_path(day));
}

std::uint64_t DataLake::file_bytes(core::CivilDate day) const {
  std::error_code ec;
  const auto size = std::filesystem::file_size(day_path(day), ec);
  return ec ? 0 : size;
}

FileIdentity DataLake::day_identity(core::CivilDate day) const {
  return file_identity(day_path(day));
}

}  // namespace edgewatch::storage
