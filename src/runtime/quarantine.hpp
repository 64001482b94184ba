// Poison-frame quarantine file. A frame whose processing throws is not
// dropped on the floor: the worker captures the exact bytes (plus its
// ingest sequence number and timestamp) into an append-only quarantine
// file so an operator can replay it against a debugger, and the shed
// accounting stays exact — offered = ingested + shed + quarantined.
//
// Layout: magic "EWQF" | u8 version, then per entry
//   u64le seq | u64le timestamp_micros | u32le crc32c(data) | u32le len | data
//
// The file is part of the pipeline checkpoint's consistency domain: the
// checkpoint records its byte size, and a crash-recovery resume truncates
// it back to that size before replaying (replayed frames re-quarantine
// deterministically, so the file converges to the uninterrupted run's
// content).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

#include "core/result.hpp"
#include "core/time.hpp"
#include "net/packet.hpp"
#include "storage/io.hpp"

namespace edgewatch::runtime {

class QuarantineLog {
 public:
  /// `factory` supplies the write handle (fault injection); default is the
  /// real POSIX file.
  explicit QuarantineLog(std::filesystem::path path, storage::FileFactory factory = {});
  ~QuarantineLog();

  QuarantineLog(const QuarantineLog&) = delete;
  QuarantineLog& operator=(const QuarantineLog&) = delete;

  /// Open for appending. `resume_bytes` == 0 starts a fresh file (header
  /// only); otherwise the file is cut back to exactly `resume_bytes` — the
  /// size recorded in the pipeline checkpoint — and appends continue from
  /// there. `resume_entries` restores the entry count for accounting.
  core::Result<void> open(std::uint64_t resume_bytes = 0, std::uint64_t resume_entries = 0);

  /// Append one poisoned frame (any thread; internally serialized).
  core::Result<void> append(std::uint64_t seq, const net::FrameView& frame);

  /// Flush to stable storage (called before the checkpoint that records
  /// this file's size — the checkpoint must never point past durable data).
  core::Result<void> sync();

  void close();

  /// Logical file size (header + entries appended so far).
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t entries() const noexcept { return entries_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

  struct Entry {
    std::uint64_t seq = 0;
    core::Timestamp timestamp;
    std::vector<std::byte> data;
  };
  /// Decode a quarantine file (operator tooling and tests). Stops cleanly
  /// at the first damaged or torn entry.
  [[nodiscard]] static core::Result<std::vector<Entry>> read_all(
      const std::filesystem::path& path);

  static constexpr std::size_t kHeaderSize = 5;

 private:
  std::filesystem::path path_;
  storage::FileFactory factory_;
  std::unique_ptr<storage::WritableFile> file_;
  std::mutex mutex_;
  std::uint64_t bytes_ = 0;
  std::uint64_t entries_ = 0;
};

}  // namespace edgewatch::runtime
