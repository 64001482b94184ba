#include "runtime/quarantine.hpp"

#include <cstring>
#include <fstream>

#include "core/bytes.hpp"
#include "core/hash.hpp"

namespace edgewatch::runtime {

namespace {
constexpr char kMagic[4] = {'E', 'W', 'Q', 'F'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kEntryHeader = 8 + 8 + 4 + 4;
}  // namespace

QuarantineLog::QuarantineLog(std::filesystem::path path, storage::FileFactory factory)
    : path_(std::move(path)), factory_(std::move(factory)) {}

QuarantineLog::~QuarantineLog() { close(); }

core::Result<void> QuarantineLog::open(std::uint64_t resume_bytes,
                                       std::uint64_t resume_entries) {
  std::scoped_lock lock(mutex_);
  file_ = factory_ ? factory_() : storage::make_posix_file();
  if (resume_bytes == 0) {
    if (auto r = file_->open_at(path_, 0); !r) return r;
    core::ByteWriter header;
    for (char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
    header.u8(kVersion);
    if (auto r = file_->write(header.view()); !r) return r;
    bytes_ = kHeaderSize;
    entries_ = 0;
  } else {
    // open_at truncates to the checkpoint-recorded size and appends there.
    if (auto r = file_->open_at(path_, resume_bytes); !r) return r;
    bytes_ = resume_bytes;
    entries_ = resume_entries;
  }
  return {};
}

core::Result<void> QuarantineLog::append(std::uint64_t seq, const net::FrameView& frame) {
  std::scoped_lock lock(mutex_);
  if (!file_) return core::Errc::kIoError;
  core::ByteWriter entry{kEntryHeader + frame.data.size()};
  entry.u64le(seq);
  entry.u64le(static_cast<std::uint64_t>(frame.timestamp.micros()));
  entry.u32le(core::crc32c(frame.data));
  entry.u32le(static_cast<std::uint32_t>(frame.data.size()));
  entry.bytes(frame.data);
  if (auto r = file_->write(entry.view()); !r) return r;
  bytes_ += entry.size();
  ++entries_;
  return {};
}

core::Result<void> QuarantineLog::sync() {
  std::scoped_lock lock(mutex_);
  if (!file_) return {};
  return file_->sync();
}

void QuarantineLog::close() {
  std::scoped_lock lock(mutex_);
  if (file_) {
    (void)file_->sync();
    (void)file_->close();
    file_.reset();
  }
}

core::Result<std::vector<QuarantineLog::Entry>> QuarantineLog::read_all(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return core::Errc::kNotFound;
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::byte> data(size);
  in.seekg(0);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(size))) {
    return core::Errc::kIoError;
  }
  if (size < kHeaderSize) return core::Errc::kTruncated;
  if (std::memcmp(data.data(), kMagic, 4) != 0) return core::Errc::kBadMagic;
  if (std::to_integer<std::uint8_t>(data[4]) != kVersion) return core::Errc::kBadVersion;

  std::vector<Entry> entries;
  core::ByteReader r{std::span<const std::byte>{data}.subspan(kHeaderSize)};
  while (r.remaining() >= kEntryHeader) {
    Entry e;
    e.seq = r.u64le();
    e.timestamp = core::Timestamp{static_cast<std::int64_t>(r.u64le())};
    const std::uint32_t crc = r.u32le();
    const std::uint32_t len = r.u32le();
    const auto body = r.bytes(len);
    if (!r.ok()) break;  // torn tail: deliver the valid prefix
    if (core::crc32c(body) != crc) break;
    e.data.assign(body.begin(), body.end());
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace edgewatch::runtime
