// A batch of frames packed into one byte arena: the unit in which the
// sharded probe hands frames to a shard worker, and in which the worker
// replays them through Probe's pipelined loop.
//
// Each frame's bytes are appended to the arena, and an entry records where
// they sit together with the frame's timestamp and its ingest seq (the
// stream position the sharded probe stamps into the flow it creates).
// clear() keeps the arena and the entry vector at their high-water sizes,
// so refilling a recycled batch is one memcpy per frame: no allocation and
// no zero-fill. Entries hold offsets, not pointers, because the arena may
// move while the batch fills.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/time.hpp"
#include "net/packet.hpp"

namespace edgewatch::probe {

class FrameBatch {
 public:
  /// Append a copy of `frame`, to be replayed under `seq`.
  void push(const net::FrameView& frame, std::uint64_t seq) {
    const std::size_t offset = used();
    const std::size_t length = frame.data.size();
    if (length > arena_.size() - offset) grow(offset + length);
    if (length != 0) std::memcpy(arena_.data() + offset, frame.data.data(), length);
    entries_.push_back({frame.timestamp, offset, length, seq});
  }

  /// Room for `frames` entries without growing the entry vector.
  void reserve(std::size_t frames) { entries_.reserve(frames); }

  /// Forget the frames; the arena and entry vector keep their sizes.
  void clear() noexcept { entries_.clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  /// Frames the batch takes before its entry vector grows. 0 for a new or
  /// moved-from batch.
  [[nodiscard]] std::size_t capacity() const noexcept { return entries_.capacity(); }

  [[nodiscard]] net::FrameView view(std::size_t i) const noexcept {
    const Entry& e = entries_[i];
    return {e.timestamp, {arena_.data() + e.offset, e.length}};
  }
  [[nodiscard]] std::uint64_t seq(std::size_t i) const noexcept { return entries_[i].seq; }

 private:
  struct Entry {
    core::Timestamp timestamp;
    std::size_t offset = 0;
    std::size_t length = 0;
    std::uint64_t seq = 0;
  };

  /// Arena bytes the frames take: they are packed in entry order.
  [[nodiscard]] std::size_t used() const noexcept {
    return entries_.empty() ? 0 : entries_.back().offset + entries_.back().length;
  }

  /// Grow the arena to at least `need` bytes. Growth is geometric, so a
  /// batch reaches its high-water size in a few steps; only those steps
  /// zero-fill. The first step takes any standard Ethernet frame (1,522 B
  /// with a VLAN tag), so a batch of one frame is sized once.
  void grow(std::size_t need) {
    std::size_t size = arena_.empty() ? 2048 : arena_.size();
    while (size < need) size *= 2;
    arena_.resize(size);
  }

  std::vector<std::byte> arena_;
  std::vector<Entry> entries_;
};

}  // namespace edgewatch::probe
