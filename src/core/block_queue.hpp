// Single-threaded FIFO over fixed-size blocks that are recycled, not freed.
//
// std::deque allocates a node every few hundred bytes pushed and frees one
// every few hundred bytes popped, so even a queue whose length holds steady
// keeps calling the allocator. This queue keeps the blocks its front
// empties (a few, for the back to reuse) and hands them out again, so a
// steady push/pop stream never allocates. Like a deque, and unlike a ring
// that doubles, it holds about one block more than its contents and never
// copies an element to grow.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace edgewatch::core {

template <typename T>
class BlockQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] T& front() noexcept { return blocks_.front()[head_]; }

  void push_back(T value) {
    if (blocks_.empty() || tail_ == kPerBlock) {
      if (spare_.empty()) {
        blocks_.push_back(std::make_unique<T[]>(kPerBlock));
      } else {
        blocks_.push_back(std::move(spare_.back()));
        spare_.pop_back();
      }
      tail_ = 0;
    }
    blocks_.back()[tail_++] = std::move(value);
    ++size_;
  }

  void pop_front() {
    --size_;
    if (++head_ == kPerBlock) {
      // The front block is spent. Keep a few spent blocks for the back to
      // reuse; a queue that shrank for good gives the rest back.
      if (spare_.size() < kMaxSpare) spare_.push_back(std::move(blocks_.front()));
      blocks_.erase(blocks_.begin());  // moves block pointers, not elements
      head_ = 0;
    }
  }

  /// Empties the queue, keeping at most a few blocks for reuse.
  void clear() noexcept {
    for (auto& block : blocks_) {
      if (spare_.size() == kMaxSpare) break;
      spare_.push_back(std::move(block));
    }
    blocks_.clear();
    head_ = 0;
    tail_ = 0;
    size_ = 0;
  }

  /// Reorders the queued elements by `less`.
  template <typename Less>
  void sort(Less less) {
    std::vector<T> items;
    items.reserve(size_);
    while (!empty()) {
      items.push_back(std::move(front()));
      pop_front();
    }
    std::sort(items.begin(), items.end(), less);
    for (auto& item : items) push_back(std::move(item));
  }

 private:
  /// Elements per block: about 4 KB of them.
  static constexpr std::size_t kPerBlock = std::max<std::size_t>(1, 4096 / sizeof(T));
  static constexpr std::size_t kMaxSpare = 4;

  /// Live blocks, oldest first. The front block's elements start at head_,
  /// the back block's end at tail_.
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::vector<std::unique_ptr<T[]>> spare_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

}  // namespace edgewatch::core
