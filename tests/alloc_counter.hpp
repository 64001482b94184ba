// Heap-allocation counter for tests that pin a hot path to zero
// allocations. Including this header replaces every form of the global
// operator new/delete with malloc-backed versions that count each
// allocation, so include it in exactly one translation unit of a test
// executable (replacement functions may not be inline), and give that
// executable its own target: the count covers the whole process.
//
//   const edgewatch::testing::AllocationScope scope;
//   run_the_hot_path();
//   EXPECT_EQ(scope.count(), 0u);
//
// malloc/free stay the sanitizers' interceptors, so the ASan build still
// checks every allocation.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace edgewatch::testing {

inline std::atomic<std::uint64_t> g_heap_allocations{0};

/// Allocations made so far through any global operator new.
[[nodiscard]] inline std::uint64_t heap_allocations() noexcept {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

/// Allocations made since construction.
class AllocationScope {
 public:
  [[nodiscard]] std::uint64_t count() const noexcept { return heap_allocations() - start_; }

 private:
  std::uint64_t start_ = heap_allocations();
};

namespace detail {
/// Throwing allocations left, on threads not exempt, before one fails.
inline std::atomic<std::uint64_t> g_fail_countdown{0};
/// Throwing allocations made on threads not exempt.
inline std::atomic<std::uint64_t> g_foreign_allocations{0};
inline thread_local bool t_fail_exempt = false;
}  // namespace detail

/// While alive, the `n`-th throwing allocation (counting from 1) made by
/// a thread other than the one that constructed it throws std::bad_alloc,
/// as an exhausted heap would; the allocations before and after it
/// succeed; n == 0 fails none. For tests of how a worker thread recovers.
class FailForeignAllocation {
 public:
  explicit FailForeignAllocation(std::uint64_t n) noexcept {
    detail::t_fail_exempt = true;
    detail::g_fail_countdown.store(n, std::memory_order_relaxed);
  }
  ~FailForeignAllocation() {
    detail::g_fail_countdown.store(0, std::memory_order_relaxed);
    detail::t_fail_exempt = false;
  }
  /// Throwing allocations other threads have made so far, the failed one
  /// included.
  [[nodiscard]] std::uint64_t foreign() const noexcept {
    return detail::g_foreign_allocations.load(std::memory_order_relaxed);
  }
  FailForeignAllocation(const FailForeignAllocation&) = delete;
  FailForeignAllocation& operator=(const FailForeignAllocation&) = delete;
};

namespace detail {
/// Whether this allocation is the one a FailForeignAllocation fails.
inline bool fail_this_allocation() noexcept {
  if (t_fail_exempt) return false;
  g_foreign_allocations.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t left = g_fail_countdown.load(std::memory_order_relaxed);
  while (left != 0 && !g_fail_countdown.compare_exchange_weak(left, left - 1,
                                                               std::memory_order_relaxed)) {
  }
  return left == 1;
}

inline void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  void* p = nullptr;
  return posix_memalign(&p, std::max(align, sizeof(void*)), size) == 0 ? p : nullptr;
}
inline void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  if (fail_this_allocation()) throw std::bad_alloc();
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace detail

}  // namespace edgewatch::testing

void* operator new(std::size_t size) {
  return edgewatch::testing::detail::counted_alloc_or_throw(size, 0);
}
void* operator new[](std::size_t size) {
  return edgewatch::testing::detail::counted_alloc_or_throw(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return edgewatch::testing::detail::counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return edgewatch::testing::detail::counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return edgewatch::testing::detail::counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return edgewatch::testing::detail::counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return edgewatch::testing::detail::counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return edgewatch::testing::detail::counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
