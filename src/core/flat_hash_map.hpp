// Open-addressing hash map for the probe's per-packet hot path.
//
// SwissTable-style layout: one control byte per slot (empty 0x80, deleted
// 0xFE, or the low 7 bits of the hash for a full slot) probed eight at a
// time with SWAR word tricks, and a separate flat slot array holding the
// key/value pairs. Compared with std::unordered_map this removes the
// per-node allocation, keeps probe chains in one or two cache lines, and
// lets lookups reject 7/8 of non-matching slots without ever touching the
// slot array.
//
// Departures from the standard map, deliberate for this codebase:
//   - iterators and references are invalidated by any insert (rehash may
//     move slots); erase never moves other elements;
//   - iteration order is arbitrary and changes across rehashes — every
//     consumer in this project either sorts (flow export by ingest_seq) or
//     merges order-independently (day aggregates, rollups);
//   - find() is heterogeneous out of the box: any key type the hasher and
//     the equality functor accept works without building a temporary Key
//     (pass a transparent hasher such as core::StringHash).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace edgewatch::core {

template <typename Key, typename T, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<>>
class FlatHashMap {
 public:
  using key_type = Key;
  using mapped_type = T;
  using value_type = std::pair<const Key, T>;
  using size_type = std::size_t;

 private:
  static constexpr std::uint8_t kEmpty = 0x80;    // 1000'0000
  static constexpr std::uint8_t kDeleted = 0xfe;  // 1111'1110 (tombstone)
  static constexpr std::size_t kGroupWidth = 8;
  static constexpr std::uint64_t kLsbs = 0x0101010101010101ull;
  static constexpr std::uint64_t kMsbs = 0x8080808080808080ull;
  static constexpr std::size_t kNpos = ~std::size_t{0};

  static constexpr bool is_full(std::uint8_t ctrl) noexcept { return (ctrl & 0x80) == 0; }

  // Slots are constructed/destroyed through the mutable pair (so rehash can
  // move the key) but exposed to users as pair<const Key, T>. The two pair
  // types are layout-identical; this is the same aliasing scheme the
  // well-known open-addressing maps use.
  union Slot {
    Slot() noexcept {}
    ~Slot() {}
    std::pair<Key, T> mutable_kv;
    value_type kv;
  };

  static std::uint64_t load_group(const std::uint8_t* p) noexcept {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
      std::uint64_t r = 0;
      for (int i = 0; i < 8; ++i) r = (r << 8) | ((v >> (8 * i)) & 0xff);
      v = r;
    }
    return v;
  }

  // Byte lanes equal to h2. May report false positives when neighbouring
  // lanes interact through the subtraction borrow; callers always confirm
  // with a key comparison, and lanes with the high bit set (empty/deleted)
  // can never report, so the slot access is safe.
  static std::uint64_t match_h2(std::uint64_t group, std::uint8_t h2) noexcept {
    const std::uint64_t x = group ^ (kLsbs * h2);
    return (x - kLsbs) & ~x & kMsbs;
  }
  // Exact per-lane masks (no carries): empty has bit7=1,bit6=0; deleted has
  // bit7=1,bit0=0; full lanes have bit7=0.
  static std::uint64_t mask_empty(std::uint64_t group) noexcept {
    return group & ~(group << 6) & kMsbs;
  }
  static std::uint64_t mask_empty_or_deleted(std::uint64_t group) noexcept {
    return group & ~(group << 7) & kMsbs;
  }
  static std::size_t lowest_lane(std::uint64_t mask) noexcept {
    return static_cast<std::size_t>(std::countr_zero(mask)) >> 3;
  }

  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    using value_type = FlatHashMap::value_type;
    using reference = std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    Iter() = default;
    // Conversion iterator -> const_iterator (a template so it can never be
    // mistaken for — and suppress — the implicit copy constructor).
    template <bool OtherConst>
      requires(Const && !OtherConst)
    Iter(const Iter<OtherConst>& other) noexcept
        : ctrl_(other.ctrl_), end_(other.end_), slot_(other.slot_) {}

    reference operator*() const noexcept { return slot_->kv; }
    pointer operator->() const noexcept { return &slot_->kv; }

    Iter& operator++() noexcept {
      ++ctrl_;
      ++slot_;
      skip_to_full();
      return *this;
    }
    Iter operator++(int) noexcept {
      Iter copy = *this;
      ++*this;
      return copy;
    }

    friend bool operator==(const Iter& a, const Iter& b) noexcept { return a.ctrl_ == b.ctrl_; }

   private:
    friend class FlatHashMap;
    friend class Iter<true>;
    Iter(const std::uint8_t* ctrl, const std::uint8_t* end, SlotPtr slot) noexcept
        : ctrl_(ctrl), end_(end), slot_(slot) {}
    void skip_to_full() noexcept {
      while (ctrl_ != end_ && !is_full(*ctrl_)) {
        ++ctrl_;
        ++slot_;
      }
    }

    const std::uint8_t* ctrl_ = nullptr;
    const std::uint8_t* end_ = nullptr;
    SlotPtr slot_ = nullptr;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatHashMap() = default;
  explicit FlatHashMap(size_type expected, Hash hash = Hash{}, Eq eq = Eq{})
      : hash_(std::move(hash)), eq_(std::move(eq)) {
    if (expected > 0) reserve(expected);
  }

  FlatHashMap(const FlatHashMap& other) : hash_(other.hash_), eq_(other.eq_) {
    reserve(other.size_);
    for (const auto& kv : other) emplace(kv.first, kv.second);
  }
  FlatHashMap(FlatHashMap&& other) noexcept
      : ctrl_(std::exchange(other.ctrl_, nullptr)),
        slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        size_(std::exchange(other.size_, 0)),
        deleted_(std::exchange(other.deleted_, 0)),
        growth_left_(std::exchange(other.growth_left_, 0)),
        hash_(std::move(other.hash_)),
        eq_(std::move(other.eq_)) {}
  FlatHashMap& operator=(const FlatHashMap& other) {
    if (this == &other) return *this;
    FlatHashMap copy{other};
    swap(copy);
    return *this;
  }
  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this == &other) return *this;
    destroy_all();
    deallocate();
    ctrl_ = std::exchange(other.ctrl_, nullptr);
    slots_ = std::exchange(other.slots_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    size_ = std::exchange(other.size_, 0);
    deleted_ = std::exchange(other.deleted_, 0);
    growth_left_ = std::exchange(other.growth_left_, 0);
    hash_ = std::move(other.hash_);
    eq_ = std::move(other.eq_);
    return *this;
  }
  ~FlatHashMap() {
    destroy_all();
    deallocate();
  }

  void swap(FlatHashMap& other) noexcept {
    std::swap(ctrl_, other.ctrl_);
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(size_, other.size_);
    std::swap(deleted_, other.deleted_);
    std::swap(growth_left_, other.growth_left_);
    std::swap(hash_, other.hash_);
    std::swap(eq_, other.eq_);
  }

  [[nodiscard]] size_type size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slot count (power of two); 0 before the first insert.
  [[nodiscard]] size_type capacity() const noexcept { return capacity_; }
  /// Live load factor over the slot array.
  [[nodiscard]] double load_factor() const noexcept {
    return capacity_ ? static_cast<double>(size_) / static_cast<double>(capacity_) : 0.0;
  }

  iterator begin() noexcept {
    iterator it{ctrl_, ctrl_ + capacity_, slots_};
    it.skip_to_full();
    return it;
  }
  const_iterator begin() const noexcept {
    const_iterator it{ctrl_, ctrl_ + capacity_, slots_};
    it.skip_to_full();
    return it;
  }
  iterator end() noexcept { return {ctrl_ + capacity_, ctrl_ + capacity_, slots_ + capacity_}; }
  const_iterator end() const noexcept {
    return {ctrl_ + capacity_, ctrl_ + capacity_, slots_ + capacity_};
  }
  const_iterator cbegin() const noexcept { return begin(); }
  const_iterator cend() const noexcept { return end(); }

  template <typename K>
  [[nodiscard]] iterator find(const K& key) noexcept {
    const std::size_t idx = find_index(key, hash_of(key));
    return idx == kNpos ? end() : iterator_at(idx);
  }
  template <typename K>
  [[nodiscard]] const_iterator find(const K& key) const noexcept {
    const std::size_t idx = find_index(key, hash_of(key));
    return idx == kNpos ? end() : const_iterator_at(idx);
  }
  /// Prefetch the control group and primary slot `key` would probe. A pure
  /// performance hint with no observable effect — useful when the caller
  /// knows a lookup is imminent and has other work to overlap with the
  /// memory fetch (the probe's pipelined frame replay).
  template <typename K>
  void prefetch(const K& key) const noexcept {
    if (capacity_ == 0) return;
    const std::uint64_t h = hash_of(key);
    const std::size_t pos = (h >> 7) & (capacity_ - 1);
    __builtin_prefetch(ctrl_ + pos);
    __builtin_prefetch(slots_ + pos);
  }

  template <typename K>
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return find_index(key, hash_of(key)) != kNpos;
  }
  template <typename K>
  [[nodiscard]] size_type count(const K& key) const noexcept {
    return contains(key) ? 1 : 0;
  }

  template <typename K>
  [[nodiscard]] T& at(const K& key) {
    const std::size_t idx = find_index(key, hash_of(key));
    if (idx == kNpos) throw std::out_of_range("FlatHashMap::at");
    return slots_[idx].kv.second;
  }
  template <typename K>
  [[nodiscard]] const T& at(const K& key) const {
    const std::size_t idx = find_index(key, hash_of(key));
    if (idx == kNpos) throw std::out_of_range("FlatHashMap::at");
    return slots_[idx].kv.second;
  }

  template <typename K, typename... Args>
  std::pair<iterator, bool> try_emplace(K&& key, Args&&... args) {
    const auto [idx, inserted] = find_or_prepare_insert(key);
    if (inserted) {
      new (&slots_[idx].mutable_kv) std::pair<Key, T>(
          std::piecewise_construct, std::forward_as_tuple(std::forward<K>(key)),
          std::forward_as_tuple(std::forward<Args>(args)...));
    }
    return {iterator_at(idx), inserted};
  }

  template <typename K, typename V>
  std::pair<iterator, bool> emplace(K&& key, V&& value) {
    const auto [idx, inserted] = find_or_prepare_insert(key);
    if (inserted) {
      new (&slots_[idx].mutable_kv) std::pair<Key, T>(
          std::piecewise_construct, std::forward_as_tuple(std::forward<K>(key)),
          std::forward_as_tuple(std::forward<V>(value)));
    }
    return {iterator_at(idx), inserted};
  }

  std::pair<iterator, bool> insert(const value_type& kv) { return emplace(kv.first, kv.second); }
  std::pair<iterator, bool> insert(std::pair<Key, T>&& kv) {
    return emplace(std::move(kv.first), std::move(kv.second));
  }
  template <typename K, typename V>
  std::pair<iterator, bool> insert_or_assign(K&& key, V&& value) {
    const auto [idx, inserted] = find_or_prepare_insert(key);
    if (inserted) {
      new (&slots_[idx].mutable_kv) std::pair<Key, T>(
          std::piecewise_construct, std::forward_as_tuple(std::forward<K>(key)),
          std::forward_as_tuple(std::forward<V>(value)));
    } else {
      slots_[idx].kv.second = std::forward<V>(value);
    }
    return {iterator_at(idx), inserted};
  }

  template <typename K>
  T& operator[](K&& key) {
    return try_emplace(std::forward<K>(key)).first->second;
  }

  iterator erase(const_iterator pos) noexcept {
    const std::size_t idx = static_cast<std::size_t>(pos.ctrl_ - ctrl_);
    erase_at(idx);
    iterator next = iterator_at(idx);
    next.skip_to_full();  // the erased slot is a tombstone now; move past it
    return next;
  }
  iterator erase(iterator pos) noexcept { return erase(const_iterator{pos}); }
  template <typename K>
  size_type erase(const K& key) noexcept {
    const std::size_t idx = find_index(key, hash_of(key));
    if (idx == kNpos) return 0;
    erase_at(idx);
    return 1;
  }

  void clear() noexcept {
    destroy_all();
    if (capacity_ != 0) {
      std::memset(ctrl_, kEmpty, capacity_ + kGroupWidth);
      growth_left_ = max_load(capacity_);
    }
    size_ = 0;
    deleted_ = 0;
  }

  /// Ensure `n` elements fit without further rehashing.
  void reserve(size_type n) {
    size_type cap = kGroupWidth * 2;
    while (max_load(cap) < n) cap <<= 1;
    if (cap > capacity_) resize(cap);
  }

  /// Order-independent equality (mirrors std::unordered_map::operator==).
  friend bool operator==(const FlatHashMap& a, const FlatHashMap& b) {
    if (a.size() != b.size()) return false;
    for (const auto& kv : a) {
      const auto it = b.find(kv.first);
      if (it == b.end() || !(it->second == kv.second)) return false;
    }
    return true;
  }

 private:
  static constexpr size_type max_load(size_type cap) noexcept { return cap - cap / 8; }

  template <typename K>
  std::uint64_t hash_of(const K& key) const noexcept {
    auto h = static_cast<std::uint64_t>(hash_(key));
    if constexpr (!requires { typename Hash::is_avalanching; }) {
      // The map splits the hash into a slot index (high bits) and a 7-bit
      // control tag (low bits), so every bit must be mixed; finalize with
      // the murmur3 avalanche unless the hasher vouches for itself.
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      h *= 0xc4ceb9fe1a85ec53ull;
      h ^= h >> 33;
    }
    return h;
  }

  iterator iterator_at(std::size_t idx) noexcept {
    return {ctrl_ + idx, ctrl_ + capacity_, slots_ + idx};
  }
  const_iterator const_iterator_at(std::size_t idx) const noexcept {
    return {ctrl_ + idx, ctrl_ + capacity_, slots_ + idx};
  }

  template <typename K>
  std::size_t find_index(const K& key, std::uint64_t h) const noexcept {
    if (capacity_ == 0) return kNpos;
    const std::size_t mask = capacity_ - 1;
    const auto h2 = static_cast<std::uint8_t>(h & 0x7f);
    std::size_t pos = (h >> 7) & mask;
    std::size_t stride = 0;
    for (;;) {
      const std::uint64_t group = load_group(ctrl_ + pos);
      std::uint64_t m = match_h2(group, h2);
      while (m != 0) {
        const std::size_t idx = (pos + lowest_lane(m)) & mask;
        if (eq_(slots_[idx].kv.first, key)) return idx;
        m &= m - 1;
      }
      if (mask_empty(group) != 0) return kNpos;
      stride += kGroupWidth;  // triangular probing: visits every group
      pos = (pos + stride) & mask;
      if (stride > capacity_) return kNpos;  // paranoia; cannot trigger
    }
  }

  std::size_t find_first_non_full(std::uint64_t h) const noexcept {
    const std::size_t mask = capacity_ - 1;
    std::size_t pos = (h >> 7) & mask;
    std::size_t stride = 0;
    for (;;) {
      const std::uint64_t group = load_group(ctrl_ + pos);
      if (const std::uint64_t m = mask_empty_or_deleted(group)) {
        return (pos + lowest_lane(m)) & mask;
      }
      stride += kGroupWidth;
      pos = (pos + stride) & mask;
    }
  }

  template <typename K>
  std::pair<std::size_t, bool> find_or_prepare_insert(const K& key) {
    const std::uint64_t h = hash_of(key);
    if (capacity_ != 0) {
      const std::size_t idx = find_index(key, h);
      if (idx != kNpos) return {idx, false};
    }
    return {prepare_insert(h), true};
  }

  std::size_t prepare_insert(std::uint64_t h) {
    if (capacity_ == 0) resize(kGroupWidth * 2);
    std::size_t target = find_first_non_full(h);
    if (growth_left_ == 0 && ctrl_[target] != kDeleted) {
      // Table too loaded for a fresh slot: purge tombstones in place when
      // mostly dead weight, otherwise double.
      resize(size_ <= capacity_ / 2 ? capacity_ : capacity_ * 2);
      target = find_first_non_full(h);
    }
    ++size_;
    if (ctrl_[target] == kDeleted) {
      --deleted_;
    } else {
      --growth_left_;
    }
    set_ctrl(target, static_cast<std::uint8_t>(h & 0x7f));
    return target;
  }

  void erase_at(std::size_t idx) noexcept {
    slots_[idx].mutable_kv.~pair();
    set_ctrl(idx, kDeleted);
    --size_;
    ++deleted_;
  }

  void set_ctrl(std::size_t idx, std::uint8_t v) noexcept {
    ctrl_[idx] = v;
    // Mirror the first group after the array so group loads never wrap.
    if (idx < kGroupWidth) ctrl_[capacity_ + idx] = v;
  }

  void resize(size_type new_cap) {
    // Both arrays are allocated before the table changes: if either
    // allocation throws, the table is left as it was.
    std::unique_ptr<std::uint8_t[]> new_ctrl{new std::uint8_t[new_cap + kGroupWidth]};
    auto* const new_slots = static_cast<Slot*>(::operator new(new_cap * sizeof(Slot),
                                                              std::align_val_t{alignof(Slot)}));
    std::uint8_t* old_ctrl = ctrl_;
    Slot* old_slots = slots_;
    const size_type old_cap = capacity_;

    ctrl_ = new_ctrl.release();
    std::memset(ctrl_, kEmpty, new_cap + kGroupWidth);
    slots_ = new_slots;
    capacity_ = new_cap;
    deleted_ = 0;
    growth_left_ = max_load(new_cap) - size_;

    for (size_type i = 0; i < old_cap; ++i) {
      if (!is_full(old_ctrl[i])) continue;
      const std::uint64_t h = hash_of(old_slots[i].kv.first);
      const std::size_t idx = find_first_non_full(h);
      set_ctrl(idx, static_cast<std::uint8_t>(h & 0x7f));
      new (&slots_[idx].mutable_kv) std::pair<Key, T>(std::move(old_slots[i].mutable_kv));
      old_slots[i].mutable_kv.~pair();
    }
    delete[] old_ctrl;
    if (old_slots != nullptr) {
      ::operator delete(old_slots, old_cap * sizeof(Slot), std::align_val_t{alignof(Slot)});
    }
  }

  void destroy_all() noexcept {
    if constexpr (!std::is_trivially_destructible_v<std::pair<Key, T>>) {
      for (size_type i = 0; i < capacity_; ++i) {
        if (is_full(ctrl_[i])) slots_[i].mutable_kv.~pair();
      }
    }
  }

  void deallocate() noexcept {
    delete[] ctrl_;
    if (slots_ != nullptr) {
      ::operator delete(slots_, capacity_ * sizeof(Slot), std::align_val_t{alignof(Slot)});
    }
    ctrl_ = nullptr;
    slots_ = nullptr;
    capacity_ = 0;
  }

  std::uint8_t* ctrl_ = nullptr;
  Slot* slots_ = nullptr;
  size_type capacity_ = 0;      ///< Power of two (or 0 before first use).
  size_type size_ = 0;          ///< Live elements.
  size_type deleted_ = 0;       ///< Tombstones.
  size_type growth_left_ = 0;   ///< Empty slots we may still fill before rehash.
  [[no_unique_address]] Hash hash_{};
  [[no_unique_address]] Eq eq_{};
};

}  // namespace edgewatch::core
