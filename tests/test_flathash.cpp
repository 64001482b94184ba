// core::FlatHashMap: randomized op-parity against std::unordered_map as
// the oracle (the container it replaced on the probe hot path), plus the
// open-addressing specifics the oracle cannot express: tombstone reuse,
// rehash under load-factor pressure, and heterogeneous string_view lookup.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/flat_hash_map.hpp"
#include "core/hash.hpp"
#include "core/string_pool.hpp"
#include "core/types.hpp"

namespace ew = edgewatch;
using ew::core::FlatHashMap;

TEST(FlatHashMap, BasicInsertFindErase) {
  FlatHashMap<int, std::string> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), map.end());

  auto [it, inserted] = map.try_emplace(1, "one");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 1);
  EXPECT_EQ(it->second, "one");
  EXPECT_FALSE(map.try_emplace(1, "uno").second);  // no overwrite
  EXPECT_EQ(map.at(1), "one");

  map[2] = "two";
  map[1] = "ONE";  // operator[] does overwrite
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(1), "ONE");

  EXPECT_EQ(map.erase(3), 0u);
  EXPECT_EQ(map.erase(1), 1u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_FALSE(map.contains(1));
  EXPECT_TRUE(map.contains(2));
  EXPECT_THROW((void)map.at(1), std::out_of_range);
}

TEST(FlatHashMap, RandomizedOracleParity) {
  // Small key space so insert/find/erase all hit live keys, tombstones, and
  // re-inserted keys constantly; a few hundred thousand ops cross several
  // rehash boundaries.
  std::mt19937_64 rng{20260806};
  FlatHashMap<std::uint32_t, std::uint64_t> map;
  std::unordered_map<std::uint32_t, std::uint64_t> oracle;

  for (int op = 0; op < 300'000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng() % 4096);
    switch (rng() % 5) {
      case 0:
      case 1: {  // insert-or-assign
        const std::uint64_t v = rng();
        map[key] = v;
        oracle[key] = v;
        break;
      }
      case 2: {  // try_emplace (no overwrite)
        const std::uint64_t v = rng();
        map.try_emplace(key, v);
        oracle.try_emplace(key, v);
        break;
      }
      case 3: {  // erase
        EXPECT_EQ(map.erase(key), oracle.erase(key));
        break;
      }
      default: {  // lookup
        const auto it = map.find(key);
        const auto oit = oracle.find(key);
        ASSERT_EQ(it == map.end(), oit == oracle.end());
        if (oit != oracle.end()) { ASSERT_EQ(it->second, oit->second); }
        break;
      }
    }
    ASSERT_EQ(map.size(), oracle.size());
  }

  // Full-content sweep both ways.
  for (const auto& [k, v] : oracle) {
    const auto it = map.find(k);
    ASSERT_NE(it, map.end());
    ASSERT_EQ(it->second, v);
  }
  std::size_t seen = 0;
  for (const auto& [k, v] : map) {
    const auto oit = oracle.find(k);
    ASSERT_NE(oit, oracle.end());
    ASSERT_EQ(oit->second, v);
    ++seen;
  }
  EXPECT_EQ(seen, oracle.size());
}

TEST(FlatHashMap, FiveTupleKeysChurn) {
  // The exact workload of flow::FlowTable: five-tuple keys with insert on
  // first packet, lookup per packet, erase on export.
  std::mt19937_64 rng{7};
  auto random_tuple = [&rng] {
    ew::core::FiveTuple t;
    t.src_ip = ew::core::IPv4Address{static_cast<std::uint32_t>(rng() % 512)};
    t.dst_ip = ew::core::IPv4Address{static_cast<std::uint32_t>(rng() % 512)};
    t.src_port = static_cast<std::uint16_t>(rng() % 64);
    t.dst_port = static_cast<std::uint16_t>(rng() % 64);
    t.proto = (rng() % 2) ? ew::core::TransportProto::kTcp : ew::core::TransportProto::kUdp;
    return t;
  };

  FlatHashMap<ew::core::FiveTuple, std::uint64_t, ew::core::FiveTupleHash> map;
  std::unordered_map<ew::core::FiveTuple, std::uint64_t, ew::core::FiveTupleHash> oracle;
  for (int op = 0; op < 200'000; ++op) {
    const auto key = random_tuple();
    switch (rng() % 4) {
      case 0:
      case 1:
        ++map[key];
        ++oracle[key];
        break;
      case 2:
        ASSERT_EQ(map.erase(key), oracle.erase(key));
        break;
      default: {
        const auto it = map.find(key);
        const auto oit = oracle.find(key);
        ASSERT_EQ(it == map.end(), oit == oracle.end());
        if (oit != oracle.end()) { ASSERT_EQ(it->second, oit->second); }
      }
    }
  }
  ASSERT_EQ(map.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    const auto it = map.find(k);
    ASSERT_NE(it, map.end());
    ASSERT_EQ(it->second, v);
  }
}

TEST(FlatHashMap, TombstoneReuseKeepsCapacityBounded) {
  // Deleting and re-inserting the same keys forever must not grow the
  // table: tombstones are reused by later inserts (or purged by an
  // in-place rehash), so capacity stays at the steady-state size.
  FlatHashMap<int, int> map;
  for (int i = 0; i < 100; ++i) map[i] = i;
  const std::size_t cap = map.capacity();
  for (int round = 0; round < 10'000; ++round) {
    const int k = round % 100;
    ASSERT_EQ(map.erase(k), 1u);
    map[k] = -k;
  }
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.capacity(), cap);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(map.at(i), -i);
}

TEST(FlatHashMap, RehashUnderLoadPressure) {
  // Fill past several growth boundaries and verify every element survives
  // each rehash; then clear and refill to check the table is reusable.
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    map[i * 2654435761u] = i;
    ASSERT_EQ(map.size(), i + 1);
  }
  EXPECT_GE(map.capacity(), map.size());
  EXPECT_LE(map.size(), map.capacity() - map.capacity() / 8);  // ≤ 7/8 load
  for (std::uint64_t i = 0; i < 10'000; ++i) ASSERT_EQ(map.at(i * 2654435761u), i);

  map.clear();
  EXPECT_TRUE(map.empty());
  map[42] = 7;
  EXPECT_EQ(map.at(42), 7u);
}

TEST(FlatHashMap, ReserveAvoidsRehash) {
  FlatHashMap<int, int> map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  for (int i = 0; i < 1000; ++i) map[i] = i;
  EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatHashMap, HeterogeneousStringViewLookup) {
  FlatHashMap<std::string, int, ew::core::StringHash> map;
  map.try_emplace("www.facebook.com", 1);
  map.try_emplace("netflix.com", 2);

  // find/contains/at with a string_view: no std::string temporary.
  const std::string_view probe{"netflix.com"};
  const auto it = map.find(probe);
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->second, 2);
  EXPECT_TRUE(map.contains(std::string_view{"www.facebook.com"}));
  EXPECT_FALSE(map.contains(std::string_view{"example.org"}));
  EXPECT_EQ(map.at(probe), 2);

  // try_emplace with a string_view key constructs the std::string only on
  // actual insertion.
  auto [it2, inserted] = map.try_emplace(std::string_view{"twitter.com"}, 3);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.at(std::string_view{"twitter.com"}), 3);
}

TEST(FlatHashMap, IterationOrderIndependentMerge) {
  // Merging two maps must give identical contents regardless of which
  // iteration order the inputs present.
  std::mt19937_64 rng{99};
  std::vector<std::pair<std::uint32_t, std::uint64_t>> items;
  for (int i = 0; i < 2000; ++i) {
    items.emplace_back(static_cast<std::uint32_t>(rng() % 1500), rng() % 1000);
  }

  auto merge_all = [&](bool shuffled) {
    auto copy = items;
    if (shuffled) std::shuffle(copy.begin(), copy.end(), rng);
    FlatHashMap<std::uint32_t, std::uint64_t> a, b;
    for (std::size_t i = 0; i < copy.size(); ++i) {
      (i % 2 ? a : b)[copy[i].first] += copy[i].second;
    }
    for (const auto& [k, v] : b) a[k] += v;
    return a;
  };

  // Single-map accumulation is the ground truth.
  FlatHashMap<std::uint32_t, std::uint64_t> truth;
  for (const auto& [k, v] : items) truth[k] += v;

  const auto merged = merge_all(false);
  EXPECT_EQ(merged, truth);
  // Shuffling redistributes items across the two partial maps; the merged
  // sum per key is unchanged.
  const auto merged_shuffled = merge_all(true);
  EXPECT_EQ(merged_shuffled, truth);
}

TEST(FlatHashMap, EraseViaIteratorDuringScan) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 500; ++i) map[i] = i;
  // Erase all odd values through the returned-next-iterator protocol.
  for (auto it = map.begin(); it != map.end();) {
    if (it->first % 2 == 1) {
      it = map.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(map.size(), 250u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(map.contains(i), i % 2 == 0);
}

TEST(FlatHashMap, CopyAndMoveSemantics) {
  FlatHashMap<std::string, int, ew::core::StringHash> map;
  for (int i = 0; i < 100; ++i) map[std::to_string(i)] = i;

  FlatHashMap<std::string, int, ew::core::StringHash> copy{map};
  EXPECT_EQ(copy, map);
  copy["extra"] = 1;
  EXPECT_EQ(map.size(), 100u);  // deep copy

  FlatHashMap<std::string, int, ew::core::StringHash> moved{std::move(copy)};
  EXPECT_EQ(moved.size(), 101u);
  EXPECT_EQ(moved.at("extra"), 1);

  map = moved;  // copy-assign
  EXPECT_EQ(map, moved);
  FlatHashMap<std::string, int, ew::core::StringHash> target;
  target = std::move(moved);  // move-assign
  EXPECT_EQ(target.size(), 101u);
}

TEST(StringPool, InternDeduplicatesAndStaysStable) {
  ew::core::StringPool pool;
  const auto a = pool.intern("www.youtube.com");
  const auto b = pool.intern("www.youtube.com");
  EXPECT_EQ(a.data(), b.data());  // one stored copy
  EXPECT_EQ(pool.size(), 1u);

  // Grow the pool far past several chunk allocations; early views must
  // still read correctly (append-only arena, no reallocation of old data).
  std::vector<std::string_view> views;
  for (int i = 0; i < 50'000; ++i) {
    views.push_back(pool.intern("host-" + std::to_string(i) + ".example.com"));
  }
  EXPECT_EQ(a, "www.youtube.com");
  EXPECT_EQ(views.front(), "host-0.example.com");
  EXPECT_EQ(views.back(), "host-49999.example.com");
  EXPECT_EQ(pool.size(), 50'001u);

  // Empty strings intern to a stable non-null view.
  const auto empty = pool.intern("");
  EXPECT_TRUE(empty.empty());
  EXPECT_NE(empty.data(), nullptr);

  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.bytes(), 0u);
  const auto c = pool.intern("fresh");
  EXPECT_EQ(c, "fresh");
}
