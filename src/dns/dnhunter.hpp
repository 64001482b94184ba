// DN-Hunter (Bermudez et al., IMC'12; paper §2.1): associate flows with the
// hostname the client resolved via DNS right before opening them.
//
// For every DNS response observed, we record (client, server-address) →
// queried-name. When a later flow from that client to that server address
// carries no hostname of its own (no HTTP Host:, no TLS SNI), the probe
// labels it with the cached name. Entries expire with a configurable TTL
// and the per-client table is bounded with LRU eviction, as a probe serving
// tens of thousands of subscribers cannot keep unbounded state.
//
// Storage is one slab of entries shared by every client. A single index
// maps the (client, server) pair to a slab slot, and each client's LRU list
// runs through the slab by slot number, so an entry costs one 40-byte slab
// slot and one index slot, and a steady stream of re-resolutions allocates
// nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "core/flat_hash_map.hpp"
#include "core/string_pool.hpp"
#include "core/time.hpp"
#include "core/types.hpp"
#include "dns/message.hpp"

namespace edgewatch::dns {

struct DnHunterConfig {
  std::size_t max_entries_per_client = 4096;
  std::int64_t entry_ttl_micros = 3'600 * core::Timestamp::kMicrosPerSecond;
};

class DnHunter {
 public:
  explicit DnHunter(DnHunterConfig config = {}) : config_(config) {}

  /// Ingest a parsed DNS response observed for `client`. CNAME chains are
  /// resolved: every A record in the answer maps back to the original
  /// question name (users asked for "netflix.com", not the CDN alias).
  void observe_response(core::IPv4Address client, const Message& msg, core::Timestamp now);

  /// Name the client resolved for `server`, if fresh. Refreshes LRU order.
  /// The view points into the hunter's interning pool and stays valid until
  /// clear() — no string is materialized on the per-flow hot path.
  [[nodiscard]] std::optional<std::string_view> lookup(core::IPv4Address client,
                                                       core::IPv4Address server,
                                                       core::Timestamp now);

  /// Total cached entries across clients (observability/testing).
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  /// Clients seen since the last clear(), including those whose entries
  /// have all expired.
  [[nodiscard]] std::size_t clients() const noexcept { return clients_.size(); }
  /// Slab slots allocated but not holding an entry (observability).
  [[nodiscard]] std::size_t free_slots() const noexcept { return slab_.size() - index_.size(); }

  /// Drop every entry (e.g. on probe restart). Invalidates every view the
  /// hunter ever handed out — callers must flush dependent state first.
  void clear();

  /// Copy an external string into the hunter's interning pool and return
  /// the pooled view (used when restoring checkpointed flow hints whose
  /// backing pool did not survive the crash).
  [[nodiscard]] std::string_view intern_name(std::string_view name) { return pool_.intern(name); }

  struct Counters {
    std::uint64_t responses_ingested = 0;
    std::uint64_t entries_inserted = 0;
    std::uint64_t lru_evictions = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t expired = 0;
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  // Checkpoint/restore support. Clients are visited in the client map's
  // order and entries least-recently-used first within each client, so replaying them
  // through restore_entry (a fresh insert at the LRU front) reproduces the
  // eviction order exactly.
  void for_each_entry(
      const std::function<void(core::IPv4Address client, core::IPv4Address server,
                               std::string_view name, core::Timestamp inserted)>& fn) const;
  /// Reinsert a saved entry. Touches no counters; restore them separately.
  void restore_entry(core::IPv4Address client, core::IPv4Address server, std::string_view name,
                     core::Timestamp inserted);
  void restore_counters(const Counters& counters) noexcept { counters_ = counters; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One cached resolution. `prev`/`next` link the client's LRU list
  /// (prev = more recent); a free slot chains the free list through `next`.
  struct Entry {
    core::IPv4Address client;
    core::IPv4Address server;
    std::string_view name;  ///< Interned in pool_.
    core::Timestamp inserted;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  /// A client's LRU list: head = most recent, tail = the eviction victim.
  struct ClientList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t count = 0;
  };
  /// Hash of a pair_key(); FlatHashMap's finalizer mixes its bits.
  struct PairKeyHash {
    [[nodiscard]] std::size_t operator()(std::uint64_t key) const noexcept {
      return static_cast<std::size_t>(key);
    }
  };
  /// (client, server) packed into one word.
  [[nodiscard]] static std::uint64_t pair_key(core::IPv4Address client,
                                              core::IPv4Address server) noexcept {
    return (std::uint64_t{client.value()} << 32) | server.value();
  }

  /// Insert or refresh (client, server) at the front of `list`, evicting
  /// the list's tail when it is full. Evictions count only when
  /// `count_stats` (restores touch no counters).
  void insert(ClientList& list, core::IPv4Address client, core::IPv4Address server,
              std::string_view name, core::Timestamp now, bool count_stats);
  void link_front(ClientList& list, std::uint32_t slot) noexcept;
  void unlink(ClientList& list, std::uint32_t slot) noexcept;
  /// Unlink `slot` from its client's list, drop it from the index and put
  /// it on the free list.
  void remove(ClientList& list, std::uint32_t slot);
  [[nodiscard]] std::uint32_t acquire_slot();

  DnHunterConfig config_;
  /// (client, server) → slab slot of its entry.
  core::FlatHashMap<std::uint64_t, std::uint32_t, PairKeyHash> index_;
  std::vector<Entry> slab_;
  std::uint32_t free_head_ = kNil;  ///< LIFO: the warmest slot first.
  /// Every client that received a good response or a restored entry since
  /// the last clear(). for_each_entry, and so the checkpoint image, visits
  /// clients in this map's order, so it is only ever cleared, never erased
  /// from.
  core::FlatHashMap<core::IPv4Address, ClientList, core::IPv4AddressHash> clients_;
  /// Owns every hostname the hunter has seen. DNS churn re-resolves the
  /// same names constantly, so deduplicated interning keeps this small even
  /// over long captures; it is released wholesale by clear().
  core::StringPool pool_;
  Counters counters_;
};

}  // namespace edgewatch::dns
