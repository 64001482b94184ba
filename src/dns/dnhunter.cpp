#include "dns/dnhunter.hpp"

namespace edgewatch::dns {

void DnHunter::observe_response(core::IPv4Address client, const Message& msg,
                                core::Timestamp now) {
  if (!msg.ok_response() || msg.questions.empty()) return;
  ++counters_.responses_ingested;
  const std::string_view question = msg.questions.front().name;

  // Names reachable from the question through CNAME aliases.
  auto is_alias_of_question = [&](std::string_view name) {
    if (name == question) return true;
    // Walk the CNAME chain (answers are few; quadratic walk is fine).
    std::string_view current = question;
    for (std::size_t hop = 0; hop < msg.answers.size(); ++hop) {
      bool advanced = false;
      for (const auto& a : msg.answers) {
        if (a.type == RecordType::kCname && a.name == current) {
          current = a.cname;
          advanced = true;
          break;
        }
      }
      if (!advanced) break;
      if (current == name) return true;
    }
    return false;
  };

  ClientList& list = clients_[client];
  for (const auto& a : msg.answers) {
    if (a.type != RecordType::kA) continue;
    // Label with the *question* name when the record answers it (directly
    // or through CNAMEs); otherwise fall back to the record owner name.
    const std::string_view name = is_alias_of_question(a.name) ? question : a.name;
    insert(list, client, a.address, name, now, /*count_stats=*/true);
  }
}

void DnHunter::insert(ClientList& list, core::IPv4Address client, core::IPv4Address server,
                      std::string_view name, core::Timestamp now, bool count_stats) {
  const std::uint64_t key = pair_key(client, server);
  if (const auto it = index_.find(key); it != index_.end()) {
    Entry& entry = slab_[it->second];
    entry.name = pool_.intern(name);
    entry.inserted = now;
    if (entry.prev != kNil) {
      unlink(list, it->second);
      link_front(list, it->second);
    }
    return;
  }
  if (list.count >= config_.max_entries_per_client && list.tail != kNil) {
    remove(list, list.tail);
    if (count_stats) ++counters_.lru_evictions;
  }
  const std::uint32_t slot = acquire_slot();
  Entry& entry = slab_[slot];
  entry.client = client;
  entry.server = server;
  entry.name = pool_.intern(name);
  entry.inserted = now;
  link_front(list, slot);
  index_.emplace(key, slot);
  if (count_stats) ++counters_.entries_inserted;
}

void DnHunter::link_front(ClientList& list, std::uint32_t slot) noexcept {
  Entry& entry = slab_[slot];
  entry.prev = kNil;
  entry.next = list.head;
  if (list.head != kNil) {
    slab_[list.head].prev = slot;
  } else {
    list.tail = slot;
  }
  list.head = slot;
  ++list.count;
}

void DnHunter::unlink(ClientList& list, std::uint32_t slot) noexcept {
  const Entry& entry = slab_[slot];
  if (entry.prev != kNil) {
    slab_[entry.prev].next = entry.next;
  } else {
    list.head = entry.next;
  }
  if (entry.next != kNil) {
    slab_[entry.next].prev = entry.prev;
  } else {
    list.tail = entry.prev;
  }
  --list.count;
}

void DnHunter::remove(ClientList& list, std::uint32_t slot) {
  unlink(list, slot);
  Entry& entry = slab_[slot];
  index_.erase(pair_key(entry.client, entry.server));
  entry.name = {};
  entry.prev = kNil;
  entry.next = free_head_;
  free_head_ = slot;
}

std::uint32_t DnHunter::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next;
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

std::optional<std::string_view> DnHunter::lookup(core::IPv4Address client,
                                                 core::IPv4Address server, core::Timestamp now) {
  const auto it = index_.find(pair_key(client, server));
  if (it == index_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  const std::uint32_t slot = it->second;
  const Entry& entry = slab_[slot];
  if (now - entry.inserted > config_.entry_ttl_micros) {
    remove(clients_.find(client)->second, slot);
    ++counters_.expired;
    ++counters_.misses;
    return std::nullopt;
  }
  if (entry.prev != kNil) {  // not already the client's most recent entry
    ClientList& list = clients_.find(client)->second;
    unlink(list, slot);
    link_front(list, slot);
  }
  ++counters_.hits;
  return entry.name;
}

void DnHunter::clear() {
  index_.clear();
  slab_.clear();
  free_head_ = kNil;
  clients_.clear();
  pool_.clear();
}

void DnHunter::for_each_entry(
    const std::function<void(core::IPv4Address, core::IPv4Address, std::string_view,
                             core::Timestamp)>& fn) const {
  for (const auto& [client, list] : clients_) {
    // Tail = least recent: replaying in this order through restore_entry
    // (front insertion) rebuilds the identical list.
    for (std::uint32_t slot = list.tail; slot != kNil; slot = slab_[slot].prev) {
      const Entry& entry = slab_[slot];
      fn(client, entry.server, entry.name, entry.inserted);
    }
  }
}

void DnHunter::restore_entry(core::IPv4Address client, core::IPv4Address server,
                             std::string_view name, core::Timestamp inserted) {
  insert(clients_[client], client, server, name, inserted, /*count_stats=*/false);
}

}  // namespace edgewatch::dns
