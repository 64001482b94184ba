#include "probe/sharded_probe.hpp"

#include <algorithm>

namespace edgewatch::probe {

namespace {

std::uint32_t rd32be(std::span<const std::byte> d, std::size_t pos) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | std::to_integer<std::uint32_t>(d[pos + static_cast<std::size_t>(i)]);
  }
  return v;
}

bool by_seq(const flow::FlowRecord& a, const flow::FlowRecord& b) noexcept {
  return a.ingest_seq < b.ingest_seq;
}

/// A worker's exports come out of its flushes in ingest_seq order, but
/// mid-stream expiries (idle and linger timeouts) leave them in expiry
/// order; the merge needs each buffer sorted.
void sort_by_seq(std::vector<flow::FlowRecord>& records) {
  if (!std::is_sorted(records.begin(), records.end(), by_seq)) {
    std::sort(records.begin(), records.end(), by_seq);
  }
}

/// k-way merge of per-shard buffers, each sorted by ingest_seq, moving
/// every record once. ingest_seq is unique across shards (one global
/// counter, one creating packet per flow), so the order is total and
/// independent of the shard count. k is the shard count, a handful, so
/// the next record is found by a linear scan of the run heads.
std::vector<flow::FlowRecord> merge_by_seq(
    const std::vector<std::vector<flow::FlowRecord>*>& runs) {
  if (runs.size() == 1) return std::move(*runs.front());
  std::size_t total = 0;
  for (const auto* run : runs) total += run->size();
  std::vector<flow::FlowRecord> merged;
  merged.reserve(total);
  std::vector<std::size_t> pos(runs.size(), 0);
  while (merged.size() < total) {
    std::size_t best = runs.size();
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (pos[r] == runs[r]->size()) continue;
      if (best == runs.size() ||
          (*runs[r])[pos[r]].ingest_seq < (*runs[best])[pos[best]].ingest_seq) {
        best = r;
      }
    }
    merged.push_back(std::move((*runs[best])[pos[best]++]));
  }
  return merged;
}

}  // namespace

ShardedProbe::ShardedProbe(ShardedProbeConfig config) : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  ProbeConfig shard_config = config_.probe;
  // Keep the aggregate flow-memory bound of the single-probe deployment.
  shard_config.flow.max_flows =
      std::max<std::size_t>(1, config_.probe.flow.max_flows / config_.shards);

  // The bound is counted in frames (has_room); batches of a quarter of it
  // amortize the ring push. try_ingest publishes batches of one frame, so
  // the ring has a slot per frame: the frame bound binds before the slots.
  capacity_ = std::max<std::size_t>(1, config_.queue_capacity);
  batch_ = std::clamp<std::size_t>(capacity_ / 4, 1, 256);

  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>(capacity_);
    Shard* raw = shard.get();
    // Batch-buffering sink: the worker appends locally, no cross-thread
    // call per record; the merge happens at finish() and snapshot().
    shard->probe = std::make_unique<Probe>(
        shard_config, [raw](flow::FlowRecord&& record) {
          raw->records.push_back(std::move(record));
        });
    shard->worker = std::thread([this, raw] { worker_loop(*raw); });
    shards_.push_back(std::move(shard));
  }
}

ShardedProbe::~ShardedProbe() { (void)finish(); }

std::size_t ShardedProbe::shard_of(const net::FrameView& frame) const noexcept {
  // Cheap L3/L4 peek — the full decode happens on the worker. Ethernet
  // header is 14 bytes; IPv4 src/dst sit at fixed offsets 12/16 into the
  // IPv4 header whatever the IHL. Non-IPv4 frames (IPv6, ARP, runts) carry
  // no flow state, so any deterministic shard works; they go to shard 0 for
  // counting.
  if (shards_.size() == 1) return 0;
  const auto d = frame.data;
  if (d.size() < 34) return 0;
  const auto be16 = [&d](std::size_t pos) {
    return (std::to_integer<std::uint16_t>(d[pos]) << 8) |
           std::to_integer<std::uint16_t>(d[pos + 1]);
  };
  std::size_t l3 = 14;
  if (be16(12) != 0x0800) {
    // One 802.1Q tag in front of the EtherType is skipped, as
    // net::decode_frame_into skips it: a flow or a client seen both tagged
    // and untagged must keep one shard.
    if (be16(12) != 0x8100 || d.size() < 38 || be16(16) != 0x0800) return 0;
    l3 = 18;
  }
  const core::IPv4Address src{rd32be(d, l3 + 12)};
  const core::IPv4Address dst{rd32be(d, l3 + 16)};
  const auto& net = config_.probe.customer_net;

  // DNS traffic is keyed by the *client*, whichever direction the packet
  // travels: DN-Hunter's cache lives on the client's shard, and in-net
  // resolvers would otherwise pull responses onto the resolver's shard.
  const auto proto = std::to_integer<std::uint8_t>(d[l3 + 9]);
  if (proto == 17) {  // UDP
    const std::size_t ihl = (std::to_integer<std::size_t>(d[l3]) & 0x0f) * 4;
    const std::size_t l4 = l3 + ihl;
    if (ihl >= 20 && d.size() >= l4 + 4) {
      const auto sport = be16(l4);
      const auto dport = be16(l4 + 2);
      if (sport == 53 && net.contains(dst)) {
        return core::IPv4AddressHash{}(dst) % shards_.size();  // response → client
      }
      if (dport == 53 && net.contains(src)) {
        return core::IPv4AddressHash{}(src) % shards_.size();  // query from client
      }
    }
  }

  // Shard key: the customer side (per-subscription analytics, per-client
  // DN-Hunter). The rule must be direction-symmetric so both halves of a
  // flow land on the same shard: exactly one side in the customer net →
  // that side; both or neither → the smaller address.
  const bool src_in = net.contains(src);
  const bool dst_in = net.contains(dst);
  const core::IPv4Address key = src_in == dst_in ? std::min(src, dst) : (src_in ? src : dst);
  return core::IPv4AddressHash{}(key) % shards_.size();
}

bool ShardedProbe::has_room(Shard& shard, bool block) {
  const auto held = [&shard] {
    return shard.published.load(std::memory_order_relaxed) + shard.staged.size() -
           shard.processed_seen;
  };
  // `processed` only grows, so a stale read errs towards "full": the
  // worker's counter is read only when the cached one says so.
  if (held() < capacity_) return true;
  shard.processed_seen = shard.processed.load(std::memory_order_acquire);
  while (held() >= capacity_) {
    if (!block) return false;
    // Frames are in flight (staged holds less than a batch, and a batch is
    // at most the capacity), so a batch comes back: the worker returns it
    // after processing its frames.
    if (auto returned = shard.spare.pop()) shard.free.push_back(std::move(*returned));
    shard.processed_seen = shard.processed.load(std::memory_order_acquire);
  }
  return true;
}

FrameBatch ShardedProbe::take_batch(Shard& shard) {
  if (!shard.free.empty()) {
    FrameBatch batch = std::move(shard.free.back());
    shard.free.pop_back();
    return batch;
  }
  if (auto spare = shard.spare.try_pop()) return std::move(*spare);
  if (shard.batches_made < capacity_) {
    ++shard.batches_made;
    FrameBatch batch;
    batch.reserve(batch_);  // a batch made for try_ingest may later fill up
    return batch;
  }
  // All made and none free: has_room found fewer than queue_capacity
  // frames unfinished, so one batch holds none and the worker is handing
  // it back.
  return std::move(*shard.spare.pop());
}

bool ShardedProbe::publish(Shard& shard, bool block) {
  const std::size_t n = shard.staged.size();
  if (n == 0) return true;
  Item item;
  item.batch = std::move(shard.staged);
  const bool pushed = block ? shard.queue.push(std::move(item))
                            : shard.queue.try_push(std::move(item));
  if (!pushed) {
    // try_push leaves the item untouched on failure; keep the batch staged.
    shard.staged = std::move(item.batch);
    return false;
  }
  shard.staged = FrameBatch{};
  shard.published.store(shard.published.load(std::memory_order_relaxed) + n,
                        std::memory_order_release);
  return true;
}

bool ShardedProbe::stage(const net::FrameView& frame, bool block) {
  Shard& shard = *shards_[shard_of(frame)];
  FrameBatch& batch = shard.staged;
  // A batch left full by a refused non-blocking push must go first.
  if (batch.size() == batch_ && !publish(shard, block)) return false;
  if (!has_room(shard, block)) return false;
  if (batch.capacity() == 0) {
    batch = take_batch(shard);  // a recycled batch keeps its arena
    batch.clear();
  }
  batch.push(frame, next_seq_++);
  // A non-blocking feeder hands every frame over at once. It keeps pace
  // or sheds, so a batch would only hold frames back from an idle worker
  // and let the ring look emptier than the feeder's backlog is.
  if (!block || batch.size() == batch_) (void)publish(shard, block);
  return true;
}

void ShardedProbe::ingest(const net::FrameView& frame) {
  if (finished_) return;
  (void)stage(frame, /*block=*/true);
}

bool ShardedProbe::try_ingest(const net::FrameView& frame) {
  return !finished_ && stage(frame, /*block=*/false);
}

void ShardedProbe::broadcast(Item::Kind kind, dpi::ClassifierOptions options) {
  if (finished_) return;
  for (auto& shard : shards_) {
    publish(*shard, /*block=*/true);
    Item item;
    item.kind = kind;
    item.options = options;
    shard->queue.push(std::move(item));
  }
}

void ShardedProbe::set_classifier_options(dpi::ClassifierOptions options) {
  broadcast(Item::Kind::kClassifier, options);
}

void ShardedProbe::begin_outage() { broadcast(Item::Kind::kBeginOutage); }

void ShardedProbe::end_outage() { broadcast(Item::Kind::kEndOutage); }

std::vector<std::shared_ptr<ShardedProbe::BarrierSlot>> ShardedProbe::barrier(
    Item::Kind kind, const std::vector<std::vector<std::byte>>* state_in) {
  std::vector<std::shared_ptr<BarrierSlot>> slots;
  slots.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto slot = std::make_shared<BarrierSlot>();
    if (state_in != nullptr) slot->state_in = (*state_in)[i];
    publish(*shards_[i], /*block=*/true);
    Item item;
    item.kind = kind;
    item.barrier = slot;
    shards_[i]->queue.push(std::move(item));
    slots.push_back(std::move(slot));
  }
  for (auto& slot : slots) slot->done.wait(false);
  return slots;
}

PipelineSnapshot ShardedProbe::snapshot() {
  PipelineSnapshot snap;
  if (finished_) return snap;
  const auto slots = barrier(Item::Kind::kSnapshot, nullptr);
  snap.next_seq = next_seq_;
  snap.shard_state.reserve(slots.size());
  std::vector<std::vector<flow::FlowRecord>*> runs;
  runs.reserve(slots.size());
  for (const auto& slot : slots) {
    snap.shard_state.push_back(std::move(slot->state_out));
    runs.push_back(&slot->records);
  }
  snap.records = merge_by_seq(runs);
  return snap;
}

core::Result<void> ShardedProbe::restore(
    const std::vector<std::vector<std::byte>>& shard_state, std::uint64_t next_seq) {
  if (finished_) return core::Errc::kUnsupported;
  if (shard_state.size() != shards_.size()) return core::Errc::kUnsupported;
  const auto slots = barrier(Item::Kind::kRestore, &shard_state);
  for (const auto& slot : slots) {
    if (slot->errc != core::Errc::kOk) return slot->errc;
  }
  next_seq_ = next_seq;
  return {};
}

void ShardedProbe::quarantine(Shard& shard, std::uint64_t seq, const net::FrameView& frame,
                              bool state_suspect) {
  // Poison frame: quarantine it and, if the probe may be half-mutated,
  // roll the shard back to its last good state instead of letting one bad
  // frame take down five years of uptime.
  bool restored = false;
  if (state_suspect) {
    if (!shard.last_snapshot.empty() &&
        shard.probe->restore_image(shard.last_snapshot).ok()) {
      restored = true;
    } else {
      // No snapshot to roll back to (snapshot_interval == 0 or capture
      // failed): drop the flow state the outage way — without exporting
      // records from a suspect table.
      shard.probe->begin_outage();
      shard.probe->end_outage();
    }
    shard.frames_since_snapshot = 0;
    shard.restores.fetch_add(1, std::memory_order_relaxed);
  }
  shard.quarantined.fetch_add(1, std::memory_order_relaxed);
  if (config_.poison_sink) config_.poison_sink(seq, frame, restored);
}

void ShardedProbe::replay_batch(Shard& shard, const FrameBatch& batch) {
  const std::size_t n = batch.size();
  const std::uint64_t interval = config_.snapshot_interval;
  std::size_t i = 0;
  while (i < n) {
    // One run: the whole rest of the batch, cut where a snapshot falls
    // due; a single frame when an inspector must see each frame first.
    std::size_t end = config_.frame_inspector ? i + 1 : n;
    if (interval > 0) {
      end = std::min<std::size_t>(end, i + (interval - shard.frames_since_snapshot));
    }
    std::size_t at = i;
    bool state_suspect = false;
    try {
      if (config_.frame_inspector) config_.frame_inspector(batch.seq(i), batch.view(i));
      state_suspect = true;  // from here on, a throw leaves the probe half-mutated
      shard.probe->replay(batch, i, end, at);
      if (interval > 0 && (shard.frames_since_snapshot += end - i) >= interval) {
        at = end - 1;  // the snapshot is the run's last frame's: if it throws, so did that frame
        shard.last_snapshot = shard.probe->checkpoint_image();
        shard.frames_since_snapshot = 0;
        at = end;
      }
    } catch (const StateSuspectError&) {
      state_suspect = true;
    } catch (...) {
      // An inspector throw comes before processing starts: state untouched.
    }
    if (at < end) {  // frame `at` threw; the frames before it are done
      quarantine(shard, batch.seq(at), batch.view(at), state_suspect);
      end = at + 1;
    }
    finished(shard, end - i);
    i = end;
  }
}

void ShardedProbe::beat(Shard& shard, std::uint64_t n) noexcept {
  // Only this worker writes the heartbeat: a plain store, no RMW.
  shard.heartbeat.store(shard.heartbeat.load(std::memory_order_relaxed) + n,
                        std::memory_order_release);
}

void ShardedProbe::finished(Shard& shard, std::uint64_t frames) noexcept {
  shard.processed.store(shard.processed.load(std::memory_order_relaxed) + frames,
                        std::memory_order_release);
  beat(shard, frames);
}

void ShardedProbe::worker_loop(Shard& shard) {
  if (config_.snapshot_interval > 0) {
    // Initial snapshot: a poison frame before the first interval elapses
    // still has a good (empty) state to roll back to.
    shard.last_snapshot = shard.probe->checkpoint_image();
  }
  while (auto item = shard.queue.pop()) {
    if (abandoned_.load(std::memory_order_acquire)) {
      // Simulated kill: drain without processing. Barrier waiters are
      // unblocked so the feeder never hangs on a dead pipeline.
      if (item->barrier) {
        item->barrier->errc = core::Errc::kCrashed;
        item->barrier->done.store(true, std::memory_order_release);
        item->barrier->done.notify_one();
      }
      continue;
    }
    switch (item->kind) {
      case Item::Kind::kFrames:
        replay_batch(shard, item->batch);
        // Hand the arena back before taking the next batch, which keeps
        // the batches in circulation within spare's capacity.
        (void)shard.spare.try_push(std::move(item->batch));
        continue;
      case Item::Kind::kClassifier:
        shard.probe->set_classifier_options(item->options);
        break;
      case Item::Kind::kBeginOutage:
        shard.probe->begin_outage();
        break;
      case Item::Kind::kEndOutage:
        shard.probe->end_outage();
        break;
      case Item::Kind::kSnapshot: {
        auto& slot = *item->barrier;
        slot.state_out = shard.probe->checkpoint_image();
        if (config_.snapshot_interval > 0) {
          // Re-anchor poison rollback at the barrier image: a run resumed
          // from this checkpoint starts with exactly this snapshot, so the
          // rollback schedule replays identically after recovery.
          shard.last_snapshot = slot.state_out;
          shard.frames_since_snapshot = 0;
        }
        sort_by_seq(shard.records);
        slot.records = std::move(shard.records);
        shard.records.clear();
        slot.done.store(true, std::memory_order_release);
        slot.done.notify_one();
        break;
      }
      case Item::Kind::kRestore: {
        auto& slot = *item->barrier;
        const auto r = shard.probe->restore_image(slot.state_in);
        slot.errc = r ? core::Errc::kOk : r.error();
        if (config_.snapshot_interval > 0) {
          shard.last_snapshot = shard.probe->checkpoint_image();
          shard.frames_since_snapshot = 0;
        }
        slot.done.store(true, std::memory_order_release);
        slot.done.notify_one();
        break;
      }
    }
    beat(shard, 1);
  }
  if (abandoned_.load(std::memory_order_acquire)) return;  // killed: no flush
  // Ring closed and drained: flush the shard's open flows. The exports
  // land in shard.records with their creation-time tags, so finish()'s
  // merge puts them where the serial probe's flush would. Sorting here
  // runs on every worker at once instead of on the feeder.
  shard.probe->finish();
  sort_by_seq(shard.records);
}

void ShardedProbe::join_workers() {
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedProbe::abandon() {
  if (finished_) return;
  finished_ = true;
  abandoned_.store(true, std::memory_order_release);
  join_workers();
  for (auto& shard : shards_) {
    shard->staged = FrameBatch{};  // never published: dies with the process
    shard->records.clear();
    shard->records.shrink_to_fit();
  }
}

std::vector<flow::FlowRecord> ShardedProbe::finish() {
  if (finished_) return {};
  for (auto& shard : shards_) publish(*shard, /*block=*/true);
  finished_ = true;
  join_workers();

  std::vector<std::vector<flow::FlowRecord>*> runs;
  runs.reserve(shards_.size());
  for (auto& shard : shards_) runs.push_back(&shard->records);
  std::vector<flow::FlowRecord> merged = merge_by_seq(runs);
  for (auto& shard : shards_) {
    shard->records.clear();
    shard->records.shrink_to_fit();
  }
  return merged;
}

std::size_t ShardedProbe::queue_depth(std::size_t i) const noexcept {
  // Read `published` first: a later `processed` can only be larger, so
  // the difference never overstates the bound; it may trail a racing
  // publish-and-process, hence the floor at zero.
  const auto& shard = *shards_[i];
  const std::uint64_t published = shard.published.load(std::memory_order_acquire);
  const std::uint64_t processed = shard.processed.load(std::memory_order_acquire);
  return processed >= published ? 0 : static_cast<std::size_t>(published - processed);
}

std::size_t ShardedProbe::queue_capacity() const noexcept { return capacity_; }

std::uint64_t ShardedProbe::heartbeat(std::size_t i) const noexcept {
  return shards_[i]->heartbeat.load(std::memory_order_acquire);
}

std::uint64_t ShardedProbe::quarantined(std::size_t i) const noexcept {
  return shards_[i]->quarantined.load(std::memory_order_relaxed);
}

std::uint64_t ShardedProbe::quarantined_total() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->quarantined.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t ShardedProbe::state_restores() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->restores.load(std::memory_order_relaxed);
  return n;
}

Probe::Counters ShardedProbe::counters() const {
  Probe::Counters total;
  for (const auto& shard : shards_) {
    const auto& c = shard->probe->counters();
    total.frames += c.frames;
    total.decode_failures += c.decode_failures;
    total.ipv6_frames += c.ipv6_frames;
    total.dropped_offline += c.dropped_offline;
    total.dns_responses += c.dns_responses;
    total.records_exported += c.records_exported;
    total.records_named_by_dns += c.records_named_by_dns;
  }
  return total;
}

}  // namespace edgewatch::probe
