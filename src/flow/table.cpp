#include "flow/table.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace edgewatch::flow {

FlowState* FlowTable::ingest(const net::DecodedPacket& pkt) {
  const auto proto = pkt.ip.transport();
  if (proto == core::TransportProto::kOther) return nullptr;
  ++counters_.packets;

  const core::FiveTuple as_sent = pkt.five_tuple();
  // One orientation-insensitive probe replaces the former find(as_sent) /
  // find(reversed()) pair; direction falls out of comparing the stored key.
  auto it = flows_.find(EitherOrientation{as_sent});
  bool from_client = it == flows_.end() || it->first == as_sent;

  if (it == flows_.end()) {
    // New flow: the sender of the first packet is the client. A bare
    // SYN-ACK opening a flow (probe started mid-handshake) flips roles.
    core::FiveTuple key = as_sent;
    if (pkt.tcp && pkt.tcp->has(net::TcpFlags::kSyn) && pkt.tcp->has(net::TcpFlags::kAck)) {
      key = as_sent.reversed();
      from_client = false;
    }
    const std::uint32_t slot = acquire_slot();
    FlowRecord& record = state_at(slot).record;
    record.client_ip = key.src_ip;
    record.server_ip = key.dst_ip;
    record.client_port = key.src_port;
    record.server_port = key.dst_port;
    record.proto = proto;
    record.first_packet = pkt.timestamp;
    record.last_packet = pkt.timestamp;
    record.ingest_seq = next_ingest_seq_;
    it = flows_.emplace(key, slot).first;
    ++counters_.flows_created;

    if (flows_.size() > config_.max_flows) {
      // Emergency: reap from the checkpoint FIFO regardless of timeouts.
      while (flows_.size() > config_.max_flows && !checkpoints_.empty()) {
        const auto victim = checkpoints_.front();
        checkpoints_.pop_front();
        auto vit = flows_.find(victim.key);
        if (vit != flows_.end() && vit != it &&
            state_at(vit->second).record.last_packet <= victim.seen) {
          export_flow(vit, FlowCloseReason::kIdleTimeout);
          ++counters_.forced_evictions;
        }
      }
    }
  }

  FlowState& state = state_at(it->second);
  const std::uint64_t payload = pkt.transport_payload_declared();
  auto& dir = from_client ? state.record.up : state.record.down;
  dir.add(payload, pkt.ip.total_length);
  if (pkt.timestamp > state.record.last_packet) state.record.last_packet = pkt.timestamp;

  if (pkt.tcp) handle_tcp(state, pkt, from_client);
  if (!state.dpi_done && from_client && !pkt.payload.empty()) run_dpi(state, pkt, from_client);
  if (!state.server_dpi_done && !from_client && !pkt.payload.empty()) {
    run_server_dpi(state, pkt);
  }

  checkpoints_.push_back({it->first, state.record.last_packet});
  ++next_ingest_seq_;  // auto mode; externally driven tables overwrite it
  return &state;
}

std::uint32_t FlowTable::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (chunks_.empty() || chunks_.back().size() == kChunkSize) {
    chunks_.emplace_back().reserve(kChunkSize);  // never grows past this: states stay put
  }
  chunks_.back().emplace_back();
  return static_cast<std::uint32_t>(((chunks_.size() - 1) << kChunkBits) +
                                    chunks_.back().size() - 1);
}

void FlowTable::release_slot(std::uint32_t slot) noexcept {
  // Destroy and rebuild rather than assign: a moved-into string keeps its
  // old heap buffer, a destroyed one frees it.
  FlowState& state = state_at(slot);
  std::destroy_at(&state);
  std::construct_at(&state);
  free_slots_.push_back(slot);
}

void FlowTable::clear_slab() noexcept {
  chunks_.clear();
  free_slots_.clear();
}

namespace {
/// Wrap-safe sequence comparison (a >= b in sequence space).
bool seq_geq(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) >= 0;
}
}  // namespace

void FlowTable::handle_tcp(FlowState& state, const net::DecodedPacket& pkt, bool from_client) {
  const net::TcpHeader& tcp = *pkt.tcp;

  // Anomaly accounting (ref [29]): compare each data-carrying segment with
  // the next expected sequence number of its direction.
  std::uint32_t seg_len = static_cast<std::uint32_t>(pkt.transport_payload_declared());
  if (tcp.has(net::TcpFlags::kSyn) || tcp.has(net::TcpFlags::kFin)) ++seg_len;
  if (seg_len > 0) {
    auto& next = from_client ? state.next_seq_client : state.next_seq_server;
    auto& valid = from_client ? state.seq_valid_client : state.seq_valid_server;
    auto& dir = from_client ? state.record.up : state.record.down;
    const std::uint32_t seg_end = tcp.seq + seg_len;
    if (!valid) {
      valid = true;
      next = seg_end;
    } else if (seq_geq(next, seg_end)) {
      ++dir.retransmits;  // entirely within already-seen sequence space
    } else if (seq_geq(next, tcp.seq)) {
      next = seg_end;  // in-order (possibly partially overlapping) segment
    } else {
      ++dir.out_of_order;  // a hole precedes this segment
      next = seg_end;
    }
  }

  if (tcp.has(net::TcpFlags::kSyn)) {
    if (from_client && !tcp.has(net::TcpFlags::kAck)) state.syn_seen = true;
    if (!from_client && tcp.has(net::TcpFlags::kAck)) {
      state.synack_seen = true;
      if (state.syn_seen) state.record.handshake_completed = true;
    }
  }

  // RTT: client-side segments arm the estimator; server ACKs sample it.
  if (from_client) {
    std::uint32_t seq_end = tcp.seq + static_cast<std::uint32_t>(pkt.transport_payload_declared());
    if (tcp.has(net::TcpFlags::kSyn) || tcp.has(net::TcpFlags::kFin)) ++seq_end;
    state.rtt.on_client_segment(tcp.seq, seq_end, pkt.timestamp);
  } else if (tcp.has(net::TcpFlags::kAck)) {
    state.rtt.on_server_ack(tcp.ack, pkt.timestamp, state.record.rtt);
  }

  if (tcp.has(net::TcpFlags::kRst)) {
    if (!state.closed) {
      state.closed = true;
      state.closed_at = pkt.timestamp;
      state.record.close_reason = FlowCloseReason::kTcpReset;
      ++counters_.closed_reset;
    }
    return;
  }
  if (tcp.has(net::TcpFlags::kFin)) {
    (from_client ? state.fin_client : state.fin_server) = true;
    if (state.fin_client && state.fin_server && !state.closed) {
      state.closed = true;
      state.closed_at = pkt.timestamp;
      state.record.close_reason = FlowCloseReason::kTcpTeardown;
      ++counters_.closed_teardown;
    }
  }
}

void FlowTable::run_dpi(FlowState& state, const net::DecodedPacket& pkt, bool /*from_client*/) {
  // Classify on the bare payload when nothing is buffered; otherwise on
  // the reassembled client stream so split first-flights still parse.
  std::span<const std::byte> view = pkt.payload;
  if (!state.dpi_buffer.empty()) {
    state.dpi_buffer.insert(state.dpi_buffer.end(), pkt.payload.begin(), pkt.payload.end());
    view = state.dpi_buffer;
  }
  const auto classify = [&] {
    return dpi::classify_payload(state.record.proto, state.record.server_port, view,
                                 config_.classifier);
  };
  dpi::Classification result;
  bool classified = false;
  if constexpr (obs::kEnabled) {
    if ((++dpi_obs_ticks_ & 63) == 0) {
      auto& reg = obs::Registry::global();
      const std::uint64_t t0 = reg.now_ns();
      result = classify();
      dpi_classify_ns_->record(static_cast<std::int64_t>(reg.now_ns() - t0));
      classified = true;
    }
  }
  if (!classified) result = classify();
  if (!result.conclusive && view.size() < config_.dpi_buffer_limit) {
    if (state.dpi_buffer.empty()) {
      state.dpi_buffer.assign(pkt.payload.begin(), pkt.payload.end());
    }
    return;  // wait for the continuation segment
  }
  state.dpi_done = true;
  state.dpi_buffer.clear();
  state.dpi_buffer.shrink_to_fit();
  state.record.l7 = result.l7;
  state.record.web = result.web;
  if (!result.server_name.empty()) {
    state.record.server_name = std::move(result.server_name);
    switch (result.l7) {
      case dpi::L7Protocol::kHttp:
        state.record.name_source = NameSource::kHttpHost;
        break;
      case dpi::L7Protocol::kFbZero:
        state.record.name_source = NameSource::kFbZero;
        break;
      default:
        state.record.name_source = NameSource::kTlsSni;
        break;
    }
  }
}

void FlowTable::run_server_dpi(FlowState& state, const net::DecodedPacket& pkt) {
  // If client-side DPI has not concluded yet (mid-capture flows, split
  // hellos) keep the server side pending too.
  if (!state.dpi_done) return;
  state.server_dpi_done = true;

  // HTTP: record the transaction's status line and media type.
  if (state.record.l7 == dpi::L7Protocol::kHttp) {
    if (const auto resp = dpi::parse_http_response(pkt.payload)) {
      state.record.http_status = static_cast<std::uint16_t>(resp->status);
      state.record.content_type = resp->content_type;
    }
    return;
  }

  // TLS: the ServerHello's *selected* ALPN beats whatever the client
  // merely offered.
  if (state.record.l7 != dpi::L7Protocol::kTls) return;
  const auto hello = dpi::parse_server_hello(pkt.payload);
  if (!hello || hello->alpn.empty()) return;
  if (hello->alpn.starts_with("h2")) {
    state.record.web = dpi::WebProtocol::kHttp2;
  } else if (hello->alpn.starts_with("spdy/")) {
    state.record.web = config_.classifier.report_spdy ? dpi::WebProtocol::kSpdy
                                                      : dpi::WebProtocol::kTls;
  } else if (hello->alpn == "http/1.1") {
    state.record.web = dpi::WebProtocol::kTls;
  }
}

void FlowTable::advance(core::Timestamp now) {
  // Cheapest possible timeout any flow could be subject to: if even that
  // has not elapsed since the oldest checkpoint, nothing can expire and the
  // per-packet call returns without touching the flow map at all.
  const std::int64_t min_timeout =
      std::min({config_.closed_linger_us, config_.tcp_idle_timeout_us,
                config_.udp_idle_timeout_us});
  while (!checkpoints_.empty()) {
    const Checkpoint& cp = checkpoints_.front();
    if (now - cp.seen < min_timeout) break;
    const auto it = flows_.find(cp.key);
    if (it == flows_.end()) {
      checkpoints_.pop_front();
      continue;
    }
    const FlowState& state = state_at(it->second);
    const std::int64_t timeout =
        state.closed ? config_.closed_linger_us : idle_timeout(cp.key.proto);
    // The oldest checkpoint has not yet timed out: nothing else can have.
    if (now - cp.seen < timeout) break;
    const core::Timestamp anchor = state.closed ? state.closed_at : state.record.last_packet;
    if (now - anchor >= timeout) {
      const FlowCloseReason reason =
          state.closed ? state.record.close_reason : FlowCloseReason::kIdleTimeout;
      if (!state.closed) ++counters_.expired_idle;
      export_flow(it, reason);
    }
    // Either exported, or the flow was active more recently than this
    // checkpoint — a fresher checkpoint exists further back in the queue.
    checkpoints_.pop_front();
  }
}

FlowRecord FlowTable::take_record(FlowState& state, FlowCloseReason reason) {
  // DPI hostnames (Host:/SNI) take precedence; the DN-Hunter hint captured
  // at flow start fills in only when the payload exposed nothing.
  if (state.record.server_name.empty() && !state.dns_hint.empty()) {
    state.record.server_name.assign(state.dns_hint);
    state.record.name_source = NameSource::kDnsHunter;
  }
  FlowRecord record = std::move(state.record);
  if (record.close_reason == FlowCloseReason::kActive) record.close_reason = reason;
  return record;
}

void FlowTable::export_flow(FlowIndex::iterator it, FlowCloseReason reason) {
  const std::uint32_t slot = it->second;
  FlowRecord record = take_record(state_at(slot), reason);
  flows_.erase(it);
  release_slot(slot);
  ++counters_.flows_exported;
  if (sink_) sink_(std::move(record));
}

void FlowTable::flush(FlowCloseReason reason) {
  // Export in flow-arrival order (ingest_seq is unique per flow), so the
  // flush output is a pure function of the packets seen and never of the
  // index's or the slab's layout. Three phases: one sequential sweep over
  // the index collects (ingest_seq, index slot) pairs; the pairs are
  // sorted; each record is moved out of its state in that order. New flows
  // fill the slab in arrival order, so the sorted walk reads it nearly
  // sequentially. The index slots stay occupied until one clear() at the
  // end: erasing per record would rescan the emptying control bytes for
  // the next full slot, and erasing by key would re-probe the index once
  // per flow.
  using Entry = std::pair<std::uint64_t, FlowIndex::iterator>;
  std::vector<Entry> order;
  order.reserve(flows_.size());
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    order.emplace_back(state_at(it->second).record.ingest_seq, it);
  }
  std::sort(order.begin(), order.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });

  std::size_t handed = 0;  // flows whose record reached the sink
  try {
    for (const auto& [seq, it] : order) {
      FlowRecord record = take_record(state_at(it->second), reason);
      ++handed;
      ++counters_.flows_exported;
      if (sink_) sink_(std::move(record));
    }
  } catch (...) {
    // The sink threw: drop the flows already handed over (the throwing one
    // included, as export_flow does), so the table holds exactly the flows
    // not yet exported and a second flush exports nothing twice.
    for (std::size_t i = 0; i < handed; ++i) {
      release_slot(order[i].second->second);
      flows_.erase(order[i].second);
    }
    throw;
  }
  flows_.clear();
  clear_slab();
  checkpoints_.clear();
}

void FlowTable::restore_flow(const core::FiveTuple& key, FlowState state) {
  const core::Timestamp seen = state.record.last_packet;
  const auto [it, inserted] = flows_.try_emplace(key, 0);
  if (inserted) it->second = acquire_slot();
  state_at(it->second) = std::move(state);
  checkpoints_.push_back({key, seen});
}

void FlowTable::finalize_restore() {
  std::sort(checkpoints_.begin(), checkpoints_.end(),
            [this](const Checkpoint& a, const Checkpoint& b) {
              if (a.seen != b.seen) return a.seen < b.seen;
              const auto ia = flows_.find(a.key);
              const auto ib = flows_.find(b.key);
              const std::uint64_t sa =
                  ia != flows_.end() ? state_at(ia->second).record.ingest_seq : 0;
              const std::uint64_t sb =
                  ib != flows_.end() ? state_at(ib->second).record.ingest_seq : 0;
              return sa < sb;
            });
}

void FlowTable::reset() {
  flows_.clear();
  clear_slab();
  checkpoints_.clear();
  counters_ = Counters{};
}

}  // namespace edgewatch::flow
