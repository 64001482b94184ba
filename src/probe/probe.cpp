#include "probe/probe.hpp"

#include "dns/message.hpp"

namespace edgewatch::probe {

namespace {

/// A caller's capture as a replay source: frame i is frames[i], and flows
/// take the table's own running count as their ingest seq.
struct FrameSpan {
  std::span<const net::Frame> frames;
  [[nodiscard]] net::FrameView view(std::size_t i) const noexcept { return frames[i]; }
};

}  // namespace

Probe::Probe(ProbeConfig config, RecordSink sink)
    : config_(config),
      sink_(std::move(sink)),
      anonymizer_(config.anon_key, config.customer_net),
      dnhunter_(config.dnhunter),
      table_(config.flow, table_sink_) {
  auto& reg = obs::Registry::global();
  obs_.frames = &reg.counter("probe_frames_total");
  obs_.decode_failures = &reg.counter("probe_decode_failures_total");
  obs_.ipv6_frames = &reg.counter("probe_ipv6_frames_total");
  obs_.dropped_offline = &reg.counter("probe_dropped_offline_total");
  obs_.dns_responses = &reg.counter("probe_dns_responses_total");
  obs_.records_exported = &reg.counter("probe_records_exported_total");
  obs_.records_named_by_dns = &reg.counter("probe_records_named_by_dns_total");
  obs_.dnhunter_hits = &reg.counter("dnhunter_hits_total");
  obs_.dnhunter_misses = &reg.counter("dnhunter_misses_total");
  obs_.dnhunter_expired = &reg.counter("dnhunter_expired_total");
  obs_.dnhunter_evictions = &reg.counter("dnhunter_lru_evictions_total");
  obs_.dnhunter_entries = &reg.gauge("dnhunter_entries");
  obs_.dnhunter_clients = &reg.gauge("dnhunter_clients");
  obs_.dnhunter_free_slots = &reg.gauge("dnhunter_free_slots");
  obs_.stage_decode = &reg.histogram("probe_stage_ns", {}, "stage=\"decode\"");
  obs_.stage_flow = &reg.histogram("probe_stage_ns", {}, "stage=\"flow_table\"");
  obs_.stage_dnhunter = &reg.histogram("probe_stage_ns", {}, "stage=\"dnhunter\"");
  obs_.stage_export = &reg.histogram("probe_stage_ns", {}, "stage=\"export\"");
  obs_.batch = &reg.span_site("probe_batch");
}

void Probe::obs_flush() noexcept {
  if constexpr (obs::kEnabled) {
    // Saturating delta: restore_checkpoint can rewind counters_, and the
    // registry must stay monotonic.
    const auto push = [](obs::Counter* counter, std::uint64_t now, std::uint64_t& flushed) {
      if (now > flushed) counter->add(now - flushed);
      flushed = now;
    };
    push(obs_.frames, counters_.frames, obs_.flushed.frames);
    push(obs_.decode_failures, counters_.decode_failures, obs_.flushed.decode_failures);
    push(obs_.ipv6_frames, counters_.ipv6_frames, obs_.flushed.ipv6_frames);
    push(obs_.dropped_offline, counters_.dropped_offline, obs_.flushed.dropped_offline);
    push(obs_.dns_responses, counters_.dns_responses, obs_.flushed.dns_responses);
    push(obs_.records_exported, counters_.records_exported, obs_.flushed.records_exported);
    push(obs_.records_named_by_dns, counters_.records_named_by_dns,
         obs_.flushed.records_named_by_dns);
    const auto& dc = dnhunter_.counters();
    auto& df = obs_.dnhunter_flushed;
    push(obs_.dnhunter_hits, dc.hits, df.hits);
    push(obs_.dnhunter_misses, dc.misses, df.misses);
    push(obs_.dnhunter_expired, dc.expired, df.expired);
    push(obs_.dnhunter_evictions, dc.lru_evictions, df.lru_evictions);
    // Gauges move by this probe's change, so shards and probes add up.
    const auto publish = [](obs::Gauge* gauge, std::size_t now, std::int64_t& published) {
      const auto value = static_cast<std::int64_t>(now);
      if (value != published) gauge->add(value - published);
      published = value;
    };
    publish(obs_.dnhunter_entries, dnhunter_.size(), obs_.entries_published);
    publish(obs_.dnhunter_clients, dnhunter_.clients(), obs_.clients_published);
    publish(obs_.dnhunter_free_slots, dnhunter_.free_slots(), obs_.free_slots_published);
  }
}

Probe::~Probe() {
  if constexpr (obs::kEnabled) {
    obs_.dnhunter_entries->add(-obs_.entries_published);
    obs_.dnhunter_clients->add(-obs_.clients_published);
    obs_.dnhunter_free_slots->add(-obs_.free_slots_published);
  }
}

bool Probe::prepare_frame(const net::FrameView& frame) {
  if (!online_) {
    ++counters_.dropped_offline;
    return false;
  }
  ++counters_.frames;
  // IPv6 is visible on the links but outside this study's flow analysis
  // (the paper's analytics are IPv4): count it instead of mis-reporting a
  // decode failure.
  if (frame.data.size() >= net::EthernetHeader::kSize) {
    const auto ethertype =
        (std::to_integer<std::uint16_t>(frame.data[12]) << 8) |
        std::to_integer<std::uint16_t>(frame.data[13]);
    if (ethertype == static_cast<std::uint16_t>(net::EtherType::kIPv6)) {
      ++counters_.ipv6_frames;
      return false;
    }
  }
  return true;
}

void Probe::process(const net::FrameView& frame) {
  if (!prepare_frame(frame)) return;
  const auto packet = net::decode_frame(frame);
  if (!packet) {
    ++counters_.decode_failures;
    return;
  }
  process(*packet);
  if constexpr (obs::kEnabled) {
    if ((counters_.frames & 255) == 0) obs_flush();
  }
}

void Probe::process(std::span<const net::Frame> frames) {
  obs::Span batch_span(*obs_.batch);
  std::size_t at = 0;
  replay_frames(FrameSpan{frames}, 0, frames.size(), at);
  obs_flush();
}

void Probe::replay(const FrameBatch& batch, std::size_t begin, std::size_t end,
                   std::size_t& at) {
  // A shard worker replays runs as short as one frame, so the registry is
  // flushed as the single-frame path does it: once per 256 frames.
  [[maybe_unused]] const std::uint64_t frames_before = counters_.frames;
  replay_frames(batch, begin, end, at);
  if constexpr (obs::kEnabled) {
    if ((counters_.frames >> 8) != (frames_before >> 8)) obs_flush();
  }
}

template <typename Frames>
void Probe::replay_frames(const Frames& frames, std::size_t begin, std::size_t end,
                          std::size_t& at) {
  // Software pipeline: a naive loop stalls on DRAM at the first touch of
  // every frame (each of a capture's frames lives in its own heap block).
  // Here frame i's state machine overlaps with (a) prefetching frame
  // i+kAhead's bytes, (b) decoding frame i+1 — decode is a pure function,
  // so running it early is unobservable — and (c) warming the flow-table
  // slot frame i+1 will probe. Counters still advance strictly in frame
  // order inside prepare_frame (the only behavioral ordering that exists).
  [[maybe_unused]] obs::Registry* const reg = &obs::Registry::global();
  constexpr std::size_t kAhead = 8;
  const auto prefetch_frame = [](const net::FrameView& f) {
    if (f.data.empty()) return;
    // Two lines cover the L2-L4 headers plus the payload bytes DPI and the
    // DNS sniffer look at first.
    __builtin_prefetch(f.data.data());
    if (f.data.size() > 64) __builtin_prefetch(f.data.data() + 64);
  };
  for (std::size_t i = begin; i < end && i < begin + kAhead; ++i) prefetch_frame(frames.view(i));
  // Double-buffered decode: frame i+1 parses into the buffer frame i is not
  // using, so no DecodedPacket is ever moved.
  net::DecodedPacket bufs[2];
  bool ok[2] = {false, false};
  if (begin != end) ok[begin & 1] = net::decode_frame_into(frames.view(begin), bufs[begin & 1]);
  for (std::size_t i = begin; i < end; ++i) {
    at = i;
    const net::DecodedPacket& packet = bufs[i & 1];
    const bool decoded = ok[i & 1];
    if (i + 1 < end) {
      if (i + kAhead < end) prefetch_frame(frames.view(i + kAhead));
      net::DecodedPacket& next = bufs[(i + 1) & 1];
      bool timed_decode = false;
      if constexpr (obs::kEnabled) {
        // Sampled decode-stage clock; the common iteration pays one
        // predictable branch.
        if ((i + 1) % kStageSampleStride == 0) {
          timed_decode = true;
          const std::uint64_t t0 = reg->now_ns();
          ok[(i + 1) & 1] = net::decode_frame_into(frames.view(i + 1), next);
          obs_.stage_decode->record(static_cast<std::int64_t>(reg->now_ns() - t0));
        }
      }
      if (!timed_decode) ok[(i + 1) & 1] = net::decode_frame_into(frames.view(i + 1), next);
      if (ok[(i + 1) & 1] && next.ip.transport() != core::TransportProto::kOther) {
        table_.prefetch_flow(next.five_tuple());
      }
    }
    if constexpr (requires { frames.seq(i); }) table_.set_next_ingest_seq(frames.seq(i));
    if (!prepare_frame(frames.view(i))) continue;
    if (!decoded) {
      ++counters_.decode_failures;
      continue;
    }
    process(packet);
  }
  at = end;
}

void Probe::process(const net::DecodedPacket& packet) {
  if constexpr (obs::kEnabled) {
    if (--obs_.until_stage_sample == 0) {
      obs_.until_stage_sample = kStageSampleStride;
      process_impl<true>(packet);
      return;
    }
  }
  process_impl<false>(packet);
}

template <bool Timed>
void Probe::process_impl(const net::DecodedPacket& packet) {
  [[maybe_unused]] obs::Registry* reg = nullptr;
  [[maybe_unused]] std::uint64_t t0 = 0;
  if constexpr (Timed) {
    reg = &obs::Registry::global();
    t0 = reg->now_ns();
  }

  // DNS responses travelling towards a customer feed DN-Hunter. The flow
  // itself is still accounted for like any other UDP flow below.
  if (packet.udp && packet.udp->src_port == 53 &&
      anonymizer_.is_customer(packet.ip.dst) && !packet.payload.empty()) {
    if (dns::parse_into(packet.payload, dns_scratch_) && dns_scratch_.ok_response()) {
      dnhunter_.observe_response(packet.ip.dst, dns_scratch_, packet.timestamp);
      ++counters_.dns_responses;
    }
  }
  if constexpr (Timed) {
    const std::uint64_t t1 = reg->now_ns();
    obs_.stage_dnhunter->record(static_cast<std::int64_t>(t1 - t0));
    t0 = t1;
  }

  flow::FlowState* state = table_.ingest(packet);
  if (state != nullptr && !state->dns_checked) {
    state->dns_checked = true;
    // The flow's first packet: remember what the client resolved for this
    // server right before opening the connection.
    if (anonymizer_.is_customer(state->record.client_ip)) {
      if (auto name = dnhunter_.lookup(state->record.client_ip, state->record.server_ip,
                                       packet.timestamp)) {
        state->dns_hint = *name;  // view into the hunter's interning pool
      }
    }
  }
  table_.advance(packet.timestamp);
  if constexpr (Timed) {
    obs_.stage_flow->record(static_cast<std::int64_t>(reg->now_ns() - t0));
  }
}

void Probe::finish() {
  table_.flush(flow::FlowCloseReason::kProbeFlush);
  obs_flush();
}

void Probe::begin_outage() {
  if (!online_) return;
  online_ = false;
  // Hardware failure: in-flight state is lost, not exported — records
  // flushed while muted never reach the sink or the export counters.
  muted_ = true;
  table_.flush(flow::FlowCloseReason::kProbeFlush);
  muted_ = false;
  dnhunter_.clear();
}

void Probe::end_outage() { online_ = true; }

void Probe::set_classifier_options(dpi::ClassifierOptions options) {
  table_.set_classifier_options(options);
}

void Probe::on_export(flow::FlowRecord&& record) {
  if (muted_) return;
  const auto do_export = [&] {
    record.access = access_tech(record.client_ip);  // before anonymization
    record.client_ip = anonymizer_.apply(record.client_ip);
    ++counters_.records_exported;
    if (record.name_source == flow::NameSource::kDnsHunter) ++counters_.records_named_by_dns;
    if (sink_) sink_(std::move(record));
  };
  if constexpr (obs::kEnabled) {
    if (counters_.records_exported % kExportSampleStride == 0) {
      auto& reg = obs::Registry::global();
      const std::uint64_t t0 = reg.now_ns();
      do_export();
      obs_.stage_export->record(static_cast<std::int64_t>(reg.now_ns() - t0));
      return;
    }
  }
  do_export();
}

}  // namespace edgewatch::probe
