// Probe checkpoint/restore (planned maintenance, paper §2.3: probes were
// upgraded several times over the five years; a checkpoint lets a restart
// resume mid-day without the state loss of a hardware outage).
//
// File layout: "EWCP" | u8 version | u32le crc32c(payload) | u64le
// payload_len | payload. The payload serializes, in order: probe counters,
// online flag, flow-table counters and every live flow (key, the
// accumulated FlowRecord via the storage codec, TCP bookkeeping, DPI
// buffer, DN-Hunter hint, RTT estimator queue), then the DN-Hunter
// counters and cache entries in LRU order.
#include <cstring>
#include <fstream>

#include "core/bytes.hpp"
#include "core/hash.hpp"
#include "probe/probe.hpp"
#include "storage/codec.hpp"
#include "storage/io.hpp"

namespace edgewatch::probe {

namespace {

constexpr char kMagic[4] = {'E', 'W', 'C', 'P'};
// v2: +next_ingest_seq, +per-flow ingest_seq. v3: the packet-sampling
// counter is gone (the probe samples nothing). Only the current version
// is read.
constexpr std::uint8_t kVersion = 3;
constexpr std::size_t kFileHeaderSize = 4 + 1 + 4 + 8;
constexpr std::uint64_t kMaxPayload = 1ull << 32;

void put_ts(core::ByteWriter& w, core::Timestamp ts) {
  w.u64(static_cast<std::uint64_t>(ts.micros()));
}

core::Timestamp get_ts(core::ByteReader& r) {
  return core::Timestamp{static_cast<std::int64_t>(r.u64())};
}

void put_string(core::ByteWriter& w, std::string_view s) {
  storage::put_varint(w, s.size());
  w.string(s);
}

std::string get_string(core::ByteReader& r, std::size_t max_len) {
  const auto len = storage::get_varint(r);
  if (len > max_len) {
    r.fail();
    return {};
  }
  return std::string(r.string(static_cast<std::size_t>(len)));
}

/// The payload of a well-formed image of the current version, or why the
/// image is not one.
core::Result<std::span<const std::byte>> image_payload(std::span<const std::byte> data) {
  if (data.size() < kFileHeaderSize) return core::Errc::kTruncated;
  if (std::memcmp(data.data(), kMagic, 4) != 0) return core::Errc::kBadMagic;
  if (std::to_integer<std::uint8_t>(data[4]) != kVersion) return core::Errc::kBadVersion;
  core::ByteReader header{data.subspan(5, 12)};
  const std::uint32_t crc = header.u32le();
  const std::uint64_t payload_len = header.u64le();
  if (payload_len > kMaxPayload || kFileHeaderSize + payload_len != data.size()) {
    return core::Errc::kTruncated;
  }
  const auto payload = data.subspan(kFileHeaderSize);
  if (core::crc32c(payload) != crc) return core::Errc::kCorrupt;
  return payload;
}

}  // namespace

void Probe::encode_checkpoint_payload(core::ByteWriter& payload) const {
  payload.u64(counters_.frames);
  payload.u64(counters_.decode_failures);
  payload.u64(counters_.ipv6_frames);
  payload.u64(counters_.dropped_offline);
  payload.u64(counters_.dns_responses);
  payload.u64(counters_.records_exported);
  payload.u64(counters_.records_named_by_dns);
  payload.u8(online_ ? 1 : 0);

  const auto& tc = table_.counters();
  payload.u64(tc.packets);
  payload.u64(tc.flows_created);
  payload.u64(tc.flows_exported);
  payload.u64(tc.expired_idle);
  payload.u64(tc.closed_teardown);
  payload.u64(tc.closed_reset);
  payload.u64(tc.forced_evictions);
  payload.u64(table_.next_ingest_seq());

  payload.u64(table_.active_flows());
  table_.for_each_flow([&payload](const core::FiveTuple& key, const flow::FlowState& s) {
    payload.u32(key.src_ip.value());
    payload.u32(key.dst_ip.value());
    payload.u16(key.src_port);
    payload.u16(key.dst_port);
    payload.u8(static_cast<std::uint8_t>(key.proto));
    // The on-disk record codec drops ingest_seq (a live ordering tag, not
    // archive data); flush order depends on it, so the checkpoint keeps it.
    payload.u64(s.record.ingest_seq);
    storage::encode_record(s.record, payload);
    payload.u8(static_cast<std::uint8_t>(
        (s.syn_seen ? 1u : 0u) | (s.synack_seen ? 2u : 0u) | (s.fin_client ? 4u : 0u) |
        (s.fin_server ? 8u : 0u) | (s.closed ? 16u : 0u) | (s.dpi_done ? 32u : 0u) |
        (s.server_dpi_done ? 64u : 0u) | (s.dns_checked ? 128u : 0u)));
    payload.u8(static_cast<std::uint8_t>((s.seq_valid_client ? 1u : 0u) |
                                         (s.seq_valid_server ? 2u : 0u)));
    put_ts(payload, s.closed_at);
    payload.u32(s.next_seq_client);
    payload.u32(s.next_seq_server);
    storage::put_varint(payload, s.dpi_buffer.size());
    payload.bytes(s.dpi_buffer);
    put_string(payload, s.dns_hint);
    payload.u8(static_cast<std::uint8_t>(s.rtt.segments().size()));
    for (const auto& seg : s.rtt.segments()) {
      payload.u32(seg.seq_begin);
      payload.u32(seg.seq_end);
      put_ts(payload, seg.sent);
      payload.u8(seg.retransmitted ? 1 : 0);
    }
  });

  const auto& dc = dnhunter_.counters();
  payload.u64(dc.responses_ingested);
  payload.u64(dc.entries_inserted);
  payload.u64(dc.lru_evictions);
  payload.u64(dc.hits);
  payload.u64(dc.misses);
  payload.u64(dc.expired);

  payload.u64(dnhunter_.size());
  dnhunter_.for_each_entry([&payload](core::IPv4Address client, core::IPv4Address server,
                                      std::string_view name, core::Timestamp inserted) {
    payload.u32(client.value());
    payload.u32(server.value());
    put_ts(payload, inserted);
    put_string(payload, name);
  });
}

std::vector<std::byte> Probe::checkpoint_image() const {
  core::ByteWriter payload;
  encode_checkpoint_payload(payload);

  core::ByteWriter out;
  for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u8(kVersion);
  out.u32le(core::crc32c(payload.view()));
  out.u64le(payload.size());
  out.bytes(payload.view());
  const auto view = out.view();
  return {view.begin(), view.end()};
}

core::Result<std::uint64_t> Probe::save_checkpoint(const std::filesystem::path& path) const {
  const auto image = checkpoint_image();
  auto file = storage::make_posix_file();
  if (auto r = file->open_at(path, 0); !r) return r.error();
  if (auto r = file->write(image); !r) {
    (void)file->close();
    return r.error();
  }
  if (auto r = file->sync(); !r) {
    (void)file->close();
    return r.error();
  }
  if (auto r = file->close(); !r) return r.error();
  return static_cast<std::uint64_t>(image.size());
}

core::Result<void> Probe::restore_image(std::span<const std::byte> data) {
  const auto payload = image_payload(data);
  if (!payload) {
    reset_state();
    return payload.error();
  }
  core::ByteReader r{*payload};
  return decode_checkpoint_payload(r);
}

core::Result<void> Probe::restore_checkpoint(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    reset_state();
    return core::Errc::kNotFound;
  }
  std::vector<std::byte> data(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(data.size()))) {
    reset_state();
    return core::Errc::kIoError;
  }
  return restore_image(data);
}

void Probe::reset_state() {
  table_.reset();
  dnhunter_.clear();
  counters_ = Counters{};
}

core::Result<void> Probe::decode_checkpoint_payload(core::ByteReader& r) {
  // The CRC passed, so decoding should succeed; if it somehow does not,
  // leave the probe empty rather than half-restored.
  reset_state();
  const auto fail = [this] {
    reset_state();
    return core::Errc::kCorrupt;
  };

  Counters pc;
  pc.frames = r.u64();
  pc.decode_failures = r.u64();
  pc.ipv6_frames = r.u64();
  pc.dropped_offline = r.u64();
  pc.dns_responses = r.u64();
  pc.records_exported = r.u64();
  pc.records_named_by_dns = r.u64();
  const bool online = r.u8() != 0;

  flow::FlowTable::Counters tc;
  tc.packets = r.u64();
  tc.flows_created = r.u64();
  tc.flows_exported = r.u64();
  tc.expired_idle = r.u64();
  tc.closed_teardown = r.u64();
  tc.closed_reset = r.u64();
  tc.forced_evictions = r.u64();
  const std::uint64_t next_ingest_seq = r.u64();

  const std::uint64_t flow_count = r.u64();
  if (!r.ok()) return fail();
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    core::FiveTuple key;
    key.src_ip = core::IPv4Address{r.u32()};
    key.dst_ip = core::IPv4Address{r.u32()};
    key.src_port = r.u16();
    key.dst_port = r.u16();
    key.proto = static_cast<core::TransportProto>(r.u8());
    const std::uint64_t ingest_seq = r.u64();
    const auto record = storage::decode_record(r);
    if (!record) return fail();
    flow::FlowState state;
    state.record = *record;
    state.record.ingest_seq = ingest_seq;
    const std::uint8_t flags = r.u8();
    state.syn_seen = (flags & 1) != 0;
    state.synack_seen = (flags & 2) != 0;
    state.fin_client = (flags & 4) != 0;
    state.fin_server = (flags & 8) != 0;
    state.closed = (flags & 16) != 0;
    state.dpi_done = (flags & 32) != 0;
    state.server_dpi_done = (flags & 64) != 0;
    state.dns_checked = (flags & 128) != 0;
    const std::uint8_t flags2 = r.u8();
    state.seq_valid_client = (flags2 & 1) != 0;
    state.seq_valid_server = (flags2 & 2) != 0;
    state.closed_at = get_ts(r);
    state.next_seq_client = r.u32();
    state.next_seq_server = r.u32();
    const auto buffer_len = storage::get_varint(r);
    if (buffer_len > config_.flow.dpi_buffer_limit) return fail();
    const auto buffer = r.bytes(static_cast<std::size_t>(buffer_len));
    state.dpi_buffer.assign(buffer.begin(), buffer.end());
    // dns_hint is a view; repoint it at this process's interning pool.
    state.dns_hint = dnhunter_.intern_name(get_string(r, 4096));
    const std::uint8_t segment_count = r.u8();
    if (segment_count > flow::RttEstimator::kMaxOutstanding) return fail();
    for (std::uint8_t s = 0; s < segment_count; ++s) {
      flow::RttEstimator::Segment seg;
      seg.seq_begin = r.u32();
      seg.seq_end = r.u32();
      seg.sent = get_ts(r);
      seg.retransmitted = r.u8() != 0;
      state.rtt.restore_segment(seg);
    }
    if (!r.ok()) return fail();
    table_.restore_flow(key, std::move(state));
  }
  table_.restore_counters(tc);
  table_.set_next_ingest_seq(next_ingest_seq);
  table_.finalize_restore();

  dns::DnHunter::Counters dc;
  dc.responses_ingested = r.u64();
  dc.entries_inserted = r.u64();
  dc.lru_evictions = r.u64();
  dc.hits = r.u64();
  dc.misses = r.u64();
  dc.expired = r.u64();

  const std::uint64_t entry_count = r.u64();
  if (!r.ok()) return fail();
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    const auto client = core::IPv4Address{r.u32()};
    const auto server = core::IPv4Address{r.u32()};
    const auto inserted = get_ts(r);
    const auto name = get_string(r, 4096);
    if (!r.ok()) return fail();
    dnhunter_.restore_entry(client, server, name, inserted);
  }
  dnhunter_.restore_counters(dc);
  if (!r.ok() || r.remaining() != 0) return fail();

  counters_ = pc;
  online_ = online;
  return {};
}

}  // namespace edgewatch::probe
