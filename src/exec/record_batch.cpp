#include "exec/record_batch.hpp"

#include <array>

#include "obs/obs.hpp"

namespace edgewatch::exec {

namespace {

/// Scan-shape instrumentation, resolved lazily against the process-global
/// registry (same pattern as the lake/aggregate metrics).
struct ExecObs {
  obs::Counter* batches;
  obs::Histogram* batch_rows;
  obs::Counter* rows_passthrough;
  obs::Counter* rows_materialized;
};

ExecObs& exec_obs() {
  static ExecObs m = [] {
    auto& reg = obs::Registry::global();
    // Lake blocks hold at most DataLake::kBlockRecords (4096) rows; the
    // buckets resolve "mostly full blocks" from "selective-scan slivers".
    static constexpr std::array<std::int64_t, 6> kRowBounds{16, 64, 256, 1024, 2048, 4096};
    return ExecObs{
        &reg.counter("exec_batches_total"),
        &reg.histogram("exec_batch_rows", kRowBounds),
        &reg.counter("exec_rows_dict_passthrough_total"),
        &reg.counter("exec_rows_materialized_total"),
    };
  }();
  return m;
}

}  // namespace

void note_batch_delivered(const RecordBatch& batch) {
  if constexpr (obs::kEnabled) {
    auto& m = exec_obs();
    const auto delivered = static_cast<std::int64_t>(batch.delivered_rows());
    m.batches->add(1);
    m.batch_rows->record(delivered);
    m.rows_passthrough->add(static_cast<std::uint64_t>(delivered));
  }
}

namespace {

/// The emit tail shared by every projection instantiation. `wantp` is a
/// projection test the preset dispatch below folds to compile-time
/// constants, leaving the per-row loop with no projection branches at all.
template <typename WantP>
void materialize_impl(const RecordBatch& b, flow::FlowRecord& rec,
                      core::FunctionRef<void(const flow::FlowRecord&)> fn,
                      std::uint64_t& records_delivered, WantP wantp) {
  const bool wrtt = wantp(scan_fields::kRttMin | scan_fields::kRttSpread);
  // Unprojected fields are value-initialized once per batch: the record
  // object carries state between rows and batches, so stale values must be
  // cleared, but clearing per row would charge every scan for fields nobody
  // asked for.
  if (!wantp(scan_fields::kLastPacket)) rec.last_packet = core::Timestamp{};
  if (!wantp(scan_fields::kClientIp)) rec.client_ip = core::IPv4Address{};
  if (!wantp(scan_fields::kClientPort)) rec.client_port = 0;
  if (!wantp(scan_fields::kServerPort)) rec.server_port = 0;
  if (!wantp(scan_fields::kAccess)) rec.access = flow::AccessTech{};
  if (!wantp(scan_fields::kCloseState)) {
    rec.handshake_completed = false;
    rec.close_reason = flow::FlowCloseReason{};
  }
  if (!wantp(scan_fields::kUpPackets)) rec.up.packets = 0;
  if (!wantp(scan_fields::kUpBytes)) rec.up.bytes = 0;
  if (!wantp(scan_fields::kUpWireBytes)) rec.up.bytes_with_hdr = 0;
  if (!wantp(scan_fields::kUpQuality)) rec.up.retransmits = rec.up.out_of_order = 0;
  if (!wantp(scan_fields::kDownPackets)) rec.down.packets = 0;
  if (!wantp(scan_fields::kDownBytes)) rec.down.bytes = 0;
  if (!wantp(scan_fields::kDownWireBytes)) rec.down.bytes_with_hdr = 0;
  if (!wantp(scan_fields::kDownQuality)) rec.down.retransmits = rec.down.out_of_order = 0;
  if (!wrtt) rec.rtt = flow::RttStats{};
  if (!wantp(scan_fields::kRttSpread)) {
    rec.rtt.max_us = 0;
    rec.rtt.avg_us = 0;
  }
  if (!wantp(scan_fields::kL7)) rec.l7 = dpi::L7Protocol{};
  if (!wantp(scan_fields::kWeb)) rec.web = dpi::WebProtocol{};
  if (!wantp(scan_fields::kNameSource)) rec.name_source = flow::NameSource{};
  if (!wantp(scan_fields::kServerName)) rec.server_name.clear();
  if (!wantp(scan_fields::kHttpStatus)) rec.http_status = 0;
  if (!wantp(scan_fields::kContentType)) rec.content_type.clear();
  rec.ingest_seq = 0;  // not stored in the lake; always zero on the scan path

  // The dictionary columns repeat heavily (one hostname serves many flows),
  // so a string is only re-assigned when the row's dict index differs from
  // the previously emitted row's. Sentinels reset per batch: a new batch
  // means a new dictionary, so index equality across batches proves nothing.
  std::uint32_t last_name_idx = 0xffffffffu;
  std::uint32_t last_ct_idx = 0xffffffffu;
  b.for_each_row([&](std::size_t i) {
    if (wantp(scan_fields::kClientIp)) rec.client_ip = core::IPv4Address{b.cip[i]};
    rec.server_ip = core::IPv4Address{b.sip[i]};
    if (wantp(scan_fields::kClientPort)) rec.client_port = b.cport[i];
    if (wantp(scan_fields::kServerPort)) rec.server_port = b.sport[i];
    rec.proto = static_cast<core::TransportProto>(b.proto[i]);
    if (wantp(scan_fields::kAccess)) rec.access = static_cast<flow::AccessTech>(b.access[i]);
    rec.first_packet = core::Timestamp{b.ts[i]};
    if (wantp(scan_fields::kLastPacket)) rec.last_packet = rec.first_packet + b.dur[i];
    if (wantp(scan_fields::kUpPackets)) rec.up.packets = b.up_pkts[i];
    if (wantp(scan_fields::kUpBytes)) rec.up.bytes = b.up_bytes[i];
    if (wantp(scan_fields::kUpWireBytes)) rec.up.bytes_with_hdr = b.up_hdr[i];
    if (wantp(scan_fields::kUpQuality)) {
      rec.up.retransmits = static_cast<std::uint32_t>(b.up_retx[i]);
      rec.up.out_of_order = static_cast<std::uint32_t>(b.up_ooo[i]);
    }
    if (wantp(scan_fields::kDownPackets)) rec.down.packets = b.dn_pkts[i];
    if (wantp(scan_fields::kDownBytes)) rec.down.bytes = b.dn_bytes[i];
    if (wantp(scan_fields::kDownWireBytes)) rec.down.bytes_with_hdr = b.dn_hdr[i];
    if (wantp(scan_fields::kDownQuality)) {
      rec.down.retransmits = static_cast<std::uint32_t>(b.dn_retx[i]);
      rec.down.out_of_order = static_cast<std::uint32_t>(b.dn_ooo[i]);
    }
    if (wantp(scan_fields::kCloseState)) {
      rec.handshake_completed = (b.flags[i] & 1) != 0;
      rec.close_reason = static_cast<flow::FlowCloseReason>(b.flags[i] >> 1);
    }
    if (wrtt) {
      rec.rtt.samples = static_cast<std::uint32_t>(b.rtt_samples[i]);
      rec.rtt.min_us = b.rtt_min_us[i];
      if (wantp(scan_fields::kRttSpread)) {
        rec.rtt.max_us = b.rtt_max_us[i];
        rec.rtt.avg_us = b.rtt_avg_us[i];
      }
    }
    if (wantp(scan_fields::kL7)) rec.l7 = static_cast<dpi::L7Protocol>(b.l7[i]);
    if (wantp(scan_fields::kWeb)) rec.web = static_cast<dpi::WebProtocol>(b.web[i]);
    if (wantp(scan_fields::kNameSource)) {
      rec.name_source = static_cast<flow::NameSource>(b.name_source[i]);
    }
    if (wantp(scan_fields::kServerName) && b.name_idx[i] != last_name_idx) {
      last_name_idx = b.name_idx[i];
      rec.server_name.assign(b.name_dict[last_name_idx]);
    }
    if (wantp(scan_fields::kHttpStatus)) {
      rec.http_status = static_cast<std::uint16_t>(b.http_status[i]);
    }
    if (wantp(scan_fields::kContentType) && b.ct_idx[i] != last_ct_idx) {
      last_ct_idx = b.ct_idx[i];
      rec.content_type.assign(b.ct_dict[last_ct_idx]);
    }
    fn(rec);
    ++records_delivered;
  });
}

}  // namespace

void materialize_rows(const RecordBatch& batch, flow::FlowRecord& rec,
                      core::FunctionRef<void(const flow::FlowRecord&)> fn,
                      std::uint64_t& records_delivered) {
  if (batch.empty()) return;
  if constexpr (obs::kEnabled) {
    exec_obs().rows_materialized->add(static_cast<std::uint64_t>(batch.delivered_rows()));
  }
  if (batch.fields == scan_fields::kAll) {
    materialize_impl(batch, rec, fn, records_delivered, [](std::uint32_t) { return true; });
  } else if (batch.fields == scan_fields::kDayAggregate) {
    materialize_impl(batch, rec, fn, records_delivered,
                     [](std::uint32_t bit) { return (scan_fields::kDayAggregate & bit) != 0; });
  } else {
    const std::uint32_t fields = batch.fields;
    materialize_impl(batch, rec, fn, records_delivered,
                     [fields](std::uint32_t bit) { return (fields & bit) != 0; });
  }
}

}  // namespace edgewatch::exec
