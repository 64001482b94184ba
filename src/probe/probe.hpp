// The passive probe (paper §2.1, Fig. 1): one instance per monitored PoP
// link. Frames go through L2-L4 decode, the flow table, DPI, DNS
// observation (DN-Hunter), and finished flows are exported as FlowRecords
// with the customer address anonymized and the access technology attached.
//
// The probe also models two operational realities of §2.3:
//  - outages: while offline, traffic is simply not observed (and state
//    accumulated before a hardware failure is lost, not exported);
//  - software versions: the DPI capabilities change over time (events C/F),
//    configurable via set_classifier_options().
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "anon/anonymizer.hpp"
#include "core/result.hpp"
#include "core/types.hpp"
#include "dns/dnhunter.hpp"
#include "flow/table.hpp"
#include "net/packet.hpp"
#include "obs/obs.hpp"
#include "probe/frame_batch.hpp"

namespace edgewatch::core {
class ByteWriter;
class ByteReader;
}  // namespace edgewatch::core

namespace edgewatch::probe {

struct ProbeConfig {
  /// Customer address space: the side of each flow that gets anonymized
  /// and is attributed to a subscription.
  core::IPv4Prefix customer_net{core::IPv4Address{10, 0, 0, 0}, 8};
  /// ADSL vs FTTH split inside the customer net (per-line technology).
  core::IPv4Prefix ftth_net{core::IPv4Address{10, 128, 0, 0}, 9};
  core::SipKey anon_key{0x5eedf00ddeadbeefull, 0x0123456789abcdefull};
  flow::FlowTableConfig flow;
  dns::DnHunterConfig dnhunter;
};

class Probe {
 public:
  using RecordSink = std::function<void(flow::FlowRecord&&)>;

  Probe(ProbeConfig config, RecordSink sink);
  /// Withdraws this probe's share of the DN-Hunter gauges.
  ~Probe();

  /// Feed one captured frame (decode failures are counted, not fatal).
  void process(const net::FrameView& frame);

  /// Feed a batch of captured frames, in order. Exactly equivalent to
  /// calling process(frame) on each — decode is a pure function — but
  /// software-pipelined: the next frame's buffer is prefetched and decoded,
  /// and its flow-table slot warmed, while the current packet runs the flow
  /// state machine. This overlaps the per-frame DRAM fetches (the replay
  /// loop's dominant stall) with useful work.
  void process(std::span<const net::Frame> frames);

  /// The sharded probe's shard worker: frames [begin, end) of `batch`
  /// through the same pipelined loop. A flow a frame creates takes the
  /// frame's batch seq as its ingest_seq (FlowTable::set_next_ingest_seq),
  /// a probe-global frame sequence that makes the merged export order
  /// independent of the shard count. `at` is the frame in hand: if a frame
  /// throws, it names that frame; on return it equals `end`.
  void replay(const FrameBatch& batch, std::size_t begin, std::size_t end, std::size_t& at);

  /// Flush all open flows (end of trace / graceful shutdown).
  void finish();

  /// Hardware outage: the probe stops seeing traffic and loses its state
  /// *without* exporting it (the paper's "missing data" periods).
  void begin_outage();
  void end_outage();
  [[nodiscard]] bool online() const noexcept { return online_; }

  /// Probe software upgrade (paper events C/F change what DPI can label).
  void set_classifier_options(dpi::ClassifierOptions options);

  /// Planned-maintenance checkpoint (implemented in checkpoint.cpp): write
  /// the live flow table, DN-Hunter caches and counters to `path` so a
  /// restart can resume without the state loss of begin_outage(). The file
  /// is CRC-protected; returns bytes written.
  core::Result<std::uint64_t> save_checkpoint(const std::filesystem::path& path) const;
  /// Replace this probe's state with a saved checkpoint. On any error the
  /// probe is left reset (empty tables, zero counters) rather than
  /// half-restored. Only the current EWCP version is read; an older image
  /// is kBadVersion.
  core::Result<void> restore_checkpoint(const std::filesystem::path& path);

  /// The same CRC-protected EWCP image save_checkpoint() writes, but in
  /// memory: the sharded pipeline's supervision layer snapshots every shard
  /// through this (per-shard blobs ride inside one pipeline checkpoint
  /// file) and the poison-frame watchdog restores a shard from its last
  /// good in-memory image without touching the filesystem.
  [[nodiscard]] std::vector<std::byte> checkpoint_image() const;
  /// Inverse of checkpoint_image(); same failure contract as
  /// restore_checkpoint (on error the probe is reset, never half-restored).
  core::Result<void> restore_image(std::span<const std::byte> image);

  struct Counters {
    std::uint64_t frames = 0;
    std::uint64_t decode_failures = 0;
    std::uint64_t ipv6_frames = 0;  ///< Seen and counted, not flow-tracked.
    std::uint64_t dropped_offline = 0;
    std::uint64_t dns_responses = 0;
    std::uint64_t records_exported = 0;
    std::uint64_t records_named_by_dns = 0;
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] const dns::DnHunter& dnhunter() const noexcept { return dnhunter_; }
  [[nodiscard]] const flow::FlowTable& table() const noexcept { return table_; }

  /// Access technology for a (real, pre-anonymization) customer address.
  [[nodiscard]] flow::AccessTech access_tech(core::IPv4Address customer) const noexcept {
    return config_.ftth_net.contains(customer) ? flow::AccessTech::kFtth
                                               : flow::AccessTech::kAdsl;
  }

 private:
  void on_export(flow::FlowRecord&& record);

  /// Flow tracking for a frame prepare_frame() admitted and that decoded.
  void process(const net::DecodedPacket& packet);

  /// The one replay loop behind process(span) and replay(): frames
  /// [begin, end) of `frames`, which gives `view(i)` and, when the stream
  /// carries ingest seqs, `seq(i)`. `at` tracks the frame in hand.
  template <typename Frames>
  void replay_frames(const Frames& frames, std::size_t begin, std::size_t end, std::size_t& at);

  /// Shared per-packet body; Timed adds the sampled stage clocks (only
  /// taken 1 frame in 1024, so the steady_clock reads never show up in
  /// the per-frame budget).
  template <bool Timed>
  void process_impl(const net::DecodedPacket& packet);

  /// Push counters_ growth since the last flush into the global registry
  /// (batch boundaries and finish() — the hot loop touches no atomics).
  void obs_flush() noexcept;

  /// Checkpoint payload codec shared by the file and in-memory paths
  /// (checkpoint.cpp).
  void encode_checkpoint_payload(core::ByteWriter& payload) const;
  core::Result<void> decode_checkpoint_payload(core::ByteReader& r);
  /// Empty tables and zero counters: what a failed restore leaves.
  void reset_state();

  /// The one admission gate for a frame, shared by the single-frame and
  /// pipelined paths: online check, frame counter, IPv6 triage. True if
  /// the frame should proceed to flow tracking. The probe samples nothing
  /// (§2.1: "no traffic sampling is performed"): every frame it admits is
  /// tracked.
  bool prepare_frame(const net::FrameView& frame);

  /// Named export callable for the flow table's non-owning FunctionRef
  /// sink. Declared before table_ so it outlives every export. A probe is
  /// consequently not movable (the table holds a reference into it) —
  /// which was already true of the old self-capturing lambda.
  struct TableSink {
    Probe* probe;
    void operator()(flow::FlowRecord&& record) const { probe->on_export(std::move(record)); }
  };

  ProbeConfig config_;
  RecordSink sink_;
  anon::CustomerAnonymizer anonymizer_;
  dns::DnHunter dnhunter_;
  /// Every DNS response parses into this one message, so its vectors and
  /// strings are reused instead of allocated per response.
  dns::Message dns_scratch_;
  TableSink table_sink_{this};
  flow::FlowTable table_;
  bool online_ = true;
  bool muted_ = false;  ///< Discard exports (outage-time state loss).
  Counters counters_;

  /// obs:: wiring, resolved once at construction. Counters mirror
  /// counters_ via saturating delta flush (a checkpoint restore may move
  /// counters_ backwards; the registry stays monotonic). Stage histograms
  /// are fed by sampled clocks — see kStageSampleStride.
  /// Time the decode, DN-Hunter and flow-table stages on one packet in
  /// 1021. The stride is prime, so the samples cannot line up with the
  /// power-of-two counts at which the flow index, the slab or a buffer grows.
  static constexpr std::uint64_t kStageSampleStride = 1021;
  /// Time one export in 61. The stride is odd, so the samples cannot all
  /// land on the power-of-two record counts at which a sink's buffer grows.
  static constexpr std::uint64_t kExportSampleStride = 61;
  struct ObsHooks {
    obs::Counter* frames = nullptr;
    obs::Counter* decode_failures = nullptr;
    obs::Counter* ipv6_frames = nullptr;
    obs::Counter* dropped_offline = nullptr;
    obs::Counter* dns_responses = nullptr;
    obs::Counter* records_exported = nullptr;
    obs::Counter* records_named_by_dns = nullptr;
    // DN-Hunter explain layer: counters mirror DnHunter::Counters, gauges
    // sum every live probe's cache (each probe adds its own change).
    obs::Counter* dnhunter_hits = nullptr;
    obs::Counter* dnhunter_misses = nullptr;
    obs::Counter* dnhunter_expired = nullptr;
    obs::Counter* dnhunter_evictions = nullptr;
    obs::Gauge* dnhunter_entries = nullptr;
    obs::Gauge* dnhunter_clients = nullptr;
    obs::Gauge* dnhunter_free_slots = nullptr;
    obs::Histogram* stage_decode = nullptr;
    obs::Histogram* stage_flow = nullptr;
    obs::Histogram* stage_dnhunter = nullptr;
    obs::Histogram* stage_export = nullptr;
    obs::SpanSite* batch = nullptr;
    Counters flushed;          ///< counters_ values already in the registry
    dns::DnHunter::Counters dnhunter_flushed;
    std::int64_t entries_published = 0;  ///< this probe's share of each gauge
    std::int64_t clients_published = 0;
    std::int64_t free_slots_published = 0;
    std::uint64_t until_stage_sample = kStageSampleStride;  ///< packets to the next timed one
  };
  ObsHooks obs_;
};

}  // namespace edgewatch::probe
