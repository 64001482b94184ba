// The probe's flow table: groups packets into bidirectional TCP/UDP flows,
// runs the TCP state machine, feeds the RTT estimator, and expires entries
// (paper §2.1 footnote 1: "streams are expired either by the observation of
// particular packets (e.g., TCP packets with RST flag set) or by timeouts").
//
// Expiry uses an amortized checkpoint queue: every insertion/update pushes
// (key, last_seen) onto a FIFO; advance() pops entries whose checkpoint
// passed the timeout and re-checks the live flow before evicting, giving
// O(1) amortized maintenance without timers.
//
// Storage is split in two: a small hash index maps each flow key to a
// 4-byte slot number, and the FlowStates live in a slab of fixed-size
// chunks that never move. Growing the index moves slot numbers, never a
// state, and a new flow takes the most recently freed slot (or the next
// unused one), so the live states stay packed in roughly arrival order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/block_queue.hpp"
#include "core/flat_hash_map.hpp"
#include "core/function_ref.hpp"
#include "core/time.hpp"
#include "core/types.hpp"
#include "dpi/classifier.hpp"
#include "flow/record.hpp"
#include "flow/rtt.hpp"
#include "net/packet.hpp"
#include "obs/obs.hpp"

namespace edgewatch::flow {

/// Expiry and memory bounds. The table sizes its index and slab from the
/// flows it sees; nothing is reserved up front.
struct FlowTableConfig {
  /// A flow silent this long is exported with close reason kIdleTimeout.
  std::int64_t tcp_idle_timeout_us = 300 * core::Timestamp::kMicrosPerSecond;
  std::int64_t udp_idle_timeout_us = 120 * core::Timestamp::kMicrosPerSecond;
  /// Grace period after FIN/RST before the entry is reaped, so stray
  /// retransmissions do not resurrect the flow as a new record.
  std::int64_t closed_linger_us = 5 * core::Timestamp::kMicrosPerSecond;
  /// Hard cap on concurrent flows; above it, the oldest-checkpoint flows
  /// are force-expired as idle (probes must bound memory). Their slab slots
  /// are reused by the next new flows.
  std::size_t max_flows = 1'000'000;
  /// Per-flow DPI reassembly budget: how many client-stream bytes may be
  /// buffered while waiting for a split first-flight to complete.
  std::size_t dpi_buffer_limit = 8192;
  dpi::ClassifierOptions classifier;
};

/// Live per-flow state. The embedded record accumulates as packets arrive.
///
/// Member order is the hot path's memory layout: the fields every TCP
/// packet reads or writes sit first, on the state's first cache line in the
/// table's slab (the key stays in the index, on a line of its own). Colder
/// members (DPI buffer, RTT queue) sink to the tail.
struct FlowState {
  // TCP sequence tracking for anomaly counters (ref [29]): next expected
  // sequence number per direction, valid once the first segment is seen.
  std::uint32_t next_seq_client = 0;
  std::uint32_t next_seq_server = 0;
  bool seq_valid_client = false;
  bool seq_valid_server = false;

  // TCP bookkeeping.
  bool syn_seen = false;
  bool synack_seen = false;
  bool fin_client = false;
  bool fin_server = false;
  bool closed = false;

  bool dpi_done = false;
  bool server_dpi_done = false;  ///< ServerHello (negotiated ALPN) examined.
  bool dns_checked = false;

  FlowRecord record;
  core::Timestamp closed_at;

  /// DN-Hunter name captured at flow start by the probe; applied at export
  /// only if DPI found no hostname in the payload itself (paper §2.1). A
  /// view into the DN-Hunter's interning pool — not owned. The probe only
  /// clears that pool after flushing the table, so the view cannot dangle.
  std::string_view dns_hint;

  /// Client-payload reassembly buffer for DPI: a TLS ClientHello often
  /// spans TCP segments; the probe buffers the first bytes of the client
  /// stream until a classification succeeds or the budget is exhausted.
  std::vector<std::byte> dpi_buffer;

  RttEstimator rtt;
};

/// Heterogeneous probe key for the flow map: matches a stored flow no
/// matter which direction the packet travelled. Only meaningful together
/// with FlowKeyHash, which makes the two orientations hash identically.
struct EitherOrientation {
  core::FiveTuple as_sent;

  friend bool operator==(const core::FiveTuple& stored, const EitherOrientation& k) noexcept {
    return stored == k.as_sent || stored == k.as_sent.reversed();
  }
};

/// Orientation-insensitive flow-key hash: a tuple and its reversed twin
/// hash identically (the endpoints are combined commutatively before the
/// keyed multiply-mix), so ingest resolves a packet to its flow with ONE
/// probe sequence instead of a find(as_sent) + find(reversed) pair. The two
/// orientations can never coexist as distinct flows — ingest checks both
/// before inserting — so matching either is unambiguous.
struct FlowKeyHash {
  /// Fully mixed result; FlatHashMap skips its own finalizer.
  using is_avalanching = void;

  [[nodiscard]] std::size_t operator()(const core::FiveTuple& t) const noexcept {
    const std::uint64_t a = (std::uint64_t{t.src_ip.value()} << 16) | t.src_port;
    const std::uint64_t b = (std::uint64_t{t.dst_ip.value()} << 16) | t.dst_port;
    // (a+b, a^b) identifies the unordered endpoint pair; fold the protocol
    // into the odd word so TCP/UDP flows between the same endpoints split.
    const std::uint64_t x = (a + b) ^ 0x9e3779b97f4a7c15ull;
    const std::uint64_t y = (a ^ b) ^ (static_cast<std::uint64_t>(t.proto) << 56) ^
                            0xe7037ed1a0b428dbull;
    __extension__ using uint128 = unsigned __int128;
    const auto m = static_cast<uint128>(x) * y;
    return static_cast<std::size_t>(static_cast<std::uint64_t>(m) ^
                                    static_cast<std::uint64_t>(m >> 64));
  }
  [[nodiscard]] std::size_t operator()(const EitherOrientation& k) const noexcept {
    return (*this)(k.as_sent);
  }
};

class FlowTable {
 public:
  /// Non-owning: the probe exports one record per finished flow at line
  /// rate, so the sink is a FunctionRef (single indirect call, no owning
  /// type erasure on the hot path). The referenced callable must outlive
  /// the table — bind a named object, not a temporary lambda; temporaries
  /// are rejected at compile time.
  using ExportSink = core::FunctionRef<void(FlowRecord&&)>;

  explicit FlowTable(FlowTableConfig config, ExportSink sink)
      : config_(config), sink_(sink) {
    dpi_classify_ns_ = &obs::Registry::global().histogram("dpi_classify_ns");
  }

  /// Feed one decoded packet. Returns the flow state the packet landed in
  /// (nullptr for non-TCP/UDP packets). `is_from_client` in the state is
  /// derived from who sent the first packet (or the SYN).
  FlowState* ingest(const net::DecodedPacket& pkt);

  /// Warm the cache lines the next ingest() of this packet would probe in
  /// the index (control group + primary slot). Pure hint, no observable
  /// effect; used by the probe's pipelined replay to overlap the index
  /// fetch with the previous packet's state machine.
  void prefetch_flow(const core::FiveTuple& as_sent) const noexcept {
    flows_.prefetch(EitherOrientation{as_sent});
  }

  /// Advance time: expire idle and lingering-closed flows with
  /// last-activity before `now - timeout`. Call with each packet timestamp
  /// (the probe has no other clock).
  void advance(core::Timestamp now);

  /// Export everything still open (probe shutdown / end of trace), in
  /// ingest_seq order. If the sink throws, the flows already handed to it
  /// (the throwing one included) are gone and the rest stay live, so a
  /// second flush exports each remaining flow once.
  void flush(FlowCloseReason reason = FlowCloseReason::kProbeFlush);

  [[nodiscard]] std::size_t active_flows() const noexcept { return flows_.size(); }

  /// Probe software upgrade: affects flows classified from now on.
  void set_classifier_options(dpi::ClassifierOptions options) noexcept {
    config_.classifier = options;
  }

  /// Set the arrival index stamped into the NEXT created flow's
  /// `record.ingest_seq`. Left alone, the table counts its own ingested
  /// packets; a sharded probe overrides it before every packet with a
  /// probe-global sequence so the tag is independent of how flows were
  /// partitioned across shards.
  void set_next_ingest_seq(std::uint64_t seq) noexcept { next_ingest_seq_ = seq; }
  [[nodiscard]] std::uint64_t next_ingest_seq() const noexcept { return next_ingest_seq_; }

  struct Counters {
    std::uint64_t packets = 0;
    std::uint64_t flows_created = 0;
    std::uint64_t flows_exported = 0;
    std::uint64_t expired_idle = 0;
    std::uint64_t closed_teardown = 0;
    std::uint64_t closed_reset = 0;
    std::uint64_t forced_evictions = 0;
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  // Checkpoint/restore support (probe crash recovery). A checkpoint is
  // the set of live flows plus the counters; the expiry FIFO is rebuilt on
  // restore from each flow's last-activity time.
  /// Visits the live flows in index order.
  void for_each_flow(
      const std::function<void(const core::FiveTuple&, const FlowState&)>& fn) const {
    for (const auto& [key, slot] : flows_) fn(key, state_at(slot));
  }
  /// Reinsert a flow saved by for_each_flow, re-arming its expiry
  /// checkpoint. Replaces any live flow under the same key.
  void restore_flow(const core::FiveTuple& key, FlowState state);
  void restore_counters(const Counters& counters) noexcept { counters_ = counters; }
  /// Call once after the last restore_flow: orders the rebuilt expiry FIFO
  /// by (last activity, ingest_seq) so timeout sweeps after a restore
  /// export flows in the same order an uninterrupted run would —
  /// independent of the hash-table iteration order the flows were saved in.
  void finalize_restore();
  /// Drop all live flows and counters without exporting anything.
  void reset();

 private:
  using FlowIndex = core::FlatHashMap<core::FiveTuple, std::uint32_t, FlowKeyHash>;

  struct Checkpoint {
    core::FiveTuple key;
    core::Timestamp seen;
  };

  /// States per slab chunk: 1,024 × ~320 B, so a chunk is a few hundred KB
  /// and a probe tracking tens of thousands of flows holds a few dozen.
  static constexpr unsigned kChunkBits = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  [[nodiscard]] FlowState& state_at(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  [[nodiscard]] const FlowState& state_at(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  /// A slot holding a default FlowState: the last one freed, else the next
  /// never-used one.
  std::uint32_t acquire_slot();
  /// Resets the slot's state (freeing its strings and buffers) and puts the
  /// slot on the free list.
  void release_slot(std::uint32_t slot) noexcept;
  /// Drops every state and chunk.
  void clear_slab() noexcept;

  void handle_tcp(FlowState& state, const net::DecodedPacket& pkt, bool from_client);
  void run_dpi(FlowState& state, const net::DecodedPacket& pkt, bool from_client);
  void run_server_dpi(FlowState& state, const net::DecodedPacket& pkt);
  /// Move the finished record out of `state`: the DN-Hunter hint fills an
  /// empty server_name, and a still-open flow gets `reason`.
  [[nodiscard]] static FlowRecord take_record(FlowState& state, FlowCloseReason reason);
  /// Exports the flow at `it` and removes it from the index and the slab.
  void export_flow(FlowIndex::iterator it, FlowCloseReason reason);
  [[nodiscard]] std::int64_t idle_timeout(core::TransportProto proto) const noexcept {
    return proto == core::TransportProto::kTcp ? config_.tcp_idle_timeout_us
                                               : config_.udp_idle_timeout_us;
  }

  FlowTableConfig config_;
  ExportSink sink_;
  // Flow key → slab slot. Keyed by the client→server orientation of the
  // first packet, hashed orientation-insensitively (FlowKeyHash) so a
  // packet from either side resolves in a single probe sequence. Open
  // addressing over 20-byte slots: one probe usually touches a single
  // cache line, and a rehash moves slot numbers, never states.
  FlowIndex flows_;
  // The slab: chunks of kChunkSize states, each reserved once and filled
  // in place, so a state never moves while its flow lives.
  std::vector<std::vector<FlowState>> chunks_;
  std::vector<std::uint32_t> free_slots_;  ///< LIFO: the warmest slot first
  core::BlockQueue<Checkpoint> checkpoints_;
  Counters counters_;
  std::uint64_t next_ingest_seq_ = 0;

  /// Sampled DPI-stage latency (1 classification in 64); DPI runs only on
  /// a flow's first payload-bearing packets, so the clock reads are far
  /// off the per-packet path. Not part of checkpoint state.
  obs::Histogram* dpi_classify_ns_ = nullptr;
  std::uint64_t dpi_obs_ticks_ = 0;
};

}  // namespace edgewatch::flow
