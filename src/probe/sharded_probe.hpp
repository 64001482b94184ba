// Sharded parallel probe (ROADMAP: "runs as fast as the hardware allows").
// The paper scaled by running one probe process per PoP link (§2.1); this
// scales one link's software pipeline across cores by hashing the customer
// address into N independent Probe shards — each with its own flow table,
// DPI state and DN-Hunter cache — fed through bounded SPSC rings and
// drained by one worker thread per shard.
//
// Handoff: the feeder copies each frame's bytes into a per-shard staging
// batch, one byte arena plus a {timestamp, offset, length, seq} entry per
// frame (FrameBatch), and publishes a full batch with one ring push.
// Emptied batches travel back to the feeder over a second ring and keep
// their arenas, so steady-state feeding is one memcpy per frame, with no
// allocation. A partial batch is published early at every control event,
// barrier and finish(), so batching never moves a frame relative to them.
// try_ingest copies the same way but does not batch: each frame it accepts
// goes to the worker at once, in a batch of one. The bound is counted in
// frames, not batches: a shard holds at most queue_capacity frames that
// its worker has not finished, staged ones included.
//
// Replay: the worker runs each batch through Probe's software-pipelined
// loop (prefetch, decode-ahead, flow-slot warm-up) in runs: the whole
// batch, cut where a snapshot falls due, or one frame at a time when a
// frame_inspector must see each frame first. Room, the heartbeat and the
// quarantine all count frames: a run frees room for as many frames as it
// held, and a frame that throws is quarantined alone, the run resuming
// after it.
//
// Why the customer address is the shard key: every analytics dimension of
// the paper is per-subscription, and DN-Hunter's cache is per-client by
// construction (IMC'12: the name a *client* resolved right before opening
// *its* flow). Routing both the customer's flows and the DNS responses
// travelling to that customer onto the same shard preserves DN-Hunter's
// per-client semantics exactly — a shard sees the same packets for its
// clients that a single-threaded probe would, in the same order.
//
// Determinism: the feeder stamps every frame with a global arrival
// sequence number; the flow table records the stamp of the packet that
// created each flow in `FlowRecord::ingest_seq`. Because one packet
// creates at most one flow and every packet has exactly one global seq,
// the tag is unique per record and independent of the shard count.
// Each worker sorts its export buffer by that tag (after its flush, and at
// a snapshot barrier); finish() and snapshot() k-way merge the buffers,
// moving each record once. The result is a record stream (creation order)
// that is byte-identical for N = 1, 4, 8, … and equal, as a re-ordering,
// to the single-threaded probe's stream.
// Two documented exceptions, both absent from the paper's deployment:
// per-shard max_flows force-eviction can split flows differently than a single shared table once the aggregate
// cap is exceeded; and a flow whose idle deadline falls between its
// shard's last packet timestamp and the stream's may report kProbeFlush
// where the serial probe reports kIdleTimeout (each shard's clock only
// advances on its own packets).
//
// Supervision hooks (runtime::Supervisor, DESIGN §11): the feeder can
// probe ring occupancy (try_ingest + queue_depth) to drive overload-aware
// shedding, read per-shard heartbeats for stall detection, quarantine a
// frame whose processing throws (restoring the shard's probe from its last
// good in-memory checkpoint instead of killing the process), and run
// coordinated snapshot/restore barriers through the rings so a pipeline
// checkpoint captures every shard at exactly the same stream position.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/result.hpp"
#include "core/spsc_queue.hpp"
#include "flow/record.hpp"
#include "net/packet.hpp"
#include "probe/frame_batch.hpp"
#include "probe/probe.hpp"

namespace edgewatch::probe {

/// Thrown by a frame inspector (or anything reached from Probe::process)
/// to signal that the shard's probe state may be half-mutated and must be
/// rolled back to its last good snapshot, not merely skipped past. Any
/// other exception thrown *before* processing starts leaves the probe
/// untouched, so the worker only quarantines the frame.
struct StateSuspectError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ShardedProbeConfig {
  /// Template for every shard. `flow.max_flows` is divided across shards
  /// so the aggregate memory bound is unchanged.
  ProbeConfig probe;
  std::size_t shards = 4;
  /// Frames a shard holds — staged by the feeder or handed to the worker,
  /// and not yet processed — before ingest() blocks and try_ingest()
  /// refuses (backpressure keeps memory bounded when one shard falls
  /// behind). The ring carries batches of clamp(queue_capacity / 4, 1, 256)
  /// frames.
  std::size_t queue_capacity = 1024;

  /// Invoked on the worker thread for every frame, before it reaches the
  /// shard's probe. The hook where payload-touching extensions plug in —
  /// and where the chaos harness injects poison (throw) and stalls
  /// (block). May throw: a plain exception quarantines the frame (probe
  /// state untouched); StateSuspectError additionally restores the shard
  /// from its last snapshot. The view's bytes live in the shard's batch
  /// arena: they are valid for the duration of the call only. With an
  /// inspector installed, the worker replays one frame at a time.
  std::function<void(std::uint64_t seq, net::FrameView frame)> frame_inspector;
  /// Invoked on the worker thread when a frame is quarantined.
  /// `state_restored` tells whether the shard rolled back to a snapshot.
  /// The view is valid for the duration of the call only.
  std::function<void(std::uint64_t seq, net::FrameView frame, bool state_restored)> poison_sink;
  /// Worker-local frames between automatic probe snapshots (the "last good
  /// state" a poison rollback restores). 0 disables snapshots — a poison
  /// frame then resets the shard to empty.
  std::uint64_t snapshot_interval = 0;
};

/// Coordinated state capture of the whole sharded pipeline at one stream
/// position: the feeder's position, every shard's EWCP image, plus all
/// records exported so far (drained, merged in creation order). Taken via
/// ShardedProbe::snapshot().
struct PipelineSnapshot {
  std::uint64_t next_seq = 0;                       ///< First unassigned frame seq.
  std::vector<std::vector<std::byte>> shard_state;  ///< One EWCP image per shard.
  std::vector<flow::FlowRecord> records;            ///< Exported so far, by ingest_seq.
};

class ShardedProbe {
 public:
  explicit ShardedProbe(ShardedProbeConfig config);
  ~ShardedProbe();

  ShardedProbe(const ShardedProbe&) = delete;
  ShardedProbe& operator=(const ShardedProbe&) = delete;

  /// Feed one captured frame (single feeder thread). The bytes are copied
  /// into the owning shard's staging batch; the caller keeps its frame.
  /// Blocks while the shard holds queue_capacity frames.
  void ingest(const net::FrameView& frame);

  /// Non-blocking ingest for overload-aware feeders. On success the
  /// frame's bytes are copied into a batch arena, as ingest() copies them,
  /// and the frame takes the next sequence number: every accepted frame
  /// takes exactly one. False when the owning shard already holds
  /// queue_capacity frames: nothing is copied and no sequence number is
  /// consumed — the caller may retry, reroute or shed the frame. Either
  /// way the caller keeps its frame. Each accepted frame goes to the
  /// worker at once, as a batch of one: a non-blocking feeder keeps pace
  /// or sheds, and holding frames back would only idle the worker and
  /// understate the backlog.
  [[nodiscard]] bool try_ingest(const net::FrameView& frame);

  /// Control events ride the same rings as frames, so they take effect at
  /// exactly the same stream position on every shard (upgrade events C/F,
  /// outage windows of §2.3).
  void set_classifier_options(dpi::ClassifierOptions options);
  void begin_outage();
  void end_outage();

  /// Checkpoint barrier: wait for every shard to drain its ring, then
  /// capture each probe's state and hand over all exported records. After
  /// it returns, the pipeline keeps running — this is the supervisor's
  /// periodic pipeline checkpoint, not a shutdown.
  [[nodiscard]] PipelineSnapshot snapshot();

  /// Restore barrier: replace every shard's probe state with the given
  /// EWCP images (one per shard, from PipelineSnapshot::shard_state) and
  /// put the feeder back at `next_seq`. Must run before any frame is
  /// ingested. Fails with kUnsupported on a shard-count mismatch; a shard
  /// whose image fails to decode is left reset and reported.
  core::Result<void> restore(const std::vector<std::vector<std::byte>>& shard_state,
                             std::uint64_t next_seq);

  /// Drain every ring, flush every shard, join the workers, and return
  /// all exported records merged by `ingest_seq` (deterministic creation
  /// order, independent of the shard count). Idempotent; after the first
  /// call the probe accepts no more frames.
  [[nodiscard]] std::vector<flow::FlowRecord> finish();

  /// Simulated hard kill (chaos harness): stop the workers without
  /// flushing open flows or exporting anything — in-memory state dies
  /// exactly as it would with SIGKILL. Idempotent with finish().
  void abandon();

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// --- Observability for the supervision layer (any thread) ---
  /// Frames handed to shard `i`'s worker and not yet processed (staged
  /// frames not counted).
  [[nodiscard]] std::size_t queue_depth(std::size_t i) const noexcept;
  /// The most frames one shard holds, staged ones included: the
  /// configured queue_capacity.
  [[nodiscard]] std::size_t queue_capacity() const noexcept;
  /// Heartbeat: frames and control events shard `i`'s worker has fully
  /// handled. A shard whose heartbeat stands still while its queue_depth
  /// is non-zero is stalled.
  [[nodiscard]] std::uint64_t heartbeat(std::size_t i) const noexcept;
  /// Frames quarantined (processing threw) per shard / total.
  [[nodiscard]] std::uint64_t quarantined(std::size_t i) const noexcept;
  [[nodiscard]] std::uint64_t quarantined_total() const noexcept;
  /// Poison rollbacks that restored a shard from its last snapshot.
  [[nodiscard]] std::uint64_t state_restores() const noexcept;

  /// Aggregated per-shard counters. Only meaningful after finish() (shard
  /// state is thread-owned while the workers run).
  [[nodiscard]] Probe::Counters counters() const;

 private:
  /// Filled by the worker at a snapshot/restore barrier item.
  struct BarrierSlot {
    std::vector<std::byte> state_in;     ///< kRestore: image to apply.
    std::vector<std::byte> state_out;    ///< kSnapshot: captured image.
    std::vector<flow::FlowRecord> records;  ///< kSnapshot: drained exports.
    core::Errc errc = core::Errc::kOk;
    std::atomic<bool> done{false};
  };

  struct Item {
    enum class Kind : std::uint8_t {
      kFrames,
      kClassifier,
      kBeginOutage,
      kEndOutage,
      kSnapshot,
      kRestore,
    };
    Kind kind = Kind::kFrames;
    FrameBatch batch;
    dpi::ClassifierOptions options;
    std::shared_ptr<BarrierSlot> barrier;
  };

  struct Shard {
    // Every batch in use holds a frame the worker has not finished, so a
    // shard never needs more than queue_capacity batches: the feeder makes
    // one only when none is free and fewer exist, and otherwise waits for
    // one to come back. Returns always fit `spare`, and `free` never grows.
    explicit Shard(std::size_t capacity) : queue(capacity), spare(queue.capacity()) {
      free.reserve(capacity);
    }
    core::SpscQueue<Item> queue;    ///< Feeder → worker.
    core::SpscQueue<FrameBatch> spare;  ///< Worker → feeder: emptied batches.
    std::unique_ptr<Probe> probe;
    std::vector<flow::FlowRecord> records;  ///< Written by worker, read after join.
    // Feeder-owned.
    alignas(64) FrameBatch staged;
    std::vector<FrameBatch> free;     ///< Batches taken off `spare` while waiting.
    std::size_t batches_made = 0;
    std::uint64_t processed_seen = 0;  ///< Last value read from `processed`.
    std::atomic<std::uint64_t> published{0};  ///< Frames pushed into the ring.
    // Worker-owned: poison-recovery state and the frame count that frees room.
    alignas(64) std::vector<std::byte> last_snapshot;
    std::uint64_t frames_since_snapshot = 0;
    std::atomic<std::uint64_t> processed{0};  ///< Frames the worker has finished.
    // Cross-thread observability.
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<std::uint64_t> quarantined{0};
    std::atomic<std::uint64_t> restores{0};
    std::thread worker;  ///< Last: it uses every member above.
  };

  [[nodiscard]] std::size_t shard_of(const net::FrameView& frame) const noexcept;
  /// Copy the frame into its shard's staging batch under the next sequence
  /// number; publish the batch if that fills it (non-blocking: always).
  /// False when a non-blocking stage finds no room.
  bool stage(const net::FrameView& frame, bool block);
  /// Whether the shard can take one more frame under queue_capacity. A
  /// blocking call waits for the worker to hand batches back instead.
  bool has_room(Shard& shard, bool block);
  /// An empty batch for staging: a returned one if any, else a new one
  /// while the shard has fewer than queue_capacity, else the next to come
  /// back.
  FrameBatch take_batch(Shard& shard);
  /// Push the staged batch (if any) into the ring, blocking or not. The
  /// batch stays staged when a non-blocking push finds the ring full.
  bool publish(Shard& shard, bool block);
  void broadcast(Item::Kind kind, dpi::ClassifierOptions options = {});
  /// Push one barrier item per shard and wait for every worker to mark its
  /// slot done. Returns the slots for harvesting.
  std::vector<std::shared_ptr<BarrierSlot>> barrier(
      Item::Kind kind, const std::vector<std::vector<std::byte>>* state_in);
  void worker_loop(Shard& shard);
  /// Replay one batch through the shard's probe, run by run.
  void replay_batch(Shard& shard, const FrameBatch& batch);
  /// Capture a frame that threw, rolling the shard back if its state may
  /// be half-mutated.
  void quarantine(Shard& shard, std::uint64_t seq, const net::FrameView& frame, bool state_suspect);
  /// The worker is done with `frames` frames: room for as many, and as
  /// many heartbeats.
  void finished(Shard& shard, std::uint64_t frames) noexcept;
  void beat(Shard& shard, std::uint64_t n) noexcept;
  void join_workers();

  ShardedProbeConfig config_;
  std::size_t capacity_ = 1;  ///< Frames per shard, staged ones included.
  std::size_t batch_ = 1;     ///< Frames per published batch.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t next_seq_ = 0;  ///< Also the count of frames taken.
  std::atomic<bool> abandoned_{false};
  bool finished_ = false;
};

}  // namespace edgewatch::probe
