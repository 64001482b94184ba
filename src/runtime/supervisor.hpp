// Resilient probe runtime (DESIGN §11): the supervision layer wrapped
// around probe::ShardedProbe and the data lake. The paper's probes ran
// unattended for five years (§2.3) — surviving traffic spikes, wedged
// threads, malformed packets, full disks and power cuts — and the
// methodology survived because every imperfection of the capture was
// *recorded* rather than silent. This class reproduces that operational
// envelope:
//
//   Overload   bounded rings + watermark state machine (OverloadController)
//              escalate packet sampling under sustained backpressure; every
//              shed frame is counted per civil day (CaptureQuality) so
//              downstream volume figures can be corrected.
//   Watchdog   per-shard heartbeats; a shard whose heartbeat stands still
//              over a non-empty ring for `stall_strikes` polls is declared
//              stalled (recorded, escalates overload); poison frames are
//              quarantined to an append-only file and the shard restored
//              from its last good snapshot.
//   Recovery   periodic whole-pipeline checkpoints (EWPC). A killed run
//              resumes from the last checkpoint: lake + quarantine files
//              truncated to their checkpointed (durable) sizes, shards
//              restored, source replayed from the recorded cursor — the
//              finished lake is byte-identical to an uninterrupted run's.
//              This holds with the lake's pipelined encoder too
//              (DataLake::set_encode_pool): in-flight encode work never
//              moves the durable file size — frames commit in order
//              through one file handle — so a kill mid-parallel-flush
//              leaves at most a torn tail beyond the checkpointed size,
//              which resume truncates away exactly as in the serial case
//              (WritePipeline.KillMidParallelFlushResumesByteIdentical).
//
// Threading: offer(), checkpoint(), finish(), resume() belong to one
// feeder thread. Poison capture runs on worker threads (the quarantine
// log and day-quality map are internally synchronized). health() reads
// atomics and feeder state; call it from the feeder thread for exact
// numbers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "core/result.hpp"
#include "obs/obs.hpp"
#include "probe/sharded_probe.hpp"
#include "runtime/backoff.hpp"
#include "runtime/health.hpp"
#include "runtime/overload.hpp"
#include "runtime/quarantine.hpp"
#include "storage/datalake.hpp"

namespace edgewatch::runtime {

struct SupervisorConfig {
  /// Shard template: shards, queue_capacity, probe config and — for the
  /// chaos harness — frame_inspector / snapshot_interval ride through
  /// unchanged. poison_sink is owned by the supervisor (it installs its
  /// own quarantine capture).
  probe::ShardedProbeConfig probe;

  OverloadPolicy overload;
  BackoffPolicy backoff;
  /// How retry loops pause. Default: no sleep (deterministic tests); pass
  /// real_sleeper() in production.
  Sleeper sleeper;

  /// Offered frames between automatic pipeline checkpoints (0 = only
  /// explicit checkpoint() calls). Keyed on the offered-frame count, so an
  /// uninterrupted run and a resumed run hit barriers at identical stream
  /// positions — the root of byte-identical recovery.
  std::uint64_t checkpoint_interval = 0;

  /// Watchdog polls (at the overload observation cadence) a shard may show
  /// no heartbeat progress over a non-empty ring before being declared
  /// stalled.
  std::uint32_t stall_strikes = 3;

  /// Pipeline checkpoint file. Empty disables checkpointing.
  std::filesystem::path checkpoint_path;
  /// Quarantine file. Empty disables quarantine capture (poison frames are
  /// then only counted).
  std::filesystem::path quarantine_path;
  /// Write handle factory for checkpoint + quarantine files (fault
  /// injection). The lake keeps its own factory.
  storage::FileFactory file_factory;
};

/// A Sleeper that actually sleeps (production wiring).
[[nodiscard]] Sleeper real_sleeper();

class Supervisor {
 public:
  Supervisor(storage::DataLake& lake, SupervisorConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Start a fresh run (truncates the quarantine file).
  core::Result<void> start();

  /// Resume from the checkpoint at config.checkpoint_path: repair the lake
  /// tail, restore every shard and the degradation state machine. Returns
  /// the replay cursor — the number of source frames already consumed,
  /// which the caller must skip before offering the rest. Every frame the
  /// probe accepted took one sequence number, so a checkpoint must satisfy
  /// frames_ingested + frames_quarantined == probe_next_seq; one that does
  /// not is kCorrupt.
  core::Result<std::uint64_t> resume();

  /// Offer one captured frame. Applies the degradation sampler, bounded
  /// full-ring retries, per-day accounting, the watchdog poll cadence and
  /// the automatic checkpoint schedule. Every offered frame ends in
  /// exactly one bucket: ingested, shed or (later, on a worker) quarantined.
  void offer(net::Frame frame);

  /// Take a pipeline checkpoint now: barrier-snapshot the shards, flush
  /// drained records to the lake (with backoff), sync the quarantine log,
  /// then atomically replace the checkpoint file.
  core::Result<void> checkpoint();

  /// Drain and stop: flush every shard, append the remaining records, and
  /// leave the lake sealed. Idempotent.
  core::Result<void> finish();

  /// Chaos: die like SIGKILL — workers stop without flushing, nothing is
  /// written. A later Supervisor::resume() on the same paths recovers.
  void simulate_crash();

  /// One watchdog sweep (offer() calls this on its observation cadence;
  /// exposed for idle periods and tests).
  void poll_watchdog();

  [[nodiscard]] HealthSnapshot health() const;

  /// Per-day capture accounting (exact after checkpoint()/finish()).
  [[nodiscard]] std::map<core::CivilDate, analytics::CaptureQuality> day_quality() const;

  /// Thread this run's capture quality into a day aggregate so downstream
  /// figures carry the effective sampling rate (DayAggregate::capture).
  void annotate(analytics::DayAggregate& aggregate) const;

  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  struct WatchdogState {
    std::uint64_t last_heartbeat = 0;
    std::uint32_t strikes = 0;
    bool stalled = false;
  };

  void install_hooks();
  /// Push feeder-side counter growth and overload gauges into the obs
  /// registry. Called on the overload observation cadence plus at
  /// checkpoint/finish — never per frame.
  void obs_sync() noexcept;
  [[nodiscard]] double max_occupancy() const;
  /// Append `records` to the lake per day with backoff; failures park the
  /// batch in pending_ (bounded by the next checkpoint's retry).
  void flush_records(std::vector<flow::FlowRecord> records);
  core::Result<void> write_checkpoint(std::uint64_t probe_next_seq,
                                      std::vector<std::vector<std::byte>> shard_state);

  storage::DataLake& lake_;
  SupervisorConfig config_;
  std::unique_ptr<probe::ShardedProbe> probe_;
  std::unique_ptr<QuarantineLog> quarantine_;
  OverloadController controller_;

  // Feeder-owned accounting.
  std::uint64_t offered_ = 0;
  std::uint64_t ingested_ = 0;
  std::uint64_t shed_sampled_ = 0;
  std::uint64_t shed_backpressure_ = 0;
  std::uint64_t append_retries_ = 0;
  std::uint64_t append_failures_ = 0;
  core::Errc last_append_error_ = core::Errc::kOk;
  std::uint64_t checkpoints_written_ = 0;
  std::uint64_t last_checkpoint_offered_ = 0;
  std::uint64_t stalls_detected_ = 0;
  std::map<core::CivilDate, analytics::CaptureQuality> day_quality_;
  std::map<core::CivilDate, std::vector<flow::FlowRecord>> pending_;
  /// Known-good (sealed, durable) byte length of each day's lake file —
  /// what the checkpoint records and what a torn tail is cut back to.
  std::map<core::CivilDate, std::uint64_t> durable_bytes_;
  std::vector<WatchdogState> watchdog_;

  // Worker-thread-updated accounting (poison capture).
  mutable std::mutex poison_mutex_;
  std::uint64_t quarantined_ = 0;
  std::map<core::CivilDate, std::uint64_t> quarantined_by_day_;

  bool started_ = false;
  bool finished_ = false;
  bool crashed_ = false;

  /// obs:: wiring. Feeder counters flush as deltas from obs_sync(); the
  /// quarantine counter is incremented directly by worker threads (the
  /// registry cells are atomics). Resolved once in the constructor.
  struct ObsHooks {
    obs::Counter* offered = nullptr;
    obs::Counter* ingested = nullptr;
    obs::Counter* shed_sampled = nullptr;
    obs::Counter* shed_backpressure = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Counter* stalls = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* append_retries = nullptr;
    obs::Counter* append_failures = nullptr;
    obs::Counter* overload_transitions = nullptr;
    obs::Gauge* overload_state = nullptr;
    obs::Gauge* sample_shift = nullptr;
    obs::Gauge* capture_days = nullptr;
    obs::Gauge* capture_days_incomplete = nullptr;
    obs::Gauge* capture_frames_shed = nullptr;
    obs::SpanSite* checkpoint_span = nullptr;
    obs::SpanSite* flush_span = nullptr;
    struct Flushed {
      std::uint64_t offered = 0, ingested = 0, shed_sampled = 0, shed_backpressure = 0;
      std::uint64_t stalls = 0, checkpoints = 0, append_retries = 0, append_failures = 0;
      std::uint64_t transitions = 0;
    } flushed;
  };
  ObsHooks obs_;
};

}  // namespace edgewatch::runtime
