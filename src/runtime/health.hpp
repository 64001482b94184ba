// Health snapshot of the supervised pipeline: what an operator (or the
// watchdog's own escalation logic) reads to understand how the probe is
// coping. DESIGN §11 carries the runbook for interpreting one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.hpp"

namespace edgewatch::runtime {

/// The degradation state machine (DESIGN §11). Transitions are driven by
/// ring-occupancy watermarks with hysteresis, never by wall-clock time, so
/// every transition is explainable from the recorded observation counts.
enum class HealthState : std::uint8_t {
  kHealthy = 0,   ///< Keeping every frame.
  kDegraded = 1,  ///< Sustained pressure: sampling 1-in-2, recorded as shed.
  kShedding = 2,  ///< Escalated sampling (1-in-4 … 1-in-2^max), still recorded.
};

[[nodiscard]] constexpr std::string_view to_string(HealthState s) noexcept {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kShedding: return "shedding";
  }
  return "unknown";
}

struct ShardHealth {
  std::uint64_t heartbeat = 0;    ///< Items the worker has handled.
  std::size_t queue_depth = 0;    ///< Frames handed to its worker, not yet processed.
  std::size_t queue_capacity = 0;
  std::uint32_t stall_strikes = 0;  ///< Consecutive no-progress polls.
  bool stalled = false;             ///< Strikes reached the watchdog threshold.
  std::uint64_t quarantined = 0;    ///< Poison frames captured off this shard.
  std::uint64_t state_restores = 0; ///< Rollbacks to the last good snapshot.
};

struct HealthSnapshot {
  HealthState state = HealthState::kHealthy;
  std::uint32_t sample_shift = 0;  ///< Keeping 1 in 2^shift offered frames.

  std::uint64_t frames_offered = 0;
  std::uint64_t frames_ingested = 0;
  std::uint64_t shed_sampled = 0;       ///< Dropped by the degradation sampler.
  std::uint64_t shed_backpressure = 0;  ///< Dropped after bounded full-ring retries.
  std::uint64_t frames_quarantined = 0;

  std::uint64_t append_retries = 0;   ///< Transient lake-append failures retried.
  std::uint64_t append_failures = 0;  ///< Appends that exhausted their retries.
  core::Errc last_append_error = core::Errc::kOk;

  std::uint64_t checkpoints_written = 0;
  std::uint64_t last_checkpoint_offered = 0;  ///< Replay cursor of the last checkpoint.
  std::uint64_t stalls_detected = 0;

  std::vector<ShardHealth> shards;

  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return shed_sampled + shed_backpressure;
  }
  /// The invariant every run must keep: each offered frame ends in exactly
  /// one bucket. (Mid-run the counters are sampled racily against in-flight
  /// frames; at a checkpoint barrier or finish() this is exact.)
  [[nodiscard]] bool reconciles() const noexcept {
    return frames_offered == frames_ingested + shed_total() + frames_quarantined;
  }

  /// Operator-facing rendering (the runbook in DESIGN §11 explains how to
  /// read each line).
  [[nodiscard]] std::string format() const;
};

}  // namespace edgewatch::runtime
