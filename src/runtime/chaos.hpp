// Deterministic chaos harness. Five years of unattended operation (paper
// §2.3) means the failure modes are not hypothetical: malformed frames,
// wedged threads, full disks, power cuts. This harness makes each of them
// reproducible on demand, driven entirely by a seed and stream positions —
// a failing chaos run replays exactly.
//
// Fault channels and where they plug in:
//   poison    frames whose processing throws — ChaosSchedule::make_inspector
//             installed as ShardedProbeConfig::frame_inspector; decisions
//             are keyed on the probe ingest seq (core::mix64(seed, seq)),
//             so a crash-recovery replay poisons the same frames.
//   stall     a worker blocks at a chosen seq until released from the test
//             thread (arm_stall / release_stall) — exercises the watchdog.
//   busy      a fixed spin per frame slows workers uniformly — turns an
//             ordinary frame rate into sustained overload for the
//             degradation state machine (and bench_overload's load sweep).
//   disk      storage::FaultyFile plans on the lake / checkpoint /
//             quarantine write paths (not owned here; see fault_injection).
//   kill      Supervisor::simulate_crash() at a chosen offered count,
//             scheduled by the test loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.hpp"

namespace edgewatch::runtime {

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// Poison roughly one in `poison_every` ingest seqs (0 = never). The
  /// choice is a pure function of (seed, seq).
  std::uint64_t poison_every = 0;
  /// Of poisoned frames, roughly one in `suspect_every` throws
  /// StateSuspectError (forcing a snapshot rollback) instead of a plain
  /// exception (quarantine only). 0 = all plain.
  std::uint64_t suspect_every = 2;
  /// Busy-work iterations per frame (0 = none): uniform worker slowdown.
  std::uint32_t busy_spin = 0;
};

class ChaosSchedule {
 public:
  explicit ChaosSchedule(ChaosConfig config);

  /// Pure decision functions (tests assert against these directly).
  [[nodiscard]] bool poisons(std::uint64_t seq) const noexcept;
  [[nodiscard]] bool suspect(std::uint64_t seq) const noexcept;

  /// Block the worker that meets `seq` until release_stall(). One armed
  /// stall at a time.
  void arm_stall(std::uint64_t seq);
  void release_stall();

  /// The frame inspector implementing this schedule. Safe to install on a
  /// pipeline that outlives the schedule object (state is shared).
  [[nodiscard]] std::function<void(std::uint64_t, net::FrameView)> inspector() const;

 private:
  struct Shared {
    ChaosConfig config;
    std::atomic<std::uint64_t> stall_seq{kNoStall};
    std::atomic<bool> stall_released{false};
    static constexpr std::uint64_t kNoStall = ~std::uint64_t{0};
  };
  std::shared_ptr<Shared> shared_;
};

}  // namespace edgewatch::runtime
