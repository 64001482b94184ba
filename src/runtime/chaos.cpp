#include "runtime/chaos.hpp"

#include <stdexcept>
#include <thread>

#include "core/rng.hpp"
#include "probe/sharded_probe.hpp"

namespace edgewatch::runtime {

namespace {

bool hits(std::uint64_t seed, std::uint64_t seq, std::uint64_t every,
          std::uint64_t salt) noexcept {
  if (every == 0) return false;
  return core::mix64(seed, seq, salt) % every == 0;
}

}  // namespace

ChaosSchedule::ChaosSchedule(ChaosConfig config) : shared_(std::make_shared<Shared>()) {
  shared_->config = config;
}

bool ChaosSchedule::poisons(std::uint64_t seq) const noexcept {
  return hits(shared_->config.seed, seq, shared_->config.poison_every, 1);
}

bool ChaosSchedule::suspect(std::uint64_t seq) const noexcept {
  return poisons(seq) && hits(shared_->config.seed, seq, shared_->config.suspect_every, 2);
}

void ChaosSchedule::arm_stall(std::uint64_t seq) {
  shared_->stall_released.store(false, std::memory_order_release);
  shared_->stall_seq.store(seq, std::memory_order_release);
}

void ChaosSchedule::release_stall() {
  shared_->stall_released.store(true, std::memory_order_release);
}

std::function<void(std::uint64_t, net::FrameView)> ChaosSchedule::inspector() const {
  auto shared = shared_;
  return [shared](std::uint64_t seq, net::FrameView) {
    const auto& cfg = shared->config;
    if (cfg.busy_spin > 0) {
      // Deterministic busy-work: enough to slow a worker, no side effects.
      std::uint64_t acc = 0;
      for (std::uint32_t i = 0; i < cfg.busy_spin; ++i) acc += core::mix64(seq, i);
      volatile std::uint64_t sink = acc;
      (void)sink;
    }
    if (shared->stall_seq.load(std::memory_order_acquire) == seq) {
      while (!shared->stall_released.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      shared->stall_seq.store(Shared::kNoStall, std::memory_order_release);
    }
    if (hits(cfg.seed, seq, cfg.poison_every, 1)) {
      if (cfg.suspect_every != 0 && hits(cfg.seed, seq, cfg.suspect_every, 2)) {
        throw probe::StateSuspectError{"chaos: state-suspect poison frame"};
      }
      throw std::runtime_error{"chaos: poison frame"};
    }
  };
}

}  // namespace edgewatch::runtime
