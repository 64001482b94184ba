#include "runtime/supervisor.hpp"

#include <algorithm>
#include <set>
#include <thread>
#include <utility>

#include "runtime/pipeline_checkpoint.hpp"

namespace edgewatch::runtime {

Sleeper real_sleeper() {
  return [](std::chrono::microseconds us) { std::this_thread::sleep_for(us); };
}

Supervisor::Supervisor(storage::DataLake& lake, SupervisorConfig config)
    : lake_(lake), config_(std::move(config)), controller_(config_.overload) {
  auto& reg = obs::Registry::global();
  obs_.offered = &reg.counter("runtime_frames_offered_total");
  obs_.ingested = &reg.counter("runtime_frames_ingested_total");
  obs_.shed_sampled = &reg.counter("runtime_shed_sampled_total");
  obs_.shed_backpressure = &reg.counter("runtime_shed_backpressure_total");
  obs_.quarantined = &reg.counter("runtime_frames_quarantined_total");
  obs_.stalls = &reg.counter("runtime_stalls_detected_total");
  obs_.checkpoints = &reg.counter("runtime_checkpoints_total");
  obs_.append_retries = &reg.counter("runtime_append_retries_total");
  obs_.append_failures = &reg.counter("runtime_append_failures_total");
  obs_.overload_transitions = &reg.counter("runtime_overload_transitions_total");
  obs_.overload_state = &reg.gauge("runtime_overload_state");
  obs_.sample_shift = &reg.gauge("runtime_sample_shift");
  obs_.capture_days = &reg.gauge("capture_quality_days");
  obs_.capture_days_incomplete = &reg.gauge("capture_quality_days_incomplete");
  obs_.capture_frames_shed = &reg.gauge("capture_quality_frames_shed");
  obs_.checkpoint_span = &reg.span_site("runtime_checkpoint");
  obs_.flush_span = &reg.span_site("runtime_flush");
}

void Supervisor::obs_sync() noexcept {
  if constexpr (obs::kEnabled) {
    // resume() may rewind feeder counters to the checkpointed values;
    // saturate so the registry stays monotonic.
    const auto push = [](obs::Counter* counter, std::uint64_t now, std::uint64_t& flushed) {
      if (now > flushed) counter->add(now - flushed);
      flushed = now;
    };
    push(obs_.offered, offered_, obs_.flushed.offered);
    push(obs_.ingested, ingested_, obs_.flushed.ingested);
    push(obs_.shed_sampled, shed_sampled_, obs_.flushed.shed_sampled);
    push(obs_.shed_backpressure, shed_backpressure_, obs_.flushed.shed_backpressure);
    push(obs_.stalls, stalls_detected_, obs_.flushed.stalls);
    push(obs_.checkpoints, checkpoints_written_, obs_.flushed.checkpoints);
    push(obs_.append_retries, append_retries_, obs_.flushed.append_retries);
    push(obs_.append_failures, append_failures_, obs_.flushed.append_failures);
    push(obs_.overload_transitions, controller_.transitions().size(), obs_.flushed.transitions);
    obs_.overload_state->set(static_cast<std::int64_t>(controller_.state()));
    obs_.sample_shift->set(controller_.sample_shift());
    // Per-day CaptureQuality, collapsed to fleet gauges: how many civil days
    // this run touched, how many of them shed or quarantined frames, and the
    // total shed count (the paper's "no traffic sampling" §2.1 invariant —
    // nonzero means downstream figures carry a correction factor).
    std::int64_t days_incomplete = 0;
    std::uint64_t frames_shed = 0;
    for (const auto& [day, q] : day_quality_) {
      if (!q.complete()) ++days_incomplete;
      frames_shed += q.frames_shed;
    }
    obs_.capture_days->set(static_cast<std::int64_t>(day_quality_.size()));
    obs_.capture_days_incomplete->set(days_incomplete);
    obs_.capture_frames_shed->set(static_cast<std::int64_t>(frames_shed));
  }
}

Supervisor::~Supervisor() {
  if (started_ && !finished_ && !crashed_) (void)finish();
}

void Supervisor::install_hooks() {
  config_.probe.poison_sink = [this](std::uint64_t seq, const net::Frame& frame,
                                     bool /*state_restored*/) {
    obs_.quarantined->add(1);  // registry cells are atomics: worker-safe
    std::scoped_lock lock(poison_mutex_);
    ++quarantined_;
    ++quarantined_by_day_[frame.timestamp.date()];
    if (quarantine_) (void)quarantine_->append(seq, frame);
  };
}

core::Result<void> Supervisor::start() {
  if (started_) return core::Errc::kUnsupported;
  if (!config_.quarantine_path.empty()) {
    quarantine_ = std::make_unique<QuarantineLog>(config_.quarantine_path,
                                                  config_.file_factory);
    if (auto r = quarantine_->open(); !r) return r;
  }
  install_hooks();
  probe_ = std::make_unique<probe::ShardedProbe>(config_.probe);
  watchdog_.assign(probe_->shard_count(), {});
  for (const auto day : lake_.days()) durable_bytes_[day] = lake_.file_bytes(day);
  started_ = true;
  return {};
}

core::Result<std::uint64_t> Supervisor::resume() {
  if (started_) return core::Errc::kUnsupported;
  auto loaded = load_pipeline_checkpoint(config_.checkpoint_path);
  if (!loaded) {
    if (loaded.error() == core::Errc::kNotFound) {
      // Nothing to resume from: a fresh run, cursor at zero.
      if (auto r = start(); !r) return r.error();
      return std::uint64_t{0};
    }
    return loaded.error();
  }
  auto cp = std::move(*loaded);

  // Repair the lake tail: cut every day back to its checkpointed durable
  // length and drop days born after the checkpoint. Appends are strictly
  // file-end, so this erases exactly the post-checkpoint bytes — including
  // any torn block a crash mid-append left behind.
  std::set<core::CivilDate> recorded;
  for (const auto& d : cp.days) recorded.insert(d.day);
  for (const auto day : lake_.days()) {
    if (!recorded.contains(day)) {
      if (auto r = lake_.remove_day(day); !r) return r.error();
    }
  }
  for (const auto& d : cp.days) {
    if (d.lake_bytes == 0) {
      if (auto r = lake_.remove_day(d.day); !r) return r.error();
    } else if (lake_.has_day(d.day)) {
      if (auto r = lake_.truncate_day(d.day, d.lake_bytes); !r) return r.error();
      durable_bytes_[d.day] = d.lake_bytes;
    } else {
      // The checkpoint says this day was durable but the file is gone:
      // that is real data loss, not a recoverable tail.
      return core::Errc::kCorrupt;
    }
  }

  if (!config_.quarantine_path.empty()) {
    quarantine_ = std::make_unique<QuarantineLog>(config_.quarantine_path,
                                                  config_.file_factory);
    if (auto r = quarantine_->open(cp.quarantine_bytes, cp.quarantine_entries); !r) {
      return r.error();
    }
  }

  install_hooks();
  probe_ = std::make_unique<probe::ShardedProbe>(config_.probe);
  // The checkpoint stores ingested net of quarantined; internally the
  // feeder counts accepted frames and the read path subtracts. Every
  // accepted frame took exactly one probe sequence number, so the two
  // counts must agree: a checkpoint where they do not was not written by
  // this pipeline.
  const std::uint64_t accepted = cp.frames_ingested + cp.frames_quarantined;
  if (accepted != cp.probe_next_seq) return core::Errc::kCorrupt;
  if (auto r = probe_->restore(cp.shard_state, cp.probe_next_seq); !r) return r.error();
  watchdog_.assign(probe_->shard_count(), {});

  offered_ = cp.replay_from;
  ingested_ = accepted;
  shed_sampled_ = cp.shed_sampled;
  shed_backpressure_ = cp.shed_backpressure;
  append_retries_ = cp.append_retries;
  append_failures_ = cp.append_failures;
  checkpoints_written_ = cp.checkpoints_written;
  last_checkpoint_offered_ = cp.replay_from;
  stalls_detected_ = cp.stalls_detected;
  controller_.load(cp.controller);
  {
    std::scoped_lock lock(poison_mutex_);
    quarantined_ = cp.frames_quarantined;
    quarantined_by_day_.clear();
    for (const auto& d : cp.days) {
      if (d.quality.frames_quarantined > 0) {
        quarantined_by_day_[d.day] = d.quality.frames_quarantined;
      }
    }
  }
  day_quality_.clear();
  for (const auto& d : cp.days) {
    if (d.quality.frames_offered == 0 && d.quality.frames_quarantined == 0) continue;
    auto q = d.quality;
    q.frames_ingested += q.frames_quarantined;  // back to "accepted" form
    q.frames_quarantined = 0;
    day_quality_[d.day] = q;
  }
  pending_.clear();
  for (auto& record : cp.pending) {
    pending_[record.first_packet.date()].push_back(std::move(record));
  }

  started_ = true;
  return cp.replay_from;
}

void Supervisor::offer(net::Frame frame) {
  if (!started_ || finished_ || crashed_) return;
  const core::CivilDate day = frame.timestamp.date();
  const std::uint64_t idx = offered_++;
  auto& quality = day_quality_[day];
  ++quality.frames_offered;

  const auto cadence = config_.overload.observe_every;
  if (cadence == 0 || idx % cadence == 0) {
    controller_.observe(max_occupancy());
    poll_watchdog();
    obs_sync();
  }

  if (!controller_.should_keep(idx)) {
    ++shed_sampled_;
    ++quality.frames_shed;
  } else {
    bool accepted = false;
    for (std::uint32_t retry = 0; retry <= config_.overload.ingest_retries; ++retry) {
      if (probe_->try_ingest(frame)) {
        accepted = true;
        break;
      }
      // Give the worker a slice to drain before trying again.
      std::this_thread::yield();
    }
    if (accepted) {
      ++ingested_;
      ++quality.frames_ingested;
    } else {
      controller_.on_ring_full();
      ++shed_backpressure_;
      ++quality.frames_shed;
    }
  }

  if (config_.checkpoint_interval != 0 && !config_.checkpoint_path.empty() &&
      offered_ % config_.checkpoint_interval == 0) {
    (void)checkpoint();
  }
}

void Supervisor::poll_watchdog() {
  if (!probe_) return;
  for (std::size_t i = 0; i < watchdog_.size(); ++i) {
    auto& w = watchdog_[i];
    const std::uint64_t hb = probe_->heartbeat(i);
    if (hb != w.last_heartbeat || probe_->queue_depth(i) == 0) {
      w.last_heartbeat = hb;
      w.strikes = 0;
      w.stalled = false;
      continue;
    }
    ++w.strikes;
    if (w.strikes >= config_.stall_strikes && !w.stalled) {
      w.stalled = true;
      ++stalls_detected_;
      // A wedged shard cannot be killed safely in-process; what the
      // supervisor can do is record the stall and shed earlier, so the
      // feeder stops piling frames onto a ring nobody drains.
      controller_.on_ring_full();
    }
  }
}

double Supervisor::max_occupancy() const {
  if (!probe_) return 0.0;
  const auto capacity = probe_->queue_capacity();
  if (capacity == 0) return 0.0;
  std::size_t deepest = 0;
  for (std::size_t i = 0; i < probe_->shard_count(); ++i) {
    deepest = std::max(deepest, probe_->queue_depth(i));
  }
  return static_cast<double>(deepest) / static_cast<double>(capacity);
}

void Supervisor::flush_records(std::vector<flow::FlowRecord> records) {
  obs::Span span(*obs_.flush_span);
  for (auto& record : records) {
    pending_[record.first_packet.date()].push_back(std::move(record));
  }
  std::vector<core::CivilDate> days;
  days.reserve(pending_.size());
  for (const auto& [day, _] : pending_) days.push_back(day);
  for (const auto day : days) {
    auto& batch = pending_[day];
    if (batch.empty()) {
      pending_.erase(day);
      continue;
    }
    const auto result = with_backoff(
        config_.backoff, config_.sleeper,
        [&] { return lake_.append(day, batch); }, &append_retries_);
    if (result) {
      pending_.erase(day);
      durable_bytes_[day] = lake_.file_bytes(day);
    } else {
      // The batch stays parked in pending_ and in the next checkpoint, so
      // no drained record is ever lost. A survivable failure rolled the
      // file back already; a crashed write cannot (the rollback truncate
      // "died" too) — repair the torn tail here so a later retry appends
      // after sealed data, never after garbage.
      ++append_failures_;
      last_append_error_ = result.error();
      const auto durable = durable_bytes_.find(day);
      const std::uint64_t good = durable == durable_bytes_.end() ? 0 : durable->second;
      if (lake_.has_day(day) && lake_.file_bytes(day) != good) {
        if (good == 0) {
          (void)lake_.remove_day(day);
        } else {
          (void)lake_.truncate_day(day, good);
        }
      }
    }
  }
}

core::Result<void> Supervisor::checkpoint() {
  if (!started_ || finished_ || crashed_) return core::Errc::kUnsupported;
  if (config_.checkpoint_path.empty()) return core::Errc::kUnsupported;
  obs::Span span(*obs_.checkpoint_span);
  auto snap = probe_->snapshot();
  flush_records(std::move(snap.records));
  if (quarantine_) {
    if (auto r = quarantine_->sync(); !r) return r;
  }
  auto result = write_checkpoint(snap.next_seq, std::move(snap.shard_state));
  if (result) {
    ++checkpoints_written_;
    last_checkpoint_offered_ = offered_;
  }
  obs_sync();
  return result;
}

core::Result<void> Supervisor::write_checkpoint(
    std::uint64_t probe_next_seq, std::vector<std::vector<std::byte>> shard_state) {
  PipelineCheckpoint cp;
  cp.replay_from = offered_;
  cp.probe_next_seq = probe_next_seq;
  cp.shed_sampled = shed_sampled_;
  cp.shed_backpressure = shed_backpressure_;
  cp.append_retries = append_retries_;
  cp.append_failures = append_failures_;
  cp.checkpoints_written = checkpoints_written_ + 1;  // counting this one
  cp.stalls_detected = stalls_detected_;
  cp.controller = controller_.save();
  cp.shard_state = std::move(shard_state);
  if (quarantine_) {
    cp.quarantine_bytes = quarantine_->bytes();
    cp.quarantine_entries = quarantine_->entries();
  }

  // At a barrier every accepted frame has been fully processed, so the
  // worker-side quarantine counts are stable and the reconciliation is
  // exact: offered = ingested + shed + quarantined.
  const auto quality = day_quality();
  {
    std::scoped_lock lock(poison_mutex_);
    cp.frames_quarantined = quarantined_;
  }
  cp.frames_offered = offered_;
  cp.frames_ingested = ingested_ - cp.frames_quarantined;

  std::set<core::CivilDate> all_days;
  for (const auto& [day, _] : durable_bytes_) all_days.insert(day);
  for (const auto& [day, _] : quality) all_days.insert(day);
  for (const auto day : all_days) {
    PipelineCheckpoint::DayState d;
    d.day = day;
    // Record the known-durable length, not a stat of the file: after a
    // crashed append the file may carry a torn tail past the sealed data.
    if (auto it = durable_bytes_.find(day); it != durable_bytes_.end()) {
      d.lake_bytes = it->second;
    }
    if (auto it = quality.find(day); it != quality.end()) d.quality = it->second;
    cp.days.push_back(d);
  }

  for (const auto& [_, batch] : pending_) {
    cp.pending.insert(cp.pending.end(), batch.begin(), batch.end());
  }

  return save_pipeline_checkpoint(cp, config_.checkpoint_path, config_.file_factory);
}

core::Result<void> Supervisor::finish() {
  if (!started_ || crashed_) return core::Errc::kUnsupported;
  if (!finished_) {
    flush_records(probe_->finish());
    if (quarantine_) quarantine_->close();
    // Every ring drained: no shard can still be live-stalled (the
    // cumulative stalls_detected counter is unaffected).
    for (auto& w : watchdog_) {
      w.stalled = false;
      w.strikes = 0;
    }
    finished_ = true;
  } else if (!pending_.empty()) {
    // Re-invoked after a failed flush: the operator freed space — retry
    // the parked batches.
    flush_records({});
  }
  obs_sync();
  if (!pending_.empty()) return last_append_error_;
  return {};
}

void Supervisor::simulate_crash() {
  if (probe_) probe_->abandon();
  // The process "dies": whatever reached the kernel survives (a process
  // kill is not a power cut), but nothing else gets written.
  if (quarantine_) quarantine_->close();
  crashed_ = true;
}

HealthSnapshot Supervisor::health() const {
  HealthSnapshot h;
  h.state = controller_.state();
  h.sample_shift = controller_.sample_shift();
  h.frames_offered = offered_;
  h.shed_sampled = shed_sampled_;
  h.shed_backpressure = shed_backpressure_;
  {
    std::scoped_lock lock(poison_mutex_);
    h.frames_quarantined = quarantined_;
  }
  h.frames_ingested = ingested_ - h.frames_quarantined;
  h.append_retries = append_retries_;
  h.append_failures = append_failures_;
  h.last_append_error = last_append_error_;
  h.checkpoints_written = checkpoints_written_;
  h.last_checkpoint_offered = last_checkpoint_offered_;
  h.stalls_detected = stalls_detected_;
  if (probe_) {
    h.shards.resize(probe_->shard_count());
    for (std::size_t i = 0; i < h.shards.size(); ++i) {
      auto& s = h.shards[i];
      s.heartbeat = probe_->heartbeat(i);
      s.queue_depth = probe_->queue_depth(i);
      s.queue_capacity = probe_->queue_capacity();
      s.quarantined = probe_->quarantined(i);
      if (i < watchdog_.size()) {
        s.stall_strikes = watchdog_[i].strikes;
        s.stalled = watchdog_[i].stalled;
      }
    }
    if (!h.shards.empty()) h.shards[0].state_restores = probe_->state_restores();
  }
  return h;
}

std::map<core::CivilDate, analytics::CaptureQuality> Supervisor::day_quality() const {
  auto out = day_quality_;
  std::scoped_lock lock(poison_mutex_);
  for (const auto& [day, count] : quarantined_by_day_) {
    auto& q = out[day];
    q.frames_quarantined = count;
    q.frames_ingested -= std::min(q.frames_ingested, count);
  }
  return out;
}

void Supervisor::annotate(analytics::DayAggregate& aggregate) const {
  const auto quality = day_quality();
  if (auto it = quality.find(aggregate.date); it != quality.end()) {
    aggregate.capture = it->second;
  }
}

}  // namespace edgewatch::runtime
