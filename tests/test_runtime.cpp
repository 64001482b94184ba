// The resilient probe runtime (DESIGN §11): overload state machine,
// bounded backoff, quarantine log, pipeline checkpoint codec, and the
// Supervisor's accounting invariant — every offered frame ends in exactly
// one bucket (ingested, shed, quarantined). Crash-recovery golden tests
// live in test_chaos.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "core/bytes.hpp"
#include "probe/sharded_probe.hpp"
#include "runtime/backoff.hpp"
#include "runtime/chaos.hpp"
#include "runtime/health.hpp"
#include "runtime/overload.hpp"
#include "runtime/pipeline_checkpoint.hpp"
#include "runtime/quarantine.hpp"
#include "runtime/supervisor.hpp"
#include "storage/codec.hpp"
#include "storage/datalake.hpp"
#include "storage/fault_injection.hpp"
#include "synth/packets.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
using ew::core::IPv4Address;
using ew::core::Timestamp;
using ew::runtime::BackoffPolicy;
using ew::runtime::HealthState;
using ew::runtime::OverloadController;
using ew::runtime::OverloadPolicy;

namespace {

/// A fresh directory under this process's own scratch root (removed at
/// exit), so concurrent test processes never share a path.
std::filesystem::path fresh_dir(const std::string& name) {
  static const ew::testing::TempDir root{"ew_runtime"};
  const auto dir = root.path / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministic single-day workload: DNS lookups + TLS/HTTP conversations
/// across a handful of clients (a compact cousin of test_parallel's golden
/// workload).
std::vector<ew::net::Frame> workload(int clients = 12) {
  constexpr IPv4Address kResolver{10, 255, 255, 53};
  struct Site {
    IPv4Address ip;
    const char* name;
  };
  const Site sites[] = {
      {{93, 184, 216, 34}, "static.example.com"},
      {{31, 13, 86, 36}, "edge-star.facebook.com"},
      {{173, 194, 11, 7}, "r3---sn.googlevideo.com"},
  };
  std::vector<ew::net::Frame> frames;
  for (int c = 0; c < clients; ++c) {
    const IPv4Address client{10, 0, 4, static_cast<std::uint8_t>(10 + c)};
    for (int k = 0; k < 2; ++k) {
      const auto& site = sites[static_cast<std::size_t>((c + k) % 3)];
      const std::int64_t start_us = 100'000'000LL + (c * 977 + k * 23081) * 1000LL;
      const IPv4Address addrs[] = {site.ip};
      frames.push_back(ew::synth::render_dns_response(client, kResolver, site.name, addrs,
                                                      Timestamp{start_us - 40'000}));
      ew::synth::ConversationSpec spec;
      spec.client = client;
      spec.server = site.ip;
      spec.client_port = static_cast<std::uint16_t>(42000 + c * 4 + k);
      spec.web = k == 0 ? ew::dpi::WebProtocol::kTls : ew::dpi::WebProtocol::kHttp;
      spec.server_name = site.name;
      spec.response_bytes = static_cast<std::size_t>(1200 + c * 211 + k * 733);
      spec.start = Timestamp{start_us};
      spec.rtt_us = 9'000 + c * 300;
      spec.teardown = (c + k) % 3 != 0;
      const auto conv = ew::synth::render_conversation(spec);
      frames.insert(frames.end(), conv.begin(), conv.end());
    }
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const ew::net::Frame& a, const ew::net::Frame& b) {
                     return a.timestamp < b.timestamp;
                   });
  return frames;
}

std::vector<std::byte> encode_stream(const std::vector<ew::flow::FlowRecord>& records) {
  ew::core::ByteWriter w;
  for (const auto& r : records) ew::storage::encode_record(r, w);
  return {w.view().begin(), w.view().end()};
}

}  // namespace

// ------------------------------------------------------ OverloadController

TEST(OverloadController, EscalatesAfterSustainedPressureOnly) {
  OverloadPolicy policy;
  policy.escalate_after = 3;
  OverloadController ctl{policy};
  EXPECT_EQ(ctl.state(), HealthState::kHealthy);

  ctl.observe(0.9);
  ctl.observe(0.9);
  EXPECT_EQ(ctl.state(), HealthState::kHealthy);  // streak not long enough
  ctl.observe(0.5);                               // hysteresis band resets it
  ctl.observe(0.9);
  ctl.observe(0.9);
  EXPECT_EQ(ctl.state(), HealthState::kHealthy);

  ctl.observe(0.9);
  EXPECT_EQ(ctl.state(), HealthState::kDegraded);
  EXPECT_EQ(ctl.sample_shift(), 1u);

  for (int i = 0; i < 3; ++i) ctl.observe(1.0);
  EXPECT_EQ(ctl.state(), HealthState::kShedding);
  EXPECT_EQ(ctl.sample_shift(), 2u);
  ASSERT_EQ(ctl.transitions().size(), 2u);
  EXPECT_EQ(ctl.transitions()[0].from, HealthState::kHealthy);
  EXPECT_EQ(ctl.transitions()[1].to, HealthState::kShedding);
}

TEST(OverloadController, RecoversOneLevelAtATime) {
  OverloadPolicy policy;
  policy.escalate_after = 1;
  policy.recover_after = 4;
  OverloadController ctl{policy};
  ctl.observe(1.0);
  ctl.observe(1.0);
  ctl.observe(1.0);
  ASSERT_EQ(ctl.sample_shift(), 3u);

  for (int i = 0; i < 4; ++i) ctl.observe(0.0);
  EXPECT_EQ(ctl.sample_shift(), 2u);
  for (int i = 0; i < 4; ++i) ctl.observe(0.0);
  EXPECT_EQ(ctl.sample_shift(), 1u);
  EXPECT_EQ(ctl.state(), HealthState::kDegraded);
  for (int i = 0; i < 4; ++i) ctl.observe(0.1);
  EXPECT_EQ(ctl.state(), HealthState::kHealthy);
  // Fully recovered: stays put.
  for (int i = 0; i < 8; ++i) ctl.observe(0.0);
  EXPECT_EQ(ctl.sample_shift(), 0u);
}

TEST(OverloadController, ShiftIsCappedAtPolicyMax) {
  OverloadPolicy policy;
  policy.escalate_after = 1;
  policy.max_shift = 2;
  OverloadController ctl{policy};
  for (int i = 0; i < 10; ++i) ctl.observe(1.0);
  EXPECT_EQ(ctl.sample_shift(), 2u);
}

TEST(OverloadController, ShouldKeepIsDeterministicOneInTwoToTheShift) {
  OverloadPolicy policy;
  policy.escalate_after = 1;
  OverloadController ctl{policy};
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_TRUE(ctl.should_keep(i));
  ctl.observe(1.0);
  ctl.observe(1.0);  // shift 2: keep 1 in 4
  std::uint64_t kept = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (ctl.should_keep(i)) ++kept;
    EXPECT_EQ(ctl.should_keep(i), i % 4 == 0) << i;
  }
  EXPECT_EQ(kept, 25u);
}

TEST(OverloadController, SaveLoadRoundtripsTheMachine) {
  OverloadPolicy policy;
  policy.escalate_after = 3;
  OverloadController a{policy};
  a.observe(1.0);
  a.observe(1.0);
  a.observe(1.0);
  a.observe(1.0);  // shift 1 + one pressure observation into the next streak

  OverloadController b{policy};
  b.load(a.save());
  EXPECT_EQ(b.sample_shift(), a.sample_shift());
  // Two more pressured observations escalate both machines identically.
  a.observe(1.0);
  a.observe(1.0);
  b.observe(1.0);
  b.observe(1.0);
  EXPECT_EQ(b.sample_shift(), a.sample_shift());
  EXPECT_EQ(b.state(), HealthState::kShedding);
}

// ---------------------------------------------------------------- Backoff

TEST(Backoff, DelaysGrowExponentiallyAndCap) {
  BackoffPolicy policy;
  policy.initial = std::chrono::microseconds{1'000};
  policy.multiplier = 10.0;
  policy.cap = std::chrono::microseconds{50'000};
  EXPECT_EQ(policy.delay(1).count(), 1'000);
  EXPECT_EQ(policy.delay(2).count(), 10'000);
  EXPECT_EQ(policy.delay(3).count(), 50'000);  // capped
  EXPECT_EQ(policy.delay(9).count(), 50'000);
}

TEST(Backoff, RetriesTransientErrorsUntilSuccess) {
  BackoffPolicy policy;
  policy.max_attempts = 5;
  std::vector<std::chrono::microseconds> slept;
  int calls = 0;
  std::uint64_t retries = 0;
  const auto result = ew::runtime::with_backoff(
      policy, [&](std::chrono::microseconds us) { slept.push_back(us); },
      [&]() -> ew::core::Result<int> {
        if (++calls < 3) return ew::core::Errc::kNoSpace;
        return 42;
      },
      &retries);
  ASSERT_TRUE(result);
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_EQ(slept[0], policy.delay(1));
  EXPECT_EQ(slept[1], policy.delay(2));
}

TEST(Backoff, DoesNotRetryNonTransientErrors) {
  int calls = 0;
  const auto result = ew::runtime::with_backoff(
      BackoffPolicy{}, nullptr, [&]() -> ew::core::Result<int> {
        ++calls;
        return ew::core::Errc::kCorrupt;
      });
  EXPECT_FALSE(result);
  EXPECT_EQ(result.error(), ew::core::Errc::kCorrupt);
  EXPECT_EQ(calls, 1);
}

TEST(Backoff, GivesUpAfterMaxAttempts) {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  const auto result = ew::runtime::with_backoff(
      policy, nullptr, [&]() -> ew::core::Result<int> {
        ++calls;
        return ew::core::Errc::kIoError;
      });
  EXPECT_FALSE(result);
  EXPECT_EQ(calls, 3);
}

// ---------------------------------------------------------- QuarantineLog

TEST(QuarantineLog, AppendAndReadBackRoundtrip) {
  const auto dir = fresh_dir("quarantine");
  ew::runtime::QuarantineLog log{dir / "poison.ewq"};
  ASSERT_TRUE(log.open());
  ew::net::Frame f1{Timestamp{1'000'000}, ew::core::to_bytes("deadbeef")};
  ew::net::Frame f2{Timestamp{2'000'000}, ew::core::to_bytes("poison-frame")};
  ASSERT_TRUE(log.append(17, f1));
  ASSERT_TRUE(log.append(99, f2));
  ASSERT_TRUE(log.sync());
  EXPECT_EQ(log.entries(), 2u);
  log.close();

  const auto entries = ew::runtime::QuarantineLog::read_all(dir / "poison.ewq");
  ASSERT_TRUE(entries);
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].seq, 17u);
  EXPECT_EQ((*entries)[0].data, f1.data);
  EXPECT_EQ((*entries)[1].seq, 99u);
  EXPECT_EQ((*entries)[1].timestamp.micros(), 2'000'000);
}

TEST(QuarantineLog, ResumeTruncatesBackToCheckpointedSize) {
  const auto dir = fresh_dir("quarantine_resume");
  const auto path = dir / "poison.ewq";
  std::uint64_t checkpointed_bytes = 0;
  {
    ew::runtime::QuarantineLog log{path};
    ASSERT_TRUE(log.open());
    ASSERT_TRUE(log.append(1, {Timestamp{1}, ew::core::to_bytes("keep")}));
    checkpointed_bytes = log.bytes();
    // Post-checkpoint entry: must vanish on resume.
    ASSERT_TRUE(log.append(2, {Timestamp{2}, ew::core::to_bytes("discard")}));
    log.close();
  }
  {
    ew::runtime::QuarantineLog log{path};
    ASSERT_TRUE(log.open(checkpointed_bytes, 1));
    EXPECT_EQ(log.entries(), 1u);
    ASSERT_TRUE(log.append(3, {Timestamp{3}, ew::core::to_bytes("replayed")}));
    log.close();
  }
  const auto entries = ew::runtime::QuarantineLog::read_all(path);
  ASSERT_TRUE(entries);
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].seq, 1u);
  EXPECT_EQ((*entries)[1].seq, 3u);
}

// ----------------------------------------------------- PipelineCheckpoint

namespace {

ew::runtime::PipelineCheckpoint sample_checkpoint() {
  ew::runtime::PipelineCheckpoint cp;
  cp.replay_from = 1234;
  cp.probe_next_seq = 1100;
  cp.frames_offered = 1234;
  cp.frames_ingested = 1090;
  cp.shed_sampled = 100;
  cp.shed_backpressure = 34;
  cp.frames_quarantined = 10;
  cp.append_retries = 3;
  cp.append_failures = 1;
  cp.checkpoints_written = 7;
  cp.stalls_detected = 2;
  cp.controller = {2, 1, 5, 900};
  cp.quarantine_bytes = 77;
  cp.quarantine_entries = 10;
  cp.shard_state = {ew::core::to_bytes("shard-zero"), ew::core::to_bytes("shard-one")};
  ew::runtime::PipelineCheckpoint::DayState d;
  d.day = {2017, 6, 15};
  d.lake_bytes = 4096;
  d.quality = {1234, 1090, 134, 10};
  cp.days.push_back(d);
  ew::flow::FlowRecord record;
  record.client_ip = IPv4Address{10, 0, 4, 1};
  record.server_ip = IPv4Address{93, 184, 216, 34};
  record.first_packet = Timestamp{100'000'000};
  record.ingest_seq = 55;
  cp.pending.push_back(record);
  return cp;
}

}  // namespace

TEST(PipelineCheckpoint, SaveLoadRoundtrip) {
  const auto dir = fresh_dir("ewpc");
  const auto path = dir / "pipeline.ewpc";
  const auto cp = sample_checkpoint();
  ASSERT_TRUE(ew::runtime::save_pipeline_checkpoint(cp, path));

  const auto loaded = ew::runtime::load_pipeline_checkpoint(path);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->replay_from, cp.replay_from);
  EXPECT_EQ(loaded->probe_next_seq, cp.probe_next_seq);
  EXPECT_EQ(loaded->frames_ingested, cp.frames_ingested);
  EXPECT_EQ(loaded->shed_backpressure, cp.shed_backpressure);
  EXPECT_EQ(loaded->controller.shift, 2u);
  EXPECT_EQ(loaded->controller.observations, 900u);
  EXPECT_EQ(loaded->quarantine_bytes, 77u);
  ASSERT_EQ(loaded->shard_state.size(), 2u);
  EXPECT_EQ(loaded->shard_state[1], ew::core::to_bytes("shard-one"));
  ASSERT_EQ(loaded->days.size(), 1u);
  EXPECT_EQ(loaded->days[0].day, (ew::core::CivilDate{2017, 6, 15}));
  EXPECT_EQ(loaded->days[0].lake_bytes, 4096u);
  EXPECT_TRUE(loaded->days[0].quality.reconciles());
  ASSERT_EQ(loaded->pending.size(), 1u);
  EXPECT_EQ(loaded->pending[0].client_ip, (IPv4Address{10, 0, 4, 1}));
  EXPECT_EQ(loaded->pending[0].first_packet.micros(), 100'000'000);
}

TEST(PipelineCheckpoint, MissingFileIsNotFound) {
  const auto dir = fresh_dir("ewpc_missing");
  const auto loaded = ew::runtime::load_pipeline_checkpoint(dir / "absent.ewpc");
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.error(), ew::core::Errc::kNotFound);
}

TEST(PipelineCheckpoint, CorruptPayloadIsRejected) {
  const auto dir = fresh_dir("ewpc_corrupt");
  const auto path = dir / "pipeline.ewpc";
  ASSERT_TRUE(ew::runtime::save_pipeline_checkpoint(sample_checkpoint(), path));
  // Flip one payload byte.
  auto bytes = [&] {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::vector<char> data(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
    return data;
  }();
  bytes[bytes.size() - 3] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto loaded = ew::runtime::load_pipeline_checkpoint(path);
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.error(), ew::core::Errc::kCorrupt);
}

TEST(PipelineCheckpoint, TruncatedFileIsRejectedNotCrashed) {
  const auto dir = fresh_dir("ewpc_trunc");
  const auto path = dir / "pipeline.ewpc";
  ASSERT_TRUE(ew::runtime::save_pipeline_checkpoint(sample_checkpoint(), path));
  const auto full = std::filesystem::file_size(path);
  for (const std::uintmax_t keep : {std::uintmax_t{0}, std::uintmax_t{4}, full / 2,
                                    full - 1}) {
    std::filesystem::resize_file(path, keep);
    EXPECT_FALSE(ew::runtime::load_pipeline_checkpoint(path)) << "keep=" << keep;
    // Restore for the next iteration.
    ASSERT_TRUE(ew::runtime::save_pipeline_checkpoint(sample_checkpoint(), path));
  }
}

// --------------------------------------------------------- ChaosSchedule

TEST(ChaosSchedule, PoisonDecisionsAreSeedDeterministic) {
  ew::runtime::ChaosConfig cfg;
  cfg.seed = 42;
  cfg.poison_every = 16;
  ew::runtime::ChaosSchedule a{cfg};
  ew::runtime::ChaosSchedule b{cfg};
  std::uint64_t poisons = 0;
  for (std::uint64_t seq = 0; seq < 2000; ++seq) {
    EXPECT_EQ(a.poisons(seq), b.poisons(seq));
    if (a.poisons(seq)) ++poisons;
  }
  EXPECT_GT(poisons, 50u);  // roughly 1/16
  EXPECT_LT(poisons, 250u);

  cfg.seed = 43;
  ew::runtime::ChaosSchedule c{cfg};
  bool differs = false;
  for (std::uint64_t seq = 0; seq < 2000 && !differs; ++seq) {
    differs = a.poisons(seq) != c.poisons(seq);
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------------------------- Supervisor

namespace {

ew::runtime::SupervisorConfig calm_config(const std::filesystem::path& dir) {
  ew::runtime::SupervisorConfig cfg;
  cfg.probe.shards = 2;
  cfg.probe.queue_capacity = 4096;  // never backpressures in calm tests
  cfg.checkpoint_path = dir / "pipeline.ewpc";
  cfg.quarantine_path = dir / "poison.ewq";
  return cfg;
}

}  // namespace

TEST(Supervisor, CalmRunIngestsEverythingAndMatchesShardedProbe) {
  const auto frames = workload();
  const auto dir = fresh_dir("sup_calm");
  ew::storage::DataLake lake{dir / "lake"};

  ew::runtime::Supervisor sup{lake, calm_config(dir)};
  ASSERT_TRUE(sup.start());
  for (const auto& f : frames) sup.offer(f);
  ASSERT_TRUE(sup.finish());

  const auto h = sup.health();
  EXPECT_EQ(h.state, HealthState::kHealthy);
  EXPECT_EQ(h.frames_offered, frames.size());
  EXPECT_EQ(h.frames_ingested, frames.size());
  EXPECT_EQ(h.shed_total(), 0u);
  EXPECT_EQ(h.frames_quarantined, 0u);
  EXPECT_TRUE(h.reconciles());

  // The lake holds exactly what an unsupervised ShardedProbe would export.
  ew::probe::ShardedProbeConfig scfg;
  scfg.shards = 2;
  scfg.queue_capacity = 4096;
  ew::probe::ShardedProbe reference{scfg};
  for (const auto& f : frames) reference.ingest(f);
  const auto expected = reference.finish();
  ASSERT_FALSE(expected.empty());

  const auto days = lake.days();
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(encode_stream(lake.read_day(days[0])), encode_stream(expected));

  const auto quality = sup.day_quality();
  ASSERT_TRUE(quality.contains(days[0]));
  EXPECT_TRUE(quality.at(days[0]).complete());
  EXPECT_DOUBLE_EQ(quality.at(days[0]).correction_factor(), 1.0);
}

// A feed that never runs more than half the capacity ahead of the workers
// is no overload: nothing may be shed. The feed also waits on the workers,
// so frames left staged behind an idle worker would stall it.
TEST(Supervisor, FeedPacedToTheWorkersShedsNothing) {
  const auto frames = workload(24);
  const auto dir = fresh_dir("sup_paced");
  ew::storage::DataLake lake{dir / "lake"};
  auto cfg = calm_config(dir);
  cfg.probe.shards = 4;
  cfg.probe.queue_capacity = 64;
  const std::uint64_t window = cfg.probe.queue_capacity / 2;
  ASSERT_GT(frames.size(), 4 * cfg.probe.queue_capacity);

  ew::runtime::Supervisor sup{lake, cfg};
  ASSERT_TRUE(sup.start());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (const auto& f : frames) {
    while (true) {
      const auto h = sup.health();
      std::uint64_t processed = 0;  // heartbeats: frames, as no control event runs
      for (const auto& s : h.shards) processed += s.heartbeat;
      if (h.frames_ingested < processed + window) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "workers never got the staged frames";
      std::this_thread::yield();
    }
    sup.offer(f);
  }
  ASSERT_TRUE(sup.finish());

  const auto h = sup.health();
  EXPECT_EQ(h.frames_ingested, frames.size());
  EXPECT_EQ(h.shed_total(), 0u);
  EXPECT_EQ(h.state, HealthState::kHealthy);
  EXPECT_TRUE(h.reconciles());
}

TEST(Supervisor, OverloadShedsWithExactReconciliation) {
  const auto frames = workload(24);
  const auto dir = fresh_dir("sup_overload");
  ew::storage::DataLake lake{dir / "lake"};

  auto cfg = calm_config(dir);
  cfg.probe.shards = 2;
  cfg.probe.queue_capacity = 4;  // tiny rings
  cfg.overload.observe_every = 4;
  cfg.overload.escalate_after = 2;
  cfg.overload.ingest_retries = 2;  // shed quickly instead of spinning
  ew::runtime::ChaosConfig chaos_cfg;
  chaos_cfg.busy_spin = 2'000;  // slow workers: sustained feeder pressure
  ew::runtime::ChaosSchedule chaos{chaos_cfg};
  // The worker that takes the first frame blocks until the feed is over,
  // so its tiny ring fills and stays full whatever the scheduler does:
  // every later frame routed to it is shed.
  chaos.arm_stall(0);
  cfg.probe.frame_inspector = chaos.inspector();

  ew::runtime::Supervisor sup{lake, cfg};
  ASSERT_TRUE(sup.start());
  for (const auto& f : frames) sup.offer(f);
  chaos.release_stall();
  ASSERT_TRUE(sup.finish());

  const auto h = sup.health();
  EXPECT_EQ(h.frames_offered, frames.size());
  EXPECT_GT(h.shed_total(), 0u) << "a stalled shard behind a tiny ring must shed";
  // The acceptance invariant: offered = ingested + shed + quarantined,
  // exactly, after the pipeline drained.
  EXPECT_TRUE(h.reconciles())
      << "offered=" << h.frames_offered << " ingested=" << h.frames_ingested
      << " shed=" << h.shed_total() << " quarantined=" << h.frames_quarantined;

  // Per-day accounting reconciles too, and the correction factor reflects
  // the shed volume.
  std::uint64_t offered = 0;
  for (const auto& [day, q] : sup.day_quality()) {
    EXPECT_TRUE(q.reconciles()) << day.to_string();
    EXPECT_GE(q.correction_factor(), 1.0);
    offered += q.frames_offered;
  }
  EXPECT_EQ(offered, frames.size());
  EXPECT_FALSE(sup.health().format().empty());
}

TEST(Supervisor, PoisonFramesAreQuarantinedAndAccounted) {
  const auto frames = workload();
  const auto dir = fresh_dir("sup_poison");
  ew::storage::DataLake lake{dir / "lake"};

  auto cfg = calm_config(dir);
  ew::runtime::ChaosConfig chaos_cfg;
  chaos_cfg.seed = 7;
  chaos_cfg.poison_every = 40;
  chaos_cfg.suspect_every = 0;  // plain poisons: state untouched
  ew::runtime::ChaosSchedule chaos{chaos_cfg};
  cfg.probe.frame_inspector = chaos.inspector();

  ew::runtime::Supervisor sup{lake, cfg};
  ASSERT_TRUE(sup.start());
  for (const auto& f : frames) sup.offer(f);
  ASSERT_TRUE(sup.finish());

  // Every frame was accepted (huge queues), so probe seqs are 0..N-1 and
  // the poison count is exactly what the schedule dictates.
  std::uint64_t expected_poisons = 0;
  for (std::uint64_t seq = 0; seq < frames.size(); ++seq) {
    if (chaos.poisons(seq)) ++expected_poisons;
  }
  ASSERT_GT(expected_poisons, 0u);

  const auto h = sup.health();
  EXPECT_EQ(h.frames_quarantined, expected_poisons);
  EXPECT_EQ(h.frames_ingested, frames.size() - expected_poisons);
  EXPECT_TRUE(h.reconciles());

  const auto entries = ew::runtime::QuarantineLog::read_all(dir / "poison.ewq");
  ASSERT_TRUE(entries);
  EXPECT_EQ(entries->size(), expected_poisons);
  for (const auto& e : *entries) EXPECT_TRUE(chaos.poisons(e.seq)) << e.seq;
}

TEST(Supervisor, SuspectPoisonRollsBackToSnapshotAndKeepsRunning) {
  const auto frames = workload();
  const auto dir = fresh_dir("sup_suspect");
  ew::storage::DataLake lake{dir / "lake"};

  auto cfg = calm_config(dir);
  cfg.probe.snapshot_interval = 64;
  ew::runtime::ChaosConfig chaos_cfg;
  chaos_cfg.seed = 11;
  chaos_cfg.poison_every = 50;
  chaos_cfg.suspect_every = 1;  // every poison is state-suspect
  ew::runtime::ChaosSchedule chaos{chaos_cfg};
  cfg.probe.frame_inspector = chaos.inspector();

  ew::runtime::Supervisor sup{lake, cfg};
  ASSERT_TRUE(sup.start());
  for (const auto& f : frames) sup.offer(f);
  ASSERT_TRUE(sup.finish());

  const auto h = sup.health();
  EXPECT_GT(h.frames_quarantined, 0u);
  EXPECT_TRUE(h.reconciles());
  // Rollbacks happened, and the pipeline still delivered records.
  EXPECT_FALSE(lake.days().empty());
  EXPECT_GT(lake.read_day(lake.days().front()).size(), 0u);
}

TEST(Supervisor, WatchdogDetectsStallAndRecovers) {
  const auto frames = workload();
  const auto dir = fresh_dir("sup_stall");
  ew::storage::DataLake lake{dir / "lake"};

  auto cfg = calm_config(dir);
  cfg.probe.shards = 1;  // one ring: the stalled worker is the only drain
  cfg.probe.queue_capacity = 8;
  cfg.overload.observe_every = 1;
  cfg.overload.ingest_retries = 1;
  cfg.stall_strikes = 2;
  ew::runtime::ChaosSchedule chaos{{}};
  chaos.arm_stall(5);  // worker blocks at the sixth accepted frame
  cfg.probe.frame_inspector = chaos.inspector();

  ew::runtime::Supervisor sup{lake, cfg};
  ASSERT_TRUE(sup.start());
  std::size_t fed = 0;
  for (; fed < frames.size(); ++fed) {
    sup.offer(frames[fed]);
    if (sup.health().stalls_detected > 0) break;
  }
  ASSERT_LT(fed, frames.size()) << "watchdog never fired";
  EXPECT_GE(sup.health().stalls_detected, 1u);

  chaos.release_stall();
  for (++fed; fed < frames.size(); ++fed) sup.offer(frames[fed]);
  ASSERT_TRUE(sup.finish());
  const auto h = sup.health();
  EXPECT_TRUE(h.reconciles());
  // After release the shard drained: no shard reports a live stall.
  for (const auto& s : h.shards) EXPECT_FALSE(s.stalled);
}

TEST(Supervisor, AnnotateThreadsCaptureQualityIntoDayAggregate) {
  const auto frames = workload();
  const auto dir = fresh_dir("sup_annotate");
  ew::storage::DataLake lake{dir / "lake"};

  auto cfg = calm_config(dir);
  cfg.probe.queue_capacity = 4;
  cfg.overload.observe_every = 2;
  cfg.overload.escalate_after = 2;
  cfg.overload.ingest_retries = 1;
  ew::runtime::ChaosConfig chaos_cfg;
  chaos_cfg.busy_spin = 2'000;
  ew::runtime::ChaosSchedule chaos{chaos_cfg};
  cfg.probe.frame_inspector = chaos.inspector();

  ew::runtime::Supervisor sup{lake, cfg};
  ASSERT_TRUE(sup.start());
  for (const auto& f : frames) sup.offer(f);
  ASSERT_TRUE(sup.finish());

  ASSERT_FALSE(lake.days().empty());
  ew::analytics::DayAggregate agg;
  agg.date = lake.days().front();
  EXPECT_TRUE(agg.capture.complete());  // untouched default
  sup.annotate(agg);
  EXPECT_EQ(agg.capture.frames_offered, sup.day_quality().at(agg.date).frames_offered);
  EXPECT_TRUE(agg.capture.reconciles());

  // Merging two annotated aggregates sums the capture accounting.
  ew::analytics::DayAggregate other;
  other.date = agg.date;
  sup.annotate(other);
  const auto offered = agg.capture.frames_offered;
  agg.merge(other);
  EXPECT_EQ(agg.capture.frames_offered, 2 * offered);
}

TEST(Supervisor, AppendRetriesTransientDiskFaultWithBackoff) {
  const auto frames = workload();
  const auto dir = fresh_dir("sup_retry");
  ew::storage::DataLake lake{dir / "lake"};
  // First lake write handle hits ENOSPC mid-stream; later handles are
  // healthy — the classic "log rotation freed space" sequence.
  lake.set_file_factory(ew::storage::FaultyFile::factory_once(
      {ew::storage::FaultKind::kNoSpace, /*at_byte=*/256}));

  auto cfg = calm_config(dir);
  std::vector<std::chrono::microseconds> slept;
  cfg.sleeper = [&](std::chrono::microseconds us) { slept.push_back(us); };

  ew::runtime::Supervisor sup{lake, cfg};
  ASSERT_TRUE(sup.start());
  for (const auto& f : frames) sup.offer(f);
  ASSERT_TRUE(sup.finish());

  const auto h = sup.health();
  EXPECT_GE(h.append_retries, 1u);
  EXPECT_EQ(h.append_failures, 0u) << "retry must have landed the batch";
  EXPECT_FALSE(slept.empty());
  ASSERT_EQ(lake.days().size(), 1u);
  EXPECT_TRUE(lake.fsck().clean());
}

TEST(Supervisor, ExhaustedRetriesParkRecordsAndLaterFlushDelivers) {
  const auto frames = workload();
  const auto dir = fresh_dir("sup_park");
  ew::storage::DataLake lake{dir / "lake"};

  auto cfg = calm_config(dir);
  cfg.backoff.max_attempts = 2;

  ew::runtime::Supervisor sup{lake, cfg};
  ASSERT_TRUE(sup.start());
  for (const auto& f : frames) sup.offer(f);

  // Dead disk when the drain flushes: every attempt fails, the batch parks.
  lake.set_file_factory([] {
    return std::make_unique<ew::storage::FaultyFile>(
        ew::storage::make_posix_file(),
        ew::storage::FaultPlan{ew::storage::FaultKind::kNoSpace, 0});
  });
  const auto first = sup.finish();
  ASSERT_FALSE(first);
  EXPECT_EQ(first.error(), ew::core::Errc::kNoSpace);
  const auto h = sup.health();
  EXPECT_GE(h.append_failures, 1u);
  EXPECT_EQ(h.last_append_error, ew::core::Errc::kNoSpace);
  EXPECT_TRUE(lake.days().empty()) << "failed append must leave no partial file";

  // Space returns; a second finish() delivers the parked batch.
  lake.set_file_factory({});
  ASSERT_TRUE(sup.finish());
  ASSERT_EQ(lake.days().size(), 1u);
  EXPECT_TRUE(lake.fsck().clean());
  EXPECT_GT(lake.read_day(lake.days()[0]).size(), 0u);
}
