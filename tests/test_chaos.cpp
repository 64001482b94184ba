// Deterministic chaos harness for the resilient runtime (DESIGN §11):
// kill the pipeline at scripted points, resume from the last checkpoint,
// and require the recovered lake to be byte-identical to an uninterrupted
// run's. Every fault here is a pure function of a seed — a failure
// reproduces forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <vector>

#include "core/bytes.hpp"
#include "probe/sharded_probe.hpp"
#include "runtime/chaos.hpp"
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

namespace {

/// A fresh directory under this process's own scratch root (removed at
/// exit), so concurrent test processes never share a path.
std::filesystem::path fresh_dir(const std::string& name) {
  static const ew::testing::TempDir root{"ew_chaos"};
  const auto dir = root.path / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Two civil days of deterministic traffic so recovery also has to get the
/// day-file split right.
std::vector<ew::net::Frame> workload() {
  constexpr IPv4Address kResolver{10, 255, 255, 53};
  struct Site {
    IPv4Address ip;
    const char* name;
  };
  const Site sites[] = {
      {{93, 184, 216, 34}, "static.example.com"},
      {{31, 13, 86, 36}, "edge-star.facebook.com"},
      {{173, 194, 11, 7}, "r3---sn.googlevideo.com"},
      {{151, 101, 1, 140}, "cdn.sstatic.net"},
  };
  std::vector<ew::net::Frame> frames;
  for (int day = 0; day < 2; ++day) {
    const std::int64_t day_base_us = day * 86'400'000'000LL + 50'000'000'000LL;
    for (int c = 0; c < 12; ++c) {
      const IPv4Address client{10, 0, 9, static_cast<std::uint8_t>(20 + c)};
      for (int k = 0; k < 4; ++k) {
        const auto& site = sites[static_cast<std::size_t>((c + k + day) % 4)];
        const std::int64_t start_us = day_base_us + (c * 1499 + k * 37501) * 1000LL;
        const IPv4Address addrs[] = {site.ip};
        frames.push_back(ew::synth::render_dns_response(
            client, kResolver, site.name, addrs, Timestamp{start_us - 35'000}));
        ew::synth::ConversationSpec spec;
        spec.client = client;
        spec.server = site.ip;
        spec.client_port = static_cast<std::uint16_t>(41000 + day * 1000 + c * 8 + k);
        spec.web = (c + k) % 2 == 0 ? ew::dpi::WebProtocol::kTls : ew::dpi::WebProtocol::kHttp;
        spec.server_name = site.name;
        spec.response_bytes = static_cast<std::size_t>(6'000 + c * 917 + k * 1'311);
        spec.start = Timestamp{start_us};
        spec.rtt_us = 8'000 + c * 450;
        spec.teardown = (c + k + day) % 4 != 0;
        const auto conv = ew::synth::render_conversation(spec);
        frames.insert(frames.end(), conv.begin(), conv.end());
      }
    }
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const ew::net::Frame& a, const ew::net::Frame& b) {
                     return a.timestamp < b.timestamp;
                   });
  return frames;
}

ew::runtime::SupervisorConfig base_config(const std::filesystem::path& dir) {
  ew::runtime::SupervisorConfig cfg;
  cfg.probe.shards = 2;
  cfg.probe.queue_capacity = 4096;  // no backpressure: determinism first
  cfg.probe.snapshot_interval = 64;
  cfg.checkpoint_interval = 500;
  cfg.checkpoint_path = dir / "pipeline.ewpc";
  cfg.quarantine_path = dir / "poison.ewq";
  return cfg;
}

/// Raw bytes of every day file, keyed by day — the strongest equality.
std::map<ew::core::CivilDate, std::vector<std::byte>> lake_bytes(
    const ew::storage::DataLake& lake) {
  std::map<ew::core::CivilDate, std::vector<std::byte>> out;
  for (const auto day : lake.days()) {
    std::ifstream in(lake.root() / ew::storage::DataLake::day_filename(day),
                     std::ios::binary | std::ios::ate);
    std::vector<char> raw(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(raw.data(), static_cast<std::streamsize>(raw.size()));
    auto& bytes = out[day];
    bytes.resize(raw.size());
    std::transform(raw.begin(), raw.end(), bytes.begin(),
                   [](char c) { return static_cast<std::byte>(c); });
  }
  return out;
}

std::map<ew::core::CivilDate, std::vector<std::byte>> record_streams(
    const ew::storage::DataLake& lake) {
  std::map<ew::core::CivilDate, std::vector<std::byte>> out;
  for (const auto day : lake.days()) {
    ew::core::ByteWriter w;
    for (const auto& r : lake.read_day(day)) ew::storage::encode_record(r, w);
    out[day] = {w.view().begin(), w.view().end()};
  }
  return out;
}

/// The uninterrupted reference run: same config, same frames, no kill.
/// Each caller gets its own scratch dir so ctest -j can shard tests into
/// concurrent processes without collisions.
std::map<ew::core::CivilDate, std::vector<std::byte>> golden_run(
    const std::string& name, const std::vector<ew::net::Frame>& frames,
    const ew::runtime::ChaosConfig& chaos_cfg,
    std::map<ew::core::CivilDate, ew::analytics::CaptureQuality>* quality_out = nullptr) {
  const auto dir = fresh_dir("golden_" + name);
  ew::storage::DataLake lake{dir / "lake"};
  auto cfg = base_config(dir);
  ew::runtime::ChaosSchedule chaos{chaos_cfg};
  cfg.probe.frame_inspector = chaos.inspector();
  ew::runtime::Supervisor sup{lake, cfg};
  EXPECT_TRUE(sup.start());
  for (const auto& f : frames) sup.offer(f);
  EXPECT_TRUE(sup.finish());
  EXPECT_TRUE(sup.health().reconciles());
  if (quality_out) *quality_out = sup.day_quality();
  return lake_bytes(lake);
}

}  // namespace

// A killed-and-resumed run must rebuild the exact same lake, byte for
// byte, no matter where the kill lands relative to checkpoint barriers.
TEST(ChaosRecovery, KillPointSweepIsByteIdentical) {
  const auto frames = workload();
  ASSERT_GT(frames.size(), 1500u);
  const auto golden = golden_run("sweep", frames, {});
  ASSERT_FALSE(golden.empty());

  // Kill points straddle checkpoint barriers (interval 500): right before,
  // on, right after, mid-interval, and before the first checkpoint.
  const std::uint64_t kill_points[] = {120, 499, 500, 501, 750, 1000, 1337};
  for (const std::uint64_t kill_at : kill_points) {
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    const auto dir = fresh_dir("kill_" + std::to_string(kill_at));
    ew::storage::DataLake lake{dir / "lake"};

    {
      ew::runtime::Supervisor sup{lake, base_config(dir)};
      ASSERT_TRUE(sup.start());
      for (std::uint64_t i = 0; i < kill_at; ++i) sup.offer(frames[i]);
      sup.simulate_crash();  // SIGKILL: no flush, no checkpoint
    }

    ew::storage::DataLake lake2{dir / "lake"};
    ew::runtime::Supervisor sup{lake2, base_config(dir)};
    const auto replay_from = sup.resume();
    ASSERT_TRUE(replay_from);
    EXPECT_LE(*replay_from, kill_at);
    // Resume returns the replay cursor: skip what was already consumed.
    for (std::uint64_t i = *replay_from; i < frames.size(); ++i) sup.offer(frames[i]);
    ASSERT_TRUE(sup.finish());
    EXPECT_TRUE(sup.health().reconciles());

    EXPECT_EQ(lake_bytes(lake2), golden) << "lake diverged after kill at " << kill_at;
  }
}

// Poison frames must land in quarantine identically whether or not the run
// was interrupted: the schedule is keyed on the probe sequence, and resume
// restores the sequence space exactly.
TEST(ChaosRecovery, PoisonAccountingSurvivesKillAndResume) {
  const auto frames = workload();
  ew::runtime::ChaosConfig chaos_cfg;
  chaos_cfg.seed = 99;
  chaos_cfg.poison_every = 120;
  chaos_cfg.suspect_every = 0;  // plain poisons: drop + quarantine, state untouched
  std::map<ew::core::CivilDate, ew::analytics::CaptureQuality> golden_quality;
  const auto golden = golden_run("poison", frames, chaos_cfg, &golden_quality);

  const auto dir = fresh_dir("poison_resume");
  ew::storage::DataLake lake{dir / "lake"};
  auto cfg = base_config(dir);
  ew::runtime::ChaosSchedule chaos{chaos_cfg};
  cfg.probe.frame_inspector = chaos.inspector();
  {
    ew::runtime::Supervisor sup{lake, cfg};
    ASSERT_TRUE(sup.start());
    for (std::uint64_t i = 0; i < 777; ++i) sup.offer(frames[i]);
    sup.simulate_crash();
  }

  ew::storage::DataLake lake2{dir / "lake"};
  auto cfg2 = base_config(dir);
  ew::runtime::ChaosSchedule chaos2{chaos_cfg};
  cfg2.probe.frame_inspector = chaos2.inspector();
  ew::runtime::Supervisor sup{lake2, cfg2};
  const auto replay_from = sup.resume();
  ASSERT_TRUE(replay_from);
  for (std::uint64_t i = *replay_from; i < frames.size(); ++i) sup.offer(frames[i]);
  ASSERT_TRUE(sup.finish());

  const auto h = sup.health();
  EXPECT_TRUE(h.reconciles());
  EXPECT_EQ(lake_bytes(lake2), golden);
  EXPECT_EQ(sup.day_quality(), golden_quality);

  // The quarantine file holds each poison exactly once (entries past the
  // checkpoint were truncated on resume and re-captured during replay).
  const auto entries = ew::runtime::QuarantineLog::read_all(dir / "poison.ewq");
  ASSERT_TRUE(entries);
  std::uint64_t expected = 0;
  for (std::uint64_t seq = 0; seq < frames.size(); ++seq) {
    if (chaos.poisons(seq)) ++expected;
  }
  EXPECT_EQ(entries->size(), expected);
  std::vector<std::uint64_t> seqs;
  for (const auto& e : *entries) seqs.push_back(e.seq);
  auto sorted = seqs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << "a poison frame was quarantined twice";
}

// Suspect poisons roll shards back to their last snapshot. The rollback
// anchors are re-established by checkpoint barriers, so a resumed run
// replays the same rollbacks and converges on the same lake.
TEST(ChaosRecovery, SuspectRollbacksAreReplayedIdentically) {
  const auto frames = workload();
  ew::runtime::ChaosConfig chaos_cfg;
  chaos_cfg.seed = 5;
  chaos_cfg.poison_every = 400;
  chaos_cfg.suspect_every = 1;  // every poison wrecks shard state
  const auto golden = golden_run("suspect", frames, chaos_cfg);

  const auto dir = fresh_dir("suspect_resume");
  ew::storage::DataLake lake{dir / "lake"};
  auto cfg = base_config(dir);
  ew::runtime::ChaosSchedule chaos{chaos_cfg};
  cfg.probe.frame_inspector = chaos.inspector();
  {
    ew::runtime::Supervisor sup{lake, cfg};
    ASSERT_TRUE(sup.start());
    for (std::uint64_t i = 0; i < 1100; ++i) sup.offer(frames[i]);
    sup.simulate_crash();
  }

  ew::storage::DataLake lake2{dir / "lake"};
  auto cfg2 = base_config(dir);
  ew::runtime::ChaosSchedule chaos2{chaos_cfg};
  cfg2.probe.frame_inspector = chaos2.inspector();
  ew::runtime::Supervisor sup{lake2, cfg2};
  const auto replay_from = sup.resume();
  ASSERT_TRUE(replay_from);
  for (std::uint64_t i = *replay_from; i < frames.size(); ++i) sup.offer(frames[i]);
  ASSERT_TRUE(sup.finish());
  EXPECT_TRUE(sup.health().reconciles());
  EXPECT_EQ(lake_bytes(lake2), golden);
}

// Double kill: crash, resume, crash again mid-replay, resume again.
TEST(ChaosRecovery, SurvivesRepeatedKills) {
  const auto frames = workload();
  const auto golden = golden_run("double", frames, {});

  const auto dir = fresh_dir("double_kill");
  {
    ew::storage::DataLake lake{dir / "lake"};
    ew::runtime::Supervisor sup{lake, base_config(dir)};
    ASSERT_TRUE(sup.start());
    for (std::uint64_t i = 0; i < 620; ++i) sup.offer(frames[i]);
    sup.simulate_crash();
  }
  std::uint64_t second_kill = 0;
  {
    ew::storage::DataLake lake{dir / "lake"};
    ew::runtime::Supervisor sup{lake, base_config(dir)};
    const auto replay_from = sup.resume();
    ASSERT_TRUE(replay_from);
    second_kill = *replay_from + 430;  // dies again before catching up
    for (std::uint64_t i = *replay_from; i < second_kill; ++i) sup.offer(frames[i]);
    sup.simulate_crash();
  }
  ew::storage::DataLake lake{dir / "lake"};
  ew::runtime::Supervisor sup{lake, base_config(dir)};
  const auto replay_from = sup.resume();
  ASSERT_TRUE(replay_from);
  for (std::uint64_t i = *replay_from; i < frames.size(); ++i) sup.offer(frames[i]);
  ASSERT_TRUE(sup.finish());
  EXPECT_TRUE(sup.health().reconciles());
  EXPECT_EQ(lake_bytes(lake), golden);
}

// A crash in the middle of a lake append leaves a torn tail. Resume must
// cut it back to the checkpointed durable length and replay — the decoded
// record streams end up equal to the golden run's (framing may differ:
// the re-flushed batch merges with the next barrier's).
TEST(ChaosRecovery, CrashMidAppendRepairsTornTail) {
  const auto frames = workload();
  const auto golden_records = [&] {
    const auto dir = fresh_dir("golden_records");
    ew::storage::DataLake lake{dir / "lake"};
    ew::runtime::Supervisor sup{lake, base_config(dir)};
    EXPECT_TRUE(sup.start());
    for (const auto& f : frames) sup.offer(f);
    EXPECT_TRUE(sup.finish());
    return record_streams(lake);
  }();

  const auto dir = fresh_dir("torn_tail");
  {
    ew::storage::DataLake lake{dir / "lake"};
    // The second write handle dies partway through its batch: the first
    // checkpoint's append lands, a later one tears.
    lake.set_file_factory([n = std::make_shared<int>(0)]() mutable
                              -> std::unique_ptr<ew::storage::WritableFile> {
      if (++*n == 2) {
        return std::make_unique<ew::storage::FaultyFile>(
            ew::storage::make_posix_file(),
            ew::storage::FaultPlan{ew::storage::FaultKind::kCrashAtOffset, 700});
      }
      return ew::storage::make_posix_file();
    });
    ew::runtime::Supervisor sup{lake, base_config(dir)};
    ASSERT_TRUE(sup.start());
    for (std::uint64_t i = 0; i < 1200; ++i) sup.offer(frames[i]);
    sup.simulate_crash();
  }

  ew::storage::DataLake lake{dir / "lake"};
  ew::runtime::Supervisor sup{lake, base_config(dir)};
  const auto replay_from = sup.resume();
  ASSERT_TRUE(replay_from);
  for (std::uint64_t i = *replay_from; i < frames.size(); ++i) sup.offer(frames[i]);
  ASSERT_TRUE(sup.finish());

  EXPECT_TRUE(sup.health().reconciles());
  EXPECT_TRUE(lake.fsck().clean()) << "torn tail survived recovery";
  EXPECT_EQ(record_streams(lake), golden_records);
}

// Resume with no checkpoint file behaves like start(): full replay.
TEST(ChaosRecovery, ResumeWithoutCheckpointStartsFresh) {
  const auto frames = workload();
  const auto golden = golden_run("nocp", frames, {});

  const auto dir = fresh_dir("no_checkpoint");
  ew::storage::DataLake lake{dir / "lake"};
  ew::runtime::Supervisor sup{lake, base_config(dir)};
  const auto replay_from = sup.resume();
  ASSERT_TRUE(replay_from);
  EXPECT_EQ(*replay_from, 0u);
  for (const auto& f : frames) sup.offer(f);
  ASSERT_TRUE(sup.finish());
  EXPECT_EQ(lake_bytes(lake), golden);
}

// A corrupt checkpoint must be refused loudly, not half-restored.
TEST(ChaosRecovery, CorruptCheckpointIsRejected) {
  const auto frames = workload();
  const auto dir = fresh_dir("corrupt_cp");
  {
    ew::storage::DataLake lake{dir / "lake"};
    ew::runtime::Supervisor sup{lake, base_config(dir)};
    ASSERT_TRUE(sup.start());
    for (std::uint64_t i = 0; i < 800; ++i) sup.offer(frames[i]);
    sup.simulate_crash();
  }
  // Smash the checkpoint payload.
  const auto cp_path = dir / "pipeline.ewpc";
  ASSERT_TRUE(std::filesystem::exists(cp_path));
  {
    std::fstream f(cp_path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-5, std::ios::end);
    const char junk = 0x5a;
    f.write(&junk, 1);
  }
  ew::storage::DataLake lake{dir / "lake"};
  ew::runtime::Supervisor sup{lake, base_config(dir)};
  const auto replay_from = sup.resume();
  ASSERT_FALSE(replay_from);
  EXPECT_EQ(replay_from.error(), ew::core::Errc::kCorrupt);
}

// Every frame the probe accepts takes one sequence number, so a checkpoint
// must satisfy frames_ingested + frames_quarantined == probe_next_seq. A
// checkpoint with a valid CRC that breaks it is refused, in either
// direction.
TEST(ChaosRecovery, CheckpointWhoseCountsMissTheProbeSequenceIsRejected) {
  const auto frames = workload();
  const auto dir = fresh_dir("seq_mismatch_cp");
  ew::runtime::ChaosConfig chaos_cfg;
  chaos_cfg.seed = 3;
  chaos_cfg.poison_every = 50;
  chaos_cfg.suspect_every = 0;
  {
    ew::storage::DataLake lake{dir / "lake"};
    auto cfg = base_config(dir);
    ew::runtime::ChaosSchedule chaos{chaos_cfg};
    cfg.probe.frame_inspector = chaos.inspector();
    ew::runtime::Supervisor sup{lake, cfg};
    ASSERT_TRUE(sup.start());
    for (std::uint64_t i = 0; i < 800; ++i) sup.offer(frames[i]);
    sup.simulate_crash();
  }
  const auto cp_path = dir / "pipeline.ewpc";
  const auto saved = ew::runtime::load_pipeline_checkpoint(cp_path);
  ASSERT_TRUE(saved);
  ASSERT_GT(saved->frames_quarantined, 0u);
  ASSERT_EQ(saved->frames_ingested + saved->frames_quarantined, saved->probe_next_seq);

  const auto resume_with = [&](const ew::runtime::PipelineCheckpoint& cp) {
    EXPECT_TRUE(ew::runtime::save_pipeline_checkpoint(cp, cp_path));
    ew::storage::DataLake lake{dir / "lake"};
    auto cfg = base_config(dir);
    ew::runtime::ChaosSchedule chaos{chaos_cfg};
    cfg.probe.frame_inspector = chaos.inspector();
    ew::runtime::Supervisor sup{lake, cfg};
    return sup.resume();
  };
  for (const std::int64_t delta : {std::int64_t{1}, std::int64_t{-1}}) {
    auto cp = *saved;
    cp.frames_ingested += static_cast<std::uint64_t>(delta);
    const auto replay_from = resume_with(cp);
    ASSERT_FALSE(replay_from) << "delta=" << delta;
    EXPECT_EQ(replay_from.error(), ew::core::Errc::kCorrupt) << "delta=" << delta;
  }
  // The rewrite itself is not what is refused: the original counts resume.
  const auto replay_from = resume_with(*saved);
  ASSERT_TRUE(replay_from);
  EXPECT_EQ(*replay_from, 500u);
}
