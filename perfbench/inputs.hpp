// Workload inputs of the end-to-end benchmark. Everything the pipeline sees
// is generated here from the workload seed: a time-sorted capture rendered
// as frames from the paper scenario's flow mix and, for the figures
// workload, a multi-year day-partitioned lake written from the scenario's
// workload generator. The program under test only ever sees these inputs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "core/time.hpp"
#include "net/packet.hpp"
#include "synth/packets.hpp"
#include "synth/scenario.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kIngestBulk, kIngestChurn, kFigures };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name) noexcept;
[[nodiscard]] const char* to_string(Workload workload) noexcept;

/// One conversation of the capture, as it was rendered.
struct Conversation {
  edgewatch::synth::ConversationSpec spec;
  bool dns_announced = false;  ///< a DNS response for its server name precedes it
};

struct Inputs {
  edgewatch::synth::Scenario scenario;        ///< owns the RIB the ASN rollups use
  std::vector<edgewatch::net::Frame> frames;  ///< the capture, time-sorted
  /// What the capture holds: every conversation and the number of DNS
  /// response frames rendered besides them.
  std::vector<Conversation> conversations;
  std::size_t dns_responses = 0;

  // Figures workload only: the days of the lake written at set-up that get
  // rollups (the newer ones wait for their nightly build), and the
  // aggregate of every lake day computed from the generator's records.
  std::vector<edgewatch::core::CivilDate> rolled_days;
  std::map<edgewatch::core::CivilDate, edgewatch::analytics::DayAggregate> lake_reference;
  std::uint64_t lake_records = 0;
};

/// Generate the inputs of `workload` for `seed`; the figures lake goes to
/// `lake_dir`. `tiny` shrinks every size for the benchmark's self-test.
[[nodiscard]] Inputs make_inputs(Workload workload, std::uint64_t seed, bool tiny,
                                 const std::filesystem::path& lake_dir);

}  // namespace perfbench
