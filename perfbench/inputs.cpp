#include "inputs.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

#include "core/rng.hpp"
#include "dpi/classifier.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/packets.hpp"

namespace perfbench {

namespace ew = edgewatch;
using ew::core::CivilDate;
using ew::core::MonthIndex;

namespace {

/// The capture a workload replays: `conversations` flows drawn from one
/// generator day of the paper scenario (its services, server addresses,
/// names, web protocols and RTTs) and rendered as packets.
struct CaptureShape {
  int conversations = 0;
  int clients = 0;               ///< distinct subscriber addresses
  std::size_t min_response = 0;  ///< server payload bytes per flow
  std::size_t max_response = 0;
  double window_s = 0;           ///< every flow starts inside this window
  /// A DNS response before every flow; otherwise only before the flows
  /// that carry no name of their own (QUIC).
  bool dns_for_every_flow = false;
};

struct Shape {
  double scenario_scale = 0.1;
  CaptureShape capture;
  /// Figures lake: `lake_days_per_month` sample days of every month in
  /// [lake_from, lake_to], then `raw_days` newer days. 0 = no lake.
  int lake_days_per_month = 0;
  std::size_t lake_records_per_day = 3000;
  MonthIndex lake_from{2013, 3};
  MonthIndex lake_to{2017, 9};
  int raw_days = 0;
};

Shape shape_of(Workload workload, bool tiny) {
  Shape s;
  switch (workload) {
    case Workload::kIngestBulk:
      s.capture = {tiny ? 200 : 4000, tiny ? 100 : 1500, 8'000, 40'000, 2.0, false};
      break;
    case Workload::kIngestChurn:
      s.capture = {tiny ? 1000 : 20000, tiny ? 700 : 15000, 1'000, 4'000, 10.0, true};
      break;
    case Workload::kFigures:
      s.scenario_scale = 0.1;
      s.lake_records_per_day = 6000;
      s.capture = {tiny ? 100 : 1000, tiny ? 50 : 500, 8'000, 40'000, 2.0, false};
      s.lake_days_per_month = tiny ? 1 : 2;
      if (tiny) s.lake_to = MonthIndex{2013, 6};
      s.raw_days = tiny ? 1 : 3;
      break;
  }
  if (tiny) s.scenario_scale = 0.02;
  return s;
}

/// Alternating ADSL (10.0.0.0/9) and FTTH (10.128.0.0/9) lines, distinct
/// for every index.
ew::core::IPv4Address client_address(std::uint64_t index) {
  const auto ftth = static_cast<std::uint32_t>(index & 1u) << 23;
  const auto host = static_cast<std::uint32_t>(index >> 1) + 1;
  return ew::core::IPv4Address{(10u << 24) | ftth | host};
}

/// Renders the capture into `in.frames`, `in.conversations` and
/// `in.dns_responses`.
void render_capture(const CaptureShape& shape, std::span<const ew::flow::FlowRecord> templates,
                    CivilDate day, std::uint64_t seed, Inputs& in) {
  std::vector<std::size_t> usable;
  for (std::size_t i = 0; i < templates.size(); ++i) {
    const auto& t = templates[i];
    if (t.web != ew::dpi::WebProtocol::kNotWeb || ew::dpi::is_p2p(t.l7)) usable.push_back(i);
  }
  if (usable.empty()) throw std::runtime_error("generator day has no web or P2P flows");

  ew::core::Xoshiro256 rng{ew::core::mix64(seed, 0xca97)};
  const ew::core::IPv4Address resolver{62, 101, 93, 101};
  // Flows start in index order, evenly spread over a window centred on the
  // next midnight, so the capture always fills two lake days.
  const auto midnight =
      ew::core::Timestamp::from_date(ew::core::civil_from_days(ew::core::days_from_civil(day) + 1));
  const auto window_us = static_cast<std::int64_t>(shape.window_s * 1e6);
  const auto n = static_cast<std::int64_t>(shape.conversations);

  std::vector<ew::net::Frame>& frames = in.frames;
  in.conversations.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto& t = templates[usable[ew::core::uniform_below(rng, usable.size())]];
    ew::synth::ConversationSpec spec;
    spec.client = client_address(ew::core::uniform_below(rng, static_cast<std::uint64_t>(shape.clients)));
    spec.server = t.server_ip;
    spec.client_port = static_cast<std::uint16_t>(1024 + i % 60000);
    spec.p2p = ew::dpi::is_p2p(t.l7);
    spec.web = spec.p2p ? ew::dpi::WebProtocol::kNotWeb : t.web;
    spec.server_port = spec.p2p ? 51413 : (t.web == ew::dpi::WebProtocol::kHttp ? 80 : 443);
    spec.server_name = t.server_name;
    spec.response_bytes =
        shape.min_response +
        ew::core::uniform_below(rng, shape.max_response - shape.min_response + 1);
    spec.rtt_us = t.rtt.samples > 0 ? std::clamp<std::int64_t>(t.rtt.min_us, 500, 150'000) : 20'000;
    const auto jitter = static_cast<std::int64_t>(
        ew::core::uniform_below(rng, static_cast<std::uint64_t>(window_us)));
    spec.start = midnight + (-window_us / 2 + (window_us * i + jitter) / n);

    const bool announce = !spec.server_name.empty() &&
                          (shape.dns_for_every_flow || spec.web == ew::dpi::WebProtocol::kQuic);
    if (announce) {
      const ew::core::IPv4Address addrs[] = {spec.server};
      frames.push_back(ew::synth::render_dns_response(spec.client, resolver, spec.server_name,
                                                      addrs, spec.start + (-2'000),
                                                      spec.client_port));
      ++in.dns_responses;
    }
    auto conversation = ew::synth::render_conversation(spec);
    frames.insert(frames.end(), std::make_move_iterator(conversation.begin()),
                  std::make_move_iterator(conversation.end()));
    in.conversations.push_back({std::move(spec), announce});
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const ew::net::Frame& a, const ew::net::Frame& b) {
                     return a.timestamp < b.timestamp;
                   });
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) noexcept {
  if (name == "ingest_bulk") return Workload::kIngestBulk;
  if (name == "ingest_churn") return Workload::kIngestChurn;
  if (name == "figures") return Workload::kFigures;
  return std::nullopt;
}

const char* to_string(Workload workload) noexcept {
  switch (workload) {
    case Workload::kIngestBulk:
      return "ingest_bulk";
    case Workload::kIngestChurn:
      return "ingest_churn";
    case Workload::kFigures:
      return "figures";
  }
  return "unknown";
}

Inputs make_inputs(Workload workload, std::uint64_t seed, bool tiny,
                   const std::filesystem::path& lake_dir) {
  const Shape shape = shape_of(workload, tiny);
  Inputs in;
  in.scenario = ew::synth::build_paper_scenario(seed, shape.scenario_scale);
  const ew::synth::WorkloadGenerator gen{in.scenario};

  // One fixed day of the study's last year, so that seeds vary the traffic
  // but not the era's service and protocol mix.
  const CivilDate template_day{2017, 4, 12};
  const auto templates = gen.day_records(template_day);
  render_capture(shape.capture, templates, template_day, seed, in);

  if (shape.lake_days_per_month == 0) return in;
  ew::storage::DataLake lake{lake_dir};
  ew::core::Xoshiro256 rng{ew::core::mix64(seed, 0x1a)};
  const auto add_day = [&](CivilDate day) {
    auto records = gen.day_records(day);
    // A seeded uniform sample of at most lake_records_per_day records, in
    // generation order: a few heavy subscribers would otherwise swing the
    // lake size, and every timing over it, from seed to seed.
    if (records.size() > shape.lake_records_per_day) {
      std::vector<std::size_t> keep(records.size());
      std::iota(keep.begin(), keep.end(), std::size_t{0});
      for (std::size_t i = 0; i < shape.lake_records_per_day; ++i) {
        std::swap(keep[i], keep[i + ew::core::uniform_below(rng, keep.size() - i)]);
      }
      keep.resize(shape.lake_records_per_day);
      std::sort(keep.begin(), keep.end());
      std::vector<ew::flow::FlowRecord> sample;
      sample.reserve(keep.size());
      for (const std::size_t i : keep) sample.push_back(std::move(records[i]));
      records = std::move(sample);
    }
    ew::analytics::DayAggregator aggregator{day};
    for (const auto& r : records) aggregator.add(r);
    if (!lake.append(day, records)) {
      throw std::runtime_error("lake append failed for " + day.to_string());
    }
    in.lake_records += records.size();
    in.lake_reference.emplace(day, std::move(aggregator).take());
  };
  static constexpr std::uint8_t kSampleDays[] = {5, 10, 20};
  const std::span<const std::uint8_t> sample_days =
      std::span(kSampleDays).last(static_cast<std::size_t>(shape.lake_days_per_month));
  for (MonthIndex m = shape.lake_from; m <= shape.lake_to; m = m + 1) {
    for (const std::uint8_t d : sample_days) {
      const CivilDate day{m.year(), static_cast<std::uint8_t>(m.month()), d};
      add_day(day);
      in.rolled_days.push_back(day);
    }
  }
  for (int i = 0; i < shape.raw_days; ++i) {
    const CivilDate day{shape.lake_to.year(), static_cast<std::uint8_t>(shape.lake_to.month()),
                        static_cast<std::uint8_t>(26 + i)};
    add_day(day);
  }
  return in;
}

}  // namespace perfbench
