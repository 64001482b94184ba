// pcap2flows: replay a pcap capture through the passive probe and emit
// Tstat-style flow records as CSV — the offline batch mode of the paper's
// measurement pipeline, usable on any Ethernet/IPv4 capture.
//
//   ./build/examples/pcap2flows [trace.pcap] [--out out.csv]
//                               [--lake dir] [--stats[=path]]
//
// With no capture, a demonstration trace is synthesized, written to a
// temporary pcap (openable with any standard tool), and then processed.
// Output defaults to build/flows.csv so runs never litter the source tree.
// --lake additionally appends the records to a data lake (day-partitioned
// by first_packet, columnar blocks). --stats dumps the
// final obs:: snapshot (counters, stage histograms, spans) as JSON to
// stdout — or to a file with --stats=path — replacing the ad-hoc summary
// lines; it reports zeros in an EW_OBS=OFF build.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>
#include <system_error>
#include <vector>

#include "net/pcap.hpp"
#include "obs/obs.hpp"
#include "probe/probe.hpp"
#include "storage/codec.hpp"
#include "storage/datalake.hpp"
#include "synth/packets.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;

namespace {

fs::path make_demo_capture() {
  ew::net::Trace trace;
  const ew::core::IPv4Address client{10, 0, 3, 3};
  const auto t0 = ew::core::Timestamp::from_date_time({2017, 2, 1}, 19);

  const ew::core::IPv4Address wa{158, 85, 44, 1};
  const ew::core::IPv4Address addrs[] = {wa};
  trace.add(ew::synth::render_dns_response(client, ew::core::IPv4Address{10, 255, 0, 1},
                                           "e3.whatsapp.net", addrs, t0));
  struct Item {
    ew::dpi::WebProtocol web;
    const char* name;
    ew::core::IPv4Address server;
    std::size_t bytes;
    std::int64_t rtt_us;
  };
  const Item items[] = {
      {ew::dpi::WebProtocol::kHttp2, "www.youtube.com", {173, 194, 7, 7}, 200'000, 3'100},
      {ew::dpi::WebProtocol::kHttp, "www.gazzetta.it", {93, 184, 5, 5}, 60'000, 22'000},
      {ew::dpi::WebProtocol::kFbZero, "graph.facebook.com", {157, 240, 2, 2}, 15'000, 3'000},
      {ew::dpi::WebProtocol::kQuic, "", {173, 194, 8, 8}, 90'000, 3'000},
      {ew::dpi::WebProtocol::kTls, "", wa, 4'000, 101'000},
  };
  std::uint16_t port = 42000;
  std::int64_t offset = 500'000;
  for (const auto& item : items) {
    ew::synth::ConversationSpec spec;
    spec.client = client;
    spec.client_port = port++;
    spec.server = item.server;
    spec.web = item.web;
    spec.server_name = item.name;
    spec.response_bytes = item.bytes;
    spec.start = t0 + offset;
    spec.rtt_us = item.rtt_us;
    offset += 2'000'000;
    for (auto& f : ew::synth::render_conversation(spec)) trace.add(std::move(f));
  }
  trace.sort_by_time();
  const auto path = fs::temp_directory_path() / "edgewatch_demo.pcap";
  ew::net::write_pcap(path, trace);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path input;
  fs::path output;
  fs::path lake_dir;
  fs::path stats_path;
  bool want_lake = false;
  bool want_stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--lake" && i + 1 < argc) {
      lake_dir = argv[++i];
      want_lake = true;
    } else if (arg == "--stats" || arg.rfind("--stats=", 0) == 0) {
      want_stats = true;
      if (arg.size() > 8) stats_path = fs::path(std::string(arg.substr(8)));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: pcap2flows [trace.pcap] [--out out.csv] [--lake dir] [--stats[=path]]\n");
      return 0;
    } else {
      input = argv[i];
    }
  }
  bool demo = false;
  if (input.empty()) {
    input = make_demo_capture();
    demo = true;
    std::printf("no capture given; synthesized a demo trace at %s\n", input.c_str());
  }
  // Keep generated artifacts out of the source tree: land next to the build
  // outputs when a build/ directory is around, else in the temp dir.
  const fs::path build_dir{"build"};
  const fs::path out_root = fs::is_directory(build_dir) ? build_dir : fs::temp_directory_path();
  if (output.empty()) output = out_root / "flows.csv";
  if (output.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(output.parent_path(), ec);
  }

  std::ofstream csv(output);
  if (!csv) {
    std::fprintf(stderr, "cannot write %s\n", output.c_str());
    return 1;
  }
  csv << ew::storage::csv_header() << '\n';

  std::uint64_t flows = 0;
  std::map<ew::core::CivilDate, std::vector<ew::flow::FlowRecord>> by_day;
  ew::probe::Probe probe{{}, [&](ew::flow::FlowRecord&& r) {
                           csv << r.to_csv_row() << '\n';
                           ++flows;
                           if (want_lake) by_day[r.first_packet.date()].push_back(std::move(r));
                         }};
  const auto stats = ew::net::read_pcap(input, [&](ew::net::Frame&& f) { probe.process(f); });
  if (!stats) {
    std::fprintf(stderr, "not a readable Ethernet pcap: %s (%s)\n", input.c_str(),
                 std::string(ew::core::to_string(stats.error())).c_str());
    return 1;
  }
  probe.finish();

  std::printf("%llu frames (%0.2f MB) -> %llu flow records -> %s\n",
              static_cast<unsigned long long>(stats->frames),
              static_cast<double>(stats->bytes) / 1e6,
              static_cast<unsigned long long>(flows), output.c_str());
  if (!want_stats) {
    // Ad-hoc summary for quick runs; --stats replaces it with the full
    // obs:: snapshot (same numbers, plus stage timings and lake counters).
    std::printf("decode failures: %llu, DNS responses fed to DN-Hunter: %llu\n",
                static_cast<unsigned long long>(probe.counters().decode_failures),
                static_cast<unsigned long long>(probe.counters().dns_responses));
  }

  if (want_lake) {
    ew::storage::DataLake lake{lake_dir};
    for (auto& [day, records] : by_day) {
      if (!lake.append(day, records)) {
        std::fprintf(stderr, "lake append failed for %s\n", day.to_string().c_str());
        return 1;
      }
    }
    std::printf("appended %zu day file(s) to %s\n", by_day.size(), lake_dir.c_str());
  }
  if (want_stats) {
    // Scrape last so the snapshot covers the lake appends above, not just
    // the replay. Spans are included: a pcap run is short enough that the
    // 4096-entry ring still holds everything interesting.
    const ew::obs::Snapshot snap = ew::obs::Registry::global().scrape();
    if (stats_path.empty()) {
      const std::string json = ew::obs::to_json(snap, /*include_spans=*/true);
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else if (!ew::obs::write_snapshot(snap, stats_path, ew::obs::ExportFormat::kJson,
                                        /*include_spans=*/true)) {
      std::fprintf(stderr, "cannot write stats to %s\n", stats_path.c_str());
      return 1;
    } else {
      std::printf("obs snapshot written to %s\n", stats_path.c_str());
    }
  }
  if (demo) fs::remove(input);
  return 0;
}
