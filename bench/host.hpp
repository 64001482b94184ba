// The host a bench fragment was measured on, recorded the way perfbench's
// history records it: CPUs this process may run on, CPU model, build type
// and git commit. A bench that includes this header needs the EW_BUILD_TYPE
// and EW_SOURCE_DIR definitions (bench/CMakeLists.txt sets them).
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace edgewatch::bench {

/// CPUs this process may run on (its affinity mask, as perfbench counts).
inline unsigned cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto begin = line.find_first_not_of(" \t", colon + 1);
    return begin == std::string::npos ? std::string{} : line.substr(begin);
  }
  return "unknown";
}

/// HEAD of the source tree this binary was built from, with "-dirty" when
/// tracked files differ from it; "" outside git.
inline std::string git_commit() {
  std::string sha;
  if (FILE* p = popen("git -C \"" EW_SOURCE_DIR
                      "\" describe --always --dirty --abbrev=40 --exclude='*' 2>/dev/null",
                      "r")) {
    char buf[80] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The fragment's `"host": {...},` line.
inline std::string host_json_line() {
  return "  \"host\": {\"nproc\": " + std::to_string(cpu_count()) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"build_type\": " + json_string(EW_BUILD_TYPE) +
         ", \"git_commit\": " + json_string(git_commit()) + "},\n";
}

}  // namespace edgewatch::bench
