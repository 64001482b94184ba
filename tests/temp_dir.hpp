// Scratch directories for tests. ctest runs every test case as its own
// process, many at once under `ctest -j`, so a directory name must be
// unique per process (pid) and per instance (counter) — a fixed name lets
// one process wipe out another's files mid-test.
#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace edgewatch::testing {

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it when the object goes out of scope.
struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& prefix = "ew_test") : path(unique_path(prefix)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

 private:
  static std::filesystem::path unique_path(const std::string& prefix) {
    static std::atomic<unsigned> counter{0};
    return std::filesystem::temp_directory_path() /
           (prefix + "_" + std::to_string(::getpid()) + "_" + std::to_string(counter++));
  }
};

}  // namespace edgewatch::testing
