#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite.
#
#   scripts/tier1.sh                 # RelWithDebInfo (the default preset)
#   SANITIZE=asan scripts/tier1.sh   # second configuration: Debug + ASan/UBSan
#                                    # (SANITIZE=1 is an accepted synonym)
#   SANITIZE=tsan scripts/tier1.sh   # third: ThreadSanitizer over the
#                                    # concurrency suites (ThreadPool, SPSC
#                                    # ring, ShardedProbe, parallel analytics,
#                                    # supervised runtime + chaos recovery,
#                                    # obs record-vs-scrape)
#   OBS=0 scripts/tier1.sh           # fourth: EW_OBS=OFF (the noobs preset) —
#                                    # runs the suite against the null obs
#                                    # backend and then proves the metrics
#                                    # registry compiled out by grepping the
#                                    # archives for obs::live symbols
#   REPEAT=3 scripts/tier1.sh        # any preset, each test run until it
#                                    # fails or 3 times, all cores at once:
#                                    # proves the suite is hermetic (no two
#                                    # test processes share a temp path)
#
# The suite includes the paper checks (tests/test_paper.cpp, ctest label
# `paper`): Table 1, Figs. 2-11 and the §2 ablations against the paper's
# numbers. After a build, run only those, with their paper-vs-measured
# rows, by
#
#   ctest --preset default -L paper -V
#
# The sanitizer passes exist for the robustness work: the fault-injection
# matrix, the corruption tests, and the fuzz sweeps only prove memory
# safety when out-of-bounds reads and UB actually abort the run — and the
# parallel engine only proves data-race freedom under TSan. TSan is
# incompatible with ASan, hence the separate preset; its pass filters to
# the thread-heavy suites to keep the (≈10× slowed) run short.
set -euo pipefail

cd "$(dirname "$0")/.."

ctest_extra=()
check_null_obs=0
case "${SANITIZE:-0}" in
  1 | asan) preset=asan-ubsan ;;
  tsan)
    preset=tsan
    ctest_extra=(-R 'Parallel|ShardedProbe|ThreadPool|SpscQueue|Supervisor|Chaos|Obs')
    ;;
  *)
    if [ "${OBS:-1}" = 0 ]; then
      preset=noobs
      check_null_obs=1
    else
      preset=default
    fi
    ;;
esac

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"

if [ "$check_null_obs" = 1 ]; then
  # The OFF build must contain no live-registry code. The real registry
  # lives in `inline namespace live` (mangled substring: 3obs4live) and the
  # null backend in `nullobs`, so a single symbol grep across every static
  # library proves which one was compiled in.
  if nm -A build-noobs/src/*/*.a 2>/dev/null | grep -q '3obs4live'; then
    echo "EW_OBS=OFF build still contains obs::live symbols:" >&2
    nm -A build-noobs/src/*/*.a | grep '3obs4live' | head >&2
    exit 1
  fi
  echo "null-obs check: no obs::live symbols in build-noobs archives"
fi

if [ -n "${REPEAT:-}" ]; then
  ctest_extra+=(--repeat "until-fail:${REPEAT}")
fi

ctest --preset "$preset" -j "$(nproc)" ${ctest_extra[@]+"${ctest_extra[@]}"}
