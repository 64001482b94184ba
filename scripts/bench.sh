#!/usr/bin/env bash
# Build and run the machine-readable benches, merging their results into
# BENCH_pipeline.json in the repo root. Usage:
#
#   scripts/bench.sh [conversations] [repeats]
#
# Defaults: 40000 conversations (≈1M frames — the serial probe pass runs
# ≥200 ms, so sharded-speedup numbers measure work, not dispatch noise) and
# 3 repeats (best-of). Each bench binary
# writes its own JSON fragment under build/bench_fragments/; this script
# then merges fragments into BENCH_pipeline.json as {"benches": [...]},
# replacing only the entries it re-ran and keeping the rest — so running a
# subset never clobbers earlier results. A legacy single-object
# BENCH_pipeline.json is migrated into the merged form on first run.
set -euo pipefail
cd "$(dirname "$0")/.."

CONVERSATIONS="${1:-40000}"
REPEATS="${2:-3}"
OUT=BENCH_pipeline.json
FRAGMENTS=build/bench_fragments

if [ ! -d build ]; then
  cmake --preset default
fi
cmake --build build --target bench_parallel_scaling bench_probe_hotpath bench_overload bench_scan_selectivity bench_batch_scan bench_obs_overhead bench_write_path -j "$(nproc)"

mkdir -p "$FRAGMENTS"
# Sharded probe scaling (probe only): serial Probe vs ShardedProbe at
# 1/2/4/8 shards; exits 2 if any shard count's export stream differs from
# the serial one.
./build/bench/bench_parallel_scaling "$CONVERSATIONS" "$REPEATS" \
  "$FRAGMENTS/parallel_scaling.json"
./build/bench/bench_probe_hotpath "$CONVERSATIONS" "$REPEATS" \
  "$FRAGMENTS/probe_hotpath.json"
# Overload sweep is about shed *ratios*, not throughput — a few hundred
# conversations give a full Healthy→Shedding curve without minutes of spin.
./build/bench/bench_overload 400 "$REPEATS" "$FRAGMENTS/overload.json"
# Columnar scan path: 8 merged synthetic days make enough blocks that the
# one-hour predicate must prune ≥90% of them (the binary exits non-zero if
# it doesn't, or if any scan's answer differs from the in-memory records).
./build/bench/bench_scan_selectivity 8 "$REPEATS" "$FRAGMENTS/scan_selectivity.json"
# Batch execution core: the full-day aggregate scan consumed as SoA batches
# must beat the row-emit shim on the same lake. The aggregate-identity
# gate is unconditional; the ≥1.5x speedup gate (override with
# BATCH_SPEEDUP_GATE) only arms on ≥4-core machines, where the measurement
# isn't dominated by a loaded shared host.
BATCH_ARGS=()
if [ "$(nproc)" -ge 4 ]; then
  BATCH_ARGS+=(--min-speedup "${BATCH_SPEEDUP_GATE:-1.5}")
fi
./build/bench/bench_batch_scan 8 "$REPEATS" "$FRAGMENTS/batch_scan.json" \
  ${BATCH_ARGS[@]+"${BATCH_ARGS[@]}"}
# Write path: the parallel/serial byte-identity gate is unconditional; the
# ≥2x ingest→sealed-file throughput gate (pooled vs serial append) needs
# enough cores for the encode pipeline to express itself, so it only arms
# on ≥4-core machines (override the bar with WRITE_SPEEDUP_GATE).
WRITE_ARGS=()
if [ "$(nproc)" -ge 4 ]; then
  WRITE_ARGS+=(--min-speedup "${WRITE_SPEEDUP_GATE:-2.0}")
fi
./build/bench/bench_write_path 6 "$REPEATS" "$FRAGMENTS/write_path.json" \
  ${WRITE_ARGS[@]+"${WRITE_ARGS[@]}"}

# obs:: overhead gate: the EW_OBS=OFF build (build-noobs/) writes the
# baseline throughput, then the instrumented default build must land within
# OBS_GATE percent of it (2% locally; CI smoke uses a looser 5% because
# shared runners are noisy). Machine throughput drifts over a benchmark
# session (frequency scaling, noisy neighbours — ±15% minute-to-minute has
# been observed), so one OFF run followed by one ON run measures the drift,
# not the overhead. Instead run alternating OFF/ON rounds: each round's
# pair is contemporaneous (seconds apart), and the gate passes if ANY round
# lands within OBS_GATE — noise only ever inflates the measured overhead,
# so the best round is the closest estimate of the true cost.
OBS_CONV=$(( CONVERSATIONS < 20000 ? CONVERSATIONS : 20000 ))
OBS_REPEATS=$(( REPEATS > 5 ? REPEATS : 5 ))
if [ ! -d build-noobs ]; then
  cmake --preset noobs
fi
cmake --build build-noobs --target bench_obs_overhead -j "$(nproc)"
obs_gate_ok=0
for round in 1 2 3; do
  ./build-noobs/bench/bench_obs_overhead "$OBS_CONV" "$OBS_REPEATS" \
    build-noobs/obs_baseline.json
  if ./build/bench/bench_obs_overhead "$OBS_CONV" "$OBS_REPEATS" \
    "$FRAGMENTS/obs_overhead.json" \
    --baseline build-noobs/obs_baseline.json --gate "${OBS_GATE:-2}"; then
    obs_gate_ok=1
    break
  fi
  echo "obs overhead gate: round $round over budget, retrying" >&2
done
if [ "$obs_gate_ok" != 1 ]; then
  echo "obs overhead gate: over ${OBS_GATE:-2}% in every round" >&2
  exit 1
fi

# Merge: flatten every input (previous merged file, legacy single-bench
# object, or fresh fragment) into one list, keeping the *last* entry per
# bench name — fragments come after $OUT, so re-run benches win.
inputs=()
[ -f "$OUT" ] && inputs+=("$OUT")
inputs+=("$FRAGMENTS"/*.json)
if command -v jq >/dev/null 2>&1; then
  jq -s '[.[] | if type == "object" and has("benches") then .benches[] else . end]
         | group_by(.bench) | map(last) | {benches: .}' "${inputs[@]}" > "$OUT.tmp"
  mv "$OUT.tmp" "$OUT"
else
  # Without jq, keep only this run's fragments (still merged, not clobbered
  # per bench) so the file stays valid JSON.
  {
    echo '{"benches": ['
    first=1
    for f in "$FRAGMENTS"/*.json; do
      [ "$first" = 1 ] || echo ','
      first=0
      cat "$f"
    done
    echo ']}'
  } > "$OUT"
fi
echo
echo "results: $(pwd)/$OUT"
