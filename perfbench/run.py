#!/usr/bin/env python3
"""End-to-end benchmark of the edgewatch pipeline.

Builds perfbench_e2e (this directory's CMake package, which compiles the
pipeline from ../src) under .bench_build/, runs one workload, prints every
metric with its unit and ends standard output with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage:

    python3 perfbench/run.py --workload ingest_bulk --seed 42 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer table and
metrics. Every run is appended, with the host fingerprint, to
.bench_build/perfbench-history.jsonl. The exit code is non-zero when the
build fails or any output differs from its reference.
"""

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest_bulk", "ingest_churn", "figures")
RUN_TIMEOUT_S = 170


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """Names the measured code when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(build_dir):
    """Configure once, then build incrementally; compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"pipeline sources not found under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, cpu_count())))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench_e2e"


def main():
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the edgewatch pipeline.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's inputs")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb one reference record, to prove the checks fail the run")
    parser.add_argument("--history", type=pathlib.Path,
                        help="JSON-lines file each run is appended to")
    args = parser.parse_args()

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    try:
        binary = build(build_root / "perfbench")
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work = build_root / "perfbench-work" / str(os.getpid())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--work-dir", str(work)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result (exit code {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4

    info = {}
    for line in lines:
        if line.startswith("# info "):
            info = json.loads(line[len("# info "):])
    host = {"nproc": cpu_count(), "cpu": cpu_model(), "build_type": info.get("build_type"),
            "obs": info.get("obs"), "git_sha": git_sha(), "source_sha256": source_digest()}
    entry = {"time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "size": args.size, "host": host, "info": info,
             "result": result}
    history = args.history or build_root / "perfbench-history.jsonl"
    history.parent.mkdir(parents=True, exist_ok=True)
    with open(history, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")

    for line in lines[:-1]:
        print(line)
    print("# host " + json.dumps(host, sort_keys=True))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
