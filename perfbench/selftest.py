#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

At the tiny input size every workload run.py offers, including those
BENCHMARK.json leaves out, must pass verification and emit every metric
BENCHMARK.json names, each with its unit, in both trace modes; and a
perturbed reference must make the command fail. Exits non-zero on any
problem.

    python3 perfbench/selftest.py
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def problems_of(code, result, expected_units):
    if result is None:
        return [f"no JSON result (exit code {code})"]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"verification: {result['failed']} of {result['attempted']} failed")
    got = result["metrics"]
    missing = sorted(set(expected_units) - set(got))
    extra = sorted(set(got) - set(expected_units))
    if missing or extra:
        problems.append(f"missing metrics {missing}, unexpected {extra}")
    for name, unit in expected_units.items():
        metric = got.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, expected {unit!r}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name}: value {metric.get('value')!r} is not a number")
    return problems


def main():
    failures = 0
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            problems = problems_of(*run(workload, trace), expected)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}"
                  + (": " + "; ".join(problems) if problems else ""))

    code, result = run(WORKLOADS[0], 0, "--corrupt-reference")
    caught = code != 0 and result is not None and not result["correct"] and result["failed"] > 0
    failures += not caught
    print(f"{'ok  ' if caught else 'FAIL'} a perturbed reference fails the run "
          f"(exit code {code})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
