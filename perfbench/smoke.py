#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, and checks
that each run exits 0, prints every metric of BENCHMARK.json with its
unit as the last line, and verifies all of its outputs (fail_frac 0).
Then checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_workload(name: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']}/{result['attempted']} failed\n"
                        f"{proc.stderr}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{where}: metric {m['name']} missing or without its unit")
        elif not trace and not got["value"] > 0:
            problems.append(f"{where}: {m['name']} is {got['value']}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{where}: unlisted metrics {sorted(extra)}")
    return problems


def check_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "cli", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: the benchmark ran or printed a result"]
    return []


def main() -> int:
    problems = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            found = check_workload(w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
