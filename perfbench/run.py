#!/usr/bin/env python3
"""Benchmark of structbundle on three seeded workloads.

    python3 perfbench/run.py --workload cli --seed 42 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json):
    cli         the scenario corpus and ``suite --seed S`` through cli.main
    transgress  cs_path and chern_character on dense connections
    holonomy    holonomy_defect on connections with known and unknown answers

A run measures setup (a fresh interpreter that imports the package and
builds the inputs, timed five times), then runs whole rounds of the
workload until ``--seconds`` is used up, at least one.  Each call's time
is normalised to a fixed machine speed by a reference loop timed while
it runs (see speed.py), then the median over its repeats is taken.  The
run prints the raw wall time next to the normalised one.

With ``--trace 0`` it reports the end-to-end metrics:
    setup_s       median time of the setup probes
    wall_s        one round: the sum of its calls' times
    primary_s     the suite (cli), the cs_path calls (transgress), the
                  connections without a known answer (holonomy)
    secondary_s   the corpus runs (cli), the chern_character calls
                  (transgress), the connections with a known answer
                  (holonomy)
The run also prints the median call (for holonomy, the defect p50)
with its sample count.
    peak_rss_mb   the peak resident set of the process

With ``--trace 1`` it runs one round untraced and one traced (see
tracing.py), then the layer micro-benchmarks (micro.py), and reports the
per-layer metrics.  Every output is checked against a known answer or
a pinned digest; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--tiny`` shrinks every workload for the smoke test (smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_ROUNDS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli", "transgress", "holonomy"))
    p.add_argument("--seed", type=int, default=None,
                   help="seeds the inputs (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs")
    p.add_argument("--probe", action="store_true",
                   help="only import the package and build the inputs")
    return p.parse_args(argv)


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def time_setup(ns, timer) -> None:
    """Times fresh interpreters that import the package and build the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", ns.workload, "--seed", str(ns.seed)]
    if ns.tiny:
        argv.append("--tiny")
    for _ in range(SETUP_PROBES):
        proc = timer.call("setup", "probe", subprocess.run, argv)
        if proc.returncode != 0:
            fail(f"setup probe exited with code {proc.returncode}")


def run_rounds(workload, seconds: float, min_rounds: int, make_timer):
    """Whole rounds until another one would overrun the measuring time."""
    timers = []
    start = time.perf_counter()
    while True:
        t = make_timer()
        workload.round(t)
        timers.append(t)
        elapsed = time.perf_counter() - start
        if len(timers) >= min_rounds and elapsed * (1 + 1 / len(timers)) > seconds:
            return timers


def call_medians(timers, column: int = 3) -> list[tuple[str, float]]:
    """(group, median seconds) of each distinct call, over its repeats
    in every round, in order; column 3 holds normalised times, column 2
    raw ones."""
    seen: dict[tuple[str, str], list[float]] = {}
    for t in timers:
        for row in t.times():
            seen.setdefault(row[:2], []).append(row[column])
    return [(group, statistics.median(v)) for (group, _label), v in seen.items()]


def end_to_end(timers) -> dict[str, float]:
    calls = call_medians(timers)
    return {
        "wall_s": sum(s for _g, s in calls),
        "raw_wall_s": sum(s for _g, s in call_medians(timers, 2)),
        "primary_s": sum(s for g, s in calls if g == "primary"),
        "secondary_s": sum(s for g, s in calls if g == "secondary"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(ns, cls, sampler):
    """One untraced and one traced round, then the micro-benchmarks."""
    import micro
    from structbundle.checks import CHECKS
    from tracing import Tracer
    from workloads import Timer

    workload = cls(ns.seed, tiny=ns.tiny)
    workload.warmup()
    plain = run_rounds(workload, 0, 1, lambda: Timer(sampler))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(workload, 0, 1, lambda: Timer(sampler, tracer.paused))
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer([name for name, _s, _c in CHECKS])
    metrics["trace_overhead_frac"] = (end_to_end(traced)["wall_s"]
                                      / end_to_end(plain)["wall_s"] - 1)
    micro_timer = Timer(sampler)
    metrics.update(micro.run(micro_timer))
    return metrics, plain + traced + [micro_timer]


def main(argv=None) -> int:
    ns = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "structbundle").is_dir():
        fail(f"no package source under {ROOT / 'src'}")
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import workloads
    from speed import SpeedSampler
    from workloads import Timer

    cls = workloads.WORKLOADS[ns.workload]
    if ns.seed is None:
        ns.seed = cls.default_seed
    if ns.probe:
        cls(ns.seed, tiny=ns.tiny)
        return 0
    seconds = spec["run_seconds"] if ns.seconds is None else ns.seconds
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(ns.workload, "")
    print(json.dumps({
        "workload": ns.workload, "seed": ns.seed, "seed_reason": cls.seed_reason,
        "why": why, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": nproc,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "seconds": seconds, "trace": ns.trace, "tiny": ns.tiny}), flush=True)

    with SpeedSampler() as sampler:
        if ns.trace:
            metrics, all_timers = traced_run(ns, cls, sampler)
            wanted = spec["per_layer"]
        else:
            setup_timer = Timer(sampler)
            time_setup(ns, setup_timer)
            workload = cls(ns.seed, tiny=ns.tiny)
            workload.warmup()
            all_timers = run_rounds(workload, seconds, MIN_ROUNDS, lambda: Timer(sampler))
            metrics = end_to_end(all_timers)
            metrics["setup_s"] = statistics.median(n for *_c, n in setup_timer.times())
            wanted = spec["end_to_end"]
            calls = call_medians(all_timers)
            print(f"{ns.workload}: {len(all_timers)} rounds of {len(calls)} calls; "
                  f"median call {1000 * statistics.median(s for _g, s in calls):.6g} ms; "
                  f"raw wall {metrics['raw_wall_s']:.6g} s, normalised "
                  f"{metrics['wall_s']:.6g} s", flush=True)

    attempted = sum(t.attempted for t in all_timers)
    failed = sum(t.failed for t in all_timers)
    for t in all_timers:
        for what in t.failures:
            print(f"FAILED: {what}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {', '.join(missing)}")
    for m in wanted:
        alias = f" ({cls.aliases[m['name']]})" if m["name"] in cls.aliases else ""
        print(f"  {m['name']}{alias} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  fail_frac = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
