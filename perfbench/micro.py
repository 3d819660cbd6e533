"""Layer micro-benchmarks: throughput of one operation per layer on
fixed inputs drawn from the workloads at their default seeds.

Pass times are normalised like every other time (see workloads.Timer).
Each benchmark renders its results exactly and compares their SHA-256
with the pinned digest, so that a speed-up which changes an answer
counts as a failure.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from structbundle.dsl import render_form, render_function, render_tau_scalar
from structbundle.randgen import Bounds, RandomGen

import pins
from workloads import TransgressWorkload, sha256

SECONDS = 0.4  # measuring time per benchmark


def _inputs():
    gen = RandomGen(42, Bounds())
    scalars = [gen.tau_scalar(3) for _ in range(64)]
    wl = TransgressWorkload(TransgressWorkload.default_seed)
    conns = [c for c0, c1, _path in wl.pairs for c in (c0, c1)]
    pairs = [(c0, c1) for c0, c1, _path in wl.pairs]
    pairs += [(c1, c0) for c0, c1 in pairs]
    fns = list(conns[0].A.entries.values())
    products = [f * g for f in fns for g in fns]
    dim = conns[0].base.dim
    forms = [c.A.trace().wedge(c.A.d().trace()) for c in conns]
    squares = [c.A.wedge(c.A) for c in conns]
    return {
        "scalars.mul": (lambda p: p[0] * p[1], list(zip(scalars, scalars[1:])),
                        render_tau_scalar),
        "functions.mul": (lambda p: p[0] * p[1], [(f, g) for f in fns for g in fns],
                          render_function),
        "functions.partial": (lambda p: p[0].partial(p[1]),
                              [(f, k) for f in products for k in range(dim)],
                              render_function),
        "forms.wedge": (lambda p: p[0].A.wedge(p[1].A), pairs,
                        render_form),
        "forms.d": (lambda m: m.d(), squares, render_form),
        "forms.normal_form": (lambda m: m.normal_form(), forms, render_form),
        "connections.curvature": (lambda c: c.curvature(), conns, render_form),
    }


def _apply(op, inputs):
    for x in inputs:
        op(x)


def run(timer) -> dict[str, float]:
    """Operations per second for each benchmark, the median over passes
    of normalised pass times; outcomes go to timer.check."""
    sizes = {}
    for name, (op, inputs, render) in _inputs().items():
        results = [op(x) for x in inputs]
        digest = sha256("\n".join(render(r) for r in results))
        timer.check(digest == pins.MICRO[name], f"{name} result differs from its pin")
        sizes[name] = len(inputs)
        start = time.perf_counter()
        while time.perf_counter() - start < SECONDS:
            timer.call("micro", name, _apply, op, inputs)
    rates = defaultdict(list)
    for _group, name, _raw, seconds in timer.times():
        rates[name].append(sizes[name] / seconds)
    return {name + ".per_s": statistics.median(r) for name, r in rates.items()}
