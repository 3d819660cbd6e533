"""The benchmark's tracer names package functions by attribute, and its
workloads call the package through its public names; a rename or move in
the package must keep both working."""

import importlib
import pathlib
from types import SimpleNamespace

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    # the constructor looks up every SPANNED and COUNTED attribute
    tracer = tracing.Tracer()
    assert len(tracer._wrappers) == len(tracing.SPANNED) + len(tracing.COUNTED)


def test_tiny_workload_rounds_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(cls.default_seed, tiny=True)
        workload.warmup()
        # a sampler that spent no time and saw unit speed
        timer = workloads.Timer(SimpleNamespace(spent=0, slowdown=lambda t0, t1: 1))
        workload.round(timer)
        assert timer.attempted > 0, name
        assert timer.failed == 0, (name, timer.failures)
        assert all(secs >= 0 for *_, secs in timer.times()), name
