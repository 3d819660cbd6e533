"""The benchmark's tracer names package functions by attribute; a rename
or move in the package must keep every traced name resolving."""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    # the constructor looks up every SPANNED and COUNTED attribute
    tracer = tracing.Tracer()
    assert len(tracer._wrappers) == len(tracing.SPANNED) + len(tracing.COUNTED)
