"""Spans and counters recorded at the public calls into each module.

``Tracer.install`` replaces each traced function or method with a
wrapper, wherever the package holds a reference to it, and
``uninstall`` puts the originals back.  A wrapper records a span
(name, start, end, parent) in memory; ``per_layer`` turns the spans
into call counts, self times and ratios.  The scalar ring sees about a
million calls per transgression, so it is counted, not timed: its time
lands in the self time of the function-ring call above it.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

from structbundle import (checks, chern_simons, cli, connections, dsl,
                          gauge_theta, holonomy, struct_khat)
from structbundle.connections import Connection
from structbundle.forms import MatrixForm
from structbundle.functions import ChartFunction
from structbundle.scalars import TauScalar

# span name -> (owner, attribute); the module of a name is its first part
SPANNED = {
    "functions.mul": (ChartFunction, "__mul__"),
    "functions.add": (ChartFunction, "__add__"),
    "functions.partial": (ChartFunction, "partial"),
    "functions.eval_numeric": (ChartFunction, "eval_numeric"),
    "forms.wedge": (MatrixForm, "wedge"),
    "forms.d": (MatrixForm, "d"),
    "forms.normal_form": (MatrixForm, "normal_form"),
    "forms.is_exact": (MatrixForm, "is_exact"),
    "forms.period": (MatrixForm, "period"),
    "connections.curvature": (Connection, "curvature"),
    "connections.chern_character": (Connection, "chern_character"),
    "connections.gauge_apply": (connections, "gauge_apply"),
    "chern_simons.cs_path": (chern_simons, "cs_path"),
    "chern_simons.cs_via_cylinder": (chern_simons, "cs_via_cylinder"),
    "gauge_theta.theta_pullback": (gauge_theta, "theta_pullback"),
    "gauge_theta.lambda_gl_test": (gauge_theta, "lambda_gl_test"),
    "struct_khat.realize_odd_form": (struct_khat, "realize_odd_form"),
    "holonomy.parallel_transport": (holonomy, "parallel_transport"),
    "holonomy.transport_refined": (holonomy, "_transport_refined"),
    "holonomy.holonomy_defect": (holonomy, "holonomy_defect"),
    "holonomy.is_trivial_holonomy": (holonomy, "is_trivial_holonomy"),
    "checks.run_battery": (checks, "run_battery"),
    "dsl.parse_scenario": (dsl, "parse_scenario"),
    "dsl.evaluate_defs": (dsl, "evaluate_defs"),
    "cli.run_task": (cli, "run_task"),
    "cli.main": (cli, "main"),
}

COUNTED = {
    "scalars.mul": (TauScalar, "__mul__"),
    "scalars.add": (TauScalar, "__add__"),
    "scalars.to_complex": (TauScalar, "to_complex"),
}

# inputs kept for distinct_ratio; their keys are computed after the run
# so that building them adds nothing to any span
KEYED = {
    "forms.normal_form": lambda m: m,
    "connections.curvature": lambda conn: conn.A,
}

MODULES = ("functions", "forms", "connections", "chern_simons", "gauge_theta",
           "struct_khat", "holonomy", "checks", "dsl", "cli")


def fn_key(f: ChartFunction):
    return tuple(sorted((key, tuple(sorted((e, c.re, c.im) for e, c in ts.terms.items())))
                        for key, ts in f.terms.items()))


def form_key(m: MatrixForm):
    """A structural key for a MatrixForm, whose own __hash__ is None."""
    return hash((m.base, m.rows, m.cols,
                 tuple(sorted((k, fn_key(f)) for k, f in m.entries.items()))))


def _out_stats(m: MatrixForm) -> tuple[int, int]:
    """Number of (entry, monomial) terms and the largest denominator's bits."""
    terms = bits = 0
    for f in m.entries.values():
        terms += len(f.terms)
        for ts in f.terms.values():
            for c in ts.terms.values():
                bits = max(bits, c.re.denominator.bit_length(),
                           c.im.denominator.bit_length())
    return terms, bits


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.inputs: dict[str, list] = defaultdict(list)
        self.cs_outputs: list[MatrixForm] = []
        self.tally: Counter = Counter()
        self.check_seconds: Counter = Counter()
        self._transports: dict[int, list] = defaultdict(list)  # by parent span
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = (
            [(owner, attr, self._spanned(name, getattr(owner, attr)))
             for name, (owner, attr) in SPANNED.items()]
            + [(owner, attr, self._counted(name, getattr(owner, attr)))
               for name, (owner, attr) in COUNTED.items()])

    # -- wrappers -----------------------------------------------------

    def _spanned(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        perf = time.perf_counter
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        inputs = self.inputs[name] if name in KEYED else None

        def wrapper(*args, **kwargs):
            if inputs is not None:
                inputs.append(args[0])
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[me] = (idx, t0, perf(), parent)
                stack.pop()
            if note is not None:
                note(me, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- notes taken after a call returns ------------------------------

    def _note_chern_simons_cs_path(self, me, args, kwargs, out):
        self.cs_outputs.append(out)

    def _note_holonomy_parallel_transport(self, me, args, kwargs, out):
        steps = args[2] if len(args) > 2 else kwargs.get("steps", holonomy.DEFAULT_STEPS)
        self.tally["rk4_steps"] += steps
        self._transports[self.spans[me][3]].append((steps, out))

    def _note_holonomy_transport_refined(self, me, args, kwargs, out):
        """Step doubling keeps only the resolution it returns."""
        log = self._transports.pop(me, [])
        self.tally["refine.total_steps"] += sum(s for s, _ in log)
        self.tally["refine.useful_steps"] += sum(s for s, S in log if S is out)

    def _note_checks_run_battery(self, me, args, kwargs, out):
        for r in out:
            self.check_seconds[r.name] += r.seconds

    # -- installation -------------------------------------------------

    def install(self):
        for owner, attr, wrapper in self._wrappers:
            original = wrapper.__wrapped__
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # a module function: rebind every reference the package holds
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("structbundle"):
                    for k, v in list(vars(mod).items()):
                        if v is original:
                            self._saved.append((mod, k, v))
                            setattr(mod, k, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- results ------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive seconds and self seconds."""
        calls, incl, own = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for i, (idx, t0, t1, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (idx, t0, t1, parent) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            incl[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        return calls, incl, own

    def _calls_under(self, name: str, ancestor: str) -> int:
        """How many spans called name ran inside a span called ancestor."""
        wanted = {i for i, n in enumerate(self.names) if n == ancestor}
        target = {i for i, n in enumerate(self.names) if n == name}
        found = 0
        for idx, _t0, _t1, parent in self.spans:
            if idx not in target:
                continue
            while parent >= 0:
                if self.spans[parent][0] in wanted:
                    found += 1
                    break
                parent = self.spans[parent][3]
        return found

    def per_layer(self, check_names) -> dict[str, float]:
        calls, incl, own = self.self_times()
        out: dict[str, float] = {}
        for name in ("scalars.mul", "scalars.add", "scalars.to_complex"):
            out[name + ".calls"] = self.counts[name]
        for name in SPANNED:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = float(own[name])
        for module in MODULES:
            out[module + ".self_s"] = sum((s for n, s in own.items()
                                           if n.split(".")[0] == module), 0.0)
        for name, form_of in KEYED.items():
            keys = {form_key(form_of(x)) for x in self.inputs[name]}
            out[name + ".distinct_ratio"] = (len(keys) / calls[name]
                                             if calls[name] else 0.0)
        stats = [_out_stats(m) for m in self.cs_outputs]
        out["chern_simons.cs_path.out_terms"] = (
            sum(t for t, _ in stats) / len(stats) if stats else 0.0)
        out["chern_simons.cs_path.max_den_bits"] = max((b for _, b in stats), default=0)
        verdicts = calls["gauge_theta.lambda_gl_test"]
        out["gauge_theta.lambda_gl_test.exact_calls_per_verdict"] = (
            self._calls_under("forms.is_exact", "gauge_theta.lambda_gl_test") / verdicts
            if verdicts else 0.0)
        out["holonomy.rk4_steps"] = self.tally["rk4_steps"]
        total = self.tally["refine.total_steps"]
        out["holonomy.refine_useful_ratio"] = (
            self.tally["refine.useful_steps"] / total if total else 0.0)
        for name in check_names:
            out[f"checks.{name}.s"] = float(self.check_seconds[name])
        out["dsl.parse_scenario.s"] = float(incl["dsl.parse_scenario"])
        return out
