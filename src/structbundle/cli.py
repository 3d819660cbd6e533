"""Command line interface: scenario checking, task running, and the
seeded invariant suite.

Verbs:
    check <file>      parse and validate a scenario (no tasks run)
    run <file>        execute the scenario's tasks in order
    suite             run the full invariant battery

Exit codes: 0 all pass, 1 a check or task failed, 2 usage or parse
error.  Reports are byte-stable for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import holonomy as holo
from .chern_simons import cs_class
from .checks import run_battery
from .connections import Connection
from .dsl import (DslError, Evaluator, Scenario, evaluate_defs,
                  parse_scenario, render_form, render_tau_scalar)
from .forms import MatrixForm, all_cycles
from .struct_khat import cs_hat, realize_odd_form


def _load(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _cycle_name(cycle) -> str:
    return "T(" + ",".join(f"th{j + 1}" for j in cycle.torus_subset) + ")"


def run_task(kind: str, args: tuple, ev: Evaluator, tol: float) -> dict:
    """Execute one task; returns {task, verdict, output} with verdict
    'ok' or 'fail'."""
    values = [ev.eval(a) for a in args]
    label = f"{kind} " + " ".join(str(a) for a in args) if args else kind

    if kind == "ch":
        (conn,) = _expect(values, label, Connection)
        return {"task": label, "verdict": "ok",
                "output": render_form(conn.chern_character())}

    if kind == "cs":
        c0, c1 = _expect(values, label, Connection, Connection)
        if c0.rank != c1.rank:
            raise DslError(f"cs needs equal ranks, got {c0.rank} and {c1.rank}",
                           0, 0)
        return {"task": label, "verdict": "ok",
                "output": render_form(cs_class(c0, c1).rep)}

    if kind == "equiv":
        c0, c1 = _expect(values, label, Connection, Connection)
        if c0.rank != c1.rank:
            return {"task": label, "verdict": "fail",
                    "output": f"NOT EQUIVALENT: ranks {c0.rank} != {c1.rank}"}
        if c0.chern_character() != c1.chern_character():
            return {"task": label, "verdict": "fail",
                    "output": "NOT EQUIVALENT: Chern characters differ"}
        cs = cs_class(c0, c1).rep
        if cs.is_exact():
            return {"task": label, "verdict": "ok", "output": "EQUIVALENT"}
        witness = ""
        for cycle in all_cycles(cs.base, parity=1):
            per = cs.period(cycle)
            if per:
                witness = (f" witness: period {render_tau_scalar(per)} "
                           f"over {_cycle_name(cycle)}")
                break
        return {"task": label, "verdict": "fail",
                "output": "NOT EQUIVALENT:" + witness}

    if kind == "realize":
        (form,) = _expect(values, label, MatrixForm)
        v = realize_odd_form(form)
        ok = cs_hat(v).rep == form.normal_form()
        return {"task": label, "verdict": "ok" if ok else "fail",
                "output": f"realized as a sum of {v.rank} line bundles"
                          + ("" if ok else "; VERIFICATION FAILED")}

    if kind == "holonomy":
        (conn,) = _expect(values, label, Connection)
        if conn.base.torus_dim == 0:
            return {"task": label, "verdict": "ok",
                    "output": "trivial (no torus loops)"}
        defect = holo.holonomy_defect(conn, tol)
        trivial = defect <= tol
        return {"task": label, "verdict": "ok",
                "output": ("trivial" if trivial else "nontrivial")
                          + f" (defect {defect:.3e}, tol {tol:.1e})"}

    if kind == "suite":
        return _suite_entry(label, run_battery())

    raise DslError(f"unknown task kind {kind!r}", 0, 0)


def _suite_entry(label: str, results) -> dict:
    """The report entry of one battery run, with a line per check."""
    failures = sum(1 for r in results if not r.passed)
    return {"task": label, "verdict": "ok" if not failures else "fail",
            "output": f"{len(results) - failures}/{len(results)} checks passed",
            "checks": [{"name": r.name, "statement": r.statement,
                        "verdict": "ok" if r.passed else "fail",
                        "detail": r.detail} for r in results]}


def _expect(values, label, *types):
    if len(values) != len(types):
        raise DslError(f"task {label.split()[0]!r} takes {len(types)} "
                       f"argument{'s' if len(types) != 1 else ''}", 0, 0)
    for v, t in zip(values, types):
        if not isinstance(v, t):
            raise DslError(f"task {label.split()[0]!r} needs a "
                           f"{t.__name__}, got {type(v).__name__}", 0, 0)
    return values


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for entry in report.get("entries", []):
        mark = "PASS" if entry["verdict"] == "ok" else "FAIL"
        print(f"{mark}  {entry['task']}: {entry['output']}")
        for c in entry.get("checks", []):
            cm = "pass" if c["verdict"] == "ok" else "FAIL"
            extra = f" ({c['detail']})" if c["detail"] else ""
            print(f"      {cm}  {c['name']}: {c['statement']}{extra}")
    print(report["summary"])


def cmd_check(ns) -> int:
    try:
        scenario = _load(ns.file)
        evaluate_defs(scenario)
    except (OSError, DslError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"entries": [],
              "summary": (f"ok: {len(scenario.defs)} definitions, "
                          f"{len(scenario.tasks)} tasks")}
    _emit(report, ns.format)
    return 0


def cmd_run(ns) -> int:
    try:
        scenario = _load(ns.file)
        ev = evaluate_defs(scenario)
        entries = [run_task(kind, args, ev, ns.tol)
                   for kind, args in scenario.tasks]
    except (OSError, DslError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = sum(1 for e in entries if e["verdict"] != "ok")
    report = {"entries": entries,
              "summary": f"{len(entries) - failures}/{len(entries)} tasks passed"}
    _emit(report, ns.format)
    return 0 if failures == 0 else 1


def cmd_suite(ns) -> int:
    results = run_battery(seed=ns.seed, scale=ns.scale)
    entry = _suite_entry(f"suite seed={ns.seed}", results)
    _emit({"entries": [entry], "summary": entry["output"]}, ns.format)
    return 0 if entry["verdict"] == "ok" else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="structbundle",
        description="exact Chern-Weil and Chern-Simons calculus on "
                    "R^a x T^b base spaces")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="verb", required=True)

    pc = sub.add_parser("check", help="parse and validate a scenario file")
    pc.add_argument("file")
    pc.set_defaults(fn=cmd_check)

    pr = sub.add_parser("run", help="run a scenario file's tasks")
    pr.add_argument("file")
    pr.add_argument("--tol", type=float, default=holo.DEFAULT_TOL,
                    help="holonomy tolerance (holonomy tasks only)")
    pr.set_defaults(fn=cmd_run)

    ps = sub.add_parser("suite", help="run the seeded invariant battery")
    ps.add_argument("--seed", type=int, default=42)
    ps.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on per-check case counts")
    ps.set_defaults(fn=cmd_suite)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(ns, "tol", 1.0) <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    return ns.fn(ns)


if __name__ == "__main__":
    sys.exit(main())
