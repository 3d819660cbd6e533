import collections
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from structbundle import checks, cli, dsl
from structbundle.chern_simons import ConnectionPath, cs_path
from structbundle.connections import Connection, gauge_apply
from structbundle.dsl import (Evaluator, LexError, Name, ParseError,
                              SemanticError, evaluate_defs, parse_scenario,
                              render_tau_scalar)
from structbundle.forms import MatrixForm, OddClass, all_cycles
from structbundle.functions import BaseSpace
from structbundle.randgen import RandomGen

CORPUS = sorted((pathlib.Path(__file__).parent.parent / "scenarios").glob("*.sb"))


def run_cli(*args):
    # a hang fails the test instead of stalling the suite
    proc = subprocess.run([sys.executable, "-m", "structbundle.cli", *args],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 10


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_parses_and_round_trips(path):
    scenario = parse_scenario(path.read_text())
    rendered = scenario.render()
    assert parse_scenario(rendered) == scenario
    evaluate_defs(scenario)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_runs_with_expected_exit(path):
    expected = 1 if "fail" in path.name else 0
    code = cli.main(["run", str(path)])
    assert code == expected


def test_check_verb():
    assert cli.main(["check", str(CORPUS[0])]) == 0


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sb"
    bad.write_text("space R 1; form w = ;")
    assert cli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_missing_file_exits_2(capsys):
    assert cli.main(["run", "/nonexistent/file.sb"]) == 2
    capsys.readouterr()
    assert cli.main(["--format", "json", "run", "/nonexistent/file.sb"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    error = json.loads(captured.out)["error"]
    assert error["line"] is None and error["column"] is None
    assert "/nonexistent/file.sb" in error["message"]


def test_usage_error_exits_2():
    code, _out, _err = run_cli("frobnicate")
    assert code == 2


def test_determinism_byte_identical(capsys):
    path = str(CORPUS[0])
    cli.main(["--format", "json", "run", path])
    first = capsys.readouterr().out
    cli.main(["--format", "json", "run", path])
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # structured format is valid JSON


def test_json_report_structure(capsys):
    cli.main(["--format", "json", "run", str(CORPUS[0])])
    report = json.loads(capsys.readouterr().out)
    assert "entries" in report and "summary" in report
    for entry in report["entries"]:
        assert entry["verdict"] in ("ok", "fail")


def test_error_categories_are_distinct():
    with pytest.raises(LexError):
        parse_scenario("space R 1; form w = $;")
    with pytest.raises(ParseError):
        parse_scenario("space R 1; form w = ;")
    with pytest.raises(SemanticError):
        parse_scenario("space R 1; task ch nosuchthing;")
    with pytest.raises(SemanticError):
        evaluate_defs(parse_scenario("space R 1; form w = x2;"))


def test_unknown_name_error_names_the_identifier():
    with pytest.raises(SemanticError) as exc:
        parse_scenario("space R 1; task ch mystery;")
    assert "mystery" in str(exc.value)


def test_expected_token_set_in_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_scenario("space R 1; task bogus x1;")
    assert "ch|cs|equiv|realize|holonomy|suite" in str(exc.value)


def test_one_line_scenario():
    s = parse_scenario("space R 2; form w = x1*dx2; conn L = line(w); "
                       "task ch L;")
    assert len(s.tasks) == 1
    ev = evaluate_defs(s)
    from structbundle.dsl import render_form
    out = render_form(ev.env["L"].chern_character())
    assert out == "1 + (1/τ) dx1^dx2"


def test_duplicate_names_rejected():
    with pytest.raises(SemanticError):
        parse_scenario("space R 1; fn f = x1; fn f = x1;")


def test_suite_scale_smoke(capsys):
    code = cli.main(["suite", "--seed", "7", "--scale", "0.02"])
    out = capsys.readouterr().out
    assert code == 0
    assert "checks passed" in out


@pytest.mark.parametrize("verb, text, at", [
    ("run", "space R 1 T 1;\ntask realize dth1;\n", (2, 1)),
    ("check", "space R 0 T 1;\ngauge g = fourier(1);\n"
              "conn c = apply(g, flat(2));\n", (3, 1)),
    ("check", "space R 1;\nfn f = x1^200000000;\n", (2, 1)),
    ("check", "space R 2;\nform u = dx1;\nform w = line(dx1^dx2);\n", (3, 1)),
    ("run", "space R 2;\nconn c = line(dx1);\n\n  task cs c;\n", (4, 3)),
    ("check", "space R 0 T 1;\nconn c = flat(1000000000);\n", (2, 1)),
    ("check", "space R 1;\n\nconn c = flat(-1);\n", (3, 1)),
    ("check", "space R 1;\nconn c = tensor(flat(64), flat(64));\n", (2, 1)),
    ("check", "space R 3;\nfn f = (x1+x2+x3)^64;\nfn g = f^64;\n", (3, 1)),
], ids=["realize-on-torus", "gauge-rank-mismatch", "exponent-budget",
        "line-needs-degree-1", "task-arity", "rank-budget", "negative-rank",
        "tensor-rank-budget", "term-budget"])
def test_library_value_error_exits_2(tmp_path, verb, text, at):
    path = tmp_path / "bad.sb"
    path.write_text(text)
    code, _out, err = run_cli(verb, str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    # the json format also reports the error as an object on stdout
    code, out, json_err = run_cli("--format", "json", verb, str(path))
    assert code == 2
    assert json_err == err
    error = json.loads(out)["error"]
    assert error["message"] in err
    # a DSL error, or a library ValueError raised while a statement
    # evaluates, reports that statement's first token
    assert (error["line"], error["column"]) == at
    assert err.startswith("error: line %d, column %d: " % at)


@pytest.mark.parametrize("expr, column", [
    ("(" * 200 + "x1" + ")" * 200, 72),  # the 65th '('
    ("+".join(["x1"] * 500), 199),  # the 64th '+'
    ("-" * 1000 + "x1", 944),  # the 64th '-' from the inside
    ("x1" + "^1" * 3000, 136),  # the 64th '^'
], ids=["parentheses", "sum", "unary-minus", "power-chain"])
@pytest.mark.parametrize("verb", ["check", "run"])
def test_deep_expression_exits_2_at_its_token(tmp_path, capsys, verb, expr,
                                              column):
    """A tree taller than dsl.MAX_DEPTH is a parse error at the token that
    would make it so, not a RecursionError."""
    path = tmp_path / "deep.sb"
    path.write_text(f"space R 1;\nfn f = {expr};\n")
    message = f"expression deeper than {dsl.MAX_DEPTH} levels"
    assert cli.main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line 2, column {column}: {message}\n"
    assert cli.main(["--format", "json", verb, str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"message": message, "line": 2, "column": column}


def test_expression_at_max_depth_runs_and_round_trips(tmp_path):
    # nested calls take the most Python frames per level, and render
    # writes a chain of minuses with a parenthesis around each inner one
    n = dsl.MAX_DEPTH - 1
    path = tmp_path / "deepest.sb"
    path.write_text(f"space R 1;\nform w = {'d(' * n}x1{')' * n};\n"
                    f"fn f = {'-' * n}x1;\ntask ch line(dx1);\n")
    assert cli.main(["run", str(path)]) == 0
    scenario = parse_scenario(path.read_text())
    assert parse_scenario(scenario.render()) == scenario


def test_suite_scale_over_the_case_budget_exits_2(monkeypatch, capsys):
    def no_battery(seed):
        raise AssertionError("the battery started")
    monkeypatch.setattr(checks, "RandomGen", no_battery)
    message = (f"scale 1e+300 asks scalar-ring-axioms for more than "
               f"{checks.MAX_CASES} cases")
    assert cli.main(["suite", "--scale", "1e300"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert cli.main(["--format", "json", "suite", "--scale", "1e300"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"message": message, "line": None, "column": None}


# token streams from the DSL's own vocabulary: raw streams, which mostly
# stop in the parser, and streams of definitions and tasks over
# well-formed expressions, which reach the evaluator and its builtins
ATOMS = ("tau", "i", "x1", "x2", "th1", "dx1", "dx2", "dth1", "a", "b",
         "0", "1", "2", "3")
SYMBOLS = (";", "=", "(", ")", ",", "+", "-", "*", "/", "^")
EXPRESSIONS = st.recursive(
    st.sampled_from(ATOMS).map(lambda t: [t]),
    lambda inner: st.one_of(
        st.builds(lambda a, op, b: a + [op] + b,
                  inner, st.sampled_from("+-*/^"), inner),
        inner.map(lambda a: ["-", "("] + a + [")"]),
        st.builds(lambda fn, args: [fn, "("] + [t for arg in args
                                                for t in arg + [","]][:-1] + [")"],
                  st.sampled_from(dsl.BUILTINS), st.lists(inner, max_size=3))),
    max_leaves=6)
STATEMENTS = st.one_of(
    st.builds(lambda kind, name, e: [kind, name, "="] + e + [";"],
              st.sampled_from(dsl.DEF_KINDS), st.sampled_from("ab"), EXPRESSIONS),
    st.builds(lambda kind, e: ["task", kind] + e + [";"],
              st.sampled_from(dsl.TASK_KINDS), EXPRESSIONS),
    st.lists(st.sampled_from(dsl.KEYWORDS + dsl.BUILTINS + ATOMS + SYMBOLS
                             + ("task",)), max_size=8))
STREAMS = st.builds(
    lambda head, body: (head + [t for stmt in body for t in stmt])[:30],
    st.sampled_from([[], ["space", "R", "1", ";"],
                     ["space", "R", "2", "T", "1", ";"]]),
    st.lists(STATEMENTS, max_size=4))


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(STREAMS)
def test_check_is_total_on_token_streams(tmp_path, tokens):
    path = tmp_path / "stream.sb"
    path.write_text(" ".join(tokens))
    assert cli.main(["check", str(path)]) in (0, 2)


@pytest.mark.parametrize("verb, opt, value", [
    ("suite", "--scale", "nan"), ("suite", "--scale", "inf"),
    ("suite", "--scale", "0"), ("suite", "--scale", "-1"),
    ("run", "--tol", "nan"), ("run", "--tol", "inf"), ("run", "--tol", "0"),
])
def test_option_must_be_positive_and_finite(tmp_path, capsys, verb, opt, value):
    path = tmp_path / "flat.sb"
    path.write_text("space R 0 T 1; conn c = flat(1); task holonomy c;")
    argv = [verb, str(path), opt, value] if verb == "run" else [verb, opt, value]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {opt} must be positive and finite\n"
    assert cli.main(["--format", "json", *argv]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["message"] == f"{opt} must be positive and finite"


def test_undecodable_file_exits_2_without_position(tmp_path):
    path = tmp_path / "latin1.sb"
    path.write_bytes("space R 1;\nfn f = x1; # \u00e9\n".encode("latin-1"))
    for fmt in ("text", "json"):
        code, out, err = run_cli("--format", fmt, "check", str(path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
    error = json.loads(out)["error"]
    assert error["line"] is None and error["column"] is None


def _equiv_by_class(c0, c1):
    """The equivalence verdict through the class: compare the Chern
    characters, reduce the transgression form to its normal form, test
    exactness, then look for the first nonzero odd period."""
    if c0.chern_character() != c1.chern_character():
        return "fail", "NOT EQUIVALENT: Chern characters differ"
    rep = OddClass.of(cs_path(ConnectionPath.straight(c0, c1))).rep
    if rep.is_exact():
        return "ok", "EQUIVALENT"
    witness = ""
    for cycle in all_cycles(rep.base, parity=1):
        per = rep.period(cycle)
        if per:
            angles = ",".join(f"th{j + 1}" for j in cycle.torus_subset)
            witness = f" witness: period {render_tau_scalar(per)} over T({angles})"
            break
    return "fail", "NOT EQUIVALENT:" + witness


def test_equiv_task_matches_the_class_route():
    gen = RandomGen(19)
    kinds = collections.Counter()
    for case in range(240):
        base = BaseSpace(gen.rng.randint(0, 1), gen.rng.randint(1, 3))
        n = gen.rng.randint(1, 2)
        c0 = gen.connection(base, n)
        if case % 3 == 0:  # a gauge image: equivalent unless g winds
            c1 = gauge_apply(gen.gauge(base, n), c0)
        elif case % 3 == 1:  # plus constant central dtheta terms: a witness
            shift = MatrixForm.zero(base)
            for j in range(base.chart_dim, base.dim):
                shift = shift + MatrixForm.const_scalar(base, gen.tau_scalar(1), (j,))
            c1 = Connection(base, n, c0.A + MatrixForm.identity(base, n).kron(shift))
        else:  # an unrelated connection: the Chern characters usually differ
            c1 = gen.connection(base, n)
        ev = Evaluator(base, {"c0": c0, "c1": c1})
        entry = cli.run_task("equiv", (Name("c0"), Name("c1")), ev, 1e-6)
        verdict, output = _equiv_by_class(c0, c1)
        assert (entry["verdict"], entry["output"]) == (verdict, output), case
        kinds["witness" if "witness" in output else output] += 1
    assert kinds["EQUIVALENT"] >= 40
    assert kinds["NOT EQUIVALENT: Chern characters differ"] >= 40
    assert kinds["witness"] >= 40
