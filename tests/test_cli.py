import json
import pathlib
import subprocess
import sys

import pytest

from structbundle import cli
from structbundle.dsl import (LexError, ParseError, SemanticError,
                              evaluate_defs, parse_scenario)

CORPUS = sorted((pathlib.Path(__file__).parent.parent / "scenarios").glob("*.sb"))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "structbundle.cli", *args],
                          capture_output=True, text=True)
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


def test_missing_file_exits_2():
    assert cli.main(["run", "/nonexistent/file.sb"]) == 2


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


@pytest.mark.parametrize("verb, text", [
    ("run", "space R 1 T 1;\ntask realize dth1;\n"),
    ("check", "space R 0 T 1;\ngauge g = fourier(1);\n"
              "conn c = apply(g, flat(2));\n"),
], ids=["realize-on-torus", "gauge-rank-mismatch"])
def test_library_value_error_exits_2(tmp_path, verb, text):
    path = tmp_path / "bad.sb"
    path.write_text(text)
    code, _out, err = run_cli(verb, str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
