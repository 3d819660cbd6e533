import json
import multiprocessing
import os

import pytest

from structbundle import checks, cli

TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="the pool needs two usable CPUs")


def _run_alone(monkeypatch, fn, cases, whole=False):
    """Run fn as the only check, through a patched copy of the registry."""
    monkeypatch.setattr(checks, "CHECKS", [("fake", "a fake check", cases)])
    monkeypatch.setattr(checks, "_REGISTRY", {"fake": (fn, whole)})
    (result,) = checks.run_battery(seed=3)
    return result


def test_battery_stops_at_the_first_failing_case(monkeypatch):
    calls = []

    def fake(gen):
        calls.append(gen)
        if len(calls) == 4:
            return "broken"

    result = _run_alone(monkeypatch, fake, 10)
    assert len(calls) == 4
    assert len(set(map(id, calls))) == 1  # consecutive cases share one generator
    assert (result.passed, result.cases, result.detail, result.failed_case) == (
        False, 10, "broken", 3)
    assert cli._check_entry(result)["case"] == 3


def test_a_raising_case_fails_with_its_index(monkeypatch):
    calls = []

    def fake(gen):
        calls.append(gen)
        if len(calls) == 7:
            raise ValueError("no inverse")

    result = _run_alone(monkeypatch, fake, 10)
    assert len(calls) == 7
    assert (result.passed, result.detail, result.failed_case) == (
        False, "exception: no inverse", 6)


def test_a_pass_runs_every_case_and_names_no_case(monkeypatch):
    calls = []
    result = _run_alone(monkeypatch, calls.append, 10)
    assert len(calls) == 10
    assert (result.passed, result.detail, result.failed_case) == (True, "", None)
    assert "case" not in cli._check_entry(result)


def test_an_exhaustive_check_runs_once(monkeypatch):
    calls = []
    result = _run_alone(monkeypatch, calls.append, 0)
    assert len(calls) == 1 and result.cases == 1 and result.passed


def test_a_whole_check_runs_its_own_cases(monkeypatch):
    seen = []

    def fake(gen, cases):
        seen.append(cases)
        return "j=2"

    result = _run_alone(monkeypatch, fake, 8, whole=True)
    assert seen == [8]
    assert (result.passed, result.detail, result.failed_case) == (False, "j=2", None)
    assert "case" not in cli._check_entry(result)


def _patch_registry(monkeypatch, *fns, cases=5):
    """Replace the registry with case functions named check0, check1, ..."""
    names = [f"check{k}" for k in range(len(fns))]
    monkeypatch.setattr(checks, "CHECKS", [(n, f"statement of {n}", cases)
                                           for n in names])
    monkeypatch.setattr(checks, "_REGISTRY", {n: (fn, False)
                                              for n, fn in zip(names, fns)})


def _rows(results):
    return [(r.name, r.passed, r.cases, r.detail, r.failed_case) for r in results]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the fork pool by a stand-in that records its size and maps
    in-process, so no process starts; returns the recorded sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(checks, "_fork_pool", RecordingPool)
    return sizes


@TWO_CPUS
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_pool_changes_no_result(seed):
    serial = checks.run_battery(seed, 0.2, jobs=1)
    pooled = checks.run_battery(seed, 0.2, jobs=2)
    assert multiprocessing.active_children() == []
    assert _rows(pooled) == _rows(serial)
    assert [r.name for r in pooled] == [name for name, _s, _c in checks.CHECKS]


@TWO_CPUS
def test_suite_reports_are_the_same_at_every_jobs_value(capsys):
    reports = {}
    for fmt in ("text", "json"):
        for jobs in ("1", "2"):
            argv = ["--format", fmt, "suite", "--scale", "0.2", "--jobs", jobs]
            assert cli.main(argv) == 0
            reports[fmt, jobs] = capsys.readouterr().out
            assert multiprocessing.active_children() == []
    assert reports["text", "1"] == reports["text", "2"]
    assert reports["json", "1"] == reports["json", "2"]


@TWO_CPUS
def test_a_failing_case_comes_back_through_the_pool(monkeypatch):
    calls = []

    def fails_at_case_3(gen):
        calls.append(gen)  # in the worker's copy of the list
        if len(calls) == 4:
            return "broken"

    _patch_registry(monkeypatch, lambda gen: None, fails_at_case_3, cases=10)
    first, second = checks.run_battery(seed=3, jobs=2)
    assert multiprocessing.active_children() == []
    assert calls == []  # the cases ran in a worker
    assert (first.name, first.passed) == ("check0", True)
    assert (second.name, second.passed, second.detail, second.failed_case) == (
        "check1", False, "broken", 3)


@TWO_CPUS
def test_a_dead_worker_exits_2(monkeypatch, tmp_path, capsys):
    parent = os.getpid()

    def dies(gen):
        if os.getpid() != parent:
            os._exit(3)

    _patch_registry(monkeypatch, lambda gen: None, dies)
    scenario = tmp_path / "suite.sb"
    scenario.write_text("space R 1;\ntask suite;\n")
    for argv in (["suite"], ["run", str(scenario)]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert "Traceback" not in err
        assert cli.main(["--format", "json", *argv]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["line"], error["column"]) == (None, None)
        assert error["message"] in err
        assert multiprocessing.active_children() == []


def test_jobs_is_clamped_to_the_cpus_and_the_checks(pool_sizes, capsys):
    assert cli.main(["suite", "--jobs", "1000000", "--scale", "0.05"]) == 0
    cpus = len(os.sched_getaffinity(0))
    assert pool_sizes == ([min(cpus, len(checks.CHECKS))] if cpus > 1 else [])
    assert "checks passed" in capsys.readouterr().out


def test_jobs_is_clamped_to_the_checks(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    _patch_registry(monkeypatch, lambda gen: None, lambda gen: None)
    assert [r.passed for r in checks.run_battery()] == [True, True]
    assert pool_sizes == [2]


def test_one_cpu_builds_no_pool(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _patch_registry(monkeypatch, lambda gen: None, lambda gen: None)
    assert [r.passed for r in checks.run_battery(jobs=8)] == [True, True]
    assert pool_sizes == []
