from structbundle import checks, cli


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
