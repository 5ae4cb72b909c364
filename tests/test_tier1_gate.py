"""The tier-1 gate's verdict and its report collector, without running the suite."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("tier1_gate", ROOT / "ci" / "tier1_gate.py")
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

KNOWN = "tests/test_acceptance.py::test_criterion_07_analytic_linear_entropy"
LEG = gate.KNOWN_FAILURES[KNOWN][0]


@pytest.mark.parametrize("found, problem", [
    ({KNOWN: f"AssertionError: {LEG}: S_R off by 0.21"}, None),
    ({KNOWN: LEG, "tests/test_x.py::test_y": "boom"}, "unexpected failure: tests/test_x.py::test_y"),
    ({KNOWN: LEG, "tests/test_x.py": "ImportError"}, "unexpected failure: tests/test_x.py"),
    ({}, "known failure passed"),
    ({KNOWN: "AssertionError: eps=1e-3 leg"}, f"not on its {LEG}"),
], ids=["known", "extra-test", "uncollectable", "known-passed", "other-leg"])
def test_verdict(found, problem):
    problems = gate.problems(found)
    if problem is None:
        assert problems == []
    else:
        assert len(problems) == 1 and problem in problems[0], problems


def test_collector_keeps_each_failed_report():
    collector = gate.FailedReports()
    hash(collector)  # pytest hashes its plugins; a dict subclass would end in INTERNALERROR
    for nodeid, failed, text in [
        ("tests/test_a.py::test_ok", False, ""),
        ("tests/test_a.py::test_bad", True, "call failed\n"),
        ("tests/test_a.py::test_bad", True, "teardown failed\n"),
        ("tests/test_b.py", True, "ImportError"),
    ]:
        report = SimpleNamespace(nodeid=nodeid, failed=failed, longreprtext=text)
        if "::" in nodeid:
            collector.pytest_runtest_logreport(report)
        else:
            collector.pytest_collectreport(report)
    assert collector.found == {"tests/test_a.py::test_bad": "call failed\nteardown failed\n",
                               "tests/test_b.py": "ImportError"}


@pytest.mark.parametrize("found, status, line", [
    ({KNOWN: LEG}, 0, "tier-1 gate: pass in 42.5 s;"),
    ({KNOWN: LEG, "tests/test_x.py::test_y": "boom"}, 1, "tier-1 gate: FAIL in 42.5 s\n"),
], ids=["pass", "fail"])
def test_verdict_line_gives_the_suite_wall_time(found, status, line, monkeypatch, capsys):
    def suite(args, plugins):
        for nodeid, text in found.items():
            report = SimpleNamespace(nodeid=nodeid, failed=True, longreprtext=text)
            for plugin in plugins:
                plugin.pytest_runtest_logreport(report)
        return 1

    monkeypatch.chdir(ROOT)  # main changes to the repository root; this restores the cwd
    monkeypatch.setattr(gate.pytest, "main", suite)
    clock = iter([10.0, 52.5])
    monkeypatch.setattr(gate, "perf_counter", lambda: next(clock))
    assert gate.main() == status
    out, err = capsys.readouterr()
    assert (out + err).startswith(line)
