#!/usr/bin/env python3
"""Tier-1 gate: run the tier-1 suite and pass only on its known failure.

    python ci/tier1_gate.py

runs `pytest -q --continue-on-collection-errors` from the repository root, in
this process, and exits 0 only when the failed, errored and uncollectable
tests are exactly KNOWN_FAILURES, each failing on its stated leg.  Any other
failure, or a pytest status other than 0 or 1, fails the gate, and so does a
known failure that passes, so that the list is brought up to date by hand
rather than left to hide a new failure.  The verdict line gives the suite's
wall time, so that every CI log records it.
"""

import os
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[1]

# test id -> the text its failure message must hold, and why it fails
KNOWN_FAILURES = {
    "tests/test_acceptance.py::test_criterion_07_analytic_linear_entropy": (
        "eps=1e-2 leg",
        "criterion 07's eps = 1e-2 leg: the closed form assumes a state random from "
        "step 1, and the coherent product lags it by a few kicks (about 0.2 in S_R "
        "against the 0.08 bound, which stays asserted)",
    ),
}


class FailedReports:
    """pytest plugin: test id -> failure text, for every failed report of a
    test's setup, call or teardown, or of a module's collection."""

    def __init__(self):
        self.found = {}

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.found[report.nodeid] = self.found.get(report.nodeid, "") + report.longreprtext

    pytest_collectreport = pytest_runtest_logreport


def problems(found: dict) -> list:
    """Why the gate fails, given test id -> failure text; empty when it passes."""
    out = [f"unexpected failure: {test}" for test in sorted(set(found) - set(KNOWN_FAILURES))]
    for test, (leg, why) in KNOWN_FAILURES.items():
        if test not in found:
            out.append(f"known failure passed, so remove it from KNOWN_FAILURES: {why}")
        elif leg not in found[test]:
            out.append(f"{test} failed, but not on its {leg}")
    return out


def main() -> int:
    os.chdir(ROOT)
    collector = FailedReports()
    start = perf_counter()
    status = pytest.main(["-q", "--continue-on-collection-errors"], plugins=[collector])
    seconds = f"{perf_counter() - start:.1f} s"
    if status not in (0, 1):
        print(f"tier-1 gate: pytest ended with status {status}", file=sys.stderr)
        return 1
    reasons = problems(collector.found)
    if reasons:
        print(f"tier-1 gate: FAIL in {seconds}", *reasons, sep="\n  ", file=sys.stderr)
        return 1
    print(f"tier-1 gate: pass in {seconds}; the known failure is",
          *(why for _, why in KNOWN_FAILURES.values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
