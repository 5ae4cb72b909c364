"""The benchmark's contract with the library: perfbench/setup_probe.py and
perfbench/traced.py import ktops by name and call its public builders, and
perfbench/run.py only logs a child that fails, so a renamed import or
changed signature would shrink the measured set-up time without a failed
operation.  These tests run both scripts as the benchmark does, at j = 4."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def traced_layers() -> dict:
    """traced.py's LAYERS, read from its source without importing it."""
    tree = ast.parse((PERFBENCH / "traced.py").read_text(encoding="utf-8"))
    assign = next(node for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["LAYERS"])
    return ast.literal_eval(assign.value)


def run_script(script: str, *args, preexec_fn=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(PERFBENCH / script), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn)


@pytest.mark.parametrize("argv", [
    ["evolve", "--j", "4", "--steps", "3"],
    ["rmt-compare", "--j", "4", "--steps", "3", "--ic_grid", "1", "--eps_list", "1e-3,1e-2"],
    ["husimi", "--j", "4", "--steps", "3", "--n_theta", "5", "--n_phi", "10"],
    ["portrait", "--portrait_grid", "2", "--portrait_iters", "3"],
], ids=lambda argv: argv[0])
def test_setup_probe_builds_the_tables(argv):
    proc = run_script("setup_probe.py", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_traced_run_spans_every_layer_it_calls(tmp_path):
    # traced.py keeps its spans in its own process, and evolve observes its
    # steps in worker processes when the BLAS thread count leaves a CPU free;
    # on one CPU the run has one worker, so every span is recorded
    spans_path = tmp_path / "spans.json"
    cpu = min(os.sched_getaffinity(0))
    proc = run_script("traced.py", str(spans_path), "evolve", "--j", "4", "--steps", "3",
                      "--out", str(tmp_path / "out"),
                      preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(spans_path.read_text())]
    layers = {f"{layer}.{fn.lstrip('_')}" for layer, fns in traced_layers().items() for fn in fns}
    not_called = {"husimi.m2_pure", "husimi.husimi_field", "rmt.sr_analytic",
                  "classical.phase_portrait"}
    assert set(names) == layers - not_called
    assert names.count("evolve.coupled_step") == 3
    assert names.count("entangle.reduce") == 3
    assert (tmp_path / "out" / "evolve_entropy.tsv").read_text().count("\n") == 4
