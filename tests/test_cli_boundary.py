"""A property test of the CLI boundary: any subcommand, run with a few of its
keys at edge values, either succeeds with finite output that its manifest
reruns byte for byte, or ends with one stderr line, exit 1 or 2 and no file.
"""

import contextlib
import io
import math
import tempfile
import typing
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ktops import cli
from ktops.cli import SUBCOMMANDS, RunConfig, main

EDGE_REALS = (0.0, -0.0, 1e-320, 1e308, -1e308, math.nan, math.inf, -math.inf, 0.5)
EDGE_THETAS = EDGE_REALS + (math.pi, math.nextafter(math.pi, 4.0))
# small values for the keys that set the cost of a run; a draw may override them
SMALL = {"j": 2, "steps": 3, "n_theta": 4, "n_phi": 4, "portrait_grid": 4,
         "portrait_iters": 4, "ic_grid": 2}
INT_BOUNDS = {"j": 5, "steps": 5, "snapshots": 5}  # every other size stays at most 8
HINTS = {key: str(hint) for key, hint in typing.get_type_hints(RunConfig).items()}


def values(key: str):
    """A strategy for key's flag text: edge values of its field's type."""
    hint = HINTS[key]
    if "int" in hint:
        item = st.integers(-1, INT_BOUNDS.get(key, 8))
    else:
        item = st.sampled_from(EDGE_THETAS if key.startswith("theta") else EDGE_REALS)
    if "tuple" in hint:
        return st.lists(item, max_size=3).map(lambda xs: ",".join(map(repr, xs)))
    return item.map(repr)


def run_main(argv: list) -> tuple:
    """main's exit status and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def tables(outdir: Path) -> dict:
    return {path.name: path.read_text() for path in sorted(outdir.glob("*.tsv"))}


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_edge_values_end_in_finite_output_or_one_line(data):
    kind = data.draw(st.sampled_from(sorted(SUBCOMMANDS)), label="kind")
    keys = [key for key in SUBCOMMANDS[kind][1] if key != "out"]
    flags = {key: repr(val) for key, val in SMALL.items() if key in keys}
    drawn = st.lists(st.sampled_from(keys), min_size=1, max_size=min(4, len(keys)), unique=True)
    for key in data.draw(drawn, label="keys"):
        flags[key] = data.draw(values(key), label=key)
    argv = [kind] + [f"--{key}={text}" for key, text in flags.items()]
    # one worker: the pool is tested in test_cli.py's TestRmtComparePool
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_worker_count", lambda n_tasks: 1):
        out = Path(tmp) / "run"
        rc, err = run_main(argv + [f"--out={out}"])
        assert rc in (0, 1, 2), err
        if rc != 0:
            assert err.count("\n") == 1, err
            assert not out.exists() or list(out.iterdir()) == []
            return
        written = tables(out)
        assert written
        for text in written.values():
            rows = [line for line in text.splitlines() if not line.startswith("#")]
            assert all(math.isfinite(float(tok)) for row in rows for tok in row.split("\t"))
        (manifest,) = out.glob("*_manifest.txt")
        rerun = Path(tmp) / "rerun"
        assert run_main([kind, "--config", str(manifest), f"--out={rerun}"])[0] == 0
        assert tables(rerun) == written
