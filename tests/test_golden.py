"""Golden outputs: every data TSV of the seven subcommands at j = 10 for 20
steps, byte for byte against the files under tests/golden/.

The bytes are those of one numpy/BLAS build on one CPU, at one BLAS thread
count: OpenBLAS picks its kernel from the CPU and numpy its SIMD loops, and
these files are the bytes of the SkylakeX kernel and the X86_V4 loops.  At
one BLAS thread on a CPU with both, OPENBLAS_CORETYPE=Haswell or Zen fails 4
of the 7 output cases (evolve, husimi, rmt-compare, stats-rdm), Sandybridge 5
(those and stats-state), and NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR" fails husimi and rmt-compare.

A pure refactor keeps these files byte-identical; a change to the numerics
regenerates them and states its largest deviation, which a failing case
prints per file.  Manifests are not compared, since they carry the run's
duration.

    python tests/test_golden.py    # rewrite tests/golden/ from the current code
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from ktops.cli import main

GOLDEN = Path(__file__).parent / "golden"

# case name -> (subcommand, config keys); one output directory per case
CASES = {
    "evolve": ("evolve", {"j": 10, "steps": 20}),
    "portrait": ("portrait", {"portrait_grid": 4, "portrait_iters": 20}),
    "husimi": ("husimi", {"j": 10, "steps": 20, "n_theta": 10, "n_phi": 20,
                          "snapshots": "0, 7, 20"}),
    "deltaneff": ("deltaneff", {"j": 10, "steps": 20}),
    "rmt-compare": ("rmt-compare", {"j": 10, "steps": 20, "ic_grid": 2,
                                    "eps_list": "1e-3, 1e-2"}),
    "stats-state": ("stats", {"j": 10, "steps": 20, "snapshots": "0, 10, 20"}),
    "stats-rdm": ("stats-rdm", {"j": 10, "steps": 20, "snapshots": "0, 20"}),
}


def run_case(case: str, outdir: Path) -> list:
    """Run one case through the CLI; returns its data TSVs, sorted by name."""
    kind, keys = CASES[case]
    outdir.mkdir(parents=True)
    cfg = outdir / "golden.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    assert main([kind, "--config", str(cfg), "--out", str(outdir)]) == 0
    return sorted(outdir.glob("*.tsv"))


def deviation(got: Path, want: Path) -> str:
    """The largest absolute and relative deviation of got's numbers from want's."""
    a, b = (np.loadtxt(path, ndmin=2) for path in (got, want))
    if a.shape != b.shape:
        return f"shape {a.shape} against {b.shape}"
    diff = np.abs(a - b)
    rel = diff / np.maximum(np.abs(b), np.finfo(float).tiny)
    return f"largest deviation {diff.max():.2g} absolute, {rel.max():.2g} relative"


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    produced = run_case(case, tmp_path / case)
    expected = sorted((GOLDEN / case).glob("*.tsv"))
    assert [p.name for p in produced] == [p.name for p in expected]
    for got, want in zip(produced, expected):
        assert got.read_bytes() == want.read_bytes(), (
            f"{case}/{got.name} differs: {deviation(got, want)}"
        )


@pytest.mark.parametrize("case", sorted(CASES))
def test_rerun_from_manifest_is_byte_identical(case, tmp_path):
    # the manifest is a config file: identical config, byte-identical data files
    produced = run_case(case, tmp_path / case)
    kind = CASES[case][0]
    manifest = tmp_path / case / f"{kind.replace('-', '_')}_manifest.txt"
    assert main([kind, "--config", str(manifest), "--out", str(tmp_path / "rerun")]) == 0
    rerun = sorted((tmp_path / "rerun").glob("*.tsv"))
    assert [p.name for p in rerun] == [p.name for p in produced]
    for got, want in zip(rerun, produced):
        assert got.read_bytes() == want.read_bytes(), f"{case}/{got.name} differs"


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in CASES:
        scratch = GOLDEN / f".{name}"
        for path in run_case(name, scratch):
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            path.replace(GOLDEN / name / path.name)
        shutil.rmtree(scratch)
