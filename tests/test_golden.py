"""Golden outputs: every data TSV of the six subcommands at j = 10 for 20
steps, byte for byte against the files under tests/golden/.

A pure refactor keeps these files byte-identical; a change to the numerics
regenerates them and states its largest deviation.  Manifests are not
compared, since they carry the run's duration.

    python tests/test_golden.py    # rewrite tests/golden/ from the current code
"""

import shutil
from pathlib import Path

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
    "stats-rdm": ("stats", {"j": 10, "steps": 20, "snapshots": "0, 20",
                            "stats_mode": "rdm", "pool": "top"}),
}


def run_case(case: str, outdir: Path) -> list:
    """Run one case through the CLI; returns its data TSVs, sorted by name."""
    kind, keys = CASES[case]
    outdir.mkdir(parents=True)
    cfg = outdir / "golden.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    assert main([kind, "--config", str(cfg), "--out", str(outdir)]) == 0
    return sorted(outdir.glob("*.tsv"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    produced = run_case(case, tmp_path / case)
    expected = sorted((GOLDEN / case).glob("*.tsv"))
    assert [p.name for p in produced] == [p.name for p in expected]
    for got, want in zip(produced, expected):
        assert got.read_bytes() == want.read_bytes(), f"{case}/{got.name} differs"


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in CASES:
        scratch = GOLDEN / f".{name}"
        for path in run_case(name, scratch):
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            path.replace(GOLDEN / name / path.name)
        shutil.rmtree(scratch)
