"""README.md against the code: every ```python block runs as written, with
src on the path, the CLI tables name each subcommand and its keys, and the
expected acceptance outcome counts each criterion."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from ktops.cli import _COUPLED, SUBCOMMANDS, RunConfig
from test_cli import src_env

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.S | re.M)


def table_rows(first_column: str, second_column: str) -> dict:
    """The table whose header names these columns: first cell -> second cell."""
    header = re.search(rf"^\| {first_column} +\| {second_column} +\|\n\|[-|]+\|\n", README, re.M)
    assert header, f"no README table headed {first_column} | {second_column}"
    rows = {}
    for line in README[header.end():].splitlines():
        if not line.startswith("|"):
            break
        first, second = (cell.strip() for cell in line.strip("|").split("|", 1))
        rows[first.strip("`")] = second
    return rows


def test_cli_key_table_names_each_subcommands_keys():
    rows = table_rows("subcommand", "config keys")
    assert list(rows) == list(SUBCOMMANDS)
    for kind, cell in rows.items():
        named = []
        for item in cell.split(", "):
            named += _COUPLED if item == "the coupled keys" else [item.strip("`")]
        assert sorted(named) == sorted(SUBCOMMANDS[kind][1]), kind


def test_cli_output_table_has_a_row_per_subcommand():
    assert list(table_rows("subcommand", "output")) == list(SUBCOMMANDS)


def test_rmt_compare_k2_offset_matches_code():
    stated = re.search(r"unset `k2` is `k1 \+ ([0-9.]+)`", README)
    assert stated, "README states no k2 offset for rmt-compare"
    k1, k2 = RunConfig(kind="rmt-compare", k1=2.0).kick_pair()
    assert k2 == k1 + float(stated[1])


def test_acceptance_outcome_counts_each_criterion():
    stated = re.search(r"Expected acceptance outcome: \d+ of (\d+) criteria pass", README)
    assert stated, "README states no expected acceptance outcome"
    source = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert int(stated[1]) == len(re.findall(r"^def test_criterion_", source, re.M))


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
