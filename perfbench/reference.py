"""Reference figures: mean ms per call of each layer at j = 20, 40, 80, 160,
from traced CLI runs (traced.py), one process per run.

    python3 perfbench/reference.py

Prints a markdown table and writes .perfbench_out/reference.json.  The runs
are short: evolve and deltaneff for 20 steps, rmt-compare for 20 steps of
one initial condition at eps = 1e-3 (sr_analytic is its exact-sum mode), and
a step-0 husimi snapshot on a 100 x 200 grid, whose TSV is the same size at
every j.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import HERE, OUT, SRC, environment, spawn

SPINS = (20, 40, 80, 160)
RUNS = {  # subcommand -> (extra flags, config keys)
    "evolve": (["--steps", "20", "--stride", "1"], {}),
    "deltaneff": (["--steps", "20", "--stride", "1"], {}),
    "rmt-compare": (["--steps", "20"], {"ic_grid": 1, "eps_list": "1e-3"}),
    "husimi": (["--steps", "1", "--snapshots", "0"], {"n_theta": 100, "n_phi": 200}),
}
COLUMNS = (
    "evolve.coupled_step", "entangle.reduce", "entangle.schmidt", "husimi.m2_rdm",
    "husimi.m2_pure", "husimi.husimi_field", "rmt.sr_analytic", "cli.write_table",
)


def main() -> int:
    if not (SRC / "ktops" / "cli.py").is_file():
        print(f"reference: no ktops sources at {SRC}", file=sys.stderr)
        return 2
    base = OUT / "reference"
    base.mkdir(parents=True, exist_ok=True)
    spans_path = base / "spans.json"
    figures = {}
    with open(base / "children.log", "w", encoding="utf-8") as log:
        for j in SPINS:
            durations = {}
            husimi_bytes = 0
            for kind, (flags, keys) in RUNS.items():
                cfg = base / f"{kind}.cfg"
                cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
                spans_path.unlink(missing_ok=True)
                spawn([sys.executable, str(HERE / "traced.py"), str(spans_path), kind,
                       "--j", str(j), *flags, "--config", str(cfg), "--out", str(base / kind)],
                      log)
                for name, start, end, _, size in json.loads(spans_path.read_text()):
                    if kind == "husimi" and name == "cli.write_table":
                        husimi_bytes += size
                    elif name == "cli.write_table":
                        continue  # TSV writing is timed on the fixed-size husimi snapshot
                    durations.setdefault(name, []).append((end - start) / 1e6)
            row = {name: statistics.mean(durations[name]) for name in COLUMNS}
            row["cli.write_table.mb_per_s"] = husimi_bytes / row["cli.write_table"] / 1e3
            figures[j] = row
    (OUT / "reference.json").write_text(
        json.dumps({"environment": environment(), "ms_per_call": figures}, indent=1))
    print("| j | " + " | ".join(COLUMNS) + " | TSV MB/s |")
    print("|---" * (len(COLUMNS) + 2) + "|")
    for j, row in figures.items():
        cells = [f"{row[name]:.3g}" for name in COLUMNS] + [f"{row['cli.write_table.mb_per_s']:.3g}"]
        print(f"| {j} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
