#!/usr/bin/env python3
"""The paper's figures as `ktops` command lines, written under out/.

    python scripts/figures.py [figure ...]

runs the lines of the named figures, or of every figure when none is named,
each distinct line once and in the order below, through `ktops.cli.main`:
the CLI checks every run, and a failed run's one stderr line is the last,
since the driver stops with its exit status.

- entropy: S_V(n) of the coupled tops for every (k, eps); the chaotic k = 6
  saturates at ln(N) - 1/2.
- portraits: classical (phi, cos theta) portraits for the four k.
- occupancy: dN_eff of the single top (the pure-state cap near 1/2), and of
  the coupled tops from the delta_n_eff column of the entropy runs
  (coupled chaotic saturation slightly below 1), which it shares.
- husimi: reduced Husimi fields at saturation, and the separatrix-localized
  k = 2 field at eps = 1e-3, n = 384.
- linear-entropy: measured S_R of the tops k1 = 6.0, k2 = 6.1 against both
  analytic evaluation routes.
- stats: GUE component diagnostics of the chaotic single-top state and of
  pooled saturated-RDM eigenvectors.
"""

import sys

from ktops import cli

KS = ("1", "2", "3", "6")
EPSILONS = ("0.01", "0.001", "0.0001")
ENTROPY = [f"evolve --j 80 --k {k} --eps {eps} --steps 1000 --out out/entropy/eps{eps}_k{k}"
           for eps in EPSILONS for k in KS]
FIGURES = {
    "entropy": ENTROPY,
    "portraits": [f"portrait --k {k} --out out/portrait/k{k}" for k in KS],
    "occupancy": [f"deltaneff --j 80 --k {k} --steps 1000 --out out/occupancy/single_k{k}"
                  for k in KS] + ENTROPY,
    "husimi": [f"husimi --j 80 --k {k} --eps {eps} --steps 1000 --snapshots {snaps} "
               f"--out out/husimi/eps{eps}_k{k}"
               for k, eps, snaps in [(k, "0.01", "0,1000") for k in KS]
               + [("1", "0.001", "384"), ("2", "0.001", "384")]],
    "linear-entropy": ["rmt-compare --j 80 --steps 1000 --eps_list 0.0001,0.001,0.01 "
                       "--out out/rmt_compare"],
    "stats": ["stats --j 80 --k 6 --snapshots 200 --out out/stats/state",
              "stats-rdm --j 80 --k 6 --eps 0.01 --steps 1000 --snapshots 1000 "
              "--out out/stats/rdm"],
}


def main(names) -> int:
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        print(f"unknown figures {unknown}; the figures are {list(FIGURES)}", file=sys.stderr)
        return 1
    lines = [line for name in (names or FIGURES) for line in FIGURES[name]]
    for line in dict.fromkeys(lines):
        print(f"ktops {line}", flush=True)
        status = cli.main(line.split())
        if status:
            return status
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
