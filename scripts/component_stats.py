#!/usr/bin/env python3
"""GUE diagnostics: component statistics of the chaotic single-top state and
of pooled RDM eigenvectors at entanglement saturation."""

from ktops.cli import RunConfig, run

cfg = RunConfig(kind="stats", j=80, k=6.0, snapshots=(200,), out="out/stats/state")
run(cfg)
print("single-top state components written (snapshot n = 200)")

cfg = RunConfig(kind="stats-rdm", j=80, k=6.0, eps=1e-2, steps=1000,
                snapshots=(1000,), out="out/stats/rdm")
run(cfg)
print("pooled saturated-RDM eigenvector components written (snapshot n = 1000)")
