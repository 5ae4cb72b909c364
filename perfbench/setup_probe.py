"""A fresh process that does a run's set-up and stops before its first step.

    python3 perfbench/setup_probe.py <ktops subcommand and flags>

It imports ktops, resolves the config exactly as the CLI does, and builds
the run's fixed tables with the public builders: both propagators (each with
its Wigner d(pi/2)), the coupling table of every eps, the initial state, and
the spherical grid for husimi.  The classical portrait has no tables.  Its
wall time from spawn to exit is the benchmark's setup_s.
"""

from __future__ import annotations

import sys

from ktops.cli import _build_parser, resolve_config
from ktops.evolve import (
    TopParams,
    build_single_propagator,
    coupling_phase_matrix,
    initial_product_state,
)
from ktops.husimi import SphericalGrid


def main(argv) -> int:
    cfg = resolve_config(_build_parser().parse_args(argv))
    if cfg.kind == "portrait":
        return 0
    spin = cfg.spin
    for k in cfg.kick_pair():
        build_single_propagator(TopParams(spin, k))
    for eps in cfg.epsilons():
        coupling_phase_matrix(spin, eps)
    initial_product_state(spin, *cfg.angles())
    if cfg.kind == "husimi":
        SphericalGrid.build(spin, cfg.n_theta, cfg.n_phi)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
