"""Run ktops.cli.main in this process with a timing span around every call
of each layer's public functions.

    python3 perfbench/traced.py SPANS.json <ktops subcommand and flags>

The wrappers replace each function at every ktops module attribute that
holds it, which is where the CLI and evolve() look it up (ktops.cli.schmidt,
ktops.evolve.coupled_step, ...).  Spans stay in memory as
[name, start_ns, end_ns, parent_index, bytes] and are written to SPANS.json
when the run ends; bytes is the written file size for cli.write_table, else 0.
rmt.sr_analytic spans carry the name of their mode unless it is the default
exact-sum (rmt.sr_analytic.closed_form), since the two modes differ in cost
by an order of magnitude.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import ktops.cli

# module -> functions timed; cli.run is the root span and _write_table writes TSVs
LAYERS = {
    "spincore": ("wigner_d_half_pi", "coherent_amplitude_block"),
    "evolve": ("build_single_propagator", "coupled_step"),
    "entangle": ("reduce", "schmidt", "entropies"),
    "husimi": ("m2_rdm", "m2_pure", "husimi_field"),
    "rmt": ("sr_analytic",),
    "classical": ("phase_portrait",),
    "cli": ("run", "_write_table"),
}


def sr_mode_suffix(args, kwargs) -> str:
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "exact-sum")
    return "" if mode == "exact-sum" else "." + mode.replace("-", "_")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        writes = name == "cli.write_table"
        by_mode = name == "rmt.sr_analytic"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                size = os.path.getsize(args[0]) if writes else 0
                label = name + sr_mode_suffix(args, kwargs) if by_mode else name
                spans[index] = [label, start, end, parent, size]

        return timed

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("ktops.")]
        for layer, names in LAYERS.items():
            owner = sys.modules[f"ktops.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                timed = self.wrap(f"{layer}.{fname.lstrip('_')}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, timed)


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = ktops.cli.main(cli_argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
