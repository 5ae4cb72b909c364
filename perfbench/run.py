"""Benchmark of the ktops CLI on four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository: the program is imported from its
src/ directory, so nothing has to be installed.  Each round spawns the
workload's `python3 -m ktops.cli ...` process and a fresh set-up probe, then
checks the round's output files against the references in oracle.py.
Rounds repeat while a round of median length still ends within --seconds
(at least MIN_ROUNDS), so a run measures for about --seconds and no more.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, work_per_s and
peak_rss_mb.  --trace 1 alternates untraced CLI processes with traced ones
(traced.py) and prints the per-layer metrics derived from their spans.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  Spans, samples, the environment record and failure messages
go to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # fixed for every process; 2 threads ran the j = 80 step slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread count is set)
import scipy  # noqa: E402

from workloads import MISSING, N, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3

# the layers of the per-layer table, as named by traced.py; each gives .ms and .calls
TIMED = (
    "spincore.wigner_d_half_pi", "evolve.build_single_propagator", "evolve.coupled_step",
    "entangle.reduce", "entangle.schmidt", "entangle.entropies", "husimi.m2_rdm",
    "husimi.husimi_field", "spincore.coherent_amplitude_block", "rmt.sr_analytic",
    "classical.phase_portrait", "cli.write_table",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def clear(outdir: Path):
    """Remove a previous round's outputs, so a failed child leaves files missing."""
    for path in outdir.glob("*.tsv"):
        path.unlink()


def spawn(argv: list, log) -> tuple:
    """Run one child to completion: (wall seconds from spawn to exit, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"perfbench: {argv[1:4]} exited {proc.returncode}; see {log.name}", file=sys.stderr)
    return wall, usage.ru_maxrss / 1024.0


def environment() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.processor())
    except OSError:
        cpu = platform.processor()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def layer_metrics(rounds: list, n_dim: int) -> tuple:
    """Per-layer metrics from the spans of each traced round, and the mean
    self time per round of every span name.  ms per call is a round's total
    time in the layer over its calls, median over rounds; a layer that the
    workload never calls reports 0 calls and 0 ms."""
    metrics = {}
    calls_repeat = True
    for name in TIMED:
        per_round = [[s for s in spans if s[0] == name] for spans in rounds]
        calls = len(per_round[0])
        calls_repeat &= all(len(r) == calls for r in per_round)
        seconds = [sum(s[2] - s[1] for s in r) / 1e9 for r in per_round]
        per_call = statistics.median(t / calls for t in seconds) if calls else 0.0
        metrics[f"{name}.ms"] = (per_call * 1e3, "ms")
        metrics[f"{name}.calls"] = (calls, "count")
        if name == "evolve.coupled_step":
            flops = 16.0 * n_dim**3  # two complex N x N matmuls
            metrics[f"{name}.gflop_per_s"] = (flops / per_call / 1e9 if calls else 0.0, "GFLOP/s")
        if name == "cli.write_table":
            rates = [sum(s[4] for s in r) / t / 1e6 for r, t in zip(per_round, seconds)]
            metrics[f"{name}.mb_per_s"] = (statistics.median(rates) if calls else 0.0, "MB/s")
    self_ms = []
    table = {}
    for spans in rounds:
        covered = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        for s, c in zip(spans, covered):
            own = (s[2] - s[1] - c) / 1e6
            table[s[0]] = table.get(s[0], 0.0) + own / len(rounds)
            if s[0] == "cli.run":
                self_ms.append(own)
    metrics["cli.self_ms"] = (statistics.median(self_ms), "ms")
    return metrics, calls_repeat, table


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    work = WORKLOADS[name](seed)
    base = OUT / name
    base.mkdir(parents=True, exist_ok=True)
    py = sys.executable
    with open(base / "children.log", "w", encoding="utf-8") as log:
        plain_dir = base / "cli"
        cli = [py, "-m", "ktops.cli", *work.cli_args(plain_dir), "--out", str(plain_dir)]
        probe = [py, str(HERE / "setup_probe.py"), *work.cli_args(base / "probe")]
        traced_dir = base / "traced"
        spans_path = base / "spans.json"
        traced = [py, str(HERE / "traced.py"), str(spans_path),
                  *work.cli_args(traced_dir), "--out", str(traced_dir)]
        spawn(probe, log)  # warm-up: first import of ktops, fills the page cache
        work.prepare()
        samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": [], "traced_s": []}
        spans = []
        bad = []
        rounds = 0
        durations = []
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or (time.perf_counter() - start
                                      + statistics.median(durations) <= seconds):
            began = time.perf_counter()
            clear(plain_dir)
            wall, rss = spawn(cli, log)
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
            bad += work.check(plain_dir)
            if trace:
                clear(traced_dir)
                spans_path.unlink(missing_ok=True)
                samples["traced_s"].append(spawn(traced, log)[0])
                bad += work.check(traced_dir)
                spans.append(json.loads(spans_path.read_text(encoding="utf-8"))
                             if spans_path.exists() else [])
            else:
                samples["setup_s"].append(spawn(probe, log)[0])
            rounds += 1
            durations.append(time.perf_counter() - began)

    attempted = rounds * work.expected_ops * (2 if trace else 1)
    correct = all(msg.startswith(MISSING) for msg in bad)
    if trace:
        metrics, calls_repeat, self_table = layer_metrics(spans, N)
        correct &= calls_repeat
        overhead = statistics.median(samples["traced_s"]) - statistics.median(samples["wall_s"])
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        setup = statistics.median(samples["setup_s"])
        metrics = {
            "wall_s": (statistics.median(samples["wall_s"]), "s"),
            "setup_s": (setup, "s"),
            "work_per_s": (statistics.median(work.units / (w - setup) for w in samples["wall_s"]),
                           "1/s"),
            "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
        }
        self_table = {}
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": int(v) if u == "count" else float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "rounds": rounds,
        "work_unit": work.unit, "units_per_round": work.units, "cli": cli[1:],
        "environment": env, "samples": samples, "layer_self_ms_per_round": self_table,
        "failures": bad[:50], "result": result,
    }
    (base / f"result_trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def report(name: str, result: dict):
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:42s} {entry['value']:14.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ktops" / "cli.py").is_file():
        print(f"perfbench: no ktops sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("environment:", json.dumps(env))
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        report(name, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
