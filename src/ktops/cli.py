"""Experiment driver: key = value configs, one subcommand per experiment,
deterministic delimiter-separated output files, and run manifests that echo
the resolved parameters as a config file.

Exit status: 0 success, 1 configuration, numeric range or memory error or a
worker process that ended abruptly, 2 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .classical import phase_portrait
from .entangle import entropies, ks_exponential, linear_entropy, reduce, schmidt
from .evolve import (
    TopParams,
    build_single_propagator,
    coupled_propagator,
    initial_product_state,
    single_top_evolve,
    trajectory,
)
from .husimi import SphericalGrid, delta_n_eff, gamma_factor, husimi_field, m2_pure, m2_rdm
from .rmt import sr_analytic
from .spincore import SpinQuantum, coherent_amplitudes

class ConfigError(Exception):
    pass


class WorkerLost(Exception):
    """A worker process ended without handing back its result, as one that
    the kernel kills for memory does."""


def _rmt_compare_file(eps: float) -> str:
    """The rmt-compare output file of one eps; eps_list values must not share one."""
    return f"rmt_compare_eps{eps:g}.tsv"


@dataclass(frozen=True)
class RunConfig:
    """Resolved experiment parameters; defaults reproduce the j = 80,
    k = 6, eps = 1e-2 setup started at (theta, phi) = (0.89, 0.63)."""

    kind: str
    j: int = 80
    k: float = 6.0
    k1: Optional[float] = None
    k2: Optional[float] = None
    eps: float = 1e-2
    eps_list: tuple[float, ...] = (1e-2,)
    steps: int = 1000
    theta0: float = 0.89
    phi0: float = 0.63
    theta0_2: Optional[float] = None
    phi0_2: Optional[float] = None
    n_theta: int = 200
    n_phi: int = 400
    snapshots: Optional[tuple[int, ...]] = None
    stride: int = 1
    out: str = "runs"
    portrait_grid: int = 20
    portrait_iters: int = 500
    ic_grid: int = 4

    def __post_init__(self):
        if self.kind not in SUBCOMMANDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.j < 0:
            raise ConfigError(f"j must be nonnegative, got {self.j}")
        for key in ("steps", "stride", "n_theta", "n_phi", "portrait_grid",
                    "portrait_iters", "ic_grid"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        reals = {"k": self.k, "k1": self.k1, "k2": self.k2, "eps": self.eps,
                 "theta0": self.theta0, "phi0": self.phi0,
                 "theta0_2": self.theta0_2, "phi0_2": self.phi0_2}
        reals.update((f"eps_list[{i}]", e) for i, e in enumerate(self.eps_list))
        for key, val in reals.items():
            if val is not None and not math.isfinite(val):
                raise ConfigError(f"{key} must be finite, got {val}")
        for key in ("theta0", "theta0_2"):
            val = getattr(self, key)
            if val is not None and not 0.0 <= val <= math.pi:
                raise ConfigError(f"{key} must lie in [0, pi], got {val}")
        for key in ("eps_list", "snapshots"):
            val = getattr(self, key)
            if val is not None and len(val) == 0:
                raise ConfigError(f"{key} must not be empty")
        names = [_rmt_compare_file(eps) for eps in self.eps_list]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"eps_list {self.eps_list} writes {name} more than once")
        snaps = self.snapshot_steps()
        if min(snaps) < 0 or max(snaps) > self.steps:
            raise ConfigError(f"snapshots must lie in [0, steps = {self.steps}], got {snaps}")
        # the manifest echoes out as a `key = value` line, which # or a line
        # break would cut, and whose value is read back stripped
        if "#" in self.out or len(self.out.splitlines()) > 1 or self.out != self.out.strip():
            raise ConfigError("out must not contain '#' or a line break, nor begin or end "
                              f"with whitespace, got {self.out!r}")

    @property
    def spin(self) -> SpinQuantum:
        return SpinQuantum.from_j(self.j)

    def kick_pair(self) -> tuple:
        k1 = self.k1 if self.k1 is not None else self.k
        if self.k2 is not None:
            k2 = self.k2
        elif self.kind == "rmt-compare":
            k2 = k1 + 0.1  # slightly non-identical tops break permutation symmetry
        else:
            k2 = k1
        return (k1, k2)

    def angles(self) -> tuple:
        t2 = self.theta0_2 if self.theta0_2 is not None else self.theta0
        p2 = self.phi0_2 if self.phi0_2 is not None else self.phi0
        return (self.theta0, self.phi0, t2, p2)

    def snapshot_steps(self) -> tuple:
        return self.snapshots if self.snapshots is not None else (0, self.steps)

    def epsilons(self) -> tuple:
        """The couplings the run reads: eps_list, eps, or none."""
        keys = SUBCOMMANDS[self.kind][1]
        return self.eps_list if "eps_list" in keys else (self.eps,) if "eps" in keys else ()

    def records(self, n: int) -> bool:
        """Whether step n is a row of a per-step series: every stride-th
        step from 1, and the last step."""
        return n > 0 and (n % self.stride == 0 or n == self.steps)


def _converter(hint):
    """The parser of a field's text value, from its annotation: int, float,
    str, or a comma-separated tuple of int or float; Optional is unwrapped."""
    if typing.get_origin(hint) is typing.Union:
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return lambda raw: tuple(item(t) for t in raw.split(",") if t.strip())
    return hint


# config key -> parser of its text value, for config files, manifests and flags
_CONVERTERS = {key: _converter(hint) for key, hint in typing.get_type_hints(RunConfig).items()}


def _convert(key: str, raw: str):
    try:
        return _CONVERTERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    """One `key = value` per line; # starts a comment; blank lines ignored;
    a key may be set once."""
    out, set_on = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = (part.strip() for part in body.partition("="))
        if key not in _CONVERTERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"lines {set_on[key]} and {lineno} both set {key!r}")
        set_on[key] = lineno
        out[key] = _convert(key, raw)
    return out


def _keys_read(kind: str, settings: dict) -> tuple:
    """The keys of kind's row of SUBCOMMANDS that a run with these settings
    reads: all of them, but k once k1 is set."""
    if kind not in SUBCOMMANDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    keys = SUBCOMMANDS[kind][1]
    if "k1" in keys and settings.get("k1") is not None:
        return tuple(key for key in keys if key != "k")
    return keys


def config_from_mapping(kind: str, mapping: dict) -> RunConfig:
    mapping = dict(mapping)
    named = mapping.pop("kind", kind)
    if named != kind:
        raise ConfigError(f"kind = {named} names another subcommand than {kind}")
    keys = _keys_read(kind, mapping)
    unread = set(mapping) - set(keys)
    if unread:
        raise ConfigError(f"{kind} does not read {sorted(unread)}; it reads {list(keys)}")
    return RunConfig(kind=kind, **mapping)


def _config_value_str(val) -> str:
    if isinstance(val, tuple):
        return ",".join(repr(v) for v in val)
    if isinstance(val, float):
        return repr(val)
    return str(val)


def config_lines(cfg: RunConfig) -> list:
    """`key = value` of the kind and of each set key the run reads."""
    settings = vars(cfg)
    return [f"{key} = {_config_value_str(settings[key])}"
            for key in ("kind",) + _keys_read(cfg.kind, settings)
            if settings[key] is not None]


def _manifest_text(cfg: RunConfig, fields: dict) -> str:
    """A config file of the run: its config lines, then each bookkeeping
    field as a comment."""
    lines = ["# run manifest", *config_lines(cfg)]
    lines.extend(f"# {key} = {value}" for key, value in fields.items())
    return "\n".join(lines) + "\n"


_BLOCK_VALUES = 1 << 16  # values formatted per write, which bounds the writer's memory
# correctly rounded 10^k and the byte strings of the %.12e fields, k and e in [-300, 300]
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
_HEADS = np.frombuffer(b"".join(b"\t%c%d." % (c, d) for c in b"\0-" for d in range(10)), np.uint32)
_EXPONENTS = np.frombuffer(b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(-300, 301)),
                           np.uint64)


def _float_fields(x: np.ndarray) -> np.ndarray:
    """(len(x), 24) uint8: row i is a tab and f"{x[i]:.12e}", with NUL bytes
    between and after that the caller drops."""
    a = np.abs(x)
    ok = (a >= 1e-280) & (a < 1e281)  # false for 0, inf and nan
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)  # may be one off near a power of ten
    s = a * _POW10[312 - e]
    e += s >= 1e13
    e -= s < 1e12
    s = a * _POW10[312 - e]  # a / 10^e, scaled into [1e12, 1e13]
    ok &= np.abs(s - np.floor(s) - 0.5) >= 0.005
    m = np.rint(s).astype(np.int64)
    carry = m == 10**13
    m[carry] = 10**12
    e += carry
    out = np.empty((len(x), 24), np.uint8)
    lead, q = np.divmod(m, 10**12)
    out.view(np.uint32)[:, 0] = _HEADS[10 * np.signbit(x) + lead]  # tab, sign, digit, point
    pairs = out.view(np.uint16)
    for k in range(7, 1, -1):  # bytes 4..15, the 12 fraction digits
        q, r = np.divmod(q, 100)
        pairs[:, k] = _PAIRS[r]
    out.view(np.uint64)[:, 2] = _EXPONENTS[e + 300]
    rest = np.flatnonzero(~ok)
    text = np.array([b"\t%.12e" % v for v in x[rest].tolist()], dtype="S24")
    out[rest] = text.view(np.uint8).reshape(-1, 24)
    return out


def _write_table(path: Path, header: str, *columns) -> int:
    """Write the header line, then one tab-separated line per row of the
    columns, and return the row count.  A column is 1-d, or 2-d (a list of
    row tuples, say) and contributes each of its columns.  Integer columns
    are written as %d and float columns as %.12e, the same text as str(n)
    and f"{x:.12e}", in blocks of as many rows as _BLOCK_VALUES values hold,
    one at least.

    A float's 13 digits are rint(|x| / 10^e), computed as |x| times a
    correctly rounded 10^(12 - e).  That product carries two roundings, a
    relative error of at most 2^-52, so below 1e13 it is off by less than
    0.0023 and the rounding is exact unless the scaled fraction lies within
    0.005 of 1/2.  Such a value, a 14th-digit tie among them, is formatted by
    Python's % instead, as are 0, inf, nan and |e| > 280."""
    blocks = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    n_rows = len(blocks[0])
    block_rows = max(1, _BLOCK_VALUES // sum(block.shape[1] for block in blocks))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(header.encode())
        for start in range(0, n_rows, block_rows):
            fields = []
            for block in blocks:
                part = block[start:start + block_rows]
                if part.dtype.kind in "iu":
                    fields.extend(np.array([b"\t%d" % v for v in c.tolist()]).view(np.uint8)
                                  .reshape(len(part), -1) for c in part.T)
                else:
                    fields.append(_float_fields(part.astype(np.float64, copy=False).ravel())
                                  .reshape(len(part), -1))
            rows = np.hstack(fields)
            rows[:, 0] = ord("\n")  # each row's first tab ends the line before it
            text = rows.ravel()
            f.write(text[text != 0])
        f.write(b"\n")
    return n_rows


# ---------------------------------------------------------------------------
# experiments: each yields (file name, header, columns) for each of its
# tables, and run() writes them


def _coupled_trajectory(cfg: RunConfig, n_steps: int):
    """(n, state) of the configured coupled run for n = 0..n_steps."""
    state0 = initial_product_state(cfg.spin, *cfg.angles())
    return trajectory(state0, *coupled_propagator(cfg.spin, *cfg.kick_pair(), cfg.eps), n_steps)


def _single_trajectory(cfg: RunConfig, n_steps: int):
    """(n, state) of the configured single-top run for n = 0..n_steps."""
    v0 = coherent_amplitudes(cfg.spin, cfg.theta0, cfg.phi0)
    return single_top_evolve(v0, *build_single_propagator(TopParams(cfg.spin, cfg.k)), n_steps)


def _snapshots(cfg: RunConfig, trajectory_of):
    """(n, state) of trajectory_of's run at each snapshot step."""
    snaps = cfg.snapshot_steps()
    return ((n, st) for n, st in trajectory_of(cfg, max(snaps)) if n in snaps)


def _observed(observe, spin: SpinQuantum, angles: tuple, d: np.ndarray, phases: np.ndarray,
              steps: typing.Sequence[int]) -> list:
    """observe(state) at each of the ascending steps of the coupled run (d,
    phases) from the coherent product at angles, which is built here so that
    a worker is sent four angles, not a state.  A worker is sent observe by
    reference, so it must be a module-level function: a local one does not
    pickle, and the pool's shutdown then hangs (Python 3.11)."""
    state0 = initial_product_state(spin, *angles)
    wanted = set(steps)
    return [observe(st) for n, st in trajectory(state0, d, phases, steps[-1]) if n in wanted]


def _entropy_row(state: np.ndarray) -> tuple:
    """(S_V, S_R, occupancy, gamma) of the state's rho_1."""
    rho = reduce(state)
    s_v, s_r = entropies(schmidt(rho))
    dn = delta_n_eff(m2_rdm(rho), len(state))
    return (s_v, s_r, dn, gamma_factor(s_v, dn, len(state)))


def _evolve(cfg: RunConfig):
    """Coupled run: per recorded step S_V, S_R, occupancy and gamma of rho_1.
    The recorded steps are dealt over _worker_count processes.  Each replays
    the whole trajectory in _observed, since at j = 80 a Floquet step (about
    1 ms) costs less than shipping its state to another process (about
    2 ms), and observes its share.  Every process takes the same steps from
    the same state, so the bytes do not depend on the worker count."""
    recorded = [n for n in range(1, cfg.steps + 1) if cfg.records(n)]
    d, phases = coupled_propagator(cfg.spin, *cfg.kick_pair(), cfg.eps)
    parts = _worker_count(len(recorded))
    rows = [None] * len(recorded)
    with _task_map(parts) as task_map:
        observe = functools.partial(_observed, _entropy_row, cfg.spin, cfg.angles(), d, phases)
        shares = [recorded[part::parts] for part in range(parts)]
        for part, part_rows in enumerate(task_map(observe, shares)):
            rows[part::parts] = part_rows
    yield "evolve_entropy.tsv", "# n\tS_V\tS_R\tdelta_n_eff\tgamma", (recorded, rows)


def _portrait(cfg: RunConfig):
    """Classical orbits from a cos(theta) x phi lattice of starting points."""
    g = cfg.portrait_grid
    cos_thetas = -1.0 + (np.arange(g) + 0.5) * 2.0 / g
    phis = -math.pi + (np.arange(g) + 0.5) * 2.0 * math.pi / g
    ct, ph = np.meshgrid(cos_thetas, phis, indexing="ij")
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    ics = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=-1).reshape(-1, 3)
    orbits = phase_portrait(cfg.k, ics, cfg.portrait_iters)
    # orbit points are (cos_theta, phi); the file puts phi first
    yield "portrait_points.tsv", "# phi\tcos_theta", (orbits.reshape(-1, 2)[:, ::-1],)


def _husimi(cfg: RunConfig):
    """The Husimi field of rho_1 at each snapshot step.  Each field is
    yielded, so written, before the next is computed: one sets peak RSS."""
    grid = SphericalGrid.build(cfg.spin, cfg.n_theta, cfg.n_phi)
    for n, st in _snapshots(cfg, _coupled_trajectory):
        header = (
            f"# husimi j={cfg.j} step={n} n_theta={cfg.n_theta} "
            f"n_phi={cfg.n_phi} rows=theta cols=phi"
        )
        yield f"husimi_n{n:05d}.tsv", header, (husimi_field(reduce(st), grid).values,)


def _deltaneff(cfg: RunConfig):
    """Single-top run: per recorded step the pure-state M2 and occupancy."""
    steps, rows = [], []
    for n, v in _single_trajectory(cfg, cfg.steps):
        if cfg.records(n):
            m2 = m2_pure(v)
            steps.append(n)
            rows.append((m2, delta_n_eff(m2, cfg.spin.dim)))
    yield "deltaneff_single.tsv", "# n\tm2_pure\tdelta_n_eff", (steps, rows)


def _worker_count(n_tasks: int) -> int:
    """Processes for n_tasks independent calls of _observed (rmt-compare's
    trajectories, evolve's shares of the recorded steps): one per BLAS thread
    pool that fits the CPUs this process may run on, at most one per task.
    The BLAS thread count is OpenBLAS's own: the first of its variables set
    to a positive integer, else every CPU.  Oversubscribed, two 2-thread
    workers on 2 CPUs took 3.5-38 s where one process took 1.6-1.8 s."""
    cpus = len(os.sched_getaffinity(0))
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(n_tasks, cpus // blas))


@contextlib.contextmanager
def _task_map(n_tasks: int):
    """A map for n_tasks independent calls: the builtin map with one worker,
    so no pool is made and nothing more imported; else the lazy map of a
    pool of forked processes, which is shut down on exit with its pending
    calls cancelled.  Fork, not spawn: a spawned worker imports numpy again
    (about 0.2 s).  A worker that ends abruptly breaks the pool, whose other
    workers are then stopped; that is raised as WorkerLost."""
    workers = _worker_count(n_tasks)
    if workers == 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    except BrokenProcessPool as exc:
        raise WorkerLost("a worker process ended abruptly (killed by a signal, "
                         "perhaps by the out-of-memory killer)") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _rmt_compare(cfg: RunConfig):
    """Per eps, the measured S_R averaged over coherent products started with
    both tops at each point of the ic_grid x ic_grid midpoint lattice of
    SphericalGrid, next to both analytic evaluation routes.  Each trajectory
    is one call of _observed, in _worker_count processes, and with more than
    one the analytic routes are evaluated here meanwhile; each eps sums its
    lattice in one order, so the bytes do not depend on the worker count.
    Every eps is computed before the first table is yielded, so a numeric
    range error at a later eps leaves no partial output."""
    spin, g = cfg.spin, cfg.ic_grid
    grid = SphericalGrid.build(spin, g, g)
    n_arr = np.arange(1, cfg.steps + 1)
    eps_list = cfg.epsilons()
    propagators = [coupled_propagator(spin, *cfg.kick_pair(), eps) for eps in eps_list]
    points = [(th, ph) for th in grid.thetas for ph in grid.phis]
    tasks = [((th, ph, th, ph), d, phases) for d, phases in propagators for th, ph in points]
    observe = functools.partial(_observed, linear_entropy, spin, steps=range(1, cfg.steps + 1))
    tables = []
    with _task_map(len(tasks)) as task_map:
        series = task_map(observe, *zip(*tasks))
        for eps in eps_list:
            laws = [sr_analytic(n_arr, spin, eps, mode) for mode in ("exact-sum", "closed-form")]
            acc = np.zeros(cfg.steps)
            for _ in points:
                acc += next(series)
            acc /= g * g
            tables.append((_rmt_compare_file(eps), "# n\tsr_measured\tsr_exact_sum\tsr_closed_form",
                           (n_arr, acc, *laws)))
    yield from tables


def _component_tables(cfg: RunConfig, pool: list):
    """The pooled complex components, and their moments."""
    comps = np.concatenate(pool)
    scaled = cfg.spin.dim * np.abs(comps) ** 2
    yield "stats_components.tsv", "# re\tim\tn_abs2", (comps.real, comps.imag, scaled)
    moments = (comps.real.mean(), comps.real.var(), comps.imag.mean(), comps.imag.var(),
               ks_exponential(scaled))
    yield ("stats_summary.tsv", "# mean_re\tvar_re\tmean_im\tvar_im\tks_exponential\tn_samples",
           ([moments], [len(comps)]))


def _stats(cfg: RunConfig):
    """Components of the single-top state at each snapshot step."""
    yield from _component_tables(cfg, [v for _, v in _snapshots(cfg, _single_trajectory)])


def _stats_rdm(cfg: RunConfig):
    """Components of every eigenvector of the coupled run's rho_1 at each
    snapshot step."""
    yield from _component_tables(cfg, [schmidt(reduce(st), vectors=True).eigenvectors.T.ravel()
                                       for _, st in _snapshots(cfg, _coupled_trajectory)])


# the keys of a coupled run: two kicks, the coupling, the initial product
_COUPLED = ("j", "k", "k1", "k2", "eps", "steps", "theta0", "phi0", "theta0_2", "phi0_2")

# subcommand -> (experiment, the config keys it reads); the parser offers
# only these keys as flags, config_from_mapping rejects any other, and the
# manifest echoes these alone
SUBCOMMANDS = {
    "evolve": (_evolve, _COUPLED + ("stride", "out")),
    "portrait": (_portrait, ("k", "out", "portrait_grid", "portrait_iters")),
    "husimi": (_husimi, _COUPLED + ("n_theta", "n_phi", "snapshots", "out")),
    "deltaneff": (_deltaneff, ("j", "k", "steps", "theta0", "phi0", "stride", "out")),
    "rmt-compare": (_rmt_compare, ("j", "k", "k1", "k2", "eps_list", "steps", "out", "ic_grid")),
    "stats": (_stats, ("j", "k", "steps", "theta0", "phi0", "snapshots", "out")),
    "stats-rdm": (_stats_rdm, _COUPLED + ("snapshots", "out")),
}


def run(cfg: RunConfig) -> dict:
    """Write each table the subcommand's experiment yields, then the
    manifest; return each file's data row count by file name."""
    outdir = Path(cfg.out)
    start = time.perf_counter()
    files = {}
    for name, header, columns in SUBCOMMANDS[cfg.kind][0](cfg):
        files[name] = _write_table(outdir / name, header, *columns)
        del columns  # so a husimi field is freed before the next is computed
    fields = {"artifact_version": __version__,
              "duration_seconds": f"{time.perf_counter() - start:.3f}"}
    fields.update((f"output_rows.{name}", files[name]) for name in sorted(files))
    manifest = outdir / f"{cfg.kind.replace('-', '_')}_manifest.txt"
    manifest.write_text(_manifest_text(cfg, fields), encoding="utf-8")
    return files


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktops", description="coupled kicked top experiments"
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, (_, keys) in SUBCOMMANDS.items():
        p = sub.add_parser(kind, allow_abbrev=False)
        p.add_argument("--config")
        for key in keys:
            p.add_argument(f"--{key}")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    mapping = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        mapping.update(parse_config_text(text))
    for key in SUBCOMMANDS[args.kind][1]:
        raw = getattr(args, key)
        if raw is not None:
            mapping[key] = _convert(key, raw)
    return config_from_mapping(args.kind, mapping)


# a run's failure -> the prefix of its one stderr line, and the exit status
_FAILURES = {
    ConfigError: ("config error", 1),
    FloatingPointError: ("numeric range error", 1),
    MemoryError: ("out of memory", 1),
    WorkerLost: ("worker lost", 1),
    OSError: ("i/o error", 2),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
        files = run(cfg)
    except tuple(_FAILURES) as exc:
        prefix, status = next(_FAILURES[kind] for kind in _FAILURES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return status
    for name in sorted(files):
        print(f"wrote {Path(cfg.out) / name} ({files[name]} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
