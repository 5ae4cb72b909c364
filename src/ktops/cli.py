"""Experiment driver: key = value configs, six experiment families as
subcommands, deterministic delimiter-separated output files, and run
manifests that echo the resolved parameters.

Exit status: 0 success, 1 configuration or numeric range error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .classical import phase_portrait
from .entangle import entropies, ks_exponential, reduce, schmidt
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
    eps_list: Optional[tuple[float, ...]] = None
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
    stats_mode: str = "state"
    pool: str = "all"

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
        reals.update((f"eps_list[{i}]", e) for i, e in enumerate(self.eps_list or ()))
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
        names = [_rmt_compare_file(eps) for eps in self.eps_list or ()]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"eps_list {self.eps_list} writes {name} more than once")
        snaps = self.snapshot_steps()
        if min(snaps) < 0 or max(snaps) > self.steps:
            raise ConfigError(f"snapshots must lie in [0, steps = {self.steps}], got {snaps}")
        if self.stats_mode not in ("state", "rdm"):
            raise ConfigError(f"stats_mode must be 'state' or 'rdm', got {self.stats_mode!r}")
        if self.pool not in ("all", "top"):
            raise ConfigError(f"pool must be 'all' or 'top', got {self.pool!r}")
        # the manifest echoes out as a `key = value` line, which # or a line break would cut
        if "#" in self.out or self.out.splitlines() not in ([], [self.out]):
            raise ConfigError(f"out must not contain '#' or a line break, got {self.out!r}")

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
        return self.eps_list if self.eps_list is not None else (self.eps,)

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


def _key_values(text: str):
    """(line number, key, raw value) of each `key = value` line; # starts a
    comment; blank lines are skipped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        yield lineno, key.strip(), raw.strip()


def parse_config_text(text: str) -> dict:
    """One `key = value` per line; # starts a comment; blank lines ignored."""
    out = {}
    for lineno, key, raw in _key_values(text):
        if key not in _CONVERTERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = _convert(key, raw)
    return out


def _keys_read(kind: str, settings: dict) -> tuple:
    """The keys of kind's row of SUBCOMMANDS that a run with these settings
    reads: eps is unread beside an eps_list, k beside a k1, and pool unless
    stats_mode is rdm; without rdm, stats evolves the first top alone."""
    if kind not in SUBCOMMANDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    keys = SUBCOMMANDS[kind][1]
    unread = {"eps"} if "eps_list" in keys and settings.get("eps_list") is not None else set()
    if settings.get("stats_mode") != "rdm":
        unread.add("pool")
        if kind == "stats":
            unread.update(("k1", "k2", "eps", "theta0_2", "phi0_2"))
    if "k1" in keys and "k1" not in unread and settings.get("k1") is not None:
        unread.add("k")
    return tuple(key for key in keys if key not in unread)


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


def config_from_manifest_text(text: str) -> RunConfig:
    """Rebuild the RunConfig echoed in a manifest, ignoring bookkeeping keys."""
    params = {
        key: _convert(key, raw)
        for _, key, raw in _key_values(text)
        if key in _CONVERTERS
    }
    if "kind" not in params:
        raise ConfigError("manifest carries no kind")
    return config_from_mapping(params["kind"], params)


@dataclass
class RunManifest:
    config: RunConfig
    duration_seconds: float
    files: dict  # file name -> data row count

    def to_text(self) -> str:
        lines = ["# run manifest"]
        lines.extend(config_lines(self.config))
        lines.append(f"artifact_version = {__version__}")
        lines.append(f"duration_seconds = {self.duration_seconds:.3f}")
        for name in sorted(self.files):
            lines.append(f"output_rows.{name} = {self.files[name]}")
        return "\n".join(lines) + "\n"


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_table(path: Path, header: str, *columns) -> int:
    """Write the header line, then one tab-separated line per row of the
    columns, and return the row count.  A column is 1-d, or 2-d (a list of
    row tuples, say) and contributes each of its columns.  Integer columns
    are written as %d and float columns as %.12e, the same text as str(n)
    and f"{x:.12e}"; the whole table is formatted by one % on its values."""
    blocks = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    line = "\t".join("%d" if b.dtype.kind in "iu" else "%.12e"
                     for b in blocks for _ in range(b.shape[1]))
    table = np.hstack([b.astype(object) for b in blocks])  # Python ints and floats
    body = ((line + "\n") * len(table)) % tuple(table.ravel())
    _write_text(path, f"{header}\n{body}")
    return len(table)


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


def _evolve(cfg: RunConfig):
    """Coupled run: per recorded step S_V, S_R, occupancy and gamma of rho_1."""
    n_dim = cfg.spin.dim
    steps, rows = [], []
    for n, st in _coupled_trajectory(cfg, cfg.steps):
        if cfg.records(n):
            rho = reduce(st)
            s_v, s_r = entropies(schmidt(rho))
            dn = delta_n_eff(m2_rdm(rho), n_dim)
            steps.append(n)
            rows.append((s_v, s_r, dn, gamma_factor(s_v, dn, n_dim)))
    yield "evolve_entropy.tsv", "# n\tS_V\tS_R\tdelta_n_eff\tgamma", (steps, rows)


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


def _rmt_compare(cfg: RunConfig):
    """Per eps, the measured S_R averaged over a lattice of initial coherent
    products, next to both analytic evaluation routes.  Every eps is computed
    before the first table is yielded, so a numeric range error at a later
    eps leaves no partial output."""
    spin, g = cfg.spin, cfg.ic_grid
    thetas = (np.arange(g) + 0.5) * math.pi / g
    phis = -math.pi + (np.arange(g) + 0.5) * 2.0 * math.pi / g
    n_arr = np.arange(1, cfg.steps + 1)
    tables = []
    for eps in cfg.epsilons():
        d, phases = coupled_propagator(spin, *cfg.kick_pair(), eps)
        acc = np.zeros(cfg.steps)
        for th in thetas:
            for ph in phis:
                state0 = initial_product_state(spin, th, ph, th, ph)
                for n, a in trajectory(state0, d, phases, cfg.steps):
                    if n > 0:
                        rho = a @ a.conj().T
                        acc[n - 1] += 1.0 - float((np.abs(rho) ** 2).sum())
        acc /= g * g
        tables.append((_rmt_compare_file(eps), "# n\tsr_measured\tsr_exact_sum\tsr_closed_form",
                       (n_arr, acc, sr_analytic(n_arr, spin, eps, "exact-sum"),
                        sr_analytic(n_arr, spin, eps, "closed-form"))))
    yield from tables


def _stats(cfg: RunConfig):
    """Pooled complex components and their moments.  Mode 'state': the
    single-top state at each snapshot step.  Mode 'rdm': the eigenvectors of
    the coupled run's rho_1 at each snapshot ('all' pools every eigenvector,
    'top' the upper half of the spectrum)."""
    if cfg.stats_mode == "state":
        pool = [v for _, v in _snapshots(cfg, _single_trajectory)]
    else:
        pool = []
        for _, st in _snapshots(cfg, _coupled_trajectory):
            vecs = schmidt(reduce(st), vectors=True).eigenvectors
            take = vecs.shape[1] if cfg.pool == "all" else max(1, vecs.shape[1] // 2)
            pool.append(vecs[:, :take].T.ravel())
    comps = np.concatenate(pool)
    scaled = cfg.spin.dim * np.abs(comps) ** 2
    yield "stats_components.tsv", "# re\tim\tn_abs2", (comps.real, comps.imag, scaled)
    moments = (comps.real.mean(), comps.real.var(), comps.imag.mean(), comps.imag.var(),
               ks_exponential(scaled))
    yield ("stats_summary.tsv", "# mean_re\tvar_re\tmean_im\tvar_im\tks_exponential\tn_samples",
           ([moments], [len(comps)]))


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
    "rmt-compare": (_rmt_compare,
                    ("j", "k", "k1", "k2", "eps", "eps_list", "steps", "out", "ic_grid")),
    "stats": (_stats, _COUPLED + ("snapshots", "out", "stats_mode", "pool")),
}


def run(cfg: RunConfig) -> RunManifest:
    """Write each table the subcommand's experiment yields, then the manifest."""
    outdir = Path(cfg.out)
    start = time.perf_counter()
    files = {}
    for name, header, columns in SUBCOMMANDS[cfg.kind][0](cfg):
        files[name] = _write_table(outdir / name, header, *columns)
        del columns  # so a husimi field is freed before the next is computed
    manifest = RunManifest(
        config=cfg, duration_seconds=time.perf_counter() - start, files=files
    )
    _write_text(outdir / f"{cfg.kind.replace('-', '_')}_manifest.txt", manifest.to_text())
    return manifest


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktops", description="coupled kicked top experiments"
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, (_, keys) in SUBCOMMANDS.items():
        p = sub.add_parser(kind)
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        manifest = run(cfg)
    except FloatingPointError as exc:
        print(f"numeric range error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    for name in sorted(manifest.files):
        print(f"wrote {Path(cfg.out) / name} ({manifest.files[name]} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
