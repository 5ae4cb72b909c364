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
from dataclasses import dataclass, fields
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

KINDS = ("evolve", "portrait", "husimi", "deltaneff", "rmt-compare", "stats")


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
        if self.kind not in KINDS:
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
        if self.snapshots is not None and min(self.snapshots) < 0:
            raise ConfigError(f"snapshots must be nonnegative, got {self.snapshots}")
        if self.stats_mode not in ("state", "rdm"):
            raise ConfigError(f"stats_mode must be 'state' or 'rdm', got {self.stats_mode!r}")
        if self.pool not in ("all", "top"):
            raise ConfigError(f"pool must be 'all' or 'top', got {self.pool!r}")

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


def config_from_mapping(kind: str, mapping: dict) -> RunConfig:
    mapping = dict(mapping)
    mapping.pop("kind", None)
    unknown = set(mapping) - set(_CONVERTERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(kind=kind, **mapping)


def _config_value_str(val) -> str:
    if isinstance(val, tuple):
        return ",".join(repr(v) for v in val)
    if isinstance(val, float):
        return repr(val)
    return str(val)


def config_lines(cfg: RunConfig) -> list:
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        lines.append(f"{f.name} = {_config_value_str(val)}")
    return lines


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
    columns, and return the row count.  A column is a 1-d array, or a 2-d
    array that contributes each of its columns.  Integer columns are written
    as %d and float columns as %.12e, the same text as str(n) and
    f"{x:.12e}"; the whole table is formatted by one % on its values."""
    blocks = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    line = "\t".join("%d" if b.dtype.kind in "iu" else "%.12e"
                     for b in blocks for _ in range(b.shape[1]))
    table = np.hstack([b.astype(object) for b in blocks])  # Python ints and floats
    body = ((line + "\n") * len(table)) % tuple(table.ravel())
    _write_text(path, f"{header}\n{body}")
    return len(table)


# ---------------------------------------------------------------------------
# experiment engines


def _coupled_trajectory(cfg: RunConfig, n_steps: int):
    """(n, state) of the configured coupled run for n = 0..n_steps."""
    state0 = initial_product_state(cfg.spin, *cfg.angles())
    return trajectory(state0, *coupled_propagator(cfg.spin, *cfg.kick_pair(), cfg.eps), n_steps)


def _single_trajectory(cfg: RunConfig, n_steps: int):
    """(n, state) of the configured single-top run for n = 0..n_steps."""
    v0 = coherent_amplitudes(cfg.spin, cfg.theta0, cfg.phi0)
    return single_top_evolve(v0, *build_single_propagator(TopParams(cfg.spin, cfg.k)), n_steps)


def entropy_series(cfg: RunConfig) -> dict:
    """Coupled run: per recorded step S_V, S_R, occupancy and gamma of rho_1."""
    n_dim = cfg.spin.dim
    rec = {"n": [], "s_v": [], "s_r": [], "delta_n_eff": [], "gamma": []}
    for n, st in _coupled_trajectory(cfg, cfg.steps):
        if not cfg.records(n):
            continue
        rho = reduce(st)
        s_v, s_r = entropies(schmidt(rho))
        dn = delta_n_eff(m2_rdm(rho), n_dim)
        rec["n"].append(n)
        rec["s_v"].append(s_v)
        rec["s_r"].append(s_r)
        rec["delta_n_eff"].append(dn)
        rec["gamma"].append(gamma_factor(s_v, dn, n_dim))
    return {key: np.asarray(val) for key, val in rec.items()}


def single_top_series(cfg: RunConfig) -> dict:
    """Single-top run: per recorded step the pure-state M2 and occupancy."""
    rec = {"n": [], "m2": [], "delta_n_eff": []}
    for n, v in _single_trajectory(cfg, cfg.steps):
        if not cfg.records(n):
            continue
        m2 = m2_pure(v)
        rec["n"].append(n)
        rec["m2"].append(m2)
        rec["delta_n_eff"].append(delta_n_eff(m2, cfg.spin.dim))
    return {key: np.asarray(val) for key, val in rec.items()}


def rmt_compare_series(cfg: RunConfig, eps: float) -> dict:
    """Measured S_R averaged over a lattice of initial coherent products,
    next to both analytic evaluation routes."""
    spin = cfg.spin
    d, phases = coupled_propagator(spin, *cfg.kick_pair(), eps)
    g = cfg.ic_grid
    thetas = (np.arange(g) + 0.5) * math.pi / g
    phis = -math.pi + (np.arange(g) + 0.5) * 2.0 * math.pi / g
    acc = np.zeros(cfg.steps)

    for th in thetas:
        for ph in phis:
            state0 = initial_product_state(spin, th, ph, th, ph)
            for n, a in trajectory(state0, d, phases, cfg.steps):
                if n == 0:
                    continue
                rho = a @ a.conj().T
                acc[n - 1] += 1.0 - float((np.abs(rho) ** 2).sum())
    acc /= g * g
    n_arr = np.arange(1, cfg.steps + 1)
    return {
        "n": n_arr,
        "sr_measured": acc,
        "sr_exact_sum": sr_analytic(n_arr, spin, eps, "exact-sum"),
        "sr_closed_form": sr_analytic(n_arr, spin, eps, "closed-form"),
    }


def stats_components(cfg: RunConfig) -> np.ndarray:
    """Pooled complex components for the statistics experiment.

    Mode 'state': the time-evolved single-top state at each snapshot step.
    Mode 'rdm': eigenvectors of the subsystem-1 RDM of the coupled run at
    each snapshot ('all' pools every eigenvector, 'top' the upper half of
    the spectrum).
    """
    snaps = set(cfg.snapshot_steps())
    pool = []
    if cfg.stats_mode == "state":
        for n, v in _single_trajectory(cfg, max(snaps)):
            if n in snaps:
                pool.append(v.copy())
    else:
        for n, st in _coupled_trajectory(cfg, max(snaps)):
            if n not in snaps:
                continue
            spec = schmidt(reduce(st), vectors=True)
            cols = spec.eigenvectors.shape[1]
            take = cols if cfg.pool == "all" else max(1, cols // 2)
            for col in range(take):
                pool.append(spec.eigenvectors[:, col].copy())
    return np.concatenate(pool)


# ---------------------------------------------------------------------------
# subcommand runners


def _run_evolve(cfg: RunConfig, outdir: Path) -> dict:
    series = entropy_series(cfg)
    count = _write_table(outdir / "evolve_entropy.tsv",
                         "# n\tS_V\tS_R\tdelta_n_eff\tgamma",
                         series["n"], series["s_v"], series["s_r"],
                         series["delta_n_eff"], series["gamma"])
    return {"evolve_entropy.tsv": count}


def _run_portrait(cfg: RunConfig, outdir: Path) -> dict:
    g = cfg.portrait_grid
    cos_thetas = -1.0 + (np.arange(g) + 0.5) * 2.0 / g
    phis = -math.pi + (np.arange(g) + 0.5) * 2.0 * math.pi / g
    ct, ph = np.meshgrid(cos_thetas, phis, indexing="ij")
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    ics = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=-1).reshape(-1, 3)
    orbits = phase_portrait(cfg.k, ics, cfg.portrait_iters)
    # orbit points are (cos_theta, phi); the file puts phi first
    count = _write_table(outdir / "portrait_points.tsv", "# phi\tcos_theta",
                         orbits.reshape(-1, 2)[:, ::-1])
    return {"portrait_points.tsv": count}


def _run_husimi(cfg: RunConfig, outdir: Path) -> dict:
    grid = SphericalGrid.build(cfg.spin, cfg.n_theta, cfg.n_phi)
    snaps = set(cfg.snapshot_steps())
    files = {}
    for n, st in _coupled_trajectory(cfg, max(snaps)):
        if n not in snaps:
            continue
        name = f"husimi_n{n:05d}.tsv"
        header = (
            f"# husimi j={cfg.j} step={n} n_theta={cfg.n_theta} "
            f"n_phi={cfg.n_phi} rows=theta cols=phi"
        )
        # no name holds the field, so it is freed once written instead of
        # being held while the next one is computed: one field sets peak RSS
        files[name] = _write_table(outdir / name, header,
                                   husimi_field(reduce(st), grid).values)
    return files


def _run_deltaneff(cfg: RunConfig, outdir: Path) -> dict:
    series = single_top_series(cfg)
    count = _write_table(outdir / "deltaneff_single.tsv", "# n\tm2_pure\tdelta_n_eff",
                         series["n"], series["m2"], series["delta_n_eff"])
    return {"deltaneff_single.tsv": count}


def _run_rmt_compare(cfg: RunConfig, outdir: Path) -> dict:
    # every eps is computed before the first file is written, so a numeric
    # range error at a later eps leaves no partial output
    computed = [(eps, rmt_compare_series(cfg, eps)) for eps in cfg.epsilons()]
    files = {}
    for eps, series in computed:
        name = _rmt_compare_file(eps)
        files[name] = _write_table(
            outdir / name, "# n\tsr_measured\tsr_exact_sum\tsr_closed_form",
            series["n"], series["sr_measured"],
            series["sr_exact_sum"], series["sr_closed_form"],
        )
    return files


def _run_stats(cfg: RunConfig, outdir: Path) -> dict:
    comps = stats_components(cfg)
    n_dim = cfg.spin.dim
    scaled = n_dim * np.abs(comps) ** 2
    files = {}
    files["stats_components.tsv"] = _write_table(
        outdir / "stats_components.tsv", "# re\tim\tn_abs2", comps.real, comps.imag, scaled
    )
    moments = [comps.real.mean(), comps.real.var(), comps.imag.mean(), comps.imag.var(),
               ks_exponential(scaled)]
    files["stats_summary.tsv"] = _write_table(
        outdir / "stats_summary.tsv",
        "# mean_re\tvar_re\tmean_im\tvar_im\tks_exponential\tn_samples",
        np.array([moments]), np.array([len(comps)]),
    )
    return files


_RUNNERS = {
    "evolve": _run_evolve,
    "portrait": _run_portrait,
    "husimi": _run_husimi,
    "deltaneff": _run_deltaneff,
    "rmt-compare": _run_rmt_compare,
    "stats": _run_stats,
}


def run(cfg: RunConfig) -> RunManifest:
    outdir = Path(cfg.out)
    start = time.perf_counter()
    files = _RUNNERS[cfg.kind](cfg, outdir)
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
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config")
        for key in _CONVERTERS:
            if key != "kind":  # the subcommand
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
    for key, raw in vars(args).items():
        if key in _CONVERTERS and raw is not None:
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
