"""The four benchmark workloads: the CLI call each makes, the inputs drawn
from the seed, and the checks of its output files against oracle.py.

An operation is one data row or one Husimi snapshot the workload expects.
check() returns one message per operation that failed: missing (the message
starts with MISSING), non-finite, or outside a check's tolerance.  Outputs
are deterministic for one set of inputs, so the references are computed once
per benchmark run in prepare() and every round's files are checked against
them.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import oracle

J = 80  # the standard spin of the paper, N = 161
N = 2 * J + 1
# Tolerances.  The TSVs carry 13 significant digits (format .12e); the
# references agree with the program to ~1e-14 before that rounding.
TOL_ROUND = 1e-12  # inequalities and closed forms between written values
TOL_ENTROPY = 1e-9  # S_R, S_V against the re-evolved state
TOL_REL = 1e-9  # occupancy and gamma, relative
TOL_Q = 1e-11  # Husimi values against a closed form or the re-evolved state
CRITERION_07 = 0.08  # |measured - closed form| for eps <= 1e-3
MISSING = "missing"


def read_tsv(path: Path) -> np.ndarray:
    """Data rows of a one-header-line TSV as a 2-d float array; empty when
    the file is missing or its rows are ragged, so every row counts as missing."""
    try:
        body = path.read_text(encoding="utf-8").partition("\n")[2]
        return np.array(body.split(), dtype=float).reshape(len(body.splitlines()), -1)
    except (OSError, ValueError):
        return np.empty((0, 0))


def draw_angles(seed: int) -> tuple:
    """(theta1, phi1, theta2, phi2), away from the poles."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.3, math.pi - 0.3, size=2)
    phi = rng.uniform(-math.pi, math.pi, size=2)
    return (float(theta[0]), float(phi[0]), float(theta[1]), float(phi[1]))


def product_state(angles) -> np.ndarray:
    t1, p1, t2, p2 = angles
    return np.outer(oracle.rotated_top(J, t1, p1), oracle.rotated_top(J, t2, p2))


class Workload:
    name = ""
    unit = ""  # what work_per_s counts

    def cli_args(self, outdir: Path) -> list:
        """Subcommand and flags; writes the --config file into outdir."""
        raise NotImplementedError

    def write_config(self, outdir: Path, **keys) -> str:
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / "bench.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
        return str(path)


class EvolveObservables(Workload):
    """`ktops evolve` observed at every step: the partial trace, Schmidt
    spectrum, m2_rdm and occupancy outweigh the Floquet step."""

    name = "evolve-observables"
    unit = "observed Floquet step"
    steps = 100
    k = 6.0
    eps = 1e-2

    def __init__(self, seed: int):
        self.angles = draw_angles(seed)
        self.units = self.steps
        self.expected_ops = self.steps  # one row per step at stride 1

    def cli_args(self, outdir):
        t1, p1, t2, p2 = self.angles
        cfg = self.write_config(outdir, theta0_2=repr(t2), phi0_2=repr(p2))
        return ["evolve", "--j", str(J), "--k", repr(self.k), "--eps", repr(self.eps),
                "--stride", "1", "--steps", str(self.steps),
                "--theta0", repr(t1), "--phi0", repr(p1), "--config", cfg]

    def prepare(self):
        sv_rows = {1, self.steps // 4, self.steps // 2, 3 * self.steps // 4, self.steps}
        self.ref_sr = {}
        self.ref_sv = {}
        for n, psi in oracle.evolve(J, self.k, self.k, self.eps, product_state(self.angles),
                                    self.steps):
            self.ref_sr[n] = float(oracle.linear_entropy(psi))
            if n in sv_rows:
                self.ref_sv[n] = oracle.von_neumann(psi)
        self.ref_dn = 1.0 / (N * oracle.husimi_m2(oracle.reduced(psi), J))

    def check(self, outdir):
        data = read_tsv(outdir / "evolve_entropy.tsv")
        rows = {int(r[0]): r[1:] for r in data} if data.size else {}
        bad = []
        for n in range(1, self.steps + 1):
            if n not in rows:
                bad.append(f"{MISSING} row n={n}")
                continue
            s_v, s_r, dn, gamma = rows[n]
            why = self.row_fault(n, s_v, s_r, dn, gamma)
            if why:
                bad.append(f"row n={n}: {why}")
        return bad

    def row_fault(self, n, s_v, s_r, dn, gamma):
        if not all(map(math.isfinite, (s_v, s_r, dn, gamma))):
            return "non-finite value"
        t = TOL_ROUND
        if not -t <= s_r <= 1 - 1 / N + t:
            return f"S_R={s_r} outside [0, 1 - 1/N]"
        if not -t <= s_v <= math.log(N) + t:
            return f"S_V={s_v} outside [0, ln N]"
        if not 0 < dn <= 1 + t:
            return f"delta_n_eff={dn} outside (0, 1]"
        if s_v < -math.log1p(-s_r) - t:
            return f"S_V={s_v} below the Renyi-2 entropy {-math.log1p(-s_r)}"
        if abs(gamma * N * dn / math.exp(s_v) - 1) > TOL_REL:
            return f"gamma={gamma} != exp(S_V)/(N delta_n_eff)"
        if abs(s_r - self.ref_sr[n]) > TOL_ENTROPY:
            return f"S_R={s_r}, re-evolved {self.ref_sr[n]}"
        if n in self.ref_sv and abs(s_v - self.ref_sv[n]) > TOL_ENTROPY:
            return f"S_V={s_v}, re-evolved {self.ref_sv[n]}"
        if n == self.steps and abs(dn / self.ref_dn - 1) > TOL_REL:
            return f"delta_n_eff={dn}, exact quadrature {self.ref_dn}"
        return ""


class RmtDynamics(Workload):
    """`ktops rmt-compare`: coupled_step and the Frobenius purity over an IC
    lattice x 3 eps, with no eigensolver and no M2."""

    name = "rmt-dynamics"
    unit = "trajectory step (one IC at one eps)"
    steps = 20
    ic_grid = 4
    k1, k2 = 6.0, 6.1
    nominal = (1e-4, 1e-3, 1e-2)

    def __init__(self, seed: int):
        # rmt-compare fixes its IC lattice; the seed moves each eps within
        # +-0.05 decades of its nominal value instead
        rng = np.random.default_rng(seed)
        shift = rng.uniform(-0.05, 0.05, size=len(self.nominal))
        self.eps = tuple(float(f"{e * 10**s:.3g}") for e, s in zip(self.nominal, shift))
        self.units = self.ic_grid**2 * len(self.eps) * self.steps
        self.expected_ops = len(self.eps) * self.steps

    def cli_args(self, outdir):
        cfg = self.write_config(outdir, ic_grid=self.ic_grid,
                                eps_list=",".join(repr(e) for e in self.eps))
        return ["rmt-compare", "--j", str(J), "--k1", repr(self.k1), "--k2", repr(self.k2),
                "--steps", str(self.steps), "--config", cfg]

    def prepare(self):
        g = self.ic_grid
        thetas = (np.arange(g) + 0.5) * math.pi / g
        phis = -math.pi + (np.arange(g) + 0.5) * 2.0 * math.pi / g
        psi0 = np.stack([product_state((t, p, t, p)) for t in thetas for p in phis])
        self.ref_law = {}
        self.ref_measured = {}
        for eps in self.eps:
            self.ref_law[eps] = oracle.sr_law(J, eps, self.steps)
            self.ref_measured[eps] = np.array([
                oracle.linear_entropy(psi).mean()
                for _, psi in oracle.evolve(J, self.k1, self.k2, eps, psi0, self.steps)
            ])

    def check(self, outdir):
        bad = []
        for nominal, eps in zip(self.nominal, self.eps):
            data = read_tsv(outdir / f"rmt_compare_eps{eps:g}.tsv")
            rows = {int(r[0]): r[1:] for r in data} if data.size else {}
            for n in range(1, self.steps + 1):
                if n not in rows:
                    bad.append(f"{MISSING} eps={eps:g} row n={n}")
                    continue
                why = self.row_fault(nominal, eps, n, *rows[n])
                if why:
                    bad.append(f"eps={eps:g} row n={n}: {why}")
        return bad

    def row_fault(self, nominal, eps, n, measured, exact_sum, closed_form):
        if not all(map(math.isfinite, (measured, exact_sum, closed_form))):
            return "non-finite value"
        if not -TOL_ROUND <= measured <= 1 - 1 / N + TOL_ROUND:
            return f"sr_measured={measured} outside [0, 1 - 1/N]"
        if abs(measured - self.ref_measured[eps][n - 1]) > TOL_ENTROPY:
            return f"sr_measured={measured}, re-evolved {self.ref_measured[eps][n - 1]}"
        if abs(exact_sum - self.ref_law[eps][n - 1]) > TOL_ENTROPY:
            return f"sr_exact_sum={exact_sum}, unfolded sums {self.ref_law[eps][n - 1]}"
        if nominal <= 1e-3 and abs(measured - closed_form) > CRITERION_07:
            return f"|sr_measured - sr_closed_form| = {abs(measured - closed_form)} > 0.08"
        return ""


class HusimiGrid(Workload):
    """`ktops husimi`: coherent amplitudes and <z|rho|z> on 200 x 400 nodes,
    and 160 000 values formatted into TSVs."""

    name = "husimi-grid"
    unit = "Husimi grid node"
    steps = 10
    n_theta, n_phi = 200, 400
    k = 6.0
    eps = 1e-2

    def __init__(self, seed: int):
        self.angles = draw_angles(seed)
        self.snapshots = (0, self.steps)
        self.units = len(self.snapshots) * self.n_theta * self.n_phi
        self.expected_ops = len(self.snapshots)
        d_theta = math.pi / self.n_theta
        d_phi = 2.0 * math.pi / self.n_phi
        self.thetas = (np.arange(self.n_theta) + 0.5) * d_theta
        self.phis = -math.pi + (np.arange(self.n_phi) + 0.5) * d_phi
        self.weights = N / (4 * math.pi) * np.sin(self.thetas)[:, None] * d_theta * d_phi
        # leading Euler-Maclaurin term of the midpoint rule in theta, with Q <= 1
        # at the poles; phi is periodic and band-limited, so exact
        self.tol_norm = N * d_theta**2 / 24

    def cli_args(self, outdir):
        t1, p1, t2, p2 = self.angles
        cfg = self.write_config(outdir, theta0_2=repr(t2), phi0_2=repr(p2),
                                n_theta=self.n_theta, n_phi=self.n_phi)
        return ["husimi", "--j", str(J), "--k", repr(self.k), "--eps", repr(self.eps),
                "--steps", str(self.steps), "--snapshots", ",".join(map(str, self.snapshots)),
                "--theta0", repr(t1), "--phi0", repr(p1), "--config", cfg]

    def prepare(self):
        t1, p1 = self.angles[:2]
        th, ph = np.meshgrid(self.thetas, self.phis, indexing="ij")
        cos_angle = np.cos(th) * math.cos(t1) + np.sin(th) * math.sin(t1) * np.cos(ph - p1)
        self.ref = {0: ((1 + cos_angle) / 2) ** (2 * J)}  # cos^(4j) of half the angle
        *_, (_, psi) = oracle.evolve(J, self.k, self.k, self.eps,
                                     product_state(self.angles), self.steps)
        self.ref[self.steps] = oracle.husimi(oracle.reduced(psi), J, self.thetas, self.phis)

    def check(self, outdir):
        bad = []
        for step in self.snapshots:
            q = read_tsv(outdir / f"husimi_n{step:05d}.tsv")
            if q.shape != (self.n_theta, self.n_phi):
                bad.append(f"{MISSING} snapshot {step}: grid shape {q.shape}")
                continue
            why = self.snapshot_fault(step, q)
            if why:
                bad.append(f"snapshot {step}: {why}")
        return bad

    def snapshot_fault(self, step, q):
        if not np.isfinite(q).all():
            return "non-finite value"
        if q.min() < 0 or q.max() > 1 + TOL_ROUND:
            return f"Q outside [0, 1]: min {q.min()}, max {q.max()}"
        norm = float((self.weights * q).sum())
        if abs(norm - 1) > self.tol_norm:
            return f"weighted sum {norm}, 1 within {self.tol_norm:.2e}"
        dev = float(np.abs(q - self.ref[step]).max())
        if dev > TOL_Q:
            return f"max |Q - reference| = {dev:.2e}"
        return ""


class PortraitClassical(Workload):
    """`ktops portrait`: the pure-Python classical map over an IC lattice,
    the most TSV rows, and no linear algebra."""

    name = "portrait-classical"
    unit = "classical map iteration"
    grid = 20
    iters = 500

    def __init__(self, seed: int):
        # portrait fixes its IC lattice; the seed moves k within 6 +- 0.05
        rng = np.random.default_rng(seed)
        self.k = float(f"{6.0 + rng.uniform(-0.05, 0.05):.6f}")
        self.units = self.grid**2 * self.iters
        self.expected_ops = self.grid**2 * (self.iters + 1)

    def cli_args(self, outdir):
        cfg = self.write_config(outdir, portrait_grid=self.grid, portrait_iters=self.iters)
        return ["portrait", "--k", repr(self.k), "--config", cfg]

    def prepare(self):
        g = self.grid
        cos_thetas = -1.0 + (np.arange(g) + 0.5) * 2.0 / g
        phis = -math.pi + (np.arange(g) + 0.5) * 2.0 * math.pi / g
        self.starts = np.stack(np.meshgrid(phis, cos_thetas), axis=-1).reshape(-1, 2)

    def check(self, outdir):
        data = read_tsv(outdir / "portrait_points.tsv")
        if data.shape != (self.expected_ops, 2):
            return [f"{MISSING} rows: {self.expected_ops} expected, shape {data.shape}"] * self.expected_ops
        orbits = data.reshape(self.grid**2, self.iters + 1, 2)
        phi, c = orbits[..., 0], orbits[..., 1]
        ok = np.isfinite(orbits).all(axis=-1) & (np.abs(c) <= 1.0)
        ok[:, 0] &= np.abs(orbits[:, 0] - self.starts).max(axis=-1) <= TOL_ROUND
        # one map step from each row must land on the next row of its orbit:
        # X' = Z cos(kX) + Y sin(kX), Y' = -Z sin(kX) + Y cos(kX), Z' = -X
        s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
        x, y, z = s * np.cos(phi), s * np.sin(phi), c
        kx = self.k * x[:, :-1]
        mapped = np.stack([z[:, :-1] * np.cos(kx) + y[:, :-1] * np.sin(kx),
                           -z[:, :-1] * np.sin(kx) + y[:, :-1] * np.cos(kx),
                           -x[:, :-1]])
        step_err = np.abs(mapped - np.stack([x, y, z])[:, :, 1:]).max(axis=0)
        # 13-digit rounding of (cos theta, phi) is amplified by 1/sin(theta)
        tol = 1e-10 * (1.0 + 1.0 / np.maximum(s[:, :-1], 1e-12))
        ok[:, 1:] &= step_err <= tol
        bad_rows = np.argwhere(~ok)
        return [f"orbit {o} row {i}: {tuple(orbits[o, i])} fails a map check"
                for o, i in bad_rows]


WORKLOADS = {w.name: w for w in (EvolveObservables, RmtDynamics, HusimiGrid, PortraitClassical)}
