"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 01-07 and 11 read the tables that `run` writes, as `ktops` does.
The ten 1000-step `evolve` runs of criteria 01-06 take most of the time; each
(j, k, eps) is run once and its table shared.  On a 2-core Intel Xeon VM
with one BLAS thread the module takes about 75 s.

Criterion 7's eps = 1e-2 leg is expected to fail: the closed form assumes
the uncoupled state is already random at n = 1, while coherent wavepackets
need an Ehrenfest time (a few kicks) to randomize, and during the steep rise
that lag is worth ~0.2 in S_R against the 0.08 bound.  The bound is asserted
as stated rather than loosened to hide the transient; from n >= 10 the same
curves agree within 0.075 and asymptotically within 0.013.
"""

import math

import numpy as np
import pytest

from ktops.classical import poisson_residual
from ktops.entangle import reduce, schmidt
from ktops.evolve import coupled_propagator, coupled_step, initial_product_state, trajectory
from ktops.husimi import SphericalGrid, husimi_field, m2_pure, m2_rdm
from ktops.rmt import predictions, sr_weak_rate
from ktops.spincore import SpinQuantum, coherent_amplitudes, wigner_d_half_pi
from ktops.cli import RunConfig, run

from test_classical import correct_map, random_state, wrong_coupled_map
from test_entangle import brute_force_partial_trace, subsystem_symmetry_check
from test_evolve import dense_coupled_step
from test_husimi import m2_quadrature
from test_spincore import wigner_entry_exact


def _report(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def read_table(path) -> np.ndarray:
    """A TSV that `run` wrote, as a structured array named by its header."""
    return np.genfromtxt(path, names=True)


@pytest.fixture(scope="module")
def evolve_table(tmp_path_factory):
    """evolve_table(j, k, eps): evolve_entropy.tsv of the 1000-step `evolve`
    run at (j, k, eps), made once per module and read back by column name."""
    tables = {}

    def table(j: int, k: float, eps: float) -> np.ndarray:
        if (j, k, eps) not in tables:
            out = tmp_path_factory.mktemp("evolve")
            run(RunConfig(kind="evolve", j=j, k=k, eps=eps, out=str(out)))
            tables[(j, k, eps)] = read_table(out / "evolve_entropy.tsv")
        return tables[(j, k, eps)]

    return table


def late_mean(table: np.ndarray, column: str, start_step: int) -> float:
    """Mean of one column of a per-step table over steps start_step..1000."""
    return float(table[column][table["n"] >= start_step].mean())


def test_criterion_01_chaotic_sv_saturation(evolve_table):
    mean_sv = late_mean(evolve_table(80, 6.0, 1e-2), "S_V", 500)
    target = math.log(161) - 0.5
    _report(
        "01 S_V saturation", abs(mean_sv - target) < 0.15,
        f"mean S_V(500..1000) = {mean_sv:.4f}, ln(161) - 1/2 = {target:.4f}, tol 0.15",
    )


def test_criterion_02_saturation_ordering(evolve_table):
    means = {k: late_mean(evolve_table(80, k, 1e-2), "S_V", 500) for k in (1.0, 2.0, 3.0, 6.0)}
    gaps = [means[2.0] - means[1.0], means[3.0] - means[2.0], means[6.0] - means[3.0]]
    late = ", ".join(f"{k:g}: {mean:.4f}" for k, mean in means.items())
    _report(
        "02 S_V ordering", all(g >= 0.1 for g in gaps),
        f"late means {late}, successive gaps {['%.3f' % g for g in gaps]} all >= 0.1",
    )


def test_criterion_03_weak_coupling_suppression(evolve_table):
    sv_regular = late_mean(evolve_table(80, 1.0, 1e-4), "S_V", 500)
    sv_chaotic = late_mean(evolve_table(80, 6.0, 1e-4), "S_V", 500)
    _report(
        "03 chaos suppresses weak-coupling entanglement", sv_regular > sv_chaotic,
        f"late S_V at eps = 1e-4: k=1 gives {sv_regular:.3f} > k=6 gives {sv_chaotic:.3f}",
    )


def test_criterion_04_single_top_occupancy(tmp_path):
    run(RunConfig(kind="deltaneff", j=80, k=6.0, steps=1000, out=str(tmp_path)))
    mean_dn = late_mean(read_table(tmp_path / "deltaneff_single.tsv"), "delta_n_eff", 200)
    identity = predictions(161).delta_n_eff_pure
    ok = 0.42 <= mean_dn <= 0.58 and identity == (161 + 1) / (2 * 161)
    _report(
        "04 single-top occupancy", ok,
        f"mean dN_eff(200..1000) = {mean_dn:.4f} in [0.42, 0.58]; "
        f"(N+1)/2N = {identity:.6f} exact",
    )


def test_criterion_05_coupled_occupancy(evolve_table):
    mean_dn = late_mean(evolve_table(80, 6.0, 1e-2), "delta_n_eff", 750)
    target = predictions(161).delta_n_eff_coupled
    _report(
        "05 coupled occupancy", 0.95 <= mean_dn <= 1.0,
        f"late dN_eff = {mean_dn:.5f} in [0.95, 1.0] (closed form {target:.5f})",
    )


def test_criterion_06_gamma_factor_windows(evolve_table):
    results = {}
    ok = True
    for k, lo, hi in ((1.0, 0.48, 0.58), (2.0, 0.36, 0.47)):
        for j in (40, 60, 80):
            g = late_mean(evolve_table(j, k, 1e-2), "gamma", 750)
            results[(k, j)] = g
            ok = ok and lo <= g <= hi
    detail = ", ".join(f"k={k} j={j}: {g:.3f}" for (k, j), g in results.items())
    _report("06 gamma factor", ok, detail + " (windows [0.48,0.58] / [0.36,0.47])")


def test_criterion_07_analytic_linear_entropy(tmp_path):
    eps_list = (1e-4, 1e-3, 1e-2)
    run(RunConfig(kind="rmt-compare", j=80, eps_list=eps_list, steps=100, out=str(tmp_path)))
    devs = {}
    for eps in eps_list:
        table = read_table(tmp_path / f"rmt_compare_eps{eps:g}.tsv")
        n, sr_measured, sr_closed_form = table["n"], table["sr_measured"], table["sr_closed_form"]
        devs[eps] = float(np.abs(sr_measured - sr_closed_form).max())
        if eps == 1e-4:
            slope = float(np.polyfit(n, sr_measured, 1)[0])
    rate = sr_weak_rate(SpinQuantum(160), 1e-4)
    slope_ok = abs(slope / rate - 1.0) < 0.25
    print(
        f"[criterion 07] slope leg {'PASS' if slope_ok else 'FAIL'} - "
        f"measured {slope:.3e} vs 2 eps^2 j^2 / 9 = {rate:.3e}"
    )
    for eps in (1e-4, 1e-3):
        print(
            f"[criterion 07] eps={eps:g} leg {'PASS' if devs[eps] < 0.08 else 'FAIL'} - "
            f"max |measured - closed| = {devs[eps]:.4f} < 0.08"
        )
    assert slope_ok
    assert devs[1e-4] < 0.08 and devs[1e-3] < 0.08
    # Known-red leg: during the eps = 1e-2 rise the coherent wavepackets lag
    # the already-random assumption of the formula by an Ehrenfest time
    # (~2 kicks), worth ~0.2 in S_R; the bound is asserted as stated anyway.
    _report(
        "07 analytic S_R, eps=1e-2 leg", devs[1e-2] < 0.08,
        f"max |measured - closed| over n <= 100 = {devs[1e-2]:.4f}, bound 0.08 "
        "(expected red: coherent-state randomization transient)",
    )


def test_criterion_08_oracle_equivalence():
    # m2 analytic vs quadrature, j <= 10
    rng = np.random.default_rng(0)
    worst_m2 = 0.0
    for two_j in (1, 4, 11, 20):
        spin = SpinQuantum(two_j)
        grid = SphericalGrid.build(spin, 400, 800)
        v = rng.normal(size=spin.dim) + 1j * rng.normal(size=spin.dim)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        worst_m2 = max(worst_m2, abs(m2_quadrature(husimi_field(rho, grid), grid) - m2_pure(v)))
        a = rng.normal(size=(spin.dim, spin.dim)) + 1j * rng.normal(size=(spin.dim, spin.dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        worst_m2 = max(worst_m2, abs(m2_quadrature(husimi_field(rho, grid), grid) - m2_rdm(rho)))

    # coupled step vs dense operator, j <= 3
    worst_step = 0.0
    for two_j in (2, 4, 6):
        spin = SpinQuantum(two_j)
        state = initial_product_state(spin, 0.89, 0.63, 1.2, -2.0)
        stepped = coupled_step(state, *coupled_propagator(spin, 1.3, 2.7, 0.23))
        ref = dense_coupled_step(state, spin, 1.3, 2.7, 0.23)
        worst_step = max(worst_step, np.abs(stepped - ref).max())

    # Wigner d(pi/2) vs the direct finite sum, j <= 20
    worst_wigner = 0.0
    for two_j in (1, 7, 24, 40):
        d = wigner_d_half_pi(SpinQuantum(two_j))
        n = two_j + 1
        ref = np.array(
            [[wigner_entry_exact(two_j, si, mi) for mi in range(n)] for si in range(n)]
        )
        worst_wigner = max(worst_wigner, np.abs(d - ref).max())

    # partial trace vs brute force, j <= 2
    worst_trace = 0.0
    for two_j in (1, 2, 4):
        spin = SpinQuantum(two_j)
        n = spin.dim
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a /= np.linalg.norm(a)
        ref = brute_force_partial_trace(a, 1)
        worst_trace = max(worst_trace, np.abs(reduce(a).entries - ref).max())

    ok = (
        worst_m2 < 1e-4 and worst_step < 1e-12
        and worst_wigner < 1e-10 and worst_trace < 1e-13
    )
    _report(
        "08 oracle equivalence", ok,
        f"m2 vs quadrature {worst_m2:.2e} < 1e-4; step vs dense {worst_step:.2e} < 1e-12; "
        f"wigner vs direct {worst_wigner:.2e} < 1e-10; trace vs brute {worst_trace:.2e} < 1e-13",
    )


def test_criterion_09_canonicity_suite():
    rng = np.random.default_rng(1)
    states = [random_state(rng) for _ in range(100)]
    worst = 0.0
    for k in (1.0, 2.0, 3.0, 6.0):
        for eps in (1e-2, 1e-3, 1e-4):
            fn = correct_map(k, k, eps)
            for s in states:
                worst = max(worst, poisson_residual(fn, s))
    bad_fn = wrong_coupled_map(6.0, 6.0, 0.1)
    control = max(poisson_residual(bad_fn, s) for s in states[:25])
    ok = worst < 1e-6 and control > 1e-3
    _report(
        "09 canonicity", ok,
        f"correct map worst residual {worst:.2e} < 1e-6 over 100 states x 12 (k, eps); "
        f"flawed-map control {control:.2e} > 1e-3",
    )


def test_criterion_10_invariant_suite():
    # unitarity drift over 1e4 coupled steps at j = 80; over steps 1..1000
    # the RDM trace error and eigenvalue clip, and every 50th step the S_V
    # asymmetry of the two subsystems
    spin = SpinQuantum(160)
    state0 = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
    trace_err = clip = sv_asym = 0.0
    for n, state in trajectory(state0, *coupled_propagator(spin, 6.0, 6.0, 1e-2), 10**4):
        if 1 <= n <= 1000:
            rho = reduce(state)
            trace_err = max(trace_err, abs(np.trace(rho.entries).real - 1.0))
            clip = max(clip, schmidt(rho).clip_magnitude)
            if n % 50 == 0:
                sv_asym = max(sv_asym, subsystem_symmetry_check(state))
    drift = abs(np.linalg.norm(state) - 1.0)

    worst_m2 = 0.0
    for j in (0.5, 1, 5, 80):
        spin_j = SpinQuantum.from_j(j)
        v = coherent_amplitudes(spin_j, 0.89, 0.63)
        expect = spin_j.dim / (2 * spin_j.two_j + 1)
        worst_m2 = max(worst_m2, abs(m2_pure(v) - expect))

    ok = (
        drift < 1e-9 and trace_err < 1e-10 and sv_asym < 1e-8
        and clip < 1e-10 and worst_m2 < 1e-10
    )
    _report(
        "10 invariants", ok,
        f"norm drift {drift:.2e} < 1e-9 over 1e4 steps; max |Tr rho - 1| {trace_err:.2e} < 1e-10; "
        f"S_V asymmetry {sv_asym:.2e} < 1e-8; eigenvalue clips {clip:.2e} < 1e-10; "
        f"coherent M2 defect {worst_m2:.2e} < 1e-10 for j in {{1/2, 1, 5, 80}}",
    )


def test_criterion_11_gue_statistics(tmp_path):
    threshold = 1.36 / math.sqrt(161)
    # the late-time chaotic single-top state, and the pooled eigenvector
    # components of the saturated RDM
    ks = {}
    for kind, step in (("stats", 500), ("stats-rdm", 1000)):
        out = tmp_path / kind
        run(RunConfig(kind=kind, j=80, k=6.0, snapshots=(step,), out=str(out)))
        ks[kind] = float(read_table(out / "stats_summary.tsv")["ks_exponential"])
    ks_state, ks_rdm = ks["stats"], ks["stats-rdm"]

    ok = ks_state < threshold and ks_rdm < threshold
    _report(
        "11 GUE statistics", ok,
        f"KS(single top, n=500) = {ks_state:.4f}, KS(pooled RDM eigenvectors) = "
        f"{ks_rdm:.4f}, threshold 1.36/sqrt(161) = {threshold:.4f}",
    )
