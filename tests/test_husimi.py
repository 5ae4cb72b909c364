import math
from fractions import Fraction

import numpy as np
import pytest

from ktops.entangle import ReducedDensityMatrix, reduce
from ktops.evolve import (
    TopParams,
    build_single_propagator,
    coupled_propagator,
    initial_product_state,
    single_top_evolve,
    trajectory,
)
from ktops.husimi import (
    HusimiField,
    SphericalGrid,
    _m2_weights,
    delta_n_eff,
    gamma_factor,
    husimi_field,
    m2_pure,
    m2_rdm,
)
from ktops.spincore import SpinQuantum, coherent_amplitude_block, coherent_amplitudes


def random_vector(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def magnetic_index(two_j: int, q: float) -> int:
    """Array index q + j of a magnetic number, validated against spin j."""
    two_q = round(2.0 * q)
    if abs(two_q - 2.0 * q) > 1e-9 or abs(two_q) > two_j or (two_q - two_j) % 2 != 0:
        raise ValueError(f"magnetic index {q} invalid for j = {two_j / 2}")
    return (two_q + two_j) // 2


def f_weight(spin: SpinQuantum, i: float, k: float, l: float, m: float) -> float:
    """F(2j; i, k, l, m) straight from its definition with math.lgamma,
    independent of the module's weights; the selection rule i + l = k + m is
    the caller's."""
    tj = spin.two_j
    for q in (i, k, l, m):
        magnetic_index(tj, q)
    j = spin.j

    def ln_binom(q):  # ln C(2j, j - q)
        return math.lgamma(tj + 1) - math.lgamma(j - q + 1) - math.lgamma(j + q + 1)

    s = i + l
    ln_f = (
        math.log(tj + 1) - math.lgamma(2 * tj + 2)
        + 0.5 * (ln_binom(i) + ln_binom(k) + ln_binom(l) + ln_binom(m))
        + math.lgamma(tj - s + 1) + math.lgamma(tj + s + 1)
    )
    return math.exp(ln_f)


def f_table(spin: SpinQuantum, i: float, k: float, l: float, m: float) -> float:
    """F(2j; i, k, l, m) assembled from _m2_weights, the weights under test."""
    sqrt_binom, w = _m2_weights(spin.dim)
    ii, kk, ll, mm = (magnetic_index(spin.two_j, q) for q in (i, k, l, m))
    # pairwise grouping keeps the (i,k) <-> (l,m) exchange exact in floats
    pairs = (sqrt_binom[ii] * sqrt_binom[kk]) * (sqrt_binom[ll] * sqrt_binom[mm])
    return float(pairs * w[ii + ll])


def husimi_field_nodes(op, grid: SphericalGrid, chunk: int = 4096) -> HusimiField:
    """<z|rho|z> node by node: one coherent vector per grid node, in chunks.
    The oracle for husimi_field; a 1-d vector is evaluated as |<z|v>|^2."""
    if isinstance(op, ReducedDensityMatrix):
        mat, vec = op.entries, None
    else:
        arr = np.asarray(op)
        vec, mat = (arr.astype(complex), None) if arr.ndim == 1 else (None, arr)
    n_theta, n_phi = len(grid.thetas), len(grid.phis)
    th = np.repeat(grid.thetas, n_phi)
    ph = np.tile(grid.phis, n_theta)
    values = np.empty(n_theta * n_phi)
    for start in range(0, len(values), chunk):
        stop = min(start + chunk, len(values))
        block = coherent_amplitude_block(grid.spin, th[start:stop], ph[start:stop])
        if vec is not None:
            amp = block.conj() @ vec
            values[start:stop] = amp.real**2 + amp.imag**2
        else:
            t = block.conj() @ mat
            values[start:stop] = np.einsum("ni,ni->n", t, block).real
    clip = float(max(0.0, -values.min()))
    return HusimiField(values=np.maximum(values, 0.0).reshape(n_theta, n_phi), clip_magnitude=clip)


def m2_rdm_loop(entries: np.ndarray) -> complex:
    """M2 of a density matrix as one correlation per diagonal sum a:
    sum_a w_a sum_{i,k} B_{ik} B_{a-i,a-k}, slice by slice (2N - 1 slices).
    The oracle for m2_rdm; returns the complex total, residue included."""
    n = entries.shape[0]
    sqrt_binom, w = _m2_weights(n)
    total = 0.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        b = entries * np.outer(sqrt_binom, sqrt_binom)
        for a in range(2 * n - 1):
            lo = max(0, a - (n - 1))
            hi = min(n - 1, a)
            sub = b[lo : hi + 1, lo : hi + 1]
            mirrored = b[a - hi : a - lo + 1, a - hi : a - lo + 1][::-1, ::-1]
            total += w[a] * (sub * mirrored).sum()
    return total


def haar_weights(grid: SphericalGrid) -> np.ndarray:
    """Per-node weights N/(4 pi) sin(theta) dtheta dphi of the midpoint grid,
    shape (n_theta, n_phi); they sum to N up to O(dtheta^2)."""
    d_theta, d_phi = math.pi / len(grid.thetas), 2.0 * math.pi / len(grid.phis)
    w_theta = grid.spin.dim / (4.0 * math.pi) * np.sin(grid.thetas) * d_theta * d_phi
    return np.repeat(w_theta.reshape(-1, 1), len(grid.phis), axis=1)


def m2_quadrature(field: HusimiField, grid: SphericalGrid) -> float:
    """Grid estimate of the Husimi second moment of a field on the grid: the
    midpoint oracle for the analytic sums at small j."""
    return float((haar_weights(grid) * field.values**2).sum())


def m2_gauss_legendre(rho: np.ndarray) -> float:
    """M2 = N/(4 pi) * integral of Q^2 over the sphere, exact at any j.

    Q(theta, phi) = sum_d c_d(theta) e^{-i d phi} with
    c_d = sum_m r_m r_{m+d} rho[m, m+d], so Parseval turns the phi integral
    into 2 pi sum_d |c_d|^2, a polynomial of degree 4j in cos(theta) that
    2j + 1 Gauss-Legendre nodes integrate exactly: M2 = (N/2) sum_g w_g
    sum_d |c_d(theta_g)|^2.  The real amplitudes
    r_m = sqrt(C(2j, j+m)) cos^(j+m)(theta/2) sin^(j-m)(theta/2) are built
    here from math.lgamma, so nothing is shared with the module's M2 weights
    or its coherent states.
    """
    n = rho.shape[0]
    x, wx = np.polynomial.legendre.leggauss(n)
    k = np.arange(n)  # j + m
    ln_binom = np.array([math.lgamma(n) - math.lgamma(i + 1) - math.lgamma(n - i) for i in k])
    # cos^2(theta/2) = (1 + x)/2 and sin^2(theta/2) = (1 - x)/2
    ln_cos2, ln_sin2 = np.log1p(x) - math.log(2.0), np.log1p(-x) - math.log(2.0)
    r = np.exp(0.5 * (ln_binom + np.outer(ln_cos2, k) + np.outer(ln_sin2, n - 1 - k)))
    total = np.zeros(n)
    for dk in range(1 - n, n):
        lo, hi = max(0, -dk), min(n, n - dk)
        c = (r[:, lo:hi] * r[:, lo + dk : hi + dk]) @ np.diagonal(rho, dk)
        total += c.real**2 + c.imag**2
    return float(n / 2 * (wx @ total))


def evolved_rdm(spin: SpinQuantum, steps: int):
    state0 = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
    for _, state in trajectory(state0, *coupled_propagator(spin, 6.0, 6.0, 1e-2), steps):
        pass
    return reduce(state)


def evolved_vector(spin: SpinQuantum, steps: int) -> np.ndarray:
    v0 = coherent_amplitudes(spin, 0.89, 0.63)
    *_, (_, v) = single_top_evolve(v0, *build_single_propagator(TopParams(spin, 6.0)), steps)
    return v


class TestFWeight:
    # f_weight is the lgamma oracle, f_table the module's weights under test
    def test_half_spin_value(self):
        # 2/3! * 1 * 0! * 2! = 2/3, cross-checked by the coherent-state moment
        for f in (f_weight, f_table):
            assert f(SpinQuantum(1), 0.5, 0.5, 0.5, 0.5) == pytest.approx(2 / 3, abs=1e-14)

    def test_spin_one_center(self):
        # 3/5! * sqrt(2^4) * 2! * 2! = 0.4
        for f in (f_weight, f_table):
            assert f(SpinQuantum(2), 0, 0, 0, 0) == pytest.approx(0.4, abs=1e-14)

    def test_pair_exchange_symmetry(self):
        spin = SpinQuantum(8)
        for i, k, l, m in [(1, 2, -1, 0), (4, -4, 0, 0), (3, 1, -2, 0)]:
            assert f_table(spin, i, k, l, m) == f_table(spin, l, m, i, k)

    def test_positive_on_constrained_tuples(self):
        spin = SpinQuantum(5)
        ms = spin.m_values()
        for i in ms:
            for k in ms:
                for l in ms:
                    m = i + l - k
                    if -spin.j <= m <= spin.j:
                        assert f_table(spin, i, k, l, m) > 0.0

    @pytest.mark.parametrize("two_j", [0, 1, 2, 5, 8, 13])
    def test_matches_lgamma_oracle(self, two_j):
        # every tuple under the selection rule, half-integer j included
        spin = SpinQuantum(two_j)
        ms = spin.m_values()
        for i in ms:
            for k in ms:
                for l in ms:
                    m = i + l - k
                    if -spin.j <= m <= spin.j:
                        want = f_weight(spin, i, k, l, m)
                        assert f_table(spin, i, k, l, m) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("two_j", [40, 81, 160])
    def test_matches_lgamma_oracle_sampled(self, two_j):
        # the oracle exponentiates log sums of size ~ j ln j; against a
        # 40-digit evaluation at 2j = 160 it is off by up to 5e-13 relative,
        # hence rel=1e-11 (the weights themselves are correctly rounded)
        spin = SpinQuantum(two_j)
        rng = np.random.default_rng(two_j)
        ms = spin.m_values()
        for _ in range(500):
            i, k, l = rng.choice(ms, size=3)
            m = i + l - k
            if -spin.j <= m <= spin.j:
                want = f_weight(spin, i, k, l, m)
                assert f_table(spin, i, k, l, m) == pytest.approx(want, rel=1e-11, abs=0)

    @pytest.mark.parametrize("two_j", [0, 1, 2, 5, 160, 161, 520])
    def test_weights_match_exact_fractions(self, two_j):
        # w_s within 2 ulp of the exact rational (the subnormal weights of
        # 2j = 520 included), sqrt_binom^2 within 2 ulp of the integer
        sqrt_binom, w = _m2_weights(two_j + 1)
        for i, got in enumerate(w):
            want = Fraction(two_j + 1, (2 * two_j + 1) * math.comb(2 * two_j, i))
            assert abs(Fraction(got) - want) <= 2 * Fraction(np.spacing(float(want)))
        for k, got in enumerate(sqrt_binom):
            want = math.comb(two_j, k)
            assert abs(Fraction(got) ** 2 - want) <= 2 * Fraction(np.spacing(float(want)))

    def test_weights_normal_through_j_256(self):
        # w_s ~ 1 / C(4j, 2j+s) reaches the subnormals from j = 257, where
        # the weights keep fewer than 53 bits (about 4e-12 relative at j = 260)
        tiny = np.finfo(float).tiny
        for two_j in (510, 512):
            for arr in _m2_weights(two_j + 1):
                assert arr.min() >= tiny, two_j
        _, w = _m2_weights(515)
        assert (len(w), int((w < tiny).sum())) == (1029, 49)

    def test_weights_overflow_raises(self):
        # C(2j, j) leaves the float range from 2j ~ 1030
        with pytest.raises(FloatingPointError, match="M2 weights"):
            _m2_weights(1201)

    def test_index_validation(self):
        for f in (f_weight, f_table):
            with pytest.raises(ValueError):
                f(SpinQuantum(2), 2, 0, 0, 0)
            with pytest.raises(ValueError):
                f(SpinQuantum(2), 0.5, 0, 0, 0)

    def test_empty_dimension_rejected(self):
        for fn, arg in ((m2_pure, np.zeros(0)), (_m2_weights, 0)):
            with pytest.raises(ValueError, match="empty state vector"):
                fn(arg)


class TestM2Pure:
    @pytest.mark.parametrize("two_j", [1, 2, 10, 160])
    def test_coherent_state_closed_form(self, two_j):
        # integral of cos^{8j}(Theta/2) with the Haar normalization
        spin = SpinQuantum(two_j)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        assert m2_pure(v) == pytest.approx(spin.dim / (2 * two_j + 1), abs=1e-10)

    def test_center_basis_state(self):
        v = np.zeros(3, dtype=complex)
        v[1] = 1.0
        assert m2_pure(v) == pytest.approx(0.4, abs=1e-14)

    def test_gue_average(self):
        n = 161
        vals = [m2_pure(random_vector(n, seed)) for seed in range(100)]
        assert np.mean(vals) == pytest.approx(2.0 / (n + 1), rel=0.05)

    @pytest.mark.parametrize("two_j", [1, 2, 10, 160, 320])
    def test_matches_gauss_legendre_oracle(self, two_j):
        # single-top states evolved 20 kicks, j = 1/2 ... 160
        v = evolved_vector(SpinQuantum(two_j), 20)
        want = m2_gauss_legendre(np.outer(v, v.conj()))
        assert m2_pure(v) == pytest.approx(want, rel=1e-12, abs=0)


class TestM2Rdm:
    @pytest.mark.parametrize("two_j", [2, 9, 160])
    def test_rank_one_consistency(self, two_j):
        v = random_vector(two_j + 1, seed=two_j)
        assert abs(m2_rdm(np.outer(v, v.conj())) - m2_pure(v)) < 1e-14

    @pytest.mark.parametrize("n", [3, 41, 161])
    def test_maximally_mixed(self, n):
        assert m2_rdm(np.eye(n, dtype=complex) / n) == pytest.approx(1.0 / n, abs=1e-12)

    def test_rmt_saturated_level(self):
        n = 161
        rng = np.random.default_rng(17)
        vals = []
        for _ in range(5):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a /= np.linalg.norm(a)
            vals.append(m2_rdm(a @ a.conj().T))
        expect = (1.0 + (2 * n + 1) / (n**2 + 2)) / (n + 1)
        assert np.mean(vals) == pytest.approx(expect, rel=0.05)

    def test_accepts_wrapped_rdm(self):
        v = random_vector(81, 3).reshape(9, 9)
        rdm = reduce(v / np.linalg.norm(v))
        assert m2_rdm(rdm) == pytest.approx(m2_rdm(rdm.entries), abs=1e-16)

    def test_overflow_raises(self):
        # from j = 270 the binomial-weighted sums of an evolved state overflow;
        # the non-finite total must raise, not come back as NaN
        for j in (270, 280):
            rdm = evolved_rdm(SpinQuantum.from_j(j), 20)
            with pytest.raises(FloatingPointError, match="m2_rdm"):
                m2_rdm(rdm)

    @pytest.mark.parametrize("two_j", [0, 1, 2, 3, 10, 40, 160, 400, 520])
    def test_matches_slice_loop(self, two_j):
        # j = 0 ... 260, half-integer j included: random mixed RDMs and an
        # evolved coupled-top RDM against the slice-by-slice oracle
        spin = SpinQuantum(two_j)
        n = spin.dim
        rng = np.random.default_rng(two_j)
        rdms = [evolved_rdm(spin, 20).entries]
        for _ in range(2):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a /= np.linalg.norm(a)
            rdms.append(a @ a.conj().T)
        for rho in rdms:
            want = m2_rdm_loop(rho)
            assert np.isfinite(want) and abs(want.imag) < 1e-10
            assert m2_rdm(rho) == pytest.approx(want.real, rel=1e-12, abs=0)

    @pytest.mark.parametrize("two_j", [1, 2, 10, 160, 320])
    def test_matches_gauss_legendre_oracle(self, two_j):
        # coupled-top RDMs evolved 20 kicks, j = 1/2 ... 160
        rho = evolved_rdm(SpinQuantum(two_j), 20).entries
        assert m2_rdm(rho) == pytest.approx(m2_gauss_legendre(rho), rel=1e-12, abs=0)

    @pytest.mark.parametrize("two_j", [1, 10, 160, 520])
    def test_slice_loop_is_real_on_hermitian_input(self, two_j):
        # m2_rdm takes Re T(a) and checks no imaginary residue: on Hermitian
        # input the complex slice-loop total is real to roundoff, while a
        # complex symmetric (so non-Hermitian) change of 1e-6 shows at once
        rho = evolved_rdm(SpinQuantum(two_j), 20).entries
        total = m2_rdm_loop(rho)
        assert abs(total.imag) <= 1e-14 * abs(total.real)
        assert abs(m2_rdm_loop(rho + 1e-6j * np.ones(rho.shape)).imag) > 1e-7

    def test_rejects_non_hermitian_array(self):
        with pytest.raises(ValueError, match="Hermitian"):
            m2_rdm(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))


class TestQuadratureOracle:
    @pytest.mark.parametrize("two_j", [0, 1, 10, 160])
    def test_gauss_legendre_closed_forms(self, two_j):
        # a coherent state gives N/(4j+1), the maximally mixed state 1/N
        spin = SpinQuantum(two_j)
        n = spin.dim
        v = coherent_amplitudes(spin, 0.89, 0.63)
        coherent = m2_gauss_legendre(np.outer(v, v.conj()))
        assert coherent == pytest.approx(n / (2 * two_j + 1), rel=1e-12)
        assert m2_gauss_legendre(np.eye(n) / n) == pytest.approx(1.0 / n, rel=1e-12)

    def test_coherent_state_refined_grid(self):
        spin = SpinQuantum(10)  # j = 5
        grid = SphericalGrid.build(spin, 400, 800)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        q = m2_quadrature(husimi_field(np.outer(v, v.conj()), grid), grid)
        assert q == pytest.approx(11.0 / 21.0, abs=1e-4)

    @pytest.mark.parametrize("two_j", [4, 12, 20])
    def test_matches_analytic_for_random_states(self, two_j):
        spin = SpinQuantum(two_j)
        grid = SphericalGrid.build(spin, 400, 800)
        v = random_vector(spin.dim, seed=two_j)
        q = m2_quadrature(husimi_field(np.outer(v, v.conj()), grid), grid)
        assert q == pytest.approx(m2_pure(v), abs=1e-4)

    def test_matches_analytic_for_rdm(self):
        spin = SpinQuantum(10)
        grid = SphericalGrid.build(spin, 400, 800)
        a = random_vector(spin.dim**2, 5).reshape(spin.dim, spin.dim)
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        q = m2_quadrature(husimi_field(rho, grid), grid)
        assert q == pytest.approx(m2_rdm(rho), abs=1e-4)

    def test_uniform_field(self):
        spin = SpinQuantum(12)
        grid = SphericalGrid.build(spin, 100, 200)
        n = spin.dim
        field = HusimiField(values=np.full((100, 200), 1.0 / n), clip_magnitude=0.0)
        assert m2_quadrature(field, grid) == pytest.approx(1.0 / n, rel=1e-3)


class TestSphericalGrid:
    def test_weights_sum_to_dimension(self):
        spin = SpinQuantum(160)
        grid = SphericalGrid.build(spin, 200, 400)
        assert haar_weights(grid).sum() == pytest.approx(spin.dim, rel=1e-4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SphericalGrid.build(SpinQuantum(2), 0, 10)


def husimi_operands(spin: SpinQuantum, seed: int) -> dict:
    """A pure amplitude vector, a raw mixed RDM and a ReducedDensityMatrix."""
    n = spin.dim
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return {
        "vector": random_vector(n, seed),
        "raw": rho,
        "wrapped": reduce(a / np.linalg.norm(a)),
    }


class TestHusimiField:
    @pytest.mark.parametrize("shape", [(7, 13), (30, 60)])
    @pytest.mark.parametrize("two_j", [0, 1, 2, 3, 10, 40, 160])
    def test_matches_per_node_oracle(self, two_j, shape):
        spin = SpinQuantum(two_j)
        grid = SphericalGrid.build(spin, *shape)
        for kind, op in husimi_operands(spin, two_j).items():
            rdm = np.outer(op, op.conj()) if kind == "vector" else op
            got, want = husimi_field(rdm, grid), husimi_field_nodes(op, grid)
            assert got.values.shape == shape, kind
            assert np.abs(got.values - want.values).max() <= 1e-13, kind
            assert got.clip_magnitude <= 1e-13, kind

    def test_rejects_non_hermitian_array(self):
        grid = SphericalGrid.build(SpinQuantum(1), 7, 13)
        with pytest.raises(ValueError, match="Hermitian"):
            husimi_field(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex), grid)

    @pytest.mark.parametrize("two_j", [2, 6])
    def test_rejects_grid_of_another_spin(self, two_j):
        grid = SphericalGrid.build(SpinQuantum(two_j), 7, 13)
        with pytest.raises(ValueError, match=rf"rho is 5 x 5, but the grid is for N = {two_j + 1}"):
            husimi_field(np.eye(5, dtype=complex) / 5, grid)

    def test_coherent_self_overlap_is_one(self):
        spin = SpinQuantum(40)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        center = coherent_amplitude_block(spin, np.array([0.89]), np.array([0.63]))[0]
        assert abs(np.vdot(center, v)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_field_peaks_at_coherent_center(self):
        spin = SpinQuantum(40)
        grid = SphericalGrid.build(spin, 100, 200)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        field = husimi_field(np.outer(v, v.conj()), grid)
        it, ip = np.unravel_index(np.argmax(field.values), field.values.shape)
        assert abs(grid.thetas[it] - 0.89) < 0.05
        assert abs(grid.phis[ip] - 0.63) < 0.05
        assert field.values.max() > 0.99 - 0.05
        assert field.values.min() >= 0.0
        assert field.clip_magnitude < 1e-12

    def test_values_bounded_by_one(self):
        spin = SpinQuantum(20)
        grid = SphericalGrid.build(spin, 60, 120)
        v = random_vector(spin.dim, 9)
        field = husimi_field(np.outer(v, v.conj()), grid)
        assert field.values.max() <= 1.0 + 1e-12

    def test_trace_identity_on_default_grid(self):
        spin = SpinQuantum(160)
        grid = SphericalGrid.build(spin, 200, 400)
        a = random_vector(spin.dim**2, 11).reshape(spin.dim, spin.dim)
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        field = husimi_field(rho, grid)
        assert (haar_weights(grid) * field.values).sum() == pytest.approx(1.0, abs=0.02)

    def test_trace_identity_refines_at_second_order(self):
        spin = SpinQuantum(10)
        v = coherent_amplitudes(spin, 2.0, -2.5)
        errs = []
        for n_theta in (25, 50, 100):
            grid = SphericalGrid.build(spin, n_theta, 2 * n_theta)
            field = husimi_field(np.outer(v, v.conj()), grid)
            errs.append(abs((haar_weights(grid) * field.values).sum() - 1.0))
        # midpoint rule: observed order approaches 2 from below (1.986 here)
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order > 1.9


class TestOccupancyMeasures:
    def test_delta_n_eff_examples(self):
        assert delta_n_eff(1.0 / 161, 161) == pytest.approx(1.0, abs=1e-12)
        spin = SpinQuantum(160)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        # coherent state occupies (4j+1)/(2j+1)^2, about two Planck cells' worth
        assert delta_n_eff(m2_pure(v), 161) == pytest.approx(321 / 161**2, abs=1e-10)
        with pytest.raises(ValueError):
            delta_n_eff(0.0, 161)

    def test_gamma_factor_examples(self):
        n = 161
        s_v = math.log(n) - 0.5
        assert gamma_factor(s_v, 1.0, n) == pytest.approx(math.exp(-0.5), abs=1e-12)
        with pytest.raises(ValueError):
            gamma_factor(1.0, 0.0, n)

    def test_delta_n_eff_range_for_random_rdms(self):
        n = 81
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a /= np.linalg.norm(a)
            dn = delta_n_eff(m2_rdm(a @ a.conj().T), n)
            assert 0.0 < dn <= 1.0 + 1.0 / n
