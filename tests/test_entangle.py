import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktops.cli import RunConfig, run
from ktops.entangle import (
    ReducedDensityMatrix,
    entropies,
    ks_exponential,
    reduce,
    schmidt,
)
from ktops.evolve import (
    coupled_propagator,
    initial_product_state,
    trajectory,
)
from ktops.husimi import SphericalGrid, husimi_field, m2_rdm
from ktops.spincore import SpinQuantum


def random_state(spin, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = spin.dim
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a / np.linalg.norm(a)


def linear_entropy_direct(state: np.ndarray) -> float:
    """1 - Tr rho_1^2 without an eigendecomposition (Frobenius norm of the RDM)."""
    rho = reduce(state).entries
    return float(1.0 - (np.abs(rho) ** 2).sum())


def subsystem_symmetry_check(state: np.ndarray) -> float:
    """|S_V(rho_1) - S_V(rho_2)|; zero for any exact Schmidt decomposition."""
    sv1, _ = entropies(schmidt(reduce(state)))
    sv2, _ = entropies(schmidt(reduce(state.T)))
    return abs(sv1 - sv2)


@dataclass(frozen=True)
class ComponentStats:
    mean_re: float
    var_re: float
    mean_im: float
    var_im: float
    ks_exponential: float


def component_statistics(vector: np.ndarray) -> ComponentStats:
    """Moments of Re/Im parts and the KS statistic of N |c|^2 vs Exp(1).

    GUE-distributed vectors give Gaussian components and exponential N |c|^2;
    the asymptotic 5% KS band is 1.36 / sqrt(N).
    """
    v = np.asarray(vector)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"vector norm {nrm!r} too far from 1")
    n = len(v)
    scaled = n * np.abs(v) ** 2
    return ComponentStats(
        mean_re=float(v.real.mean()),
        var_re=float(v.real.var()),
        mean_im=float(v.imag.mean()),
        var_im=float(v.imag.var()),
        ks_exponential=ks_exponential(scaled),
    )


def brute_force_partial_trace(a: np.ndarray, subsystem: int) -> np.ndarray:
    """Elementwise partial trace over the explicit |m1,m2><n1,n2| expansion."""
    n = a.shape[0]
    rho = np.zeros((n, n), dtype=complex)
    for m1 in range(n):
        for n1 in range(n):
            for m2 in range(n):
                if subsystem == 1:
                    rho[m1, n1] += a[m1, m2] * np.conj(a[n1, m2])
                else:
                    rho[m1, n1] += a[m2, m1] * np.conj(a[m2, n1])
    return rho


class TestReduce:
    @pytest.mark.parametrize("two_j", [1, 2, 4])
    @pytest.mark.parametrize("subsystem", [1, 2])
    def test_matches_brute_force(self, two_j, subsystem):
        state = random_state(SpinQuantum(two_j), seed=two_j)
        rho = reduce(state if subsystem == 1 else state.T).entries
        ref = brute_force_partial_trace(state, subsystem)
        np.testing.assert_allclose(rho, ref, atol=1e-13)

    def test_product_state_is_projector(self):
        state = initial_product_state(SpinQuantum(10), 0.89, 0.63, 2.0, -1.0)
        rho = reduce(state).entries
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 9, 30]), st.integers(0, 10**6))
    def test_trace_and_hermiticity(self, two_j, seed):
        state = random_state(SpinQuantum(two_j), seed)
        for amplitudes in (state, state.T):
            rho = reduce(amplitudes).entries
            assert abs(np.trace(rho).real - 1.0) < 1e-13
            assert np.abs(rho - rho.conj().T).max() < 1e-13


class TestSchmidt:
    def test_maximally_mixed(self):
        n = 7
        spec = schmidt(np.eye(n, dtype=complex) / n)
        np.testing.assert_allclose(spec.eigenvalues, np.full(n, 1.0 / n), atol=1e-14)

    def test_rank_one_projector(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        v /= np.linalg.norm(v)
        spec = schmidt(np.outer(v, v.conj()))
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(spec.eigenvalues[1:]).max() < 1e-12

    def test_recovers_constructed_spectrum(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        lam = np.array([0.7, 0.25, 0.05])
        rho = q @ np.diag(lam) @ q.conj().T
        spec = schmidt(rho)
        np.testing.assert_allclose(spec.eigenvalues, lam, atol=1e-11)

    def test_reconstruction_and_residuals(self):
        state = random_state(SpinQuantum(40), 7)
        rdm = reduce(state)
        spec = schmidt(rdm, vectors=True)
        v, lam = spec.eigenvectors, spec.eigenvalues
        assert np.abs(v @ np.diag(lam) @ v.conj().T - rdm.entries).max() < 1e-9
        assert np.abs(v.conj().T @ v - np.eye(len(lam))).max() < 1e-10
        for a in range(0, len(lam), 7):
            res = np.linalg.norm(rdm.entries @ v[:, a] - lam[a] * v[:, a])
            assert res < 1e-9

    def test_descending_sum_one_clip_audited(self):
        state = random_state(SpinQuantum(30), 8)
        spec = schmidt(reduce(state.T))
        assert np.all(np.diff(spec.eigenvalues) <= 0.0)
        assert spec.eigenvalues.sum() == pytest.approx(1.0, abs=1e-10)
        assert spec.clip_magnitude < 1e-10
        assert np.all(spec.eigenvalues >= 0.0)

    def test_non_hermitian_rejected(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        for vectors in (False, True):
            with pytest.raises(ValueError):
                schmidt(bad, vectors=vectors)

    def test_eigenvalues_only_match_eigh(self):
        for seed in range(8):
            rdm = reduce(random_state(SpinQuantum(80), seed))  # j = 40
            fast, full = schmidt(rdm), schmidt(rdm, vectors=True)
            assert fast.eigenvectors is None
            assert full.eigenvectors.shape == (81, 81)
            np.testing.assert_allclose(fast.eigenvalues, full.eigenvalues, rtol=0, atol=1e-13)
            assert abs(fast.clip_magnitude - full.clip_magnitude) < 1e-13

    def test_rdm_checked_once_per_step(self, monkeypatch, tmp_path):
        # the RDM is checked when reduce() builds it; schmidt and m2_rdm trust
        # a ReducedDensityMatrix and wrap (so check) only a raw array
        checked = []
        real_check = ReducedDensityMatrix.__post_init__

        def counting_check(self):
            checked.append(self.entries.shape)
            real_check(self)

        monkeypatch.setattr(ReducedDensityMatrix, "__post_init__", counting_check)
        run(RunConfig(kind="evolve", j=4, steps=6, out=str(tmp_path)))
        steps = np.loadtxt(tmp_path / "evolve_entropy.tsv")[:, 0]
        assert list(steps) == [1, 2, 3, 4, 5, 6]
        assert checked == [(9, 9)] * 6
        rho = reduce(random_state(SpinQuantum(4), 1))
        checked.clear()
        schmidt(rho.entries)
        m2_rdm(rho.entries)
        assert checked == [(5, 5), (5, 5)]


class TestEntropies:
    def test_uniform_spectrum(self):
        n = 11
        spec = schmidt(np.eye(n, dtype=complex) / n)
        s_v, s_r = entropies(spec)
        assert s_v == pytest.approx(math.log(n), abs=1e-12)
        assert s_r == pytest.approx(1.0 - 1.0 / n, abs=1e-12)

    def test_rank_one(self):
        v = np.zeros(5, dtype=complex)
        v[2] = 1.0
        s_v, s_r = entropies(schmidt(np.outer(v, v.conj())))
        assert s_v == 0.0 and s_r == 0.0

    def test_rmt_saturated_levels(self):
        # random bipartite pure states realize the saturation statistics
        n = 161
        sv_acc, purity_acc = [], []
        for seed in range(6):
            spec = schmidt(reduce(random_state(SpinQuantum(n - 1), seed)))
            s_v, s_r = entropies(spec)
            sv_acc.append(s_v)
            purity_acc.append(1.0 - s_r)
        assert np.mean(sv_acc) == pytest.approx(math.log(n) - 0.5, abs=0.05)
        assert np.mean(purity_acc) == pytest.approx((2 * n + 1) / (n**2 + 2), rel=0.1)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 9, 30]), st.integers(0, 10**6))
    def test_sr_bounded_by_sv(self, two_j, seed):
        spec = schmidt(reduce(random_state(SpinQuantum(two_j), seed)))
        s_v, s_r = entropies(spec)
        n = two_j + 1
        assert 0.0 <= s_r <= 1.0 - 1.0 / n + 1e-12
        assert -1e-12 <= s_v <= math.log(n) + 1e-12
        assert s_r <= s_v + 1e-12

    def test_direct_linear_entropy_matches_spectrum(self):
        state = random_state(SpinQuantum(40), 9)
        _, s_r = entropies(schmidt(reduce(state)))
        assert linear_entropy_direct(state) == pytest.approx(s_r, abs=1e-12)


class TestSubsystemSymmetry:
    def test_product_state(self):
        state = initial_product_state(SpinQuantum(20), 0.89, 0.63, 2.0, 1.0)
        assert subsystem_symmetry_check(state) < 1e-12

    def test_random_entangled(self):
        for seed in range(5):
            assert subsystem_symmetry_check(random_state(SpinQuantum(30), seed)) < 1e-9

    def test_evolved_state(self):
        spin = SpinQuantum(80)  # j = 40 keeps this quick
        state0 = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        for _, state in trajectory(state0, *coupled_propagator(spin, 6.0, 6.0, 1e-2), 200):
            pass
        assert subsystem_symmetry_check(state) < 1e-8


class TestComponentStatistics:
    def test_basis_vector_maximally_non_exponential(self):
        v = np.zeros(161, dtype=complex)
        v[80] = 1.0
        stats = component_statistics(v)
        assert stats.ks_exponential > 0.9

    def test_synthetic_gue_vectors_pass(self):
        n = 161
        threshold = 1.36 / math.sqrt(n)
        passed = 0
        draws = 40
        for seed in range(draws):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v /= np.linalg.norm(v)
            if component_statistics(v).ks_exponential < threshold:
                passed += 1
        assert passed >= int(0.95 * draws)

    def test_moments_of_gue_vector(self):
        rng = np.random.default_rng(42)
        n = 4001
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        stats = component_statistics(v)
        assert abs(stats.mean_re) < 3.0 / n**0.5 / n**0.5  # ~3 sigma of the mean
        assert stats.var_re == pytest.approx(1.0 / (2 * n), rel=0.1)
        assert stats.var_im == pytest.approx(1.0 / (2 * n), rel=0.1)

    def test_ks_in_unit_interval(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        v /= np.linalg.norm(v)
        assert 0.0 <= component_statistics(v).ks_exponential <= 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            component_statistics(np.ones(8, dtype=complex))

    def test_ks_exponential_of_exact_sample(self):
        # inverse-CDF sample has the ECDF pinned to the model CDF
        u = (np.arange(1, 2001) - 0.5) / 2000.0
        x = -np.log1p(-u)
        assert ks_exponential(x) < 1.0 / 2000.0 + 1e-9


class TestRdmValidation:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            ReducedDensityMatrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            ReducedDensityMatrix(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            ReducedDensityMatrix(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("kernel", ["schmidt", "m2_rdm", "husimi_field"])
    @pytest.mark.parametrize("bad", ["trace3", "non_square", "vector"])
    def test_raw_array_gets_full_checks(self, kernel, bad):
        # a raw array goes through the same checks as a ReducedDensityMatrix;
        # trace 3 once gave S_R = -0.8 from schmidt with no error, and a unit
        # vector once came back from husimi_field as the field of v v^dagger
        arr = {"trace3": 3 * np.eye(5) / 5, "non_square": np.ones((5, 4)) / 5,
               "vector": np.ones(5) / math.sqrt(5)}[bad]
        run = {
            "schmidt": schmidt,
            "m2_rdm": m2_rdm,
            "husimi_field": lambda a: husimi_field(a, SphericalGrid.build(SpinQuantum(4), 3, 5)),
        }[kernel]
        with pytest.raises(ValueError, match="trace" if bad == "trace3" else "square"):
            run(arr)
