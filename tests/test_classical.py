import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktops.classical import (
    coupled_map,
    phase_portrait,
    poisson_residual,
    single_map,
    to_canonical,
)


def on_sphere(theta: float, phi: float) -> np.ndarray:
    st_ = math.sin(theta)
    return np.array([st_ * math.cos(phi), st_ * math.sin(phi), math.cos(theta)])


STANDARD_POINT = on_sphere(0.89, 0.63)


def random_point(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_state(rng) -> np.ndarray:
    """A coupled state (2, 3): one random point per sphere."""
    return np.stack([random_point(rng), random_point(rng)])


def correct_map(k1, k2, epsilon):
    """coupled_map at fixed parameters, as the map of states poisson_residual takes."""
    return lambda v: coupled_map(v, k1, k2, epsilon)


def wrong_coupled_map(k1, k2, epsilon):
    """Negative control: the flawed earlier map on coupled states (..., 2, 3),
    coupling through the partner's Y component instead of X.  Canonical only
    at epsilon = 0."""

    def step(v):
        x, y, z = np.moveaxis(v, -1, 0)
        d = np.array([k1, k2]) * x + epsilon * y[..., ::-1]
        c, s = np.cos(d), np.sin(d)
        return np.stack([z * c + y * s, -z * s + y * c, -x], axis=-1)

    return step


unit_points = st.builds(on_sphere, st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))


def norm_sq(v: np.ndarray) -> np.ndarray:
    return (v * v).sum(axis=-1)


class TestSingleMap:
    def test_fixed_point(self):
        p = np.array([0.0, 1.0, 0.0])
        for k in (0.0, 1.0, 3.0, 6.0):
            q = single_map(p, k)
            assert tuple(q) == (0.0, 1.0, -0.0)

    def test_zero_torsion_is_quarter_turn(self):
        p = STANDARD_POINT
        q = single_map(p, 0.0)
        np.testing.assert_allclose(q, [p[2], p[1], -p[0]], atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(unit_points, st.floats(-10.0, 10.0))
    def test_norm_preserved(self, p, k):
        assert abs(norm_sq(single_map(p, k)) - 1.0) < 1e-13

    def test_batch_matches_points(self):
        rng = np.random.default_rng(8)
        pts = np.stack([random_point(rng) for _ in range(10)])
        batch = single_map(pts, 6.0)
        for p, q in zip(pts, batch):
            assert np.array_equal(single_map(p, 6.0), q)

    def test_matches_scalar_reference(self):
        # the step written once more in scalar math, as it read before the
        # array kernel; the arithmetic is the same, so only the libm cos/sin
        # may differ, by an ulp
        rng = np.random.default_rng(10)
        pts = np.stack([random_point(rng) for _ in range(1000)])
        ks = rng.uniform(-10.0, 10.0, size=len(pts))
        ref = []
        for (x, y, z), k in zip(pts, ks):
            c, s = math.cos(k * x), math.sin(k * x)
            ref.append((z * c + y * s, -z * s + y * c, -x))
        got = np.stack([single_map(p, k) for p, k in zip(pts, ks)])
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)

    def test_long_run_sphere_conservation(self):
        cur = STANDARD_POINT
        for _ in range(10**6):
            cur = single_map(cur, 6.0)
        assert abs(math.sqrt(norm_sq(cur)) - 1.0) < 1e-9


class TestCoupledMap:
    def test_decouples_at_zero_epsilon(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_state(rng)
            out = coupled_map(s, 2.0, 5.0, 0.0)
            assert np.array_equal(out[0], single_map(s[0], 2.0))
            assert np.array_equal(out[1], single_map(s[1], 5.0))

    def test_epsilon_continuity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = random_state(rng)
            out = coupled_map(s, 6.0, 6.0, 1e-12)
            ref = np.stack([single_map(s[0], 6.0), single_map(s[1], 6.0)])
            assert np.abs(out - ref).max() < 1e-10

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = random_state(rng)
            fwd = coupled_map(s, 3.0, 3.0, 0.05)
            swp = coupled_map(s[::-1], 3.0, 3.0, 0.05)
            assert np.array_equal(fwd, swp[::-1])

    def test_symmetric_input_stays_symmetric(self):
        out = coupled_map(np.stack([STANDARD_POINT, STANDARD_POINT]), 6.0, 6.0, 0.01)
        assert np.array_equal(out[0], out[1])

    @settings(max_examples=100, deadline=None)
    @given(unit_points, unit_points, st.floats(-8.0, 8.0), st.floats(-0.2, 0.2))
    def test_both_spheres_preserved(self, p, q, k, eps):
        out = coupled_map(np.stack([p, q]), k, k, eps)
        assert np.abs(norm_sq(out) - 1.0).max() < 1e-13


class TestToCanonical:
    def test_pole_convention(self):
        for pole in ([0.0, 0.0, 1.0], [-0.0, 0.0, -1.0], [-0.0, -0.0, 1.0]):
            c = to_canonical(np.array(pole))
            assert tuple(c) == (pole[2], 0.0) and math.copysign(1.0, c[1]) == 1.0

    def test_values(self):
        c = to_canonical(on_sphere(1.2, -2.5))
        np.testing.assert_allclose(c, [math.cos(1.2), -2.5], atol=1e-15)

    def test_cos_theta_clipped(self):
        assert tuple(to_canonical(np.array([0.0, 0.0, 1.0 + 1e-15]))) == (1.0, 0.0)


def occupancy_fraction(samples: np.ndarray, n_bins: int = 20) -> float:
    """Fraction of an n_bins x n_bins (cos theta, phi) grid visited."""
    ct = np.clip((samples[:, 0] + 1.0) / 2.0, 0.0, 1.0 - 1e-12)
    ph = np.clip((samples[:, 1] + math.pi) / (2.0 * math.pi), 0.0, 1.0 - 1e-12)
    cells = set(zip((ct * n_bins).astype(int), (ph * n_bins).astype(int)))
    return len(cells) / n_bins**2


class TestPhasePortrait:
    def test_fixed_point_orbit(self):
        orbits = phase_portrait(6.0, [[0.0, 1.0, 0.0]], 50)
        assert orbits.shape == (1, 51, 2)
        samples = orbits[0]
        assert np.ptp(samples[:, 0]) == 0.0 and np.ptp(samples[:, 1]) == 0.0

    def test_regular_orbit_stays_thin(self):
        orbits = phase_portrait(1.0, [STANDARD_POINT], 2000)
        assert occupancy_fraction(orbits[0]) < 0.25

    def test_chaotic_orbit_fills_sphere(self):
        orbits = phase_portrait(6.0, [STANDARD_POINT], 2000)
        assert occupancy_fraction(orbits[0]) > 0.8

    def test_batch_independence(self):
        g = 5
        ct, ph = np.meshgrid(
            -1.0 + (np.arange(g) + 0.5) * 2.0 / g,
            -math.pi + (np.arange(g) + 0.5) * 2.0 * math.pi / g,
            indexing="ij",
        )
        st_ = np.sqrt(1.0 - ct * ct)
        ics = np.stack([st_ * np.cos(ph), st_ * np.sin(ph), ct], axis=-1).reshape(-1, 3)
        orbits = phase_portrait(6.0, ics, 300)
        assert orbits.shape == (g * g, 301, 2)
        for p, orbit in zip(ics, orbits):
            assert np.array_equal(phase_portrait(6.0, [p], 300)[0], orbit)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            phase_portrait(1.0, [STANDARD_POINT], 0)

    @pytest.mark.parametrize("start", [[0.0, 0.0, 1.0 + 1e-8], [1.0, 1.0, 0.0],
                                       [0.0, 0.0, 0.0], [math.nan, 0.0, 1.0]])
    def test_rejects_off_sphere_start(self, start):
        with pytest.raises(ValueError, match="unit sphere"):
            phase_portrait(1.0, [STANDARD_POINT, start], 5)


class TestCanonicity:
    def test_decoupled_residual_at_floor(self):
        rng = np.random.default_rng(4)
        fn = correct_map(6.0, 6.0, 0.0)
        for _ in range(10):
            assert poisson_residual(fn, random_state(rng)) < 1e-6

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-3, 1e-2, 0.1])
    def test_correct_map_is_canonical(self, k, eps):
        rng = np.random.default_rng(5)
        fn = correct_map(k, k, eps)
        for _ in range(20):
            assert poisson_residual(fn, random_state(rng)) < 1e-6

    def test_wrong_map_fails_canonicity(self):
        rng = np.random.default_rng(6)
        fn = wrong_coupled_map(6.0, 6.0, 0.1)
        res = [poisson_residual(fn, random_state(rng)) for _ in range(20)]
        assert max(res) > 1e-3

    def test_wrong_map_residual_scales_with_epsilon(self):
        rng = np.random.default_rng(7)
        states = [random_state(rng) for _ in range(10)]
        res_small = max(
            poisson_residual(wrong_coupled_map(6.0, 6.0, 1e-3), s) for s in states
        )
        res_big = max(
            poisson_residual(wrong_coupled_map(6.0, 6.0, 1e-1), s) for s in states
        )
        assert res_big > 10.0 * res_small

    def test_wrong_map_agrees_at_zero_epsilon(self):
        rng = np.random.default_rng(9)
        s = np.stack([random_state(rng) for _ in range(5)])
        assert np.abs(wrong_coupled_map(6.0, 3.0, 0.0)(s) - coupled_map(s, 6.0, 3.0, 0.0)).max() < 1e-15
