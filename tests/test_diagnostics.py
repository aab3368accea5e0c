import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbozk import (
    DispersionParams,
    RealField2D,
    SobolevSpec,
    WeightSpec,
    hamiltonian,
    make_grid,
    mass,
    sobolev_norm,
    truncated_weight,
    weighted_norm,
    x_moment,
    zero_mode_slice,
)
from gbozk.diagnostics import (
    _bracket_exponent,
    _blend_values,
    _spectral_sums,
    directional_sobolev_norms,
    interx_probe,
    truncated_x_norm,
)
from gbozk.spectral import half_spectrum

from conftest import gaussian_field, random_field


class TestTruncatedWeight:
    def test_value_at_origin(self):
        for N in (1.0, 3.0, 10.0):
            assert truncated_weight(0.0, N) == 1.0

    def test_bracket_inside(self):
        assert np.isclose(truncated_weight(2.0, 2.0), np.sqrt(5.0))

    def test_plateau_value(self):
        assert truncated_weight(10.0, 2.0) == 4.0

    def test_pointwise_bounds_and_slope(self):
        for N in (1.0, 2.0, 8.0):
            x = np.linspace(-3.5 * N, 3.5 * N, 20001)
            w = truncated_weight(x, N)
            bracket = np.sqrt(1.0 + x**2)
            assert np.all(w <= bracket + 1e-12)
            assert np.all(w <= 2.0 * N + 1e-12)
            d = np.diff(w) / np.diff(x)
            assert np.max(np.abs(d)) <= 1.0 + 1e-9
            # nondecreasing in |x| (up to quadrature roundoff)
            assert np.all(np.diff(w)[x[:-1] >= 0] >= -1e-12)

    def test_even(self):
        x = np.linspace(0.1, 20, 57)
        assert np.allclose(truncated_weight(x, 4.0), truncated_weight(-x, 4.0))

    def test_monotone_in_truncation_level(self):
        x = np.linspace(0.0, 60.0, 3001)
        levels = (2.0, 4.0, 8.0, 16.0)
        ws = [truncated_weight(x, N) for N in levels]
        for lo, hi in zip(ws[:-1], ws[1:]):
            assert np.all(hi >= lo - 1e-12)

    def test_requires_level_at_least_one(self):
        with pytest.raises(ValueError):
            truncated_weight(1.0, 0.5)

    @pytest.mark.parametrize(
        "x, N", [(1.5e308, 1e308), (0.0, 1e308), (2e153, 1.0000000000000002e153)]
    )
    def test_level_beyond_float_range_is_a_value_error(self, x, N):
        # the blend squares points up to 3N, which leaves the float range
        # past N = 1e153, whether or not x lies in the blend
        with pytest.raises(ValueError, match=r"1 <= N <= 1e\+153"):
            truncated_weight(x, N)

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.floats(1.0, 1e153),
        scale=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8),
    )
    def test_levels_in_range_keep_the_piecewise_bits(self, N, scale):
        # up to 1e153 the weight is its piecewise definition, bit for bit:
        # <x> inside, the blend's quadrature on (N, 3N), 2N beyond, and no
        # float warning on the way (warnings are errors in this suite)
        ax = np.array(scale) * N
        want = np.where(ax <= N, np.sqrt(1.0 + ax**2), 2.0 * N)
        blend = (ax > N) & (ax < 3.0 * N)
        if np.any(blend):
            want[blend] = _blend_values(ax[blend], N, _bracket_exponent(N))
        assert np.array_equal(truncated_weight(ax, N), want)

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=8),
        N=st.one_of(st.just(np.inf), st.floats(1.0, 1e153)),
    )
    def test_bracket_up_to_1e150_keeps_its_bits(self, x, N):
        # up to |x| = 1e150 the bracket is sqrt(1 + x^2) as written
        ax = np.abs(np.array(x))
        want = np.sqrt(1.0 + ax**2)
        if N < np.inf:
            blend = (ax > N) & (ax < 3.0 * N)
            want = np.where(ax <= N, want, 2.0 * N)
            if np.any(blend):
                want[blend] = _blend_values(ax[blend], N, _bracket_exponent(N))
        assert np.array_equal(truncated_weight(np.array(x), N), want)

    @pytest.mark.parametrize("N, want", [(np.inf, 1e200), (2.0, 4.0)])
    def test_bracket_beyond_the_square_range_is_exact_and_silent(self, N, want):
        # x^2 leaves the float range past |x| = 1.34e154; <x> is |x| there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert truncated_weight(1e200, N) == want
            assert truncated_weight(-1e200, N) == want

    def test_blend_exponent_matches_brentq_oracle(self):
        # p is solved in a fresh process, which must not load scipy.optimize
        levels = [1.0, 2.0, 3.7, 4.0, 8.0, 16.0, 1e4]
        code = (
            "import sys; from gbozk.diagnostics import _bracket_exponent; "
            f"print([_bracket_exponent(N) for N in {levels}]); "
            "print('scipy.optimize' in sys.modules)"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert out[1] == "False"
        from scipy.optimize import brentq

        for N, p in zip(levels, json.loads(out[0]), strict=True):
            f = lambda q: float(_blend_values(np.array([3.0 * N]), N, q)[0]) - 2.0 * N
            assert p == pytest.approx(brentq(f, 1.0, 60.0, xtol=1e-15), rel=1e-13)


class TestWeightedNorm:
    def test_zero_exponents_give_sqrt2_l2(self, grid_box):
        u = random_field(grid_box, seed=1, scale=0.2)
        ratio = weighted_norm(u, WeightSpec(0.0, 0.0, np.inf)) / np.sqrt(mass(u))
        assert np.isclose(ratio, np.sqrt(2.0), rtol=1e-12)

    def test_plateau_point_mass_weight(self):
        g = make_grid(128, 128, 64.0, 64.0)
        samples = np.zeros((g.ny, g.nx))
        # place mass at x >= 3N, y = 0 row
        ix = np.argmin(np.abs(g.x - 20.0))
        iy = np.argmin(np.abs(g.y))
        samples[iy, ix] = 1.0
        u = RealField2D(g, samples)
        N = 2.0
        w = weighted_norm(u, WeightSpec(1.0, 0.0, N))
        expected = np.sqrt((1.0 + (2.0 * N) ** 2) * samples.sum() ** 2 * g.dx * g.dy)
        assert np.isclose(w, expected, rtol=1e-12)

    def test_gaussian_closed_form(self):
        g = make_grid(256, 256, 32.0, 32.0)
        X, Y = g.meshgrid()
        u = RealField2D(g, np.exp(-(X**2) - Y**2))
        w = weighted_norm(u, WeightSpec(1.0, 0.0, np.inf))
        # the weight is <x>^2 + 1 = 2 + x^2, and
        # int (2 + x^2) exp(-2x^2 - 2y^2) = (pi/2)(2 + 1/4)
        exact = np.sqrt((np.pi / 2.0) * 2.25)
        assert abs(w - exact) / exact < 1e-8

    def test_monotone_in_truncation_level(self, grid_box):
        u = gaussian_field(grid_box, 1.0, 3.0, 3.0)
        spec = lambda N: WeightSpec(2.0, 1.0, N)
        vals = [weighted_norm(u, spec(N)) for N in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals[:-1], vals[1:]))
        # converges to the untruncated value once 3N clears the box
        untrunc = weighted_norm(u, WeightSpec(2.0, 1.0, np.inf))
        assert np.isclose(vals[-1], untrunc, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(-1.0, 0.0)
        with pytest.raises(ValueError):
            WeightSpec(1.0, 0.0, 0.0)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        half=st.tuples(st.integers(4, 24), st.integers(4, 24)),
        box=st.tuples(st.floats(2.0, 60.0), st.floats(2.0, 60.0)),
        seed=st.integers(0, 2**16),
        r1=st.floats(0.0, 3.0),
        r2=st.floats(0.0, 3.0),
        N=st.one_of(st.just(np.inf), st.floats(1.0, 64.0)),
    )
    def test_splits_into_the_ladder_and_transverse_norms(self, half, box, seed, r1, r2, N):
        g = make_grid(2 * half[0], 2 * half[1], *box)
        u = random_field(g, seed=seed)
        wy = truncated_weight(g.y, N)[:, None] ** r2
        want = truncated_x_norm(u, r1, N) ** 2 + np.sum((wy * u.samples) ** 2) * g.dx * g.dy
        assert weighted_norm(u, WeightSpec(r1, r2, N)) ** 2 == pytest.approx(want, rel=1e-13)


class TestSobolevNorm:
    def test_zero_orders_give_sqrt3_l2(self, grid_2pi):
        u = random_field(grid_2pi, seed=2)
        ratio = sobolev_norm(u, SobolevSpec(0.0, 0.0)) / np.sqrt(mass(u))
        assert np.isclose(ratio, np.sqrt(3.0), rtol=1e-12)

    def test_single_mode_values(self, grid_2pi):
        X, _ = grid_2pi.meshgrid()
        amp = 0.7
        u = RealField2D(grid_2pi, amp * np.cos(X))
        val = sobolev_norm(u, SobolevSpec(2.0, 2.0))
        assert np.isclose(val, np.sqrt(mass(u)) * np.sqrt(6.0), rtol=1e-12)

    def test_monotone_in_x_order(self, grid_2pi):
        u = random_field(grid_2pi, seed=3)
        vals = [sobolev_norm(u, SobolevSpec(s, 0.0)) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        half_n=st.tuples(st.integers(4, 32), st.integers(4, 32)),
        s=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_is_the_run_es_norm(self, half_n, s, seed):
        # a run's E^s: sqrt(mass + sob_x^2 + sob_y^2) over its row columns
        u = random_field(make_grid(2 * half_n[0], 2 * half_n[1], 12.0, 9.0), seed=seed)
        spec = SobolevSpec(*s)
        sx, sy = (np.array([v]) for v in directional_sobolev_norms(u, spec))
        es = np.sqrt(np.array([mass(u)]) + sx**2 + sy**2)[0]
        assert sobolev_norm(u, spec).hex() == float(es).hex()

    def test_scalar_pairing(self):
        spec = SobolevSpec.from_scalar(2.0, 0.5)
        assert spec.s1 == 3.0 and spec.s2 == 4.0


class TestHalfSpectrumCore:
    """Half-spectrum sums against a full-fft2 Plancherel oracle."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        half_n=st.tuples(st.integers(4, 32), st.integers(4, 32)),
        box=st.tuples(st.floats(1.0, 60.0), st.floats(1.0, 60.0)),
        s=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
        a=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_fft2_oracle(self, half_n, box, s, a, seed):
        g = make_grid(2 * half_n[0], 2 * half_n[1], *box)
        u = random_field(g, seed=seed)
        c = np.fft.fft2(np.fft.ifftshift(u.samples)) * (g.dx * g.dy)
        power = np.abs(c) ** 2 / (g.lx * g.ly)
        xi, eta = np.meshgrid(g.xi, g.eta, indexing="xy")

        (half_mass,) = _spectral_sums(half_spectrum(u), g, 1.0)
        np.testing.assert_allclose(half_mass, np.sum(power), rtol=1e-13, atol=0.0)

        spec = SobolevSpec(*s)
        mx, my = (1.0 + xi**2) ** s[0], (1.0 + eta**2) ** s[1]
        want = np.sqrt([np.sum(mx * power), np.sum(my * power), np.sum((1.0 + mx + my) * power)])
        got = [*directional_sobolev_norms(u, spec), sobolev_norm(u, spec)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

        # the quadratic part is a signed sum: compare on the scale of its terms
        mh = np.abs(xi) ** (a + 1.0)
        cubic = np.sum(u.samples**3) * g.dx * g.dy / 3.0
        quadratic = hamiltonian(u, DispersionParams(a)) - cubic
        assert abs(quadratic - np.sum((mh - eta**2) * power)) <= 1e-13 * np.sum(
            (mh + eta**2) * power
        )


class TestInvariants:
    def test_mass_and_hamiltonian_of_zero(self, grid_2pi):
        z = RealField2D(grid_2pi, np.zeros((grid_2pi.ny, grid_2pi.nx)))
        assert mass(z) == 0.0
        assert hamiltonian(z, DispersionParams(0.5)) == 0.0

    def test_sine_mode_closed_forms(self, grid_2pi):
        X, _ = grid_2pi.meshgrid()
        eps = 0.05
        u = RealField2D(grid_2pi, eps * np.sin(X))
        assert np.isclose(mass(u), 2.0 * np.pi**2 * eps**2, rtol=1e-12)
        # |xi| = 1 so the fractional term equals the mass; u_y = 0; odd cube
        for a in (0.0, 0.5, 1.0):
            assert np.isclose(
                hamiltonian(u, DispersionParams(a)),
                2.0 * np.pi**2 * eps**2,
                rtol=1e-12,
            )


class TestZeroModeAndMoments:
    def test_odd_in_x_vanishes(self, grid_box):
        X, Y = grid_box.meshgrid()
        u = RealField2D(grid_box, X * np.exp(-(X**2) - Y**2))
        assert np.max(np.abs(zero_mode_slice(u))) < 1e-13

    def test_gaussian_closed_form(self):
        g = make_grid(256, 256, 32.0, 32.0)
        X, Y = g.meshgrid()
        u = RealField2D(g, np.exp(-(X**2) - Y**2))
        zm = zero_mode_slice(u)
        expected = np.pi * np.exp(-g.eta**2 / 4.0)
        assert np.max(np.abs(zm - expected)) < 1e-8

    def test_even_moment_vanishes(self, grid_box):
        u = gaussian_field(grid_box, 1.0, 1.0, 1.0)
        assert abs(x_moment(u)) < 1e-12

    def test_shifted_gaussian_moment(self):
        g = make_grid(256, 256, 32.0, 32.0)
        X, Y = g.meshgrid()
        u = RealField2D(g, np.exp(-((X - 1.0) ** 2) - Y**2))
        assert abs(x_moment(u) - np.pi) < 1e-8

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.3, 2.0])
    def test_shifted_gaussian_moment_at_eta(self, eta):
        # int x exp(-i eta y) u = A cx sx sy pi exp(-i eta cy) exp(-eta^2 sy^2 / 4)
        amp, cx, cy, sx, sy = 0.7, 1.5, -2.0, 1.2, 1.8
        u = gaussian_field(make_grid(128, 128, 40.0, 40.0), amp, sx, sy, cx, cy)
        expected = amp * cx * sx * sy * np.pi * np.exp(-1j * eta * cy - eta**2 * sy**2 / 4.0)
        assert abs(x_moment(u, eta) - expected) <= 1e-12 * abs(expected)

    def test_localization_warning(self):
        g = make_grid(32, 32, 4.0, 4.0)
        u = gaussian_field(g, 1.0, 2.0, 2.0)  # spills over the box edge
        with pytest.warns(UserWarning):
            x_moment(u)


class TestInterxProbe:
    def _family(self, grid):
        return [
            gaussian_field(grid, 1.0, 1.0, 1.0),
            gaussian_field(grid, 0.7, 2.0, 1.0, cx=1.0),
            gaussian_field(grid, 1.3, 0.8, 1.5, cx=-2.0),
        ]

    def test_ratio_stable_under_grid_refinement(self):
        ratios = []
        for n in (64, 128, 256):
            g = make_grid(n, n, 32.0, 32.0)
            ratios.append(
                interx_probe(self._family(g), alpha=2.0, b=1.0, beta=0.5, N=np.inf)
            )
        slope = np.polyfit(np.log([64, 128, 256]), np.log(ratios), 1)[0]
        assert abs(slope) < 0.05

    def test_ratio_stable_in_truncation_level(self):
        g = make_grid(128, 128, 32.0, 32.0)
        levels = (2.0, 4.0, 8.0, 16.0)
        ratios = [
            interx_probe(self._family(g), alpha=2.0, b=1.0, beta=0.5, N=N)
            for N in levels
        ]
        slope = np.polyfit(np.log(levels), np.log(ratios), 1)[0]
        assert abs(slope) < 0.05

    def test_rejects_bad_beta(self, grid_2pi):
        with pytest.raises(ValueError):
            interx_probe([gaussian_field(grid_2pi)], 1.0, 1.0, 1.5)

    def test_rejects_empty_field_list(self):
        with pytest.raises(ValueError, match="fields must hold at least one field"):
            interx_probe([], alpha=2.0, b=1.0, beta=0.5)

    def test_zero_field_ratio_is_zero(self, grid_box):
        zero = RealField2D(grid_box, np.zeros((grid_box.ny, grid_box.nx)))
        assert interx_probe([zero], alpha=2.0, b=1.0, beta=0.5, N=8.0) == 0.0
        # next to a nonzero field, a zero field leaves the max unchanged
        family = self._family(grid_box)
        want = interx_probe(family, alpha=2.0, b=1.0, beta=0.5, N=8.0)
        assert interx_probe(family + [zero], alpha=2.0, b=1.0, beta=0.5, N=8.0) == want


class TestTruncatedLadderNorm:
    def test_monotone_in_level(self, grid_box):
        u = gaussian_field(grid_box, 1.0, 2.0, 2.0)
        vals = [truncated_x_norm(u, 2.0, N) for N in (2.0, 4.0, 8.0)]
        assert vals[0] <= vals[1] <= vals[2]
