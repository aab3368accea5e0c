import math
import platform

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from gbozk import fraclab, make_grid
from gbozk.fraclab import (
    SteinQuery,
    cutoff_phi,
    cutoff_phi_prime,
    dstein_profile,
    fit_exponent,
    gaussian_ensemble,
    grid_stein_rows,
    l2_membership_classify,
    lemma_df_probe,
    make_profile,
    phase_lemma_probe,
    stein_derivative,
)
from gbozk.fraclab import _profile_stein


def brute_force_stein(f, b, x, s_max=1e8, per_decade=2000):
    """Independent oracle: log-graded midpoint Riemann sum plus analytic
    corrections below the smallest offset and beyond the largest."""
    s = np.geomspace(1e-12, s_max, int(per_decade * 20))
    mid = np.sqrt(s[1:] * s[:-1])
    ds = np.diff(s)
    fx = f(x)
    h = np.abs(fx - f(x + mid)) ** 2 + np.abs(fx - f(x - mid)) ** 2
    total = np.sum(h * mid ** (-1.0 - 2.0 * b) * ds)
    fp = (f(x + 1e-6) - f(x - 1e-6)) / 2e-6
    total += 2.0 * abs(fp) ** 2 * s[0] ** (2.0 - 2.0 * b) / (2.0 - 2.0 * b)
    total += 2.0 * abs(fx) ** 2 * s_max ** (-2.0 * b) / (2.0 * b)
    return math.sqrt(total)


class TestCutoff:
    def test_plateau(self):
        assert cutoff_phi(0.5) == 1.0
        assert cutoff_phi(-0.99) == 1.0

    def test_support(self):
        assert cutoff_phi(2.5) == 0.0
        assert cutoff_phi(-3.0) == 0.0

    def test_blend_region(self):
        v = cutoff_phi(1.5)
        assert 0.0 < v < 1.0
        assert v == cutoff_phi(-1.5)
        x = np.linspace(1.0, 2.0, 200)
        assert np.all(np.diff(cutoff_phi(x)) <= 1e-15)  # monotone down

    def test_derivative_matches_finite_difference(self):
        for x in (1.2, 1.5, 1.8, -1.3):
            h = 1e-6
            fd = (cutoff_phi(x + h) - cutoff_phi(x - h)) / (2 * h)
            assert abs(cutoff_phi_prime(x) - fd) < 1e-8


class TestSteinDerivative:
    def test_constant_function_is_zero(self):
        res = stein_derivative(lambda y: 3.0, 0.5, 0.2)
        assert res.value == 0.0

    @pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
    def test_scaling_identity(self, lam):
        f = lambda y: np.exp(-(y**2))
        fl = lambda y: np.exp(-((lam * y) ** 2))
        for x in (0.0, 0.6):
            lhs = stein_derivative(fl, 0.5, x).value
            rhs = lam**0.5 * stein_derivative(f, 0.5, lam * x).value
            assert abs(lhs - rhs) / rhs < 1e-4

    @pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
    def test_brute_force_oracle_agreement(self, b):
        f = lambda y: np.exp(-(y**2))
        for x in (0.0, 0.7):
            engine = stein_derivative(f, b, x).value
            oracle = brute_force_stein(f, b, x)
            assert abs(engine - oracle) / oracle < 1e-4

    def test_norm_equivalence_constant(self):
        # || D^b_stein f ||^2 = C(b) || D^b_spectral f ||^2 with
        # C(b) = 4 int_0^inf (1 - cos s) s^{-1-2b} ds, for every f; checked
        # on Gaussians of several widths
        from scipy.integrate import quad

        for b in (0.25, 0.5, 0.75):
            cb = 4.0 * quad(
                lambda s: (1.0 - np.cos(s)) * s ** (-1.0 - 2.0 * b),
                0.0,
                np.inf,
                limit=800,
            )[0]
            for sigma in (1.0, 2.0):
                f = lambda y: np.exp(-((y / sigma) ** 2))
                X = 12.0 * sigma
                xs = np.linspace(-X, X, 241)
                vals = np.array(
                    [stein_derivative(f, b, x, epsrel=1e-8).value for x in xs]
                )
                stein_sq = np.trapezoid(vals**2, xs)
                # D^b f decays like |x|^{-1/2-b}; add the analytic tail
                # int_{|x|>X} int f(y)^2 |x-y|^{-1-2b} dy dx ~ ||f||^2 X^{-2b}/b
                f_l2sq = sigma * math.sqrt(math.pi / 2.0)
                stein_sq += f_l2sq * X ** (-2.0 * b) / b
                # spectral side: fhat = sigma sqrt(pi) exp(-sigma^2 xi^2/4)
                xi = np.linspace(-40 / sigma, 40 / sigma, 4001)
                fhat2 = np.pi * sigma**2 * np.exp(-(sigma**2) * xi**2 / 2.0)
                spec_sq = np.trapezoid(np.abs(xi) ** (2 * b) * fhat2, xi) / (
                    2.0 * np.pi
                )
                ratio = stein_sq / spec_sq
                assert abs(ratio - cb) / cb < 0.02

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            stein_derivative(lambda y: y, 1.2, 0.0)


class TestProfiles:
    def test_query_validation(self):
        prof = make_profile("power", alpha=1.0)
        with pytest.raises(ValueError):
            SteinQuery(1.2, prof, (1.0,))
        with pytest.raises(ValueError):
            SteinQuery(0.5, prof, (0.0, 1.0))

    def test_even_symmetry(self):
        prof = make_profile("power", alpha=0.8)
        q_pos = dstein_profile(SteinQuery(0.5, prof, (0.3, 1.1)))
        q_neg = dstein_profile(SteinQuery(0.5, prof, (-0.3, -1.1)))
        assert np.allclose(q_pos, q_neg, rtol=1e-6)

    def test_large_eta_decay_exponent(self):
        prof = make_profile("power", alpha=1.5)
        eta = np.geomspace(10.0, 200.0, 12)
        vals = dstein_profile(SteinQuery(0.8, prof, tuple(eta)))
        fit = fit_exponent(eta, vals)
        assert abs(fit.slope - (-1.3)) < 0.05

    def test_log_case_r_squared(self):
        prof = make_profile("power", alpha=0.5)
        eta = np.geomspace(1e-4, 1e-2, 10)
        vals = dstein_profile(SteinQuery(0.5, prof, tuple(eta)))
        A = np.vstack([-np.log(eta), np.ones(len(eta))]).T
        coef, *_ = np.linalg.lstsq(A, vals**2, rcond=None)
        fitted = A @ coef
        ss = 1.0 - np.sum((vals**2 - fitted) ** 2) / np.sum(
            (vals**2 - np.mean(vals**2)) ** 2
        )
        assert ss > 0.99

    def test_small_eta_blowup_exponent(self):
        # alpha < theta branch: D^theta grows like |eta|^{alpha - theta}
        prof = make_profile("power", alpha=0.5)
        eta = np.geomspace(1e-4, 1e-2, 10)
        vals = dstein_profile(SteinQuery(0.8, prof, tuple(eta)))
        fit = fit_exponent(eta, vals)
        assert abs(fit.slope - (-0.3)) < 0.05

    def test_small_eta_finite_limit(self):
        # alpha > theta branch: D^theta tends to the computable constant
        # c1 = (int f(y)^2 |y|^{-1-2 theta} dy)^{1/2}
        from scipy.integrate import quad

        alpha, theta = 1.0, 0.4
        prof = make_profile("power", alpha=alpha)
        c1sq = 2.0 * quad(
            lambda y: (y**alpha * cutoff_phi(y)) ** 2 * y ** (-1.0 - 2.0 * theta),
            0.0,
            2.0,
            points=[1.0],
            limit=400,
        )[0]
        val = dstein_profile(SteinQuery(theta, prof, (1e-6,)))[0]
        assert abs(val - math.sqrt(c1sq)) / math.sqrt(c1sq) < 1e-3


    def test_gamma_profile_accepts_arrays(self):
        prof = make_profile("gamma", gamma=0.3)
        y = np.array([-2.5, -1.5, -0.5, 0.0, 0.25, 1.0, 1.7, 3.0])
        out = prof(y)
        assert out.shape == y.shape
        assert out[3] == 0.0
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [prof(float(v)) for v in y], rtol=1e-14, atol=0.0)
        assert prof(0.0) == 0.0


class TestMembership:
    def test_gamma_family_non_member_at_gamma(self):
        prof = make_profile("gamma", gamma=0.3)
        ev = l2_membership_classify(prof, 0.3)
        assert ev.verdict == "non-member"

    def test_gamma_family_member_below_gamma(self):
        prof = make_profile("gamma", gamma=0.3)
        ev = l2_membership_classify(prof, 0.2)
        assert ev.verdict == "member"
        assert np.isfinite(ev.tail_extrapolation)

    def test_power_family_threshold_cells(self):
        for alpha, theta, want in (
            (1.5, 0.9, "member"),
            (0.5, 1.2, "non-member"),
            (1.0, 1.2, "member"),
        ):
            ev = l2_membership_classify(make_profile("power", alpha=alpha), theta)
            assert ev.verdict == want, (alpha, theta, ev.rule)

    def test_sign_family_threshold(self):
        # sgn profiles share the theta < alpha + 1/2 membership threshold
        ev_in = l2_membership_classify(make_profile("power_sign", alpha=0.5), 0.6)
        ev_out = l2_membership_classify(make_profile("power_sign", alpha=0.5), 1.2)
        assert ev_in.verdict == "member"
        assert ev_out.verdict == "non-member"

    def test_evidence_sequence_shape(self):
        ev = l2_membership_classify(make_profile("power", alpha=1.0), 0.6, n_octaves=10)
        assert len(ev.increments) == 10
        assert len(ev.norms) == 10
        assert np.all(np.diff(ev.norms) >= 0)


class TestFitExponent:
    def test_exact_power_law(self):
        x = np.geomspace(1.0, 100.0, 20)
        fit = fit_exponent(x, x ** (-1.3))
        assert abs(fit.slope + 1.3) < 1e-10
        assert fit.ci95 < 1e-9

    def test_constant_data(self):
        x = np.geomspace(1.0, 10.0, 12)
        fit = fit_exponent(x, np.full(12, 2.5))
        assert abs(fit.slope) < 1e-12

    def test_noisy_power_law(self):
        rng = np.random.default_rng(7)
        x = np.geomspace(1.0, 1000.0, 60)
        y = x**2.0 * (1.0 + 0.01 * rng.standard_normal(60))
        fit = fit_exponent(x, y)
        assert abs(fit.slope - 2.0) < 0.02

    def test_window_and_validation(self):
        x = np.geomspace(0.1, 100.0, 40)
        fit = fit_exponent(x, x**1.5, window=(1.0, 50.0))
        assert abs(fit.slope - 1.5) < 1e-10
        with pytest.raises(ValueError):
            fit_exponent(x[:5], x[:5])
        with pytest.raises(ValueError):
            fit_exponent(x, -np.ones_like(x))


class TestPhaseLemmas:
    def test_kind_p_exponents(self):
        r = phase_lemma_probe(
            "P", 0.5, np.geomspace(0.2, 3.0, 9), np.geomspace(0.5, 5.0, 10)
        )
        assert r.exponent_space.slope <= 2 * 0.5 + 0.05
        assert r.exponent_t.slope <= 0.5 + 0.05
        assert r.ok
        # the scaling is exact, so the fits are sharp as well
        assert abs(r.exponent_t.slope - 0.5) < 0.01
        assert abs(r.exponent_space.slope - 1.0) < 0.02

    def test_kind_pontual1_exponents(self):
        r = phase_lemma_probe(
            "Pontual1",
            0.5,
            np.geomspace(0.2, 2.0, 9),
            np.geomspace(3.0, 30.0, 10),
            a=0.5,
        )
        assert r.exponent_space.slope <= (1.0 + 0.5) * 0.5 + 0.05
        assert r.exponent_t.slope <= 0.5 + 0.05
        assert r.ok

    def test_constant_phase_at_t0(self):
        res = stein_derivative(lambda u: np.exp(0j * u), 0.5, 0.4)
        assert res.value == 0.0

    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
    def test_pure_phase_exact_constant(self, b):
        # D^b(exp(icx)) = C_b |c|^b exactly, with
        # C_b^2 = 8 int_0^inf sin^2(v/2) v^{-1-2b} dv
        from scipy.integrate import quad

        cb_sq = 8.0 * quad(
            lambda v: np.sin(v / 2.0) ** 2 * v ** (-1.0 - 2.0 * b),
            0.0,
            np.inf,
            limit=800,
        )[0]
        for c in (3.0, 11.0):
            val = stein_derivative(
                lambda u: np.exp(1j * c * u), b, 0.0, far_field="constant_modulus"
            ).value
            exact = np.sqrt(cb_sq) * c**b
            assert abs(val - exact) / exact < 1e-4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            phase_lemma_probe("Q", 0.5, [1.0], [1.0])


def _grid_stein_rows_dense(values: np.ndarray, dx: float, b: float) -> np.ndarray:
    """Row-wise D^b on a uniform grid (trapezoid sum + local and tail terms).

    ``values`` has shape (n_rows, n); each row is treated as samples of a
    function on a uniform grid with spacing dx that decays beyond the grid.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    rows, n = values.shape
    idx = np.arange(n)
    dist = np.abs(idx[None, :] - idx[:, None]) * dx
    with np.errstate(divide="ignore"):
        kernel = np.where(dist > 0, dist ** (-1.0 - 2.0 * b), 0.0) * dx
    out = np.empty((rows, n))
    # local cell: |g'|^2 * 2 (dx/2)^{2-2b} / (2-2b); slopes by central diff
    local_coef = 2.0 * (0.5 * dx) ** (2.0 - 2.0 * b) / (2.0 - 2.0 * b)
    # distances to the grid edges for the constant tail
    left = (idx + 0.5) * dx
    right = (n - idx - 0.5) * dx
    tail_coef = (left ** (-2.0 * b) + right ** (-2.0 * b)) / (2.0 * b)
    for r in range(rows):
        g = values[r]
        diff2 = np.abs(g[:, None] - g[None, :]) ** 2
        acc = np.sum(diff2 * kernel, axis=1)
        slope = np.empty(n)
        slope[1:-1] = np.abs(g[2:] - g[:-2]) / (2.0 * dx)
        slope[0] = np.abs(g[1] - g[0]) / dx
        slope[-1] = np.abs(g[-1] - g[-2]) / dx
        acc += local_coef * slope**2
        acc += np.abs(g) ** 2 * tail_coef
        out[r] = np.sqrt(acc)
    return out


def _stein_test_rows(kind, n_rows, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "real":
        return rng.normal(size=(n_rows, n))
    if kind == "complex":
        return rng.normal(size=(n_rows, n)) + 1j * rng.normal(size=(n_rows, n))
    # one spike per row, real or complex, anywhere including the edges
    rows = np.zeros((n_rows, n), dtype=complex if seed % 2 else float)
    amp = rng.uniform(0.5, 2.0, size=n_rows) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_rows))
    rows[np.arange(n_rows), rng.integers(0, n, size=n_rows)] = amp if seed % 2 else amp.real
    return rows


class TestGridStein:
    @pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
    def test_matches_pointwise_engine_on_gaussian(self, b):
        # moderate resolution grid evaluation vs adaptive quadrature
        x = np.linspace(-30.0, 30.0, 1201)
        g = np.exp(-(x**2))
        rows = grid_stein_rows(g[None, :], x[1] - x[0], b)
        for target in (0.0, 1.0):
            i = np.argmin(np.abs(x - target))
            ref = stein_derivative(lambda y: np.exp(-(y**2)), b, x[i]).value
            assert abs(rows[0, i] - ref) / ref < 2e-2

    @pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("c", [1.0, 3.0])
    def test_matches_pointwise_engine_on_complex_gaussian(self, b, c):
        # the probe feeds complex spectrum rows: a modulated Gaussian
        x = np.linspace(-30.0, 30.0, 1201)
        prof = lambda y: np.exp(-(y**2)) * np.exp(1j * c * y)  # noqa: E731
        rows = grid_stein_rows(prof(x)[None, :], x[1] - x[0], b)
        for target in (0.0, 1.0):
            i = np.argmin(np.abs(x - target))
            ref = stein_derivative(prof, b, x[i]).value
            assert abs(rows[0, i] - ref) / ref < 2e-2

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["real", "complex", "spike"]),
        n_rows=st.integers(1, 70),
        n=st.integers(8, 300),
        b=st.floats(0.05, 0.95),
        dx=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_kernel(self, kind, n_rows, n, b, dx, seed):
        rows = _stein_test_rows(kind, n_rows, n, seed)
        got = grid_stein_rows(rows, dx, b)
        assert not np.isnan(got).any()
        np.testing.assert_allclose(got, _grid_stein_rows_dense(rows, dx, b), rtol=1e-8, atol=0.0)

    def test_row_blocks_match_dense_kernel(self):
        # more rows than one internal block, real and complex
        for kind in ("real", "complex"):
            rows = _stein_test_rows(kind, 150, 40, seed=7)
            np.testing.assert_allclose(
                grid_stein_rows(rows, 0.3, 0.4), _grid_stein_rows_dense(rows, 0.3, 0.4),
                rtol=1e-8, atol=0.0,
            )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            grid_stein_rows(np.zeros((1, 8)), 0.1, 1.0)

    @pytest.mark.parametrize("shape", [(8,), (2, 3, 8), ()])
    def test_rejects_values_not_2d(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            grid_stein_rows(np.ones(shape), 0.1, 0.5)

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_rows_shorter_than_two(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            grid_stein_rows(np.ones((3, n)), 0.1, 0.5)

    @pytest.mark.parametrize("dx", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_spacing(self, dx):
        with pytest.raises(ValueError, match="dx"):
            grid_stein_rows(np.ones((1, 8)), dx, 0.5)


class TestLemmaDfProbe:
    def test_zero_field_ratio_zero(self):
        g = make_grid(32, 32, 16.0, 16.0)
        from gbozk import RealField2D

        z = RealField2D(g, np.zeros((32, 32)))
        r = lemma_df_probe(0.5, 1.0, 0.5, [z])
        assert r.max_ratio == 0.0

    def test_stationary_case_finite(self):
        g = make_grid(64, 64, 24.0, 24.0)
        fields = gaussian_ensemble(g, 4, seed=1)
        r = lemma_df_probe(0.5, 0.0, 0.5, fields)
        assert 0.0 < r.max_ratio < 10.0

    def test_ensemble_ratio_stable_under_refinement(self):
        vals = []
        for n in (64, 128):
            g = make_grid(n, n, 24.0, 24.0)
            fields = gaussian_ensemble(g, 6, seed=3)
            vals.append(lemma_df_probe(0.5, 1.0, 0.5, fields).max_ratio)
        assert abs(vals[1] - vals[0]) / vals[0] < 0.1

    def test_bounded_across_times(self):
        g = make_grid(64, 64, 24.0, 24.0)
        fields = gaussian_ensemble(g, 6, seed=5)
        ratios = [lemma_df_probe(0.5, t, 0.5, fields).max_ratio for t in (0.1, 1.0, 10.0)]
        assert max(ratios) < 10.0 * min(ratios)
        assert max(ratios) < 5.0

    def test_rejects_empty_field_list(self):
        with pytest.raises(ValueError, match="at least one field"):
            lemma_df_probe(0.5, 1.0, 0.5, [])

    def test_mixed_grids_match_single_grid_calls(self):
        fa = gaussian_ensemble(make_grid(32, 32, 16.0, 16.0), 2, seed=2)
        fb = gaussian_ensemble(make_grid(48, 32, 24.0, 16.0), 2, seed=4)
        mixed = lemma_df_probe(0.4, 0.7, 0.5, [fa[0], fb[0], fa[1], fb[1]]).ratios
        ra = lemma_df_probe(0.4, 0.7, 0.5, fa).ratios
        rb = lemma_df_probe(0.4, 0.7, 0.5, fb).ratios
        assert list(mixed) == [ra[0], rb[0], ra[1], rb[1]]

    # Ratios of the dense O(n^2) grid operator, before the FFT convolution:
    # (n, seed) -> {(theta, t, a): ratios of a 3-member ensemble on a 24 x 24 box}
    PINNED_RATIOS = {
        (64, 11): {
            (0.5, 1.0, 0.5): (0.46507216380229055, 0.37278830602353347, 0.33899323066377035),
            (0.3, 2.0, 1.0): (0.4115121420742738, 0.38186581574399914, 0.37406070815604564),
        },
        (128, 12): {
            (0.5, 1.0, 0.5): (0.34901316657212916, 0.3662543766280889, 0.36119518175513726),
            (0.3, 2.0, 1.0): (0.3762118941506845, 0.3845105960534518, 0.37332853315614384),
        },
    }

    @pytest.mark.parametrize("n, seed", list(PINNED_RATIOS))
    def test_regression_pins(self, n, seed):
        fields = gaussian_ensemble(make_grid(n, n, 24.0, 24.0), 3, seed=seed)
        for args, want in self.PINNED_RATIOS[(n, seed)].items():
            got = lemma_df_probe(*args, fields).ratios
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# --- scalar fast path ----------------------------------------------------------

_EDGES = [0.0, -0.0, 1.0 + 1e-12, 2.0 - 1e-12, -(1.0 + 1e-12), -(2.0 - 1e-12)]
for _e in (1.0, -1.0, 2.0, -2.0):
    _EDGES += [_e, math.nextafter(_e, -math.inf), math.nextafter(_e, math.inf)]


def _hex(v):
    return float(v).hex()


def _family_profile(kind, p):
    return make_profile(kind, **({"gamma": p} if kind == "gamma" else {"alpha": p}))


def _cutoff_numpy(x):
    """cutoff_phi and cutoff_phi_prime evaluated on a whole array by numpy."""
    ax = np.abs(x)
    with np.errstate(all="ignore"):
        sa = np.where(2.0 - ax > 0, np.exp(-1.0 / (2.0 - ax)), 0.0)
        sb = np.where(ax - 1.0 > 0, np.exp(-1.0 / (ax - 1.0)), 0.0)
        phi = np.where(ax <= 1.0, 1.0, np.where(ax >= 2.0, 0.0, sa / (sa + sb)))
        dsa, dsb = -sa / (2.0 - ax) ** 2, sb / (ax - 1.0) ** 2
        d_abs = (dsa * (sa + sb) - sa * (dsa + dsb)) / (sa + sb) ** 2
    mid = (ax > 1.0 + 1e-12) & (ax < 2.0 - 1e-12)
    return phi, np.where(mid, d_abs * np.sign(x), 0.0)


class TestScalarFastPath:
    """The cutoff is written for floats; arrays must get numpy's values bit for bit."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(x=st.one_of(st.sampled_from(_EDGES), st.floats(-3.0, 3.0), st.floats()))
    def test_cutoff_float_and_array_agree(self, x):
        for fn in (cutoff_phi, cutoff_phi_prime):
            val = fn(x)
            assert type(val) is float
            assert type(fn(np.float64(x))) is float
            assert _hex(fn(np.float64(x))) == _hex(val)
            zero_d, vec = fn(np.array(x)), fn(np.full(9, x))
            assert _hex(zero_d) == _hex(val)
            assert vec.shape == (9,) and all(_hex(v) == _hex(val) for v in vec)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        xs=st.lists(
            st.one_of(st.sampled_from(_EDGES), st.floats(-3.0, 3.0), st.floats()),
            min_size=1,
            max_size=20,  # spans one or two SIMD vectors plus a remainder
        )
    )
    def test_cutoff_matches_numpy_array_evaluation(self, xs):
        x = np.array(xs)
        for got, want in zip((cutoff_phi(x), cutoff_phi_prime(x)), _cutoff_numpy(x)):
            assert [_hex(v) for v in got] == [_hex(v) for v in want]

    def test_cutoff_matches_numpy_on_dense_sample(self):
        # numpy's vectorised exp differs from libm's in the last bit for a few
        # percent of arguments; a dense sample of the glue region finds them
        x = np.random.default_rng(0).uniform(-2.5, 2.5, 20000)
        for got, want in zip((cutoff_phi(x), cutoff_phi_prime(x)), _cutoff_numpy(x)):
            assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["power", "power_sign", "gamma"]),
        p=st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.05, 3.0)),
        x=st.one_of(
            st.sampled_from(_EDGES),
            st.floats(-3.0, 3.0),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
    def test_profile_scalar_matches_array(self, kind, p, x):
        # numpy computes ``array ** p`` with its vectorised pow but a numpy
        # scalar ``** p`` with the C library's, as Python floats do.  The two
        # can differ in the last bits, so the float branch is pinned bit for
        # bit to the 0-d (scalar) evaluation and to rounding on vectors.
        prof = _family_profile(kind, min(p, 1.0) if kind == "gamma" else p)
        for fn in (prof.fn, prof.derivative):
            if fn is None:
                continue
            val = fn(x)
            assert type(val) is float
            assert type(fn(np.float64(x))) is float
            assert _hex(fn(np.float64(x))) == _hex(val)
            with np.errstate(all="ignore"):
                zero_d = fn(np.array(x))
                vec = fn(np.full(9, x))
            assert _hex(zero_d) == _hex(val)
            assert np.allclose(vec, val, rtol=1e-13, atol=1e-13, equal_nan=True)


def _numeric_platform():
    """What the last bits of a quadrature result depend on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:
        cpu = {}
    return (
        np.__version__,
        scipy.__version__,
        platform.machine(),
        platform.libc_ver(),
        bool(cpu.get("AVX512F")),
    )


# The pins below were recorded with this numpy, scipy and C library on an
# x86-64 CPU with AVX512F.  numpy's AVX-512 exp differs from the C library's
# in the last bit for a few percent of arguments, and another QUADPACK build
# or libm may round differently, so the bits hold only there.  Elsewhere the
# values are checked to a relative 1e-5: quad's own error estimate for the
# power alpha = 1.5, b = 0.9 values is about 5e-6, and swapping numpy's exp for
# libm's moves one of them by 4e-7.
_PINNED_PLATFORM = ("2.4.6", "1.17.1", "x86_64", ("glibc", "2.36"), True)


class TestSteinRegressionPins:
    """Values recorded before the scalar fast path; they must not move."""

    EXACT = _numeric_platform() == _PINNED_PLATFORM

    def check(self, got, want_hex):
        want = [float.fromhex(w) for w in want_hex]
        if self.EXACT:
            assert [_hex(v) for v in got] == list(want_hex)
        else:
            assert np.allclose(got, want, rtol=1e-5, atol=0.0)

    POINTS = (0.25, -0.75, 1.5)
    PROFILE_VALUES = {
        ("power", 1.5, 0.9): (
            "0x1.40c9615e77519p+1", "0x1.fca259bd9645cp+1", "0x1.fb30135ba820ap+2",
        ),
        ("power_sign", 0.5, 0.4): (
            "0x1.0e62fa15d3436p+1", "0x1.02f90e732d146p+1", "0x1.03bb657e56be2p+1",
        ),
        ("gamma", 0.3, 0.3): (
            "0x1.411ca0ea1b96fp+1", "0x1.f1270cb60d201p+0", "0x1.b71d73c0dc0d5p+0",
        ),
    }
    INCREMENTS = (
        "0x1.62138b9dbf910p+1", "0x1.18f4bd0ee7336p+0", "0x1.21fd48907e42dp-1",
        "0x1.3d0dc5a3b7ab9p-2", "0x1.5995e45c57798p-3", "0x1.7144c3e65fd20p-4",
        "0x1.82c227f99b87ap-5", "0x1.8ecffd79f0060p-6", "0x1.96c1cfa3e3608p-7",
        "0x1.9bd5cb1666ef8p-8",
    )

    def test_profile_stein_values(self):
        for (kind, p, b), want in self.PROFILE_VALUES.items():
            prof = _family_profile(kind, p)
            self.check([_profile_stein(prof, b, x).value for x in self.POINTS], want)

    def test_membership_increments(self):
        ev = l2_membership_classify(make_profile("power", alpha=1.0), 0.6, n_octaves=10)
        self.check(ev.increments, self.INCREMENTS)
        self.check([ev.increment_slope], ["-0x1.ec289a60e3bc3p-1"])
        assert ev.verdict == "member"


class TestQuadratureReport:
    def test_error_and_evaluations_sum_over_panels(self, monkeypatch):
        calls = []
        quad = fraclab.quad

        def recording_quad(*args, **kwargs):
            calls.append(quad(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(fraclab, "quad", recording_quad)
        res = _profile_stein(make_profile("power", alpha=1.5), 0.9, 0.25)
        assert len(calls) > 1
        assert res.abserr == sum(err for _, err, _ in calls)
        assert res.n_evals == sum(n for _, _, n in calls)
        assert res.n_evals % 21 == 0  # 21-point Gauss-Kronrod panels
        assert 0.0 < res.abserr < 1e-3 * res.value**2

    def test_complex_profile_reports_too(self):
        res = stein_derivative(lambda y: np.exp(1j * y), 0.5, 0.0, far_field="constant_modulus")
        assert math.isfinite(res.abserr) and res.abserr >= 0.0
        assert res.n_evals > 0
