import dataclasses
import math
import platform
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from gbozk import fraclab, make_grid
from gbozk.fraclab import (
    Profile,
    cutoff_phi,
    cutoff_phi_prime,
    dstein_profile,
    fit_exponent,
    gaussian_ensemble,
    grid_stein_rows,
    l2_membership_classify,
    lemma_df_probe,
    make_profile,
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


def _stein_cb(b):
    """C(b) = 4 int_0^inf (1 - cos s) s^{-1-2b} ds = 2 pi / (Gamma(2b+1) sin(pi b)):
    D^b(exp(icx))^2 = C(b) |c|^{2b} and ||D^b_stein f||^2 = C(b) ||D^b_spectral f||^2."""
    return 2.0 * math.pi / (math.gamma(2.0 * b + 1.0) * math.sin(math.pi * b))


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

    def test_inner_window_wider_than_compact_radius(self):
        # delta = local_scale / 100 = 10 exceeds r = 2.5: the value must not
        # count the s in [r, delta] twice (inner window and exact remainder)
        f = make_profile("power", alpha=1.5).fn
        kw = dict(singular_points=(0.0, -1.0, 1.0, -2.0, 2.0), support_radius=2.0,
                  far_field="compact")
        ref = stein_derivative(f, 0.5, 0.5, local_scale=0.5, **kw).value
        wide = stein_derivative(f, 0.5, 0.5, local_scale=1000.0, **kw).value
        assert abs(wide - ref) / ref < 1e-12

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
        # || D^b_stein f ||^2 = C(b) || D^b_spectral f ||^2 for every f;
        # checked on Gaussians of several widths
        for b in (0.25, 0.5, 0.75):
            cb = _stein_cb(b)
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
            dstein_profile(prof, 1.2, (1.0,))
        with pytest.raises(ValueError):
            dstein_profile(prof, 0.5, (0.0, 1.0))

    @pytest.mark.parametrize("b, points", [(1.2, (1.0,)), (0.5, (1.0, 0.0))])
    def test_query_is_checked_before_any_quadrature(self, monkeypatch, b, points):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before the query checks")

        monkeypatch.setattr(fraclab, "_profile_stein", no_quadrature)
        with pytest.raises(ValueError):
            dstein_profile(make_profile("power", alpha=1.0), b, points)

    def test_even_symmetry(self):
        prof = make_profile("power", alpha=0.8)
        q_pos = dstein_profile(prof, 0.5, (0.3, 1.1))
        q_neg = dstein_profile(prof, 0.5, (-0.3, -1.1))
        assert np.allclose(q_pos, q_neg, rtol=1e-6)

    def test_large_eta_decay_exponent(self):
        prof = make_profile("power", alpha=1.5)
        eta = np.geomspace(10.0, 200.0, 12)
        vals = dstein_profile(prof, 0.8, tuple(eta))
        fit = fit_exponent(eta, vals)
        assert abs(fit - (-1.3)) < 0.05

    def test_log_case_r_squared(self):
        prof = make_profile("power", alpha=0.5)
        eta = np.geomspace(1e-4, 1e-2, 10)
        vals = dstein_profile(prof, 0.5, tuple(eta))
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
        vals = dstein_profile(prof, 0.8, tuple(eta))
        fit = fit_exponent(eta, vals)
        assert abs(fit - (-0.3)) < 0.05

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
        val = dstein_profile(prof, theta, (1e-6,))[0]
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_values_are_inconclusive(self):
        # at the smallest positive order the exact far-field term |f|^2 r^-2b / b
        # overflows, so every squared Stein value is inf; without increments
        # there is nothing to decide on, and no warning on the way
        ev = l2_membership_classify(make_profile("power", alpha=0.5), 5e-324, n_octaves=6)
        assert ev.verdict == "inconclusive"
        assert ev.rule == "13 of 13 squared Stein values not finite"
        assert len(ev.increments) == 6 and np.all(np.isnan(ev.increments))
        assert math.isnan(ev.increment_slope)

    @pytest.mark.parametrize("n_octaves, in_window", [(3, 0), (7, 3)])
    def test_short_fit_window_is_inconclusive(self, n_octaves, in_window):
        # alpha = 0.2 at theta = 0.9 is past the threshold 0.7 (a non-member);
        # fewer than 8 octaves leave fewer than the 4 increments a slope needs
        ev = l2_membership_classify(make_profile("power", alpha=0.2), 0.9, n_octaves=n_octaves)
        assert ev.verdict == "inconclusive"
        assert ev.rule.startswith(f"fit window holds {in_window} of the 4 increments")
        assert len(ev.increments) == n_octaves and np.all(np.isfinite(ev.increments))
        assert math.isnan(ev.increment_slope)

    def test_increments_that_underflow_to_zero_decay(self):
        # |y|^100 squares to 0 on the small octaves: those samples take the
        # trapezoid rule, and a fit window of zero increments has slope -inf
        ev = l2_membership_classify(make_profile("power", alpha=100.0), 0.0)
        assert ev.verdict == "member"
        assert ev.rule == "increments decay geometrically"
        assert ev.increment_slope == -math.inf
        assert np.all(ev.increments[-4:] == 0.0)

    def test_flat_slope_without_persistence_is_inconclusive(self):
        # q = 1/|y| gives equal increments (slope 0); a step of 1000 on
        # |y| >= 1/8 lifts the three early octaves, so the late increments
        # fall below 0.1 of them and neither divergence rule applies
        prof = Profile(
            lambda y: math.sqrt(1.0 / abs(y) + (1000.0 if abs(y) >= 0.125 else 0.0)),
            "step", None, -0.5,
        )
        ev = l2_membership_classify(prof, 0.0)
        assert ev.verdict == "inconclusive"
        assert ev.rule == "slope within the indeterminate band"
        assert abs(ev.increment_slope) <= 0.02

    @pytest.mark.parametrize("n_octaves", [0, -1])
    def test_rejects_fewer_than_one_octave(self, n_octaves):
        with pytest.raises(ValueError, match="n_octaves must be at least 1"):
            l2_membership_classify(make_profile("power", alpha=0.2), 0.9, n_octaves=n_octaves)


def _parent_increment_verdict(increments, first):
    """The classifier's decision block as it stood before it moved into
    fraclab._increment_verdict, with the band and floor as literals; the
    classifier appends the "(n_octaves < 8)" of its short-window rule."""
    ks = np.arange(increments.size)
    fit_win = increments[first:]
    kfit = ks[first:]
    positive = fit_win > 0
    slope = math.nan
    if positive.sum() >= 4:
        coef = np.polyfit(kfit[positive], np.log2(fit_win[positive]), 1)
        slope = float(coef[0])
    elif fit_win.size >= 4:
        slope = -math.inf

    early = float(np.max(increments[:3]))
    late = float(np.mean(increments[-3:]))

    if fit_win.size < 4:
        verdict = "inconclusive"
        rule = f"fit window holds {fit_win.size} of the 4 increments a slope needs"
    elif slope > 0.02:
        verdict, rule = "non-member", "increments grow (power divergence)"
    elif slope < -0.02:
        verdict, rule = "member", "increments decay geometrically"
    elif early > 0 and late > 0.1 * early:
        verdict, rule = "non-member", "increments persist (log divergence)"
    else:
        verdict, rule = "inconclusive", "slope within the indeterminate band"
    return verdict, rule, slope


def _verdict_outcome(decide, increments, first):
    """(verdict, rule, slope bits), or the exception type; a warning counts
    as an exception, as the suite's RuntimeWarning filter makes it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            verdict, rule, slope = decide(increments.copy(), first)
        except Exception as exc:  # the type is the outcome
            return type(exc)
    return verdict, rule, np.float64(slope).tobytes()


_SPECIAL_INCREMENTS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 1e300, 1.7e308,
                       math.inf, -math.inf, math.nan]


@st.composite
def _increment_arrays(draw):
    n = draw(st.integers(1, 24))
    if draw(st.integers(0, 3)) == 0:
        entry = st.one_of(st.sampled_from(_SPECIAL_INCREMENTS), st.floats())
        return np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    # near-geometric increments c 2^(s k) around the slope band, the early
    # octaves lifted so that late / early falls on both sides of the
    # persistence floor 0.1, and a few entries swapped for special values
    c = draw(st.floats(1e-300, 1e300))
    s = draw(st.one_of(st.floats(-0.03, 0.03), st.sampled_from([-1.0, -0.05, 0.05, 1.0])))
    lift = draw(st.one_of(st.just(1.0), st.floats(8.0, 12.5)))
    noise = draw(st.lists(st.floats(0.98, 1.02), min_size=n, max_size=n))
    inc = [c * 2.0 ** (s * k) * e * (lift if k < 3 else 1.0) for k, e in enumerate(noise)]
    if draw(st.booleans()):
        for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            inc[k] = draw(st.sampled_from(_SPECIAL_INCREMENTS))
    return np.array(inc)


class TestIncrementVerdict:
    """fraclab._increment_verdict is the classifier's former decision block."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(increments=_increment_arrays())
    def test_matches_the_parent_decision_block(self, increments):
        for first in range(increments.size + 2):
            want = _verdict_outcome(_parent_increment_verdict, increments, first)
            got = _verdict_outcome(fraclab._increment_verdict, increments, first)
            assert got == want, (increments.tolist(), first)


class TestOctaveSampling:
    """Neighbouring octaves share their end points: each eta is evaluated once."""

    @pytest.mark.parametrize("n_octaves", [10, 18])
    def test_stein_regime_evaluates_2n_plus_1_points(self, monkeypatch, n_octaves):
        etas = []
        profile_stein = fraclab._profile_stein

        def counting(profile, b, x, epsrel=1e-10, inner_limit=200):
            etas.append(x)
            return profile_stein(profile, b, x, epsrel=epsrel, inner_limit=inner_limit)

        monkeypatch.setattr(fraclab, "_profile_stein", counting)
        ev = l2_membership_classify(make_profile("power", alpha=1.0), 0.6, n_octaves=n_octaves)
        assert len(etas) == len(set(etas)) == 2 * n_octaves + 1
        assert min(etas) == 2.0**-n_octaves and max(etas) == 1.0
        assert len(ev.increments) == n_octaves

    def test_order_zero_evaluates_each_eta_once(self):
        # gamma = 0 puts |y|^{-1/2} outside L^2 at its kink: classified at order 0
        etas = []
        prof = make_profile("gamma", gamma=0.0)
        counting = dataclasses.replace(prof, fn=lambda y: etas.append(y) or prof.fn(y))
        ev = l2_membership_classify(counting, 0.3, n_octaves=10)
        assert ev.rule.endswith("(profile not square-integrable near 0)")
        assert len(etas) == len(set(etas)) == 21


class TestFitExponent:
    def test_exact_power_law(self):
        x = np.geomspace(1.0, 100.0, 20)
        fit = fit_exponent(x, x ** (-1.3))
        assert abs(fit + 1.3) < 1e-10

    def test_constant_data(self):
        x = np.geomspace(1.0, 10.0, 12)
        fit = fit_exponent(x, np.full(12, 2.5))
        assert abs(fit) < 1e-12

    def test_noisy_power_law(self):
        rng = np.random.default_rng(7)
        x = np.geomspace(1.0, 1000.0, 60)
        y = x**2.0 * (1.0 + 0.01 * rng.standard_normal(60))
        fit = fit_exponent(x, y)
        assert abs(fit - 2.0) < 0.02

    def test_window_and_validation(self):
        x = np.geomspace(0.1, 100.0, 40)
        w = x[(x >= 1.0) & (x <= 50.0)]
        fit = fit_exponent(w, w**1.5)
        assert abs(fit - 1.5) < 1e-10
        with pytest.raises(ValueError):
            fit_exponent(x[:5], x[:5])
        with pytest.raises(ValueError):
            fit_exponent(x, -np.ones_like(x))


def _phase_stein(fn, b, x):
    return stein_derivative(fn, b, x, far_field="constant_modulus", epsrel=1e-9).value


def _phase_exponents(value, t_grid, space_grid, s_ref):
    """Exponents of ``value(t, s)`` fitted along ``t_grid`` at ``s_ref`` and
    along ``space_grid`` at the median t."""
    t_ref = float(np.median(t_grid))
    return (
        fit_exponent(t_grid, [value(t, s_ref) for t in t_grid]),
        fit_exponent(space_grid, [value(t_ref, s) for s in space_grid]),
    )


class TestPhaseLemmas:
    def test_kind_p_exponents(self):
        # f(x) = exp(i t eta^2 x): D^b f does not depend on x (read at x = 0)
        # and scales exactly as (t eta^2)^b, so its exponents are b in t (at
        # the median eta) and 2b in eta
        b, t_grid, eta_grid = 0.5, np.geomspace(0.2, 3.0, 9), np.geomspace(0.5, 5.0, 10)

        def value(t, eta):
            c = t * eta**2
            return _phase_stein(lambda u: np.exp(1j * c * u), b, 0.0)

        exponent_t, exponent_space = _phase_exponents(
            value, t_grid, eta_grid, float(np.median(eta_grid))
        )
        assert exponent_space <= 2 * b + 0.05
        assert exponent_t <= b + 0.05
        # the scaling is exact, so the fits are sharp as well
        assert abs(exponent_t - 0.5) < 0.01
        assert abs(exponent_space - 1.0) < 0.02

    def test_kind_pontual1_exponents(self):
        # f(x) = exp(-i t x |x|^{1+a}) on a large-|x| window: the exponent
        # in x is at most (1+a) b, in t (at the largest x) at most b
        a, b, t_grid, x_grid = 0.5, 0.5, np.geomspace(0.2, 2.0, 9), np.geomspace(3.0, 30.0, 10)

        def value(t, x):
            return _phase_stein(lambda u: np.exp(-1j * t * u * np.abs(u) ** (1.0 + a)), b, x)

        exponent_t, exponent_space = _phase_exponents(value, t_grid, x_grid, float(x_grid[-1]))
        assert exponent_space <= (1.0 + a) * b + 0.05
        assert exponent_t <= b + 0.05

    def test_constant_phase_at_t0(self):
        res = stein_derivative(lambda u: np.exp(0j * u), 0.5, 0.4)
        assert res.value == 0.0

    @pytest.mark.parametrize("b", [0.25, 0.3, 0.5, 0.7, 0.75])
    def test_pure_phase_exact_constant(self, b):
        # D^b(exp(icx)) = sqrt(C(b)) |c|^b exactly
        for c in (3.0, 11.0):
            val = stein_derivative(
                lambda u: np.exp(1j * c * u), b, 0.0, far_field="constant_modulus"
            ).value
            exact = math.sqrt(_stein_cb(b)) * c**b
            assert abs(val - exact) / exact < 1e-4

    def test_compact_far_field_needs_a_support_radius(self):
        with pytest.raises(ValueError, match="compact far field needs a support radius"):
            stein_derivative(cutoff_phi, 0.5, 0.3, far_field="compact")

    def test_unknown_far_field_is_rejected_before_quadrature(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fraclab, "quad", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match="unknown far_field 'compakt'"):
            stein_derivative(cutoff_phi, 0.5, 0.3, far_field="compakt")
        assert calls == []


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

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["real", "complex", "spike"]),
        n_rows=st.integers(1, 70),
        n=st.integers(8, 300),
        b=st.floats(0.05, 0.95),
        dx=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_square_sum_by_plancherel(self, kind, n_rows, n, b, dx, seed):
        # one forward transform per block gives the sum of the squared rows
        rows = _stein_test_rows(kind, n_rows, n, seed)
        got = fraclab._grid_stein_sq_sum(rows, dx, b)
        assert isinstance(got, float)
        assert got == pytest.approx(np.sum(_grid_stein_rows_dense(rows, dx, b) ** 2), rel=1e-12)
        assert got == pytest.approx(np.sum(grid_stein_rows(rows, dx, b) ** 2), rel=1e-12)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        n_rows=st.integers(1, 70),
        n=st.integers(2, 600),
        dx=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_central_slope_is_np_gradient_bitwise(self, n_rows, n, dx, seed):
        # the local-cell slopes keep np.gradient's bits on complex blocks
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n_rows, n)) + 1j * rng.standard_normal((n_rows, n))
        got = fraclab._central_slope(g, dx)
        want = np.gradient(g, dx, axis=1)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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


def _meshgrid_ensemble(grid, n_members, seed):
    """gaussian_ensemble as written on full coordinate meshgrids."""
    rng = np.random.default_rng(seed)
    X, Y = grid.meshgrid()
    fields = []
    max_c = min(grid.lx, grid.ly) / 8.0
    for _ in range(n_members):
        u = np.zeros_like(X)
        for _ in range(rng.integers(1, 4)):
            amp = rng.uniform(-1.0, 1.0)
            cx, cy = rng.uniform(-max_c, max_c, size=2)
            sx, sy = rng.uniform(0.6, 1.8, size=2)
            u += amp * np.exp(-((X - cx) ** 2) / sx**2 - ((Y - cy) ** 2) / sy**2)
        fields.append(u)
    return fields


def _meshgrid_probe_grid(g, theta, t, a):
    """_df_probe_grid's arrays built on the full wavenumber meshgrid: the
    argsort xi order, the full phase in fft column order and the
    multipliers."""
    from gbozk.propagator import dispersion_symbol

    xi, eta = np.meshgrid(g.xi, g.eta, indexing="xy")
    order = np.argsort(g.xi)
    phase = np.exp(1j * t * dispersion_symbol(xi, eta, a))
    m_eta = np.abs(g.eta[:, None]) ** (4.0 * theta)
    m_xi = np.abs(g.xi[: g.nx // 2 + 1]) ** (2.0 * (1 + a) * theta)
    return order, phase, m_eta, m_xi, np.abs(g.x) ** theta


_BUILD_GRIDS = [
    (32, 32, 16.0, 16.0), (64, 48, 24.0, 20.0), (48, 128, 20.0, 30.0), (128, 128, 32.0, 32.0),
]


class TestProbeBuildBits:
    """The probe's inputs are built from broadcast vectors with the meshgrid bits."""

    @pytest.mark.parametrize("shape", _BUILD_GRIDS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_ensemble_matches_meshgrid_build(self, shape, seed):
        g = make_grid(*shape)
        got = gaussian_ensemble(g, 3, seed=seed)
        want = _meshgrid_ensemble(g, 3, seed)
        assert [f.samples.tobytes() for f in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("shape", _BUILD_GRIDS)
    @pytest.mark.parametrize("t", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    def test_probe_grid_matches_meshgrid_build(self, shape, t, a):
        # the half phase is the meshgrid phase's rows 0..ny/2 and columns
        # 0..nx/2 byte for byte, and the meshgrid phase's rows past ny/2
        # repeat rows ny/2-1..1 byte for byte; mirrored into xi order it is
        # the argsort-ordered phase (under ==: at t = 0 the conjugated half
        # carries -0.0 imaginary parts)
        g = make_grid(*shape)
        h, half = g.nx // 2, g.ny // 2
        for theta in (0.3, 0.5):
            phase, neg_eta, *rest = fraclab._df_probe_grid(g, theta, t, a)
            order, full, *want = _meshgrid_probe_grid(g, theta, t, a)
            assert phase.tobytes() == full[: half + 1, : h + 1].tobytes()
            assert full[half + 1 :].tobytes() == full[half - 1 : 0 : -1].tobytes()
            assert np.all((g.ky[neg_eta] + g.ky) % g.ny == 0)
            mirrored = fraclab._mirrored_rows(
                np.empty((g.ny, g.nx), complex), np.empty((g.ny, h + 1), complex),
                phase, np.ones((g.ny, h + 1), complex), neg_eta, 0,
            )
            assert np.array_equal(mirrored, full[:, order])
            assert [x.tobytes() for x in rest] == [x.tobytes() for x in want]


def _full_spectrum_probe_ratio(theta, t, a, f):
    """lemma_df_probe's ratio for one nonzero field from the full complex
    spectrum: to_spectral, the rows gathered into increasing-xi order and one
    _grid_stein_sq_sum over all of them."""
    from gbozk.diagnostics import _spectral_sums, _weighted_l2
    from gbozk.propagator import dispersion_symbol
    from gbozk.spectral import to_spectral

    g = f.grid
    order = np.argsort(g.xi)
    phase = np.exp(1j * t * dispersion_symbol(g.xi[order][None, :], g.eta[:, None], a))
    coeffs = to_spectral(f).coeffs
    rows = phase * coeffs[:, order]
    dxi, deta = 2.0 * np.pi / g.lx, 2.0 * np.pi / g.ly
    lhs = np.sqrt(fraclab._grid_stein_sq_sum(rows, dxi, theta) * dxi * deta) / (2.0 * np.pi)
    m_eta = np.abs(g.eta[:, None]) ** (4.0 * theta)
    m_xi = np.abs(g.xi[: g.nx // 2 + 1]) ** (2.0 * (1 + a) * theta)
    l2, dy, dxn = np.sqrt(_spectral_sums(coeffs[:, : g.nx // 2 + 1], g, 1.0, m_eta, m_xi))
    rhs = fraclab.rho_weight(t, theta) * (l2 + dy + dxn) + _weighted_l2(f, np.abs(g.x) ** theta)
    return lhs / rhs


class TestLemmaDfProbe:
    def test_zero_field_ratio_zero(self):
        g = make_grid(32, 32, 16.0, 16.0)
        from gbozk import RealField2D

        z = RealField2D(g, np.zeros((32, 32)))
        r = lemma_df_probe(0.5, 1.0, 0.5, [z])
        assert r.max_ratio == 0.0

    def test_rho_weight_rejects_negative_time(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            fraclab.rho_weight(-1.0, 0.5)

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

    @pytest.mark.parametrize("theta", [0.0, 1.0, math.nan])
    def test_rejects_order_outside_the_unit_interval(self, theta):
        with pytest.raises(ValueError, match="theta must lie in"):
            lemma_df_probe(theta, 1.0, 0.5, [object()])

    @pytest.mark.parametrize(
        "t, a, match",
        [(1.0, 5.0, "a must"), (1.0, -1.0, "a must"), (1.0, math.nan, "a must"),
         (-1.0, 0.5, "t must"), (math.inf, 0.5, "t must"), (math.nan, 0.5, "t must")],
    )
    def test_rejects_bad_time_and_dispersion_before_reading_fields(self, t, a, match):
        from gbozk import RealField2D

        g = make_grid(32, 32, 16.0, 16.0)
        zero = RealField2D(g, np.zeros((32, 32)))
        (nonzero,) = gaussian_ensemble(g, 1, seed=1)
        # a zero field, a nonzero field and something that is no field at all
        for fields in ([zero], [nonzero], [object()]):
            with pytest.raises(ValueError, match=match):
                lemma_df_probe(0.5, t, a, fields)

    def test_mixed_grids_match_single_grid_calls(self):
        fa = gaussian_ensemble(make_grid(32, 32, 16.0, 16.0), 2, seed=2)
        fb = gaussian_ensemble(make_grid(48, 32, 24.0, 16.0), 2, seed=4)
        mixed = lemma_df_probe(0.4, 0.7, 0.5, [fa[0], fb[0], fa[1], fb[1]]).ratios
        ra = lemma_df_probe(0.4, 0.7, 0.5, fa).ratios
        rb = lemma_df_probe(0.4, 0.7, 0.5, fb).ratios
        assert list(mixed) == [ra[0], rb[0], ra[1], rb[1]]

    @pytest.mark.parametrize("amp", [1e-200, 1e-170, 1e-100, 1e-10, 1e10, 1e160, 1e200])
    def test_ratio_invariant_under_amplitude(self, amp):
        # both sides are degree one in f: a tiny field is not read as zero and
        # a huge one does not overflow its squares
        from gbozk import RealField2D

        g = make_grid(64, 64, 24.0, 24.0)
        (f,) = gaussian_ensemble(g, 1, seed=3)
        want = lemma_df_probe(0.5, 1.0, 0.5, [f]).ratios[0]
        got = lemma_df_probe(0.5, 1.0, 0.5, [RealField2D(g, f.samples * amp)]).ratios[0]
        assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=40, deadline=None, database=None)
    @given(k=st.integers(-400, 400), seed=st.integers(0, 50))
    def test_power_of_two_scaling_is_exact(self, k, seed):
        # the scaling to max |f| in [1/2, 1) is exact, so a field scaled by
        # 2^k gives the same ratio bit for bit
        from gbozk import RealField2D

        g = make_grid(64, 48, 24.0, 20.0)
        (f,) = gaussian_ensemble(g, 1, seed=seed)
        # Gaussian tails reach the subnormal range; below 1e-100 they are set
        # to zero so that the input scaling by 2^k is itself exact
        f.samples[np.abs(f.samples) < 1e-100] = 0.0
        scaled = np.ldexp(f.samples, k)
        assert np.array_equal(np.ldexp(scaled, -k), f.samples)
        want = lemma_df_probe(0.4, 0.7, 0.5, [f]).ratios[0]
        assert lemma_df_probe(0.4, 0.7, 0.5, [RealField2D(g, scaled)]).ratios[0] == want

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        nx=st.integers(4, 100).map(lambda k: 2 * k),
        ny=st.integers(4, 100).map(lambda k: 2 * k),
        lx=st.floats(8.0, 40.0),
        ly=st.floats(8.0, 40.0),
        theta=st.floats(0.01, 0.99),
        t=st.floats(0.0, 10.0),
        a=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_spectrum_probe(self, nx, ny, lx, ly, theta, t, a, seed):
        # the streamed half-spectrum probe against the full-spectrum one;
        # ny up to 200 crosses the 64-row block boundary
        fields = gaussian_ensemble(make_grid(nx, ny, lx, ly), 2, seed=seed)
        got = lemma_df_probe(theta, t, a, fields).ratios
        want = [_full_spectrum_probe_ratio(theta, t, a, f) for f in fields]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @staticmethod
    def _traced_peak_fields():
        """Traced peak of a second probe call (after one warm-up call) on a
        4-member 256^2 ensemble, in units of one 256^2 float64 field."""
        import tracemalloc

        g = make_grid(256, 256, 32.0, 32.0)
        fields = gaussian_ensemble(g, 4, seed=1)
        lemma_df_probe(0.5, 1.0, 0.5, fields)
        tracemalloc.start()
        try:
            lemma_df_probe(0.5, 1.0, 0.5, fields)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (g.nx * g.ny * 8)

    def test_traced_peak_below_six_and_a_half_fields(self):
        # streamed blocks: no full complex spectrum, phase or gathered rows
        assert self._traced_peak_fields() < 6.5

    def test_traced_peak_at_most_four_point_eight_fields(self):
        # one spectrum-sized array per half spectrum, and each member's
        # spectrum freed before the next member's is formed
        assert self._traced_peak_fields() <= 4.8

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
            assert vec.shape == (9,) and all(_hex(v) == _hex(val) for v in vec)


# The profiles' Python-float branch against the composition it replaced, a
# test-local copy: the cutoff with numpy's exp, |y|^p with numpy's inf where
# Python raises, and the two-term derivatives.

def _ref_bump(t):
    return float(np.exp(-1.0 / t)) if t > 0.0 else 0.0


def _ref_phi(x):
    ax = abs(x)
    if ax <= 1.0:
        return 1.0
    if ax < 2.0:
        sa, sb = _ref_bump(2.0 - ax), _ref_bump(ax - 1.0)
        return sa / (sa + sb)
    return 0.0 if ax >= 2.0 else math.nan


def _ref_phi_prime(x):
    ax = abs(x)
    if not 1.0 + 1e-12 < ax < 2.0 - 1e-12:
        return 0.0
    ta, tb = 2.0 - ax, ax - 1.0
    sa, sb = _ref_bump(ta), _ref_bump(tb)
    dsa, dsb = -sa / (ta * ta), sb / (tb * tb)
    d_abs = (dsa * (sa + sb) - sa * (dsa + dsb)) / ((sa + sb) * (sa + sb))
    return d_abs if x > 0.0 else -d_abs


def _ref_abs_pow(y, p):
    try:
        return abs(y) ** p
    except (ZeroDivisionError, OverflowError):
        with np.errstate(divide="ignore", over="ignore"):
            return float(np.float64(abs(y)) ** p)


def _ref_sign(y):
    return 1.0 if y > 0.0 else -1.0 if y < 0.0 else 0.0 if y == 0.0 else math.nan


def _ref_family(kind, p):
    """(fn, derivative) of a family, composed as before the float branch."""
    if kind == "power":
        return (
            lambda y: _ref_abs_pow(y, p) * _ref_phi(y),
            lambda y: p * _ref_sign(y) * _ref_abs_pow(y, p - 1.0) * _ref_phi(y)
            + _ref_abs_pow(y, p) * _ref_phi_prime(y),
        )
    if kind == "power_sign":
        return (
            lambda y: _ref_abs_pow(y, p) * _ref_sign(y) * _ref_phi(y),
            lambda y: p * _ref_abs_pow(y, p - 1.0) * _ref_phi(y)
            + _ref_abs_pow(y, p) * _ref_sign(y) * _ref_phi_prime(y),
        )
    g1 = p - 0.5
    return (lambda y: _ref_abs_pow(y, g1) * _ref_phi(y) if y != 0.0 else 0.0), None


# at 0 a negative exponent gives numpy's inf, where Python raises, and 1e308
# overflows for exponents above 1
_BRANCH_EDGES = [0.0, 1.0, 2.0, 2.0**-1074, 1e308, math.nextafter(1.0, 2.0),
                 math.nextafter(2.0, 1.0), 1.0 + 1e-12, 2.0 - 1e-12]
_BRANCH_EDGES += [-y for y in _BRANCH_EDGES]


class TestProfileFloatBranch:
    """Each family's float branch gives its old composition's bits."""

    # a glue region 1 < |y| < 2 sample, dense enough to meet the few percent
    # of arguments where numpy's exp and the C library's differ in the last bit
    GLUE = np.random.default_rng(1).uniform(1.0, 2.0, 4000) * np.resize([1.0, -1.0], 4000)

    @pytest.mark.parametrize(
        "kind, p",
        [("power", a) for a in (1.5, 1.0, 0.5, 2.0, 0.3, -0.3)]
        + [("power_sign", a) for a in (0.5, 1.5, 1.0, -0.3)]
        # gamma = -1.5: |y|^-2 overflows Python's float power at 2^-1074
        + [("gamma", g) for g in (0.3, 0.8, 1.2, -0.2, -1.5)],
    )
    def test_float_branch_bits(self, kind, p):
        prof = _family_profile(kind, p)
        ys = _BRANCH_EDGES + self.GLUE.tolist() + np.linspace(-3.0, 3.0, 601).tolist()
        for got, want in zip((prof.fn, prof.derivative), _ref_family(kind, p)):
            if want is None:
                assert got is None
                continue
            for y in ys:
                val = got(y)
                assert type(val) is float
                assert _hex(val) == _hex(want(y)), (kind, p, y)


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
        assert res.abserr == sum(err for _, err, _, _ in calls)
        assert res.n_evals == sum(n for _, _, n, _ in calls)
        assert res.n_evals % 21 == 0  # 21-point Gauss-Kronrod panels
        assert 0.0 < res.abserr < 1e-3 * res.value**2

    def test_unconverged_panels_are_counted(self, monkeypatch):
        # at the classifier's epsrel the inner window of this profile runs into
        # QUADPACK's subdivision limit (ier = 1), which the result must count
        calls = []
        quad = fraclab.quad

        def recording_quad(fn, a, b, **kwargs):
            calls.append(((a, b, kwargs["limit"]), quad(fn, a, b, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(fraclab, "quad", recording_quad)
        res = _profile_stein(make_profile("power", alpha=1.5), 0.9, 0.25, epsrel=1e-7)
        assert ((0.0, 1.0, 200), 1) in [(panel, out[3]) for panel, out in calls]
        assert res.n_unconverged == sum(out[3] != 0 for _, out in calls) >= 1
        assert res.abserr == sum(out[1] for _, out in calls)

    def test_rejected_tolerance_raises(self):
        # below 50 machine epsilons QUADPACK computes nothing (ier = 6)
        with pytest.raises(ValueError, match="invalid quadrature input"):
            stein_derivative(cutoff_phi, 0.5, 0.5, epsrel=1e-16)

    def test_complex_profile_reports_too(self):
        res = stein_derivative(lambda y: np.exp(1j * y), 0.5, 0.0, far_field="constant_modulus")
        assert math.isfinite(res.abserr) and res.abserr >= 0.0
        assert res.n_evals > 0


class TestClassifierBudget:
    """The classifier's inner windows stop at the subdivision budget their accuracy can use."""

    def test_evaluations_stay_within_budget(self, monkeypatch):
        # at this order the inner windows of this profile stop at a roundoff
        # floor that no subdivision limit lowers; they must stay flagged
        calls = []
        quad = fraclab.quad

        def recording_quad(fn, a, b, **kwargs):
            calls.append(((a, b), quad(fn, a, b, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(fraclab, "quad", recording_quad)
        l2_membership_classify(make_profile("power", alpha=1.5), 0.9)
        assert sum(out[2] for _, out in calls) <= 60_000
        assert sum(panel == (0.0, 1.0) and out[3] == 1 for panel, out in calls) == 37

    @pytest.mark.parametrize("eta", [2.0**-16, 2.0**-10, 2.0**-6, 2.0**-2, 1.0])
    def test_values_match_the_default_path(self, eta):
        prof = make_profile("power", alpha=1.5)
        got = _profile_stein(prof, 0.9, eta, epsrel=fraclab._CLASSIFY_EPSREL,
                             inner_limit=fraclab._CLASSIFY_INNER_LIMIT).value
        assert got == pytest.approx(_profile_stein(prof, 0.9, eta).value, rel=2e-5, abs=0.0)
