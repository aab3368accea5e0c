"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time
import warnings

import numpy as np
import pytest

from gbozk import (
    DispersionParams,
    SolverConfig,
    apply_linear_propagator,
    evolve,
    make_grid,
    xi_expansion_check,
)
from gbozk.config import DiagnosticsPlan, InitialData, RunConfig
from gbozk.diagnostics import hamiltonian, interx_probe, mass, zero_mode_slice
from gbozk.experiments import uc_compare
from gbozk.fraclab import (
    dstein_profile,
    fit_exponent,
    gaussian_ensemble,
    l2_membership_classify,
    lemma_df_probe,
    make_profile,
    stein_derivative,
)
from gbozk.solver import Stepper
from gbozk.spectral import _from_half, half_spectrum

from conftest import gaussian_field, hermitian_fill
from test_fraclab import brute_force_stein

warnings.filterwarnings("ignore", message="x_moment")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


# --- shared conservation run (criteria 2 and 3) --------------------------------

@pytest.fixture(scope="module")
def conservation_run():
    g = make_grid(256, 256, 32.0, 32.0)
    u0 = gaussian_field(g, 0.5, 1.0, 2.0)
    p = DispersionParams(0.5)
    zm0 = zero_mode_slice(u0)
    obs = lambda t, u: {
        "mass": mass(u),
        "ham": hamiltonian(u, p),
        "zm_dev": float(np.max(np.abs(zero_mode_slice(u) - zm0))),
    }
    cfg = SolverConfig(dt=1e-3, T=1.0, params=p)
    traj = evolve(u0, cfg, observe=obs, stride=50)
    return traj


class TestCriterion1LinearExactness:
    def test_linear_exactness_all_a(self):
        g = make_grid(128, 128, 32.0, 32.0)
        u0 = gaussian_field(g, 0.5, 1.0, 2.0)
        worst_err, worst_time = 0.0, 0.0
        for a in (0.0, 0.3, 0.5, 0.8, 1.0):
            p = DispersionParams(a)
            cfg = SolverConfig(dt=0.01, T=1.0, params=p, nonlinear=False)
            t0 = time.monotonic()
            traj = evolve(u0, cfg, stride=10**9)
            elapsed = time.monotonic() - t0
            final = traj.snapshots[-1][1]
            exact = _from_half(apply_linear_propagator(half_spectrum(u0), g, 1.0, p), g)
            err = np.linalg.norm(final.samples - exact.samples) / np.linalg.norm(
                exact.samples
            )
            worst_err = max(worst_err, err)
            worst_time = max(worst_time, elapsed)
            assert elapsed < 5.0, f"a={a} took {elapsed:.2f}s"
        ok = worst_err < 1e-12
        report(1, ok, f"linear exactness: worst rel err {worst_err:.2e}, "
                      f"worst runtime {worst_time:.2f}s")
        assert ok


class TestCriterion2Conservation:
    def test_mass_and_hamiltonian_drift(self, conservation_run):
        m = conservation_run.column("mass")
        h = conservation_run.column("ham")
        mass_drift = float(np.max(np.abs(m - m[0])) / m[0])
        ham_drift = float(np.max(np.abs(h - h[0])) / abs(h[0]))
        ok = mass_drift < 1e-8 and ham_drift < 1e-6
        report(2, ok, f"mass drift {mass_drift:.2e} (<1e-8), "
                      f"hamiltonian drift {ham_drift:.2e} (<1e-6)")
        assert mass_drift < 1e-8
        assert ham_drift < 1e-6


class TestCriterion3ZeroMode:
    def test_zero_mode_invariance(self, conservation_run):
        dev = float(np.max(conservation_run.column("zm_dev")))
        ok = dev < 1e-12
        report(3, ok, f"zero-mode max deviation {dev:.2e} (<1e-12)")
        assert ok


class TestCriterion4IntegratorOrder:
    def test_etdrk4_self_convergence(self):
        g = make_grid(64, 64, 16.0, 16.0)
        u0 = gaussian_field(g, 1.5, 1.0, 1.0)
        p = DispersionParams(0.5)
        T = 0.24  # divisible by every dt in the ladder

        def final(dt):
            cfg = SolverConfig(dt=dt, T=T, params=p)
            st = Stepper(g, cfg)
            v = half_spectrum(u0)
            for _ in range(int(round(T / dt))):
                v = st.advance(v)
            return hermitian_fill(v, g.nx)

        ref = final(6.25e-5)
        dts = [4e-3, 2e-3, 1e-3, 5e-4]
        errs = [np.linalg.norm(final(dt) - ref) for dt in dts]
        order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        ok = order >= 3.7
        report(4, ok, f"ETDRK4 fitted order {order:.2f} (>=3.7), "
                      f"errors {['%.1e' % e for e in errs]}")
        assert ok


class TestCriterion5ExpansionIdentities:
    def test_expansion_against_oracle(self):
        p = DispersionParams(0.5)
        worst = 0.0
        named = set()
        for k in (1, 2, 3, 4):
            for t in (0.0, 0.2, 1.0):
                rep = xi_expansion_check(k, t, p, tolerance=1e-6)
                assert rep.passed, (k, t, rep.max_rel_error_corrected)
                worst = max(worst, rep.max_rel_error_corrected)
                named |= set(rep.discrepant_terms)
        ok = worst < 1e-6
        detail = f"max rel err vs oracle {worst:.2e} (<1e-6)"
        if named:
            detail += f"; printed-term discrepancies isolated to {sorted(named)}"
        report(5, ok, detail)
        assert ok
        # the known transcription discrepancy is exactly the documented pair
        assert named == {"H3", "H4"}


class TestCriterion6SteinThresholds:
    def test_membership_grid_and_gamma_family(self):
        mistakes = []
        for alpha in (0.5, 1.0, 1.5):
            for theta in (0.3, 0.6, 0.9, 1.2, 1.7):
                want = "member" if theta < alpha + 0.5 else "non-member"
                ev = l2_membership_classify(
                    make_profile("power", alpha=alpha), theta, n_octaves=16
                )
                if ev.verdict != want:
                    mistakes.append((alpha, theta, ev.verdict, want))
        gamma_bad = l2_membership_classify(make_profile("gamma", gamma=0.3), 0.3)
        gamma_good = l2_membership_classify(make_profile("gamma", gamma=0.3), 0.2)
        ok = (
            not mistakes
            and gamma_bad.verdict == "non-member"
            and gamma_good.verdict == "member"
        )
        report(
            6,
            ok,
            f"15-cell threshold grid: {15 - len(mistakes)}/15 correct; "
            f"gamma family: theta=gamma -> {gamma_bad.verdict}, "
            f"theta=gamma-eps -> {gamma_good.verdict}",
        )
        assert not mistakes
        assert gamma_bad.verdict == "non-member"
        assert gamma_good.verdict == "member"


class TestCriterion7AsymptoticExponents:
    def test_large_eta_slope(self):
        prof = make_profile("power", alpha=1.5)
        eta = np.geomspace(10.0, 200.0, 12)
        vals = dstein_profile(prof, 0.8, tuple(eta))
        slope = fit_exponent(eta, vals)
        ok = abs(slope - (-1.3)) < 0.05
        report(7, ok, f"large-eta slope {slope:.3f} (target -1.30 +- 0.05)")
        assert ok

    def test_small_eta_slope_sharp_branch(self):
        # alpha < theta: D^theta blows up like |eta|^{alpha-theta}
        prof = make_profile("power", alpha=0.5)
        eta = np.geomspace(1e-4, 1e-2, 10)
        vals = dstein_profile(prof, 0.8, tuple(eta))
        slope = fit_exponent(eta, vals)
        ok = abs(slope - (-0.3)) < 0.05
        report(7, ok, f"small-eta slope {slope:.3f} (target alpha-theta = -0.30 +- 0.05)")
        assert ok

    def test_log_case_r_squared(self):
        prof = make_profile("power", alpha=0.5)
        eta = np.geomspace(1e-4, 1e-2, 10)
        vals = dstein_profile(prof, 0.5, tuple(eta))
        A = np.vstack([-np.log(eta), np.ones(len(eta))]).T
        coef, *_ = np.linalg.lstsq(A, vals**2, rcond=None)
        resid = vals**2 - A @ coef
        r2 = 1.0 - np.sum(resid**2) / np.sum((vals**2 - np.mean(vals**2)) ** 2)
        ok = r2 > 0.99 and coef[0] > 0
        report(7, ok, f"log case: D^2 linear in -ln|eta| with R^2 = {r2:.5f} (>0.99)")
        assert ok


class TestCriterion8SteinEngine:
    def test_scaling_and_oracle(self):
        f = lambda y: np.exp(-(y**2))
        worst_scale = 0.0
        for lam in (0.5, 2.0, 4.0):
            fl = lambda y: np.exp(-((lam * y) ** 2))
            for x in (0.0, 0.6):
                lhs = stein_derivative(fl, 0.5, x).value
                rhs = lam**0.5 * stein_derivative(f, 0.5, lam * x).value
                worst_scale = max(worst_scale, abs(lhs - rhs) / rhs)
        worst_oracle = 0.0
        for b in (0.25, 0.5, 0.75):
            for x in (0.0, 0.7):
                engine = stein_derivative(f, b, x).value
                oracle = brute_force_stein(f, b, x)
                worst_oracle = max(worst_oracle, abs(engine - oracle) / oracle)
        ok = worst_scale < 1e-4 and worst_oracle < 1e-4
        report(8, ok, f"scaling identity {worst_scale:.2e} (<1e-4), "
                      f"brute-force oracle {worst_oracle:.2e} (<1e-4)")
        assert ok


class TestCriterion9MomentIdentity:
    def test_moment_identity_both_branches(self, tmp_path):
        # local-dispersion point a = 1: the box moment is free of the
        # fractional-symbol tail artifact (see decisions ledger) and the
        # identity d/dt int x u = mass/2 is clean on both branches
        grid = make_grid(192, 192, 48.0, 48.0)
        solver = SolverConfig(dt=5e-4, T=0.1, params=DispersionParams(1.0))
        cfg = RunConfig(
            grid=grid,
            solver=solver,
            initial=InitialData("gaussian", 0.4, 2.0, 2.0),
            diagnostics=DiagnosticsPlan(stride=20, n_ladder=(2.0, 4.0)),
            output_dir=str(tmp_path / "nz"),
            snapshot_stride=0,
        )
        res = uc_compare(cfg, tmp_path / "uc")
        r_nz = res.moment_residuals["nz"]
        r_zm = res.moment_residuals["zm"]
        ok = r_nz < 1e-6 and r_zm < 1e-6
        report(9, ok, f"moment-identity residual: nonzero-mean {r_nz:.2e}, "
                      f"zero-mean {r_zm:.2e} (<1e-6)")
        assert ok
        # zero-mode invariance recorded alongside on both branches
        assert res.zero_mode_maxdev["nz"] < 1e-12
        assert res.zero_mode_maxdev["zm"] < 1e-12


class TestCriterion10ProbeStability:
    def test_df_probe_slope_over_doublings(self):
        sizes = (32, 64, 128, 256)
        ratios = []
        for n in sizes:
            g = make_grid(n, n, 24.0, 24.0)
            fields = gaussian_ensemble(g, 8, seed=3)
            ratios.append(lemma_df_probe(0.5, 1.0, 0.5, fields).max_ratio)
        slope = abs(float(np.polyfit(np.log(sizes), np.log(ratios), 1)[0]))
        ok = slope < 0.05
        report(10, ok, f"lemma-DF probe ratio slope {slope:.4f} over three "
                       f"grid doublings (<0.05); ratios {['%.4f' % r for r in ratios]}")
        assert ok

    def test_interx_probe_slope_over_doublings(self):
        sizes = (64, 128, 256, 512)
        ratios = []
        for n in sizes:
            g = make_grid(n, n, 32.0, 32.0)
            family = [
                gaussian_field(g, 1.0, 1.0, 1.0),
                gaussian_field(g, 0.7, 2.0, 1.0, cx=1.0),
                gaussian_field(g, 1.3, 0.8, 1.5, cx=-2.0),
            ]
            ratios.append(interx_probe(family, alpha=2.0, b=1.0, beta=0.5, N=8.0))
        slope = abs(float(np.polyfit(np.log(sizes), np.log(ratios), 1)[0]))
        ok = slope < 0.05
        report(10, ok, f"interpolation probe ratio slope {slope:.4f} over three "
                       f"grid doublings (<0.05)")
        assert ok
