import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbozk import (
    DispersionParams,
    apply_linear_propagator,
    dispersion_symbol,
    gaussian_jet,
    make_grid,
    to_spectral,
    xi_expansion_check,
    xi_expansion_eval,
    xi_expansion_terms,
)
from gbozk.propagator import fd_oracle

from conftest import gaussian_field, random_field


class TestDispersionSymbol:
    def test_zero_at_xi_zero(self):
        assert dispersion_symbol(0.0, 5.0, 0.5) == 0.0

    def test_unit_mode(self):
        for a in (0.0, 0.3, 1.0):
            assert np.isclose(dispersion_symbol(1.0, 0.0, a), -1.0)

    def test_zk_reduction(self):
        assert np.isclose(dispersion_symbol(2.0, 1.0, 1.0), -6.0)

    def test_parity(self):
        xi = np.linspace(-3, 3, 25)
        eta = 1.3
        w = dispersion_symbol(xi, eta, 0.4)
        assert np.array_equal(w, -dispersion_symbol(-xi, eta, 0.4))
        assert np.array_equal(w, dispersion_symbol(xi, -eta, 0.4))

    def test_zk_symbol_on_lattice(self):
        # at a = 1 the phase rate is the cubic ZK symbol xi eta^2 - xi^3
        g = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
        XI, ETA = np.meshgrid(g.xi, g.eta, indexing="xy")
        w = dispersion_symbol(XI, ETA, 1.0)
        assert np.max(np.abs(w - (XI * ETA**2 - XI**3))) < 1e-12

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            dispersion_symbol(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            DispersionParams(-0.1)


class TestLinearPropagator:
    def test_identity_at_t0(self, grid_2pi):
        c = to_spectral(random_field(grid_2pi, seed=0))
        out = apply_linear_propagator(c, 0.0, DispersionParams(0.5))
        assert np.array_equal(out.coeffs, c.coeffs)

    def test_l2_norm_preserved(self, grid_box):
        # mode by mode, which preserves the Plancherel norm
        c = to_spectral(random_field(grid_box, seed=1))
        out = apply_linear_propagator(c, 3.7, DispersionParams(0.3))
        np.testing.assert_allclose(np.abs(out.coeffs), np.abs(c.coeffs), rtol=1e-13, atol=0.0)

    def test_single_mode_half_period(self):
        # mode (1, 0): rate -1, so t = pi multiplies by exp(-i pi) = -1
        g = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
        X, _ = g.meshgrid()
        c = to_spectral(gaussian_field(g, 0.0))  # zero field
        c.coeffs[0, 1] = 1.0
        c.coeffs[0, -1] = 1.0
        out = apply_linear_propagator(c, np.pi, DispersionParams(0.5))
        assert np.allclose(out.coeffs[0, 1], -1.0, atol=1e-14)

    def test_group_law(self, grid_box):
        c = to_spectral(gaussian_field(grid_box, 1.0, 1.0, 2.0))
        p = DispersionParams(0.8)
        once = apply_linear_propagator(c, 0.7 + 1.9, p)
        twice = apply_linear_propagator(
            apply_linear_propagator(c, 0.7, p), 1.9, p
        )
        rel = np.max(np.abs(once.coeffs - twice.coeffs)) / np.max(np.abs(c.coeffs))
        assert rel < 1e-12

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        half_n=st.tuples(st.integers(4, 32), st.integers(4, 32)),
        box=st.tuples(st.floats(0.5, 100.0), st.floats(0.5, 100.0)),
        a=st.floats(0.0, 1.0),
        t=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_broadcast_phase_matches_meshgrid_build(self, half_n, box, a, t, seed):
        g = make_grid(2 * half_n[0], 2 * half_n[1], *box)
        c = to_spectral(random_field(g, seed=seed))
        XI, ETA = np.meshgrid(g.xi, g.eta, indexing="xy")
        want = c.coeffs * np.exp(1j * t * dispersion_symbol(XI, ETA, a))
        got = apply_linear_propagator(c, t, DispersionParams(a)).coeffs
        assert got.tobytes() == want.tobytes()


class TestExpansionEval:
    def test_k1_at_t0_returns_first_derivative(self):
        jet = gaussian_jet(0.4, 0.9)
        out = xi_expansion_eval(1, jet, 0.0, DispersionParams(0.5))
        assert np.isclose(out, jet.values[1], rtol=0, atol=1e-15)

    def test_k2_t0_vanishing_second_derivative(self):
        # at xi with 4 xi^2 = 2 the Gaussian jet has v2 = 0
        xi = np.sqrt(0.5)
        jet = gaussian_jet(xi, 0.3)
        assert abs(jet.values[2]) < 1e-15
        out = xi_expansion_eval(2, jet, 0.0, DispersionParams(0.5))
        assert abs(out) < 1e-15

    def test_k3_matches_finite_difference(self):
        jet = gaussian_jet(0.7, 0.3)
        val = xi_expansion_eval(3, jet, 0.2, DispersionParams(0.5))
        ref = fd_oracle(3, 0.7, 0.3, 0.2, 0.5)
        assert abs(val - ref) / abs(ref) < 1e-6

    def test_rejects_xi_zero_for_high_orders(self):
        jet = gaussian_jet(0.0, 0.5)
        xi_expansion_eval(1, jet, 0.1, DispersionParams(0.5))  # fine
        for k in (2, 3, 4):
            with pytest.raises(ValueError):
                xi_expansion_eval(k, jet, 0.1, DispersionParams(0.5))

    def test_term_counts(self):
        jet = gaussian_jet(0.5, 0.5)
        p = DispersionParams(0.4)
        for k, count in ((1, 3), (2, 7), (3, 14), (4, 25)):
            assert len(xi_expansion_terms(k, jet, 0.3, p)) == count

    def test_derivative_consistency_between_orders(self):
        # differentiating the order-(k-1) evaluator in xi reproduces order k;
        # for k = 4 this holds for the chain-rule table (the printed table
        # deviates in H3/H4 and is exercised in TestExpansionCheck)
        p = DispersionParams(0.6)
        t, eta, h = 0.4, 0.7, 1e-5
        for k in (2, 3, 4):
            for xi in (0.5, 1.1):
                lo = xi_expansion_eval(k - 1, gaussian_jet(xi - h, eta), t, p, "derived")
                hi = xi_expansion_eval(k - 1, gaussian_jet(xi + h, eta), t, p, "derived")
                fd = (hi - lo) / (2 * h)
                val = xi_expansion_eval(k, gaussian_jet(xi, eta), t, p, "derived")
                assert abs(fd - val) / abs(val) < 1e-7


class TestExpansionCheck:
    XI = np.linspace(0.1, 1.45, 10)
    ETA = np.linspace(0.0, 1.35, 10)

    def test_k1_small_error(self):
        rep = xi_expansion_check(1, 0.5, DispersionParams(0.5), self.XI, self.ETA)
        assert rep.max_rel_error < 1e-8

    def test_k4_isolates_printed_discrepancy(self):
        rep = xi_expansion_check(4, 1.0, DispersionParams(0.5), self.XI, self.ETA)
        # the printed fourth-order table deviates from the chain rule in
        # exactly two phi-hat coefficients; the corrected table matches the
        # high-precision finite-difference oracle
        assert rep.discrepant_terms == ["H3", "H4"]
        assert rep.max_rel_error > 1e-2
        assert rep.max_rel_error_corrected < 1e-6
        assert rep.passed

    def test_t0_exact_for_all_orders(self):
        p = DispersionParams(0.5)
        for k in (1, 2, 3, 4):
            rep = xi_expansion_check(k, 0.0, p, self.XI, self.ETA)
            assert rep.max_rel_error < 1e-10
            assert not rep.discrepant_terms

    def test_rejects_small_xi(self):
        with pytest.raises(ValueError):
            xi_expansion_check(
                2, 0.1, DispersionParams(0.5), np.array([0.05]), np.array([0.0])
            )
