import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbozk import (
    RealField2D,
    bessel_potential,
    dealias,
    fractional_x_derivative,
    hilbert_x,
    make_grid,
    to_physical,
    to_spectral,
)
from gbozk.diagnostics import _spectral_sums, mass
from gbozk.spectral import half_spectrum, imag_residue, l2_norm, spectral_l2_norm, x_derivative

from conftest import gaussian_field, random_field


class TestMakeGrid:
    def test_integer_wavenumbers_on_2pi_box(self):
        g = make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        assert sorted(g.xi) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_xi_spacing(self):
        g = make_grid(8, 8, 4 * np.pi, 2 * np.pi)
        assert np.isclose(np.diff(sorted(g.xi))[0], 0.5)

    def test_rejects_odd_nx(self):
        with pytest.raises(ValueError):
            make_grid(7, 8, 1.0, 1.0)

    def test_rejects_tiny_and_nonpositive(self):
        with pytest.raises(ValueError):
            make_grid(4, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_grid(8, 8, -1.0, 1.0)

    def test_centered_coordinates(self):
        g = make_grid(8, 8, 2.0, 4.0)
        assert g.x[0] == -1.0
        assert np.isclose(g.x[-1], 1.0 - 0.25)
        assert np.isclose(g.dx, 0.25)


class TestTransforms:
    def test_constant_field_dc_coefficient(self):
        g = make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        c = to_spectral(RealField2D(g, np.ones((8, 8))))
        assert np.isclose(c.coeffs[0, 0], (2 * np.pi) ** 2)
        others = np.abs(c.coeffs).sum() - abs(c.coeffs[0, 0])
        assert others < 1e-12

    def test_round_trip(self, grid_2pi):
        u = random_field(grid_2pi, seed=1)
        v = to_physical(to_spectral(u))
        assert np.max(np.abs(v.samples - u.samples)) < 1e-13

    def test_single_mode_sin(self, grid_2pi):
        X, _ = grid_2pi.meshgrid()
        c = to_spectral(RealField2D(grid_2pi, np.sin(X))).coeffs
        kx = grid_2pi.kx
        nonzero = np.argwhere(np.abs(c) > 1e-10)
        assert len(nonzero) == 2
        modes = {int(kx[j]) for _, j in nonzero}
        assert modes == {1, -1}
        assert np.isclose(abs(c[0, 1]), abs(c[0, -1]))

    def test_parseval(self, grid_box):
        u = random_field(grid_box, seed=2)
        assert np.isclose(
            l2_norm(u), spectral_l2_norm(to_spectral(u)), rtol=1e-12
        )

    def test_size_mismatch_rejected(self, grid_2pi):
        with pytest.raises(ValueError):
            RealField2D(grid_2pi, np.ones((8, 8)))


class TestMultipliers:
    def test_fractional_second_derivative_of_sin(self, grid_2pi):
        X, _ = grid_2pi.meshgrid()
        u = RealField2D(grid_2pi, np.sin(X))
        out = to_physical(fractional_x_derivative(to_spectral(u), 2.0))
        assert np.max(np.abs(out.samples - np.sin(X))) < 1e-12

    def test_y_only_field_annihilated(self, grid_2pi):
        _, Y = grid_2pi.meshgrid()
        u = RealField2D(grid_2pi, np.cos(2 * Y))
        out = fractional_x_derivative(to_spectral(u), 0.7)
        assert np.max(np.abs(out.coeffs)) < 1e-12

    def test_single_mode_scaling(self):
        g = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
        X, _ = g.meshgrid()
        u = RealField2D(g, np.cos(2 * X))
        out = to_physical(fractional_x_derivative(to_spectral(u), 1.5))
        assert np.max(np.abs(out.samples - 2**1.5 * np.cos(2 * X))) < 1e-12

    def test_rejects_nonpositive_order(self, grid_2pi):
        with pytest.raises(ValueError):
            fractional_x_derivative(to_spectral(gaussian_field(grid_2pi)), 0.0)

    def test_bessel_identity_at_zero_order(self, grid_2pi):
        u = random_field(grid_2pi, seed=3)
        c = to_spectral(u)
        out = bessel_potential(c, 0.0, "x")
        assert np.max(np.abs(out.coeffs - c.coeffs)) == 0.0

    def test_bessel_single_mode_axis_x(self, grid_2pi):
        X, _ = grid_2pi.meshgrid()
        u = RealField2D(grid_2pi, np.cos(X))
        out = to_physical(bessel_potential(to_spectral(u), 2.0, "x"))
        assert np.max(np.abs(out.samples - 2.0 * np.cos(X))) < 1e-12

    def test_bessel_inverse(self, grid_2pi):
        u = random_field(grid_2pi, seed=4)
        c = to_spectral(u)
        for axis in ("x", "y", "both"):
            back = bessel_potential(bessel_potential(c, 1.7, axis), -1.7, axis)
            assert np.max(np.abs(back.coeffs - c.coeffs)) < 1e-12

    def test_hilbert_of_cos_is_sin(self, grid_2pi):
        X, _ = grid_2pi.meshgrid()
        u = RealField2D(grid_2pi, np.cos(X))
        out = to_physical(hilbert_x(to_spectral(u)))
        assert np.max(np.abs(out.samples - np.sin(X))) < 1e-13

    def test_hilbert_compose_dx_equals_riesz(self, grid_2pi):
        u = random_field(grid_2pi, seed=5)
        c = to_spectral(u)
        lhs = hilbert_x(x_derivative(c))
        rhs = fractional_x_derivative(c, 1.0)
        # identical away from the Nyquist column, which both odd operators zero
        nyq = grid_2pi.nx // 2
        rhs.coeffs[:, nyq] = 0.0
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11

    def test_hilbert_annihilates_y_only(self, grid_2pi):
        _, Y = grid_2pi.meshgrid()
        out = hilbert_x(to_spectral(RealField2D(grid_2pi, np.sin(3 * Y))))
        assert np.max(np.abs(out.coeffs)) < 1e-12


class TestDealias:
    def test_low_modes_unchanged(self):
        g = make_grid(24, 24, 2 * np.pi, 2 * np.pi)
        c = to_spectral(random_field(g, seed=10))
        c = dealias(c)  # exact support |k|, |l| <= nx/3
        assert np.array_equal(dealias(c).coeffs, c.coeffs)

    def test_nyquist_only_field_zeroed(self, grid_2pi):
        c = to_spectral(random_field(grid_2pi, seed=6))
        keep = np.zeros_like(c.coeffs)
        keep[:, grid_2pi.nx // 2] = c.coeffs[:, grid_2pi.nx // 2]
        c.coeffs = keep
        assert np.max(np.abs(dealias(c).coeffs)) == 0.0

    def test_idempotent(self, grid_2pi):
        c = to_spectral(random_field(grid_2pi, seed=7))
        once = dealias(c)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)


class TestOperatorAlgebra:
    def test_multipliers_commute(self, grid_2pi):
        c = to_spectral(random_field(grid_2pi, seed=8))
        ops = [
            lambda f: fractional_x_derivative(f, 0.5),
            lambda f: bessel_potential(f, -1.0, "y"),
            lambda f: hilbert_x(f),
            lambda f: dealias(f),
        ]
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                ab = ops[i](ops[j](c))
                ba = ops[j](ops[i](c))
                assert np.max(np.abs(ab.coeffs - ba.coeffs)) < 1e-12

    def test_reality_preserved(self, grid_2pi):
        c = to_spectral(random_field(grid_2pi, seed=9))
        for op in (
            lambda f: fractional_x_derivative(f, 0.8),
            lambda f: bessel_potential(f, 2.5, "both"),
            lambda f: hilbert_x(f),
            lambda f: x_derivative(f),
            lambda f: dealias(f),
        ):
            assert imag_residue(op(c)) < 1e-12


# random even grids, box sizes and fields for the half-spectrum properties
EVEN_N = st.integers(4, 32).map(lambda k: 2 * k)
BOX = st.floats(0.5, 100.0)


@st.composite
def grid_fields(draw):
    g = make_grid(draw(EVEN_N), draw(EVEN_N), draw(BOX), draw(BOX))
    return random_field(g, seed=draw(st.integers(0, 2**32 - 1)), scale=draw(st.floats(1e-3, 1e3)))


class TestHalfSpectrumProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(u=grid_fields())
    def test_half_spectrum_is_the_left_half_of_to_spectral(self, u):
        full = to_spectral(u).coeffs[:, : u.grid.nx // 2 + 1]
        assert np.max(np.abs(half_spectrum(u) - full)) <= 1e-13 * np.max(np.abs(full))

    @settings(max_examples=60, deadline=None, database=None)
    @given(u=grid_fields())
    def test_hermitian_half_spectrum_mass_is_mass(self, u):
        (spectral,) = _spectral_sums(half_spectrum(u), u.grid, 1.0)
        assert spectral == pytest.approx(mass(u), rel=1e-13)

    @settings(max_examples=60, deadline=None, database=None)
    @given(u=grid_fields(), z=st.floats(0.1, 3.0))
    def test_odd_and_riesz_x_multipliers_keep_fields_real(self, u, z):
        c = to_spectral(u)
        for out in (x_derivative(c), hilbert_x(c), fractional_x_derivative(c, z)):
            assert imag_residue(out) <= 1e-13 * np.max(np.abs(to_physical(out).samples))


class TestFullSpectrumProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(u=grid_fields())
    def test_plancherel_on_the_full_spectrum(self, u):
        assert spectral_l2_norm(to_spectral(u)) == pytest.approx(l2_norm(u), rel=1e-13)

    @settings(max_examples=60, deadline=None, database=None)
    @given(u=grid_fields())
    def test_round_trip_returns_the_samples(self, u):
        back = to_physical(to_spectral(u)).samples
        assert np.max(np.abs(back - u.samples)) <= 1e-13 * np.max(np.abs(u.samples))
