import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbozk import RealField2D, make_grid, to_physical, to_spectral
from gbozk.diagnostics import _spectral_sums, mass
from gbozk.spectral import dealias_mask, half_spectrum

from conftest import random_field


def _plancherel_l2(u: RealField2D) -> float:
    """L2 norm from the full spectrum, sqrt(sum |c|^2 / (lx ly))."""
    g = u.grid
    return float(np.sqrt(np.sum(np.abs(to_spectral(u).coeffs) ** 2) / (g.lx * g.ly)))


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
        assert np.isclose(np.sqrt(mass(u)), _plancherel_l2(u), rtol=1e-12)

    def test_size_mismatch_rejected(self, grid_2pi):
        with pytest.raises(ValueError):
            RealField2D(grid_2pi, np.ones((8, 8)))


def _dealiased(coeffs: np.ndarray, grid) -> np.ndarray:
    """Full-spectrum coefficients truncated by the 2/3-rule mask."""
    return np.where(dealias_mask(grid), coeffs, 0.0)


class TestDealias:
    def test_low_modes_unchanged(self):
        g = make_grid(24, 24, 2 * np.pi, 2 * np.pi)
        c = _dealiased(to_spectral(random_field(g, seed=10)).coeffs, g)  # support |k|, |l| <= nx/3
        assert np.array_equal(_dealiased(c, g), c)
        assert np.count_nonzero(c) == 17 * 17

    def test_nyquist_only_field_zeroed(self, grid_2pi):
        c = to_spectral(random_field(grid_2pi, seed=6)).coeffs
        keep = np.zeros_like(c)
        keep[:, grid_2pi.nx // 2] = c[:, grid_2pi.nx // 2]
        assert np.max(np.abs(_dealiased(keep, grid_2pi))) == 0.0

    def test_idempotent(self, grid_2pi):
        c = to_spectral(random_field(grid_2pi, seed=7)).coeffs
        once = _dealiased(c, grid_2pi)
        twice = _dealiased(once, grid_2pi)
        assert np.array_equal(once, twice)

    def test_mask_keeps_a_third_and_zeroes_nyquist(self):
        # |k| <= nx/3 and |l| <= ny/3, inclusive when 3 divides the size
        for nx, ny, kmax, lmax in ((24, 24, 8, 8), (16, 32, 5, 10)):
            g = make_grid(nx, ny, 2 * np.pi, 2 * np.pi)
            m = dealias_mask(g)
            assert m.shape == (ny, nx)
            assert sorted(g.kx[m.any(axis=0)]) == list(range(-kmax, kmax + 1))
            assert sorted(g.ky[m.any(axis=1)]) == list(range(-lmax, lmax + 1))
            assert np.array_equal(m, m[:, :1] & m[:1, :])  # the product of the axis masks
            assert not m[:, nx // 2].any() and not m[ny // 2, :].any()


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


class TestFullSpectrumProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(u=grid_fields())
    def test_plancherel_on_the_full_spectrum(self, u):
        assert _plancherel_l2(u) == pytest.approx(np.sqrt(mass(u)), rel=1e-13)

    @settings(max_examples=60, deadline=None, database=None)
    @given(u=grid_fields())
    def test_round_trip_returns_the_samples(self, u):
        back = to_physical(to_spectral(u)).samples
        assert np.max(np.abs(back - u.samples)) <= 1e-13 * np.max(np.abs(u.samples))
