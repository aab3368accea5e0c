import numpy as np
import pytest

from gbozk import GridSpec, RealField2D, make_grid


@pytest.fixture
def grid_2pi() -> GridSpec:
    return make_grid(32, 32, 2.0 * np.pi, 2.0 * np.pi)


@pytest.fixture
def grid_box() -> GridSpec:
    return make_grid(128, 128, 32.0, 32.0)


def gaussian_field(grid, amplitude=1.0, sx=1.0, sy=1.0, cx=0.0, cy=0.0):
    X, Y = grid.meshgrid()
    return RealField2D(
        grid, amplitude * np.exp(-((X - cx) / sx) ** 2 - ((Y - cy) / sy) ** 2)
    )


def random_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return RealField2D(grid, scale * rng.standard_normal((grid.ny, grid.nx)))


def hermitian_fill(h, nx):
    """(ny, nx) coefficients of a real field from its half spectrum h:
    columns 0..nx/2 are h, column nx - k is conj(h) at (-l, k)."""
    ny, nh = h.shape
    out = np.empty((ny, nx), dtype=complex)
    out[:, :nh] = h
    out[:, nh:] = np.conj(h[-np.arange(ny) % ny, nh - 2 : 0 : -1])
    return out


def complex_spectrum(u):
    """Full-spectrum reference independent of the package's half spectrum:
    the complex fft2(ifftshift(samples)) * dx dy."""
    g = u.grid
    return np.fft.fft2(np.fft.ifftshift(u.samples)) * (g.dx * g.dy)


def complex_samples(grid, coeffs):
    """The inverse of ``complex_spectrum``: real part of the shifted ifft2."""
    return (np.fft.fftshift(np.fft.ifft2(coeffs)) / (grid.dx * grid.dy)).real
