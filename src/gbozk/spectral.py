"""Periodic grid, discrete Fourier transforms and the rfft2 half spectrum.

The physical domain is a centered periodic box [-lx/2, lx/2) x [-ly/2, ly/2)
sampled on an nx-by-ny lattice (x fastest varying, row-major with y outer).
Transforms are normalized so that a spectral coefficient approximates the
continuous forward integral

    f_hat(xi, eta) = int exp(-i (x xi + y eta)) f(x, y) dx dy,

i.e. ``coeffs = fft2(ifftshift(samples)) * dx * dy`` with wavenumbers in
numpy fft order.  With this convention closed-form transforms of Gaussians
and the value f_hat(0, 0) = int f are directly comparable.  Real fields are
computed on the ``rfft2`` half spectrum, columns 0..nx/2 of those
coefficients (``half_spectrum``, ``half_xi``, ``hermitian_weights``).

Conventions fixed here and relied on elsewhere:

* |xi|^z at xi = 0 is 0 for z > 0 (principal-value reading of the Riesz
  multiplier).
* The odd symbol of the quadratic term (``solver._nl_multiplier``) zeroes
  the Nyquist column; otherwise the asymmetric Nyquist mode would break
  realness.
* Dealiasing keeps integer modes with |k| <= nx/3 and |l| <= ny/3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "RealField2D",
    "SpectralField2D",
    "make_grid",
    "to_spectral",
    "to_physical",
    "half_spectrum",
    "half_xi",
    "hermitian_weights",
]


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid with centered coordinates and fft-ordered wavenumbers."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        for n, name in ((self.nx, "nx"), (self.ny, "ny")):
            if n % 2 != 0 or n < 8:
                raise ValueError(f"{name} must be even and >= 8, got {n}")
        for l, name in ((self.lx, "lx"), (self.ly, "ly")):
            if not 0 < l < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {l}")
        if not (self.dx * self.dy > 0 and self.lx * self.ly < np.inf):
            raise ValueError("cell area dx dy and box area lx ly must be nonzero and finite")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def x(self) -> np.ndarray:
        """Centered x coordinates, x[i] = -lx/2 + i*dx."""
        return -0.5 * self.lx + self.dx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return -0.5 * self.ly + self.dy * np.arange(self.ny)

    @property
    def xi(self) -> np.ndarray:
        """x-wavenumbers 2 pi k / lx, k = 0..nx/2-1, -nx/2..-1 (fft order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)

    @property
    def eta(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)

    @property
    def kx(self) -> np.ndarray:
        """Integer x mode numbers in fft order."""
        return np.fft.fftfreq(self.nx, d=1.0 / self.nx).astype(int)

    @property
    def ky(self) -> np.ndarray:
        return np.fft.fftfreq(self.ny, d=1.0 / self.ny).astype(int)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) physical coordinate arrays of shape (ny, nx)."""
        return np.meshgrid(self.x, self.y, indexing="xy")


def make_grid(nx: int, ny: int, lx: float, ly: float) -> GridSpec:
    return GridSpec(nx=nx, ny=ny, lx=float(lx), ly=float(ly))


@dataclass
class RealField2D:
    """Real samples u(x_i, y_j) stored as a (ny, nx) array (y outer)."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite entries")

    def copy(self) -> "RealField2D":
        return RealField2D(self.grid, self.samples.copy())


@dataclass
class SpectralField2D:
    """Complex coefficients indexed (l, k) in fft order, shape (ny, nx)."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )


def to_spectral(field: RealField2D) -> SpectralField2D:
    """Forward transform with continuous-integral normalization."""
    g = field.grid
    coeffs = np.fft.fft2(np.fft.ifftshift(field.samples)) * (g.dx * g.dy)
    return SpectralField2D(g, coeffs)


def to_physical(field: SpectralField2D) -> RealField2D:
    """Inverse transform; the imaginary residue of the ifft is discarded."""
    g = field.grid
    u = np.fft.fftshift(np.fft.ifft2(field.coeffs)) / (g.dx * g.dy)
    return RealField2D(g, u.real)


def half_spectrum(field: RealField2D) -> np.ndarray:
    """``rfft2`` half spectrum: columns 0..nx/2 of ``to_spectral``'s coefficients.

    The continuum normalisation dx dy is applied in place (same bits as a
    product), so no second spectrum-sized array is formed.
    """
    g = field.grid
    v = np.fft.rfft2(np.fft.ifftshift(field.samples))
    v *= g.dx * g.dy
    return v


def half_xi(grid: GridSpec) -> np.ndarray:
    """xi on the half-spectrum columns 0..nx/2 (the last is the negative Nyquist)."""
    return grid.xi[: grid.nx // 2 + 1]


def hermitian_weights(nx: int) -> np.ndarray:
    """Half-spectrum column weights: 2 where column k also stands for its
    mirror nx - k (real data, summand even in (xi, eta)), 1 at k = 0 and nx/2."""
    w = np.full(nx // 2 + 1, 2.0)
    w[[0, -1]] = 1.0
    return w


def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Boolean (ny, nx) mask keeping |k| <= nx/3 and |l| <= ny/3.

    Quadratic products of fields supported on the mask are alias-free on the
    mask whenever 3 does not divide the grid size (always true for the usual
    power-of-two grids); when 3 | nx the extreme pair (n/3, n/3) aliases onto
    -n/3, a boundary case the inclusive rule tolerates.
    """
    keep_x = np.abs(grid.kx) <= grid.nx / 3.0
    keep_y = np.abs(grid.ky) <= grid.ny / 3.0
    return keep_y[:, None] & keep_x[None, :]
