"""Norms, conserved quantities and moment diagnostics on box-sampled fields.

Every norm is one of two private sums:

* the spectral core, sum m |v|^2 w_k / (lx ly) over the ``rfft2`` half
  spectrum v, with a multiplier m even in (xi, eta) and the Hermitian column
  weights w_k of ``spectral.hermitian_weights``;
* the weighted-L^2 core, sqrt(sum (w u)^2 dx dy) over a broadcast weight w.
  Every decay weight is the smooth truncated weight <x>_N = sqrt(1+x^2) for
  |x| <= N, 2N for |x| >= 3N (N = inf or 1 <= N <= 1e153), built once per
  (grid, axis, N): the ladders ||<x>_N^r u|| take w = <x>_N^r, and
  ``weighted_norm`` takes w^2 = <x>_N^{2 r1} + <y>_N^{2 r2}.

All quadratures are plain box sums (trapezoid on a periodic grid); moments
of a periodic field are meaningful only for data that decays below roundoff
before the boundary, and ``x_moment`` warns when that fails.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .propagator import DispersionParams
from .spectral import GridSpec, RealField2D, half_spectrum, half_xi, hermitian_weights

__all__ = [
    "WeightSpec",
    "SobolevSpec",
    "truncated_weight",
    "weighted_norm",
    "truncated_x_norm",
    "truncated_y_norm",
    "sobolev_norm",
    "directional_sobolev_norms",
    "mass",
    "hamiltonian",
    "zero_mode_slice",
    "x_moment",
    "boundary_mass_ratio",
    "interx_probe",
]


@dataclass(frozen=True)
class WeightSpec:
    """Decay exponents (r1, r2) and level N of <.>_N (np.inf or in [1, 1e153])."""

    r1: float
    r2: float = 0.0
    N: float = np.inf

    def __post_init__(self) -> None:
        if not (0 <= self.r1 < np.inf and 0 <= self.r2 < np.inf):
            raise ValueError("decay exponents r1, r2 must be finite and nonnegative")
        truncated_weight(0.0, self.N)  # the level check


@dataclass(frozen=True)
class SobolevSpec:
    """Anisotropic Sobolev orders (s1, s2)."""

    s1: float
    s2: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.s1) and np.isfinite(self.s2)):
            raise ValueError("Sobolev orders s1, s2 must be finite")

    @classmethod
    def from_scalar(cls, s: float, a: float) -> "SobolevSpec":
        """The pairing ((1+a) s, 2 s) of the resolution space E^s."""
        return cls((1.0 + a) * s, 2.0 * s)


# --- smoothstep machinery ---------------------------------------------------

def _smootherstep(tau: np.ndarray) -> np.ndarray:
    """C^2 step 10 t^3 - 15 t^4 + 6 t^5 on [0, 1], clamped outside."""
    t = np.clip(tau, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss

    nodes, wts = leggauss(n)
    nodes.flags.writeable = wts.flags.writeable = False  # shared by every caller
    return nodes, wts


@lru_cache(maxsize=64)
def _bracket_exponent(N: float) -> float:
    """Blend exponent p for <x>_N: solves value matching at |x| = 3N.

    The blend derivative is <x>'(x) (1 - step)^p; p >= 1 keeps the join C^2
    and the derivative within [0, <x>'].  Requires N >= 1, which
    ``truncated_weight`` checks (for smaller N the plateau 2N sits below <N>
    and no monotone blend exists).  The mismatch decreases in p and changes
    sign on [1, 60]; bisection narrows that bracket to adjacent floats.
    """
    f = lambda p: float(_blend_values(np.array([3.0 * N]), N, p)[0]) - 2.0 * N
    lo, hi = 1.0, 60.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return hi


# largest finite truncation level of truncated_weight: its blend squares
# points up to 3N, and (3e153)^2 is a float
_N_MAX = 1e153
# beyond this |x|, 1 + x^2 rounds to x^2 and <x> is |x| to the last bit,
# while x^2 leaves the float range past about 1.34e154
_BRACKET_IS_ABS = 1e150


def truncated_weight(x, N: float):
    """Smooth truncated weight <x>_N.

    Equals <x> = sqrt(1+x^2) on [-N, N] and the constant 2N for |x| >= 3N;
    on the blend the derivative is <x>'(x) (1 - step)^p <= <x>' <= 1, which
    keeps the weight monotone, below both <x> and 2N, and C^2 at the joins.
    N must be inf (no truncation) or lie in [1, 1e153].
    """
    if not (1.0 <= N <= _N_MAX or N == np.inf):
        raise ValueError(f"truncation level must be inf or satisfy 1 <= N <= {_N_MAX:g}, got {N}")
    ax = np.abs(np.asarray(x, dtype=float))
    bracket = np.where(ax > _BRACKET_IS_ABS, ax,
                       np.sqrt(1.0 + np.minimum(ax, _BRACKET_IS_ABS) ** 2))
    if np.isinf(N):
        return bracket if bracket.shape else float(bracket)
    out = np.where(ax <= N, bracket, 2.0 * N)
    in_blend = (ax > N) & (ax < 3.0 * N)
    if np.any(in_blend):
        out[in_blend] = _blend_values(ax[in_blend], float(N), _bracket_exponent(float(N)))
    return out if out.shape else float(out)


def _blend_values(xs: np.ndarray, N: float, p: float) -> np.ndarray:
    """<N> + int_N^x <t>' (1-step)^p dt by per-point Gauss-Legendre."""
    nodes, wts = _gauss_legendre(96)
    half = 0.5 * (xs - N)
    t = N + half[:, None] * (nodes[None, :] + 1.0)
    tau = (t - N) / (2.0 * N)
    integrand = t / np.sqrt(1.0 + t**2) * (1.0 - _smootherstep(tau)) ** p
    return np.sqrt(1.0 + N**2) + np.sum(wts[None, :] * integrand, axis=1) * half


# --- norm cores --------------------------------------------------------------

@lru_cache(maxsize=64)
def _axis_weight(grid: GridSpec, axis: str, N: float) -> np.ndarray:
    """<.>_N on the grid's x or y coordinates, built once and shared read-only."""
    w = truncated_weight(grid.x if axis == "x" else grid.y, N)
    w.flags.writeable = False
    return w


def _weighted_l2(u: RealField2D, w) -> float:
    """sqrt(sum (w u)^2 dx dy); ``w`` broadcasts against the (ny, nx) samples."""
    g = u.grid
    return float(np.sqrt(np.sum((w * u.samples) ** 2) * g.dx * g.dy))


def _spectral_sums(v: np.ndarray, grid: GridSpec, *mults) -> list[float]:
    """sum m |v|^2 w_k / (lx ly) over the half spectrum ``v``, one per multiplier m.

    ``v`` holds columns 0..nx/2 of ``to_spectral``'s coefficients.  Each m
    broadcasts against ``v`` and is even in (xi, eta), so the Hermitian
    column weights w_k make this the full-spectrum Plancherel sum.  One
    power array and one product buffer are formed, whatever the number of
    multipliers (same operations, in the same order, as the plain products).
    """
    power = np.square(v.real)
    power += np.square(v.imag)
    power *= hermitian_weights(grid.nx) / (grid.lx * grid.ly)
    tmp = np.empty_like(power)
    return [float(np.sum(np.multiply(m, power, out=tmp))) for m in mults]


# --- norms -------------------------------------------------------------------

def weighted_norm(u: RealField2D, spec: WeightSpec) -> float:
    """Decay norm sqrt( int (<x>_N^{2 r1} + <y>_N^{2 r2}) u^2 dx dy ).

    The weight is equivalent to 1 + |x|^{2 r1} + |y|^{2 r2}; at r2 = 0 its
    y term is 1, the L^2 part.  It is the ladder columns' <.>_N, so
    weighted_norm^2 = truncated_x_norm(u, r1, N)^2 + ||<y>_N^{r2} u||^2.
    """
    g = u.grid
    wx = _axis_weight(g, "x", spec.N) ** (2.0 * spec.r1)
    wy = _axis_weight(g, "y", spec.N) ** (2.0 * spec.r2)
    return _weighted_l2(u, np.sqrt(wx[None, :] + wy[:, None]))


def truncated_x_norm(u: RealField2D, r1: float, N: float) -> float:
    """Truncated-ladder norm ||<x>_N^{r1} u||_{L^2}."""
    return _weighted_l2(u, _axis_weight(u.grid, "x", N) ** r1)


def truncated_y_norm(u: RealField2D, r2: float) -> float:
    """Transverse norm ||<y>^{r2} u||_{L^2}, with the untruncated <y> = sqrt(1+y^2)."""
    return _weighted_l2(u, _axis_weight(u.grid, "y", np.inf)[:, None] ** r2)


def sobolev_norm(u: RealField2D, spec: SobolevSpec) -> float:
    """Anisotropic norm sqrt(||u||^2 + ||J_x^{s1} u||^2 + ||J_y^{s2} u||^2).

    Composed as a run composes its E^s norm from the row's mass, sob_x and
    sob_y, so the two have the same bits.  The squares are products, as
    numpy's array square is: Python's ``x ** 2`` calls pow, which differs
    from x * x in the last bit for about 0.1% of arguments.
    """
    sx, sy = directional_sobolev_norms(u, spec)
    return float(np.sqrt(mass(u) + sx * sx + sy * sy))


def directional_sobolev_norms(u: RealField2D, spec: SobolevSpec) -> tuple[float, float]:
    """(||J_x^{s1} u||, ||J_y^{s2} u||), the two directional pieces, from the
    squared multipliers (1+xi^2)^{s1} and (1+eta^2)^{s2} on the half spectrum."""
    g = u.grid
    mx, my = (1.0 + half_xi(g) ** 2) ** spec.s1, (1.0 + g.eta[:, None] ** 2) ** spec.s2
    sx, sy = _spectral_sums(half_spectrum(u), g, mx, my)
    return float(np.sqrt(sx)), float(np.sqrt(sy))


def mass(u: RealField2D) -> float:
    """int u^2 dx dy (the L^2 invariant of the flow)."""
    g = u.grid
    return float(np.sum(u.samples**2) * g.dx * g.dy)


def hamiltonian(u: RealField2D, params: DispersionParams) -> float:
    """Energy int ( |D_x^{(a+1)/2} u|^2 - u_y^2 + u^3/3 ) dx dy.

    This is the quantity exactly preserved by u_t = -d/dx (D_x^{a+1} u +
    u_yy + u^2/2): its variational derivative is twice that bracket, so the
    time derivative is the integral of an exact x-derivative.
    """
    g = u.grid
    m = np.abs(half_xi(g)) ** (params.a + 1.0) - g.eta[:, None] ** 2
    (quadratic,) = _spectral_sums(half_spectrum(u), g, m)
    cube = u.samples * u.samples  # not u**3, which goes through libm pow
    cube *= u.samples
    cubic = np.sum(cube) * g.dx * g.dy / 3.0
    return float(quadratic + cubic)


def zero_mode_slice(u: RealField2D) -> np.ndarray:
    """uhat(0, eta) over the eta lattice (fft order): x-integral per y row."""
    g = u.grid
    row_integral = np.sum(u.samples, axis=1) * g.dx
    # 1D continuous-normalized transform in y of the x-integral
    return np.fft.fft(np.fft.ifftshift(row_integral)) * g.dy


def boundary_mass_ratio(u: RealField2D) -> float:
    """max |u| on the box boundary relative to the interior peak."""
    s = np.abs(u.samples)
    peak = float(np.max(s))
    if peak == 0.0:
        return 0.0
    edge = max(s[0, :].max(), s[-1, :].max(), s[:, 0].max(), s[:, -1].max())
    return float(edge / peak)


# x_moment warns when max |u| on the box boundary exceeds this share of the peak
_LOCALIZATION_TOL = 1e-12


def x_moment(u: RealField2D, eta: float = 0.0) -> complex:
    """int x exp(-i eta y) u dx dy with centered box coordinates."""
    if boundary_mass_ratio(u) > _LOCALIZATION_TOL:
        warnings.warn(
            "x_moment: field is not localized (boundary mass above "
            f"{_LOCALIZATION_TOL:g} of peak); moment of a periodic field is "
            "a box-truncated proxy only",
            stacklevel=2,
        )
    g = u.grid
    phase = np.exp(-1j * eta * g.y)[:, None]
    return complex(np.sum(g.x[None, :] * phase * u.samples) * g.dx * g.dy)


# --- interpolation-inequality probe ------------------------------------------

def interx_probe(
    fields: list[RealField2D],
    alpha: float,
    b: float,
    beta: float,
    N: float = np.inf,
) -> float:
    """Largest measured constant of the weighted interpolation inequality.

    Probes ||J_x^{alpha beta}(<x>_N^{(1-beta) b} f)|| <=
    C ||<x>_N^b f||^{1-beta} ||J_x^alpha f||^beta over the given family and
    returns the max ratio; a zero field's ratio is 0.  Stability of this
    number under grid refinement and truncation level is what the callers
    test.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if len(fields) == 0:
        raise ValueError("fields must hold at least one field")
    ratios = []
    for f in fields:
        g = f.grid
        w = _axis_weight(g, "x", N)
        xi2 = 1.0 + half_xi(g) ** 2
        weighted = RealField2D(g, w ** ((1.0 - beta) * b) * f.samples)
        (lhs,) = _spectral_sums(half_spectrum(weighted), g, xi2 ** (alpha * beta))
        (jnorm,) = _spectral_sums(half_spectrum(f), g, xi2**alpha)
        rhs = _weighted_l2(f, w**b) ** (1.0 - beta) * np.sqrt(jnorm) ** beta
        ratios.append(float(np.sqrt(lhs) / rhs) if rhs > 0 else 0.0)
    return max(ratios)
