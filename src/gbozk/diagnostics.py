"""Norms, conserved quantities and moment diagnostics on box-sampled fields.

Weighted quantities come in two flavours used in different places:

* ``weighted_norm`` realizes the decay norm of L^2_{r1,r2} with weight
  1 + w(x)^{2 r1} + w(y)^{2 r2}, where w is |.| truncated at level N
  (plateau 2N, smooth blend) and plain |.| for N = inf.  The constant-1
  transverse term is dropped when r2 = 0 so that the r2 = 0 norm is the
  pure x-weighted norm.
* the smooth truncated weight <x>_N = sqrt(1+x^2) for |x| <= N, 2N for
  |x| >= 3N, used for the truncated-norm ladders ||<x>_N^r u||.

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
from .spectral import RealField2D, SpectralField2D, to_spectral

__all__ = [
    "WeightSpec",
    "SobolevSpec",
    "truncated_weight",
    "truncated_abs_weight",
    "truncated_weight_blend_constant",
    "weighted_norm",
    "truncated_x_norm",
    "sobolev_norm",
    "multiplier_norm",
    "mass",
    "hamiltonian",
    "zero_mode_slice",
    "x_moment",
    "boundary_mass_ratio",
    "interx_probe",
]


@dataclass(frozen=True)
class WeightSpec:
    """Decay exponents (r1, r2) and truncation level N (np.inf = untruncated)."""

    r1: float
    r2: float = 0.0
    N: float = np.inf

    def __post_init__(self) -> None:
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("decay exponents r1, r2 must be nonnegative")
        if not self.N > 0:
            raise ValueError("truncation level N must be positive")


@dataclass(frozen=True)
class SobolevSpec:
    """Anisotropic Sobolev orders (s1, s2)."""

    s1: float
    s2: float

    @classmethod
    def from_scalar(cls, s: float, a: float) -> "SobolevSpec":
        """The pairing ((1+a) s, 2 s) of the resolution space E^s."""
        return cls((1.0 + a) * s, 2.0 * s)


# --- smoothstep machinery ---------------------------------------------------

def _smootherstep(tau: np.ndarray) -> np.ndarray:
    """C^2 step 10 t^3 - 15 t^4 + 6 t^5 on [0, 1], clamped outside."""
    t = np.clip(tau, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _smootherstep_antideriv(tau: np.ndarray) -> np.ndarray:
    """Antiderivative of 1 - smootherstep on [0, 1]; equals 1/2 at tau = 1."""
    t = np.clip(tau, 0.0, 1.0)
    return t - 2.5 * t**4 + 3.0 * t**5 - t**6


def truncated_abs_weight(x, N: float):
    """|x| truncated at level N: equals |x| for |x| <= N, 2N for |x| >= 3N.

    The blend on N <= |x| <= 3N integrates the C^2 profile (1 - step), which
    meets both endpoint values exactly; the derivative stays in [0, 1].
    """
    if not N > 0:
        raise ValueError("N must be positive")
    ax = np.abs(np.asarray(x, dtype=float))
    if np.isinf(N):
        return ax if ax.shape else float(ax)
    tau = (ax - N) / (2.0 * N)
    out = np.where(
        ax <= N, ax, np.where(ax >= 3.0 * N, 2.0 * N, N + 2.0 * N * _smootherstep_antideriv(tau))
    )
    return out if out.shape else float(out)


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
    and the derivative within [0, <x>'].  Requires N >= 1 (for smaller N the
    plateau 2N sits below <N> and no monotone blend exists).
    """
    from scipy.optimize import brentq

    nodes, wts = _gauss_legendre(96)

    def blend_integral(p: float) -> float:
        s = N + (nodes + 1.0) * N  # map [-1,1] -> [N, 3N]
        tau = (s - N) / (2.0 * N)
        vals = s / np.sqrt(1.0 + s**2) * (1.0 - _smootherstep(tau)) ** p
        return float(np.sum(wts * vals) * N)

    target = 2.0 * N - np.sqrt(1.0 + N**2)
    f = lambda p: blend_integral(p) - target
    if f(1.0) < 0:
        raise ValueError(f"no monotone C^2 blend for N = {N}; need N >= 1")
    return float(brentq(f, 1.0, 60.0, xtol=1e-13))


def truncated_weight(x, N: float):
    """Smooth truncated weight <x>_N.

    Equals <x> = sqrt(1+x^2) on [-N, N] and the constant 2N for |x| >= 3N;
    on the blend the derivative is <x>'(x) (1 - step)^p <= <x>' <= 1, which
    keeps the weight monotone, below both <x> and 2N, and C^2 at the joins.
    """
    if not N > 0:
        raise ValueError("N must be positive")
    ax = np.abs(np.asarray(x, dtype=float))
    bracket = np.sqrt(1.0 + ax**2)
    if np.isinf(N):
        return bracket if bracket.shape else float(bracket)
    if N < 1.0:
        raise ValueError(f"truncation level must satisfy N >= 1, got {N}")
    p = _bracket_exponent(float(N))
    out = np.where(ax <= N, bracket, 2.0 * N)
    in_blend = (ax > N) & (ax < 3.0 * N)
    if np.any(in_blend):
        out = np.array(out, dtype=float, copy=True)
        xs = ax[in_blend] if ax.shape else np.array([float(ax)])
        vals = _blend_values(xs, float(N), p)
        if ax.shape:
            out[in_blend] = vals
        else:
            out = vals[0]
    return out if np.asarray(out).shape else float(out)


def _blend_values(xs: np.ndarray, N: float, p: float) -> np.ndarray:
    """<N> + int_N^x <t>' (1-step)^p dt by per-point Gauss-Legendre."""
    nodes, wts = _gauss_legendre(96)
    half = 0.5 * (xs - N)
    t = N + half[:, None] * (nodes[None, :] + 1.0)
    tau = (t - N) / (2.0 * N)
    integrand = t / np.sqrt(1.0 + t**2) * (1.0 - _smootherstep(tau)) ** p
    return np.sqrt(1.0 + N**2) + np.sum(wts[None, :] * integrand, axis=1) * half


def truncated_weight_blend_constant(N: float, samples: int = 4001) -> float:
    """Measured sup |<x>_N''| / <x>'' over the blend (reported, not asserted).

    The second derivative is estimated by central differences on a dense
    sample; the ratio grows with N because the plateau forces the slope from
    ~1 to 0 across a window where <x>'' has already decayed.
    """
    x = np.linspace(N * (1 - 1e-3), 3.0 * N * (1 + 1e-3), samples)
    w = truncated_weight(x, N)
    h = x[1] - x[0]
    second = np.abs(np.diff(w, 2)) / h**2
    ref = (1.0 + x[1:-1] ** 2) ** (-1.5)
    return float(np.max(second / ref))


# --- norms -------------------------------------------------------------------

def weighted_norm(u: RealField2D, spec: WeightSpec) -> float:
    """Decay norm sqrt( int (1 + w_x^{2 r1} [+ w_y^{2 r2}]) u^2 dx dy ).

    The y term participates only for r2 > 0; w is the truncated absolute
    weight at level N (plain |.| when N is infinite).
    """
    g = u.grid
    wx = truncated_abs_weight(g.x, spec.N) ** (2.0 * spec.r1)
    weight = 1.0 + wx[None, :]
    if spec.r2 > 0:
        wy = truncated_abs_weight(g.y, spec.N) ** (2.0 * spec.r2)
        weight = weight + wy[:, None]
    return float(np.sqrt(np.sum(weight * u.samples**2) * g.dx * g.dy))


def truncated_x_norm(u: RealField2D, r1: float, N: float) -> float:
    """Truncated-ladder norm ||<x>_N^{r1} u||_{L^2}."""
    g = u.grid
    w = truncated_weight(g.x, N) ** r1
    return float(np.sqrt(np.sum((w[None, :] * u.samples) ** 2) * g.dx * g.dy))


def truncated_y_norm(u: RealField2D, r2: float, N: float = np.inf) -> float:
    """Transverse norm ||<y>_N^{r2} u||_{L^2} (untruncated by default)."""
    g = u.grid
    w = truncated_weight(g.y, N) ** r2
    return float(np.sqrt(np.sum((w[:, None] * u.samples) ** 2) * g.dx * g.dy))


def multiplier_norm(spec: SpectralField2D, m) -> np.float64:
    """L^2 norm of the operator with squared Fourier multiplier ``m``.

    Computes sqrt(sum m |c|^2 / (lx ly)); ``m`` broadcasts against the
    coefficients.
    """
    g = spec.grid
    return np.sqrt(np.sum(m * np.abs(spec.coeffs) ** 2) / (g.lx * g.ly))


def sobolev_norm(u: RealField2D, spec: SobolevSpec) -> float:
    """Anisotropic norm sqrt(||u||^2 + ||J_x^{s1} u||^2 + ||J_y^{s2} u||^2)."""
    g = u.grid
    mx = (1.0 + g.xi**2) ** spec.s1  # squared multiplier
    my = (1.0 + g.eta**2) ** spec.s2
    return float(multiplier_norm(to_spectral(u), 1.0 + mx[None, :] + my[:, None]))


def directional_sobolev_norms(u: RealField2D, spec: SobolevSpec) -> tuple[float, float]:
    """(||J_x^{s1} u||, ||J_y^{s2} u||), the two directional pieces."""
    g = u.grid
    uhat = to_spectral(u)
    mx = (1.0 + g.xi**2) ** spec.s1
    my = (1.0 + g.eta**2) ** spec.s2
    return float(multiplier_norm(uhat, mx[None, :])), float(multiplier_norm(uhat, my[:, None]))


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
    c = to_spectral(u).coeffs
    quad_x = np.abs(g.xi[None, :]) ** (params.a + 1.0) * np.abs(c) ** 2
    quad_y = (g.eta[:, None] ** 2) * np.abs(c) ** 2
    quadratic = np.sum(quad_x - quad_y) / (g.lx * g.ly)
    cubic = np.sum(u.samples**3) * g.dx * g.dy / 3.0
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


def x_moment(u: RealField2D, eta: float = 0.0, localization_tol: float = 1e-12) -> complex:
    """int x exp(-i eta y) u dx dy with centered box coordinates."""
    if boundary_mass_ratio(u) > localization_tol:
        warnings.warn(
            "x_moment: field is not localized (boundary mass above "
            f"{localization_tol:g} of peak); moment of a periodic field is "
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
    returns the max ratio.  Stability of this number under grid refinement
    and truncation level is what the callers test.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    ratios = []
    for f in fields:
        g = f.grid
        if np.isinf(N):
            w_pow = np.sqrt(1.0 + g.x**2)
        else:
            w_pow = truncated_weight(g.x, N)
        weighted = RealField2D(g, (w_pow ** ((1.0 - beta) * b))[None, :] * f.samples)
        mx = (1.0 + g.xi**2) ** (alpha * beta)
        lhs = multiplier_norm(to_spectral(weighted), mx[None, :])

        wnorm = np.sqrt(
            np.sum(((w_pow**b)[None, :] * f.samples) ** 2) * g.dx * g.dy
        )
        mxa = (1.0 + g.xi**2) ** alpha
        jnorm = multiplier_norm(to_spectral(f), mxa[None, :])
        rhs = wnorm ** (1.0 - beta) * jnorm**beta
        if rhs > 0:
            ratios.append(float(lhs / rhs))
    return max(ratios)
