"""Exact linear flow of the gBO-ZK equation and xi-derivative expansions.

The linear equation u_t + D_x^{a+1} u_x + u_xyy = 0 is diagonal in Fourier
variables: each coefficient evolves as exp(i t w(xi, eta)) with phase rate

    w(xi, eta) = xi (eta^2 - |xi|^{1+a}).

``apply_linear_propagator`` applies this group U(t) to the ``rfft2`` half
spectrum, the state ``spectral.half_spectrum`` forms and ``solver`` steps.

This module also evaluates the closed-form expansions of the derivatives
d^k/dxi^k [ psi(xi, eta, t) phihat(xi, eta) ],  psi = exp(i t w),  k = 1..4,
as explicit term sums (7, 14 and 25 terms for k = 2, 3, 4) by chain-rule
differentiation.  The source's printed fourth-order table differs in two
coefficients (H3 and H4); they are kept only as data that
``xi_expansion_check`` compares against a high-precision ``mpmath.diff``
oracle, and it names them only when they explain a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import GridSpec, half_xi

__all__ = [
    "DispersionParams",
    "PhiJet",
    "dispersion_symbol",
    "apply_linear_propagator",
    "xi_expansion_terms",
    "xi_expansion_check",
    "gaussian_jet",
    "fd_oracle",
    "ExpansionReport",
]


@dataclass(frozen=True)
class DispersionParams:
    """Fractional dispersion exponent a in [0, 1]: a = 0 is BO-ZK; a = 1 is
    u_t - u_xxx + u_xyy + u u_x = 0, whose x- and y-dispersion have opposite
    signs, not ZK's u_t + u_xxx + u_xyy + u u_x = 0."""

    a: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"dispersion exponent a must lie in [0, 1], got {self.a}")


def dispersion_symbol(xi, eta, a: float):
    """Phase rate w(xi, eta) = xi (eta^2 - |xi|^{1+a}); odd in xi, even in eta."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = xi * (eta**2 - np.abs(xi) ** (1.0 + a))
    return out if out.shape else float(out)


def apply_linear_propagator(v, grid: GridSpec, t: float, params: DispersionParams) -> np.ndarray:
    """U(t) v: the half spectrum v, shape (ny, nx//2+1), times exp(i t w); moduli kept."""
    w = dispersion_symbol(half_xi(grid)[None, :], grid.eta[:, None], params.a)
    return v * np.exp(1j * t * w)


@dataclass(frozen=True)
class PhiJet:
    """Value and first four xi-derivatives of phihat at a point (xi, eta)."""

    xi: float
    eta: float
    values: tuple[complex, complex, complex, complex, complex]

    def __post_init__(self) -> None:
        if len(self.values) != 5:
            raise ValueError("jet needs exactly five entries (value and 4 derivatives)")
        if not all(np.isfinite(v) for v in self.values):
            raise ValueError("jet entries must be finite")


def gaussian_jet(xi: float, eta: float) -> PhiJet:
    """Jet of phihat = exp(-xi^2 - eta^2); xi-derivatives via Hermite factors."""
    v0 = np.exp(-(xi**2) - eta**2)
    return PhiJet(
        xi,
        eta,
        (
            v0,
            -2.0 * xi * v0,
            (4.0 * xi**2 - 2.0) * v0,
            (-8.0 * xi**3 + 12.0 * xi) * v0,
            (16.0 * xi**4 - 48.0 * xi**2 + 12.0) * v0,
        ),
    )


# --- term tables -----------------------------------------------------------
#
# Each term is (term_id, jet_order, coefficient function of (xi, eta, t, a)).
# The assembled value is psi * sum(coeff * jet[order]).  sgn/|xi| powers make
# the k >= 2 tables singular or discontinuous at xi = 0.


def _terms_k1(x, e, t, a):
    return [
        ("F1_1", 0, 1j * t * e**2),
        ("F1_2", 0, -1j * t * (2 + a) * abs(x) ** (1 + a)),
        ("F1_3", 1, 1.0),
    ]


def _terms_k2(x, e, t, a):
    s = np.sign(x)
    return [
        ("F1", 0, -1j * t * (2 + a) * (1 + a) * s * abs(x) ** a),
        ("F2", 0, -(t**2) * (2 + a) ** 2 * abs(x) ** (2 * (1 + a))),
        ("F3", 0, 2 * t**2 * (2 + a) * abs(x) ** (1 + a) * e**2),
        ("F4", 0, -(t**2) * e**4),
        ("F5", 1, 2j * t * e**2),
        ("F6", 1, -2j * t * (2 + a) * abs(x) ** (1 + a)),
        ("F7", 2, 1.0),
    ]


def _terms_k3(x, e, t, a):
    s = np.sign(x)
    ax = abs(x)
    return [
        ("G1", 0, 3 * (2 + a) * (1 + a) * s * t**2 * e**2 * ax**a),
        ("G2", 0, -3j * t**3 * (2 + a) ** 2 * e**2 * ax ** (2 * (1 + a))),
        ("G3", 0, 1j * t**3 * (2 + a) ** 3 * ax ** (3 * (1 + a))),
        ("G4", 0, 3j * t**3 * (2 + a) * ax ** (1 + a) * e**4),
        ("G5", 0, -1j * t**3 * e**6),
        ("G6", 0, -1j * t * a * (2 + a) * (1 + a) * ax ** (a - 1)),
        ("G7", 0, -3 * t**2 * (2 + a) ** 2 * (1 + a) * s * ax ** (1 + 2 * a)),
        ("G8", 1, -3j * t * (2 + a) * (1 + a) * s * ax**a),
        ("G9", 1, -3 * t**2 * (2 + a) ** 2 * ax ** (2 * (1 + a))),
        ("G10", 1, 6 * t**2 * (2 + a) * e**2 * ax ** (1 + a)),
        ("G11", 1, -3 * t**2 * e**4),
        ("G12", 2, 3j * t * e**2),
        ("G13", 2, -3j * t * (2 + a) * ax ** (1 + a)),
        ("G14", 3, 1.0),
    ]


# H3/H4 as printed in the source identity, where the chain rule gives -12i and
# +6i; only ``xi_expansion_check`` evaluates them
_PRINTED_K4 = {"H3": -9j, "H4": -6j}


def _terms_k4(x, e, t, a, printed):
    s = np.sign(x)
    ax = abs(x)
    c_h3, c_h4 = _PRINTED_K4.values() if printed else (-12j, 6j)
    return [
        ("H1", 0, 4 * a * (2 + a) * (1 + a) * t**2 * e**2 * ax ** (a - 1)),
        ("H2", 0, -(7 * a + 3) * (1 + a) * (2 + a) ** 2 * t**2 * ax ** (2 * a)),
        ("H3", 0, c_h3 * (1 + a) * (2 + a) ** 2 * t**3 * s * e**2 * ax ** (1 + 2 * a)),
        ("H4", 0, c_h4 * (2 + a) ** 3 * (1 + a) * t**3 * s * ax ** (2 + 3 * a)),
        ("H5", 0, 6j * (2 + a) * (1 + a) * t**3 * s * e**4 * ax**a),
        ("H6", 0, -1j * t * a * (2 + a) * (a**2 - 1) * s * ax ** (a - 2)),
        ("H7", 0, 6 * t**4 * (2 + a) ** 2 * e**4 * ax ** (2 * (1 + a))),
        ("H8", 0, -4 * (2 + a) ** 3 * t**4 * e**2 * ax ** (3 * (1 + a))),
        ("H9", 0, t**4 * (2 + a) ** 4 * ax ** (4 * (1 + a))),
        ("H10", 0, -4 * t**4 * (2 + a) * e**6 * ax ** (1 + a)),
        ("H11", 0, t**4 * e**8),
        ("H12", 1, -4j * t * a * (2 + a) * (1 + a) * ax ** (a - 1)),
        ("H13", 1, -12 * t**2 * (2 + a) ** 2 * (1 + a) * s * ax ** (1 + 2 * a)),
        ("H14", 1, 12 * t**2 * (1 + a) * (2 + a) * s * e**2 * ax**a),
        ("H15", 1, 12j * t**3 * (2 + a) * e**4 * ax ** (1 + a)),
        ("H16", 1, -12j * t**3 * (2 + a) ** 2 * e**2 * ax ** (2 * (1 + a))),
        ("H17", 1, 4j * t**3 * (2 + a) ** 3 * ax ** (3 * (1 + a))),
        ("H18", 1, -4j * t**3 * e**6),
        ("H19", 2, -6j * t * (2 + a) * (1 + a) * s * ax**a),
        ("H20", 2, -6 * t**2 * e**4),
        ("H21", 2, -6 * t**2 * (2 + a) ** 2 * ax ** (2 * (1 + a))),
        ("H22", 2, 12 * t**2 * (2 + a) * e**2 * ax ** (1 + a)),
        ("H23", 3, 4j * t * e**2),
        ("H24", 3, -4j * t * (2 + a) * ax ** (1 + a)),
        ("H25", 4, 1.0),
    ]


def _term_values(k, jet, t, params, printed=False):
    """Per-term values, with the printed H3/H4 coefficients if ``printed``."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"expansion order k must be 1..4, got {k}")
    x, e, a = jet.xi, jet.eta, params.a
    if k >= 2 and x == 0.0:
        raise ValueError("xi = 0 is singular for expansion orders k >= 2")
    if k == 1:
        table = _terms_k1(x, e, t, a)
    elif k == 2:
        table = _terms_k2(x, e, t, a)
    elif k == 3:
        table = _terms_k3(x, e, t, a)
    else:
        table = _terms_k4(x, e, t, a, printed)
    psi = np.exp(1j * t * dispersion_symbol(x, e, a))
    return [(name, psi * coeff * jet.values[order]) for name, order, coeff in table]


def xi_expansion_terms(
    k: int, jet: PhiJet, t: float, params: DispersionParams
) -> list[tuple[str, complex]]:
    """Named terms whose sum is d^k/dxi^k (psi phihat) at the jet's (xi, eta)."""
    return _term_values(k, jet, t, params)


# --- oracle -----------------------------------------------------------------


def _psi_phihat_mp(xi, eta, t, a):
    """psi phihat in mpmath, with the Gaussian phihat = exp(-xi^2 - eta^2)."""
    import mpmath as mp

    w = xi * (eta**2 - abs(xi) ** (1 + mp.mpf(a)))
    return mp.e ** (1j * mp.mpf(t) * w) * mp.e ** (-(xi**2) - eta**2)


def fd_oracle(k: int, xi: float, eta: float, t: float, a: float) -> complex:
    """d^k/dxi^k (psi phihat) by ``mpmath.diff`` at 30 digits.

    phihat is the Gaussian exp(-xi^2 - eta^2) of ``gaussian_jet``.  mpmath
    is imported here, so only the oracle's callers load it.
    """
    import mpmath as mp

    with mp.workdps(30):
        return complex(mp.diff(lambda x: _psi_phihat_mp(x, mp.mpf(eta), t, a), xi, k))


@dataclass
class ExpansionReport:
    """Outcome of comparing the term-sum expansion against ``fd_oracle``."""

    k: int
    t: float
    max_rel_error: float
    median_rel_error: float
    max_rel_error_corrected: float
    tolerance: float = 1e-6
    discrepant_terms: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Oracle match of the chain-rule table."""
        return self.max_rel_error_corrected < self.tolerance


def _rel_errors(values, oracle_values):
    scale = max(abs(v) for v in oracle_values)
    return [
        abs(v - o) / max(abs(o), 1e-3 * scale)
        for v, o in zip(values, oracle_values)
    ]


# the (xi, eta) grid of ``xi_expansion_check``
_XI_CHECK_GRID = np.linspace(0.1, 1.45, 10)
_ETA_CHECK_GRID = np.linspace(0.0, 1.35, 10)


def xi_expansion_check(
    k: int, t: float, params: DispersionParams, tolerance: float = 1e-6
) -> ExpansionReport:
    """Compare the printed and chain-rule tables against ``fd_oracle`` on the check grid.

    ``max_rel_error`` and ``median_rel_error`` are the source's printed
    table's (it differs from the chain rule in H3 and H4 at k = 4), and
    ``max_rel_error_corrected`` is the chain-rule table's, which decides
    ``passed``.  H3 and H4 are named as ``discrepant_terms`` only when the
    printed table misses the tolerance and the chain-rule table meets it.
    Otherwise no term is named: a failure of both is the tables' float64
    phase rounding, growing in proportion to t (5.1e-13 at t = 1e3, 2.6e-12
    at 1e4, 3.5e-8 at 1e8, 3.2e-6 at 1e10), so at the default tolerance it
    starts at about t = 3e9.  A t whose term sums leave the float range (|t|
    above about 1e307, 1e153, 1e101 and 1e76 for k = 1..4) raises
    ``OverflowError`` before the oracle runs.
    """
    # each point's printed and chain-rule sums; on the way out of the float
    # range Python's float power raises, and the products give inf or nan in
    # silence
    points = [(x, e) for x in _XI_CHECK_GRID for e in _ETA_CHECK_GRID]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sums = [[complex(sum(v for _, v in _term_values(k, gaussian_jet(x, e), t, params, p)))
                     for p in (True, False)] for x, e in points]
        finite = bool(np.all(np.isfinite(sums)))
    except OverflowError:
        finite = False
    if not finite:
        raise OverflowError(f"the order-{k} term tables at t = {t:g} leave the float range")
    oracle_vals = [fd_oracle(k, x, e, t, params.a) for x, e in points]

    rel_printed, rel_derived = (
        _rel_errors([pair[i] for pair in sums], oracle_vals) for i in (0, 1)
    )
    explained = max(rel_printed) >= tolerance > max(rel_derived)
    return ExpansionReport(
        k=k,
        t=t,
        max_rel_error=float(max(rel_printed)),
        median_rel_error=float(np.median(rel_printed)),
        max_rel_error_corrected=float(max(rel_derived)),
        discrepant_terms=list(_PRINTED_K4) if explained else [],
        tolerance=tolerance,
    )
