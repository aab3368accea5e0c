"""Exact linear flow of the gBO-ZK equation and xi-derivative expansions.

The linear equation u_t + D_x^{a+1} u_x + u_xyy = 0 is diagonal in Fourier
variables: each coefficient evolves as exp(i t w(xi, eta)) with phase rate

    w(xi, eta) = xi (eta^2 - |xi|^{1+a}).

This module also evaluates the closed-form expansions of the derivatives
d^k/dxi^k [ psi(xi, eta, t) phihat(xi, eta) ],  psi = exp(i t w),  k = 1..4,
as explicit term sums (7, 14 and 25 terms for k = 2, 3, 4).  Two coefficient
tables are kept: the table as transcribed from the source identities
(``variant="printed"``) and the table obtained by direct chain-rule
differentiation (``variant="derived"``).  They differ in exactly two k = 4
terms (H3 and H4); ``xi_expansion_check`` isolates and reports any such
term-level discrepancy against a high-precision ``mpmath.diff`` oracle
instead of silently correcting the transcription.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralField2D

__all__ = [
    "DispersionParams",
    "PhiJet",
    "dispersion_symbol",
    "apply_linear_propagator",
    "xi_expansion_eval",
    "xi_expansion_terms",
    "xi_expansion_check",
    "gaussian_jet",
    "fd_oracle",
    "ExpansionReport",
]


@dataclass(frozen=True)
class DispersionParams:
    """Fractional dispersion exponent a in [0, 1] (a=0 BO-ZK, a=1 ZK)."""

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


def apply_linear_propagator(
    field: SpectralField2D, t: float, params: DispersionParams
) -> SpectralField2D:
    """Multiply every coefficient by exp(i t w); per-mode modulus preserved."""
    g = field.grid
    w = dispersion_symbol(g.xi[None, :], g.eta[:, None], params.a)
    return SpectralField2D(g, field.coeffs * np.exp(1j * t * w))


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


def _terms_k4(x, e, t, a, printed: bool):
    s = np.sign(x)
    ax = abs(x)
    # H3/H4 as printed in the source identity; the derived (chain-rule)
    # coefficients are -12i and +6i respectively.
    c_h3 = -9j if printed else -12j
    c_h4 = -6j if printed else +6j
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


def xi_expansion_terms(
    k: int, jet: PhiJet, t: float, params: DispersionParams, variant: str = "printed"
) -> list[tuple[str, complex]]:
    """Per-term values of d^k/dxi^k (psi phihat); sums to xi_expansion_eval."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"expansion order k must be 1..4, got {k}")
    if variant not in ("printed", "derived"):
        raise ValueError(f"unknown variant {variant!r}")
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
        table = _terms_k4(x, e, t, a, printed=(variant == "printed"))
    psi = np.exp(1j * t * dispersion_symbol(x, e, a))
    return [(name, psi * coeff * jet.values[order]) for name, order, coeff in table]


def xi_expansion_eval(
    k: int, jet: PhiJet, t: float, params: DispersionParams, variant: str = "printed"
) -> complex:
    """Value of d^k/dxi^k (psi phihat) at the jet's (xi, eta)."""
    return complex(sum(v for _, v in xi_expansion_terms(k, jet, t, params, variant)))


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
        """Oracle match, possibly after isolating documented discrepant terms."""
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
    """Compare the printed term table against ``fd_oracle`` on the check grid of Gaussian jets.

    If the printed expansion misses the tolerance, the mismatch is localized
    term by term against the chain-rule table and reported by term id; the
    corrected error is evaluated with the derived coefficients.  It is the
    tables' float64 phase rounding, growing in proportion to t (5.1e-13 at
    t = 1e3, 2.6e-12 at 1e4, 3.5e-8 at 1e8, 3.2e-6 at 1e10), so a failure at
    the default tolerance from about t = 3e9 up is that rounding.  A t whose
    term sums leave the float range (|t| above about 1e307, 1e153, 1e101 and
    1e76 for k = 1..4) raises ``OverflowError`` before the oracle runs.
    """
    # each point's two term tables and their sums, evaluated once; on the
    # way out of the float range Python's float power raises, and the
    # products give inf or nan in silence
    points = [(x, e) for x in _XI_CHECK_GRID for e in _ETA_CHECK_GRID]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            tables = [[xi_expansion_terms(k, gaussian_jet(x, e), t, params, v)
                       for v in ("printed", "derived")] for x, e in points]
            sums = [[complex(sum(v for _, v in table)) for table in pair] for pair in tables]
        finite = bool(np.all(np.isfinite(sums)))
    except OverflowError:
        finite = False
    if not finite:
        raise OverflowError(f"the order-{k} term tables at t = {t:g} leave the float range")
    oracle_vals = [fd_oracle(k, x, e, t, params.a) for x, e in points]

    rel_printed, rel_derived = (
        _rel_errors([pair[i] for pair in sums], oracle_vals) for i in (0, 1)
    )

    discrepant: list[str] = []
    if max(rel_printed) >= tolerance:
        # isolate: which term ids have printed != derived coefficients
        tp, td = map(dict, tables[int(np.argmax(rel_printed))])
        scale = max(max(abs(v) for v in tp.values()), 1e-300)
        discrepant = [
            name for name in tp if abs(tp[name] - td[name]) > 1e-12 * scale
        ]

    return ExpansionReport(
        k=k,
        t=t,
        max_rel_error=float(max(rel_printed)),
        median_rel_error=float(np.median(rel_printed)),
        max_rel_error_corrected=float(max(rel_derived)),
        discrepant_terms=discrepant,
        tolerance=tolerance,
    )
