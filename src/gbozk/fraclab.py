"""Numerical Stein fractional derivative in 1D and threshold/asymptotics probes.

The central object is

    D^b f(x) = ( int_R |f(x) - f(y)|^2 / |x - y|^{1 + 2b} dy )^{1/2},
    0 < b < 1,

whose L^2 norm is equivalent to that of the spectral fractional derivative.
The quadrature splits the integral at the evaluation point: an inner window
[x - delta, x + delta] is integrated after the substitution s = delta v^q,
q = 1/(2 - 2b), which flattens the |s|^{1-2b} endpoint behaviour; the outer
region is integrated adaptively with breakpoints at the profile's kinks and
support edges, and the remainder beyond the truncation radius is added
analytically (exactly for compactly supported profiles).

Membership of D^theta(profile) in L^2 near the origin is decided from the
increments of the squared norm over dyadic windows |eta| in [2^{-k-1}, 2^{-k}]:
geometrically decaying increments integrate to a finite norm, persistent or
growing increments witness (log- or power-) divergence.  For theta >= 1 the
Stein integral itself is pointwise divergent, so the classifier applies the
reduction D^theta ~ D^{theta-1} o d/dxi, which preserves the membership
threshold; D^0 is the identity.  A profile ~ |y|^p with p <= -1/2 is not
square integrable at its kink, so D^theta of it is infinite at every point
for theta > 0; its divergence is witnessed at order 0.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

_QUADPACK = "scipy.integrate._quadpack"


def _quadpack():
    """scipy's compiled QUADPACK extension, loaded without ``scipy.integrate``.

    An entry already in ``sys.modules`` is used as it is; otherwise the
    extension is loaded from scipy's ``integrate`` directory and registered
    under its own name, so a later ``import scipy.integrate`` reuses it.
    The extension does not load alone: ``import scipy`` here brings in the
    package root, and the first integrand callback imports
    ``scipy._lib._ccallback`` (which needs that root anyway), so a Stein run
    holds 11 scipy modules, the extension among them.
    """
    mod = sys.modules.get(_QUADPACK)
    if mod is None:
        import scipy

        spec = importlib.machinery.PathFinder.find_spec(
            _QUADPACK, [os.path.join(scipy.__path__[0], "integrate")]
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        sys.modules[_QUADPACK] = mod
    return mod


def quad(fn, a, b, epsabs, epsrel, limit):
    """QUADPACK's qagse on the finite interval [a, b]: (value, abserr, neval, ier).

    This is the call ``scipy.integrate.quad(fn, a, b, full_output=1, ...)``
    makes for a finite interval without break points, and it returns the same
    bits.  The extension is loaded alone: ``import scipy.integrate`` costs
    about 0.6 s and 355 scipy modules (``scipy.optimize``, ``scipy.special``,
    ``scipy.sparse``, ...), half of a three-query Stein batch, and none of it
    is used here.  ``ier`` is QUADPACK's flag, 0 for a converged panel (1 at
    the subdivision limit, 2-5 for roundoff or bad integrand behaviour).  A
    flagged panel's error estimate can understate its error by orders of
    magnitude: at an order b near 1 the Stein inner window (s = delta v^q,
    q = 5 at b = 0.9) reaches offsets where x +- s rounds to x and
    f(x) - f(x +- s) cancels, and stops at a roundoff floor about 1e-3 of its
    value, where quad reports about 2e-6 at 200 subdivisions (6e-4 at 20).
    The engine's absolute accuracy is pinned by independent oracles in the
    test suite, not by quad's own error report, which is passed on for
    monitoring only.
    """
    value, abserr, info, ier = _quadpack()._qagse(fn, a, b, (), 1, epsabs, epsrel, limit)
    if ier == 6:  # QUADPACK rejected the input and computed nothing
        raise ValueError(f"invalid quadrature input: epsrel {epsrel}, limit {limit}")
    return value, abserr, info["neval"], ier

from .diagnostics import _spectral_sums, _weighted_l2
from .propagator import dispersion_symbol
from .spectral import RealField2D, half_spectrum, half_xi

__all__ = [
    "cutoff_phi",
    "cutoff_phi_prime",
    "SteinResult",
    "stein_derivative",
    "make_profile",
    "Profile",
    "dstein_profile",
    "l2_membership_classify",
    "check_order",
    "MembershipEvidence",
    "fit_exponent",
    "grid_stein_rows",
    "lemma_df_probe",
    "DfProbeResult",
    "gaussian_ensemble",
]


# --- smooth cutoff -----------------------------------------------------------

# quad evaluates the profiles once per point on a Python float: the profiles
# (make_profile) take a Python float and call the cutoff's core at |x|,
# _phi_abs, directly; the cutoff reads any real scalar once with float(x), so
# an array is a TypeError.  The cutoff calls np.exp, not math.exp: numpy's exp
# differs from libm's in the last bit for a few percent of arguments, and the
# regression-pinned Stein values were computed with numpy's.

def _bump_s(t: float) -> float:
    """exp(-1/t) for t > 0, else 0; the standard C-infinity glue."""
    return float(np.exp(-1.0 / t)) if t > 0.0 else 0.0


def _phi_abs(ax: float) -> float:
    """The cutoff at |x| = ax, a float >= 0 (or NaN)."""
    if ax <= 1.0:
        return 1.0
    if ax < 2.0:
        sa, sb = _bump_s(2.0 - ax), _bump_s(ax - 1.0)
        return sa / (sa + sb)
    return 0.0 if ax >= 2.0 else math.nan


def cutoff_phi(x) -> float:
    """Even C-infinity cutoff at a real scalar x: 1 on (-1, 1), 0 outside
    [-2, 2], monotone between."""
    return _phi_abs(abs(float(x)))


def cutoff_phi_prime(x) -> float:
    """Analytic derivative of the cutoff at a real scalar x (needed by the
    order reduction)."""
    x = float(x)
    ax = abs(x)
    # stay clear of the glue edges where exp(-1/t)/t^2 underflows to 0/0
    if not 1.0 + 1e-12 < ax < 2.0 - 1e-12:
        return 0.0
    ta, tb = 2.0 - ax, ax - 1.0
    sa, sb = _bump_s(ta), _bump_s(tb)
    dsa, dsb = -sa / (ta * ta), sb / (tb * tb)  # d/d|x| of S(2-|x|), S(|x|-1)
    d_abs = (dsa * (sa + sb) - sa * (dsa + dsb)) / ((sa + sb) * (sa + sb))
    return d_abs if x > 0.0 else -d_abs


# --- pointwise Stein derivative ----------------------------------------------

@dataclass
class SteinResult:
    """Value of the quadrature with its bookkeeping.

    ``abserr`` sums quad's error estimates over every panel, ``n_evals``
    counts the integrand evaluations behind the value and ``n_unconverged``
    the panels QUADPACK flagged (``ier != 0``).
    """

    value: float
    abserr: float = 0.0
    n_evals: int = 0
    n_unconverged: int = 0


def stein_derivative(
    f,
    b: float,
    x: float,
    local_scale: float = 1.0,
    singular_points: tuple[float, ...] = (),
    support_radius: float | None = None,
    far_field: str = "decay",
    epsrel: float = 1e-10,
    inner_limit: int = 200,
) -> SteinResult:
    """Pointwise D^b f(x) by split singular quadrature.

    ``f`` may be real or complex valued.  ``singular_points`` lists the
    locations where f has kinks (the quadrature breaks there).
    ``far_field`` is one of three (any other value is a ValueError):

    * "decay": f decays; the truncation radius doubles until the analytic
      bound (2 sup|f|^2 / b) R^{-2b} falls below epsrel of the integral.
    * "compact" and "constant_modulus" are closed far fields: beyond a
      radius r the integrand's numerator has the mean 2 (|f(x)|^2 + m), so
      the remainder is 2 (|f(x)|^2 + m) r^{-2b} / (2b).  For "compact", f
      vanishes for |y| > support_radius, r = support_radius + |x| and
      m = 0 (the remainder is exact); for "constant_modulus", f is a
      unimodular phase, r = |x| + 60 local_scale and m = 1.  ``abserr``
      holds QUADPACK's estimates only, not this closure's error: on
      exp(i kappa y) at x = 0 the value is -8.1e-3 relative off at
      (kappa, b) = (0.125, 0.25), -1.4e-3 at (0.125, 0.75) and at most
      8.7e-5 off for kappa >= 2, b in [0.25, 0.75].

    ``inner_limit`` is the inner window's QUADPACK subdivision limit; the
    outer panels keep 400.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"Stein order b must lie in (0, 1), got {b}")
    if far_field not in ("decay", "compact", "constant_modulus"):
        raise ValueError(f"unknown far_field {far_field!r}")
    fx = f(x)
    delta = local_scale / 100.0

    # inner window: s = delta * v^q makes the integrand bounded at v = 0.
    # Both integrands run once per quadrature point, so the exponents are
    # bound here and h(s) = |f(x) - f(x+s)|^2 + |f(x) - f(x-s)|^2 is inline.
    q = 1.0 / (2.0 - 2.0 * b)
    e = -1.0 - 2.0 * b
    e_v = q - 1.0

    def inner_integrand(v):
        s = delta * v**q
        hs = abs(fx - f(x + s)) ** 2 + abs(fx - f(x - s)) ** 2
        if hs == 0.0:  # e.g. x +- s round to x, where s ** (-1 - 2b) may overflow
            return 0.0
        return hs * s**e * delta * q * v**e_v

    abserr = 0.0
    n_evals = n_unconverged = 0

    def integrate(fn, lo, hi, limit):
        nonlocal abserr, n_evals, n_unconverged
        val, err, neval, ier = quad(fn, lo, hi, epsabs=0.0, epsrel=epsrel, limit=limit)
        abserr += err
        n_evals += neval
        n_unconverged += ier != 0
        return val

    inner = integrate(inner_integrand, 0.0, 1.0, inner_limit)

    def outer_integrand(s):
        return (abs(fx - f(x + s)) ** 2 + abs(fx - f(x - s)) ** 2) * s**e

    # breakpoints where x +- s crosses a kink or support edge
    breaks = set()
    for p in list(singular_points) + (
        [support_radius, -support_radius] if support_radius else []
    ):
        breaks.add(abs(p - x))
        breaks.add(abs(p + x))

    def quad_piecewise(a_, b_):
        # a_ > b_ (an inner window wider than r) is one reversed panel, whose
        # negative value removes the overlap the inner window already holds
        edges = [a_] + sorted(pt for pt in breaks if a_ < pt < b_) + [b_]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += integrate(outer_integrand, lo, hi, 400)
        return total

    if far_field in ("compact", "constant_modulus"):
        # closed far fields: integrate out to r, add the remainder beyond it
        if far_field == "compact":
            if support_radius is None:
                raise ValueError("compact far field needs a support radius")
            r, m = support_radius + abs(x), 0.0
        else:  # constant_modulus
            # the radius must hold several oscillations of the slowest phase
            # of interest before the far field is replaced by its mean
            r, m = abs(x) + 60.0 * local_scale, 1.0
        tail = 2.0 * (abs(fx) ** 2 + m) * r ** (-2.0 * b) / (2.0 * b)
        total = inner + quad_piecewise(delta, r) + tail
    else:  # decay
        r = abs(x) + 8.0 * local_scale
        total = inner + quad_piecewise(delta, r)
        for _ in range(60):
            total += quad_piecewise(r, 2.0 * r)
            r *= 2.0
            sup2 = max(abs(fx) ** 2, abs(complex(f(r))) ** 2, abs(complex(f(-r))) ** 2)
            bound = 2.0 * sup2 / b * r ** (-2.0 * b)
            if bound <= epsrel * max(total, 1e-300) + 1e-300:
                break

    return SteinResult(
        value=math.sqrt(max(total, 0.0)),
        abserr=abserr,
        n_evals=n_evals,
        n_unconverged=n_unconverged,
    )


# --- profile families --------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """A 1D cutoff profile ~ |y|^p at its kink 0, supported in [-2, 2], and its derivative."""

    fn: object
    label: str
    derivative: object | None
    leading_exponent: float  # the local power p at the origin


def _abs_pow(y: float, p: float) -> float:
    """|y| ** p for a float y, with numpy's inf for 0 ** (p < 0) and on
    overflow, where Python raises.  An overflow beyond the support (|y| >= 2)
    gives 0, so the profile there is the zero the cutoff makes it, not
    inf * 0."""
    try:
        return abs(y) ** p
    except (ZeroDivisionError, OverflowError):
        if abs(y) >= 2.0:
            return 0.0
        with np.errstate(divide="ignore", over="ignore"):
            return float(np.float64(abs(y)) ** p)


def _sign(y: float) -> float:
    """np.sign of a float, as a Python float."""
    return 1.0 if y > 0.0 else -1.0 if y < 0.0 else 0.0 if y == 0.0 else math.nan


def make_profile(kind: str, alpha: float | None = None, gamma: float | None = None) -> Profile:
    """Build one of the three cutoff profile families.

    kind: "power" -> |y|^alpha phi(y); "power_sign" -> |y|^alpha sgn(y) phi(y);
    "gamma" -> "power" at alpha = gamma - 1/2, with no derivative; |0|^p is
    inf for p < 0 and 1 for p = 0.  The family's parameter must be finite and
    the other one unset; ``check_order`` bounds its size for a given order.
    ``fn`` and ``derivative`` take and return a Python float, as quad calls them.
    """
    for name, value in (("alpha", alpha), ("gamma", gamma)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"profile {name} must be finite, got {value}")
    if kind == "gamma":
        if gamma is None or alpha is not None:
            raise ValueError("gamma profile needs gamma and no alpha")
        a = float(gamma) - 0.5
    elif kind in ("power", "power_sign"):
        if alpha is None or gamma is not None:
            raise ValueError(f"{kind} profile needs alpha and no gamma")
        a = float(alpha)
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    # The exponents are bound once and the cutoff's float core is called
    # directly.  |y| ** p stays inline, as the per-point path can afford no
    # extra call; where Python raises (0 ** p with p < 0, overflow) the
    # except clause takes the powers from _abs_pow, which gives numpy's inf.
    am1, odd = a - 1.0, kind == "power_sign"

    def f(y):
        ay = abs(y)
        try:
            pa = ay**a
        except (ZeroDivisionError, OverflowError):
            pa = _abs_pow(y, a)
        if odd:
            pa *= _sign(y)
        return pa * _phi_abs(ay)

    def fp(y):
        ay = abs(y)
        try:
            pm, pa = ay**am1, ay**a
        except (ZeroDivisionError, OverflowError):
            pm, pa = _abs_pow(y, am1), _abs_pow(y, a)
        # d/dy |y|^a is a sgn(y) |y|^(a-1); the odd profile moves the
        # sign onto the cutoff term (a factor 1.0 is exact)
        s_pow, s_cut = (1.0, _sign(y)) if odd else (_sign(y), 1.0)
        return a * s_pow * pm * _phi_abs(ay) + pa * s_cut * cutoff_phi_prime(y)

    label = f"|y|^{a}*sgn*phi" if odd else f"|y|^{a}*phi"
    return Profile(f, label, None if kind == "gamma" else fp, a)


def _profile_stein(
    profile: Profile, b: float, x: float, epsrel: float = 1e-10, inner_limit: int = 200
) -> SteinResult:
    return stein_derivative(
        profile.fn,
        b,
        x,
        local_scale=min(1.0, abs(x)),
        singular_points=(0.0, -1.0, 1.0, -2.0, 2.0),
        support_radius=2.0,
        far_field="compact",
        epsrel=epsrel,
        inner_limit=inner_limit,
    )


def dstein_profile(profile: Profile, b: float, points) -> np.ndarray:
    """Pointwise D^b(profile) at ``points``: b in (0, 1), finite points, none at 0."""
    if not 0.0 < b < 1.0:
        raise ValueError("query order b must lie in (0, 1)")
    if not all(math.isfinite(p) for p in points):
        raise ValueError("evaluation points must be finite")
    if any(p == 0.0 for p in points):
        raise ValueError("evaluation points must exclude 0 for singular profiles")
    return np.array([_profile_stein(profile, b, float(x)).value for x in points])


# --- exponent fitting --------------------------------------------------------

def fit_exponent(abscissa, values) -> float:
    """Least-squares slope on log-log axes."""
    x = np.asarray(abscissa, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(x) < 8:
        raise ValueError(f"need at least 8 points to fit, got {len(x)}")
    if not (np.all((x > 0) & (x < np.inf)) and np.all((y > 0) & (y < np.inf))):
        raise ValueError("log-log fit needs positive finite data")
    u = np.log(x)
    A = np.vstack([u, np.ones(len(u))]).T
    coef, *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
    return float(coef[0])


# --- L^2 membership classification -------------------------------------------

@dataclass
class MembershipEvidence:
    """Dyadic-window increments of ||D^theta(profile)||^2 and the verdict."""

    verdict: str  # "member" | "non-member" | "inconclusive"
    order: float  # the order decided at: theta, theta - 1 or 0 (_order_regime)
    increments: np.ndarray = field(default_factory=lambda: np.array([]))
    increment_slope: float = math.nan  # log2 of consecutive-increment ratio
    rule: str = ""


def _squared_profile_values(profile: Profile, theta: float, etas: np.ndarray) -> np.ndarray:
    """q(eta) = D^theta(profile)(eta)^2, with D^0 the identity."""
    if theta == 0.0:
        return np.array([abs(complex(profile.fn(float(e)))) ** 2 for e in etas])
    vals = np.empty(len(etas))
    for i, e in enumerate(etas):
        vals[i] = _profile_stein(
            profile, theta, float(e), epsrel=_CLASSIFY_EPSREL, inner_limit=_CLASSIFY_INNER_LIMIT
        ).value ** 2
    return vals


def _integrate_power_segments(etas: np.ndarray, q: np.ndarray) -> float:
    """Integral of q over [etas.min(), etas.max()] assuming local power laws."""
    total = 0.0
    for (e1, q1), (e2, q2) in zip(zip(etas[:-1], q[:-1]), zip(etas[1:], q[1:])):
        if q1 <= 0 or q2 <= 0:
            total += 0.5 * (q1 + q2) * (e2 - e1)
            continue
        rho = math.log(q2 / q1) / math.log(e2 / e1)
        if abs(rho + 1.0) < 1e-9:
            total += q1 * e1 * math.log(e2 / e1)
        else:
            total += q1 / e1**rho * (e2 ** (rho + 1) - e1 ** (rho + 1)) / (rho + 1)
    return total


def check_order(profile: Profile, theta: float) -> None:
    """Reject orders outside [0, 2) or >= 1 without a derivative, and overflowing profiles."""
    if not theta >= 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    if theta >= 2:
        raise ValueError("orders >= 2 are not supported")
    if theta >= 1.0 and profile.derivative is None:
        raise ValueError(
            f"profile {profile.label} has no analytic derivative; "
            "cannot reduce the order below 1"
        )
    # The quadratures square sums of two values of the profile (of its
    # derivative, one power lower, for theta >= 1) at 2^-32 <= |y| <= 2 (the
    # octaves reach 2^-18, quad's bisection towards the kink goes further).
    # |y|^p <= 2^500 there keeps those squares below the float maximum 2^1024.
    p = profile.leading_exponent - (1.0 if theta >= 1.0 else 0.0)
    if max(p, -32.0 * p) > 500.0:
        raise ValueError(f"profile {profile.label} at order {theta} reaches |y|^{p} > 2^500 "
                         "on 2^-32 <= |y| <= 2, whose square overflows a float")


def _order_regime(profile: Profile, theta: float) -> tuple[Profile, float, str]:
    """Check theta and reduce it as the module notes say.

    Returns the profile and order to classify at, and the rule note; the
    order comes back as theta exactly when D^theta(profile) has pointwise
    values or theta = 0.
    """
    check_order(profile, theta)
    if theta >= 1.0:
        lead = profile.leading_exponent - 1.0
        profile = replace(profile, fn=profile.derivative, label=f"d/dy[{profile.label}]",
                          derivative=None, leading_exponent=lead)
        theta = theta - 1.0
    if theta > 0.0 and profile.leading_exponent <= -0.5:
        return replace(profile, derivative=None), 0.0, " (profile not square-integrable near 0)"
    return profile, theta, ""


# l2_membership_classify's sampling and _increment_verdict's decision constants
_PER_OCTAVE = 2
_SLOPE_BAND = 0.02
_PERSISTENCE_FLOOR = 0.1
# and its quadrature budget: slope decisions need about 4 digits.  Where the
# inner window does not converge (orders near 1), its error is a roundoff
# floor (x +- s rounds to x, f(x) - f(x +- s) cancels) of about 1e-3 of the
# inner integral whatever the subdivision limit, so 20 subdivisions reach
# what 200 do; a converged panel stops well below either limit and keeps
# its bits
_CLASSIFY_EPSREL = 1e-7
_CLASSIFY_INNER_LIMIT = 20


def l2_membership_classify(
    profile: Profile, theta: float, n_octaves: int = 18
) -> MembershipEvidence:
    """Classify whether D^theta(profile) lies in L^2 near the origin.

    The squared profile is integrated over dyadic windows eta in
    [2^{-k-1}, 2^{-k}] (doubled for the mirror side), each sampled at its
    ends and midpoint on a log scale (2 points per octave).  Neighbouring
    octaves share an end point, so n octaves take 2n + 1 evaluations of the
    squared profile, each point once.  ``_increment_verdict`` decides on the
    increments from octave max(4, n_octaves // 2) on, so fewer than 8
    octaves leave the evidence inconclusive, as does a squared value that is
    not finite (no increments computed); n_octaves < 1 raises ValueError.

    For theta >= 1 the classification is applied to the analytic derivative
    of the profile at order theta - 1 (D^0 = identity), which preserves the
    threshold theta < alpha + 1/2; a profile not square integrable at the
    origin is classified at order 0 (``_order_regime``).
    """
    if n_octaves < 1:
        raise ValueError(f"n_octaves must be at least 1, got {n_octaves}")
    profile, theta, note = _order_regime(profile, theta)
    # log-spaced points from 2^{-n} to 1; octave k, [2^{-k-1}, 2^{-k}], is the
    # slice starting at 2 (n - k - 1)
    etas = 2.0 ** (-n_octaves + np.arange(_PER_OCTAVE * n_octaves + 1) / _PER_OCTAVE)
    q = _squared_profile_values(profile, theta, etas)
    bad = np.count_nonzero(~np.isfinite(q))
    if bad:
        # an infinite or NaN value (say 1/b overflows at a tiny order) leaves
        # no increment to decide on
        return MembershipEvidence(
            verdict="inconclusive",
            order=theta,
            increments=np.full(n_octaves, math.nan),
            rule=f"{bad} of {q.size} squared Stein values not finite" + note,
        )
    increments = np.empty(n_octaves)
    for k in range(n_octaves):
        octave = slice(_PER_OCTAVE * (n_octaves - k - 1), _PER_OCTAVE * (n_octaves - k) + 1)
        increments[k] = 2.0 * _integrate_power_segments(etas[octave], q[octave])  # both signs

    verdict, rule, slope = _increment_verdict(increments, max(4, n_octaves // 2))
    if n_octaves < 8:
        rule += " (n_octaves < 8)"
    return MembershipEvidence(verdict=verdict, order=theta, increments=increments,
                              increment_slope=slope, rule=rule + note)


def _increment_verdict(increments: np.ndarray, first: int) -> tuple[str, str, float]:
    """(verdict, rule, slope) of L^2 membership from dyadic increments.

    The log2-slope s of the positive increments from index ``first`` on needs
    4 of them (s = -inf if the window holds 4 but fewer are positive):

    * s > +0.02: power divergence, non-member;
    * s < -0.02: geometric decay, member;
    * |s| <= 0.02: if the late increments stay above 0.1 of the early ones
      the series diverges like a log (non-member); otherwise the evidence is
      inconclusive.
    """
    fit_win = increments[first:]
    kfit = np.arange(first, increments.size)
    positive = fit_win > 0
    slope = math.nan
    if positive.sum() >= 4:
        slope = float(np.polyfit(kfit[positive], np.log2(fit_win[positive]), 1)[0])
    elif fit_win.size >= 4:
        slope = -math.inf  # increments already indistinguishable from zero

    early = float(np.max(increments[:3]))
    late = float(np.mean(increments[-3:]))

    if fit_win.size < 4:
        return "inconclusive", f"fit window holds {fit_win.size} of the 4 increments a slope needs", slope
    if slope > _SLOPE_BAND:
        return "non-member", "increments grow (power divergence)", slope
    if slope < -_SLOPE_BAND:
        return "member", "increments decay geometrically", slope
    if early > 0 and late > _PERSISTENCE_FLOOR * early:
        return "non-member", "increments persist (log divergence)", slope
    return "inconclusive", "slope within the indeterminate band", slope


# --- grid-based Stein rows and the Duhamel-weight probe ------------------------

# Rows are transformed (and the probe's rows mirrored) this many at a time:
# (rows, 2n) temporaries for a whole 512^2 spectrum would dominate the
# probe's peak memory.
_STEIN_ROW_BLOCK = 64


def _toeplitz_apply(h: np.ndarray, kernel_hat: np.ndarray) -> np.ndarray:
    """(K*h)_i = sum_j K_{|i-j|} h_j along the last axis of ``h``.

    ``kernel_hat`` is the (real) FFT of the length-2n circulant embedding of
    the symmetric Toeplitz kernel; ``h`` is zero-padded to 2n.  The 1-D
    transforms are numpy's, which keeps scipy out of the probe's import; on
    (64, 2n) blocks they give scipy's FFT bits at scipy's speed (numpy 2.4.6,
    scipy 1.17.1).
    """
    n2 = kernel_hat.size
    n = n2 // 2
    if np.iscomplexobj(h):
        return np.fft.ifft(np.fft.fft(h, n2) * kernel_hat)[..., :n]
    return np.fft.irfft(np.fft.rfft(h, n2) * kernel_hat[: n + 1], n2)[..., :n]


def _stein_kernel(values: np.ndarray, dx: float, b: float):
    """Check the row operator's arguments and build its kernel terms.

    With K_m = (m dx)^{-1-2b} dx (K_0 = 0), returns ``values`` as an array,
    the kernel sums S_i = sum_j K_{|i-j|}, the real FFT of K's length-2n
    circulant embedding, the local-cell coefficient and the constant-tail
    coefficients.
    """
    values = np.asarray(values)
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D (n_rows, n), got shape {values.shape}")
    n = values.shape[1]
    if n < 2:
        raise ValueError(f"rows need at least 2 samples, got {n}")
    if not (math.isfinite(dx) and dx > 0.0):
        raise ValueError(f"dx must be finite and positive, got {dx}")
    k = (np.arange(1, n) * dx) ** (-1.0 - 2.0 * b) * dx
    csum = np.concatenate(([0.0], np.cumsum(k)))
    kernel_sum = csum + csum[::-1]
    # circulant first column K_0..K_{n-1}, 0, K_{n-1}..K_1: even, so its FFT is
    # real and its rfft, mirrored, is all of it (numpy's complex fft of the real
    # column would round differently in the last bits)
    half_hat = np.fft.rfft(np.concatenate(([0.0], k, [0.0], k[::-1]))).real
    kernel_hat = np.concatenate((half_hat, half_hat[-2:0:-1]))
    # local cell: |g'|^2 * 2 (dx/2)^{2-2b} / (2-2b); slopes by central
    # differences, one-sided at the ends
    local_coef = 2.0 * (0.5 * dx) ** (2.0 - 2.0 * b) / (2.0 - 2.0 * b)
    # distances to the grid edges for the constant tail
    idx = np.arange(n)
    left = (idx + 0.5) * dx
    right = (n - idx - 0.5) * dx
    tail_coef = (left ** (-2.0 * b) + right ** (-2.0 * b)) / (2.0 * b)
    return values, kernel_sum, kernel_hat, local_coef, tail_coef


def grid_stein_rows(values: np.ndarray, dx: float, b: float) -> np.ndarray:
    """Row-wise D^b on a uniform grid (trapezoid sum + local and tail terms).

    ``values`` has shape (n_rows, n); each row is treated as samples of a
    function on a uniform grid with spacing dx that decays beyond the grid.

    With K_m = (m dx)^{-1-2b} dx (K_0 = 0) and |g_i - g_j|^2 = |g_i|^2 +
    |g_j|^2 - 2 Re(conj(g_i) g_j), the trapezoid sum sum_j K_{|i-j|}
    |g_i - g_j|^2 is |g_i|^2 S_i + (K*|g|^2)_i - 2 Re(conj(g_i) (K*g)_i),
    S_i = sum_j K_{|i-j|}; both convolutions are FFTs, O(n log n) per row.
    ``lemma_df_probe`` needs only the sum of the squares, which
    ``_stein_block_sq_sum`` takes with one forward transform per row block.
    """
    values, kernel_sum, kernel_hat, local_coef, tail_coef = _stein_kernel(values, dx, b)
    out = np.empty(values.shape)
    for lo in range(0, values.shape[0], _STEIN_ROW_BLOCK):
        g = values[lo : lo + _STEIN_ROW_BLOCK]
        g2 = np.abs(g) ** 2
        acc = g2 * kernel_sum + _toeplitz_apply(g2, kernel_hat)
        acc -= 2.0 * (g.conj() * _toeplitz_apply(g, kernel_hat)).real
        acc += local_coef * np.abs(_central_slope(g, dx)) ** 2
        acc += g2 * tail_coef
        out[lo : lo + _STEIN_ROW_BLOCK] = np.sqrt(acc)
    return out


def _stein_block_sq_sum(total, g: np.ndarray, dx: float, kernel):
    """``total`` plus sum(grid_stein_rows(g, dx, b) ** 2) over block ``g``,
    ``kernel`` being ``_stein_kernel(values, dx, b)``'s output after ``values``.

    K is real and symmetric, so sum_i (K*|g|^2)_i = sum_j |g_j|^2 S_j, and by
    Plancherel g^H K g = sum_k Khat_k |G_k|^2 / (2n) with G the length-2n
    FFT of the row.  The block therefore adds

        sum |g|^2 (2 S + T) - 2 sum_k Khat_k |G_k|^2 / (2n) + c sum |g'|^2

    (T the tail and c the local-cell coefficient): one forward transform,
    no inverse and no square root.
    """
    kernel_sum, kernel_hat, local_coef, tail_coef = kernel
    n2 = kernel_hat.size
    spec = np.abs(np.fft.fft(g, n2)) ** 2
    weight = 2.0 * kernel_sum + tail_coef
    total += np.sum(np.abs(g) ** 2 @ weight) - 2.0 / n2 * np.sum(spec @ kernel_hat)
    total += local_coef * np.sum(np.abs(_central_slope(g, dx)) ** 2)
    return total


def _central_slope(g: np.ndarray, dx: float) -> np.ndarray:
    """Slopes along the rows of block ``g``: ``np.gradient(g, dx, axis=1)``
    by its own formula, without its generic set-up.  Central differences
    inside, one-sided at the two ends (rows of at least 2 samples)."""
    out = np.empty(g.shape, np.result_type(g, 1.0))
    np.subtract(g[:, 2:], g[:, :-2], out=out[:, 1:-1])
    out[:, 1:-1] /= 2.0 * dx
    np.subtract(g[:, 1], g[:, 0], out=out[:, 0])
    np.subtract(g[:, -1], g[:, -2], out=out[:, -1])
    out[:, 0] /= dx
    out[:, -1] /= dx
    return out


@dataclass
class DfProbeResult:
    max_ratio: float
    ratios: np.ndarray


def _df_probe_grid(g, theta: float, t: float, a: float):
    """Arrays lemma_df_probe needs once per grid.

    Returns the dispersion phase exp(i t w) on the eta >= 0 rows 0..ny/2 (w
    is even in eta) and the |xi|^{2(1+a) theta} multiplier, both on the
    half-spectrum columns 0..nx/2 (the last is the negative Nyquist xi),
    the row index of -eta, the |eta|^{4 theta} multiplier and |x|^theta.
    """
    xi, eta = half_xi(g), g.eta[:, None]
    phase = np.exp(1j * t * dispersion_symbol(xi[None, :], eta[: g.ny // 2 + 1], a))
    m_eta = np.abs(eta) ** (4.0 * theta)
    m_xi = np.abs(xi) ** (2.0 * (1 + a) * theta)
    return phase, -np.arange(g.ny) % g.ny, m_eta, m_xi, np.abs(g.x) ** theta


def _mirrored_rows(out, prow, phase, v, neg_eta, lo: int) -> np.ndarray:
    """Rows lo.. of the full phase * c in increasing-xi order, into ``out``.

    ``phase`` (rows 0..ny/2) and ``v`` hold the columns 0..h = nx/2.  Both
    are Hermitian (w is odd in xi, even in eta), so the xi < 0 half of row
    eta is row -eta conjugated and reversed: out = [(p v)[:, h], conj(p
    v)[-eta, h-1..1], (p v)[:, :h]].  Rows eta and -eta share the phase
    row min(eta, -eta), gathered into the reused block ``prow``.
    """
    h = v.shape[1] - 1
    hi = lo + out.shape[0]
    neg = neg_eta[lo:hi]
    # the indices are in range; mode "clip" skips the copy "raise" makes
    p = np.take(phase, np.minimum(np.arange(lo, hi), neg), 0, prow[: hi - lo], mode="clip")
    np.multiply(p[:, h], v[lo:hi, h], out=out[:, 0])
    np.multiply(p[:, h - 1 : 0 : -1], v[neg, h - 1 : 0 : -1], out=out[:, 1:h])
    np.conjugate(out[:, 1:h], out=out[:, 1:h])
    np.multiply(p[:, :h], v[lo:hi, :h], out=out[:, h:])
    return out


def lemma_df_probe(theta: float, t: float, a: float, fields: list[RealField2D]) -> DfProbeResult:
    """Max of ||D^theta_xi(psi fhat)|| over its Duhamel-lemma bound.

    Both sides read the ``rfft2`` half spectrum v of each field; no full
    spectrum is formed.  The left side applies the 1D grid Stein derivative
    in xi row by row at fixed eta and takes L^2 over both variables: the
    rows of exp(i t w) fhat are mirrored from v block by block into one
    buffer and summed by Plancherel (``_stein_block_sq_sum``).  The right
    side combines rho(t)(||f|| + ||D_y^{2 theta} f|| + ||D_x^{(1+a) theta}
    f||), rho(t) = 1 + t^theta + t^{theta/(2+theta)}, with || |x|^theta f ||.
    Both are degree one in f, so each field is scaled by the power of two
    that brings max |f| into [1/2, 1): exact, and no square overflows or
    underflows.  Fields may live on different grids.  theta, t and a are
    checked before any field is read.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    if len(fields) == 0:
        raise ValueError("fields must hold at least one field")
    rho = 1.0 + t**theta + t ** (theta / (2.0 + theta))
    per_grid = {}
    ratios = []
    for f in fields:
        g = f.grid
        peak = max(float(f.samples.max()), -float(f.samples.min()))
        if peak == 0.0:
            ratios.append(0.0)
            continue
        dxi = 2.0 * np.pi / g.lx
        deta = 2.0 * np.pi / g.ly
        if g not in per_grid:
            buf = np.empty((min(_STEIN_ROW_BLOCK, g.ny), g.nx), complex)
            prow = np.empty((buf.shape[0], g.nx // 2 + 1), complex)
            _, *kernel = _stein_kernel(buf, dxi, theta)
            per_grid[g] = _df_probe_grid(g, theta, t, a), buf, prow, kernel
        (phase, neg_eta, m_eta, m_xi, wx), buf, prow, kernel = per_grid[g]
        scale = math.ldexp(1.0, -math.frexp(peak)[1])
        v = half_spectrum(f)
        v *= scale
        total = 0.0
        for lo in range(0, g.ny, _STEIN_ROW_BLOCK):
            rows = _mirrored_rows(buf[: g.ny - lo], prow, phase, v, neg_eta, lo)
            total = _stein_block_sq_sum(total, rows, dxi, kernel)
        lhs = np.sqrt(float(total) * dxi * deta) / (2.0 * np.pi)

        l2, dy, dxn = np.sqrt(_spectral_sums(v, g, 1.0, m_eta, m_xi))
        del v  # freed before the weighted norm and the next member's spectrum
        rhs = rho * (l2 + dy + dxn) + _weighted_l2(f, wx * scale)
        ratios.append(float(lhs / rhs))
    ratios = np.asarray(ratios)
    return DfProbeResult(float(np.max(ratios)), ratios)


def gaussian_ensemble(grid, n_members: int, seed: int = 0) -> list[RealField2D]:
    """Random superpositions of anisotropic Gaussians, localized in the box."""
    rng = np.random.default_rng(seed)
    x, y = grid.x, grid.y
    fields = []
    max_c = min(grid.lx, grid.ly) / 8.0
    term = np.empty((grid.ny, grid.nx))
    for _ in range(n_members):
        u = np.zeros((grid.ny, grid.nx))
        for _ in range(rng.integers(1, 4)):
            amp = rng.uniform(-1.0, 1.0)
            cx, cy = rng.uniform(-max_c, max_c, size=2)
            sx, sy = rng.uniform(0.6, 1.8, size=2)
            ex = -((x - cx) ** 2) / sx**2
            ey = ((y - cy) ** 2) / sy**2
            np.subtract(ex[None, :], ey[:, None], out=term)
            np.exp(term, out=term)
            term *= amp
            u += term
        fields.append(RealField2D(grid, u))
    return fields
