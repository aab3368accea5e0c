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
threshold; D^0 is the identity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate


def quad(fn, a, b, **kw):
    """scipy.integrate.quad with accuracy complaints silenced.

    The requested tolerances here are deliberately tighter than needed so a
    partially converged panel is still far more accurate than the decisions
    built on it; the engine's absolute accuracy is pinned by independent
    oracles in the test suite, not by quad's own error report.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return scipy.integrate.quad(fn, a, b, **kw)

from .diagnostics import mass, multiplier_norm
from .propagator import dispersion_symbol
from .spectral import RealField2D, to_spectral

__all__ = [
    "cutoff_phi",
    "cutoff_phi_prime",
    "CutoffSpec",
    "SteinQuery",
    "SteinResult",
    "stein_derivative",
    "make_profile",
    "Profile",
    "dstein_profile",
    "l2_membership_classify",
    "MembershipEvidence",
    "fit_exponent",
    "FitResult",
    "phase_lemma_probe",
    "PhaseProbeResult",
    "grid_stein_rows",
    "lemma_df_probe",
    "DfProbeResult",
    "gaussian_ensemble",
]


# --- smooth cutoff -----------------------------------------------------------

def _bump_s(t):
    """exp(-1/t) for t > 0, else 0; the standard C-infinity glue."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def cutoff_phi(x):
    """Even C-infinity cutoff: 1 on (-1, 1), 0 outside [-2, 2], monotone between."""
    ax = np.abs(np.asarray(x, dtype=float))
    sa = _bump_s(2.0 - ax)
    sb = _bump_s(ax - 1.0)
    with np.errstate(invalid="ignore"):
        val = np.where(ax <= 1.0, 1.0, np.where(ax >= 2.0, 0.0, sa / (sa + sb)))
    return val if val.shape else float(val)


def cutoff_phi_prime(x):
    """Analytic derivative of the cutoff (needed by the order reduction)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros_like(ax)
    # stay clear of the glue edges where exp(-1/t)/t^2 underflows to 0/0
    mid = (ax > 1.0 + 1e-12) & (ax < 2.0 - 1e-12)
    if np.any(mid):
        am = ax[mid]
        sa, sb = _bump_s(2.0 - am), _bump_s(am - 1.0)
        dsa = -_bump_s(2.0 - am) / (2.0 - am) ** 2  # d/d|x| S(2-|x|)
        dsb = _bump_s(am - 1.0) / (am - 1.0) ** 2
        d_abs = (dsa * (sa + sb) - sa * (dsa + dsb)) / (sa + sb) ** 2
        out[mid] = d_abs * np.sign(x[mid])
    return out if out.shape else float(out)


@dataclass(frozen=True)
class CutoffSpec:
    """Descriptor of the cutoff: plateau on (-1, 1), support [-2, 2]."""

    plateau: float = 1.0
    support: float = 2.0


# --- pointwise Stein derivative ----------------------------------------------

@dataclass
class SteinResult:
    """Value with the analytic remainder estimate of the truncated integral."""

    value: float
    tail_estimate: float
    diverged: bool = False

    def __float__(self) -> float:
        return self.value


def stein_derivative(
    f,
    b: float,
    x: float,
    local_scale: float | None = None,
    singular_points: tuple[float, ...] = (),
    support_radius: float | None = None,
    far_field: str = "decay",
    far_mean_sq: float = 2.0,
    epsrel: float = 1e-10,
) -> SteinResult:
    """Pointwise D^b f(x) by split singular quadrature.

    ``f`` may be real or complex valued.  ``singular_points`` lists the
    locations where f has kinks (the quadrature breaks there).  For
    ``far_field``:

    * "compact": f vanishes for |y| > support_radius; the remainder beyond
      the support is added exactly.
    * "decay": f decays; the truncation radius doubles until the analytic
      bound (2 sup|f|^2 / b) R^{-2b} falls below epsrel of the integral.
    * "constant_modulus": |f| oscillates without decay (unimodular phases);
      the far region is replaced by its mean 2(|f(x)|^2 + far_mean_sq/2)
      with the stationary-phase remainder reported in the estimate.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"Stein order b must lie in (0, 1), got {b}")
    fx = complex(f(x))

    def h(s):
        return abs(fx - complex(f(x + s))) ** 2 + abs(fx - complex(f(x - s))) ** 2

    scale = local_scale if local_scale is not None else 1.0
    delta = scale / 100.0

    # inner window: s = delta * v^q makes the integrand bounded at v = 0
    q = 1.0 / (2.0 - 2.0 * b)

    def inner_integrand(v):
        if v <= 0.0:
            return 0.0
        s = delta * v**q
        return h(s) * s ** (-1.0 - 2.0 * b) * delta * q * v ** (q - 1.0)

    inner, _ = quad(inner_integrand, 0.0, 1.0, epsabs=0.0, epsrel=epsrel, limit=200)

    def outer_integrand(s):
        return h(s) * s ** (-1.0 - 2.0 * b)

    # breakpoints where x +- s crosses a kink or support edge
    breaks = set()
    for p in list(singular_points) + (
        [support_radius, -support_radius] if support_radius else []
    ):
        if p is None:
            continue
        breaks.add(abs(p - x))
        breaks.add(abs(p + x))

    def quad_piecewise(a_, b_):
        pts = sorted(pt for pt in breaks if a_ < pt < b_)
        total = 0.0
        edges = [a_] + pts + [b_]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi <= lo:
                continue
            val, _ = quad(
                outer_integrand, lo, hi, epsabs=0.0, epsrel=epsrel, limit=400
            )
            total += val
        return total

    diverged = False
    if far_field == "compact":
        if support_radius is None:
            raise ValueError("compact far field needs a support radius")
        s_out = support_radius + abs(x)
        outer = quad_piecewise(delta, s_out) if s_out > delta else 0.0
        # beyond s_out both f(x+s) and f(x-s) vanish: exact remainder
        tail = abs(fx) ** 2 * s_out ** (-2.0 * b) / b
        total = inner + outer + tail
        tail_est = 0.0
    elif far_field == "constant_modulus":
        # the radius must hold several oscillations of the slowest phase of
        # interest before the far field is replaced by its mean
        r = max(60.0 * scale, abs(x) + 60.0 * scale)
        outer = quad_piecewise(delta, r)
        mean_h = 2.0 * (abs(fx) ** 2 + far_mean_sq / 2.0)
        tail = mean_h * r ** (-2.0 * b) / (2.0 * b)
        total = inner + outer + tail
        # oscillatory correction decays one order faster than the mean term
        tail_est = tail / max(r, 1.0)
    else:  # decay
        r = max(8.0 * scale, abs(x) + 8.0 * scale)
        total = inner + quad_piecewise(delta, r)
        increments = []
        for _ in range(60):
            inc = quad_piecewise(r, 2.0 * r)
            total += inc
            increments.append(inc)
            r *= 2.0
            sup2 = max(abs(fx) ** 2, abs(complex(f(r))) ** 2, abs(complex(f(-r))) ** 2)
            bound = 2.0 * sup2 / b * r ** (-2.0 * b)
            if bound <= epsrel * max(total, 1e-300) + 1e-300:
                tail_est = bound
                break
            if len(increments) >= 10 and increments[-1] > 0 and not (
                increments[-1] < increments[-10]
            ):
                diverged = True
                tail_est = bound
                break
        else:
            tail_est = 2.0 * abs(fx) ** 2 / b * r ** (-2.0 * b)

    return SteinResult(
        value=math.sqrt(max(total, 0.0)), tail_estimate=tail_est, diverged=diverged
    )


# --- profile families --------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """A 1D profile with its kink locations and derivative (when available)."""

    fn: object
    label: str
    singular_points: tuple[float, ...] = (0.0,)
    support_radius: float = 2.0
    derivative: object | None = None
    leading_exponent: float | None = None  # local power at the origin

    def __call__(self, y):
        return self.fn(y)


def make_profile(kind: str, alpha: float | None = None, gamma: float | None = None,
                 fn=None, label: str | None = None) -> Profile:
    """Build one of the cutoff profile families.

    kind: "power" -> |y|^alpha phi(y); "power_sign" -> |y|^alpha sgn(y) phi(y);
    "gamma" -> |y|^{gamma - 1/2} phi(y); "user" -> supplied callable.
    """
    if kind == "power":
        if alpha is None:
            raise ValueError("power profile needs alpha")
        a = float(alpha)
        f = lambda y: np.abs(y) ** a * cutoff_phi(y)
        fp = lambda y: (
            a * np.sign(y) * np.abs(y) ** (a - 1.0) * cutoff_phi(y)
            + np.abs(y) ** a * cutoff_phi_prime(y)
        )
        return Profile(f, label or f"|y|^{a}*phi", (0.0,), 2.0, fp, a)
    if kind == "power_sign":
        if alpha is None:
            raise ValueError("power_sign profile needs alpha")
        a = float(alpha)
        f = lambda y: np.abs(y) ** a * np.sign(y) * cutoff_phi(y)
        fp = lambda y: (
            a * np.abs(y) ** (a - 1.0) * cutoff_phi(y)
            + np.abs(y) ** a * np.sign(y) * cutoff_phi_prime(y)
        )
        return Profile(f, label or f"|y|^{a}*sgn*phi", (0.0,), 2.0, fp, a)
    if kind == "gamma":
        if gamma is None:
            raise ValueError("gamma profile needs gamma")
        g1 = float(gamma) - 0.5
        f = lambda y: np.abs(y) ** g1 * cutoff_phi(y) if y != 0 else 0.0
        return Profile(f, label or f"|y|^{g1}*phi", (0.0,), 2.0, None, g1)
    if kind == "user":
        if fn is None:
            raise ValueError("user profile needs a callable")
        return Profile(fn, label or "user", (0.0,), 2.0, None, None)
    raise ValueError(f"unknown profile kind {kind!r}")


@dataclass(frozen=True)
class SteinQuery:
    """A profile evaluation request: order b in (0,1), points away from 0."""

    b: float
    profile: Profile
    points: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ValueError("query order b must lie in (0, 1)")
        if any(p == 0.0 for p in self.points):
            raise ValueError("evaluation points must exclude 0 for singular profiles")


def _profile_stein(profile: Profile, b: float, x: float, epsrel: float = 1e-10) -> SteinResult:
    scale = min(1.0, abs(x)) if 0.0 in profile.singular_points else 1.0
    return stein_derivative(
        profile,
        b,
        x,
        local_scale=scale,
        singular_points=profile.singular_points + (-1.0, 1.0, -2.0, 2.0),
        support_radius=profile.support_radius,
        far_field="compact",
        epsrel=epsrel,
    )


def dstein_profile(query: SteinQuery) -> np.ndarray:
    """Pointwise D^b(profile) over the requested evaluation points."""
    out = np.empty(len(query.points))
    for i, x in enumerate(query.points):
        res = _profile_stein(query.profile, query.b, float(x))
        if res.diverged:
            raise ArithmeticError(f"quadrature diverged at evaluation point {x}")
        out[i] = res.value
    return out


# --- exponent fitting --------------------------------------------------------

@dataclass
class FitResult:
    slope: float
    intercept: float
    ci95: float
    r_squared: float
    n_points: int

    @property
    def interval(self) -> tuple[float, float]:
        return (self.slope - self.ci95, self.slope + self.ci95)


def fit_exponent(abscissa, values, window: tuple[float, float] | None = None,
                 mode: str = "loglog") -> FitResult:
    """Least-squares slope on log-log (or semilog-x) axes with a 95% CI."""
    x = np.asarray(abscissa, dtype=float)
    y = np.asarray(values, dtype=float)
    if window is not None:
        keep = (x >= window[0]) & (x <= window[1])
        x, y = x[keep], y[keep]
    if len(x) < 8:
        raise ValueError(f"need at least 8 points in the fit window, got {len(x)}")
    if mode == "loglog":
        if np.any(y <= 0) or np.any(x <= 0):
            raise ValueError("log-log fit needs positive data")
        u, v = np.log(x), np.log(y)
    elif mode == "semilogx":
        if np.any(x <= 0):
            raise ValueError("semilog fit needs positive abscissa")
        u, v = np.log(x), y
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    n = len(u)
    A = np.vstack([u, np.ones(n)]).T
    coef, res, *_ = np.linalg.lstsq(A, v, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    fitted = A @ coef
    ss_res = float(np.sum((v - fitted) ** 2))
    ss_tot = float(np.sum((v - np.mean(v)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if n > 2:
        sigma2 = ss_res / (n - 2)
        sxx = float(np.sum((u - np.mean(u)) ** 2))
        ci = 1.96 * math.sqrt(sigma2 / sxx) if sxx > 0 else math.inf
    else:
        ci = math.inf
    return FitResult(slope, intercept, ci, r2, n)


# --- L^2 membership classification -------------------------------------------

@dataclass
class MembershipEvidence:
    """Dyadic-window increments of ||D^theta(profile)||^2 and the verdict."""

    verdict: str  # "member" | "non-member" | "inconclusive"
    octaves: np.ndarray = field(default_factory=lambda: np.array([]))
    increments: np.ndarray = field(default_factory=lambda: np.array([]))
    norms: np.ndarray = field(default_factory=lambda: np.array([]))
    increment_slope: float = math.nan  # log2 of consecutive-increment ratio
    tail_extrapolation: float = math.nan
    rule: str = ""


def _squared_profile_values(profile: Profile, theta: float, etas: np.ndarray) -> np.ndarray:
    """q(eta) = D^theta(profile)(eta)^2, with D^0 the identity."""
    if theta == 0.0:
        return np.array([abs(complex(profile(e))) ** 2 for e in etas])
    vals = np.empty(len(etas))
    for i, e in enumerate(etas):
        # slope decisions only need ~4 digits; keep the quadrature light
        vals[i] = _profile_stein(profile, theta, float(e), epsrel=1e-7).value ** 2
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


def l2_membership_classify(
    profile: Profile,
    theta: float,
    n_octaves: int = 18,
    per_octave: int = 2,
    slope_band: float = 0.02,
    persistence_floor: float = 0.1,
) -> MembershipEvidence:
    """Classify whether D^theta(profile) lies in L^2 near the origin.

    The squared profile is integrated over dyadic windows eta in
    [2^{-k-1}, 2^{-k}] (doubled for the mirror side).  Decision rules on the
    fitted log2-slope s of the increments:

    * s > +slope_band: power divergence, non-member;
    * s < -slope_band: geometric decay, member (the extrapolated tail
      Delta * r/(1-r) is reported);
    * |s| <= slope_band: if the late increments stay above
      ``persistence_floor`` of the early ones the series diverges like a
      log (non-member); otherwise the evidence is inconclusive.

    For theta >= 1 the classification is applied to the analytic derivative
    of the profile at order theta - 1 (D^0 = identity), which preserves the
    threshold theta < alpha + 1/2.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if theta >= 2:
        raise ValueError("orders >= 2 are not supported")
    if theta >= 1.0:
        if profile.derivative is None:
            raise ValueError(
                f"profile {profile.label} has no analytic derivative; "
                "cannot reduce the order below 1"
            )
        reduced = Profile(
            fn=profile.derivative,
            label=f"d/dy[{profile.label}]",
            singular_points=profile.singular_points,
            support_radius=profile.support_radius,
            derivative=None,
            leading_exponent=(
                None
                if profile.leading_exponent is None
                else profile.leading_exponent - 1.0
            ),
        )
        return l2_membership_classify(
            reduced, theta - 1.0, n_octaves, per_octave, slope_band, persistence_floor
        )

    lead = profile.leading_exponent
    if theta > 0.0 and lead is not None and lead <= -0.5:
        # the profile itself fails to be square integrable at the origin, so
        # the pointwise Stein integral is infinite; witness the divergence at
        # the identity-operator level instead
        ev = l2_membership_classify(
            Profile(
                profile.fn,
                profile.label,
                profile.singular_points,
                profile.support_radius,
                None,
                lead,
            ),
            0.0,
            n_octaves,
            per_octave,
            slope_band,
            persistence_floor,
        )
        ev.rule += " (profile not square-integrable near 0)"
        return ev

    ks = np.arange(n_octaves)
    increments = np.empty(n_octaves)
    for k in ks:
        # log-spaced points across the octave [2^{-k-1}, 2^{-k}]
        etas = 2.0 ** (-(k + 1) + np.linspace(0.0, 1.0, per_octave + 1))
        q = _squared_profile_values(profile, theta, etas)
        increments[k] = 2.0 * _integrate_power_segments(etas, q)  # both signs

    norms = np.sqrt(np.cumsum(increments))
    fit_win = increments[max(4, n_octaves // 2):]
    kfit = ks[max(4, n_octaves // 2):]
    positive = fit_win > 0
    if positive.sum() >= 4:
        coef = np.polyfit(kfit[positive], np.log2(fit_win[positive]), 1)
        slope = float(coef[0])
    else:
        slope = -math.inf  # increments already indistinguishable from zero

    early = float(np.max(increments[:3]))
    late = float(np.mean(increments[-3:]))

    if slope > slope_band:
        verdict, rule = "non-member", "increments grow (power divergence)"
        tail = math.inf
    elif slope < -slope_band:
        r = 2.0**slope
        tail = float(increments[-1] * r / (1.0 - r))
        verdict, rule = "member", "increments decay geometrically"
    else:
        if early > 0 and late > persistence_floor * early:
            verdict, rule = "non-member", "increments persist (log divergence)"
            tail = math.inf
        else:
            verdict, rule = "inconclusive", "slope within the indeterminate band"
            tail = math.nan

    return MembershipEvidence(
        verdict=verdict,
        octaves=ks,
        increments=increments,
        norms=norms,
        increment_slope=slope,
        tail_extrapolation=tail,
        rule=rule,
    )


# --- pointwise phase lemmas ---------------------------------------------------

@dataclass
class PhaseProbeResult:
    kind: str
    b: float
    exponent_t: FitResult | None
    exponent_space: FitResult | None
    bound_t: float
    bound_space: float
    ok: bool
    values: dict = field(default_factory=dict)


def _phase_stein(phase_fn, b: float, x: float) -> float:
    res = stein_derivative(
        phase_fn,
        b,
        x,
        local_scale=1.0,
        far_field="constant_modulus",
        far_mean_sq=2.0,
        epsrel=1e-9,
    )
    return res.value


def phase_lemma_probe(
    kind: str,
    b: float,
    t_grid,
    space_grid,
    a: float | None = None,
    tolerance: float = 0.05,
) -> PhaseProbeResult:
    """Fit growth exponents of D^b applied to the oscillatory phase factors.

    kind "P": f(x) = exp(i t eta^2 x); the value is independent of x and
    scales exactly as (t eta^2)^b, so the fitted exponents are checked
    against 2b (in eta) and b (in t).

    kind "Pontual1": f(x) = exp(-i t x |x|^{1+a}); the spatial exponent on a
    large-|x| window is checked against (1+a) b and the t exponent against b.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    space_grid = np.asarray(space_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("t values must be nonnegative")

    if kind == "P":
        bound_t, bound_space = b, 2.0 * b
        t_ref = float(np.median(t_grid[t_grid > 0]))
        vals_space = np.array(
            [
                _phase_stein(lambda u, c=t_ref * e**2: np.exp(1j * c * u), b, 0.0)
                for e in space_grid
            ]
        )
        e_ref = float(np.median(space_grid))
        vals_t = np.array(
            [
                _phase_stein(lambda u, c=t * e_ref**2: np.exp(1j * c * u), b, 0.0)
                if t > 0
                else 0.0
                for t in t_grid
            ]
        )
        fit_space = fit_exponent(space_grid, vals_space)
        pos = t_grid > 0
        fit_t = fit_exponent(t_grid[pos], vals_t[pos])
    elif kind == "Pontual1":
        if a is None:
            raise ValueError("Pontual1 probe needs the dispersion exponent a")
        bound_t, bound_space = b, (1.0 + a) * b

        def make_phase(t):
            return lambda u: np.exp(-1j * t * u * np.abs(u) ** (1.0 + a))

        t_ref = float(np.median(t_grid[t_grid > 0]))
        vals_space = np.array(
            [_phase_stein(make_phase(t_ref), b, x) for x in space_grid]
        )
        x_ref = float(np.max(space_grid))
        vals_t = np.array(
            [_phase_stein(make_phase(t), b, x_ref) if t > 0 else 0.0 for t in t_grid]
        )
        fit_space = fit_exponent(space_grid, vals_space)
        pos = t_grid > 0
        fit_t = fit_exponent(t_grid[pos], vals_t[pos])
    else:
        raise ValueError(f"unknown probe kind {kind!r}")

    ok = (fit_t.slope <= bound_t + tolerance) and (
        fit_space.slope <= bound_space + tolerance
    )
    return PhaseProbeResult(
        kind=kind,
        b=b,
        exponent_t=fit_t,
        exponent_space=fit_space,
        bound_t=bound_t,
        bound_space=bound_space,
        ok=ok,
        values={"space": vals_space, "t": vals_t},
    )


# --- grid-based Stein rows and the Duhamel-weight probe ------------------------

def grid_stein_rows(values: np.ndarray, dx: float, b: float) -> np.ndarray:
    """Row-wise D^b on a uniform grid (trapezoid sum + local and tail terms).

    ``values`` has shape (n_rows, n); each row is treated as samples of a
    function on a uniform grid with spacing dx that decays beyond the grid.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    rows, n = values.shape
    idx = np.arange(n)
    dist = np.abs(idx[None, :] - idx[:, None]) * dx
    with np.errstate(divide="ignore"):
        kernel = np.where(dist > 0, dist ** (-1.0 - 2.0 * b), 0.0) * dx
    out = np.empty((rows, n))
    # local cell: |g'|^2 * 2 (dx/2)^{2-2b} / (2-2b); slopes by central diff
    local_coef = 2.0 * (0.5 * dx) ** (2.0 - 2.0 * b) / (2.0 - 2.0 * b)
    # distances to the grid edges for the constant tail
    left = (idx + 0.5) * dx
    right = (n - idx - 0.5) * dx
    tail_coef = (left ** (-2.0 * b) + right ** (-2.0 * b)) / (2.0 * b)
    for r in range(rows):
        g = values[r]
        diff2 = np.abs(g[:, None] - g[None, :]) ** 2
        acc = np.sum(diff2 * kernel, axis=1)
        slope = np.empty(n)
        slope[1:-1] = np.abs(g[2:] - g[:-2]) / (2.0 * dx)
        slope[0] = np.abs(g[1] - g[0]) / dx
        slope[-1] = np.abs(g[-1] - g[-2]) / dx
        acc += local_coef * slope**2
        acc += np.abs(g) ** 2 * tail_coef
        out[r] = np.sqrt(acc)
    return out


def rho_weight(t: float, theta: float) -> float:
    """Growth weight 1 + t^theta + t^{theta/(2+theta)}."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return 1.0 + t**theta + t ** (theta / (2.0 + theta))


@dataclass
class DfProbeResult:
    max_ratio: float
    ratios: np.ndarray
    theta: float
    t: float
    a: float


def lemma_df_probe(theta: float, t: float, a: float, fields: list[RealField2D]) -> DfProbeResult:
    """Max of ||D^theta_xi(psi fhat)|| over its Duhamel-lemma bound.

    The left side applies the 1D grid Stein derivative in xi row by row at
    fixed eta and takes L^2 over both variables; the right side combines the
    spectral norms rho(t)(||f|| + ||D_y^{2 theta} f|| + ||D_x^{(1+a) theta} f||)
    with the weighted norm || |x|^theta f ||.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    ratios = []
    for f in fields:
        g = f.grid
        if mass(f) == 0.0:
            ratios.append(0.0)
            continue
        spec = to_spectral(f)
        xi, eta = g.spectral_meshgrid()
        w = dispersion_symbol(xi, eta, a)
        weighted = np.exp(1j * t * w) * spec.coeffs
        # reorder xi to be monotone for the row-wise uniform-grid operator
        order = np.argsort(g.xi)
        rows = weighted[:, order]
        dxi = 2.0 * np.pi / g.lx
        stein_rows = grid_stein_rows(rows, dxi, theta)
        deta = 2.0 * np.pi / g.ly
        lhs = np.sqrt(np.sum(stein_rows**2) * dxi * deta) / (2.0 * np.pi)

        l2 = multiplier_norm(spec, 1.0)
        dy = multiplier_norm(spec, np.abs(g.eta[:, None]) ** (4.0 * theta))
        dxn = multiplier_norm(spec, np.abs(g.xi[None, :]) ** (2.0 * (1 + a) * theta))
        wx = np.abs(g.x) ** theta
        wnorm = np.sqrt(np.sum((wx[None, :] * f.samples) ** 2) * g.dx * g.dy)
        rhs = rho_weight(t, theta) * (l2 + dy + dxn) + wnorm
        ratios.append(float(lhs / rhs))
    ratios = np.asarray(ratios)
    return DfProbeResult(float(np.max(ratios)), ratios, theta, t, a)


def gaussian_ensemble(grid, n_members: int, seed: int = 0) -> list[RealField2D]:
    """Random superpositions of anisotropic Gaussians, localized in the box."""
    rng = np.random.default_rng(seed)
    X, Y = grid.meshgrid()
    fields = []
    max_c = min(grid.lx, grid.ly) / 8.0
    for _ in range(n_members):
        u = np.zeros_like(X)
        for _ in range(rng.integers(1, 4)):
            amp = rng.uniform(-1.0, 1.0)
            cx, cy = rng.uniform(-max_c, max_c, size=2)
            sx, sy = rng.uniform(0.6, 1.8, size=2)
            u += amp * np.exp(-((X - cx) ** 2) / sx**2 - ((Y - cy) ** 2) / sy**2)
        fields.append(RealField2D(grid, u))
    return fields
