"""Nonlinear time integration of u_t + D_x^{a+1} u_x + u_xyy + u u_x = 0.

The state advances in spectral space.  The linear part is diagonal,
uhat' = i w uhat, and is applied exactly through the phase exp(i t w); the
quadratic term enters through the integral form

    u(t) = U(t) phi - 1/2 int_0^t U(t - tau) d/dx u^2(tau) dtau.

Two integrators are provided, both exact on the linear flow:

* ETDRK4 with phi-function coefficients evaluated as means over a unit
  circle around each i*w*dt (Kassam & Trefethen, 2005; entire functions, so
  the 32-point trapezoid mean is exact to roundoff and free of small-|w dt|
  cancellation);
* Strang splitting (half linear phase, one classical RK4 step of the pure
  advection part, half linear phase).

The state is the ``rfft2`` half spectrum, shape (ny, nx//2 + 1), of the
unshifted samples scaled by dx dy: columns 0..nx/2 of ``to_spectral``'s
coefficients, with xi in fft order (column nx/2 holds the negative Nyquist
xi).  The centring shifts cancel under the pointwise square, so the
quadratic term is one precomputed multiplier times rfft2(irfft2(v)**2).  It
is truncated by the 2/3 rule (Orszag, 1971) by default, which makes the
discrete L^2 mass an invariant of the semidiscrete flow up to
time-integration error.  ``nonlinear_term`` always truncates.

``Stepper`` holds the precomputed coefficients for one grid and config on
the eta >= 0 rows 0..ny/2 (the symbol, so each table, is even in eta);
``Stepper.advance`` steps the half spectrum and ``Stepper.step`` is the
full-spectrum boundary around it.  A ``Stepper`` owns reusable work
buffers for the intermediate stages: ``advance`` returns a fresh array and
leaves its input unchanged, but one ``Stepper`` must not be shared between
threads.  ``evolve`` reuses a single ``Stepper`` over [0, T] on raw
half-spectrum arrays and records ``{"t": t, **observe(t, u)}`` at the
sampled times, where one ``observe`` callable computes every diagnostic of
a record; it raises ``BlowUpError`` once max |u| passes the fixed
``_BLOWUP_FACTOR`` times its initial value.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .propagator import DispersionParams, dispersion_symbol
from .spectral import GridSpec, RealField2D, SpectralField2D, dealias_mask
from .spectral import half_spectrum, half_xi, hermitian_weights

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "nonlinear_term",
    "Stepper",
    "evolve",
]


class BlowUpError(RuntimeError):
    """Raised when the solution leaves the trusted amplitude range."""

    def __init__(self, time: float, peak: float, mode: tuple[int, int]):
        self.time = time
        self.peak = peak
        self.mode = mode
        super().__init__(
            f"blow-up detected at t = {time:.6g}: max |u| = {peak:.3e}, "
            f"fastest-growing mode (kx, ky) = {mode}"
        )


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    params: DispersionParams
    dealias: bool = True
    integrator: str = "etdrk4"
    nonlinear: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.dt <= self.T < np.inf:
            raise ValueError(f"need 0 < dt <= T < inf, got dt = {self.dt}, T = {self.T}")
        if self.integrator not in ("etdrk4", "strang"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass
class Trajectory:
    """Sampled times, per-time diagnostic records, optional snapshots."""

    times: list[float] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    snapshots: list[tuple[float, RealField2D]] = field(default_factory=list)

    def column(self, key: str) -> np.ndarray:
        return np.array([rec[key] for rec in self.records])


def _nl_multiplier(grid: GridSpec, dealias: bool) -> np.ndarray:
    """Half-spectrum multiplier M of the quadratic term, shape (ny, nx//2+1).

    For w = irfft2(v), the unshifted samples scaled by dx dy, M * rfft2(w**2)
    is the half spectrum of -1/2 d/dx (u^2).  M folds in -i xi / 2, the
    zeroed x-Nyquist column (odd symbol), the 2/3 mask and the 1 / (dx dy)
    left over from squaring the scaled samples.
    """
    nh = grid.nx // 2 + 1
    m = np.zeros((grid.ny, nh), dtype=complex)
    m[:, :-1] = (-0.5j / (grid.dx * grid.dy)) * half_xi(grid)[:-1]
    if dealias:
        m *= dealias_mask(grid)[:, :nh]
    return m


def _full_spectrum(h: np.ndarray, nx: int) -> np.ndarray:
    """(ny, nx) coefficients from the half spectrum by Hermitian symmetry.

    Columns 0..nx/2 are ``h`` itself; column nx - k is conj(h) at (-l, k).
    """
    ny, nh = h.shape
    out = np.empty((ny, nx), dtype=complex)
    out[:, :nh] = h
    out[:, nh:] = np.conj(h[-np.arange(ny) % ny, nh - 2 : 0 : -1])
    return out


def nonlinear_term(u: RealField2D) -> SpectralField2D:
    """Spectral representation of -1/2 d/dx (u^2), 2/3-rule truncated; the
    xi = 0 column is 0."""
    g = u.grid
    w = np.fft.ifftshift(u.samples) * (g.dx * g.dy)
    half = _nl_multiplier(g, True) * np.fft.rfft2(w**2)
    return SpectralField2D(g, _full_spectrum(half, g.nx))


def _mul_even(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.multiply(a, b, out=out)``, a or b a table even in eta on rows
    0..ny/2: out's rows past ny/2 read its rows ny/2-1..1 in a reversed view."""
    k = out.shape[0] // 2 + 1
    np.multiply(a[:k], b[:k], out=out[:k])
    rest = [x[k - 2 : 0 : -1] if len(x) == k else x[k:] for x in (a, b)]
    np.multiply(*rest, out=out[k:])
    return out


# points on each unit circle of the ETDRK4 contour means
_CONTOUR_POINTS = 32
# evolve's blow-up threshold: max |u| above this many times its initial value
_BLOWUP_FACTOR = 1e6


class Stepper:
    """Precomputed single-step integrator for a fixed grid and config.

    ``advance`` steps the half-spectrum state of shape (ny, nx//2+1);
    ``step`` is the full-spectrum (ny, nx) boundary around it.  Both return
    a fresh array; the stages run in five work buffers that every call
    reuses, so one ``Stepper`` must not be shared between threads.
    The tables (``exp_full``, ``exp_half``, ``q``, ``f1``, ``two_f2``,
    ``f3``, ``_m``) hold rows 0..ny/2; row l > ny/2 is row ny - l.  The work
    buffers come after the contour temporaries are freed, so the build
    peaks at what the ``Stepper`` holds.
    """

    def __init__(self, grid: GridSpec, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        self._nh = grid.nx // 2 + 1
        rows = grid.ny // 2 + 1
        xi, eta = half_xi(grid)[None, :], grid.eta[:rows, None]
        lin = 1j * dispersion_symbol(xi, eta, cfg.params.a)
        dt = cfg.dt
        dt_lin = dt * lin
        self.exp_full = np.exp(dt_lin)
        self.exp_half = np.exp(0.5 * dt * lin)
        if cfg.integrator == "etdrk4":
            # contour means of the phi functions around each dt*lin, summed
            # one contour point at a time.  These are the full-row loop's
            # expressions, so they give its bits wherever numpy's temporary
            # elision (see the steps) treats half and full rows alike: on
            # square grids below 182^2 and from 254^2 on
            n = _CONTOUR_POINTS
            circ = np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
            q, f1, f2, f3 = (np.zeros_like(lin) for _ in range(4))
            for c in circ:
                z = dt_lin + c
                ez = np.exp(z)
                z2 = z**2
                z3 = z**3
                q += (np.exp(z / 2.0) - 1.0) / z
                f1 += (-4.0 - z + ez * (4.0 - 3.0 * z + z2)) / z3
                f2 += (2.0 + z + ez * (z - 2.0)) / z3
                f3 += (-4.0 - 3.0 * z - z2 + ez * (4.0 - z)) / z3
            self.q = dt * (q / n)
            self.f1 = dt * (f1 / n)
            # the step reads f2 only as 2 f2
            self.two_f2 = 2.0 * (dt * (f2 / n))
            self.f3 = dt * (f3 / n)
            del z, ez, z2, z3, q, f1, f2, f3
        del lin, dt_lin
        self._m = _nl_multiplier(grid, cfg.dealias)[:rows].copy()
        self._work = tuple(np.empty((grid.ny, self._nh), dtype=complex) for _ in range(5))

    def _nl(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the quadratic term of the half spectrum v into out.

        ``out`` may be v itself: v is read in full before out is written.
        """
        if not self.cfg.nonlinear:
            out.fill(0.0)
            return out
        w = np.fft.irfft2(v, s=(self.grid.ny, self.grid.nx))
        np.square(w, out=w)
        np.fft.rfft2(w, out=out)
        return _mul_even(out, self._m, out)

    def step(self, coeffs: np.ndarray) -> np.ndarray:
        """Advance full-spectrum (ny, nx) coefficients by dt.

        The boundary for ``to_spectral(u).coeffs``: columns nx/2+1.. of the
        input are ignored and rebuilt from the advanced half spectrum by
        Hermitian symmetry.
        """
        return _full_spectrum(self.advance(coeffs[:, : self._nh]), self.grid.nx)

    def advance(self, v: np.ndarray) -> np.ndarray:
        """Advance the half-spectrum state v, shape (ny, nx//2+1), by dt."""
        if self.cfg.integrator == "etdrk4":
            return self._step_etdrk4(v)
        return self._step_strang(v)

    # Complex multiplication is not bitwise commutative under numpy's SIMD
    # loops, so each product below keeps the operand order in which numpy
    # evaluates the plain expression on arrays of 256 KiB and more, where it
    # reuses temporaries in place: ``q * (2 n3 - n1)`` runs there as
    # ``(2 n3 - n1) * q``.

    def _step_etdrk4(self, v: np.ndarray) -> np.ndarray:
        n1, ehv, a, n2, b = self._work
        eh, q = self.exp_half, self.q
        self._nl(v, n1)
        _mul_even(eh, v, ehv)
        _mul_even(q, n1, a)
        a += ehv
        self._nl(a, n2)
        _mul_even(q, n2, b)
        b += ehv
        n3 = self._nl(b, b)
        # ehv is dead: t = (2 n3 - n1) q there, and c = exp_half a + t in a
        t = ehv
        np.multiply(2.0, n3, out=t)
        t -= n1
        _mul_even(t, q, t)
        c = a
        _mul_even(eh, a, c)
        c += t
        n4 = self._nl(c, c)
        # exp_full v + f1 n1 + 2 f2 (n2 + n3) + f3 n4, summed left to right
        out = _mul_even(self.exp_full, v, np.empty_like(v, dtype=complex))
        _mul_even(self.f1, n1, t)
        out += t
        n2 += n3
        _mul_even(self.two_f2, n2, n2)
        out += n2
        _mul_even(self.f3, n4, n4)
        out += n4
        return out

    def _step_strang(self, v: np.ndarray) -> np.ndarray:
        w, k1, k2, k3, k4 = self._work
        _mul_even(self.exp_half, v, w)
        if self.cfg.nonlinear:
            # one classical RK4 step of uhat' = N(uhat); each stage input is
            # formed in the buffer its stage value then overwrites
            dt = self.cfg.dt
            self._nl(w, k1)
            for k_prev, k, h in ((k1, k2, 0.5 * dt), (k2, k3, 0.5 * dt), (k3, k4, dt)):
                np.multiply(h, k_prev, out=k)
                k += w
                self._nl(k, k)
            # w += dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= dt / 6.0
            w += k2
        return _mul_even(self.exp_half, w, np.empty_like(w))


def _blowup_mode(coeffs: np.ndarray, grid: GridSpec) -> tuple[int, int]:
    """(kx, ky) of the largest (or first non-finite) coefficient.

    ``coeffs`` is the half spectrum: its column index k = 0..nx/2 and row
    index l read their mode numbers from ``grid.kx`` and ``grid.ky``.
    """
    safe = np.where(np.isfinite(coeffs), np.abs(coeffs), np.inf)
    flat = int(np.argmax(safe))
    ly_i, kx_i = np.unravel_index(flat, coeffs.shape)
    return (int(grid.kx[kx_i]), int(grid.ky[ly_i]))


def evolve(
    initial: RealField2D,
    cfg: SolverConfig,
    observe: Callable[[float, RealField2D], dict] | None = None,
    stride: int = 1,
    snapshot_stride: int = 0,
) -> Trajectory:
    """Integrate on [0, T] recording diagnostics every ``stride`` steps.

    Each record is ``{"t": t, **observe(t, u)}`` for the physical field u at
    time t (just ``{"t": t}`` without ``observe``), taken at t = 0, every
    ``stride`` steps and at the final step.  ``snapshot_stride`` > 0 also
    stores the field every that many steps; otherwise only the final field
    is kept.  Blow-up (a non-finite state, or max |u| above
    ``_BLOWUP_FACTOR`` = 1e6 times its initial value) is checked after
    every step, whatever the stride.  On blow-up the last good snapshot is
    stored and a ``BlowUpError`` is raised with the partial trajectory
    attached as its ``trajectory``.  ``stride`` < 1 or ``snapshot_stride``
    < 0 raises ``ValueError`` before any step.
    """
    if stride < 1 or snapshot_stride < 0:
        raise ValueError(
            f"need stride >= 1 and snapshot_stride >= 0, got {stride} and {snapshot_stride}"
        )
    g = initial.grid
    # rounding to whole steps lands the final time within dt/2 of T
    n_steps = max(1, int(round(cfg.T / cfg.dt)))
    stepper = Stepper(g, cfg)
    shape = (g.ny, g.nx)
    dxdy = g.dx * g.dy
    v = half_spectrum(initial)
    peak0 = float(np.max(np.abs(initial.samples)))
    threshold = _BLOWUP_FACTOR * peak0
    # sup |u| <= sum_k |c_k| / (lx ly) over the full spectrum
    sup_weights = hermitian_weights(g.nx) / (g.lx * g.ly)

    traj = Trajectory()

    def physical() -> RealField2D:
        return RealField2D(g, np.fft.fftshift(np.fft.irfft2(v, s=shape)) / dxdy)

    def record(t: float, u: RealField2D) -> None:
        traj.times.append(t)
        traj.records.append({"t": t, **(observe(t, u) if observe else {})})

    def blow_up(t: float, peak: float) -> BlowUpError:
        err = BlowUpError(t, peak, _blowup_mode(v, g))
        err.trajectory = traj
        traj.snapshots.append((traj.times[-1], last_good))
        return err

    record(0.0, initial)
    if snapshot_stride:
        traj.snapshots.append((0.0, initial.copy()))

    last_good = initial.copy()
    for n in range(1, n_steps + 1):
        t = n * cfg.dt
        v = stepper.advance(v)
        # one reduction per step; the physical field is formed only when the
        # bound crosses the threshold, and at record and snapshot times
        bound = float(np.sum(np.abs(v) @ sup_weights))
        if not np.isfinite(bound):
            raise blow_up(t, float("inf"))
        u = None
        if peak0 > 0 and bound > threshold:
            u = physical()
            peak = float(np.max(np.abs(u.samples)))
            if peak > threshold:
                raise blow_up(t, peak)
        is_record = n % stride == 0 or n == n_steps
        is_snapshot = snapshot_stride and (n % snapshot_stride == 0 or n == n_steps)
        if is_record or is_snapshot:
            if u is None:
                u = physical()
            if is_record:
                record(t, u)
                last_good = u.copy()
            if is_snapshot:
                traj.snapshots.append((t, u.copy()))
    if not traj.snapshots:
        traj.snapshots.append((traj.times[-1], last_good))
    return traj
