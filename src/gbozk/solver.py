"""Nonlinear time integration of u_t + D_x^{a+1} u_x + u_xyy + u u_x = 0.

The state advances in spectral space.  The linear part is diagonal,
uhat' = i w uhat, and is applied exactly through the phase exp(i t w); the
quadratic term enters through the integral form

    u(t) = U(t) phi - 1/2 int_0^t U(t - tau) d/dx u^2(tau) dtau.

Two integrators are provided, both exact on the linear flow:

* ETDRK4 with phi-function coefficients evaluated as means over a unit
  circle around each i*w*dt (entire functions, so the 32-point trapezoid
  mean is exact to roundoff and free of small-|w dt| cancellation);
* Strang splitting (half linear phase, one classical RK4 step of the pure
  advection part, half linear phase).

The quadratic term is formed pseudo-spectrally and truncated by the 2/3
rule by default, which makes the discrete L^2 mass an invariant of the
semidiscrete flow up to time-integration error.

``Stepper`` holds the precomputed coefficients for one grid and config;
``evolve`` reuses a single ``Stepper`` over [0, T] and records
``{"t": t, **observe(t, u)}`` at the sampled times, where one ``observe``
callable computes every diagnostic of a record.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .propagator import DispersionParams, dispersion_symbol
from .spectral import (
    GridSpec,
    RealField2D,
    SpectralField2D,
    dealias_mask,
    to_physical,
    to_spectral,
)

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
    blowup_factor: float = 1e6

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.dt > self.T:
            raise ValueError("dt must not exceed the horizon T")
        if self.integrator not in ("etdrk4", "strang"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass
class Trajectory:
    """Sampled times, per-time diagnostic records, optional snapshots."""

    times: list[float] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    snapshots: list[tuple[float, RealField2D]] = field(default_factory=list)
    blowup: BlowUpError | None = None

    def column(self, key: str) -> np.ndarray:
        return np.array([rec[key] for rec in self.records])


def nonlinear_term(u: RealField2D, dealias: bool = True) -> SpectralField2D:
    """Spectral representation of -1/2 d/dx (u^2); the xi = 0 column is 0."""
    g = u.grid
    sq = to_spectral(RealField2D(g, u.samples**2))
    coeffs = (-0.5j) * g.xi[None, :] * sq.coeffs
    coeffs[:, g.nx // 2] = 0.0  # odd symbol: drop the x-Nyquist mode
    if dealias:
        coeffs = coeffs * dealias_mask(g)
    return SpectralField2D(g, coeffs)


class Stepper:
    """Precomputed single-step integrator for a fixed grid and config."""

    def __init__(self, grid: GridSpec, cfg: SolverConfig, n_contour: int = 32):
        self.grid = grid
        self.cfg = cfg
        xi, eta = grid.spectral_meshgrid()
        lin = 1j * dispersion_symbol(xi, eta, cfg.params.a)  # i w, diagonal
        dt = cfg.dt
        self.exp_full = np.exp(dt * lin)
        self.exp_half = np.exp(0.5 * dt * lin)
        if cfg.integrator == "etdrk4":
            # contour means of the phi functions around each dt*lin
            circ = np.exp(
                2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour
            )
            z = dt * lin[..., None] + circ[None, None, :]
            ez = np.exp(z)
            self.q = dt * np.mean((np.exp(z / 2.0) - 1.0) / z, axis=-1)
            self.f1 = dt * np.mean(
                (-4.0 - z + ez * (4.0 - 3.0 * z + z**2)) / z**3, axis=-1
            )
            self.f2 = dt * np.mean((2.0 + z + ez * (z - 2.0)) / z**3, axis=-1)
            self.f3 = dt * np.mean(
                (-4.0 - 3.0 * z - z**2 + ez * (4.0 - z)) / z**3, axis=-1
            )

    def _nl(self, coeffs: np.ndarray) -> np.ndarray:
        if not self.cfg.nonlinear:
            return np.zeros_like(coeffs)
        u = to_physical(SpectralField2D(self.grid, coeffs))
        return nonlinear_term(u, dealias=self.cfg.dealias).coeffs

    def step(self, coeffs: np.ndarray) -> np.ndarray:
        if self.cfg.integrator == "etdrk4":
            return self._step_etdrk4(coeffs)
        return self._step_strang(coeffs)

    def _step_etdrk4(self, v: np.ndarray) -> np.ndarray:
        n1 = self._nl(v)
        a = self.exp_half * v + self.q * n1
        n2 = self._nl(a)
        b = self.exp_half * v + self.q * n2
        n3 = self._nl(b)
        c = self.exp_half * a + self.q * (2.0 * n3 - n1)
        n4 = self._nl(c)
        return (
            self.exp_full * v
            + self.f1 * n1
            + 2.0 * self.f2 * (n2 + n3)
            + self.f3 * n4
        )

    def _step_strang(self, v: np.ndarray) -> np.ndarray:
        dt = self.cfg.dt
        w = self.exp_half * v
        if self.cfg.nonlinear:
            # one classical RK4 step of uhat' = N(uhat)
            k1 = self._nl(w)
            k2 = self._nl(w + 0.5 * dt * k1)
            k3 = self._nl(w + 0.5 * dt * k2)
            k4 = self._nl(w + dt * k3)
            w = w + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return self.exp_half * w


def _blowup_mode(coeffs: np.ndarray, grid: GridSpec) -> tuple[int, int]:
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
    is kept.  On blow-up the last good snapshot is stored, the error is
    recorded in ``Trajectory.blowup`` and attached to it as ``trajectory``,
    and it is re-raised.
    """
    g = initial.grid
    # rounding to whole steps lands the final time within dt/2 of T
    n_steps = max(1, int(round(cfg.T / cfg.dt)))
    stepper = Stepper(g, cfg)
    coeffs = to_spectral(initial).coeffs
    peak0 = float(np.max(np.abs(initial.samples)))

    traj = Trajectory()

    def record(t: float, u: RealField2D) -> None:
        traj.times.append(t)
        traj.records.append({"t": t, **(observe(t, u) if observe else {})})

    def blow_up(t: float, peak: float) -> BlowUpError:
        err = BlowUpError(t, peak, _blowup_mode(coeffs, g))
        err.trajectory = traj
        traj.blowup = err
        traj.snapshots.append((traj.times[-1], last_good))
        return err

    record(0.0, initial)
    if snapshot_stride:
        traj.snapshots.append((0.0, initial.copy()))

    last_good = initial.copy()
    for n in range(1, n_steps + 1):
        t = n * cfg.dt
        coeffs = stepper.step(coeffs)
        # cheap per-step sanity check; the amplitude policy is enforced at
        # record times where the physical field is materialized anyway
        if not np.all(np.isfinite(coeffs)):
            raise blow_up(t, float("inf"))
        if n % stride == 0 or n == n_steps or (snapshot_stride and n % snapshot_stride == 0):
            u = to_physical(SpectralField2D(g, coeffs))
            peak = float(np.max(np.abs(u.samples)))
            if peak0 > 0 and peak > cfg.blowup_factor * peak0:
                raise blow_up(t, peak)
            if n % stride == 0 or n == n_steps:
                record(t, u)
                last_good = u.copy()
            if snapshot_stride and (n % snapshot_stride == 0 or n == n_steps):
                traj.snapshots.append((t, u.copy()))
    if not traj.snapshots:
        traj.snapshots.append((traj.times[-1], last_good))
    return traj
