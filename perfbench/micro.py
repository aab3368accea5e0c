"""Per-layer micro-timings at 128^2, 256^2 and 512^2 on generated inputs.

Each timing is the median of repeated calls through the package's public
API.  ``BASELINE`` holds the ROADMAP Baseline table so a report can put the
two side by side.
"""

from __future__ import annotations

import gc
import statistics
import time

SIZES = (128, 256, 512)
A = 0.5
DT = 1e-3

# ROADMAP Baseline (2 CPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1), with a
# note where the baseline measured something other than the package's path.
BASELINE = {
    "spectral.roundtrip_ms.n256": (1.3, "baseline timed rfft2/irfft2; the package uses complex fft2"),
    "spectral.roundtrip_ms.n512": (4.0, "baseline timed rfft2/irfft2; the package uses complex fft2"),
    "solver.nl_ms.n256": (3.9, ""),
    "solver.nl_ms.n512": (15.0, ""),
    "solver.step_ms.etdrk4.n256": (20.7, ""),
    "solver.step_ms.etdrk4.n512": (80.0, ""),
    "solver.stepper_build_s.n256": (0.66, ""),
    "solver.stepper_build_s.n512": (2.6, ""),
    "solver.stepper_build_rss_mb.n256": (249.0, ""),
    "solver.stepper_build_rss_mb.n512": (744.0, ""),
    "fraclab.classify_s.alpha1_theta0.6": (1.41, ""),
    "fraclab.grid_stein_rows_s.n128": (0.013, ""),
    "fraclab.grid_stein_rows_s.n256": (0.093, ""),
    "fraclab.grid_stein_rows_s.n512": (0.79, ""),
    "wall_s.sim256": (5.25, "gbozk simulate, 256^2, T = 0.2"),
}

# Run-to-run spread measured on the Baseline machine was 11-20% (max-min over
# median), so only a larger deviation is flagged.
NOISE = 0.20


def median_time(fn, min_reps: int = 3, budget_s: float = 0.25, max_reps: int = 50) -> float:
    """Median seconds per call, over at least ``min_reps`` calls."""
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (
        time.perf_counter() - start < budget_s and len(times) < max_reps
    ):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _field(n: int):
    from gbozk import make_grid
    from gbozk.config import InitialData

    grid = make_grid(n, n, 32.0, 32.0)
    return InitialData("gaussian", 0.5, 1.0, 2.0).build(grid)


def _solver_cfg(integrator: str):
    from gbozk import DispersionParams, SolverConfig

    return SolverConfig(dt=DT, T=0.2, params=DispersionParams(A), integrator=integrator)


def stepper_build(n: int) -> float:
    """Build one ETDRK4 Stepper at n^2; returns seconds.  Run in a process of
    its own so that process's peak RSS is the build's."""
    from gbozk.solver import Stepper

    u = _field(n)
    t0 = time.perf_counter()
    Stepper(u.grid, _solver_cfg("etdrk4"))
    return time.perf_counter() - t0


def micro_timings() -> dict[str, float]:
    import numpy as np
    from gbozk import DispersionParams, SpectralField2D, nonlinear_term, to_physical, to_spectral
    from gbozk.diagnostics import (
        SobolevSpec,
        directional_sobolev_norms,
        hamiltonian,
        mass,
        truncated_x_norm,
        truncated_y_norm,
        x_moment,
        zero_mode_slice,
    )
    from gbozk.fraclab import grid_stein_rows, l2_membership_classify, make_profile
    from gbozk.solver import Stepper

    out: dict[str, float] = {}
    for n in SIZES:
        u = _field(n)
        c = to_spectral(u).coeffs
        out[f"spectral.roundtrip_ms.n{n}"] = 1e3 * median_time(lambda: to_physical(to_spectral(u)))
        if n >= 256:
            out[f"solver.nl_ms.n{n}"] = 1e3 * median_time(
                lambda: nonlinear_term(to_physical(SpectralField2D(u.grid, c)))
            )
        stepper = Stepper(u.grid, _solver_cfg("etdrk4"))
        out[f"solver.step_ms.etdrk4.n{n}"] = 1e3 * median_time(lambda: stepper.step(c))
        del stepper
        gc.collect()
        if n == 256:
            stepper = Stepper(u.grid, _solver_cfg("strang"))
            out["solver.step_ms.strang.n256"] = 1e3 * median_time(lambda: stepper.step(c))
            del stepper
            params = DispersionParams(A)
            sspec = SobolevSpec.from_scalar(1.0, A)
            zm0 = zero_mode_slice(u)

            def row():  # the row run_scenario records
                mass(u)
                hamiltonian(u, params)
                directional_sobolev_norms(u, sspec)
                for N in (2.0, 4.0, 8.0):
                    truncated_x_norm(u, 2.0, N)
                truncated_y_norm(u, 2.0)
                abs(zero_mode_slice(u) - zm0).max()
                x_moment(u)

            out["diagnostics.row_ms.n256"] = 1e3 * median_time(row)
        # grid_stein_rows on xi-ordered spectrum rows, as lemma_df_probe feeds it
        rows = c[:, np.argsort(u.grid.xi)]
        dxi = 2.0 * np.pi / u.grid.lx
        out[f"fraclab.grid_stein_rows_s.n{n}"] = median_time(
            lambda: grid_stein_rows(rows, dxi, 0.5), min_reps=1 if n == 512 else 3
        )
    profile = make_profile("power", alpha=1.0)
    out["fraclab.classify_s.alpha1_theta0.6"] = median_time(
        lambda: l2_membership_classify(profile, 0.6), min_reps=1, budget_s=0.0
    )
    return out


def baseline_rows(measured: dict[str, float]) -> list[tuple[str, float, float, float, str]]:
    """(metric, measured, baseline, ratio, flag) for each Baseline entry measured."""
    rows = []
    for name, (base, note) in BASELINE.items():
        if name not in measured:
            continue
        ratio = measured[name] / base
        flag = "DEVIATES" if abs(ratio - 1.0) > NOISE else "ok"
        rows.append((name, measured[name], base, ratio, flag + (f" ({note})" if note else "")))
    return rows
