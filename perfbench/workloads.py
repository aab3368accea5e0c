"""The benchmark workloads: their inputs, how they run, and their output checks.

Each workload runs in its own working directory.  ``write_inputs`` puts the
config files there, ``execute`` runs the workload through the package's CLI
or public API (in the calling process), and ``check`` verifies the outputs
against the Tier-1 physics gates.  Only ``probe512`` depends on the seed:
the cost of the others does not depend on data values.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

WORKLOADS = ("sim256", "stein3", "probe512")

# Why each workload is in the benchmark (shares from cProfile on the seed code).
WHY = {
    "sim256": "solver-bound gbozk simulate at 256^2 ETDRK4: steps ~76%, Stepper build ~14%, diagnostics ~8%",
    "stein3": "gbozk stein-profile three-family batch: fraclab adaptive quadrature ~100%, no FFT",
    "probe512": "lemma_df_probe on a seeded 4-member 512^2 ensemble: grid_stein_rows ~98%",
}

# The ROADMAP Baseline run: 256^2, L = 32, a = 0.5, ETDRK4, dt = 1e-3, T = 0.2.
RUN_CFG = """\
[grid]
nx = 256
ny = 256
lx = 32.0
ly = 32.0

[dispersion]
a = 0.5

[solver]
dt = 1e-3
T = 0.2
integrator = etdrk4

[initial]
family = gaussian
amplitude = 0.5
sigma_x = 1.0
sigma_y = 2.0

[diagnostics]
stride = 10
n_ladder = 2,4,8

[output]
directory = out
snapshot_stride = 0
"""

SIM_ROWS = 21  # T / (dt * stride) records plus t = 0

STEIN_BATCH = """\
[frac_order_family]
kind = power
alpha = 1.5
theta = 0.9

[sign_family]
kind = power_sign
alpha = 0.5
theta = 1.2

[gamma_family]
kind = gamma
gamma = 0.3
theta = 0.3
"""

# membership iff theta < alpha + 1/2; the gamma profile fails at theta = gamma
STEIN_VERDICTS = {
    "frac_order_family": "member",
    "sign_family": "non-member",
    "gamma_family": "non-member",
}

PROBE_N = 512
PROBE_MEMBERS = 4
PROBE_ARGS = dict(theta=0.5, t=1.0, a=0.5)

# Tier-1 gates, unchanged
MASS_DRIFT_MAX = 1e-8
ENERGY_DRIFT_MAX = 1e-6
ZERO_MODE_MAX = 1e-12


def write_inputs(name: str, workdir: Path) -> None:
    """Write the config files ``name`` reads into ``workdir``."""
    if name == "sim256":
        (workdir / "run.cfg").write_text(RUN_CFG)
    elif name == "stein3":
        (workdir / "batch.cfg").write_text(STEIN_BATCH)
    elif name != "probe512":
        raise ValueError(f"unknown workload {name!r}")


def import_package():
    """Import the modules a workload run needs; returns the CLI main."""
    import gbozk  # noqa: F401
    import gbozk.experiments  # noqa: F401
    from gbozk.cli import main

    return main


def setup(name: str, seed: int) -> dict:
    """What a user pays before the first step: parse inputs, build the data
    and the workload's first Stepper.  Runs in the workdir like ``execute``;
    returns per-phase seconds."""
    import time

    t0 = time.perf_counter()
    if name == "sim256":
        from gbozk.config import load_config
        from gbozk.solver import Stepper

        cfg = load_config("run.cfg")
        t1 = time.perf_counter()
        cfg.initial.build(cfg.grid)
        t2 = time.perf_counter()
        Stepper(cfg.grid, cfg.solver)
        t3 = time.perf_counter()
    elif name == "stein3":
        from gbozk.experiments import load_stein_batch
        from gbozk.fraclab import make_profile

        queries = load_stein_batch("batch.cfg")
        t1 = time.perf_counter()
        for q in queries:
            make_profile(q.kind, alpha=q.alpha, gamma=q.gamma)
        t2 = t3 = time.perf_counter()
    else:
        t1 = time.perf_counter()
        _probe_ensemble(seed)
        t2 = t3 = time.perf_counter()
    return {"parse_s": t1 - t0, "build_s": t2 - t1, "stepper_s": t3 - t2}


def _probe_ensemble(seed: int):
    from gbozk import make_grid
    from gbozk.fraclab import gaussian_ensemble

    grid = make_grid(PROBE_N, PROBE_N, 32.0, 32.0)
    return gaussian_ensemble(grid, PROBE_MEMBERS, seed=seed)


def execute(name: str, seed: int, cli_main) -> int:
    """Run the workload once in this process; returns the CLI exit code.

    Paths are relative: the caller's working directory is the run's workdir,
    so the manifest hashes, and with them the outputs, repeat byte for byte.
    """
    if name == "sim256":
        return cli_main(["simulate", "run.cfg"])
    if name == "stein3":
        return cli_main(["stein-profile", "batch.cfg", "--out", "stein"])
    from gbozk import fraclab

    result = fraclab.lemma_df_probe(fields=_probe_ensemble(seed), **PROBE_ARGS)
    Path("probe.json").write_text(json.dumps({
        "max_ratio": repr(float(result.max_ratio)),
        "ratios": [repr(float(r)) for r in result.ratios],
    }))
    return 0


# --- output checks ------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# manifest="):
        raise ValueError(f"{path.name}: missing manifest line or header")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def _column(header, rows, key) -> list[float]:
    i = header.index(key)
    return [float(r[i]) for r in rows]


def _drift(values: list[float]) -> float:
    return max(abs(v - values[0]) for v in values) / abs(values[0])


def check(name: str, workdir: Path) -> tuple[list[str], str]:
    """Check one run's outputs.

    Returns the list of problems (empty when the run is correct) and a
    fingerprint that must repeat exactly between runs of the same code on the
    same inputs.
    """
    try:
        return _CHECKS[name](workdir)
    except (OSError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"], ""


def _check_sim(workdir: Path):
    path = workdir / "out" / "diagnostics.csv"
    header, rows = _read_csv(path)
    problems = []
    if len(rows) != SIM_ROWS:
        problems.append(f"{len(rows)} diagnostics rows, expected {SIM_ROWS}")
    mass_drift = _drift(_column(header, rows, "mass"))
    energy_drift = _drift(_column(header, rows, "hamiltonian"))
    zero_mode = max(_column(header, rows, "zero_mode_maxdev"))
    if not mass_drift < MASS_DRIFT_MAX:
        problems.append(f"mass drift {mass_drift:.3e} >= {MASS_DRIFT_MAX:g}")
    if not energy_drift < ENERGY_DRIFT_MAX:
        problems.append(f"energy drift {energy_drift:.3e} >= {ENERGY_DRIFT_MAX:g}")
    if not zero_mode < ZERO_MODE_MAX:
        problems.append(f"zero-mode maxdev {zero_mode:.3e} >= {ZERO_MODE_MAX:g}")
    return problems, hashlib.sha256(path.read_bytes()).hexdigest()


def _check_stein(workdir: Path):
    path = workdir / "stein" / "stein_verdicts.csv"
    header, rows = _read_csv(path)
    got = {r[header.index("name")]: r[header.index("verdict")] for r in rows}
    problems = [f"verdicts {got}, expected {STEIN_VERDICTS}"] if got != STEIN_VERDICTS else []
    return problems, hashlib.sha256(path.read_bytes()).hexdigest()


def _check_probe(workdir: Path):
    data = json.loads((workdir / "probe.json").read_text())
    max_ratio = float(data["max_ratio"])
    problems = []
    if not (math.isfinite(max_ratio) and max_ratio > 0.0):
        problems.append(f"max_ratio {max_ratio!r} is not finite and positive")
    if len(data["ratios"]) != PROBE_MEMBERS:
        problems.append(f"{len(data['ratios'])} ratios, expected {PROBE_MEMBERS}")
    return problems, data["max_ratio"]


_CHECKS = {"sim256": _check_sim, "stein3": _check_stein, "probe512": _check_probe}


def output_bytes(workdir: Path) -> int:
    """Bytes the package wrote: every file under the run's output directories."""
    total = 0
    for sub in ("out", "stein"):
        d = workdir / sub
        if d.is_dir():
            total += sum(p.stat().st_size for p in d.rglob("*") if p.is_file())
    return total
