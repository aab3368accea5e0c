"""Scenario runner, unique-continuation comparison and Stein report batches.

Outputs are deterministic: no timestamps, fixed column order, floats printed
with 17 significant digits.  Every text output carries the manifest hash
(sha256 over the config echo, code version and numerical settings, and for
a ``family = file`` run the sha256 of the snapshot bytes it read), so
re-running a manifest reproduces outputs byte for byte.

``run_scenario`` and both branches of ``uc_compare`` share one scaffold:
the initial data are built and their t = 0 row computed first
(``_recorder``), so unreadable initial data or a first row beyond float
range leave no output behind; ``_open_run`` then creates the output
directory and hashes the manifest, and ``_run`` evolves the data with that
recorder and hands back the partial trajectory on blow-up so the rows
reached are written before the error is re-raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, _ladder_tag, read_ini, read_section
from .diagnostics import (
    SobolevSpec,
    directional_sobolev_norms,
    mass,
    hamiltonian,
    truncated_x_norm,
    truncated_y_norm,
    x_moment,
    zero_mode_slice,
)
from .fraclab import (
    check_order,
    dstein_profile,
    fit_exponent,
    l2_membership_classify,
    make_profile,
)
from .snapshot import SnapshotFile, write_snapshot
from .solver import _CONTOUR_POINTS, BlowUpError, evolve

__all__ = [
    "NUMERICAL_SETTINGS",
    "manifest_hash",
    "run_scenario",
    "uc_compare",
    "load_stein_batch",
    "stein_report",
]

# settings that pin the numerical methods behind every run
NUMERICAL_SETTINGS = {
    "transform_normalization": "continuous-forward (coeff = fft2 * dx * dy)",
    "dealias_rule": "two-thirds",
    "etdrk4_contour_points": _CONTOUR_POINTS,
    "weight_blend": "smootherstep derivative profile",
    "stein_split_radius": "local_scale / 100",
    "stein_inner_substitution": "s = delta * v^(1/(2-2b))",
    "float_format": "%.17g",
}


def _fmt(x) -> str:
    return "%.17g" % float(x)


def manifest_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_csv(path: Path, header: list[str], rows: list[list], mhash: str) -> None:
    lines = [f"# manifest={mhash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    with _output(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n")


@contextlib.contextmanager
def _output(path: Path):
    """Yield a temporary path to write ``path``'s contents to, whole or not at all.

    The temporary file sits in the same directory, and ``os.replace`` moves
    it onto ``path`` once the block ends.  A failed write or move raises a
    ConfigError naming ``path``; whatever ends the block, no temporary file
    is left behind.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _payload(dealias: bool = True, **entries) -> dict:
    """Manifest payload: the run's own entries plus code version and settings."""
    settings = NUMERICAL_SETTINGS if dealias else {**NUMERICAL_SETTINGS, "dealias_rule": "none"}
    return {**entries, "code_version": __version__, "settings": settings}


def _open_run(out_dir: str | Path, payload: dict) -> tuple[Path, str]:
    """Create the output directory; return it with the manifest hash."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out, manifest_hash(payload)


def _recorder(initial, observe):
    """``observe`` plus the shared columns, its t = 0 row computed now.

    Every record ends with ``zero_mode_maxdev``, ``xmom_re`` and
    ``xmom_im``.  The row of ``initial`` runs with float overflow and invalid
    values raising, so data or weights beyond float range are a ConfigError
    before any output exists; the returned recorder hands that row back for
    ``initial`` itself.
    """
    def row(t, u):
        rec = observe(t, u)
        rec["zero_mode_maxdev"] = float(np.max(np.abs(zero_mode_slice(u) - zm0)))
        xm = x_moment(u)
        rec["xmom_re"], rec["xmom_im"] = xm.real, xm.imag
        return rec

    try:
        with np.errstate(over="raise", invalid="raise"):
            zm0 = zero_mode_slice(initial)
            first = row(0.0, initial)
    except FloatingPointError as exc:
        raise ConfigError(
            f"[initial] [diagnostics] the t = 0 diagnostics leave the float range: {exc}"
        ) from None
    return lambda t, u: first if u is initial else row(t, u)


def _run(cfg: RunConfig, initial, row, snapshot_stride: int = 0):
    """Evolve ``initial`` under ``cfg``, recording ``row`` (a ``_recorder``).

    Returns ``(trajectory, columns, blow-up or None)``; on blow-up the
    trajectory holds the records reached before it.
    """
    try:
        traj = evolve(
            initial,
            cfg.solver,
            observe=row,
            stride=cfg.diagnostics.stride,
            snapshot_stride=snapshot_stride,
        )
        blowup = None
    except BlowUpError as err:
        traj, blowup = err.trajectory, err
    return traj, list(traj.records[0]), blowup


@dataclass
class ScenarioResult:
    csv_path: Path
    manifest_path: Path
    rows: list[list[float]]
    sup_es_norm: float


def _scenario_observer(cfg: RunConfig):
    plan = cfg.diagnostics
    sspec = SobolevSpec.from_scalar(plan.sobolev_s, cfg.solver.params.a)

    def observe(t, u):
        row = {"mass": mass(u), "hamiltonian": hamiltonian(u, cfg.solver.params)}
        row["sob_x"], row["sob_y"] = directional_sobolev_norms(u, sspec)
        for N in plan.n_ladder:
            row[f"wnorm_x_N{_ladder_tag(N)}"] = truncated_x_norm(u, plan.r1, N)
        row["wnorm_y"] = truncated_y_norm(u, plan.r2)
        return row

    return observe


def run_scenario(cfg: RunConfig) -> ScenarioResult:
    """Integrate one configured run and write CSV + manifest (+ snapshots).

    On blow-up the rows and snapshots reached so far are still written and
    the manifest records the error before it is re-raised.
    """
    initial, input_sha256 = cfg.initial._build(cfg.grid)
    entries = {"config": cfg.to_dict()}
    if input_sha256 is not None:  # family = file: the bytes, not only the path
        entries["input_sha256"] = input_sha256
    payload = _payload(cfg.solver.dealias, **entries)
    row = _recorder(initial, _scenario_observer(cfg))
    out, mhash = _open_run(cfg.output_dir, payload)
    traj, columns, blowup = _run(cfg, initial, row, cfg.snapshot_stride)
    rows = [[rec[key] for key in columns] for rec in traj.records]

    csv_path = out / "diagnostics.csv"
    _write_csv(csv_path, columns, rows, mhash)

    es_sq = traj.column("mass") + traj.column("sob_x") ** 2 + traj.column("sob_y") ** 2
    sup_es = float(np.max(np.sqrt(es_sq)))

    for t_snap, u_snap in traj.snapshots:
        with _output(out / f"snapshot_t{t_snap:g}.gbzk") as tmp:
            write_snapshot(tmp, SnapshotFile(u_snap, a=cfg.solver.params.a, t=t_snap))

    manifest = dict(payload)
    manifest["manifest_sha256"] = mhash
    manifest["results"] = {
        "rows": len(rows),
        "sup_es_norm": sup_es,
        "blowup": str(blowup) if blowup else None,
    }
    manifest_path = out / "manifest.json"
    with _output(manifest_path) as tmp:
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    if blowup is not None:
        raise blowup

    return ScenarioResult(
        csv_path=csv_path,
        manifest_path=manifest_path,
        rows=rows,
        sup_es_norm=sup_es,
    )


# --- unique-continuation comparison -------------------------------------------

@dataclass
class UcCompareResult:
    csv_path: Path
    report_path: Path
    rows: list[list[float]]
    moment_residuals: dict[str, float]
    zero_mode_maxdev: dict[str, float]


def uc_compare(cfg: RunConfig, out_dir: str | Path) -> UcCompareResult:
    """Contrast the config's Gaussian (branch nz) with its zero-x-mean form (zm).

    Branch zm sets ``x_mean_removed`` on ``cfg.initial``, a Gaussian without it.
    ``uc_compare.csv`` tracks the box-truncated ladders ||<x>_N^{r1} u|| for
    r1 in {2, 5/2+a, 7/2+a} over the configured N ladder; the report states
    the zero-mode deviation and the residual of the first x-moment identity.
    If either branch blows up, ``uc_compare.csv`` holds the rows both
    branches reached and the first blow-up is re-raised.
    """
    if cfg.initial.family != "gaussian" or cfg.initial.x_mean_removed:
        raise ConfigError(
            "[initial] uc-compare needs family = gaussian with x_mean_removed = false "
            f"(branch zm sets it), got family = {cfg.initial.family}, "
            f"x_mean_removed = {str(cfg.initial.x_mean_removed).lower()}"
        )

    a = cfg.solver.params.a
    ladder_r = [2.0, 2.5 + a, 3.5 + a]
    ladder_n = cfg.diagnostics.n_ladder
    ladder_keys = [
        (f"w_r{_rtag(r1)}_N{_ladder_tag(N)}", r1, N) for r1 in ladder_r for N in ladder_n
    ]

    def observe(t, u):
        row = {"mass": mass(u)}
        for key, r1, N in ladder_keys:
            row[key] = truncated_x_norm(u, r1, N)
        return row

    inits = {"nz": cfg.initial, "zm": replace(cfg.initial, x_mean_removed=True)}
    runs = [(tag, init.build(cfg.grid)) for tag, init in inits.items()]
    runs = [(tag, u0, _recorder(u0, observe)) for tag, u0 in runs]
    out, mhash = _open_run(out_dir, _payload(cfg.solver.dealias, uc_compare=cfg.to_dict()))

    branches, blowups = {}, []
    for tag, initial, recorder in runs:
        branches[tag], columns, blowup = _run(cfg, initial, recorder)
        if blowup is not None:
            blowups.append(blowup)

    keys = columns[1:]
    columns = ["t"] + [f"{k}_{tag}" for k in keys for tag in ("nz", "zm")]
    rows = [
        [rec_a["t"]] + [rec[k] for k in keys for rec in (rec_a, rec_b)]
        for rec_a, rec_b in zip(branches["nz"].records, branches["zm"].records)
    ]
    csv_path = out / "uc_compare.csv"
    _write_csv(csv_path, columns, rows, mhash)
    if blowups:
        raise blowups[0]

    # moment-identity residual: d/dt xmom = mass/2, centered differences
    residuals, zmdev = {}, {}
    times = np.array([r[0] for r in rows])
    for tag in ("nz", "zm"):
        traj = branches[tag]
        xm, ms = traj.column("xmom_re"), traj.column("mass")
        if len(times) >= 3:
            dt = times[2:] - times[:-2]
            deriv = (xm[2:] - xm[:-2]) / dt
            residuals[tag] = float(np.max(np.abs(deriv - 0.5 * ms[1:-1])))
        else:
            residuals[tag] = float("nan")
        zmdev[tag] = float(np.max(traj.column("zero_mode_maxdev")))

    report_lines = [
        f"# manifest={mhash}",
        "unique-continuation comparison (box-truncated norms in uc_compare.csv;",
        "no claim about norms on the full plane is implied by them)",
        "",
        f"dispersion a = {_fmt(a)}; ladder r1 = "
        + ", ".join(_fmt(r) for r in ladder_r)
        + "; N ladder = "
        + ", ".join(_ladder_tag(N) for N in ladder_n),
        "",
        "branch nz: initial x-mean nonzero; branch zm: x-mean removed",
        f"zero-mode max deviation: nz = {_fmt(zmdev['nz'])}, zm = {_fmt(zmdev['zm'])}",
        f"x-moment identity residual (d/dt int x u = mass/2): "
        f"nz = {_fmt(residuals['nz'])}, zm = {_fmt(residuals['zm'])}",
    ]
    report_path = out / "uc_report.txt"
    with _output(report_path) as tmp:
        tmp.write_text("\n".join(report_lines) + "\n")

    return UcCompareResult(
        csv_path=csv_path,
        report_path=report_path,
        rows=rows,
        moment_residuals=residuals,
        zero_mode_maxdev=zmdev,
    )


def _rtag(r: float) -> str:
    return ("%g" % r).replace(".", "p")


# --- Stein report batches -------------------------------------------------------

@dataclass(frozen=True)
class SteinBatchQuery:
    """One batch section: its name plus one key per other field."""

    name: str
    kind: str  # power | power_sign | gamma
    theta: float
    alpha: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if "," in self.name or '"' in self.name:
            raise ValueError("section name must not contain ',' or '\"' (it is a CSV field)")
        # the checks the query's run would make, made when it is read
        check_order(make_profile(self.kind, alpha=self.alpha, gamma=self.gamma), self.theta)


def load_stein_batch(path: str | Path) -> list[SteinBatchQuery]:
    """One query per section of the batch file, checked before anything runs."""
    parser = read_ini(path)
    return [
        read_section(parser, section, SteinBatchQuery, path, name=section)
        for section in parser.sections()
    ]


_VERDICT_HEADER = ["name", "kind", "param", "theta", "verdict", "increment_slope",
                   "slope_large_eta", "fit_window", "rule"]


def _run_one_query(q: SteinBatchQuery) -> tuple[list, list[list]]:
    """The query's ``stein_verdicts.csv`` row and its ``stein_values.csv`` rows."""
    profile = make_profile(q.kind, alpha=q.alpha, gamma=q.gamma)
    evidence = l2_membership_classify(profile, q.theta)
    slope, window, values = float("nan"), "", []
    # pointwise profile values and the large-|eta| decay fit need the Stein
    # integral itself, which exists where the order regime leaves a positive
    # order unreduced; elsewhere quadrature would only report artefacts
    if evidence.order == q.theta > 0.0:
        eta_large = np.geomspace(10.0, 200.0, 12)
        vals_large = dstein_profile(profile, q.theta, eta_large)
        # an inf value (QUADPACK bisecting onto the kink of a profile whose
        # power is barely above -1/2) is written as is and leaves no fit
        if np.all(np.isfinite(vals_large)):
            slope, window = fit_exponent(eta_large, vals_large), "10..200"
        values = [[q.name, eta, val] for eta, val in zip(eta_large.tolist(), vals_large.tolist())]
    param = q.alpha if q.kind != "gamma" else q.gamma
    return [q.name, q.kind, param, q.theta, evidence.verdict, evidence.increment_slope,
            slope, window, evidence.rule], values


def stein_report(
    queries: list[SteinBatchQuery], out_dir: str | Path
) -> tuple[Path, Path]:
    """Run a query batch; write verdicts and pointwise values as CSV."""
    out, mhash = _open_run(out_dir, _payload(queries=[vars(q) for q in queries]))
    verdict_rows, value_rows = [], []
    for q in queries:
        row, values = _run_one_query(q)
        verdict_rows.append(row)
        value_rows += values

    verdicts_path = out / "stein_verdicts.csv"
    _write_csv(verdicts_path, _VERDICT_HEADER, verdict_rows, mhash)

    values_path = out / "stein_values.csv"
    _write_csv(values_path, ["name", "eta", "value"], value_rows, mhash)
    return verdicts_path, values_path

