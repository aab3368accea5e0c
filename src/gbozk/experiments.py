"""Scenario runner, unique-continuation comparison and Stein report batches.

Outputs are deterministic: no timestamps, fixed column order, floats printed
with 17 significant digits.  Every text output carries the manifest hash
(sha256 over the config echo, code version and numerical settings), so
re-running a manifest reproduces outputs byte for byte.

``run_scenario`` and both branches of ``uc_compare`` share one scaffold:
the initial data are built first, so unreadable initial data leave no output
behind; ``_open_run`` then creates the output directory and hashes the
manifest, and ``_run`` evolves the data with one observer, appends the shared
zero-mode and x-moment columns, and hands back the partial trajectory on
blow-up so the rows reached are written before the error is re-raised.
"""

from __future__ import annotations

import hashlib
import json
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
    _order_regime,
    check_order,
    dstein_profile,
    fit_exponent,
    l2_membership_classify,
    make_profile,
    SteinQuery,
)
from .propagator import DispersionParams, xi_expansion_check
from .snapshot import SnapshotFile, write_snapshot
from .solver import _CONTOUR_POINTS, BlowUpError, evolve

__all__ = [
    "NUMERICAL_SETTINGS",
    "manifest_hash",
    "run_scenario",
    "uc_compare",
    "load_stein_batch",
    "stein_report",
    "run_expansion_check",
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
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def manifest_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_csv(path: Path, header: list[str], rows: list[list], mhash: str) -> None:
    lines = [f"# manifest={mhash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n")


def _payload(**entries) -> dict:
    """Manifest payload: the run's own entries plus code version and settings."""
    return {**entries, "code_version": __version__, "settings": NUMERICAL_SETTINGS}


def _open_run(out_dir: str | Path, payload: dict) -> tuple[Path, str]:
    """Create the output directory; return it with the manifest hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out, manifest_hash(payload)


def _run(cfg: RunConfig, initial, observe, snapshot_stride: int = 0):
    """Evolve ``initial`` under ``cfg``, recording ``observe`` plus shared columns.

    Every record ends with ``zero_mode_maxdev``, ``xmom_re`` and
    ``xmom_im``.  Returns ``(trajectory, columns, blow-up or None)``; on
    blow-up the trajectory holds the records reached before it.
    """
    zm0 = zero_mode_slice(initial)

    def row(t, u):
        rec = observe(t, u)
        rec["zero_mode_maxdev"] = float(np.max(np.abs(zero_mode_slice(u) - zm0)))
        xm = x_moment(u)
        rec["xmom_re"], rec["xmom_im"] = xm.real, xm.imag
        return rec

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
    sspec = SobolevSpec.from_scalar(plan.sobolev_s, cfg.params.a)

    def observe(t, u):
        row = {"mass": mass(u), "hamiltonian": hamiltonian(u, cfg.params)}
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
    payload = _payload(config=cfg.to_dict())
    initial = cfg.initial.build(cfg.grid)
    out, mhash = _open_run(cfg.output_dir, payload)
    traj, columns, blowup = _run(cfg, initial, _scenario_observer(cfg), cfg.snapshot_stride)
    rows = [[rec[key] for key in columns] for rec in traj.records]

    csv_path = out / "diagnostics.csv"
    _write_csv(csv_path, columns, rows, mhash)

    es_sq = traj.column("mass") + traj.column("sob_x") ** 2 + traj.column("sob_y") ** 2
    sup_es = float(np.max(np.sqrt(es_sq)))

    for t_snap, u_snap in traj.snapshots:
        write_snapshot(
            out / f"snapshot_t{t_snap:g}.gbzk",
            SnapshotFile(u_snap, a=cfg.params.a, t=t_snap),
        )

    manifest = dict(payload)
    manifest["manifest_sha256"] = mhash
    manifest["results"] = {
        "rows": len(rows),
        "sup_es_norm": sup_es,
        "blowup": str(blowup) if blowup else None,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

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


def uc_compare(cfg_a: RunConfig, cfg_b: RunConfig, out_dir: str | Path) -> UcCompareResult:
    """Contrast a zero-x-mean branch against a nonzero-mean branch.

    The two configs must be identical except for the x_mean_removed flag.
    Tracks the truncated-norm ladders ||<x>_N^{r1} u|| for r1 in
    {2, 5/2+a, 7/2+a} over the configured N ladder, the zero-mode deviation
    and the first x-moment; the report states box-truncated trends only.
    If either branch blows up, ``uc_compare.csv`` holds the rows both
    branches reached and the first blow-up is re-raised.
    """
    def physics(cfg):  # everything but the flag and the [output] section
        initial = replace(cfg.initial, x_mean_removed=False)
        return replace(cfg, initial=initial, output_dir="", snapshot_stride=0)

    if physics(cfg_a) != physics(cfg_b):
        raise ConfigError("uc_compare configs must differ only in x_mean_removed")
    if cfg_a.initial.x_mean_removed == cfg_b.initial.x_mean_removed:
        raise ConfigError("uc_compare needs exactly one branch with x_mean_removed")
    if cfg_a.initial.x_mean_removed:
        cfg_a, cfg_b = cfg_b, cfg_a  # branch A: nonzero mean, branch B: zero mean

    a = cfg_a.params.a
    ladder_r = [2.0, 2.5 + a, 3.5 + a]
    ladder_n = cfg_a.diagnostics.n_ladder
    ladder_keys = [
        (f"w_r{_rtag(r1)}_N{_ladder_tag(N)}", r1, N) for r1 in ladder_r for N in ladder_n
    ]

    runs = [(tag, c, c.initial.build(c.grid)) for tag, c in (("nz", cfg_a), ("zm", cfg_b))]
    out, mhash = _open_run(out_dir, _payload(config_pair=[cfg_a.to_dict(), cfg_b.to_dict()]))

    def observe(t, u):
        row = {"mass": mass(u)}
        for key, r1, N in ladder_keys:
            row[key] = truncated_x_norm(u, r1, N)
        return row

    branches, blowups = {}, []
    for tag, cfg, initial in runs:
        branches[tag], columns, blowup = _run(cfg, initial, observe)
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
    residuals, zmdev, trends = {}, {}, {}
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
        for key, _, _ in ladder_keys:
            series = traj.column(key)
            grow = (series[-1] - series[0]) / series[0] if series[0] > 0 else 0.0
            trends[f"{key}_{tag}"] = float(grow)

    report_lines = [
        f"# manifest={mhash}",
        "unique-continuation comparison (box-truncated norms; no claim about",
        "norms on the full plane is implied by these trends)",
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
        "",
        "relative growth of truncated weighted norms over [0, T]:",
    ]
    for key, grow in trends.items():
        report_lines.append(f"  {key}: {_fmt(grow)}")
    report_path = out / "uc_report.txt"
    report_path.write_text("\n".join(report_lines) + "\n")

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


def _run_one_query(q: SteinBatchQuery) -> dict:
    profile = make_profile(q.kind, alpha=q.alpha, gamma=q.gamma)
    evidence = l2_membership_classify(profile, q.theta)
    out = {
        "name": q.name,
        "kind": q.kind,
        "param": q.alpha if q.kind != "gamma" else q.gamma,
        "theta": q.theta,
        "verdict": evidence.verdict,
        "increment_slope": evidence.increment_slope,
        "rule": evidence.rule,
        "slope_large_eta": float("nan"),
        "fit_window": "",
        "values": [],
    }
    # pointwise profile values and the large-|eta| decay fit need the Stein
    # integral itself, which exists where the order regime leaves a positive
    # order unreduced; elsewhere quadrature would only report artefacts
    if _order_regime(profile, q.theta)[1] == q.theta > 0.0:
        eta_large = np.geomspace(10.0, 200.0, 12)
        vals_large = dstein_profile(SteinQuery(q.theta, profile, tuple(eta_large)))
        out["slope_large_eta"] = fit_exponent(eta_large, vals_large).slope
        out["fit_window"] = "10..200"
        out["values"] = list(zip(eta_large.tolist(), vals_large.tolist()))
    return out


def stein_report(
    queries: list[SteinBatchQuery], out_dir: str | Path
) -> tuple[Path, Path]:
    """Run a query batch; write verdicts and pointwise values as CSV."""
    out, mhash = _open_run(out_dir, _payload(queries=[vars(q) for q in queries]))

    results = [_run_one_query(q) for q in queries]

    verdict_header = [
        "name",
        "kind",
        "param",
        "theta",
        "verdict",
        "increment_slope",
        "slope_large_eta",
        "fit_window",
        "rule",
    ]
    verdict_rows = [["" if r[k] is None else r[k] for k in verdict_header] for r in results]
    verdicts_path = out / "stein_verdicts.csv"
    _write_csv(verdicts_path, verdict_header, verdict_rows, mhash)

    value_rows = [[r["name"], eta, val] for r in results for eta, val in r["values"]]
    values_path = out / "stein_values.csv"
    _write_csv(values_path, ["name", "eta", "value"], value_rows, mhash)
    return verdicts_path, values_path


# --- expansion check driver -----------------------------------------------------

def run_expansion_check(a: float, ks: list[int], ts: list[float], tolerance: float = 1e-6):
    """Run xi_expansion_check for each (k, t) on the 10 x 10 grid
    xi in [0.1, 1.45], eta in [0, 1.35]."""
    params = DispersionParams(a)
    xi_set = np.linspace(0.1, 1.45, 10)
    eta_set = np.linspace(0.0, 1.35, 10)
    return [
        xi_expansion_check(k, t, params, xi_set, eta_set, tolerance=tolerance)
        for k in ks
        for t in ts
    ]
