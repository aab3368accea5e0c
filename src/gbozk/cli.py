"""Command-line interface.

Subcommands: simulate, uc-compare, stein-profile, expansion-check, norms.
Exit codes: 0 success, 1 an expansion check failed, 2 configuration error,
3 numerical blow-up.  Malformed input (configs, batch files, snapshots,
`norms` weight and Sobolev specs, also those whose norm leaves the float
range, `expansion-check` flags other than `--a` in [0, 1], `--k` integers in
1..4, finite `--t` and a finite `--tolerance` > 0) or an output directory
that cannot be created ends in a one-line "config error" and exit 2, before
any output exists (for `norms`, before any row is printed); a run config's
error names its file, also after loading.  A blow-up in `simulate` or
`uc-compare` still writes the rows reached before exit 3.  No environment
variable is read.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from .config import ConfigError, load_config
from .snapshot import SnapshotFormatError
from .solver import BlowUpError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


@contextlib.contextmanager
def _naming(path):
    """Name ``path`` in front of a ConfigError raised after its config loaded."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cmd_simulate(args) -> int:
    from .experiments import run_scenario

    cfg = load_config(args.config)
    with _naming(args.config):
        result = run_scenario(cfg)
    print(f"wrote {result.csv_path} ({len(result.rows)} rows)")
    print(f"wrote {result.manifest_path}")
    print(f"sup E^s norm over trajectory: {result.sup_es_norm:.17g}")
    return EXIT_OK


def _cmd_uc_compare(args) -> int:
    from .experiments import uc_compare

    cfg = load_config(args.config)
    with _naming(args.config):
        result = uc_compare(cfg, args.out or cfg.output_dir)
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.report_path}")
    for tag in ("nz", "zm"):
        print(
            f"branch {tag}: zero-mode maxdev {result.zero_mode_maxdev[tag]:.3e}, "
            f"moment residual {result.moment_residuals[tag]:.3e}"
        )
    return EXIT_OK


def _cmd_stein_profile(args) -> int:
    from .experiments import load_stein_batch, stein_report

    queries = load_stein_batch(args.batch)
    verdicts_path, values_path = stein_report(queries, args.out)
    print(f"wrote {verdicts_path}")
    print(f"wrote {values_path}")
    return EXIT_OK


def _expansion_args(args) -> tuple[float, list[int], list[float], float]:
    """``(a, ks, ts, tolerance)`` from the expansion-check flags, checked."""
    try:
        a, tolerance = float(args.a), float(args.tolerance)
        ks = [int(tok) for tok in args.k.split(",")]
        ts = [float(tok) for tok in args.t.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expansion-check: {exc}") from None
    if not (0.0 <= a <= 1.0 and all(1 <= k <= 4 for k in ks)
            and all(map(math.isfinite, ts)) and 0.0 < tolerance < math.inf):
        raise ConfigError(
            "expansion-check needs --a in [0, 1], --k integers in 1..4, finite --t "
            f"and a finite --tolerance > 0, got --a {args.a} --k {args.k} "
            f"--t {args.t} --tolerance {args.tolerance}"
        )
    return a, ks, ts, tolerance


def _cmd_expansion_check(args) -> int:
    from .propagator import DispersionParams, xi_expansion_check

    a, ks, ts, tolerance = _expansion_args(args)
    params = DispersionParams(a)
    reports = [xi_expansion_check(k, t, params, tolerance=tolerance) for k in ks for t in ts]
    worst = 0.0
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        line = (
            f"k={rep.k} t={rep.t:g}: max rel err {rep.max_rel_error:.3e}, "
            f"median {rep.median_rel_error:.3e}"
        )
        if rep.discrepant_terms:
            line += (
                f"; printed-coefficient discrepancy isolated to terms "
                f"{','.join(rep.discrepant_terms)}; corrected max err "
                f"{rep.max_rel_error_corrected:.3e}"
            )
        print(f"[{status}] {line}")
        worst = max(worst, rep.max_rel_error_corrected)
    print(f"worst corrected error: {worst:.3e}")
    return EXIT_OK if all(r.passed for r in reports) else 1


def _parse_spec(cls, text: str, n_min: int, n_max: int):
    """``cls`` built from ``n_min``..``n_max`` colon-separated numbers."""
    parts = text.split(":")
    try:
        if not n_min <= len(parts) <= n_max:
            raise ValueError(f"expected {n_min}..{n_max} colon-separated numbers")
        return cls(*(float(tok) for tok in parts))
    except ValueError as exc:
        raise ConfigError(f"malformed spec {text!r}: {exc}") from None


def _cmd_norms(args) -> int:
    from functools import partial

    import numpy as np

    from .diagnostics import (
        SobolevSpec,
        WeightSpec,
        mass,
        sobolev_norm,
        weighted_norm,
    )
    from .snapshot import read_snapshot

    weights = [_parse_spec(WeightSpec, w, 1, 3) for w in args.weights]
    sobolev = None if args.sobolev is None else _parse_spec(SobolevSpec, args.sobolev, 2, 2)
    snap = read_snapshot(args.snapshot)
    u = snap.field
    quantities = [("mass", partial(mass, u))]
    quantities += [(f"wnorm_r1={spec.r1:g}_r2={spec.r2:g}_N={spec.N:g}",
                    partial(weighted_norm, u, spec)) for spec in weights]
    if sobolev is not None:
        quantities.append((f"sobolev_s1={sobolev.s1:g}_s2={sobolev.s2:g}",
                           partial(sobolev_norm, u, sobolev)))
    # every value is computed, with float overflow raising, before any is
    # printed; an exponent whose double overflows (w ** inf) raises no flag,
    # so a value that is not finite is refused too
    rows = [f"t,{snap.t:.17g}"]
    for name, norm in quantities:
        try:
            with np.errstate(over="raise", invalid="raise"):
                value = norm()
            if not math.isfinite(value):
                raise FloatingPointError(f"value {value}")
        except FloatingPointError as exc:
            raise ConfigError(f"norms: {name} leaves the float range ({exc})") from None
        rows.append(f"{name},{value:.17g}")
    print("quantity,value", *rows, sep="\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbozk",
        description="Pseudo-spectral lab for the dispersion generalized BO-ZK equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one configured scenario")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("uc-compare", help="zero-mean vs nonzero-mean branch of one config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=_cmd_uc_compare)

    p = sub.add_parser("stein-profile", help="run a Stein query batch")
    p.add_argument("batch")
    p.add_argument("--out", default="stein_out")
    p.set_defaults(fn=_cmd_stein_profile)

    p = sub.add_parser("expansion-check", help="validate the xi-derivative expansions")
    p.add_argument("--a", default="0.5", help="dispersion exponent in [0, 1]")
    p.add_argument("--k", default="1,2,3,4", help="comma list of orders in 1..4")
    p.add_argument("--t", default="0,0.2,1", help="comma list of finite times")
    p.add_argument("--tolerance", default="1e-6", help="finite relative tolerance > 0")
    p.set_defaults(fn=_cmd_expansion_check)

    p = sub.add_parser("norms", help="norms of a snapshot file")
    p.add_argument("snapshot")
    p.add_argument(
        "weights",
        nargs="*",
        help="weight specs r1[:r2[:N]] (N omitted = untruncated)",
    )
    p.add_argument("--sobolev", default=None, help="s1:s2 anisotropic orders")
    p.set_defaults(fn=_cmd_norms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, SnapshotFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
