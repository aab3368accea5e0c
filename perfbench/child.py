"""One benchmark process.  ``run.py`` starts a fresh one per measurement.

    python3 perfbench/child.py MODE [--workload NAME] [--seed N] [--n N]

MODE is ``run`` (one untraced workload run), ``trace`` (one run with span
wrappers installed first), ``setup`` (import, parse, build the data and the
first Stepper), ``micro`` (per-layer micro-timings) or ``stepper-rss`` (build
one Stepper, so the process's peak RSS is the build's).  The process works in
its current directory and writes ``result.json`` there; ``trace`` also writes
``spans.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads


def _environment() -> dict:
    import numpy
    import scipy
    import mpmath

    fft_impl = numpy.fft.fft2.__module__
    try:
        from numpy.fft import _pocketfft_umath  # noqa: F401
        fft_impl += " (pocketfft C++ umath)"
    except ImportError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numpy_fft_backend": fft_impl,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("run", "trace", "setup", "micro", "stepper-rss"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=256)
    args = ap.parse_args(argv)
    result: dict = {}

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_fft()
    t_import = time.perf_counter()
    cli_main = workloads.import_package()
    result["import_s"] = time.perf_counter() - t_import
    if tracer is not None:
        tracer.install_layers()
        result["missing_patch_points"] = tracer.missing

    if args.mode in ("run", "trace"):
        execute = workloads.execute
        if tracer is not None:
            execute = tracer.span("workload", execute)
        result["exit_code"] = execute(args.workload, args.seed, cli_main)
    elif args.mode == "setup":
        result["phases"] = workloads.setup(args.workload, args.seed)
        result["environment"] = _environment()
    elif args.mode == "micro":
        import micro

        result["metrics"] = micro.micro_timings()
        result["environment"] = _environment()
    else:
        import micro

        result["build_s"] = micro.stepper_build(args.n)

    if tracer is not None:
        Path("spans.json").write_text(json.dumps(
            {"spans": tracer.spans, "counts": dict(tracer.counts)}))
    Path("result.json").write_text(json.dumps(result))
    return int(result.get("exit_code", 0))


if __name__ == "__main__":
    sys.exit(main())
