"""gbozk benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload {sim256,stein3,probe512} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
The loop is closed with a single client: one fresh process per measurement,
one at a time, ``GBOZK_WORKERS`` unset and the BLAS/OpenMP pools capped at
the CPUs this process may use.

``--trace 0`` times set-up five times, then runs the workload until
``--seconds`` of runs have elapsed (at least one run), checks every run's
outputs and reports the end-to-end metrics.  ``--trace 1`` makes one
untraced run of the workload and one traced run of every workload, plus the
micro-timings, and reports the per-layer metrics.  The last line of standard output is the
JSON result; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import micro  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0  # every child is killed by this point of the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Child:
    """Outcome of one benchmark process."""

    def __init__(self, workdir: Path, rc: int, wall_s: float, cpu_s: float, rss_mb: float):
        self.workdir = workdir
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.problems: list[str] = [] if rc == 0 else [f"exit code {rc}"]
        self.result: dict = {}
        self.output_bytes = 0
        if rc == 0:
            try:
                self.result = json.loads((workdir / "result.json").read_text())
            except (OSError, ValueError) as exc:
                self.problems.append(f"no result.json: {exc!r}")

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    def __init__(self, root: Path, rundir: Path, seed: int):
        self.root = root
        self.rundir = rundir
        self.seed = seed
        self.t0 = time.perf_counter()
        self.children: list[Child] = []
        self.threads = str(len(os.sched_getaffinity(0)))
        env = {k: v for k, v in os.environ.items() if k != "GBOZK_WORKERS"}
        env.update({k: self.threads for k in THREAD_VARS})
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def spawn(self, tag: str, argv: list[str], workload: str | None = None) -> Child:
        """Start ``child.py`` in a fresh workdir, wait for it, return its outcome."""
        workdir = self.rundir / f"{len(self.children):03d}-{tag}"
        workdir.mkdir()
        if workload is not None:
            workloads.write_inputs(workload, workdir)
            argv = argv + ["--workload", workload, "--seed", str(self.seed)]
        timeout = max(1.0, RUN_BUDGET_S - (time.perf_counter() - self.t0))
        with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv],
                                    cwd=workdir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(workdir, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)
        self.children.append(child)
        return child

    def run_workload(self, name: str, mode: str, fingerprints: list[str]) -> Child:
        child = self.spawn(mode, [mode], workload=name)
        if child.ok:
            check_outputs(name, child, fingerprints)
        return child

    def outcome(self) -> tuple[int, int]:
        return len(self.children), sum(not c.ok for c in self.children)


def check_outputs(name: str, child: Child, fingerprints: list[str]) -> None:
    """Add the output check's problems to ``child``.  Runs of the same code on
    the same inputs must repeat the first run's fingerprint exactly."""
    problems, fingerprint = workloads.check(name, child.workdir)
    child.problems += problems
    if fingerprints and fingerprint != fingerprints[0]:
        child.problems.append("output differs from the first run of this code")
    fingerprints.append(fingerprint)
    child.output_bytes = workloads.output_bytes(child.workdir)


# --- the two kinds of run ----------------------------------------------------------

def timed_run(bench: Bench, name: str, seconds: float, report: list[str]) -> dict:
    setups = [bench.spawn("setup", ["setup"], workload=name) for _ in range(SETUP_SAMPLES)]
    env_info = next((c.result["environment"] for c in setups if c.ok), {})
    report.extend(environment_lines(bench, env_info))
    fingerprints: list[str] = []
    runs: list[Child] = []
    start = time.perf_counter()
    while not runs or (
        time.perf_counter() - start + statistics.median(c.wall_s for c in runs) <= seconds
        and time.perf_counter() - bench.t0 < RUN_BUDGET_S / 2
    ):
        runs.append(bench.run_workload(name, "run", fingerprints))

    for c in setups:
        phases = {"import_s": c.result.get("import_s", math.nan), **c.result.get("phases", {})}
        report.append(child_line(c) + " (" + ", ".join(f"{k} {v:.3f}" for k, v in phases.items())
                      + ")")
    report.extend(child_line(c) for c in runs)
    walls = [c.wall_s for c in runs]
    attempted, failed = bench.outcome()
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(c.wall_s for c in setups),
        "peak_rss_mb": statistics.median(c.rss_mb for c in runs),
        "ok_frac": 1.0 - failed / attempted,
    }
    report.append(f"wall_s: median {values['wall_s']:.4f} s over {len(walls)} runs; "
                  + tail_line(walls))
    report.append(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4g}")
    return values


def traced_run(bench: Bench, name: str, report: list[str]) -> dict:
    """One untraced run of ``name``, then one traced run of every workload, so
    every layer is measured whichever workload the run is for."""
    fingerprints: list[str] = []
    plain = bench.run_workload(name, "run", fingerprints)
    traced = {w: bench.run_workload(w, "trace", fingerprints if w == name else [])
              for w in workloads.WORKLOADS}
    micro_child = bench.spawn("micro", ["micro"])
    rss = {n: bench.spawn(f"rss{n}", ["stepper-rss", "--n", str(n)]) for n in (256, 512)}
    report.extend(environment_lines(bench, micro_child.result.get("environment", {})))

    spans: list = []
    counts: Counter = Counter()
    for c in traced.values():
        if not c.ok:
            continue
        data = json.loads((c.workdir / "spans.json").read_text())
        base = len(spans)  # parent indices are per process
        spans += [[n, t0, t1, p + base if p >= 0 else -1] for n, t0, t1, p in data["spans"]]
        counts.update(data["counts"])
        missing = c.result.get("missing_patch_points", [])
        if missing:
            report.append("patch points not found: " + ", ".join(missing))
    values: dict[str, float] = tracer.layer_metrics(spans, counts)
    values.update(micro_child.result.get("metrics", {}))
    for n, c in rss.items():
        values[f"solver.stepper_build_s.n{n}"] = c.result.get("build_s", math.nan)
        values[f"solver.stepper_build_rss_mb.n{n}"] = c.rss_mb
    values["harness.import_s"] = plain.result.get("import_s", math.nan)
    values["harness.output_bytes"] = sum(c.output_bytes for c in traced.values())
    values["harness.cpu_s"] = plain.cpu_s
    values["harness.trace_overhead_frac"] = (traced[name].wall_s - plain.wall_s) / plain.wall_s

    report.extend(child_line(c) for c in bench.children)
    report.append(f"tracing overhead on {name}: traced {traced[name].wall_s:.3f} s vs untraced "
                  f"{plain.wall_s:.3f} s ({100 * values['harness.trace_overhead_frac']:+.1f}%)")
    if spans:
        report.append("self time by span over the traced runs (calls, total s, self s), "
                      "top 20 by self time:")
        agg = sorted(tracer.by_name(spans).items(), key=lambda kv: -kv[1][2])
        for span_name, (calls, total, own) in agg[:20]:
            report.append(f"  {span_name:<44} {calls:>8d} {total:>10.4f} {own:>10.4f}")
    baseline = dict(values)
    if name == "sim256":
        baseline["wall_s.sim256"] = plain.wall_s
    report.append("beside the ROADMAP Baseline (flag: deviation beyond "
                  f"{100 * micro.NOISE:.0f}% noise):")
    for metric, got, base, ratio, flag in micro.baseline_rows(baseline):
        report.append(f"  {metric:<36} {got:>10.4g} vs {base:>8.4g}  x{ratio:.2f}  {flag}")
    return values


# --- report helpers ------------------------------------------------------------------

def child_line(c: Child) -> str:
    return (f"{c.workdir.name}: wall {c.wall_s:.3f} s, cpu {c.cpu_s:.3f} s, rss {c.rss_mb:.1f} MB, "
            + ("ok" if c.ok else f"FAILED: {'; '.join(c.problems)}"))


def tail_line(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has ten samples beyond it at n = {n}"
    p = math.floor(100.0 * (n - 10) / n)
    v = sorted(values)[math.ceil(p / 100.0 * n) - 1]
    return f"p{p} {v:.4f} s (n = {n})"


def environment_lines(bench: Bench, env_info: dict) -> list[str]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "not a git checkout"
    lines = [
        f"machine: nproc {os.cpu_count()}, usable CPUs {bench.threads}, cpu {cpu}",
        "threads: " + ", ".join(f"{k}={bench.threads}" for k in THREAD_VARS)
        + ", GBOZK_WORKERS unset",
        f"git commit: {commit}; seed: {bench.seed}",
    ]
    if env_info:
        lines.append("versions: " + ", ".join(f"{k} {v}" for k, v in env_info.items()))
    return lines


def finite_or_none(v):
    """A metric that could not be measured (its process failed) is null."""
    return v if v is not None and math.isfinite(v) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gbozk" / "__init__.py").is_file():
        print(f"perfbench: no package at {root / 'src' / 'gbozk'}; run from a checkout root",
              file=sys.stderr)
        return 2

    workroot = root / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    report = [f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}: {workloads.WHY[args.workload]}"]
    bench = Bench(root, rundir, args.seed)
    try:
        if args.trace:
            values = traced_run(bench, args.workload, report)
            names = [m[0] for m in metrics.PER_LAYER]
        else:
            values = timed_run(bench, args.workload, args.seconds, report)
            names = [m[0] for m in metrics.END_TO_END]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted, failed = bench.outcome()
    moves = {m[0]: m[3] for m in metrics.PER_LAYER}
    report.append("metrics:")
    for n in names:
        note = f"  -> {moves[n]}" if n in moves else ""
        report.append(f"  {n} = {values.get(n, math.nan):.6g} {metrics.UNITS[n]}{note}")
    print("\n".join(report))
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": finite_or_none(values.get(n)), "unit": metrics.UNITS[n]}
                    for n in names},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
