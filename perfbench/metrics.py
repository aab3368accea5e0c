"""The benchmark's metrics: name, unit, better direction, and what each moves.

``BENCHMARK.json`` lists the same names, units and directions; the ``moves``
column (which end-to-end metric a layer metric should move, on which
workload) lives here because that file's entries take no extra keys.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median); README.md defines them
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "fraction", "higher", 0.05),
)

# name, unit, better, moves
PER_LAYER = (
    ("spectral.fft2d_calls", "count", "lower", "wall_s on sim256"),
    ("spectral.fft_flops_computed", "flop", "lower", "wall_s on sim256"),
    ("spectral.fft_s", "s", "lower", "wall_s on sim256"),
    ("spectral.roundtrip_ms.n128", "ms", "lower", "wall_s on sim256"),
    ("spectral.roundtrip_ms.n256", "ms", "lower", "wall_s on sim256"),
    ("spectral.roundtrip_ms.n512", "ms", "lower", "wall_s on sim256"),
    ("solver.step_ms", "ms", "lower", "wall_s on sim256"),
    ("solver.nl_calls", "count", "lower", "wall_s on sim256"),
    ("solver.nl_ms", "ms", "lower", "wall_s on sim256"),
    ("solver.nl_per_step", "ratio", "lower", "wall_s on sim256; stays 4 (waste guard)"),
    ("solver.stepper_build_s", "s", "lower", "setup_s on sim256"),
    ("solver.stepper_build_s.n256", "s", "lower", "setup_s on sim256"),
    ("solver.stepper_build_s.n512", "s", "lower", "setup_s on sim256"),
    ("solver.stepper_build_rss_mb.n256", "MB", "lower", "peak_rss_mb on sim256"),
    ("solver.stepper_build_rss_mb.n512", "MB", "lower", "peak_rss_mb on sim256"),
    ("solver.step_ms.etdrk4.n128", "ms", "lower", "wall_s on sim256"),
    ("solver.step_ms.etdrk4.n256", "ms", "lower", "wall_s on sim256"),
    ("solver.step_ms.etdrk4.n512", "ms", "lower", "wall_s on sim256"),
    ("solver.step_ms.strang.n256", "ms", "lower", "none: no workload runs Strang"),
    ("solver.nl_ms.n256", "ms", "lower", "wall_s on sim256"),
    ("solver.nl_ms.n512", "ms", "lower", "wall_s on sim256"),
    ("diagnostics.row_ms", "ms", "lower", "wall_s on sim256 (about 8%)"),
    ("diagnostics.truncated_weight_calls", "count", "lower", "wall_s on sim256 (about 8%)"),
    ("diagnostics.truncated_weight_s", "s", "lower", "wall_s on sim256 (about 8%)"),
    ("diagnostics.records", "count", "higher", "wall_s on sim256"),
    ("diagnostics.row_ms.n256", "ms", "lower", "wall_s on sim256"),
    ("fraclab.stein_calls", "count", "lower", "wall_s on stein3"),
    ("fraclab.stein_value_ms", "ms", "lower", "wall_s on stein3"),
    ("fraclab.quad_calls", "count", "lower", "wall_s on stein3"),
    ("fraclab.classify_s", "s", "lower", "wall_s on stein3"),
    ("fraclab.classify_s.alpha1_theta0.6", "s", "lower", "wall_s on stein3"),
    ("fraclab.grid_stein_rows_s", "s", "lower", "wall_s on probe512"),
    ("fraclab.grid_stein_rows_s.n128", "s", "lower", "wall_s on probe512"),
    ("fraclab.grid_stein_rows_s.n256", "s", "lower", "wall_s on probe512"),
    ("fraclab.grid_stein_rows_s.n512", "s", "lower", "wall_s on probe512"),
    ("harness.import_s", "s", "lower", "setup_s on all workloads"),
    ("experiments.evolve_s", "s", "lower", "wall_s on sim256"),
    ("snapshot.write_s", "s", "lower", "wall_s on sim256"),
    ("harness.output_bytes", "bytes", "lower", "wall_s on sim256"),
    ("harness.cpu_s", "s", "lower", "explains wall_s versus CPU time (all workloads)"),
    ("harness.trace_overhead_frac", "ratio", "lower", "none: (traced - untraced wall_s) / untraced"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
