"""Span tracing installed from outside the package.

``Tracer.install_fft`` wraps the FFT entry points of ``numpy.fft`` and
``scipy.fft``; once the package is imported, ``Tracer.install_layers`` wraps
the public functions of each layer under the name the calling module binds
them to (``from .diagnostics
import mass`` in ``experiments`` is patched as ``gbozk.experiments.mass``).
Every call records a span (name, start, end, parent) in memory; FFT calls also
add computed flop counts.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter

FFT_1D = ("fft", "ifft", "rfft", "irfft")
FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2")
FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn")

# (module, attribute path) pairs patched in the namespace that calls them.
LAYER_PATCHES = {
    "gbozk.solver": ("to_physical", "to_spectral", "nonlinear_term",
                     "Stepper.step", "Stepper.__init__"),
    "gbozk.experiments": ("evolve", "mass", "hamiltonian",
                          "directional_sobolev_norms", "truncated_x_norm",
                          "truncated_y_norm", "zero_mode_slice", "x_moment",
                          "write_snapshot", "make_profile",
                          "l2_membership_classify", "dstein_profile",
                          "fit_exponent"),
    "gbozk.diagnostics": ("truncated_weight",),
    "gbozk.fraclab": ("stein_derivative", "quad", "grid_stein_rows",
                      "gaussian_ensemble", "lemma_df_probe"),
}

# The functions one diagnostics row of run_scenario calls.
DIAG_ROW = ("mass", "hamiltonian", "directional_sobolev_norms",
            "truncated_x_norm", "truncated_y_norm", "zero_mode_slice", "x_moment")


class Tracer:
    """In-memory span recorder.  ``spans`` rows are [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._in_fft = False
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1]]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _fft(self, lib: str, name: str, fn):
        inner = self.span(f"fft.{lib}.{name}", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_fft:  # a library FFT calling another entry point
                return fn(*args, **kwargs)
            self._in_fft = True
            try:
                out = inner(*args, **kwargs)
            finally:
                self._in_fft = False
            self._count_fft(name, args, kwargs, out)
            return out

        return traced

    def _count_fft(self, name, args, kwargs, out) -> None:
        import numpy as np

        real_domain = np.asarray(args[0]) if name.startswith("rfft") else out
        if name in FFT_1D:
            axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
        else:
            axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
            if axes is None:
                axes = (-2, -1) if name in FFT_2D else tuple(range(real_domain.ndim))
        n = math.prod(real_domain.shape[ax] for ax in axes)
        batch = real_domain.size // n if n else 0
        per_point = 2.5 if "rfft" in name else 5.0
        if len(axes) == 2:
            self.counts["fft2d_calls"] += 1
        if n > 1:
            self.counts["fft_flops"] += int(round(batch * per_point * n * math.log2(n)))

    def install_fft(self) -> None:
        """Wrap the FFT entry points; call before the package is imported so
        every binding the package makes is already the wrapper."""
        import numpy.fft
        import scipy.fft

        for lib, mod in (("numpy", numpy.fft), ("scipy", scipy.fft)):
            for name in FFT_1D + FFT_2D + FFT_ND:
                orig = getattr(mod, name, None)
                if orig is not None:
                    self._patch(mod, name, self._fft(lib, name, orig))

    def install_layers(self) -> None:
        """Patch the layer functions in the namespaces that call them."""
        for modname, attrs in LAYER_PATCHES.items():
            mod = importlib.import_module(modname)
            short = modname.split(".")[-1]
            for path in attrs:
                owner, _, attr = path.rpartition(".")
                target = getattr(mod, owner, None) if owner else mod
                fn = getattr(target, attr, None) if target is not None else None
                if fn is None:
                    self.missing.append(f"{modname}.{path}")
                    continue
                on_return = self._count_records if path == "evolve" else None
                self._patch(target, attr, self.span(f"{short}.{path}", fn, on_return))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched name back."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _count_records(self, traj) -> None:
        self.counts["records"] += len(traj.records)


# --- analysis of recorded spans -------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans come from one thread, so children of one parent never overlap and
    their durations can simply be subtracted.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def by_name(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    own = self_times(spans)
    out: dict[str, list] = {}
    for (name, start, end, _), s in zip(spans, own):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += s
    return {k: tuple(v) for k, v in out.items()}


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of traced workload runs."""
    agg = by_name(spans)

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def mean_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    steps = calls("solver.Stepper.step")
    nl = calls("solver.nonlinear_term")
    rows = calls("experiments.mass")
    row_s = sum(total(f"experiments.{f}") for f in DIAG_ROW)
    return {
        "spectral.fft2d_calls": counts.get("fft2d_calls", 0),
        "spectral.fft_flops_computed": counts.get("fft_flops", 0),
        "spectral.fft_s": sum(v[1] for k, v in agg.items() if k.startswith("fft.")),
        "solver.step_ms": mean_ms("solver.Stepper.step"),
        "solver.nl_calls": nl,
        "solver.nl_ms": mean_ms("solver.nonlinear_term"),
        "solver.nl_per_step": nl / steps if steps else 0.0,
        "solver.stepper_build_s": total("solver.Stepper.__init__"),
        "diagnostics.row_ms": 1e3 * row_s / rows if rows else 0.0,
        "diagnostics.truncated_weight_calls": calls("diagnostics.truncated_weight"),
        "diagnostics.truncated_weight_s": total("diagnostics.truncated_weight"),
        "diagnostics.records": counts.get("records", 0),
        "fraclab.stein_calls": calls("fraclab.stein_derivative"),
        "fraclab.stein_value_ms": mean_ms("fraclab.stein_derivative"),
        "fraclab.quad_calls": calls("fraclab.quad"),
        "fraclab.classify_s": total("experiments.l2_membership_classify"),
        "fraclab.grid_stein_rows_s": total("fraclab.grid_stein_rows"),
        "experiments.evolve_s": total("experiments.evolve"),
        "snapshot.write_s": total("experiments.write_snapshot"),
    }
