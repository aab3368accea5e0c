"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

The traced-run tests start real workload processes and take about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import metrics
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("spectral.fft2d_calls", "solver.nl_calls", "fraclab.stein_calls",
          "fraclab.quad_calls", "diagnostics.truncated_weight_calls")


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER]


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Two traced runs of every workload: name -> [child, child]."""
    out = {}
    for name in workloads.WORKLOADS:
        bench = run.Bench(ROOT, tmp_path_factory.mktemp(name), seed=7)
        fingerprints: list[str] = []
        out[name] = [bench.run_workload(name, "trace", fingerprints) for _ in range(2)]
    return out


def _spans(child):
    return json.loads((child.workdir / "spans.json").read_text())


def _counts(child) -> dict:
    data = _spans(child)
    m = tracer.layer_metrics(data["spans"], data["counts"])
    return {k: m[k] for k in COUNTS}


def test_traced_counts_repeat_exactly(traced_pairs):
    first = {}
    for name, children in traced_pairs.items():
        assert all(c.ok for c in children), [c.problems for c in children]
        first[name] = _counts(children[0])
        assert first[name] == _counts(children[1]), name
    for key in COUNTS:  # every count is exercised by some workload
        assert any(c[key] > 0 for c in first.values()), key


def test_self_times_are_bounded(traced_pairs):
    for name, children in traced_pairs.items():
        spans = _spans(children[0])["spans"]
        own = tracer.self_times(spans)
        assert min(own) >= -1e-9, name
        subtree = list(own)
        for i in range(len(spans) - 1, -1, -1):  # children come after parents
            parent = spans[i][3]
            if parent >= 0:
                subtree[parent] += subtree[i]
        for (_, start, end, _), total in zip(spans, subtree):
            assert total <= (end - start) + 1e-9, name


def _tamper(child, dest: Path, rel: str, edit) -> run.Child:
    """A copy of ``child``'s outputs with one file edited."""
    shutil.copytree(child.workdir, dest)
    path = dest / rel
    path.write_text(edit(path.read_text()))
    return run.Child(dest, 0, child.wall_s, child.cpu_s, child.rss_mb)


def _flip_verdict(text: str) -> str:
    return text.replace(",member,", ",non-member,", 1)


def _perturb_mass(text: str) -> str:
    lines = text.splitlines()
    i = lines[1].split(",").index("mass")
    row = lines[-1].split(",")
    row[i] = repr(float(row[i]) * (1.0 + 1e-6))
    lines[-1] = ",".join(row)
    return "\n".join(lines) + "\n"


def _perturb_ratio(text: str) -> str:
    data = json.loads(text)
    data["max_ratio"] = repr(float(data["max_ratio"]) * (1.0 + 1e-12))
    return json.dumps(data)


@pytest.mark.parametrize("name, rel, edit", [
    ("stein3", "stein/stein_verdicts.csv", _flip_verdict),
    ("sim256", "out/diagnostics.csv", _perturb_mass),
    ("probe512", "probe.json", _perturb_ratio),
])
def test_tampered_output_counts_as_failed(traced_pairs, tmp_path, name, rel, edit):
    traced = traced_pairs[name][0]
    bench = run.Bench(ROOT, tmp_path, seed=7)
    fingerprints: list[str] = []
    good = _tamper(traced, tmp_path / "good", rel, lambda text: text)
    bad = _tamper(traced, tmp_path / "bad", rel, edit)
    for child in (good, bad):
        run.check_outputs(name, child, fingerprints)
        bench.children.append(child)
    assert good.ok, good.problems
    assert not bad.ok
    assert bench.outcome() == (2, 1)


def test_fft_flops_are_computed_per_transform():
    t = tracer.Tracer()
    orig = np.fft.fft2
    t.install_fft()
    try:
        a = np.ones((4, 8))
        np.fft.fft2(a)  # 32-point complex: 5 * 32 * 5
        np.fft.rfft2(a)  # 32-point real: 2.5 * 32 * 5
        np.fft.fft(a)  # four 8-point complex: 4 * 5 * 8 * 3
    finally:
        t.restore()
    assert t.counts["fft2d_calls"] == 2
    assert t.counts["fft_flops"] == 800 + 400 + 480
    assert [s[0] for s in t.spans] == ["fft.numpy.fft2", "fft.numpy.rfft2", "fft.numpy.fft"]
    assert np.fft.fft2 is orig


def test_tail_percentile_needs_ten_samples_beyond():
    assert "no percentile" in run.tail_line([1.0] * 10)
    line = run.tail_line([float(i) for i in range(1, 21)])
    assert line.startswith("p50 10.0000")
