import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import tempfile
import types
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gbozk
from gbozk import evolve, make_grid
from gbozk.cli import build_parser, main as cli_main
from gbozk.config import _SCHEMA, ConfigError, load_config, read_ini
from gbozk.experiments import (
    NUMERICAL_SETTINGS,
    SteinBatchQuery,
    load_stein_batch,
    manifest_hash,
    run_scenario,
    stein_report,
    uc_compare,
)
from gbozk.snapshot import (
    SnapshotFile,
    SnapshotFormatError,
    read_snapshot,
    write_snapshot,
)
from gbozk.spectral import RealField2D

from conftest import gaussian_field, random_field
from test_fraclab import _PINNED_PLATFORM, _numeric_platform

BASE_CFG = """\
[grid]
nx = 32
ny = 32
lx = 16.0
ly = 16.0

[dispersion]
a = 0.5

[solver]
dt = 1e-3
T = 0.01

[initial]
family = gaussian
amplitude = 0.3
sigma_x = 1.0
sigma_y = 1.0

[diagnostics]
stride = 2
n_ladder = 2,4

[output]
directory = {out}
"""


# the three-family batch of the stein3 benchmark workload
STEIN3_BATCH = """\
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


def write_cfg(tmp_path, name="run.cfg", text=None, **fmt):
    text = text if text is not None else BASE_CFG
    path = tmp_path / name
    path.write_text(text.format(out=fmt.get("out", tmp_path / "out")))
    return path


# values for fuzzed keys: valid numbers and words, garbage, empty, nan, +-inf,
# 0, negatives, values that under- or overflow
FUZZ_VALUES = st.one_of(
    st.sampled_from(
        ["", "abc", "5%", "2,x", "nan", "inf", "-inf", "0", "-1", "-0.5", "1e-200",
         "1e308", "true", "gaussian", "single_mode", "file", "strang", "2,4",
         "power", "power_sign", "gamma"]
    ),
    st.integers(-4, 40).map(str),
    st.floats(-100.0, 100.0).map(repr),
)
# a run of at most 16^2 points and 5 steps; [output] directory is set per run
FUZZ_BASE = {
    ("grid", "nx"): "16", ("grid", "ny"): "16", ("grid", "lx"): "16.0",
    ("grid", "ly"): "16.0", ("dispersion", "a"): "0.5", ("solver", "dt"): "1e-3",
    ("solver", "t"): "0.005", ("initial", "family"): "gaussian",
    ("initial", "amplitude"): "0.3", ("diagnostics", "stride"): "2",
    ("diagnostics", "n_ladder"): "2,4",
}
FUZZ_KEYS = [
    (section, key) for section, keys in _SCHEMA.items() for key in keys
    if (section, key) != ("output", "directory")
]
BATCH_KEYS = [f.name for f in fields(SteinBatchQuery) if f.name != "name"]


def render_ini(values: dict) -> str:
    sections: dict[str, list[str]] = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n\n" for s, lines in sections.items())


class TestSnapshot:
    def test_round_trip_bit_exact(self, tmp_path):
        g = make_grid(16, 24, 8.0, 12.0)
        u = random_field(g, seed=3)
        path = tmp_path / "f.gbzk"
        write_snapshot(path, SnapshotFile(u, a=0.4, t=1.25))
        snap = read_snapshot(path)
        assert snap.a == 0.4 and snap.t == 1.25
        assert np.array_equal(snap.field.samples, u.samples)
        assert snap.field.grid == g
        # a second write produces identical bytes
        path2 = tmp_path / "g.gbzk"
        write_snapshot(path2, SnapshotFile(u, a=0.4, t=1.25))
        assert path.read_bytes() == path2.read_bytes()

    def test_corrupted_magic(self, tmp_path):
        g = make_grid(16, 16, 8.0, 8.0)
        path = tmp_path / "f.gbzk"
        write_snapshot(path, SnapshotFile(random_field(g), a=0.5, t=0.0))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        g = make_grid(16, 16, 8.0, 8.0)
        path = tmp_path / "f.gbzk"
        write_snapshot(path, SnapshotFile(random_field(g), a=0.5, t=0.0))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "a, t, match",
        [(0.5, math.nan, "time t"), (0.5, math.inf, "time t"), (0.5, -math.inf, "time t"),
         (math.nan, 1.0, "exponent a"), (math.inf, 1.0, "exponent a"),
         (-0.25, 1.0, "exponent a"), (1.5, 1.0, "exponent a")],
    )
    def test_bad_header_values(self, tmp_path, capsys, a, t, match):
        path = tmp_path / "f.gbzk"
        write_snapshot(path, SnapshotFile(random_field(make_grid(8, 8, 4.0, 4.0)), a=a, t=t))
        with pytest.raises(SnapshotFormatError, match=match):
            read_snapshot(path)
        assert cli_main(["norms", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (err,) = captured.err.splitlines()
        assert err.startswith("config error:") and match in err


# a small grid with every header value write_snapshot accepts
SNAPSHOT_GRIDS = st.builds(
    make_grid,
    st.integers(4, 12).map(lambda k: 2 * k),
    st.integers(4, 12).map(lambda k: 2 * k),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
)


@st.composite
def snapshots(draw):
    g = draw(SNAPSHOT_GRIDS)
    samples = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=g.nx * g.ny, max_size=g.nx * g.ny,
    ))
    u = RealField2D(g, np.array(samples).reshape(g.ny, g.nx))
    a = draw(st.floats(0.0, 1.0))
    t = draw(st.floats(allow_nan=False, allow_infinity=False))
    return SnapshotFile(u, a=a, t=t)


class TestSnapshotProperties:
    @settings(max_examples=60, deadline=None)
    @given(snap=snapshots())
    def test_write_read_bit_identity(self, snap):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.gbzk"
            write_snapshot(path, snap)
            back = read_snapshot(path)
            write_snapshot(Path(tmp) / "g.gbzk", back)
            assert (Path(tmp) / "g.gbzk").read_bytes() == path.read_bytes()
        assert back.field.grid == snap.field.grid
        assert back.field.samples.tobytes() == snap.field.samples.tobytes()
        assert struct.pack("<2d", back.a, back.t) == struct.pack("<2d", snap.a, snap.t)

    @settings(max_examples=60, deadline=None)
    @given(g=SNAPSHOT_GRIDS, data=st.data())
    def test_every_truncation_is_rejected(self, g, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.gbzk"
            write_snapshot(path, SnapshotFile(random_field(g), a=0.5, t=1.0))
            raw = path.read_bytes()
            path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
            with pytest.raises(SnapshotFormatError):
                read_snapshot(path)

    @settings(max_examples=200, deadline=None)
    @given(
        g=SNAPSHOT_GRIDS,
        pos=st.integers(0, 47),  # the 48-byte header
        mask=st.integers(1, 255),
        args=st.sampled_from([[], ["2:1:4", "1"], ["--sobolev", "1:0.5"]]),
    )
    def test_header_byte_flip_exits_cleanly(self, g, pos, mask, args):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.gbzk"
            write_snapshot(path, SnapshotFile(random_field(g), a=0.5, t=1.0))
            raw = bytearray(path.read_bytes())
            raw[pos] ^= mask
            path.write_bytes(bytes(raw))
            out, err = io.StringIO(), io.StringIO()
            # no exception may escape main: exit 0 with the norms, or exit 2
            # with one config error line and no output
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    np.errstate(all="ignore"):
                code = cli_main(["norms", str(path), *args])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            (line,) = err.getvalue().splitlines()
            assert line.startswith("config error:")


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.grid.nx == 32
        assert cfg.solver.params.a == 0.5
        assert cfg.solver.dt == 1e-3
        assert cfg.diagnostics.n_ladder == (2.0, 4.0)

    def test_unknown_key_is_hard_error(self, tmp_path):
        bad = BASE_CFG.replace("amplitude = 0.3", "amplitud = 0.3")
        with pytest.raises(ConfigError, match="amplitud"):
            load_config(write_cfg(tmp_path, text=bad))

    def test_unknown_section_is_hard_error(self, tmp_path):
        bad = BASE_CFG + "\n[plotting]\nstyle = fancy\n"
        with pytest.raises(ConfigError, match="plotting"):
            load_config(write_cfg(tmp_path, text=bad))

    def test_missing_section(self, tmp_path):
        bad = BASE_CFG.replace("[dispersion]\na = 0.5\n", "")
        with pytest.raises(ConfigError, match="dispersion"):
            load_config(write_cfg(tmp_path, text=bad))

    @pytest.mark.parametrize("key", ["r1", "r2", "sobolev_s"])
    def test_non_finite_diagnostics_exponent(self, tmp_path, key):
        bad = BASE_CFG.replace("[diagnostics]", f"[diagnostics]\n{key} = nan")
        with pytest.raises(ConfigError, match="finite"):
            load_config(write_cfg(tmp_path, text=bad))

    def test_type_error_reports_key(self, tmp_path):
        bad = BASE_CFG.replace("nx = 32", "nx = many")
        with pytest.raises(ConfigError, match="nx"):
            load_config(write_cfg(tmp_path, text=bad))

    @settings(max_examples=80, deadline=None, database=None)
    @given(overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES, max_size=4))
    def test_fuzzed_config_is_config_error_or_runs(self, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            values = {**FUZZ_BASE, **overrides, ("output", "directory"): f"{tmp}/out"}
            path.write_text(render_ini(values))
            try:
                cfg = load_config(path)
            except ConfigError:
                return
            if max(cfg.grid.nx, cfg.grid.ny) <= 16 and cfg.solver.T <= 10 * cfg.solver.dt:
                assert cli_main(["simulate", str(path)]) in (0, 2, 3)

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        sections=st.lists(
            st.dictionaries(st.sampled_from(BATCH_KEYS), FUZZ_VALUES, min_size=1),
            max_size=3,
        )
    )
    def test_fuzzed_batch_loads_or_is_config_error(self, sections, tmp_path_factory):
        batch = tmp_path_factory.mktemp("batch") / "batch.cfg"
        batch.write_text(
            render_ini({(f"q{i}", k): v for i, keys in enumerate(sections) for k, v in keys.items()})
        )
        try:
            assert len(load_stein_batch(batch)) == len(sections)
        except ConfigError:
            pass

    @pytest.mark.parametrize(
        "initial, foreign",
        [
            ("family = gaussian\nkx = 5\npath = nowhere.gbzk", "kx, path"),
            ("family = single_mode\ncenter_y = 1.0", "center_y"),
            ("family = file\npath = init.gbzk\namplitude = 0.3", "amplitude"),
        ],
        ids=["gaussian", "single_mode", "file"],
    )
    def test_initial_key_its_family_does_not_read(self, tmp_path, initial, foreign):
        # such a key changes no run but would enter the manifest and its hash
        text = BASE_CFG.replace("family = gaussian\namplitude = 0.3", initial)
        path = write_cfg(tmp_path, text=text)
        family = initial.split("\n")[0]
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: [initial] {family} does not read {foreign}"

    def test_initial_families(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        u = cfg.initial.build(cfg.grid)
        assert np.max(u.samples) == pytest.approx(0.3, rel=1e-12)
        # x-mean-removed variant has vanishing row integrals
        from gbozk.config import InitialData

        init = InitialData(
            family="gaussian", amplitude=0.3, sigma_x=1.0, sigma_y=1.0,
            x_mean_removed=True,
        )
        u2 = init.build(cfg.grid)
        assert np.max(np.abs(u2.samples.sum(axis=1))) < 1e-12
        mode = InitialData(family="single_mode", amplitude=0.5, kx=2, ky=1)
        u3 = mode.build(cfg.grid)
        assert np.isclose(np.max(u3.samples), 0.5)

    @pytest.mark.parametrize("key", ["center_x", "center_y"])
    def test_far_centred_gaussian_is_zero_and_silent(self, key):
        # the squared distance overflows; the odd Hermite factor multiplies 0
        from gbozk.config import InitialData

        init = InitialData(family="gaussian", x_mean_removed=True, **{key: 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = init.build(make_grid(16, 16, 16.0, 16.0))
        assert not np.any(u.samples)

    def test_file_family_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        u = random_field(cfg.grid, seed=9)
        snap_path = tmp_path / "init.gbzk"
        write_snapshot(snap_path, SnapshotFile(u, a=0.5, t=0.0))
        from gbozk.config import InitialData

        init = InitialData(family="file", path=str(snap_path))
        v = init.build(cfg.grid)
        assert np.array_equal(v.samples, u.samples)
        # grid mismatch is rejected
        other = make_grid(64, 64, 16.0, 16.0)
        with pytest.raises(ConfigError):
            init.build(other)


class TestRunScenario:
    def test_csv_row_count_and_schema(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        res = run_scenario(cfg)
        # 10 steps, stride 2 -> t = 0 plus 5 records
        assert len(res.rows) == 6
        header = res.csv_path.read_text().splitlines()[1]
        assert header == (
            "t,mass,hamiltonian,sob_x,sob_y,wnorm_x_N2,wnorm_x_N4,"
            "wnorm_y,zero_mode_maxdev,xmom_re,xmom_im"
        )

    def test_zero_data_all_zero_columns(self, tmp_path):
        text = BASE_CFG.replace("amplitude = 0.3", "amplitude = 0.0")
        cfg = load_config(write_cfg(tmp_path, text=text))
        res = run_scenario(cfg)
        arr = np.array(res.rows)[:, 1:]
        assert np.max(np.abs(arr)) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        res1 = run_scenario(cfg)
        first = res1.csv_path.read_bytes()
        res2 = run_scenario(cfg)
        assert res2.csv_path.read_bytes() == first
        assert res1.manifest_path.read_bytes() == res2.manifest_path.read_bytes()

    def test_manifest_hash_on_outputs(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        res = run_scenario(cfg)
        import json

        manifest = json.loads(res.manifest_path.read_text())
        line = res.csv_path.read_text().splitlines()[0]
        assert line == f"# manifest={manifest['manifest_sha256']}"

    @pytest.mark.parametrize("flag, rule", [("true", "two-thirds"), ("false", "none")])
    def test_manifest_records_the_dealias_rule(self, tmp_path, flag, rule):
        text = BASE_CFG.replace("T = 0.01", f"T = 0.01\ndealias = {flag}")
        res = run_scenario(load_config(write_cfg(tmp_path, text=text)))
        manifest = json.loads(res.manifest_path.read_text())
        assert manifest["settings"] == {**NUMERICAL_SETTINGS, "dealias_rule": rule}

    def test_snapshot_written_with_final_time(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        run_scenario(cfg)
        snap = read_snapshot(cfg.output_dir + "/snapshot_t0.01.gbzk")
        assert np.isclose(snap.t, 0.01)
        assert snap.a == 0.5

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        stride=st.integers(1, 5),
        n_steps=st.integers(1, 12),
        snapshot_stride=st.integers(0, 5),
    )
    def test_rows_times_and_snapshots_follow_evolve(self, stride, n_steps, snapshot_stride):
        with tempfile.TemporaryDirectory() as tmp:
            text = (
                BASE_CFG.replace("nx = 32\nny = 32", "nx = 16\nny = 16")
                .replace("T = 0.01", f"T = {n_steps * 1e-3!r}")
                .replace("stride = 2", f"stride = {stride}")
                + f"snapshot_stride = {snapshot_stride}\n"
            )
            cfg = load_config(write_cfg(Path(tmp), text=text))
            res = run_scenario(cfg)
            traj = evolve(
                cfg.initial.build(cfg.grid),
                cfg.solver,
                stride=stride,
                snapshot_stride=snapshot_stride,
            )
            assert [row[0] for row in res.rows] == traj.column("t").tolist()
            assert len(res.rows) == len(traj.records)
            out = Path(cfg.output_dir)
            assert len(list(out.glob("snapshot_t*.gbzk"))) == len(traj.snapshots)
            first = {f.name: f.read_bytes() for f in out.iterdir()}
            run_scenario(cfg)
            assert {f.name: f.read_bytes() for f in out.iterdir()} == first


class TestUcCompare:
    def _config(self, tmp_path, text=BASE_CFG):
        return load_config(write_cfg(tmp_path, "run.cfg", text, out=tmp_path / "run"))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self._config(tmp_path)
        first = uc_compare(cfg, tmp_path / "uc").csv_path.read_bytes()
        assert uc_compare(cfg, tmp_path / "uc").csv_path.read_bytes() == first

    def test_outputs_and_invariances(self, tmp_path):
        cfg = self._config(tmp_path)
        res = uc_compare(cfg, tmp_path / "uc")
        # zero-mode column is exactly invariant on both branches
        assert res.zero_mode_maxdev["nz"] < 1e-12
        assert res.zero_mode_maxdev["zm"] < 1e-12
        assert res.csv_path.exists() and res.report_path.exists()
        # ladder norms are nondecreasing in N within every row
        header = res.csv_path.read_text().splitlines()[1].split(",")
        arr = np.array(res.rows)
        for tag in ("nz", "zm"):
            for r in ("2", "2p5", "4"):
                cols = [
                    header.index(f"w_r{r}_N{N}_{tag}")
                    for N in ("2", "4")
                    if f"w_r{r}_N{N}_{tag}" in header
                ]
                if len(cols) == 2:
                    assert np.all(arr[:, cols[1]] >= arr[:, cols[0]] - 1e-12)

    def test_branches_are_the_config_and_its_zero_mean_form(self, tmp_path):
        # the t = 0 masses are those of the configured Gaussian (nz) and of
        # the same Gaussian with x_mean_removed set (zm), bit for bit
        cfg = self._config(tmp_path)
        res = uc_compare(cfg, tmp_path / "uc")
        header = res.csv_path.read_text().splitlines()[1].split(",")
        zm = replace(cfg.initial, x_mean_removed=True)
        assert res.rows[0][header.index("mass_nz")] == gbozk.mass(cfg.initial.build(cfg.grid))
        assert res.rows[0][header.index("mass_zm")] == gbozk.mass(zm.build(cfg.grid))

    @pytest.mark.parametrize("dealias, rule", [(True, "two-thirds"), (False, "none")])
    def test_manifest_hash(self, tmp_path, dealias, rule):
        # the payload names the command, so a uc-compare hash is never a
        # simulate hash of the same config, and records the dealiasing rule
        cfg = self._config(tmp_path)
        cfg = replace(cfg, solver=replace(cfg.solver, dealias=dealias))
        common = {"code_version": gbozk.__version__,
                  "settings": {**NUMERICAL_SETTINGS, "dealias_rule": rule}}
        uc_hash = manifest_hash({"uc_compare": cfg.to_dict(), **common})
        assert uc_hash != manifest_hash({"config": cfg.to_dict(), **common})
        first = uc_compare(cfg, tmp_path / "uc").csv_path.read_text().splitlines()[0]
        assert first == f"# manifest={uc_hash}"

    def test_two_records_give_nan_moment_residuals(self, tmp_path):
        # one step records t = 0 and t = dt, too few for a centered difference
        cfg = self._config(tmp_path)
        cfg = replace(cfg, solver=replace(cfg.solver, T=cfg.solver.dt))
        res = uc_compare(cfg, tmp_path / "uc")
        assert len(res.rows) == 2
        assert all(math.isnan(v) for v in res.moment_residuals.values())
        assert "residual (d/dt int x u = mass/2): nz = nan, zm = nan" in (
            res.report_path.read_text()
        )


class TestSteinBatch:
    def test_empty_batch(self, tmp_path):
        batch = tmp_path / "batch.cfg"
        batch.write_text("")
        queries = load_stein_batch(batch)
        verdicts, values = stein_report(queries, tmp_path / "out")
        lines = verdicts.read_text().splitlines()
        assert len(lines) == 2  # manifest comment + header only
        assert values.read_text().splitlines()[1] == "name,eta,value"

    def test_bad_batch_key(self, tmp_path):
        batch = tmp_path / "batch.cfg"
        batch.write_text("[q]\nkind = power\ntheta = 0.5\nalpa = 1.0\n")
        with pytest.raises(ConfigError):
            load_stein_batch(batch)

    def test_large_exponent_within_float_range_runs(self, tmp_path):
        # |y|^400 on the support squares to below the float maximum
        batch = tmp_path / "batch.cfg"
        batch.write_text("[q]\nkind = power\nalpha = 400\ntheta = 0.5\n")
        assert cli_main(["stein-profile", str(batch), "--out", str(tmp_path / "out")]) == 0

    def test_repeated_batch_identical(self, tmp_path):
        batch = tmp_path / "batch.cfg"
        batch.write_text("[g]\nkind = gamma\ngamma = 0.3\ntheta = 0.2\n")
        queries = load_stein_batch(batch)
        v1, _ = stein_report(queries, tmp_path / "o1")
        v2, _ = stein_report(queries, tmp_path / "o2")
        assert v1.read_bytes() == v2.read_bytes()
        assert "member" in v1.read_text()

    @pytest.mark.skipif(
        _numeric_platform() != _PINNED_PLATFORM, reason="bytes pinned on one numeric platform"
    )
    def test_stein3_csv_bytes(self, tmp_path):
        batch = tmp_path / "batch.cfg"
        batch.write_text(STEIN3_BATCH)
        paths = stein_report(load_stein_batch(batch), tmp_path / "out")
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == [
            "f17c80d1249b02ff92d80ea1ed4f555d33d815f5de892842cfdf717d9fc36dcb",
            "6d7beed0eff3d08b47a4fd781fc5df7d12d2e00f427a64f2d0f7e500c88beddd",
        ]

    def test_three_family_batch_verdicts(self, tmp_path):
        batch = tmp_path / "batch.cfg"
        batch.write_text(
            "[frac_order_family]\nkind = power\nalpha = 1.5\ntheta = 0.9\n\n"
            "[sign_family]\nkind = power_sign\nalpha = 0.5\ntheta = 1.2\n\n"
            "[gamma_family]\nkind = gamma\ngamma = 0.3\ntheta = 0.3\n"
        )
        verdicts, _ = stein_report(load_stein_batch(batch), tmp_path / "out")
        body = {
            line.split(",")[0]: line.split(",")[4]
            for line in verdicts.read_text().splitlines()[2:]
        }
        # membership iff theta < alpha + 1/2; the gamma profile fails at
        # theta = gamma
        assert body["frac_order_family"] == "member"
        assert body["sign_family"] == "non-member"
        assert body["gamma_family"] == "non-member"

    @settings(max_examples=40, deadline=None, database=None)
    # theta near 1: the inner window reaches s so small that x + s rounds to x
    @example(kind="power", param=-0.45, theta=0.99)
    @given(
        kind=st.sampled_from(["power", "power_sign", "gamma"]),
        param=st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5]), st.floats(-3.0, 3.0)),
        theta=st.one_of(st.sampled_from([0.0, 0.999, 1.0, 2.0, -0.1]), st.floats(0.0, 2.0)),
    )
    def test_fuzzed_batch_runs_through_stein_profile(self, kind, param, theta):
        key = "gamma" if kind == "gamma" else "alpha"
        lead = param - 0.5 if kind == "gamma" else param  # the power at the kink
        with tempfile.TemporaryDirectory() as tmp:
            batch = Path(tmp) / "batch.cfg"
            batch.write_text(f"[q]\nkind = {kind}\n{key} = {param!r}\ntheta = {theta!r}\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main(["stein-profile", str(batch), "--out", f"{tmp}/out"])
            # orders outside [0, 2), and orders >= 1 without an analytic derivative
            if not 0.0 <= theta < 2.0 or (kind == "gamma" and theta >= 1.0):
                assert code == 2
                (line,) = err.getvalue().splitlines()
                assert line.startswith("config error:")
                return
            assert code == 0 and err.getvalue() == ""
            values = (Path(tmp) / "out" / "stein_values.csv").read_text().splitlines()[2:]
            assert bool(values) == (0.0 < theta < 1.0 and lead > -0.5)


class TestCli:
    def test_simulate_and_norms(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        assert cli_main(["simulate", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "diagnostics.csv" in out
        snap = str(tmp_path / "out" / "snapshot_t0.01.gbzk")
        assert cli_main(["norms", snap, "2:0:4", "--sobolev", "1.5:2"]) == 0
        out = capsys.readouterr().out
        assert "mass," in out and "wnorm_r1=2" in out and "sobolev_s1=1.5" in out

    def test_config_error_exit_code(self, tmp_path):
        bad = write_cfg(tmp_path, text=BASE_CFG.replace("nx = 32", "nx = many"))
        assert cli_main(["simulate", str(bad)]) == 2

    @pytest.mark.parametrize(
        "body",
        [
            "kind = power\nalpha = 1.0\ntheta = abc",
            "kind = power\nalpha = 1.0",
            "alpha = 1.0\ntheta = 0.5",
            "kind = power\ntheta = 0.5",
            "kind = power\nalpha = 1.0\ntheta = -1",
            "kind = power\nalpha = 1.0\ntheta = 2.5",
            "kind = power\nalpha = 1.0\ntheta = nan",
            "kind = gamma\ntheta = 0.5",
            "kind = gamma\ngamma = 0.3\ntheta = 1.2",
            # profile values whose squares overflow a float in the quadratures
            "kind = power_sign\nalpha = 1e308\ntheta = 1.5",
            "kind = power\nalpha = 600\ntheta = 0.5",
            "kind = power\nalpha = -40\ntheta = 0.3",
            # a parameter the family does not read
            "kind = power\nalpha = 1.5\ngamma = 0.3\ntheta = 0.9",
            "kind = gamma\ngamma = 0.3\nalpha = 1.5\ntheta = 0.3",
        ],
        ids=["theta-garbage", "no-theta", "no-kind", "power-no-alpha", "theta-negative",
             "theta-2.5", "theta-nan", "gamma-no-gamma", "gamma-no-derivative",
             "power-sign-huge-alpha", "power-alpha-600", "power-alpha-minus-40",
             "power-with-gamma", "gamma-with-alpha"],
    )
    def test_malformed_batch_exit_code(self, tmp_path, capsys, body):
        batch = tmp_path / "batch.cfg"
        batch.write_text(f"[q]\n{body}\n")
        assert cli_main(["stein-profile", str(batch), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["a,b", 'a"b', ",", 'q"'])
    def test_batch_section_name_that_breaks_the_csv(self, tmp_path, capsys, name):
        # the section name is an unquoted field of both CSVs: a comma in it
        # would write a 10-field row under the 9-field verdict header
        batch = tmp_path / "batch.cfg"
        batch.write_text(f"[{name}]\nkind = gamma\ngamma = 0.3\ntheta = 0.2\n")
        assert cli_main(["stein-profile", str(batch), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {batch}: [{name}] ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("stride = 2", "stride = 0"),
            ("stride = 2", "stride = -1"),
            ("directory = {out}", "directory = {out}\nsnapshot_stride = -1"),
            ("n_ladder = 2,4", "n_ladder = 0.5"),
            ("n_ladder = 2,4", "n_ladder = 2,2.0,4"),
            # distinct levels whose column tags agree (%g keeps 6 digits)
            ("n_ladder = 2,4", "n_ladder = 2,2.0000001,4"),
            ("sigma_x = 1.0", "sigma_x = 0"),
            ("sigma_y = 1.0", "sigma_y = 1e-200"),
            ("amplitude = 0.3", "amplitude = nan"),
            ("family = gaussian\namplitude = 0.3", "family = file\npath = ."),
            ("family = gaussian\namplitude = 0.3", "family = file\npath = missing.gbzk"),
            # boxes whose scaled samples or dispersion phases leave the float range
            ("lx = 16.0\nly = 16.0", "lx = 1e150\nly = 1e150"),
            ("lx = 16.0\nly = 16.0", "lx = 1e-150\nly = 1e-150"),
            # the blow-up threshold is a fixed constant, not a key
            ("T = 0.01", "T = 0.01\nblowup_factor = 10"),
            # the ETDRK4 contour means cube dt w, which overflows here
            ("lx = 16.0", "lx = 1.5568e-58"),
            # t = 0 diagnostics beyond float range: the transforms and the
            # mass, the energy's cube, the ladder and transverse weights
            ("amplitude = 0.3", "amplitude = 1e308"),
            ("amplitude = 0.3", "amplitude = 1e150"),
            ("n_ladder = 2,4", "n_ladder = 2,4\nr1 = 1e308"),
            ("n_ladder = 2,4", "n_ladder = 2,4\nr2 = 1e308"),
            ("n_ladder = 2,4", "n_ladder = 2,1e200"),
            # the flag only shapes the Gaussian family
            ("family = gaussian", "family = single_mode\nx_mean_removed = true"),
            ("family = gaussian\namplitude = 0.3",
             "family = file\npath = missing.gbzk\nx_mean_removed = true"),
            ("family = gaussian", "family = sine"),
        ],
        ids=["stride-0", "stride-negative", "snapshot-stride-negative", "n-ladder-below-1",
             "n-ladder-repeated", "n-ladder-tag-collision",
             "sigma-x-0", "sigma-y-square-underflow", "amplitude-nan", "path-directory",
             "path-missing", "box-1e150", "box-1e-150", "blowup-factor-key",
             "etdrk4-cube-overflow", "amplitude-1e308", "amplitude-1e150", "r1-1e308",
             "r2-1e308", "n-ladder-beyond-blend-range", "x-mean-removed-single-mode",
             "x-mean-removed-file", "family-unknown"],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, old, new):
        cfg_path = write_cfg(tmp_path, text=BASE_CFG.replace(old, new))
        assert cli_main(["simulate", str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, sections",
        [
            ("lx = 16.0\nly = 16.0", "lx = 1e150\nly = 1e150", ["[grid]"]),
            # the phase overflows too, but the grid alone is already out of range
            ("lx = 16.0\nly = 16.0", "lx = 1e-150\nly = 1e-150", ["[grid]"]),
            ("dt = 1e-3\nT = 0.01", "dt = 1e160\nT = 1e160", ["[grid]", "[solver]"]),
            ("directory = {out}", "directory = {out}\nsnapshot_stride = -1", ["[output]"]),
        ],
        ids=["box-1e150", "box-1e-150", "dt-1e160", "snapshot-stride-negative"],
    )
    def test_config_error_names_the_sections_at_fault(self, tmp_path, capsys, old, new, sections):
        cfg_path = write_cfg(tmp_path, text=BASE_CFG.replace(old, new))
        assert cli_main(["simulate", str(cfg_path)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"config error: {cfg_path}: {' '.join(sections)} ")
        assert re.findall(r"\[\w+\]", err) == sections

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("amplitude = 0.3", "amplitude = 1e308",
             "[initial] [diagnostics] the t = 0 diagnostics leave the float range"),
            ("family = gaussian\namplitude = 0.3", "family = file\npath = missing.gbzk",
             "[initial] path 'missing.gbzk': No such file or directory"),
        ],
        ids=["amplitude-1e308", "path-missing"],
    )
    def test_simulate_error_after_load_names_the_config(self, tmp_path, capsys, old, new,
                                                         message):
        # raised while the data and their t = 0 row are built, after load_config
        cfg_path = write_cfg(tmp_path, text=BASE_CFG.replace(old, new))
        assert cli_main(["simulate", str(cfg_path)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"config error: {cfg_path}: {message}")
        assert err.count(str(cfg_path)) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", ["-1", "-10"])
    def test_profile_not_square_integrable_writes_no_values(self, tmp_path, alpha):
        # |y|^alpha with alpha <= -1/2 makes D^theta infinite at every point
        # for 0 < theta < 1: a verdict row, but no values and no decay fit
        batch = tmp_path / "batch.cfg"
        batch.write_text(f"[q]\nkind = power\nalpha = {alpha}\ntheta = 0.3\n")
        out = tmp_path / "out"
        assert cli_main(["stein-profile", str(batch), "--out", str(out)]) == 0
        verdicts = (out / "stein_verdicts.csv").read_text().splitlines()
        header, row = verdicts[1].split(","), verdicts[2].split(",")
        assert len(verdicts) == 3
        assert row[header.index("verdict")] == "non-member"
        assert row[header.index("slope_large_eta")] == "nan"
        assert row[header.index("fit_window")] == ""
        assert (out / "stein_values.csv").read_text().splitlines()[1:] == ["name,eta,value"]

    @pytest.mark.parametrize("command", ["simulate", "uc-compare", "stein-profile"])
    def test_output_path_under_a_regular_file(self, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub"
        if command == "stein-profile":
            config = tmp_path / "batch.cfg"
            config.write_text("[q]\nkind = gamma\ngamma = 0.3\ntheta = 0.3\n")
        else:
            config = write_cfg(tmp_path, out=out)
        argv = [command, str(config)] + (["--out", str(out)] if command != "simulate" else [])
        before = sorted(tmp_path.iterdir())
        assert cli_main(argv) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("config error:")
        assert f"cannot create output directory {out}: " in err
        assert sorted(tmp_path.iterdir()) == before and afile.read_text() == ""

    def test_missing_file_exit_code(self):
        assert cli_main(["simulate", "/nonexistent/run.cfg"]) == 2

    def test_blowup_exit_code(self, tmp_path):
        text = BASE_CFG.replace("amplitude = 0.3", "amplitude = 400.0").replace(
            "T = 0.01", "T = 2.0"
        ).replace("dt = 1e-3", "dt = 0.05")
        cfg_path = write_cfg(tmp_path, text=text)
        assert cli_main(["simulate", str(cfg_path)]) == 3

    def test_overflowing_state_is_a_clean_blowup(self, tmp_path):
        # the first step overflows the quadratic term (u^2 ~ 1e200, times
        # xi and dt in each stage), while the t = 0 diagnostics stay finite
        text = BASE_CFG.replace("amplitude = 0.3", "amplitude = 1e100").replace(
            "T = 0.01", "T = 0.1"
        ).replace("dt = 1e-3", "dt = 1e-2")
        cfg_path = write_cfg(tmp_path, text=text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["simulate", str(cfg_path)]) == 3
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[2].startswith("0,")

    def test_uc_compare_blowup_writes_partial_csv(self, tmp_path):
        text = BASE_CFG.replace("amplitude = 0.3", "amplitude = 400.0").replace(
            "T = 0.01", "T = 2.0"
        ).replace("dt = 1e-3", "dt = 0.05")
        cfg_path = write_cfg(tmp_path, text=text)
        uc = tmp_path / "uc"
        assert cli_main(["uc-compare", str(cfg_path), "--out", str(uc)]) == 3
        lines = (uc / "uc_compare.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest=")
        assert lines[1].startswith("t,mass_nz,mass_zm,")
        assert lines[2].startswith("0,")  # the initial record of both branches

    @pytest.mark.parametrize(
        "extra",
        [["2:x"], ["--sobolev", "1.5"], ["1:2:3:4"], ["-1"], ["nan:0:4"], ["2:nan"],
         ["--sobolev", "nan:2"]],
        ids=["bad-number", "short-sobolev", "long-weight", "negative-exponent", "nan-r1",
             "nan-r2", "nan-sobolev"],
    )
    def test_norms_malformed_spec_exit_code(self, tmp_path, capsys, extra):
        path = tmp_path / "f.gbzk"
        write_snapshot(path, SnapshotFile(random_field(make_grid(16, 16, 8.0, 8.0)), a=0.5, t=0.0))
        assert cli_main(["norms", str(path), *extra]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["1e308"], ["--sobolev", "1e308:1"]], ids=["weight", "sobolev"]
    )
    def test_norms_overflowing_spec_exit_code(self, tmp_path, capsys, extra):
        # 2 * 1e308 is an infinite exponent, which overflows without a flag;
        # (1 + xi^2) ** 1e308 overflows with one
        path = tmp_path / "f.gbzk"
        write_snapshot(path, SnapshotFile(gaussian_field(make_grid(16, 16, 8.0, 8.0)), a=0.5, t=0.0))
        assert cli_main(["norms", str(path), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("config error: norms:") and "leaves the float range" in line

    # header: magic 0:4, version 4:8, nx 8:12, ny 12:16, lx 16:24, ...; samples from 48
    @pytest.mark.parametrize(
        "offset, patch",
        [
            (0, b"NOPE"),
            (8, struct.pack("<II", 1, 256)),  # odd nx with the same sample count
            (16, struct.pack("<d", 0.0)),
            (48, struct.pack("<d", math.nan)),
        ],
        ids=["bad-magic", "odd-nx", "zero-lx", "nan-sample"],
    )
    def test_norms_corrupted_snapshot_exit_code(self, tmp_path, capsys, offset, patch):
        path = tmp_path / "f.gbzk"
        write_snapshot(path, SnapshotFile(random_field(make_grid(16, 16, 8.0, 8.0)), a=0.5, t=0.0))
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(patch)] = patch
        path.write_bytes(bytes(raw))
        assert cli_main(["norms", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_expansion_check_cli(self, capsys):
        code = cli_main(["expansion-check", "--a", "0.5", "--k", "1", "--t", "0,0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        # k = 4 at t = 1 meets the printed table's H3/H4 transcription error,
        # which the check isolates and corrects
        assert cli_main(["expansion-check", "--k", "4", "--t", "1"]) == 0
        line, worst = capsys.readouterr().out.splitlines()
        head, tail = line.split(": max rel err ")
        assert head == "[PASS] k=4 t=1"
        err = re.fullmatch(
            r"\S+, median \S+; printed-coefficient discrepancy isolated to terms H3,H4; "
            r"corrected max err (\S+)", tail
        )
        assert err and float(err[1]) < 1e-6
        assert worst == f"worst corrected error: {err[1]}"

    def test_expansion_check_defaults(self, capsys):
        assert cli_main(["expansion-check"]) == 0
        *lines, worst = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"[PASS] k={k} t={t}" for k in (1, 2, 3, 4) for t in ("0", "0.2", "1")
        ]
        isolated = [line.split(":")[0] for line in lines if "terms H3,H4;" in line]
        assert isolated == ["[PASS] k=4 t=0.2", "[PASS] k=4 t=1"]
        assert worst.startswith("worst corrected error: ")

    @pytest.mark.parametrize(
        "flags",
        [["--k", "1,x"], ["--k", "5"], ["--k", "0"], ["--k", "1.5"], ["--t", "x"],
         ["--t", "inf"], ["--t", "nan"], ["--a", "2"], ["--a", "nan"], ["--a", "x"],
         ["--tolerance", "nan"], ["--tolerance", "-1"], ["--tolerance", "0"],
         ["--tolerance", "inf"]],
        ids=lambda flags: "=".join(flags),
    )
    def test_expansion_check_malformed_flags_exit_code(self, capsys, flags):
        assert cli_main(["expansion-check", *flags]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:")

    def test_uc_compare_cli(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        assert cli_main(["uc-compare", str(cfg_path), "--out", str(tmp_path / "uc")]) == 0
        assert (tmp_path / "uc" / "uc_compare.csv").exists()

    def test_uc_compare_writes_to_the_output_directory_by_default(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        assert cli_main(["uc-compare", str(cfg_path)]) == 0
        assert sorted(f.name for f in (tmp_path / "out").iterdir()) == [
            "uc_compare.csv", "uc_report.txt"
        ]

    def test_uc_compare_first_row_out_of_float_range(self, tmp_path, capsys):
        # each branch's t = 0 row (its mass overflows here) runs before the
        # output directory exists
        text = BASE_CFG.replace("amplitude = 0.3", "amplitude = 1e308")
        cfg_path = write_cfg(tmp_path, text=text)
        assert cli_main(["uc-compare", str(cfg_path), "--out", str(tmp_path / "uc")]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(
            f"config error: {cfg_path}: [initial] [diagnostics] the t = 0 diagnostics"
        )
        assert not (tmp_path / "uc").exists()

    @pytest.mark.parametrize(
        "family",
        ["family = single_mode", "family = file\npath = missing.gbzk",
         "family = gaussian\nx_mean_removed = true"],
    )
    def test_uc_compare_needs_the_gaussian_family(self, tmp_path, capsys, family):
        # x_mean_removed shapes only the Gaussian, and uc-compare sets it for
        # branch zm: on another family, or with the flag already set, the two
        # branches would be the same run
        text = BASE_CFG.replace("family = gaussian", family)
        if family.startswith("family = file"):
            text = text.replace("amplitude = 0.3\n", "")  # a key the file family does not read
        cfg_path = write_cfg(tmp_path, text=text)
        assert cli_main(["uc-compare", str(cfg_path), "--out", str(tmp_path / "uc")]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(
            f"config error: {cfg_path}: [initial] uc-compare needs family = gaussian"
        )
        assert not (tmp_path / "uc").exists()


class TestImportCost:
    def test_import_probe_and_solver_load_no_scipy_or_mpmath(self):
        # a fresh process: the package import, the grid Stein path and the
        # solver must not load scipy (scipy.fft alone costs about 0.35 s) or mpmath
        code = (
            "import sys\n"
            "heavy = lambda: sorted(m for m in sys.modules if m.startswith(('scipy', 'mpmath')))\n"
            "import gbozk, gbozk.experiments, gbozk.cli\n"
            "print(heavy())\n"
            # the Stein batch runs in one process: no pool machinery either
            "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))\n"
            "from gbozk.fraclab import gaussian_ensemble, grid_stein_rows, lemma_df_probe\n"
            "fields = gaussian_ensemble(gbozk.make_grid(32, 32, 16.0, 16.0), 2, seed=1)\n"
            "grid_stein_rows(fields[0].samples, fields[0].grid.dx, 0.5)\n"
            "lemma_df_probe(0.5, 1.0, 0.5, fields)\n"
            "print(heavy())\n"
            "cfg = gbozk.SolverConfig(dt=1e-3, T=4e-3, params=gbozk.DispersionParams(0.5))\n"
            "gbozk.evolve(fields[0], cfg)\n"
            "print(heavy())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert out == ["[]", "[]", "[]", "[]"]

    # one integrand for fraclab.quad and scipy.integrate.quad, whose bits must agree
    _QUAD_BITS = (
        "import math\n"
        "f = lambda x: abs(x - 0.3) ** 0.5 * math.cos(7.0 * x)\n"
        "ours = fraclab.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200)\n"
        "theirs = scipy.integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200,\n"
        "                              full_output=1)\n"
        "print(ours[:3] == (theirs[0], theirs[1], theirs[2]['neval']))\n"
        "print(fraclab._quadpack() is scipy.integrate._quadpack_py._quadpack)\n"
    )

    def _run(self, code, cwd):
        src = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, cwd=cwd,
        ).stdout.splitlines()

    def test_stein_quadrature_loads_quadpack_alone(self, tmp_path):
        # a fresh process: the Stein path loads QUADPACK's extension but not
        # the scipy.integrate package (about 0.6 s and 355 scipy modules)
        (tmp_path / "batch.cfg").write_text("[q]\nkind = gamma\ngamma = 0.3\ntheta = 0.3\n")
        code = (
            "import sys\n"
            "from gbozk import fraclab\n"
            "from gbozk.experiments import load_stein_batch, stein_report\n"
            "loaded = lambda: [m for m in ('scipy.integrate._quadpack', 'scipy.integrate',\n"
            "                  'scipy.optimize', 'scipy.special') if m in sys.modules]\n"
            "fraclab._profile_stein(fraclab.make_profile('power', alpha=1.5), 0.9, 0.25)\n"
            "print(loaded())\n"
            "stein_report(load_stein_batch('batch.cfg'), 'out')\n"
            "print(loaded())\n"
            "import scipy.integrate\n" + self._QUAD_BITS
        )
        out = self._run(code, tmp_path)
        assert out == ["['scipy.integrate._quadpack']"] * 2 + ["True", "True"]

    def test_quadpack_reuses_an_imported_scipy_integrate(self, tmp_path):
        code = (
            "import scipy.integrate\n"
            "from gbozk import fraclab\n" + self._QUAD_BITS
        )
        assert self._run(code, tmp_path) == ["True", "True"]


class TestPublicApi:
    def test_package_exports(self):
        # gbozk exports exactly the names README's "Python API" lists
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Python API", 1)[1]
        listing = section.split("exports exactly these names:", 1)[1].split("\n\n", 2)[1]
        exported = {n for n in gbozk.__all__ if not isinstance(getattr(gbozk, n), types.ModuleType)}
        assert exported == set(re.findall(r"`(\w+)`", listing))

    def test_readme_ini_blocks_load(self, tmp_path):
        # README's run-config block shows every key; its batch block is a batch
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        run_block, batch_block = [
            part.split("```", 1)[0] for part in readme.split("```ini\n")[1:]
        ]
        path = tmp_path / "run.cfg"
        path.write_text(run_block)
        load_config(path)
        parser = read_ini(path)
        keys = {(section, key) for section in parser.sections() for key in parser[section]}
        assert keys == {(section, key) for section, ks in _SCHEMA.items() for key in ks}
        path.write_text(batch_block)
        assert len(load_stein_batch(path)) == 3

    def test_readme_cli_lines_parse(self):
        # every command line of README's CLI block is one the parser accepts,
        # and the block shows every subcommand
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("gbozk ")]
        parser = build_parser()
        commands = [parser.parse_args(shlex.split(line)[1:]).command for line in lines]
        assert sorted(commands) == [
            "expansion-check", "norms", "simulate", "stein-profile", "uc-compare"
        ]
