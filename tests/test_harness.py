import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbozk import evolve, make_grid
from gbozk.cli import main as cli_main
from gbozk.config import ConfigError, load_config
from gbozk.experiments import (
    load_stein_batch,
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

from conftest import random_field

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


def write_cfg(tmp_path, name="run.cfg", text=None, **fmt):
    text = text if text is not None else BASE_CFG
    path = tmp_path / name
    path.write_text(text.format(out=fmt.get("out", tmp_path / "out")))
    return path


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


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.grid.nx == 32
        assert cfg.params.a == 0.5
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

    def test_type_error_reports_key(self, tmp_path):
        bad = BASE_CFG.replace("nx = 32", "nx = many")
        with pytest.raises(ConfigError, match="nx"):
            load_config(write_cfg(tmp_path, text=bad))

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
            assert [row[0] for row in res.rows] == traj.times
            assert len(res.rows) == len(traj.records)
            out = Path(cfg.output_dir)
            assert len(list(out.glob("snapshot_t*.gbzk"))) == len(traj.snapshots)
            first = {f.name: f.read_bytes() for f in out.iterdir()}
            run_scenario(cfg)
            assert {f.name: f.read_bytes() for f in out.iterdir()} == first


class TestUcCompare:
    def _configs(self, tmp_path):
        text_nz = BASE_CFG
        text_zm = BASE_CFG.replace(
            "sigma_y = 1.0", "sigma_y = 1.0\nx_mean_removed = true"
        )
        cfg_a = load_config(write_cfg(tmp_path, "a.cfg", text_nz, out=tmp_path / "a"))
        cfg_b = load_config(write_cfg(tmp_path, "b.cfg", text_zm, out=tmp_path / "b"))
        return cfg_a, cfg_b

    def test_rejects_equal_flags(self, tmp_path):
        cfg_a, _ = self._configs(tmp_path)
        with pytest.raises(ConfigError):
            uc_compare(cfg_a, cfg_a, tmp_path / "uc")

    def test_rejects_other_differences(self, tmp_path):
        cfg_a, cfg_b = self._configs(tmp_path)
        from dataclasses import replace

        cfg_b = replace(cfg_b, params=type(cfg_b.params)(0.7))
        with pytest.raises(ConfigError):
            uc_compare(cfg_a, cfg_b, tmp_path / "uc")

    def test_outputs_and_invariances(self, tmp_path):
        cfg_a, cfg_b = self._configs(tmp_path)
        res = uc_compare(cfg_a, cfg_b, tmp_path / "uc")
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

    def test_repeated_batch_identical(self, tmp_path):
        batch = tmp_path / "batch.cfg"
        batch.write_text("[g]\nkind = gamma\ngamma = 0.3\ntheta = 0.2\n")
        queries = load_stein_batch(batch)
        v1, _ = stein_report(queries, tmp_path / "o1")
        v2, _ = stein_report(queries, tmp_path / "o2")
        assert v1.read_bytes() == v2.read_bytes()
        assert "member" in v1.read_text()

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

    @pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", ""])
    def test_bad_workers_value_is_config_error(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("GBOZK_WORKERS", value)
        with pytest.raises(ConfigError, match="GBOZK_WORKERS"):
            stein_report([], tmp_path / "out")

    def test_workers_capped_at_cpu_count(self, tmp_path, monkeypatch):
        import gbozk.experiments as experiments

        requested = []

        class FakePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("GBOZK_WORKERS", "64")
        batch = tmp_path / "batch.cfg"
        batch.write_text(
            "[q1]\nkind = power\nalpha = 0.5\ntheta = 1.2\n\n"
            "[q2]\nkind = power\nalpha = 0.5\ntheta = 1.7\n"
        )
        stein_report(load_stein_batch(batch), tmp_path / "out")
        assert requested == [3]

    def test_parallel_workers_match_sequential(self, tmp_path, monkeypatch):
        batch = tmp_path / "batch.cfg"
        # orders >= 1 reduce to the identity route and stay cheap
        batch.write_text(
            "[q1]\nkind = power\nalpha = 0.5\ntheta = 1.2\n\n"
            "[q2]\nkind = power\nalpha = 0.5\ntheta = 1.7\n"
        )
        queries = load_stein_batch(batch)
        v_seq, _ = stein_report(queries, tmp_path / "seq")
        monkeypatch.setenv("GBOZK_WORKERS", "2")
        v_par, _ = stein_report(queries, tmp_path / "par")
        assert v_seq.read_bytes() == v_par.read_bytes()


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

    def test_missing_file_exit_code(self):
        assert cli_main(["simulate", "/nonexistent/run.cfg"]) == 2

    def test_blowup_exit_code(self, tmp_path):
        text = BASE_CFG.replace("amplitude = 0.3", "amplitude = 400.0").replace(
            "T = 0.01", "T = 2.0"
        ).replace("dt = 1e-3", "dt = 0.05")
        cfg_path = write_cfg(tmp_path, text=text)
        assert cli_main(["simulate", str(cfg_path)]) == 3

    def test_uc_compare_blowup_writes_partial_csv(self, tmp_path):
        text = BASE_CFG.replace("amplitude = 0.3", "amplitude = 400.0").replace(
            "T = 0.01", "T = 2.0"
        ).replace("dt = 1e-3", "dt = 0.05")
        text_zm = text.replace("sigma_y = 1.0", "sigma_y = 1.0\nx_mean_removed = true")
        a = write_cfg(tmp_path, "a.cfg", text, out=tmp_path / "a")
        b = write_cfg(tmp_path, "b.cfg", text_zm, out=tmp_path / "b")
        uc = tmp_path / "uc"
        assert cli_main(["uc-compare", str(a), str(b), "--out", str(uc)]) == 3
        lines = (uc / "uc_compare.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest=")
        assert lines[1].startswith("t,mass_nz,mass_zm,")
        assert lines[2].startswith("0,")  # the initial record of both branches

    @pytest.mark.parametrize(
        "extra",
        [["2:x"], ["--sobolev", "1.5"], ["1:2:3:4"], ["-1"]],
        ids=["bad-number", "short-sobolev", "long-weight", "negative-exponent"],
    )
    def test_norms_malformed_spec_exit_code(self, tmp_path, capsys, extra):
        path = tmp_path / "f.gbzk"
        write_snapshot(path, SnapshotFile(random_field(make_grid(16, 16, 8.0, 8.0)), a=0.5, t=0.0))
        assert cli_main(["norms", str(path), *extra]) == 2
        assert "config error" in capsys.readouterr().err

    def test_norms_corrupted_snapshot_exit_code(self, tmp_path, capsys):
        path = tmp_path / "f.gbzk"
        write_snapshot(path, SnapshotFile(random_field(make_grid(16, 16, 8.0, 8.0)), a=0.5, t=0.0))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        assert cli_main(["norms", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_expansion_check_cli(self, capsys):
        code = cli_main(["expansion-check", "--a", "0.5", "--k", "1", "--t", "0,0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_uc_compare_cli(self, tmp_path, capsys):
        text_zm = BASE_CFG.replace(
            "sigma_y = 1.0", "sigma_y = 1.0\nx_mean_removed = true"
        )
        a = write_cfg(tmp_path, "a.cfg", out=tmp_path / "a")
        b = write_cfg(tmp_path, "b.cfg", text_zm, out=tmp_path / "b")
        assert cli_main(["uc-compare", str(a), str(b), "--out", str(tmp_path / "uc")]) == 0
        assert (tmp_path / "uc" / "uc_compare.csv").exists()
