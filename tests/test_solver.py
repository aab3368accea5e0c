import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gbozk import (
    BlowUpError,
    DispersionParams,
    RealField2D,
    SolverConfig,
    SpectralField2D,
    apply_linear_propagator,
    evolve,
    make_grid,
    nonlinear_term,
    to_physical,
)
from gbozk.diagnostics import mass, zero_mode_slice
from gbozk.propagator import dispersion_symbol
from gbozk.solver import Stepper, _blowup_mode, _nl_multiplier, _quadratic
from gbozk.spectral import (
    _from_half, dealias_mask, half_spectrum, half_xi, hermitian_weights,
)

from conftest import (
    complex_samples, complex_spectrum, gaussian_field, hermitian_fill, random_field,
)

P = DispersionParams(0.5)


# --- full-spectrum oracle: the solver core before the half-spectrum state ----

def _nonlinear_term_full(u: RealField2D, dealias: bool = True) -> SpectralField2D:
    """Spectral representation of -1/2 d/dx (u^2); the xi = 0 column is 0."""
    g = u.grid
    sq = complex_spectrum(RealField2D(g, u.samples**2))
    coeffs = (-0.5j) * g.xi[None, :] * sq
    coeffs[:, g.nx // 2] = 0.0  # odd symbol: drop the x-Nyquist mode
    if dealias:
        coeffs = coeffs * dealias_mask(g)
    return SpectralField2D(g, coeffs)


class _FullSpectrumStepper:
    """Precomputed single-step integrator for a fixed grid and config."""

    def __init__(self, grid, cfg, n_contour: int = 32):
        self.grid = grid
        self.cfg = cfg
        xi, eta = np.meshgrid(grid.xi, grid.eta, indexing="xy")
        lin = 1j * dispersion_symbol(xi, eta, cfg.params.a)  # i w, diagonal
        dt = cfg.dt
        self.exp_full = np.exp(dt * lin)
        self.exp_half = np.exp(0.5 * dt * lin)
        if cfg.integrator == "etdrk4":
            # contour means of the phi functions around each dt*lin
            circ = np.exp(
                2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour
            )
            z = dt * lin[..., None] + circ[None, None, :]
            ez = np.exp(z)
            self.q = dt * np.mean((np.exp(z / 2.0) - 1.0) / z, axis=-1)
            self.f1 = dt * np.mean(
                (-4.0 - z + ez * (4.0 - 3.0 * z + z**2)) / z**3, axis=-1
            )
            self.f2 = dt * np.mean((2.0 + z + ez * (z - 2.0)) / z**3, axis=-1)
            self.f3 = dt * np.mean(
                (-4.0 - 3.0 * z - z**2 + ez * (4.0 - z)) / z**3, axis=-1
            )

    def _nl(self, coeffs: np.ndarray) -> np.ndarray:
        if not self.cfg.nonlinear:
            return np.zeros_like(coeffs)
        u = RealField2D(self.grid, complex_samples(self.grid, coeffs))
        return _nonlinear_term_full(u, dealias=self.cfg.dealias).coeffs

    def step(self, coeffs: np.ndarray) -> np.ndarray:
        if self.cfg.integrator == "etdrk4":
            return self._step_etdrk4(coeffs)
        return self._step_strang(coeffs)

    def _step_etdrk4(self, v: np.ndarray) -> np.ndarray:
        n1 = self._nl(v)
        a = self.exp_half * v + self.q * n1
        n2 = self._nl(a)
        b = self.exp_half * v + self.q * n2
        n3 = self._nl(b)
        c = self.exp_half * a + self.q * (2.0 * n3 - n1)
        n4 = self._nl(c)
        return (
            self.exp_full * v
            + self.f1 * n1
            + 2.0 * self.f2 * (n2 + n3)
            + self.f3 * n4
        )

    def _step_strang(self, v: np.ndarray) -> np.ndarray:
        dt = self.cfg.dt
        w = self.exp_half * v
        if self.cfg.nonlinear:
            # one classical RK4 step of uhat' = N(uhat)
            k1 = self._nl(w)
            k2 = self._nl(w + 0.5 * dt * k1)
            k3 = self._nl(w + 0.5 * dt * k2)
            k4 = self._nl(w + dt * k3)
            w = w + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return self.exp_half * w


class _FullRowStepper(Stepper):
    """The Stepper with full-height tables, each mirrored from rows 0..ny/2,
    and one ``np.multiply`` per coefficient product: the layout before the
    tables were kept on the eta >= 0 rows only."""

    def __init__(self, grid, cfg):
        super().__init__(grid, cfg)
        half = grid.ny // 2
        mirror = np.r_[0 : half + 1, half - 1 : 0 : -1]
        for name in ("exp_full", "exp_half", "q", "f1", "two_f2", "f3"):
            if hasattr(self, name):
                setattr(self, name, getattr(self, name)[mirror])
        self._m = _nl_multiplier(grid, cfg.dealias)

    def _nl(self, v, out):
        if not self.cfg.nonlinear:
            out.fill(0.0)
            return out
        w = np.fft.irfft2(v, s=(self.grid.ny, self.grid.nx))
        np.square(w, out=w)
        np.fft.rfft2(w, out=out)
        out *= self._m
        return out

    def _step_etdrk4(self, v):
        n1, ehv, a, n2, b = self._work
        eh, q = self.exp_half, self.q
        self._nl(v, n1)
        np.multiply(eh, v, out=ehv)
        np.multiply(q, n1, out=a)
        a += ehv
        self._nl(a, n2)
        np.multiply(q, n2, out=b)
        b += ehv
        n3 = self._nl(b, b)
        t = ehv
        np.multiply(2.0, n3, out=t)
        t -= n1
        t *= q
        c = a
        np.multiply(eh, a, out=c)
        c += t
        n4 = self._nl(c, c)
        out = self.exp_full * v
        np.multiply(self.f1, n1, out=t)
        out += t
        n2 += n3
        np.multiply(self.two_f2, n2, out=n2)
        out += n2
        np.multiply(self.f3, n4, out=n4)
        out += n4
        return out

    def _step_strang(self, v):
        w, k1, k2, k3, k4 = self._work
        np.multiply(self.exp_half, v, out=w)
        if self.cfg.nonlinear:
            dt = self.cfg.dt
            self._nl(w, k1)
            for k_prev, k, h in ((k1, k2, 0.5 * dt), (k2, k3, 0.5 * dt), (k3, k4, dt)):
                np.multiply(h, k_prev, out=k)
                k += w
                self._nl(k, k)
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= dt / 6.0
            w += k2
        return self.exp_half * w


def _assert_advance_matches_full_rows(g, cfg, seed):
    got = ref = half_spectrum(random_field(g, seed=seed))
    half, full = Stepper(g, cfg), _FullRowStepper(g, cfg)
    for _ in range(3):
        got, ref = half.advance(got), full.advance(ref)
        assert got.tobytes() == ref.tobytes()


def _stepper_traced_fields(n: int) -> tuple[float, float]:
    """What one n^2 ETDRK4 Stepper holds and its build's traced peak above
    the entry level (after one warm-up build), in n^2 float64 field sizes."""
    import tracemalloc

    g = make_grid(n, n, 32.0, 32.0)
    cfg = SolverConfig(dt=1e-3, T=0.2, params=P)
    Stepper(g, cfg)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        stepper = Stepper(g, cfg)  # noqa: F841 (held while measured)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (held - entry) / (n * n * 8), (peak - entry) / (n * n * 8)


def _max_rel(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _seed_coefficients(grid, cfg) -> dict[str, np.ndarray]:
    """The Stepper coefficients as the full-row contour loop computed them."""
    nh = grid.nx // 2 + 1
    xi = grid.xi[:nh]
    lin = 1j * dispersion_symbol(xi[None, :], grid.eta[:, None], cfg.params.a)
    dt = cfg.dt
    out = {"exp_full": np.exp(dt * lin), "exp_half": np.exp(0.5 * dt * lin)}
    n = 32
    circ = np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    q, f1, f2, f3 = (np.zeros_like(lin) for _ in range(4))
    for c in circ:
        z = dt * lin + c
        ez = np.exp(z)
        z3 = z**3
        q += (np.exp(z / 2.0) - 1.0) / z
        f1 += (-4.0 - z + ez * (4.0 - 3.0 * z + z**2)) / z3
        f2 += (2.0 + z + ez * (z - 2.0)) / z3
        f3 += (-4.0 - 3.0 * z - z**2 + ez * (4.0 - z)) / z3
    out["q"] = dt * (q / n)
    out["f1"] = dt * (f1 / n)
    f2 = dt * (f2 / n)
    out["two_f2"] = 2.0 * f2  # the step read f2 only as 2 f2
    out["f3"] = dt * (f3 / n)
    return out


class TestNonlinearTerm:
    def test_constant_field_maps_to_zero(self, grid_2pi):
        u = RealField2D(grid_2pi, np.full((grid_2pi.ny, grid_2pi.nx), 2.5))
        out = nonlinear_term(u)
        assert np.max(np.abs(out.coeffs)) < 1e-12

    def test_sin_mode_doubling(self, grid_2pi):
        X, _ = grid_2pi.meshgrid()
        u = RealField2D(grid_2pi, np.sin(X))
        out = to_physical(nonlinear_term(u))
        assert np.max(np.abs(out.samples - (-0.5 * np.sin(2 * X)))) < 1e-12

    def test_zero_mode_column_exactly_zero(self, grid_2pi):
        u = random_field(grid_2pi, seed=11)
        out = nonlinear_term(u)
        assert np.all(out.coeffs[:, 0] == 0.0)

    def test_matches_full_spectrum_oracle(self):
        g = make_grid(48, 20, 9.0, 5.0)
        u = random_field(g, seed=5)
        got = nonlinear_term(u).coeffs
        assert _max_rel(got, _nonlinear_term_full(u).coeffs) < 1e-13


class TestStep:
    def test_linear_step_matches_propagator(self, grid_box):
        v0 = half_spectrum(gaussian_field(grid_box, 0.5, 1.0, 2.0))
        for integrator in ("etdrk4", "strang"):
            cfg = SolverConfig(
                dt=0.01, T=1.0, params=P, nonlinear=False, integrator=integrator
            )
            v = Stepper(grid_box, cfg).advance(v0)
            ref = apply_linear_propagator(v0, grid_box, 0.01, P)
            num = np.max(np.abs(v - ref))
            assert num / np.max(np.abs(v0)) < 1e-12

    def test_zero_is_fixed_point(self, grid_2pi):
        u = RealField2D(grid_2pi, np.zeros((grid_2pi.ny, grid_2pi.nx)))
        v = Stepper(u.grid, SolverConfig(dt=0.01, T=1.0, params=P)).advance(half_spectrum(u))
        assert np.max(np.abs(hermitian_fill(v, grid_2pi.nx))) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, T=1.0, params=P)
        with pytest.raises(ValueError):
            SolverConfig(dt=2.0, T=1.0, params=P)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, T=1.0, params=P, integrator="euler")

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        dt=st.one_of(st.sampled_from([5e-324, 1e-320, 1e-3, 1.0]), st.floats()),
        T=st.one_of(st.sampled_from([1e-3, 1.0, 1e308]), st.floats()),
    )
    @example(dt=1e-320, T=1e-3)
    @example(dt=1e-3, T=1e308)
    def test_config_step_count_is_a_finite_int(self, dt, T):
        # evolve takes round(T / dt) steps: a config either is refused or
        # leaves that count a finite int >= 1
        try:
            SolverConfig(dt=dt, T=T, params=P)
        except ValueError:
            return
        steps = T / dt
        assert np.isfinite(steps) and round(steps) >= 1

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        nx=st.integers(4, 32).map(lambda k: 2 * k),
        ny=st.integers(4, 32).map(lambda k: 2 * k),
        a=st.floats(0.0, 1.0),
        integrator=st.sampled_from(["etdrk4", "strang"]),
        nonlinear=st.booleans(),
        dealias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_spectrum_oracle(self, nx, ny, a, integrator, nonlinear, dealias, seed):
        g = make_grid(nx, ny, 8.0, 6.0)
        cfg = SolverConfig(
            dt=1e-3, T=1.0, params=DispersionParams(a), integrator=integrator,
            nonlinear=nonlinear, dealias=dealias,
        )
        u = random_field(g, seed=seed)
        got, ref = half_spectrum(u), complex_spectrum(u)
        half, full = Stepper(g, cfg), _FullSpectrumStepper(g, cfg)
        for _ in range(3):
            got, ref = half.advance(got), full.step(ref)
            assert got.shape == (ny, nx // 2 + 1)
            assert _max_rel(hermitian_fill(got, nx), ref) < 1e-12

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        nx=st.integers(4, 16).map(lambda k: 2 * k),
        ny=st.integers(4, 16).map(lambda k: 2 * k),
        lx=st.floats(1.0, 100.0),
        ly=st.floats(1.0, 100.0),
        a=st.floats(0.0, 1.0),
        t=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linear_flow_preserves_each_modulus(self, nx, ny, lx, ly, a, t, seed):
        g = make_grid(nx, ny, lx, ly)
        rng = np.random.default_rng(seed)
        shape = (ny, nx // 2 + 1)
        v0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = apply_linear_propagator(v0, g, t, DispersionParams(a))
        assert np.max(np.abs(np.abs(out) - np.abs(v0)) / np.abs(v0)) <= 1e-13
        for integrator in ("etdrk4", "strang"):
            cfg = SolverConfig(dt=t / 10, T=t, params=DispersionParams(a),
                               integrator=integrator, nonlinear=False)
            stepper, v = Stepper(g, cfg), v0
            for _ in range(10):
                v = stepper.advance(v)
            assert np.max(np.abs(np.abs(v) - np.abs(v0)) / np.abs(v0)) <= 1e-13, integrator

    def test_etdrk4_self_convergence_order(self):
        g = make_grid(64, 64, 16.0, 16.0)
        u0 = gaussian_field(g, 1.5, 1.0, 1.0)
        T = 0.24  # divisible by every dt below

        def final(dt):
            cfg = SolverConfig(dt=dt, T=T, params=P)
            st = Stepper(g, cfg)
            v = half_spectrum(u0)
            for _ in range(int(round(T / dt))):
                v = st.advance(v)
            return hermitian_fill(v, g.nx)

        ref = final(1.25e-4)
        errs = []
        dts = [4e-3, 2e-3, 1e-3]
        for dt in dts:
            errs.append(np.linalg.norm(final(dt) - ref))
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert order > 3.7

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        nx=st.integers(4, 32).map(lambda k: 2 * k),
        ny=st.integers(4, 32).map(lambda k: 2 * k),
        lx=st.floats(2.0, 100.0),
        ly=st.floats(2.0, 100.0),
        a=st.floats(0.0, 1.0),
        dt=st.floats(1e-4, 0.1),
    )
    def test_coefficients_match_full_row_loop_bitwise(self, nx, ny, lx, ly, a, dt):
        # the tables are kept on rows 0..ny/2 only: those rows must carry the
        # full-row loop's bits, and its rows past ny/2 must repeat rows
        # ny/2-1..1 bit for bit, which is what lets the steps read them there
        g = make_grid(nx, ny, lx, ly)
        cfg = SolverConfig(dt=dt, T=1.0, params=DispersionParams(a))
        stepper = Stepper(g, cfg)
        half = ny // 2
        for name, ref in _seed_coefficients(g, cfg).items():
            got = getattr(stepper, name)
            assert got.shape == (half + 1, nx // 2 + 1), name
            assert got.tobytes() == ref[: half + 1].tobytes(), name
            assert ref[half + 1 :].tobytes() == ref[half - 1 : 0 : -1].tobytes(), name
        m = _nl_multiplier(g, cfg.dealias)
        assert stepper._m.tobytes() == m[: half + 1].tobytes()
        assert m[half + 1 :].tobytes() == m[half - 1 : 0 : -1].tobytes()

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        nx=st.integers(4, 32).map(lambda k: 2 * k),
        ny=st.integers(4, 32).map(lambda k: 2 * k),
        integrator=st.sampled_from(["etdrk4", "strang"]),
        nonlinear=st.booleans(),
        dealias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_advance_matches_full_row_tables_bitwise(
        self, nx, ny, integrator, nonlinear, dealias, seed
    ):
        # each product reads the rows past ny/2 through a reversed view of
        # the half-row table: the same bits as the full mirrored table
        g = make_grid(nx, ny, 8.0, 6.0)
        cfg = SolverConfig(dt=1e-2, T=1.0, params=P, integrator=integrator,
                           nonlinear=nonlinear, dealias=dealias)
        _assert_advance_matches_full_rows(g, cfg, seed)

    @pytest.mark.parametrize("integrator", ["etdrk4", "strang"])
    @pytest.mark.parametrize("n", [182, 256])
    def test_advance_matches_full_row_tables_bitwise_large(self, n, integrator):
        # numpy's temporary elision starts between these sizes (256 KiB)
        g = make_grid(n, n, 32.0, 32.0)
        cfg = SolverConfig(dt=1e-3, T=1.0, params=P, integrator=integrator)
        _assert_advance_matches_full_rows(g, cfg, seed=4)

    def test_stepper_holds_at_most_nine_fields(self):
        # seven half-row tables and five work buffers at 256^2
        held, _ = _stepper_traced_fields(256)
        assert held <= 9.0

    def test_stepper_build_peak_at_most_nine_and_a_half_fields(self):
        # the work buffers come after the contour temporaries are released
        _, peak = _stepper_traced_fields(256)
        assert peak <= 9.5

    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("integrator", ["etdrk4", "strang"])
    def test_advance_returns_fresh_arrays(self, integrator, nonlinear):
        # the stages run in buffers the Stepper reuses; no result may alias
        # them, the input or an earlier result
        g = make_grid(24, 16, 6.0, 4.0)
        cfg = SolverConfig(dt=1e-2, T=1.0, params=P, integrator=integrator,
                           nonlinear=nonlinear)
        stepper = Stepper(g, cfg)
        v0 = half_spectrum(random_field(g, seed=3))
        v0_bytes = v0.tobytes()
        v1 = stepper.advance(v0)
        v1_bytes = v1.tobytes()
        v2 = stepper.advance(v1)
        v2_bytes = v2.tobytes()
        v3 = stepper.advance(v0)
        assert v0.tobytes() == v0_bytes
        assert v1.tobytes() == v1_bytes and v2.tobytes() == v2_bytes
        assert v3.tobytes() == v1_bytes and v2_bytes != v1_bytes
        for x, y in [(v0, v1), (v0, v2), (v1, v2), (v1, v3), (v2, v3)]:
            assert not np.shares_memory(x, y)


class TestEvolve:
    def test_zero_data_stays_zero(self, grid_2pi):
        u0 = RealField2D(grid_2pi, np.zeros((grid_2pi.ny, grid_2pi.nx)))
        traj = evolve(u0, SolverConfig(dt=0.01, T=0.05, params=P), stride=1)
        assert all(
            np.max(np.abs(snap.samples)) == 0.0 for _, snap in traj.snapshots
        )

    def test_times_cover_horizon(self, grid_2pi):
        u0 = gaussian_field(grid_2pi, 0.1, 0.8, 0.8)
        traj = evolve(u0, SolverConfig(dt=0.01, T=0.1, params=P), stride=3)
        assert traj.column("t").tolist()[0] == 0.0
        assert np.isclose(traj.column("t").tolist()[-1], 0.1)
        assert np.all(np.diff(traj.column("t").tolist()) > 0)

    def test_horizon_landing_within_half_step(self, grid_2pi):
        # rounding T to whole steps always lands within dt/2 of the horizon
        u0 = gaussian_field(grid_2pi, 0.1)
        traj = evolve(u0, SolverConfig(dt=0.03, T=0.1, params=P), stride=1)
        assert abs(traj.column("t").tolist()[-1] - 0.1) <= 0.015 + 1e-15

    def test_linear_time_reversibility(self, grid_box):
        # evolve forward with the nonlinearity off, undo with the exact
        # propagator at negative time: the round trip returns the data
        u0 = gaussian_field(grid_box, 0.5, 1.0, 2.0)
        cfg = SolverConfig(dt=0.01, T=0.5, params=P, nonlinear=False)
        st = Stepper(grid_box, cfg)
        v = half_spectrum(u0)
        for _ in range(50):
            v = st.advance(v)
        u_back = _from_half(apply_linear_propagator(v, grid_box, -0.5, P), grid_box)
        assert np.max(np.abs(u_back.samples - u0.samples)) < 1e-12

    def test_zero_mode_column_invariant_exactly(self, grid_box):
        u0 = gaussian_field(grid_box, 0.8, 1.0, 2.0)
        zm0 = zero_mode_slice(u0)
        obs = lambda t, u: {"zm": np.max(np.abs(zero_mode_slice(u) - zm0))}
        traj = evolve(u0, SolverConfig(dt=1e-3, T=0.02, params=P), observe=obs, stride=5)
        assert max(r["zm"] for r in traj.records) < 1e-13

    def test_mass_conservation_short_run(self, grid_box):
        u0 = gaussian_field(grid_box, 0.5, 1.0, 2.0)
        obs = lambda t, u: {"m": mass(u)}
        traj = evolve(u0, SolverConfig(dt=1e-3, T=0.05, params=P), observe=obs, stride=10)
        m = traj.column("m")
        assert np.max(np.abs(m - m[0])) / m[0] < 1e-10

    def test_blowup_detection_and_last_good_snapshot(self):
        g = make_grid(32, 32, 8.0, 8.0)
        u0 = gaussian_field(g, 40.0, 1.0, 1.0)  # violent data on a coarse grid
        cfg = SolverConfig(dt=0.05, T=5.0, params=P)
        with pytest.raises(BlowUpError) as err:
            evolve(u0, cfg, stride=1)
        assert err.value.time > 0
        assert hasattr(err.value, "trajectory")
        assert err.value.trajectory.snapshots  # last good state saved

    @pytest.mark.parametrize(
        "snapshot_stride, steps", [(5, [0, 5]), (3, [0, 3, 6])], ids=["equal", "finer"]
    )
    def test_blowup_snapshots_stay_distinct_and_in_order(self, monkeypatch, snapshot_stride,
                                                         steps):
        # from step 7 on each step scales the state by 1e4, so it blows up
        # after the record at step 5: that record's field is already a
        # snapshot (stride 5), or one from step 6 follows it (stride 3)
        advance, calls = Stepper.advance, []

        def scaled(self, v):
            calls.append(None)
            return advance(self, v) * (1e4 if len(calls) >= 7 else 1.0)

        monkeypatch.setattr(Stepper, "advance", scaled)
        u0 = gaussian_field(make_grid(32, 32, 8.0, 8.0), 0.5, 1.0, 1.0)
        cfg = SolverConfig(dt=1e-3, T=0.02, params=P)
        with pytest.raises(BlowUpError) as err:
            evolve(u0, cfg, stride=5, snapshot_stride=snapshot_stride)
        times = [t for t, _ in err.value.trajectory.snapshots]
        assert times == [n * cfg.dt for n in steps]
        assert all(t0 < t1 for t0, t1 in zip(times, times[1:]))

    @pytest.mark.parametrize("integrator", ["etdrk4", "strang"])
    def test_matches_full_spectrum_oracle(self, integrator):
        # off-centre data on a rectangular grid: the samples-to-half-spectrum
        # transform at t = 0 and the record-time inverse keep their shifts
        g = make_grid(48, 32, 12.0, 8.0)
        u0 = gaussian_field(g, 0.8, 1.0, 0.7, cx=1.5, cy=-1.0)
        cfg = SolverConfig(dt=1e-3, T=0.02, params=P, integrator=integrator)
        traj = evolve(u0, cfg, stride=5, snapshot_stride=10)
        full = _FullSpectrumStepper(g, cfg)
        c = complex_spectrum(u0)
        ref = [u0.samples]
        for _ in range(20):
            c = full.step(c)
            ref.append(complex_samples(g, c))
        assert len(traj.snapshots) == 3
        for t, snap in traj.snapshots:
            assert _max_rel(snap.samples, ref[round(t / cfg.dt)]) < 1e-12

    def test_blowup_caught_between_record_times(self):
        # the per-step bound on max |u| finds the blow-up step whatever the
        # stride; at stride 1000 only the final step of 100 is a record
        g = make_grid(32, 32, 8.0, 8.0)
        u0 = gaussian_field(g, 40.0, 1.0, 1.0)
        cfg = SolverConfig(dt=0.05, T=5.0, params=P)
        times = []
        for stride in (1, 1000):
            with pytest.raises(BlowUpError) as err:
                evolve(u0, cfg, stride=stride)
            times.append(err.value.time)
        assert times[0] < 5.0
        assert times[1] == times[0]

    @pytest.mark.parametrize("l", [2, -2])
    def test_blowup_mode_from_half_spectrum(self, monkeypatch, l):
        # a single linear Fourier mode keeps its modulus; a threshold just
        # below the initial peak trips at the first step and names that
        # mode (the sup bound is then the peak itself, with the weight 2 of
        # an interior half-spectrum column)
        g = make_grid(16, 12, 4.0, 3.0)
        X, Y = g.meshgrid()
        u0 = RealField2D(g, np.cos(2 * np.pi * (3 * X / g.lx + l * Y / g.ly)))
        cfg = SolverConfig(dt=0.01, T=1.0, params=P, nonlinear=False)
        monkeypatch.setattr("gbozk.solver._BLOWUP_FACTOR", 0.9)
        with pytest.raises(BlowUpError) as err:
            evolve(u0, cfg, stride=10)
        assert err.value.time == 0.01
        assert err.value.mode == (3, l)

    def test_blowup_mode_indices(self):
        g = make_grid(16, 12, 4.0, 3.0)
        for l, k in [(3, 5), (10, 2), (0, 8), (11, 0)]:
            v = np.full((g.ny, g.nx // 2 + 1), 0.5 + 0j)
            v[l, k] = 1.0 + 1.0j
            assert _blowup_mode(v, g) == (g.kx[k], g.ky[l])
            v[(l + 1) % g.ny, k] = np.nan  # a non-finite entry wins
            assert _blowup_mode(v, g) == (g.kx[k], g.ky[(l + 1) % g.ny])

    @pytest.mark.parametrize("stride, snapshot_stride", [(0, 0), (-2, 0), (1, -2), (0, -1)])
    def test_rejects_bad_strides_before_stepping(
        self, monkeypatch, grid_2pi, stride, snapshot_stride
    ):
        # unchecked, stride 0 divides by zero after the first step and a
        # negative stride records every |stride| steps
        def no_stepper(*args):
            raise AssertionError("Stepper built for a bad stride")

        monkeypatch.setattr("gbozk.solver.Stepper", no_stepper)
        u0 = gaussian_field(grid_2pi, 0.1)
        with pytest.raises(ValueError, match="stride"):
            evolve(u0, SolverConfig(dt=0.01, T=0.05, params=P), stride=stride,
                   snapshot_stride=snapshot_stride)

    def test_determinism(self, grid_2pi):
        u0 = gaussian_field(grid_2pi, 0.4, 0.9, 1.1)
        cfg = SolverConfig(dt=0.01, T=0.05, params=P)
        t1 = evolve(u0, cfg, stride=1, snapshot_stride=5)
        t2 = evolve(u0, cfg, stride=1, snapshot_stride=5)
        assert np.array_equal(t1.snapshots[-1][1].samples, t2.snapshots[-1][1].samples)

    def test_a_parameter_continuity_at_a_one(self, grid_2pi):
        # a = 1 runs through the same code path with the cubic symbol
        u0 = gaussian_field(grid_2pi, 0.3, 0.9, 0.9)
        traj = evolve(
            u0, SolverConfig(dt=0.01, T=0.05, params=DispersionParams(1.0)), stride=5
        )
        assert np.isclose(traj.column("t").tolist()[-1], 0.05)

    def test_duhamel_integral_form(self):
        # the computed solution satisfies
        #   u(T) = U(T) u0 + int_0^T U(T - tau) N(u(tau)) dtau
        # with N the spectral quadratic term; the integral is approximated
        # by the trapezoid rule over the recorded trajectory
        g = make_grid(64, 64, 16.0, 16.0)
        u0 = gaussian_field(g, 0.8, 1.0, 1.0)
        T, dt = 0.1, 1e-3
        cfg = SolverConfig(dt=dt, T=T, params=P)
        traj = evolve(u0, cfg, stride=5, snapshot_stride=5)
        rhs = apply_linear_propagator(half_spectrum(u0), g, T, P)
        samples = traj.snapshots
        stepper, acc = Stepper(g, cfg), np.zeros_like(rhs)
        for i, (tau, u_tau) in enumerate(samples):
            n_hat = stepper._nl(half_spectrum(u_tau), np.empty_like(rhs))
            term = apply_linear_propagator(n_hat, g, T - tau, P)
            weight = 0.5 if i in (0, len(samples) - 1) else 1.0
            acc += weight * term
        rhs = rhs + acc * (5 * dt)
        lhs = half_spectrum(samples[-1][1])
        rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))
        assert rel < 1e-5  # trapezoid truncation in tau dominates

    def test_strang_conserves_mass_and_energy(self, grid_box):
        from gbozk.diagnostics import hamiltonian

        u0 = gaussian_field(grid_box, 0.5, 1.0, 2.0)
        cfg = SolverConfig(dt=1e-3, T=0.05, params=P, integrator="strang")
        obs = lambda t, u: {"m": mass(u), "h": hamiltonian(u, P)}
        traj = evolve(u0, cfg, observe=obs, stride=10)
        m, h = traj.column("m"), traj.column("h")
        assert np.max(np.abs(m - m[0])) / m[0] < 1e-8
        assert np.max(np.abs(h - h[0])) / abs(h[0]) < 1e-7


# --- exact symmetries of u_t + D_x^{a+1} u_x + u_xyy + u u_x = 0 ----------------

def _final(u0, dt, T, a=0.5, integrator="etdrk4"):
    cfg = SolverConfig(dt=dt, T=T, params=DispersionParams(a), integrator=integrator)
    return evolve(u0, cfg, stride=10**9).snapshots[-1][1].samples


def _scaled_final(u0, lam, dt, T, a, integrator):
    """The run of lam^{1+a} u0(lam x, lam^{(1+a)/2} y) over T / lam^{2+a},
    divided by lam^{1+a}: nx and ny stay, the box and dt scale."""
    g = u0.grid
    gs = make_grid(g.nx, g.ny, g.lx / lam, g.ly / lam ** ((1 + a) / 2))
    us = RealField2D(gs, lam ** (1 + a) * u0.samples)
    return _final(us, dt / lam ** (2 + a), T / lam ** (2 + a), a, integrator) / lam ** (1 + a)


def _two_gaussians(g):
    u = gaussian_field(g, 0.6, 1.0, np.sqrt(2.0), cx=0.5, cy=-0.3).samples
    u = u + gaussian_field(g, -0.3, np.sqrt(0.7), 1.0, cx=-1.0, cy=0.8).samples
    return RealField2D(g, u)


def _on_mask(u):
    """u projected onto the modes the 2/3 rule keeps."""
    g = u.grid
    return _from_half(half_spectrum(u) * dealias_mask(g)[:, : g.nx // 2 + 1], g)


def _reflect(s, axis):
    """Samples of u at -x (axis 1) or -y (axis 0) on the centred grid."""
    return np.roll(np.flip(s, axis), 1, axis)


class TestSymmetries:
    @settings(max_examples=20, deadline=None, database=None)
    @given(
        a=st.sampled_from([0.0, 1.0]),
        k=st.integers(-3, 3),
        nx=st.integers(8, 32).map(lambda k: 2 * k),
        ny=st.integers(4, 16).map(lambda k: 2 * k),
        box=st.tuples(st.floats(8.0, 40.0), st.floats(8.0, 40.0)),
        integrator=st.sampled_from(["etdrk4", "strang"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_of_two_scaling_is_bitwise(self, a, k, nx, ny, box, integrator, seed):
        # every factor of the step scales by a power of two: lam = 2^k at
        # a = 1, and lam = 4^k at a = 0, where the y box scales by lam^{1/2}
        lam = 2.0 ** (k if a == 1.0 else 2 * k)
        u0 = random_field(make_grid(nx, ny, *box), seed=seed, scale=0.3)
        ref = _final(u0, 1e-3, 5e-3, a, integrator)
        got = _scaled_final(u0, lam, 1e-3, 5e-3, a, integrator)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("integrator", ["etdrk4", "strang"])
    def test_scaling_at_fractional_a(self, integrator):
        u0 = _two_gaussians(make_grid(64, 64, 16.0, 16.0))
        ref = _final(u0, 2e-3, 0.1, 0.5, integrator)
        for lam in (2.0, 1.7):
            assert _max_rel(_scaled_final(u0, lam, 2e-3, 0.1, 0.5, integrator), ref) < 1e-14

    @staticmethod
    def _boost_defect(v0, c, dt, T, integrator):
        # c + v(t, x - ct, y) against the plain run shifted spectrally by cT
        g = v0.grid
        v = half_spectrum(RealField2D(g, _final(v0, dt, T, integrator=integrator)))
        ref = c + _from_half(v * np.exp(-1j * half_xi(g) * (c * T)), g).samples
        boosted = _final(RealField2D(g, c + v0.samples), dt, T, integrator=integrator)
        return np.max(np.abs(boosted - ref)) / np.max(np.abs(v0.samples))

    @pytest.mark.parametrize("integrator, bound", [("etdrk4", 1e-10), ("strang", 1e-12)])
    def test_galilean_boost_order_four_on_mask_data(self, integrator, bound):
        # on data the 2/3 rule keeps, the boost is exact in the semi-discrete
        # flow and only the time step breaks it
        v0 = _on_mask(_two_gaussians(make_grid(64, 64, 16.0, 16.0)))
        errs = [self._boost_defect(v0, 0.75, dt, 0.2, integrator) for dt in (4e-3, 2e-3, 1e-3)]
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(np.abs(orders - 4.0) < 0.05), orders
        assert errs[-1] < bound

    def test_galilean_boost_floor_is_the_data_outside_the_mask(self):
        # the 2/3 multiplier also truncates the advection 2 c v_x inside
        # (c + v)^2, so modes outside the mask are never moved by the mean:
        # the defect stops at a floor set by the data's out-of-mask share
        u0 = _two_gaussians(make_grid(64, 64, 16.0, 16.0))
        share = np.max(np.abs(u0.samples - _on_mask(u0).samples)) / np.max(np.abs(u0.samples))
        floor = [self._boost_defect(u0, 0.75, dt, 0.2, "etdrk4") for dt in (4e-3, 2e-3)]
        assert abs(floor[0] - floor[1]) < 0.01 * floor[1]
        assert 0.25 * share < floor[1] < share

    @pytest.mark.parametrize("integrator", ["etdrk4", "strang"])
    def test_y_reflection(self, integrator):
        u0 = _two_gaussians(make_grid(64, 64, 16.0, 16.0))
        ref = _reflect(_final(u0, 2e-3, 0.1, integrator=integrator), 0)
        got = _final(RealField2D(u0.grid, _reflect(u0.samples, 0)), 2e-3, 0.1,
                     integrator=integrator)
        assert _max_rel(got, ref) < 1e-14

    def test_x_reflection_time_reversal_order(self):
        # u(-t, -x, y) solves the equation: step T, reflect x, step T again
        # and reflect back returns u0 up to ETDRK4's error
        u0 = _two_gaussians(make_grid(64, 64, 16.0, 16.0))
        errs = []
        for dt in (4e-3, 2e-3):
            u1 = _final(u0, dt, 0.2)
            u2 = _final(RealField2D(u0.grid, _reflect(u1, 1)), dt, 0.2)
            errs.append(_max_rel(_reflect(u2, 1), u0.samples))
        assert np.log2(errs[0] / errs[1]) > 3.5 and errs[1] < 1e-12


# --- exact traveling waves ----------------------------------------------------
# y-constant data stay y-constant and solve u_t + D_x^{a+1} u_x + u u_x = 0.
# Under w = xi (eta^2 - |xi|^{1+a}) its traveling waves are negative and move
# left.  Acceptance criterion 11 (tests/criterion11_waves.py) steps them.

def _bo_wave(g, t, delta=2.0):
    """a = 0: the periodic Benjamin-Ono wave of width delta on background 0,
    -4k sum_n r^n cos(n k (x - ct)) with k = 2 pi / lx and r = exp(-k delta)."""
    k = 2.0 * np.pi / g.lx
    r = np.exp(-k * delta)
    c = k * (1.0 - 3.0 * r * r) / (1.0 - r * r)
    th = k * (g.meshgrid()[0] - c * t)
    return -4.0 * k * (r * np.cos(th) - r * r) / (1.0 - 2.0 * r * np.cos(th) + r * r), c


def _sech2_wave(g, t, c=1.0):
    """a = 1, u_t - u_xxx + u u_x = 0: -3c sech^2(sqrt(c) (x + ct) / 2) with
    its images summed over the box."""
    x = g.meshgrid()[0] + c * t
    images = sum(np.cosh(np.sqrt(c) * (x + n * g.lx) / 2.0) ** -2.0 for n in range(-2, 3))
    return -3.0 * c * images, -c


def _petviashvili_wave(g, a, speed=1.0):
    """Half spectrum of the y-constant wave that moves at -speed.

    psi = -u solves M psi^ = (psi^2)^ / 2 with M = |xi|^{1+a} + speed, the
    square truncated by the solver's own 2/3-rule multiplier, so the wave
    translates exactly under the semi-discrete flow.  Petviashvili's
    iteration psi^ <- s^2 (psi^2)^ / (2M), s = <psi^, M psi^> / <psi^, (psi^2)^ / 2>.
    """
    xi = half_xi(g)
    # m / (-i xi) is the 2/3 mask over 2 dx dy; the xi = 0 column, where m
    # is 0, takes column 1's factor, which the mask keeps in the same rows
    half_sq = _nl_multiplier(g, True) / np.where(xi == 0.0, 1.0, -1j * xi)
    half_sq[:, 0] = half_sq[:, 1]
    big_m = np.abs(xi) ** (1.0 + a) + speed
    weights = hermitian_weights(g.nx)
    psi = half_spectrum(RealField2D(g, 2.0 * speed * np.exp(-g.meshgrid()[0] ** 2)))
    for _ in range(200):
        sq = _quadratic(np.fft.irfft2(psi, s=(g.ny, g.nx)), half_sq)
        s = np.sum(weights * (psi.conj() * big_m * psi).real) / np.sum(
            weights * (psi.conj() * sq).real
        )
        psi, prev = s * s * sq / big_m, psi
        if np.max(np.abs(psi - prev)) <= 1e-15 * np.max(np.abs(psi)):
            break
    return -psi


def wave_case(a):
    """(grid, t -> samples of the exact wave) for a in {0, 1/4, 1/2, 3/4, 1}:
    the closed forms at a = 0 and 1, Petviashvili's waves between, whose
    translate by -t is the spectral shift exp(i xi t)."""
    if a in (0.0, 1.0):
        g = make_grid(512, 8, 64.0, 8.0)
        wave = _bo_wave if a == 0.0 else _sech2_wave
        return g, lambda t: wave(g, t)[0]
    g = make_grid(1024, 8, 128.0, 8.0)
    v = _petviashvili_wave(g, a)
    return g, lambda t: _from_half(v * np.exp(1j * half_xi(g) * t), g).samples


def _wave_residual(g, a, c, v):
    """max |-i xi c v - (i w v + N(v))| over max |i w v|: the translate's time
    derivative against the solver's right side, on the half spectrum v."""
    xi = half_xi(g)[None, :]
    iwv = 1j * dispersion_symbol(xi, g.eta[:, None], a) * v
    nl = _quadratic(np.fft.irfft2(v, s=(g.ny, g.nx)), _nl_multiplier(g, True))
    return np.max(np.abs(iwv + nl + 1j * c * xi * v)) / np.max(np.abs(iwv))


class TestTravelingWaves:
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_petviashvili_wave_translates_under_the_semidiscrete_flow(self, a):
        g = make_grid(1024, 8, 128.0, 8.0)
        assert _wave_residual(g, a, -1.0, _petviashvili_wave(g, a)) < 2e-14

    @pytest.mark.parametrize("a, wave", [(0.0, _bo_wave), (1.0, _sech2_wave)])
    def test_closed_form_solves_the_semidiscrete_wave_equation(self, a, wave):
        # to its share outside the 2/3 mask, which N never sees
        g = make_grid(512, 8, 64.0, 8.0)
        u, c = wave(g, 0.0)
        assert _wave_residual(g, a, c, half_spectrum(RealField2D(g, u))) < 2e-11
