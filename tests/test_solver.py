import numpy as np
import pytest

from gbozk import (
    BlowUpError,
    DispersionParams,
    RealField2D,
    SolverConfig,
    apply_linear_propagator,
    evolve,
    make_grid,
    nonlinear_term,
    to_physical,
    to_spectral,
)
from gbozk.diagnostics import mass, zero_mode_slice
from gbozk.solver import Stepper

from conftest import gaussian_field, random_field

P = DispersionParams(0.5)


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


class TestStep:
    def test_linear_step_matches_propagator(self, grid_box):
        u = gaussian_field(grid_box, 0.5, 1.0, 2.0)
        c = to_spectral(u)
        for integrator in ("etdrk4", "strang"):
            cfg = SolverConfig(
                dt=0.01, T=1.0, params=P, nonlinear=False, integrator=integrator
            )
            out = Stepper(c.grid, cfg).step(c.coeffs)
            ref = apply_linear_propagator(c, 0.01, P)
            num = np.max(np.abs(out - ref.coeffs))
            assert num / np.max(np.abs(c.coeffs)) < 1e-12

    def test_zero_is_fixed_point(self, grid_2pi):
        c = to_spectral(RealField2D(grid_2pi, np.zeros((grid_2pi.ny, grid_2pi.nx))))
        out = Stepper(c.grid, SolverConfig(dt=0.01, T=1.0, params=P)).step(c.coeffs)
        assert np.max(np.abs(out)) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, T=1.0, params=P)
        with pytest.raises(ValueError):
            SolverConfig(dt=2.0, T=1.0, params=P)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, T=1.0, params=P, integrator="euler")

    def test_etdrk4_self_convergence_order(self):
        g = make_grid(64, 64, 16.0, 16.0)
        u0 = gaussian_field(g, 1.5, 1.0, 1.0)
        T = 0.24  # divisible by every dt below

        def final(dt):
            cfg = SolverConfig(dt=dt, T=T, params=P)
            st = Stepper(g, cfg)
            c = to_spectral(u0).coeffs
            for _ in range(int(round(T / dt))):
                c = st.step(c)
            return c

        ref = final(1.25e-4)
        errs = []
        dts = [4e-3, 2e-3, 1e-3]
        for dt in dts:
            errs.append(np.linalg.norm(final(dt) - ref))
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert order > 3.7


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
        assert traj.times[0] == 0.0
        assert np.isclose(traj.times[-1], 0.1)
        assert np.all(np.diff(traj.times) > 0)

    def test_horizon_landing_within_half_step(self, grid_2pi):
        # rounding T to whole steps always lands within dt/2 of the horizon
        u0 = gaussian_field(grid_2pi, 0.1)
        traj = evolve(u0, SolverConfig(dt=0.03, T=0.1, params=P), stride=1)
        assert abs(traj.times[-1] - 0.1) <= 0.015 + 1e-15

    def test_linear_time_reversibility(self, grid_box):
        # evolve forward with the nonlinearity off, undo with the exact
        # propagator at negative time: the round trip returns the data
        u0 = gaussian_field(grid_box, 0.5, 1.0, 2.0)
        cfg = SolverConfig(dt=0.01, T=0.5, params=P, nonlinear=False)
        st = Stepper(grid_box, cfg)
        c = to_spectral(u0)
        for _ in range(50):
            c.coeffs = st.step(c.coeffs)
        back = apply_linear_propagator(c, -0.5, P)
        u_back = to_physical(back)
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
        cfg = SolverConfig(dt=0.05, T=5.0, params=P, blowup_factor=10.0)
        with pytest.raises(BlowUpError) as err:
            evolve(u0, cfg, stride=1)
        assert err.value.time > 0
        assert hasattr(err.value, "trajectory")
        assert err.value.trajectory.snapshots  # last good state saved

    def test_determinism(self, grid_2pi):
        u0 = gaussian_field(grid_2pi, 0.4, 0.9, 1.1)
        cfg = SolverConfig(dt=0.01, T=0.05, params=P)
        t1 = evolve(u0, cfg, stride=1, snapshot_stride=5)
        t2 = evolve(u0, cfg, stride=1, snapshot_stride=5)
        assert np.array_equal(t1.snapshots[-1][1].samples, t2.snapshots[-1][1].samples)

    def test_a_parameter_continuity_at_zk_limit(self, grid_2pi):
        # a = 1 runs through the same code path with the cubic symbol
        u0 = gaussian_field(grid_2pi, 0.3, 0.9, 0.9)
        traj = evolve(
            u0, SolverConfig(dt=0.01, T=0.05, params=DispersionParams(1.0)), stride=5
        )
        assert np.isclose(traj.times[-1], 0.05)

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
        rhs = apply_linear_propagator(to_spectral(u0), T, P).coeffs
        samples = traj.snapshots
        acc = np.zeros_like(rhs)
        for i, (tau, u_tau) in enumerate(samples):
            n_hat = nonlinear_term(u_tau).coeffs
            term = apply_linear_propagator(
                type(to_spectral(u0))(g, n_hat), T - tau, P
            ).coeffs
            weight = 0.5 if i in (0, len(samples) - 1) else 1.0
            acc += weight * term
        rhs = rhs + acc * (5 * dt)
        lhs = to_spectral(samples[-1][1]).coeffs
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
