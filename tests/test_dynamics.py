"""Exact linear evolution: assembly, trivial solutions, oracles, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from chainbath.dynamics import (
    InitialState,
    Trajectory,
    assemble_extended_matrix,
    assemble_io_matrix,
    chain_initial_conditions,
    evolve_exact,
    evolve_io,
    evolve_raw,
    evolve_truncated,
    evolve_truncated_x,
    free_mode_evolution,
    total_energy,
)
from chainbath.errors import DimensionMismatch, IndexOutOfRange, UnstableMode
from chainbath.spectral import ChainModel, build_io_model, chain_from_io
from tests.conftest import make_instance


class TestAssembly:
    def test_isolated_system(self, small_instance):
        _, chain, _, _ = small_instance
        A = assemble_extended_matrix(chain, 0)
        assert A == pytest.approx(np.array([[chain.Omega0**2]]))

    def test_two_by_two_direct(self):
        chain = ChainModel(Omega=np.array([1.0]), D=np.array([]), D0=1.0, Omega0=2.0)
        assert assemble_extended_matrix(chain, 1) == pytest.approx(
            np.array([[4.0, -1.0], [-1.0, 1.0]])
        )

    def test_full_spectrum_positive(self, small_instance):
        _, chain, _, _ = small_instance
        A = assemble_extended_matrix(chain, chain.N)
        assert np.linalg.eigvalsh(A).min() > 0

    def test_index_out_of_range(self, small_instance):
        _, chain, _, _ = small_instance
        with pytest.raises(IndexOutOfRange):
            assemble_extended_matrix(chain, chain.N + 1)

    def test_io_matrix_layout(self):
        io = build_io_model([1.0, 2.0], [0.3, 0.4], 1.5)
        A = assemble_io_matrix(io)
        assert A == pytest.approx(
            np.array([[2.25, 0.3, 0.4], [0.3, 1.0, 0.0], [0.4, 0.0, 4.0]])
        )


class TestEvolveExact:
    def test_free_cosine(self):
        A = np.array([[4.0]])
        times = np.linspace(0, 10, 257)
        traj = evolve_exact(A, [1.0], [0.0], times)
        assert traj.x == pytest.approx(np.cos(2 * times), abs=1e-12)

    def test_free_sine(self):
        A = np.array([[4.0]])
        times = np.linspace(0, 10, 257)
        traj = evolve_exact(A, [0.0], [1.0], times)
        assert traj.x == pytest.approx(np.sin(2 * times) / 2, abs=1e-12)

    def test_against_adaptive_rk(self):
        io, chain, omap, init = make_instance(99, 6)
        A = assemble_extended_matrix(chain, chain.N)
        X0, Xdot0 = chain_initial_conditions(omap, init)
        y0 = np.concatenate([[init.x0], X0])
        ydot0 = np.concatenate([[init.xdot0], Xdot0])
        times = np.linspace(0, 20, 101)
        traj = evolve_exact(A, y0, ydot0, times)

        def rhs(_, z):
            d = len(z) // 2
            return np.concatenate([z[d:], -A @ z[:d]])

        sol = solve_ivp(rhs, (0, 20), np.concatenate([y0, ydot0]),
                        t_eval=times, rtol=1e-11, atol=1e-13)
        assert np.abs(traj.x - sol.y[0]).max() < 1e-7

    def test_energy_conservation(self, small_instance):
        _, chain, omap, init = small_instance
        A = assemble_extended_matrix(chain, chain.N)
        times = np.linspace(0, 50 / chain.Omega0, 513)
        X0, Xdot0 = chain_initial_conditions(omap, init)
        traj = evolve_exact(A, np.concatenate([[init.x0], X0]),
                            np.concatenate([[init.xdot0], Xdot0]), times)
        E = total_energy(A, traj)
        assert np.abs(E - E[0]).max() <= 1e-9 * abs(E[0])

    def test_unstable_mode_detected(self):
        with pytest.raises(UnstableMode):
            evolve_raw(np.array([[-0.5]]), [1.0], [0.0], np.linspace(0, 1, 8))

    def test_time_reversal(self, small_instance):
        _, chain, omap, init = small_instance
        A = assemble_extended_matrix(chain, chain.N)
        X0, Xdot0 = chain_initial_conditions(omap, init)
        y0 = np.concatenate([[init.x0], X0])
        ydot0 = np.concatenate([[init.xdot0], Xdot0])
        t1 = 7.3
        Y, Yd = evolve_raw(A, y0, ydot0, np.array([t1]))
        Y2, Yd2 = evolve_raw(A, Y[0], -Yd[0], np.array([t1]))
        assert Y2[0] == pytest.approx(y0, abs=1e-9)
        assert -Yd2[0] == pytest.approx(ydot0, abs=1e-9)

    def test_grid_independence(self, small_instance):
        _, chain, omap, init = small_instance
        times = np.linspace(0, 6, 65)
        fine = np.linspace(0, 6, 129)
        a = evolve_truncated(chain, chain.N, init, omap, times)
        b = evolve_truncated(chain, chain.N, init, omap, fine)
        assert a.x == pytest.approx(b.x[::2], abs=1e-13)


class TestEvolveTruncated:
    def test_no_truncation_matches_full_bitwise(self, small_instance):
        _, chain, omap, init = small_instance
        times = np.linspace(0, 5, 65)
        a = evolve_truncated(chain, chain.N, init, omap, times)
        b = evolve_truncated(chain, chain.N, init, omap, times)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.X, b.X)

    def test_positions_only_are_bitwise(self):
        io, chain, omap, init = make_instance(5, 24)
        times = np.linspace(0, 8, 257)
        full = evolve_truncated(chain, chain.N, init, omap, times)
        pos = evolve_truncated(chain, chain.N, init, omap, times, velocities=False)
        assert np.array_equal(pos.x, full.x) and np.array_equal(pos.X, full.X)
        assert pos.xdot is None and pos.Xdot is None

    def test_isolated_system_free_oscillation(self, small_instance):
        _, chain, omap, init = small_instance
        times = np.linspace(0, 5, 65)
        traj = evolve_truncated(chain, 0, init, omap, times)
        expect = free_mode_evolution(chain.Omega0, init.x0, init.xdot0, times)
        assert traj.x == pytest.approx(expect, abs=1e-12)
        assert traj.X.shape == (0, len(times))

    def test_smalltime_error_order(self):
        # |x - x_(n)| ~ t^(2n+2): consecutive decades give slope 2n+2
        io, chain, omap, init = make_instance(17, 6)
        n = 2
        wmax = float(io.omega.max())
        ts = np.geomspace(0.05 / wmax, 0.5 / wmax, 12)
        A_full = assemble_extended_matrix(chain, chain.N)
        A_tr = assemble_extended_matrix(chain, n)
        X0, Xdot0 = chain_initial_conditions(omap, init)
        yf = np.concatenate([[init.x0], X0])
        ydf = np.concatenate([[init.xdot0], Xdot0])
        yt, ydt = yf[: n + 1], ydf[: n + 1]
        err = np.abs(evolve_raw(A_full, yf, ydf, ts)[0][:, 0]
                     - evolve_raw(A_tr, yt, ydt, ts)[0][:, 0])
        slope = np.polyfit(np.log(ts), np.log(err), 1)[0]
        assert slope == pytest.approx(2 * n + 2, abs=0.2)


class TestEvolveTruncatedX:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 32))
    def test_matches_full_trajectory(self, seed, N):
        io, chain, omap, init = make_instance(seed, N)
        times = np.linspace(0, 20 / chain.Omega0, 257)
        for n in (0, 1, N // 2, N):
            x = evolve_truncated_x(chain, n, init, omap, times)
            ref = evolve_truncated(chain, n, init, omap, times).x
            assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max(), f"n={n}"

    def test_initial_value_exact(self, small_instance):
        _, chain, omap, init = small_instance
        for n in range(chain.N + 1):
            x = evolve_truncated_x(chain, n, init, omap, np.linspace(0, 3, 7))
            assert x[0] == init.x0

    def test_index_out_of_range(self, small_instance):
        _, chain, omap, init = small_instance
        with pytest.raises(IndexOutOfRange):
            evolve_truncated_x(chain, chain.N + 1, init, omap, np.linspace(0, 1, 3))


class TestPictures:
    def test_equivalence_of_pictures(self):
        for seed in (3, 4, 5):
            io, chain, omap, init = make_instance(seed, 5)
            times = np.linspace(0, 12, 257)
            chain_x = evolve_truncated(chain, chain.N, init, omap, times).x
            io_x = evolve_io(io, init, times).x
            assert np.abs(chain_x - io_x).max() < 1e-8

    def test_chain_initial_conditions_shape(self, small_instance):
        io, chain, omap, init = small_instance
        X0, Xdot0 = chain_initial_conditions(omap, init)
        assert X0.shape == (io.N,) and Xdot0.shape == (io.N,)
        other = InitialState(q0=np.zeros(2), qdot0=np.zeros(2))
        with pytest.raises(DimensionMismatch):
            chain_initial_conditions(omap, other)


class TestFreeMode:
    def test_half_period(self):
        assert free_mode_evolution(1.0, 1.0, 0.0, np.pi) == pytest.approx(-1.0)

    def test_velocity_start(self):
        assert free_mode_evolution(2.0, 0.0, 2.0, np.pi / 4) == pytest.approx(1.0)

    def test_matches_isolated_evolution(self):
        times = np.linspace(0, 9, 97)
        traj = evolve_exact(np.array([[2.89]]), [0.4], [-0.3], times)
        expect = free_mode_evolution(1.7, 0.4, -0.3, times)
        assert traj.x == pytest.approx(expect, abs=1e-12)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            free_mode_evolution(0.0, 1.0, 0.0, 0.5)


class TestTrajectoryValidation:
    def test_nonuniform_grid_rejected(self):
        times = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            Trajectory(times=times, x=np.zeros(3), xdot=np.zeros(3),
                       X=np.zeros((1, 3)), Xdot=np.zeros((1, 3)))

    def test_shape_mismatch_rejected(self):
        times = np.linspace(0, 1, 3)
        with pytest.raises(DimensionMismatch):
            Trajectory(times=times, x=np.zeros(3), xdot=np.zeros(3),
                       X=np.zeros((1, 4)), Xdot=np.zeros((1, 4)))

    def test_one_missing_velocity_rejected(self):
        times = np.linspace(0, 1, 3)
        with pytest.raises(DimensionMismatch):
            Trajectory(times=times, x=np.zeros(3), xdot=None,
                       X=np.zeros((1, 3)), Xdot=np.zeros((1, 3)))
