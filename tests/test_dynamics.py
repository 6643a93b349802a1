"""Exact linear evolution: assembly, trivial solutions, oracles, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from chainbath.dynamics import (
    InitialState,
    Trajectory,
    _secular_roots,
    assemble_extended_matrix,
    assemble_io_matrix,
    chain_initial_conditions,
    evolve_exact,
    evolve_io,
    evolve_io_x,
    evolve_raw,
    evolve_truncated,
    evolve_truncated_x,
    free_mode_evolution,
    total_energy,
)
from chainbath.errors import DimensionMismatch, IndexOutOfRange, UnstableMode
from chainbath.instances import geometric_spectrum, linear_spectrum, random_initial_state
from chainbath.spectral import ChainModel, build_io_model, chain_from_io
from tests.conftest import long_chain, make_instance, random_bath


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


def schur(io):
    """sum c_k^2/omega_k^2: the system's Omega0^2 must exceed it."""
    return float(np.sum(io.c**2 / io.omega**2))


def assert_matches_dense(io, init, times):
    """`evolve_io_x` against the dense eigensolve of `evolve_io`: x to
    1e-12 max|x|, the eigenvalues to 1e-13 lambda_max, x0 exact at t = 0."""
    x = evolve_io_x(io, init, times)
    ref = evolve_io(io, init, times).x
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert x[0] == init.x0
    sigma, tau = _secular_roots(io.omega**2, io.c**2, io.Omega0**2)
    lam = np.linalg.eigvalsh(assemble_io_matrix(io))
    assert np.abs(sigma + tau - lam).max() <= 1e-13 * lam.max()
    return sigma + tau


class TestEvolveIoX:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(1, 96), seed=st.integers(0, 2**32 - 1),
           margin=st.floats(1e-3, 4.0))
    def test_matches_dense_route_on_random_baths(self, data, N, seed, margin):
        # Omega0^2 = sum c_k^2/omega_k^2 + margin keeps the bath stable
        bath = random_bath(data, N)
        io = build_io_model(bath.omega, bath.c, np.sqrt(schur(bath) + margin))
        init = random_initial_state(np.random.default_rng(seed), N)
        assert_matches_dense(io, init, np.linspace(0.0, 10.0, 257))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(1, 96), below=st.floats(1e-9, 0.9))
    def test_unstable_random_baths(self, data, N, below):
        bath = random_bath(data, N)
        io = build_io_model(bath.omega, bath.c, np.sqrt(schur(bath) * (1.0 - below)))
        init = random_initial_state(np.random.default_rng(N), N)
        for evolve in (evolve_io_x, evolve_io):
            with pytest.raises(UnstableMode):
                evolve(io, init, np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("omega, c", [([0.7], [0.3]), ([0.7, 1.3], [0.3, 0.5])])
    def test_one_and_two_modes(self, omega, c):
        io = build_io_model(omega, c, 1.1)
        init = random_initial_state(np.random.default_rng(len(c)), len(c))
        assert_matches_dense(io, init, np.linspace(0.0, 20.0, 257))

    def test_system_frequency_on_a_bath_frequency(self):
        io = build_io_model([0.5, 1.0, 1.5, 2.0], [0.1, 0.2, 0.1, 0.05], 1.0)
        init = random_initial_state(np.random.default_rng(7), io.N)
        assert_matches_dense(io, init, np.linspace(0.0, 20.0, 257))

    def test_strong_coupling_lifts_the_top_root(self):
        # Omega0^2 = 100 against sum c_k^2/omega_k^2 = 79.4: stable, and the
        # top eigenvalue sits two hundred times above omega_N^2
        io = build_io_model([0.5, 0.6, 0.7], [3.0, 3.0, 3.0], 10.0)
        init = random_initial_state(np.random.default_rng(8), io.N)
        lam = assert_matches_dense(io, init, np.linspace(0.0, 5.0, 1025))
        assert lam.max() > 200 * io.omega[-1] ** 2

    @pytest.mark.parametrize("spectrum", [linear_spectrum, geometric_spectrum])
    def test_long_chains(self, spectrum):
        io = long_chain(spectrum)
        init = random_initial_state(np.random.default_rng(9), io.N)
        assert_matches_dense(io, init, np.linspace(0.0, 10.0, 513))

    @pytest.mark.parametrize("gap, coupling", [(1e-6, 1e-6), (1e-7, 1e-5), (1e-8, 1e-6)])
    def test_weak_mode_beside_a_root_of_the_rest(self, gap, coupling):
        # a weakly coupled bath mode just above an eigenvalue of the other
        # modes: lambda_j - omega_k^2 is then known to few digits, and with
        # the given couplings (not those the computed roots are exact for)
        # the eigenvectors lose orthogonality, x by up to 6e-12
        omega, c = np.array([0.5, 0.8, 1.1, 1.5]), np.array([0.3, 0.2, 0.25, 0.3])
        lam = np.linalg.eigvalsh(assemble_io_matrix(build_io_model(omega, c, 1.2)))
        w_k = np.sqrt(lam[2] + gap)
        k = np.searchsorted(omega, w_k)
        io = build_io_model(np.insert(omega, k, w_k), np.insert(c, k, coupling), 1.2)
        init = random_initial_state(np.random.default_rng(3), io.N)
        times = np.linspace(0.0, 20.0, 513)
        x = evolve_io_x(io, init, times)
        ref = evolve_io(io, init, times).x
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("tiny", [1e-13, 1e-200])
    def test_vanishing_couplings(self, tiny):
        # at 1e-200 the root would sit closer to its pole than a double
        # resolves; that mode decouples, and with every coupling that small
        # the system oscillates freely
        init = random_initial_state(np.random.default_rng(11), 3)
        times = np.linspace(0.0, 10.0, 257)
        for c in ([0.5, tiny, 0.4], [tiny] * 3):
            io = build_io_model([1.0, 2.0, 3.0], c, 1.5)
            x = evolve_io_x(io, init, times)
            assert np.abs(x - evolve_io(io, init, times).x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_unstable_mode_at_the_schur_threshold(self, side):
        # the smallest eigenvalue crosses zero at Omega0^2 = sum c_k^2/omega_k^2
        omega, c = np.array([0.5, 1.0, 1.5]), np.array([0.2, 0.4, 0.3])
        alpha = np.sum(c**2 / omega**2) * (1.0 + side * 1e-9)
        io = build_io_model(omega, c, np.sqrt(alpha))
        init = random_initial_state(np.random.default_rng(10), io.N)
        times = np.linspace(0.0, 10.0, 257)
        if side < 0:
            with pytest.raises(UnstableMode):
                evolve_io_x(io, init, times)
        else:
            lam = assert_matches_dense(io, init, times)
            assert 0.0 < lam.min() < 1e-8


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
