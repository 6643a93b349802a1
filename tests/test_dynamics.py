"""Exact linear evolution: assembly, trivial solutions, oracles, invariants."""

import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from chainbath import dynamics
from chainbath.dynamics import (
    BLOCK,
    InitialState,
    _distance_blocks,
    _secular_roots,
    assemble_extended_matrix,
    cut_modes,
    extended_initial_conditions,
    io_modes,
    sample,
)
from chainbath.errors import UnstableMode
from chainbath.instances import geometric_spectrum, linear_spectrum, random_initial_state
from chainbath.spectral import ChainModel, build_io_model, chain_from_io
from tests.conftest import (
    LARGE_BATH_TIMES,
    bath_x,
    cut_x,
    large_bath_case,
    long_chain,
    make_instance,
    random_bath,
    schur,
)
from tests.make_x_reference import committed_reference
from tests.oracles import (
    Trajectory,
    assemble_io_matrix,
    dense_modes,
    evolve_exact,
    evolve_io,
    evolve_raw,
    evolve_truncated,
    free_mode,
    total_energy,
)


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
        with pytest.raises(ValueError, match=re.escape(
                f"truncation index must lie within [0, {chain.N}], not {chain.N + 1}")):
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
        y0, ydot0 = extended_initial_conditions(omap, init, len(omap))
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
        traj = evolve_exact(A, *extended_initial_conditions(omap, init, len(omap)), times)
        E = total_energy(A, traj)
        assert np.abs(E - E[0]).max() <= 1e-9 * abs(E[0])

    def test_unstable_mode_detected(self):
        with pytest.raises(UnstableMode):
            evolve_raw(np.array([[-0.5]]), [1.0], [0.0], np.linspace(0, 1, 8))

    def test_time_reversal(self, small_instance):
        _, chain, omap, init = small_instance
        A = assemble_extended_matrix(chain, chain.N)
        y0, ydot0 = extended_initial_conditions(omap, init, len(omap))
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

    def test_isolated_system_free_oscillation(self, small_instance):
        _, chain, omap, init = small_instance
        times = np.linspace(0, 5, 65)
        traj = evolve_truncated(chain, 0, init, omap, times)
        expect = free_mode(chain.Omega0, init.x0, init.xdot0, times)
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
        yf, ydf = extended_initial_conditions(omap, init, len(omap))
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
            x = cut_x(chain, n, init, omap, times)
            ref = evolve_truncated(chain, n, init, omap, times).x
            assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max(), f"n={n}"

    def test_initial_value_exact(self, small_instance):
        _, chain, omap, init = small_instance
        for n in range(chain.N + 1):
            x = cut_x(chain, n, init, omap, np.linspace(0, 3, 7))
            assert x[0] == init.x0

    def test_index_out_of_range(self, small_instance):
        _, chain, omap, init = small_instance
        with pytest.raises(ValueError, match=re.escape(
                f"truncation index must lie within [0, {chain.N}], not {chain.N + 1}")):
            cut_x(chain, chain.N + 1, init, omap, np.linspace(0, 1, 3))

    def test_modal_sum_means_x(self):
        # on seeded random baths and a strong one (c_k = 3), every cut: the
        # moments are those of the cut matrix's (0, 0) entry, 1, Omega0^2
        # and Omega0^4 + D0^2 (no D0 at n = 0)
        cases = [make_instance(seed, N) for seed, N in ((1, 2), (2, 7), (3, 40), (4, 150))]
        strong = build_io_model([0.5, 0.6, 0.7], [3.0, 3.0, 3.0], 10.0)
        cases.append((strong, *chain_from_io(strong),
                      random_initial_state(np.random.default_rng(8), strong.N)))
        for _, chain, omap, init in cases:
            times = np.linspace(0.0, 50.0, 1025)
            for n in sorted({0, 1, chain.N // 2, chain.N}):
                W2 = chain.Omega0**2
                assert_modal_sum_facts(cut_modes(chain, n, init, omap), init.x0,
                                       [1.0, W2, W2 * W2 + (chain.D0**2 if n else 0.0)], times)


def x_mpmath(io, init, times, dps=40):
    """x(t) from a `dps`-digit eigendecomposition of the oscillator-picture
    matrix (mpmath's Jacobi `eigsy`), rounded to doubles."""
    with mpmath.workdps(dps):
        lam, V = mpmath.eigsy(mpmath.matrix(assemble_io_matrix(io).tolist()))
        a = V.T * mpmath.matrix(np.concatenate([[init.x0], init.q0]).tolist())
        b = V.T * mpmath.matrix(np.concatenate([[init.xdot0], init.qdot0]).tolist())
        w = [mpmath.sqrt(v) for v in lam]
        return np.array([float(mpmath.fsum(
            V[0, j] * (a[j] * mpmath.cos(w[j] * t) + b[j] * mpmath.sin(w[j] * t) / w[j])
            for j in range(len(w)))) for t in map(mpmath.mpf, times)])


def assert_modal_sum_facts(modes, x0, moments, times):
    """What a modal sum (w, V, a, b, y0) of x means: `sample` is y0 at
    t = 0 exactly, sum_j V[0, j] a_j is x0, the even moments
    sum_j V[0, j]^2 w_j^(2k) are `moments` (k = 0, 1, ...), and
    max|x| <= A = sum_j |V[0, j]| hypot(a_j, b_j)."""
    w, V, a, b, y0 = modes
    rows = sample(modes, times)
    assert np.array_equal(rows[:, 0], y0)
    assert abs(np.sum(V[0] * a) - x0) <= 4e-15 * np.sum(np.abs(V[0] * a))
    v2 = V[0] ** 2
    for k, moment in enumerate(moments):
        assert np.sum(v2 * w ** (2 * k)) == pytest.approx(moment, rel=4e-15), f"k={k}"
    assert np.abs(rows[0]).max() <= np.sum(np.abs(V[0]) * np.hypot(a, b))


def assert_matches_dense(io, init, times, ref=None):
    """`bath_x` against the dense eigensolve of `evolve_io`, or against
    `ref` where given: x to 1e-12 max|x|, the eigenvalues to 1e-13
    lambda_max, x0 exact at t = 0."""
    x = bath_x(io, init, times)
    ref = evolve_io(io, init, times).x if ref is None else ref
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
        for evolve in (bath_x, evolve_io):
            with pytest.raises(UnstableMode):
                evolve(io, init, np.linspace(0.0, 1.0, 3))

    # seed in [0, 2^32), N in [97, 640] and margin in [1e-3, 4], drawn once,
    # and (0, 511, 1.0), on which the dense eigh oracle is 2.3e-12 max|x|
    # from a 30-digit x(t) and the secular route 1.7e-15
    LARGE_BATH_CASES = [
        (0, 511, 1.0), (4079841081, 336, 0.407), (2683220641, 628, 0.474),
        (385344134, 604, 3.187), (642921185, 542, 2.001), (2751905003, 318, 3.337),
        (1236245523, 465, 2.529), (210481816, 511, 1.623), (509645319, 237, 3.69),
    ]

    def test_matches_dense_route_on_large_random_baths(self):
        # above the sizes hypothesis can draw, and across several blocks;
        # where the dense oracle misses the bound itself, against the
        # committed reference of tests/make_x_reference.py
        for seed, N, margin in self.LARGE_BATH_CASES:
            io, init = large_bath_case(seed, N, margin)
            assert_matches_dense(io, init, LARGE_BATH_TIMES,
                                 committed_reference(seed, N, margin))

    @pytest.mark.parametrize("N", [BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK - 2, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1,
                                   4 * BLOCK, 4 * BLOCK + 1])
    def test_block_edges(self, N):
        # N + 1 roots and modes: one short of one, two and four blocks, those
        # blocks, and one over
        io = long_chain(linear_spectrum, N)
        init = random_initial_state(np.random.default_rng(N), N)
        assert_matches_dense(io, init, np.linspace(0.0, 10.0, 257))

    @pytest.mark.parametrize("roots", [1, BLOCK, 2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK + 1])
    def test_distance_blocks_refill_one_buffer(self, roots):
        # every block is (d - sigma) - tau bit for bit, in one buffer that
        # the caller may overwrite
        rng = np.random.default_rng(roots)
        d = rng.uniform(0, 4, 300)
        sigma, tau = rng.uniform(0, 4, roots), rng.normal(0, 1e-3, roots)
        blocks = []
        for rows, dist in _distance_blocks(d, sigma, tau):
            assert not blocks or np.shares_memory(dist, blocks[0][1])
            blocks.append((rows, dist, dist.copy()))
            dist[:] = np.nan
        assert blocks[-1][0].stop == roots
        assert np.array_equal(np.concatenate([copy for *_, copy in blocks]),
                              (d - sigma[:, None]) - tau[:, None])

    @pytest.mark.parametrize("M", [2, 3, 101, 1024])
    def test_sample_counts(self, M):
        # 101 leaves the angle-addition product's last row part-filled,
        # 1024 = 32^2 fills it
        io = long_chain(linear_spectrum, BLOCK + 1)
        init = random_initial_state(np.random.default_rng(M), io.N)
        assert_matches_dense(io, init, np.linspace(0.0, 10.0, M))

    def test_nonuniform_grid_is_refused(self):
        # a geometric grid, and a uniform one with one step off by 1e-6:
        # the modal sums take a uniform grid from 0 only
        io, chain, omap, init = make_instance(21, 12)
        bent = np.linspace(0.0, 10.0, 257)
        bent[100] += 1e-6 * bent[1]
        for times in (np.geomspace(1e-3, 10.0, 65), bent):
            with pytest.raises(ValueError, match="uniform"):
                bath_x(io, init, times)
            with pytest.raises(ValueError, match="uniform"):
                cut_x(chain, 4, init, omap, times)

    def test_uniform_grid_matches_the_direct_form(self):
        # every row of the untruncated chain's modal sum against the direct
        # sum over the modes, which the angle-addition product must reproduce
        _, chain, omap, init = make_instance(22, 12)
        y0, ydot0 = extended_initial_conditions(omap, init, len(omap))
        A = assemble_extended_matrix(chain, chain.N)
        times = np.linspace(0.0, 100.0, 8192)
        rows, direct = sample(dense_modes(A, y0, ydot0), times), evolve_raw(A, y0, ydot0, times)[0].T
        assert np.array_equal(rows[:, 0], y0)
        assert np.all(np.abs(rows - direct).max(axis=1) <= 1e-13 * np.abs(direct).max(axis=1))

    @pytest.mark.parametrize("dim", [BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_modes_go_by_blocks(self, monkeypatch, dim):
        # up to BLOCK modes x is the one product, bit for bit; past it the
        # blocks' sum is that product to rounding of the modal amplitudes
        rng = np.random.default_rng(dim)
        w, V, a, b, _ = modes = (rng.uniform(0.5, 2.5, dim), rng.standard_normal((1, dim)),
                                 rng.standard_normal(dim), rng.standard_normal(dim), [0.3])
        times = np.linspace(0.0, 10.0, 2048)
        x = sample(modes, times)[0]
        monkeypatch.setattr(dynamics, "BLOCK", 10**6)
        one = sample(modes, times)[0]
        if dim <= BLOCK:
            assert np.array_equal(x, one)
        else:
            amplitudes = float(np.sum(np.abs(V[0]) * np.hypot(a, b)))
            assert np.abs(x - one).max() <= 4 * np.finfo(float).eps * amplitudes

    def test_memory_is_a_few_blocks(self):
        # no (N+1) x N and no samples x (N+1) array: the O(N^2) sweeps hold
        # one BLOCK x N buffer at a time and the modal sums 2 sqrt(M) rows
        # of BLOCK modes; measured 0.074 (N+1) N doubles, where whole
        # arrays took 2.13
        N = 2048
        io = long_chain(linear_spectrum, N)
        init = random_initial_state(np.random.default_rng(12), N)
        times = np.linspace(0.0, 10.0, 2048)
        tracemalloc.start()
        try:
            x = bath_x(io, init, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x[0] == init.x0
        assert peak <= 0.1 * (N + 1) * N * 8

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
        x = bath_x(io, init, times)
        ref = evolve_io(io, init, times).x
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("gap, coupling", [(1e-7, 1e-5), (1e-8, 1e-6)])
    def test_weak_mode_against_40_digits(self, gap, coupling):
        # the case above on a 24-mode random bath, against a 40-digit
        # eigendecomposition: measured 1.6e-15 and 2.3e-15 relative to
        # max|x| before the blocked rewrite (the dense route: 2.7e-14, 1.1e-14)
        N = 24
        rng = np.random.default_rng(N)
        omega = 0.5 + np.cumsum(rng.uniform(0.01, 0.2, N))
        c = 10.0 ** rng.uniform(-2.0, -0.5, N)
        Omega0 = np.sqrt(np.sum(c**2 / omega**2) + 0.5)
        lam = np.linalg.eigvalsh(assemble_io_matrix(build_io_model(omega, c, Omega0)))
        w_k = np.sqrt(lam[N // 2] + gap)
        k = np.searchsorted(omega, w_k)
        io = build_io_model(np.insert(omega, k, w_k), np.insert(c, k, coupling), Omega0)
        init = random_initial_state(np.random.default_rng(3), io.N)
        times = np.linspace(0.0, 20.0, 129)
        ref = x_mpmath(io, init, times)
        assert np.abs(bath_x(io, init, times) - ref).max() <= 5e-15 * np.abs(ref).max()

    def test_frequencies_one_ulp_apart(self):
        # the middle of the bracket between the two poles rounds onto one of
        # them: no division by zero (a RuntimeWarning fails the test), and x
        # matches the dense route
        io = build_io_model([np.nextafter(3.0, 0.0), 3.0], [0.25, 0.25], 1.2)
        init = random_initial_state(np.random.default_rng(12), io.N)
        assert_matches_dense(io, init, np.linspace(0.0, 10.0, 257))

    @pytest.mark.parametrize("tiny", [1e-13, 1e-200])
    def test_vanishing_couplings(self, tiny):
        # at 1e-200 the root would sit closer to its pole than a double
        # resolves; that mode decouples, and with every coupling that small
        # the system oscillates freely
        init = random_initial_state(np.random.default_rng(11), 3)
        times = np.linspace(0.0, 10.0, 257)
        for c in ([0.5, tiny, 0.4], [tiny] * 3):
            io = build_io_model([1.0, 2.0, 3.0], c, 1.5)
            x = bath_x(io, init, times)
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
                bath_x(io, init, times)
        else:
            lam = assert_matches_dense(io, init, times)
            assert 0.0 < lam.min() < 1e-8

    def test_secular_roots_leave_the_schur_check_to_the_caller(self):
        # at the Schur threshold the lowest root is 0: the solver returns it
        d, c2 = np.array([0.5, 1.0, 1.5]), np.array([0.04, 0.16, 0.09])
        sigma, tau = _secular_roots(d, c2, float(np.sum(c2 / d)))
        assert abs(sigma[0] + tau[0]) <= 1e-15


class TestEvolveIoModes:
    """Rows -O[i] . q(t) for any rows O against the dense oscillator
    picture; row 0 is `bath_x` bit for bit."""

    @staticmethod
    def assert_rows_match_dense(io, O, init, times):
        w, V, a, b, y0 = modes = io_modes(io, init, O)
        rows = sample(modes, times)
        # one pass over the modes serves every row: each is that row alone
        for i in range(len(V)):
            assert np.array_equal(rows[i], sample((w, V[i:i + 1], a, b, y0[i:i + 1]), times)[0])
        ref = -(O @ evolve_io(io, init, times).X)
        assert np.array_equal(rows[0], bath_x(io, init, times))
        assert np.array_equal(rows[1:, 0], -(O @ init.q0))
        assert np.abs(rows[1:] - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("N", [1, 12, BLOCK + 1, 2 * BLOCK + 1])
    def test_rows_match_the_dense_route(self, N):
        io = long_chain(linear_spectrum, N)
        rng = np.random.default_rng(N)
        init = random_initial_state(rng, N)
        self.assert_rows_match_dense(io, rng.standard_normal((3, N)), init,
                                     np.linspace(0.0, 10.0, 257))

    def test_chain_rows_match_the_chain_picture(self):
        # with map rows, the rows are the chain coordinates X_j(t)
        io, chain, omap, init = make_instance(6, 12)
        times = np.linspace(0.0, 10.0, 257)
        rows = sample(io_modes(io, init, omap[:3]), times)
        X = evolve_truncated(chain, chain.N, init, omap, times).X[:3]
        assert np.abs(rows[1:] - X).max() <= 1e-12 * np.abs(X).max()

    @pytest.mark.parametrize("c", [[0.5, 1e-200, 0.4], [1e-200] * 3])
    def test_decoupled_modes_reach_the_rows(self, c):
        # a deflated mode never reaches x, but its column of O carries it
        io = build_io_model([1.0, 2.0, 3.0], c, 1.5)
        rng = np.random.default_rng(13)
        init = random_initial_state(rng, 3)
        self.assert_rows_match_dense(io, rng.standard_normal((2, 3)), init,
                                     np.linspace(0.0, 10.0, 257))

    def test_modal_sum_means_x(self):
        # on seeded random baths with map rows, a strong bath and a deflated
        # one (its decoupled mode weighs 0 in x): the moments are those of
        # the arrowhead's (0, 0) entry, 1, Omega0^2 and Omega0^4 + ||c||^2
        cases = []
        for seed in range(20):
            N = int(np.random.default_rng(seed).integers(1, 200))
            cases.append(large_bath_case(seed, N, 0.05 + seed / 5))
        for omega, c, Omega0 in (([0.5, 0.6, 0.7], [3.0, 3.0, 3.0], 10.0),
                                 ([1.0, 2.0, 3.0], [0.5, 1e-200, 0.4], 1.5)):
            io = build_io_model(omega, c, Omega0)
            cases.append((io, random_initial_state(np.random.default_rng(9), io.N)))
        for io, init in cases:
            O = np.random.default_rng(io.N).standard_normal((2, io.N))
            W2 = io.Omega0**2
            assert_modal_sum_facts(io_modes(io, init, O), init.x0,
                                   [1.0, W2, W2 * W2 + float(np.sum(io.c**2))],
                                   np.linspace(0.0, 50.0, 1025))

    def test_rows_must_act_on_the_bath(self, small_instance):
        io, _, _, init = small_instance
        with pytest.raises(ValueError, match="do not act on"):
            io_modes(io, init, np.ones((1, io.N + 1)))

    def test_state_must_fit_the_bath(self, small_instance):
        io, _, _, _ = small_instance
        other = InitialState(q0=np.zeros(io.N + 1), qdot0=np.zeros(io.N + 1))
        with pytest.raises(ValueError, match=re.escape(
                f"initial-state size must lie within [{io.N}, {io.N}], not {io.N + 1}")):
            io_modes(io, other, np.empty((0, io.N)))


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
        y0, ydot0 = extended_initial_conditions(omap, init, io.N)
        assert y0.shape == (io.N + 1,) and ydot0.shape == (io.N + 1,)
        assert np.array_equal(y0[1:], -(omap @ init.q0)) and y0[0] == init.x0
        other = InitialState(q0=np.zeros(2), qdot0=np.zeros(2))
        with pytest.raises(ValueError, match="map bath size"):
            extended_initial_conditions(omap, other, io.N)


class TestInitialState:
    @pytest.mark.parametrize("q0, qdot0", [([0.1, 0.2], [0.1]), ([[0.1]], [[0.1]])])
    def test_shapes_must_agree(self, q0, qdot0):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            InitialState(q0=np.array(q0), qdot0=np.array(qdot0))

    @pytest.mark.parametrize("entries", [{"q0": [1e78]}, {"qdot0": [np.nan]}, {"x0": -1e78},
                                         {"xdot0": np.inf}])
    def test_entries_must_be_finite_within_scale(self, entries):
        data = {"q0": [0.1], "qdot0": [0.1], **entries}
        with pytest.raises(ValueError, match="finite and at most"):
            InitialState(q0=np.array(data.pop("q0")), qdot0=np.array(data.pop("qdot0")), **data)

    def test_freezes_a_copy(self):
        # the state is read-only, the caller's arrays stay theirs
        q, p = np.array([0.1, 0.2]), np.array([0.3, 0.4])
        init = InitialState(q0=q, qdot0=p)
        q[0] = p[0] = 1.0
        assert init.q0[0] == 0.1 and init.qdot0[0] == 0.3
        assert not init.q0.flags.writeable and not init.qdot0.flags.writeable


class TestFreeMode:
    def test_invalid_frequency(self):
        # a free mode is a one-mode modal sum; NaN passes a bare
        # `omega <= 0`, and inf beside a finite frequency passes a check of
        # the smallest: each once returned NaN samples
        for w in ([0.0], [np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError, match=re.escape(
                    "mode frequency must lie within [5e-324, 1.7976931348623157e+308], "
                    f"not {w[0]!r}")):
                sample((np.array(w), np.ones((1, len(w))), np.ones(len(w)), np.zeros(len(w)),
                        np.ones(1)), np.linspace(0.0, 1.0, 3))


class TestTrajectoryValidation:
    def test_nonuniform_grid_rejected(self):
        times = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            Trajectory(times=times, x=np.zeros(3), xdot=np.zeros(3),
                       X=np.zeros((1, 3)), Xdot=np.zeros((1, 3)))

    def test_shape_mismatch_rejected(self):
        times = np.linspace(0, 1, 3)
        with pytest.raises(ValueError, match="shapes are inconsistent"):
            Trajectory(times=times, x=np.zeros(3), xdot=np.zeros(3),
                       X=np.zeros((1, 4)), Xdot=np.zeros((1, 4)))

    def test_one_missing_velocity_rejected(self):
        times = np.linspace(0, 1, 3)
        with pytest.raises(ValueError, match="shapes are inconsistent"):
            Trajectory(times=times, x=np.zeros(3), xdot=None,
                       X=np.zeros((1, 3)), Xdot=np.zeros((1, 3)))
